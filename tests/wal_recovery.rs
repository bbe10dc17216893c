//! Crash-safety harness for the verdict WAL (`minobs/wal/v1`).
//!
//! Three layers, increasingly end-to-end:
//!
//! 1. **Kill-and-restart sweep** — a pinned-seed sweep of
//!    `minobs_chaos::FaultPlan` storage faults (crash truncation, torn
//!    tail, bit rot) applied to a finished log. After *any* injected
//!    crash point, replay must yield a warm cache that is a
//!    prefix-consistent subset of the pre-crash cache: possibly missing
//!    the newest verdicts, never holding a wrong or invented one.
//! 2. **Order-independence** (proptest) — verdicts are immutable
//!    theorems, so a log written by interleaved workers in any order
//!    must replay to exactly the cache those workers built in memory.
//! 3. **Daemon restart** — a real daemon with a WAL answers a query,
//!    drains, restarts on the same log, and must answer the same query
//!    from the replayed cache (`cached: true`, `svc.cache_hits`
//!    advancing) with horizon subsumption intact.

use minobs_chaos::FaultPlan;
use minobs_obs::MetricsRegistry;
use minobs_svc::cache::VerdictCache;
use minobs_svc::client::SvcClient;
use minobs_svc::server::{serve, SvcConfig};
use minobs_svc::wal::{replay_bytes, MemoryWalFile, Wal, WalFile, WalRecord};
use proptest::prelude::*;
use serde_json::{Map, Value};
use std::io;
use std::path::PathBuf;
use std::time::Duration;

fn fresh_cache() -> VerdictCache {
    VerdictCache::new(&MetricsRegistry::new())
}

/// The deterministic pre-crash workload: horizon deltas and theorem
/// memos across several keys, mirrored into a cache and a WAL. Ground
/// truth per key is a solvability boundary at `3 + idx`: everything
/// below is unsolvable, everything at or above is solvable.
fn build_workload() -> (Vec<u8>, VerdictCache) {
    let cache = fresh_cache();
    let file = MemoryWalFile::new();
    let mut wal = Wal::with_file(Box::new(file.clone())).expect("open wal");
    for idx in 0..4usize {
        let key = format!("classic:s{idx}|gamma");
        let boundary = 3 + idx;
        for k in [0usize, 2, 4, 6, 8, 1, 7] {
            let solvable = k >= boundary;
            let record = WalRecord::Horizon {
                key: key.clone(),
                k,
                solvable,
            };
            cache.admit(&record);
            wal.append(&record).expect("append");
        }
        let theorem_key = format!("classic:s{idx}|theorem");
        let result = Value::from(idx % 2 == 0);
        let record = WalRecord::Theorem {
            key: theorem_key,
            result,
        };
        cache.admit(&record);
        wal.append(&record).expect("append");
    }
    wal.flush().expect("flush");
    (file.bytes(), cache)
}

/// Snapshot as comparable tuples (HorizonVerdicts is compared through
/// its accessors).
type EntryShape = (String, Option<usize>, Option<usize>, Option<Value>);

fn shape(cache: &VerdictCache) -> Vec<EntryShape> {
    cache
        .snapshot()
        .into_iter()
        .map(|(key, v, theorem)| (key, v.min_solvable(), v.max_unsolvable(), theorem))
        .collect()
}

/// After any injected crash, the replayed cache must be a
/// prefix-consistent subset of the pre-crash cache: boundaries may be
/// looser (fewer records survived) but never tighter, never flipped.
#[test]
fn kill_and_restart_yields_a_prefix_consistent_subset() {
    let (full_log, full_cache) = build_workload();
    let full = shape(&full_cache);

    for seed in 0..128u64 {
        let plan = FaultPlan::sample(seed, full_log.len() as u64);
        let mut mutilated = full_log.clone();
        plan.mutilate(&mut mutilated);

        let warm_cache = fresh_cache();
        let report = replay_bytes(&mutilated, &warm_cache);
        assert!(
            report.bytes <= mutilated.len() as u64,
            "seed {seed}: replay claims more bytes than survived"
        );

        for (key, min_solvable, max_unsolvable, theorem) in shape(&warm_cache) {
            let original = full
                .iter()
                .find(|(full_key, ..)| *full_key == key)
                .unwrap_or_else(|| panic!("seed {seed}: replay invented key {key:?}"));
            // Boundaries only ever tighten as records accumulate, so a
            // prefix's bounds are looser-or-equal — and in particular on
            // the correct side of the true boundary, never a wrong verdict.
            if let Some(warm) = min_solvable {
                let full_min = original.1.unwrap_or_else(|| {
                    panic!("seed {seed}: {key:?} solvable at {warm} but never proven solvable")
                });
                assert!(warm >= full_min, "seed {seed}: {key:?} min tightened");
            }
            if let Some(warm) = max_unsolvable {
                let full_max = original.2.unwrap_or_else(|| {
                    panic!("seed {seed}: {key:?} unsolvable at {warm} but never proven unsolvable")
                });
                assert!(warm <= full_max, "seed {seed}: {key:?} max tightened");
            }
            if let Some(t) = &theorem {
                assert_eq!(
                    Some(t),
                    original.3.as_ref(),
                    "seed {seed}: {key:?} theorem memo rewritten"
                );
            }
        }
    }
}

/// A [`WalFile`] that consults a [`FaultPlan`] live: appends past the
/// plan's write-error offset fail `ENOSPC`-style, everything accepted
/// before that stays readable — the disk-full half of the fault model.
struct PlannedFile {
    plan: FaultPlan,
    written: u64,
    survivor: MemoryWalFile,
}

impl WalFile for PlannedFile {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.written += frame.len() as u64;
        if self.plan.fails_at(self.written) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "no space left on device",
            ));
        }
        self.survivor.append(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn enospc_mid_run_loses_the_tail_but_never_a_verdict() {
    for limit in [8u64, 64, 200, 500] {
        let survivor = MemoryWalFile::new();
        let mut wal = Wal::with_file(Box::new(PlannedFile {
            plan: FaultPlan {
                write_error_after_bytes: Some(limit),
                ..FaultPlan::NONE
            },
            written: 0,
            survivor: survivor.clone(),
        }))
        .expect("magic fits under every limit tested");

        let cache = fresh_cache();
        let mut accepted = 0usize;
        for k in 0..16usize {
            let solvable = k >= 5;
            let record = WalRecord::Horizon {
                key: "classic:s1|gamma".to_string(),
                k,
                solvable,
            };
            cache.admit(&record);
            match wal.append(&record) {
                Ok(_) => accepted += 1,
                // First failure latches degradation server-side; stop
                // appending, exactly as the daemon does.
                Err(_) => break,
            }
        }

        let warm = fresh_cache();
        let report = replay_bytes(&survivor.bytes(), &warm);
        assert_eq!(
            report.records, accepted as u64,
            "limit {limit}: every accepted append must replay"
        );
        for (key, min_solvable, max_unsolvable, _) in shape(&warm) {
            assert_eq!(key, "classic:s1|gamma");
            if let Some(k) = min_solvable {
                assert!(k >= 5, "limit {limit}: wrong solvable verdict at {k}");
            }
            if let Some(k) = max_unsolvable {
                assert!(k < 5, "limit {limit}: wrong unsolvable verdict at {k}");
            }
        }
    }
}

proptest! {
    /// Order-independence: a WAL written by interleaved workers replays
    /// to exactly the cache those workers built in memory, whatever the
    /// interleaving — immutable verdicts commute.
    #[test]
    fn interleaved_writes_replay_to_the_shutdown_cache(
        writes in proptest::collection::vec((0..4usize, 0..10usize), 1..60),
    ) {
        // Ground truth per key: solvable iff k >= 2 + idx.
        let cache = fresh_cache();
        let file = MemoryWalFile::new();
        let mut wal = Wal::with_file(Box::new(file.clone())).expect("open wal");
        for (idx, k) in writes {
            let key = format!("classic:s{idx}|gamma");
            let solvable = k >= 2 + idx;
            let record = WalRecord::Horizon { key: key.clone(), k, solvable };
            cache.admit(&record);
            wal.append(&record).expect("append");
            if k == 9 {
                // Workers also memoise theorem verdicts mid-stream.
                let tkey = format!("classic:s{idx}|theorem");
                let result = Value::from(idx as u64);
                let record = WalRecord::Theorem { key: tkey, result };
                cache.admit(&record);
                wal.append(&record).expect("append");
            }
        }
        wal.flush().expect("flush");

        let replayed = fresh_cache();
        let report = replay_bytes(&file.bytes(), &replayed);
        prop_assert!(!report.dropped_tail);
        prop_assert_eq!(shape(&replayed), shape(&cache));
    }
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    let mut map = Map::new();
    for (key, value) in pairs {
        map.insert((*key).to_string(), value.clone());
    }
    Value::Object(map)
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn connect(addr: &str) -> SvcClient {
    let mut client = SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(10)))
        .expect("connect to daemon");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    client
}

/// The full loop: a daemon with a WAL proves a verdict, drains,
/// restarts on the same log, and answers the pinned query from the
/// replayed cache without recomputing — with subsumption intact.
#[test]
fn daemon_restart_serves_warm_verdicts_from_the_wal() {
    let dir = std::env::temp_dir().join(format!("minobs-wal-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal_path: PathBuf = dir.join("verdicts.wal");
    let _ = std::fs::remove_file(&wal_path);
    let config = || SvcConfig {
        wal_path: Some(wal_path.clone()),
        ..SvcConfig::default()
    };
    let pinned = || {
        obj(&[
            ("scheme", Value::from("s1")),
            ("horizon", Value::from(2u64)),
        ])
    };

    // First life: prove the pinned verdict, then drain cleanly.
    let solvable = {
        let server = serve(config()).expect("bind");
        let addr = server.local_addr().to_string();
        let mut client = connect(&addr);
        let first = client
            .call("check_horizon", pinned())
            .expect("pinned query");
        assert_eq!(
            first.get("cached"),
            Some(&Value::from(false)),
            "first life must compute, not inherit state: {first:?}"
        );
        let solvable = first
            .get("solvable")
            .and_then(Value::as_bool)
            .expect("definite verdict");
        client.call("shutdown", Value::Null).expect("drain");
        server.join();
        solvable
    };

    // Second life: same log, fresh process state.
    let server = serve(config()).expect("rebind");
    let report = server
        .state()
        .wal_replay_report()
        .expect("wal configured on restart");
    assert!(report.records >= 1, "restart replayed nothing");
    assert!(server.state().wal_active(), "wal degraded on restart");
    let addr = server.local_addr().to_string();
    let mut client = connect(&addr);

    let hits_before = counter(
        &client.call("stats", Value::Null).expect("stats"),
        "svc.cache_hits",
    );
    let warm = client.call("check_horizon", pinned()).expect("warm query");
    assert_eq!(
        warm.get("cached"),
        Some(&Value::from(true)),
        "restart must answer the pinned query from the replayed cache: {warm:?}"
    );
    assert_eq!(warm.get("solvable"), Some(&Value::from(solvable)));
    assert_eq!(warm.get("proven_at"), Some(&Value::from(2u64)));
    let hits_after = counter(
        &client.call("stats", Value::Null).expect("stats"),
        "svc.cache_hits",
    );
    assert!(
        hits_after > hits_before,
        "svc.cache_hits must advance on the warm hit ({hits_before} → {hits_after})"
    );

    // Subsumption across the restart: the replayed boundary answers a
    // different horizon on the same side by monotonicity.
    let subsumed_horizon = if solvable { 6u64 } else { 1u64 };
    let other = client
        .call(
            "check_horizon",
            obj(&[
                ("scheme", Value::from("s1")),
                ("horizon", Value::from(subsumed_horizon)),
            ]),
        )
        .expect("subsumed query");
    assert_eq!(
        other.get("cached"),
        Some(&Value::from(true)),
        "subsumption must survive the restart: {other:?}"
    );
    assert_eq!(other.get("solvable"), Some(&Value::from(solvable)));
    assert_eq!(other.get("proven_at"), Some(&Value::from(2u64)));

    client.call("shutdown", Value::Null).expect("drain");
    server.join();
    let _ = std::fs::remove_file(&wal_path);
}
