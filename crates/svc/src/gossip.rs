//! The anti-entropy loop, the `gossip` method handler, and the
//! `minobs/gossip/v1` payloads they exchange.
//!
//! Every [`GossipConfig::interval`] the loop picks the next peer
//! round-robin and runs one push-pull exchange over the ordinary wire
//! protocol, as two stateless `gossip` RPCs:
//!
//! 1. **digest** — the initiator sends 16 per-shard fingerprints of its
//!    verdict map (`{"gossip": "minobs/gossip/v1", "phase": "digest",
//!    "from": addr, "shards": [u64; 16]}`) and receives the responder's
//!    fingerprints back (`{"shards": [u64; 16]}`).
//! 2. **sync** — for every shard whose fingerprints disagree, the initiator
//!    ships its full shard contents as deltas (`{"phase": "sync", "from":
//!    addr, "shards": [idx…], "deltas": […]}`); the responder ingests them
//!    and replies with its own deltas for the same shards
//!    (`{"applied": n, "deltas": […]}`).
//!
//! A delta is a [`WalRecord`] — `horizon` or `theorem`, framed exactly as
//! in the log; an inbound `snapshot` is a protocol error. Inbound deltas,
//! whether this node initiated or the peer did, go one at a time through
//! [`VerdictCache::admit`](crate::VerdictCache::admit), the same
//! check-and-record WAL replay and local proofs use: records the cache
//! already implies are skipped, records that would *contradict* an
//! established bound or memo are rejected (and counted), and only
//! genuinely new knowledge lands, in both the cache and the local WAL, so
//! a replicated verdict survives a restart like a local one. Shipping whole shards on mismatch is
//! deliberately simple: ingest is idempotent, so over-shipping costs
//! bandwidth, never correctness.
//!
//! Convergence is a semilattice join: bounds only tighten and theorems
//! never change, so exchanges are idempotent and order-free, and after a
//! partition heals every pair of live nodes pulls each other level.
//!
//! An optional [`LinkPolicy`] sits in front of every outbound exchange;
//! chaos harnesses use it to drop or delay rounds deterministically. A
//! dropped round counts as a peer failure, exactly like a refused
//! connection; [`crate::peers::DOWN_AFTER`] consecutive failures emit
//! one `peer_down` event.

use crate::cache::{fnv1a_extend, shard_of, Admission, FNV_OFFSET, SHARDS};
use crate::client::{RetryPolicy, SvcClient};
use crate::methods::RpcError;
use crate::server::ServerState;
use crate::wal::WalRecord;
use minobs_obs::{stamp_root_span, MemoryRecorder, SpanGuard, SpanIds, TraceContext, TraceEvent};
use minobs_synth::cache::HorizonVerdicts;
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gossip payload schema tag.
const GOSSIP_SCHEMA: &str = "minobs/gossip/v1";

/// How long the loop sleeps per poll while waiting out the interval, so
/// a drain is noticed promptly even under slow gossip cadences.
const DRAIN_POLL: Duration = Duration::from_millis(20);
/// Dial timeout for peer connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Response timeout per gossip RPC.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Gossip RPCs are not retried: a failed exchange is accounted in the
/// peer table and the next round tries again.
const ONE_ATTEMPT: RetryPolicy = RetryPolicy {
    budget: 0,
    base: Duration::ZERO,
    cap: Duration::ZERO,
    seed: 0,
};
/// Ceiling on a chaos-injected delay, so a hostile policy cannot wedge
/// the loop past drain responsiveness.
const MAX_INJECTED_DELAY: Duration = Duration::from_millis(100);

type VerdictFn = dyn Fn(u64, &str) -> LinkVerdict + Send + Sync;

/// What the link does with one outbound gossip round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// The exchange proceeds normally.
    Deliver,
    /// The exchange never happens; the peer sees nothing and the initiator
    /// records a failure.
    Drop,
    /// The exchange proceeds after sleeping this long.
    Delay(Duration),
}

/// An injectable per-link fault policy: a pure function from
/// `(round, peer address)` to a [`LinkVerdict`], asked before every
/// outbound exchange.
///
/// Production daemons run with no policy (always deliver); chaos tests
/// install one built from `minobs-chaos`'s link-fault plans. Policies
/// must be deterministic in their inputs so a seeded chaos run replays
/// identically. `Clone` shares the underlying closure.
#[derive(Clone)]
pub struct LinkPolicy {
    verdict: Arc<VerdictFn>,
}

impl LinkPolicy {
    /// Wraps a verdict function.
    pub fn new<F>(verdict: F) -> LinkPolicy
    where
        F: Fn(u64, &str) -> LinkVerdict + Send + Sync + 'static,
    {
        LinkPolicy {
            verdict: Arc::new(verdict),
        }
    }

    /// The verdict for gossiping to `peer` on logical round `round`.
    pub fn verdict(&self, round: u64, peer: &str) -> LinkVerdict {
        (self.verdict)(round, peer)
    }
}

impl fmt::Debug for LinkPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LinkPolicy(..)")
    }
}

/// What the gossip thread needs beyond the shared state.
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// This node's bound address, advertised in the `from` field.
    pub self_addr: String,
    /// Peer addresses, gossiped to round-robin.
    pub peers: Vec<String>,
    /// Time between rounds.
    pub interval: Duration,
    /// Optional per-link fault injection.
    pub link_policy: Option<LinkPolicy>,
}

/// The daemon's gossip thread: one exchange per interval until drain.
pub(crate) fn gossip_loop(state: &Arc<ServerState>, config: &GossipConfig) {
    let mut clients: HashMap<String, SvcClient> = HashMap::new();
    let mut round: u64 = 0;
    while !state.draining() {
        let mut waited = Duration::ZERO;
        while waited < config.interval && !state.draining() {
            let step = DRAIN_POLL.min(config.interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
        if state.draining() {
            break;
        }
        let peer = &config.peers[(round % config.peers.len() as u64) as usize];
        match config
            .link_policy
            .as_ref()
            .map(|policy| policy.verdict(round, peer))
            .unwrap_or(LinkVerdict::Deliver)
        {
            LinkVerdict::Drop => {
                clients.remove(peer);
                state.gossip_failure(peer);
            }
            LinkVerdict::Delay(delay) => {
                std::thread::sleep(delay.min(MAX_INJECTED_DELAY));
                exchange_and_account(state, &mut clients, config, peer);
            }
            LinkVerdict::Deliver => {
                exchange_and_account(state, &mut clients, config, peer);
            }
        }
        round += 1;
    }
}

fn exchange_and_account(
    state: &ServerState,
    clients: &mut HashMap<String, SvcClient>,
    config: &GossipConfig,
    peer: &str,
) {
    match exchange(state, clients, config, peer) {
        Ok(()) => {}
        Err(_) => {
            // Whatever went wrong, the connection is suspect; redial on
            // the next round rather than reusing a half-dead stream.
            clients.remove(peer);
            state.gossip_failure(peer);
        }
    }
}

/// One push-pull exchange with `peer`. Success updates the peer table
/// and emits `gossip_round`; the caller accounts failures.
fn exchange(
    state: &ServerState,
    clients: &mut HashMap<String, SvcClient>,
    config: &GossipConfig,
    peer: &str,
) -> Result<(), String> {
    let started = Instant::now();
    if !clients.contains_key(peer) {
        let mut client = SvcClient::connect_with_timeout(peer, Some(CONNECT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        client
            .set_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        clients.insert(peer.to_string(), client);
    }
    let client = clients.get_mut(peer).expect("just inserted");

    // Each exchange runs under a `gossip.exchange` span. When a recent
    // cache-filling request stashed its trace context, the exchange
    // joins that trace — replicating the verdict stays attributable to
    // the request that produced it; otherwise it roots a fresh trace.
    // Both gossip RPCs carry a child context parented on this span, so
    // the receiving daemon's `rpc.gossip` span stitches underneath it.
    let ctx = state.take_gossip_ctx().unwrap_or_else(TraceContext::root);
    let mut spans = MemoryRecorder::new();
    let mut span_ids = SpanIds::starting_at(state.next_seq() << 20);
    let span = SpanGuard::begin(&mut spans, &mut span_ids, 0, None, "gossip.exchange");
    let rpc_ctx = match span.as_ref().map(SpanGuard::id) {
        Some(id) => TraceContext {
            trace_id: ctx.trace_id,
            parent_span: Some(id),
        },
        None => ctx,
    };

    let entries = state.cache().snapshot();
    let mine = fingerprints(&entries);
    let reply = client
        .call_with(
            "gossip",
            digest_params(&config.self_addr, &mine),
            &ONE_ATTEMPT,
            &rpc_ctx,
        )
        .map_err(|e| e.to_string())?;
    let theirs = parse_digest_result(&reply).ok_or("peer sent a malformed digest result")?;
    let mismatch = mismatched(&mine, &theirs);
    let (sent, accepted, lag) = if mismatch.is_empty() {
        (0, 0, 0)
    } else {
        let outbound = shard_deltas(&entries, &mismatch);
        let reply = client
            .call_with(
                "gossip",
                sync_params(&config.self_addr, &mismatch, &outbound),
                &ONE_ATTEMPT,
                &rpc_ctx,
            )
            .map_err(|e| e.to_string())?;
        let (_applied_there, inbound) =
            parse_sync_result(&reply).ok_or("peer sent a malformed sync result")?;
        let accepted = ingest_deltas(state, peer, &inbound);
        (outbound.len() as u64, accepted, mismatch.len() as u64)
    };

    if let Some(span) = span {
        span.end(&mut spans);
    }
    let mut events = spans.into_events();
    stamp_root_span(&mut events, &ctx);
    let nanos = (started.elapsed().as_nanos() as u64).max(1);
    state.gossip_success(peer, sent, accepted, lag, nanos, &events);
    Ok(())
}

/// Ingests replicated deltas one at a time through
/// [`VerdictCache::admit`](crate::VerdictCache::admit), appending new
/// ones to the WAL. Returns how many were genuinely new.
///
/// A delta the cache already implies is skipped silently; one that
/// *contradicts* an established bound or an existing theorem memo is
/// rejected and counted (`gossip_apply` with `accepted: false`,
/// `svc.gossip_rejected`). The check and the record happen under one
/// shard lock, so a hostile or corrupt peer cannot plant a
/// contradiction even when two ingests race on one key.
pub(crate) fn ingest_deltas(state: &ServerState, peer: &str, deltas: &[WalRecord]) -> u64 {
    let mut applied = 0u64;
    for record in deltas {
        let accepted = match state.admit(record) {
            Admission::New => true,
            Admission::Known => continue,
            Admission::Contradicts => false,
        };
        applied += u64::from(accepted);
        state.emit(TraceEvent::GossipApply {
            peer: peer.to_string(),
            op: record.op(),
            key: record.key().to_string(),
            accepted,
        });
    }
    applied
}

/// The `gossip` method handler: answer a digest with our fingerprints,
/// answer a sync by ingesting the peer's deltas and returning ours for
/// the same shards.
pub(crate) fn handle(state: &ServerState, params: &Value) -> Result<Value, RpcError> {
    let request = parse_params(params).map_err(|message| RpcError::new("bad_params", message))?;
    match request.body {
        GossipBody::Digest { .. } => {
            let entries = state.cache().snapshot();
            Ok(digest_result(&fingerprints(&entries)))
        }
        GossipBody::Sync { shards, deltas } => {
            let applied = ingest_deltas(state, &request.from, &deltas);
            // Snapshot *after* ingest: what we just accepted is no longer
            // a delta the initiator needs back, and what it still lacks
            // is exactly our surviving shard contents.
            let entries = state.cache().snapshot();
            let ours = shard_deltas(&entries, &shards);
            Ok(sync_result(applied, &ours))
        }
    }
}

/// One verdict-map entry as exposed by the daemon cache snapshot.
type Entry = (String, HorizonVerdicts, Option<Value>);

/// Per-shard fingerprints of a verdict-map snapshot.
///
/// The snapshot must be key-sorted (as `VerdictCache::snapshot` guarantees);
/// each entry folds its key, canonical verdict JSON, and theorem JSON into
/// its shard's running FNV state, so two nodes agree on a shard's
/// fingerprint exactly when they hold identical entries for it.
fn fingerprints(entries: &[Entry]) -> [u64; SHARDS] {
    let mut fps = [FNV_OFFSET; SHARDS];
    for (key, verdicts, theorem) in entries {
        let shard = shard_of(key);
        let mut line = String::new();
        line.push_str(key);
        line.push('\u{1f}');
        line.push_str(&serde_json::to_string(&verdicts.to_json()).unwrap_or_default());
        line.push('\u{1f}');
        if let Some(theorem) = theorem {
            line.push_str(&serde_json::to_string(theorem).unwrap_or_default());
        }
        // The trailing separator marks entry boundaries.
        fps[shard] = fnv1a_extend(fnv1a_extend(fps[shard], line.as_bytes()), &[0x1e]);
    }
    fps
}

/// Indices of shards whose fingerprints disagree.
fn mismatched(mine: &[u64; SHARDS], theirs: &[u64; SHARDS]) -> Vec<usize> {
    (0..SHARDS).filter(|&i| mine[i] != theirs[i]).collect()
}

/// Expands the entries living in `shards` into deltas: one `horizon`
/// record per established boundary plus one `theorem` record when a memo
/// exists. Both boundaries ship because either may be the one the peer
/// is missing.
fn shard_deltas(entries: &[Entry], shards: &[usize]) -> Vec<WalRecord> {
    let mut deltas = Vec::new();
    for (key, verdicts, theorem) in entries {
        if !shards.contains(&shard_of(key)) {
            continue;
        }
        let bounds = [
            verdicts.max_unsolvable().map(|k| (k, false)),
            verdicts.min_solvable().map(|k| (k, true)),
        ];
        for (k, solvable) in bounds.into_iter().flatten() {
            deltas.push(WalRecord::Horizon {
                key: key.clone(),
                k,
                solvable,
            });
        }
        if let Some(result) = theorem {
            deltas.push(WalRecord::Theorem {
                key: key.clone(),
                result: result.clone(),
            });
        }
    }
    deltas
}

/// Parses one delta; `None` on anything malformed and on `snapshot`
/// records, which never travel over gossip.
fn parse_delta(value: &Value) -> Option<WalRecord> {
    WalRecord::from_json(value).filter(|record| !matches!(record, WalRecord::Snapshot { .. }))
}

fn deltas_json(deltas: &[WalRecord]) -> Value {
    Value::Array(deltas.iter().map(WalRecord::to_json).collect())
}

/// A parsed inbound gossip request.
#[derive(Debug, Clone, PartialEq)]
struct GossipRequest {
    /// The initiator's advertised address (peer-table label only — never
    /// trusted for routing).
    from: String,
    body: GossipBody,
}

/// The phase-specific request payload.
#[derive(Debug, Clone, PartialEq)]
enum GossipBody {
    /// Phase 1: the initiator's shard fingerprints.
    Digest { shards: [u64; SHARDS] },
    /// Phase 2: mismatched shard indices plus the initiator's deltas.
    Sync {
        shards: Vec<usize>,
        deltas: Vec<WalRecord>,
    },
}

fn shards_json(fps: &[u64; SHARDS]) -> Value {
    Value::Array(fps.iter().map(|&fp| Value::from(fp)).collect())
}

fn parse_shards(value: &Value) -> Option<[u64; SHARDS]> {
    let items = value.as_array()?;
    if items.len() != SHARDS {
        return None;
    }
    let mut fps = [0u64; SHARDS];
    for (slot, item) in fps.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Some(fps)
}

/// Builds the phase-1 request params.
fn digest_params(from: &str, fps: &[u64; SHARDS]) -> Value {
    let mut map = Map::new();
    map.insert("gossip", Value::from(GOSSIP_SCHEMA));
    map.insert("phase", Value::from("digest"));
    map.insert("from", Value::from(from));
    map.insert("shards", shards_json(fps));
    Value::Object(map)
}

/// Builds the phase-2 request params.
fn sync_params(from: &str, shards: &[usize], deltas: &[WalRecord]) -> Value {
    let mut map = Map::new();
    map.insert("gossip", Value::from(GOSSIP_SCHEMA));
    map.insert("phase", Value::from("sync"));
    map.insert("from", Value::from(from));
    map.insert(
        "shards",
        Value::Array(shards.iter().map(|&s| Value::from(s as u64)).collect()),
    );
    map.insert("deltas", deltas_json(deltas));
    Value::Object(map)
}

/// Parses an inbound gossip request; `Err` carries a protocol-error string.
fn parse_params(params: &Value) -> Result<GossipRequest, String> {
    if params.get("gossip").and_then(Value::as_str) != Some(GOSSIP_SCHEMA) {
        return Err(format!("params.gossip must be {GOSSIP_SCHEMA:?}"));
    }
    let from = params
        .get("from")
        .and_then(Value::as_str)
        .ok_or("params.from must be a string")?
        .to_string();
    match params.get("phase").and_then(Value::as_str) {
        Some("digest") => {
            let shards = params
                .get("shards")
                .and_then(parse_shards)
                .ok_or(format!("params.shards must be {SHARDS} u64 fingerprints"))?;
            Ok(GossipRequest {
                from,
                body: GossipBody::Digest { shards },
            })
        }
        Some("sync") => {
            let shards = params
                .get("shards")
                .and_then(Value::as_array)
                .ok_or("params.shards must be an array of shard indices")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|s| usize::try_from(s).ok())
                        .filter(|&s| s < SHARDS)
                        .ok_or("params.shards entries must be shard indices")
                })
                .collect::<Result<Vec<usize>, &str>>()?;
            let deltas = params
                .get("deltas")
                .and_then(Value::as_array)
                .ok_or("params.deltas must be an array")?
                .iter()
                .map(|v| parse_delta(v).ok_or("params.deltas entries must be wal/v1 records"))
                .collect::<Result<Vec<WalRecord>, &str>>()?;
            Ok(GossipRequest {
                from,
                body: GossipBody::Sync { shards, deltas },
            })
        }
        _ => Err("params.phase must be \"digest\" or \"sync\"".to_string()),
    }
}

/// Builds the phase-1 response result.
fn digest_result(fps: &[u64; SHARDS]) -> Value {
    let mut map = Map::new();
    map.insert("shards", shards_json(fps));
    Value::Object(map)
}

/// Parses a phase-1 response result.
fn parse_digest_result(result: &Value) -> Option<[u64; SHARDS]> {
    parse_shards(result.get("shards")?)
}

/// Builds the phase-2 response result.
fn sync_result(applied: u64, deltas: &[WalRecord]) -> Value {
    let mut map = Map::new();
    map.insert("applied", Value::from(applied));
    map.insert("deltas", deltas_json(deltas));
    Value::Object(map)
}

/// Parses a phase-2 response result into `(applied, deltas)`.
fn parse_sync_result(result: &Value) -> Option<(u64, Vec<WalRecord>)> {
    let applied = result.get("applied")?.as_u64()?;
    let deltas = result
        .get("deltas")?
        .as_array()?
        .iter()
        .map(parse_delta)
        .collect::<Option<Vec<WalRecord>>>()?;
    Some((applied, deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::VerdictCache;
    use crate::server::{serve, SvcConfig};
    use crate::wal::{replay_bytes, MAGIC};
    use minobs_obs::MetricsRegistry;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::time::Duration;

    fn horizon(key: &str, k: usize, solvable: bool) -> WalRecord {
        WalRecord::Horizon {
            key: key.to_string(),
            k,
            solvable,
        }
    }

    fn entry(key: &str, unsolvable_at: Option<usize>, solvable_at: Option<usize>) -> Entry {
        let verdicts = HorizonVerdicts::from_boundaries(solvable_at, unsolvable_at)
            .expect("test boundaries are consistent");
        (key.to_string(), verdicts, None)
    }

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let started = Instant::now();
        while started.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        done()
    }

    #[test]
    fn two_nodes_converge_in_both_directions() {
        // a runs without peers; b gossips at a. Convergence must still be
        // bidirectional because the sync phase is push-pull.
        let a = serve(SvcConfig::default()).unwrap();
        let b = serve(SvcConfig {
            peers: vec![a.local_addr().to_string()],
            gossip_interval: Duration::from_millis(15),
            ..SvcConfig::default()
        })
        .unwrap();

        a.state().record_horizon("scheme-a|alpha2", 3, true);
        b.state().record_horizon("scheme-b|alpha2", 2, false);
        b.state()
            .record_theorem("scheme-b|theorem", Value::from("memo"));

        let converged = wait_until(Duration::from_secs(10), || {
            a.state().cache().snapshot() == b.state().cache().snapshot()
        });
        let snap_a = a.state().cache().snapshot();
        let snap_b = b.state().cache().snapshot();
        assert!(
            converged,
            "nodes did not converge: {snap_a:?} vs {snap_b:?}"
        );
        assert_eq!(snap_a.len(), 3, "all three records on both nodes");

        // The replicated verdict answers from b's cache, subsumption
        // included, without rerunning anything.
        assert!(b
            .state()
            .cache()
            .lookup_horizon("scheme-a|alpha2", 5)
            .is_some());

        let peers = b.state().peers_json();
        assert_eq!(peers.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(peers.get("alive").and_then(Value::as_u64), Some(1));

        a.shutdown();
        b.shutdown();
        a.join();
        b.join();
    }

    #[test]
    fn ingest_rejects_contradictions_and_skips_known_records() {
        let server = serve(SvcConfig::default()).unwrap();
        let state = server.state();
        state.record_horizon("k|a", 4, true); // solvable for all k >= 4

        let deltas = vec![
            // Contradicts the established bound: rejected.
            WalRecord::Horizon {
                key: "k|a".to_string(),
                k: 6,
                solvable: false,
            },
            // Already implied (subsumed): skipped, not applied.
            WalRecord::Horizon {
                key: "k|a".to_string(),
                k: 5,
                solvable: true,
            },
            // Genuinely new: tightens the bound.
            WalRecord::Horizon {
                key: "k|a".to_string(),
                k: 1,
                solvable: false,
            },
            WalRecord::Theorem {
                key: "k|t".to_string(),
                result: Value::from(true),
            },
        ];
        let applied = ingest_deltas(state, "peer:1", &deltas);
        assert_eq!(applied, 2, "only the new bound and the theorem apply");
        let verdicts = &state
            .cache()
            .snapshot()
            .iter()
            .find(|(key, _, _)| key == "k|a")
            .unwrap()
            .1
            .clone();
        assert_eq!(verdicts.min_solvable(), Some(4), "bound never rewritten");
        assert_eq!(verdicts.max_unsolvable(), Some(1), "tightening applied");

        // A conflicting theorem memo is rejected, the original stays.
        let conflict = vec![WalRecord::Theorem {
            key: "k|t".to_string(),
            result: Value::from(false),
        }];
        assert_eq!(ingest_deltas(state, "peer:1", &conflict), 0);
        assert_eq!(state.cache().lookup_theorem("k|t"), Some(Value::from(true)));

        let registry = state.registry();
        assert_eq!(registry.counter("svc.gossip_applied").get(), 2);
        assert_eq!(registry.counter("svc.gossip_rejected").get(), 2);

        server.shutdown();
        server.join();
    }

    #[test]
    fn dropped_links_mark_the_peer_down_and_heal_on_delivery() {
        let a = serve(SvcConfig::default()).unwrap();
        // Drop every round before round 6, deliver after: the peer must
        // go down (edge event) and come back alive.
        let b = serve(SvcConfig {
            peers: vec![a.local_addr().to_string()],
            gossip_interval: Duration::from_millis(15),
            link_policy: Some(LinkPolicy::new(|round, _| {
                if round < 6 {
                    LinkVerdict::Drop
                } else {
                    LinkVerdict::Deliver
                }
            })),
            ..SvcConfig::default()
        })
        .unwrap();
        a.state().record_horizon("late|key", 2, true);

        let down_seen = wait_until(Duration::from_secs(10), || {
            b.state().registry().counter("svc.gossip_peer_down").get() == 1
        });
        assert!(down_seen, "peer_down should fire after 3 dropped rounds");

        let converged = wait_until(Duration::from_secs(10), || {
            b.state().cache().lookup_horizon("late|key", 2).is_some()
        });
        assert!(converged, "delivery after heal should replicate the key");
        let peers = b.state().peers_json();
        assert_eq!(peers.get("alive").and_then(Value::as_u64), Some(1));

        a.shutdown();
        b.shutdown();
        a.join();
        b.join();
    }

    #[test]
    fn identical_snapshots_agree_on_every_shard() {
        let a = vec![entry("p|3", Some(1), Some(4)), entry("q|2", None, Some(2))];
        let b = a.clone();
        assert_eq!(fingerprints(&a), fingerprints(&b));
        assert!(mismatched(&fingerprints(&a), &fingerprints(&b)).is_empty());
    }

    #[test]
    fn a_divergent_key_flips_exactly_its_shard() {
        let base = vec![entry("p|3", Some(1), Some(4)), entry("q|2", None, Some(2))];
        let mut tightened = base.clone();
        tightened[0].1.record(3, true); // min_solvable 4 -> 3
        let diff = mismatched(&fingerprints(&base), &fingerprints(&tightened));
        assert_eq!(diff, vec![shard_of("p|3")]);
    }

    #[test]
    fn deltas_round_trip_and_cover_both_boundaries() {
        let mut entries = vec![entry("p|3", Some(1), Some(4))];
        entries[0].2 = Some(json("{\"solvable\": true}"));
        let all: Vec<usize> = (0..SHARDS).collect();
        let deltas = shard_deltas(&entries, &all);
        assert_eq!(deltas.len(), 3, "both boundaries plus the theorem memo");
        for delta in &deltas {
            assert_eq!(parse_delta(&delta.to_json()).as_ref(), Some(delta));
        }
        let empty = shard_deltas(&entries, &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn params_round_trip_both_phases() {
        let fps = fingerprints(&[entry("p|3", Some(1), None)]);
        let digest = parse_params(&digest_params("n1:1", &fps)).unwrap();
        assert_eq!(digest.from, "n1:1");
        assert_eq!(digest.body, GossipBody::Digest { shards: fps });

        let deltas = vec![horizon("p|3", 1, false)];
        let sync = parse_params(&sync_params("n2:2", &[0, 5], &deltas)).unwrap();
        assert_eq!(
            sync.body,
            GossipBody::Sync {
                shards: vec![0, 5],
                deltas: deltas.clone(),
            }
        );

        assert_eq!(parse_digest_result(&digest_result(&fps)), Some(fps));
        assert_eq!(
            parse_sync_result(&sync_result(2, &deltas)),
            Some((2, deltas))
        );
    }

    #[test]
    fn malformed_params_are_rejected_with_reasons() {
        let bad = json("{\"gossip\": \"minobs/gossip/v0\"}");
        assert!(parse_params(&bad).is_err());
        let bad = json(
            "{\"gossip\": \"minobs/gossip/v1\", \"from\": \"a\", \"phase\": \"digest\", \"shards\": [1]}",
        );
        assert!(parse_params(&bad).unwrap_err().contains("fingerprints"));
        let bad = json(
            "{\"gossip\": \"minobs/gossip/v1\", \"from\": \"a\", \"phase\": \"sync\", \"shards\": [99], \"deltas\": []}",
        );
        assert!(parse_params(&bad).is_err(), "out-of-range shard index");
    }

    #[test]
    fn snapshot_like_ops_do_not_parse_as_deltas() {
        let snapshot = json(
            "{\"wal\": \"minobs/wal/v1\", \"op\": \"snapshot\", \"key\": \"p\", \"verdicts\": {}, \"theorem\": null}",
        );
        assert_eq!(parse_delta(&snapshot), None);
        // A snapshot the WAL itself would accept is still refused on the wire.
        let snapshot = WalRecord::Snapshot {
            key: "p".to_string(),
            verdicts: HorizonVerdicts::from_boundaries(Some(2), None).unwrap(),
            theorem: None,
        };
        assert!(WalRecord::from_json(&snapshot.to_json()).is_some());
        assert_eq!(parse_delta(&snapshot.to_json()), None);
        let sync = sync_params("n2:2", &[0], &[snapshot]);
        assert!(parse_params(&sync).unwrap_err().contains("wal/v1"));
    }

    #[test]
    fn policy_is_deterministic_and_clonable() {
        let policy = LinkPolicy::new(|round, peer| {
            if round < 2 && peer == "b:2" {
                LinkVerdict::Drop
            } else {
                LinkVerdict::Deliver
            }
        });
        let copy = policy.clone();
        assert_eq!(policy.verdict(0, "b:2"), LinkVerdict::Drop);
        assert_eq!(copy.verdict(0, "b:2"), LinkVerdict::Drop);
        assert_eq!(policy.verdict(2, "b:2"), LinkVerdict::Deliver);
        assert_eq!(policy.verdict(0, "a:1"), LinkVerdict::Deliver);
        assert_eq!(format!("{policy:?}"), "LinkPolicy(..)");
    }

    /// The `gossip/v1` payloads for a fixed input, pinned byte for byte:
    /// nodes running different builds must keep agreeing on them.
    #[test]
    fn gossip_v1_payload_bytes_are_pinned() {
        let entries = vec![
            entry("classic:s1|gamma", Some(1), Some(4)),
            (
                "classic:r1|theorem".to_string(),
                HorizonVerdicts::new(),
                Some(json("{\"solvable\": false, \"witness\": [1, 2]}")),
            ),
        ];
        let fps = fingerprints(&entries);
        let shards = mismatched(&fps, &[0; SHARDS]);
        let deltas = shard_deltas(&entries, &shards);
        let text = |value: Value| serde_json::to_string(&value).unwrap();
        assert_eq!(
            text(digest_params("n1:7070", &fps)),
            r#"{"gossip":"minobs/gossip/v1","phase":"digest","from":"n1:7070","shards":[14695981039346656037,14695981039346656037,12678491109365665650,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,11803691400076618528,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037]}"#
        );
        assert_eq!(
            text(digest_result(&fps)),
            r#"{"shards":[14695981039346656037,14695981039346656037,12678491109365665650,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,11803691400076618528,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037,14695981039346656037]}"#
        );
        assert_eq!(
            text(sync_params("n2:7070", &shards, &deltas)),
            r#"{"gossip":"minobs/gossip/v1","phase":"sync","from":"n2:7070","shards":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],"deltas":[{"wal":"minobs/wal/v1","op":"horizon","key":"classic:s1|gamma","k":1,"solvable":false},{"wal":"minobs/wal/v1","op":"horizon","key":"classic:s1|gamma","k":4,"solvable":true},{"wal":"minobs/wal/v1","op":"theorem","key":"classic:r1|theorem","result":{"solvable":false,"witness":[1,2]}}]}"#
        );
        assert_eq!(
            text(sync_result(3, &deltas)),
            r#"{"applied":3,"deltas":[{"wal":"minobs/wal/v1","op":"horizon","key":"classic:s1|gamma","k":1,"solvable":false},{"wal":"minobs/wal/v1","op":"horizon","key":"classic:s1|gamma","k":4,"solvable":true},{"wal":"minobs/wal/v1","op":"theorem","key":"classic:r1|theorem","result":{"solvable":false,"witness":[1,2]}}]}"#
        );
    }

    #[test]
    fn ingest_counts_no_cache_lookup() {
        let server = serve(SvcConfig::default()).unwrap();
        let state = server.state();
        state.record_horizon("k|a", 4, true);
        let lookups = || {
            ["hits", "subsumptions", "misses"]
                .map(|name| state.registry().counter(&format!("svc.cache_{name}")).get())
        };
        let before = lookups();
        let deltas = vec![
            horizon("k|a", 4, true),
            horizon("k|a", 6, true),
            horizon("k|a", 1, false),
            horizon("k|b", 2, true),
        ];
        assert_eq!(ingest_deltas(state, "peer:1", &deltas), 2);
        assert_eq!(lookups(), before, "ingest is not a cache lookup");
        server.shutdown();
        server.join();
    }

    /// Two peers race contradicting bounds for one fresh key: exactly one
    /// lands, every round, and the debug build's monotonicity assertion
    /// in `HorizonVerdicts::record` never fires.
    #[test]
    fn racing_contradictions_never_both_land() {
        // Both racers walk the same fresh keys in lockstep after each
        // barrier, so their admissions interleave on every shard lock.
        const ROUNDS: usize = 2000;
        const KEYS: usize = 8;
        let total = (ROUNDS * KEYS) as u64;
        let server = serve(SvcConfig::default()).unwrap();
        let state = server.state();
        let barrier = Barrier::new(2);
        let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let racers: Vec<_> = [(3, true), (5, false)]
                .into_iter()
                .map(|(k, solvable)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let (mut applied, mut panics) = (0, 0);
                        for round in 0..ROUNDS {
                            let deltas: Vec<_> = (0..KEYS)
                                .map(|key| horizon(&format!("race|{round}|{key}"), k, solvable))
                                .collect();
                            barrier.wait();
                            // A panic must not strand the other racer at the barrier.
                            let ingest = || ingest_deltas(state, "peer:1", &deltas);
                            match catch_unwind(AssertUnwindSafe(ingest)) {
                                Ok(n) => applied += n,
                                Err(_) => panics += 1,
                            }
                        }
                        (applied, panics)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().unwrap())
                .collect()
        });
        let panics: u64 = outcomes.iter().map(|&(_, panics)| panics).sum();
        let applied: u64 = outcomes.iter().map(|&(applied, _)| applied).sum();
        assert_eq!(panics, 0, "HorizonVerdicts::record saw a contradiction");
        assert_eq!(applied, total, "exactly one racer lands per key");
        let registry = state.registry();
        assert_eq!(registry.counter("svc.gossip_applied").get(), total);
        assert_eq!(registry.counter("svc.gossip_rejected").get(), total);
        for (key, verdicts, _) in state.cache().snapshot() {
            assert!(
                verdicts.min_solvable().is_none() || verdicts.max_unsolvable().is_none(),
                "{key} holds both solvable@3 and unsolvable@5"
            );
        }
        server.shutdown();
        server.join();
    }

    /// WAL replay and gossip ingest admit through one rule, so one
    /// record sequence builds one verdict map either way — including a
    /// differing theorem memo, which both refuse.
    #[test]
    fn replay_and_ingest_build_the_same_map() {
        let memo = |result: u64| WalRecord::Theorem {
            key: "classic:s1|theorem".to_string(),
            result: Value::from(result),
        };
        let records = vec![
            horizon("classic:s1|gamma", 5, true),
            horizon("classic:s1|gamma", 7, true),
            horizon("classic:s1|gamma", 1, false),
            horizon("classic:s1|gamma", 3, true),
            horizon("classic:r1|gamma", 4, false),
            horizon("classic:r1|gamma", 2, false),
            memo(1),
            memo(1),
            memo(2),
        ];
        let mut log = MAGIC.to_vec();
        for record in &records {
            log.extend(record.encode());
        }
        let replayed = VerdictCache::new(&MetricsRegistry::new());
        let report = replay_bytes(&log, &replayed);
        assert_eq!(report.records, records.len() as u64 - 1);
        assert!(report.dropped_tail, "the differing memo ends replay");

        let server = serve(SvcConfig::default()).unwrap();
        assert_eq!(ingest_deltas(server.state(), "peer:1", &records), 5);
        assert_eq!(server.state().cache().snapshot(), replayed.snapshot());
        assert_eq!(
            replayed.lookup_theorem("classic:s1|theorem"),
            Some(Value::from(1u64))
        );
        server.shutdown();
        server.join();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// A value of any JSON shape, for fields that expect another.
        fn junk(rng: &mut TestRng) -> Value {
            match rng.below(6) {
                0 => Value::Null,
                1 => Value::from(rng.below(2) == 1),
                2 => Value::from(rng.next_u64()),
                3 => Value::from("snapshot"),
                4 => Value::from(rng.below(1000) as f64 / 7.0),
                _ => Value::Array(vec![Value::from(rng.below(40))]),
            }
        }

        /// One wire delta: a horizon, theorem or (WAL-valid) snapshot
        /// record, sometimes with a field replaced by junk.
        fn delta(rng: &mut TestRng) -> Value {
            let key = format!("classic:s{}|gamma", rng.below(4));
            let k = rng.below(8) as usize;
            let record = match rng.below(3) {
                0 => horizon(&key, k, rng.below(2) == 1),
                1 => WalRecord::Theorem {
                    key,
                    result: junk(rng),
                },
                _ => WalRecord::Snapshot {
                    key,
                    verdicts: HorizonVerdicts::from_boundaries(Some(k + 1), Some(k))
                        .expect("k < k + 1"),
                    theorem: (rng.below(2) == 1).then(|| junk(rng)),
                },
            };
            let mut value = record.to_json();
            if rng.below(4) == 0 {
                if let Value::Object(map) = &mut value {
                    const FIELDS: &[&str] = &["wal", "op", "key", "k", "solvable", "verdicts"];
                    let field = FIELDS[rng.below(FIELDS.len() as u64) as usize];
                    map.insert(field, junk(rng));
                }
            }
            value
        }

        /// Gossip request params: a well-formed digest or sync request,
        /// then zero or more fields replaced by junk or dropped.
        struct GossipParams;

        impl Strategy for GossipParams {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                let mut params = if rng.below(2) == 0 {
                    let mut fps = [0u64; SHARDS];
                    fps.iter_mut().for_each(|fp| *fp = rng.next_u64());
                    digest_params("n1:1", &fps)
                } else {
                    let shards: Vec<usize> = (0..rng.below(4))
                        .map(|_| rng.below(SHARDS as u64 + 2) as usize)
                        .collect();
                    let mut params = sync_params("n2:2", &shards, &[]);
                    let deltas = (0..rng.below(4)).map(|_| delta(rng)).collect();
                    if let Value::Object(map) = &mut params {
                        map.insert("deltas", Value::Array(deltas));
                    }
                    params
                };
                const FIELDS: &[&str] = &["gossip", "from", "phase", "shards", "deltas"];
                if let Value::Object(map) = &mut params {
                    for _ in 0..rng.below(3) {
                        let field = FIELDS[rng.below(FIELDS.len() as u64) as usize];
                        if rng.below(4) == 0 {
                            map.remove(field);
                        } else {
                            map.insert(field, junk(rng));
                        }
                    }
                }
                if rng.below(16) == 0 {
                    return junk(rng);
                }
                params
            }
        }

        /// `parse_params` answers with a request or a reason, and a
        /// request it accepts never carries a snapshot delta.
        fn parses_without_snapshots(params: &Value) {
            match parse_params(params) {
                Ok(GossipRequest {
                    body: GossipBody::Sync { deltas, .. },
                    ..
                }) => prop_assert!(
                    deltas
                        .iter()
                        .all(|d| !matches!(d, WalRecord::Snapshot { .. })),
                    "{params:?}"
                ),
                Ok(_) => {}
                Err(message) => prop_assert!(!message.is_empty(), "{params:?}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn prop_params_parse_without_snapshot_deltas(params in GossipParams) {
                parses_without_snapshots(&params);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_params_parse_without_snapshot_deltas(params in GossipParams) {
                parses_without_snapshots(&params);
            }
        }
    }
}
