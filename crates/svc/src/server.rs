//! The daemon: a blocking TCP acceptor and one thread per connection.
//!
//! Each connection thread reassembles frames (`wire::try_parse_frame`)
//! from a pending buffer, runs the method handler and writes the reply
//! itself, one request at a time, so responses on one connection keep
//! request order and no other thread is on the request path. Handlers run
//! under `catch_unwind`, so a panicking handler costs one error response,
//! never a wedged connection. Compute methods hold one of `workers`
//! checker permits while their handler runs, which caps concurrent
//! checker work; the control plane never waits for a permit.
//!
//! Shutdown is graceful by construction: `begin_shutdown` flips a flag
//! and wakes the acceptor, the acceptor stops taking connections, and
//! every request already *accepted* (decoded off the socket) is still
//! answered — connection threads only hang up after writing the reply.
//! A connection holding half a frame when the drain starts gets a short
//! grace period to finish it before the socket closes.

use crate::cache::{Admission, VerdictCache};
use crate::gossip::{self, GossipConfig, LinkPolicy};
use crate::methods::{self, RpcError};
use crate::peers::PeerTable;
use crate::wal::{Wal, WalRecord};
use crate::wire::{self, FrameError, Request};
use minobs_obs::{
    stamp_root_span, Counter, FlightRecorder, Gauge, Histogram, JsonlSink, MemoryRecorder,
    MetricsRecorder, MetricsRegistry, Recorder, SpanGuard, SpanIds, TraceContext, TraceEvent,
    DEFAULT_FLIGHT_EVENTS,
};
use serde_json::Value;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long the acceptor backs off after a failed `accept` (say, out of
/// descriptors), so a persistent error cannot spin it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Cap on the connection `begin_shutdown` makes to wake the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Read timeout on connection sockets; bounds drain-flag latency.
const READ_POLL: Duration = Duration::from_millis(50);
/// How long a draining connection may take to finish a half-read frame.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// How often the maintenance thread runs WAL maintenance (flush +
/// compaction check) — keeps appends off the request critical path while
/// bounding the crash-loss window.
const WAL_MAINTENANCE: Duration = Duration::from_secs(1);
/// Cap on concurrent connection threads; connections past it are
/// answered with a `busy` error and closed, so a peer opening sockets in
/// a loop cannot drive unbounded thread creation. It also bounds the
/// health plane's accept queue.
pub const MAX_CONNECTIONS: usize = 256;
/// The p99 latency target, in milliseconds, that the SLO burn counter
/// (`svc.slo_p99_violations`) measures against.
pub const SLO_P99_MS: u64 = 50;

/// Server-side caps applied to every request's budget.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Hard cap on checker states per request.
    pub max_states: usize,
    /// Hard cap on checker wall-clock per request, in milliseconds.
    pub max_millis: u64,
}

/// The caps every request's budget is clamped to.
const LIMITS: Limits = Limits {
    max_states: 5_000_000,
    max_millis: 10_000,
};

/// Daemon configuration; `from_env` reads the `MINOBS_SVC_*` variables.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Checker permits: how many compute requests (the methods marked
    /// `compute` in the `methods` table) may run at once across all
    /// connections.
    pub workers: usize,
    /// Where to write the `svc_*` event trace, if anywhere.
    pub trace_path: Option<PathBuf>,
    /// Where to persist verdicts (`minobs/wal/v1`); unset runs
    /// memory-only. See `docs/PERSISTENCE.md`.
    pub wal_path: Option<PathBuf>,
    /// Cluster peers to gossip verdicts with (`host:port`); empty runs
    /// single-node. See `docs/CLUSTER.md`.
    pub peers: Vec<String>,
    /// Time between anti-entropy rounds; each round exchanges digests
    /// with one peer, round-robin.
    pub gossip_interval: Duration,
    /// Per-link fault injection for gossip rounds; production daemons
    /// leave this unset (always deliver). Chaos harnesses install a
    /// seeded policy here.
    pub link_policy: Option<LinkPolicy>,
    /// Stable node identity stamped on trace lines and reported by
    /// `health`; defaults to the bound `host:port`.
    pub node_id: Option<String>,
    /// Where automatic flight dumps land on panic, WAL degradation,
    /// `peer_down`, and degrading health edges; unset disables auto-dumps
    /// (the `dump_trace` RPC still works).
    pub flight_dir: Option<PathBuf>,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_workers(),
            trace_path: None,
            wal_path: None,
            peers: Vec::new(),
            gossip_interval: Duration::from_millis(500),
            link_policy: None,
            node_id: None,
            flight_dir: None,
        }
    }
}

fn default_workers() -> usize {
    thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(2)
        .clamp(2, 16)
}

impl SvcConfig {
    /// Configuration from `MINOBS_SVC_ADDR` (default `127.0.0.1:0`),
    /// `MINOBS_SVC_WORKERS` (default: available parallelism, clamped to
    /// `[2, 16]`), `MINOBS_SVC_TRACE` (a JSONL path; unset = no
    /// trace), `MINOBS_SVC_WAL` (a verdict-log path; unset = no
    /// persistence), `MINOBS_SVC_PEERS` (comma-separated `host:port`
    /// cluster peers; unset = single-node), `MINOBS_SVC_GOSSIP_MS`
    /// (anti-entropy interval, default 500, clamped to `[10, 60000]`),
    /// `MINOBS_NODE_ID` (stable node identity; default: the bound
    /// `host:port`) and `MINOBS_FLIGHT_DIR` (auto-dump directory; unset =
    /// no auto-dumps). This is the daemon's only environment reader.
    pub fn from_env() -> SvcConfig {
        let mut config = SvcConfig::default();
        if let Some(addr) = env_var("MINOBS_SVC_ADDR") {
            config.addr = addr;
        }
        if let Some(n) = env_var::<usize>("MINOBS_SVC_WORKERS") {
            config.workers = n.clamp(1, 256);
        }
        config.trace_path = env_var("MINOBS_SVC_TRACE");
        config.wal_path = env_var("MINOBS_SVC_WAL");
        if let Some(peers) = env_var::<String>("MINOBS_SVC_PEERS") {
            config.peers = peers
                .split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect();
        }
        if let Some(ms) = env_var::<u64>("MINOBS_SVC_GOSSIP_MS") {
            config.gossip_interval = Duration::from_millis(ms.clamp(10, 60_000));
        }
        config.node_id = env_var("MINOBS_NODE_ID");
        config.flight_dir = env_var("MINOBS_FLIGHT_DIR");
        config
    }
}

/// Environment variable `name`, trimmed and parsed; `None` when it is
/// unset, blank, or does not parse.
fn env_var<T: std::str::FromStr>(name: &str) -> Option<T> {
    let value = std::env::var(name).ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    value.parse().ok()
}

/// A point-in-time health verdict; see [`ServerState::evaluate_health`].
#[derive(Debug, Clone, Copy)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"`.
    pub status: &'static str,
    /// True while the node should receive traffic.
    pub ready: bool,
    /// True whenever the daemon can evaluate health at all.
    pub live: bool,
    /// Requests accepted but not yet answered.
    pub queued: u64,
    /// Peers currently reachable (0 of 0 in single-node mode).
    pub peers_alive: usize,
    /// Peers past the consecutive-failure threshold.
    pub peers_down: usize,
    /// True once the WAL has latched memory-only mode.
    pub wal_degraded: bool,
}

/// State shared by the acceptor, the connection threads, and the
/// maintenance and gossip threads.
pub struct ServerState {
    shutting_down: AtomicBool,
    seq: AtomicU64,
    registry: Arc<MetricsRegistry>,
    cache: VerdictCache,
    workers: usize,
    /// Caps concurrent compute requests at `workers`.
    permits: Permits,
    /// The bound address; `begin_shutdown` connects to it to wake the
    /// blocked acceptor.
    local_addr: SocketAddr,
    started: Instant,
    metrics: Mutex<MetricsRecorder>,
    /// The trace file, when one is configured.
    trace: Mutex<Option<JsonlSink<BufWriter<File>>>>,
    /// The verdict log. `None` when persistence is off or after the
    /// first write failure — degradation is latched by `take()`ing the
    /// [`Wal`], so a disk that failed once is never written again.
    wal: Mutex<Option<Wal>>,
    /// What startup replay found; `None` when persistence is off.
    replay: Option<crate::wal::ReplayReport>,
    /// Gossip health per configured peer; empty in single-node mode.
    peers: Mutex<PeerTable>,
    /// Stable node identity: the configured one, else the bound
    /// `host:port`. Stamped on every trace line.
    node_id: String,
    slo_violations: Arc<Counter>,
    ready_gauge: Arc<Gauge>,
    /// Last emitted health verdict, packed as `ready | (status_ok << 1)`;
    /// `u64::MAX` until the first evaluation, so the first flip always
    /// emits a `health` trace event (edge-triggered).
    health_state: AtomicU64,
    /// The trace context of the most recent cache-filling request, held
    /// for the next gossip exchange so replication of that verdict is
    /// attributable to the request that produced it.
    gossip_ctx: Mutex<Option<TraceContext>>,
    /// The always-on flight ring: a bounded copy of everything the trace
    /// plane sees, snapshotted by `dump_trace` and the auto-dump triggers.
    flight: FlightRecorder,
    /// Where auto-dumps land; `None` disables them.
    flight_dir: Option<PathBuf>,
    /// Monotone auto-dump counter, naming dump files stably.
    flight_dumps: AtomicU64,
}

impl ServerState {
    fn new(config: &SvcConfig, local_addr: SocketAddr) -> io::Result<ServerState> {
        let registry = Arc::new(MetricsRegistry::new());
        let cache = VerdictCache::new(&registry);
        let node_id = config
            .node_id
            .clone()
            .unwrap_or_else(|| local_addr.to_string());
        let flight = FlightRecorder::with_meta(DEFAULT_FLIGHT_EVENTS, Some(node_id.clone()));
        let trace = match &config.trace_path {
            Some(path) => {
                let mut sink = JsonlSink::create(path)?;
                sink.set_node_id(&node_id);
                Some(sink)
            }
            None => None,
        };
        let state = ServerState {
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            metrics: Mutex::new(MetricsRecorder::new(Arc::clone(&registry))),
            cache,
            workers: config.workers.max(1),
            permits: Permits {
                free: Mutex::new(config.workers.max(1)),
                freed: Condvar::new(),
            },
            local_addr,
            started: Instant::now(),
            trace: Mutex::new(trace),
            wal: Mutex::new(None),
            replay: None,
            peers: Mutex::new(PeerTable::new(&config.peers)),
            node_id,
            slo_violations: registry.counter("svc.slo_p99_violations"),
            ready_gauge: registry.gauge("svc.ready"),
            health_state: AtomicU64::new(u64::MAX),
            gossip_ctx: Mutex::new(None),
            flight,
            flight_dir: config.flight_dir.clone(),
            flight_dumps: AtomicU64::new(0),
            registry,
        };
        state.open_wal(config)
    }

    /// Replays and attaches the configured WAL. A log that cannot be
    /// opened degrades the daemon to memory-only instead of refusing to
    /// start: availability first, persistence best-effort.
    fn open_wal(mut self, config: &SvcConfig) -> io::Result<ServerState> {
        let Some(path) = &config.wal_path else {
            return Ok(self);
        };
        match Wal::open(path, &self.cache) {
            Ok((wal, report)) => {
                self.emit(TraceEvent::WalReplay {
                    records: report.records,
                    bytes: report.bytes,
                    dropped_tail: report.dropped_tail,
                });
                *lock(&self.wal) = Some(wal);
                self.replay = Some(report);
            }
            Err(e) => self.degrade_wal(&e),
        }
        Ok(self)
    }

    /// Latches memory-only mode: drops the log handle, flips the
    /// `svc.wal_degraded` gauge, emits a `wal_degraded` trace event, and
    /// auto-dumps the flight ring — the history leading up to a disk
    /// failure is exactly what post-hoc debugging wants.
    fn degrade_wal(&self, error: &io::Error) {
        lock(&self.wal).take();
        self.emit(TraceEvent::WalDegraded {
            error: error.to_string(),
        });
        self.auto_dump("wal_degraded");
    }

    fn append_wal(&self, record: &WalRecord) {
        let result = match lock(&self.wal).as_mut() {
            Some(wal) => wal.append(record),
            None => return,
        };
        match result {
            Ok(bytes) => self.emit(TraceEvent::WalAppend {
                op: record.op(),
                key: record.key().to_string(),
                bytes,
            }),
            Err(e) => self.degrade_wal(&e),
        }
    }

    /// Admits `record` through [`VerdictCache::admit`] and appends it to
    /// the WAL when it is new. Local verdicts and replicated ones both
    /// enter here, so every fresh verdict survives a restart and no
    /// record that the cache refutes or already implies is logged.
    pub(crate) fn admit(&self, record: &WalRecord) -> Admission {
        let admission = self.cache.admit(record);
        if admission == Admission::New {
            self.append_wal(record);
        }
        admission
    }

    /// Records a definite horizon verdict through
    /// [`VerdictCache::admit`], and in the WAL when it is new.
    pub fn record_horizon(&self, key: &str, k: usize, solvable: bool) {
        self.admit(&WalRecord::Horizon {
            key: key.to_string(),
            k,
            solvable,
        });
    }

    /// Memoises a Theorem III.8 result through [`VerdictCache::admit`],
    /// and in the WAL when it is new.
    pub fn record_theorem(&self, key: &str, result: Value) {
        self.admit(&WalRecord::Theorem {
            key: key.to_string(),
            result,
        });
    }

    /// What startup replay found, when persistence is configured.
    pub fn wal_replay_report(&self) -> Option<crate::wal::ReplayReport> {
        self.replay
    }

    /// True while the verdict log is attached and healthy.
    pub fn wal_active(&self) -> bool {
        lock(&self.wal).is_some()
    }

    /// Periodic background WAL work, run from the maintenance thread (off
    /// the request path): push buffered appends to the OS and rewrite
    /// the log when dead deltas dominate. Any failure degrades.
    fn wal_maintenance(&self) {
        let mut guard = lock(&self.wal);
        let Some(wal) = guard.as_mut() else { return };
        let result = wal.flush().and_then(|()| wal.maybe_compact(&self.cache));
        if let Err(e) = result {
            drop(guard);
            self.degrade_wal(&e);
        }
    }

    /// True once a drain has started.
    pub fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Starts the drain: stop accepting, answer what was taken, exit.
    /// The acceptor blocks in `accept`, so the first call wakes it by
    /// connecting to the bound port (through loopback for a wildcard bind).
    pub fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
    }

    /// The verdict cache.
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// The metrics registry backing `stats` and the cache counters.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Per-request budget caps.
    pub fn limits(&self) -> Limits {
        LIMITS
    }

    /// Checker permit count: how many compute requests may run at once.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// This node's stable identity (trace `node_id`, `health.node_id`).
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Timed responses that exceeded the SLO p99 target so far.
    pub fn slo_violations(&self) -> u64 {
        self.slo_violations.get()
    }

    /// Takes the trace context stashed by the last cache-filling
    /// request, if any, for the next gossip exchange to parent under.
    pub(crate) fn take_gossip_ctx(&self) -> Option<TraceContext> {
        lock(&self.gossip_ctx).take()
    }

    /// Stashes `ctx` for the next gossip exchange. Last writer wins;
    /// gossip attribution is best-effort, not a queue.
    pub(crate) fn stash_gossip_ctx(&self, ctx: TraceContext) {
        *lock(&self.gossip_ctx) = Some(ctx);
    }

    /// Fans one event out to the three telemetry planes, taking their
    /// locks in a fixed order: the metrics, then the trace file (which
    /// gets a clone only when one is configured), then the flight ring.
    pub(crate) fn emit(&self, event: TraceEvent) {
        self.emit_after(&[], event);
    }

    /// [`ServerState::emit`] preceded by a buffered span block. The block
    /// is flushed right before `event` under the same lock acquisitions,
    /// so the shared trace stream interleaves whole blocks — each is
    /// self-balanced and `trace_lint`'s span bracketing holds per stream.
    fn emit_after(&self, block: &[TraceEvent], event: TraceEvent) {
        {
            let mut metrics = lock(&self.metrics);
            for span in block {
                metrics.observe(span);
            }
            metrics.observe(&event);
        }
        if let Some(sink) = &mut *lock(&self.trace) {
            for span in block {
                sink.record(span.clone());
            }
            sink.record(event.clone());
        }
        self.flight.push_block(block);
        self.flight.push(event);
    }

    /// The always-on flight ring; `dump_trace` snapshots it.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Auto-dumps taken so far (panic, WAL degradation, `peer_down`,
    /// degrading health edges).
    pub fn flight_dumps(&self) -> u64 {
        self.flight_dumps.load(Ordering::SeqCst)
    }

    /// Writes a flight-ring snapshot into `flight_dir`, named by the
    /// monotone dump counter plus the trigger reason. Disabled dir or a
    /// failed write costs only the dump — incident evidence is
    /// best-effort and must never take the serving path down with it.
    fn auto_dump(&self, reason: &str) {
        let Some(dir) = &self.flight_dir else { return };
        let snapshot = self.flight.dump(reason);
        let n = self.flight_dumps.fetch_add(1, Ordering::SeqCst);
        let path = dir.join(format!("flight-{n:03}-{reason}.trace.jsonl"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, snapshot.jsonl.as_bytes()));
        if written.is_ok() {
            self.registry.counter("svc.flight_dumps").add(1);
        }
    }

    fn flush_trace(&self) {
        if let Some(sink) = &mut *lock(&self.trace) {
            let _ = sink.flush();
        }
    }

    /// The `peers` section of `stats`: summary counters plus one row per
    /// configured peer; `count: 0` with an empty table in single-node mode.
    pub fn peers_json(&self) -> Value {
        lock(&self.peers).to_json()
    }

    /// Requests accepted but not yet answered, from the accepted and
    /// answered counters. Includes the request asking, so an idle
    /// daemon reports 1 while answering.
    pub fn queued(&self) -> u64 {
        let accepted = self.registry.counter("svc.requests").get();
        let answered = self.registry.counter("svc.responses_ok").get()
            + self.registry.counter("svc.responses_err").get();
        accepted.saturating_sub(answered)
    }

    /// Evaluates the health plane and publishes it.
    ///
    /// * `live` — true whenever the daemon can run the evaluation;
    /// * `ready` — the node should receive traffic: not draining, the
    ///   backlog is below the connection cap, and (with peers
    ///   configured) at least one peer is reachable;
    /// * `status` — `"ok"` when ready with a healthy WAL and every peer
    ///   alive, `"degraded"` otherwise.
    ///
    /// Sets the `svc.ready` gauge on every call and emits one
    /// edge-triggered `health` trace event whenever the packed verdict
    /// changes (including the first evaluation).
    pub fn evaluate_health(&self) -> HealthReport {
        let queued = self.queued();
        let (peer_count, peers_alive) = {
            let peers = lock(&self.peers);
            (peers.len(), peers.alive())
        };
        let wal_degraded = self.registry.gauge("svc.wal_degraded").get() != 0;
        let ready = !self.draining()
            && queued < MAX_CONNECTIONS as u64
            && (peer_count == 0 || peers_alive > 0);
        let status_ok = ready && !wal_degraded && peers_alive == peer_count;
        let status = if status_ok { "ok" } else { "degraded" };
        self.ready_gauge.set(ready as u64);
        let packed = ready as u64 | ((status_ok as u64) << 1);
        if self.health_state.swap(packed, Ordering::SeqCst) != packed {
            self.emit(TraceEvent::Health {
                status: status.to_string(),
                ready,
                live: true,
            });
            if !status_ok {
                // Dump on the *degrading* edge only: the ring holds the
                // lead-up to the burn, and edge-triggering means a long
                // outage costs one dump, not one per probe.
                self.auto_dump("health_degraded");
            }
        }
        HealthReport {
            status,
            ready,
            live: true,
            queued,
            peers_alive,
            peers_down: peer_count - peers_alive,
            wal_degraded,
        }
    }

    /// Folds one completed gossip exchange into the peer table, the
    /// metrics, and the trace. `spans` carries the exchange's buffered
    /// `gossip.exchange` span block (possibly ctx-stamped), flushed next
    /// to its `gossip_round` under the same lock acquisitions so the
    /// shared stream stays whole-block interleaved.
    pub(crate) fn gossip_success(
        &self,
        peer: &str,
        sent: u64,
        received: u64,
        lag: u64,
        nanos: u64,
        spans: &[TraceEvent],
    ) {
        lock(&self.peers).record_success(peer, sent, received, lag);
        self.emit_after(
            spans,
            TraceEvent::GossipRound {
                peer: peer.to_string(),
                sent,
                received,
                nanos,
            },
        );
    }

    /// Records a failed gossip exchange; emits `peer_down` (once per
    /// outage) on the round that crosses the failure threshold.
    pub(crate) fn gossip_failure(&self, peer: &str) {
        let down_edge = lock(&self.peers).record_failure(peer);
        if let Some(failures) = down_edge {
            self.emit(TraceEvent::PeerDown {
                peer: peer.to_string(),
                failures,
            });
            self.auto_dump("peer_down");
        }
    }
}

/// The distributed trace id carried by a request's span block, if any.
fn block_trace_id(spans: &[TraceEvent]) -> Option<u128> {
    spans.iter().find_map(|event| match event {
        TraceEvent::SpanStart { ctx, .. } => ctx.as_ref().and_then(|ctx| ctx.trace_id),
        _ => None,
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A counting semaphore over compute requests: each holds one permit
/// while its handler runs.
struct Permits {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held permit, returned on drop.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn acquire(&self) -> Permit<'_> {
        let free = self.freed.wait_while(lock(&self.free), |free| *free == 0);
        *free.unwrap_or_else(|e| e.into_inner()) -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.free) += 1;
        self.0.freed.notify_one();
    }
}

/// A running daemon; keep it alive for as long as you serve.
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
    maintenance: JoinHandle<()>,
    gossip: Option<JoinHandle<()>>,
}

/// Binds and starts serving; returns once the socket is listening.
pub fn serve(config: SvcConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(&config, local_addr)?);

    let acceptor = {
        let st = Arc::clone(&state);
        thread::spawn(move || acceptor_loop(&listener, &st))
    };
    let maintenance = {
        let st = Arc::clone(&state);
        thread::spawn(move || maintenance_loop(&st))
    };

    let gossip = if config.peers.is_empty() {
        None
    } else {
        let st = Arc::clone(&state);
        let gossip_config = GossipConfig {
            self_addr: local_addr.to_string(),
            peers: config.peers.clone(),
            interval: config.gossip_interval,
            link_policy: config.link_policy.clone(),
        };
        Some(thread::spawn(move || {
            gossip::gossip_loop(&st, &gossip_config)
        }))
    };

    Ok(Server {
        local_addr,
        state,
        acceptor,
        maintenance,
        gossip,
    })
}

impl Server {
    /// The bound address (with the resolved port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state, for tests and in-process inspection.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Starts the drain; pair with [`Server::join`].
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Blocks until the drain completes and every thread has exited.
    pub fn join(self) {
        // The acceptor returns once draining, after joining every
        // connection thread: all accepted requests are answered.
        let _ = self.acceptor.join();
        if let Some(gossip) = self.gossip {
            let _ = gossip.join();
        }
        self.maintenance.thread().unpark();
        let _ = self.maintenance.join();
        // Drain complete: every answered verdict is in the cache, so one
        // last flush makes the log as warm as the cache was.
        self.state.wal_maintenance();
        self.state.flush_trace();
    }
}

/// Runs WAL maintenance every [`WAL_MAINTENANCE`] until the drain starts;
/// `Server::join` unparks it so it sees the drain at once.
fn maintenance_loop(state: &ServerState) {
    let mut last = Instant::now();
    while !state.draining() {
        thread::park_timeout(WAL_MAINTENANCE.saturating_sub(last.elapsed()));
        if last.elapsed() >= WAL_MAINTENANCE {
            state.wal_maintenance();
            last = Instant::now();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !state.draining() {
        match listener.accept() {
            // The drain's wake-up connection, or one that raced it: hang
            // up unread.
            Ok(_) if state.draining() => {}
            Ok((stream, _)) => {
                connections.retain(|handle| !handle.is_finished());
                if connections.len() >= MAX_CONNECTIONS {
                    // At the cap: answer with `busy` and hang up rather
                    // than spawning an unbounded number of threads.
                    let mut writer = &stream;
                    let _ = wire::write_frame(
                        &mut writer,
                        &wire::err_response(0, "busy", "connection limit reached"),
                    );
                    continue;
                }
                let st = Arc::clone(state);
                connections.push(thread::spawn(move || serve_connection(stream, &st)));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn serve_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = &stream;
    let mut writer = &stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut drain_seen: Option<Instant> = None;

    loop {
        // Answer every complete frame already buffered.
        loop {
            match wire::try_parse_frame(&pending) {
                Ok(Some((value, consumed))) => {
                    pending.drain(..consumed);
                    if !handle_frame(&mut writer, state, &value) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = wire::write_frame(
                        &mut writer,
                        &wire::err_response(0, "bad_frame", &e.to_string()),
                    );
                    return;
                }
            }
        }

        if state.draining() {
            // Answered everything complete; allow a short grace window
            // for a half-received frame, then hang up.
            if pending.is_empty() {
                return;
            }
            match drain_seen {
                None => drain_seen = Some(Instant::now()),
                Some(t) if t.elapsed() > DRAIN_GRACE => return,
                Some(_) => {}
            }
        }

        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Decodes, answers and writes one framed value. Returns false when the
/// connection should close (the write failed).
fn handle_frame<W: Write>(writer: &mut W, state: &ServerState, value: &Value) -> bool {
    match wire::parse_request(value) {
        Ok(request) => send(writer, answer(state, &request)),
        Err(message) => {
            let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
            write_reply(writer, &wire::err_response(id, "bad_request", &message))
        }
    }
}

/// Encodes one reply frame. A reply too large for one frame is replaced
/// by a typed `internal` error carrying its id and the refused size, so
/// the client gets an answer and the connection stays open; the flag is
/// false exactly then.
fn encode_reply(reply: &Value) -> (Result<Vec<u8>, FrameError>, bool) {
    match wire::encode_frame(reply) {
        Err(FrameError::TooLarge(len)) => {
            let id = reply.get("id").and_then(Value::as_u64).unwrap_or(0);
            let message = format!(
                "reply of {len} bytes exceeds the {}-byte frame limit",
                wire::MAX_FRAME
            );
            let error = wire::err_response(id, "internal", &message);
            (wire::encode_frame(&error), false)
        }
        frame => (frame, true),
    }
}

/// Writes one encoded frame; returns false when there is none or the
/// write failed.
fn send<W: Write>(writer: &mut W, frame: Result<Vec<u8>, FrameError>) -> bool {
    frame.is_ok_and(|frame| {
        writer
            .write_all(&frame)
            .and_then(|()| writer.flush())
            .is_ok()
    })
}

/// Writes one reply frame as [`encode_reply`] encodes it; returns false
/// when the write failed.
fn write_reply<W: Write>(writer: &mut W, reply: &Value) -> bool {
    send(writer, encode_reply(reply).0)
}

/// Runs one request's handler, encodes the reply and folds the outcome
/// into the telemetry planes; returns the encoded reply frame. The reply
/// is encoded before the outcome is recorded, so a reply refused for its
/// size counts as the error the caller receives.
fn answer(state: &ServerState, request: &Request) -> Result<Vec<u8>, FrameError> {
    let seq = state.next_seq();
    // Telemetry carries the table's names, never the string sent, so no
    // method name from the network reaches an event, a metric name or
    // the flight ring.
    let entry = methods::lookup(&request.method);
    let method = entry.name;
    state.emit(TraceEvent::SvcRequest {
        seq,
        method: method.into(),
    });
    let permit = entry.compute.then(|| state.permits.acquire());
    let start = Instant::now();
    // Spans are buffered request-locally and flushed with the
    // response; `starting_at(seq << 20)` carves each request a
    // disjoint id block so ids stay unique across the shared stream.
    let mut request_spans = MemoryRecorder::new();
    let mut span_ids = SpanIds::starting_at(seq << 20);
    let span = SpanGuard::begin(&mut request_spans, &mut span_ids, 0, None, entry.span);
    let root_span = span.as_ref().map(SpanGuard::id);
    let outcome = catch_unwind(AssertUnwindSafe(|| entry.run(state, request)));
    drop(permit);
    if let Some(span) = span {
        span.end(&mut request_spans);
    }
    let (result, disposition) = outcome.unwrap_or_else(|_| {
        // The ring just recorded the request that blew up; snapshot
        // it before the error response papers over the evidence.
        state.auto_dump("panic");
        (
            Err(RpcError::new("internal", "method handler panicked")),
            "none",
        )
    });
    let handled = result.is_ok();
    let nanos = (start.elapsed().as_nanos() as u64).max(1);
    let mut events = request_spans.into_events();
    if let Some(ctx) = &request.ctx {
        // Adopt the caller's trace: the request root span joins the
        // caller's trace_id and remembers the remote parent. Local
        // parenting stays `None`, so per-stream span bracketing is
        // untouched — `trace stitch` resolves the cross-node edge.
        stamp_root_span(&mut events, ctx);
        if handled && disposition == "miss" {
            // A fresh verdict will ship on the next gossip round;
            // stash a child context so that exchange is attributable
            // to the request that produced the delta.
            if let Some(root_span) = root_span {
                state.stash_gossip_ctx(ctx.child(root_span));
            }
        }
    }
    let reply = match result {
        Ok(value) => wire::ok_response(request.id, value),
        Err(e) => wire::err_response(request.id, e.code, &e.message),
    };
    let (frame, fits) = encode_reply(&reply);
    let ok = handled && fits;
    if nanos > SLO_P99_MS * 1_000_000 {
        state.slo_violations.add(1);
    }
    state.emit_after(
        &events,
        TraceEvent::SvcResponse {
            seq,
            method: method.into(),
            ok,
            cache: disposition,
            nanos,
        },
    );
    if let Some(trace_id) = block_trace_id(&events) {
        let bounds = Histogram::latency_bounds();
        state
            .registry
            .histogram("svc.request_latency_ns", &bounds)
            .record_exemplar(nanos, trace_id);
        state
            .registry
            .histogram(&format!("svc.method.{method}.latency_ns"), &bounds)
            .record_exemplar(nanos, trace_id);
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_reply_is_answered_with_a_typed_internal_error() {
        let reply = wire::ok_response(7, Value::from("x".repeat(wire::MAX_FRAME)));
        let mut sent = Vec::new();
        assert!(
            write_reply(&mut sent, &reply),
            "the connection must stay open"
        );
        let mut cursor = sent.as_slice();
        let answer = wire::read_frame(&mut cursor).unwrap().unwrap();
        assert!(cursor.is_empty(), "exactly one frame goes out");
        assert_eq!(answer.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(false));
        let error = answer.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Value::as_str), Some("internal"));
        let refused = serde_json::to_string(&reply).unwrap().len();
        assert!(refused > wire::MAX_FRAME);
        let message = error.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains(&refused.to_string()), "{message}");
    }
}
