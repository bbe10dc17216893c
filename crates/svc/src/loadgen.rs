//! Open-loop load generation for the daemon.
//!
//! A closed-loop driver (send, wait, send) measures the *service* but
//! not the *system*: when the daemon slows down, the driver slows with
//! it, queueing delay is silently absorbed into inter-request gaps, and
//! reported latency flatters the service — the classic coordinated
//! omission trap. The open-loop driver here fixes that by issuing
//! requests on a fixed schedule of **virtual deadlines** computed from
//! the offered frequency alone:
//!
//! * thread `t` of `n` fires its `k`-th request at
//!   `(k·n + t) / freq` seconds — a per-thread phase-offset comb that
//!   interleaves to the full offered rate, and never depends on when
//!   (or whether) responses arrive;
//! * latency is measured from the **send deadline** to the response, so
//!   a request the driver itself delivered late still charges the
//!   service for the schedule slip;
//! * overload is bounded by an in-flight cap per connection, and every
//!   request refused by the cap increments an explicit
//!   [`LoadCounters::dropped_by_cap`] counter — overload is measured,
//!   never silently absorbed.
//!
//! The scheduler core ([`run_sender`]) is generic over a [`Clock`] and a
//! [`Dispatch`] so the no-drift and cap properties are provable in unit
//! tests with a mock clock; [`run_open_loop`] instantiates it over real
//! sockets against a live daemon. See `docs/BENCHMARKING.md`.

use crate::wire;
use minobs_obs::Histogram;
use serde_json::Value;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock the scheduler can sleep against.
///
/// Production uses [`SystemClock`]; tests substitute a mock whose
/// `sleep_until_ns` jumps time forward instantly, which makes the
/// deadline arithmetic — the part that must not drift — exact and fast
/// to verify.
pub trait Clock {
    /// Nanoseconds since this clock's epoch.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= deadline_ns`. Returns immediately when
    /// the deadline is already past (the schedule never stretches).
    fn sleep_until_ns(&self, deadline_ns: u64);
}

/// Monotonic wall clock anchored at construction.
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is now.
    pub fn new() -> SystemClock {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn sleep_until_ns(&self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// One entry of a method mix: a method, its call params, and its
/// relative weight.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// RPC method name.
    pub method: String,
    /// Params object sent with every call of this method.
    pub params: Value,
    /// Relative weight (calls per mix cycle).
    pub weight: u64,
}

/// Parses a `--mix` spec like `solvable=8,check_horizon=1` into
/// `(method, weight)` pairs.
///
/// Rejects empty specs, entries without `=`, empty names, unparsable or
/// zero weights, and duplicate methods — each with a message suitable
/// for a usage error (the driver must never panic on user input).
pub fn parse_mix(spec: &str) -> Result<Vec<(String, u64)>, String> {
    let mut mix: Vec<(String, u64)> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("mix {spec:?}: empty entry"));
        }
        let (name, weight) = part
            .split_once('=')
            .ok_or_else(|| format!("mix entry {part:?}: expected method=weight"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("mix entry {part:?}: empty method name"));
        }
        let weight: u64 = weight
            .trim()
            .parse()
            .map_err(|_| format!("mix entry {part:?}: weight must be a positive integer"))?;
        if weight == 0 {
            return Err(format!("mix entry {part:?}: weight must be >= 1"));
        }
        if mix.iter().any(|(existing, _)| existing == name) {
            return Err(format!("mix {spec:?}: duplicate method {name:?}"));
        }
        mix.push((name.to_string(), weight));
    }
    if mix.is_empty() {
        return Err("mix spec is empty".to_string());
    }
    Ok(mix)
}

/// Deterministic smooth weighted round-robin over mix entries.
///
/// The nginx algorithm: each step adds every entry's weight to its
/// running credit, picks the entry with the most credit, and debits the
/// picked entry by the total weight. Over any window of `total` steps
/// each entry is chosen exactly `weight` times, and picks are spread
/// evenly rather than bursted — so even a short trial sees the intended
/// mix.
pub struct MixSchedule {
    weights: Vec<u64>,
    credit: Vec<i64>,
    total: i64,
}

impl MixSchedule {
    /// A schedule over `weights` (one per mix entry, all >= 1).
    pub fn new(weights: &[u64]) -> MixSchedule {
        assert!(!weights.is_empty(), "mix schedule needs at least one entry");
        MixSchedule {
            weights: weights.to_vec(),
            credit: vec![0; weights.len()],
            total: weights.iter().map(|w| *w as i64).sum(),
        }
    }

    /// Index of the next entry to call.
    pub fn next_index(&mut self) -> usize {
        for (credit, weight) in self.credit.iter_mut().zip(&self.weights) {
            *credit += *weight as i64;
        }
        let mut best = 0;
        for i in 1..self.credit.len() {
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        self.credit[best] -= self.total;
        best
    }
}

/// The virtual-deadline comb for one sender thread.
///
/// Thread `thread` of `threads` fires its `k`-th request at
/// `(k·threads + thread) / freq` seconds after the run epoch. The union
/// over all threads is one request every `1/freq` seconds, and each
/// deadline is a pure function of `k` — response times never enter.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineSchedule {
    thread: u64,
    threads: u64,
    freq: f64,
}

impl DeadlineSchedule {
    /// The comb for `thread` (0-based) of `threads` at total rate
    /// `freq` requests/second.
    pub fn new(thread: usize, threads: usize, freq: f64) -> DeadlineSchedule {
        assert!(threads >= 1 && thread < threads, "thread out of range");
        assert!(freq > 0.0 && freq.is_finite(), "freq must be positive");
        DeadlineSchedule {
            thread: thread as u64,
            threads: threads as u64,
            freq,
        }
    }

    /// Nanosecond deadline of this thread's `k`-th request.
    pub fn deadline_ns(&self, k: u64) -> u64 {
        let slot = (k * self.threads + self.thread) as f64;
        (slot * 1.0e9 / self.freq) as u64
    }
}

/// Shared counters for one load run. All atomics, updated from sender
/// and reader threads without locks.
#[derive(Debug, Default)]
pub struct LoadCounters {
    /// Requests written to a connection.
    pub sent: AtomicU64,
    /// Responses received (ok or rpc-error).
    pub completed: AtomicU64,
    /// Rpc-level errors and protocol/transport failures.
    pub errors: AtomicU64,
    /// Requests refused because the in-flight cap was reached.
    pub dropped_by_cap: AtomicU64,
    /// `busy` rejections from the daemon's connection cap — back-pressure
    /// the daemon *chose* to apply, reported apart from real errors.
    pub busy: AtomicU64,
}

impl LoadCounters {
    /// Snapshot of (sent, completed, errors, dropped_by_cap, busy).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.dropped_by_cap.load(Ordering::Relaxed),
            self.busy.load(Ordering::Relaxed),
        )
    }
}

/// Where the scheduler hands a request off. Production writes a wire
/// frame; tests record the call.
pub trait Dispatch {
    /// Requests currently awaiting a response on this dispatcher.
    fn in_flight(&self) -> usize;
    /// Issues request `seq` for mix entry `method_idx`, charged to
    /// `deadline_ns`. An error aborts the sender (dead connection).
    fn send(&mut self, seq: u64, method_idx: usize, deadline_ns: u64) -> Result<(), String>;
}

/// Drives one sender thread's schedule until `until_ns`.
///
/// For each deadline strictly before `until_ns`, in order: sleep until
/// the deadline, pick the next mix entry, then either drop (cap
/// reached) or send. The loop never waits for a response, and the
/// deadline passed to [`Dispatch::send`] is the *scheduled* time — late
/// sends are charged from when they should have happened. Returns the
/// number of deadlines taken (sent + dropped); every one satisfies
/// `sent + dropped_by_cap == returned`.
pub fn run_sender<C: Clock, D: Dispatch>(
    clock: &C,
    schedule: &DeadlineSchedule,
    mix: &mut MixSchedule,
    counters: &LoadCounters,
    dispatch: &mut D,
    until_ns: u64,
    inflight_cap: usize,
) -> u64 {
    let mut k = 0u64;
    loop {
        let deadline = schedule.deadline_ns(k);
        if deadline >= until_ns {
            return k;
        }
        clock.sleep_until_ns(deadline);
        let method_idx = mix.next_index();
        if dispatch.in_flight() >= inflight_cap {
            counters.dropped_by_cap.fetch_add(1, Ordering::Relaxed);
        } else if dispatch.send(k, method_idx, deadline).is_err() {
            // Dead connection: the remaining schedule cannot be offered.
            counters.errors.fetch_add(1, Ordering::Relaxed);
            return k + 1;
        } else {
            counters.sent.fetch_add(1, Ordering::Relaxed);
        }
        k += 1;
    }
}

/// Records one completed request: latency is measured from the send
/// *deadline*, not the actual send, so schedule slip inside the driver
/// still counts against the service (no coordinated omission).
pub fn observe_completion(
    latency: &Histogram,
    max_latency_ns: &AtomicU64,
    counters: &LoadCounters,
    deadline_ns: u64,
    now_ns: u64,
    ok: bool,
) {
    let nanos = now_ns.saturating_sub(deadline_ns);
    latency.observe(nanos);
    let mut seen = max_latency_ns.load(Ordering::Relaxed);
    while nanos > seen {
        match max_latency_ns.compare_exchange_weak(
            seen,
            nanos,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(actual) => seen = actual,
        }
    }
    counters.completed.fetch_add(1, Ordering::Relaxed);
    if !ok {
        counters.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Configuration for one open-loop run against a live daemon.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total offered rate across all threads, requests/second.
    pub freq: f64,
    /// Trial length (the drain afterwards is extra).
    pub duration: Duration,
    /// Sender threads, one connection each.
    pub threads: usize,
    /// Method mix (weights need not be normalised).
    pub mix: Vec<MixEntry>,
    /// Max requests awaiting a response per connection; beyond it new
    /// deadlines are dropped and counted.
    pub inflight_cap: usize,
    /// Stats-tick interval on stderr; `None` disables ticks.
    pub tick: Option<Duration>,
}

/// The measured outcome of one open-loop run.
pub struct OpenLoopSummary {
    /// Offered rate (== config freq).
    pub offered_qps: f64,
    /// Completed responses per second of total wall clock (send window
    /// plus drain) — structurally `<= offered_qps`.
    pub achieved_qps: f64,
    /// Requests written.
    pub sent: u64,
    /// Responses received.
    pub completed: u64,
    /// Rpc errors plus transport failures.
    pub errors: u64,
    /// Requests refused by the in-flight cap.
    pub dropped_by_cap: u64,
    /// `busy` rejections from the daemon's connection cap.
    pub busy: u64,
    /// Total wall clock including drain, seconds.
    pub elapsed_s: f64,
    /// Deadline→response latency, merged across threads.
    pub latency: Histogram,
    /// Exact maximum observed latency in nanoseconds (the histogram's
    /// top bucket is an estimate; this is not).
    pub max_latency_ns: u64,
}

struct SocketDispatch {
    writer: BufWriter<TcpStream>,
    pending: mpsc::Sender<(u64, u64, usize)>,
    in_flight: Arc<AtomicUsize>,
    methods: Vec<(String, Value)>,
}

impl Dispatch for SocketDispatch {
    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    fn send(&mut self, seq: u64, method_idx: usize, deadline_ns: u64) -> Result<(), String> {
        let (method, params) = &self.methods[method_idx];
        // The pending entry must precede the write: the daemon answers
        // in order, so the reader matches responses to entries FIFO.
        self.pending
            .send((seq, deadline_ns, method_idx))
            .map_err(|_| "reader thread gone".to_string())?;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        wire::write_frame(
            &mut self.writer,
            &wire::request(seq, method, params.clone()),
        )
        .map_err(|e| e.to_string())
    }
}

/// Runs one open-loop trial against the daemon at `addr`.
///
/// Each sender thread owns one connection and a paired reader thread;
/// the daemon answers a connection's frames in order, so the reader
/// matches responses to the FIFO of (id, deadline) entries the sender
/// queued before each write. After the send window the drivers drain
/// outstanding responses (bounded by a read timeout) before the
/// summary is computed, so `achieved_qps` counts only real completions.
pub fn run_open_loop(addr: &str, config: &OpenLoopConfig) -> Result<OpenLoopSummary, String> {
    if config.threads == 0 {
        return Err("open-loop driver needs at least one thread".to_string());
    }
    if config.mix.is_empty() {
        return Err("open-loop driver needs a non-empty mix".to_string());
    }
    let clock = Arc::new(SystemClock::new());
    let counters = Arc::new(LoadCounters::default());
    let max_latency_ns = Arc::new(AtomicU64::new(0));
    let live_inflight = Arc::new(AtomicUsize::new(0));
    let until_ns = u64::try_from(config.duration.as_nanos()).unwrap_or(u64::MAX);

    let weights: Vec<u64> = config.mix.iter().map(|e| e.weight).collect();
    let methods: Vec<(String, Value)> = config
        .mix
        .iter()
        .map(|e| (e.method.clone(), e.params.clone()))
        .collect();

    let mut handles = Vec::with_capacity(config.threads);
    for thread in 0..config.threads {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        read_half
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("set timeout: {e}"))?;

        let (tx, rx) = mpsc::channel::<(u64, u64, usize)>();
        let schedule = DeadlineSchedule::new(thread, config.threads, config.freq);
        let mut mix = MixSchedule::new(&weights);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let mut dispatch = SocketDispatch {
            writer: BufWriter::new(stream),
            pending: tx,
            in_flight: Arc::clone(&in_flight),
            methods: methods.clone(),
        };

        let reader = {
            let clock = Arc::clone(&clock);
            let counters = Arc::clone(&counters);
            let in_flight = Arc::clone(&in_flight);
            let live_inflight = Arc::clone(&live_inflight);
            let max_latency_ns = Arc::clone(&max_latency_ns);
            let thread_latency = Histogram::new(&Histogram::latency_bounds());
            std::thread::spawn(move || {
                let mut reader = BufReader::new(read_half);
                while let Ok((id, deadline_ns, _method_idx)) = rx.recv() {
                    let response = match wire::read_frame(&mut reader) {
                        Ok(Some(v)) => {
                            // The acceptor's at-cap rejection carries id 0
                            // and precedes a hangup: count it as back-
                            // pressure, then drain the queue as lost.
                            let busy = v
                                .get("error")
                                .and_then(|e| e.get("code"))
                                .and_then(Value::as_str)
                                == Some("busy");
                            if busy {
                                counters.busy.fetch_add(1, Ordering::Relaxed);
                                while rx.try_recv().is_ok() {
                                    counters.errors.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            v
                        }
                        Ok(None) | Err(_) => {
                            // Dead connection: everything still queued is
                            // lost; count this entry and drain the rest.
                            counters.errors.fetch_add(1, Ordering::Relaxed);
                            while rx.try_recv().is_ok() {
                                counters.errors.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                    };
                    let now = clock.now_ns();
                    let ok = response.get("ok").and_then(Value::as_bool) == Some(true)
                        && response.get("id").and_then(Value::as_u64) == Some(id);
                    observe_completion(
                        &thread_latency,
                        &max_latency_ns,
                        &counters,
                        deadline_ns,
                        now,
                        ok,
                    );
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    live_inflight.store(in_flight.load(Ordering::Acquire), Ordering::Relaxed);
                }
                thread_latency
            })
        };

        let sender = {
            let clock = Arc::clone(&clock);
            let counters = Arc::clone(&counters);
            let cap = config.inflight_cap;
            std::thread::spawn(move || {
                run_sender(
                    &*clock,
                    &schedule,
                    &mut mix,
                    &counters,
                    &mut dispatch,
                    until_ns,
                    cap,
                );
            })
        };

        handles.push((sender, reader));
    }

    // Tick loop: report progress while the first sender is still inside
    // its window, then join every pair (the join drains the remainder).
    let merged = Histogram::new(&Histogram::latency_bounds());
    let mut next_tick = config.tick.map(|t| t.as_nanos() as u64);
    for (joined, (sender, reader)) in handles.into_iter().enumerate() {
        while let Some(tick_at) = next_tick {
            if sender.is_finished() {
                break;
            }
            let now = clock.now_ns();
            if now >= tick_at {
                let (sent, completed, errors, dropped, busy) = counters.snapshot();
                eprintln!(
                    "[bench] t={:.1}s sent={sent} completed={completed} errors={errors} dropped_by_cap={dropped} busy={busy} inflight={}",
                    now as f64 / 1.0e9,
                    live_inflight.load(Ordering::Relaxed),
                );
                next_tick = Some(tick_at + config.tick.unwrap().as_nanos() as u64);
            } else {
                std::thread::sleep(Duration::from_millis(
                    ((tick_at - now) / 1_000_000).clamp(1, 200),
                ));
            }
        }
        sender.join().map_err(|_| "sender thread panicked")?;
        let thread_latency = reader.join().map_err(|_| "reader thread panicked")?;
        merged
            .merge_from(&thread_latency)
            .map_err(|e| format!("merge thread {joined}: {e}"))?;
    }

    // Elapsed runs from the schedule epoch through the drain, floored at
    // the configured window so edge-of-window rounding (at most one
    // extra deadline fits before `until_ns`) cannot push achieved above
    // offered.
    let elapsed_s = (clock.now_ns() as f64 / 1.0e9).max(config.duration.as_secs_f64());
    let (sent, completed, errors, dropped_by_cap, busy) = counters.snapshot();
    Ok(OpenLoopSummary {
        offered_qps: config.freq,
        achieved_qps: (completed as f64 / elapsed_s).min(config.freq),
        sent,
        completed,
        errors,
        dropped_by_cap,
        busy,
        elapsed_s,
        latency: merged,
        max_latency_ns: max_latency_ns.load(Ordering::Relaxed),
    })
}

/// A parsed `--sweep lo:hi:steps` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// Lowest offered frequency, requests/second.
    pub lo: f64,
    /// Highest offered frequency, requests/second.
    pub hi: f64,
    /// Number of trial points, linearly spaced inclusive of both ends.
    pub steps: usize,
}

impl SweepSpec {
    /// Parses `lo:hi:steps` (e.g. `100:2000:5`); `steps >= 2`,
    /// `0 < lo <= hi`.
    pub fn parse(spec: &str) -> Result<SweepSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("sweep {spec:?}: expected lo:hi:steps"));
        }
        let lo: f64 = parts[0]
            .trim()
            .parse()
            .map_err(|_| format!("sweep {spec:?}: lo must be a number"))?;
        let hi: f64 = parts[1]
            .trim()
            .parse()
            .map_err(|_| format!("sweep {spec:?}: hi must be a number"))?;
        let steps: usize = parts[2]
            .trim()
            .parse()
            .map_err(|_| format!("sweep {spec:?}: steps must be an integer"))?;
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
            return Err(format!("sweep {spec:?}: need 0 < lo <= hi"));
        }
        if steps < 2 {
            return Err(format!("sweep {spec:?}: need steps >= 2"));
        }
        Ok(SweepSpec { lo, hi, steps })
    }

    /// The trial frequencies, lo..=hi linearly spaced.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.steps)
            .map(|i| self.lo + (self.hi - self.lo) * i as f64 / (self.steps - 1) as f64)
            .collect()
    }
}

/// One sweep trial's outcome, as seen by the knee finder.
#[derive(Debug, Clone, Copy)]
pub struct TrialPoint {
    /// Offered rate.
    pub offered_qps: f64,
    /// Achieved rate.
    pub achieved_qps: f64,
    /// p99 latency in nanoseconds (`None` when nothing completed).
    pub p99_ns: Option<f64>,
}

/// When a sweep trial counts as saturated.
#[derive(Debug, Clone, Copy)]
pub struct KneeCriteria {
    /// Saturated when `achieved < achieved_ratio * offered` (0.9 per
    /// the standard definition).
    pub achieved_ratio: f64,
    /// Saturated when p99 exceeds this bound, if set.
    pub p99_bound_ns: Option<f64>,
}

impl Default for KneeCriteria {
    fn default() -> KneeCriteria {
        KneeCriteria {
            achieved_ratio: 0.9,
            p99_bound_ns: None,
        }
    }
}

/// Index of the saturation knee: the first trial where achieved
/// throughput falls below `achieved_ratio` of offered, or p99 exceeds
/// the bound. `None` when the sweep never saturates.
pub fn find_knee(trials: &[TrialPoint], criteria: &KneeCriteria) -> Option<usize> {
    trials.iter().position(|t| {
        let starved = t.achieved_qps < criteria.achieved_ratio * t.offered_qps;
        let slow = match (criteria.p99_bound_ns, t.p99_ns) {
            (Some(bound), Some(p99)) => p99 > bound,
            // A trial where nothing completed is saturated by definition.
            (Some(_), None) => true,
            (None, _) => false,
        };
        starved || slow
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A clock whose `sleep_until_ns` jumps straight to the deadline.
    struct MockClock {
        now: AtomicU64,
    }

    impl MockClock {
        fn new() -> MockClock {
            MockClock {
                now: AtomicU64::new(0),
            }
        }

        fn advance(&self, ns: u64) {
            self.now.fetch_add(ns, Ordering::SeqCst);
        }
    }

    impl Clock for MockClock {
        fn now_ns(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }

        fn sleep_until_ns(&self, deadline_ns: u64) {
            // fetch_max: never travels back in time when the deadline
            // is already past.
            self.now.fetch_max(deadline_ns, Ordering::SeqCst);
        }
    }

    /// Records every send; a configurable number of responses are
    /// "stuck" forever (in_flight never drains below that level).
    struct RecordingDispatch<'a> {
        clock: &'a MockClock,
        /// Simulated per-request service delay added to the clock on
        /// every send — a "slow server" that the schedule must ignore.
        service_delay_ns: u64,
        stuck_in_flight: usize,
        sends: Mutex<Vec<(u64, usize, u64)>>,
    }

    impl Dispatch for RecordingDispatch<'_> {
        fn in_flight(&self) -> usize {
            self.stuck_in_flight
        }

        fn send(&mut self, seq: u64, method_idx: usize, deadline_ns: u64) -> Result<(), String> {
            self.clock.advance(self.service_delay_ns);
            self.sends
                .lock()
                .unwrap()
                .push((seq, method_idx, deadline_ns));
            Ok(())
        }
    }

    #[test]
    fn deadlines_interleave_per_thread_phase() {
        // 2 threads at 10 Hz total: thread 0 fires at 0, 200ms, 400ms…
        // and thread 1 at 100ms, 300ms, 500ms…
        let s0 = DeadlineSchedule::new(0, 2, 10.0);
        let s1 = DeadlineSchedule::new(1, 2, 10.0);
        assert_eq!(s0.deadline_ns(0), 0);
        assert_eq!(s1.deadline_ns(0), 100_000_000);
        assert_eq!(s0.deadline_ns(1), 200_000_000);
        assert_eq!(s1.deadline_ns(1), 300_000_000);
    }

    #[test]
    fn slow_responses_never_drift_the_schedule() {
        // A server taking 50ms per request against a 100 req/s
        // schedule: a closed-loop driver would degrade to 20 req/s, but
        // the open-loop schedule must keep every deadline exactly at
        // k/freq and still take all of them.
        let clock = MockClock::new();
        let schedule = DeadlineSchedule::new(0, 1, 100.0);
        let mut mix = MixSchedule::new(&[1]);
        let counters = LoadCounters::default();
        let mut dispatch = RecordingDispatch {
            clock: &clock,
            service_delay_ns: 50_000_000,
            stuck_in_flight: 0,
            sends: Mutex::new(Vec::new()),
        };
        let one_second = 1_000_000_000;
        let taken = run_sender(
            &clock,
            &schedule,
            &mut mix,
            &counters,
            &mut dispatch,
            one_second,
            usize::MAX,
        );
        assert_eq!(taken, 100, "100 deadlines fit in one second at 100 Hz");
        let sends = dispatch.sends.into_inner().unwrap();
        assert_eq!(sends.len(), 100);
        for (k, (seq, _method, deadline)) in sends.iter().enumerate() {
            assert_eq!(*seq, k as u64);
            // The recorded deadline is the scheduled instant, untouched
            // by the 50ms the "server" burned on every earlier request.
            assert_eq!(*deadline, k as u64 * 10_000_000, "deadline {k} drifted");
        }
        assert_eq!(counters.sent.load(Ordering::Relaxed), 100);
        assert_eq!(counters.dropped_by_cap.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn inflight_cap_drops_are_counted_not_absorbed() {
        let clock = MockClock::new();
        let schedule = DeadlineSchedule::new(0, 1, 100.0);
        let mut mix = MixSchedule::new(&[1]);
        let counters = LoadCounters::default();
        // Everything is permanently stuck at the cap: every deadline
        // must be dropped and counted; none may block or send.
        let mut dispatch = RecordingDispatch {
            clock: &clock,
            service_delay_ns: 0,
            stuck_in_flight: 8,
            sends: Mutex::new(Vec::new()),
        };
        let taken = run_sender(
            &clock,
            &schedule,
            &mut mix,
            &counters,
            &mut dispatch,
            1_000_000_000,
            8,
        );
        assert_eq!(taken, 100);
        assert_eq!(counters.sent.load(Ordering::Relaxed), 0);
        assert_eq!(counters.dropped_by_cap.load(Ordering::Relaxed), 100);
        assert!(dispatch.sends.lock().unwrap().is_empty());
        // sent + dropped accounts for every scheduled deadline.
        let (sent, _, _, dropped, busy) = counters.snapshot();
        assert_eq!(sent + dropped, taken);
        assert_eq!(busy, 0);
    }

    #[test]
    fn latency_is_measured_from_the_send_deadline() {
        let latency = Histogram::new(&Histogram::latency_bounds());
        let max_ns = AtomicU64::new(0);
        let counters = LoadCounters::default();
        // Scheduled at t=100µs, answered at t=350µs: 250µs of latency,
        // regardless of when the driver actually got the bytes out.
        observe_completion(&latency, &max_ns, &counters, 100_000, 350_000, true);
        assert_eq!(latency.count(), 1);
        assert_eq!(latency.sum(), 250_000);
        assert_eq!(max_ns.load(Ordering::Relaxed), 250_000);
        assert_eq!(counters.completed.load(Ordering::Relaxed), 1);
        assert_eq!(counters.errors.load(Ordering::Relaxed), 0);
        // An rpc error still completes (the round trip happened) but
        // counts as an error.
        observe_completion(&latency, &max_ns, &counters, 400_000, 500_000, false);
        assert_eq!(counters.completed.load(Ordering::Relaxed), 2);
        assert_eq!(counters.errors.load(Ordering::Relaxed), 1);
        assert_eq!(max_ns.load(Ordering::Relaxed), 250_000);
    }

    #[test]
    fn mix_parser_accepts_weighted_specs() {
        let mix = parse_mix("solvable=8,check_horizon=1,net_solvable=1").unwrap();
        assert_eq!(
            mix,
            vec![
                ("solvable".to_string(), 8),
                ("check_horizon".to_string(), 1),
                ("net_solvable".to_string(), 1),
            ]
        );
    }

    #[test]
    fn mix_parser_rejects_malformed_specs_with_messages() {
        for bad in [
            "",
            "solvable",
            "solvable=",
            "=8",
            "solvable=zero",
            "solvable=0",
            "solvable=8,solvable=1",
            "solvable=8,,stats=1",
            "solvable=-2",
        ] {
            let err = parse_mix(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad:?} should explain itself");
        }
    }

    #[test]
    fn mix_schedule_honours_weights_smoothly() {
        let mut schedule = MixSchedule::new(&[4, 1]);
        let picks: Vec<usize> = (0..10).map(|_| schedule.next_index()).collect();
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 8);
        assert_eq!(picks.iter().filter(|&&p| p == 1).count(), 2);
        // Smooth WRR spreads the minority entry out instead of bursting
        // it at a cycle boundary.
        assert_ne!(picks[..5].iter().filter(|&&p| p == 1).count(), 0);
    }

    #[test]
    fn sweep_spec_parses_and_spaces_frequencies() {
        let spec = SweepSpec::parse("100:500:5").unwrap();
        assert_eq!(spec.frequencies(), vec![100.0, 200.0, 300.0, 400.0, 500.0]);
        for bad in ["", "100:500", "0:500:5", "500:100:5", "100:500:1", "a:b:c"] {
            assert!(SweepSpec::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn knee_finder_locates_first_saturated_trial() {
        let trials = [
            TrialPoint {
                offered_qps: 100.0,
                achieved_qps: 100.0,
                p99_ns: Some(1.0e6),
            },
            TrialPoint {
                offered_qps: 200.0,
                achieved_qps: 198.0,
                p99_ns: Some(2.0e6),
            },
            TrialPoint {
                offered_qps: 300.0,
                achieved_qps: 250.0,
                p99_ns: Some(9.0e6),
            },
            TrialPoint {
                offered_qps: 400.0,
                achieved_qps: 240.0,
                p99_ns: Some(50.0e6),
            },
        ];
        // 250 < 0.9 * 300 → the knee is the third trial.
        assert_eq!(find_knee(&trials, &KneeCriteria::default()), Some(2));
        // A p99 bound can pull the knee earlier.
        let strict = KneeCriteria {
            achieved_ratio: 0.9,
            p99_bound_ns: Some(1.5e6),
        };
        assert_eq!(find_knee(&trials, &strict), Some(1));
        // An unsaturated sweep has no knee.
        assert_eq!(find_knee(&trials[..2], &KneeCriteria::default()), None);
    }
}
