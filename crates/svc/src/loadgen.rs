//! The open-loop request schedule the benchmark drives the daemon with.
//!
//! A closed-loop driver (send, wait, send) measures the *service* but
//! not the *system*: when the daemon slows down, the driver slows with
//! it, queueing delay is silently absorbed into inter-request gaps, and
//! reported latency flatters the service — the classic coordinated
//! omission trap. The open-loop sender here fixes that by issuing
//! requests on a fixed schedule of **virtual deadlines** computed from
//! the offered frequency alone:
//!
//! * thread `t` of `n` fires its `k`-th request at
//!   `(k·n + t) / freq` seconds — a per-thread phase-offset comb that
//!   interleaves to the full offered rate, and never depends on when
//!   (or whether) responses arrive;
//! * each send is handed its **scheduled deadline**, so the caller can
//!   time latency from it: a request the driver itself delivered late
//!   still charges the service for the schedule slip;
//! * overload is bounded by an in-flight cap per connection, and every
//!   request refused by the cap increments an explicit
//!   [`LoadCounters::dropped_by_cap`] counter — overload is measured,
//!   never silently absorbed.
//!
//! The scheduler core ([`run_sender`]) is generic over a [`Clock`] and a
//! [`Dispatch`] so the no-drift and cap properties are provable in unit
//! tests with a mock clock. The benchmark (`perfbench/`) instantiates it
//! over a real socket against a live daemon; see `docs/BENCHMARKING.md`.

use std::sync::atomic::{AtomicU64, Ordering};
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
        // The sender starts 35ms late against a 100 req/s schedule. The
        // four overdue deadlines go out at once, each charged to its
        // scheduled instant, so the caller times the slip against the
        // service; the schedule does not stretch to absorb it.
        let clock = MockClock::new();
        clock.advance(35_000_000);
        let schedule = DeadlineSchedule::new(0, 1, 100.0);
        let mut mix = MixSchedule::new(&[1]);
        let counters = LoadCounters::default();
        let mut dispatch = RecordingDispatch {
            clock: &clock,
            service_delay_ns: 0,
            stuck_in_flight: 0,
            sends: Mutex::new(Vec::new()),
        };
        let taken = run_sender(
            &clock,
            &schedule,
            &mut mix,
            &counters,
            &mut dispatch,
            60_000_000,
            usize::MAX,
        );
        assert_eq!(taken, 6);
        let sends = dispatch.sends.into_inner().unwrap();
        let deadlines: Vec<u64> = sends.iter().map(|(_, _, deadline)| *deadline).collect();
        assert_eq!(
            deadlines,
            [0, 10_000_000, 20_000_000, 30_000_000, 40_000_000, 50_000_000]
        );
        // The clock never ran backwards to meet a past deadline.
        assert_eq!(clock.now_ns(), 50_000_000);
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
}
