//! The open-loop load: one connection, a sender and a reader thread.
//!
//! The sender is `minobs_svc::loadgen::run_sender`, the virtual-deadline
//! comb of `svc bench --open-loop`, so every request is timed from when it
//! was due and a stall charges every request queued behind it. The
//! reader matches answers to requests in order (the daemon answers a
//! connection's frames in the order it received them) and checks each
//! answer against its request's expectation.

use crate::spans::Spans;
use crate::stats::sorted;
use crate::streams::Op;
use minobs_svc::loadgen::{
    run_sender, Clock, DeadlineSchedule, Dispatch, LoadCounters, MixSchedule, SystemClock,
};
use minobs_svc::wire;
use serde_json::Value;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// How the sender picks the op for each due request.
pub enum Picker {
    /// Ops in the smooth weighted round-robin order of these weights.
    Mix(Vec<u64>),
    /// Each op once, in order, starting at this index.
    Unique(usize),
}

/// One phase of load.
pub struct PhaseSpec {
    /// Offered requests per second.
    pub rate: f64,
    /// Length of the send window.
    pub seconds: f64,
    /// Most requests awaiting an answer; due requests past it are dropped
    /// and counted.
    pub cap: usize,
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseOutcome {
    /// (due time, latency) per answered request, in answer order; times
    /// count from the phase's start.
    pub timed_ns: Vec<(u64, u64)>,
    /// Answer times of the answers inside the send window.
    pub answered_at_ns: Vec<u64>,
    /// Send time minus due time, per sent request, ascending.
    pub send_lag_ns: Vec<u64>,
    /// Requests written.
    pub sent: u64,
    /// Error answers and transport failures.
    pub errors: u64,
    /// `busy` answers.
    pub busy: u64,
    /// Due requests dropped at the in-flight cap.
    pub dropped_by_cap: u64,
    /// Answers whose verdict was wrong.
    pub wrong: u64,
    /// Requests still awaiting an answer when the window closed.
    pub backlog_at_end: usize,
    /// Sampled answers: (op index, result).
    pub answers: Vec<(usize, Value)>,
}

impl PhaseOutcome {
    /// Due time to answer, per answered request, ascending.
    pub fn latencies_ns(&self) -> Vec<u64> {
        sorted(self.timed_ns.iter().map(|&(_, latency)| latency).collect())
    }

    /// Failed operations: errors, `busy`, cap drops and wrong verdicts.
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.dropped_by_cap + self.wrong
    }

    /// Operations the schedule attempted: sent plus dropped at the cap.
    pub fn attempted(&self) -> u64 {
        self.sent + self.dropped_by_cap
    }

    /// Appends `later`, a phase that started `offset_ns` after this one,
    /// so times keep counting from this phase's start.
    pub fn append(&mut self, later: PhaseOutcome, offset_ns: u64) {
        let shift = |t: u64| t + offset_ns;
        self.timed_ns.extend(
            later
                .timed_ns
                .into_iter()
                .map(|(due, latency)| (shift(due), latency)),
        );
        self.answered_at_ns
            .extend(later.answered_at_ns.into_iter().map(shift));
        self.send_lag_ns.extend(later.send_lag_ns);
        self.send_lag_ns.sort_unstable();
        self.sent += later.sent;
        self.errors += later.errors;
        self.busy += later.busy;
        self.dropped_by_cap += later.dropped_by_cap;
        self.wrong += later.wrong;
        self.backlog_at_end = self.backlog_at_end.max(later.backlog_at_end);
        self.answers.extend(later.answers);
    }
}

struct Pending {
    seq: u64,
    op: usize,
    due_ns: u64,
}

struct Sender<'a> {
    stream: TcpStream,
    ops: &'a [Op],
    picker: &'a mut Picker,
    clock: &'a SystemClock,
    pending: mpsc::Sender<Pending>,
    in_flight: &'a AtomicUsize,
    lags: Vec<u64>,
    frame: Vec<u8>,
    spans: Option<&'a mut Spans>,
}

impl Dispatch for Sender<'_> {
    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    fn send(&mut self, seq: u64, method_idx: usize, due_ns: u64) -> Result<(), String> {
        let op = match self.picker {
            Picker::Mix(_) => method_idx,
            Picker::Unique(next) => {
                if *next >= self.ops.len() {
                    return Err("the request stream ran out".to_string());
                }
                *next += 1;
                *next - 1
            }
        };
        let now = self.clock.now_ns();
        self.lags.push(now.saturating_sub(due_ns));
        let (method, params) = (self.ops[op].method, &self.ops[op].params);
        let frame = &mut self.frame;
        frame.clear();
        let mut encode = || wire::write_frame(frame, &wire::request(seq, method, params.clone()));
        match self.spans.as_deref_mut() {
            Some(spans) => spans.time("client.send_encode", None, seq, encode),
            None => encode(),
        }
        .map_err(|e| e.to_string())?;
        // The pending entry must precede the write: the reader matches
        // answers to entries in order.
        self.pending
            .send(Pending { seq, op, due_ns })
            .map_err(|_| "reader thread gone".to_string())?;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.stream
            .write_all(&self.frame)
            .map_err(|e| e.to_string())
    }
}

/// Runs one phase against the daemon at `addr`: sends `ops` on the comb
/// at `spec.rate` for `spec.seconds`, then waits for every answer.
/// `sample(op)` picks the answers kept for in-process re-checking;
/// `spans`, when given, records a span around each request's encoding
/// (the traced run).
pub fn run_phase(
    addr: &str,
    ops: &[Op],
    picker: &mut Picker,
    spec: &PhaseSpec,
    sample: &(dyn Fn(usize) -> bool + Sync),
    spans: Option<&mut Spans>,
) -> Result<PhaseOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let weights = match picker {
        Picker::Mix(weights) => weights.clone(),
        Picker::Unique(_) => vec![1],
    };
    let clock = SystemClock::new();
    let counters = LoadCounters::default();
    let in_flight = AtomicUsize::new(0);
    let until_ns = (spec.seconds * 1e9) as u64;
    let (tx, rx) = mpsc::channel::<Pending>();

    std::thread::scope(|scope| {
        let (clock, in_flight) = (&clock, &in_flight);
        let reader = scope
            .spawn(move || read_answers(read_half, rx, ops, clock, in_flight, until_ns, sample));
        let mut sender = Sender {
            stream,
            ops,
            picker,
            clock,
            pending: tx,
            in_flight,
            lags: Vec::new(),
            frame: Vec::new(),
            spans,
        };
        let schedule = DeadlineSchedule::new(0, 1, spec.rate);
        let mut mix = MixSchedule::new(&weights);
        run_sender(
            clock,
            &schedule,
            &mut mix,
            &counters,
            &mut sender,
            until_ns,
            spec.cap,
        );
        let backlog_at_end = in_flight.load(Ordering::Acquire);
        let lags = std::mem::take(&mut sender.lags);
        // Dropping the sender closes the pending queue, so the reader
        // returns once every written request is answered.
        drop(sender);
        let mut outcome = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        let (sent, _, send_errors, dropped_by_cap, _) = counters.snapshot();
        outcome.sent = sent;
        outcome.errors += send_errors;
        outcome.dropped_by_cap = dropped_by_cap;
        outcome.backlog_at_end = backlog_at_end;
        outcome.send_lag_ns = sorted(lags);
        Ok(outcome)
    })
}

fn read_answers(
    stream: TcpStream,
    pending: mpsc::Receiver<Pending>,
    ops: &[Op],
    clock: &SystemClock,
    in_flight: &AtomicUsize,
    until_ns: u64,
    sample: &(dyn Fn(usize) -> bool + Sync),
) -> PhaseOutcome {
    let mut reader = BufReader::new(stream);
    let mut out = PhaseOutcome::default();
    while let Ok(request) = pending.recv() {
        let frame = wire::read_frame(&mut reader);
        let now = clock.now_ns();
        in_flight.fetch_sub(1, Ordering::AcqRel);
        let Ok(Some(answer)) = frame else {
            // A dead connection loses everything still queued on it.
            out.errors += 1;
            while pending.try_recv().is_ok() {
                out.errors += 1;
                in_flight.fetch_sub(1, Ordering::AcqRel);
            }
            break;
        };
        out.timed_ns
            .push((request.due_ns, now.saturating_sub(request.due_ns)));
        if now <= until_ns {
            out.answered_at_ns.push(now);
        }
        let code = answer
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str);
        if code == Some("busy") {
            out.busy += 1;
            continue;
        }
        let ok = answer.get("ok").and_then(Value::as_bool) == Some(true)
            && answer.get("id").and_then(Value::as_u64) == Some(request.seq);
        let result = answer.get("result").unwrap_or(&Value::Null);
        if !ok {
            out.errors += 1;
            if out.errors <= 3 {
                eprintln!("perfbench: error answer {answer:?}");
            }
            continue;
        }
        let op = &ops[request.op];
        if !op.accepts(result) {
            out.wrong += 1;
            if out.wrong <= 3 {
                eprintln!(
                    "perfbench: wrong answer to {} {:?}: {result:?}",
                    op.method, op.params
                );
            }
        }
        if sample(request.op) {
            out.answers.push((request.op, result.clone()));
        }
    }
    out
}
