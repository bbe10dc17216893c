//! The serving workloads, `hit` and `miss`, against a spawned
//! `minobs-svcd`.
//!
//! A run sets the daemon up several times (spawn to ready, plus cache
//! priming on `hit`; the replay of a warm verdict log on `miss`) and
//! reports the median set-up, then drives it open loop in rounds: a
//! phase at a fixed rate for latency, then a phase past saturation for
//! peak throughput. `hit` runs its rounds on one daemon; `miss` starts a
//! fresh daemon for each round and sends it the same requests. The
//! traced run drives the daemon at the fixed rate twice, the second time
//! with the benchmark's own spans on, then replays the stream in-process
//! layer by layer (see `layers`).

use crate::daemon::Daemon;
use crate::layers;
use crate::load::{run_phase, PhaseOutcome, PhaseSpec, Picker};
use crate::spans::Spans;
use crate::stats::{
    chunked_rate, keep_lowest, median, peak_rss_mib, quantile, rate, sorted, windowed_quantile,
};
use crate::streams::{
    self, in_process_verdict, verdict_of, Expect, MissStream, Op, HIT_WEIGHTS,
};
use crate::{put, write_spans, Args, Report, PER_LAYER};
use minobs_obs::{Histogram, MetricsRegistry};
use minobs_svc::loadgen::MixSchedule;
use minobs_svc::{wal, VerdictCache};
use serde_json::{Map, Value};
use std::path::Path;
use std::time::{Duration, Instant};

/// Load of one serving workload.
struct Plan {
    /// Fixed rate, requests/s: where latency is measured.
    rate: f64,
    /// Offered rate past saturation, requests/s.
    saturated_rate: f64,
    /// In-flight cap past saturation.
    saturated_cap: usize,
    /// The cache-hit ratio the workload must show: (min, max).
    hit_ratio: (f64, f64),
    /// Share of `--seconds` at the fixed rate; the rest is past
    /// saturation.
    fixed_share: f64,
}

/// `hit`: about the rate of the daemon bench's pinned 5k point.
const HIT: Plan = Plan {
    rate: 5_000.0,
    saturated_rate: 32_000.0,
    saturated_cap: 64,
    hit_ratio: (0.99, 1.0),
    fixed_share: 0.7,
};

/// Slices of the `hit` fixed-rate phases. Latency quantiles are the
/// median over slices, so a burst of interference from outside the
/// program spoils a slice, not the run.
const HIT_WINDOWS: usize = 41;
/// Requests after which the `hit` stream repeats its mix.
const HIT_PERIOD: usize = (HIT_WEIGHTS[0] + HIT_WEIGHTS[1] + HIT_WEIGHTS[2]) as usize;

/// `miss`: about a tenth of its own peak, one request per 100 ms. Its
/// requests take from under a millisecond to tens of milliseconds; at a
/// higher rate the light requests queue behind the heavy ones, and the
/// p50 follows the queueing rather than the program.
const MISS: Plan = Plan {
    rate: 10.0,
    saturated_rate: 1_000.0,
    saturated_cap: 8,
    hit_ratio: (0.0, 0.01),
    fixed_share: 0.7,
};

/// Answers per second past saturation the `miss` stream has fresh specs
/// for: several times today's peak, so a much faster checker does not
/// run the stream dry.
const MISS_PEAK_HEADROOM_QPS: f64 = 500.0;
/// Keys in the warm verdict log the `miss` daemon starts on.
const MISS_WARM_KEYS: usize = 4_096;
/// About one `miss` answer in this many is re-derived in-process…
const SAMPLE_EVERY: u64 = 16;
/// …up to this many per run.
const MAX_RECHECKS: usize = 48;

/// Times the daemon is set up per run; the median is reported.
const SETUPS: usize = 5;
/// Rounds of an untraced `hit` run. Each round drives the daemon at the
/// fixed rate, then past saturation, so both measurements spread over the
/// whole run: the shared machine has slow stretches, and one that covers
/// less than half the run is outvoted in the medians instead of taking a
/// whole phase.
const ROUNDS: usize = 5;
/// The saturated `hit` phases are cut into at least this many runs of
/// answers; peak throughput is their median rate.
const SATURATED_SLICES: usize = 16;
/// Rounds of an untraced `miss` run, each on a fresh daemon.
const MISS_ROUNDS: usize = 10;
/// Traced runs: share of `--seconds` for each fixed-rate phase
/// (untraced, then traced)…
const TRACED_SHARE: f64 = 0.3;
/// …and for the in-process replay.
const REPLAY_SHARE: f64 = 0.35;
/// In-flight cap at the fixed rate: far above any healthy backlog.
const FIXED_CAP: usize = 1_024;
/// A fixed-rate phase is invalid when the generator's send lag p99
/// exceeds this…
const MAX_SEND_LAG_MS: f64 = 20.0;
/// …or when more than this many seconds of requests were still
/// outstanding as the window closed.
const MAX_BACKLOG_S: f64 = 0.25;
/// Replays of the warm log timed for `wal.replay_ms`.
const WAL_REPLAYS: usize = 5;

/// Runs `hit` or `miss`.
pub fn run(args: &Args) -> Result<Report, String> {
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, work: &Path) -> Result<Report, String> {
    let hit = args.workload == "hit";
    let plan = if hit { &HIT } else { &MISS };
    // Inputs are built before any timer starts.
    let (mut ops, warm) = if hit {
        (streams::hit_ops(), Vec::new())
    } else {
        let stream = MissStream::generate(args.seed, miss_stream_len(args.seconds), MISS_WARM_KEYS);
        eprintln!("perfbench miss stream: {}", stream.shape);
        let warm = stream.warm_log();
        (stream.ops, warm)
    };
    let (setups, daemon) = set_up(args, work, &warm, hit.then_some(ops.as_slice()))?;
    if hit {
        pin_hit_answers(&daemon, &mut ops)?;
    }
    let mut picker = if hit {
        Picker::Mix(HIT_WEIGHTS.to_vec())
    } else {
        Picker::Unique(0)
    };
    let seed = args.seed;
    let sample = move |op: usize| !hit && streams::sampled(seed, op, SAMPLE_EVERY);
    if args.trace {
        traced(args, plan, daemon, &ops, &mut picker, &sample, &warm, work)
    } else if hit {
        untraced_hit(args, daemon, &ops, &mut picker, &sample, median(&setups))
    } else {
        untraced_miss(args, daemon, &ops, &sample, setups, &warm, work)
    }
}

/// The `miss` stream: one round's fixed-rate requests, then the requests
/// one round's saturated phase may send, and a margin.
fn miss_stream_len(seconds: f64) -> usize {
    let round_s = seconds / MISS_ROUNDS as f64;
    let saturated = MISS_PEAK_HEADROOM_QPS * round_s * (1.0 - MISS.fixed_share);
    miss_fixed_ops(seconds) + saturated as usize + 256
}

/// Requests one `miss` round may send at the fixed rate: the comb sends
/// at most one more than its rate times its length.
fn miss_fixed_ops(seconds: f64) -> usize {
    (MISS.rate * seconds * MISS.fixed_share / MISS_ROUNDS as f64).ceil() as usize + 1
}

/// Sets a daemon up `SETUPS` times; returns the set-up times and the
/// last daemon, which serves the run.
fn set_up(
    args: &Args,
    work: &Path,
    warm: &[u8],
    prime: Option<&[Op]>,
) -> Result<(Vec<f64>, Daemon), String> {
    let mut seconds = Vec::with_capacity(SETUPS);
    loop {
        let (took, daemon) = start_daemon(args, work, warm, prime, seconds.len())?;
        seconds.push(took);
        if seconds.len() == SETUPS {
            return Ok((seconds, daemon));
        }
        daemon.stop()?;
    }
}

/// Starts daemon number `i` on a fresh copy of `warm`, priming the cache
/// with `prime` when given; returns the set-up time and the daemon.
fn start_daemon(
    args: &Args,
    work: &Path,
    warm: &[u8],
    prime: Option<&[Op]>,
    i: usize,
) -> Result<(f64, Daemon), String> {
    let log = work.join(format!("daemon-{i}.wal"));
    if !warm.is_empty() {
        std::fs::write(&log, warm).map_err(|e| format!("write {}: {e}", log.display()))?;
    }
    let started = Instant::now();
    let daemon = Daemon::start(&args.daemon, &log)?;
    daemon.wait_ready()?;
    if let Some(ops) = prime {
        let mut client = daemon.client()?;
        for op in ops {
            client
                .call(op.method, op.params.clone())
                .map_err(|e| format!("priming {}: {e}", op.method))?;
        }
    }
    Ok((started.elapsed().as_secs_f64(), daemon))
}

/// Pins each hit answer: the cached answer, which must state the verdict
/// the in-process decision procedure, checker and graph code give.
fn pin_hit_answers(daemon: &Daemon, ops: &mut [Op]) -> Result<(), String> {
    let mut client = daemon.client()?;
    for op in ops.iter_mut() {
        let answer = client
            .call(op.method, op.params.clone())
            .map_err(|e| format!("{}: {e}", op.method))?;
        let want = in_process_verdict(op.method, &op.params)?;
        let cached = op.method == "net_solvable"
            || answer.get("cached").and_then(Value::as_bool) != Some(false);
        if verdict_of(op.method, &answer) != Some(want) || !cached {
            return Err(format!(
                "pinned {} answer {answer:?} disagrees with the in-process verdict {want:?}",
                op.method
            ));
        }
        op.expect = Expect::Exact(answer);
    }
    Ok(())
}

/// Cache and log counters from the daemon's `stats`.
#[derive(Clone, Copy, Default)]
struct Counters {
    hits: u64,
    subsumed: u64,
    misses: u64,
    wal_appends: u64,
    wal_bytes: u64,
}

impl Counters {
    fn read(stats: &Value) -> Counters {
        let counter = |name: &str| {
            stats
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        Counters {
            hits: counter("svc.cache_hits"),
            subsumed: counter("svc.cache_subsumptions"),
            misses: counter("svc.cache_misses"),
            wal_appends: counter("svc.wal_appends"),
            wal_bytes: counter("svc.wal_append_bytes"),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            subsumed: self.subsumed - before.subsumed,
            misses: self.misses - before.misses,
            wal_appends: self.wal_appends - before.wal_appends,
            wal_bytes: self.wal_bytes - before.wal_bytes,
        }
    }

    fn plus(&self, other: &Counters) -> Counters {
        Counters {
            hits: self.hits + other.hits,
            subsumed: self.subsumed + other.subsumed,
            misses: self.misses + other.misses,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_bytes: self.wal_bytes + other.wal_bytes,
        }
    }

    fn lookups(&self) -> u64 {
        self.hits + self.subsumed + self.misses
    }

    /// (hits + subsumptions) / lookups.
    fn hit_ratio(&self) -> f64 {
        (self.hits + self.subsumed) as f64 / self.lookups().max(1) as f64
    }
}

/// A fixed-rate phase measures the program only if the generator kept
/// its schedule, the backlog did not grow, and the cache behaved as the
/// workload intends; otherwise the run is invalid, not slow.
fn check_valid(plan: &Plan, phase: &PhaseOutcome, counters: &Counters) -> Result<(), String> {
    let lag_ms = quantile(&phase.send_lag_ns, 0.99) / 1e6;
    if lag_ms > MAX_SEND_LAG_MS {
        return Err(format!(
            "run invalid: the generator fell behind (send lag p99 {lag_ms:.2} ms > {MAX_SEND_LAG_MS} ms)"
        ));
    }
    let max_backlog = (plan.rate * MAX_BACKLOG_S).max(16.0) as usize;
    if phase.backlog_at_end > max_backlog {
        return Err(format!(
            "run invalid: the backlog grew at the fixed rate ({} outstanding at the window's end, limit {max_backlog})",
            phase.backlog_at_end
        ));
    }
    let ratio = counters.hit_ratio();
    if ratio < plan.hit_ratio.0 || ratio > plan.hit_ratio.1 {
        return Err(format!(
            "run invalid: cache hit ratio {ratio:.4} over {} lookups is outside {:?}",
            counters.lookups(),
            plan.hit_ratio
        ));
    }
    Ok(())
}

/// Re-derives sampled answers in-process; returns how many differ.
fn recheck<'a>(
    ops: &[Op],
    answers: impl Iterator<Item = &'a (usize, Value)>,
) -> Result<u64, String> {
    let mut wrong = 0;
    for (index, result) in answers.take(MAX_RECHECKS) {
        let op = &ops[*index];
        let want = in_process_verdict(op.method, &op.params)?;
        if verdict_of(op.method, result) != Some(want) {
            wrong += 1;
            eprintln!(
                "perfbench: daemon answered {result:?} to {} {:?}, in-process verdict {want:?}",
                op.method, op.params
            );
        }
    }
    Ok(wrong)
}

/// `hit` without tracing: `ROUNDS` rounds on one daemon.
fn untraced_hit(
    args: &Args,
    daemon: Daemon,
    ops: &[Op],
    picker: &mut Picker,
    sample: &(dyn Fn(usize) -> bool + Sync),
    setup_s: f64,
) -> Result<Report, String> {
    let plan = &HIT;
    let fixed_spec = PhaseSpec {
        rate: plan.rate,
        seconds: args.seconds * plan.fixed_share / ROUNDS as f64,
        cap: FIXED_CAP,
    };
    let saturated_spec = PhaseSpec {
        rate: plan.saturated_rate,
        seconds: args.seconds * (1.0 - plan.fixed_share) / ROUNDS as f64,
        cap: plan.saturated_cap,
    };
    let mut saturated_picker = Picker::Mix(HIT_WEIGHTS.to_vec());
    let before = Counters::read(&daemon.call("stats", Value::Null)?);
    let fixed_ns = (fixed_spec.seconds * 1e9) as u64;
    let mut fixed = PhaseOutcome::default();
    let mut saturated = PhaseOutcome::default();
    let mut saturated_answers = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let phase = run_phase(&daemon.addr, ops, picker, &fixed_spec, sample, None)?;
        fixed.append(phase, round as u64 * fixed_ns);
        let mut phase = run_phase(
            &daemon.addr,
            ops,
            &mut saturated_picker,
            &saturated_spec,
            sample,
            None,
        )?;
        saturated_answers.push(std::mem::take(&mut phase.answered_at_ns));
        saturated.append(phase, 0);
    }
    let counters = Counters::read(&daemon.call("stats", Value::Null)?).since(&before);
    check_valid(plan, &fixed, &counters)?;
    let rss = peak_rss_mib(daemon.pid())?;
    daemon.stop()?;
    let rechecked_wrong = recheck(ops, fixed.answers.iter().chain(&saturated.answers))?;

    // Past saturation, requests dropped at the cap are the generator
    // shedding load by design, not failed operations.
    let attempted = fixed.attempted() + saturated.sent;
    let failed =
        fixed.failed() + saturated.errors + saturated.busy + saturated.wrong + rechecked_wrong;
    let mut metrics = Map::new();
    let latency_ms =
        |q| windowed_quantile(&fixed.timed_ns, fixed_ns * ROUNDS as u64, HIT_WINDOWS, q) / 1e6;
    put(&mut metrics, "p50_ms", latency_ms(0.50));
    put(&mut metrics, "p75_ms", latency_ms(0.75));
    put(
        &mut metrics,
        "peak_qps",
        chunked_rate(&saturated_answers, HIT_PERIOD, SATURATED_SLICES),
    );
    put(&mut metrics, "setup_s", setup_s);
    put(
        &mut metrics,
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    put(&mut metrics, "peak_rss_mb", rss);
    eprintln!(
        "perfbench {}: {ROUNDS} rounds; fixed {} sent, {} answered, send lag p99 {:.1} us, \
         backlog {}; saturated {} sent, {} in window, {} dropped at cap; hit ratio {:.4} over \
         {} lookups; {} failed of {} attempted",
        args.workload,
        fixed.sent,
        fixed.timed_ns.len(),
        quantile(&fixed.send_lag_ns, 0.99) / 1e3,
        fixed.backlog_at_end,
        saturated.sent,
        saturated_answers.iter().map(Vec::len).sum::<usize>(),
        saturated.dropped_by_cap,
        counters.hit_ratio(),
        counters.lookups(),
        failed,
        attempted,
    );
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// `miss` without tracing: `MISS_ROUNDS` rounds, each on a fresh daemon
/// started on the warm log (`daemon` serves the first). Every round sends
/// the same requests, which are all misses on a fresh daemon: the first
/// ones at the fixed rate, the next ones past saturation. A request's
/// latency is the lowest of its rounds, and so is its service time past
/// saturation: the shared machine runs the same code at two speeds, in
/// stretches of a few seconds, and interference only ever adds time.
fn untraced_miss(
    args: &Args,
    daemon: Daemon,
    ops: &[Op],
    sample: &(dyn Fn(usize) -> bool + Sync),
    mut setups: Vec<f64>,
    warm: &[u8],
    work: &Path,
) -> Result<Report, String> {
    let round_s = args.seconds / MISS_ROUNDS as f64;
    let fixed_spec = PhaseSpec {
        rate: MISS.rate,
        seconds: round_s * MISS.fixed_share,
        cap: FIXED_CAP,
    };
    let saturated_spec = PhaseSpec {
        rate: MISS.saturated_rate,
        seconds: round_s * (1.0 - MISS.fixed_share),
        cap: MISS.saturated_cap,
    };
    let first_saturated = miss_fixed_ops(args.seconds);
    let mut best_ns: Vec<u64> = Vec::new();
    let mut best_gap_ns: Vec<u64> = Vec::new();
    let mut rates = Vec::with_capacity(MISS_ROUNDS);
    let mut fixed = PhaseOutcome::default();
    let mut saturated = PhaseOutcome::default();
    let mut counters = Counters::default();
    let mut rss: f64 = 0.0;
    let mut next = Some(daemon);
    for round in 0..MISS_ROUNDS {
        let daemon = match next.take() {
            Some(daemon) => daemon,
            None => {
                let (took, daemon) = start_daemon(args, work, warm, None, setups.len())?;
                setups.push(took);
                daemon
            }
        };
        let before = Counters::read(&daemon.call("stats", Value::Null)?);
        let phase = run_phase(
            &daemon.addr,
            ops,
            &mut Picker::Unique(0),
            &fixed_spec,
            sample,
            None,
        )?;
        let burst = run_phase(
            &daemon.addr,
            ops,
            &mut Picker::Unique(first_saturated),
            &saturated_spec,
            sample,
            None,
        )?;
        let round_counters = Counters::read(&daemon.call("stats", Value::Null)?).since(&before);
        check_valid(&MISS, &phase, &round_counters)?;
        rss = rss.max(peak_rss_mib(daemon.pid())?);
        daemon.stop()?;
        let latencies = phase.timed_ns.iter().map(|&(_, latency)| latency);
        keep_lowest(&mut best_ns, latencies, round == 0);
        // Past saturation the daemon serves the connection's frames one
        // at a time, so the gap before an answer is that request's
        // service time.
        let gaps = burst.answered_at_ns.windows(2).map(|w| w[1] - w[0]);
        keep_lowest(&mut best_gap_ns, gaps, round == 0);
        rates.push(rate(&burst.answered_at_ns));
        counters = counters.plus(&round_counters);
        fixed.append(phase, 0);
        saturated.append(burst, 0);
    }
    let rechecked_wrong = recheck(ops, fixed.answers.iter().chain(&saturated.answers))?;

    // Past saturation, requests dropped at the cap are the generator
    // shedding load by design, not failed operations.
    let attempted = fixed.attempted() + saturated.sent;
    let failed =
        fixed.failed() + saturated.errors + saturated.busy + saturated.wrong + rechecked_wrong;
    let best_ns = sorted(best_ns);
    let mut metrics = Map::new();
    put(&mut metrics, "p50_ms", quantile(&best_ns, 0.50) / 1e6);
    put(&mut metrics, "p75_ms", quantile(&best_ns, 0.75) / 1e6);
    let served_ns: u64 = best_gap_ns.iter().sum();
    put(
        &mut metrics,
        "peak_qps",
        best_gap_ns.len() as f64 * 1e9 / served_ns.max(1) as f64,
    );
    put(&mut metrics, "setup_s", median(&setups));
    put(
        &mut metrics,
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    put(&mut metrics, "peak_rss_mb", rss);
    eprintln!(
        "perfbench miss: {MISS_ROUNDS} rounds of {} requests at the fixed rate, send lag p99 \
         {:.1} us; saturated {} sent, {} dropped at cap, round rates {:?}; hit ratio {:.4} over \
         {} lookups; {} set-ups; {} failed of {} attempted",
        best_ns.len(),
        quantile(&fixed.send_lag_ns, 0.99) / 1e3,
        saturated.sent,
        saturated.dropped_by_cap,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        counters.hit_ratio(),
        counters.lookups(),
        setups.len(),
        failed,
        attempted,
    );
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// p50 of the daemon's own handler latency over every method, merged
/// from the `stats` histograms.
fn handler_p50_us(stats: &Value) -> f64 {
    let merged = Histogram::new(&Histogram::latency_bounds());
    let histograms = stats
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(Value::as_object);
    for (name, snapshot) in histograms.into_iter().flat_map(|h| h.iter()) {
        if name.starts_with("svc.method.") && name.ends_with(".latency_ns") {
            if let Some(histogram) = Histogram::from_snapshot(snapshot) {
                let _ = merged.merge_from(&histogram);
            }
        }
    }
    merged.quantile(0.5).unwrap_or(0.0) / 1e3
}

/// Median time to replay `log` into a fresh cache, and its record count.
fn time_wal_replay(log: &[u8]) -> (f64, u64) {
    let mut ms = Vec::with_capacity(WAL_REPLAYS);
    let mut records = 0;
    for _ in 0..WAL_REPLAYS {
        let registry = MetricsRegistry::new();
        let cache = VerdictCache::new(&registry);
        let started = Instant::now();
        records = wal::replay_bytes(log, &cache).records;
        ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (median(&ms), records)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    plan: &Plan,
    daemon: Daemon,
    ops: &[Op],
    picker: &mut Picker,
    sample: &(dyn Fn(usize) -> bool + Sync),
    warm: &[u8],
    work: &Path,
) -> Result<Report, String> {
    let spec = PhaseSpec {
        rate: plan.rate,
        seconds: args.seconds * TRACED_SHARE,
        cap: FIXED_CAP,
    };
    let before = Counters::read(&daemon.call("stats", Value::Null)?);
    let plain = run_phase(&daemon.addr, ops, picker, &spec, sample, None)?;
    let counters = Counters::read(&daemon.call("stats", Value::Null)?).since(&before);
    check_valid(plan, &plain, &counters)?;
    let mut spans = Spans::new();
    let traced = run_phase(&daemon.addr, ops, picker, &spec, sample, Some(&mut spans))?;
    let handler_us = handler_p50_us(&daemon.call("stats", Value::Null)?);
    daemon.stop()?;

    // The in-process replay starts over from the stream's first request.
    let cycle: Vec<usize> = {
        let mut mix = MixSchedule::new(&HIT_WEIGHTS);
        (0..HIT_WEIGHTS.iter().sum::<u64>())
            .map(|_| mix.next_index())
            .collect()
    };
    let hit = matches!(picker, Picker::Mix(_));
    let order = |i: usize| {
        if hit {
            Some(cycle[i % cycle.len()])
        } else {
            (i < ops.len()).then_some(i)
        }
    };
    let budget = Duration::from_secs_f64(args.seconds * REPLAY_SHARE);
    let replay = layers::replay(ops, &order, warm, work, budget, &mut spans)?;
    let (replay_ms, replay_records) = time_wal_replay(warm);

    let mut metrics = Map::new();
    for (name, _, _) in PER_LAYER {
        put(&mut metrics, name, 0.0);
    }
    let stage = |name: &str| spans.durations(name, |_| true);
    let us = |samples: &[u64], q: f64| quantile(samples, q) / 1e3;
    let (plain_ns, traced_ns) = (plain.latencies_ns(), traced.latencies_ns());
    let e2e_us = us(&plain_ns, 0.5);
    let stages = [
        "client.encode",
        "wire.decode",
        "methods.handle",
        "wire.encode",
        "client.decode",
    ];
    let stage_sum: f64 = stages.iter().map(|name| us(&stage(name), 0.5)).sum();
    put(
        &mut metrics,
        "loadgen.send_lag_us_p99",
        us(&plain.send_lag_ns, 0.99),
    );
    put(
        &mut metrics,
        "client.encode_us_p50",
        us(&stage("client.encode"), 0.5),
    );
    put(
        &mut metrics,
        "client.decode_us_p50",
        us(&stage("client.decode"), 0.5),
    );
    put(
        &mut metrics,
        "wire.decode_us_p50",
        us(&stage("wire.decode"), 0.5),
    );
    put(
        &mut metrics,
        "wire.encode_us_p50",
        us(&stage("wire.encode"), 0.5),
    );
    put(
        &mut metrics,
        "methods.handle_us_p50",
        us(&stage("methods.handle"), 0.5),
    );
    put(
        &mut metrics,
        "methods.handle_us_p99",
        us(&stage("methods.handle"), 0.99),
    );
    put(&mut metrics, "server.handler_us_p50", handler_us);
    put(&mut metrics, "server.transport_us_p50", e2e_us - stage_sum);
    put(&mut metrics, "stages.coverage_frac", stage_sum / e2e_us);
    put(
        &mut metrics,
        "spec.parse_us_p50",
        us(&stage("spec.parse"), 0.5),
    );
    put(&mut metrics, "cache.hit_ratio", counters.hit_ratio());
    put(&mut metrics, "cache.lookups", counters.lookups() as f64);
    put(
        &mut metrics,
        "cache.lookup_us_p50",
        us(&stage("cache.lookup"), 0.5),
    );
    let answered = plain_ns.len().max(1) as f64;
    put(
        &mut metrics,
        "wal.appends_per_req",
        counters.wal_appends as f64 / answered,
    );
    put(
        &mut metrics,
        "wal.bytes_per_req",
        counters.wal_bytes as f64 / answered,
    );
    put(
        &mut metrics,
        "wal.record_us_p50",
        us(&stage("wal.record"), 0.5),
    );
    put(
        &mut metrics,
        "wal.record_us_p99",
        us(&stage("wal.record"), 0.99),
    );
    put(&mut metrics, "wal.replay_ms", replay_ms);
    put(&mut metrics, "wal.replay_records", replay_records as f64);
    replay.tally.put(&mut metrics, replay.requests);
    put(
        &mut metrics,
        "theorem.decide_us_p50",
        us(&stage("theorem.decide"), 0.5),
    );
    put(
        &mut metrics,
        "graphs.net_solvable_us_p50",
        us(&stage("graphs.net_solvable"), 0.5),
    );
    put(
        &mut metrics,
        "obs.trace_overhead_frac",
        quantile(&traced_ns, 0.5) / quantile(&plain_ns, 0.5) - 1.0,
    );

    println!(
        "stage table ({}, seed {}): e2e p50 {e2e_us:.1} us at {} req/s; {} requests replayed per state",
        args.workload, args.seed, plan.rate, replay.requests
    );
    println!(
        "  {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "p50 us", "self ms"
    );
    for name in spans.names() {
        let samples = stage(name);
        println!(
            "  {name:<22} {:>8} {:>12.2} {:>12.2}",
            samples.len(),
            us(&samples, 0.5),
            spans.self_ns(name) as f64 / 1e6
        );
    }
    println!(
        "  request-path stages sum to {stage_sum:.1} us: coverage {:.3}, transport {:.1} us",
        stage_sum / e2e_us,
        e2e_us - stage_sum
    );
    for method in ["solvable", "check_horizon", "first_horizon", "net_solvable"] {
        let handle = spans.durations("methods.handle", |req| {
            order(req as usize).is_some_and(|op| ops[op].method == method)
        });
        if !handle.is_empty() {
            println!(
                "  methods.handle {method:<14} n {:>6}  p50 {:>10.2} us",
                handle.len(),
                us(&handle, 0.5)
            );
        }
    }
    write_spans(args, &spans);

    let attempted = plain.attempted() + traced.attempted() + 2 * replay.requests;
    let failed = plain.failed() + traced.failed() + replay.wrong;
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}
