//! BENCH-CHECKER — the checker-side perf baseline.
//!
//! Re-runs the pinned `exp_budget` configuration — the classic total
//! budget `B_4` checked at horizons 4 (unsolvable) and 5 (solvable) —
//! a fixed number of iterations, timing every `Check::at` call into a
//! `minobs_obs::Histogram`, and emits a `minobs/bench/v1` artifact
//! (kind `checker`). One extra instrumented pass per horizon (outside
//! the timed loop) captures the checker's shape gauges — peak frontier
//! size, cumulative frontier entries, distinct interned views, and the
//! resulting dedup ratio — so the artifact records not just how fast
//! the checker is but how much work the view-dedup is saving. One
//! instrumented `Check::first` over `0..=5` records beside them the
//! states a single horizon sweep explores. Run via
//! `run_experiments.sh` this lands as `BENCH_checker.json` at the repo
//! root: the recorded trajectory that future "10× checker" claims
//! (ROADMAP item 4) must beat.
//!
//! ```text
//! bench_checker [--iters N] [--out PATH]
//! ```

use minobs_core::prelude::*;
use minobs_obs::{Histogram, MemoryRecorder, NullRecorder, TraceEvent};
use minobs_synth::checker::{gamma_alphabet, Budget, Check, HorizonOutcome};
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The pinned horizons: `B_4` is unsolvable at 4 rounds and solvable at
/// 5 (the `f + 1` bound), so the run self-checks while it measures.
const HORIZONS: [usize; 2] = [4, 5];

fn main() -> ExitCode {
    let args = minobs_obs::cli::handle_common_flags(
        "bench_checker",
        "checker perf baseline: pinned exp_budget config, timed",
        "bench_checker --iters 20 --out BENCH_checker.json",
    );
    let mut iters = 20usize;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => iters = n,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    println!("== BENCH-CHECKER: total_budget(4) at horizons {HORIZONS:?}, {iters} iterations ==");
    let gamma = gamma_alphabet();
    let scheme = classic::total_budget(4);
    let check = Check {
        alphabet: &gamma,
        budget: Budget::UNLIMITED,
    };
    let states_of = |recorder: &MemoryRecorder| -> u64 {
        recorder
            .events()
            .iter()
            .map(|event| match event {
                TraceEvent::CheckerRound { frontier, .. } => *frontier as u64,
                _ => 0,
            })
            .sum()
    };

    // One instrumented pass per horizon, outside the timed loop: the
    // frontier trajectory is deterministic for the pinned config, and
    // the recorder must not show up in the latency histogram.
    let mut peak_frontier = 0u64;
    let mut states_explored = 0u64;
    let mut distinct_views = 0u64;
    for k in HORIZONS {
        let mut recorder = MemoryRecorder::new();
        let solvable = check.at(&scheme, k, &mut recorder).is_solvable();
        assert_eq!(
            solvable,
            k == 5,
            "total_budget(4) at horizon {k} (instrumented)"
        );
        states_explored += states_of(&recorder);
        for event in recorder.events() {
            if let TraceEvent::CheckerRound {
                frontier, views, ..
            } = *event
            {
                peak_frontier = peak_frontier.max(frontier as u64);
                distinct_views = distinct_views.max(views as u64);
            }
        }
    }
    let dedup_ratio = distinct_views as f64 / states_explored.max(1) as f64;
    println!(
        "  peak frontier {peak_frontier}; {states_explored} frontier entries → \
         {distinct_views} distinct views (dedup ratio {dedup_ratio:.4})"
    );
    // The same question as a sweep: one pass decides every horizon up to
    // the first solvable one, expanding each round once.
    let mut recorder = MemoryRecorder::new();
    let sweep = check.first(&scheme, 0..=5, &mut recorder);
    assert_eq!(sweep, HorizonOutcome::Solvable(5), "total_budget(4) sweep");
    let sweep_states_explored = states_of(&recorder);
    println!("  one sweep over horizons 0..=5: {sweep_states_explored} frontier entries");

    let latency = Histogram::new(&Histogram::latency_bounds());
    let mut max_ns = 0u64;
    let started = Instant::now();
    for _ in 0..iters {
        for k in HORIZONS {
            let check_started = Instant::now();
            let solvable = check.at(&scheme, k, &mut NullRecorder).is_solvable();
            let nanos = check_started.elapsed().as_nanos() as u64;
            latency.observe(nanos);
            max_ns = max_ns.max(nanos);
            // The pinned config has a known answer at both horizons; a
            // wrong verdict means the baseline measured a broken checker.
            assert_eq!(solvable, k == 5, "total_budget(4) at horizon {k}");
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
    let checks = latency.count();
    let achieved_qps = checks as f64 / elapsed_s;
    let quantile = |q: f64| {
        latency
            .quantile(q)
            .map(|v| v.min(max_ns as f64))
            .unwrap_or(0.0)
    };
    println!(
        "  {checks} checks in {elapsed_s:.2}s → {achieved_qps:.1} checks/s; \
         latency µs: p50 {:.0} p95 {:.0} p99 {:.0} max {:.0}",
        quantile(0.50) / 1_000.0,
        quantile(0.95) / 1_000.0,
        quantile(0.99) / 1_000.0,
        max_ns as f64 / 1_000.0,
    );

    let mut block = Map::new();
    block.insert("count", Value::from(checks));
    block.insert("p50", Value::from(quantile(0.50)));
    block.insert("p95", Value::from(quantile(0.95)));
    block.insert("p99", Value::from(quantile(0.99)));
    block.insert("max", Value::from(max_ns as f64));

    let mut body = Map::new();
    body.insert("kind", Value::from("checker"));
    body.insert("scheme", Value::from("total_budget(4)"));
    body.insert(
        "horizons",
        Value::from(HORIZONS.iter().map(|k| *k as u64).collect::<Vec<u64>>()),
    );
    body.insert("iters", Value::from(iters));
    body.insert("sent", Value::from(checks));
    body.insert("completed", Value::from(checks));
    body.insert("elapsed_s", Value::from(elapsed_s));
    body.insert("achieved_qps", Value::from(achieved_qps));
    body.insert("latency_ns", Value::Object(block));
    // Shape gauges from the instrumented pass: the memory/dedup face of
    // the ROADMAP item-4 baseline.
    body.insert("peak_frontier", Value::from(peak_frontier));
    body.insert("states_explored", Value::from(states_explored));
    body.insert("distinct_views", Value::from(distinct_views));
    body.insert("dedup_ratio", Value::from(dedup_ratio));
    body.insert("sweep_states_explored", Value::from(sweep_states_explored));

    match minobs_bench::write_bench_artifact(out.as_deref(), "bench_checker", body) {
        Some(_) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_checker [--iters N] [--out PATH]");
    ExitCode::FAILURE
}
