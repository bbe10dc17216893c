//! BENCH-OBS — the observability tax.
//!
//! Three variants of the acceptance workload (hypercube(4) flooding to
//! consensus under no faults, the ISSUE's reference case):
//!
//! * `baseline` — the convenience entry point `run_network`, which is
//!   `run_network_with_recorder(&mut NullRecorder)` under another name;
//! * `null_recorder` — the same call made explicitly;
//! * `memory_recorder` — full event capture, to show what the gated
//!   work costs when actually enabled.
//!
//! The first two run identical code, so they differ only by noise. No
//! uninstrumented engine is left to compare against: what keeps the
//! disabled path cheap is that with `NullRecorder`, `enabled()` is a
//! constant `false`, so timers, decision scans, span guards, and
//! per-message event construction never run, and the inlined no-op
//! `record` folds away. `memory_recorder` is expected to be visibly
//! slower — that gap is the work the gate keeps off the default path.
//!
//! The `span_guard` group isolates the cost of the span instrumentation
//! itself. The `flight_ring` group times the daemon's always-on flight
//! ring: one `hit`-shaped request pushed into a full ring, and one
//! `dump` of it. It is reported, not gated.
//!
//! `bench_span_overhead_gate` asserts that the two `NullRecorder`
//! spellings stay within 2% of each other on the reference workload
//! (minimum of warmed, interleaved trials). Since both sides are one
//! function, the gate can only fail on timing noise; it does not measure
//! instrumentation overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use minobs_graphs::generators;
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_obs::{
    FlightRecorder, MemoryRecorder, NullRecorder, SpanGuard, SpanIds, TraceEvent,
    DEFAULT_FLIGHT_EVENTS,
};
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

/// Records one request the way the daemon does on a cache hit: the
/// request, then the root span pair as a block, then the response.
fn push_hit_request(flight: &FlightRecorder, seq: u64) {
    flight.push(TraceEvent::SvcRequest {
        seq,
        method: "check_horizon".into(),
    });
    flight.push_block(&[
        TraceEvent::SpanStart {
            round: 0,
            span_id: seq << 20,
            parent: None,
            name: "rpc.check_horizon".into(),
            ctx: None,
        },
        TraceEvent::SpanEnd {
            round: 0,
            span_id: seq << 20,
            name: "rpc.check_horizon".into(),
            nanos: 85_000,
        },
    ]);
    flight.push(TraceEvent::SvcResponse {
        seq,
        method: "check_horizon".into(),
        ok: true,
        cache: "hit",
        nanos: 90_000,
    });
}

/// The daemon's flight ring, full: ns per `hit`-shaped request pushed
/// into it, and ms per `dump` of it.
fn bench_flight_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight_ring");
    let flight = FlightRecorder::new(DEFAULT_FLIGHT_EVENTS);
    // A daemon a million requests in, so seqs and span ids are long.
    let mut seq = 1 << 20;
    for _ in 0..DEFAULT_FLIGHT_EVENTS / 4 {
        push_hit_request(&flight, seq);
        seq += 1;
    }

    group.bench_function("hit_request/full_ring", |b| {
        b.iter(|| {
            push_hit_request(&flight, seq);
            seq += 1;
        })
    });

    group.sample_size(10);
    group.bench_function("dump/full_ring", |b| {
        b.iter(|| black_box(flight.dump("rpc").events))
    });

    group.finish();
}

/// The 2% gate on hypercube(4) flooding. Both sides call the same
/// span-instrumented engine under `NullRecorder` (`run_network` is
/// `run_network_with_recorder(&mut NullRecorder)`), so the two timings
/// differ only by noise: the gate compares one function with itself and
/// does not measure the guards' disabled-path cost. It compares the
/// *minimum* of repeated interleaved trials, each trial timing the two
/// sides in the opposite order of the last, which strips some of the
/// scheduler noise and any order effect, but a loaded host can still
/// fail it.
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

    let time_baseline = || {
        let start = Instant::now();
        for _ in 0..REPS {
            let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
            black_box(run_network(&g, nodes, &mut NoFault, 2 * n));
        }
        start.elapsed().as_nanos() as u64
    };
    let time_instrumented = || {
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
        start.elapsed().as_nanos() as u64
    };
    // Both sides run the same code, so whichever runs first in a trial
    // must not always be the same one: alternate the order per trial.
    let mut baseline_ns: Vec<u64> = Vec::with_capacity(TRIALS);
    let mut instrumented_ns: Vec<u64> = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        if trial % 2 == 0 {
            baseline_ns.push(time_baseline());
            instrumented_ns.push(time_instrumented());
        } else {
            instrumented_ns.push(time_instrumented());
            baseline_ns.push(time_baseline());
        }
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
    bench_flight_ring,
    bench_span_overhead_gate
);
criterion_main!(benches);
