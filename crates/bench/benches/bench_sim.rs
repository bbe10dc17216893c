//! BENCH-SIM — engine throughput: two-process `A_w` rounds, and network
//! rounds/sec vs graph size and loss budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobs_core::prelude::*;
use minobs_graphs::generators;
use minobs_net::{DecisionRule, FloodConsensus};
use minobs_sim::adversary::{NoFault, RandomOmissions};
use minobs_sim::network::run_network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_two_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_process_aw");
    // Long-running A_w: witness (b), scenario that diverges slowly.
    let w: Scenario = "(b)".parse().unwrap();
    for rounds in [32usize, 128, 512] {
        group.bench_with_input(
            BenchmarkId::new("against_clean", rounds),
            &rounds,
            |b, &r| {
                b.iter(|| {
                    // Run on the forbidden scenario itself: never decides, so
                    // the round budget controls the measured work exactly.
                    let mut white = AwProcess::new(Role::White, true, w.clone());
                    let mut black = AwProcess::new(Role::Black, false, w.clone());
                    black_box(run_two_process(&mut white, &mut black, &w, r))
                })
            },
        );
    }
    group.finish();
}

fn bench_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_flood");
    for n in [8usize, 16, 32, 64] {
        let g = generators::cycle(n);
        let inputs: Vec<u64> = (0..n as u64).collect();
        group.bench_with_input(BenchmarkId::new("cycle_no_fault", n), &n, |b, &n| {
            b.iter(|| {
                let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
                black_box(run_network(&g, nodes, &mut NoFault, 2 * n))
            })
        });
    }
    for n in [8usize, 16, 32] {
        let g = generators::torus(3, n / 2);
        let inputs: Vec<u64> = (0..g.vertex_count() as u64).collect();
        group.bench_with_input(BenchmarkId::new("torus_random_f3", n), &n, |b, _| {
            b.iter(|| {
                let nodes = FloodConsensus::fleet(&g, &inputs, DecisionRule::ValueOfMinId);
                let mut adv = RandomOmissions::new(3, StdRng::seed_from_u64(1));
                black_box(run_network(&g, nodes, &mut adv, 2 * g.vertex_count()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_two_process, bench_network);
criterion_main!(benches);
