//! BENCH-CUT — edge connectivity scaling (Dinic max-flow), with the
//! brute-force oracle ablation on small instances (DESIGN.md ablation 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobs_graphs::connectivity::edge_connectivity_bruteforce;
use minobs_graphs::{edge_connectivity, generators, min_edge_cut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_connectivity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_connectivity");
    for n in [8usize, 16, 32, 64] {
        let g = generators::torus(3, n.max(9) / 3);
        group.bench_with_input(BenchmarkId::new("torus", g.vertex_count()), &g, |b, g| {
            b.iter(|| black_box(edge_connectivity(g)))
        });
    }
    for d in [3u32, 4, 5, 6] {
        let g = generators::hypercube(d);
        group.bench_with_input(BenchmarkId::new("hypercube", 1usize << d), &g, |b, g| {
            b.iter(|| black_box(edge_connectivity(g)))
        });
    }
    for n in [10usize, 20, 40] {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(n, 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::new("gnp_0.3", n), &g, |b, g| {
            b.iter(|| black_box(edge_connectivity(g)))
        });
    }
    group.finish();
}

fn bench_flow_vs_bruteforce(c: &mut Criterion) {
    // Ablation: Dinic-based connectivity vs exhaustive subset cut on the
    // largest size the oracle can stomach.
    let mut group = c.benchmark_group("connectivity_ablation");
    for n in [8usize, 12, 16] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = generators::gnp_connected(n, 0.4, &mut rng);
        group.bench_with_input(BenchmarkId::new("dinic", n), &g, |b, g| {
            b.iter(|| black_box(edge_connectivity(g)))
        });
        group.bench_with_input(BenchmarkId::new("bruteforce", n), &g, |b, g| {
            b.iter(|| black_box(edge_connectivity_bruteforce(g)))
        });
    }
    group.finish();
}

fn bench_min_cut_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_cut");
    for m in [4usize, 8, 12] {
        let g = generators::barbell(m, 2);
        group.bench_with_input(BenchmarkId::new("barbell", 2 * m), &g, |b, g| {
            b.iter(|| black_box(min_edge_cut(g)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_connectivity_scaling,
    bench_flow_vs_bruteforce,
    bench_min_cut_extraction
);
criterion_main!(benches);
