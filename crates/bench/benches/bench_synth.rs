//! BENCH-SYNTH — model checker horizon scaling: the frontier grows like
//! `3^k`, and view interning keeps the per-execution work constant.
//! Also measures the Theorem III.8 automata decision procedure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobs_core::prelude::*;
use minobs_omega::schemes as rs;
use minobs_synth::checker::{gamma_alphabet, solvable_by};
use std::hint::black_box;

fn bench_checker_horizons(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker");
    group.sample_size(20);
    let gamma = gamma_alphabet();
    for k in [4usize, 6, 8, 9] {
        group.bench_with_input(BenchmarkId::new("r1_full_gamma", k), &k, |b, &k| {
            b.iter(|| black_box(solvable_by(&classic::r1(), k, &gamma)))
        });
    }
    for k in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::new("s1_pruned", k), &k, |b, &k| {
            b.iter(|| black_box(solvable_by(&classic::s1(), k, &gamma)))
        });
    }
    group.finish();
}

fn bench_theorem_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem_decision");
    group.bench_function("classic_catalog", |b| {
        b.iter(|| {
            for scheme in classic::seven_environments() {
                black_box(decide_classic(&scheme));
            }
        })
    });
    group.bench_function("regular_catalog", |b| {
        b.iter(|| {
            for scheme in [
                rs::regular_s0(),
                rs::regular_s1(),
                rs::regular_c1(),
                rs::regular_r1(),
                rs::regular_fair(),
                rs::regular_almost_fair(),
            ] {
                black_box(rs::decide_regular(&scheme));
            }
        })
    });
    group.finish();
}

fn bench_spair_decision(c: &mut Criterion) {
    use minobs_core::spair::classify_pair;
    let mut group = c.benchmark_group("spair");
    let pairs: Vec<(Scenario, Scenario)> = vec![
        ("-(w)".parse().unwrap(), "b(w)".parse().unwrap()),
        ("(wb)".parse().unwrap(), "(bw)".parse().unwrap()),
        ("--(b)".parse().unwrap(), "-w(b)".parse().unwrap()),
    ];
    group.bench_function("classify_small_pairs", |b| {
        b.iter(|| {
            for (x, y) in &pairs {
                black_box(classify_pair(x, y));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_checker_horizons,
    bench_theorem_engines,
    bench_spair_decision
);
criterion_main!(benches);
