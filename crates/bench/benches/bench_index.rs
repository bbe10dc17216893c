//! BENCH-IND — index calculus throughput, with the incremental-tracker
//! ablation (DESIGN.md ablation 1): batch `ind` recomputation vs
//! `IndexTracker`'s amortized push.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minobs_core::index::{ind, ind_inv, IndexTracker};
use minobs_core::letter::GammaLetter;
use minobs_core::word::GammaWord;
use std::hint::black_box;

fn word_of_len(r: usize) -> GammaWord {
    (0..r).map(|i| GammaLetter::ALL[i % 3]).collect()
}

fn bench_ind(c: &mut Criterion) {
    let mut group = c.benchmark_group("ind");
    for r in [16usize, 64, 256, 1024] {
        let w = word_of_len(r);
        group.bench_with_input(BenchmarkId::new("batch", r), &w, |b, w| {
            b.iter(|| ind(black_box(w)))
        });
    }
    group.finish();
}

fn bench_ind_inv(c: &mut Criterion) {
    let mut group = c.benchmark_group("ind_inv");
    for r in [16usize, 64, 256] {
        let w = word_of_len(r);
        let v = ind(&w);
        group.bench_with_input(BenchmarkId::new("inverse", r), &v, |b, v| {
            b.iter(|| ind_inv(r, black_box(v)))
        });
    }
    group.finish();
}

/// Ablation: maintaining the index of a growing word.
/// `tracker` pushes letters incrementally (one multiply-add each);
/// `recompute` calls batch `ind` on every prefix (quadratic).
fn bench_incremental_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_ablation");
    for r in [32usize, 128] {
        let w = word_of_len(r);
        group.bench_with_input(BenchmarkId::new("tracker", r), &w, |b, w| {
            b.iter(|| {
                let mut t = IndexTracker::new();
                for a in w.iter() {
                    t.push(a);
                }
                black_box(t.into_value())
            })
        });
        group.bench_with_input(BenchmarkId::new("recompute", r), &w, |b, w| {
            b.iter(|| {
                let mut last = None;
                for i in 1..=w.len() {
                    last = Some(ind(&w.prefix(i)));
                }
                black_box(last)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ind,
    bench_ind_inv,
    bench_incremental_ablation
);
criterion_main!(benches);
