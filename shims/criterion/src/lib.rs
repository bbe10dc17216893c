//! Offline shim for the `criterion` crate.
//!
//! A small wall-clock harness with criterion's call surface:
//! `criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_with_input` / `bench_function`, and `Bencher::iter`. Each
//! benchmark is warmed up, then timed over `sample_size` samples whose
//! iteration counts target roughly a millisecond per sample; the median,
//! minimum, and maximum per-iteration times are printed. No plots, no
//! statistics beyond that — enough to compare two code paths honestly.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of the standard black box.
pub use std::hint::black_box;

/// The harness root; one per `criterion_group!` runner.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new<P: Display>(name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut bencher, input);
        bencher.report(&self.name, &id.label);
        self
    }

    /// Benchmarks `f` without input.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label: String = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            result: None,
        };
        f(&mut bencher);
        bencher.report(&self.name, &label);
        self
    }

    /// Ends the group (printing already happened per benchmark).
    pub fn finish(self) {}
}

/// Measured per-iteration statistics, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// The timing driver passed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
    result: Option<Sampled>,
}

impl Bencher {
    /// Times `f`: warm-up, then `sample_size` samples of an iteration
    /// count chosen so one sample takes roughly a millisecond.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up and calibration: grow the batch until it costs ≥ 1 ms,
        // then keep that per-sample iteration count.
        let mut iters: u64 = 1;
        let per_sample = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || iters >= 1 << 20 {
                break iters;
            }
            iters *= 4;
        };

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            samples.push(start.elapsed().as_nanos() as f64 / per_sample as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.result = Some(Sampled {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
        });
    }

    fn report(&self, group: &str, label: &str) {
        match &self.result {
            Some(s) => println!(
                "{group}/{label:<40} median {:>12}  (min {}, max {})",
                format_ns(s.median_ns),
                format_ns(s.min_ns),
                format_ns(s.max_ns)
            ),
            None => println!("{group}/{label:<40} (no measurement)"),
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a runner, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("selftest");
        group.sample_size(5);
        group.bench_with_input(BenchmarkId::new("sum", 100), &100u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn format_scales() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
    }
}
