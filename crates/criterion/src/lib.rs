//! Offline stand-in for the `criterion` benchmark harness.
//!
//! This container has no network access to crates.io, so the workspace
//! ships a tiny API-compatible subset: `Criterion::benchmark_group`,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, and the
//! `criterion_group!` / `criterion_main!` macros. Timing is a plain
//! warmup + sample loop, each sample timed on its own, reporting the
//! min, median and mean wall-clock per iteration; there are no further
//! statistics, plots or baselines. Swap back to the real crate
//! by changing one line in `bench/Cargo.toml` when a registry is
//! available — the bench sources need no edits.

use std::fmt::Display;
use std::time::Instant;

/// Benchmark identifier used for parameterised benches.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{param}"))
    }

    pub fn from_parameter(param: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{param}"))
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-benchmark timing driver handed to bench closures.
pub struct Bencher {
    /// Seconds of each timed iteration, filled in by [`Bencher::iter`].
    sample_seconds: Vec<f64>,
    samples: usize,
}

impl Bencher {
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warmup: one call to fault in caches/allocations.
        std::hint::black_box(f());
        self.sample_seconds = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
    }
}

/// `(min, median, mean)` of a non-empty sample set.
fn summarize(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    (sorted[0], median, mean)
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(format!("{id}"), f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.0.clone(), |b| f(b, input));
        self
    }

    fn run(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        // `TDP_BENCH_FILTER=<substring>` runs only matching benchmarks
        // (matched against `group/id`) — the real criterion takes a CLI
        // filter argument; env is the least invasive stand-in here.
        if let Ok(filter) = std::env::var("TDP_BENCH_FILTER") {
            if !format!("{}/{id}", self.name).contains(&filter) {
                return;
            }
        }
        let mut b = Bencher {
            sample_seconds: Vec::new(),
            samples: self.sample_size,
        };
        f(&mut b);
        if b.sample_seconds.is_empty() {
            println!(
                "{}/{id:<32} (the bench closure never called iter)",
                self.name
            );
            return;
        }
        let (min, median, mean) = summarize(&b.sample_seconds);
        println!(
            "{}/{id:<32} min {:>11.3}  median {:>11.3}  mean {:>11.3} µs/iter  ({} samples)",
            self.name,
            min * 1e6,
            median * 1e6,
            mean * 1e6,
            b.sample_seconds.len()
        );
    }

    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup {
            name: format!("{name}"),
            sample_size: 10,
            _parent: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut g = BenchmarkGroup {
            name: String::from("bench"),
            sample_size: 10,
            _parent: self,
        };
        g.bench_function(id, f);
        self
    }
}

/// Re-export point used by `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

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
    fn summary_is_min_median_mean() {
        assert_eq!(summarize(&[3.0, 1.0, 8.0]), (1.0, 3.0, 4.0));
        assert_eq!(summarize(&[4.0, 1.0, 2.0, 9.0]), (1.0, 3.0, 4.0));
        assert_eq!(summarize(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn every_sample_is_timed() {
        let mut b = Bencher {
            sample_seconds: Vec::new(),
            samples: 7,
        };
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(calls, 8, "one warmup call plus seven samples");
        assert_eq!(b.sample_seconds.len(), 7);
    }
}
