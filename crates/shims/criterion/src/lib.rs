//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no access to crates.io, so this local crate
//! provides the small API surface the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`], [`BenchmarkId`], [`black_box`] and the
//! `criterion_group!` / `criterion_main!` macros. Instead of criterion's
//! statistical analysis it reports the mean, minimum and maximum wall time
//! over the configured sample count as a plain table.

// A stand-in for an external crate: it does not depend on `oms-obs`.
#![allow(clippy::disallowed_types)]

use std::time::{Duration, Instant};

/// Prevents the compiler from optimising a value away.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of a parameterised benchmark (`name/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Creates an id from the parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Runs the measured closure repeatedly and records timings.
pub struct Bencher {
    samples: usize,
    warm_up: Duration,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Times `f` over the configured number of samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up: run until the warm-up budget is exhausted (at least once).
        let start = Instant::now();
        while start.elapsed() < self.warm_up {
            black_box(f());
        }
        self.timings.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.timings.push(t0.elapsed());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
    warm_up: Duration,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets the number of measured samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API compatibility; this harness measures a fixed number
    /// of samples rather than a time budget.
    pub fn measurement_time(&mut self, _time: Duration) -> &mut Self {
        self
    }

    /// Sets the warm-up budget before sampling starts.
    pub fn warm_up_time(&mut self, time: Duration) -> &mut Self {
        self.warm_up = time;
        self
    }

    /// Accepted for API compatibility; throughput is not reported.
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` with an explicit input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            warm_up: self.warm_up,
            timings: Vec::new(),
        };
        f(&mut bencher, input);
        self.report(&id.to_string(), &bencher.timings);
        self
    }

    /// Benchmarks a closure without an input parameter.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            warm_up: self.warm_up,
            timings: Vec::new(),
        };
        f(&mut bencher);
        self.report(&id.to_string(), &bencher.timings);
        self
    }

    fn report(&mut self, id: &str, timings: &[Duration]) {
        if timings.is_empty() {
            println!("{:<40} (not measured)", format!("{}/{}", self.name, id));
            return;
        }
        let total: Duration = timings.iter().sum();
        let mean = total / timings.len() as u32;
        let min = timings.iter().min().unwrap();
        let max = timings.iter().max().unwrap();
        println!(
            "{:<44} mean {:>12.3?}  min {:>12.3?}  max {:>12.3?}  ({} samples)",
            format!("{}/{}", self.name, id),
            mean,
            min,
            max,
            timings.len()
        );
        self.criterion.benchmarks_run += 1;
    }

    /// Ends the group.
    pub fn finish(&mut self) {
        println!();
    }
}

/// Throughput hint (accepted, ignored).
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Minimal harness entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    benchmarks_run: usize,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("== {name} ==");
        BenchmarkGroup {
            name,
            criterion: self,
            sample_size: 10,
            warm_up: Duration::from_millis(300),
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group(id).bench_function("run", f);
        self
    }

    /// Accepted for API compatibility.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_reports() {
        let mut c = Criterion::default();
        {
            let mut group = c.benchmark_group("smoke");
            group.sample_size(3).warm_up_time(Duration::from_millis(1));
            group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &x| {
                b.iter(|| x * x)
            });
            group.finish();
        }
        assert_eq!(c.benchmarks_run, 1);
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("algo", 64).to_string(), "algo/64");
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
    }
}
