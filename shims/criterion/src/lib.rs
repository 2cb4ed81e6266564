//! Offline drop-in replacement for the subset of `criterion` this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves `criterion` to this shim (see `shims/README.md`). It keeps
//! criterion's API shape (`criterion_group!`, benchmark groups, `iter`,
//! element-throughput annotation) over a simple wall-clock harness:
//!
//! * under `cargo bench` (cargo passes `--bench`), each benchmark is
//!   warmed up and then timed over an adaptive iteration count, and the
//!   median per-iteration time plus derived throughput is printed;
//! * under `cargo test` (no `--bench` argument), each benchmark body runs
//!   exactly once as a smoke test, so the tier-1 suite stays fast.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimiser from deleting benchmark
/// work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work-per-iteration annotation, used to derive a rate column.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
}

/// True when invoked by `cargo bench` (which passes `--bench`); false
/// under `cargo test`, where benches run once as smoke tests.
fn measuring() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Timed samples per benchmark when measuring.
const SAMPLES: usize = 10;

/// Runs `routine` repeatedly and reports the median per-iteration time.
struct Sampler {
    /// Target wall time per benchmark when measuring.
    budget: Duration,
}

impl Sampler {
    fn new() -> Self {
        Sampler {
            budget: Duration::from_millis(300),
        }
    }

    /// Times `f` (which runs the routine once) and returns the median
    /// iteration time, or `None` in smoke mode.
    fn run(&self, mut f: impl FnMut()) -> Option<Duration> {
        if !measuring() {
            f();
            return None;
        }
        // Warm up and estimate a per-iteration cost.
        let start = Instant::now();
        f();
        let estimate = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = (self.budget / SAMPLES as u32).max(Duration::from_micros(50));
        let iters_per_sample = (per_sample.as_nanos() / estimate.as_nanos()).clamp(1, 100_000);
        let mut medians: Vec<Duration> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            medians.push(t0.elapsed() / iters_per_sample as u32);
        }
        medians.sort_unstable();
        Some(medians[medians.len() / 2])
    }
}

/// The per-benchmark timing callback target.
pub struct Bencher<'a> {
    sampler: &'a Sampler,
    result: Option<Duration>,
}

impl Bencher<'_> {
    /// Times the routine as-is.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.result = self.sampler.run(|| {
            black_box(routine());
        });
    }
}

fn report(group: &str, id: &str, result: Option<Duration>, throughput: Option<Throughput>) {
    let Some(t) = result else {
        println!("{group}/{id}: ok (smoke)");
        return;
    };
    let nanos = t.as_nanos().max(1);
    let rate = throughput
        .map(|Throughput::Elements(n)| format!(" ({:.3} Melem/s)", n as f64 * 1e3 / nanos as f64));
    println!(
        "{group}/{id}: {:.3} µs/iter{}",
        nanos as f64 / 1e3,
        rate.unwrap_or_default()
    );
}

/// A named set of related benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the work-per-iteration annotation.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let sampler = Sampler::new();
        let mut bencher = Bencher {
            sampler: &sampler,
            result: None,
        };
        let mut f = f;
        f(&mut bencher);
        report(&self.name, &id, bencher.result, self.throughput);
        self
    }

    /// Ends the group (drop would do; kept for API parity).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// Declares a group-runner function, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
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
