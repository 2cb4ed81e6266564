//! Times the parallel sweep executor against the same sweep on one
//! worker (the serial reference) on the Figure-5 configuration, verifies
//! the results are bit-identical, and records the measurement in
//! `results/BENCH_sweep.json`. Each sweep builds its traces in a fresh
//! trace cache, so both time trace builds too.
//!
//! Run: `cargo run --release -p hbat-bench --bin sweep_bench [scale]`
//! (`HBAT_THREADS` overrides the worker count).

use std::path::Path;

use hbat_bench::executor::{timed, worker_threads, JsonReport, TraceCache};
use hbat_bench::experiment::{
    scale_from_args, sweep_ft_on, ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_core::designs::spec::DesignSpec;

/// A fail-fast sweep of `designs` on `threads` workers and a fresh
/// trace cache.
fn sweep_with(designs: &[DesignSpec], cfg: &ExperimentConfig, threads: usize) -> SweepResult {
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, cfg, &opts, &TraceCache::new())
        .expect("a sweep without a journal does no I/O");
    r.into_complete().expect("every cell completes")
}

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let designs = DesignSpec::TABLE2;
    let threads = worker_threads();

    eprintln!(
        "1-worker reference sweep ({scale:?} scale, {} designs)...",
        designs.len()
    );
    let (serial, serial_wall) = timed(|| sweep_with(&designs, &cfg, 1));

    eprintln!("parallel sweep on {threads} threads...");
    let (parallel, parallel_wall) = timed(|| sweep_with(&designs, &cfg, threads));

    let identical = serial
        .cells
        .iter()
        .flatten()
        .zip(parallel.cells.iter().flatten())
        .all(|(s, p)| s.bench == p.bench && s.design == p.design && s.metrics == p.metrics);
    assert!(
        identical,
        "parallel sweep diverged from the serial reference"
    );

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    let t = &parallel.telemetry;
    println!(
        "fig5 sweep, {scale:?} scale: serial {serial_wall:.2?}, parallel {parallel_wall:.2?} \
         on {threads} threads ({speedup:.2}x), results bit-identical"
    );
    println!("parallel breakdown: {}", t.summary());

    // A parallel sweep cannot beat the serial one on a single hardware
    // core — a sub-1 "speedup" there measures the host, not a
    // regression. Record the core count, neutralise the gated ratio,
    // and say so, rather than freezing a 1-core artifact into the
    // perf baseline.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_active = host_cores > 1;
    if !gate_active {
        eprintln!(
            "warning: single-core host - parallel speedup {speedup:.2}x reflects the \
             host, not the executor; the frozen speedup gate is skipped"
        );
    }

    let mut report = JsonReport::new();
    report
        .str("benchmark", "fig5_sweep")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .int("designs", designs.len() as u64)
        .int("cells", t.cells as u64)
        .int("threads", threads as u64)
        .int("host_cores", host_cores as u64)
        .str(
            "speedup_gate",
            if gate_active {
                "active"
            } else {
                "skipped-1-core"
            },
        )
        .num("serial_ms", serial_wall.as_secs_f64() * 1e3)
        .num("parallel_ms", parallel_wall.as_secs_f64() * 1e3)
        .num("speedup", speedup)
        .num("gated_speedup", if gate_active { speedup } else { 1.0 })
        .num("trace_build_ms", t.trace_build.as_secs_f64() * 1e3)
        .num("cell_exec_ms", t.cell_exec.as_secs_f64() * 1e3)
        .int("traces_built", t.traces_built)
        .int("trace_cache_hits", t.trace_cache_hits)
        .str("identical_to_serial", "true");
    let path = Path::new("results/BENCH_sweep.json");
    report.write(path).expect("write results/BENCH_sweep.json");
    println!("wrote {}", path.display());
}
