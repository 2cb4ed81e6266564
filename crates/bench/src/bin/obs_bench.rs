//! Measures the observability layer's overhead — the same micro-op
//! engine run with the statically-compiled-out `NullRecorder` and with
//! a full `TraceRecorder` — verifies the metrics are bit-identical, and
//! records the measurement in `results/BENCH_obs.json`, together with
//! the null path's speedup over the frozen pre-predecode engine time for
//! the same cell.
//!
//! The measurement rides the predecoded micro-op hot loop (the path
//! every sweep takes since the engine rewrite); predecode happens once,
//! outside the timed region, so both sides time pure simulation.
//!
//! Run: `cargo run --release -p hbat-bench --bin obs_bench [scale]`

use std::path::Path;

use hbat_bench::executor::{timed, JsonReport};
use hbat_bench::experiment::{
    run_cell_uops, run_cell_uops_with, scale_from_args, uops_for, ExperimentConfig,
};
use hbat_core::designs::spec::DesignSpec;
use hbat_obs::TraceRecorder;
use hbat_workloads::Benchmark;

/// The frozen null-path measurement from before the predecode rewrite
/// (the original `TraceInst`-decoder obs_bench, small scale, Compress on
/// M8, 5 reps). `speedup_vs_prepredecode` is measured against this
/// figure, so it is carried forward verbatim rather than re-measured.
const PREPREDECODE_NULL_MS: f64 = 93.5638602;

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    let bench = Benchmark::Compress;
    let design = DesignSpec::parse("M8").expect("known design");
    let uops = uops_for(bench, &cfg);
    let reps = 5u32;
    let traced = || {
        let mut rec = TraceRecorder::new();
        let metrics = run_cell_uops_with(uops.ops(), design, &cfg, &mut rec);
        (metrics, rec)
    };

    // Warm-up both paths once, then time `reps` alternating pairs so
    // drift (thermal, cache) hits both sides equally.
    let warm_null = run_cell_uops(uops.ops(), design, &cfg);
    let (warm_traced, rec) = traced();
    assert_eq!(
        warm_null, warm_traced,
        "recording changed the simulation -- observability contract broken"
    );
    assert_eq!(rec.cycles(), warm_traced.cycles, "stall attribution drift");

    let mut null_s = 0.0f64;
    let mut traced_s = 0.0f64;
    for _ in 0..reps {
        let (_, d) = timed(|| run_cell_uops(uops.ops(), design, &cfg));
        null_s += d.as_secs_f64();
        let (_, d) = timed(traced);
        traced_s += d.as_secs_f64();
    }
    let null_ms = null_s * 1e3 / f64::from(reps);
    let traced_ms = traced_s * 1e3 / f64::from(reps);
    let overhead = if null_ms > 0.0 {
        traced_ms / null_ms - 1.0
    } else {
        0.0
    };
    let speedup = PREPREDECODE_NULL_MS / null_ms.max(1e-9);

    println!(
        "obs overhead, {scale:?} scale, {bench}/{} (uop engine): null {null_ms:.3} ms, \
         traced {traced_ms:.3} ms ({:+.1}%), metrics bit-identical; \
         {speedup:.2}x the pre-predecode engine",
        design.mnemonic(),
        overhead * 100.0
    );

    let mut report = JsonReport::new();
    report
        .str("benchmark", "obs_overhead")
        .str("scale", &format!("{scale:?}").to_lowercase())
        .str("workload", bench.name())
        .str("design", design.mnemonic())
        .str("engine", "uop")
        .int("instructions", uops.len() as u64)
        .int("reps", u64::from(reps))
        .num("null_ms", null_ms)
        .num("traced_ms", traced_ms)
        .num("overhead_frac", overhead)
        .num("prepredecode_null_ms", PREPREDECODE_NULL_MS)
        .num("speedup_vs_prepredecode", speedup)
        .str("identical_metrics", "true");
    let path = Path::new("results/BENCH_obs.json");
    report.write(path).expect("write results/BENCH_obs.json");
    println!("wrote {}", path.display());
}
