//! Golden digests: the behaviour oracle for refactors.
//!
//! Each test pins an FNV-1a digest of every test-scale cell of one
//! figure's Table-2 grid, rendered as `"{bench}/{design} {metrics:?}\n"`
//! in grid order. A change that moves any simulated statistic of any
//! cell changes a digest. Re-bless a digest only for an intentional
//! behaviour change, and record the reason in CHANGES.md.
//!
//! One `#[test]` per figure, so the harness runs them in parallel.

use hbat_suite::bench::executor::TraceCache;
use hbat_suite::bench::experiment::{
    config_fingerprint, render_obs_record, run_cell_uops_with, sweep, ExperimentConfig,
};
use hbat_suite::bench::journal::{fnv1a_hex, CellKey};
use hbat_suite::prelude::*;

/// The digest of every Table-2 cell of `cfg`'s sweep, in grid order.
fn grid_digest(cfg: &ExperimentConfig) -> String {
    let r = sweep(&DesignSpec::TABLE2, cfg);
    let mut text = String::new();
    for row in &r.cells {
        for c in row {
            text.push_str(&format!(
                "{}/{} {:?}\n",
                c.bench.name(),
                c.design.mnemonic(),
                c.metrics
            ));
        }
    }
    fnv1a_hex(&text)
}

fn test_cfg() -> ExperimentConfig {
    ExperimentConfig::baseline(Scale::Test)
}

#[test]
fn fig5_seed1_matches_the_benchmark_digest() {
    // The same cells and text as the benchmark's `fig5-full test 1` line.
    let mut cfg = test_cfg();
    cfg.workload.seed = 1;
    cfg.design_seed = 1;
    assert_eq!(grid_digest(&cfg), "2bf73229a9bc6253");
}

#[test]
fn fig5_baseline() {
    assert_eq!(grid_digest(&test_cfg()), "ba104fd7c5354663");
}

#[test]
fn fig7_inorder() {
    assert_eq!(grid_digest(&test_cfg().with_inorder()), "69fc8d173af824dc");
}

#[test]
fn fig8_8k_pages() {
    assert_eq!(grid_digest(&test_cfg().with_8k_pages()), "040c6429904cfc86");
}

#[test]
fn fig9_small_regs() {
    assert_eq!(
        grid_digest(&test_cfg().with_small_regs()),
        "4ae9e771c8513490"
    );
}

/// Pins the traced path beyond `RunMetrics`: the stall taxonomy, port
/// conflicts, walks and occupancy summaries `hbat trace` and observed
/// sweeps report, for every workload under one interleaved, one
/// multi-level and one pretranslation design, and checks that the
/// stall taxonomy accounts for every cycle.
#[test]
fn observed_cells_render_the_same_obs_records() {
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let (_, uops) = TraceCache::global().get_or_build_uops(bench, &cfg.workload);
        for design in ["I4", "M8", "P8"] {
            let design = DesignSpec::parse(design).unwrap();
            let mut rec = TraceRecorder::new();
            run_cell_uops_with(uops.ops(), design, &cfg, &mut rec);
            // Every cycle is an issue cycle or charged to one stall cause.
            assert_eq!(
                rec.issue_cycles() + rec.stall_total(),
                rec.cycles(),
                "{bench}/{design:?}"
            );
            let key = CellKey {
                bench: bench.name().to_owned(),
                design: format!("{design:?}"),
                config: config_fingerprint(&cfg),
                seed: cfg.design_seed,
            };
            text.push_str(&render_obs_record(&key, &rec));
            text.push('\n');
        }
    }
    assert_eq!(fnv1a_hex(&text), "5cabc9ae848613e6");
}
