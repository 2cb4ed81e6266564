//! Golden digests: the behaviour oracle for refactors.
//!
//! Each test pins an FNV-1a digest of every test-scale cell of one
//! figure's Table-2 grid, rendered as `"{bench}/{design} {metrics:?}\n"`
//! in grid order. A change that moves any simulated statistic of any
//! cell changes a digest. Re-bless a digest only for an intentional
//! behaviour change, and record the reason in CHANGES.md.
//!
//! Figure 6 is pinned the same way, over the `(misses, references)` of
//! every workload and Figure-6 TLB size, and the functional executor
//! over every workload's micro-op stream.
//!
//! The rendered text is pinned too: each of Figures 5/7/8/9 exactly as
//! the `figs` binary prints it, and a sampled Figure 5 exactly as
//! `hbat sweep --sample` prints it.
//!
//! One `#[test]` per figure, so the harness runs them in parallel.

use hbat_suite::bench::executor::TraceCache;
use hbat_suite::bench::experiment::{
    config_fingerprint, render_obs_record, run_cell_uops_with, sweep, sweep_ft_on, uops_for,
    ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_suite::bench::journal::{fnv1a_hex, CellKey};
use hbat_suite::bench::missrate::{miss_count, FIG6_SIZES};
use hbat_suite::bench::sample::SamplePlan;
use hbat_suite::prelude::*;

/// The digest of every cell of a sweep, in grid order.
fn grid_digest(r: &SweepResult) -> String {
    let mut text = String::new();
    for row in &r.cells {
        for c in row {
            let c = c.ok().expect("sweep() completes every cell");
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

/// The digest of one figure's text exactly as `figs` prints it at test
/// scale: the table and chart, then the per-benchmark detail.
fn figure_digest(r: &SweepResult, title: &str) -> String {
    fnv1a_hex(&format!(
        "{}\nPer-benchmark IPC detail:\n\n{}\n",
        r.render_figure(&format!("{title} (Test scale)")),
        r.render_details()
    ))
}

/// The Table-2 sweep of one figure's configuration, pinned twice: every
/// cell's metrics and the rendered figure.
fn assert_figure(cfg: &ExperimentConfig, title: &str, grid: &str, figure: &str) {
    let r = sweep(&DesignSpec::TABLE2, cfg);
    assert_eq!(grid_digest(&r), grid, "{title}: cell metrics");
    assert_eq!(figure_digest(&r, title), figure, "{title}: rendered text");
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
    assert_eq!(
        grid_digest(&sweep(&DesignSpec::TABLE2, &cfg)),
        "2bf73229a9bc6253"
    );
}

#[test]
fn fig5_baseline() {
    assert_figure(
        &test_cfg(),
        "Figure 5: Relative Performance on Baseline Simulator",
        "ba104fd7c5354663",
        "c11e4d31d7e2acf9",
    );
}

#[test]
fn fig7_inorder() {
    assert_figure(
        &test_cfg().with_inorder(),
        "Figure 7: Relative Performance with In-order Issue",
        "69fc8d173af824dc",
        "2c8e6b1b1f138bb0",
    );
}

#[test]
fn fig8_8k_pages() {
    assert_figure(
        &test_cfg().with_8k_pages(),
        "Figure 8: Relative Performance with 8k Pages",
        "040c6429904cfc86",
        "3ed16f6d0ec8e846",
    );
}

#[test]
fn fig9_small_regs() {
    assert_figure(
        &test_cfg().with_small_regs(),
        "Figure 9: Relative Performance with Fewer Registers (8 int/8 fp)",
        "4ae9e771c8513490",
        "863a8be9c0b4dbe7",
    );
}

/// Pins the sampled renderer: Figure 5 under the plan `6:400:100`,
/// exactly as `hbat sweep --scale test --sample 6:400:100` prints it.
#[test]
fn fig5_sampled_text() {
    let opts = SweepOptions {
        sample: Some(SamplePlan::parse("6:400:100", 1996).unwrap()),
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(
        &DesignSpec::TABLE2,
        &test_cfg(),
        &opts,
        TraceCache::global(),
    )
    .unwrap();
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    let text = format!(
        "{}\n{}\n",
        r.render_figure("design sweep (sampled)"),
        r.render_details()
    );
    assert_eq!(fnv1a_hex(&text), "1d5f456e2009be8f");
}

#[test]
fn fig6_miss_counts() {
    // The same cells, geometry and seed as the `fig6` binary.
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let uops = uops_for(bench, &cfg);
        for (entries, policy) in FIG6_SIZES {
            let (misses, refs) = miss_count(uops.ops(), entries, policy, cfg.geometry, 1996);
            text.push_str(&format!("{}/{entries} {misses} {refs}\n", bench.name()));
        }
    }
    assert_eq!(fnv1a_hex(&text), "cdefe8c3b7dee446");
}

/// Pins the functional executor: every micro-op of every test-scale
/// workload, rendered as `"{bench} {op:?}\n"` in `Benchmark::ALL` order.
#[test]
fn uop_streams() {
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        for op in uops_for(bench, &cfg).ops() {
            text.push_str(&format!("{bench} {op:?}\n"));
        }
    }
    assert_eq!(fnv1a_hex(&text), "8fd1127759a78881");
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
