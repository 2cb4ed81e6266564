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
//! `hbat sweep --sample` prints it, together with every sampled
//! window's `IntervalRecord` beneath it.
//!
//! The observed path is pinned by the traced records of every workload
//! under I4/M8/P8 and under all 13 Table-2 designs, and by the
//! 256-cycle interval windows of every workload under T1.
//!
//! The checkpointed paths are pinned by a Figure-5 sweep fast-forwarded
//! to instruction 20,000 (`hbat sweep --ff 20000 --ckpt-dir <dir>`):
//! every cell's metrics, and every window of the same sweep sampled
//! under `6:400:100`.
//!
//! One `#[test]` per figure, so the harness runs them in parallel.

use hbat_suite::bench::ckpt::CheckpointOptions;
use hbat_suite::bench::executor::TraceCache;
use hbat_suite::bench::experiment::{
    config_fingerprint, render_obs_record, run_cell_uops_with, sweep, sweep_ft_on, uops_for,
    ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_suite::bench::journal::{fnv1a_hex, CellKey};
use hbat_suite::bench::missrate::{miss_count, FIG6_SIZES};
use hbat_suite::bench::sample::SamplePlan;
use hbat_suite::obs::IntervalRecorder;
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

/// The Figure-5 sweep under `opts`, failing on any failed cell.
fn fig5_with(opts: &SweepOptions) -> SweepResult {
    let r = sweep_ft_on(&DesignSpec::TABLE2, &test_cfg(), opts, TraceCache::global()).unwrap();
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

fn sample_6_400_100() -> Option<SamplePlan> {
    Some(SamplePlan::parse("6:400:100", 1996).unwrap())
}

/// The sampled Figure 5 of `hbat sweep --scale test --sample 6:400:100`.
fn sampled_fig5() -> SweepResult {
    fig5_with(&SweepOptions {
        sample: sample_6_400_100(),
        ..SweepOptions::default()
    })
}

/// The digest of every sampled window of a sweep, in grid order.
fn windows_digest(r: &SweepResult) -> String {
    let mut text = String::new();
    for row in &r.cells {
        for c in row {
            let c = c.ok().expect("the sampled sweep completes every cell");
            for w in &c.windows {
                text.push_str(&format!(
                    "{}/{} {w:?}\n",
                    c.bench.name(),
                    c.design.mnemonic()
                ));
            }
        }
    }
    fnv1a_hex(&text)
}

/// Figure 5 as `hbat sweep --scale test --ff 20000 --ckpt-dir <dir>`
/// runs it: every program fast-forwarded to instruction 20,000 through
/// a fresh snapshot directory (snapshots every 5,000, the CLI default),
/// timing the tail from the boundary's warm state. Six of the ten
/// test-scale programs run past the boundary; the other four halt
/// before it and leave an empty tail.
fn ff_fig5(tag: &str, sample: Option<SamplePlan>) -> SweepResult {
    let dir = std::env::temp_dir().join(format!("hbat-golden-ff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let r = fig5_with(&SweepOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            interval: 5_000,
            boundary: 20_000,
        }),
        sample,
        ..SweepOptions::default()
    });
    std::fs::remove_dir_all(&dir).ok();
    r
}

/// Pins the sampled renderer: Figure 5 under the plan `6:400:100`,
/// exactly as `hbat sweep --scale test --sample 6:400:100` prints it.
#[test]
fn fig5_sampled_text() {
    let r = sampled_fig5();
    let text = format!(
        "{}\n{}\n",
        r.render_figure("design sweep (sampled)"),
        r.render_details()
    );
    assert_eq!(fnv1a_hex(&text), "1d5f456e2009be8f");
}

/// Pins the sampled windows beneath that text: every field of every
/// window's `IntervalRecord` (cycles, issue and stall buckets, walks,
/// occupancy sums) for all 130 cells. The figure shows only each cell's
/// mean and interval, so a change to a window's stall attribution or
/// occupancy shows here and nowhere else.
#[test]
fn fig5_sampled_windows() {
    assert_eq!(windows_digest(&sampled_fig5()), "a32fc43ad909ca63");
}

/// Pins the checkpointed full path: every cell of the fast-forwarded
/// Figure 5, timed from the boundary's warm state to the program's end.
#[test]
fn fig5_ff_cells() {
    assert_eq!(grid_digest(&ff_fig5("cells", None)), "8c36b8fe46f5372d");
}

/// Pins the checkpointed sampled path: every window of the same sweep
/// under `6:400:100`, its schedule chained from the boundary's warm
/// accumulator.
#[test]
fn fig5_ff_sampled_windows() {
    assert_eq!(
        windows_digest(&ff_fig5("sampled", sample_6_400_100())),
        "30676526e23ca55a"
    );
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

/// The traced records of every workload under each of `designs`,
/// rendered as an observed sweep journals them, after checking that the
/// stall taxonomy accounts for every cycle.
fn obs_records(designs: &[DesignSpec]) -> String {
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let (_, uops) = TraceCache::global().get_or_build_uops(bench, &cfg.workload);
        for &design in designs {
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
    text
}

/// Pins the traced path beyond `RunMetrics`: the stall taxonomy, port
/// conflicts, walks and occupancy summaries `hbat trace` and observed
/// sweeps report, for every workload under one interleaved, one
/// multi-level and one pretranslation design, and checks that the
/// stall taxonomy accounts for every cycle.
#[test]
fn observed_cells_render_the_same_obs_records() {
    let designs = ["I4", "M8", "P8"].map(|d| DesignSpec::parse(d).unwrap());
    assert_eq!(fnv1a_hex(&obs_records(&designs)), "5cabc9ae848613e6");
}

/// The same records for all 13 Table-2 designs. Blessed while enabled
/// recorders still ran the engine's full issue scan, so it pins that
/// the sleep/wake fast path reports exactly the probes the full scan did.
#[test]
fn observed_cells_render_the_same_obs_records_on_table2() {
    assert_eq!(
        fnv1a_hex(&obs_records(&DesignSpec::TABLE2)),
        "e60e900b75857ac1"
    );
}

/// Pins the interval time series `hbat trace --intervals 256` records:
/// every field of every 256-cycle window of every workload under T1,
/// plus the count of windows dropped past the buffer.
#[test]
fn interval_windows() {
    let cfg = test_cfg();
    let design = DesignSpec::parse("T1").unwrap();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let (_, uops) = TraceCache::global().get_or_build_uops(bench, &cfg.workload);
        let mut iv = IntervalRecorder::new(256);
        run_cell_uops_with(uops.ops(), design, &cfg, &mut iv);
        iv.finish();
        for w in iv.windows() {
            text.push_str(&format!("{bench} {w:?}\n"));
        }
        text.push_str(&format!("{bench} dropped {}\n", iv.dropped_windows()));
    }
    assert_eq!(fnv1a_hex(&text), "c991cf6813f44467");
}
