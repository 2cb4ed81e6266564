//! The sampled-simulation sweep contract (DESIGN.md § 15):
//!
//! * a sampled sweep with the same `(plan, seed, config)` writes a
//!   *byte*-identical journal and interval sidecar on every run;
//! * `--resume` restores completed sampled cells — metrics *and*
//!   windows — from the journal pair and re-runs only the rest,
//!   converging on the same bytes an uninterrupted sweep writes;
//! * the 95% confidence intervals cover the full-detailed-run ground
//!   truth for every workload × {I4, M8, P8} and for Compress across
//!   all thirteen Table-2 designs at test scale;
//! * the sampled Figure 5, weighted by each program's estimated
//!   whole-run T4 time, puts every design's relative IPC within a point
//!   of the full figure's at test scale;
//! * on the reference cell (Compress × M8 at reference scale, plan
//!   `25:1000:250`) the sampled IPC is within 2% of the full run, its
//!   CI covers the full-run IPC, and a rerun is identical;
//! * sampling composes with checkpointed fast-forward (distinct
//!   fingerprint, windows placed in the tail past the boundary);
//! * a sweep warms each program once, streaming it from its machine,
//!   and shares the schedule across its designs, and every cell still equals a standalone
//!   `run_sampled_uops` of it on the full trace, at 1 and 4 workers,
//!   with and without `--ff`;
//! * `--sample` with `--observe`/`--intervals` is rejected before any
//!   cell runs.

use std::path::{Path, PathBuf};

use hbat_bench::ckpt::{CheckpointOptions, ProgramTail};
use hbat_bench::experiment::{
    iv_sidecar_path, run_cell, run_cell_uops, sweep_fingerprint, sweep_ft, ExperimentConfig,
    SweepOptions,
};
use hbat_bench::sample::{ipc_interval, run_sampled_uops, SamplePlan, SampledCell};
use hbat_bench::SweepResult;
use hbat_core::designs::spec::DesignSpec;
use hbat_isa::executor::OpSource;
use hbat_stats::ConfLevel;
use hbat_workloads::{Benchmark, Scale};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-sample-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs() -> [DesignSpec; 3] {
    [
        DesignSpec::parse("I4").unwrap(),
        DesignSpec::parse("M8").unwrap(),
        DesignSpec::parse("P8").unwrap(),
    ]
}

fn plan() -> SamplePlan {
    SamplePlan::parse("12:400:100", 1996).unwrap()
}

fn run_sampled_sweep(journal: &Path, resume: bool) -> SweepResult {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let opts = SweepOptions {
        threads: 1, // deterministic journal line order for byte comparison
        journal: Some(journal.to_path_buf()),
        resume,
        sample: Some(plan()),
        ..SweepOptions::default()
    };
    sweep_ft(&designs(), &cfg, &opts).unwrap()
}

#[test]
fn sampled_sweep_journal_and_sidecar_are_byte_identical_across_runs() {
    let dir = tmp_dir("identity");
    let (a, b) = (dir.join("a.journal"), dir.join("b.journal"));

    let ra = run_sampled_sweep(&a, false);
    let rb = run_sampled_sweep(&b, false);
    assert_eq!(ra.completed(), 30);
    assert_eq!(rb.completed(), 30);

    let ja = std::fs::read(&a).unwrap();
    let jb = std::fs::read(&b).unwrap();
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "sampled journal must be deterministic");

    let sa = std::fs::read(iv_sidecar_path(&a)).unwrap();
    let sb = std::fs::read(iv_sidecar_path(&b)).unwrap();
    assert!(!sa.is_empty());
    assert_eq!(sa, sb, "sampled window sidecar must be deterministic");

    // Every completed cell carries the plan's windows — short traces
    // may fit fewer, never more — each measuring exactly the plan's
    // committed length.
    for row in &ra.cells {
        for cell in row {
            let c = cell.ok().unwrap();
            assert!(
                c.windows.len() as u64 <= plan().n_windows && c.windows.len() >= 2,
                "{}: {} windows",
                c.bench,
                c.windows.len()
            );
            for w in &c.windows {
                assert_eq!(w.committed, plan().window_len, "{}", c.bench);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_mid_sample_chain_restores_windows_and_converges_on_the_same_bytes() {
    let dir = tmp_dir("resume");
    let full = dir.join("full.journal");
    let part = dir.join("part.journal");

    let uninterrupted = run_sampled_sweep(&full, false);
    let journal_bytes = std::fs::read_to_string(&full).unwrap();
    let sidecar_bytes = std::fs::read_to_string(iv_sidecar_path(&full)).unwrap();

    // Simulate a crash after the first 7 cells: keep their journal
    // lines and their complete window blocks, drop everything after.
    // Sidecar lines of one cell share everything before the "window"
    // field, so block transitions mark the cell boundaries.
    let keep = 7usize;
    let keep_lines = |s: &str, n: usize| {
        s.lines().take(n).fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
    };
    let cell_of = |line: &str| line.split(",\"window\"").next().unwrap().to_owned();
    let mut kept_sidecar_lines = 0usize;
    let mut blocks = 0usize;
    let mut prev: Option<String> = None;
    for line in sidecar_bytes.lines() {
        let cell = cell_of(line);
        if prev.as_ref() != Some(&cell) {
            blocks += 1;
            prev = Some(cell);
        }
        if blocks > keep {
            break;
        }
        kept_sidecar_lines += 1;
    }
    std::fs::write(&part, keep_lines(&journal_bytes, keep)).unwrap();
    std::fs::write(
        iv_sidecar_path(&part),
        keep_lines(&sidecar_bytes, kept_sidecar_lines),
    )
    .unwrap();

    let r = run_sampled_sweep(&part, true);
    assert_eq!(r.resumed, keep, "exactly the surviving cells restore");
    assert_eq!(r.completed(), 30);
    // Restored cells get their windows back from the sidecar, so the
    // interval estimates survive the crash too.
    for (row, urow) in r.cells.iter().zip(&uninterrupted.cells) {
        for (cell, ucell) in row.iter().zip(urow) {
            let (c, u) = (cell.ok().unwrap(), ucell.ok().unwrap());
            assert_eq!(
                c.windows, u.windows,
                "{}: windows lost or changed on resume",
                c.bench
            );
        }
    }
    assert_eq!(
        std::fs::read_to_string(&part).unwrap(),
        journal_bytes,
        "resumed journal must converge on the uninterrupted bytes"
    );
    assert_eq!(
        std::fs::read_to_string(iv_sidecar_path(&part)).unwrap(),
        sidecar_bytes,
        "resumed sidecar must converge on the uninterrupted bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_cis_cover_full_run_ground_truth_for_every_workload() {
    // The matched pair at test scale: both sides start from the same
    // boundary-2000 warm state, so the ground truth is the full
    // detailed timing of exactly the population the windows sample.
    // (A cold full run additionally pays the cold-start transient —
    // every compulsory TLB/cache miss — which at ~30k-op test traces
    // is a real fraction of total cycles and not what sampling
    // estimates; at reference scale it washes out. DESIGN.md §15.)
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let p = plan();
    for bench in Benchmark::ALL {
        let ws = hbat_bench::ckpt::build_warm_start_cold(bench, &cfg, 2_000).unwrap();
        let ws = ProgramTail::new(ws).unwrap();
        let warm = ws.start.acc.warm_state();
        let mut tail = Vec::new();
        ws.stream().feed(u64::MAX, &mut tail);
        for design in designs() {
            let truth = run_cell(ws.stream(), design, &cfg, &warm, hbat_obs::NullRecorder).ipc();
            let cell = run_sampled_uops(&tail, design, &cfg, Some(&ws.start.acc), &p);
            let ci = ipc_interval(&cell.windows, ConfLevel::P95);
            assert!(
                ci.covers(truth),
                "{bench}/{}: CI {} misses ground truth {truth:.4}",
                design.mnemonic(),
                ci.render(4)
            );
            assert!(
                (ci.mean - truth).abs() / truth < 0.10,
                "{bench}/{}: sampled mean {:.4} off ground truth {truth:.4}",
                design.mnemonic(),
                ci.mean
            );
        }
    }
}

// The sampled figure estimates the full one: each program is weighted
// by its estimated whole-run T4 time (op count x window CPI), so every
// design's relative IPC lands within a point of the full sweep's, and
// the weighted T4 interval covers the full T4. Weighted by the windows'
// cycles instead, every program counts the same and I8 reads 95.6%
// against the full run's 93.1%.
#[test]
fn sampled_figure_tracks_the_full_figure_at_test_scale() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let full = sweep_ft(&DesignSpec::TABLE2, &cfg, &SweepOptions::default()).unwrap();
    let opts = SweepOptions {
        sample: Some(SamplePlan::parse("6:400:100", 1996).unwrap()),
        ..SweepOptions::default()
    };
    let sampled = sweep_ft(&DesignSpec::TABLE2, &cfg, &opts).unwrap();
    for design in DesignSpec::TABLE2 {
        let (want, got) = (full.relative_ipc(design), sampled.relative_ipc(design));
        let (want, got) = (want.unwrap(), got.unwrap());
        assert!(
            (got - want).abs() <= 0.01,
            "{}: sampled {got:.4} vs full {want:.4}",
            design.mnemonic()
        );
    }
    let t4 = DesignSpec::MultiPorted { ports: 4 };
    let ci = sampled.weighted_ipc_interval(t4).unwrap();
    let truth = full.weighted_ipc(t4).unwrap();
    assert!(ci.covers(truth), "T4 {} misses {truth:.4}", ci.render(4));
}

#[test]
fn sampled_cis_cover_ground_truth_on_all_thirteen_table2_designs() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let uops = Benchmark::Compress.build(&cfg.workload).uops();
    let p = plan();
    for design in DesignSpec::TABLE2 {
        let truth = run_cell_uops(uops.ops(), design, &cfg).ipc();
        let cell = run_sampled_uops(uops.ops(), design, &cfg, None, &p);
        let ci = ipc_interval(&cell.windows, ConfLevel::P95);
        assert!(
            ci.covers(truth),
            "{}: CI {} misses ground truth {truth:.4}",
            design.mnemonic(),
            ci.render(4)
        );
    }
}

#[test]
fn reference_cell_sampled_ipc_is_within_two_percent_of_the_full_run() {
    // The cell EXPERIMENTS.md quotes: Compress × M8 at reference scale,
    // 25 windows of 1000 measured micro-ops, 250 warm ops ahead of each.
    // Smaller scales are too short for this plan to meet the bound.
    let cfg = ExperimentConfig::baseline(Scale::Reference);
    let design = DesignSpec::parse("M8").unwrap();
    let p = SamplePlan::parse("25:1000:250", 1996).unwrap();
    let uops = Benchmark::Compress.build(&cfg.workload).uops();

    let full_ipc = run_cell_uops(uops.ops(), design, &cfg).ipc();
    let cell = run_sampled_uops(uops.ops(), design, &cfg, None, &p);
    let ci = ipc_interval(&cell.windows, ConfLevel::P95);
    let rel_err = (ci.mean - full_ipc).abs() / full_ipc;
    assert!(
        rel_err <= 0.02,
        "sampled IPC {} is {:.2}% off the full run's {full_ipc:.4}",
        ci.render(4),
        rel_err * 100.0
    );
    assert!(
        ci.covers(full_ipc),
        "CI {} misses the full-run IPC {full_ipc:.4}",
        ci.render(4)
    );
    // The plan measures ~1.1% of the trace; that fraction is what makes
    // a sampled cell several times cheaper than the full one.
    let measured: u64 = cell.windows.iter().map(|w| w.committed).sum();
    assert!(
        (measured as f64) < 0.02 * uops.len() as f64,
        "{measured} of {} micro-ops measured",
        uops.len()
    );

    let again = run_sampled_uops(uops.ops(), design, &cfg, None, &p);
    assert_eq!(again.windows, cell.windows, "windows differ between runs");
    assert_eq!(again.metrics, cell.metrics, "metrics differ between runs");
}

#[test]
fn sampling_composes_with_checkpointed_fast_forward() {
    let dir = tmp_dir("ckpt");
    let journal = dir.join("sweep.journal");
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let opts = SweepOptions {
        threads: 1,
        journal: Some(journal.clone()),
        sample: Some(SamplePlan::parse("6:200:50", 1996).unwrap()),
        checkpoint: Some(CheckpointOptions {
            dir: dir.join("snaps"),
            interval: 400,
            boundary: 1_000,
        }),
        ..SweepOptions::default()
    };
    let r = sweep_ft(&designs(), &cfg, &opts).unwrap();
    assert_eq!(r.completed(), 30);
    for row in &r.cells {
        for cell in row {
            let c = cell.ok().unwrap();
            assert!(!c.windows.is_empty(), "{}: no windows", c.bench);
            // Windows live in the tail; `start` indexes tail micro-ops,
            // so the whole sampled stream fits past the boundary.
            let measured: u64 = c.windows.iter().map(|w| w.committed).sum();
            assert_eq!(measured, c.metrics.committed, "{}", c.bench);
        }
    }
    // The checkpointed-sampled journal must never collide with plain,
    // checkpointed-only, or sampled-only journals: its cells carry the
    // combined fingerprint, distinct from every other variant's.
    let p = SamplePlan::parse("6:200:50", 1996).unwrap();
    let combined = sweep_fingerprint(&cfg, Some(1_000), Some(&p));
    let others = [
        sweep_fingerprint(&cfg, None, None),
        sweep_fingerprint(&cfg, Some(1_000), None),
        sweep_fingerprint(&cfg, None, Some(&p)),
    ];
    assert!(!others.contains(&combined));
    let line = std::fs::read_to_string(&journal).unwrap();
    assert!(
        line.contains(&format!("\"config\":\"{combined}\"")),
        "journal must carry the combined fingerprint {combined}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the 13-design × 10-program sampled grid at 1 and 4 workers
/// and checks every cell against `standalone(bench)`, the program's
/// row of standalone `run_sampled_uops` cells in Table-2 order: the
/// shared warm schedule must change nothing, and no design may disturb
/// the states the other designs install after it. The sweep streams
/// each program from its machine, so it leaves the process-wide trace
/// cache empty.
fn assert_grid_matches_standalone(
    checkpoint: impl Fn(usize) -> Option<CheckpointOptions>,
    standalone: impl Fn(Benchmark) -> Vec<SampledCell>,
) {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let expected: Vec<Vec<SampledCell>> = Benchmark::ALL.iter().map(|&b| standalone(b)).collect();
    for threads in [1, 4] {
        let opts = SweepOptions {
            threads,
            sample: Some(plan()),
            checkpoint: checkpoint(threads),
            ..SweepOptions::default()
        };
        let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &opts).unwrap();
        assert!(r.manifest.is_empty(), "{}", r.manifest.render());
        for (row, erow) in r.cells.iter().zip(&expected) {
            for (cell, e) in row.iter().zip(erow) {
                let c = cell.ok().unwrap();
                let tag = format!("{}/{} at {threads} workers", c.bench, c.design.mnemonic());
                assert!(!c.windows.is_empty(), "{tag}: no windows");
                assert_eq!(c.windows, e.windows, "{tag}: windows differ");
                assert_eq!(c.metrics, e.metrics, "{tag}: metrics differ");
            }
        }
    }
}

#[test]
fn shared_warm_schedules_match_standalone_cells_on_the_table2_grid() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    assert_grid_matches_standalone(
        |_| None,
        |bench| {
            let uops = bench.build(&cfg.workload).uops();
            DesignSpec::TABLE2
                .map(|design| run_sampled_uops(uops.ops(), design, &cfg, None, &plan()))
                .to_vec()
        },
    );
}

#[test]
fn shared_warm_schedules_match_standalone_cells_under_fast_forward() {
    let dir = tmp_dir("share-ff");
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let boundary = 1_000;
    assert_grid_matches_standalone(
        |threads| {
            Some(CheckpointOptions {
                dir: dir.join(format!("snaps-{threads}")),
                interval: 400,
                boundary,
            })
        },
        |bench| {
            let ws = hbat_bench::ckpt::build_warm_start_cold(bench, &cfg, boundary).unwrap();
            let tail = ws.machine.clone().run_to_uops(ws.max_steps);
            DesignSpec::TABLE2
                .map(|design| run_sampled_uops(&tail, design, &cfg, Some(&ws.acc), &plan()))
                .to_vec()
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sample_with_observe_or_intervals_is_rejected_before_any_cell_runs() {
    let dir = tmp_dir("reject");
    let cfg = ExperimentConfig::baseline(Scale::Test);
    for (observe, intervals) in [(true, None), (false, Some(256)), (true, Some(256))] {
        let journal = dir.join("sweep.journal");
        let opts = SweepOptions {
            threads: 1,
            journal: Some(journal.clone()),
            observe,
            intervals,
            sample: Some(plan()),
            ..SweepOptions::default()
        };
        let err = sweep_ft(&designs(), &cfg, &opts).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("--sample"), "{err}");
        assert!(
            !journal.exists(),
            "rejected sweep must not touch the journal"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
