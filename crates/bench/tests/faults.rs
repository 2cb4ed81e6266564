//! Fault-injection acceptance tests: every recovery path of the
//! fault-tolerant sweep executor, driven by deterministic seeded plans
//! (the same suite CI runs with `HBAT_THREADS=4`).
//!
//! The headline acceptance criterion: inject panics into k cells of an
//! n-cell sweep → the sweep completes the remaining n−k cells and
//! reports exactly k manifest entries, and a `--resume` run re-executes
//! only the failed cells, bit-identical to an unfaulted serial sweep.
//! Sampled sweeps, whose cells share one warm schedule per program,
//! recover the same way.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hbat_bench::executor::RunPolicy;
use hbat_bench::experiment::{
    iv_sidecar_path, sweep_ft_on, ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_bench::faults::{FaultKind, FaultPlan};
use hbat_bench::journal::read_journal;
use hbat_bench::outcome::CellOutcome;
use hbat_bench::sample::SamplePlan;
use hbat_bench::TraceCache;
use hbat_core::designs::spec::DesignSpec;
use hbat_workloads::Scale;

const THREADS: usize = 4;

fn designs() -> &'static [DesignSpec] {
    &DesignSpec::TABLE2[..3]
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.journal"));
    std::fs::remove_file(&path).ok();
    path
}

/// The serial reference: an unfaulted sweep on one worker and a fresh
/// trace cache.
fn reference_sweep(designs: &[DesignSpec], cfg: &ExperimentConfig) -> SweepResult {
    let opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, cfg, &opts, &TraceCache::new()).expect("no journal, no I/O");
    assert!(
        r.manifest.is_empty(),
        "an unfaulted sweep completes every cell"
    );
    r
}

/// All completed cells of `r` match the serial reference bit-for-bit.
fn assert_matches_serial(r: &SweepResult, tag: &str) {
    let reference = reference_sweep(designs(), &ExperimentConfig::baseline(Scale::Test));
    for (bi, row) in r.cells.iter().enumerate() {
        for (di, outcome) in row.iter().enumerate() {
            if let Some(cell) = outcome.ok() {
                assert_eq!(
                    Some(&cell.metrics),
                    reference.cells[bi][di].ok().map(|c| &c.metrics),
                    "{tag}: cell ({bi},{di}) diverged from the serial reference"
                );
            }
        }
    }
}

#[test]
fn injected_panics_leave_partial_results_and_resume_is_bit_identical() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let n = hbat_workloads::Benchmark::ALL.len() * designs().len();
    let k = 3;
    let plan = FaultPlan::seeded(7, n, k, 0, 0);
    assert_eq!(plan.len(), k);
    let journal = temp_journal("panics");

    // Faulted sweep: n − k cells complete, exactly k manifest entries.
    let faulted = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: plan.clone(),
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert_eq!(faulted.completed(), n - k);
    assert_eq!(faulted.manifest.len(), k, "{}", faulted.manifest.render());
    let mut failed: Vec<usize> = faulted.manifest.failures.iter().map(|f| f.index).collect();
    failed.sort_unstable();
    assert_eq!(failed, plan.cells(), "exactly the armed cells failed");
    for f in &faulted.manifest.failures {
        assert_eq!(f.kind, "panicked");
        assert!(f.detail.contains("injected fault"), "{}", f.detail);
    }
    assert_matches_serial(&faulted, "faulted");
    assert_eq!(
        read_journal(&journal).expect("parseable journal").len(),
        n - k,
        "only completed cells are journalled"
    );

    // Resume without faults: only the k failed cells re-execute, and the
    // merged result is bit-identical to an unfaulted serial sweep.
    let resumed = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(resumed.manifest.is_empty(), "{}", resumed.manifest.render());
    assert_eq!(resumed.resumed, n - k, "restored cells are not re-executed");
    assert_eq!(resumed.completed(), n);
    assert_matches_serial(&resumed, "resumed");
    assert_eq!(
        read_journal(&journal).expect("parseable journal").len(),
        n,
        "the resume run journals the re-executed cells"
    );
    std::fs::remove_file(&journal).ok();
}

#[test]
fn transient_panics_recover_through_retries() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let plan = FaultPlan::none()
        .with(5, FaultKind::Panic { failures: 1 })
        .with(11, FaultKind::Panic { failures: 2 });
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            policy: RunPolicy::default().with_retries(2),
            faults: plan,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    assert_matches_serial(&r, "retried");
}

#[test]
fn stall_fault_times_out_and_journal_stays_consistent() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let stalled = 4usize;
    let journal = temp_journal("stall");
    let n = hbat_workloads::Benchmark::ALL.len() * designs().len();
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            policy: RunPolicy::default().with_timeout(Duration::from_secs(2)),
            faults: FaultPlan::none().with(stalled, FaultKind::Stall),
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert_eq!(r.manifest.len(), 1, "{}", r.manifest.render());
    assert_eq!(r.manifest.failures[0].kind, "timed_out");
    assert_eq!(r.manifest.failures[0].index, stalled);
    assert_eq!(r.completed(), n - 1);
    assert_matches_serial(&r, "stalled");

    // The journal is parseable and holds exactly the completed cells —
    // the timed-out cell never journalled a record.
    let records = read_journal(&journal).expect("parseable journal");
    assert_eq!(records.len(), n - 1);

    // Resuming (no faults, no timeout) finishes the one missing cell.
    let resumed = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(resumed.manifest.is_empty());
    assert_eq!(resumed.resumed, n - 1);
    assert_matches_serial(&resumed, "stall-resumed");
    std::fs::remove_file(&journal).ok();
}

#[test]
fn corrupt_trace_fault_is_rejected_by_the_reader() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: FaultPlan::none().with(7, FaultKind::CorruptTrace),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.manifest.len(), 1, "{}", r.manifest.render());
    let f = &r.manifest.failures[0];
    assert_eq!(f.index, 7);
    assert!(
        f.detail.contains("corrupt trace rejected"),
        "the reader must reject the corrupt image, got: {}",
        f.detail
    );
    assert_matches_serial(&r, "corrupt");
}

#[test]
fn trace_build_failure_skips_only_that_benchmarks_cells() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let bad_bench = 2usize;
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: FaultPlan::none().with_trace_fault(bad_bench),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.manifest.len(), designs().len());
    for f in &r.manifest.failures {
        assert_eq!(f.kind, "skipped");
        assert!(f.detail.contains("trace build"), "{}", f.detail);
        assert_eq!(f.bench, hbat_workloads::Benchmark::ALL[bad_bench].name());
    }
    for (bi, row) in r.cells.iter().enumerate() {
        for outcome in row {
            if bi == bad_bench {
                assert!(matches!(outcome, CellOutcome::Skipped { .. }));
            } else {
                assert!(outcome.is_ok(), "unrelated benchmarks complete");
            }
        }
    }
    assert_matches_serial(&r, "trace-fault");
}

#[test]
fn partial_results_render_with_explicit_missing_markers() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    // Fail design column 1 for every benchmark: its aggregate becomes
    // unavailable and must render as n/a, not vanish or abort.
    let mut plan = FaultPlan::none();
    for bi in 0..hbat_workloads::Benchmark::ALL.len() {
        plan = plan.with(
            bi * designs().len() + 1,
            FaultKind::Panic { failures: u32::MAX },
        );
    }
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: plan,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.weighted_ipc(designs()[1]), None);
    assert!(r.weighted_ipc(designs()[0]).is_some());
    let fig = r.render_figure("partial figure");
    assert!(
        fig.contains("n/a"),
        "missing design marked in figure:\n{fig}"
    );
    assert!(
        fig.contains("cell(s) failed"),
        "manifest appended to figure:\n{fig}"
    );
    let details = r.render_details();
    assert!(details.contains("n/a"), "missing cells marked:\n{details}");
    for line in details.lines().skip(2) {
        assert!(
            line.split_whitespace().count() == designs().len() + 1,
            "rows keep full width: {line:?}"
        );
    }

    // Fail only Compress x design 1: its relative IPC is normalised to
    // T4 over the nine benchmarks where both cells completed, not over
    // all ten of T4's.
    let r = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            faults: FaultPlan::none().with(1, FaultKind::Panic { failures: u32::MAX }),
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("no journal I/O");
    assert_eq!(r.manifest.len(), 1, "{}", r.manifest.render());
    assert_eq!(designs()[0], DesignSpec::MultiPorted { ports: 4 });
    let (mut weights, mut design_sum, mut t4_sum) = (0.0, 0.0, 0.0);
    for row in &r.cells[1..] {
        let (t4, cell) = (row[0].ok().unwrap(), row[1].ok().unwrap());
        let w = t4.metrics.cycles as f64;
        weights += w;
        design_sum += w * cell.metrics.ipc();
        t4_sum += w * t4.metrics.ipc();
    }
    let want = (design_sum / weights) / (t4_sum / weights);
    let got = r.relative_ipc(designs()[1]).expect("nine shared rows");
    assert!(
        (got - want).abs() < 1e-12,
        "relative IPC over the shared rows: got {got}, want {want}"
    );
}

/// The distinct lines of a journal or sidecar file.
fn line_set(path: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).expect("readable journal");
    text.lines().map(str::to_owned).collect()
}

#[test]
fn sampled_sweep_recovers_from_a_panicking_schedule_builder_and_a_stall() {
    // In a sampled sweep the first cell of a program builds the warm
    // schedule its other designs share. Panic that cell once and stall
    // a sibling: the retry must find (or rebuild) the schedule, the
    // stall must time out alone, and nothing may deadlock on the
    // program's schedule lock or cascade a poisoned one.
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let sample = Some(SamplePlan::parse("12:400:100", 1996).expect("valid plan"));
    let first = 3 * designs().len();
    let stalled = first + 2;
    let clean_journal = temp_journal("sampled-clean");
    let clean = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(clean_journal.clone()),
            sample,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(clean.manifest.is_empty(), "{}", clean.manifest.render());

    let journal = temp_journal("sampled-faulted");
    let faulted_opts = SweepOptions {
        threads: THREADS,
        policy: RunPolicy::default()
            .with_retries(1)
            .with_timeout(Duration::from_secs(2)),
        faults: FaultPlan::none()
            .with(first, FaultKind::Panic { failures: 1 })
            .with(stalled, FaultKind::Stall),
        journal: Some(journal.clone()),
        sample,
        ..SweepOptions::default()
    };
    let faulted =
        sweep_ft_on(designs(), &cfg, &faulted_opts, &TraceCache::new()).expect("journal I/O");
    assert_eq!(faulted.manifest.len(), 1, "{}", faulted.manifest.render());
    assert_eq!(faulted.manifest.failures[0].index, stalled);
    assert_eq!(faulted.manifest.failures[0].kind, "timed_out");
    for (row, clean_row) in faulted.cells.iter().zip(&clean.cells) {
        for (cell, clean_cell) in row.iter().zip(clean_row) {
            if let Some(c) = cell.ok() {
                let e = clean_cell.ok().expect("clean sweep completes");
                assert_eq!(c.metrics, e.metrics, "{}/{:?}", c.bench, c.design);
                assert_eq!(c.windows, e.windows, "{}/{:?}", c.bench, c.design);
            }
        }
    }

    // The faulted journal pair holds the clean lines of every cell but
    // the stalled one: one journal record and its block of windows.
    let stalled_bench = hbat_workloads::Benchmark::ALL[stalled / designs().len()].name();
    let stalled_design = format!("{:?}", designs()[stalled % designs().len()]);
    let of_stalled = |l: &String| {
        l.contains(&format!("\"bench\":\"{stalled_bench}\""))
            && l.contains(&format!("\"design\":\"{stalled_design}\""))
    };
    for path in [clean_journal.clone(), iv_sidecar_path(&clean_journal)] {
        let faulted_path = if path == clean_journal {
            journal.clone()
        } else {
            iv_sidecar_path(&journal)
        };
        let (all, got) = (line_set(&path), line_set(&faulted_path));
        let missing: Vec<&String> = all.difference(&got).collect();
        assert!(
            got.is_subset(&all),
            "{}: foreign lines",
            faulted_path.display()
        );
        assert!(!missing.is_empty(), "{}", faulted_path.display());
        assert!(
            missing.iter().all(|l| of_stalled(l)),
            "{}: only the stalled cell may be missing: {missing:?}",
            faulted_path.display()
        );
    }

    // Resuming without faults runs the stalled cell alone and converges
    // on the clean line sets.
    let resumed = sweep_ft_on(
        designs(),
        &cfg,
        &SweepOptions {
            threads: THREADS,
            journal: Some(journal.clone()),
            resume: true,
            sample,
            ..SweepOptions::default()
        },
        &TraceCache::new(),
    )
    .expect("journal I/O");
    assert!(resumed.manifest.is_empty(), "{}", resumed.manifest.render());
    assert_eq!(resumed.resumed, resumed.completed() - 1);
    assert_eq!(line_set(&journal), line_set(&clean_journal));
    assert_eq!(
        line_set(&iv_sidecar_path(&journal)),
        line_set(&iv_sidecar_path(&clean_journal))
    );
    for path in [&journal, &clean_journal] {
        std::fs::remove_file(iv_sidecar_path(path)).ok();
        std::fs::remove_file(path).ok();
    }
}
