//! Checkpoint acceptance tests: the restore-equivalence contract across
//! every Table-2 design, and the crash/corrupt/resume recovery paths of
//! a checkpointed sweep (the same suite CI runs with `HBAT_THREADS=4`).
//!
//! The headline acceptance criteria:
//! - a run restored from any snapshot produces bit-identical
//!   [`RunMetrics`](hbat_cpu::RunMetrics) to a run that never crashed,
//!   for all 13 analysed designs;
//! - every injected snapshot corruption is rejected with a typed error
//!   and the sweep recovers (previous checkpoint or cold start) to the
//!   same bit-identical metrics — never silently wrong state.

use std::path::PathBuf;

use hbat_bench::ckpt::{verify_restore_equivalence, CheckpointOptions};
use hbat_bench::executor::RunPolicy;
use hbat_bench::experiment::{
    sweep_fingerprint, sweep_ft, ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_bench::faults::{CkptFault, FaultPlan};
use hbat_bench::journal::read_journal;
use hbat_core::designs::spec::DesignSpec;
use hbat_core::designs::BASE_TLB_ENTRIES;
use hbat_workloads::{Benchmark, Scale};

const THREADS: usize = 4;

fn designs() -> &'static [DesignSpec] {
    &DesignSpec::TABLE2[..3]
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hbat-ckpt-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn ck_opts(dir: &std::path::Path) -> CheckpointOptions {
    CheckpointOptions {
        dir: dir.join("snapshots"),
        interval: 300,
        boundary: 1_000,
    }
}

fn checkpointed(dir: &std::path::Path) -> SweepOptions {
    SweepOptions {
        threads: THREADS,
        checkpoint: Some(ck_opts(dir)),
        ..SweepOptions::default()
    }
}

/// Every completed cell of `r` matches `reference` bit-for-bit.
fn assert_same_metrics(r: &SweepResult, reference: &SweepResult, tag: &str) {
    for (bi, (row, ref_row)) in r.cells.iter().zip(&reference.cells).enumerate() {
        for (di, (outcome, ref_outcome)) in row.iter().zip(ref_row).enumerate() {
            let (Some(cell), Some(ref_cell)) = (outcome.ok(), ref_outcome.ok()) else {
                panic!("{tag}: cell ({bi},{di}) did not complete on both sides");
            };
            assert_eq!(
                cell.metrics, ref_cell.metrics,
                "{tag}: cell ({bi},{di}) diverged"
            );
        }
    }
}

/// The tentpole acceptance criterion: a mid-stream restore reproduces
/// the never-crashed run bit-for-bit across all 13 Table-2 designs.
/// Two inputs: Compress at test scale, and MPEG_play at small scale,
/// whose prefix touches more pages than the random-replacement TLB
/// model holds, so the model has evicted by the time it is snapshotted.
#[test]
fn restore_equivalence_holds_for_all_table2_designs() {
    let dir = temp_dir("equiv13");
    let past_capacity = CheckpointOptions {
        dir: dir.join("small"),
        interval: 50_000,
        boundary: 200_000,
    };
    for (bench, scale, opts) in [
        (Benchmark::Compress, Scale::Test, ck_opts(&dir)),
        (Benchmark::MpegPlay, Scale::Small, past_capacity),
    ] {
        let cfg = ExperimentConfig::baseline(scale);
        let report = verify_restore_equivalence(bench, &cfg, &opts, &DesignSpec::TABLE2)
            .expect("restore must be bit-exact");
        assert_eq!(report.designs_checked, DesignSpec::TABLE2.len());
        assert_eq!(report.designs_checked, 13, "the paper analyses 13 designs");
        if scale == Scale::Small {
            assert!(
                report.pages_touched > BASE_TLB_ENTRIES,
                "{} touched only {} pages: the model never evicted",
                bench.name(),
                report.pages_touched
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpointed sweep completes every cell, journals them under the
/// boundary-aware fingerprint, and `--resume` replays from the journal.
#[test]
fn checkpointed_sweep_completes_and_resumes() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let dir = temp_dir("sweep");
    let journal = dir.join("sweep.journal");
    let mut opts = checkpointed(&dir);
    opts.journal = Some(journal.clone());

    let first = sweep_ft(designs(), &cfg, &opts).unwrap();
    let n = Benchmark::ALL.len() * designs().len();
    assert_eq!(first.completed(), n, "{:?}", first.manifest);
    assert_eq!(first.resumed, 0);

    let records = read_journal(&journal).unwrap();
    assert_eq!(records.len(), n);
    let expected_fp = sweep_fingerprint(&cfg, Some(ck_opts(&dir).boundary), None);
    assert!(
        records.iter().all(|r| r.key.config == expected_fp),
        "journal keys must carry the boundary-aware fingerprint"
    );

    // Resume: every cell restores from the journal, none re-execute,
    // metrics bit-identical.
    opts.resume = true;
    let resumed = sweep_ft(designs(), &cfg, &opts).unwrap();
    assert_eq!(resumed.resumed, n);
    assert_same_metrics(&resumed, &first, "resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash during fast-forward: the armed benchmark's first attempt dies
/// right after publishing a snapshot; the retry restores from it and the
/// sweep still produces bit-identical metrics.
#[test]
fn ff_crash_retries_from_last_good_checkpoint() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let clean_dir = temp_dir("ffcrash-clean");
    let clean = sweep_ft(designs(), &cfg, &checkpointed(&clean_dir)).unwrap();

    let dir = temp_dir("ffcrash");
    let mut opts = checkpointed(&dir);
    opts.faults = FaultPlan::none().with_ckpt_fault(0, CkptFault::FfPanic);
    opts.policy = RunPolicy::default().with_retries(1);
    let restored_before = hbat_ckpt::events::restored();
    let r = sweep_ft(designs(), &cfg, &opts).unwrap();

    let n = Benchmark::ALL.len() * designs().len();
    assert_eq!(r.completed(), n, "{:?}", r.manifest);
    assert!(
        hbat_ckpt::events::restored() > restored_before,
        "the retry must restore from the crashed attempt's snapshot"
    );
    assert_same_metrics(&r, &clean, "ff-crash retry");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Every corruption kind, injected into a different benchmark's newest
/// snapshot, is detected (rejected-event counter) and recovered from —
/// the sweep completes with metrics bit-identical to the uncorrupted run.
#[test]
fn every_snapshot_corruption_is_detected_and_recovered() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let dir = temp_dir("corrupt");
    let opts = checkpointed(&dir);

    // Populate the store with good snapshots.
    let clean = sweep_ft(designs(), &cfg, &opts).unwrap();
    let n = Benchmark::ALL.len() * designs().len();
    assert_eq!(clean.completed(), n, "{:?}", clean.manifest);

    // Corrupt five different benchmarks' newest snapshots, one per kind.
    let mut faulted = opts.clone();
    faulted.faults = FaultPlan::none()
        .with_ckpt_fault(0, CkptFault::Torn)
        .with_ckpt_fault(1, CkptFault::BitFlip)
        .with_ckpt_fault(2, CkptFault::Truncate)
        .with_ckpt_fault(3, CkptFault::VersionMismatch)
        .with_ckpt_fault(4, CkptFault::FingerprintMismatch);
    let rejected_before = hbat_ckpt::events::rejected();
    let r = sweep_ft(designs(), &cfg, &faulted).unwrap();

    assert_eq!(r.completed(), n, "{:?}", r.manifest);
    assert!(
        hbat_ckpt::events::rejected() >= rejected_before + 5,
        "all five corrupted snapshots must be rejected"
    );
    assert_same_metrics(&r, &clean, "corruption recovery");
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint-then-crash-then-resume end to end: a cell panic fails part
/// of a checkpointed sweep, and a `--resume` run completes only the
/// missing cells — restoring fast-forward state from snapshots and cell
/// results from the journal.
#[test]
fn checkpoint_crash_resume_flow() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let dir = temp_dir("crashflow");
    let journal = dir.join("sweep.journal");
    let mut opts = checkpointed(&dir);
    opts.journal = Some(journal.clone());
    opts.faults = FaultPlan::none().with(
        4,
        hbat_bench::faults::FaultKind::Panic { failures: u32::MAX },
    );

    let crashed = sweep_ft(designs(), &cfg, &opts).unwrap();
    let n = Benchmark::ALL.len() * designs().len();
    assert_eq!(crashed.completed(), n - 1);
    assert_eq!(crashed.manifest.failures.len(), 1);

    // The "restarted" run: no faults, resume from the journal. The one
    // failed cell re-executes, restoring its benchmark's fast-forward
    // from the snapshots the crashed run published.
    let mut retry = checkpointed(&dir);
    retry.journal = Some(journal);
    retry.resume = true;
    let recovered = sweep_ft(designs(), &cfg, &retry).unwrap();
    assert_eq!(recovered.completed(), n);
    assert_eq!(recovered.resumed, n - 1, "only the crashed cell re-runs");
    // Every cell the crashed run completed is bit-identical after resume.
    for (bi, (row, crashed_row)) in recovered.cells.iter().zip(&crashed.cells).enumerate() {
        for (di, (after, before)) in row.iter().zip(crashed_row).enumerate() {
            if let Some(b) = before.ok() {
                assert_eq!(
                    after.ok().map(|c| &c.metrics),
                    Some(&b.metrics),
                    "cell ({bi},{di}) changed across resume"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
