//! The parallel sweep executor is a pure optimisation: whatever the
//! worker count or claim order, the metrics must be bit-identical to
//! the reference: the same sweep on one worker.

use proptest::prelude::*;

use hbat_bench::ckpt::CheckpointOptions;
use hbat_bench::experiment::{sweep_ft, ExperimentConfig, SweepOptions, SweepResult};
use hbat_core::designs::spec::DesignSpec;
use hbat_workloads::{Benchmark, Scale};

/// A fail-fast sweep on `threads` workers.
fn sweep_with(designs: &[DesignSpec], cfg: &ExperimentConfig, threads: usize) -> SweepResult {
    sweep_opts(
        designs,
        cfg,
        SweepOptions {
            threads,
            ..SweepOptions::default()
        },
    )
}

/// A fail-fast sweep under `opts`.
fn sweep_opts(designs: &[DesignSpec], cfg: &ExperimentConfig, opts: SweepOptions) -> SweepResult {
    let r = sweep_ft(designs, cfg, &opts).expect("no journal, no I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

fn assert_identical(reference: &SweepResult, candidate: &SweepResult) {
    assert_eq!(reference.cells.len(), candidate.cells.len());
    for (ref_row, cand_row) in reference.cells.iter().zip(&candidate.cells) {
        assert_eq!(ref_row.len(), cand_row.len());
        for (r, c) in ref_row.iter().zip(cand_row) {
            let (r, c) = (r.ok().unwrap(), c.ok().unwrap());
            assert_eq!(r.bench, c.bench);
            assert_eq!(r.design, c.design);
            assert_eq!(
                r.metrics,
                c.metrics,
                "{} on {} diverged between serial and parallel sweeps",
                r.design.mnemonic(),
                r.bench
            );
        }
    }
}

#[test]
fn parallel_sweep_matches_serial_reference() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let designs = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 1 },
        DesignSpec::MultiLevel { l1_entries: 8 },
    ];
    let reference = sweep_with(&designs, &cfg, 1);
    for threads in [1, 3, 8] {
        let parallel = sweep_with(&designs, &cfg, threads);
        assert_identical(&reference, &parallel);
        assert_eq!(parallel.telemetry.threads, threads);
        assert_eq!(parallel.telemetry.cells, 10 * designs.len());
    }
}

/// A full sweep counts each program's ops on its machine before any
/// cell builds the tape it times: the count must be what the T4 cell
/// commits, from program start and from an `--ff` boundary.
#[test]
fn program_ops_count_what_the_full_cells_commit() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let dir = std::env::temp_dir().join(format!("hbat-exec-it-ops-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ff = CheckpointOptions {
        dir: dir.clone(),
        interval: 5_000,
        boundary: 20_000,
    };
    for checkpoint in [None, Some(ff)] {
        let tag = if checkpoint.is_some() {
            "--ff"
        } else {
            "plain"
        };
        let opts = SweepOptions {
            threads: 2,
            checkpoint,
            ..SweepOptions::default()
        };
        let r = sweep_opts(&[DesignSpec::MultiPorted { ports: 4 }], &cfg, opts);
        for (bi, bench) in Benchmark::ALL.iter().enumerate() {
            let t4 = r.cells[bi][0].ok().unwrap();
            assert_eq!(
                r.program_ops[bi],
                Some(t4.metrics.committed),
                "{tag} {bench}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any design pair at any worker count reproduces the reference.
    #[test]
    fn scheduling_never_leaks_into_metrics(
        first in 0usize..DesignSpec::TABLE2.len(),
        second in 0usize..DesignSpec::TABLE2.len(),
        threads in 1usize..6,
    ) {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let designs = [DesignSpec::TABLE2[first], DesignSpec::TABLE2[second]];
        let reference = sweep_with(&designs, &cfg, 1);
        let parallel = sweep_with(&designs, &cfg, threads);
        for (ref_row, cand_row) in reference.cells.iter().zip(&parallel.cells) {
            for (r, c) in ref_row.iter().zip(cand_row) {
                prop_assert_eq!(&r.ok().unwrap().metrics, &c.ok().unwrap().metrics);
            }
        }
    }
}
