//! The parallel sweep executor is a pure optimisation: whatever the
//! worker count, claim order, or trace sharing, the metrics must be
//! bit-identical to the reference: the same sweep on one worker and a
//! fresh trace cache.

use proptest::prelude::*;

use hbat_bench::executor::TraceCache;
use hbat_bench::experiment::{sweep_ft_on, ExperimentConfig, SweepOptions, SweepResult};
use hbat_core::designs::spec::DesignSpec;
use hbat_workloads::Scale;

/// A fail-fast sweep on `threads` workers over `cache`.
fn sweep_with(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    threads: usize,
    cache: &TraceCache,
) -> SweepResult {
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let r = sweep_ft_on(designs, cfg, &opts, cache).expect("no journal, no I/O");
    r.into_complete().expect("every cell completes")
}

fn assert_identical(reference: &SweepResult, candidate: &SweepResult) {
    assert_eq!(reference.cells.len(), candidate.cells.len());
    for (ref_row, cand_row) in reference.cells.iter().zip(&candidate.cells) {
        assert_eq!(ref_row.len(), cand_row.len());
        for (r, c) in ref_row.iter().zip(cand_row) {
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
    let reference = sweep_with(&designs, &cfg, 1, &TraceCache::new());
    for threads in [1, 3, 8] {
        let cache = TraceCache::new();
        let parallel = sweep_with(&designs, &cfg, threads, &cache);
        assert_identical(&reference, &parallel);
        assert_eq!(parallel.telemetry.threads, threads);
        assert_eq!(parallel.telemetry.cells, 10 * designs.len());
    }
}

#[test]
fn cached_traces_do_not_change_results() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let designs = [DesignSpec::MultiPorted { ports: 2 }];
    let cache = TraceCache::new();
    let cold = sweep_with(&designs, &cfg, 2, &cache);
    assert_eq!(cold.telemetry.traces_built, 10, "cold cache builds all");
    let warm = sweep_with(&designs, &cfg, 2, &cache);
    assert_eq!(warm.telemetry.traces_built, 0, "warm cache builds none");
    assert_eq!(warm.telemetry.trace_cache_hits, 10);
    assert_identical(&cold, &warm);
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
        let reference = sweep_with(&designs, &cfg, 1, &TraceCache::new());
        let cache = TraceCache::new();
        let parallel = sweep_with(&designs, &cfg, threads, &cache);
        for (ref_row, cand_row) in reference.cells.iter().zip(&parallel.cells) {
            for (r, c) in ref_row.iter().zip(cand_row) {
                prop_assert_eq!(&r.metrics, &c.metrics);
            }
        }
    }
}
