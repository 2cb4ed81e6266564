//! # hbat-bench — the experiment harness
//!
//! Regenerates every table and figure of Austin & Sohi (ISCA 1996):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | the baseline machine configuration |
//! | `table2` | the thirteen analysed designs |
//! | `table3` | per-program execution statistics |
//! | `fig5` | relative IPC, out-of-order baseline |
//! | `fig6` | TLB miss rate vs TLB size |
//! | `fig7` | relative IPC, in-order issue |
//! | `fig8` | relative IPC, 8 KB pages |
//! | `fig9` | relative IPC, 8 int / 8 fp registers |
//! | `figs` | Figures 5/7/8/9 in one process, sharing cached traces |
//! | `sweep_bench` | 1-worker-vs-parallel sweep timing → `results/BENCH_sweep.json` |
//!
//! Each binary accepts a scale argument (`test`, `small`, `reference`);
//! the default is `small`. Run them with
//! `cargo run --release -p hbat-bench --bin fig5 -- small`.
//!
//! Sweeps run on the cell-level parallel executor in [`executor`]
//! (worker count from `HBAT_THREADS`, default all cores) and are
//! bit-identical to the same sweep on one worker.
//!
//! The executor is fault-tolerant: each cell runs under `catch_unwind`
//! with bounded retries and an optional deadline ([`RunPolicy`]), a
//! failed cell becomes a [`CellOutcome`] and a [`FailureManifest`]
//! entry instead of sinking the sweep, completed cells journal to an
//! append-only JSONL file for bit-identical `--resume`
//! ([`journal`]), and deterministic faults can be injected for testing
//! the recovery paths ([`faults`]). DESIGN.md §9 documents the failure
//! model.

pub mod ckpt;
pub mod executor;
pub mod experiment;
pub mod faults;
pub mod journal;
pub mod missrate;
pub mod outcome;
pub mod perfdb;
pub mod sample;

pub use ckpt::{
    build_warm_trace, build_warm_trace_cold, ckpt_fingerprint, run_warm_cell_with,
    verify_restore_equivalence, CheckpointOptions, EquivalenceReport, WarmTrace,
};
pub use executor::{
    parallel_map, parallel_map_outcomes, worker_threads, CellCtx, JsonReport, RunPolicy,
    SweepTelemetry, TraceCache,
};
pub use experiment::{
    config_fingerprint, iv_sidecar_path, obs_sidecar_path, render_interval_record,
    render_obs_record, run_cell_uops, run_cell_uops_with, scale_from_args, sweep, sweep_ft,
    sweep_ft_on, trace_for, CellResult, ExperimentConfig, FtSweepResult, SweepOptions, SweepResult,
};
pub use faults::{CkptFault, FaultKind, FaultPlan};
pub use journal::{
    read_interval_sidecar, read_journal, write_atomic, CellKey, IntervalSidecarRecord,
    JournalRecord, JournalWriter, Scalar,
};
pub use outcome::{CellFailure, CellOutcome, FailureManifest};
pub use sample::{
    ckpt_sample_fingerprint, cpi_interval, ipc_interval, plan_windows, run_sampled_uops,
    run_sampled_windows, sample_fingerprint, warm_schedule, SamplePlan, SampleWindow, SampledCell,
    WindowGate,
};
