//! # hbat-bench — the experiment harness
//!
//! Regenerates every table and figure of Austin & Sohi (ISCA 1996):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | the baseline machine configuration |
//! | `table2` | the thirteen analysed designs |
//! | `table3` | per-program execution statistics |
//! | `fig6` | TLB miss rate vs TLB size |
//! | `figs` | relative IPC: Figures 5 (out-of-order baseline), 7 (in-order issue), 8 (8 KB pages) and 9 (8 int / 8 fp registers), in one process |
//! | `anatomy` | trace-anatomy ceilings per benchmark (extension) |
//! | `ablation` | design-parameter sweeps (extension) |
//! | `scaling` | TLB bandwidth demand vs machine width (extension) |
//!
//! Each binary accepts a scale argument (`test`, `small`, `reference`);
//! the default is `small`. Run them with
//! `cargo run --release -p hbat-bench --bin figs -- small`.
//!
//! Sweeps run on the cell-level parallel executor in [`executor`]
//! (worker count from `HBAT_THREADS`, default all cores) and are
//! bit-identical to the same sweep on one worker. Every sweep goes
//! through [`sweep_ft`] ([`sweep`] is its fail-fast convenience) and
//! returns one [`SweepResult`], which renders each figure.
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
pub mod sample;

pub use ckpt::{
    build_warm_start, build_warm_start_cold, verify_restore_equivalence, CheckpointOptions,
    EquivalenceReport, WarmStart,
};
pub use executor::{
    parallel_map, parallel_map_outcomes, worker_threads, CellCtx, RunPolicy, SweepTelemetry,
    TraceCache,
};
pub use experiment::{
    config_fingerprint, iv_sidecar_path, obs_sidecar_path, render_interval_record,
    render_obs_record, run_cell, run_cell_uops, run_cell_uops_with, scale_from_args, sweep,
    sweep_fingerprint, sweep_ft, sweep_ft_on, CellResult, ExperimentConfig, SweepOptions,
    SweepResult,
};
pub use faults::{CkptFault, FaultKind, FaultPlan};
pub use journal::{
    read_interval_sidecar, read_journal, CellKey, IntervalSidecarRecord, JournalRecord,
    JournalWriter,
};
pub use outcome::{CellFailure, CellOutcome, FailureManifest};
pub use sample::{
    cpi_interval, ipc_interval, plan_windows, run_sampled_uops, run_sampled_windows, warm_schedule,
    SamplePlan, SampleWindow, SampledCell, ScheduledWindow, WindowGate,
};
