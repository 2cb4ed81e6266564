//! # hbat-suite — High-Bandwidth Address Translation for Multiple-Issue Processors
//!
//! A full reproduction of Austin & Sohi's ISCA 1996 paper, as a Rust
//! workspace. This facade crate re-exports the whole stack:
//!
//! * `core` — the paper's contribution: multi-ported,
//!   interleaved, multi-level, piggybacked, and pretranslation TLB designs
//!   behind one cycle-level [`AddressTranslator`](hbat_core::AddressTranslator)
//!   trait, plus the page table and replacement policies;
//! * `isa` — the simulated MIPS-like instruction set and the
//!   functional executor that emits each workload's micro-ops;
//! * `workloads` — ten synthetic analogues of the
//!   paper's benchmarks, built by a spilling register assigner;
//! * `mem` — the 32 KB split caches;
//! * `cpu` — the 8-way in-order/out-of-order timing engine
//!   with speculative wrong-path execution;
//! * `obs` — zero-cost observability: the statically-dispatched
//!   [`Recorder`](hbat_obs::Recorder) probes, stall attribution, and
//!   occupancy histograms;
//! * `stats` — aggregation and table rendering;
//! * `ckpt` — crash-safe checkpointing: versioned, checksummed
//!   warm-state snapshots with verified restore (DESIGN.md § 13);
//! * `bench` — the harness that regenerates every table and
//!   figure;
//! * `analysis` — trace anatomy: reuse distance,
//!   same-page adjacency, pointer-register reuse.
//!
//! ## Quick start
//!
//! ```
//! use hbat_suite::prelude::*;
//!
//! // Build the paper's M8 design and one benchmark, then measure IPC.
//! let workload = Benchmark::Espresso.build(&WorkloadConfig::new(Scale::Test));
//! let uops = workload.uops();
//! let mut tlb = DesignSpec::parse("M8")?.build(PageGeometry::KB4, 1996);
//! let metrics = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
//! assert!(metrics.ipc() > 0.5);
//! # Ok::<(), hbat_core::designs::spec::ParseDesignError>(())
//! ```

pub use hbat_analysis as analysis;
pub use hbat_bench as bench;
pub use hbat_ckpt as ckpt;
pub use hbat_core as core;
pub use hbat_cpu as cpu;
pub use hbat_isa as isa;
pub use hbat_mem as mem;
pub use hbat_obs as obs;
pub use hbat_stats as stats;
pub use hbat_workloads as workloads;

/// The names most users need, in one import.
pub mod prelude {
    pub use hbat_analysis::{AdjacencyProfile, PointerProfile, ReuseProfile};
    pub use hbat_bench::experiment::{sweep, ExperimentConfig};
    pub use hbat_core::designs::spec::DesignSpec;
    pub use hbat_core::{
        AddressTranslator, Cycle, Outcome, PageGeometry, PageTable, TranslateRequest,
    };
    pub use hbat_cpu::{
        simulate_uops, simulate_uops_with_recorder, IssueModel, RunMetrics, SimConfig,
    };
    pub use hbat_isa::{Machine, PredecodedTrace, Program};
    pub use hbat_obs::{NullRecorder, Recorder, StallCause, TraceRecorder};
    pub use hbat_workloads::{Benchmark, RegBudget, Scale, Workload, WorkloadConfig};
}
