//! # hbat-cpu — cycle-timing processor models
//!
//! The paper's baseline simulator (Table 1) rebuilt in Rust: an 8-way
//! superscalar with a GAp branch predictor, 32 KB split caches, Table-1
//! functional units, and either out-of-order issue (64-entry ROB,
//! 32-entry load/store queue) or in-order issue with stall-on-hazard.
//!
//! The simulator is trace-driven: the functional executor in `hbat-isa`
//! produces the committed-path dynamic trace, predecoded once into flat
//! `MicroOp` records, and [`simulate_uops`] replays it against any
//! address-translation design from `hbat-core`, measuring how
//! translation bandwidth and latency shape IPC.
//!
//! ```
//! use hbat_core::designs::spec::DesignSpec;
//! use hbat_core::PageGeometry;
//! use hbat_cpu::{simulate_uops, SimConfig};
//! use hbat_isa::uop::PredecodedTrace;
//! use hbat_isa::{Inst, Machine, Program, Reg};
//! use hbat_isa::inst::{AddrMode, Width};
//!
//! let program = Program::new(vec![
//!     Inst::Li { d: Reg::int(1), imm: 0x1000 },
//!     Inst::Load {
//!         d: Reg::int(2),
//!         addr: AddrMode::BaseOffset { base: Reg::int(1), offset: 0 },
//!         width: Width::B8,
//!     },
//!     Inst::Halt,
//! ])?;
//! let uops = PredecodedTrace::predecode(&Machine::new(program).run_to_vec(100));
//! let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
//! let metrics = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
//! assert_eq!(metrics.committed, 2);
//! # Ok::<(), hbat_isa::ProgramError>(())
//! ```

pub mod bpred;
pub mod config;
pub mod engine;
pub mod fu;
pub mod metrics;
pub mod warm;

pub use bpred::BranchPredictor;
pub use config::{IssueModel, SimConfig};
pub use metrics::RunMetrics;
pub use warm::{WarmAccumulator, WarmExport, WarmState};

use hbat_core::translator::AddressTranslator;
use hbat_isa::uop::MicroOp;

/// Replays the predecoded micro-op trace `uops` (see
/// `hbat_isa::uop::PredecodedTrace`) on the machine described by `cfg`,
/// translating data addresses through `translator`, and returns the run
/// metrics. The hot loop reads flat fixed-size records, and the
/// predecode cost is paid once per workload rather than once per design
/// cell.
pub fn simulate_uops(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
) -> RunMetrics {
    simulate_uops_with_recorder(cfg, uops, translator, hbat_obs::NullRecorder)
}

/// Like [`simulate_uops`], but reporting cycle-level observations to
/// `rec` (see `hbat-obs`). Pass the recorder by `&mut` to inspect it
/// after the run; enabling one never changes the returned metrics.
///
/// ```
/// # use hbat_core::designs::spec::DesignSpec;
/// # use hbat_core::PageGeometry;
/// # use hbat_cpu::{simulate_uops_with_recorder, SimConfig};
/// # use hbat_isa::uop::PredecodedTrace;
/// # use hbat_isa::{Inst, Machine, Program, Reg};
/// use hbat_obs::TraceRecorder;
///
/// # let program = Program::new(vec![
/// #     Inst::Li { d: Reg::int(1), imm: 0x1000 },
/// #     Inst::Halt,
/// # ])?;
/// # let uops = PredecodedTrace::predecode(&Machine::new(program).run_to_vec(100));
/// # let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
/// let mut rec = TraceRecorder::new();
/// let metrics = simulate_uops_with_recorder(&SimConfig::baseline(), &uops, tlb.as_mut(), &mut rec);
/// assert_eq!(rec.cycles(), metrics.cycles);
/// # Ok::<(), hbat_isa::ProgramError>(())
/// ```
pub fn simulate_uops_with_recorder<R: hbat_obs::Recorder>(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
    rec: R,
) -> RunMetrics {
    engine::Engine::with_recorder(cfg, uops, translator, rec).run()
}

/// Like [`simulate_uops_with_recorder`], but installing checkpointed
/// warm state (TLB entries, cache blocks, branch-predictor tables — see
/// [`warm`]) before the detailed run starts. Passing an empty
/// [`WarmState`] is equivalent to [`simulate_uops_with_recorder`].
pub fn simulate_uops_warm_with_recorder<R: hbat_obs::Recorder>(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
    warm: &WarmState,
    rec: R,
) -> RunMetrics {
    let mut e = engine::Engine::with_recorder(cfg, uops, translator, rec);
    e.install_warm(warm);
    e.run()
}
