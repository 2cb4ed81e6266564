//! # hbat-cpu — cycle-timing processor models
//!
//! The paper's baseline simulator (Table 1) rebuilt in Rust: an 8-way
//! superscalar with a GAp branch predictor, 32 KB split caches, Table-1
//! functional units, and either out-of-order issue (64-entry ROB,
//! 32-entry load/store queue) or in-order issue with stall-on-hazard.
//!
//! The [`engine::Engine`] times the committed-path op stream of the
//! functional executor in `hbat-isa` against any address-translation
//! design from `hbat-core`, measuring how translation bandwidth and
//! latency shape IPC. The stream is any `OpSource`: a `Machine`
//! executing the program as the engine fetches, a stored `Tape` played
//! back through its reader, or flat `MicroOp` records
//! (`Machine::run_to_uops`), which [`simulate_uops`] and its variants
//! take. The engine holds only a fetch window of the stream.
//!
//! ```
//! use hbat_core::designs::spec::DesignSpec;
//! use hbat_core::PageGeometry;
//! use hbat_cpu::{simulate_uops, SimConfig};
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
//! let uops = Machine::new(program).run_to_uops(100);
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
/// metrics.
///
/// # Panics
///
/// If the serials of `uops` are not contiguous: the engine's fetch
/// window keeps them as a tape.
pub fn simulate_uops(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
) -> RunMetrics {
    simulate_uops_with_recorder(cfg, uops, translator, hbat_obs::NullRecorder)
}

/// Like [`simulate_uops`], but reporting cycle-level observations to
/// `rec` (see `hbat-obs`). Pass the recorder by `&mut` to inspect it
/// after the run. Enabling a recorder never changes the returned
/// metrics, unless it [`finished`](hbat_obs::Recorder::finished) early:
/// the run then ends there and reports the cycles and commits it
/// simulated.
///
/// ```
/// # use hbat_core::designs::spec::DesignSpec;
/// # use hbat_core::PageGeometry;
/// # use hbat_cpu::{simulate_uops_with_recorder, SimConfig};
/// # use hbat_isa::{Inst, Machine, Program, Reg};
/// use hbat_obs::TraceRecorder;
///
/// # let program = Program::new(vec![
/// #     Inst::Li { d: Reg::int(1), imm: 0x1000 },
/// #     Inst::Halt,
/// # ])?;
/// # let uops = Machine::new(program).run_to_uops(100);
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
    let cold = WarmAccumulator::new(cfg, translator.geometry()).warm_state();
    simulate_uops_warm_with_recorder(cfg, uops, translator, &cold, rec)
}

/// Like [`simulate_uops_with_recorder`], but starting from warm state
/// (page mappings, TLB entries, cache blocks, branch-predictor tables —
/// see [`warm`]) captured at a checkpoint boundary or a sampled
/// window's start. Every run starts from a [`WarmState`]: the one of an
/// accumulator that has seen nothing is the cold start
/// [`simulate_uops_with_recorder`] installs.
pub fn simulate_uops_warm_with_recorder<R: hbat_obs::Recorder>(
    cfg: &SimConfig,
    uops: &[MicroOp],
    translator: &mut dyn AddressTranslator,
    warm: &WarmState,
    rec: R,
) -> RunMetrics {
    engine::Engine::new(cfg, uops, translator, warm, rec).run()
}
