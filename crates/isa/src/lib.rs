//! # hbat-isa — the simulated instruction set and functional executor
//!
//! The paper evaluates its TLB designs on an extended (virtual) MIPS-like
//! architecture: a MIPS-I superset with register+register and
//! post-increment/decrement addressing modes and no architected delay
//! slots (Section 4.1). This crate provides:
//!
//! * [`inst`] / [`reg`] / [`program`] — the static instruction set;
//! * [`mem`] — sparse, zero-filled functional memory;
//! * [`executor`] — an architecturally exact interpreter emitting the
//!   [`uop`] micro-ops the cycle-timing models in `hbat-cpu` consume;
//! * [`tape`] — [`Tape`], a stored trace as the program's micro-op
//!   templates plus 12 bytes per retired op;
//! * [`trace`] — [`TraceInst`], the `Option`-shaped view of a micro-op.
//!
//! ## Example: run a tiny loop to micro-ops
//!
//! ```
//! use hbat_isa::executor::Machine;
//! use hbat_isa::inst::{AluOp, Cond, Inst, Operand};
//! use hbat_isa::program::Program;
//! use hbat_isa::reg::Reg;
//!
//! let program = Program::new(vec![
//!     Inst::Li { d: Reg::int(1), imm: 3 },
//!     Inst::Alu { op: AluOp::Sub, d: Reg::int(1), a: Reg::int(1), b: Operand::Imm(1) },
//!     Inst::Branch { cond: Cond::Gt, a: Reg::int(1), b: Reg::ZERO, target: 1 },
//!     Inst::Halt,
//! ])?;
//! let uops = Machine::new(program).run_to_uops(1_000);
//! assert_eq!(uops.len(), 1 + 3 * 2); // li + three (sub, branch) pairs
//! # Ok::<(), hbat_isa::program::ProgramError>(())
//! ```

pub mod executor;
pub mod inst;
pub mod mem;
pub mod program;
pub mod reg;
pub mod tape;
pub mod trace;
pub mod uop;

pub use executor::Machine;
pub use inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
pub use program::{Program, ProgramError};
pub use reg::Reg;
pub use tape::{Tape, TapeError, TapeReader};
pub use trace::{BranchRec, MemRef, OpClass, TraceInst};
pub use uop::{DecodedInst, MicroOp, PredecodedProgram, PredecodedTrace, NO_REG};
