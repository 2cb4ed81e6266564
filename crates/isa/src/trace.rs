//! Dynamic trace records: the `Option`-shaped view of a micro-op
//! ([`MicroOp::decode`](crate::uop::MicroOp::decode)) that the trace
//! analyses and the on-disk trace file read.
//!
//! A [`TraceInst`] carries exactly the information the cycle-timing models
//! need — register dependences for scheduling, the effective address and
//! address-generation registers for translation (and pretranslation), and
//! the resolved branch outcome for driving the branch predictor.

use hbat_core::addr::VirtAddr;
use hbat_core::request::{AccessKind, WritebackKind};

use crate::inst::Width;
use crate::reg::Reg;

/// Functional-unit class of a dynamic instruction (Table 1's unit pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU (latency 1, pipelined).
    IntAlu,
    /// Integer multiply (latency 3, pipelined).
    IntMul,
    /// Integer divide (latency 12, non-pipelined).
    IntDiv,
    /// FP add/sub (latency 2, pipelined).
    FpAdd,
    /// FP multiply (latency 4, pipelined).
    FpMul,
    /// FP divide (latency 12, non-pipelined).
    FpDiv,
    /// Load (latency 2, pipelined; address translation applies).
    Load,
    /// Store (address translation applies; value written at commit).
    Store,
    /// Conditional branch or unconditional jump (integer ALU timing).
    Branch,
}

impl OpClass {
    /// True for memory operations needing address translation.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Memory behaviour of a dynamic load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Effective virtual address.
    pub vaddr: VirtAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// Width of the access in bytes.
    pub width: Width,
    /// Base register used in address generation (pretranslation tag).
    pub base_reg: Reg,
    /// Index register, for register+register addressing.
    pub index_reg: Option<Reg>,
    /// Immediate displacement used in address generation.
    pub offset: i32,
}

/// Resolved control behaviour of a dynamic branch or jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRec {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Instruction index control transfers to if taken.
    pub target: u32,
    /// False for unconditional jumps.
    pub conditional: bool,
}

/// One dynamic (committed-path) instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceInst {
    /// Program-order serial number, from 0.
    pub serial: u64,
    /// Static instruction index (the "PC" in instruction slots).
    pub pc: u32,
    /// Functional-unit class.
    pub class: OpClass,
    /// Source registers read (hardwired zero excluded).
    pub srcs: [Option<Reg>; 3],
    /// Primary destination register, if any.
    pub dest: Option<Reg>,
    /// How `dest`'s value relates to its sources, for pretranslation
    /// propagation.
    pub dest_kind: WritebackKind,
    /// Post-increment base-register writeback, if any (always pointer
    /// arithmetic).
    pub aux_dest: Option<Reg>,
    /// Memory behaviour, for loads and stores.
    pub mem: Option<MemRef>,
    /// Control behaviour, for branches and jumps.
    pub branch: Option<BranchRec>,
}

impl TraceInst {
    /// A blank record for `serial`/`pc` to be filled in by the executor.
    pub fn blank(serial: u64, pc: u32, class: OpClass) -> Self {
        TraceInst {
            serial,
            pc,
            class,
            srcs: [None; 3],
            dest: None,
            dest_kind: WritebackKind::Opaque,
            aux_dest: None,
            mem: None,
            branch: None,
        }
    }

    /// Iterates over the source registers that are present.
    pub fn src_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Iterates over all written registers (primary and auxiliary).
    pub fn dest_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.dest.iter().chain(self.aux_dest.iter()).copied()
    }

    /// True if this instruction accesses data memory.
    pub fn is_mem(&self) -> bool {
        self.mem.is_some()
    }

    /// True if this instruction is a (conditional) branch.
    pub fn is_conditional_branch(&self) -> bool {
        self.branch.map(|b| b.conditional).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_record_is_empty() {
        let t = TraceInst::blank(5, 10, OpClass::IntAlu);
        assert_eq!(t.serial, 5);
        assert_eq!(t.pc, 10);
        assert_eq!(t.src_regs().count(), 0);
        assert_eq!(t.dest_regs().count(), 0);
        assert!(!t.is_mem());
        assert!(!t.is_conditional_branch());
    }

    #[test]
    fn register_iterators() {
        let mut t = TraceInst::blank(0, 0, OpClass::Load);
        t.srcs = [Some(Reg::int(1)), None, Some(Reg::int(2))];
        t.dest = Some(Reg::int(3));
        t.aux_dest = Some(Reg::int(1));
        assert_eq!(
            t.src_regs().collect::<Vec<_>>(),
            vec![Reg::int(1), Reg::int(2)]
        );
        assert_eq!(
            t.dest_regs().collect::<Vec<_>>(),
            vec![Reg::int(3), Reg::int(1)]
        );
    }

    #[test]
    fn class_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::FpMul.is_mem());
    }
}
