//! Micro-ops: the one dynamic-instruction form, and the decode-once
//! static table that emits it, following the decode-once-into-struct +
//! table-dispatch idiom of interpreter-class emulators.
//!
//! * [`PredecodedProgram`] flattens the *static* program into
//!   [`DecodedInst`] records — a [`Handler`] index, pre-extracted
//!   operands and a prebuilt [`MicroOp`] template — so
//!   `Machine::execute` is an indexed table dispatch that hands its sink
//!   the template and the three fields that vary (serial, effective
//!   address, branch direction); a sink that keeps ops patches them into
//!   a copy. [`MicroOp::encode`] runs once per *static* instruction.
//! * [`MicroOp`] is the fixed-size record the timing engine scans:
//!   register codes as sentinel-coded bytes, the memory/branch records
//!   as plain fields behind a flags byte, and the address-generation
//!   source mask precomputed, so the engine's scheduling scans read flat
//!   words with zero `Option` chasing. [`PredecodedTrace`] is a
//!   workload's micro-ops in program order (`Machine::run_to_uops`).
//!
//! [`TraceInst`] is a decode view derived with [`MicroOp::decode`]; the
//! predecoder builds each template from one. Both predecoded forms are
//! lossless: [`MicroOp::decode`] reproduces a [`TraceInst`] that
//! [`MicroOp::encode`] maps back byte-for-byte, and
//! [`DecodedInst::reencode`] reproduces the original [`Inst`], which is
//! what the round-trip regression tests pin (a newly added instruction
//! form that predecodes lossily fails at test time, not mid-simulation).

use hbat_core::addr::VirtAddr;
use hbat_core::request::{AccessKind, WritebackKind};

use crate::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
use crate::program::Program;
use crate::reg::Reg;
use crate::trace::{BranchRec, MemRef, OpClass, TraceInst};

/// Sentinel register code meaning "no register" in [`MicroOp`] fields
/// (real codes are 0–63; 0 is the hardwired zero register, which *is* a
/// valid base register).
pub const NO_REG: u8 = u8::MAX;

// ---- dynamic-trace micro-ops ---------------------------------------------

/// One predecoded dynamic instruction: a fixed-size, `Option`-free
/// mirror of [`TraceInst`] sized for the timing engine's per-cycle
/// scans. Absent registers are [`NO_REG`]; the memory and branch
/// records live behind [`MicroOp::flags`] bits instead of `Option`
/// discriminants; and `addr_src_mask` precomputes which source slots
/// feed address generation (the engine used to re-derive that from the
/// memory record on every wakeup check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// Program-order serial number.
    pub serial: u64,
    /// Effective virtual address (memory ops; 0 otherwise).
    pub vaddr: u64,
    /// Static instruction index.
    pub pc: u32,
    /// Branch target (branches; 0 otherwise).
    pub target: u32,
    /// Address-generation displacement (memory ops; 0 otherwise).
    pub offset: i32,
    /// Functional-unit class.
    pub class: OpClass,
    /// Presence/shape bits, see the `F_*` constants.
    pub flags: u8,
    /// Source register codes ([`NO_REG`] for empty slots).
    pub srcs: [u8; 3],
    /// Primary destination register code ([`NO_REG`] if none).
    pub dest: u8,
    /// Post-increment writeback register code ([`NO_REG`] if none).
    pub aux_dest: u8,
    /// Address-generation base register code (memory ops; [`NO_REG`]
    /// otherwise; 0 is the valid hardwired-zero base).
    pub base_reg: u8,
    /// Index register code (register+register mode; [`NO_REG`] otherwise).
    pub index_reg: u8,
    /// Access width (memory ops; arbitrary otherwise).
    pub width: Width,
    /// Bit `i` set ⇔ `srcs[i]` participates in address generation.
    pub addr_src_mask: u8,
}

// The whole point is a compact fixed-size record the scheduling scans
// stream through; fail loudly if a new field bloats it past one half of
// a cache line.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 40);

impl MicroOp {
    /// `flags`: the instruction accesses data memory.
    pub const F_MEM: u8 = 1 << 0;
    /// `flags`: the memory access is a store (`F_MEM` set).
    pub const F_STORE: u8 = 1 << 1;
    /// `flags`: the instruction has a branch record.
    pub const F_BRANCH: u8 = 1 << 2;
    /// `flags`: the branch was taken (`F_BRANCH` set).
    pub const F_BR_TAKEN: u8 = 1 << 3;
    /// `flags`: the branch is conditional (`F_BRANCH` set).
    pub const F_BR_COND: u8 = 1 << 4;
    /// `flags`: the destination writeback is pointer arithmetic.
    pub const F_DEST_PTR: u8 = 1 << 5;

    /// Encodes one trace record. Lossless: see [`MicroOp::decode`].
    /// Runs once per static instruction (the [`DecodedInst`] template)
    /// and in [`PredecodedTrace::predecode`]; no per-op path calls it.
    pub fn encode(t: &TraceInst) -> MicroOp {
        let mut flags = 0u8;
        if t.dest_kind == WritebackKind::PointerArith {
            flags |= Self::F_DEST_PTR;
        }
        let (vaddr, offset, base_reg, index_reg, width) = match t.mem {
            Some(m) => {
                flags |= Self::F_MEM;
                if m.kind == AccessKind::Store {
                    flags |= Self::F_STORE;
                }
                (
                    m.vaddr.0,
                    m.offset,
                    m.base_reg.code(),
                    m.index_reg.map_or(NO_REG, Reg::code),
                    m.width,
                )
            }
            None => (0, 0, NO_REG, NO_REG, Width::B1),
        };
        let target = match t.branch {
            Some(b) => {
                flags |= Self::F_BRANCH;
                if b.taken {
                    flags |= Self::F_BR_TAKEN;
                }
                if b.conditional {
                    flags |= Self::F_BR_COND;
                }
                b.target
            }
            None => 0,
        };
        let code_of = |r: Option<Reg>| r.map_or(NO_REG, Reg::code);
        let srcs = [code_of(t.srcs[0]), code_of(t.srcs[1]), code_of(t.srcs[2])];
        let mut addr_src_mask = 0u8;
        if let Some(m) = t.mem {
            for (i, src) in t.srcs.iter().enumerate() {
                if let Some(r) = src {
                    if *r == m.base_reg || m.index_reg == Some(*r) {
                        addr_src_mask |= 1 << i;
                    }
                }
            }
        }
        MicroOp {
            serial: t.serial,
            vaddr,
            pc: t.pc,
            target,
            offset,
            class: t.class,
            flags,
            srcs,
            dest: code_of(t.dest),
            aux_dest: code_of(t.aux_dest),
            base_reg,
            index_reg,
            width,
            addr_src_mask,
        }
    }

    /// Reconstructs the original [`TraceInst`] byte-for-byte.
    pub fn decode(&self) -> TraceInst {
        let reg_of = |code: u8| (code != NO_REG).then(|| Reg::from_code(code));
        TraceInst {
            serial: self.serial,
            pc: self.pc,
            class: self.class,
            srcs: [
                reg_of(self.srcs[0]),
                reg_of(self.srcs[1]),
                reg_of(self.srcs[2]),
            ],
            dest: reg_of(self.dest),
            dest_kind: if self.flags & Self::F_DEST_PTR != 0 {
                WritebackKind::PointerArith
            } else {
                WritebackKind::Opaque
            },
            aux_dest: reg_of(self.aux_dest),
            mem: (self.flags & Self::F_MEM != 0).then(|| MemRef {
                vaddr: VirtAddr(self.vaddr),
                kind: if self.flags & Self::F_STORE != 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                width: self.width,
                base_reg: Reg::from_code(self.base_reg),
                index_reg: reg_of(self.index_reg),
                offset: self.offset,
            }),
            branch: (self.flags & Self::F_BRANCH != 0).then_some(BranchRec {
                taken: self.flags & Self::F_BR_TAKEN != 0,
                target: self.target,
                conditional: self.flags & Self::F_BR_COND != 0,
            }),
        }
    }

    /// The static instruction's part of this op: the op with its
    /// dynamic fields (serial, effective address, taken bit) cleared.
    /// Ops of one static instruction share it; a [`Tape`](crate::tape::Tape)
    /// stores it once as their template.
    #[inline]
    pub fn static_part(&self) -> MicroOp {
        MicroOp {
            serial: 0,
            vaddr: 0,
            flags: self.flags & !Self::F_BR_TAKEN,
            ..*self
        }
    }

    // hbat-lint: hot — MicroOp accessors run inside the engine's per-cycle scans
    /// True if this instruction accesses data memory.
    #[inline(always)]
    pub fn is_mem(&self) -> bool {
        self.flags & Self::F_MEM != 0
    }

    /// Load or store (memory ops only; `Load` otherwise).
    #[inline(always)]
    pub fn mem_kind(&self) -> AccessKind {
        if self.flags & Self::F_STORE != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        }
    }

    /// Destination writeback kind.
    #[inline(always)]
    pub fn dest_kind(&self) -> WritebackKind {
        if self.flags & Self::F_DEST_PTR != 0 {
            WritebackKind::PointerArith
        } else {
            WritebackKind::Opaque
        }
    }

    /// The branch record, if this instruction is a branch or jump.
    #[inline(always)]
    pub fn branch(&self) -> Option<BranchRec> {
        (self.flags & Self::F_BRANCH != 0).then_some(BranchRec {
            taken: self.flags & Self::F_BR_TAKEN != 0,
            target: self.target,
            conditional: self.flags & Self::F_BR_COND != 0,
        })
    }
    // hbat-lint: cold
}

/// A dynamic trace as a flat [`MicroOp`] array, collected once per
/// workload by `Machine::run_to_uops` and shared
/// (`Arc<PredecodedTrace>`) across every design cell that replays it.
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedTrace {
    ops: Box<[MicroOp]>,
}

impl From<Vec<MicroOp>> for PredecodedTrace {
    fn from(ops: Vec<MicroOp>) -> Self {
        PredecodedTrace { ops: ops.into() }
    }
}

impl PredecodedTrace {
    /// Encodes a decode-view trace (a hand-built trace in tests, or the
    /// benchmark harness's decoded rebuild); the executor emits
    /// micro-ops directly and never comes through here.
    pub fn predecode(trace: &[TraceInst]) -> PredecodedTrace {
        PredecodedTrace {
            ops: trace.iter().map(MicroOp::encode).collect(),
        }
    }

    /// The micro-ops, in program order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The [`TraceInst`] decode view of every op, in program order.
    pub fn decode(&self) -> Vec<TraceInst> {
        self.ops.iter().map(MicroOp::decode).collect()
    }
}

impl std::ops::Deref for PredecodedTrace {
    type Target = [MicroOp];
    fn deref(&self) -> &[MicroOp] {
        &self.ops
    }
}

// ---- static-program predecode --------------------------------------------

/// Semantic handler index of a predecoded static instruction: the
/// executor's dispatch table. One entry per distinct runtime behaviour
/// (register-register and register-immediate ALU forms dispatch
/// separately so the operand fetch is branch-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// No operation.
    Nop,
    /// Stop execution.
    Halt,
    /// `d = imm`.
    Li,
    /// `d = a <op> b` (register second operand).
    AluRR,
    /// `d = a <op> imm` (immediate second operand).
    AluRI,
    /// `d = a * b`.
    Mul,
    /// `d = a / b` (divide-by-zero yields 0).
    Div,
    /// Floating-point `d = a <op> b`.
    Fpu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump.
    Jump,
}

/// Flattened addressing-mode discriminant (the registers and the
/// displacement/step live in the [`DecodedInst`] operand fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrKind {
    /// `base + offset` (`imm` holds the displacement).
    BaseOffset,
    /// `base + index` (`b` holds the index register).
    BaseIndex,
    /// Effective address `base`; `base += imm` after the access.
    PostInc,
}

/// One predecoded static instruction: handler index, pre-extracted
/// operands, and a prebuilt [`MicroOp`] template whose static fields
/// (class, dependence lists, displacement, access width, branch target)
/// were encoded once at predecode time; the executor reads the width
/// and target from the template. Per dynamic instance the executor patches
/// only the serial number, the effective address, and the branch
/// direction.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// Prebuilt micro-op (`serial`, `vaddr`, and [`MicroOp::F_BR_TAKEN`]
    /// patched at run time).
    pub template: MicroOp,
    /// Semantic dispatch index.
    pub handler: Handler,
    /// ALU operation (`AluRR`/`AluRI`).
    pub alu: AluOp,
    /// FP operation (`Fpu`).
    pub fpu: FpuOp,
    /// Branch condition (`Branch`).
    pub cond: Cond,
    /// Addressing mode shape (`Load`/`Store`).
    pub mode: AddrKind,
    /// Destination register — or the store's source register.
    pub d: Reg,
    /// First source register — the base register for memory ops.
    pub a: Reg,
    /// Second source register — the index register for `BaseIndex`.
    pub b: Reg,
    /// Immediate: `Li` constant, `AluRI` operand, `BaseOffset`
    /// displacement, or `PostInc` step.
    pub imm: i64,
}

/// Source-dependence recording: registers deduplicate, the hardwired
/// zero register never appears.
fn push_src(t: &mut TraceInst, r: Reg) {
    if r.is_zero() {
        return;
    }
    for slot in &mut t.srcs {
        if slot.is_none() {
            *slot = Some(r);
            return;
        }
        if *slot == Some(r) {
            return;
        }
    }
}

/// Destination recording: writes to the zero register produce no
/// architectural destination.
fn set_dest(t: &mut TraceInst, r: Reg, kind: WritebackKind) {
    if !r.is_zero() {
        t.dest = Some(r);
        t.dest_kind = kind;
    }
}

impl DecodedInst {
    /// Predecodes one static instruction at index `pc`.
    pub fn from_inst(pc: u32, inst: Inst) -> DecodedInst {
        let mut t = TraceInst::blank(0, pc, OpClass::IntAlu);
        let mut di = DecodedInst {
            template: MicroOp::encode(&t),
            handler: Handler::Nop,
            alu: AluOp::Add,
            fpu: FpuOp::Add,
            cond: Cond::Eq,
            mode: AddrKind::BaseOffset,
            d: Reg::ZERO,
            a: Reg::ZERO,
            b: Reg::ZERO,
            imm: 0,
        };
        let t = &mut t;
        match inst {
            Inst::Halt => di.handler = Handler::Halt,
            Inst::Nop => di.handler = Handler::Nop,
            Inst::Li { d, imm } => {
                di.handler = Handler::Li;
                di.d = d;
                di.imm = imm;
                set_dest(t, d, WritebackKind::Opaque);
            }
            Inst::Alu { op, d, a, b } => {
                di.alu = op;
                di.d = d;
                di.a = a;
                push_src(t, a);
                match b {
                    Operand::Reg(r) => {
                        di.handler = Handler::AluRR;
                        di.b = r;
                        push_src(t, r);
                    }
                    Operand::Imm(i) => {
                        di.handler = Handler::AluRI;
                        di.imm = i as i64;
                    }
                }
                let kind = if op.is_pointer_arith() {
                    WritebackKind::PointerArith
                } else {
                    WritebackKind::Opaque
                };
                set_dest(t, d, kind);
            }
            Inst::Mul { d, a, b } => {
                di.handler = Handler::Mul;
                di.d = d;
                di.a = a;
                di.b = b;
                t.class = OpClass::IntMul;
                push_src(t, a);
                push_src(t, b);
                set_dest(t, d, WritebackKind::Opaque);
            }
            Inst::Div { d, a, b } => {
                di.handler = Handler::Div;
                di.d = d;
                di.a = a;
                di.b = b;
                t.class = OpClass::IntDiv;
                push_src(t, a);
                push_src(t, b);
                set_dest(t, d, WritebackKind::Opaque);
            }
            Inst::Fpu { op, d, a, b } => {
                di.handler = Handler::Fpu;
                di.fpu = op;
                di.d = d;
                di.a = a;
                di.b = b;
                t.class = match op {
                    FpuOp::Add | FpuOp::Sub => OpClass::FpAdd,
                    FpuOp::Mul => OpClass::FpMul,
                    FpuOp::Div => OpClass::FpDiv,
                };
                debug_assert!(d.is_fp() && a.is_fp() && b.is_fp());
                push_src(t, a);
                push_src(t, b);
                set_dest(t, d, WritebackKind::Opaque);
            }
            Inst::Load { d, addr, width } => {
                di.handler = Handler::Load;
                di.d = d;
                Self::decode_addr(&mut di, t, addr, width);
                t.class = OpClass::Load;
                set_dest(t, d, WritebackKind::Opaque);
            }
            Inst::Store { s, addr, width } => {
                di.handler = Handler::Store;
                di.d = s;
                push_src(t, s);
                Self::decode_addr(&mut di, t, addr, width);
                t.class = OpClass::Store;
            }
            Inst::Branch { cond, a, b, target } => {
                di.handler = Handler::Branch;
                di.cond = cond;
                di.a = a;
                di.b = b;
                t.class = OpClass::Branch;
                push_src(t, a);
                push_src(t, b);
                t.branch = Some(BranchRec {
                    taken: false, // patched per dynamic instance
                    target,
                    conditional: true,
                });
            }
            Inst::Jump { target } => {
                di.handler = Handler::Jump;
                t.class = OpClass::Branch;
                t.branch = Some(BranchRec {
                    taken: true,
                    target,
                    conditional: false,
                });
            }
        }
        di.template = MicroOp::encode(t);
        di
    }

    /// Flattens the addressing mode and builds the static part of the
    /// memory record (source-dependence order: base before index, after
    /// any store data register).
    fn decode_addr(di: &mut DecodedInst, t: &mut TraceInst, addr: AddrMode, width: Width) {
        let base = addr.base();
        di.a = base;
        push_src(t, base);
        let mut index_reg = None;
        match addr {
            AddrMode::BaseOffset { offset, .. } => {
                di.mode = AddrKind::BaseOffset;
                di.imm = offset as i64;
            }
            AddrMode::BaseIndex { index, .. } => {
                di.mode = AddrKind::BaseIndex;
                di.b = index;
                index_reg = Some(index);
                push_src(t, index);
            }
            AddrMode::PostInc { step, .. } => {
                di.mode = AddrKind::PostInc;
                di.imm = step as i64;
                if !base.is_zero() {
                    t.aux_dest = Some(base);
                }
            }
        }
        t.mem = Some(MemRef {
            vaddr: VirtAddr(0), // patched per dynamic instance
            kind: if di.handler == Handler::Store {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            width,
            base_reg: base,
            index_reg,
            offset: addr.displacement(),
        });
    }

    /// Reconstructs the addressing mode from the flattened operands.
    fn addr_mode(&self) -> AddrMode {
        match self.mode {
            AddrKind::BaseOffset => AddrMode::BaseOffset {
                base: self.a,
                offset: self.imm as i32,
            },
            AddrKind::BaseIndex => AddrMode::BaseIndex {
                base: self.a,
                index: self.b,
            },
            AddrKind::PostInc => AddrMode::PostInc {
                base: self.a,
                step: self.imm as i32,
            },
        }
    }

    /// Reconstructs the original [`Inst`] byte-for-byte (the round-trip
    /// regression gate: predecode must be lossless for every form).
    pub fn reencode(&self) -> Inst {
        match self.handler {
            Handler::Nop => Inst::Nop,
            Handler::Halt => Inst::Halt,
            Handler::Li => Inst::Li {
                d: self.d,
                imm: self.imm,
            },
            Handler::AluRR => Inst::Alu {
                op: self.alu,
                d: self.d,
                a: self.a,
                b: Operand::Reg(self.b),
            },
            Handler::AluRI => Inst::Alu {
                op: self.alu,
                d: self.d,
                a: self.a,
                b: Operand::Imm(self.imm as i32),
            },
            Handler::Mul => Inst::Mul {
                d: self.d,
                a: self.a,
                b: self.b,
            },
            Handler::Div => Inst::Div {
                d: self.d,
                a: self.a,
                b: self.b,
            },
            Handler::Fpu => Inst::Fpu {
                op: self.fpu,
                d: self.d,
                a: self.a,
                b: self.b,
            },
            Handler::Load => Inst::Load {
                d: self.d,
                addr: self.addr_mode(),
                width: self.template.width,
            },
            Handler::Store => Inst::Store {
                s: self.d,
                addr: self.addr_mode(),
                width: self.template.width,
            },
            Handler::Branch => Inst::Branch {
                cond: self.cond,
                a: self.a,
                b: self.b,
                target: self.template.target,
            },
            Handler::Jump => Inst::Jump {
                target: self.template.target,
            },
        }
    }
}

/// A static program predecoded into a flat [`DecodedInst`] table,
/// indexed by pc. Built once in `Machine::new`; this is where each
/// static instruction's [`MicroOp`] template is encoded.
#[derive(Debug, Clone)]
pub struct PredecodedProgram {
    code: Box<[DecodedInst]>,
}

impl PredecodedProgram {
    /// Predecodes every instruction of `program`.
    pub fn from_program(program: &Program) -> PredecodedProgram {
        PredecodedProgram {
            code: program
                .instructions()
                .iter()
                .enumerate()
                .map(|(pc, &inst)| DecodedInst::from_inst(pc as u32, inst))
                .collect(),
        }
    }

    /// The decoded instructions, by pc.
    pub fn code(&self) -> &[DecodedInst] {
        &self.code
    }

    /// Re-encodes the whole program (round-trip tests).
    pub fn reencode(&self) -> Vec<Inst> {
        self.code.iter().map(DecodedInst::reencode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_trace_inst() -> TraceInst {
        TraceInst {
            serial: 41,
            pc: 7,
            class: OpClass::Store,
            srcs: [Some(Reg::int(2)), Some(Reg::int(5)), Some(Reg::int(9))],
            dest: None,
            dest_kind: WritebackKind::Opaque,
            aux_dest: Some(Reg::int(5)),
            mem: Some(MemRef {
                vaddr: VirtAddr(0xdead_beef_0040),
                kind: AccessKind::Store,
                width: Width::B4,
                base_reg: Reg::int(5),
                index_reg: Some(Reg::int(9)),
                offset: -16,
            }),
            branch: None,
        }
    }

    #[test]
    fn micro_op_round_trips_a_memory_record() {
        let t = mem_trace_inst();
        let u = MicroOp::encode(&t);
        assert_eq!(u.decode(), t);
        assert!(u.is_mem());
        assert_eq!(u.mem_kind(), AccessKind::Store);
        // srcs[1] is the base, srcs[2] the index; srcs[0] is store data.
        assert_eq!(u.addr_src_mask, 0b110);
    }

    #[test]
    fn micro_op_round_trips_a_branch_record() {
        let mut t = TraceInst::blank(3, 12, OpClass::Branch);
        t.srcs = [Some(Reg::int(1)), None, None];
        t.branch = Some(BranchRec {
            taken: true,
            target: 4,
            conditional: true,
        });
        let u = MicroOp::encode(&t);
        assert_eq!(u.decode(), t);
        assert_eq!(u.branch(), t.branch);
        assert_eq!(u.addr_src_mask, 0, "non-memory ops have no address deps");
    }

    #[test]
    fn micro_op_keeps_zero_base_register_distinct_from_absent() {
        // Absolute addressing uses the hardwired zero base: code 0 must
        // survive, distinct from the NO_REG sentinel.
        let mut t = TraceInst::blank(0, 0, OpClass::Load);
        t.dest = Some(Reg::int(1));
        t.mem = Some(MemRef {
            vaddr: VirtAddr(0x80),
            kind: AccessKind::Load,
            width: Width::B8,
            base_reg: Reg::ZERO,
            index_reg: None,
            offset: 0x80,
        });
        let u = MicroOp::encode(&t);
        assert_eq!(u.base_reg, 0);
        assert_eq!(u.index_reg, NO_REG);
        assert_eq!(u.decode(), t);
    }

    #[test]
    fn micro_op_preserves_dest_kind_and_fp_codes() {
        let mut t = TraceInst::blank(9, 1, OpClass::IntAlu);
        t.srcs = [Some(Reg::fp(3)), None, None];
        t.dest = Some(Reg::fp(31));
        t.dest_kind = WritebackKind::PointerArith;
        let u = MicroOp::encode(&t);
        assert_eq!(u.dest, 63);
        assert_eq!(u.dest_kind(), WritebackKind::PointerArith);
        assert_eq!(u.decode(), t);
    }

    #[test]
    fn predecoded_trace_round_trips() {
        let mut b = TraceInst::blank(1, 2, OpClass::Branch);
        b.branch = Some(BranchRec {
            taken: false,
            target: 9,
            conditional: true,
        });
        let trace = vec![mem_trace_inst(), b, TraceInst::blank(2, 3, OpClass::FpMul)];
        let p = PredecodedTrace::predecode(&trace);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.decode(), trace);
        assert_eq!(p.ops()[0].serial, 41);
    }

    #[test]
    fn decoded_inst_reencodes_representative_forms() {
        let forms = [
            Inst::Nop,
            Inst::Halt,
            Inst::Li {
                d: Reg::int(1),
                imm: -7,
            },
            Inst::Alu {
                op: AluOp::Xor,
                d: Reg::int(2),
                a: Reg::int(3),
                b: Operand::Reg(Reg::int(4)),
            },
            Inst::Alu {
                op: AluOp::Add,
                d: Reg::int(2),
                a: Reg::int(3),
                b: Operand::Imm(-12),
            },
            Inst::Load {
                d: Reg::fp(1),
                addr: AddrMode::PostInc {
                    base: Reg::int(6),
                    step: -8,
                },
                width: Width::B8,
            },
            Inst::Store {
                s: Reg::int(7),
                addr: AddrMode::BaseIndex {
                    base: Reg::int(8),
                    index: Reg::int(9),
                },
                width: Width::B2,
            },
            Inst::Branch {
                cond: Cond::Le,
                a: Reg::int(1),
                b: Reg::int(2),
                target: 0,
            },
            Inst::Jump { target: 1 },
        ];
        for inst in forms {
            let di = DecodedInst::from_inst(0, inst);
            assert_eq!(di.reencode(), inst, "lossy predecode of {inst:?}");
        }
    }

    #[test]
    fn predecoded_program_matches_source_order() {
        let prog = Program::new(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 5,
            },
            Inst::Jump { target: 2 },
            Inst::Halt,
        ])
        .unwrap();
        let p = PredecodedProgram::from_program(&prog);
        assert_eq!(p.code().len(), 3);
        assert_eq!(p.reencode(), prog.instructions());
        assert_eq!(p.code()[1].template.pc, 1);
    }
}
