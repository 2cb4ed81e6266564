//! One-level dispatch: the flat [`Opcode`] of a predecoded instruction
//! and the one `match` that executes it.
//!
//! An opcode names a handler together with everything that would
//! otherwise be dispatched on a second time: the ALU, FP or branch
//! sub-operation, the addressing mode and the access width. So
//! `Machine::execute` runs one jump-table dispatch per instruction, and
//! each arm runs straight-line code: `AluOp::apply`, `Cond::holds` and
//! `FpuOp::apply` are called on constants and fold away, and a load or
//! store arm moves a constant number of bytes through the memory's chunk
//! memo.
//!
//! The arms are stamped out by the `opcodes!` macro from one table, which also
//! generates the predecode mapping ([`Opcode::of`]) and its inverse
//! ([`DecodedInst::reencode`]), so the three cannot disagree about a
//! form.

use hbat_core::addr::VirtAddr;

use crate::executor::{read, write, Regs};
use crate::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
use crate::mem::Memory;
use crate::uop::{AddrKind, DecodedInst};

/// What an executed instruction did to control flow, beyond running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// A memory access at this effective address; falls through.
    Mem(u64),
    /// A conditional branch that was taken.
    Taken,
    /// An unconditional jump.
    Jump,
    /// `Halt`: the instruction retires nothing.
    Halt,
}

// hbat-lint: hot — the bodies of the executor's per-instruction arms

/// Effective address under addressing mode `M` (an [`AddrKind`] as
/// `u8`).
#[inline(always)]
fn ea<const M: u8>(regs: &Regs, di: &DecodedInst) -> u64 {
    let base = read(regs, di.a) as u64;
    if M == AddrKind::BaseOffset as u8 {
        base.wrapping_add(di.imm as u64)
    } else if M == AddrKind::BaseIndex as u8 {
        base.wrapping_add(read(regs, di.b) as u64)
    } else {
        base
    }
}

/// The post-increment base writeback, after the access (and after a
/// load's destination write: the base wins when `d == base`).
#[inline(always)]
fn post_inc<const M: u8>(regs: &mut Regs, di: &DecodedInst) {
    if M == AddrKind::PostInc as u8 {
        let nv = read(regs, di.a).wrapping_add(di.imm);
        write(regs, di.a, nv);
    }
}

/// An `N`-byte load under mode `M`: zero-extended into an integer
/// register, raw bits into an FP one.
#[inline(always)]
fn load<const M: u8, const N: usize>(regs: &mut Regs, mem: &mut Memory, di: &DecodedInst) -> Flow {
    debug_assert!(!di.d.is_fp() || N == 8, "FP loads are 8 bytes");
    let ea = ea::<M>(regs, di);
    write(regs, di.d, mem.load::<N>(VirtAddr(ea)) as i64);
    post_inc::<M>(regs, di);
    Flow::Mem(ea)
}

/// An `N`-byte store under mode `M`.
#[inline(always)]
fn store<const M: u8, const N: usize>(regs: &mut Regs, mem: &mut Memory, di: &DecodedInst) -> Flow {
    debug_assert!(!di.d.is_fp() || N == 8, "FP stores are 8 bytes");
    let ea = ea::<M>(regs, di);
    mem.store::<N>(VirtAddr(ea), read(regs, di.d) as u64);
    post_inc::<M>(regs, di);
    Flow::Mem(ea)
}

// hbat-lint: cold

/// The addressing mode of a predecoded memory instruction, rebuilt from
/// its flattened operands.
fn addr_mode(kind: AddrKind, di: &DecodedInst) -> AddrMode {
    match kind {
        AddrKind::BaseOffset => AddrMode::BaseOffset {
            base: di.a,
            offset: di.imm as i32,
        },
        AddrKind::BaseIndex => AddrMode::BaseIndex {
            base: di.a,
            index: di.b,
        },
        AddrKind::PostInc => AddrMode::PostInc {
            base: di.a,
            step: di.imm as i32,
        },
    }
}

/// Stamps out, from one table of ALU, FP, branch and memory forms, the
/// [`Opcode`] enum, its predecode mapping, the inverse mapping, and the
/// executor's one dispatch over it. A memory row names an addressing
/// mode and its load and store opcodes for widths 1, 2, 4 and 8 bytes.
macro_rules! opcodes {
    (
        alu { $($alu:ident => $rr:ident, $ri:ident;)* }
        fpu { $($fpu:ident => $f:ident;)* }
        branch { $($cond:ident => $br:ident;)* }
        mem {
            $($mode:ident =>
                $ld1:ident $ld2:ident $ld4:ident $ld8:ident,
                $st1:ident $st2:ident $st4:ident $st8:ident;)*
        }
    ) => {
        /// One predecoded static instruction's complete dispatch key:
        /// the handler together with its ALU, FP or branch sub-operation,
        /// or a memory access's addressing mode and width. `RR`/`RI` are
        /// the register and immediate ALU forms, and `Off`/`Idx`/`Post`
        /// the base+offset, base+index and post-increment modes.
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Opcode {
            Nop,
            Halt,
            Li,
            Mul,
            Div,
            Jump,
            $($rr, $ri,)*
            $($f,)*
            $($br,)*
            $($ld1, $ld2, $ld4, $ld8, $st1, $st2, $st4, $st8,)*
        }

        impl Opcode {
            /// The opcode of a static instruction.
            pub fn of(inst: Inst) -> Opcode {
                match inst {
                    Inst::Nop => Opcode::Nop,
                    Inst::Halt => Opcode::Halt,
                    Inst::Li { .. } => Opcode::Li,
                    Inst::Mul { .. } => Opcode::Mul,
                    Inst::Div { .. } => Opcode::Div,
                    Inst::Jump { .. } => Opcode::Jump,
                    $(
                        Inst::Alu { op: AluOp::$alu, b: Operand::Reg(_), .. } => Opcode::$rr,
                        Inst::Alu { op: AluOp::$alu, b: Operand::Imm(_), .. } => Opcode::$ri,
                    )*
                    $(Inst::Fpu { op: FpuOp::$fpu, .. } => Opcode::$f,)*
                    $(Inst::Branch { cond: Cond::$cond, .. } => Opcode::$br,)*
                    $(
                        Inst::Load { addr: AddrMode::$mode { .. }, width, .. } => match width {
                            Width::B1 => Opcode::$ld1,
                            Width::B2 => Opcode::$ld2,
                            Width::B4 => Opcode::$ld4,
                            Width::B8 => Opcode::$ld8,
                        },
                        Inst::Store { addr: AddrMode::$mode { .. }, width, .. } => match width {
                            Width::B1 => Opcode::$st1,
                            Width::B2 => Opcode::$st2,
                            Width::B4 => Opcode::$st4,
                            Width::B8 => Opcode::$st8,
                        },
                    )*
                }
            }
        }

        impl DecodedInst {
            /// Reconstructs the original [`Inst`] byte-for-byte (the
            /// round-trip regression gate: predecode must be lossless for
            /// every form).
            pub fn reencode(&self) -> Inst {
                let (d, a, b, target) = (self.d, self.a, self.b, self.template.target);
                match self.op {
                    Opcode::Nop => Inst::Nop,
                    Opcode::Halt => Inst::Halt,
                    Opcode::Li => Inst::Li { d, imm: self.imm },
                    Opcode::Mul => Inst::Mul { d, a, b },
                    Opcode::Div => Inst::Div { d, a, b },
                    Opcode::Jump => Inst::Jump { target },
                    $(
                        Opcode::$rr => Inst::Alu { op: AluOp::$alu, d, a, b: Operand::Reg(b) },
                        Opcode::$ri => Inst::Alu {
                            op: AluOp::$alu,
                            d,
                            a,
                            b: Operand::Imm(self.imm as i32),
                        },
                    )*
                    $(Opcode::$f => Inst::Fpu { op: FpuOp::$fpu, d, a, b },)*
                    $(Opcode::$br => Inst::Branch { cond: Cond::$cond, a, b, target },)*
                    $(
                        Opcode::$ld1 | Opcode::$ld2 | Opcode::$ld4 | Opcode::$ld8 => Inst::Load {
                            d,
                            addr: addr_mode(AddrKind::$mode, self),
                            width: self.template.width,
                        },
                        Opcode::$st1 | Opcode::$st2 | Opcode::$st4 | Opcode::$st8 => Inst::Store {
                            s: d,
                            addr: addr_mode(AddrKind::$mode, self),
                            width: self.template.width,
                        },
                    )*
                }
            }
        }

        // hbat-lint: hot — the executor's one dispatch, once per instruction
        /// Executes one predecoded instruction on the register file and
        /// memory, and says where control goes.
        #[inline(always)]
        pub(crate) fn step(di: &DecodedInst, regs: &mut Regs, mem: &mut Memory) -> Flow {
            match di.op {
                Opcode::Nop => Flow::Next,
                Opcode::Halt => Flow::Halt,
                Opcode::Li => {
                    write(regs, di.d, di.imm);
                    Flow::Next
                }
                Opcode::Mul => {
                    let v = read(regs, di.a).wrapping_mul(read(regs, di.b));
                    write(regs, di.d, v);
                    Flow::Next
                }
                Opcode::Div => {
                    let bv = read(regs, di.b);
                    let v = if bv == 0 { 0 } else { read(regs, di.a).wrapping_div(bv) };
                    write(regs, di.d, v);
                    Flow::Next
                }
                Opcode::Jump => Flow::Jump,
                $(
                    Opcode::$rr => {
                        let v = AluOp::$alu.apply(read(regs, di.a), read(regs, di.b));
                        write(regs, di.d, v);
                        Flow::Next
                    }
                    Opcode::$ri => {
                        let v = AluOp::$alu.apply(read(regs, di.a), di.imm);
                        write(regs, di.d, v);
                        Flow::Next
                    }
                )*
                $(
                    Opcode::$f => {
                        debug_assert!(di.d.is_fp() && di.a.is_fp() && di.b.is_fp());
                        let f = |r| f64::from_bits(read(regs, r) as u64);
                        let v = FpuOp::$fpu.apply(f(di.a), f(di.b));
                        write(regs, di.d, v.to_bits() as i64);
                        Flow::Next
                    }
                )*
                $(
                    Opcode::$br => {
                        if Cond::$cond.holds(read(regs, di.a), read(regs, di.b)) {
                            Flow::Taken
                        } else {
                            Flow::Next
                        }
                    }
                )*
                $(
                    Opcode::$ld1 => load::<{ AddrKind::$mode as u8 }, 1>(regs, mem, di),
                    Opcode::$ld2 => load::<{ AddrKind::$mode as u8 }, 2>(regs, mem, di),
                    Opcode::$ld4 => load::<{ AddrKind::$mode as u8 }, 4>(regs, mem, di),
                    Opcode::$ld8 => load::<{ AddrKind::$mode as u8 }, 8>(regs, mem, di),
                    Opcode::$st1 => store::<{ AddrKind::$mode as u8 }, 1>(regs, mem, di),
                    Opcode::$st2 => store::<{ AddrKind::$mode as u8 }, 2>(regs, mem, di),
                    Opcode::$st4 => store::<{ AddrKind::$mode as u8 }, 4>(regs, mem, di),
                    Opcode::$st8 => store::<{ AddrKind::$mode as u8 }, 8>(regs, mem, di),
                )*
            }
        }
        // hbat-lint: cold
    };
}

opcodes! {
    alu {
        Add => AddRR, AddRI;
        Sub => SubRR, SubRI;
        And => AndRR, AndRI;
        Or => OrRR, OrRI;
        Xor => XorRR, XorRI;
        Sll => SllRR, SllRI;
        Srl => SrlRR, SrlRI;
        Sra => SraRR, SraRI;
        Slt => SltRR, SltRI;
    }
    fpu {
        Add => FAdd;
        Sub => FSub;
        Mul => FMul;
        Div => FDiv;
    }
    branch {
        Eq => BEq;
        Ne => BNe;
        Lt => BLt;
        Ge => BGe;
        Le => BLe;
        Gt => BGt;
    }
    mem {
        BaseOffset => LoadOff1 LoadOff2 LoadOff4 LoadOff8, StoreOff1 StoreOff2 StoreOff4 StoreOff8;
        BaseIndex => LoadIdx1 LoadIdx2 LoadIdx4 LoadIdx8, StoreIdx1 StoreIdx2 StoreIdx4 StoreIdx8;
        PostInc => LoadPost1 LoadPost2 LoadPost4 LoadPost8, StorePost1 StorePost2 StorePost4 StorePost8;
    }
}
