//! A structured program builder with named variables and a spilling
//! register assigner — the "compiler" of the workload suite.
//!
//! Workload generators write against *variables*; the builder assigns each
//! variable an architected register while any remain in the
//! [`RegBudget`], and a stack slot afterwards.
//! Uses of stack-resident variables emit reload loads, definitions emit
//! spill stores — exactly the traffic a compiler generates when it runs
//! out of registers, which is what Figure 9 of the paper measures (8 int /
//! 8 fp registers: up to 346 % more loads and stores, almost all of them
//! stack traffic with high locality).
//!
//! Reserved registers (as a real MIPS compiler would): `r0` hardwired
//! zero, `r1` stack pointer, `r2`–`r4` integer scratch for reloads, and
//! `f0`–`f1` floating-point scratch.

use hbat_isa::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
use hbat_isa::program::{Program, ProgramError};
use hbat_isa::reg::Reg;

use crate::config::RegBudget;
use crate::layout::STACK_BASE;

/// A named program variable (integer or floating-point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(u32);

/// A control-flow label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Right-hand operand: a variable or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rhs {
    /// Variable operand.
    Var(Var),
    /// Immediate operand.
    Imm(i32),
}

impl From<Var> for Rhs {
    fn from(v: Var) -> Self {
        Rhs::Var(v)
    }
}

impl From<i32> for Rhs {
    fn from(i: i32) -> Self {
        Rhs::Imm(i)
    }
}

#[derive(Debug, Clone, Copy)]
enum Storage {
    Reg(Reg),
    Stack(i32),
}

/// The program builder. See the module documentation.
#[derive(Debug)]
pub struct Builder {
    insts: Vec<Inst>,
    /// Instruction indices whose branch target is still a label id.
    patches: Vec<usize>,
    labels: Vec<Option<u32>>,
    vars: Vec<(Storage, bool)>, // (storage, is_fp)
    int_free: Vec<Reg>,
    fp_free: Vec<Reg>,
    next_slot: i32,
    /// Dedicated stack cell for int→fp transfers (fli, fp moves).
    transfer_slot: i32,
    spill_ops: u64,
    emitted_halt: bool,
    // reserved registers
    sp: Reg,
    iscratch: [Reg; 3],
    fscratch: [Reg; 2],
}

impl Builder {
    /// Creates a builder for the given register budget and emits the
    /// stack-pointer prologue.
    ///
    /// # Panics
    ///
    /// Panics if the budget is smaller than the reserved set
    /// (5 integer / 2 floating-point registers).
    pub fn new(budget: RegBudget) -> Self {
        assert!(
            budget.int >= 6 && budget.fp >= 3,
            "budget too small: need ≥6 int and ≥3 fp registers"
        );
        assert!(
            budget.int <= 32 && budget.fp <= 32,
            "budget exceeds the architecture"
        );
        let sp = Reg::int(1);
        let iscratch = [Reg::int(2), Reg::int(3), Reg::int(4)];
        let fscratch = [Reg::fp(0), Reg::fp(1)];
        // Allocate variable registers low-to-high so declaration order is
        // the assignment priority.
        let int_free: Vec<Reg> = (5..budget.int as u8).rev().map(Reg::int).collect();
        let fp_free: Vec<Reg> = (2..budget.fp as u8).rev().map(Reg::fp).collect();
        let mut b = Builder {
            insts: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
            vars: Vec::new(),
            int_free,
            fp_free,
            next_slot: 8,
            transfer_slot: 0,
            spill_ops: 0,
            emitted_halt: false,
            sp,
            iscratch,
            fscratch,
        };
        b.insts.push(Inst::Li {
            d: sp,
            imm: STACK_BASE as i64,
        });
        b
    }

    /// Declares an integer variable. Earlier declarations get registers
    /// first; once the budget is exhausted, variables live on the stack.
    pub fn ivar(&mut self, _name: &str) -> Var {
        let storage = match self.int_free.pop() {
            Some(r) => Storage::Reg(r),
            None => {
                let s = Storage::Stack(self.next_slot);
                self.next_slot += 8;
                s
            }
        };
        self.vars.push((storage, false));
        Var(self.vars.len() as u32 - 1)
    }

    /// Declares a floating-point variable.
    pub fn fvar(&mut self, _name: &str) -> Var {
        let storage = match self.fp_free.pop() {
            Some(r) => Storage::Reg(r),
            None => {
                let s = Storage::Stack(self.next_slot);
                self.next_slot += 8;
                s
            }
        };
        self.vars.push((storage, true));
        Var(self.vars.len() as u32 - 1)
    }

    /// Number of spill/reload memory operations emitted so far (static
    /// count; a spill inside a loop executes many times).
    pub fn spill_ops(&self) -> u64 {
        self.spill_ops
    }

    fn storage(&self, v: Var) -> Storage {
        self.vars[v.0 as usize].0
    }

    fn is_fp(&self, v: Var) -> bool {
        self.vars[v.0 as usize].1
    }

    /// Materialises an integer variable into a register (scratch index
    /// `which` if stack-resident).
    fn read_int(&mut self, v: Var, which: usize) -> Reg {
        assert!(!self.is_fp(v), "integer use of an fp variable");
        match self.storage(v) {
            Storage::Reg(r) => r,
            Storage::Stack(off) => {
                let s = self.iscratch[which];
                self.insts.push(Inst::Load {
                    d: s,
                    addr: AddrMode::BaseOffset {
                        base: self.sp,
                        offset: off,
                    },
                    width: Width::B8,
                });
                self.spill_ops += 1;
                s
            }
        }
    }

    fn read_fp(&mut self, v: Var, which: usize) -> Reg {
        assert!(self.is_fp(v), "fp use of an integer variable");
        match self.storage(v) {
            Storage::Reg(r) => r,
            Storage::Stack(off) => {
                let s = self.fscratch[which];
                self.insts.push(Inst::Load {
                    d: s,
                    addr: AddrMode::BaseOffset {
                        base: self.sp,
                        offset: off,
                    },
                    width: Width::B8,
                });
                self.spill_ops += 1;
                s
            }
        }
    }

    /// Register a definition should compute into, plus the spill store to
    /// emit afterwards if the variable is stack-resident.
    fn def_target(&mut self, v: Var) -> (Reg, Option<i32>) {
        let fp = self.is_fp(v);
        match self.storage(v) {
            Storage::Reg(r) => (r, None),
            Storage::Stack(off) => {
                let s = if fp {
                    self.fscratch[0]
                } else {
                    self.iscratch[0]
                };
                (s, Some(off))
            }
        }
    }

    fn finish_def(&mut self, target: Reg, slot: Option<i32>) {
        if let Some(off) = slot {
            self.insts.push(Inst::Store {
                s: target,
                addr: AddrMode::BaseOffset {
                    base: self.sp,
                    offset: off,
                },
                width: Width::B8,
            });
            self.spill_ops += 1;
        }
    }

    fn rhs_operand(&mut self, b: Rhs, which: usize) -> Operand {
        match b {
            Rhs::Var(v) => Operand::Reg(self.read_int(v, which)),
            Rhs::Imm(i) => Operand::Imm(i),
        }
    }

    // ---- straight-line operations -------------------------------------

    /// `d = imm`.
    pub fn li(&mut self, d: Var, imm: i64) {
        let (t, slot) = self.def_target(d);
        assert!(!self.is_fp(d), "li writes an integer variable");
        self.insts.push(Inst::Li { d: t, imm });
        self.finish_def(t, slot);
    }

    /// `d = imm` for a floating-point variable (bit pattern of `imm`).
    pub fn fli(&mut self, d: Var, imm: f64) {
        assert!(self.is_fp(d), "fli writes an fp variable");
        // Constants travel via an integer scratch register and a stack
        // cell, as a real constant pool would.
        let s = self.iscratch[2];
        self.insts.push(Inst::Li {
            d: s,
            imm: imm.to_bits() as i64,
        });
        let off = self.transfer_slot;
        self.insts.push(Inst::Store {
            s,
            addr: AddrMode::BaseOffset {
                base: self.sp,
                offset: off,
            },
            width: Width::B8,
        });
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Load {
            d: t,
            addr: AddrMode::BaseOffset {
                base: self.sp,
                offset: off,
            },
            width: Width::B8,
        });
        self.finish_def(t, slot);
    }

    /// `d = a <op> b`.
    pub fn alu(&mut self, op: AluOp, d: Var, a: Var, b: impl Into<Rhs>) {
        let ra = self.read_int(a, 1);
        let rb = self.rhs_operand(b.into(), 2);
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Alu {
            op,
            d: t,
            a: ra,
            b: rb,
        });
        self.finish_def(t, slot);
    }

    /// `d = a + b` (pointer arithmetic: pretranslations propagate).
    pub fn add(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Add, d, a, b);
    }

    /// `d = a - b`.
    pub fn sub(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Sub, d, a, b);
    }

    /// `d = a & b`.
    pub fn and(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::And, d, a, b);
    }

    /// `d = a | b`.
    pub fn or(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Or, d, a, b);
    }

    /// `d = a ^ b`.
    pub fn xor(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Xor, d, a, b);
    }

    /// `d = a << b`.
    pub fn sll(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Sll, d, a, b);
    }

    /// `d = a >> b` (logical).
    pub fn srl(&mut self, d: Var, a: Var, b: impl Into<Rhs>) {
        self.alu(AluOp::Srl, d, a, b);
    }

    /// `d = a` (register move — implemented as `a + 0`, so pointer
    /// attachments propagate, as the paper's design intends for copies).
    pub fn copy(&mut self, d: Var, a: Var) {
        if self.is_fp(a) {
            // The ISA has no FP register move; route through the dedicated
            // stack transfer cell (a real mov.d would be register-only,
            // but this keeps the ISA minimal and the cost realistic).
            let ra = self.read_fp(a, 1);
            let (t, slot) = self.def_target(d);
            let off = self.transfer_slot;
            self.insts.push(Inst::Store {
                s: ra,
                addr: AddrMode::BaseOffset {
                    base: self.sp,
                    offset: off,
                },
                width: Width::B8,
            });
            self.insts.push(Inst::Load {
                d: t,
                addr: AddrMode::BaseOffset {
                    base: self.sp,
                    offset: off,
                },
                width: Width::B8,
            });
            self.finish_def(t, slot);
        } else {
            self.alu(AluOp::Add, d, a, Rhs::Imm(0));
        }
    }

    /// `d = a * b` (integer multiply).
    pub fn mul(&mut self, d: Var, a: Var, b: Var) {
        let ra = self.read_int(a, 1);
        let rb = self.read_int(b, 2);
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Mul { d: t, a: ra, b: rb });
        self.finish_def(t, slot);
    }

    /// `d = a / b` (integer divide; divide-by-zero yields 0).
    pub fn div(&mut self, d: Var, a: Var, b: Var) {
        let ra = self.read_int(a, 1);
        let rb = self.read_int(b, 2);
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Div { d: t, a: ra, b: rb });
        self.finish_def(t, slot);
    }

    /// Floating-point `d = a <op> b`.
    pub fn fpu(&mut self, op: FpuOp, d: Var, a: Var, b: Var) {
        let ra = self.read_fp(a, 0);
        let rb = if b == a { ra } else { self.read_fp(b, 1) };
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Fpu {
            op,
            d: t,
            a: ra,
            b: rb,
        });
        self.finish_def(t, slot);
    }

    /// `d = a + b` (FP).
    pub fn fadd(&mut self, d: Var, a: Var, b: Var) {
        self.fpu(FpuOp::Add, d, a, b);
    }

    /// `d = a - b` (FP).
    pub fn fsub(&mut self, d: Var, a: Var, b: Var) {
        self.fpu(FpuOp::Sub, d, a, b);
    }

    /// `d = a * b` (FP).
    pub fn fmul(&mut self, d: Var, a: Var, b: Var) {
        self.fpu(FpuOp::Mul, d, a, b);
    }

    /// `d = a / b` (FP).
    pub fn fdiv(&mut self, d: Var, a: Var, b: Var) {
        self.fpu(FpuOp::Div, d, a, b);
    }

    // ---- memory operations --------------------------------------------

    /// `d = mem[base + offset]`.
    pub fn load(&mut self, d: Var, base: Var, offset: i32, width: Width) {
        let rb = self.read_int(base, 1);
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Load {
            d: t,
            addr: AddrMode::BaseOffset { base: rb, offset },
            width,
        });
        self.finish_def(t, slot);
    }

    /// `mem[base + offset] = s`.
    pub fn store(&mut self, s: Var, base: Var, offset: i32, width: Width) {
        let rs = if self.is_fp(s) {
            self.read_fp(s, 0)
        } else {
            self.read_int(s, 0)
        };
        let rb = self.read_int(base, 1);
        self.insts.push(Inst::Store {
            s: rs,
            addr: AddrMode::BaseOffset { base: rb, offset },
            width,
        });
    }

    /// `d = mem[base + index]` (register+register addressing).
    pub fn load_idx(&mut self, d: Var, base: Var, index: Var, width: Width) {
        let rb = self.read_int(base, 1);
        let ri = self.read_int(index, 2);
        let (t, slot) = self.def_target(d);
        self.insts.push(Inst::Load {
            d: t,
            addr: AddrMode::BaseIndex {
                base: rb,
                index: ri,
            },
            width,
        });
        self.finish_def(t, slot);
    }

    /// `mem[base + index] = s`.
    pub fn store_idx(&mut self, s: Var, base: Var, index: Var, width: Width) {
        let rs = if self.is_fp(s) {
            self.read_fp(s, 0)
        } else {
            self.read_int(s, 0)
        };
        let rb = self.read_int(base, 1);
        let ri = self.read_int(index, 2);
        self.insts.push(Inst::Store {
            s: rs,
            addr: AddrMode::BaseIndex {
                base: rb,
                index: ri,
            },
            width,
        });
    }

    /// `d = mem[base]; base += step` (post-increment addressing). If
    /// `base` is stack-resident, the updated pointer is spilled back —
    /// losing any pretranslation, as the paper observes for Figure 9.
    pub fn load_postinc(&mut self, d: Var, base: Var, step: i32, width: Width) {
        match self.storage(base) {
            Storage::Reg(rb) => {
                let (t, slot) = self.def_target(d);
                self.insts.push(Inst::Load {
                    d: t,
                    addr: AddrMode::PostInc { base: rb, step },
                    width,
                });
                self.finish_def(t, slot);
            }
            Storage::Stack(off) => {
                let rb = self.read_int(base, 1);
                let (t, slot) = self.def_target(d);
                self.insts.push(Inst::Load {
                    d: t,
                    addr: AddrMode::PostInc { base: rb, step },
                    width,
                });
                self.finish_def(t, slot);
                self.insts.push(Inst::Store {
                    s: rb,
                    addr: AddrMode::BaseOffset {
                        base: self.sp,
                        offset: off,
                    },
                    width: Width::B8,
                });
                self.spill_ops += 1;
            }
        }
    }

    /// `mem[base] = s; base += step`.
    pub fn store_postinc(&mut self, s: Var, base: Var, step: i32, width: Width) {
        let rs = if self.is_fp(s) {
            self.read_fp(s, 0)
        } else {
            self.read_int(s, 0)
        };
        match self.storage(base) {
            Storage::Reg(rb) => {
                self.insts.push(Inst::Store {
                    s: rs,
                    addr: AddrMode::PostInc { base: rb, step },
                    width,
                });
            }
            Storage::Stack(off) => {
                let rb = self.read_int(base, 1);
                self.insts.push(Inst::Store {
                    s: rs,
                    addr: AddrMode::PostInc { base: rb, step },
                    width,
                });
                self.insts.push(Inst::Store {
                    s: rb,
                    addr: AddrMode::BaseOffset {
                        base: self.sp,
                        offset: off,
                    },
                    width: Width::B8,
                });
                self.spill_ops += 1;
            }
        }
    }

    // ---- control flow ---------------------------------------------------

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len() as u32);
    }

    /// Conditional branch: `if cond(a, b) goto label`.
    pub fn br(&mut self, cond: Cond, a: Var, b: impl Into<Rhs>, label: Label) {
        let ra = self.read_int(a, 1);
        let rb = match b.into() {
            Rhs::Var(v) => self.read_int(v, 2),
            Rhs::Imm(0) => Reg::ZERO,
            Rhs::Imm(i) => {
                let s = self.iscratch[2];
                self.insts.push(Inst::Li {
                    d: s,
                    imm: i as i64,
                });
                s
            }
        };
        self.patches.push(self.insts.len());
        self.insts.push(Inst::Branch {
            cond,
            a: ra,
            b: rb,
            target: label.0,
        });
    }

    /// Unconditional jump.
    pub fn jump(&mut self, label: Label) {
        self.patches.push(self.insts.len());
        self.insts.push(Inst::Jump { target: label.0 });
    }

    /// Emits a halt.
    pub fn halt(&mut self) {
        self.insts.push(Inst::Halt);
        self.emitted_halt = true;
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if nothing beyond the prologue has been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.len() <= 1
    }

    /// Resolves labels and produces the validated program. Appends a
    /// final `Halt` if none was emitted.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if validation fails or a referenced
    /// label was never bound.
    pub fn finish(mut self) -> Result<Program, ProgramError> {
        if !self.emitted_halt {
            self.insts.push(Inst::Halt);
        }
        for &at in &self.patches {
            let labels = &self.labels;
            let resolve = |id: u32| -> Result<u32, ProgramError> {
                labels
                    .get(id as usize)
                    .copied()
                    .flatten()
                    .ok_or(ProgramError::UnboundLabel { label: id })
            };
            match self.insts.get_mut(at) {
                Some(Inst::Branch { target, .. }) | Some(Inst::Jump { target }) => {
                    *target = resolve(*target)?;
                }
                // hbat-lint: allow(panic) patch sites are recorded only at branch/jump emission
                other => unreachable!("patch site holds {other:?}"),
            }
        }
        Program::new(self.insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegBudget;
    use hbat_isa::executor::Machine;
    use hbat_isa::trace::OpClass;

    #[test]
    fn unbound_label_is_an_error_not_a_panic() {
        let mut b = Builder::new(RegBudget::FULL);
        let x = b.ivar("x");
        b.li(x, 1);
        let never_bound = b.new_label();
        b.br(Cond::Eq, x, x, never_bound);
        match b.finish() {
            Err(ProgramError::UnboundLabel { label }) => assert_eq!(label, 0),
            other => panic!("expected UnboundLabel, got {other:?}"),
        }
    }

    #[test]
    fn counting_loop_computes_correctly_under_both_budgets() {
        for budget in [RegBudget::FULL, RegBudget::SMALL] {
            let mut b = Builder::new(budget);
            let i = b.ivar("i");
            let acc = b.ivar("acc");
            let out = b.ivar("out");
            b.li(out, crate::layout::HEAP_BASE as i64);
            b.li(i, 10);
            b.li(acc, 0);
            let top = b.new_label();
            b.bind(top);
            b.add(acc, acc, i);
            b.sub(i, i, 1);
            b.br(Cond::Gt, i, 0, top);
            b.store(acc, out, 0, Width::B8);
            let prog = b.finish().unwrap();
            let mut m = Machine::new(prog);
            m.run(100_000, |_| {});
            assert!(m.is_halted());
            assert_eq!(
                m.memory()
                    .read_u64(hbat_core::addr::VirtAddr(crate::layout::HEAP_BASE)),
                55,
                "budget {budget:?}"
            );
        }
    }

    #[test]
    fn small_budget_emits_more_memory_traffic() {
        let build = |budget| {
            let mut b = Builder::new(budget);
            // Ten live variables: overflows the SMALL budget (3 int var regs).
            let vars: Vec<_> = (0..10).map(|k| b.ivar(&format!("v{k}"))).collect();
            for (k, &v) in vars.iter().enumerate() {
                b.li(v, k as i64);
            }
            let acc = b.ivar("acc");
            b.li(acc, 0);
            for &v in &vars {
                b.add(acc, acc, v);
            }
            let spills = b.spill_ops();
            let prog = b.finish().unwrap();
            (prog, spills)
        };
        let (full_prog, full_spills) = build(RegBudget::FULL);
        let (small_prog, small_spills) = build(RegBudget::SMALL);
        assert_eq!(full_spills, 0, "32 registers fit everything");
        assert!(small_spills > 10, "8 registers must spill");
        // Architectural result is identical either way.
        let run = |p| {
            let mut m = Machine::new(p);
            let mut mem_ops = 0u64;
            m.run(100_000, |t| {
                if t.is_mem() {
                    mem_ops += 1;
                }
            });
            mem_ops
        };
        assert!(run(small_prog) > run(full_prog) + 10);
    }

    #[test]
    fn spilled_variables_live_in_the_stack_region() {
        let mut b = Builder::new(RegBudget::SMALL);
        let vars: Vec<_> = (0..8).map(|k| b.ivar(&format!("v{k}"))).collect();
        for &v in &vars {
            b.li(v, 7);
        }
        let prog = b.finish().unwrap();
        let mut m = Machine::new(prog);
        let mut stack_stores = 0;
        m.run(10_000, |u| {
            if u.is_mem() && u.mem_kind() == hbat_core::request::AccessKind::Store {
                assert!(
                    u.vaddr >= STACK_BASE,
                    "spill store outside stack region: {:#x}",
                    u.vaddr
                );
                stack_stores += 1;
            }
        });
        assert!(stack_stores >= 5);
    }

    #[test]
    fn fp_variables_and_ops() {
        let mut b = Builder::new(RegBudget::FULL);
        let x = b.fvar("x");
        let y = b.fvar("y");
        let z = b.fvar("z");
        let out = b.ivar("out");
        b.li(out, crate::layout::HEAP_BASE as i64);
        b.fli(x, 1.5);
        b.fli(y, 2.0);
        b.fmul(z, x, y);
        b.fadd(z, z, x);
        b.store(z, out, 0, Width::B8);
        let mut m = Machine::new(b.finish().unwrap());
        m.run(1_000, |_| {});
        assert_eq!(
            m.memory()
                .read_f64(hbat_core::addr::VirtAddr(crate::layout::HEAP_BASE)),
            4.5
        );
    }

    #[test]
    fn postinc_streams_through_memory() {
        let mut b = Builder::new(RegBudget::FULL);
        let p = b.ivar("p");
        let i = b.ivar("i");
        let v = b.ivar("v");
        b.li(p, crate::layout::HEAP_BASE as i64);
        b.li(i, 4);
        let top = b.new_label();
        b.bind(top);
        b.li(v, 9);
        b.store_postinc(v, p, 8, Width::B8);
        b.sub(i, i, 1);
        b.br(Cond::Gt, i, 0, top);
        let mut m = Machine::new(b.finish().unwrap());
        m.run(1_000, |_| {});
        for k in 0..4 {
            assert_eq!(
                m.memory()
                    .read_u64(hbat_core::addr::VirtAddr(crate::layout::HEAP_BASE + k * 8)),
                9
            );
        }
    }

    #[test]
    fn forward_branches_resolve() {
        let mut b = Builder::new(RegBudget::FULL);
        let x = b.ivar("x");
        b.li(x, 1);
        let skip = b.new_label();
        b.br(Cond::Eq, x, 1, skip);
        b.li(x, 99); // skipped
        b.bind(skip);
        let out = b.ivar("out");
        b.li(out, crate::layout::HEAP_BASE as i64);
        b.store(x, out, 0, Width::B8);
        let mut m = Machine::new(b.finish().unwrap());
        m.run(1_000, |_| {});
        assert_eq!(
            m.memory()
                .read_u64(hbat_core::addr::VirtAddr(crate::layout::HEAP_BASE)),
            1
        );
    }

    #[test]
    fn unbound_jump_label_is_an_error_at_finish() {
        let mut b = Builder::new(RegBudget::FULL);
        let l = b.new_label();
        b.jump(l);
        assert!(matches!(
            b.finish(),
            Err(ProgramError::UnboundLabel { label: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = Builder::new(RegBudget::FULL);
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn div_and_mul_classes_flow_through() {
        let mut b = Builder::new(RegBudget::FULL);
        let a = b.ivar("a");
        let c = b.ivar("c");
        let d = b.ivar("d");
        b.li(a, 12);
        b.li(c, 4);
        b.mul(d, a, c);
        b.div(d, d, c);
        let mut m = Machine::new(b.finish().unwrap());
        let mut classes = Vec::new();
        m.run(100, |t| classes.push(t.class));
        assert!(classes.contains(&OpClass::IntMul));
        assert!(classes.contains(&OpClass::IntDiv));
    }

    #[test]
    #[should_panic(expected = "budget too small")]
    fn rejects_unusably_small_budget() {
        let _ = Builder::new(RegBudget { int: 4, fp: 4 });
    }
}
