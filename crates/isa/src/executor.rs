//! The functional executor: runs a [`Program`] and emits the dynamic
//! micro-op stream the timing models consume.
//!
//! Execution is architecturally exact (register and memory values are
//! real), which is what makes the workload behaviour — pointer reuse,
//! spills, data-dependent branches, hash-table scatter — faithful. Timing
//! is not modelled here at all.

use hbat_core::addr::VirtAddr;

use crate::inst::Width;
use crate::mem::Memory;
use crate::program::Program;
use crate::reg::Reg;
use crate::trace::TraceInst;
use crate::uop::{AddrKind, DecodedInst, Handler, MicroOp, PredecodedProgram, PredecodedTrace};

/// A complete export of a [`Machine`]'s architectural register and
/// control state (everything except memory and the static program),
/// produced by [`Machine::arch_state`] and consumed by
/// [`Machine::restore_arch_state`] — the checkpoint crate serialises
/// this verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Integer register file.
    pub iregs: [i64; 32],
    /// FP register file as raw IEEE-754 bit patterns (exact round-trip).
    pub freg_bits: [u64; 32],
    /// Program counter (instruction index).
    pub pc: u32,
    /// Dynamic instructions retired.
    pub serial: u64,
    /// Has a `Halt` executed?
    pub halted: bool,
}

/// The integer register file, then the FP one as raw IEEE-754 bits.
type Regs = [[i64; 32]; 2];

/// Reads a register (the hardwired zero register reads 0).
#[inline(always)]
fn read(regs: &Regs, r: Reg) -> i64 {
    if r.is_zero() {
        0
    } else {
        // hbat-lint: allow(panic-reach) is_fp() is 0 or 1 and Reg::index() is masked to 0..32
        regs[usize::from(r.is_fp())][r.index()]
    }
}

/// Writes a register (writes to the zero register are discarded).
#[inline(always)]
fn write(regs: &mut Regs, r: Reg, v: i64) {
    if !r.is_zero() {
        // hbat-lint: allow(panic-reach) is_fp() is 0 or 1 and Reg::index() is masked to 0..32
        regs[usize::from(r.is_fp())][r.index()] = v;
    }
}

/// Effective address from a predecoded memory instruction's
/// pre-extracted operands.
#[inline(always)]
fn ea(regs: &Regs, di: &DecodedInst) -> VirtAddr {
    let base = read(regs, di.a) as u64;
    match di.mode {
        AddrKind::BaseOffset => VirtAddr(base.wrapping_add(di.imm as u64)),
        AddrKind::BaseIndex => VirtAddr(base.wrapping_add(read(regs, di.b) as u64)),
        AddrKind::PostInc => VirtAddr(base),
    }
}

/// Architectural machine state plus the micro-op generator.
///
/// The program is predecoded once at construction into a flat
/// [`PredecodedProgram`] table, so [`Machine::step`] is an indexed
/// handler dispatch with pre-extracted operands that emits the entry's
/// [`MicroOp`] template — the `Inst` enum is never re-matched and no
/// micro-op is re-encoded on the hot path.
#[derive(Debug, Clone)]
pub struct Machine {
    code: PredecodedProgram,
    regs: Regs,
    mem: Memory,
    pc: u32,
    serial: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the entry of `program` with zeroed state.
    pub fn new(program: Program) -> Self {
        Machine {
            code: PredecodedProgram::from_program(&program),
            regs: [[0; 32]; 2],
            mem: Memory::new(),
            pc: 0,
            serial: 0,
            halted: false,
        }
    }

    /// The functional memory (e.g. to pre-seed workload data).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the functional memory.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Reads an architected register (integer or FP, FP as raw bits).
    pub fn read_reg(&self, r: Reg) -> i64 {
        read(&self.regs, r)
    }

    /// True once a `Halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn instructions_retired(&self) -> u64 {
        self.serial
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The complete architectural register/control state, for
    /// checkpointing. FP registers are exported as raw IEEE-754 bits so
    /// a snapshot round-trip is exact even for NaN payloads.
    pub fn arch_state(&self) -> ArchState {
        let [iregs, fp] = self.regs;
        ArchState {
            iregs,
            freg_bits: fp.map(|v| v as u64),
            pc: self.pc,
            serial: self.serial,
            halted: self.halted,
        }
    }

    /// Restores previously exported architectural state onto this
    /// machine (the program itself is not part of a snapshot — the
    /// caller reconstructs the machine from the workload first).
    ///
    /// Returns `Err` if the snapshot's program counter does not name an
    /// instruction of this machine's program — the telltale of a
    /// snapshot taken from a different workload.
    pub fn restore_arch_state(&mut self, s: &ArchState) -> Result<(), String> {
        if !s.halted && (s.pc as usize) >= self.code.code().len() {
            return Err(format!(
                "snapshot pc {} out of range for a {}-instruction program",
                s.pc,
                self.code.code().len()
            ));
        }
        self.regs = [s.iregs, s.freg_bits.map(|bits| bits as i64)];
        self.pc = s.pc;
        self.serial = s.serial;
        self.halted = s.halted;
        Ok(())
    }

    // hbat-lint: hot — predecoded handler dispatch, one table access per step
    /// Executes one instruction, returning its micro-op, or `None` if the
    /// machine has halted.
    ///
    /// The dependence lists, class, and static memory/branch fields come
    /// from the predecoded template; only the serial number, effective
    /// address, and branch direction are patched per dynamic instance.
    // hbat-lint: allow(panic) a pc run past the last instruction is a program bug
    pub fn step(&mut self) -> Option<MicroOp> {
        let Machine {
            code,
            regs,
            mem,
            pc,
            serial,
            halted,
        } = self;
        if *halted {
            return None;
        }
        let di = &code.code()[*pc as usize];
        let mut next_pc = *pc + 1;

        let mut u = di.template;
        u.serial = *serial;
        match di.handler {
            Handler::Halt => {
                *halted = true;
                return None;
            }
            Handler::Nop => {}
            Handler::Li => write(regs, di.d, di.imm),
            Handler::AluRR => {
                let v = di.alu.apply(read(regs, di.a), read(regs, di.b));
                write(regs, di.d, v);
            }
            Handler::AluRI => {
                let v = di.alu.apply(read(regs, di.a), di.imm);
                write(regs, di.d, v);
            }
            Handler::Mul => {
                let v = read(regs, di.a).wrapping_mul(read(regs, di.b));
                write(regs, di.d, v);
            }
            Handler::Div => {
                let bv = read(regs, di.b);
                let v = if bv == 0 {
                    0
                } else {
                    read(regs, di.a).wrapping_div(bv)
                };
                write(regs, di.d, v);
            }
            Handler::Fpu => {
                debug_assert!(di.d.is_fp() && di.a.is_fp() && di.b.is_fp());
                let f = |r| f64::from_bits(read(regs, r) as u64);
                let v = di.fpu.apply(f(di.a), f(di.b));
                write(regs, di.d, v.to_bits() as i64);
            }
            Handler::Load => {
                let (ea, width) = (ea(regs, di), di.template.width);
                debug_assert!(!di.d.is_fp() || width == Width::B8, "FP loads are 8 bytes");
                // Zero-extended into an integer register; raw bits into an
                // FP one.
                write(regs, di.d, mem.read_le(ea, width.bytes()) as i64);
                u.vaddr = ea.0;
                if di.mode == AddrKind::PostInc {
                    // Base writeback after the destination write: base wins
                    // when d == base, matching the legacy decoder.
                    let nv = read(regs, di.a).wrapping_add(di.imm);
                    write(regs, di.a, nv);
                }
            }
            Handler::Store => {
                let (ea, width) = (ea(regs, di), di.template.width);
                debug_assert!(!di.d.is_fp() || width == Width::B8, "FP stores are 8 bytes");
                mem.write_le(ea, read(regs, di.d) as u64, width.bytes());
                u.vaddr = ea.0;
                if di.mode == AddrKind::PostInc {
                    let nv = read(regs, di.a).wrapping_add(di.imm);
                    write(regs, di.a, nv);
                }
            }
            Handler::Branch => {
                if di.cond.holds(read(regs, di.a), read(regs, di.b)) {
                    next_pc = di.template.target;
                    u.flags |= MicroOp::F_BR_TAKEN;
                }
            }
            Handler::Jump => {
                next_pc = di.template.target;
            }
        }

        *pc = next_pc;
        *serial += 1;
        Some(u)
    }
    // hbat-lint: cold

    /// Runs until halt or `max_steps`, feeding each micro-op to `sink`.
    /// Returns the number of instructions executed.
    pub fn run<F: FnMut(MicroOp)>(&mut self, max_steps: u64, mut sink: F) -> u64 {
        let mut n = 0;
        while n < max_steps {
            let Some(u) = self.step() else { break };
            sink(u);
            n += 1;
        }
        n
    }

    /// Runs until halt or `max_steps`, collecting the micro-ops.
    pub fn run_to_uops(&mut self, max_steps: u64) -> PredecodedTrace {
        let mut ops = Vec::new();
        self.run(max_steps, |u| ops.push(u));
        PredecodedTrace::from(ops)
    }

    /// [`Machine::run_to_uops`], returned as the [`TraceInst`] decode
    /// view.
    pub fn run_to_vec(&mut self, max_steps: u64) -> Vec<TraceInst> {
        self.run_to_uops(max_steps).decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand};
    use crate::trace::OpClass;
    use hbat_core::request::{AccessKind, WritebackKind};

    fn run_program(insts: Vec<Inst>) -> (Machine, Vec<TraceInst>) {
        let mut m = Machine::new(Program::new(insts).unwrap());
        let trace = m.run_to_vec(100_000);
        (m, trace)
    }

    #[test]
    fn li_and_alu() {
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 40,
            },
            Inst::Alu {
                op: AluOp::Add,
                d: Reg::int(2),
                a: Reg::int(1),
                b: Operand::Imm(2),
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::int(2)), 42);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].dest, Some(Reg::int(2)));
        assert_eq!(trace[1].dest_kind, WritebackKind::PointerArith);
        assert_eq!(trace[1].srcs[0], Some(Reg::int(1)));
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x1000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: 77,
            },
            Inst::Store {
                s: Reg::int(2),
                addr: AddrMode::BaseOffset {
                    base: Reg::int(1),
                    offset: 8,
                },
                width: Width::B8,
            },
            Inst::Load {
                d: Reg::int(3),
                addr: AddrMode::BaseOffset {
                    base: Reg::int(1),
                    offset: 8,
                },
                width: Width::B8,
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::int(3)), 77);
        let st = trace[2].mem.unwrap();
        assert_eq!(st.vaddr, VirtAddr(0x1008));
        assert_eq!(st.kind, AccessKind::Store);
        assert_eq!(st.base_reg, Reg::int(1));
        assert_eq!(st.offset, 8);
        let ld = trace[3].mem.unwrap();
        assert_eq!(ld.kind, AccessKind::Load);
        assert_eq!(ld.vaddr, VirtAddr(0x1008));
    }

    #[test]
    fn post_increment_walks_and_writes_back() {
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x2000,
            },
            Inst::Load {
                d: Reg::int(2),
                addr: AddrMode::PostInc {
                    base: Reg::int(1),
                    step: 8,
                },
                width: Width::B8,
            },
            Inst::Load {
                d: Reg::int(3),
                addr: AddrMode::PostInc {
                    base: Reg::int(1),
                    step: 8,
                },
                width: Width::B8,
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::int(1)), 0x2010);
        assert_eq!(trace[1].mem.unwrap().vaddr, VirtAddr(0x2000));
        assert_eq!(trace[2].mem.unwrap().vaddr, VirtAddr(0x2008));
        assert_eq!(trace[1].aux_dest, Some(Reg::int(1)));
    }

    #[test]
    fn base_index_addressing() {
        let (_, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x3000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: 0x40,
            },
            Inst::Load {
                d: Reg::int(3),
                addr: AddrMode::BaseIndex {
                    base: Reg::int(1),
                    index: Reg::int(2),
                },
                width: Width::B4,
            },
            Inst::Halt,
        ]);
        let mem = trace[2].mem.unwrap();
        assert_eq!(mem.vaddr, VirtAddr(0x3040));
        assert_eq!(mem.offset, 0);
        assert!(trace[2].srcs.contains(&Some(Reg::int(2))));
    }

    #[test]
    fn branch_loop_executes_expected_iterations() {
        // r1 = 5; loop { r2 += r1; r1 -= 1 } while r1 > 0
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 5,
            },
            Inst::Alu {
                op: AluOp::Add,
                d: Reg::int(2),
                a: Reg::int(2),
                b: Operand::Reg(Reg::int(1)),
            },
            Inst::Alu {
                op: AluOp::Sub,
                d: Reg::int(1),
                a: Reg::int(1),
                b: Operand::Imm(1),
            },
            Inst::Branch {
                cond: Cond::Gt,
                a: Reg::int(1),
                b: Reg::ZERO,
                target: 1,
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::int(2)), 15);
        let branches: Vec<_> = trace.iter().filter_map(|t| t.branch).collect();
        assert_eq!(branches.len(), 5);
        assert!(branches[..4].iter().all(|b| b.taken));
        assert!(!branches[4].taken);
    }

    #[test]
    fn fp_pipeline() {
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x1000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: (2.5f64).to_bits() as i64,
            },
            Inst::Store {
                s: Reg::int(2),
                addr: AddrMode::BaseOffset {
                    base: Reg::int(1),
                    offset: 0,
                },
                width: Width::B8,
            },
            Inst::Load {
                d: Reg::fp(0),
                addr: AddrMode::BaseOffset {
                    base: Reg::int(1),
                    offset: 0,
                },
                width: Width::B8,
            },
            Inst::Fpu {
                op: FpuOp::Mul,
                d: Reg::fp(1),
                a: Reg::fp(0),
                b: Reg::fp(0),
            },
            Inst::Halt,
        ]);
        assert_eq!(f64::from_bits(m.read_reg(Reg::fp(1)) as u64), 6.25);
        assert_eq!(trace[4].class, OpClass::FpMul);
    }

    #[test]
    fn zero_register_is_immutable_and_invisible_in_deps() {
        let (m, trace) = run_program(vec![
            Inst::Li {
                d: Reg::ZERO,
                imm: 99,
            },
            Inst::Alu {
                op: AluOp::Add,
                d: Reg::int(1),
                a: Reg::ZERO,
                b: Operand::Imm(1),
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::ZERO), 0);
        assert_eq!(m.read_reg(Reg::int(1)), 1);
        assert_eq!(trace[0].dest, None, "r0 writes create no destination");
        assert_eq!(trace[1].src_regs().count(), 0);
    }

    #[test]
    fn division_semantics() {
        let (m, _) = run_program(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 42,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: 5,
            },
            Inst::Div {
                d: Reg::int(3),
                a: Reg::int(1),
                b: Reg::int(2),
            },
            Inst::Div {
                d: Reg::int(4),
                a: Reg::int(1),
                b: Reg::ZERO,
            },
            Inst::Halt,
        ]);
        assert_eq!(m.read_reg(Reg::int(3)), 8);
        assert_eq!(m.read_reg(Reg::int(4)), 0, "divide by zero yields 0");
    }

    #[test]
    fn determinism_same_program_same_trace() {
        let prog = vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 3,
            },
            Inst::Alu {
                op: AluOp::Sub,
                d: Reg::int(1),
                a: Reg::int(1),
                b: Operand::Imm(1),
            },
            Inst::Branch {
                cond: Cond::Gt,
                a: Reg::int(1),
                b: Reg::ZERO,
                target: 1,
            },
            Inst::Halt,
        ];
        let (_, t1) = run_program(prog.clone());
        let (_, t2) = run_program(prog);
        assert_eq!(t1, t2);
    }

    #[test]
    fn serials_are_consecutive() {
        let (_, trace) = run_program(vec![Inst::Nop, Inst::Nop, Inst::Nop, Inst::Halt]);
        for (i, t) in trace.iter().enumerate() {
            assert_eq!(t.serial, i as u64);
        }
    }

    #[test]
    fn run_respects_step_limit() {
        let mut m = Machine::new(Program::new(vec![Inst::Jump { target: 0 }, Inst::Halt]).unwrap());
        let n = m.run(1000, |_| {});
        assert_eq!(n, 1000);
        assert!(!m.is_halted());
    }
}
