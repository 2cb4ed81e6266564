//! The functional executor: runs a [`Program`] and hands every retired
//! instruction to a [`RetireSink`].
//!
//! Execution is architecturally exact (register and memory values are
//! real), which is what makes the workload behaviour — pointer reuse,
//! spills, data-dependent branches, hash-table scatter — faithful. Timing
//! is not modelled here at all.
//!
//! There is one handler body, [`Machine::execute`], generic over its
//! sink. A sink sees each retired instruction as a [`Retired`] view —
//! the predecoded template plus its serial, effective address and
//! branch direction — and builds a [`MicroOp`] only if it keeps ops:
//! counting a program's length (`()`) and functional warming read the
//! view and build nothing, [`Machine::run_to_tape`] stores the view as
//! a [`Tape`], and [`Machine::run_to_uops`] and [`Machine::run`]
//! materialise the stream.

use std::sync::Arc;

use crate::mem::Memory;
use crate::opcode::{step, Flow};
use crate::program::Program;
use crate::reg::Reg;
use crate::tape::{ByPc, Tape};
use crate::trace::TraceInst;
use crate::uop::{MicroOp, PredecodedProgram, PredecodedTrace};

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

/// One retired instruction, as the executor hands it to a
/// [`RetireSink`]: a borrow of its predecoded template plus the fields
/// that differ per dynamic instance.
#[derive(Debug, Clone, Copy)]
pub struct Retired<'a> {
    /// The static instruction's micro-op template.
    pub template: &'a MicroOp,
    /// Program-order serial number.
    pub serial: u64,
    /// Effective virtual address (memory ops; the template's 0
    /// otherwise).
    pub vaddr: u64,
    /// A conditional branch that was taken.
    pub taken: bool,
}

impl Retired<'_> {
    /// The template's flags with [`MicroOp::F_BR_TAKEN`] patched in.
    #[inline]
    pub fn flags(&self) -> u8 {
        self.template.flags | if self.taken { MicroOp::F_BR_TAKEN } else { 0 }
    }

    /// The full micro-op: the template with the dynamic fields patched.
    #[inline]
    pub fn uop(&self) -> MicroOp {
        MicroOp {
            serial: self.serial,
            vaddr: self.vaddr,
            flags: self.flags(),
            ..*self.template
        }
    }
}

/// Where the executor sends retired instructions.
///
/// `()` keeps nothing (a run then only counts), a [`Tape`] stores the
/// views, a `Vec<MicroOp>` collects the micro-ops, `&mut S` forwards,
/// and a pair feeds both halves in order.
pub trait RetireSink {
    /// Receives one retired instruction.
    fn retire(&mut self, r: Retired<'_>);
}

impl RetireSink for () {
    #[inline]
    fn retire(&mut self, _: Retired<'_>) {}
}

impl RetireSink for Vec<MicroOp> {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        self.push(r.uop());
    }
}

impl<S: RetireSink + ?Sized> RetireSink for &mut S {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        (**self).retire(r);
    }
}

impl<A: RetireSink, B: RetireSink> RetireSink for (A, B) {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        self.0.retire(r);
        self.1.retire(r);
    }
}

/// Hands each micro-op to a closure ([`Machine::run`]).
struct EachUop<F>(F);

impl<F: FnMut(MicroOp)> RetireSink for EachUop<F> {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        (self.0)(r.uop());
    }
}

/// A stream of retired instructions that can be drained into a sink in
/// pieces: a [`Machine`] executing, or a stored trace (a
/// [`TapeReader`](crate::tape::TapeReader), or `&[MicroOp]`; both
/// advance past what they feed).
pub trait OpSource {
    /// Feeds up to `max` instructions to `sink` and returns how many it
    /// fed; fewer than `max` only when the stream has ended.
    fn feed<S: RetireSink>(&mut self, max: u64, sink: &mut S) -> u64;

    /// An empty [`Tape`] to keep this stream's ops in: one that starts
    /// from the stream's templates when it has them.
    fn tape(&self) -> Tape {
        Tape::default()
    }

    /// [`feed`](OpSource::feed) into a tape. When `tape` came from this
    /// stream's [`tape`](OpSource::tape), a machine stores each op under
    /// its pc and a tape reader copies its entries, where the tape sink
    /// would compare every op's static part with its template's.
    fn feed_tape(&mut self, max: u64, tape: &mut Tape) -> u64 {
        self.feed(max, tape)
    }

    /// This stream, ended after at most `n` more ops.
    fn capped(self, n: u64) -> Capped<Self>
    where
        Self: Sized,
    {
        Capped { src: self, left: n }
    }
}

/// An [`OpSource`] ended after a fixed number of ops
/// ([`OpSource::capped`]).
#[derive(Debug, Clone)]
pub struct Capped<S> {
    src: S,
    /// Ops still to feed.
    left: u64,
}

impl<S: OpSource> OpSource for Capped<S> {
    #[inline]
    fn feed<K: RetireSink>(&mut self, max: u64, sink: &mut K) -> u64 {
        let fed = self.src.feed(max.min(self.left), sink);
        self.left -= fed;
        fed
    }

    fn tape(&self) -> Tape {
        self.src.tape()
    }

    fn feed_tape(&mut self, max: u64, tape: &mut Tape) -> u64 {
        let fed = self.src.feed_tape(max.min(self.left), tape);
        self.left -= fed;
        fed
    }
}

impl<T: OpSource + ?Sized> OpSource for &mut T {
    #[inline]
    fn feed<S: RetireSink>(&mut self, max: u64, sink: &mut S) -> u64 {
        (**self).feed(max, sink)
    }

    fn tape(&self) -> Tape {
        (**self).tape()
    }

    fn feed_tape(&mut self, max: u64, tape: &mut Tape) -> u64 {
        (**self).feed_tape(max, tape)
    }
}

impl OpSource for Machine {
    #[inline]
    fn feed<S: RetireSink>(&mut self, max: u64, sink: &mut S) -> u64 {
        self.execute(max, sink)
    }

    fn tape(&self) -> Tape {
        Tape::with_templates(self.templates.clone())
    }

    /// Stores each op under its pc when `tape` shares this machine's
    /// templates, whose entry `pc` is the static part of the template
    /// the executor hands out there.
    fn feed_tape(&mut self, max: u64, tape: &mut Tape) -> u64 {
        if tape.shares_templates(&self.templates) {
            tape.continue_at(self.serial);
            self.execute(max, &mut ByPc(tape))
        } else {
            self.execute(max, tape)
        }
    }
}

impl OpSource for &[MicroOp] {
    fn feed<S: RetireSink>(&mut self, max: u64, sink: &mut S) -> u64 {
        let n = usize::try_from(max).unwrap_or(usize::MAX).min(self.len());
        let (fed, rest) = self.split_at(n);
        for op in fed {
            sink.retire(Retired {
                template: op,
                serial: op.serial,
                vaddr: op.vaddr,
                taken: op.flags & MicroOp::F_BR_TAKEN != 0,
            });
        }
        *self = rest;
        n as u64
    }
}

/// The register file, indexed by [`Reg::code`]: integer registers
/// 0–31, then the FP ones as raw IEEE-754 bits. Slot 0 is the hardwired
/// zero register; every write re-zeroes it.
pub(crate) type Regs = [i64; 64];

/// Reads a register.
#[inline(always)]
pub(crate) fn read(regs: &Regs, r: Reg) -> i64 {
    // hbat-lint: allow(panic, panic-reach) the code is masked to 0..64
    regs[usize::from(r.code() & 63)]
}

/// Writes a register, then restores the zero register.
#[inline(always)]
pub(crate) fn write(regs: &mut Regs, r: Reg, v: i64) {
    // hbat-lint: allow(panic, panic-reach) the code is masked to 0..64
    regs[usize::from(r.code() & 63)] = v;
    regs[0] = 0;
}

/// Architectural machine state plus the predecoded program.
///
/// The program is predecoded once at construction into a flat
/// [`PredecodedProgram`] table, so [`Machine::execute`] is one
/// dispatch on each entry's [`Opcode`](crate::opcode::Opcode), with
/// pre-extracted operands, that hands the entry's [`MicroOp`] template
/// to its sink — the `Inst` enum is never re-matched and no micro-op is
/// re-encoded on the hot path.
#[derive(Debug, Clone)]
pub struct Machine {
    code: PredecodedProgram,
    /// The templates' static parts, by pc: the template table of every
    /// [`Tape`] this machine fills.
    templates: Arc<Vec<MicroOp>>,
    regs: Regs,
    mem: Memory,
    pc: u32,
    serial: u64,
    halted: bool,
}

impl Machine {
    /// Creates a machine at the entry of `program` with zeroed state.
    pub fn new(program: Program) -> Self {
        let code = PredecodedProgram::from_program(&program);
        let templates = code.code().iter().map(|di| di.template.static_part());
        Machine {
            templates: Arc::new(templates.collect()),
            code,
            regs: [0; 64],
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
        let (mut iregs, mut freg_bits) = ([0; 32], [0; 32]);
        for (r, &v) in iregs.iter_mut().zip(&self.regs) {
            *r = v;
        }
        for (r, &v) in freg_bits.iter_mut().zip(self.regs.iter().skip(32)) {
            *r = v as u64;
        }
        ArchState {
            iregs,
            freg_bits,
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
        let (int, fp) = self.regs.split_at_mut(32);
        int.copy_from_slice(&s.iregs);
        for (r, &bits) in fp.iter_mut().zip(&s.freg_bits) {
            *r = bits as i64;
        }
        self.regs[0] = 0;
        self.pc = s.pc;
        self.serial = s.serial;
        self.halted = s.halted;
        Ok(())
    }

    // hbat-lint: hot — one opcode dispatch per instruction
    /// Runs until halt or `max_steps` instructions, handing each retired
    /// instruction to `sink`. Returns the number executed. The `Halt`
    /// itself retires nothing.
    ///
    /// The dependence lists, class, and static memory/branch fields stay
    /// in the predecoded template; only the serial number, effective
    /// address, and branch direction vary per dynamic instance, and the
    /// sink decides whether to build a [`MicroOp`] from them.
    // hbat-lint: allow(panic) a pc run past the last instruction is a program bug
    pub fn execute<S: RetireSink>(&mut self, max_steps: u64, sink: &mut S) -> u64 {
        let Machine {
            code,
            templates: _,
            regs,
            mem,
            pc: pc_out,
            serial: serial_out,
            halted,
        } = self;
        if *halted {
            return 0;
        }
        let code = code.code();
        // Locals, written back at the end, so the loop keeps them in
        // registers across the memory calls.
        let (mut pc, start) = (*pc_out, *serial_out);
        let end = start.saturating_add(max_steps);
        let mut serial = start;
        while serial < end {
            let di = &code[pc as usize];
            let (next_pc, vaddr, taken) = match step(di, regs, mem) {
                Flow::Next => (pc + 1, 0, false),
                Flow::Mem(ea) => (pc + 1, ea, false),
                Flow::Taken => (di.template.target, 0, true),
                Flow::Jump => (di.template.target, 0, false),
                Flow::Halt => {
                    *halted = true;
                    break;
                }
            };
            sink.retire(Retired {
                template: &di.template,
                serial,
                vaddr,
                taken,
            });
            pc = next_pc;
            serial += 1;
        }
        (*pc_out, *serial_out) = (pc, serial);
        serial - start
    }
    // hbat-lint: cold

    /// Runs until halt or `max_steps`, feeding each micro-op to `sink`.
    /// Returns the number of instructions executed.
    pub fn run<F: FnMut(MicroOp)>(&mut self, max_steps: u64, sink: F) -> u64 {
        self.execute(max_steps, &mut EachUop(sink))
    }

    /// Runs until halt or `max_steps`, storing the run as a [`Tape`] of
    /// this program's templates (12 bytes per op).
    pub fn run_to_tape(&mut self, max_steps: u64) -> Tape {
        let mut tape = OpSource::tape(self);
        self.execute(max_steps, &mut tape);
        tape.shrink_to_fit();
        tape
    }

    /// Runs until halt or `max_steps`, collecting the micro-ops.
    pub fn run_to_uops(&mut self, max_steps: u64) -> PredecodedTrace {
        let mut ops = Vec::new();
        self.execute(max_steps, &mut ops);
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
    use crate::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
    use crate::trace::OpClass;
    use hbat_core::addr::VirtAddr;
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
