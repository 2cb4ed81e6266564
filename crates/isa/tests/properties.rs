//! Property-based tests for the ISA and functional executor.

use proptest::prelude::*;

use hbat_core::addr::VirtAddr;
use hbat_isa::executor::{Machine, OpSource, RetireSink, Retired};
use hbat_isa::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
use hbat_isa::mem::Memory;
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;
use hbat_isa::tape::Tape;
use hbat_isa::trace::OpClass;
use hbat_isa::uop::{MicroOp, NO_REG};
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

/// Every field of each [`Retired`] view a source feeds: the op it
/// stands for, its template's static part, serial, address, direction
/// and flags.
#[derive(Default)]
struct Views(Vec<(MicroOp, MicroOp, u64, u64, bool, u8)>);

impl RetireSink for Views {
    fn retire(&mut self, r: Retired<'_>) {
        let t = r.template.static_part();
        self.0
            .push((r.uop(), t, r.serial, r.vaddr, r.taken, r.flags()));
    }
}

/// A tape holds exactly `ops`: the same length, `op(i) == ops[i]`, and
/// its reader feeds the same views as the slice does, whole or in
/// chunks of `chunk`.
fn check_tape(tape: &Tape, ops: &[MicroOp], chunk: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(tape.len(), ops.len());
    for (i, op) in ops.iter().enumerate() {
        prop_assert_eq!(tape.op(i), *op, "op {}", i);
    }
    prop_assert!(tape.iter().eq(ops.iter().copied()));
    let (mut from_tape, mut from_slice) = (Views::default(), Views::default());
    let mut reader = tape.reader();
    while reader.feed(chunk, &mut from_tape) == chunk {}
    let mut slice = ops;
    slice.feed(u64::MAX, &mut from_slice);
    prop_assert_eq!(reader.pos(), ops.len());
    prop_assert!(from_tape.0 == from_slice.0, "the views differ");
    Ok(())
}

/// The first `cap` ops of `machine`, stored through `feed_tape` into a
/// tape of its own templates.
fn machine_tape(mut machine: Machine, cap: u64) -> Tape {
    let mut tape = machine.tape();
    machine.feed_tape(cap, &mut tape);
    tape
}

/// `ops` stored through the tape sink.
fn sink_tape(mut ops: &[MicroOp]) -> Tape {
    let mut tape = Tape::default();
    ops.feed(u64::MAX, &mut tape);
    tape
}

/// Every op of `src`, fed in `chunk`-op pieces through
/// [`OpSource::feed_tape`] into a tape of its templates that keeps only
/// its newest `keep` ops between pieces ([`Tape::drain_front`]), as the
/// timing engine's fetch window does.
fn through_window(mut src: impl OpSource, chunk: u64, keep: usize) -> Vec<MicroOp> {
    let mut window = src.tape();
    let mut ops = Vec::new();
    loop {
        let fed = src.feed_tape(chunk, &mut window);
        let done = window.len().saturating_sub(keep);
        ops.extend(window.iter().take(done));
        window.drain_front(done);
        if fed < chunk {
            ops.extend(window.iter());
            return ops;
        }
    }
}

/// Strategy: micro-ops with few pcs and varied static fields, so ops at
/// one pc often differ in a static field, plus the odd pc far outside
/// any program.
fn scrambled_op() -> impl Strategy<Value = MicroOp> {
    const CLASSES: [OpClass; 4] = [
        OpClass::IntAlu,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];
    let pc = prop_oneof![0u32..4, 0u32..4, 0u32..4, any::<u32>()];
    let srcs = (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| [a, b, c]);
    let statics = (0usize..4, srcs, 0u8..3, -1i32..1);
    (pc, any::<u64>(), any::<u8>(), statics).prop_map(
        |(pc, vaddr, flags, (class, srcs, dest, offset))| MicroOp {
            serial: 0,
            vaddr,
            pc,
            target: pc ^ 1,
            offset,
            class: CLASSES[class],
            flags,
            srcs,
            dest,
            aux_dest: NO_REG,
            base_reg: 0,
            index_reg: NO_REG,
            width: Width::B8,
            addr_src_mask: 0,
        },
    )
}

/// Every ALU operation, for both operand forms.
const ALU_OPS: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
];
const FPU_OPS: [FpuOp; 4] = [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div];
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Le, Cond::Gt];
const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

/// The loop counter of [`Piece::Loop`]; no other piece writes it.
const LOOP_REG: u8 = 8;

/// One generated piece of a program. Branch and jump targets are
/// offsets from the piece's own index, resolved when the program is
/// assembled.
#[derive(Debug, Clone)]
enum Piece {
    Inst(Inst),
    Branch(Cond, Reg, Reg, i32),
    Jump(i32),
    /// Runs the next `len` pieces `count` times, counting down
    /// [`LOOP_REG`] (nested loops are dropped).
    Loop {
        count: i64,
        len: usize,
    },
}

/// Strategy: a random program that uses every handler form: all nine
/// ALU operations in register and immediate forms, `Mul`, `Div`
/// (divisors include the zero register), the four FP operations, loads
/// and stores of widths 1/2/4/8 in all three addressing modes (FP ones
/// are 8 bytes), the six branch conditions, forward and backward
/// branches and jumps, and counted loops. The base registers r1 and r2
/// start in one region and move only by post-increment, so accesses
/// share chunks and straddle chunk boundaries; branches may loop
/// forever, so runs are cut by a step cap.
fn any_program() -> impl Strategy<Value = Vec<Inst>> {
    let src = (0u8..8).prop_map(Reg::int);
    let dest = (3u8..8).prop_map(Reg::int);
    let fp = (0u8..4).prop_map(Reg::fp);
    let base = (1u8..3).prop_map(Reg::int);
    let addr = prop_oneof![
        (base.clone(), -64i32..4200)
            .prop_map(|(base, offset)| AddrMode::BaseOffset { base, offset }),
        (base.clone(), (0u8..8).prop_map(Reg::int))
            .prop_map(|(base, index)| AddrMode::BaseIndex { base, index }),
        (base, -16i32..17).prop_map(|(base, step)| AddrMode::PostInc { base, step }),
    ];
    let width = (0usize..4).prop_map(|w| WIDTHS[w]);
    let alu = (
        0usize..9,
        dest.clone(),
        src.clone(),
        src.clone(),
        -70i32..70,
        0u8..2,
    )
        .prop_map(|(op, d, a, b, imm, form)| Inst::Alu {
            op: ALU_OPS[op],
            d,
            a,
            b: if form == 0 {
                Operand::Reg(b)
            } else {
                Operand::Imm(imm)
            },
        });
    let muldiv = (dest.clone(), src.clone(), src.clone(), 0u8..2).prop_map(|(d, a, b, div)| {
        if div == 0 {
            Inst::Mul { d, a, b }
        } else {
            Inst::Div { d, a, b }
        }
    });
    let fpu = (0usize..4, fp.clone(), fp.clone(), fp.clone()).prop_map(|(op, d, a, b)| Inst::Fpu {
        op: FPU_OPS[op],
        d,
        a,
        b,
    });
    let load = (dest.clone(), addr.clone(), width.clone())
        .prop_map(|(d, addr, width)| Inst::Load { d, addr, width });
    let store = (src.clone(), addr.clone(), width).prop_map(|(s, addr, width)| Inst::Store {
        s,
        addr,
        width,
    });
    let fp_mem = (fp, addr, 0u8..2).prop_map(|(r, addr, st)| {
        if st == 0 {
            Inst::Load {
                d: r,
                addr,
                width: Width::B8,
            }
        } else {
            Inst::Store {
                s: r,
                addr,
                width: Width::B8,
            }
        }
    });
    let piece = prop_oneof![
        (dest, -1000i64..1000).prop_map(|(d, imm)| Piece::Inst(Inst::Li { d, imm })),
        alu.clone().prop_map(Piece::Inst),
        alu.prop_map(Piece::Inst),
        muldiv.prop_map(Piece::Inst),
        fpu.prop_map(Piece::Inst),
        load.clone().prop_map(Piece::Inst),
        load.prop_map(Piece::Inst),
        store.clone().prop_map(Piece::Inst),
        store.prop_map(Piece::Inst),
        fp_mem.prop_map(Piece::Inst),
        (0usize..6, src.clone(), src, -12i32..12)
            .prop_map(|(c, a, b, off)| Piece::Branch(CONDS[c], a, b, off)),
        (1i32..6).prop_map(Piece::Jump),
        (1i64..5, 1usize..8).prop_map(|(count, len)| Piece::Loop { count, len }),
        Just(Piece::Inst(Inst::Nop)),
    ];
    prop::collection::vec(piece, 1..60).prop_map(assemble)
}

/// Lays out generated pieces after a prologue that anchors the base
/// registers and loads FP constants, resolving branch offsets into the
/// program (the final `Halt` included).
fn assemble(pieces: Vec<Piece>) -> Vec<Inst> {
    let mut prog = vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 0x10_0ff0,
        },
        Inst::Li {
            d: Reg::int(2),
            imm: 0x10_1ffc,
        },
        Inst::Li {
            d: Reg::int(3),
            imm: (1.5f64).to_bits() as i64,
        },
        Inst::Store {
            s: Reg::int(3),
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: -8,
            },
            width: Width::B8,
        },
        Inst::Load {
            d: Reg::fp(1),
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: -8,
            },
            width: Width::B8,
        },
    ];
    let counter = Reg::int(LOOP_REG);
    // (index of the loop's first body instruction, pieces left in it)
    let mut open: Option<(u32, usize)> = None;
    let mut branches = Vec::new();
    for piece in pieces {
        match piece {
            Piece::Inst(inst) => prog.push(inst),
            Piece::Branch(cond, a, b, off) => {
                branches.push(prog.len());
                prog.push(Inst::Branch {
                    cond,
                    a,
                    b,
                    target: off as u32,
                });
            }
            Piece::Jump(off) => {
                branches.push(prog.len());
                prog.push(Inst::Jump { target: off as u32 });
            }
            Piece::Loop { count, len } => {
                if open.is_none() {
                    prog.push(Inst::Li {
                        d: counter,
                        imm: count,
                    });
                    open = Some((prog.len() as u32, len + 1));
                }
            }
        }
        if let Some((start, left)) = open.as_mut() {
            *left -= 1;
            if *left == 0 {
                prog.push(Inst::Alu {
                    op: AluOp::Sub,
                    d: counter,
                    a: counter,
                    b: Operand::Imm(1),
                });
                prog.push(Inst::Branch {
                    cond: Cond::Gt,
                    a: counter,
                    b: Reg::ZERO,
                    target: *start,
                });
                open = None;
            }
        }
    }
    prog.push(Inst::Halt);
    let last = prog.len() as i64 - 1;
    for at in branches {
        let resolve = |off: u32| (at as i64 + i64::from(off as i32)).clamp(0, last) as u32;
        match &mut prog[at] {
            Inst::Branch { target, .. } | Inst::Jump { target } => *target = resolve(*target),
            _ => unreachable!("branches lists only branches and jumps"),
        }
    }
    prog
}

/// The architectural result of a run: registers, whether it halted,
/// and for each retired instruction its pc, effective address (memory
/// ops) and branch direction (conditional branches).
#[derive(Debug, PartialEq)]
struct RefRun {
    regs: [i64; 64],
    halted: bool,
    steps: Vec<(u32, Option<u64>, Option<bool>)>,
}

/// Reference interpreter, written independently of the executor's
/// dispatch: byte-granular memory, every handler form, at most `cap`
/// retired instructions. Returns the run and its memory.
fn reference_run(insts: &[Inst], cap: u64) -> (RefRun, std::collections::HashMap<u64, u8>) {
    let mut regs = [0i64; 64];
    let mut mem: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
    let mut steps = Vec::new();
    let mut pc = 0u32;
    let r = |regs: &[i64; 64], reg: Reg| regs[reg.code() as usize];
    let set = |regs: &mut [i64; 64], reg: Reg, v: i64| {
        if !reg.is_zero() {
            regs[reg.code() as usize] = v;
        }
    };
    let f = |regs: &[i64; 64], reg: Reg| f64::from_bits(regs[reg.code() as usize] as u64);
    let ea_of = |regs: &[i64; 64], addr: AddrMode| -> u64 {
        match addr {
            AddrMode::BaseOffset { base, offset } => {
                (regs[base.code() as usize] as u64).wrapping_add(offset as i64 as u64)
            }
            AddrMode::BaseIndex { base, index } => {
                (regs[base.code() as usize] as u64).wrapping_add(regs[index.code() as usize] as u64)
            }
            AddrMode::PostInc { base, .. } => regs[base.code() as usize] as u64,
        }
    };
    let post = |regs: &mut [i64; 64], addr: AddrMode| {
        if let AddrMode::PostInc { base, step } = addr {
            let v = regs[base.code() as usize].wrapping_add(step as i64);
            if !base.is_zero() {
                regs[base.code() as usize] = v;
            }
        }
    };
    let mut halted = false;
    while (steps.len() as u64) < cap {
        let inst = insts[pc as usize];
        let mut next = pc + 1;
        let mut step = (pc, None, None);
        match inst {
            Inst::Halt => {
                halted = true;
                break;
            }
            Inst::Nop => {}
            Inst::Li { d, imm } => set(&mut regs, d, imm),
            Inst::Alu { op, d, a, b } => {
                let (x, y) = (
                    r(&regs, a),
                    match b {
                        Operand::Reg(b) => r(&regs, b),
                        Operand::Imm(i) => i64::from(i),
                    },
                );
                let sh = (y & 63) as u32;
                let v = match op {
                    AluOp::Add => x.wrapping_add(y),
                    AluOp::Sub => x.wrapping_sub(y),
                    AluOp::And => x & y,
                    AluOp::Or => x | y,
                    AluOp::Xor => x ^ y,
                    AluOp::Sll => ((x as u64) << sh) as i64,
                    AluOp::Srl => ((x as u64) >> sh) as i64,
                    AluOp::Sra => x >> sh,
                    AluOp::Slt => i64::from(x < y),
                };
                set(&mut regs, d, v);
            }
            Inst::Mul { d, a, b } => {
                let v = r(&regs, a).wrapping_mul(r(&regs, b));
                set(&mut regs, d, v);
            }
            Inst::Div { d, a, b } => {
                let (x, y) = (r(&regs, a), r(&regs, b));
                set(&mut regs, d, if y == 0 { 0 } else { x.wrapping_div(y) });
            }
            Inst::Fpu { op, d, a, b } => {
                let (x, y) = (f(&regs, a), f(&regs, b));
                let v = match op {
                    FpuOp::Add => x + y,
                    FpuOp::Sub => x - y,
                    FpuOp::Mul => x * y,
                    FpuOp::Div => x / y,
                };
                set(&mut regs, d, v.to_bits() as i64);
            }
            Inst::Load { d, addr, width } => {
                let ea = ea_of(&regs, addr);
                let v = (0..width.bytes()).fold(0u64, |v, i| {
                    v | u64::from(*mem.get(&ea.wrapping_add(i)).unwrap_or(&0)) << (8 * i)
                });
                set(&mut regs, d, v as i64);
                post(&mut regs, addr);
                step.1 = Some(ea);
            }
            Inst::Store { s, addr, width } => {
                let ea = ea_of(&regs, addr);
                let v = r(&regs, s) as u64;
                for i in 0..width.bytes() {
                    mem.insert(ea.wrapping_add(i), (v >> (8 * i)) as u8);
                }
                post(&mut regs, addr);
                step.1 = Some(ea);
            }
            Inst::Branch { cond, a, b, target } => {
                let (x, y) = (r(&regs, a), r(&regs, b));
                let taken = match cond {
                    Cond::Eq => x == y,
                    Cond::Ne => x != y,
                    Cond::Lt => x < y,
                    Cond::Ge => x >= y,
                    Cond::Le => x <= y,
                    Cond::Gt => x > y,
                };
                if taken {
                    next = target;
                }
                step.2 = Some(taken);
            }
            Inst::Jump { target } => next = target,
        }
        steps.push(step);
        pc = next;
    }
    (
        RefRun {
            regs,
            halted,
            steps,
        },
        mem,
    )
}

proptest! {
    /// Execution is deterministic: identical programs produce identical
    /// traces and final register files.
    #[test]
    fn executor_is_deterministic(insts in any_program()) {
        let p = Program::new(insts).expect("generated programs are valid");
        let mut m1 = Machine::new(p.clone());
        let mut m2 = Machine::new(p);
        let t1 = m1.run_to_vec(10_000);
        let t2 = m2.run_to_vec(10_000);
        prop_assert_eq!(t1, t2);
        for r in 0..32 {
            prop_assert_eq!(
                m1.read_reg(Reg::int(r)),
                m2.read_reg(Reg::int(r))
            );
        }
    }

    /// The sinks see one run: the no-op sink retires as many
    /// instructions as the materialising run keeps, a run fed in chunks
    /// keeps the same ops, and all three leave the same registers and
    /// memory image, whether the program halts or hits the step cap
    /// (which often lands inside a loop).
    #[test]
    fn sinks_see_the_same_run(insts in any_program(), cap in 1u64..400, chunk in 1u64..9) {
        let p = Program::new(insts).expect("valid");
        let mut counted = Machine::new(p.clone());
        let mut kept = Machine::new(p.clone());
        let mut chunked = Machine::new(p);
        let n = counted.execute(cap, &mut ());
        let ops = kept.run_to_uops(cap);
        let mut pieces: Vec<MicroOp> = Vec::new();
        while (pieces.len() as u64) < cap {
            let want = chunk.min(cap - pieces.len() as u64);
            if chunked.execute(want, &mut pieces) < want {
                break;
            }
        }
        prop_assert_eq!(n, ops.len() as u64);
        prop_assert_eq!(&pieces[..], ops.ops());
        for m in [&counted, &chunked] {
            prop_assert_eq!(m.arch_state(), kept.arch_state());
            prop_assert_eq!(m.memory().export_chunks(), kept.memory().export_chunks());
        }
    }

    /// A tape stores a run losslessly, whether the program halts or hits
    /// the step cap: a tape of the machine's templates filled through
    /// `feed_tape`, and one filled from the materialised ops through the
    /// tape sink, both hold exactly those ops.
    #[test]
    fn tape_stores_executor_runs_losslessly(
        insts in any_program(),
        cap in 1u64..80,
        chunk in 1u64..9,
    ) {
        let p = Program::new(insts).expect("valid");
        let ops = Machine::new(p.clone()).run_to_uops(cap);
        check_tape(&machine_tape(Machine::new(p), cap), ops.ops(), chunk)?;
        check_tape(&sink_tape(ops.ops()), ops.ops(), chunk)?;
    }

    /// `feed_tape` keeps a run whichever way it stores it: a machine by
    /// pc into a tape of its own templates, a tape reader by copying its
    /// entries, and a `&[MicroOp]` through the tape sink.
    #[test]
    fn feed_tape_keeps_the_run(
        insts in any_program(),
        cap in 1u64..400,
        chunk in 1u64..9,
        keep in 0usize..4,
    ) {
        let p = Program::new(insts).expect("valid");
        let ops = Machine::new(p.clone()).run_to_uops(cap);
        let tape = machine_tape(Machine::new(p.clone()), cap);
        let machine = Machine::new(p).capped(cap);
        prop_assert_eq!(through_window(machine, chunk, keep), ops.ops());
        prop_assert_eq!(through_window(tape.reader(), chunk, keep), ops.ops());
        prop_assert_eq!(through_window(ops.ops(), chunk, keep), ops.ops());
    }

    /// A slice fed through the tape sink stays lossless when ops at one
    /// pc differ in a static field, and a serial that skips or wraps
    /// panics rather than being stored.
    #[test]
    fn tape_sink_is_lossless_or_panics(
        mut ops in prop::collection::vec(scrambled_op(), 0..64),
        first in prop_oneof![Just(0u64), any::<u64>(), u64::MAX - 64..u64::MAX],
        skip in prop_oneof![Just(None), (0usize..64, 1u64..4).prop_map(Some)],
    ) {
        for (i, op) in ops.iter_mut().enumerate() {
            op.serial = first.wrapping_add(i as u64);
        }
        if let Some((at, by)) = skip.filter(|&(at, _)| at < ops.len()) {
            for op in &mut ops[at..] {
                op.serial = op.serial.wrapping_add(by);
            }
        }
        let gap = ops
            .windows(2)
            .any(|w| w[0].serial.checked_add(1) != Some(w[1].serial));
        match std::panic::catch_unwind(|| sink_tape(&ops)) {
            Ok(tape) => {
                prop_assert!(!gap, "a serial gap was stored");
                check_tape(&tape, &ops, 5)?;
            }
            Err(_) => prop_assert!(gap, "contiguous serials were refused"),
        }
    }

    /// The zero register reads zero whatever the program does, and every
    /// trace record's serial matches its position.
    #[test]
    fn zero_register_and_serials_hold(insts in any_program()) {
        let p = Program::new(insts).expect("valid");
        let mut m = Machine::new(p);
        let trace = m.run_to_vec(10_000);
        prop_assert_eq!(m.read_reg(Reg::ZERO), 0);
        for (i, t) in trace.iter().enumerate() {
            prop_assert_eq!(t.serial, i as u64);
            // No record ever lists r0 as a dependence.
            prop_assert!(t.src_regs().all(|r| !r.is_zero()));
            prop_assert!(t.dest_regs().all(|r| !r.is_zero()));
        }
    }

    /// Differential test: the executor agrees with an independent
    /// reference interpreter on final registers, halting, every retired
    /// pc, effective address and branch direction, and memory, for
    /// programs that use every handler form.
    #[test]
    fn executor_matches_reference_interpreter(insts in any_program()) {
        const CAP: u64 = 3_000;
        let (want, ref_mem) = reference_run(&insts, CAP);
        let p = Program::new(insts).expect("valid");
        let mut m = Machine::new(p);
        let trace = m.run_to_vec(CAP);
        let mut regs = [0i64; 64];
        for (code, r) in (0u8..).zip(regs.iter_mut()) {
            *r = m.read_reg(Reg::from_code(code));
        }
        let got = RefRun {
            regs,
            halted: m.is_halted(),
            steps: trace
                .iter()
                .map(|t| {
                    let taken = t.branch.filter(|b| b.conditional).map(|b| b.taken);
                    (t.pc, t.mem.map(|mm| mm.vaddr.0), taken)
                })
                .collect(),
        };
        prop_assert_eq!(got, want);
        for (&ea, &v) in &ref_mem {
            prop_assert_eq!(m.memory().read_u8(VirtAddr(ea)), v, "byte at {:#x}", ea);
        }
    }

    /// ALU algebraic identities hold for all inputs.
    #[test]
    fn alu_identities(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(AluOp::Add.apply(a, b), AluOp::Add.apply(b, a));
        prop_assert_eq!(AluOp::Xor.apply(AluOp::Xor.apply(a, b), b), a);
        prop_assert_eq!(AluOp::Sub.apply(a, a), 0);
        prop_assert_eq!(AluOp::And.apply(a, a), a);
        prop_assert_eq!(AluOp::Or.apply(a, 0), a);
        prop_assert_eq!(
            i64::from(AluOp::Slt.apply(a, b) == 1),
            i64::from(a < b)
        );
    }

    /// Branch conditions partition: exactly one of (lt, eq, gt) holds, and
    /// compound conditions agree with their parts.
    #[test]
    fn condition_trichotomy(a in any::<i64>(), b in any::<i64>()) {
        let lt = Cond::Lt.holds(a, b);
        let eq = Cond::Eq.holds(a, b);
        let gt = Cond::Gt.holds(a, b);
        prop_assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1);
        prop_assert_eq!(Cond::Le.holds(a, b), lt || eq);
        prop_assert_eq!(Cond::Ge.holds(a, b), gt || eq);
        prop_assert_eq!(Cond::Ne.holds(a, b), !eq);
    }

    /// Memory round-trips arbitrary values at arbitrary (possibly
    /// chunk-straddling) addresses and widths.
    #[test]
    fn memory_round_trip(addr in 0u64..1_000_000, val in any::<u64>(), w in 0usize..4) {
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8];
        let width = widths[w];
        let mut m = Memory::new();
        m.write_le(VirtAddr(addr), val, width.bytes());
        let mask = if width.bytes() == 8 { u64::MAX } else { (1 << (8 * width.bytes())) - 1 };
        prop_assert_eq!(m.read_le(VirtAddr(addr), width.bytes()), val & mask);
    }
}

/// One access in a memory differential test: the public API, or the
/// executor's memoised `load`/`store`.
#[derive(Debug, Clone)]
enum MemOp {
    Read(u64, u64),
    Write(u64, u64, u64),
    Bytes(u64, Vec<u8>),
    Load(u64, u64),
    Store(u64, u64, u64),
    /// `import_chunk` of chunk `.0` (0–3, or 4 for the top chunk of the
    /// address space), filled with a pattern seeded by `.1`.
    Import(u64, u8),
    Clear,
}

/// The executor's memoised load of `n` bytes.
fn memo_load(m: &mut Memory, a: u64, n: u64) -> u64 {
    match n {
        1 => m.load::<1>(VirtAddr(a)),
        2 => m.load::<2>(VirtAddr(a)),
        4 => m.load::<4>(VirtAddr(a)),
        _ => m.load::<8>(VirtAddr(a)),
    }
}

/// The executor's memoised store of `n` bytes.
fn memo_store(m: &mut Memory, a: u64, v: u64, n: u64) {
    match n {
        1 => m.store::<1>(VirtAddr(a), v),
        2 => m.store::<2>(VirtAddr(a), v),
        4 => m.store::<4>(VirtAddr(a), v),
        _ => m.store::<8>(VirtAddr(a), v),
    }
}

/// The base and bytes of a `MemOp::Import`.
fn import_image(chunk: u64, seed: u8) -> (u64, Vec<u8>) {
    let base = if chunk < 4 {
        chunk * 4096
    } else {
        u64::MAX - 4095
    };
    let bytes = (0..4096u32)
        .map(|i| (i as u8).wrapping_mul(seed | 1))
        .collect();
    (base, bytes)
}

/// Strategy: an address that is chunk-straddling (offsets 4088–4095 of
/// a 4 KiB chunk), within 16 bytes of the top of the address space (so
/// accesses wrap to 0), or anywhere in a small dense region.
fn mem_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4, 4088u64..4096).prop_map(|(chunk, off)| chunk * 4096 + off),
        (0u64..16).prop_map(|d| u64::MAX - d),
        0u64..0x4000,
    ]
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    let width = prop_oneof![Just(1u64), Just(2u64), Just(4u64), Just(8u64)];
    prop_oneof![
        (mem_addr(), width.clone()).prop_map(|(a, n)| MemOp::Read(a, n)),
        (mem_addr(), any::<u64>(), width.clone()).prop_map(|(a, v, n)| MemOp::Write(a, v, n)),
        (mem_addr(), prop::collection::vec(any::<u8>(), 0..9000))
            .prop_map(|(a, b)| MemOp::Bytes(a, b)),
        (mem_addr(), width.clone()).prop_map(|(a, n)| MemOp::Load(a, n)),
        (mem_addr(), width.clone()).prop_map(|(a, n)| MemOp::Load(a, n)),
        (mem_addr(), any::<u64>(), width.clone()).prop_map(|(a, v, n)| MemOp::Store(a, v, n)),
        (mem_addr(), any::<u64>(), width).prop_map(|(a, v, n)| MemOp::Store(a, v, n)),
        (0u64..5, any::<u8>()).prop_map(|(c, seed)| MemOp::Import(c, seed)),
        Just(MemOp::Clear),
    ]
}

/// Byte-at-a-time reference memory: every written byte, and the 4 KiB
/// chunks those bytes live in.
#[derive(Default)]
struct ByteModel {
    bytes: std::collections::HashMap<u64, u8>,
    chunks: std::collections::HashSet<u64>,
}

impl ByteModel {
    fn write(&mut self, addr: u64, b: u8) {
        self.bytes.insert(addr, b);
        self.chunks.insert(addr >> 12);
    }

    fn read_le(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | u64::from(b) << (8 * i)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The public API (`read_le`/`write_le`/`write_bytes`,
    /// `import_chunk`, `clear`) and the executor's memoised
    /// `load`/`store`, interleaved, agree with a byte-at-a-time model
    /// for widths 1/2/4/8, chunk-straddling offsets and addresses that
    /// wrap past `u64::MAX`: a memoised access after any public write,
    /// import or clear sees it. Reads and loads never materialise a
    /// chunk, and writes materialise exactly the chunks they touch.
    #[test]
    fn memory_matches_a_byte_model(ops in prop::collection::vec(mem_op(), 1..40)) {
        let mut m = Memory::new();
        let mut model = ByteModel::default();
        for op in &ops {
            let before = m.chunk_count();
            match op {
                MemOp::Read(a, n) => {
                    prop_assert_eq!(m.read_le(VirtAddr(*a), *n), model.read_le(*a, *n), "{:?}", op);
                    prop_assert_eq!(m.chunk_count(), before, "a read materialised a chunk");
                }
                MemOp::Load(a, n) => {
                    prop_assert_eq!(memo_load(&mut m, *a, *n), model.read_le(*a, *n), "{:?}", op);
                    prop_assert_eq!(m.chunk_count(), before, "a load materialised a chunk");
                }
                MemOp::Write(a, v, n) | MemOp::Store(a, v, n) => {
                    if matches!(op, MemOp::Write(..)) {
                        m.write_le(VirtAddr(*a), *v, *n);
                    } else {
                        memo_store(&mut m, *a, *v, *n);
                    }
                    for i in 0..*n {
                        model.write(a.wrapping_add(i), (v >> (8 * i)) as u8);
                    }
                }
                MemOp::Bytes(a, bytes) => {
                    m.write_bytes(VirtAddr(*a), bytes);
                    for (i, &b) in (0u64..).zip(bytes) {
                        model.write(a.wrapping_add(i), b);
                    }
                }
                MemOp::Import(chunk, seed) => {
                    let (base, bytes) = import_image(*chunk, *seed);
                    m.import_chunk(base, &bytes).expect("aligned, whole chunk");
                    for (i, &b) in (0u64..).zip(&bytes) {
                        model.write(base + i, b);
                    }
                }
                MemOp::Clear => {
                    m.clear();
                    model = ByteModel::default();
                }
            }
            prop_assert_eq!(m.chunk_count(), model.chunks.len(), "after {:?}", op);
        }
        for (&a, &b) in &model.bytes {
            prop_assert_eq!(m.read_u8(VirtAddr(a)), b);
            prop_assert_eq!(memo_load(&mut m, a, 1), u64::from(b));
        }
    }
}

/// The memo never serves a stale chunk: a memoised load sees a
/// `write_bytes`, a `write_le` and an `import_chunk` into a chunk it
/// has already read (present or absent), and nothing survives `clear`.
#[test]
fn memo_sees_every_public_write() {
    let mut m = Memory::new();
    let a = VirtAddr(0x5008);
    assert_eq!(m.load::<8>(a), 0, "an absent chunk reads as zero");
    assert_eq!(m.chunk_count(), 0, "and stays absent");
    m.write_bytes(VirtAddr(0x5000), &[7; 16]);
    assert_eq!(
        m.load::<8>(a),
        0x0707_0707_0707_0707,
        "write_bytes after an absent read"
    );
    m.write_le(a, 0x1234, 2);
    assert_eq!(m.load::<4>(a), 0x0707_1234, "write_le after a present read");
    m.import_chunk(0x5000, &[9; 4096]).unwrap();
    assert_eq!(m.load::<1>(a), 9, "import_chunk over a memoised chunk");
    m.store::<8>(VirtAddr(0xfff), u64::MAX);
    assert_eq!(
        m.read_le(VirtAddr(0x1000), 7),
        (1 << 56) - 1,
        "a store straddling chunks"
    );
    m.store::<4>(VirtAddr(u64::MAX - 1), 0xaabb_ccdd);
    assert_eq!(
        m.load::<2>(VirtAddr(0)),
        0xaabb,
        "a store wrapping to address 0"
    );
    m.clear();
    assert_eq!(m.chunk_count(), 0);
    assert_eq!(m.load::<8>(a), 0, "clear empties the memo with the chunks");
    m.store::<8>(a, 5);
    assert_eq!(m.load::<8>(a), 5);
    assert_eq!(m.chunk_count(), 1);
}

/// Every test-scale workload's ops, stored as a tape of its machine's
/// templates and as one filled through the tape sink, hold exactly
/// those ops.
#[test]
fn tape_stores_every_test_scale_workload() {
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in Benchmark::ALL {
        let w = bench.build(&cfg);
        let ops = w.uops();
        let from_machine = machine_tape(w.instantiate(), w.max_steps);
        for t in [&from_machine, &sink_tape(ops.ops())] {
            check_tape(t, ops.ops(), 4096).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        }
    }
}
