//! Property-based tests for the ISA and functional executor.

use proptest::prelude::*;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hbat_core::addr::VirtAddr;
use hbat_isa::executor::{Machine, OpSource, RetireSink, Retired};
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::mem::Memory;
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;
use hbat_isa::tape::{Tape, TapeError};
use hbat_isa::trace::OpClass;
use hbat_isa::tracefile::{read_trace, write_trace};
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

/// Strategy: a random straight-line ALU/memory program over registers
/// r1..r7 that is always valid (targets in range, halt at end).
fn straightline() -> impl Strategy<Value = Vec<Inst>> {
    let reg = (1u8..8).prop_map(Reg::int);
    let op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Slt),
    ];
    let inst = prop_oneof![
        (reg.clone(), -1000i64..1000).prop_map(|(d, imm)| Inst::Li { d, imm }),
        (op, reg.clone(), reg.clone(), reg.clone()).prop_map(|(op, d, a, b)| Inst::Alu {
            op,
            d,
            a,
            b: Operand::Reg(b)
        }),
        (reg.clone(), reg.clone(), 0i32..256).prop_map(|(d, base, off)| Inst::Load {
            d,
            addr: AddrMode::BaseOffset {
                base,
                offset: off & !7
            },
            width: Width::B8,
        }),
        (reg.clone(), reg.clone(), 0i32..256).prop_map(|(s, base, off)| Inst::Store {
            s,
            addr: AddrMode::BaseOffset {
                base,
                offset: off & !7
            },
            width: Width::B8,
        }),
    ];
    prop::collection::vec(inst, 1..60).prop_map(|mut v| {
        // Anchor the base registers in a sane address region first.
        let mut prog = vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x10_0000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: 0x10_1000,
            },
        ];
        prog.append(&mut v);
        prog.push(Inst::Halt);
        prog
    })
}

proptest! {
    /// Execution is deterministic: identical programs produce identical
    /// traces and final register files.
    #[test]
    fn executor_is_deterministic(insts in straightline()) {
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
    /// memory image, whether the program halts or hits the step cap.
    #[test]
    fn sinks_see_the_same_run(insts in straightline(), cap in 1u64..80, chunk in 1u64..9) {
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
    /// the step cap: the executor-built tape and `Tape::from_ops` of the
    /// materialised ops both hold exactly those ops.
    #[test]
    fn tape_stores_executor_runs_losslessly(
        insts in straightline(),
        cap in 1u64..80,
        chunk in 1u64..9,
    ) {
        let p = Program::new(insts).expect("valid");
        let ops = Machine::new(p.clone()).run_to_uops(cap);
        let tape = Machine::new(p).run_to_tape(cap);
        check_tape(&tape, ops.ops(), chunk)?;
        check_tape(&Tape::from_ops(ops.ops()).expect("contiguous"), ops.ops(), chunk)?;
    }

    /// `from_ops` stays lossless when ops at one pc differ in a static
    /// field, and refuses serials that skip, never returning a wrong op.
    #[test]
    fn tape_from_ops_is_lossless_or_refuses(
        mut ops in prop::collection::vec(scrambled_op(), 0..64),
        first in prop_oneof![Just(0u64), any::<u64>()],
        skip in prop_oneof![Just(None), (0usize..64, 1u64..4).prop_map(Some)],
    ) {
        for (i, op) in ops.iter_mut().enumerate() {
            op.serial = first.wrapping_add(i as u64);
        }
        let mut broken = None;
        if let Some((at, by)) = skip.filter(|&(at, _)| at < ops.len()) {
            for op in &mut ops[at..] {
                op.serial = op.serial.wrapping_add(by);
            }
            broken = Some(at);
        }
        let wraps = ops.len() > 1 && first.checked_add(ops.len() as u64 - 1).is_none();
        match Tape::from_ops(&ops) {
            Ok(tape) => {
                prop_assert!(!wraps && broken.is_none_or(|at| at == 0));
                check_tape(&tape, &ops, 5)?;
            }
            Err(TapeError::SerialGap { at, .. }) => {
                prop_assert!(wraps || broken.is_some_and(|b| b > 0 && at <= b));
            }
        }
    }

    /// The zero register reads zero whatever the program does, and every
    /// trace record's serial matches its position.
    #[test]
    fn zero_register_and_serials_hold(insts in straightline()) {
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
    /// reference interpreter on final registers and every effective
    /// address, for any straight-line program.
    #[test]
    fn executor_matches_reference_interpreter(insts in straightline()) {
        // Reference interpreter for the straight-line subset, with
        // byte-granular memory (accesses may overlap arbitrarily).
        let mut regs = [0i64; 32];
        let mut mem: std::collections::HashMap<u64, u8> =
            std::collections::HashMap::new();
        let read8 = |mem: &std::collections::HashMap<u64, u8>, ea: u64| -> u64 {
            (0..8u64)
                .map(|i| (*mem.get(&ea.wrapping_add(i)).unwrap_or(&0) as u64) << (8 * i))
                .sum()
        };
        let mut ref_addrs = Vec::new();
        for inst in &insts {
            match *inst {
                Inst::Li { d, imm } => {
                    if !d.is_zero() {
                        regs[d.index()] = imm;
                    }
                }
                Inst::Alu { op, d, a, b } => {
                    let bv = match b {
                        Operand::Reg(r) => regs[r.index()],
                        Operand::Imm(i) => i as i64,
                    };
                    let v = op.apply(regs[a.index()], bv);
                    if !d.is_zero() {
                        regs[d.index()] = v;
                    }
                }
                Inst::Load { d, addr: AddrMode::BaseOffset { base, offset }, .. } => {
                    let ea = (regs[base.index()] as u64)
                        .wrapping_add(offset as i64 as u64);
                    ref_addrs.push(ea);
                    let v = read8(&mem, ea);
                    if !d.is_zero() {
                        regs[d.index()] = v as i64;
                    }
                }
                Inst::Store { s, addr: AddrMode::BaseOffset { base, offset }, .. } => {
                    let ea = (regs[base.index()] as u64)
                        .wrapping_add(offset as i64 as u64);
                    ref_addrs.push(ea);
                    let v = regs[s.index()] as u64;
                    for i in 0..8u64 {
                        mem.insert(ea.wrapping_add(i), (v >> (8 * i)) as u8);
                    }
                }
                Inst::Halt => break,
                ref other => prop_assert!(false, "unexpected inst {other:?}"),
            }
        }

        let p = Program::new(insts).expect("valid");
        let mut m = Machine::new(p);
        let trace = m.run_to_vec(10_000);
        prop_assert!(m.is_halted());
        for r in 0..32 {
            prop_assert_eq!(
                m.read_reg(Reg::int(r)),
                regs[r as usize],
                "register r{} diverged",
                r
            );
        }
        let exec_addrs: Vec<u64> = trace
            .iter()
            .filter_map(|t| t.mem.map(|mm| mm.vaddr.0))
            .collect();
        prop_assert_eq!(exec_addrs, ref_addrs);
        // Stored memory agrees too.
        for (&ea, &v) in &mem {
            prop_assert_eq!(m.memory().read_u8(VirtAddr(ea)), v);
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

    /// Truncating a serialised trace at *every* byte offset yields a
    /// clean `Err` — never a panic and never an OOM-sized allocation
    /// (the declared record count only bounds a capped pre-allocation).
    #[test]
    fn truncated_traces_always_error(insts in straightline()) {
        let p = Program::new(insts).expect("valid");
        let trace = Machine::new(p).run_to_vec(10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("serialise");
        for cut in 0..buf.len() {
            match catch_unwind(AssertUnwindSafe(|| read_trace(&mut &buf[..cut]))) {
                Ok(parsed) => prop_assert!(
                    parsed.is_err(),
                    "truncation at byte {} of {} was accepted",
                    cut,
                    buf.len()
                ),
                Err(_) => prop_assert!(false, "read_trace panicked at cut {}", cut),
            }
        }
        // The intact buffer still round-trips.
        prop_assert_eq!(read_trace(&mut buf.as_slice()).expect("intact"), trace);
    }

    /// Flipping any bit of the 16-byte header (magic + record count)
    /// yields a clean `Err`: a corrupted magic is rejected outright, a
    /// grown count hits end-of-stream, and a shrunk count leaves
    /// trailing bytes — all detected, none panicking or pre-allocating
    /// by the corrupt count.
    #[test]
    fn header_bit_flips_always_error(insts in straightline()) {
        let p = Program::new(insts).expect("valid");
        let trace = Machine::new(p).run_to_vec(10_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).expect("serialise");
        for byte in 0..16 {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match catch_unwind(AssertUnwindSafe(|| read_trace(&mut corrupt.as_slice()))) {
                    Ok(parsed) => prop_assert!(
                        parsed.is_err(),
                        "flip of header byte {} bit {} was accepted",
                        byte,
                        bit
                    ),
                    Err(_) => prop_assert!(
                        false,
                        "read_trace panicked on header byte {} bit {}",
                        byte,
                        bit
                    ),
                }
            }
        }
    }

    /// `read_trace` never panics on arbitrary input bytes.
    #[test]
    fn read_trace_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = read_trace(&mut bytes.as_slice());
        }));
        prop_assert!(r.is_ok(), "read_trace panicked on arbitrary bytes");
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

/// One access in a memory differential test.
#[derive(Debug, Clone)]
enum MemOp {
    Read(u64, u64),
    Write(u64, u64, u64),
    Bytes(u64, Vec<u8>),
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
        (mem_addr(), any::<u64>(), width).prop_map(|(a, v, n)| MemOp::Write(a, v, n)),
        (mem_addr(), prop::collection::vec(any::<u8>(), 0..9000))
            .prop_map(|(a, b)| MemOp::Bytes(a, b)),
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

    /// `read_le`/`write_le`/`write_bytes` agree with a byte-at-a-time
    /// model for widths 1/2/4/8, chunk-straddling offsets and addresses
    /// that wrap past `u64::MAX`; reads never materialise a chunk, and
    /// writes materialise exactly the chunks they touch.
    #[test]
    fn memory_matches_a_byte_model(ops in prop::collection::vec(mem_op(), 1..40)) {
        let mut m = Memory::new();
        let mut model = ByteModel::default();
        for op in &ops {
            match op {
                MemOp::Read(a, n) => {
                    let before = m.chunk_count();
                    prop_assert_eq!(m.read_le(VirtAddr(*a), *n), model.read_le(*a, *n), "{:?}", op);
                    prop_assert_eq!(m.chunk_count(), before, "a read materialised a chunk");
                }
                MemOp::Write(a, v, n) => {
                    m.write_le(VirtAddr(*a), *v, *n);
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
            }
            prop_assert_eq!(m.chunk_count(), model.chunks.len(), "after {:?}", op);
        }
        for (&a, &b) in &model.bytes {
            prop_assert_eq!(m.read_u8(VirtAddr(a)), b);
        }
    }
}

/// Every test-scale workload's executor-built tape, and `from_ops` of
/// its materialised ops, hold exactly those ops.
#[test]
fn tape_stores_every_test_scale_workload() {
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in Benchmark::ALL {
        let w = bench.build(&cfg);
        let ops = w.uops();
        let tape = w.tape();
        let from_ops = Tape::from_ops(ops.ops()).expect("contiguous");
        for t in [&tape, &from_ops] {
            check_tape(t, ops.ops(), 4096).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        }
    }
}
