//! Property-based tests for the timing engine.

use proptest::prelude::*;

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::{simulate_uops, SimConfig};
use hbat_isa::executor::Machine;
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;

/// Random programs with loops, branches, and memory traffic — valid by
/// construction.
fn looping_program() -> impl Strategy<Value = Vec<Inst>> {
    let reg = (3u8..8).prop_map(Reg::int);
    let body_inst = prop_oneof![
        (reg.clone(), reg.clone(), -100i32..100).prop_map(|(d, a, imm)| Inst::Alu {
            op: AluOp::Add,
            d,
            a,
            b: Operand::Imm(imm),
        }),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| Inst::Alu {
            op: AluOp::Xor,
            d,
            a,
            b: Operand::Reg(b),
        }),
        (reg.clone(), 0i32..512).prop_map(|(d, off)| Inst::Load {
            d,
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: off & !7
            },
            width: Width::B8,
        }),
        (reg.clone(), 0i32..512).prop_map(|(s, off)| Inst::Store {
            s,
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: off & !7
            },
            width: Width::B8,
        }),
        (reg.clone(), reg.clone()).prop_map(|(d, a)| Inst::Mul { d, a, b: a }),
    ];
    (prop::collection::vec(body_inst, 1..25), 1i64..30).prop_map(|(body, iters)| {
        // for r2 in iters..0 { body }
        let mut prog = vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 0x20_0000,
            },
            Inst::Li {
                d: Reg::int(2),
                imm: iters,
            },
        ];
        let top = prog.len() as u32;
        prog.extend(body);
        prog.push(Inst::Alu {
            op: AluOp::Sub,
            d: Reg::int(2),
            a: Reg::int(2),
            b: Operand::Imm(1),
        });
        prog.push(Inst::Branch {
            cond: Cond::Gt,
            a: Reg::int(2),
            b: Reg::ZERO,
            target: top,
        });
        prog.push(Inst::Halt);
        prog
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every design commits every instruction of any program, within
    /// physically sensible cycle bounds, deterministically.
    #[test]
    fn engine_commits_everything_within_bounds(
        insts in looping_program(),
        design_idx in 0usize..13,
        in_order in any::<bool>(),
    ) {
        let program = Program::new(insts).expect("generated programs are valid");
        let trace = Machine::new(program).run_to_uops(50_000);
        let cfg = if in_order {
            SimConfig::baseline_inorder()
        } else {
            SimConfig::baseline()
        };
        let spec = DesignSpec::TABLE2[design_idx];
        let run = |seed| {
            let mut tlb = spec.build(PageGeometry::KB4, seed);
            simulate_uops(&cfg, &trace, tlb.as_mut())
        };
        let m = run(7);
        prop_assert_eq!(m.committed, trace.len() as u64);
        // Can't beat the machine width; can't be absurdly slow either.
        prop_assert!(m.cycles as f64 >= trace.len() as f64 / 8.0);
        prop_assert!(m.cycles < 200 * trace.len() as u64 + 10_000);
        prop_assert!(m.tlb.is_consistent());
        // Deterministic for a fixed seed.
        let m2 = run(7);
        prop_assert_eq!(m.cycles, m2.cycles);
    }

    /// Translation bandwidth is monotone: more TLB ports never lose.
    #[test]
    fn more_ports_never_hurt(insts in looping_program()) {
        let program = Program::new(insts).expect("valid");
        let trace = Machine::new(program).run_to_uops(50_000);
        let cfg = SimConfig::baseline();
        let cycles = |ports| {
            let mut tlb = DesignSpec::MultiPorted { ports }.build(PageGeometry::KB4, 3);
            simulate_uops(&cfg, &trace, tlb.as_mut()).cycles
        };
        let (c1, c2, c4) = (cycles(1), cycles(2), cycles(4));
        // Walk serialisation (Table 1's "after earlier-issued instructions
        // complete") makes exact monotonicity subject to ±1-cycle
        // scheduling jitter; allow a small tolerance.
        let slack = 2 + c1 / 100;
        prop_assert!(c4 <= c2 + slack, "T4 {} vs T2 {}", c4, c2);
        prop_assert!(c2 <= c1 + slack, "T2 {} vs T1 {}", c2, c1);
    }
}
