//! Property-based tests for the timing engine.

use proptest::prelude::*;

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::engine::{Engine, FETCH_CHUNK};
use hbat_cpu::{simulate_uops, RunMetrics, SimConfig, WarmAccumulator};
use hbat_isa::executor::{Machine, OpSource};
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;
use hbat_obs::TraceRecorder;

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

/// `ops` timed under `design` from the cold state, traced: the metrics
/// and the recorder's whole state, rendered.
fn run_stream(cfg: &SimConfig, design: &str, ops: impl OpSource) -> (RunMetrics, String) {
    let mut tlb = DesignSpec::parse(design)
        .expect("a Table-2 design")
        .build(PageGeometry::KB4, 5);
    let cold = WarmAccumulator::new(cfg, PageGeometry::KB4).warm_state();
    let mut rec = TraceRecorder::new();
    let m = Engine::new(cfg, ops, tlb.as_mut(), &cold, &mut rec).run();
    (m, format!("{rec:?}"))
}

/// The engine's three op streams agree: the program's machine
/// executing, a reader of its tape and its micro-ops give identical
/// metrics and recorder state under T1, I4/PB, M8 and P8, out of order
/// and in order. Returns the run length and the out-of-order T1 metrics.
fn streams_agree(insts: Vec<Inst>) -> (usize, RunMetrics) {
    let machine = Machine::new(Program::new(insts).expect("a valid program"));
    let tape = machine.clone().run_to_tape(50_000);
    let uops = machine.clone().run_to_uops(50_000);
    let mut t1 = None;
    for cfg in [SimConfig::baseline(), SimConfig::baseline_inorder()] {
        for design in ["T1", "I4/PB", "M8", "P8"] {
            let want = run_stream(&cfg, design, machine.clone());
            let what = format!("{design} {:?}", cfg.issue_model);
            assert_eq!(
                run_stream(&cfg, design, tape.reader()),
                want,
                "tape, {what}"
            );
            assert_eq!(
                run_stream(&cfg, design, uops.ops()),
                want,
                "micro-ops, {what}"
            );
            assert_eq!(want.0.committed, uops.len() as u64, "{what}");
            t1.get_or_insert(want.0);
        }
    }
    (uops.len(), t1.expect("at least one run"))
}

/// A loop of `iters` iterations of a load, a count-down and the back
/// edge, then two ops and `Halt`: the exit mispredicts (the predictor
/// has learnt the taken back edge) two ops before the stream's end, so
/// phantom fetch takes both and runs into the end.
fn counted_loop(iters: i64) -> Vec<Inst> {
    vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 0x20_0000,
        },
        Inst::Li {
            d: Reg::int(2),
            imm: iters,
        },
        Inst::Load {
            d: Reg::int(3),
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: 8,
            },
            width: Width::B8,
        },
        Inst::Alu {
            op: AluOp::Sub,
            d: Reg::int(2),
            a: Reg::int(2),
            b: Operand::Imm(1),
        },
        Inst::Branch {
            cond: Cond::Gt,
            a: Reg::int(2),
            b: Reg::ZERO,
            target: 2,
        },
        Inst::Li {
            d: Reg::int(4),
            imm: 1,
        },
        Inst::Li {
            d: Reg::int(5),
            imm: 2,
        },
        Inst::Halt,
    ]
}

#[test]
fn streams_agree_on_an_empty_and_a_one_op_program() {
    assert_eq!(streams_agree(vec![Inst::Halt]).0, 0);
    let li = Inst::Li {
        d: Reg::int(1),
        imm: 7,
    };
    assert_eq!(streams_agree(vec![li, Inst::Halt]).0, 1);
}

#[test]
fn streams_agree_when_phantom_fetch_runs_past_the_end() {
    // Shorter than one refill chunk, then across several.
    for iters in [20, 1_000] {
        let (len, m) = streams_agree(counted_loop(iters));
        assert_eq!(len as i64, 4 + 3 * iters);
        assert_eq!(len < FETCH_CHUNK, iters == 20);
        assert!(m.bpred_correct < m.cond_branches, "the exit mispredicts");
        assert!(m.squashed > 0, "wrong-path ops were fetched and squashed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs, some shorter than one refill chunk and some
    /// longer, time the same from every stream.
    #[test]
    fn streams_agree_on_random_programs(insts in looping_program()) {
        streams_agree(insts);
    }

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
