//! Tests of the wrong-path (phantom) execution machinery.

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::{simulate_uops, RunMetrics, SimConfig};
use hbat_isa::executor::Machine;
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;
use hbat_isa::uop::PredecodedTrace;

/// A loop with an unpredictable inner branch and steady memory traffic.
fn chaotic_mem_loop(iters: i64) -> Vec<Inst> {
    let mut insts = vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 0x40_0000,
        }, // data pointer
        Inst::Li {
            d: Reg::int(2),
            imm: iters,
        }, // counter
        Inst::Li {
            d: Reg::int(3),
            imm: 0x9E37,
        }, // mix constant
        Inst::Li {
            d: Reg::int(4),
            imm: 12345,
        }, // lcg state
    ];
    let top = insts.len() as u32;
    // Advance a little RNG in registers.
    insts.push(Inst::Mul {
        d: Reg::int(4),
        a: Reg::int(4),
        b: Reg::int(3),
    });
    insts.push(Inst::Alu {
        op: AluOp::Add,
        d: Reg::int(4),
        a: Reg::int(4),
        b: Operand::Imm(1),
    });
    insts.push(Inst::Alu {
        op: AluOp::Srl,
        d: Reg::int(5),
        a: Reg::int(4),
        b: Operand::Imm(17),
    });
    insts.push(Inst::Alu {
        op: AluOp::And,
        d: Reg::int(5),
        a: Reg::int(5),
        b: Operand::Imm(1),
    });
    // Unpredictable direction.
    let skip = (insts.len() + 3) as u32;
    insts.push(Inst::Branch {
        cond: Cond::Ne,
        a: Reg::int(5),
        b: Reg::ZERO,
        target: skip,
    });
    insts.push(Inst::Load {
        d: Reg::int(6),
        addr: AddrMode::BaseOffset {
            base: Reg::int(1),
            offset: 0,
        },
        width: Width::B8,
    });
    insts.push(Inst::Alu {
        op: AluOp::Add,
        d: Reg::int(7),
        a: Reg::int(7),
        b: Operand::Reg(Reg::int(6)),
    });
    // Shared tail: more memory traffic.
    insts.push(Inst::Load {
        d: Reg::int(8),
        addr: AddrMode::BaseOffset {
            base: Reg::int(1),
            offset: 64,
        },
        width: Width::B8,
    });
    insts.push(Inst::Store {
        s: Reg::int(8),
        addr: AddrMode::BaseOffset {
            base: Reg::int(1),
            offset: 128,
        },
        width: Width::B8,
    });
    insts.push(Inst::Alu {
        op: AluOp::Sub,
        d: Reg::int(2),
        a: Reg::int(2),
        b: Operand::Imm(1),
    });
    insts.push(Inst::Branch {
        cond: Cond::Gt,
        a: Reg::int(2),
        b: Reg::ZERO,
        target: top,
    });
    insts.push(Inst::Halt);
    insts
}

fn run(insts: Vec<Inst>) -> RunMetrics {
    let program = Program::new(insts).expect("valid");
    let trace = PredecodedTrace::predecode(&Machine::new(program).run_to_vec(1_000_000));
    let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
    simulate_uops(&SimConfig::baseline(), &trace, tlb.as_mut())
}

#[test]
fn mispredictions_spawn_and_squash_phantoms() {
    let m = run(chaotic_mem_loop(3_000));
    let mispredicts = m.cond_branches - m.bpred_correct;
    assert!(
        mispredicts > 500,
        "the mixed branch should mispredict often: {mispredicts}"
    );
    assert!(m.squashed > 0, "phantoms must have been squashed");
    assert!(
        m.issued > m.committed,
        "issue volume must exceed commit volume: {} vs {}",
        m.issued,
        m.committed
    );
    assert!(
        m.wrong_path_translations > 0,
        "phantom memory ops must reach the TLB"
    );
}

#[test]
fn phantom_work_never_commits() {
    let m = run(chaotic_mem_loop(1_000));
    // Committed counts are exactly the trace's, independent of phantoms.
    let program = Program::new(chaotic_mem_loop(1_000)).expect("valid");
    let trace = Machine::new(program).run_to_vec(1_000_000);
    assert_eq!(m.committed, trace.len() as u64);
    let trace_loads = trace
        .iter()
        .filter(|t| {
            t.mem
                .map(|mm| mm.kind == hbat_core::request::AccessKind::Load)
                .unwrap_or(false)
        })
        .count() as u64;
    assert_eq!(m.loads, trace_loads, "committed loads match the trace");
    // But the TLB saw more traffic than the committed stream.
    assert!(m.tlb.accesses > trace.iter().filter(|t| t.is_mem()).count() as u64);
}

#[test]
fn perfectly_predicted_code_has_no_phantoms() {
    // A plain counted loop: after warmup the predictor is near-perfect,
    // so speculation volume is tiny.
    let mut insts = vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 0x40_0000,
        },
        Inst::Li {
            d: Reg::int(2),
            imm: 2_000,
        },
    ];
    let top = insts.len() as u32;
    insts.push(Inst::Load {
        d: Reg::int(3),
        addr: AddrMode::BaseOffset {
            base: Reg::int(1),
            offset: 0,
        },
        width: Width::B8,
    });
    insts.push(Inst::Alu {
        op: AluOp::Sub,
        d: Reg::int(2),
        a: Reg::int(2),
        b: Operand::Imm(1),
    });
    insts.push(Inst::Branch {
        cond: Cond::Gt,
        a: Reg::int(2),
        b: Reg::ZERO,
        target: top,
    });
    insts.push(Inst::Halt);
    let m = run(insts);
    assert!(m.bpred_rate() > 0.99);
    assert!(
        m.squashed < 50,
        "near-perfect prediction leaves almost no phantoms: {}",
        m.squashed
    );
}

#[test]
fn speculation_affects_timing_but_not_results() {
    // The same chaotic program under in-order and out-of-order issue
    // commits identical instruction/load/store counts.
    let program = Program::new(chaotic_mem_loop(800)).expect("valid");
    let trace = PredecodedTrace::predecode(&Machine::new(program).run_to_vec(1_000_000));
    let mut a = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
    let mut b = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
    let ooo = simulate_uops(&SimConfig::baseline(), &trace, a.as_mut());
    let ino = simulate_uops(&SimConfig::baseline_inorder(), &trace, b.as_mut());
    assert_eq!(ooo.committed, ino.committed);
    assert_eq!(ooo.loads, ino.loads);
    assert_eq!(ooo.stores, ino.stores);
    assert_eq!(ooo.cond_branches, ino.cond_branches);
}
