//! Micro-validation of the timing engine: tiny hand-built programs with
//! analytically known cycle behaviour.

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::{simulate_uops, RunMetrics, SimConfig};
use hbat_isa::executor::Machine;
use hbat_isa::inst::{AddrMode, AluOp, Cond, Inst, Operand, Width};
use hbat_isa::program::Program;
use hbat_isa::reg::Reg;

fn run_insts(insts: Vec<Inst>, cfg: &SimConfig) -> RunMetrics {
    let program = Program::new(insts).expect("valid test program");
    let trace = Machine::new(program).run_to_uops(1_000_000);
    let mut tlb = DesignSpec::Unlimited.build(PageGeometry::KB4, 1);
    simulate_uops(cfg, &trace, tlb.as_mut())
}

fn add(d: u8, a: u8, imm: i32) -> Inst {
    Inst::Alu {
        op: AluOp::Add,
        d: Reg::int(d),
        a: Reg::int(a),
        b: Operand::Imm(imm),
    }
}

#[test]
fn dependent_chain_runs_at_one_per_cycle() {
    // 200 dependent adds: the chain bounds execution at 1 IPC regardless
    // of machine width.
    let mut insts = vec![Inst::Li {
        d: Reg::int(1),
        imm: 0,
    }];
    for _ in 0..200 {
        insts.push(add(1, 1, 1));
    }
    insts.push(Inst::Halt);
    let m = run_insts(insts, &SimConfig::baseline());
    assert!(
        (m.cycles as i64 - 201).unsigned_abs() < 40,
        "chain of 200 adds took {} cycles",
        m.cycles
    );
}

#[test]
fn independent_work_uses_the_full_width() {
    // 8 independent add streams in a warm loop: straight-line cold code
    // would be I-cache-fetch bound, so loop over a small body instead.
    let mut insts: Vec<Inst> = (1..10)
        .map(|r| Inst::Li {
            d: Reg::int(r),
            imm: 0,
        })
        .collect();
    insts.push(Inst::Li {
        d: Reg::int(10),
        imm: 200,
    });
    let top = insts.len() as u32;
    for r in 1..9u8 {
        insts.push(add(r, r, 1));
        insts.push(add(r, r, 2));
    }
    insts.push(Inst::Alu {
        op: AluOp::Sub,
        d: Reg::int(10),
        a: Reg::int(10),
        b: Operand::Imm(1),
    });
    insts.push(Inst::Branch {
        cond: Cond::Gt,
        a: Reg::int(10),
        b: Reg::ZERO,
        target: top,
    });
    insts.push(Inst::Halt);
    let m = run_insts(insts, &SimConfig::baseline());
    assert!(
        m.ipc() > 3.5,
        "independent streams should fill the machine: {}",
        m.ipc()
    );
}

#[test]
fn store_to_load_forwarding_skips_the_cache() {
    // store x; load x — repeatedly. Forwarded loads never access the
    // data cache, so cache accesses ≈ stores only (plus the commit
    // writes).
    let mut insts = vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 0x4000,
        },
        Inst::Li {
            d: Reg::int(2),
            imm: 42,
        },
    ];
    for _ in 0..50 {
        insts.push(Inst::Store {
            s: Reg::int(2),
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: 0,
            },
            width: Width::B8,
        });
        insts.push(Inst::Load {
            d: Reg::int(3),
            addr: AddrMode::BaseOffset {
                base: Reg::int(1),
                offset: 0,
            },
            width: Width::B8,
        });
    }
    insts.push(Inst::Halt);
    let m = run_insts(insts, &SimConfig::baseline());
    assert_eq!(m.loads, 50);
    assert_eq!(m.stores, 50);
    // Every load that overlaps an in-flight store forwards. Only commit
    // writes (50) plus at most a few load probes should touch the cache.
    assert!(
        m.dcache.accesses < 70,
        "forwarding should bypass the cache: {} accesses",
        m.dcache.accesses
    );
}

#[test]
fn mispredicted_branches_cost_cycles() {
    // An unpredictable branch pattern (period 97 ≫ history) vs an
    // always-taken one with identical instruction counts.
    let build = |chaotic: bool| {
        let mut insts = vec![
            Inst::Li {
                d: Reg::int(1),
                imm: 2000,
            }, // counter
            Inst::Li {
                d: Reg::int(2),
                imm: 0,
            }, // phase
        ];
        let top = insts.len() as u32;
        // phase = (phase + 1) % 97 via subtract-on-overflow
        insts.push(add(2, 2, 1));
        let modulus = if chaotic { 97 } else { 1 };
        insts.push(Inst::Li {
            d: Reg::int(3),
            imm: modulus,
        });
        insts.push(Inst::Alu {
            op: AluOp::Slt,
            d: Reg::int(4),
            a: Reg::int(2),
            b: Operand::Reg(Reg::int(3)),
        });
        let skip = (insts.len() + 2) as u32;
        insts.push(Inst::Branch {
            cond: Cond::Ne,
            a: Reg::int(4),
            b: Reg::ZERO,
            target: skip,
        });
        insts.push(Inst::Li {
            d: Reg::int(2),
            imm: 0,
        });
        // loop control
        insts.push(Inst::Alu {
            op: AluOp::Sub,
            d: Reg::int(1),
            a: Reg::int(1),
            b: Operand::Imm(1),
        });
        insts.push(Inst::Branch {
            cond: Cond::Gt,
            a: Reg::int(1),
            b: Reg::ZERO,
            target: top,
        });
        insts.push(Inst::Halt);
        insts
    };
    // chaotic=false: the wrap branch goes the same way every time.
    let regular = run_insts(build(false), &SimConfig::baseline());
    let chaotic = run_insts(build(true), &SimConfig::baseline());
    assert!(
        regular.bpred_rate() > chaotic.bpred_rate() - 0.001,
        "{} vs {}",
        regular.bpred_rate(),
        chaotic.bpred_rate()
    );
}

#[test]
fn tlb_misses_stall_dispatch_for_the_walk() {
    // Touch 64 pages through a 4-entry-TLB-sized working set... use T4
    // (128 entries) on 300 pages so every access is a compulsory miss.
    let mut insts = vec![Inst::Li {
        d: Reg::int(1),
        imm: 0x10_0000,
    }];
    for _ in 0..300 {
        insts.push(Inst::Load {
            d: Reg::int(2),
            addr: AddrMode::PostInc {
                base: Reg::int(1),
                step: 4096,
            },
            width: Width::B8,
        });
    }
    insts.push(Inst::Halt);
    let program = Program::new(insts).expect("valid");
    let trace = Machine::new(program).run_to_uops(10_000);
    let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
    let m = simulate_uops(&SimConfig::baseline(), &trace, tlb.as_mut());
    assert_eq!(m.tlb.misses, 300, "every page is new");
    // Each miss costs ~30 cycles of dispatch stall; they dominate.
    assert!(
        m.cycles > 300 * 25,
        "{} cycles for 300 compulsory misses",
        m.cycles
    );
    assert!(m.tlb_dispatch_stall_cycles > 300 * 20);
}

#[test]
fn in_order_stalls_on_waw_out_of_order_renames() {
    // r2 = slow multiply chain; then an independent r2 redefinition.
    // In-order must wait (WAW); out-of-order renames past it.
    let mut insts = vec![
        Inst::Li {
            d: Reg::int(1),
            imm: 3,
        },
        Inst::Li {
            d: Reg::int(4),
            imm: 0,
        },
    ];
    for _ in 0..60 {
        insts.push(Inst::Mul {
            d: Reg::int(2),
            a: Reg::int(1),
            b: Reg::int(1),
        });
        insts.push(Inst::Li {
            d: Reg::int(2),
            imm: 7,
        }); // WAW on r2
        insts.push(add(4, 4, 1));
    }
    insts.push(Inst::Halt);
    let ooo = run_insts(insts.clone(), &SimConfig::baseline());
    let ino = run_insts(insts, &SimConfig::baseline_inorder());
    assert!(
        ino.cycles > ooo.cycles,
        "in-order {} should trail out-of-order {}",
        ino.cycles,
        ooo.cycles
    );
}

#[test]
fn icache_misses_stall_fetch() {
    // A program far larger than one I-cache way-set footprint, executed
    // once (no reuse): every block fetch misses.
    let mut insts = Vec::new();
    for r in [1u8, 2, 3] {
        insts.push(Inst::Li {
            d: Reg::int(r),
            imm: 1,
        });
    }
    for _ in 0..20_000 {
        insts.push(add(1, 1, 1));
    }
    insts.push(Inst::Halt);
    let m = run_insts(insts, &SimConfig::baseline());
    assert!(
        m.icache.misses > 1_000,
        "straight-line cold code must miss: {}",
        m.icache.misses
    );
    // 20k dependent adds at 1/cycle dominate anyway; sanity only.
    assert!(m.cycles > 20_000);
}

#[test]
fn commit_width_bounds_throughput() {
    // However much independent work is in flight, committed IPC cannot
    // exceed the 8-wide machine.
    let mut insts: Vec<Inst> = (1..17)
        .map(|r| Inst::Li {
            d: Reg::int(r),
            imm: 0,
        })
        .collect();
    insts.push(Inst::Li {
        d: Reg::int(20),
        imm: 300,
    });
    let top = insts.len() as u32;
    for r in 1..17u8 {
        insts.push(add(r, r, 1));
    }
    insts.push(Inst::Alu {
        op: AluOp::Sub,
        d: Reg::int(20),
        a: Reg::int(20),
        b: Operand::Imm(1),
    });
    insts.push(Inst::Branch {
        cond: Cond::Gt,
        a: Reg::int(20),
        b: Reg::ZERO,
        target: top,
    });
    insts.push(Inst::Halt);
    let m = run_insts(insts, &SimConfig::baseline());
    assert!(m.ipc() <= 8.0 + 1e-9);
    assert!(
        m.ipc() > 3.0,
        "warm independent loop should run fast: {}",
        m.ipc()
    );
}
