//! The predecode layer's losslessness contract, enumerated over every
//! instruction form in `inst.rs`:
//!
//! * statically, `DecodedInst::from_inst` → `reencode` reproduces the
//!   original `Inst` exactly for every variant, operand shape,
//!   addressing mode, width, register file, and immediate extreme;
//! * dynamically, every micro-op the executor emits for a program that
//!   exercises every form survives `decode` → `encode` byte-for-byte,
//!   so the `TraceInst` decode view loses nothing.

use hbat_isa::inst::{AddrMode, AluOp, Cond, FpuOp, Inst, Operand, Width};
use hbat_isa::uop::{DecodedInst, MicroOp, PredecodedTrace};
use hbat_isa::{Machine, Program, Reg};

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

/// Every address-mode shape worth distinguishing, including the
/// zero-register base (absolute addressing) and negative adjustments.
fn addr_modes() -> Vec<AddrMode> {
    let base = Reg::int(4);
    let index = Reg::int(5);
    vec![
        AddrMode::BaseOffset { base, offset: 0 },
        AddrMode::BaseOffset { base, offset: 8 },
        AddrMode::BaseOffset { base, offset: -16 },
        AddrMode::BaseOffset {
            base: Reg::ZERO,
            offset: 0x4000,
        },
        AddrMode::BaseOffset {
            base,
            offset: i32::MAX,
        },
        AddrMode::BaseOffset {
            base,
            offset: i32::MIN,
        },
        AddrMode::BaseIndex { base, index },
        AddrMode::BaseIndex {
            base: Reg::ZERO,
            index,
        },
        AddrMode::BaseIndex {
            base,
            index: Reg::ZERO,
        },
        AddrMode::PostInc { base, step: 8 },
        AddrMode::PostInc { base, step: -8 },
        AddrMode::PostInc {
            base: Reg::ZERO,
            step: 4,
        },
    ]
}

/// Every static instruction form: the full cross-products the ISA
/// admits, with both register files where loads/stores allow them.
fn every_inst_form() -> Vec<Inst> {
    let mut forms = Vec::new();
    for op in ALU_OPS {
        for b in [Operand::Reg(Reg::int(3)), Operand::Imm(7), Operand::Imm(-7)] {
            forms.push(Inst::Alu {
                op,
                d: Reg::int(1),
                a: Reg::int(2),
                b,
            });
        }
        forms.push(Inst::Alu {
            op,
            d: Reg::ZERO,
            a: Reg::ZERO,
            b: Operand::Imm(i32::MIN),
        });
        forms.push(Inst::Alu {
            op,
            d: Reg::int(1),
            a: Reg::int(1),
            b: Operand::Reg(Reg::int(1)),
        });
    }
    forms.push(Inst::Mul {
        d: Reg::int(1),
        a: Reg::int(2),
        b: Reg::int(3),
    });
    forms.push(Inst::Div {
        d: Reg::int(1),
        a: Reg::int(2),
        b: Reg::int(3),
    });
    for op in FPU_OPS {
        forms.push(Inst::Fpu {
            op,
            d: Reg::fp(1),
            a: Reg::fp(2),
            b: Reg::fp(3),
        });
    }
    for imm in [0, 1, -1, i64::MAX, i64::MIN] {
        forms.push(Inst::Li {
            d: Reg::int(1),
            imm,
        });
    }
    for addr in addr_modes() {
        for width in WIDTHS {
            for d in [Reg::int(6), Reg::fp(6)] {
                forms.push(Inst::Load { d, addr, width });
            }
            for s in [Reg::int(6), Reg::fp(6)] {
                forms.push(Inst::Store { s, addr, width });
            }
        }
    }
    for cond in CONDS {
        forms.push(Inst::Branch {
            cond,
            a: Reg::int(1),
            b: Reg::int(2),
            target: 0,
        });
        forms.push(Inst::Branch {
            cond,
            a: Reg::ZERO,
            b: Reg::ZERO,
            target: u32::MAX,
        });
    }
    forms.push(Inst::Jump { target: 0 });
    forms.push(Inst::Jump { target: 12345 });
    forms.push(Inst::Halt);
    forms.push(Inst::Nop);
    forms
}

#[test]
fn every_static_form_reencodes_exactly() {
    for (pc, inst) in every_inst_form().into_iter().enumerate() {
        let decoded = DecodedInst::from_inst(pc as u32, inst);
        assert_eq!(
            decoded.reencode(),
            inst,
            "form {inst} does not survive predecode"
        );
    }
}

/// A runnable program touching every handler, every addressing mode,
/// every width, both register files, taken and not-taken branches.
fn exercise_program() -> Program {
    let mut code = vec![
        // Register setup: an in-bounds data pointer and small values.
        Inst::Li {
            d: Reg::int(4),
            imm: 0x100,
        },
        Inst::Li {
            d: Reg::int(5),
            imm: 8,
        },
        Inst::Li {
            d: Reg::int(2),
            imm: 21,
        },
        Inst::Li {
            d: Reg::int(3),
            imm: 2,
        },
    ];
    for op in ALU_OPS {
        code.push(Inst::Alu {
            op,
            d: Reg::int(1),
            a: Reg::int(2),
            b: Operand::Reg(Reg::int(3)),
        });
        code.push(Inst::Alu {
            op,
            d: Reg::int(1),
            a: Reg::int(2),
            b: Operand::Imm(3),
        });
    }
    code.push(Inst::Mul {
        d: Reg::int(1),
        a: Reg::int(2),
        b: Reg::int(3),
    });
    code.push(Inst::Div {
        d: Reg::int(1),
        a: Reg::int(2),
        b: Reg::int(3),
    });
    code.push(Inst::Div {
        d: Reg::int(1),
        a: Reg::int(2),
        b: Reg::ZERO, // divide-by-zero path
    });
    for op in FPU_OPS {
        code.push(Inst::Fpu {
            op,
            d: Reg::fp(1),
            a: Reg::fp(2),
            b: Reg::fp(3),
        });
    }
    // Loads and stores: every mode; every width for int registers, the
    // full doubleword for FP.
    let modes = [
        AddrMode::BaseOffset {
            base: Reg::int(4),
            offset: 16,
        },
        AddrMode::BaseIndex {
            base: Reg::int(4),
            index: Reg::int(5),
        },
        AddrMode::PostInc {
            base: Reg::int(4),
            step: 8,
        },
        AddrMode::BaseOffset {
            base: Reg::ZERO,
            offset: 0x140,
        },
    ];
    for addr in modes {
        for width in WIDTHS {
            code.push(Inst::Store {
                s: Reg::int(2),
                addr,
                width,
            });
            code.push(Inst::Load {
                d: Reg::int(6),
                addr,
                width,
            });
        }
        code.push(Inst::Store {
            s: Reg::fp(2),
            addr,
            width: Width::B8,
        });
        code.push(Inst::Load {
            d: Reg::fp(6),
            addr,
            width: Width::B8,
        });
    }
    // Branches: each condition both taken and not taken (r2=21 > r3=2,
    // so cond(a,b) and cond(b,a) disagree for every ordering cond, and
    // eq/ne flip between (r2,r2) and (r2,r3)).
    let next = |code: &[Inst]| code.len() as u32 + 1;
    for cond in CONDS {
        code.push(Inst::Branch {
            cond,
            a: Reg::int(2),
            b: Reg::int(3),
            target: next(&code),
        });
        code.push(Inst::Branch {
            cond,
            a: Reg::int(3),
            b: Reg::int(2),
            target: next(&code),
        });
        code.push(Inst::Branch {
            cond,
            a: Reg::int(2),
            b: Reg::int(2),
            target: next(&code),
        });
    }
    let jump_target = code.len() as u32 + 1;
    code.push(Inst::Jump {
        target: jump_target,
    });
    code.push(Inst::Nop);
    code.push(Inst::Halt);
    Program::new(code).expect("exercise program is well-formed")
}

#[test]
fn executed_trace_of_every_form_round_trips() {
    let uops = Machine::new(exercise_program()).run_to_uops(10_000);
    assert!(uops.len() > 80, "exercise program barely ran");

    // Per-record: decode → encode is the identity.
    for u in uops.iter() {
        assert_eq!(
            MicroOp::encode(&u.decode()),
            *u,
            "op {} not lossless",
            u.serial
        );
    }

    // Whole-trace: the decode view re-encodes to the same stream.
    assert_eq!(PredecodedTrace::predecode(&uops.decode()), uops);
}

#[test]
fn predecoded_program_reencodes_the_whole_program() {
    use hbat_isa::uop::PredecodedProgram;
    let program = exercise_program();
    let predecoded = PredecodedProgram::from_program(&program);
    assert_eq!(predecoded.reencode(), program.instructions());
}
