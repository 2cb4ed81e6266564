//! Fast-forward functional mode: Machine-only stepping, no timing engine.
//!
//! [`fast_forward`] advances a functional [`Machine`] to a target
//! committed-instruction index while streaming every committed
//! instruction through a [`WarmAccumulator`], invoking a checkpoint hook
//! at every interval multiple and once at the end (the boundary, or the
//! halt point if the program ends early). Stepping costs only the
//! functional executor — no per-cycle timing — which is what makes
//! resuming a crashed multi-hour sweep cheap.

use std::sync::atomic::{AtomicBool, Ordering};

use hbat_cpu::WarmAccumulator;
use hbat_isa::Machine;

use crate::format::CkptError;

/// How a fast-forward run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForward {
    /// Committed-instruction index reached (== target unless the program
    /// halted first).
    pub index: u64,
    /// Whether the machine halted before (or exactly at) the target.
    pub halted: bool,
}

/// Steps `machine` from committed-instruction index `from` to `target`,
/// feeding each committed instruction to `acc`.
///
/// `emit(machine, acc, index)` is called at every multiple of `interval`
/// strictly below the end, and once at the end itself — so the final
/// snapshot always sits exactly at the boundary (or the halt point), and
/// a crash between intervals loses at most `interval` instructions of
/// fast-forward work. `cancel`, when set, aborts with
/// [`CkptError::Cancelled`] (checked between instructions).
///
/// # Panics
///
/// Panics if `interval == 0` or `from > target` — caller bugs, not input
/// conditions.
pub fn fast_forward(
    machine: &mut Machine,
    acc: &mut WarmAccumulator,
    from: u64,
    target: u64,
    interval: u64,
    cancel: Option<&AtomicBool>,
    mut emit: impl FnMut(&Machine, &WarmAccumulator, u64) -> Result<(), CkptError>,
) -> Result<FastForward, CkptError> {
    assert!(interval > 0, "checkpoint interval must be positive");
    assert!(from <= target, "cannot fast-forward backwards");
    debug_assert_eq!(
        machine.instructions_retired(),
        from,
        "machine position must match the claimed starting index"
    );

    let mut i = from;
    while i < target && !machine.is_halted() {
        if let Some(c) = cancel {
            if i.is_multiple_of(1024) && c.load(Ordering::Relaxed) {
                return Err(CkptError::Cancelled);
            }
        }
        let Some(u) = machine.step() else {
            break; // halted: the Halt step retires nothing
        };
        acc.note_uop(&u);
        i += 1;
        if i.is_multiple_of(interval) && i < target {
            emit(machine, acc, i)?;
        }
    }
    emit(machine, acc, i)?;
    Ok(FastForward {
        index: i,
        halted: machine.is_halted(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_core::addr::PageGeometry;
    use hbat_cpu::SimConfig;
    use hbat_isa::inst::{AddrMode, AluOp, Cond, Operand, Width};
    use hbat_isa::{Inst, Program, Reg};

    /// A little counted loop with a load per iteration: 1 + 4*n + 1
    /// committed instructions for n iterations.
    fn loop_program(iters: i64) -> Machine {
        let program = Program::new(vec![
            Inst::Li {
                d: Reg::int(1),
                imm: iters,
            },
            Inst::Load {
                d: Reg::int(2),
                addr: AddrMode::BaseOffset {
                    base: Reg::int(1),
                    offset: 0x1000,
                },
                width: Width::B8,
            },
            Inst::Alu {
                op: AluOp::Add,
                d: Reg::int(1),
                a: Reg::int(1),
                b: Operand::Imm(-1),
            },
            Inst::Nop,
            Inst::Branch {
                cond: Cond::Gt,
                a: Reg::int(1),
                b: Reg::int(0),
                target: 1,
            },
            Inst::Halt,
        ])
        .unwrap();
        Machine::new(program)
    }

    fn acc() -> WarmAccumulator {
        WarmAccumulator::new(&SimConfig::baseline(), PageGeometry::KB4)
    }

    #[test]
    fn emits_at_intervals_and_at_the_boundary() {
        let mut m = loop_program(100);
        let mut a = acc();
        let mut emitted = Vec::new();
        let out = fast_forward(&mut m, &mut a, 0, 250, 100, None, |_, _, i| {
            emitted.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(out.index, 250);
        assert!(!out.halted);
        assert_eq!(emitted, vec![100, 200, 250]);
        assert_eq!(m.instructions_retired(), 250);
    }

    #[test]
    fn boundary_on_an_interval_multiple_emits_once() {
        let mut m = loop_program(100);
        let mut a = acc();
        let mut emitted = Vec::new();
        fast_forward(&mut m, &mut a, 0, 200, 100, None, |_, _, i| {
            emitted.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(emitted, vec![100, 200]);
    }

    #[test]
    fn early_halt_emits_the_halt_point() {
        let mut m = loop_program(3); // 1 + 4*3 committed (Halt retires nothing)
        let mut a = acc();
        let mut emitted = Vec::new();
        let out = fast_forward(&mut m, &mut a, 0, 10_000, 100, None, |_, _, i| {
            emitted.push(i);
            Ok(())
        })
        .unwrap();
        assert!(out.halted);
        assert_eq!(out.index, 13);
        assert_eq!(emitted, vec![13]);
    }

    #[test]
    fn resume_from_midpoint_matches_straight_run() {
        // Straight run to 300.
        let mut m1 = loop_program(1000);
        let mut a1 = acc();
        fast_forward(&mut m1, &mut a1, 0, 300, 1000, None, |_, _, _| Ok(())).unwrap();

        // Run to 120, clone state (standing in for snapshot restore),
        // resume to 300.
        let mut m2 = loop_program(1000);
        let mut a2 = acc();
        fast_forward(&mut m2, &mut a2, 0, 120, 1000, None, |_, _, _| Ok(())).unwrap();
        let mut m3 = loop_program(1000);
        m3.restore_arch_state(&m2.arch_state()).unwrap();
        *m3.memory_mut() = m2.memory().clone();
        let mut a3 =
            WarmAccumulator::import(&SimConfig::baseline(), PageGeometry::KB4, &a2.export());
        fast_forward(&mut m3, &mut a3, 120, 300, 1000, None, |_, _, _| Ok(())).unwrap();

        assert_eq!(m1.arch_state(), m3.arch_state());
        assert_eq!(a1.export(), a3.export());
        assert_eq!(a1.warm_state(), a3.warm_state());
    }

    #[test]
    fn cancellation_aborts_with_typed_error() {
        let mut m = loop_program(10_000);
        let mut a = acc();
        let cancel = AtomicBool::new(true);
        let r = fast_forward(
            &mut m,
            &mut a,
            0,
            40_000,
            1_000,
            Some(&cancel),
            |_, _, _| Ok(()),
        );
        assert!(matches!(r, Err(CkptError::Cancelled)));
    }

    #[test]
    fn emit_errors_propagate() {
        let mut m = loop_program(100);
        let mut a = acc();
        let r = fast_forward(&mut m, &mut a, 0, 250, 100, None, |_, _, _| {
            Err(CkptError::NonQuiescent)
        });
        assert!(matches!(r, Err(CkptError::NonQuiescent)));
    }
}
