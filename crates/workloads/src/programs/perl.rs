//! `Perl` analogue: a bytecode interpreter.
//!
//! Profile: an opcode-dispatch ladder whose direction depends on the
//! bytecode stream (the paper reports 81.2 % branch prediction), an
//! operand stack pushed and popped constantly, and hash-table reads and
//! writes for "variables". The highest per-instruction memory traffic of
//! the integer codes after Xlisp.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::{emit_hash, GOLDEN};

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let ops_len = cfg.scale.pick(600, 8_192, 16_384);
    let rounds = cfg.scale.pick(2, 4, 40) as i64;
    let hash_bits = cfg.scale.pick(10, 15, 16) as u32;

    let mut heap = HeapLayout::new();
    let ops = heap.alloc(ops_len, 4096);
    let stack = heap.alloc(64 * 1024, 4096);
    let hash = heap.alloc(8 << hash_bits, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9E51);
    // Opcodes 0..6, weighted toward stack traffic.
    let weights = [3u8, 3, 2, 2, 1, 1, 1];
    let mut code = Vec::with_capacity(ops_len as usize);
    for _ in 0..ops_len {
        let mut pick = rng.gen_range(0..weights.iter().map(|&w| w as u32).sum::<u32>());
        let mut op = 0u8;
        for (k, &w) in weights.iter().enumerate() {
            if pick < w as u32 {
                op = k as u8;
                break;
            }
            pick -= w as u32;
        }
        code.push(op);
    }
    let image = vec![(ops, code)];

    let mut b = Builder::new(cfg.regs);
    let pc = b.ivar("pc");
    let sp = b.ivar("vm_sp");
    let sbase = b.ivar("stack_base");
    let hbase = b.ivar("hash");
    let golden = b.ivar("golden");
    let r = b.ivar("rounds");
    let i = b.ivar("i");
    let op = b.ivar("op");
    let val = b.ivar("val");
    let a = b.ivar("a");
    let h = b.ivar("h");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");

    b.li(sbase, stack as i64);
    b.li(hbase, hash as i64);
    b.li(golden, GOLDEN);
    b.li(rnd, (cfg.seed | 1) as i64);
    b.li(val, 1);
    b.copy(sp, sbase);
    // Pre-push a few operands so pops never underflow before the guard.
    for _ in 0..8 {
        b.store_postinc(val, sp, 8, Width::B8);
    }

    let round_top = b.new_label();
    b.li(r, rounds);
    b.bind(round_top);
    b.li(pc, ops as i64);
    b.li(i, ops_len as i64);

    let dispatch = b.new_label();
    let next = b.new_label();
    b.bind(dispatch);
    b.load_postinc(op, pc, 1, Width::B1);
    // VM bookkeeping: every dispatch reads and updates interpreter state
    // (op counters, ip bounds) — hot same-page traffic.
    b.load(t, hbase, 16, Width::B8);
    b.add(t, t, 1);
    b.store(t, hbase, 16, Width::B8);
    // The dispatch ladder: op ∈ {0..6}, data-dependent.
    let case_push = b.new_label();
    let case_pop2 = b.new_label();
    let case_hst = b.new_label();
    let case_hld = b.new_label();
    let case_gct = b.new_label();
    let case_arith = b.new_label();
    b.br(Cond::Eq, op, 0, case_push);
    b.br(Cond::Eq, op, 1, case_push);
    b.br(Cond::Eq, op, 2, case_pop2);
    b.br(Cond::Eq, op, 3, case_hst);
    b.br(Cond::Eq, op, 4, case_hld);
    b.br(Cond::Eq, op, 5, case_gct);
    b.jump(case_arith);

    // push: two operands go to the stack (opcode + literal in real VMs)
    b.bind(case_push);
    b.store_postinc(val, sp, 8, Width::B8);
    b.add(val, val, 3);
    b.store_postinc(val, sp, 8, Width::B8);
    // Stack overflow guard: wrap at 32 KB.
    b.sub(t, sp, sbase);
    b.li(a, 32 * 1024);
    b.br(Cond::Lt, t, a, next);
    b.copy(sp, sbase);
    b.add(sp, sp, 64);
    b.jump(next);

    // pop2-add: a = pop(); val = pop(); push(a+val)
    b.bind(case_pop2);
    b.sub(sp, sp, 8);
    b.load(a, sp, 0, Width::B8);
    b.sub(sp, sp, 8);
    b.load(val, sp, 0, Width::B8);
    b.add(val, val, a);
    b.store_postinc(val, sp, 8, Width::B8);
    // Underflow guard.
    b.sub(t, sp, sbase);
    b.li(a, 64);
    b.br(Cond::Gt, t, a, next);
    b.add(sp, sp, 64);
    b.jump(next);

    // hash store: open addressing — probe the slot, then write either it
    // or the overflow slot depending on what is there.
    b.bind(case_hst);
    b.add(rnd, rnd, 1);
    emit_hash(&mut b, h, rnd, golden, hash_bits);
    b.sll(h, h, 3);
    b.load_idx(a, hbase, h, Width::B8);
    let hst_empty = b.new_label();
    b.br(Cond::Eq, a, 0, hst_empty);
    b.add(h, h, 8); // collision: spill to the next slot
    b.bind(hst_empty);
    b.store_idx(val, hbase, h, Width::B8);
    b.jump(next);

    // hash load: probe the slot and the overflow slot.
    b.bind(case_hld);
    b.add(rnd, rnd, 3);
    emit_hash(&mut b, h, rnd, golden, hash_bits);
    b.sll(h, h, 3);
    b.load_idx(val, hbase, h, Width::B8);
    let hld_hit = b.new_label();
    b.br(Cond::Ne, val, 0, hld_hit);
    b.add(h, h, 8);
    b.load_idx(val, hbase, h, Width::B8);
    b.bind(hld_hit);
    b.jump(next);

    // global counters: read-modify-write two hot globals
    b.bind(case_gct);
    b.load(a, hbase, 0, Width::B8);
    b.add(a, a, 1);
    b.store(a, hbase, 0, Width::B8);
    b.load(a, hbase, 8, Width::B8);
    b.add(a, a, val);
    b.store(a, hbase, 8, Width::B8);
    b.jump(next);

    // arithmetic on the top of stack (peek, combine, write back)
    b.bind(case_arith);
    b.load(a, sp, -8, Width::B8);
    b.xor(val, val, a);
    b.store(val, sp, -8, Width::B8);

    b.bind(next);
    b.sub(i, i, 1);
    b.br(Cond::Gt, i, 0, dispatch);
    b.sub(r, r, 1);
    b.br(Cond::Gt, r, 0, round_top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Perl",
        program: b.finish().expect("perl program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * ((rounds as u64) * ops_len * 40 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_with_heavy_memory_traffic() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!(
            (0.2..0.55).contains(&mem_frac),
            "interpreter mem fraction {mem_frac}"
        );
    }

    #[test]
    fn dispatch_ladder_is_unpredictable() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        // The first ladder compare (op == 0?) should go both ways a lot.
        use std::collections::HashMap;
        let mut per_pc: HashMap<u32, (u64, u64)> = HashMap::new();
        for t in trace.iter() {
            if let Some(br) = t.branch() {
                if br.conditional {
                    let e = per_pc.entry(t.pc).or_default();
                    if br.taken {
                        e.0 += 1
                    } else {
                        e.1 += 1
                    }
                }
            }
        }
        let mixed = per_pc
            .values()
            .filter(|(tk, nt)| tk + nt > 300 && *tk > 50 && *nt > 50)
            .count();
        assert!(mixed >= 3, "ladder should have several mixed branches");
    }

    #[test]
    fn stack_pointer_stays_in_bounds() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        for t in trace.iter() {
            if t.is_mem() {
                assert!(
                    t.vaddr >= crate::layout::HEAP_BASE
                        && t.vaddr < crate::layout::STACK_BASE + (1 << 20),
                    "access escaped the address space: {:#x}",
                    t.vaddr
                );
            }
        }
    }
}
