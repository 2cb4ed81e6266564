//! `Xlisp` analogue: a Lisp interpreter's heap behaviour.
//!
//! Profile: the highest load/store fraction in the suite (the paper
//! reports 0.48 committed memory operations per instruction) — cons-cell
//! allocation, list construction and traversal, and a periodic garbage
//! collection mark/sweep phase over a megabyte-scale cell pool.

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::{emit_xorshift, GOLDEN};

const CELL_BYTES: i64 = 16; // car, cdr

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let cells = cfg.scale.pick(2_048, 24_000, 90_000) as i64;
    let rounds = cfg.scale.pick(2, 3, 10) as i64;
    let list_len = 32i64;

    let mut heap = HeapLayout::new();
    let pool = heap.alloc((cells * CELL_BYTES) as u64, 4096);

    let mut b = Builder::new(cfg.regs);
    let pbase = b.ivar("pool");
    let bump = b.ivar("bump");
    let head = b.ivar("head");
    let cell = b.ivar("cell");
    let r = b.ivar("round");
    let k = b.ivar("k");
    let len = b.ivar("len");
    let val = b.ivar("val");
    let sum = b.ivar("sum");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");
    let limit = b.ivar("limit");
    let golden = b.ivar("golden");
    let tagged = b.ivar("tagged");

    b.li(pbase, pool as i64);
    b.li(limit, (pool + (cells * CELL_BYTES) as u64) as i64);
    b.li(golden, GOLDEN);
    b.li(tagged, 0);
    b.li(rnd, (cfg.seed | 1) as i64);
    b.li(val, 1);

    let round_top = b.new_label();
    b.li(r, rounds);
    b.bind(round_top);
    b.copy(bump, pbase);
    b.li(sum, 0);

    // Allocation phase: build (cells / list_len) lists of list_len conses.
    let build_list = b.new_label();
    b.li(k, cells / list_len);
    b.bind(build_list);
    b.li(head, 0);
    let cons_loop = b.new_label();
    b.li(len, list_len);
    b.bind(cons_loop);
    // cell = bump; bump += 16; cell.car = val; cell.cdr = head; head = cell
    b.copy(cell, bump);
    b.add(bump, bump, CELL_BYTES as i32);
    b.store(val, cell, 0, Width::B8);
    b.store(head, cell, 8, Width::B8);
    b.copy(head, cell);
    b.add(val, val, 7);
    // Type-tag dispatch: reads the neighbour cell's tag and branches on
    // it — value-dependent branching all over a Lisp heap; the taken
    // path updates the tag in place (rplaca-style).
    b.load(t, cell, -16, Width::B8);
    b.srl(t, t, 2);
    b.and(t, t, 1);
    let untagged = b.new_label();
    b.br(Cond::Ne, t, 0, untagged);
    b.add(tagged, tagged, 1);
    b.store(tagged, cell, 0, Width::B8);
    b.bind(untagged);
    b.sub(len, len, 1);
    b.br(Cond::Gt, len, 0, cons_loop);

    // Traverse (mark) the freshly built list: chase cdr, sum cars.
    let mark = b.new_label();
    let mark_done = b.new_label();
    b.copy(cell, head);
    b.bind(mark);
    b.br(Cond::Eq, cell, 0, mark_done);
    b.load(t, cell, 0, Width::B8);
    b.add(sum, sum, t);
    b.load(cell, cell, 8, Width::B8);
    b.jump(mark);
    b.bind(mark_done);

    // Mutation: poke a random cell in the pool (GC write barrier /
    // rplaca-style update) — this is what spreads the footprint.
    let poke_mask = ((cells as u64).next_power_of_two() / 2 - 1) as i64;
    emit_xorshift(&mut b, rnd, t);
    b.li(t, poke_mask);
    b.and(t, rnd, t);
    b.sll(t, t, 4);
    b.load_idx(val, pbase, t, Width::B8);
    b.add(val, val, 1);
    b.store_idx(val, pbase, t, Width::B8);

    b.sub(k, k, 1);
    b.br(Cond::Gt, k, 0, build_list);

    // Sweep phase: linear scan of the pool clearing the low bit of cars.
    let sweep = b.new_label();
    b.copy(cell, pbase);
    b.bind(sweep);
    b.load(t, cell, 0, Width::B8);
    b.srl(t, t, 1);
    b.sll(t, t, 1);
    b.store(t, cell, 0, Width::B8);
    b.add(cell, cell, (CELL_BYTES * 8) as i32); // sample every 8th cell
    b.br(Cond::Lt, cell, limit, sweep);

    b.sub(r, r, 1);
    b.br(Cond::Gt, r, 0, round_top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Xlisp",
        program: b.finish().expect("xlisp program is well-formed"),
        mem_image: Vec::new(),
        max_steps: spill_factor * ((rounds * cells) as u64 * 20 + 50_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_with_the_highest_memory_fraction() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 10_000);
        assert!(
            mem_frac > 0.22,
            "xlisp should be among the most memory-bound: {mem_frac}"
        );
    }

    #[test]
    fn list_traversal_is_pointer_chasing() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        // cdr loads at offset 8 exist in volume.
        let cdr_loads = trace
            .iter()
            .filter(|t| {
                t.is_mem() && t.mem_kind() == hbat_core::request::AccessKind::Load && t.offset == 8
            })
            .count();
        assert!(cdr_loads > 1_000, "only {cdr_loads} cdr loads");
    }

    #[test]
    fn small_scale_pool_spans_many_pages() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(pages > 80, "cell pool should be ~400 KB: {pages} pages");
    }
}
