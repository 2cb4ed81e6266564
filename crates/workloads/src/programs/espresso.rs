//! `Espresso` analogue: two-level logic minimisation.
//!
//! Profile: dense bit-vector operations over cube covers that fit in a few
//! tens of kilobytes, unrolled word-wise inner loops, high issue rate,
//! high reference locality, and well-predicted branches. One of the
//! TLB-friendly programs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;

const WORDS_PER_ROW: u64 = 16; // 128-byte rows (cubes)

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let rows = cfg.scale.pick(8, 56, 110) as i64;
    let row_bytes = WORDS_PER_ROW * 8;

    let mut heap = HeapLayout::new();
    let ma = heap.alloc(rows as u64 * row_bytes, 4096);
    let mb = heap.alloc(rows as u64 * row_bytes, 4096);
    let mout = heap.alloc(rows as u64 * row_bytes, 4096);
    let counts = heap.alloc(4096, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xE5);
    let fill = |rng: &mut SmallRng| -> Vec<u8> {
        (0..rows as u64 * WORDS_PER_ROW)
            .flat_map(|_| (rng.gen::<u64>() & rng.gen::<u64>()).to_le_bytes())
            .collect()
    };
    let image = vec![(ma, fill(&mut rng)), (mb, fill(&mut rng))];

    let mut b = Builder::new(cfg.regs);
    let pa = b.ivar("pa");
    let pb = b.ivar("pb");
    let po = b.ivar("po");
    let cnt = b.ivar("counts");
    let r1 = b.ivar("r1");
    let r2 = b.ivar("r2");
    let w = b.ivar("w");
    let acc = b.ivar("acc");
    let va = b.ivar("va");
    let vb = b.ivar("vb");
    let t = b.ivar("t");
    let disjoint = b.ivar("disjoint");

    b.li(cnt, counts as i64);
    b.li(disjoint, 0);

    // for r1 in rows: for r2 in rows: test whether cube r1 intersects r2
    let l1 = b.new_label();
    b.li(r1, rows);
    b.bind(l1);
    let l2 = b.new_label();
    b.li(r2, rows);
    b.bind(l2);
    // Row pointers: pa = ma + (r1-1)*row_bytes, pb = mb + (r2-1)*row_bytes.
    b.sub(t, r1, 1);
    b.sll(t, t, 7);
    b.li(pa, ma as i64);
    b.add(pa, pa, t);
    b.sub(t, r2, 1);
    b.sll(t, t, 7);
    b.li(pb, mb as i64);
    b.add(pb, pb, t);
    b.li(po, mout as i64);
    b.add(po, po, t);
    b.li(acc, 0);
    // Unrolled ×4 word loop over the row (16 words). Compiled unrolled
    // code addresses the words as displacements off one base register —
    // the independent same-page accesses the piggyback designs exploit.
    let lw = b.new_label();
    b.li(w, (WORDS_PER_ROW / 4) as i64);
    b.bind(lw);
    for u in 0..4i32 {
        b.load(va, pa, u * 8, Width::B8);
        b.load(vb, pb, u * 8, Width::B8);
        b.and(t, va, vb);
        b.or(acc, acc, t);
        if u % 2 == 0 {
            // The minimiser records the intersection cube as it goes.
            b.store(t, po, u * 8, Width::B8);
        } else {
            // Literal-containment check: branches on the cube data.
            b.and(t, t, 1);
            let no_lit = b.new_label();
            b.br(Cond::Ne, t, 0, no_lit);
            b.add(disjoint, disjoint, 1);
            b.bind(no_lit);
        }
    }
    // Column-count folding: a dependent shift/mask reduction like the
    // bit-counting loops all over espresso.
    b.srl(t, acc, 1);
    b.and(acc, acc, t);
    b.srl(t, acc, 2);
    b.or(acc, acc, t);
    b.add(pa, pa, 32);
    b.add(pb, pb, 32);
    b.add(po, po, 32);
    b.sub(w, w, 1);
    b.br(Cond::Gt, w, 0, lw);
    // acc == 0 → the cubes are disjoint (rare with this data).
    let not_disjoint = b.new_label();
    b.br(Cond::Ne, acc, 0, not_disjoint);
    b.add(disjoint, disjoint, 1);
    b.store(disjoint, cnt, 0, Width::B8);
    b.bind(not_disjoint);
    b.sub(r2, r2, 1);
    b.br(Cond::Gt, r2, 0, l2);
    b.sub(r1, r1, 1);
    b.br(Cond::Gt, r1, 0, l1);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Espresso",
        program: b.finish().expect("espresso program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * ((rows as u64).pow(2) * WORDS_PER_ROW * 12 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_with_high_locality() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, pages) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!((0.2..0.5).contains(&mem_frac), "mem fraction {mem_frac}");
        assert!(pages < 20, "espresso's cover fits in a few pages: {pages}");
    }

    #[test]
    fn branches_are_mostly_loop_branches() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let conditional: Vec<_> = trace
            .iter()
            .filter_map(|t| t.branch())
            .filter(|b| b.conditional)
            .collect();
        let branches = conditional.len();
        let taken = conditional.iter().filter(|b| b.taken).count();
        // Loop branches dominate, tempered by the cube-data checks.
        let rate = taken as f64 / branches as f64;
        assert!((0.35..0.95).contains(&rate), "taken rate {rate}");
    }

    #[test]
    fn small_scale_stays_tlb_friendly() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(pages < 30, "{pages} pages");
    }
}
