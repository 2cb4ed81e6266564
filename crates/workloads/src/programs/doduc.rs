//! `Doduc` analogue: Monte-Carlo nuclear-reactor simulation kernel.
//!
//! Profile: small working set (a few tens of kilobytes of cross-section
//! tables sampled at random), floating-point dependence chains with
//! occasional divides, data-dependent acceptance branches (the real code's
//! 86.6 % prediction rate comes from exactly these), and a modest
//! load/store fraction. TLB behaviour is benign — the whole data set fits
//! easily in a 128-entry TLB.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::emit_xorshift;

const TABLE_DOUBLES: u64 = 4096; // 32 KB per table

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let samples = cfg.scale.pick(3_000, 26_000, 120_000) as i64;

    let mut heap = HeapLayout::new();
    let ta = heap.alloc(8 * TABLE_DOUBLES, 4096);
    let tb = heap.alloc(8 * TABLE_DOUBLES, 4096);
    let bins = heap.alloc(4096, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD0);
    let mut image = Vec::new();
    let fill = |rng: &mut SmallRng| -> Vec<u8> {
        (0..TABLE_DOUBLES)
            .flat_map(|_| rng.gen_range(0.1f64..2.0).to_bits().to_le_bytes())
            .collect()
    };
    image.push((ta, fill(&mut rng)));
    image.push((tb, fill(&mut rng)));

    let mut b = Builder::new(cfg.regs);
    let pa = b.ivar("ta");
    let pb = b.ivar("tb");
    let binp = b.ivar("bins");
    let i = b.ivar("i");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");
    let idx = b.ivar("idx");
    let cnt = b.ivar("cnt");
    let x = b.fvar("x");
    let y = b.fvar("y");
    let s = b.fvar("s");
    let z = b.fvar("z");
    let c1 = b.fvar("c1");

    b.li(pa, ta as i64);
    b.li(pb, tb as i64);
    b.li(binp, bins as i64);
    b.li(rnd, (cfg.seed | 1) as i64);
    b.fli(s, 1.0);
    b.fli(c1, 1.000001);

    // Monte-Carlo sampling loop: draw, look up cross-sections at random
    // table positions, accumulate, accept/reject, occasionally renormalise.
    let top = b.new_label();
    b.li(i, samples);
    b.bind(top);
    emit_xorshift(&mut b, rnd, t);
    // x = ta[rnd % N]; y = tb[(rnd >> 16) % N]
    b.and(idx, rnd, ((TABLE_DOUBLES - 1) * 8) as i32 & !7);
    b.load_idx(x, pa, idx, Width::B8);
    b.srl(idx, rnd, 16);
    b.and(idx, idx, ((TABLE_DOUBLES - 1) * 8) as i32 & !7);
    b.load_idx(y, pb, idx, Width::B8);
    b.fmul(z, x, y);
    b.fadd(s, s, z);
    // Acceptance test: the sampled randomness decides (≈ 25 % accepted).
    b.and(t, rnd, 3);
    let rejected = b.new_label();
    b.br(Cond::Ne, t, 0, rejected);
    // Accepted: tally into a bin (read-modify-write a small histogram).
    b.srl(idx, rnd, 24);
    b.and(idx, idx, 511 & !7);
    b.load_idx(cnt, binp, idx, Width::B8);
    b.add(cnt, cnt, 1);
    b.store_idx(cnt, binp, idx, Width::B8);
    b.bind(rejected);
    // Every 32 samples: renormalise with a divide (slow FP path).
    b.and(t, i, 31);
    let no_div = b.new_label();
    b.br(Cond::Ne, t, 0, no_div);
    b.fmul(z, s, c1);
    b.fdiv(s, s, z);
    b.bind(no_div);
    b.sub(i, i, 1);
    b.br(Cond::Gt, i, 0, top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Doduc",
        program: b.finish().expect("doduc program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * (samples as u64 * 40 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;
    use hbat_isa::OpClass;

    #[test]
    fn runs_and_is_fp_heavy_with_small_footprint() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, pages) = profile(&w);
        assert!(trace.len() > 10_000);
        let fp = trace
            .iter()
            .filter(|t| matches!(t.class, OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv))
            .count();
        assert!(
            fp as f64 / trace.len() as f64 > 0.08,
            "doduc should be FP-heavy"
        );
        assert!((0.08..0.4).contains(&mem_frac), "mem fraction {mem_frac}");
        assert!(pages < 40, "doduc's working set must stay small: {pages}");
    }

    #[test]
    fn divides_occur_but_rarely() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let divs = trace.iter().filter(|t| t.class == OpClass::FpDiv).count();
        assert!(divs > 10);
        assert!((divs as f64) < trace.len() as f64 * 0.05);
    }

    #[test]
    fn acceptance_branch_is_data_dependent() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        use std::collections::HashMap;
        let mut per_pc: HashMap<u32, (u64, u64)> = HashMap::new();
        for t in trace.iter() {
            if let Some(br) = t.branch() {
                if br.conditional {
                    let e = per_pc.entry(t.pc).or_default();
                    if br.taken {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
        }
        // The acceptance branch runs ~75/25.
        let mixed = per_pc
            .values()
            .filter(|(tk, nt)| tk + nt > 1000 && *nt > (tk + nt) / 8)
            .count();
        assert!(mixed >= 1, "expected the acceptance branch to vary");
    }

    #[test]
    fn small_scale_fits_in_tlb_reach() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(pages < 128, "doduc must not thrash the TLB: {pages} pages");
    }
}
