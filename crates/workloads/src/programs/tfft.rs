//! `TFFT` analogue: large real/complex FFT.
//!
//! Profile: the biggest data set of the suite (the paper reports ~40 MB).
//! A bit-reversal permutation scatters accesses across the whole array,
//! then butterfly passes sweep it with long power-of-two strides. Page
//! reuse distance is enormous — with Compress and MPEG_play this is one
//! of the paper's three locality-poor programs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    // log2 of the number of complex points.
    let n_bits = cfg.scale.pick(10, 16, 18) as u32;
    // Only every `step`-th butterfly is computed: the access *pattern*
    // (which pages, in which order) is what the TLB sees; sampling keeps
    // the instruction count tractable.
    let step = cfg.scale.pick(4, 16, 16) as i64;
    let passes = cfg.scale.pick(2, 3, 5) as i64;
    let n = 1u64 << n_bits;

    let mut heap = HeapLayout::new();
    let re = heap.alloc(8 * n, 4096);
    let im = heap.alloc(8 * n, 4096);
    let brt = heap.alloc(16 * (n / step as u64), 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xFF7);
    // Bit-reversal pair table for a sampled, pseudo-randomly ordered index
    // sequence. Entries are (i<<3, bitrev(i)<<3) *byte offsets* ready for
    // indexed addressing.
    let brt_bytes: Vec<u8> = (0..n / step as u64)
        .flat_map(|k| {
            let i = (k.wrapping_mul(7919)) & (n - 1);
            let j = i.reverse_bits() >> (64 - n_bits);
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&(i << 3).to_le_bytes());
            bytes[8..].copy_from_slice(&(j << 3).to_le_bytes());
            bytes
        })
        .collect();
    // Input signal.
    let re_bytes: Vec<u8> = (0..n)
        .flat_map(|_| rng.gen_range(-1.0f64..1.0).to_bits().to_le_bytes())
        .collect();
    let image = vec![(brt, brt_bytes), (re, re_bytes)];

    let mut b = Builder::new(cfg.regs);
    let rbase = b.ivar("re");
    let ibase = b.ivar("im");
    let tptr = b.ivar("brt_ptr");
    let k = b.ivar("k");
    let off_i = b.ivar("off_i");
    let off_j = b.ivar("off_j");
    let p = b.ivar("pass");
    let stride = b.ivar("stride");
    let denorm = b.ivar("denorm");
    let denorm2 = b.ivar("denorm2");
    let xa = b.fvar("xa");
    let xb = b.fvar("xb");
    let ya = b.fvar("ya");
    let yb = b.fvar("yb");
    let tw = b.fvar("tw");

    b.li(rbase, re as i64);
    b.li(ibase, im as i64);
    b.li(denorm, 0);
    b.fli(tw, std::f64::consts::FRAC_1_SQRT_2); // a representative twiddle

    // Phase 1: sampled bit-reversal permutation (random-looking scatter).
    b.li(tptr, brt as i64);
    b.li(k, (n / step as u64) as i64);
    let br_top = b.new_label();
    let no_swap = b.new_label();
    b.bind(br_top);
    b.load_postinc(off_i, tptr, 8, Width::B8);
    b.load_postinc(off_j, tptr, 8, Width::B8);
    // Swap only when j > i (classic guard; ~half taken).
    b.br(Cond::Le, off_j, off_i, no_swap);
    b.load_idx(xa, rbase, off_i, Width::B8);
    b.load_idx(xb, rbase, off_j, Width::B8);
    b.store_idx(xa, rbase, off_j, Width::B8);
    b.store_idx(xb, rbase, off_i, Width::B8);
    b.bind(no_swap);
    b.sub(k, k, 1);
    b.br(Cond::Gt, k, 0, br_top);

    // Phase 2: butterfly passes with halving stride, largest first.
    b.li(stride, (n as i64 / 2) * 8);
    b.li(p, passes);
    let pass_top = b.new_label();
    b.bind(pass_top);
    b.li(off_i, 0);
    b.li(k, (n as i64 / 2) / step);
    let fly = b.new_label();
    b.bind(fly);
    b.add(off_j, off_i, stride);
    // Complex butterfly on (re, im) at offsets i and j.
    b.load_idx(xa, rbase, off_i, Width::B8);
    b.load_idx(xb, rbase, off_j, Width::B8);
    b.load_idx(ya, ibase, off_i, Width::B8);
    b.load_idx(yb, ibase, off_j, Width::B8);
    b.fmul(xb, xb, tw);
    b.fmul(yb, yb, tw);
    b.fadd(xa, xa, xb);
    b.fsub(xb, xa, xb);
    b.fadd(ya, ya, yb);
    b.fsub(yb, ya, yb);
    b.store_idx(xa, rbase, off_i, Width::B8);
    b.store_idx(xb, rbase, off_j, Width::B8);
    b.store_idx(ya, ibase, off_i, Width::B8);
    b.store_idx(yb, ibase, off_j, Width::B8);
    // Denormal/scaling check: branches on the data's mantissa bits.
    b.load_idx(denorm2, rbase, off_i, Width::B4);
    b.srl(denorm2, denorm2, 12); // mid-mantissa bit: a coin flip
    b.and(denorm2, denorm2, 1);
    let normal = b.new_label();
    b.br(Cond::Ne, denorm2, 0, normal);
    b.add(denorm, denorm, 1);
    b.bind(normal);
    b.add(off_i, off_i, (step * 8) as i32);
    b.sub(k, k, 1);
    b.br(Cond::Gt, k, 0, fly);
    // stride /= 2 for the next pass.
    b.srl(stride, stride, 1);
    b.sub(p, p, 1);
    b.br(Cond::Gt, p, 0, pass_top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "TFFT",
        program: b.finish().expect("tfft program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * ((n / step as u64) * (14 + passes as u64 * 30) + 50_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;
    use hbat_isa::OpClass;

    #[test]
    fn runs_with_fp_butterflies() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!((0.2..0.6).contains(&mem_frac), "mem fraction {mem_frac}");
        let fp = trace
            .iter()
            .filter(|t| matches!(t.class, OpClass::FpAdd | OpClass::FpMul))
            .count();
        assert!(fp > 1_000, "butterflies are FP work");
    }

    #[test]
    fn small_scale_sweeps_many_pages_repeatedly() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (trace, _, pages) = profile(&w);
        // 512 KB re + 512 KB im: each pass revisits ~256 pages.
        assert!(pages > 200, "tfft must sweep far: {pages} pages");
        // Reuse at distance: pages are revisited across phases, so the
        // average visits-per-page is well above one.
        let mem_refs = trace.iter().filter(|t| t.is_mem()).count();
        assert!(
            mem_refs as f64 / pages as f64 > 3.0,
            "{mem_refs} refs over {pages} pages"
        );
    }

    #[test]
    fn bit_reversal_guard_goes_both_ways() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let (mut taken, mut not) = (0, 0);
        for t in trace.iter() {
            if let Some(br) = t.branch() {
                if br.conditional {
                    if br.taken {
                        taken += 1
                    } else {
                        not += 1
                    }
                }
            }
        }
        assert!(taken > 50 && not > 50);
    }
}
