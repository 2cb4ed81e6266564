//! `Compress` analogue: LZW-style compression.
//!
//! Profile being mimicked (Table 3 / Figure 6): sequential pass over an
//! input stream, a running code hashed into a multi-megabyte dictionary
//! probed essentially at random, and a sequential output stream. The
//! scattered dictionary gives Compress its notably poor reference
//! locality — small TLBs thrash on it.

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
    // Dictionary: 2^table_bits 8-byte entries. The Small/Reference sizes
    // (256 KB / 512 KB) sit at the edge of a 128-entry 4 KB-page TLB's
    // reach and far beyond a small L1 TLB's — matching Figure 6, where
    // Compress thrashes small TLBs but large TLBs mostly keep up.
    let table_bits = cfg.scale.pick(12, 15, 16) as u32;
    let input_len = cfg.scale.pick(1_500, 22_000, 110_000);

    let mut heap = HeapLayout::new();
    let input = heap.alloc(input_len, 4096);
    let table = heap.alloc(8 << table_bits, 4096);
    let output = heap.alloc(8 * input_len, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC0);
    // Input: bytes with a skewed distribution (text-like) so hash-table
    // hits and misses both occur.
    let bytes: Vec<u8> = (0..input_len)
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.gen_range(97..110) // common letters
            } else {
                rng.gen::<u8>()
            }
        })
        .collect();

    let mut b = Builder::new(cfg.regs);
    let in_ptr = b.ivar("in_ptr");
    let out_ptr = b.ivar("out_ptr");
    let tbase = b.ivar("table");
    let golden = b.ivar("golden");
    let code = b.ivar("code");
    let i = b.ivar("i");
    let c = b.ivar("c");
    let h = b.ivar("h");
    let v = b.ivar("v");
    let t = b.ivar("t");
    let hits = b.ivar("hits");

    b.li(in_ptr, input as i64);
    b.li(out_ptr, output as i64);
    b.li(tbase, table as i64);
    b.li(golden, GOLDEN);
    b.li(code, 0);
    b.li(hits, 0);
    b.li(i, input_len as i64);

    let top = b.new_label();
    let stored = b.new_label();
    b.bind(top);
    // c = *in_ptr++
    b.load_postinc(c, in_ptr, 1, Width::B1);
    // code = (code << 5) ^ c  — the running LZW-ish code
    b.sll(t, code, 5);
    b.xor(code, t, c);
    // h = hash(code); probe the dictionary
    emit_hash(&mut b, h, code, golden, table_bits);
    b.sll(t, h, 3);
    b.load_idx(v, tbase, t, Width::B8);
    // hit: count it; miss: install the code (data-dependent branch)
    b.br(Cond::Eq, v, code, stored);
    // Collision chain: probe the next slot before installing.
    b.add(t, t, 8);
    b.load_idx(v, tbase, t, Width::B8);
    b.br(Cond::Eq, v, code, stored);
    b.store_idx(code, tbase, t, Width::B8);
    b.bind(stored);
    // Literal/match decision: depends on the input byte — the kind of
    // data-dependent branch that gives compress its ~90 % prediction rate.
    b.and(t, c, 1);
    let even = b.new_label();
    b.br(Cond::Eq, t, 0, even);
    b.add(hits, hits, 1);
    b.bind(even);
    b.add(hits, hits, 1);
    // emit an output code every iteration (sequential stream)
    b.store_postinc(code, out_ptr, 8, Width::B8);
    // occasionally restart the code (mimics dictionary resets), decided
    // by the code bits themselves
    b.and(t, code, 63);
    let no_reset = b.new_label();
    b.br(Cond::Ne, t, 0, no_reset);
    b.li(code, 0);
    b.bind(no_reset);
    b.sub(i, i, 1);
    b.br(Cond::Gt, i, 0, top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Compress",
        program: b.finish().expect("compress program is well-formed"),
        mem_image: vec![(input, bytes)],
        max_steps: spill_factor * (40 * input_len + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_to_completion_and_looks_like_compress() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, pages) = profile(&w);
        assert!(trace.len() > 10_000);
        assert!(
            (0.15..0.45).contains(&mem_frac),
            "mem fraction {mem_frac} out of band"
        );
        // Test scale: 32 KB dictionary = 8+ pages, plus streams.
        assert!(pages > 8, "only {pages} pages touched");
    }

    #[test]
    fn small_scale_footprint_exceeds_tlb_reach() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(
            pages > 75,
            "compress must thrash a 128-entry TLB, touched {pages} pages"
        );
    }

    #[test]
    fn both_branch_directions_are_exercised() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let (mut taken, mut not) = (0u64, 0u64);
        for t in trace.iter() {
            if let Some(br) = t.branch() {
                if br.conditional {
                    if br.taken {
                        taken += 1;
                    } else {
                        not += 1;
                    }
                }
            }
        }
        assert!(taken > 100 && not > 100, "taken={taken} not={not}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = build(&WorkloadConfig::new(Scale::Test)).uops();
        let c = build(&WorkloadConfig::new(Scale::Test)).uops();
        assert_eq!(a.len(), c.len());
        assert_eq!(a[100], c[100]);
    }
}
