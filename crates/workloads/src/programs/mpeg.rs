//! `MPEG_play` analogue: software video decoding.
//!
//! Profile: a sequentially consumed bitstream, motion-compensated reads
//! from a reference frame at data-dependent positions, and 8×8-block
//! writes into the current frame. Blocks land all over the frames, so
//! pages are cycled through quickly — with Compress and TFFT this is one
//! of the three programs the paper singles out for poor locality.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::emit_xorshift;

const FRAME_W: u64 = 512; // bytes per pixel row

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let frame_h = cfg.scale.pick(32, 512, 1024);
    let blocks = cfg.scale.pick(80, 3_400, 14_000) as i64;

    let frame_bytes = FRAME_W * frame_h;
    let mut heap = HeapLayout::new();
    let stream = heap.alloc(blocks as u64 * 8 + 64, 4096);
    let ref_frame = heap.alloc(frame_bytes, 4096);
    let cur_frame = heap.alloc(frame_bytes, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x3E6);
    let image = vec![
        (
            stream,
            (0..blocks as usize * 8 + 64).map(|_| rng.gen()).collect(),
        ),
        (
            ref_frame,
            (0..frame_bytes as usize).map(|_| rng.gen()).collect(),
        ),
    ];

    // Block position mask: frame holds (W/8) × (H/8) blocks.
    let bx_mask = (FRAME_W / 8 - 1) as i64;
    let by_mask = (frame_h / 8 - 1) as i64;

    let mut b = Builder::new(cfg.regs);
    let sptr = b.ivar("stream");
    let refb = b.ivar("ref");
    let curb = b.ivar("cur");
    let n = b.ivar("n");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");
    let coef = b.ivar("coef");
    let off = b.ivar("off");
    let row = b.ivar("row");
    let rv = b.ivar("rv");
    let cv = b.ivar("cv");

    b.li(sptr, stream as i64);
    b.li(refb, ref_frame as i64);
    b.li(curb, cur_frame as i64);
    b.li(rnd, (cfg.seed | 1) as i64);

    let top = b.new_label();
    b.li(n, blocks);
    b.bind(top);
    // Read 8 coefficient bytes from the bitstream (sequential).
    b.load_postinc(coef, sptr, 8, Width::B8);
    // Choose the block position (bx, by) from the decoded data — block
    // order in a real decoder is raster order per slice, but motion
    // vectors scatter the *reference* reads; scattering both is the
    // worst-case the paper's numbers suggest.
    emit_xorshift(&mut b, rnd, t);
    b.and(t, rnd, bx_mask as i32);
    b.sll(off, t, 3); // bx*8
    b.srl(t, rnd, 16);
    b.and(t, t, by_mask as i32);
    b.sll(t, t, 3 + 9); // by*8 rows × 512 B/row
    b.add(off, off, t);
    // Data-dependent coding decision: some blocks are copied, others get
    // the residual applied (the coefficient bit is effectively random, so
    // this branch mispredicts like a real decoder's coding-mode checks).
    let copy_block = b.new_label();
    b.and(t, coef, 1);
    b.br(Cond::Eq, t, 0, copy_block);
    b.xor(coef, coef, rnd);
    b.bind(copy_block);
    // Decode the 8 rows of the block: cur = ref ^ coefficients.
    b.li(row, 8);
    let rows = b.new_label();
    b.bind(rows);
    b.load_idx(rv, refb, off, Width::B8);
    b.xor(cv, rv, coef);
    b.store_idx(cv, curb, off, Width::B8);
    b.add(off, off, FRAME_W as i32); // next pixel row of the block
    b.sub(row, row, 1);
    b.br(Cond::Gt, row, 0, rows);
    b.sub(n, n, 1);
    b.br(Cond::Gt, n, 0, top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "MPEG_play",
        program: b.finish().expect("mpeg program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * (blocks as u64 * 8 * 20 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;

    #[test]
    fn runs_with_block_structured_traffic() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!((0.2..0.5).contains(&mem_frac), "mem fraction {mem_frac}");
    }

    #[test]
    fn small_scale_cycles_many_pages() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        // Two 256 KB frames + stream: far beyond 128 TLB entries.
        assert!(pages > 100, "mpeg must cycle pages: {pages}");
    }

    #[test]
    fn decode_is_read_modify_write() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        use hbat_core::request::AccessKind;
        let count = |kind| {
            trace
                .iter()
                .filter(|t| t.is_mem() && t.mem_kind() == kind)
                .count()
        };
        let (loads, stores) = (count(AccessKind::Load), count(AccessKind::Store));
        // ~9 loads (8 ref rows + 1 stream read) per 8 stores.
        let ratio = loads as f64 / stores as f64;
        assert!((0.8..1.6).contains(&ratio), "load/store ratio {ratio}");
    }
}
