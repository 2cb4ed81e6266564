//! `Ghostscript` analogue: PostScript page rendering.
//!
//! Profile: one of the two large data sets (the paper reports ~10 MB) — a
//! multi-megabyte frame buffer filled span by span, with good spatial
//! locality inside a span and a small pattern/object table consulted while
//! filling. Mem fraction is modest; pages are touched in bulk but mostly
//! once per pass.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hbat_isa::inst::{Cond, Width};

use crate::builder::Builder;
use crate::config::WorkloadConfig;
use crate::layout::HeapLayout;
use crate::suite::Workload;
use crate::util::{emit_decision, emit_xorshift, GOLDEN};

const LINE_BYTES: u64 = 4096; // one page per scanline (1024 RGBA pixels)

/// Builds the workload.
///
/// # Panics
///
/// Panics if the generated program fails validation — a bug in this
/// builder, never a consequence of the caller's configuration.
pub fn build(cfg: &WorkloadConfig) -> Workload {
    let lines = cfg.scale.pick(24, 256, 2048) as i64;
    let passes = cfg.scale.pick(1, 1, 2) as i64;

    let mut heap = HeapLayout::new();
    let fb = heap.alloc(lines as u64 * LINE_BYTES, 4096);
    let pattern = heap.alloc(512, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x95);
    let pat: Vec<u8> = (0..512).map(|_| rng.gen()).collect();
    let image = vec![(pattern, pat)];

    let mut b = Builder::new(cfg.regs);
    let fbase = b.ivar("fb");
    let pbase = b.ivar("pattern");
    let pass = b.ivar("pass");
    let y = b.ivar("y");
    let ptr = b.ivar("ptr");
    let len = b.ivar("len");
    let rnd = b.ivar("rnd");
    let t = b.ivar("t");
    let px = b.ivar("px");
    let idx = b.ivar("idx");
    let golden = b.ivar("golden");
    let clipped = b.ivar("clipped");

    b.li(fbase, fb as i64);
    b.li(pbase, pattern as i64);
    b.li(rnd, (cfg.seed | 1) as i64);
    b.li(golden, GOLDEN);
    b.li(clipped, 0);

    let pass_top = b.new_label();
    b.li(pass, passes);
    b.bind(pass_top);
    let line_top = b.new_label();
    b.li(y, lines);
    b.bind(line_top);
    // Span start: ptr = fb + (y-1)*LINE + (rnd % 128)*4; length 96..223 px.
    b.sub(t, y, 1);
    b.sll(t, t, 12);
    b.add(ptr, fbase, 0);
    b.add(ptr, ptr, t);
    emit_xorshift(&mut b, rnd, t);
    b.and(t, rnd, 127);
    b.sll(t, t, 2);
    b.add(ptr, ptr, t);
    b.and(len, rnd, 124);
    b.add(len, len, 96); // multiple of four, 96..220 pixels
                         // Fetch the fill pattern once per span (the "paint" being applied).
    b.and(idx, rnd, 63);
    b.sll(idx, idx, 3);
    b.load_idx(px, pbase, idx, Width::B8);
    // Fill the span unrolled ×4, as a compiler would: independent stores
    // at displacements off one pointer.
    let fill = b.new_label();
    b.bind(fill);
    for u in 0..4i32 {
        // Compositing: read the pixel under the span, blend the pattern
        // with masking and an alpha-style shift, write back.
        b.load(t, ptr, u * 4, Width::B4);
        b.and(t, t, 0x00FF_FFFF);
        b.xor(px, px, t);
        b.srl(t, px, 8);
        b.add(px, px, t);
        b.and(px, px, 0x00FF_FFFF);
        b.store(px, ptr, u * 4, Width::B4);
    }
    b.add(ptr, ptr, 16);
    // Clip test: pixel-data-dependent, occasionally taken.
    emit_decision(&mut b, golden, px, idx, clipped, 7);
    b.sub(len, len, 4);
    b.br(Cond::Gt, len, 0, fill);
    b.sub(y, y, 1);
    b.br(Cond::Gt, y, 0, line_top);
    b.sub(pass, pass, 1);
    b.br(Cond::Gt, pass, 0, pass_top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Ghostscript",
        program: b.finish().expect("ghostscript program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * ((passes * lines) as u64 * 450 * 10 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;
    use hbat_core::request::AccessKind;

    #[test]
    fn runs_with_compositing_traffic() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, _) = profile(&w);
        assert!(trace.len() > 5_000);
        assert!((0.15..0.45).contains(&mem_frac), "mem fraction {mem_frac}");
        let (mut loads, mut stores) = (0u64, 0u64);
        for t in trace.iter() {
            match (t.is_mem(), t.mem_kind()) {
                (true, AccessKind::Load) => loads += 1,
                (true, AccessKind::Store) => stores += 1,
                (false, _) => {}
            }
        }
        let ratio = loads as f64 / stores as f64;
        assert!(
            (0.7..2.5).contains(&ratio),
            "compositing reads roughly as much as it writes: {loads} loads vs {stores} stores"
        );
    }

    #[test]
    fn spans_have_spatial_locality() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        // Consecutive frame-buffer stores should mostly be 4 bytes apart.
        let mut prev: Option<u64> = None;
        let (mut seq, mut total) = (0u64, 0u64);
        for t in trace.iter() {
            if t.is_mem() && t.mem_kind() == AccessKind::Store && t.width == Width::B4 {
                if let Some(p) = prev {
                    total += 1;
                    if t.vaddr == p + 4 {
                        seq += 1;
                    }
                }
                prev = Some(t.vaddr);
            }
        }
        assert!(
            seq as f64 / total as f64 > 0.9,
            "span fills should be sequential ({seq}/{total})"
        );
    }

    #[test]
    fn small_scale_framebuffer_spans_many_pages() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(pages > 200, "frame buffer should be big: {pages} pages");
    }
}
