//! `Tomcatv` analogue: vectorised mesh-generation relaxation.
//!
//! Profile: row-major sweeps over ~129×129 double-precision grids with a
//! five-point stencil — regular strides, excellent spatial and temporal
//! locality, almost perfectly predicted loop branches, and heavy FP work.
//! The whole working set fits comfortably in a 128-entry TLB.

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
    // N×N grid; the paper runs N=129.
    let n = cfg.scale.pick(17, 129, 129) as i64;
    let sweeps = cfg.scale.pick(2, 2, 12) as i64;
    let row_bytes = n * 8;

    let mut heap = HeapLayout::new();
    let x = heap.alloc((n * n * 8) as u64, 4096);
    let rx = heap.alloc((n * n * 8) as u64, 4096);
    let ry = heap.alloc((n * n * 8) as u64, 4096);

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x70C);
    let x_bytes: Vec<u8> = (0..n * n)
        .flat_map(|_| rng.gen_range(0.0f64..1.0).to_bits().to_le_bytes())
        .collect();
    let image = vec![(x, x_bytes)];

    let mut b = Builder::new(cfg.regs);
    let xb = b.ivar("x");
    let rxb = b.ivar("rx");
    let ryb = b.ivar("ry");
    let s = b.ivar("sweep");
    let j = b.ivar("j");
    let i = b.ivar("i");
    let p = b.ivar("p"); // pointer to x[j][i]
    let q = b.ivar("q"); // pointer to rx[j][i]
    let q2 = b.ivar("q2"); // pointer to ry[j][i]
    let relaxed = b.ivar("relaxed");
    let t2 = b.ivar("t2");
    let c = b.fvar("c"); // centre
    let e = b.fvar("e"); // east/west/north/south accumulator
    let w = b.fvar("w");
    let g = b.fvar("g"); // second residual
    let d = b.fvar("d"); // relaxation accumulator (serial across points)
    let four = b.fvar("four");
    let omega = b.fvar("omega");

    b.li(xb, x as i64);
    b.li(rxb, rx as i64);
    b.li(ryb, ry as i64);
    b.li(relaxed, 0);
    b.fli(four, 4.0);
    b.fli(omega, 0.9375);
    b.fli(d, 1.0);

    let sweep_top = b.new_label();
    b.li(s, sweeps);
    b.bind(sweep_top);
    // for j in 1..n-1
    let row_top = b.new_label();
    b.li(j, n - 2);
    b.bind(row_top);
    // p = x + j*row + 8; q = rx + j*row + 8; q2 = ry + j*row + 8
    b.li(p, row_bytes);
    b.mul(p, p, j);
    b.add(q, p, 0);
    b.add(q2, p, 0);
    b.add(p, p, 8);
    b.add(p, p, xb);
    b.add(q, q, 8);
    b.add(q, q, rxb);
    b.add(q2, q2, 8);
    b.add(q2, q2, ryb);
    // for i in 1..n-1 (pointer walks east)
    let col_top = b.new_label();
    b.li(i, n - 2);
    b.bind(col_top);
    // Five-point stencil via displacement addressing off p.
    b.load(c, p, 0, Width::B8);
    b.load(e, p, 8, Width::B8);
    b.load(w, p, -8, Width::B8);
    b.fadd(e, e, w);
    b.load(w, p, row_bytes as i32, Width::B8);
    b.fadd(e, e, w);
    b.load(w, p, -(row_bytes as i32), Width::B8);
    b.fadd(e, e, w);
    b.fmul(c, c, four);
    b.fsub(e, e, c);
    b.store_postinc(e, q, 8, Width::B8);
    // Second residual: the y-direction terms of the real kernel (more FP
    // work per point, fed by the same loads).
    b.fmul(g, e, omega);
    b.fadd(g, g, w);
    b.fmul(g, g, e);
    b.fsub(g, g, c);
    b.store_postinc(g, q2, 8, Width::B8);
    // Successive over-relaxation accumulator: a serial FP dependence
    // across points, the chain that bounds the real loop's IPC.
    b.fmul(d, d, omega);
    b.fadd(d, d, g);
    // Residual-threshold test: branches on the computed data itself —
    // the mantissa bits of the grid values are effectively random.
    b.load(t2, p, 0, Width::B4);
    b.srl(t2, t2, 12); // mid-mantissa bits: effectively random
    b.and(t2, t2, 3);
    let converged = b.new_label();
    b.br(Cond::Ne, t2, 0, converged);
    b.add(relaxed, relaxed, 1);
    b.bind(converged);
    b.add(p, p, 8);
    b.sub(i, i, 1);
    b.br(Cond::Gt, i, 0, col_top);
    b.sub(j, j, 1);
    b.br(Cond::Gt, j, 0, row_top);
    b.sub(s, s, 1);
    b.br(Cond::Gt, s, 0, sweep_top);

    // Spilling under a small register budget multiplies the dynamic
    // instruction count (the paper saw up to 346 % more memory ops).
    let spill_factor: u64 = if cfg.regs.int < 16 { 8 } else { 1 };
    Workload {
        name: "Tomcatv",
        program: b.finish().expect("tomcatv program is well-formed"),
        mem_image: image,
        max_steps: spill_factor * ((sweeps * n * n) as u64 * 40 + 10_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use crate::programs::testutil::profile;
    use hbat_core::addr::VirtAddr;

    #[test]
    fn runs_with_regular_fp_stencil() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let (trace, mem_frac, pages) = profile(&w);
        assert!(trace.len() > 3_000);
        assert!((0.2..0.55).contains(&mem_frac), "mem fraction {mem_frac}");
        assert!(pages < 30, "test grid is small: {pages} pages");
    }

    #[test]
    fn stencil_computes_correct_values() {
        let cfg = WorkloadConfig::new(Scale::Test);
        let w = build(&cfg);
        let mut m = w.instantiate();
        m.run(w.max_steps, |_| {});
        assert!(m.is_halted());
        // Check one interior point of the last sweep against the formula.
        let n = 17i64;
        let x = w.mem_image[0].0;
        let rx = x + ((n * n * 8) as u64).div_ceil(4096) * 4096; // next 4K page
        let get = |addr: u64| m.memory().read_f64(VirtAddr(addr));
        let at = |base: u64, j: i64, i: i64| base + ((j * n + i) * 8) as u64;
        let (j, i) = (5i64, 7i64);
        let expect = get(at(x, j, i + 1))
            + get(at(x, j, i - 1))
            + get(at(x, j + 1, i))
            + get(at(x, j - 1, i))
            - 4.0 * get(at(x, j, i));
        let got = get(at(rx, j, i));
        assert!(
            (expect - got).abs() < 1e-12,
            "stencil mismatch: {expect} vs {got}"
        );
    }

    #[test]
    fn small_scale_fits_in_tlb_reach() {
        let w = build(&WorkloadConfig::new(Scale::Small));
        let (_, _, pages) = profile(&w);
        assert!(pages < 110, "tomcatv working set must be modest: {pages}");
    }

    #[test]
    fn loop_branches_predict_well() {
        let w = build(&WorkloadConfig::new(Scale::Test));
        let trace = w.uops();
        let branches: Vec<_> = trace.iter().filter_map(|t| t.branch()).collect();
        let taken = branches.iter().filter(|b| b.taken).count();
        // Counted loops dominate, tempered by the residual-threshold
        // decision branch.
        let rate = taken as f64 / branches.len() as f64;
        assert!((0.35..0.95).contains(&rate), "taken rate {rate}");
    }
}
