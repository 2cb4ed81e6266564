//! Ablation studies beyond Table 2: the design-parameter sensitivities
//! DESIGN.md calls out.
//!
//! 1. L1 TLB size sweep (1–64 entries) — where does the multi-level
//!    design saturate?
//! 2. Piggyback port count on a single-ported TLB — how much combining is
//!    there to harvest?
//! 3. Pretranslation cache size and offset-tag width — how many
//!    attachments does a register working set need, and do the paper's 4
//!    offset bits matter?
//! 4. Interleave factor at fixed capacity — why more banks stop helping.
//!
//! Run: `cargo run --release -p hbat-bench --bin ablation [scale]`

use hbat_bench::experiment::{scale_from_args, ExperimentConfig};
use hbat_core::designs::ported::PortedTlb;
use hbat_core::designs::shielded::ShieldedTlb;
use hbat_core::pagetable::PageTable;
use hbat_core::translator::AddressTranslator;
use hbat_cpu::engine::Engine;
use hbat_cpu::{RunMetrics, SimConfig, WarmAccumulator};
use hbat_isa::tape::Tape;
use hbat_obs::NullRecorder;
use hbat_stats::table::{fnum, TextTable};
use hbat_workloads::Benchmark;

const SEED: u64 = 1996;

/// Times `tape` on the baseline machine from the cold state, translating
/// through `t`.
fn simulate(tape: &Tape, t: &mut dyn AddressTranslator) -> RunMetrics {
    let cfg = SimConfig::baseline();
    let cold = WarmAccumulator::new(&cfg, t.geometry()).warm_state();
    Engine::new(&cfg, tape.reader(), t, &cold, NullRecorder).run()
}

fn main() {
    let scale = scale_from_args();
    let cfg = ExperimentConfig::baseline(scale);
    // One locality-poor and one locality-rich program.
    let compress = Benchmark::Compress.build(&cfg.workload).tape();
    let xlisp = Benchmark::Xlisp.build(&cfg.workload).tape();
    let pt = || PageTable::new(cfg.geometry);

    println!(
        "Ablation studies ({scale:?} scale; Compress = poor locality, Xlisp = pointer-heavy)\n"
    );

    // 1. L1 TLB size sweep.
    let mut t = TextTable::new(vec![
        "L1 entries",
        "Compress IPC",
        "shielded",
        "Xlisp IPC",
        "shielded",
    ]);
    t.numeric();
    for l1 in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut row = vec![l1.to_string()];
        for tape in [&compress, &xlisp] {
            let m = simulate(
                tape,
                &mut ShieldedTlb::multilevel("Mx", l1, 128, pt(), SEED),
            );
            row.extend([fnum(m.ipc(), 3), fnum(m.tlb.shield_rate() * 100.0, 1)]);
        }
        t.row(row);
    }
    println!("A1. Multi-level TLB: L1 size sweep\n{}", t.render());

    // 2. Piggyback port count over one real port.
    let mut t = TextTable::new(vec![
        "piggyback ports",
        "Compress IPC",
        "Xlisp IPC",
        "combined",
    ]);
    t.numeric();
    for pb in [0usize, 1, 2, 3, 7] {
        let mk = || PortedTlb::new("PBx", 1, 1, pb, 128, pt(), SEED);
        let mc = simulate(&compress, &mut mk());
        let mx = simulate(&xlisp, &mut mk());
        t.row(vec![
            pb.to_string(),
            fnum(mc.ipc(), 3),
            fnum(mx.ipc(), 3),
            mx.tlb.shielded.to_string(),
        ]);
    }
    println!("A2. Piggyback ports on a single-ported TLB\n{}", t.render());

    // 3. Pretranslation cache size × offset-tag bits.
    let mut t = TextTable::new(vec![
        "ptc entries",
        "tag bits",
        "Xlisp IPC",
        "shielded",
        "flushes",
    ]);
    t.numeric();
    for entries in [4usize, 8, 16] {
        for bits in [0u32, 4] {
            let mut xt = ShieldedTlb::pretranslation("Px", entries, bits, 128, pt(), SEED);
            let m = simulate(&xlisp, &mut xt);
            t.row(vec![
                entries.to_string(),
                bits.to_string(),
                fnum(m.ipc(), 3),
                fnum(m.tlb.shield_rate() * 100.0, 1),
                m.tlb.shield_flushes.to_string(),
            ]);
        }
    }
    println!(
        "A3. Pretranslation cache size × offset-tag width\n{}",
        t.render()
    );

    // 4. Interleave factor at fixed 128-entry capacity.
    let mut t = TextTable::new(vec![
        "banks",
        "Compress IPC",
        "retries",
        "Xlisp IPC",
        "retries",
    ]);
    t.numeric();
    for banks in [2usize, 4, 8, 16] {
        let mk = || PortedTlb::new("Ix", banks, 1, 0, 128, pt(), SEED);
        let mc = simulate(&compress, &mut mk());
        let mx = simulate(&xlisp, &mut mk());
        t.row(vec![
            banks.to_string(),
            fnum(mc.ipc(), 3),
            mc.tlb.retries.to_string(),
            fnum(mx.ipc(), 3),
            mx.tlb.retries.to_string(),
        ]);
    }
    println!("A4. Interleave factor at fixed capacity\n{}", t.render());

    println!(
        "Findings mirror Section 4: the L1 TLB saturates within a few\n\
         entries; one or two piggyback ports capture almost all combining;\n\
         the offset-tag bits matter only when one register covers several\n\
         pages; and extra banks stop helping because simultaneous requests\n\
         hit the same page — hence the same bank — regardless of count."
    );
}
