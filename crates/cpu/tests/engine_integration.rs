//! Integration tests: workloads → functional trace → timing engine →
//! translation designs. These pin the qualitative relationships the paper
//! is built on.

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::{simulate_uops, RunMetrics, SimConfig};
use hbat_isa::uop::PredecodedTrace;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn run(bench: Benchmark, design: &str, cfg: &SimConfig) -> RunMetrics {
    let w = bench.build(&WorkloadConfig::new(Scale::Test));
    let trace = PredecodedTrace::predecode(&w.trace());
    let mut tlb = DesignSpec::parse(design)
        .unwrap()
        .build(PageGeometry::KB4, 1996);
    simulate_uops(cfg, &trace, tlb.as_mut())
}

#[test]
fn baseline_ipc_is_plausible() {
    let m = run(Benchmark::Espresso, "T4", &SimConfig::baseline());
    assert!(
        m.ipc() > 0.8,
        "espresso should sustain >0.8 IPC, got {}",
        m.ipc()
    );
    assert!(m.ipc() <= 8.0, "cannot beat machine width");
    assert!(m.cycles > 0);
    assert!(m.loads + m.stores > 1_000);
    assert!(m.tlb.is_consistent());
}

#[test]
fn every_table2_design_completes_every_test_benchmark() {
    let cfg = SimConfig::baseline();
    for bench in Benchmark::ALL {
        let w = bench.build(&WorkloadConfig::new(Scale::Test));
        let trace = PredecodedTrace::predecode(&w.trace());
        for spec in DesignSpec::TABLE2 {
            let mut tlb = spec.build(PageGeometry::KB4, 7);
            let m = simulate_uops(&cfg, &trace, tlb.as_mut());
            assert_eq!(
                m.committed,
                trace.len() as u64,
                "{bench} under {spec} lost instructions"
            );
            assert!(m.tlb.is_consistent(), "{bench}/{spec} stats inconsistent");
        }
    }
}

#[test]
fn fewer_tlb_ports_never_helps() {
    // The defining bandwidth result: T4 ≥ T2 ≥ T1 in IPC on a
    // memory-intensive workload.
    let cfg = SimConfig::baseline();
    let t4 = run(Benchmark::Xlisp, "T4", &cfg);
    let t2 = run(Benchmark::Xlisp, "T2", &cfg);
    let t1 = run(Benchmark::Xlisp, "T1", &cfg);
    assert!(
        t4.cycles <= t2.cycles,
        "T4 {} vs T2 {}",
        t4.cycles,
        t2.cycles
    );
    assert!(
        t2.cycles <= t1.cycles,
        "T2 {} vs T1 {}",
        t2.cycles,
        t1.cycles
    );
    assert!(
        t1.cycles > t4.cycles,
        "a single-ported TLB must visibly hurt xlisp"
    );
    assert!(t1.tlb.retries > t4.tlb.retries);
}

#[test]
fn unlimited_bandwidth_is_an_upper_bound() {
    let cfg = SimConfig::baseline();
    for bench in [Benchmark::Compress, Benchmark::Perl] {
        let w = bench.build(&WorkloadConfig::new(Scale::Test));
        let trace = PredecodedTrace::predecode(&w.trace());
        let mut unlim = DesignSpec::Unlimited.build(PageGeometry::KB4, 7);
        let mut t4 = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 7);
        let mu = simulate_uops(&cfg, &trace, unlim.as_mut());
        let m4 = simulate_uops(&cfg, &trace, t4.as_mut());
        assert!(
            mu.cycles <= m4.cycles,
            "{bench}: unlimited {} vs T4 {}",
            mu.cycles,
            m4.cycles
        );
    }
}

#[test]
fn in_order_issue_is_slower_but_demands_less_bandwidth() {
    let ooo = run(Benchmark::Espresso, "T4", &SimConfig::baseline());
    let ino = run(Benchmark::Espresso, "T4", &SimConfig::baseline_inorder());
    assert!(
        ino.ipc() < ooo.ipc(),
        "in-order {} should trail out-of-order {}",
        ino.ipc(),
        ooo.ipc()
    );
    // And the relative T1 penalty shrinks in-order (Section 4.4).
    let ooo_t1 = run(Benchmark::Espresso, "T1", &SimConfig::baseline());
    let ino_t1 = run(Benchmark::Espresso, "T1", &SimConfig::baseline_inorder());
    let ooo_drop = ooo_t1.cycles as f64 / ooo.cycles as f64;
    let ino_drop = ino_t1.cycles as f64 / ino.cycles as f64;
    assert!(
        ino_drop < ooo_drop + 0.02,
        "in-order T1 slowdown {ino_drop} should not exceed out-of-order {ooo_drop}"
    );
}

#[test]
fn multilevel_tlb_shields_the_l2() {
    let m = run(Benchmark::Tomcatv, "M8", &SimConfig::baseline());
    assert!(
        m.tlb.shield_rate() > 0.8,
        "an 8-entry L1 TLB should shield most of tomcatv: {}",
        m.tlb.shield_rate()
    );
}

#[test]
fn pretranslation_shields_pointer_heavy_code() {
    let m = run(Benchmark::Tomcatv, "P8", &SimConfig::baseline());
    assert!(
        m.tlb.shield_rate() > 0.5,
        "pointer-walking tomcatv should reuse pretranslations: {}",
        m.tlb.shield_rate()
    );
}

#[test]
fn piggybacking_combines_same_page_requests() {
    let m = run(Benchmark::Espresso, "PB2", &SimConfig::baseline());
    assert!(
        m.tlb.shielded > 0,
        "espresso's dense rows must produce same-page combining"
    );
}

#[test]
fn branch_prediction_quality_tracks_workload_character() {
    let cfg = SimConfig::baseline();
    let regular = run(Benchmark::Tomcatv, "T4", &cfg);
    let irregular = run(Benchmark::Gcc, "T4", &cfg);
    // Tomcatv mixes near-perfect loop branches with its data-dependent
    // residual test (the paper reports 86.6 %).
    assert!(
        regular.bpred_rate() > 0.8,
        "tomcatv: {}",
        regular.bpred_rate()
    );
    assert!(
        irregular.bpred_rate() < regular.bpred_rate(),
        "gcc ({}) should predict worse than tomcatv ({})",
        irregular.bpred_rate(),
        regular.bpred_rate()
    );
}

#[test]
fn identical_runs_are_deterministic() {
    let a = run(Benchmark::Perl, "M4", &SimConfig::baseline());
    let b = run(Benchmark::Perl, "M4", &SimConfig::baseline());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.tlb, b.tlb);
}

#[test]
fn eight_kb_pages_do_not_break_anything() {
    let w = Benchmark::Compress.build(&WorkloadConfig::new(Scale::Test));
    let trace = PredecodedTrace::predecode(&w.trace());
    let mut t4k = DesignSpec::parse("M8").unwrap().build(PageGeometry::KB4, 7);
    let mut t8k = DesignSpec::parse("M8").unwrap().build(PageGeometry::KB8, 7);
    let cfg = SimConfig::baseline();
    let m4k = simulate_uops(&cfg, &trace, t4k.as_mut());
    let m8k = simulate_uops(&cfg, &trace, t8k.as_mut());
    assert_eq!(m4k.committed, m8k.committed);
    // Bigger pages map more memory: the shield can only get better.
    assert!(m8k.tlb.miss_rate() <= m4k.tlb.miss_rate() + 1e-9);
}
