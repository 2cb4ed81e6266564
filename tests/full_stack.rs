//! Cross-crate integration tests: the whole reproduction pipeline, from
//! workload generation through the timing engine to the experiment
//! aggregation, exercised at test scale.

use hbat_suite::bench::experiment::SweepResult;
use hbat_suite::bench::missrate::{miss_rate_percent, FIG6_SIZES};
use hbat_suite::prelude::*;

fn test_cfg() -> ExperimentConfig {
    ExperimentConfig::baseline(Scale::Test)
}

#[test]
fn facade_prelude_covers_the_basics() {
    let w = Benchmark::Doduc.build(&WorkloadConfig::new(Scale::Test));
    let trace = w.uops();
    let mut tlb = DesignSpec::parse("T4").unwrap().build(PageGeometry::KB4, 1);
    let m = simulate_uops(&SimConfig::baseline(), &trace, tlb.as_mut());
    assert_eq!(m.committed, trace.len() as u64);
}

#[test]
fn figure5_shape_holds_at_test_scale() {
    // The headline qualitative claims of Figure 5, end to end.
    let r = sweep(&DesignSpec::TABLE2, &test_cfg());
    let rel = |m: &str| r.relative_ipc(DesignSpec::parse(m).unwrap()).unwrap();

    // T4 dominates the multi-ported family.
    assert!(rel("T2") <= 1.0 + 1e-9);
    assert!(
        rel("T1") < rel("T2") + 1e-9,
        "T1 {} vs T2 {}",
        rel("T1"),
        rel("T2")
    );
    // T1 visibly hurts.
    assert!(
        rel("T1") < 0.97,
        "single-ported TLB must cost: {}",
        rel("T1")
    );
    // Multi-level TLBs get close to T4 (within 2%).
    for m in ["M16", "M8", "M4"] {
        assert!(rel(m) > 0.97, "{m} at {}", rel(m));
    }
    // Piggybacked dual-ported is an adequate substitute for T4 (the
    // paper's summary sentence).
    assert!(rel("PB2") > 0.985, "PB2 at {}", rel("PB2"));
    // Interleaving alone trails the multi-level designs.
    assert!(
        rel("I4") < rel("M8"),
        "I4 {} vs M8 {}",
        rel("I4"),
        rel("M8")
    );
    // Adding piggyback ports rescues the interleaved design.
    assert!(
        rel("I4/PB") > rel("I4"),
        "I4/PB {} vs I4 {}",
        rel("I4/PB"),
        rel("I4")
    );
    // Pretranslation performs well but below a same-sized L1 TLB.
    assert!(rel("P8") > 0.90, "P8 at {}", rel("P8"));
    assert!(
        rel("P8") <= rel("M8") + 1e-9,
        "P8 {} vs M8 {}",
        rel("P8"),
        rel("M8")
    );
}

#[test]
fn in_order_reduces_bandwidth_sensitivity() {
    // Section 4.4: the T1 penalty shrinks under in-order issue.
    let designs = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 1 },
    ];
    let ooo = sweep(&designs, &test_cfg());
    let ino = sweep(&designs, &test_cfg().with_inorder());
    let t1 = DesignSpec::MultiPorted { ports: 1 };
    let (ino_t1, ooo_t1) = (ino.relative_ipc(t1).unwrap(), ooo.relative_ipc(t1).unwrap());
    assert!(
        ino_t1 >= ooo_t1 - 0.02,
        "in-order T1 {ino_t1} should not be more penalised than out-of-order {ooo_t1}"
    );
    // And absolute IPC is lower in order.
    let t4 = DesignSpec::MultiPorted { ports: 4 };
    assert!(ino.weighted_ipc(t4).unwrap() < ooo.weighted_ipc(t4).unwrap());
}

#[test]
fn miss_rates_fall_with_tlb_size_for_every_benchmark() {
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in Benchmark::ALL {
        let tape = bench.build(&cfg).tape();
        let mut last = f64::INFINITY;
        for (entries, policy) in FIG6_SIZES {
            let rate = miss_rate_percent(&tape, entries, policy, PageGeometry::KB4, 1);
            // Random replacement adds noise; allow a small inversion.
            assert!(
                rate <= last + 1.5,
                "{bench}: {entries} entries at {rate}% after {last}%"
            );
            last = rate;
        }
    }
}

#[test]
fn eight_kb_pages_help_the_shielding_designs() {
    // Figure 8's mechanism: larger pages raise L1-TLB and pretranslation
    // shield rates on a locality-poor workload.
    let trace = Benchmark::Compress
        .build(&WorkloadConfig::new(Scale::Test))
        .uops();
    let cfg = SimConfig::baseline();
    for mnemonic in ["M8", "P8"] {
        let spec = DesignSpec::parse(mnemonic).unwrap();
        let mut t4k = spec.build(PageGeometry::KB4, 7);
        let mut t8k = spec.build(PageGeometry::KB8, 7);
        let m4k = simulate_uops(&cfg, &trace, t4k.as_mut());
        let m8k = simulate_uops(&cfg, &trace, t8k.as_mut());
        assert!(
            m8k.tlb.shield_rate() >= m4k.tlb.shield_rate() - 0.01,
            "{mnemonic}: 8k shield {} vs 4k {}",
            m8k.tlb.shield_rate(),
            m4k.tlb.shield_rate()
        );
        assert!(m8k.tlb.miss_rate() <= m4k.tlb.miss_rate() + 1e-9);
    }
}

#[test]
fn fewer_registers_hurt_everything_but_multilevel_most_designs() {
    // Figure 9's mechanism at test scale: with 8/8 registers the T1
    // penalty deepens while M8 stays close to T4.
    let designs = [
        DesignSpec::MultiPorted { ports: 4 },
        DesignSpec::MultiPorted { ports: 1 },
        DesignSpec::MultiLevel { l1_entries: 8 },
    ];
    let full = sweep(&designs, &test_cfg());
    let small_cfg = ExperimentConfig {
        workload: WorkloadConfig::new(Scale::Test).with_small_regs(),
        ..test_cfg()
    };
    let small = sweep(&designs, &small_cfg);
    let rel = |r: &SweepResult, d: DesignSpec| r.relative_ipc(d).unwrap();
    let t1 = DesignSpec::MultiPorted { ports: 1 };
    let m8 = DesignSpec::MultiLevel { l1_entries: 8 };
    assert!(
        rel(&small, t1) < rel(&full, t1),
        "spill traffic must deepen the T1 penalty: {} vs {}",
        rel(&small, t1),
        rel(&full, t1)
    );
    assert!(
        rel(&small, m8) > 0.95,
        "the L1 TLB absorbs spill traffic: {}",
        rel(&small, m8)
    );
}

#[test]
fn sweep_is_deterministic() {
    let designs = [DesignSpec::MultiPorted { ports: 2 }];
    let a = sweep(&designs, &test_cfg());
    let b = sweep(&designs, &test_cfg());
    for (ra, rb) in a.cells.iter().zip(&b.cells) {
        let (ma, mb) = (&ra[0].ok().unwrap().metrics, &rb[0].ok().unwrap().metrics);
        assert_eq!(ma.cycles, mb.cycles);
        assert_eq!(ma.tlb, mb.tlb);
    }
}

#[test]
fn shield_rates_reflect_design_structure() {
    // The framework quantities of Section 2 behave as the paper says:
    // f_shielded is high for multi-level and pretranslation, zero for
    // plain multi-ported TLBs.
    let trace = Benchmark::Perl
        .build(&WorkloadConfig::new(Scale::Test))
        .uops();
    let cfg = SimConfig::baseline();
    let shield = |m: &str| {
        let mut tlb = DesignSpec::parse(m).unwrap().build(PageGeometry::KB4, 7);
        simulate_uops(&cfg, &trace, tlb.as_mut()).tlb.shield_rate()
    };
    assert_eq!(shield("T4"), 0.0);
    assert!(shield("M16") >= shield("M8"));
    assert!(shield("M8") >= shield("M4") - 0.02);
    assert!(shield("M4") > 0.5);
    assert!(shield("P8") > 0.3, "perl reuses pointers: {}", shield("P8"));
}
