//! Cross-validation: the trace-anatomy metrics (hbat-analysis) agree with
//! the behaviour the timing stack (hbat-core + hbat-cpu) exhibits.

use hbat_suite::prelude::*;

#[test]
fn poor_locality_trio_tops_the_reuse_profile() {
    // The paper singles out Compress, MPEG_play, and TFFT for poor
    // reference locality. At small TLB sizes, their LRU miss rates must
    // sit above every locality-friendly program's.
    let cfg = WorkloadConfig::new(Scale::Test);
    let rate = |b: Benchmark| {
        let uops = b.build(&cfg).uops();
        ReuseProfile::of_pages(&page_stream(&uops[..], PageGeometry::KB4)).lru_miss_rate(8)
    };
    let friendly = [Benchmark::Espresso, Benchmark::Tomcatv, Benchmark::Xlisp]
        .map(rate)
        .into_iter()
        .fold(0.0f64, f64::max);
    for bad in [Benchmark::Compress, Benchmark::MpegPlay] {
        assert!(
            rate(bad) > friendly,
            "{bad} should miss more than the friendly set ({friendly})"
        );
    }
}

#[test]
fn reuse_profile_predicts_the_multilevel_shield() {
    // The M8 design's measured shield rate tracks the analysis crate's
    // LRU-8 hit-rate prediction within a few points (the L1 is LRU-8; the
    // differences are port effects and wrong-path traffic).
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in [Benchmark::Espresso, Benchmark::Perl, Benchmark::Tomcatv] {
        let uops = bench.build(&cfg).uops();
        let pages = page_stream(&uops[..], PageGeometry::KB4);
        let predicted_hit = 1.0 - ReuseProfile::of_pages(&pages).lru_miss_rate(8);
        let mut tlb = DesignSpec::parse("M8").unwrap().build(PageGeometry::KB4, 7);
        let m = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
        let measured = m.tlb.shield_rate();
        assert!(
            (predicted_hit - measured).abs() < 0.08,
            "{bench}: predicted {predicted_hit:.3} vs measured {measured:.3}"
        );
    }
}

#[test]
fn adjacency_bounds_piggyback_combining() {
    // PB1's measured shielded fraction can approach but not exceed the
    // perfect-combiner ceiling from the adjacency profile. The ceiling
    // must allow dynamic regrouping: PB1's single real port retries the
    // uncombined requests, which then re-present alongside *younger*
    // neighbours, so the aligned-window fraction is not an upper bound.
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in [
        Benchmark::Ghostscript,
        Benchmark::Espresso,
        Benchmark::Xlisp,
    ] {
        let uops = bench.build(&cfg).uops();
        let pages = page_stream(&uops[..], PageGeometry::KB4);
        let profile = AdjacencyProfile::of_pages(&pages, 4);
        let ceiling = profile.regrouped_combinable_fraction();
        let mut tlb = DesignSpec::parse("PB1")
            .unwrap()
            .build(PageGeometry::KB4, 7);
        let m = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
        assert!(
            m.tlb.shield_rate() <= ceiling + 0.12,
            "{bench}: PB1 shields {:.3} vs adjacency ceiling {:.3}",
            m.tlb.shield_rate(),
            ceiling
        );
    }
}

#[test]
fn pointer_profile_bounds_pretranslation() {
    // P8's measured shield rate cannot exceed the ideal
    // unbounded-attachment pointer-reuse fraction by more than the
    // offset-nibble effect allows.
    let cfg = WorkloadConfig::new(Scale::Test);
    for bench in [Benchmark::Perl, Benchmark::Tomcatv, Benchmark::Gcc] {
        let uops = bench.build(&cfg).uops();
        let ceiling = PointerProfile::of_ops(&uops[..], PageGeometry::KB4).reuse_fraction();
        let mut tlb = DesignSpec::parse("P8").unwrap().build(PageGeometry::KB4, 7);
        let m = simulate_uops(&SimConfig::baseline(), &uops, tlb.as_mut());
        assert!(
            m.tlb.shield_rate() <= ceiling + 0.10,
            "{bench}: P8 shields {:.3} vs pointer ceiling {:.3}",
            m.tlb.shield_rate(),
            ceiling
        );
    }
}
