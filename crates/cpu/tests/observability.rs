//! The observability contract: recording never changes the simulation,
//! and the stall attribution accounts for every non-issuing cycle.

use hbat_core::designs::spec::DesignSpec;
use hbat_core::PageGeometry;
use hbat_cpu::{simulate_uops, simulate_uops_with_recorder, SimConfig};
use hbat_isa::uop::PredecodedTrace;
use hbat_obs::{PortResource, TraceRecorder};
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn traced(bench: Benchmark, design: &str) -> (hbat_cpu::RunMetrics, TraceRecorder) {
    let w = bench.build(&WorkloadConfig::new(Scale::Test));
    let trace = PredecodedTrace::predecode(&w.trace());
    let mut tlb = DesignSpec::parse(design)
        .unwrap()
        .build(PageGeometry::KB4, 1996);
    let mut rec = TraceRecorder::new();
    let m = simulate_uops_with_recorder(&SimConfig::baseline(), &trace, tlb.as_mut(), &mut rec);
    (m, rec)
}

#[test]
fn stall_attribution_sums_to_non_issue_cycles() {
    for design in ["I4", "M8", "P8", "T1"] {
        let (m, rec) = traced(Benchmark::Espresso, design);
        assert_eq!(
            rec.cycles(),
            m.cycles,
            "{design}: every cycle charged exactly once"
        );
        assert_eq!(
            rec.stall_total(),
            m.cycles - rec.issue_cycles(),
            "{design}: stalls are exactly the non-issue cycles"
        );
        assert_eq!(rec.issued_ops(), m.issued, "{design}: issue accounting");
        let breakdown_sum: u64 = rec.stall_breakdown().iter().map(|&(_, n)| n).sum();
        assert_eq!(breakdown_sum, rec.stall_total());
    }
}

#[test]
fn recording_is_invisible_to_the_simulation() {
    // The determinism guarantee (DESIGN.md §10): RunMetrics under a
    // TraceRecorder are bit-identical to an uninstrumented run.
    for bench in [Benchmark::Xlisp, Benchmark::Tomcatv] {
        let w = bench.build(&WorkloadConfig::new(Scale::Test));
        let trace = PredecodedTrace::predecode(&w.trace());
        let cfg = SimConfig::baseline();
        for design in ["I4", "M8", "P8"] {
            let spec = DesignSpec::parse(design).unwrap();
            let mut plain_tlb = spec.build(PageGeometry::KB4, 7);
            let plain = simulate_uops(&cfg, &trace, plain_tlb.as_mut());

            let mut rec = TraceRecorder::new();
            let mut traced_tlb = spec.build(PageGeometry::KB4, 7);
            let traced = simulate_uops_with_recorder(&cfg, &trace, traced_tlb.as_mut(), &mut rec);

            assert_eq!(plain, traced, "{bench}/{design}: recorder changed the run");
            assert!(rec.cycles() > 0, "{bench}/{design}: recorder saw the run");
        }
    }
}

#[test]
fn port_starved_tlb_shows_up_in_the_attribution() {
    // A single-ported TLB on a memory-hungry workload must surface port
    // conflicts, and a well-ported one must show fewer.
    let (m1, r1) = traced(Benchmark::Xlisp, "T1");
    let (_, r4) = traced(Benchmark::Xlisp, "T4");
    assert!(
        r1.port_conflicts(PortResource::Tlb) > 0,
        "T1 must reject translations"
    );
    assert_eq!(
        r1.port_conflicts(PortResource::Tlb),
        m1.translation_retries,
        "one conflict event per retry"
    );
    assert!(r1.port_conflicts(PortResource::Tlb) > r4.port_conflicts(PortResource::Tlb));
    // On an 8-wide machine port contention rarely empties a whole issue
    // cycle; it shows up as retried work stretched over more issue
    // cycles for the same committed instructions.
    assert!(
        r1.issue_cycles() > r4.issue_cycles(),
        "T1 ({}) must need more issue cycles than T4 ({})",
        r1.issue_cycles(),
        r4.issue_cycles()
    );
    let conflict_events = r1
        .events()
        .iter()
        .filter(|e| matches!(e, hbat_obs::Event::PortConflict { .. }))
        .count() as u64;
    assert!(
        conflict_events + r1.dropped_events() >= r1.port_conflicts(PortResource::Tlb),
        "conflicts are visible in the event stream"
    );
}

#[test]
fn walks_and_samples_are_observed() {
    let (m, rec) = traced(Benchmark::Compress, "M8");
    assert!(rec.walks() > 0, "compress must take TLB misses");
    // Phantom misses stall until squash and piggybacked sharers reuse a
    // neighbour's walk, so charged walks never exceed translator misses.
    assert!(
        rec.walks() <= m.tlb.misses,
        "walks {} vs misses {}",
        rec.walks(),
        m.tlb.misses
    );
    assert!(rec.walk_cycles() >= rec.walks() * 2, "walks have latency");
    assert!(
        rec.rob_occupancy().total() > 0,
        "default sampling interval must fire"
    );
    assert_eq!(rec.rob_occupancy().total(), rec.lsq_occupancy().total());
    assert!(rec.rob_occupancy().max_seen() > 0);
}
