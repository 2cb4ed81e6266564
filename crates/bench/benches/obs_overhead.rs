//! Criterion micro-benchmark for the observability layer's overhead:
//! the same engine run three ways on the same trace and design.
//!
//! * `null` — `simulate_uops` (the default `NullRecorder` instantiation);
//!   `Recorder::ENABLED = false` compiles every probe out, so this must
//!   be within noise of the pre-observability engine;
//! * `trace` — `simulate_uops_with_recorder` with a full [`TraceRecorder`]
//!   (counters + histograms + bounded event buffer);
//! * `trace_counters` — a `TraceRecorder` with the event buffer sized
//!   to zero, the configuration observed sweeps effectively pay for.
//!
//! `cargo run --release -p hbat-bench --bin obs_bench` records the
//! null-vs-trace ratio in `results/BENCH_obs.json` for CI trending.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::{simulate_uops, simulate_uops_with_recorder, SimConfig};
use hbat_isa::uop::PredecodedTrace;
use hbat_obs::TraceRecorder;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn bench_obs_overhead(c: &mut Criterion) {
    let cfg = WorkloadConfig::new(Scale::Test);
    let uops = PredecodedTrace::predecode(&Benchmark::Compress.build(&cfg).trace());
    let spec = DesignSpec::parse("M8").expect("known design");
    let sim = SimConfig::baseline();
    let traced = |rec: &mut TraceRecorder| {
        let mut tlb = spec.build(PageGeometry::KB4, 1996);
        simulate_uops_with_recorder(&sim, &uops, tlb.as_mut(), rec)
    };

    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(uops.len() as u64));
    group.sample_size(20);

    group.bench_function("null", |b| {
        b.iter(|| {
            let mut tlb = spec.build(PageGeometry::KB4, 1996);
            black_box(simulate_uops(&sim, &uops, tlb.as_mut()))
        })
    });
    group.bench_function("trace", |b| {
        b.iter(|| black_box(traced(&mut TraceRecorder::new())))
    });
    group.bench_function("trace_counters", |b| {
        b.iter(|| {
            let mut rec = TraceRecorder::new();
            rec.set_event_capacity(0);
            black_box(traced(&mut rec))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
