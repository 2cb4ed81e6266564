//! Criterion micro-benchmarks for the timing engine's steady-state inner
//! loop — the paths the sweep executor spends its cell-execution phase
//! in. Three translator designs stress the three hot structures:
//!
//! * `T1` (single port) forces retries and deferred walks, exercising the
//!   fixed-capacity walk-sharing table;
//! * `P8` (pretranslation) drives `note_writeback` on every pointer
//!   arithmetic commit, exercising the writeback drain and the
//!   attachment-propagation scratch path;
//! * `PB2` (piggyback) is the combining fast path.
//!
//! Compress has the worst reference locality of the suite (most walks);
//! Espresso the best (most combining). Reported per simulated
//! instruction.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::{simulate_uops, SimConfig};
use hbat_isa::uop::PredecodedTrace;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn bench_hotloop(c: &mut Criterion) {
    let cfg = WorkloadConfig::new(Scale::Test);
    for (bench, designs) in [
        (Benchmark::Compress, ["T1", "P8"].as_slice()),
        (Benchmark::Espresso, ["PB2", "P8"].as_slice()),
    ] {
        let uops = PredecodedTrace::predecode(&bench.build(&cfg).trace());
        let mut group = c.benchmark_group(format!("engine_hotloop_{bench}"));
        group.throughput(Throughput::Elements(uops.len() as u64));
        group.sample_size(20);
        for mnemonic in designs {
            let spec = DesignSpec::parse(mnemonic).expect("known design");
            group.bench_function(*mnemonic, |b| {
                let sim = SimConfig::baseline();
                b.iter(|| {
                    let mut tlb = spec.build(PageGeometry::KB4, 1996);
                    black_box(simulate_uops(&sim, &uops, tlb.as_mut()))
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_hotloop);
criterion_main!(benches);
