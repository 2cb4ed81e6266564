//! Criterion end-to-end benchmark: a full cycle-timing simulation
//! (predecoded functional trace replayed against a design) — the unit of work every
//! figure of the paper is built from. Reported per simulated instruction.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::{simulate_uops, SimConfig};
use hbat_isa::uop::PredecodedTrace;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn bench_endtoend(c: &mut Criterion) {
    let trace = PredecodedTrace::predecode(
        &Benchmark::Espresso
            .build(&WorkloadConfig::new(Scale::Test))
            .trace(),
    );
    let mut group = c.benchmark_group("simulate_endtoend");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for mnemonic in ["T4", "T1", "M8", "P8", "I4/PB"] {
        let spec = DesignSpec::parse(mnemonic).expect("known design");
        group.bench_function(format!("ooo_{}", mnemonic.replace('/', "_")), |b| {
            let cfg = SimConfig::baseline();
            b.iter(|| {
                let mut tlb = spec.build(PageGeometry::KB4, 1996);
                black_box(simulate_uops(&cfg, &trace, tlb.as_mut()))
            })
        });
    }
    group.bench_function("inorder_T4", |b| {
        let cfg = SimConfig::baseline_inorder();
        let spec = DesignSpec::parse("T4").expect("known design");
        b.iter(|| {
            let mut tlb = spec.build(PageGeometry::KB4, 1996);
            black_box(simulate_uops(&cfg, &trace, tlb.as_mut()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_endtoend);
criterion_main!(benches);
