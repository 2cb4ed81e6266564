//! Criterion micro-benchmark: the Figure-6 miss-rate kernel (a trace
//! replayed through one fully-associative bank), per TLB size.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use hbat_bench::missrate::{miss_count, FIG6_SIZES};
use hbat_core::addr::PageGeometry;
use hbat_isa::uop::MicroOp;
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

fn bench_missrate(c: &mut Criterion) {
    let tape = Benchmark::Compress
        .build(&WorkloadConfig::new(Scale::Test))
        .tape();
    let refs = tape
        .iter()
        .filter(|op| op.flags & MicroOp::F_MEM != 0)
        .count() as u64;
    let mut group = c.benchmark_group("fig6_missrate_kernel");
    group.throughput(Throughput::Elements(refs));
    for (entries, policy) in FIG6_SIZES {
        group.bench_function(format!("{entries}_entries"), |b| {
            b.iter(|| black_box(miss_count(&tape, entries, policy, PageGeometry::KB4, 1996)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_missrate);
criterion_main!(benches);
