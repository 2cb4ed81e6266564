//! Figure 6: TLB miss rate as a function of TLB size.
//!
//! A trace-driven sweep of fully-associative TLBs from 4 to 128 entries
//! over each benchmark's data-reference stream. Matching the paper, the
//! 4–16-entry TLBs use LRU replacement (as the L1 TLBs do) and the
//! 32–128-entry TLBs use random replacement (as the base TLBs do).

use hbat_core::addr::{PageGeometry, VirtAddr};
use hbat_core::bank::TlbBank;
use hbat_core::entry::{Protection, TlbEntry};
use hbat_core::replacement::ReplacementPolicy;
use hbat_isa::tape::Tape;
use hbat_isa::uop::MicroOp;

/// The TLB sizes of Figure 6 with their replacement policies.
pub const FIG6_SIZES: [(usize, ReplacementPolicy); 6] = [
    (4, ReplacementPolicy::Lru),
    (8, ReplacementPolicy::Lru),
    (16, ReplacementPolicy::Lru),
    (32, ReplacementPolicy::Random),
    (64, ReplacementPolicy::Random),
    (128, ReplacementPolicy::Random),
];

/// Runs the data references of `ops` through one fully-associative TLB
/// and returns `(misses, references)`.
pub fn miss_count(
    ops: &Tape,
    entries: usize,
    policy: ReplacementPolicy,
    geometry: PageGeometry,
    seed: u64,
) -> (u64, u64) {
    let mut bank = TlbBank::new(entries, policy, seed);
    let mut misses = 0u64;
    let mut refs = 0u64;
    let mut next_ppn = 0x100u64;
    for op in (0..ops.len()).map(|i| ops.retired(i)) {
        if op.flags() & MicroOp::F_MEM == 0 {
            continue;
        }
        refs += 1;
        let vpn = geometry.vpn(VirtAddr(op.vaddr));
        if bank.lookup(vpn).is_none() {
            misses += 1;
            bank.insert(TlbEntry::new(
                vpn,
                hbat_core::addr::Ppn(next_ppn),
                Protection::READ_WRITE,
            ));
            next_ppn += 1;
        }
    }
    (misses, refs)
}

/// Miss rate (percent of references) for one trace and size.
pub fn miss_rate_percent(
    ops: &Tape,
    entries: usize,
    policy: ReplacementPolicy,
    geometry: PageGeometry,
    seed: u64,
) -> f64 {
    let (m, r) = miss_count(ops, entries, policy, geometry, seed);
    if r == 0 {
        0.0
    } else {
        100.0 * m as f64 / r as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

    fn uops(bench: Benchmark) -> Tape {
        bench.build(&WorkloadConfig::new(Scale::Test)).tape()
    }

    #[test]
    fn miss_rate_is_monotone_in_size_for_lru() {
        let ops = uops(Benchmark::Gcc);
        let g = PageGeometry::KB4;
        let m4 = miss_rate_percent(&ops, 4, ReplacementPolicy::Lru, g, 1);
        let m8 = miss_rate_percent(&ops, 8, ReplacementPolicy::Lru, g, 1);
        let m16 = miss_rate_percent(&ops, 16, ReplacementPolicy::Lru, g, 1);
        assert!(m4 >= m8 && m8 >= m16, "LRU inclusion: {m4} {m8} {m16}");
    }

    #[test]
    fn locality_poor_programs_miss_more() {
        let g = PageGeometry::KB4;
        let compress = uops(Benchmark::Compress);
        let espresso = uops(Benchmark::Espresso);
        let mc = miss_rate_percent(&compress, 16, ReplacementPolicy::Lru, g, 1);
        let me = miss_rate_percent(&espresso, 16, ReplacementPolicy::Lru, g, 1);
        assert!(
            mc > me,
            "compress ({mc}%) must miss more than espresso ({me}%)"
        );
    }

    #[test]
    fn bigger_pages_reduce_misses() {
        let ops = uops(Benchmark::Compress);
        let m4k = miss_rate_percent(&ops, 32, ReplacementPolicy::Random, PageGeometry::KB4, 1);
        let m8k = miss_rate_percent(&ops, 32, ReplacementPolicy::Random, PageGeometry::KB8, 1);
        assert!(m8k <= m4k, "8k pages map more memory: {m8k} vs {m4k}");
    }

    #[test]
    fn counts_only_memory_references() {
        let ops = uops(Benchmark::Doduc);
        let (_, refs) = miss_count(&ops, 128, ReplacementPolicy::Random, PageGeometry::KB4, 1);
        let mem = ops.iter().filter(MicroOp::is_mem).count() as u64;
        assert_eq!(refs, mem);
    }
}
