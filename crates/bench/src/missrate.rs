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
use hbat_isa::executor::OpSource;

/// The TLB sizes of Figure 6 with their replacement policies.
pub const FIG6_SIZES: [(usize, ReplacementPolicy); 6] = [
    (4, ReplacementPolicy::Lru),
    (8, ReplacementPolicy::Lru),
    (16, ReplacementPolicy::Lru),
    (32, ReplacementPolicy::Random),
    (64, ReplacementPolicy::Random),
    (128, ReplacementPolicy::Random),
];

/// Runs the data references of `ops` (a program's
/// [`ProgramTail::stream`](crate::ckpt::ProgramTail::stream), or a
/// slice of ops) through one fully-associative TLB in one pass and
/// returns `(misses, references)`.
pub fn miss_count(
    ops: impl OpSource,
    entries: usize,
    policy: ReplacementPolicy,
    geometry: PageGeometry,
    seed: u64,
) -> (u64, u64) {
    let mut bank = TlbBank::new(entries, policy, seed);
    let mut misses = 0u64;
    let mut refs = 0u64;
    let mut next_ppn = 0x100u64;
    ops.for_each_op(|op| {
        if !op.template.is_mem() {
            return;
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
    });
    (misses, refs)
}

/// Miss rate (percent of references) for one op stream and size.
pub fn miss_rate_percent(
    ops: impl OpSource,
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
    use crate::ckpt::ProgramTail;
    use crate::experiment::ExperimentConfig;
    use hbat_workloads::{Benchmark, Scale};

    fn tail(bench: Benchmark) -> ProgramTail {
        ProgramTail::program_start(bench, &ExperimentConfig::baseline(Scale::Test)).unwrap()
    }

    #[test]
    fn miss_rate_is_monotone_in_size_for_lru() {
        let gcc = tail(Benchmark::Gcc);
        let g = PageGeometry::KB4;
        let m4 = miss_rate_percent(gcc.stream(), 4, ReplacementPolicy::Lru, g, 1);
        let m8 = miss_rate_percent(gcc.stream(), 8, ReplacementPolicy::Lru, g, 1);
        let m16 = miss_rate_percent(gcc.stream(), 16, ReplacementPolicy::Lru, g, 1);
        assert!(m4 >= m8 && m8 >= m16, "LRU inclusion: {m4} {m8} {m16}");
    }

    #[test]
    fn locality_poor_programs_miss_more() {
        let g = PageGeometry::KB4;
        let compress = tail(Benchmark::Compress);
        let espresso = tail(Benchmark::Espresso);
        let mc = miss_rate_percent(compress.stream(), 16, ReplacementPolicy::Lru, g, 1);
        let me = miss_rate_percent(espresso.stream(), 16, ReplacementPolicy::Lru, g, 1);
        assert!(
            mc > me,
            "compress ({mc}%) must miss more than espresso ({me}%)"
        );
    }

    #[test]
    fn bigger_pages_reduce_misses() {
        let compress = tail(Benchmark::Compress);
        let rate = |g| miss_rate_percent(compress.stream(), 32, ReplacementPolicy::Random, g, 1);
        let (m4k, m8k) = (rate(PageGeometry::KB4), rate(PageGeometry::KB8));
        assert!(m8k <= m4k, "8k pages map more memory: {m8k} vs {m4k}");
    }

    #[test]
    fn counts_only_memory_references() {
        let doduc = tail(Benchmark::Doduc);
        let (misses, refs) = miss_count(
            doduc.stream(),
            128,
            ReplacementPolicy::Random,
            PageGeometry::KB4,
            1,
        );
        let uops = Benchmark::Doduc
            .build(&ExperimentConfig::baseline(Scale::Test).workload)
            .uops();
        assert_eq!(refs, uops.iter().filter(|op| op.is_mem()).count() as u64);
        let from_slice = miss_count(
            &uops[..],
            128,
            ReplacementPolicy::Random,
            PageGeometry::KB4,
            1,
        );
        assert_eq!(from_slice, (misses, refs));
    }
}
