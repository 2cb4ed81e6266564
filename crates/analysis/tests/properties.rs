//! Property-based tests for the trace-anatomy metrics.

use proptest::prelude::*;

use hbat_analysis::adjacency::AdjacencyProfile;
use hbat_analysis::footprint::{footprint_curve, working_set};
use hbat_analysis::reuse::ReuseProfile;
use hbat_core::addr::{Ppn, Vpn};
use hbat_core::bank::TlbBank;
use hbat_core::entry::{Protection, TlbEntry};
use hbat_core::replacement::ReplacementPolicy;

fn page_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..30, 1..400)
}

proptest! {
    /// The reuse profile's predicted miss count equals an actual LRU bank's
    /// for every size — on arbitrary streams.
    #[test]
    fn reuse_profile_equals_real_lru_banks(pages in page_stream(), entries in 1usize..20) {
        let profile = ReuseProfile::of_pages(&pages);
        let mut bank = TlbBank::new(entries, ReplacementPolicy::Lru, 0);
        let mut misses = 0u64;
        for &p in &pages {
            if bank.lookup(Vpn(p)).is_none() {
                misses += 1;
                bank.insert(TlbEntry::new(Vpn(p), Ppn(p), Protection::READ_WRITE));
            }
        }
        let predicted = profile.lru_miss_rate(entries) * pages.len() as f64;
        prop_assert!((predicted - misses as f64).abs() < 1e-6);
    }

    /// Reuse miss rates are monotone non-increasing in TLB size, bounded
    /// below by the compulsory rate.
    #[test]
    fn reuse_rates_are_monotone(pages in page_stream()) {
        let profile = ReuseProfile::of_pages(&pages);
        let compulsory = profile.cold_references() as f64 / pages.len() as f64;
        let mut last = 1.0 + 1e-12;
        for n in 1..35 {
            let r = profile.lru_miss_rate(n);
            prop_assert!(r <= last + 1e-12);
            prop_assert!(r >= compulsory - 1e-12);
            last = r;
        }
    }

    /// Adjacency accounting balances: combinable + distinct = windowed
    /// references, and the ceilings are sane.
    #[test]
    fn adjacency_accounting_balances(pages in page_stream(), window in 1usize..9) {
        let a = AdjacencyProfile::of_pages(&pages, window);
        let distinct_sum: u64 = a
            .distinct_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        prop_assert_eq!(a.combinable + distinct_sum, a.windows * window as u64);
        prop_assert!(a.combinable_fraction() <= 1.0);
        prop_assert!(a.single_page_fraction() <= 1.0);
        prop_assert!(a.mean_distinct_pages() <= window as f64 + 1e-12);
    }

    /// Footprint curves are monotone and end at the true footprint;
    /// working sets never exceed the window or the footprint.
    #[test]
    fn footprint_and_working_set_invariants(pages in page_stream(), window in 1usize..50) {
        let curve = footprint_curve(&pages, 5);
        prop_assert!(curve.windows(2).all(|w| w[0].1 <= w[1].1));
        let total: std::collections::HashSet<u64> = pages.iter().copied().collect();
        prop_assert_eq!(curve.last().unwrap().1, total.len());
        let (mean, max) = working_set(&pages, window);
        prop_assert!(mean <= max as f64 + 1e-12);
        prop_assert!(max <= window.min(total.len()));
    }
}
