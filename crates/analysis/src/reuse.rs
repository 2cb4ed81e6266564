//! LRU reuse-distance (stack-distance) analysis of page-reference streams.
//!
//! One pass over a trace yields the miss rate of *every* fully-associative
//! LRU TLB size simultaneously (Mattson et al.'s inclusion property) — the
//! generalisation of the paper's Figure 6 for the LRU sizes.

use std::collections::BTreeMap;

/// Histogram of LRU stack distances for a page-reference stream.
#[derive(Debug, Clone, Default)]
pub struct ReuseProfile {
    /// `counts[d]` = references whose previous use is at stack distance
    /// `d` (0 = most recently used page referenced again).
    counts: Vec<u64>,
    /// First touches (infinite distance).
    cold: u64,
    total: u64,
}

impl ReuseProfile {
    /// Computes the profile of a page-number stream
    /// ([`page_stream`](crate::footprint::page_stream)).
    ///
    /// The implementation keeps the LRU stack as a vector of pages, most
    /// recent last; each reference scans back for its page. Cost is
    /// O(refs × live-distance), ample for the suite's stream lengths.
    pub fn of_pages(pages: &[u64]) -> Self {
        let mut stack: Vec<u64> = Vec::new();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new(); // page → slot
        let mut profile = ReuseProfile::default();
        for &page in pages {
            profile.total += 1;
            match index.get(&page).copied() {
                Some(slot) => {
                    // Distance = number of distinct pages above the slot.
                    let distance = stack.len() - 1 - slot;
                    if profile.counts.len() <= distance {
                        profile.counts.resize(distance + 1, 0);
                    }
                    profile.counts[distance] += 1;
                    // Move to top: shift everything above down one slot.
                    stack.remove(slot);
                    for (i, p) in stack.iter().enumerate().skip(slot) {
                        index.insert(*p, i);
                    }
                    stack.push(page);
                    index.insert(page, stack.len() - 1);
                }
                None => {
                    profile.cold += 1;
                    stack.push(page);
                    index.insert(page, stack.len() - 1);
                }
            }
        }
        profile
    }

    /// Total references profiled.
    pub fn references(&self) -> u64 {
        self.total
    }

    /// First-touch (compulsory) references.
    pub fn cold_references(&self) -> u64 {
        self.cold
    }

    /// Number of distinct pages seen.
    pub fn distinct_pages(&self) -> usize {
        self.cold as usize
    }

    /// Miss rate of a fully-associative LRU TLB with `entries` entries:
    /// the fraction of references whose reuse distance is ≥ `entries`
    /// (plus the compulsory misses).
    pub fn lru_miss_rate(&self, entries: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.counts.iter().take(entries).sum();
        1.0 - hits as f64 / self.total as f64
    }

    /// The smallest LRU TLB size whose miss rate is at most `target`
    /// (`None` if even holding every page is not enough, i.e. compulsory
    /// misses alone exceed the target).
    pub fn entries_for_miss_rate(&self, target: f64) -> Option<usize> {
        (1..=self.counts.len().max(1) + 1).find(|&n| self.lru_miss_rate(n) <= target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_example() {
        // a b c a: the second 'a' has distance 2.
        let p = ReuseProfile::of_pages(&[1, 2, 3, 1]);
        assert_eq!(p.references(), 4);
        assert_eq!(p.cold_references(), 3);
        // Three compulsory misses; the reuse hits only with ≥3 entries.
        assert_eq!(p.lru_miss_rate(3), 0.75);
        assert_eq!(p.lru_miss_rate(2), 1.0); // distance 2 needs 3 entries
    }

    #[test]
    fn repeated_single_page() {
        let p = ReuseProfile::of_pages(&[7; 100]);
        assert_eq!(p.cold_references(), 1);
        assert!((p.lru_miss_rate(1) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn cyclic_thrash() {
        // Cycling 0..4 with capacity 4: LRU always misses.
        let seq: Vec<u64> = (0..100).map(|i| i % 5).collect();
        let p = ReuseProfile::of_pages(&seq);
        assert_eq!(p.lru_miss_rate(4), 1.0);
        assert!(p.lru_miss_rate(5) < 0.06);
    }

    #[test]
    fn miss_rate_is_monotone_in_size() {
        let seq: Vec<u64> = (0..500).map(|i| (i * i) % 37).collect();
        let p = ReuseProfile::of_pages(&seq);
        let mut last = 1.0f64;
        for n in 1..40 {
            let r = p.lru_miss_rate(n);
            assert!(r <= last + 1e-12, "size {n}");
            last = r;
        }
        // Quadratic residues mod 37: (37 + 1) / 2 = 19 distinct pages.
        assert_eq!(p.distinct_pages(), 19);
    }

    #[test]
    fn matches_a_real_lru_bank() {
        use hbat_core::addr::Vpn;
        use hbat_core::bank::TlbBank;
        use hbat_core::entry::{Protection, TlbEntry};
        use hbat_core::replacement::ReplacementPolicy;
        // Differential check: profile-predicted misses equal an actual
        // LRU bank's misses for several sizes.
        let seq: Vec<u64> = (0..400).map(|i| (i * 7 + i / 3) % 23).collect();
        let p = ReuseProfile::of_pages(&seq);
        for entries in [1usize, 2, 4, 8, 16, 32] {
            let mut bank = TlbBank::new(entries, ReplacementPolicy::Lru, 0);
            let mut misses = 0u64;
            for &page in &seq {
                if bank.lookup(Vpn(page)).is_none() {
                    misses += 1;
                    bank.insert(TlbEntry::new(
                        Vpn(page),
                        hbat_core::addr::Ppn(page),
                        Protection::READ_WRITE,
                    ));
                }
            }
            let predicted = p.lru_miss_rate(entries);
            let actual = misses as f64 / seq.len() as f64;
            assert!(
                (predicted - actual).abs() < 1e-12,
                "{entries} entries: {predicted} vs {actual}"
            );
        }
    }

    #[test]
    fn entries_for_target() {
        let seq: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        let p = ReuseProfile::of_pages(&seq);
        assert_eq!(p.entries_for_miss_rate(0.05), Some(10));
        assert!(
            p.entries_for_miss_rate(0.0).is_none(),
            "compulsory misses remain"
        );
    }
}
