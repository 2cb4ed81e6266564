//! Same-page adjacency: how much combining is available to piggyback
//! ports, and how far apart simultaneous requests land for interleaving.
//!
//! The paper's piggyback results hinge on "many simultaneous accesses are
//! to the same virtual page" (Section 4.3); these statistics quantify
//! that claim for any trace. Since simultaneity depends on the core, the
//! analysis uses a window of `w` consecutive memory references as a proxy
//! for what an issue window presents together — `w = 4` matches the four
//! load/store units.

use std::collections::BTreeSet;

/// Same-page structure of a reference stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdjacencyProfile {
    /// Window size used (consecutive memory references per window).
    pub window: usize,
    /// Memory references examined.
    pub references: u64,
    /// Windows examined.
    pub windows: u64,
    /// Sum over windows of (refs − distinct pages): the requests a
    /// perfect combiner could absorb.
    pub combinable: u64,
    /// Same sum under the *best* partition of the stream into consecutive
    /// groups of ≤ `window` refs — the regrouping a piggyback retry loop
    /// can reach, where a retried request joins younger neighbours.
    pub max_combinable: u64,
    /// Windows whose references all hit one page.
    pub single_page_windows: u64,
    /// Histogram of distinct-pages-per-window (index 0 ⇒ 1 page, ...).
    pub distinct_hist: Vec<u64>,
    /// Back-to-back references to the same page (run structure).
    pub same_page_pairs: u64,
}

impl AdjacencyProfile {
    /// Profiles a page-number stream
    /// ([`page_stream`](crate::footprint::page_stream)) with windows of
    /// `window` consecutive references.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn of_pages(pages: &[u64], window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let mut p = AdjacencyProfile {
            window,
            references: pages.len() as u64,
            ..AdjacencyProfile::default()
        };
        for pair in pages.windows(2) {
            if pair[0] == pair[1] {
                p.same_page_pairs += 1;
            }
        }
        let mut seen = BTreeSet::new();
        for chunk in pages.chunks(window) {
            if chunk.len() < window {
                break; // ignore the ragged tail
            }
            seen.clear();
            seen.extend(chunk.iter().copied());
            let distinct = seen.len();
            p.windows += 1;
            p.combinable += (chunk.len() - distinct) as u64;
            if distinct == 1 {
                p.single_page_windows += 1;
            }
            if p.distinct_hist.len() < distinct {
                p.distinct_hist.resize(distinct, 0);
            }
            p.distinct_hist[distinct - 1] += 1;
        }
        // Best-partition combinable: f[i] = most absorbable requests in
        // pages[..i] over all splits into consecutive groups of ≤ window.
        // Combinability is superadditive under merging, but alignment
        // matters, so the aligned chunking above is only one candidate.
        let mut f = vec![0u64; pages.len() + 1];
        for i in 1..=pages.len() {
            let mut best = f[i - 1]; // a singleton group absorbs nothing
            for k in 2..=window.min(i) {
                seen.clear();
                seen.extend(pages[i - k..i].iter().copied());
                best = best.max(f[i - k] + (k - seen.len()) as u64);
            }
            f[i] = best;
        }
        p.max_combinable = f[pages.len()];
        p
    }

    /// Fraction of windowed references a perfect combiner absorbs — an
    /// upper bound on piggyback shielding.
    pub fn combinable_fraction(&self) -> f64 {
        let windowed = self.windows * self.window as u64;
        if windowed == 0 {
            0.0
        } else {
            self.combinable as f64 / windowed as f64
        }
    }

    /// Fraction of all references a perfect combiner absorbs when the
    /// request stream may regroup dynamically — the right ceiling for
    /// piggyback designs whose retries re-present requests alongside
    /// younger neighbours.
    pub fn regrouped_combinable_fraction(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.max_combinable as f64 / self.references as f64
        }
    }

    /// Fraction of windows needing only one translation.
    pub fn single_page_fraction(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.single_page_windows as f64 / self.windows as f64
        }
    }

    /// Mean distinct pages per window — the sustained port demand an
    /// ideal combiner leaves behind.
    pub fn mean_distinct_pages(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .distinct_hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        sum as f64 / self.windows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_same_page_is_fully_combinable() {
        let p = AdjacencyProfile::of_pages(&[5; 16], 4);
        assert_eq!(p.windows, 4);
        assert_eq!(p.single_page_fraction(), 1.0);
        assert_eq!(p.combinable, 4 * 3);
        assert!((p.combinable_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(p.same_page_pairs, 15);
        assert!((p.mean_distinct_pages() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_distinct_pages_cannot_combine() {
        let pages: Vec<u64> = (0..16).collect();
        let p = AdjacencyProfile::of_pages(&pages, 4);
        assert_eq!(p.combinable, 0);
        assert_eq!(p.single_page_fraction(), 0.0);
        assert!((p.mean_distinct_pages() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_stream_counts_pairs() {
        // Pages: a a b b — one window of 4 with 2 distinct.
        let p = AdjacencyProfile::of_pages(&[1, 1, 2, 2], 4);
        assert_eq!(p.windows, 1);
        assert_eq!(p.combinable, 2);
        assert_eq!(p.same_page_pairs, 2);
        assert_eq!(p.distinct_hist, vec![0, 1]);
    }

    #[test]
    fn regrouping_beats_aligned_chunking() {
        // a b b b b a a a: aligned windows absorb 2 + 2; the best
        // partition (a)(b b b b)(a a a) absorbs 3 + 2.
        let p = AdjacencyProfile::of_pages(&[1, 2, 2, 2, 2, 1, 1, 1], 4);
        assert_eq!(p.combinable, 4);
        assert_eq!(p.max_combinable, 5);
        assert!(p.regrouped_combinable_fraction() > p.combinable_fraction());
    }

    #[test]
    fn regrouping_matches_aligned_when_alignment_is_perfect() {
        let p = AdjacencyProfile::of_pages(&[5; 16], 4);
        assert_eq!(p.max_combinable, 12, "4 windows of 4 absorb 3 each");
    }

    #[test]
    fn ragged_tail_ignored() {
        let p = AdjacencyProfile::of_pages(&[1, 1, 1, 1, 1], 4);
        assert_eq!(p.windows, 1);
        assert_eq!(p.references, 5);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        AdjacencyProfile::of_pages(&[], 0);
    }
}
