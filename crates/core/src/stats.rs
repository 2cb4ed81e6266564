//! Counters every translator design maintains.

/// Event counts for one translator over one simulation run.
///
/// The counts map onto the paper's performance framework (Section 2):
/// `shielded` accesses never reach the base TLB mechanism
/// (`f_shielded`), `retries` approximate port-contention queueing
/// (`t_stalled`), and `misses / accesses` is `M_TLB`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslatorStats {
    /// Translation requests accepted (excludes retried presentations).
    pub accesses: u64,
    /// Requests satisfied without consulting the base TLB: L1 TLB hits,
    /// pretranslation hits, and piggybacked requests.
    pub shielded: u64,
    /// Requests that hit in the base TLB mechanism.
    pub base_hits: u64,
    /// Requests that required a page-table walk.
    pub misses: u64,
    /// Request presentations rejected for lack of a port (each retried
    /// presentation counts once).
    pub retries: u64,
    /// Requests that queued inside the translator waiting for an internal
    /// port (L2 TLB or base-TLB port behind a shield).
    pub internal_queueing_cycles: u64,
    /// Page-status (referenced/dirty) write-throughs sent to the base TLB.
    pub status_writes: u64,
    /// Entries invalidated to maintain multi-level inclusion.
    pub inclusion_invalidations: u64,
    /// Whole-structure flushes of an upper-level cache (pretranslation
    /// coherence).
    pub shield_flushes: u64,
}

impl TranslatorStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of accepted requests never forwarded to the base TLB
    /// (the paper's `f_shielded`); 0 when nothing has been accepted.
    pub fn shield_rate(&self) -> f64 {
        ratio(self.shielded, self.accesses)
    }

    /// Miss ratio of the whole translation mechanism (`M_TLB`).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.accesses)
    }

    /// Hit ratio (shielded + base hits) of the whole mechanism; 0 when
    /// nothing has been accepted (an empty run has no hits, and
    /// `1.0 - miss_rate()` would misreport it as a perfect one).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.miss_rate()
        }
    }

    /// Sanity invariant: every accepted access is exactly one of shielded,
    /// base hit, or miss.
    pub fn is_consistent(&self) -> bool {
        self.shielded + self.base_hits + self.misses == self.accesses
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default_and_rates_defined() {
        let s = TranslatorStats::new();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.shield_rate(), 0.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn empty_run_reports_zero_hit_rate() {
        // Regression: `1.0 - miss_rate()` used to claim a perfect hit
        // rate for a translator that was never accessed.
        let s = TranslatorStats::new();
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = TranslatorStats {
            accesses: 100,
            shielded: 60,
            base_hits: 30,
            misses: 10,
            ..TranslatorStats::default()
        };
        assert!(s.is_consistent());
        assert!((s.shield_rate() - 0.6).abs() < 1e-12);
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn inconsistency_detected() {
        let s = TranslatorStats {
            accesses: 5,
            shielded: 1,
            base_hits: 1,
            misses: 1,
            ..TranslatorStats::default()
        };
        assert!(!s.is_consistent());
    }
}
