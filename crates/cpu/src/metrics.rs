//! Results of one timing-simulation run.

use hbat_core::stats::TranslatorStats;
use hbat_mem::cache::CacheStats;

/// Everything a run reports; the experiment harness aggregates these into
/// the paper's tables and figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions committed (equals the trace length).
    pub committed: u64,
    /// Instructions issued, including wrong-path (phantom) work.
    pub issued: u64,
    /// Wrong-path instructions squashed at branch resolution.
    pub squashed: u64,
    /// Translation requests made by wrong-path instructions.
    pub wrong_path_translations: u64,
    /// Memory operations issued (address-generated), wrong path included.
    pub issued_mem: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// Conditional branches predicted correctly.
    pub bpred_correct: u64,
    /// Cycles in which instruction dispatch was stalled by a TLB miss.
    pub tlb_dispatch_stall_cycles: u64,
    /// Issue attempts of memory operations rejected by the translator for
    /// lack of a port (the visible face of `t_stalled`).
    pub translation_retries: u64,
    /// Snapshot of translator counters at end of run.
    pub tlb: TranslatorStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
    /// Instruction-cache counters.
    pub icache: CacheStats,
}

impl RunMetrics {
    /// Issued operations per cycle (includes wrong-path work, like the
    /// paper's issue-rate column).
    pub fn issue_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycles as f64
        }
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Issued memory operations per cycle (wrong path included).
    pub fn issue_mem_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.issued_mem as f64 / self.cycles as f64
        }
    }

    /// Committed memory operations per cycle.
    pub fn mem_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.cycles as f64
        }
    }

    /// Branch prediction accuracy over conditional branches.
    pub fn bpred_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.bpred_correct as f64 / self.cond_branches as f64
        }
    }

    /// Fraction of issued instructions that were wrong-path work later
    /// squashed at branch resolution.
    pub fn squash_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.squashed as f64 / self.issued as f64
        }
    }

    /// Fraction of issued memory operations whose translation served the
    /// wrong path — the extra bandwidth demand beyond the committed
    /// stream (Section 4.1's issue-rate vs commit-rate gap).
    pub fn wrong_path_translation_share(&self) -> f64 {
        if self.issued_mem == 0 {
            0.0
        } else {
            self.wrong_path_translations as f64 / self.issued_mem as f64
        }
    }

    /// Translation-port retries per accepted translator access — the
    /// visible face of the paper's `t_stalled` queueing term.
    pub fn retries_per_access(&self) -> f64 {
        if self.tlb.accesses == 0 {
            0.0
        } else {
            self.translation_retries as f64 / self.tlb.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let m = RunMetrics {
            cycles: 100,
            committed: 250,
            loads: 40,
            stores: 10,
            cond_branches: 50,
            bpred_correct: 45,
            ..RunMetrics::default()
        };
        assert!((m.ipc() - 2.5).abs() < 1e-12);
        assert!((m.mem_per_cycle() - 0.5).abs() < 1e-12);
        assert!((m.bpred_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.ipc(), 0.0);
        assert_eq!(m.mem_per_cycle(), 0.0);
        assert_eq!(m.bpred_rate(), 0.0);
    }

    #[test]
    fn wrong_path_rates() {
        let m = RunMetrics {
            issued: 400,
            squashed: 100,
            issued_mem: 80,
            wrong_path_translations: 20,
            translation_retries: 30,
            tlb: TranslatorStats {
                accesses: 120,
                shielded: 120,
                ..TranslatorStats::default()
            },
            ..RunMetrics::default()
        };
        assert!((m.squash_rate() - 0.25).abs() < 1e-12);
        assert!((m.wrong_path_translation_share() - 0.25).abs() < 1e-12);
        assert!((m.retries_per_access() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wrong_path_rates_guard_division_by_zero() {
        let m = RunMetrics::default();
        assert_eq!(m.squash_rate(), 0.0);
        assert_eq!(m.wrong_path_translation_share(), 0.0);
        assert_eq!(m.retries_per_access(), 0.0);
    }
}
