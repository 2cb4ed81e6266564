//! Bank-conflict analysis for interleaved TLBs.
//!
//! Section 4.3's diagnosis — "Poor performance was due to bank conflicts
//! which delayed requests … many simultaneous accesses were to the same
//! page, thus no increase in interleaving or change in bank selection
//! function could eliminate conflicts" — as a measurable quantity: for a
//! window of near-simultaneous references, how many collide on a bank,
//! and how many of those collisions are same-page (unfixable by any
//! selection function, but combinable by piggyback ports)?

use hbat_core::addr::Vpn;
use hbat_core::designs::interleaved::BankSelect;

/// Bank-conflict statistics for one (selection function, bank count).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankConflictProfile {
    /// Windows examined.
    pub windows: u64,
    /// References in complete windows.
    pub references: u64,
    /// References delayed by a bank collision (second and later arrivals
    /// at an already-claimed bank within a window).
    pub conflicts: u64,
    /// The subset of `conflicts` where the collision is with a request to
    /// the *same page* — invisible to better selection functions but
    /// servable by a piggyback port.
    pub same_page_conflicts: u64,
}

impl BankConflictProfile {
    /// Profiles a page-number stream
    /// ([`page_stream`](crate::footprint::page_stream)) under
    /// `select`/`banks`, using windows of `window` consecutive memory
    /// references as the simultaneity proxy.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `banks` is not a power of two.
    pub fn of_pages(pages: &[u64], select: BankSelect, banks: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        let mut p = BankConflictProfile::default();
        let mut claimed: Vec<Option<u64>> = vec![None; banks]; // page holding the bank
        for chunk in pages.chunks(window) {
            if chunk.len() < window {
                break;
            }
            p.windows += 1;
            p.references += chunk.len() as u64;
            claimed.fill(None);
            for &page in chunk {
                let bank = select.bank_of_vpn(Vpn(page), banks);
                match claimed[bank] {
                    None => claimed[bank] = Some(page),
                    Some(holder) => {
                        p.conflicts += 1;
                        if holder == page {
                            p.same_page_conflicts += 1;
                        }
                    }
                }
            }
        }
        p
    }

    /// Fraction of references delayed by a bank collision.
    pub fn conflict_fraction(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.references as f64
        }
    }

    /// Of the collisions, the fraction that are same-page — the paper's
    /// explanation for why I8 and X4 barely beat I4.
    pub fn same_page_share(&self) -> f64 {
        if self.conflicts == 0 {
            0.0
        } else {
            self.same_page_conflicts as f64 / self.conflicts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_windows_conflict_maximally_and_unfixably() {
        let t = [3; 16];
        for sel in [
            BankSelect::BitSelect,
            BankSelect::XorFold,
            BankSelect::Multiplicative,
        ] {
            let p = BankConflictProfile::of_pages(&t, sel, 8, 4);
            assert_eq!(p.conflicts, 4 * 3, "{sel:?}");
            assert_eq!(p.same_page_share(), 1.0, "{sel:?}: all same-page");
        }
    }

    #[test]
    fn bank_spread_pages_do_not_conflict_under_bit_select() {
        // Pages 0..4 land on distinct banks with bit-select over 4 banks.
        let t = [0, 1, 2, 3, 0, 1, 2, 3];
        let p = BankConflictProfile::of_pages(&t, BankSelect::BitSelect, 4, 4);
        assert_eq!(p.conflicts, 0);
        assert_eq!(p.conflict_fraction(), 0.0);
    }

    #[test]
    fn distinct_pages_same_bank_conflict_fixably() {
        // Pages 0, 4, 8, 12 all map to bank 0 under 4-bank bit-select.
        let t = [0, 4, 8, 12];
        let p = BankConflictProfile::of_pages(&t, BankSelect::BitSelect, 4, 4);
        assert!(p.conflicts > 0);
        assert_eq!(
            p.same_page_conflicts, 0,
            "different pages: a better function could fix these"
        );
    }

    #[test]
    fn more_banks_reduce_fixable_conflicts_only() {
        // Mix of same-page bursts and distinct pages.
        let pages: Vec<u64> = (0..64).map(|i| if i % 2 == 0 { 7 } else { i }).collect();
        let p4 = BankConflictProfile::of_pages(&pages, BankSelect::BitSelect, 4, 4);
        let p16 = BankConflictProfile::of_pages(&pages, BankSelect::BitSelect, 16, 4);
        assert!(p16.conflicts <= p4.conflicts);
        assert!(
            p16.same_page_conflicts >= p16.conflicts / 2,
            "what remains is mostly same-page"
        );
    }
}
