//! The interleaved TLB (Section 3.2): bandwidth through banking.
//!
//! A bank-selection function spreads the address stream over independently
//! ported banks. Simultaneous requests to *different* banks proceed in
//! parallel; requests that collide on a bank serialize — unless the bank
//! also has piggyback ports (the I4/PB design), in which case colliding
//! requests to the *same page* share one translation.

use crate::addr::{PageGeometry, VirtAddr, Vpn};
use crate::bank::TlbBank;
use crate::cycle::Cycle;
use crate::pagetable::PageTable;
use crate::replacement::ReplacementPolicy;
use crate::request::{Outcome, TranslateRequest};
use crate::stats::TranslatorStats;
use crate::translator::AddressTranslator;

use super::access_base_bank;

/// How virtual page numbers are mapped to banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankSelect {
    /// Use the `log2(banks)` VPN bits immediately above the page offset.
    BitSelect,
    /// XOR-fold the three least-significant groups of `log2(banks)` VPN
    /// bits above the page offset (randomises the distribution, \[KJLH89\]).
    XorFold,
    /// Multiplicative (Fibonacci) hash of the whole VPN — a pseudo-random
    /// interleaving in the spirit of \[Rau91\], which the paper cites as
    /// the stronger bank-scattering technique. Included as an extension:
    /// the paper's conclusion (same-page conflicts defeat any selection
    /// function) predicts it should behave like XOR-fold, and it does.
    Multiplicative,
}

impl BankSelect {
    /// Computes the bank index for `va` among `banks` banks.
    pub fn bank_of(self, geom: PageGeometry, va: VirtAddr, banks: usize) -> usize {
        self.bank_of_vpn(geom.vpn(va), banks)
    }

    /// Computes the bank index for a virtual page number directly.
    pub fn bank_of_vpn(self, vpn: Vpn, banks: usize) -> usize {
        let k = banks.trailing_zeros();
        debug_assert!(banks.is_power_of_two());
        let field = |lo: u32| (vpn.0 >> lo) & ((1 << k) - 1);
        match self {
            BankSelect::BitSelect => field(0) as usize,
            BankSelect::XorFold => (field(0) ^ field(k) ^ field(2 * k)) as usize,
            BankSelect::Multiplicative => {
                (vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - k)) as usize
            }
        }
    }
}

/// An interleaved TLB of single-ported fully-associative banks.
///
/// Total capacity is split evenly over the banks (I8: 8 × 16 entries,
/// I4/X4: 4 × 32 entries), so associativity is bounded by the bank size —
/// still at least 16-way, which the paper found never hurt the hit rate.
///
/// With `piggyback = true` each bank also carries piggyback ports:
/// same-cycle, same-page requests that collide on a busy bank are served by
/// the translation already in flight (design I4/PB).
#[derive(Debug)]
pub struct InterleavedTlb {
    name: String,
    select: BankSelect,
    banks: Vec<TlbBank>,
    /// Per-cycle: what each bank is translating this cycle, if anything.
    in_flight: Vec<Option<(Vpn, Outcome)>>,
    piggyback: bool,
    pt: PageTable,
    now: Cycle,
    stats: TranslatorStats,
}

impl InterleavedTlb {
    /// Creates an interleaved TLB with `banks` banks sharing
    /// `total_entries` entries, using `select` as the bank-selection
    /// function. `piggyback` adds piggyback ports at each bank.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or does not divide
    /// `total_entries`.
    pub fn new(
        name: &str,
        banks: usize,
        total_entries: usize,
        select: BankSelect,
        piggyback: bool,
        pt: PageTable,
        seed: u64,
    ) -> Self {
        assert!(
            banks.is_power_of_two() && banks > 0,
            "banks must be a power of two"
        );
        assert_eq!(
            total_entries % banks,
            0,
            "total entries must divide evenly over banks"
        );
        let per_bank = total_entries / banks;
        InterleavedTlb {
            name: name.to_owned(),
            select,
            banks: (0..banks)
                .map(|i| TlbBank::new(per_bank, ReplacementPolicy::Random, seed ^ (i as u64 + 1)))
                .collect(),
            in_flight: vec![None; banks],
            piggyback,
            pt,
            now: Cycle::ZERO,
            stats: TranslatorStats::new(),
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Which bank `va` maps to.
    pub fn bank_of(&self, va: VirtAddr) -> usize {
        self.select
            .bank_of(self.pt.geometry(), va, self.banks.len())
    }
}

impl AddressTranslator for InterleavedTlb {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_cycle(&mut self, now: Cycle) {
        debug_assert!(now >= self.now, "time must not run backwards");
        self.now = now;
        self.in_flight.fill(None);
    }

    fn translate(&mut self, req: &TranslateRequest) -> Outcome {
        let bank = self.bank_of(req.vaddr);
        let vpn = self.pt.geometry().vpn(req.vaddr);
        if let Some((busy_vpn, outcome)) = self.in_flight[bank] {
            // Bank already translating this cycle.
            if self.piggyback && busy_vpn == vpn {
                // Same page: share the in-flight translation (the VPN
                // compare happens in parallel with bank access, so the
                // piggybacked request sees the same outcome and timing).
                self.stats.accesses += 1;
                self.stats.shielded += 1;
                return outcome;
            }
            self.stats.retries += 1;
            return Outcome::Retry;
        }
        self.stats.accesses += 1;
        let (outcome, _evicted) = access_base_bank(
            &mut self.banks[bank],
            &mut self.pt,
            vpn,
            req.kind.is_store(),
            self.now,
            0,
            &mut self.stats,
        );
        self.in_flight[bank] = Some((vpn, outcome));
        outcome
    }

    fn flush(&mut self) {
        let entries: Vec<_> = self.banks.iter().flat_map(|b| b.iter().cloned()).collect();
        for e in entries {
            super::write_back_status(&mut self.pt, &e);
        }
        for b in &mut self.banks {
            b.flush();
        }
    }

    fn invalidate_page(&mut self, vpn: Vpn) {
        let bank = self.select.bank_of_vpn(vpn, self.banks.len());
        if let Some(e) = self.banks[bank].invalidate(vpn) {
            super::write_back_status(&mut self.pt, &e);
        }
    }

    fn queue_depth(&self, _now: Cycle) -> usize {
        // Banks already claimed this cycle; later same-bank requests
        // are either piggybacked or rejected.
        self.in_flight.iter().filter(|s| s.is_some()).count()
    }

    fn warm_insert(&mut self, entry: crate::entry::TlbEntry) {
        // Route through the bank-selection function, exactly like a fill.
        let bank = self.select.bank_of_vpn(entry.vpn, self.banks.len());
        if self.banks[bank].lookup(entry.vpn).is_some() {
            return;
        }
        if let Some(victim) = self.banks[bank].insert(entry) {
            super::write_back_status(&mut self.pt, &victim);
        }
    }

    fn warm_tlb_capacity(&self) -> usize {
        // Aggregate capacity: bank selection can still evict inside a
        // hot bank, but the replay is eviction-free when pages spread.
        self.banks.iter().map(TlbBank::capacity).sum()
    }

    fn stats(&self) -> &TranslatorStats {
        &self.stats
    }

    fn page_table(&self) -> &PageTable {
        &self.pt
    }

    fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::drive_batch;

    fn make(banks: usize, select: BankSelect, piggyback: bool) -> InterleavedTlb {
        InterleavedTlb::new(
            "test",
            banks,
            128,
            select,
            piggyback,
            PageTable::new(PageGeometry::KB4),
            42,
        )
    }

    #[test]
    fn bit_select_uses_low_vpn_bits() {
        let g = PageGeometry::KB4;
        for page in 0..32u64 {
            let va = VirtAddr(page << 12);
            assert_eq!(BankSelect::BitSelect.bank_of(g, va, 8), (page % 8) as usize);
        }
    }

    #[test]
    fn xor_fold_folds_three_groups() {
        let g = PageGeometry::KB4;
        // VPN bits: groups of two. vpn = 0b01_10_11 -> 0b01^0b10^0b11 = 0b00.
        let va = VirtAddr(0b01_10_11 << 12);
        assert_eq!(BankSelect::XorFold.bank_of(g, va, 4), 0);
        // vpn = 0b00_00_10 -> bank 2.
        let va = VirtAddr(0b10 << 12);
        assert_eq!(BankSelect::XorFold.bank_of(g, va, 4), 2);
    }

    #[test]
    fn selection_is_a_partition() {
        let g = PageGeometry::KB8;
        for sel in [
            BankSelect::BitSelect,
            BankSelect::XorFold,
            BankSelect::Multiplicative,
        ] {
            for page in 0..4096u64 {
                let va = VirtAddr(page << 13);
                let b = sel.bank_of(g, va, 8);
                assert!(b < 8);
                // Deterministic: same address, same bank.
                assert_eq!(b, sel.bank_of(g, va, 8));
            }
        }
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut t = make(4, BankSelect::BitSelect, false);
        t.begin_cycle(Cycle(0));
        // Pages 0..4 hit banks 0..4.
        for p in 0..4u64 {
            assert!(t
                .translate(&TranslateRequest::load(VirtAddr(p << 12), p))
                .is_translated());
        }
        assert_eq!(t.stats().retries, 0);
    }

    #[test]
    fn same_bank_conflict_serializes_without_piggyback() {
        let mut t = make(4, BankSelect::BitSelect, false);
        t.begin_cycle(Cycle(0));
        let a = TranslateRequest::load(VirtAddr(0x0000), 0);
        let b = TranslateRequest::load(VirtAddr(0x0008), 1); // same page, same bank
        assert!(t.translate(&a).is_translated());
        assert_eq!(t.translate(&b), Outcome::Retry);
        assert_eq!(t.stats().retries, 1);
    }

    #[test]
    fn piggyback_shares_same_page_conflicts() {
        let mut t = make(4, BankSelect::BitSelect, true);
        t.begin_cycle(Cycle(0));
        let a = TranslateRequest::load(VirtAddr(0x0000), 0);
        let b = TranslateRequest::load(VirtAddr(0x0008), 1);
        let oa = t.translate(&a);
        let ob = t.translate(&b);
        assert_eq!(oa, ob, "piggybacked request shares the in-flight outcome");
        assert_eq!(t.stats().shielded, 1);
        assert_eq!(t.stats().retries, 0);
    }

    #[test]
    fn piggyback_does_not_help_different_pages_in_same_bank() {
        let mut t = make(4, BankSelect::BitSelect, true);
        t.begin_cycle(Cycle(0));
        let a = TranslateRequest::load(VirtAddr(0x0000), 0); // page 0, bank 0
        let b = TranslateRequest::load(VirtAddr(0x4000), 1); // page 4, bank 0
        assert!(t.translate(&a).is_translated());
        assert_eq!(t.translate(&b), Outcome::Retry);
    }

    #[test]
    fn multiplicative_select_scatters_sequential_pages() {
        // Consecutive pages land on many distinct banks (unlike
        // bit-select, which strides through them in order).
        let g = PageGeometry::KB4;
        let mut hits = [0u32; 8];
        for page in 0..64u64 {
            hits[BankSelect::Multiplicative.bank_of(g, VirtAddr(page << 12), 8)] += 1;
        }
        assert!(
            hits.iter().all(|&h| h >= 2),
            "scatter should cover all banks: {hits:?}"
        );
    }

    #[test]
    fn entries_live_only_in_their_selected_bank() {
        let mut t = make(8, BankSelect::BitSelect, false);
        let reqs: Vec<_> = (0..64u64)
            .map(|p| TranslateRequest::load(VirtAddr(p << 12), p))
            .collect();
        drive_batch(&mut t, Cycle(0), &reqs);
        for p in 0..64u64 {
            let va = VirtAddr(p << 12);
            let vpn = t.geometry().vpn(va);
            let home = t.bank_of(va);
            for (i, bank) in t.banks.iter().enumerate() {
                let present = bank.peek(vpn).is_some();
                assert_eq!(present, i == home, "page {p} in wrong bank");
            }
        }
    }

    #[test]
    fn capacity_is_split_over_banks() {
        let t = make(8, BankSelect::BitSelect, false);
        assert_eq!(t.bank_count(), 8);
        assert!(t.banks.iter().all(|b| b.capacity() == 16));
        let t4 = make(4, BankSelect::XorFold, false);
        assert!(t4.banks.iter().all(|b| b.capacity() == 32));
    }

    #[test]
    fn stats_stay_consistent() {
        let mut t = make(4, BankSelect::BitSelect, true);
        let reqs: Vec<_> = (0..40u64)
            .map(|i| TranslateRequest::load(VirtAddr((i % 7) << 12 | (i * 8) & 0xfff), i))
            .collect();
        drive_batch(&mut t, Cycle(0), &reqs);
        assert!(t.stats().is_consistent());
    }
}
