//! Bank selection for the interleaved TLB (Section 3.2): bandwidth
//! through banking.
//!
//! A bank-selection function spreads the address stream over independently
//! ported banks. Simultaneous requests to *different* banks proceed in
//! parallel; requests that collide on a bank serialize — unless the bank
//! also has piggyback ports (the I4/PB design), in which case colliding
//! requests to the *same page* share one translation. The banked TLB
//! itself is [`PortedTlb`](super::ported::PortedTlb).

use crate::addr::{PageGeometry, VirtAddr, Vpn};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
