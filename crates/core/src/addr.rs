//! Address and page-number newtypes.
//!
//! The simulator uses 64-bit containers for addresses, but the modelled
//! machine is the 32-bit extended-MIPS of the paper; workloads stay well
//! below 4 GiB. Virtual and physical addresses are distinct types so a
//! physical page number can never be fed back into the translation path by
//! accident.

use std::fmt;

/// A virtual byte address produced by the processor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical byte address, the product of address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual page number: the virtual address with the page offset removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

/// A physical page number (page frame number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn:{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

impl From<VirtAddr> for u64 {
    fn from(v: VirtAddr) -> Self {
        v.0
    }
}

impl VirtAddr {
    /// Adds a signed byte displacement, wrapping on overflow like the
    /// modelled hardware adder would.
    #[must_use]
    pub fn wrapping_offset(self, delta: i64) -> VirtAddr {
        VirtAddr(self.0.wrapping_add(delta as u64))
    }
}

/// Describes the virtual-memory page size.
///
/// The paper evaluates 4 KB pages (baseline, Figures 5–7 and 9) and 8 KB
/// pages (Figure 8). A `PageGeometry` converts between byte addresses and
/// page numbers and extracts bit fields used by bank-selection functions.
///
/// # Examples
///
/// ```
/// use hbat_core::addr::{PageGeometry, VirtAddr};
///
/// let g = PageGeometry::new(12); // 4 KB pages
/// assert_eq!(g.page_bytes(), 4096);
/// let va = VirtAddr(0x1234_5678);
/// assert_eq!(g.vpn(va).0, 0x12345);
/// assert_eq!(g.page_offset(va), 0x678);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageGeometry {
    page_bits: u32,
}

impl PageGeometry {
    /// Baseline 4 KB pages.
    pub const KB4: PageGeometry = PageGeometry { page_bits: 12 };
    /// The larger 8 KB pages of Figure 8.
    pub const KB8: PageGeometry = PageGeometry { page_bits: 13 };

    /// Creates a geometry with `page_bits` bits of page offset.
    ///
    /// # Panics
    ///
    /// Panics unless `8 <= page_bits <= 30`; nothing in the modelled design
    /// space is outside that range.
    pub fn new(page_bits: u32) -> Self {
        assert!(
            (8..=30).contains(&page_bits),
            "page_bits {page_bits} outside supported range 8..=30"
        );
        PageGeometry { page_bits }
    }

    /// Number of page-offset bits.
    pub fn page_bits(self) -> u32 {
        self.page_bits
    }

    /// Page size in bytes.
    pub fn page_bytes(self) -> u64 {
        1 << self.page_bits
    }

    /// Extracts the virtual page number of `va`.
    pub fn vpn(self, va: VirtAddr) -> Vpn {
        Vpn(va.0 >> self.page_bits)
    }

    /// Extracts the page offset of `va`.
    pub fn page_offset(self, va: VirtAddr) -> u64 {
        va.0 & (self.page_bytes() - 1)
    }

    /// Combines a physical page number with the page offset of `va` to form
    /// the full physical address.
    pub fn splice(self, ppn: Ppn, va: VirtAddr) -> PhysAddr {
        PhysAddr((ppn.0 << self.page_bits) | self.page_offset(va))
    }

    /// Returns `width` bits of the VPN starting `lo` bits above the page
    /// offset; used by the bit-select and XOR-fold bank selection functions.
    pub fn vpn_field(self, va: VirtAddr, lo: u32, width: u32) -> u64 {
        let vpn = self.vpn(va).0;
        (vpn >> lo) & ((1 << width) - 1)
    }
}

impl Default for PageGeometry {
    fn default() -> Self {
        PageGeometry::KB4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_partition_address() {
        let g = PageGeometry::new(12);
        let va = VirtAddr(0xdead_beef);
        let recombined = (g.vpn(va).0 << 12) | g.page_offset(va);
        assert_eq!(recombined, va.0);
    }

    #[test]
    fn splice_preserves_offset() {
        let g = PageGeometry::KB8;
        let va = VirtAddr(0x0123_4567);
        let pa = g.splice(Ppn(0x42), va);
        assert_eq!(pa.0 & (g.page_bytes() - 1), g.page_offset(va));
        assert_eq!(pa.0 >> 13, 0x42);
    }

    #[test]
    fn eight_kb_pages_halve_the_vpn() {
        let va = VirtAddr(0x8000);
        assert_eq!(PageGeometry::KB4.vpn(va).0, 8);
        assert_eq!(PageGeometry::KB8.vpn(va).0, 4);
    }

    #[test]
    fn vpn_field_extracts_low_bits_above_offset() {
        let g = PageGeometry::KB4;
        // VPN = 0b1011_0110 -> low three bits above offset = 0b110
        let va = VirtAddr(0b1011_0110 << 12);
        assert_eq!(g.vpn_field(va, 0, 3), 0b110);
        assert_eq!(g.vpn_field(va, 3, 3), 0b110);
        assert_eq!(g.vpn_field(va, 6, 2), 0b10);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn tiny_pages_rejected() {
        let _ = PageGeometry::new(4);
    }

    #[test]
    fn wrapping_offset_goes_both_directions() {
        let va = VirtAddr(0x1000);
        assert_eq!(va.wrapping_offset(16).0, 0x1010);
        assert_eq!(va.wrapping_offset(-16).0, 0xff0);
    }

    #[test]
    fn display_formats_are_nonempty_and_distinct() {
        assert_eq!(format!("{}", VirtAddr(16)), "va:0x10");
        assert_eq!(format!("{}", PhysAddr(16)), "pa:0x10");
        assert_eq!(format!("{}", Vpn(3)), "vpn:0x3");
        assert_eq!(format!("{}", Ppn(3)), "ppn:0x3");
    }
}
