//! TLB entries: cached page-table information.

use crate::addr::{Ppn, Vpn};

/// Page protection attributes carried by every translation.
///
/// The paper's designs forward protection along with the physical page
/// number (piggyback ports may share protection between requesters in the
/// same protection domain), so the entry carries it explicitly even though
/// the user-level workloads never fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protection {
    /// Loads permitted.
    pub read: bool,
    /// Stores permitted.
    pub write: bool,
    /// Instruction fetch permitted.
    pub execute: bool,
}

impl Protection {
    /// Read/write data page, the common case for the data TLB.
    pub const READ_WRITE: Protection = Protection {
        read: true,
        write: true,
        execute: false,
    };

    /// Read-only data page.
    pub const READ_ONLY: Protection = Protection {
        read: true,
        write: false,
        execute: false,
    };
}

impl Default for Protection {
    fn default() -> Self {
        Protection::READ_WRITE
    }
}

/// One cached page-table entry.
///
/// Besides the mapping itself, the entry carries the page *status* bits —
/// referenced and dirty — whose maintenance drives the write-through status
/// traffic the paper describes for the multi-level and pretranslation
/// designs (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page this entry maps.
    pub vpn: Vpn,
    /// Physical frame it maps to.
    pub ppn: Ppn,
    /// Access permissions.
    pub prot: Protection,
    /// Page has been referenced.
    pub referenced: bool,
    /// Page has been written.
    pub dirty: bool,
}

impl TlbEntry {
    /// Creates an entry for a freshly walked mapping with clear status bits.
    pub fn new(vpn: Vpn, ppn: Ppn, prot: Protection) -> Self {
        TlbEntry {
            vpn,
            ppn,
            prot,
            referenced: false,
            dirty: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_has_clear_status() {
        let e = TlbEntry::new(Vpn(1), Ppn(2), Protection::READ_WRITE);
        assert!(!e.referenced);
        assert!(!e.dirty);
        assert_eq!(e.vpn, Vpn(1));
        assert_eq!(e.ppn, Ppn(2));
    }

    #[test]
    fn protection_presets() {
        let rw = Protection::READ_WRITE;
        let ro = Protection::READ_ONLY;
        assert!(rw.write && rw.read && !rw.execute);
        assert!(ro.read && !ro.write && !ro.execute);
        assert_eq!(Protection::default(), rw);
    }
}
