//! The operating system's view: a forward-mapped page table plus the miss
//! handler timing model.
//!
//! The paper charges a fixed 30-cycle TLB miss latency (Table 1) "after
//! earlier-issued instructions complete"; the walk itself is modelled
//! functionally here and the latency is surfaced through
//! [`PageTable::miss_latency`].

use std::collections::BTreeMap;

use crate::addr::{PageGeometry, Ppn, Vpn};
use crate::entry::{Protection, TlbEntry};

/// Default fixed TLB miss service latency from Table 1.
pub const DEFAULT_MISS_LATENCY: u64 = 30;

/// A demand-allocating forward-mapped page table.
///
/// Physical frames are handed out in first-touch order, which scatters
/// consecutive virtual pages across physical memory the way a long-running
/// OS free list would (good enough for physically *tagged* caches, which is
/// all the paper considers).
///
/// # Examples
///
/// ```
/// use hbat_core::addr::{PageGeometry, Vpn};
/// use hbat_core::pagetable::PageTable;
///
/// let mut pt = PageTable::new(PageGeometry::KB4);
/// let a = pt.walk(Vpn(10)).ppn;
/// let b = pt.walk(Vpn(11)).ppn;
/// assert_ne!(a, b);
/// assert_eq!(pt.walk(Vpn(10)).ppn, a); // stable mapping
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTable {
    geometry: PageGeometry,
    map: BTreeMap<Vpn, TlbEntry>,
    next_frame: u64,
    miss_latency: u64,
    walks: u64,
    /// Bumped whenever any mapping is destroyed; upper-level caching
    /// structures (pretranslation cache) compare generations to decide
    /// whether a flush is required.
    generation: u64,
}

impl PageTable {
    /// Creates an empty page table with the default 30-cycle miss latency.
    pub fn new(geometry: PageGeometry) -> Self {
        PageTable {
            geometry,
            map: BTreeMap::new(),
            next_frame: 0x100, // leave low frames to the (unmodelled) kernel
            miss_latency: DEFAULT_MISS_LATENCY,
            walks: 0,
            generation: 0,
        }
    }

    /// Overrides the fixed miss-service latency (ablation studies).
    #[must_use]
    pub fn with_miss_latency(mut self, cycles: u64) -> Self {
        self.miss_latency = cycles;
        self
    }

    /// Page geometry in force.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Fixed miss-service latency in cycles.
    pub fn miss_latency(&self) -> u64 {
        self.miss_latency
    }

    /// Number of page-table walks performed so far.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Number of distinct pages touched.
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Current invalidation generation (see struct docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Walks the table for `vpn`, allocating a fresh zero-filled frame on
    /// first touch, and returns a copy of the page-table entry suitable for
    /// loading into a TLB.
    pub fn walk(&mut self, vpn: Vpn) -> TlbEntry {
        self.walks += 1;
        let next_frame = &mut self.next_frame;
        *self.map.entry(vpn).or_insert_with(|| {
            let ppn = Ppn(*next_frame);
            *next_frame += 1;
            TlbEntry::new(vpn, ppn, Protection::READ_WRITE)
        })
    }

    /// Looks up `vpn` without allocating; `None` means not yet mapped.
    pub fn probe(&self, vpn: Vpn) -> Option<&TlbEntry> {
        self.map.get(&vpn)
    }

    /// Writes status bits back to the authoritative entry (the designs'
    /// write-through status policy lands here).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` has never been walked: status updates can only
    /// follow a translation.
    pub fn update_status(&mut self, vpn: Vpn, referenced: bool, dirty: bool) {
        let e = self
            .map
            .get_mut(&vpn)
            .expect("status update for a page that was never mapped");
        e.referenced |= referenced;
        e.dirty |= dirty;
    }

    /// Destroys the mapping for `vpn` (e.g. an munmap or page-out),
    /// bumping the invalidation generation. Returns the removed entry.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        let removed = self.map.remove(&vpn);
        if removed.is_some() {
            self.generation += 1;
        }
        removed
    }

    /// Changes the protection of an existing mapping, bumping the
    /// generation (cached translations must be revalidated).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped.
    pub fn protect(&mut self, vpn: Vpn, prot: Protection) {
        let e = self
            .map
            .get_mut(&vpn)
            .expect("protect() on an unmapped page");
        e.prot = prot;
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique_and_stable() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        let mut seen = std::collections::HashSet::new();
        for v in 0..100 {
            let e = pt.walk(Vpn(v));
            assert!(seen.insert(e.ppn), "frame {:?} reused", e.ppn);
        }
        for v in 0..100 {
            assert!(seen.contains(&pt.walk(Vpn(v)).ppn));
        }
        assert_eq!(pt.resident_pages(), 100);
    }

    #[test]
    fn walk_counts_accumulate() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        pt.walk(Vpn(1));
        pt.walk(Vpn(1));
        assert_eq!(pt.walks(), 2);
    }

    #[test]
    fn status_updates_are_sticky_or() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        pt.walk(Vpn(3));
        pt.update_status(Vpn(3), true, false);
        pt.update_status(Vpn(3), false, true);
        pt.update_status(Vpn(3), false, false);
        let e = pt.probe(Vpn(3)).unwrap();
        assert!(e.referenced && e.dirty);
    }

    #[test]
    #[should_panic(expected = "never mapped")]
    fn status_update_requires_mapping() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        pt.update_status(Vpn(9), true, false);
    }

    #[test]
    fn unmap_bumps_generation_once_per_real_unmap() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        pt.walk(Vpn(1));
        assert_eq!(pt.generation(), 0);
        assert!(pt.unmap(Vpn(1)).is_some());
        assert_eq!(pt.generation(), 1);
        assert!(pt.unmap(Vpn(1)).is_none());
        assert_eq!(pt.generation(), 1);
    }

    #[test]
    fn remapped_page_gets_fresh_frame() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        let first = pt.walk(Vpn(7)).ppn;
        pt.unmap(Vpn(7));
        let second = pt.walk(Vpn(7)).ppn;
        assert_ne!(first, second);
    }

    #[test]
    fn protect_changes_permissions_and_generation() {
        let mut pt = PageTable::new(PageGeometry::KB4);
        pt.walk(Vpn(2));
        pt.protect(Vpn(2), Protection::READ_ONLY);
        assert_eq!(pt.probe(Vpn(2)).unwrap().prot, Protection::READ_ONLY);
        assert_eq!(pt.generation(), 1);
    }

    #[test]
    fn custom_miss_latency() {
        let pt = PageTable::new(PageGeometry::KB4).with_miss_latency(50);
        assert_eq!(pt.miss_latency(), 50);
        assert_eq!(PageTable::new(PageGeometry::KB4).miss_latency(), 30);
    }
}
