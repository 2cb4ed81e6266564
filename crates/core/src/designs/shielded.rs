//! The shielded TLB: a small four-ported *shield* in front of one
//! single-ported base TLB, the mechanism Section 2 calls shielding. The
//! shield serves `f_shielded` of the requests; the rest queue for the
//! base TLB's one port. Two shields are modelled:
//!
//! * an LRU L1 TLB holding a subset of the base TLB: the multi-level TLB
//!   of Section 3.3 (M16, M8, M4);
//! * the register-tagged pretranslation cache of Section 3.5 (P8).
//!
//! Both follow Section 4.1:
//!
//! * the shield services up to four requests per cycle;
//! * a shield hit costs nothing extra, and a page-status change it makes
//!   is written through to the base TLB, consuming base-port bandwidth
//!   but not delaying the requester;
//! * a shield miss goes to the base TLB the following cycle, where it may
//!   queue on the single port (minimum latency 2 cycles);
//! * base-TLB misses walk the page table and fill the base TLB, then the
//!   shield; when the fill replaces a base entry, the shield stays
//!   coherent with it. The L1 invalidates the victim (multi-level
//!   inclusion), and the pretranslation cache flushes.
//!
//! Pretranslation attaches translations to register *values*. The first
//! time a register is used as the base of a load or store, the resulting
//! translation is attached to it. Later dereferences through the same
//! register, and through registers produced from it by pointer arithmetic,
//! reuse the attachment as long as the access stays within the same
//! virtual page. The cache is tagged by the 5-bit register identifier
//! concatenated with the upper 4 bits of a load's displacement (zero for
//! other instructions), so one pointer can carry a few translations. It is
//! flushed when any virtual-memory state changes.

use crate::addr::{Ppn, Vpn};
use crate::bank::TlbBank;
use crate::cycle::{Cycle, PortTimeline};
use crate::entry::TlbEntry;
use crate::pagetable::PageTable;
use crate::replacement::ReplacementPolicy;
use crate::request::{AccessKind, Outcome, TranslateRequest, WritebackKind};
use crate::stats::TranslatorStats;
use crate::translator::AddressTranslator;

use super::{access_base_bank, write_back_status};

/// Requests the shield services per cycle: four in every design.
const SHIELD_PORTS: usize = 4;

/// A shield in front of a single-ported base TLB (designs M16, M8, M4
/// and P8).
#[derive(Debug)]
pub struct ShieldedTlb {
    name: String,
    shield: Shield,
    shield_ports_used: usize,
    base: TlbBank,
    base_port: PortTimeline,
    pt: PageTable,
    now: Cycle,
    stats: TranslatorStats,
}

/// What sits in front of the base TLB.
#[derive(Debug)]
enum Shield {
    /// An LRU L1 TLB whose every entry is also in the base TLB.
    L1(TlbBank),
    /// The register-tagged pretranslation cache.
    Registers(PretransCache),
}

impl ShieldedTlb {
    /// The multi-level TLB: an `l1_entries`-entry LRU L1 over a
    /// `base_entries`-entry random-replacement base TLB.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn multilevel(
        name: &str,
        l1_entries: usize,
        base_entries: usize,
        pt: PageTable,
        seed: u64,
    ) -> Self {
        // The L1 takes `seed ^ 0x11` and the base TLB `seed ^ 0x22`: the
        // `shielded_translators` golden digest pins these streams.
        let l1 = TlbBank::new(l1_entries, ReplacementPolicy::Lru, seed ^ 0x11);
        Self::new(name, Shield::L1(l1), base_entries, pt, seed ^ 0x22)
    }

    /// Pretranslation: an `entries`-entry pretranslation cache, tagged by
    /// register id and the top `offset_tag_bits` bits of a load's
    /// displacement (the paper uses 4), over a `base_entries`-entry
    /// random-replacement base TLB.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero or `offset_tag_bits > 8`.
    pub fn pretranslation(
        name: &str,
        entries: usize,
        offset_tag_bits: u32,
        base_entries: usize,
        pt: PageTable,
        seed: u64,
    ) -> Self {
        let cache = PretransCache::new(entries, offset_tag_bits, pt.generation());
        // The base TLB takes `seed` itself: the `shielded_translators`
        // golden digest pins this stream.
        Self::new(name, Shield::Registers(cache), base_entries, pt, seed)
    }

    fn new(name: &str, shield: Shield, base_entries: usize, pt: PageTable, seed: u64) -> Self {
        ShieldedTlb {
            name: name.to_owned(),
            shield,
            shield_ports_used: 0,
            base: TlbBank::new(base_entries, ReplacementPolicy::Random, seed),
            base_port: PortTimeline::new(1),
            pt,
            now: Cycle::ZERO,
            stats: TranslatorStats::new(),
        }
    }

    /// Checks that every translation the shield holds is also in the base
    /// TLB: multi-level inclusion for the L1, and flush-on-replace for the
    /// pretranslation cache. Exposed for tests.
    pub fn inclusion_holds(&self) -> bool {
        match &self.shield {
            Shield::L1(l1) => l1.iter().all(|e| self.base.peek(e.vpn).is_some()),
            Shield::Registers(c) => c.entries().all(|e| self.base.peek(e.vpn).is_some()),
        }
    }
}

impl Shield {
    /// Probes the shield for `req`, whose page is `vpn`. A hit returns the
    /// frame and whether the access changes the page's status bits, which
    /// each shield judges by its own rule (the `shielded_translators`
    /// golden digest pins both).
    fn probe(
        &mut self,
        req: &TranslateRequest,
        vpn: Vpn,
        is_store: bool,
        base: &TlbBank,
    ) -> Option<(Ppn, bool)> {
        let changes_status = |e: &TlbEntry| !e.referenced || (is_store && !e.dirty);
        match self {
            // The L1 keeps its own status bits and judges by them.
            Shield::L1(l1) => l1.lookup(vpn).map(|e| {
                let changed = changes_status(e);
                e.referenced = true;
                e.dirty |= is_store;
                (e.ppn, changed)
            }),
            // The cache keeps no status bits: the base entry, still
            // resident by flush-on-replace, judges.
            Shield::Registers(c) => match c.probe(c.key_for(req)?) {
                Some((att_vpn, ppn)) if att_vpn == vpn => {
                    Some((ppn, base.peek(vpn).is_some_and(changes_status)))
                }
                _ => None,
            },
        }
    }

    /// Keeps the shield coherent after the base TLB dropped `vpn`.
    fn base_dropped(&mut self, vpn: Vpn, stats: &mut TranslatorStats) {
        match self {
            Shield::L1(l1) => {
                if l1.invalidate(vpn).is_some() {
                    stats.inclusion_invalidations += 1;
                }
            }
            // Attachments are tagged by register, not page: flush.
            Shield::Registers(c) => {
                c.flush();
                stats.shield_flushes += 1;
            }
        }
    }

    /// Installs the translation of `req`'s page `vpn` after a base-TLB
    /// access: the L1 copies the base entry, and the cache attaches the
    /// frame to the base register.
    fn fill(&mut self, req: &TranslateRequest, vpn: Vpn, base: &TlbBank) {
        match self {
            Shield::L1(l1) => {
                // An L1 victim needs no write-back: its status is already
                // in the base TLB by write-through.
                if let Some(&e) = base.peek(vpn) {
                    l1.insert(e);
                }
            }
            Shield::Registers(c) => {
                if let (Some(key), Some(e)) = (c.key_for(req), base.peek(vpn)) {
                    c.insert(key, vpn, e.ppn);
                }
            }
        }
    }

    fn flush(&mut self) {
        match self {
            Shield::L1(l1) => l1.flush(),
            Shield::Registers(c) => c.flush(),
        }
    }
}

impl AddressTranslator for ShieldedTlb {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin_cycle(&mut self, now: Cycle) {
        debug_assert!(now >= self.now, "time must not run backwards");
        self.now = now;
        self.shield_ports_used = 0;
        // Attachments are flushed on any virtual-memory change; the L1 is
        // kept coherent by shootdowns alone.
        if let Shield::Registers(c) = &mut self.shield {
            if c.generation != self.pt.generation() {
                c.generation = self.pt.generation();
                c.flush();
                self.stats.shield_flushes += 1;
            }
        }
    }

    fn translate(&mut self, req: &TranslateRequest) -> Outcome {
        if self.shield_ports_used == SHIELD_PORTS {
            self.stats.retries += 1;
            return Outcome::Retry;
        }
        self.shield_ports_used += 1;
        self.stats.accesses += 1;
        let vpn = self.pt.geometry().vpn(req.vaddr);
        let is_store = req.kind.is_store();

        if let Some((ppn, changes_status)) = self.shield.probe(req, vpn, is_store, &self.base) {
            // Write the status change through to the base TLB on a
            // base-port slot next cycle; the requester does not wait.
            if changes_status {
                if let Some(e) = self.base.lookup(vpn) {
                    e.referenced = true;
                    e.dirty |= is_store;
                }
                self.base_port.allocate(self.now + 1, 1);
                self.stats.status_writes += 1;
            }
            self.stats.shielded += 1;
            return Outcome::Hit {
                ppn,
                extra_latency: 0,
            };
        }

        // Shield miss: detected the cycle after address generation, then
        // queues for the single base-TLB port, whose access takes a cycle.
        let service_start = self.base_port.allocate(self.now + 1, 1);
        self.stats.internal_queueing_cycles += service_start - (self.now + 1);
        let (outcome, evicted) = access_base_bank(
            &mut self.base,
            &mut self.pt,
            vpn,
            is_store,
            service_start,
            (service_start + 1) - self.now,
            &mut self.stats,
        );
        if let Some(victim) = evicted {
            self.shield.base_dropped(victim.vpn, &mut self.stats);
        }
        self.shield.fill(req, vpn, &self.base);
        outcome
    }

    fn uses_writebacks(&self) -> bool {
        matches!(self.shield, Shield::Registers(_))
    }

    fn note_writeback(&mut self, dest: u8, srcs: &[u8], kind: WritebackKind) {
        let Shield::Registers(c) = &mut self.shield else {
            return;
        };
        match kind {
            WritebackKind::PointerArith => {
                // Propagate from the first source that carries an
                // attachment; if none does, the destination's old
                // attachments are stale and must go.
                match srcs.iter().find(|&&s| c.has_attachment(s)) {
                    Some(&s) => c.propagate(s, dest),
                    None => c.invalidate_reg(dest),
                }
            }
            WritebackKind::Opaque => c.invalidate_reg(dest),
        }
    }

    fn flush(&mut self) {
        for e in self.base.iter() {
            write_back_status(&mut self.pt, e);
        }
        self.base.flush();
        self.shield.flush();
    }

    fn invalidate_page(&mut self, vpn: Vpn) {
        let resident = self.base.invalidate(vpn);
        if let Some(e) = resident {
            write_back_status(&mut self.pt, &e);
        }
        // Inclusion makes the L1's shootdown cheap: only a page resident
        // in the base TLB can be in the L1. The pretranslation cache
        // always flushes. The `shielded_translators` golden digest pins
        // both rules.
        if resident.is_some() || matches!(self.shield, Shield::Registers(_)) {
            self.shield.base_dropped(vpn, &mut self.stats);
        }
    }

    fn queue_depth(&self, now: Cycle) -> usize {
        // Requests that missed the shield queue on the base-TLB port.
        self.base_port.busy_at(now)
    }

    fn warm_insert(&mut self, entry: TlbEntry) {
        // Mirror a fill without touching statistics or port timelines.
        // The L1 is warmed with the base TLB, under inclusion; attachments
        // start cold on every run, so nothing is attached to flush. The
        // `shielded_translators` golden digest pins both rules.
        let vpn = entry.vpn;
        let mut l1 = match &mut self.shield {
            Shield::L1(l1) => Some(l1),
            Shield::Registers(_) => None,
        };
        let in_l1 = l1.as_mut().is_none_or(|l1| l1.lookup(vpn).is_some());
        if in_l1 && self.base.lookup(vpn).is_some() {
            return;
        }
        if self.base.peek(vpn).is_none() {
            if let Some(victim) = self.base.insert(entry) {
                if let Some(l1) = l1.as_mut() {
                    l1.invalidate(victim.vpn);
                }
                write_back_status(&mut self.pt, &victim);
            }
        }
        if let Some(l1) = l1 {
            if l1.peek(vpn).is_none() {
                l1.insert(entry);
            }
        }
    }

    fn warm_tlb_capacity(&self) -> usize {
        // The shield holds a subset of the base TLB.
        self.base.capacity()
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

/// Tag of a pretranslation-cache entry: register id ⧺ offset bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PtcKey {
    reg: u8,
    sub: u8,
}

#[derive(Debug, Clone, Copy)]
struct PtcEntry {
    key: PtcKey,
    vpn: Vpn,
    ppn: Ppn,
    stamp: u64,
}

/// The small LRU cache holding register-attached translations.
#[derive(Debug)]
struct PretransCache {
    slots: Vec<Option<PtcEntry>>,
    counter: u64,
    /// How many high offset bits join the register id in the tag (0 = one
    /// attachment per register).
    offset_tag_bits: u32,
    /// The page table's generation when the cache was last flushed for a
    /// virtual-memory change.
    generation: u64,
    /// Reused by [`PretransCache::propagate`], which runs on every
    /// pointer-arithmetic writeback: carrying entries are staged here so
    /// the hot path never allocates.
    scratch: Vec<PtcEntry>,
}

impl PretransCache {
    fn new(entries: usize, offset_tag_bits: u32, generation: u64) -> Self {
        assert!(entries > 0, "pretranslation cache needs at least one entry");
        assert!(offset_tag_bits <= 8, "tag uses at most 8 offset bits");
        PretransCache {
            slots: vec![None; entries],
            counter: 0,
            offset_tag_bits,
            generation,
            scratch: Vec::with_capacity(entries),
        }
    }

    fn key_for(&self, req: &TranslateRequest) -> Option<PtcKey> {
        let bits = self.offset_tag_bits;
        req.base_reg.map(|reg| PtcKey {
            reg,
            // Upper `bits` bits of a 16-bit load displacement; zero for
            // stores and when disabled.
            sub: match req.kind {
                AccessKind::Load if bits > 0 => {
                    (((req.offset as u16) >> (16 - bits)) & ((1 << bits) - 1)) as u8
                }
                _ => 0,
            },
        })
    }

    fn entries(&self) -> impl Iterator<Item = &PtcEntry> {
        self.slots.iter().flatten()
    }

    fn probe(&mut self, key: PtcKey) -> Option<(Vpn, Ppn)> {
        self.counter += 1;
        let counter = self.counter;
        self.slots
            .iter_mut()
            .flatten()
            .find(|e| e.key == key)
            .map(|e| {
                e.stamp = counter;
                (e.vpn, e.ppn)
            })
    }

    fn insert(&mut self, key: PtcKey, vpn: Vpn, ppn: Ppn) {
        self.counter += 1;
        let entry = PtcEntry {
            key,
            vpn,
            ppn,
            stamp: self.counter,
        };
        // Overwrite a same-key entry in place, else fill an empty slot,
        // else evict the LRU entry.
        let slot = self
            .slots
            .iter()
            .position(|s| s.is_some_and(|e| e.key == key))
            .or_else(|| self.slots.iter().position(Option::is_none))
            .or_else(|| {
                self.slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.map_or(0, |e| e.stamp))
                    .map(|(i, _)| i)
            })
            .unwrap_or(0);
        // hbat-lint: allow(panic-reach) slot index comes from a position over slots
        self.slots[slot] = Some(entry);
    }

    /// Drops every attachment belonging to register `reg`.
    fn invalidate_reg(&mut self, reg: u8) {
        for s in &mut self.slots {
            if s.map(|e| e.key.reg == reg).unwrap_or(false) {
                *s = None;
            }
        }
    }

    /// Copies all of `src`'s attachments to `dest` (pointer-arithmetic
    /// propagation). `dest`'s previous attachments are dropped first.
    fn propagate(&mut self, src: u8, dest: u8) {
        self.scratch.clear();
        for e in self.slots.iter().flatten() {
            if e.key.reg == src {
                self.scratch.push(*e);
            }
        }
        if src != dest {
            self.invalidate_reg(dest);
        }
        for i in 0..self.scratch.len() {
            // hbat-lint: allow(panic-reach) loop bound is the scratch length
            let e = self.scratch[i];
            self.insert(
                PtcKey {
                    reg: dest,
                    sub: e.key.sub,
                },
                e.vpn,
                e.ppn,
            );
        }
    }

    fn has_attachment(&self, reg: u8) -> bool {
        self.entries().any(|e| e.key.reg == reg)
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PageGeometry, VirtAddr};
    use crate::translator::drive_batch;

    impl ShieldedTlb {
        /// Number of live pretranslation attachments.
        fn attachments(&self) -> usize {
            match &self.shield {
                Shield::Registers(c) => c.entries().count(),
                Shield::L1(_) => 0,
            }
        }

        /// True if register `reg` currently carries a pretranslation.
        fn register_has_attachment(&self, reg: u8) -> bool {
            matches!(&self.shield, Shield::Registers(c) if c.has_attachment(reg))
        }
    }

    /// A multi-level TLB with an `l1_entries`-entry L1.
    fn make_l1(l1_entries: usize) -> ShieldedTlb {
        ShieldedTlb::multilevel(
            "test",
            l1_entries,
            128,
            PageTable::new(PageGeometry::KB4),
            5,
        )
    }

    /// P8: an 8-entry pretranslation cache with 4 offset-tag bits.
    fn make() -> ShieldedTlb {
        ShieldedTlb::pretranslation("P8", 8, 4, 128, PageTable::new(PageGeometry::KB4), 9)
    }

    fn load(base: u8, addr: u64, off: i32, serial: u64) -> TranslateRequest {
        TranslateRequest::load(VirtAddr(addr), serial).with_base(base, off)
    }

    #[test]
    fn l1_hit_is_free_l1_miss_costs_at_least_two() {
        let mut t = make_l1(8);
        let r = TranslateRequest::load(VirtAddr(0x5000), 0);
        // Compulsory miss first.
        t.begin_cycle(Cycle(0));
        assert!(matches!(t.translate(&r), Outcome::Miss { .. }));
        // Now in both levels: L1 hit.
        t.begin_cycle(Cycle(40));
        match t.translate(&r) {
            Outcome::Hit { extra_latency, .. } => assert_eq!(extra_latency, 0),
            o => panic!("expected L1 hit, got {o:?}"),
        }
        // Push the page out of the tiny L1 but keep it in the L2.
        for i in 0..8u64 {
            t.begin_cycle(Cycle(100 + i * 50));
            t.translate(&TranslateRequest::load(VirtAddr(0x10_0000 + (i << 12)), i));
        }
        t.begin_cycle(Cycle(1000));
        match t.translate(&r) {
            Outcome::Hit { extra_latency, .. } => {
                assert!(extra_latency >= 2, "L1 miss minimum latency is 2 cycles")
            }
            o => panic!("expected L2 hit, got {o:?}"),
        }
    }

    #[test]
    fn l2_port_queueing_accumulates() {
        let mut t = make_l1(4);
        // Warm the L2 with 4 pages, then evict them from L1 with 4 others.
        for p in 0..8u64 {
            t.begin_cycle(Cycle(p * 40));
            t.translate(&TranslateRequest::load(VirtAddr(p << 12), p));
        }
        // Now request the first 4 pages simultaneously: all L1 misses, all
        // queue on the single L2 port.
        t.begin_cycle(Cycle(10_000));
        let mut latencies = Vec::new();
        for p in 0..4u64 {
            match t.translate(&TranslateRequest::load(VirtAddr(p << 12), 100 + p)) {
                Outcome::Hit { extra_latency, .. } => latencies.push(extra_latency),
                o => panic!("expected L2 hit, got {o:?}"),
            }
        }
        assert_eq!(latencies, vec![2, 3, 4, 5], "serialized on the L2 port");
        assert!(t.stats().internal_queueing_cycles >= 1 + 2 + 3);
    }

    #[test]
    fn inclusion_is_maintained_under_churn() {
        let mut t = make_l1(8);
        for i in 0..1000u64 {
            let page = (i * 37) % 300; // > L2 capacity: forces L2 evictions
            t.begin_cycle(Cycle(i * 40));
            t.translate(&TranslateRequest::load(VirtAddr(page << 12), i));
            assert!(t.inclusion_holds(), "inclusion violated at step {i}");
        }
        assert!(t.stats().inclusion_invalidations > 0);
        assert!(t.stats().is_consistent());
    }

    #[test]
    fn l1_ports_limit_simultaneous_requests() {
        let mut t = make_l1(16);
        // Warm 5 pages.
        for p in 0..5u64 {
            t.begin_cycle(Cycle(p * 40));
            t.translate(&TranslateRequest::load(VirtAddr(p << 12), p));
        }
        t.begin_cycle(Cycle(1000));
        for p in 0..4u64 {
            assert!(t
                .translate(&TranslateRequest::load(VirtAddr(p << 12), p))
                .is_translated());
        }
        assert_eq!(
            t.translate(&TranslateRequest::load(VirtAddr(4 << 12), 4)),
            Outcome::Retry,
            "only four L1 ports"
        );
    }

    #[test]
    fn status_writes_go_through_to_l2() {
        let mut t = make_l1(8);
        let va = VirtAddr(0x9000);
        let vpn = t.geometry().vpn(va);
        t.begin_cycle(Cycle(0));
        t.translate(&TranslateRequest::load(va, 0));
        // L1 hit with a store: first write to the page → status write.
        t.begin_cycle(Cycle(50));
        t.translate(&TranslateRequest::store(va, 1));
        assert!(t.base.peek(vpn).unwrap().dirty, "dirty bit written through");
        assert_eq!(t.stats().status_writes, 1);
        // A second store is silent: status already set.
        t.begin_cycle(Cycle(60));
        t.translate(&TranslateRequest::store(va, 2));
        assert_eq!(t.stats().status_writes, 1);
    }

    #[test]
    fn small_l1_shields_most_of_a_local_stream() {
        let mut t = make_l1(4);
        // Loop over two pages many times.
        let reqs: Vec<_> = (0..100u64)
            .map(|i| TranslateRequest::load(VirtAddr(((i % 2) << 12) | ((i * 8) & 0xfff)), i))
            .collect();
        drive_batch(&mut t, Cycle(0), &reqs);
        let s = t.stats();
        assert_eq!(s.misses, 2, "only compulsory misses");
        assert!(s.shield_rate() > 0.9, "L1 shields the loop");
    }

    #[test]
    fn flush_clears_both_levels() {
        let mut t = make_l1(4);
        t.begin_cycle(Cycle(0));
        t.translate(&TranslateRequest::load(VirtAddr(0x1000), 0));
        t.flush();
        t.begin_cycle(Cycle(100));
        assert!(matches!(
            t.translate(&TranslateRequest::load(VirtAddr(0x1000), 1)),
            Outcome::Miss { .. }
        ));
    }

    #[test]
    fn second_dereference_through_same_register_is_shielded() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        assert!(matches!(
            t.translate(&load(5, 0x4000, 0, 0)),
            Outcome::Miss { .. }
        ));
        t.begin_cycle(Cycle(40));
        match t.translate(&load(5, 0x4010, 16, 1)) {
            Outcome::Hit { extra_latency, .. } => assert_eq!(extra_latency, 0),
            o => panic!("expected shielded hit, got {o:?}"),
        }
        assert_eq!(t.stats().shielded, 1);
    }

    #[test]
    fn crossing_a_page_boundary_defeats_the_attachment() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(5, 0x4000, 0, 0));
        t.begin_cycle(Cycle(40));
        // Same register, next page: attachment VPN mismatch → base TLB.
        match t.translate(&load(5, 0x5000, 0, 1)) {
            Outcome::Miss { .. } => {}
            Outcome::Hit { extra_latency, .. } => {
                assert!(extra_latency >= 2, "base TLB path costs ≥2 cycles")
            }
            Outcome::Retry => panic!("unexpected retry"),
        }
        assert_eq!(t.stats().shielded, 0);
    }

    #[test]
    fn base_tlb_path_costs_at_least_two_cycles_and_serializes() {
        let mut t = make();
        // Warm the base TLB with two pages via different registers.
        t.begin_cycle(Cycle(0));
        t.translate(&load(1, 0x1000, 0, 0));
        t.begin_cycle(Cycle(40));
        t.translate(&load(2, 0x2000, 0, 1));
        // Clear attachments (opaque writes), keep base TLB warm.
        t.note_writeback(1, &[], WritebackKind::Opaque);
        t.note_writeback(2, &[], WritebackKind::Opaque);
        t.begin_cycle(Cycle(100));
        let a = t.translate(&load(1, 0x1000, 0, 2));
        let b = t.translate(&load(2, 0x2000, 0, 3));
        match (a, b) {
            (
                Outcome::Hit {
                    extra_latency: la, ..
                },
                Outcome::Hit {
                    extra_latency: lb, ..
                },
            ) => {
                assert_eq!(la, 2);
                assert_eq!(lb, 3, "single base port serializes the second miss");
            }
            other => panic!("expected two base hits, got {other:?}"),
        }
    }

    #[test]
    fn pointer_arithmetic_propagates_attachments() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(3, 0x6000, 0, 0));
        assert!(t.register_has_attachment(3));
        // r4 = r3 + small constant
        t.note_writeback(4, &[3], WritebackKind::PointerArith);
        assert!(t.register_has_attachment(4));
        t.begin_cycle(Cycle(40));
        match t.translate(&load(4, 0x6020, 0, 1)) {
            Outcome::Hit { extra_latency, .. } => assert_eq!(extra_latency, 0),
            o => panic!("expected shielded hit via propagated attachment, got {o:?}"),
        }
        assert_eq!(t.stats().shielded, 1);
    }

    #[test]
    fn opaque_writeback_kills_attachment() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(3, 0x6000, 0, 0));
        t.note_writeback(3, &[7], WritebackKind::Opaque); // e.g. a reload
        assert!(!t.register_has_attachment(3));
        t.begin_cycle(Cycle(40));
        // No longer shielded.
        t.translate(&load(3, 0x6010, 0, 1));
        assert_eq!(t.stats().shielded, 0);
    }

    #[test]
    fn arith_from_sources_without_attachments_clears_dest() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(3, 0x6000, 0, 0));
        t.note_writeback(3, &[1, 2], WritebackKind::PointerArith);
        assert!(
            !t.register_has_attachment(3),
            "r3 now holds arithmetic of unattached values"
        );
    }

    #[test]
    fn in_place_pointer_increment_keeps_attachment() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(3, 0x6000, 0, 0));
        // p = p + 4
        t.note_writeback(3, &[3], WritebackKind::PointerArith);
        assert!(t.register_has_attachment(3));
    }

    #[test]
    fn offset_nibble_gives_one_register_multiple_attachments() {
        let mut t = make();
        // Two loads through r5 with displacements in different 4 KB
        // sub-ranges of a 16-bit offset: distinct cache entries.
        t.begin_cycle(Cycle(0));
        t.translate(&load(5, 0x4000, 0x0000, 0));
        t.begin_cycle(Cycle(40));
        t.translate(&load(5, 0x5000, 0x1000, 1));
        assert_eq!(t.attachments(), 2);
        // Both shielded now.
        t.begin_cycle(Cycle(80));
        t.translate(&load(5, 0x4008, 0x0008, 2));
        t.begin_cycle(Cycle(81));
        t.translate(&load(5, 0x5008, 0x1008, 3));
        assert_eq!(t.stats().shielded, 2);
    }

    #[test]
    fn base_replacement_flushes_the_cache() {
        let mut t = ShieldedTlb::pretranslation(
            "P8-small",
            8,
            4,
            2, // tiny base TLB to force replacements
            PageTable::new(PageGeometry::KB4),
            9,
        );
        t.begin_cycle(Cycle(0));
        t.translate(&load(1, 0x1000, 0, 0));
        t.begin_cycle(Cycle(40));
        t.translate(&load(2, 0x2000, 0, 1));
        assert_eq!(t.attachments(), 2);
        t.begin_cycle(Cycle(80));
        t.translate(&load(3, 0x3000, 0, 2)); // evicts from base → flush
        assert!(t.stats().shield_flushes >= 1);
        // Only the newly attached translation survives.
        assert_eq!(t.attachments(), 1);
        assert!(t.register_has_attachment(3));
        assert!(!t.register_has_attachment(1));
    }

    #[test]
    fn vm_state_change_flushes_attachments() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(1, 0x1000, 0, 0));
        assert_eq!(t.attachments(), 1);
        let vpn = t.geometry().vpn(VirtAddr(0x1000));
        t.page_table_mut().unmap(vpn);
        t.begin_cycle(Cycle(40));
        assert_eq!(t.attachments(), 0, "generation bump flushed the cache");
    }

    #[test]
    fn requests_without_base_register_bypass_the_cache() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        let r = TranslateRequest::load(VirtAddr(0x9000), 0);
        assert!(t.translate(&r).is_translated());
        assert_eq!(t.attachments(), 0);
        assert_eq!(t.stats().shielded, 0);
    }

    #[test]
    fn status_writes_through_on_shielded_store() {
        let mut t = make();
        t.begin_cycle(Cycle(0));
        t.translate(&load(1, 0x1000, 0, 0));
        t.begin_cycle(Cycle(40));
        let st = TranslateRequest::store(VirtAddr(0x1008), 1).with_base(1, 8);
        t.translate(&st);
        assert_eq!(t.stats().shielded, 1);
        assert_eq!(t.stats().status_writes, 1);
        let vpn = t.geometry().vpn(VirtAddr(0x1000));
        assert!(t.base.peek(vpn).unwrap().dirty);
    }

    #[test]
    fn ptc_lru_eviction_bounds_capacity() {
        let mut t = make();
        for r in 0..12u8 {
            t.begin_cycle(Cycle(r as u64 * 50));
            t.translate(&load(r, 0x1_0000 + (r as u64) * 0x1000, 0, r as u64));
        }
        assert!(t.attachments() <= 8);
        assert!(t.stats().is_consistent());
    }
}
