//! Warm microarchitectural state carried across a checkpoint boundary,
//! and the functional-warming gap mode used by sampled runs.
//!
//! A long fast-forward run accumulates, per committed instruction, the
//! locality state a detailed run starting at the boundary would otherwise
//! have to rediscover: which pages were touched (and in what first-touch
//! order, which pins down the page table's deterministic frame
//! allocation), the most-recently-used TLB entries and cache blocks, the
//! random-replacement TLB model's residents, and the trained
//! branch-predictor tables. One body, [`WarmAccumulator::note`], takes
//! the three fields warming reads: the instruction's static index, its
//! flags and its effective address. The accumulator is a
//! [`RetireSink`], so the checkpoint fast-forward and the sampled
//! schedule build run the executor straight into it and build no
//! [`MicroOp`]; a stored tape feeds it the same way through its reader,
//! and a `&[MicroOp]` through [`note_uop`](WarmAccumulator::note_uop),
//! a one-line wrapper.
//!
//! The [`WarmAccumulator`] is the one carrier of that state. It has two
//! outputs:
//!
//! * [`WarmExport`] is the *exact* accumulator state: every key with its
//!   last-touch stamp, the stamp counter, and the `SteadyTlb` model's
//!   slots and RNG counter. This is what a checkpoint serialises, and
//!   [`WarmAccumulator::import`] rebuilds from it an accumulator that
//!   continues bit-identically to one that accumulated the whole prefix
//!   cold.
//! * [`WarmState`] is the *install* form handed to the timing engine,
//!   from [`WarmAccumulator::warm_state`]. Everything that does not
//!   depend on the translation design is built ready to clone: the page
//!   table with every touched page mapped, the data and instruction
//!   caches with the warm blocks already replayed, and the trained
//!   branch predictor. Only the TLB lists stay key lists, because every
//!   design replays its own TLB. Nothing is rebuilt from it. The state
//!   of an accumulator that has seen nothing is the engine's cold
//!   start, so one constructor serves full runs, checkpointed tails and
//!   sampled windows.
//!
//! The accumulator is also the *gap mode* of SMARTS-style sampling
//! (DESIGN.md §15): between detailed windows the simulator only has to
//! keep TLB/cache/bpred state warm, with no ROB/LSQ timing. In a sweep
//! that gap is the executor feeding this sink, and over a stored trace
//! it is [`warm_gap`](WarmAccumulator::warm_gap); either way the
//! per-instruction cost is a few multiplicative-hash stamp updates —
//! the maps here are a hand-rolled open-addressing table (`StampMap`)
//! rather than the standard `HashMap`, which cuts the gap loop's cost
//! several-fold and removes the only iteration-order hazard this module
//! had.

use std::collections::HashMap;

use hbat_core::addr::{PageGeometry, PhysAddr, Ppn, VirtAddr, Vpn};
use hbat_core::designs::BASE_TLB_ENTRIES;
use hbat_core::hash::FastHashBuilder;
use hbat_core::pagetable::PageTable;
use hbat_isa::executor::{RetireSink, Retired};
use hbat_isa::uop::MicroOp;
use hbat_mem::cache::{Cache, CacheConfig};

use crate::bpred::BranchPredictor;
use crate::config::SimConfig;

/// Most-recent TLB entries kept for install time. Installers further
/// truncate to the design's own `warm_tlb_capacity`, so this only needs
/// to exceed the largest TLB any design builds.
pub const WARM_TLB_CAP: usize = 1024;
/// Most-recent data-cache blocks kept for install time; the install
/// replays only the per-set survivors, so this only needs to exceed the
/// cache's block capacity with slack for set imbalance.
pub const WARM_DBLOCK_CAP: usize = 4096;
/// Most-recent instruction-cache blocks kept for install time.
pub const WARM_IBLOCK_CAP: usize = 4096;

/// Warm state in install form: what [`crate::engine::Engine::new`]
/// installs before the detailed run starts. The state of an
/// accumulator that has seen nothing is the cold start.
///
/// The page table, caches and predictor do not depend on the
/// translation design, so they are built here once and cloned by each
/// install. The page table is a fresh `PageTable` walked over the
/// touched pages in first-touch order, which pins its deterministic
/// frame allocation; the data cache is physically tagged, and its
/// blocks were translated through that table. Each design starts from
/// an empty page table of the same geometry and miss latency, so
/// installing a clone changes only the mappings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmState {
    /// Every touched data page, mapped to the frame the data cache's
    /// blocks were translated through.
    pub page_table: PageTable,
    /// Data VPNs to warm the TLB with, oldest touch first.
    pub tlb: Vec<u64>,
    /// Residents of the `SteadyTlb` random-replacement model, oldest
    /// touch first. Installers replay this instead of `tlb` when `tlb`
    /// exceeds the design's eviction-free capacity: the model carries
    /// the random-replacement steady state (which pages survive is
    /// frequency-shaped, not recency-shaped) that a one-shot recency
    /// replay cannot reproduce.
    pub tlb_steady: Vec<u64>,
    /// The data cache holding the newest warm data blocks, replayed
    /// oldest-first.
    pub dcache: Cache,
    /// The instruction cache holding the newest warm fetch blocks.
    pub icache: Cache,
    /// A fresh predictor carrying the trained history and tables.
    pub bpred: BranchPredictor,
}

/// Exact accumulator state, as serialised in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarmExport {
    /// All distinct data VPNs in first-touch order.
    pub pages: Vec<u64>,
    /// `(vpn, last-touch stamp)` for every page referenced, stamp
    /// ascending.
    pub tlb: Vec<(u64, u64)>,
    /// Residents of the random-replacement TLB model in slot order: at
    /// most [`BASE_TLB_ENTRIES`] distinct VPNs.
    pub steady: Vec<u64>,
    /// The model's splitmix64 victim-selection counter.
    pub steady_rng: u64,
    /// `(virtual block address, last-touch stamp)`, stamp ascending.
    pub dblocks: Vec<(u64, u64)>,
    /// `(physical block address, last-touch stamp)`, stamp ascending.
    pub iblocks: Vec<(u64, u64)>,
    /// Next stamp the accumulator would hand out.
    pub stamp: u64,
    /// Global history register.
    pub ghr: u32,
    /// Pattern history table counters.
    pub pht: Vec<u8>,
}

/// Stamp marking a vacant [`StampMap`] slot. Real stamps are bounded by
/// the dynamic instruction count, which never approaches `u64::MAX`.
const EMPTY_STAMP: u64 = u64::MAX;

/// A flat open-addressing `u64 key → u64 stamp` map tuned for the warm
/// accumulator's access pattern: every committed instruction refreshes
/// the stamp of a block/page key, and consecutive instructions very
/// often touch the *same* key (8 instructions share an I-cache block,
/// sequential data walks share a page). A one-slot cache catches those
/// repeats without probing; Fibonacci hashing plus linear probing over
/// interleaved `(key, stamp)` slots keeps a probe to one cache line —
/// the block maps outgrow L2 on reference traces, so the gap loop's
/// misses are bounded by lines touched, not probes. Several times
/// cheaper than `HashMap`'s SipHash in the functional-warming gap loop,
/// and Vec-backed, so iteration order is deterministic by construction.
#[derive(Debug, Clone, Default)]
struct StampMap {
    /// Interleaved `(key, stamp)` slots; stamp [`EMPTY_STAMP`] marks a
    /// vacant slot. One 16-byte slot per probe — half a cache line.
    slots: Vec<(u64, u64)>,
    len: usize,
    /// Slot of the most recent hit or insert (one-slot repeat cache).
    last: usize,
}

impl StampMap {
    #[inline]
    fn slot(key: u64, mask: usize) -> usize {
        // Fibonacci hashing: the multiply spreads low-entropy block and
        // page keys; the high product bits index the power-of-two table.
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
    }

    /// Inserts or refreshes `key` at `stamp`; returns `true` iff the
    /// key was not present before.
    #[inline]
    fn insert(&mut self, key: u64, stamp: u64) -> bool {
        if let Some(s) = self.slots.get_mut(self.last) {
            if s.1 != EMPTY_STAMP && s.0 == key {
                s.1 = stamp;
                return false;
            }
        }
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::slot(key, mask);
        loop {
            let s = &mut self.slots[i];
            if s.1 == EMPTY_STAMP {
                *s = (key, stamp);
                self.len += 1;
                self.last = i;
                return true;
            }
            if s.0 == key {
                s.1 = stamp;
                self.last = i;
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (cold path: amortised over the fill).
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize(new_cap, (0, EMPTY_STAMP));
        self.last = usize::MAX;
        let mask = new_cap - 1;
        for (k, s) in old {
            if s == EMPTY_STAMP {
                continue;
            }
            let mut i = Self::slot(k, mask);
            while self.slots[i].1 != EMPTY_STAMP {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, s);
        }
    }

    /// Current stamp of `key`, if present.
    fn get(&self, key: u64) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::slot(key, mask);
        loop {
            let (k, s) = self.slots[i];
            if s == EMPTY_STAMP {
                return None;
            }
            if k == key {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Number of distinct keys.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// The newest `cap` keys, oldest-first: the install-form selection,
    /// on the per-window path of sampled runs. One slot scan collects
    /// the occupied pairs, an O(n) select partitions the newest `cap` to
    /// the tail (stamps are unique, so the partition is exact), and only
    /// those survivors are sorted.
    fn newest_keys(&self, cap: usize) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = Vec::with_capacity(self.len);
        for &(k, s) in &self.slots {
            if s != EMPTY_STAMP {
                v.push((k, s));
            }
        }
        if v.len() > cap {
            let cut = v.len() - cap;
            v.select_nth_unstable_by_key(cut - 1, |&(_, s)| s);
            v.drain(..cut);
        }
        v.sort_unstable_by_key(|&(_, s)| s);
        v.into_iter().map(|(k, _)| k).collect()
    }

    /// Occupied `(key, stamp)` pairs sorted by stamp. Stamps are unique
    /// within a map (one counter, bumped per committed instruction), so
    /// the sort is a total order and the flat table never leaks its
    /// probe order.
    fn pairs_by_stamp(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::with_capacity(self.len);
        for &(k, s) in &self.slots {
            if s != EMPTY_STAMP {
                v.push((k, s));
            }
        }
        v.sort_unstable_by_key(|&(_, s)| s);
        v
    }
}

/// A [`StampMap`] that can list its newest keys without scanning every
/// key it has ever held: the warm data blocks, which run to tens of
/// thousands per program while an install keeps the newest
/// [`WARM_DBLOCK_CAP`].
///
/// Alongside the map it logs keys in touch order, so each key's last
/// log entry is its newest touch and reading the log backwards meets
/// keys newest first. A touch of a key among the last
/// [`RecentMap::TAIL`] entries moves that entry to the end instead of
/// appending, which keeps a stack walk interleaved with array walks
/// from filling the log with repeats. When the log reaches
/// [`RecentMap::LOG_SLACK`] times `keep` it is cut back to the newest
/// `keep` keys, so listing the newest keys reads a few times `keep` log
/// entries however long the run has been.
#[derive(Debug, Clone)]
struct RecentMap {
    map: StampMap,
    /// Keys in touch order; holds at least the newest `keep` keys.
    log: Vec<u64>,
    /// How many newest keys the map must be able to list.
    keep: usize,
}

impl RecentMap {
    /// The log's length, in multiples of `keep`, at which it is cut.
    const LOG_SLACK: usize = 4;
    /// How many of the newest log entries a touch looks through before
    /// it appends.
    const TAIL: usize = 4;

    fn new(keep: usize) -> RecentMap {
        RecentMap {
            map: StampMap::default(),
            log: Vec::new(),
            keep,
        }
    }

    /// [`StampMap::insert`], logging the touch.
    #[inline]
    fn insert(&mut self, key: u64, stamp: u64) {
        self.map.insert(key, stamp);
        let n = self.log.len();
        if self.log.last() == Some(&key) {
            return;
        }
        let tail = &mut self.log[n.saturating_sub(Self::TAIL)..];
        if let Some(j) = tail.iter().rposition(|&k| k == key) {
            for i in j + 1..tail.len() {
                tail[i - 1] = tail[i];
            }
            if let Some(last) = tail.last_mut() {
                *last = key;
            }
            return;
        }
        if n >= Self::LOG_SLACK * self.keep {
            self.log = self.newest_keys(self.keep);
        }
        self.log.push(key);
    }

    /// [`StampMap::newest_keys`] for `cap <= keep`. A map that holds at
    /// most `cap` keys lists them all, sorted by stamp; a larger one
    /// reads its log backwards until `cap` distinct keys have appeared.
    fn newest_keys(&self, cap: usize) -> Vec<u64> {
        debug_assert!(cap <= self.keep, "the log keeps only {} keys", self.keep);
        if self.map.len <= cap {
            return self.map.newest_keys(cap);
        }
        // The keys met so far, in an open-addressing table of at least
        // twice `cap` slots; `u64::MAX` marks a vacant slot, and no
        // block address is `u64::MAX`.
        let mask = (2 * cap).next_power_of_two() - 1;
        let mut seen = vec![u64::MAX; mask + 1];
        let mut keys = Vec::with_capacity(cap);
        for &k in self.log.iter().rev() {
            debug_assert_ne!(k, u64::MAX, "the log holds block addresses");
            let mut i = StampMap::slot(k, mask);
            while seen[i] != k && seen[i] != u64::MAX {
                i = (i + 1) & mask;
            }
            if seen[i] == u64::MAX {
                seen[i] = k;
                keys.push(k);
                if keys.len() == cap {
                    break;
                }
            }
        }
        keys.reverse();
        keys
    }
}

/// Functional model of a random-replacement TLB at the base capacity
/// every paper design shares ([`BASE_TLB_ENTRIES`]): hits change
/// nothing, a miss fills a free slot or evicts a uniformly random
/// resident — exactly the state machine of the designs'
/// `ReplacementPolicy::Random` banks, minus ports and timing.
///
/// The recency stamps alone cannot warm such a bank: its steady-state
/// content is shaped by the full *miss* history (hot pages are
/// re-inserted promptly whenever evicted, so residency tracks access
/// frequency), while a one-shot replay of the recency list through the
/// bank's own `warm_insert` churns out survivors by list position.
/// Measured on the reference cell, that churn inflated sampled-window
/// walk rates 5-10x over a detailed run's and biased IPC 36% low; the
/// truncated-to-capacity replay over-corrected to an LRU proxy that
/// under-missed instead. Running this model through the functional gaps
/// reproduces the steady-state residency distribution (content is
/// statistically, not bit-, identical to the design's own — the RNG
/// streams differ), which is as faithful as design-agnostic functional
/// warming gets.
///
/// The eviction RNG is the same splitmix64 stream the sample planner
/// uses, seeded by a fixed constant, so accumulation stays a pure
/// function of the op stream.
#[derive(Debug, Clone)]
struct SteadyTlb {
    /// Resident VPNs, slot-indexed; the canonical (deterministic) state.
    slots: Vec<u64>,
    /// VPN → slot, for O(1) hit checks. Never iterated, so the std
    /// map's order cannot leak into results.
    index: HashMap<u64, u32, FastHashBuilder>,
    /// splitmix64 counter state for victim selection.
    rng: u64,
    /// One-slot repeat filter: consecutive touches of one page are
    /// hits and hits are no-ops, so only page changes probe the index.
    last: u64,
    cap: usize,
}

impl SteadyTlb {
    fn new(cap: usize) -> SteadyTlb {
        SteadyTlb {
            slots: Vec::with_capacity(cap),
            index: HashMap::with_capacity_and_hasher(cap * 2, FastHashBuilder),
            rng: 0x5EAD_71B0_5EAD_71B0,
            last: u64::MAX,
            cap,
        }
    }

    // hbat-lint: hot — called per memory micro-op in the gap loop; the
    // repeat filter keeps the common case to one compare.
    #[inline]
    fn touch(&mut self, vpn: u64) {
        if vpn == self.last {
            return;
        }
        self.last = vpn;
        if self.index.contains_key(&vpn) {
            return;
        }
        if self.slots.len() < self.cap {
            self.index.insert(vpn, self.slots.len() as u32);
            self.slots.push(vpn);
            return;
        }
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = (z as usize) % self.cap;
        self.index.remove(&self.slots[slot]);
        self.slots[slot] = vpn;
        self.index.insert(vpn, slot as u32);
    }
    // hbat-lint: cold

    /// Rebuilds the model from its exported slots and RNG counter. The
    /// repeat filter starts empty: the page it held is always resident,
    /// so that page's next touch is a no-op hit either way.
    fn restore(cap: usize, slots: &[u64], rng: u64) -> SteadyTlb {
        let mut m = SteadyTlb::new(cap);
        for &vpn in slots {
            m.index.insert(vpn, m.slots.len() as u32);
            m.slots.push(vpn);
        }
        debug_assert!(
            m.slots.len() <= cap && m.index.len() == m.slots.len(),
            "model slots must be at most {cap} distinct pages"
        );
        m.rng = rng;
        m
    }

    /// Residents ordered oldest-first by the caller-supplied stamp (the
    /// install order LRU L1s expect); slot order itself is an artifact
    /// of eviction history.
    fn residents_by(&self, stamp: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut v: Vec<(u64, u64)> = self.slots.iter().map(|&k| (stamp(k), k)).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, k)| k).collect()
    }
}

/// Streams committed instructions during fast-forward and distils the warm
/// state a detailed run would have built up.
#[derive(Debug, Clone)]
pub struct WarmAccumulator {
    geom: PageGeometry,
    dcache: CacheConfig,
    icache: CacheConfig,
    dblock_mask: u64,
    iblock_mask: u64,
    pages: Vec<u64>,
    /// A page table walked over `pages` in first-touch order, as each
    /// page is first touched.
    page_table: PageTable,
    /// The frame `page_table` gave each touched page.
    frames: HashMap<u64, Ppn, FastHashBuilder>,
    tlb: StampMap,
    steady: SteadyTlb,
    dblocks: RecentMap,
    iblocks: StampMap,
    stamp: u64,
    bpred: BranchPredictor,
}

impl WarmAccumulator {
    /// Creates an empty accumulator for the given machine configuration
    /// (the install-form caches take the configured shapes; the
    /// predictor mirrors the engine's Table 1 shape).
    pub fn new(cfg: &SimConfig, geom: PageGeometry) -> Self {
        WarmAccumulator {
            geom,
            dcache: cfg.dcache,
            icache: cfg.icache,
            dblock_mask: !(cfg.dcache.block_bytes - 1),
            iblock_mask: !(cfg.icache.block_bytes - 1),
            pages: Vec::new(),
            page_table: PageTable::new(geom),
            frames: HashMap::default(),
            tlb: StampMap::default(),
            steady: SteadyTlb::new(BASE_TLB_ENTRIES),
            dblocks: RecentMap::new(WARM_DBLOCK_CAP),
            iblocks: StampMap::default(),
            stamp: 0,
            bpred: BranchPredictor::table1(),
        }
    }

    // hbat-lint: hot — functional-warming gap loop of sampled runs; a few
    // stamp-map updates per instruction, no ROB/LSQ timing, no allocation
    // outside amortised table growth.

    /// Notes one committed instruction from the three fields warming
    /// reads: its static index, its flags (with the branch direction
    /// patched in) and its effective address. This is the
    /// per-instruction step of the checkpoint fast-forward, the sampled
    /// schedule build and the gap mode alike.
    #[inline]
    pub fn note(&mut self, pc: u32, flags: u8, vaddr: u64) {
        // Instruction fetch: the engine's icache is physically addressed
        // at `pc * 4` (one word per instruction slot).
        let iblock = (u64::from(pc) * 4) & self.iblock_mask;
        self.iblocks.insert(iblock, self.stamp);
        self.stamp += 1;

        if flags & MicroOp::F_MEM != 0 {
            let vpn = self.geom.vpn(VirtAddr(vaddr)).0;
            // The TLB map holds every VPN ever touched, so a fresh
            // insert *is* the first touch of the page.
            if self.tlb.insert(vpn, self.stamp) {
                self.first_touch(vpn);
            }
            self.steady.touch(vpn);
            self.dblocks.insert(vaddr & self.dblock_mask, self.stamp);
            self.stamp += 1;
        }

        if flags & MicroOp::F_BR_COND != 0 {
            self.bpred.update(pc, flags & MicroOp::F_BR_TAKEN != 0);
        }
    }

    /// [`note`](Self::note) for a stored micro-op.
    #[inline]
    pub fn note_uop(&mut self, op: &MicroOp) {
        self.note(op.pc, op.flags, op.vaddr);
    }

    /// Functional-warming gap mode: advances the accumulator across an
    /// inter-window gap of committed-path micro-ops. Only TLB, cache and
    /// branch-predictor warm state is updated — no ROB/LSQ timing — so
    /// this runs at trace-replay speed (DESIGN.md §15).
    pub fn warm_gap(&mut self, ops: &[MicroOp]) {
        for op in ops {
            self.note_uop(op);
        }
    }

    // hbat-lint: cold

    /// Exports the exact accumulator state (for checkpointing).
    pub fn export(&self) -> WarmExport {
        WarmExport {
            pages: self.pages.clone(),
            tlb: self.tlb.pairs_by_stamp(),
            steady: self.steady.slots.clone(),
            steady_rng: self.steady.rng,
            dblocks: self.dblocks.map.pairs_by_stamp(),
            iblocks: self.iblocks.pairs_by_stamp(),
            stamp: self.stamp,
            ghr: self.bpred.ghr(),
            pht: self.bpred.pht().to_vec(),
        }
    }

    /// Records a page's first touch: it joins `pages` and is walked.
    fn first_touch(&mut self, vpn: u64) {
        self.pages.push(vpn);
        let ppn = self.page_table.walk(Vpn(vpn)).ppn;
        self.frames.insert(vpn, ppn);
    }

    /// The install form of the current state. The TLB lists keep the
    /// newest keys up to the warm caps, oldest-first, so a replay leaves
    /// the most recent touches youngest. The page table is the one
    /// walked over every touched page in first-touch order as the pages
    /// were first touched; the data blocks are translated through it,
    /// and each cache replays only the blocks LRU replacement would keep
    /// anyway (the warm lists are capped well above one cache's
    /// capacity). Sampled runs build one state per window and every
    /// design installs it, so this is the design-independent part of the
    /// per-window cost. It reads the newest blocks, not every block the
    /// run has touched.
    ///
    /// # Panics
    /// If a warm data block lies on a page that was never touched; every
    /// noted access records its page, so this is a corrupted accumulator.
    pub fn warm_state(&self) -> WarmState {
        let geom = self.geom;
        let pas: Vec<u64> = self
            .dblocks
            .newest_keys(WARM_DBLOCK_CAP)
            .into_iter()
            .map(|va| {
                let ppn = self
                    .frames
                    .get(&geom.vpn(VirtAddr(va)).0)
                    .expect("warm data block outside the touched-page set");
                geom.splice(*ppn, VirtAddr(va)).0
            })
            .collect();
        let mut dcache = Cache::new(self.dcache);
        for pa in dcache.warm_survivors(&pas) {
            dcache.warm_insert(PhysAddr(pa));
        }
        let mut icache = Cache::new(self.icache);
        for pa in icache.warm_survivors(&self.iblocks.newest_keys(WARM_IBLOCK_CAP)) {
            icache.warm_insert(PhysAddr(pa));
        }
        let mut bpred = BranchPredictor::table1();
        bpred.restore_tables(self.bpred.ghr(), self.bpred.pht());
        WarmState {
            page_table: self.page_table.clone(),
            tlb: self.tlb.newest_keys(WARM_TLB_CAP),
            tlb_steady: self
                .steady
                .residents_by(|vpn| self.tlb.get(vpn).unwrap_or(0)),
            dcache,
            icache,
            bpred,
        }
    }

    /// Rebuilds an accumulator from an export so that continuing to
    /// [`note_uop`](Self::note_uop) from the snapshot point produces
    /// exactly the state a cold accumulation of the full prefix would.
    pub fn import(cfg: &SimConfig, geom: PageGeometry, e: &WarmExport) -> Self {
        let mut acc = WarmAccumulator::new(cfg, geom);
        for &vpn in &e.pages {
            acc.first_touch(vpn);
        }
        for &(k, s) in &e.tlb {
            acc.tlb.insert(k, s);
        }
        acc.steady = SteadyTlb::restore(BASE_TLB_ENTRIES, &e.steady, e.steady_rng);
        for &(k, s) in &e.dblocks {
            acc.dblocks.insert(k, s);
        }
        for &(k, s) in &e.iblocks {
            acc.iblocks.insert(k, s);
        }
        acc.stamp = e.stamp;
        acc.bpred.restore_tables(e.ghr, &e.pht);
        acc
    }
}

/// The warming sink: the executor feeds it retired instructions, and it
/// notes each one without building a [`MicroOp`].
impl RetireSink for WarmAccumulator {
    #[inline]
    fn retire(&mut self, r: Retired<'_>) {
        self.note(r.template.pc, r.flags(), r.vaddr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_isa::inst::Width;
    use hbat_isa::trace::OpClass;
    use hbat_isa::uop::NO_REG;

    fn op(pc: u32, class: OpClass, flags: u8, vaddr: u64) -> MicroOp {
        MicroOp {
            serial: 0,
            vaddr,
            pc,
            target: 0,
            offset: 0,
            class,
            flags,
            srcs: [NO_REG; 3],
            dest: NO_REG,
            aux_dest: NO_REG,
            base_reg: NO_REG,
            index_reg: NO_REG,
            width: Width::B8,
            addr_src_mask: 0,
        }
    }

    fn load(pc: u32, va: u64) -> MicroOp {
        op(pc, OpClass::Load, MicroOp::F_MEM, va)
    }

    fn branch(pc: u32, taken: bool) -> MicroOp {
        let taken = if taken { MicroOp::F_BR_TAKEN } else { 0 };
        let flags = MicroOp::F_BRANCH | MicroOp::F_BR_COND | taken;
        op(pc, OpClass::Branch, flags, 0)
    }

    fn accumulate(ops: &[MicroOp]) -> WarmAccumulator {
        let mut acc = WarmAccumulator::new(&SimConfig::baseline(), PageGeometry::KB4);
        acc.warm_gap(ops);
        acc
    }

    fn mixed_trace(n: u64) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            ops.push(load(i as u32, 0x1000 + (i % 7) * 0x1000 + i * 8));
            ops.push(branch((i % 13) as u32, i % 3 != 0));
        }
        ops
    }

    /// A load/branch stream over far more distinct pages than the
    /// random-replacement model holds, with a hot set re-touched
    /// throughout: the model evicts hundreds of times, and which pages
    /// survive depends on its RNG, not on last-touch order.
    fn past_capacity_trace(n: u64, salt: u64) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        for i in 0..n {
            let page = if i % 3 == 0 {
                i % 17
            } else {
                (i * 7919 + salt) % 600
            };
            ops.push(load((i % 4096) as u32, (page << 12) + (i % 64) * 8));
            ops.push(branch((i % 13) as u32, i % 5 != 0));
        }
        ops
    }

    #[test]
    fn stamp_map_behaves_like_a_reference_map() {
        use std::collections::HashMap;
        let mut fast = StampMap::default();
        let mut reference = HashMap::new();
        // A key stream with repeats, clusters, and enough distinct keys
        // to force several growth/rehash rounds past the 16-slot start.
        let mut x = 0x1234_5678_9abc_def0u64;
        for stamp in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 611; // heavy collisions
            assert_eq!(
                fast.insert(key, stamp),
                reference.insert(key, stamp).is_none(),
                "newness must agree at stamp {stamp}"
            );
        }
        assert_eq!(fast.len(), reference.len());
        for (&k, &s) in &reference {
            assert_eq!(fast.get(k), Some(s));
        }
        assert_eq!(fast.get(9999), None);
        let pairs = fast.pairs_by_stamp();
        assert!(pairs.windows(2).all(|w| w[0].1 < w[1].1), "stamp ascending");
        assert_eq!(pairs.len(), reference.len());
    }

    #[test]
    fn recent_map_lists_the_same_newest_keys_as_a_full_scan() {
        // A small `keep` forces many log cuts; the key stream mixes a
        // hot set (short reuse, caught by the tail) with cold keys.
        let mut recent = RecentMap::new(16);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for stamp in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = if x.is_multiple_of(3) { x % 5 } else { x % 300 };
            recent.insert(key, stamp);
            if stamp % 97 == 0 {
                for cap in [1, 7, 16] {
                    assert_eq!(
                        recent.newest_keys(cap),
                        recent.map.newest_keys(cap),
                        "cap {cap} at stamp {stamp}"
                    );
                }
            }
        }
        assert!(recent.log.len() <= RecentMap::LOG_SLACK * 16 + 1);
    }

    #[test]
    fn pages_record_first_touch_order() {
        let acc = accumulate(&[
            load(0, 0x3000),
            load(1, 0x1000),
            load(2, 0x3008),
            load(3, 0x2000),
        ]);
        assert_eq!(acc.export().pages, vec![3, 1, 2]);
    }

    #[test]
    fn tlb_entries_ordered_by_recency() {
        let acc = accumulate(&[
            load(0, 0x1000),
            load(1, 0x2000),
            load(2, 0x1000), // re-touch: page 1 is now newest
        ]);
        let keys: Vec<u64> = acc.export().tlb.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![2, 1]);
        assert_eq!(acc.warm_state().tlb, vec![2, 1]);
    }

    #[test]
    fn export_import_round_trips_exactly() {
        let mut ops = mixed_trace(200);
        ops.extend(past_capacity_trace(2000, 0));
        let acc = accumulate(&ops);
        let e = acc.export();
        assert!(
            e.pages.len() > 3 * BASE_TLB_ENTRIES,
            "{} pages",
            e.pages.len()
        );
        assert_eq!(e.steady.len(), BASE_TLB_ENTRIES, "the model is full");
        let imported = WarmAccumulator::import(&SimConfig::baseline(), PageGeometry::KB4, &e);
        assert_eq!(imported.export(), e);

        // Continuing from the import matches continuing from the
        // original, through hundreds more evictions.
        let more = past_capacity_trace(1500, 211);
        let mut a = acc.clone();
        let mut b = imported;
        a.warm_gap(&more);
        b.warm_gap(&more);
        assert_ne!(a.export().steady_rng, e.steady_rng, "the model evicted");
        assert_eq!(a.export(), b.export());
        assert_eq!(a.warm_state(), b.warm_state());
    }

    // A sampled run's chain: restore an accumulator from an export, gap
    // across a micro-op suffix, and land exactly where a cold full-trace
    // accumulation does.
    #[test]
    fn gap_mode_chains_from_an_imported_export() {
        let ops = past_capacity_trace(3000, 5);
        let boundary = 3601; // mid-stream, between a load and its branch
        let full = accumulate(&ops);
        assert!(full.export().pages.len() > 3 * BASE_TLB_ENTRIES);

        let prefix = accumulate(&ops[..boundary]);
        let mut resumed =
            WarmAccumulator::import(&SimConfig::baseline(), PageGeometry::KB4, &prefix.export());
        resumed.warm_gap(&ops[boundary..]);
        assert_eq!(resumed.export(), full.export());
        assert_eq!(resumed.warm_state(), full.warm_state());
    }

    #[test]
    fn warm_state_truncates_to_caps_keeping_newest() {
        // One load per page, pages 0..2000 in order: the newest
        // WARM_TLB_CAP pages survive, oldest first.
        let ops: Vec<MicroOp> = (0..2000u64).map(|i| load(0, i << 12)).collect();
        let w = accumulate(&ops).warm_state();
        assert_eq!(w.page_table.resident_pages(), 2000);
        assert_eq!(w.tlb.len(), WARM_TLB_CAP);
        assert_eq!(w.tlb[0], 2000 - WARM_TLB_CAP as u64);
        assert_eq!(*w.tlb.last().unwrap(), 1999);
        assert_eq!(w.tlb_steady.len(), BASE_TLB_ENTRIES);
    }

    #[test]
    fn predictor_tables_survive_export() {
        let acc = accumulate(&[branch(7, true); 100]);
        let w = acc.warm_state();
        assert!(w.bpred.predict(7), "trained always-taken branch");
        assert_eq!(w.bpred.predictions(), 0, "accuracy counts start fresh");
    }

    #[test]
    fn warm_caches_hold_the_newest_blocks_through_the_first_touch_frames() {
        // Page 5 is touched first, so it gets the first frame a fresh
        // page table hands out; page 2 gets the second.
        let acc = accumulate(&[load(0, 0x5010), load(64, 0x2020)]);
        let w = acc.warm_state();
        let mut pt = PageTable::new(PageGeometry::KB4);
        let f5 = pt.walk(Vpn(5)).ppn;
        let f2 = pt.walk(Vpn(2)).ppn;
        let frame = |vpn| w.page_table.probe(Vpn(vpn)).map(|e| e.ppn);
        assert_eq!((frame(5), frame(2)), (Some(f5), Some(f2)));
        assert_eq!(w.page_table.resident_pages(), 2);
        let geom = PageGeometry::KB4;
        assert!(w.dcache.contains(geom.splice(f5, VirtAddr(0x5010))));
        assert!(w.dcache.contains(geom.splice(f2, VirtAddr(0x2020))));
        assert!(w.icache.contains(PhysAddr(0)));
        assert!(w.icache.contains(PhysAddr(256)));
        assert_eq!(w.dcache.stats().accesses, 0, "a warm install is stat-free");
    }
}
