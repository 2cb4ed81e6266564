//! Set-associative cache timing model.
//!
//! Models the paper's 32 KB two-way set-associative, write-back,
//! write-allocate caches with 32-byte blocks, a 6-cycle miss latency, and
//! a non-blocking, multi-ported interface (Table 1). Only tags and timing
//! are modelled — data values live in the functional executor.

use hbat_core::addr::PhysAddr;
use hbat_core::cycle::Cycle;

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
    /// Cycles from access to hit data (pipelined).
    pub hit_latency: u64,
    /// Additional cycles a miss takes to fill from the next level.
    pub miss_latency: u64,
    /// Simultaneous accesses per cycle.
    pub ports: usize,
}

impl CacheConfig {
    /// Table 1's data cache: 32 KB, 2-way, 32 B blocks, 6-cycle miss,
    /// four ports, non-blocking.
    pub fn table1_dcache() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2, // load total latency (Table 1: load/store 2/1)
            miss_latency: 6,
            ports: 4,
        }
    }

    /// Table 1's instruction cache: 32 KB, 2-way, 32 B blocks, 6-cycle
    /// miss, single fetch port.
    pub fn table1_icache() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            block_bytes: 32,
            hit_latency: 0, // overlapped with fetch
            miss_latency: 6,
            ports: 1,
        }
    }

    fn sets(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize / self.ways
    }
}

/// Counters accumulated by a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses accepted.
    pub accesses: u64,
    /// Accesses that hit (including hits on in-flight fill blocks).
    pub hits: u64,
    /// Accesses that initiated a fill.
    pub misses: u64,
    /// Misses that merged with an in-flight fill of the same block.
    pub merged: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Accesses rejected for lack of a port.
    pub port_rejects: u64,
}

impl CacheStats {
    /// Miss ratio over accepted accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// When the fill completes (for non-blocking misses); data accessed
    /// before this time waits for it.
    ready_at: Cycle,
    lru_stamp: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Served; data available at `data_at`. `was_miss` tells whether a
    /// fill was initiated (or joined).
    Served {
        /// Cycle the data is available.
        data_at: Cycle,
        /// True if this access missed (initiated or merged into a fill).
        was_miss: bool,
    },
    /// No port free this cycle; retry next cycle.
    NoPort,
}

impl CacheAccess {
    /// The data-ready time, if served.
    pub fn data_at(&self) -> Option<Cycle> {
        match *self {
            CacheAccess::Served { data_at, .. } => Some(data_at),
            CacheAccess::NoPort => None,
        }
    }
}

/// A non-blocking, multi-ported, set-associative cache (timing only).
///
/// # Examples
///
/// ```
/// use hbat_core::addr::PhysAddr;
/// use hbat_core::cycle::Cycle;
/// use hbat_mem::cache::{Cache, CacheAccess, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::table1_dcache());
/// c.begin_cycle(Cycle(0));
/// let first = c.access(PhysAddr(0x100), false);
/// let again = {
///     c.begin_cycle(Cycle(20));
///     c.access(PhysAddr(0x104), false) // same block, now resident
/// };
/// assert!(matches!(first, CacheAccess::Served { was_miss: true, .. }));
/// assert!(matches!(again, CacheAccess::Served { was_miss: false, .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines in one flat array, `ways` entries per set (set-major):
    /// one indexed slice per access instead of a nested-vector pointer
    /// chase — this sits on the engine's per-access hot path.
    lines: Vec<Option<Line>>,
    /// `log2(block_bytes)` — block number extraction is a shift, not a
    /// hardware division by the runtime block size.
    block_shift: u32,
    set_mask: usize,
    tag_shift: u32,
    stats: CacheStats,
    now: Cycle,
    ports_used: usize,
    lru_counter: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/ports, non-power-of
    /// two sets, ...).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.ports > 0, "degenerate cache geometry");
        assert!(cfg.block_bytes.is_power_of_two(), "block size must be 2^k");
        let sets = cfg.sets();
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be 2^k");
        Cache {
            lines: vec![None; sets * cfg.ways],
            block_shift: cfg.block_bytes.trailing_zeros(),
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            cfg,
            stats: CacheStats::default(),
            now: Cycle::ZERO,
            ports_used: 0,
            lru_counter: 0,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lines still being filled at `now` — the cache's MSHR-equivalent
    /// occupancy, an observability sampling probe.
    pub fn inflight_fills(&self, now: Cycle) -> usize {
        self.lines
            .iter()
            .flatten()
            .filter(|l| l.ready_at > now)
            .count()
    }

    /// Opens a new cycle, freeing the ports.
    pub fn begin_cycle(&mut self, now: Cycle) {
        debug_assert!(now >= self.now, "time must not run backwards");
        self.now = now;
        self.ports_used = 0;
    }

    /// Start of the set's way range in `lines`, plus the block tag.
    #[inline(always)]
    fn index_of(&self, addr: PhysAddr) -> (usize, u64) {
        let block = addr.0 >> self.block_shift;
        let set = (block as usize) & self.set_mask;
        let tag = block >> self.tag_shift;
        (set * self.cfg.ways, tag)
    }

    /// Accesses `addr`; `is_store` marks the line dirty.
    pub fn access(&mut self, addr: PhysAddr, is_store: bool) -> CacheAccess {
        if self.ports_used == self.cfg.ports {
            self.stats.port_rejects += 1;
            return CacheAccess::NoPort;
        }
        self.ports_used += 1;
        self.stats.accesses += 1;
        self.lru_counter += 1;
        let (base, tag) = self.index_of(addr);
        let now = self.now;
        let hit_latency = self.cfg.hit_latency;
        let lru_counter = self.lru_counter;
        let ways = &mut self.lines[base..base + self.cfg.ways];

        // Hit (possibly on a block still being filled).
        if let Some(line) = ways.iter_mut().flatten().find(|l| l.tag == tag) {
            line.dirty |= is_store;
            line.lru_stamp = lru_counter;
            let still_filling = line.ready_at > now;
            let data_at = line.ready_at.max(now + hit_latency);
            if still_filling {
                self.stats.merged += 1;
                self.stats.misses += 1;
            } else {
                self.stats.hits += 1;
            }
            return CacheAccess::Served {
                data_at,
                was_miss: still_filling,
            };
        }

        // Miss: pick a victim (invalid way first, then LRU).
        self.stats.misses += 1;
        let victim = match ways.iter().position(Option::is_none) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.map(|l| l.lru_stamp).unwrap_or(0))
                .map(|(i, _)| i)
                .expect("cache set has ways"),
        };
        if let Some(old) = ways[victim] {
            if old.dirty {
                self.stats.writebacks += 1;
            }
        }
        let ready_at = now + self.cfg.hit_latency + self.cfg.miss_latency;
        ways[victim] = Some(Line {
            tag,
            dirty: is_store,
            ready_at,
            lru_stamp: lru_counter,
        });
        CacheAccess::Served {
            data_at: ready_at,
            was_miss: true,
        }
    }

    /// Installs the block containing `addr` as a clean, fill-complete,
    /// most-recently-used line, without touching timing, ports, or
    /// statistics — the warm-state restore path uses this to rebuild
    /// cache contents at a checkpoint boundary. If the block is already
    /// resident only its recency is refreshed. Victim selection matches
    /// [`Cache::access`] (invalid way first, then LRU), so installing a
    /// warm set in LRU order reproduces the recency ordering the
    /// snapshotting run had.
    pub fn warm_insert(&mut self, addr: PhysAddr) {
        self.lru_counter += 1;
        let lru_counter = self.lru_counter;
        let (base, tag) = self.index_of(addr);
        let ways = &mut self.lines[base..base + self.cfg.ways];
        if let Some(line) = ways.iter_mut().flatten().find(|l| l.tag == tag) {
            line.lru_stamp = lru_counter;
            return;
        }
        let victim = match ways.iter().position(Option::is_none) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.map(|l| l.lru_stamp).unwrap_or(0))
                .map(|(i, _)| i)
                .expect("cache set has ways"),
        };
        ways[victim] = Some(Line {
            tag,
            dirty: false,
            ready_at: Cycle::ZERO,
            lru_stamp: lru_counter,
        });
    }

    /// Of a warm replay list (distinct block addresses, oldest-first LRU
    /// order), the blocks that would still be resident after replaying
    /// the whole list through [`Cache::warm_insert`]: the newest `ways`
    /// blocks of each set, returned still oldest-first. Replaying only
    /// the survivors produces the same final tags and the same relative
    /// LRU order as replaying everything — the warm-install path uses
    /// this to skip the inserts that LRU replacement would immediately
    /// undo (a warm list is capped well above one cache's capacity).
    pub fn warm_survivors(&self, addrs: &[u64]) -> Vec<u64> {
        let sets = self.set_mask + 1;
        let ways = self.cfg.ways as u8;
        let mut taken = vec![0u8; sets];
        let mut keep = Vec::with_capacity(addrs.len().min(sets * self.cfg.ways));
        for &pa in addrs.iter().rev() {
            let set = ((pa >> self.block_shift) as usize) & self.set_mask;
            if taken[set] < ways {
                taken[set] += 1;
                keep.push(pa);
            }
        }
        keep.reverse();
        keep
    }

    /// Probes without touching timing, ports, or stats (tests only).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (base, tag) = self.index_of(addr);
        self.lines[base..base + self.cfg.ways]
            .iter()
            .flatten()
            .any(|l| l.tag == tag)
    }

    /// Empties the cache (statistics are preserved).
    pub fn flush(&mut self) {
        self.lines.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 32,
            hit_latency: 2,
            miss_latency: 6,
            ports: 2,
        })
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut c = small();
        c.begin_cycle(Cycle(0));
        match c.access(PhysAddr(0x40), false) {
            CacheAccess::Served { data_at, was_miss } => {
                assert!(was_miss);
                assert_eq!(data_at, Cycle(8)); // 2 + 6
            }
            other => panic!("{other:?}"),
        }
        c.begin_cycle(Cycle(10));
        match c.access(PhysAddr(0x44), false) {
            CacheAccess::Served { data_at, was_miss } => {
                assert!(!was_miss);
                assert_eq!(data_at, Cycle(12)); // hit latency 2
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn access_during_fill_waits_for_the_fill() {
        let mut c = small();
        c.begin_cycle(Cycle(0));
        c.access(PhysAddr(0x40), false);
        c.begin_cycle(Cycle(3));
        match c.access(PhysAddr(0x48), false) {
            CacheAccess::Served { data_at, was_miss } => {
                assert!(was_miss, "merged into the in-flight fill");
                assert_eq!(data_at, Cycle(8), "waits for the fill, no new miss");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().merged, 1);
    }

    #[test]
    fn ports_limit_per_cycle() {
        let mut c = small();
        c.begin_cycle(Cycle(0));
        assert!(c.access(PhysAddr(0x000), false).data_at().is_some());
        assert!(c.access(PhysAddr(0x100), false).data_at().is_some());
        assert_eq!(c.access(PhysAddr(0x200), false), CacheAccess::NoPort);
        assert_eq!(c.stats().port_rejects, 1);
        c.begin_cycle(Cycle(1));
        assert!(c.access(PhysAddr(0x200), false).data_at().is_some());
    }

    #[test]
    fn lru_within_set_and_writeback_of_dirty_victims() {
        let mut c = small(); // 16 sets; same set every 512 bytes
        let set_stride = 512;
        c.begin_cycle(Cycle(0));
        c.access(PhysAddr(0), true); // dirty
        c.begin_cycle(Cycle(20));
        c.access(PhysAddr(set_stride), false);
        c.begin_cycle(Cycle(40));
        c.access(PhysAddr(0), false); // touch to make way-0 MRU
        c.begin_cycle(Cycle(60));
        c.access(PhysAddr(2 * set_stride), false); // evicts set_stride (clean)
        assert_eq!(c.stats().writebacks, 0);
        assert!(c.contains(PhysAddr(0)));
        assert!(!c.contains(PhysAddr(set_stride)));
        c.begin_cycle(Cycle(80));
        c.access(PhysAddr(3 * set_stride), false); // evicts 0 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn warm_survivors_match_a_full_replay() {
        // 16 sets, 2 ways: a warm list far over capacity collapses to
        // the newest two blocks per set, and replaying only those leaves
        // the cache in the same state as replaying everything.
        // 200 distinct blocks (i*73 mod 1024 is a permutation cycle)
        // scattered over all 16 sets — ~12 candidates per 2-way set.
        let list: Vec<u64> = (0..200u64).map(|i| ((i * 73) % 1024) * 32).collect();
        let mut full = small();
        for &pa in &list {
            full.warm_insert(PhysAddr(pa));
        }
        let filtered_list = small().warm_survivors(&list);
        assert!(filtered_list.len() <= 32, "at most ways per set survive");
        let mut filtered = small();
        for &pa in &filtered_list {
            filtered.warm_insert(PhysAddr(pa));
        }
        for &pa in &list {
            assert_eq!(
                full.contains(PhysAddr(pa)),
                filtered.contains(PhysAddr(pa)),
                "residency diverged at {pa:#x}"
            );
        }
        // Survivors keep list order (oldest-first), so LRU replay works.
        let mut sorted = filtered_list.clone();
        sorted.sort_by_key(|pa| list.iter().position(|x| x == pa).unwrap());
        assert_eq!(filtered_list, sorted);
    }

    #[test]
    fn inflight_fills_tracks_pending_misses() {
        let mut c = small();
        assert_eq!(c.inflight_fills(Cycle(0)), 0);
        c.begin_cycle(Cycle(0));
        c.access(PhysAddr(0x000), false); // fills until cycle 8
        c.access(PhysAddr(0x800), false);
        assert_eq!(c.inflight_fills(Cycle(0)), 2);
        assert_eq!(c.inflight_fills(Cycle(7)), 2);
        assert_eq!(c.inflight_fills(Cycle(8)), 0, "fills landed");
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut c = small();
        c.begin_cycle(Cycle(0));
        c.access(PhysAddr(0x80), true);
        assert!(c.contains(PhysAddr(0x80)), "write-allocate");
        c.flush();
        assert!(!c.contains(PhysAddr(0x80)));
    }

    #[test]
    fn capacity_thrash_produces_misses() {
        let mut c = small(); // 1 KB: 32 blocks
        let mut t = 0;
        for round in 0..3 {
            for b in 0..64u64 {
                c.begin_cycle(Cycle(t));
                t += 10;
                let r = c.access(PhysAddr(b * 32), false);
                if round > 0 {
                    assert!(
                        matches!(r, CacheAccess::Served { was_miss: true, .. }),
                        "64 blocks through a 32-block cache must thrash"
                    );
                }
            }
        }
        assert!(c.stats().miss_rate() > 0.9);
    }

    #[test]
    fn warm_insert_installs_without_stats_or_timing() {
        let mut c = small();
        c.warm_insert(PhysAddr(0x40));
        assert!(c.contains(PhysAddr(0x40)));
        assert_eq!(c.stats(), &CacheStats::default(), "no counters move");
        // The installed line is fill-complete: the first access hits.
        c.begin_cycle(Cycle(0));
        match c.access(PhysAddr(0x44), false) {
            CacheAccess::Served { was_miss, data_at } => {
                assert!(!was_miss, "warm line must hit");
                assert_eq!(data_at, Cycle(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_insert_respects_lru_order() {
        let mut c = small(); // 2-way; same set every 512 bytes
        let s = 512u64;
        // Install three blocks of one set in LRU order: the oldest (0)
        // must be the one evicted.
        c.warm_insert(PhysAddr(0));
        c.warm_insert(PhysAddr(s));
        c.warm_insert(PhysAddr(2 * s));
        assert!(!c.contains(PhysAddr(0)), "oldest warm line evicted");
        assert!(c.contains(PhysAddr(s)));
        assert!(c.contains(PhysAddr(2 * s)));
        // Re-inserting refreshes recency instead of duplicating.
        c.warm_insert(PhysAddr(s));
        c.warm_insert(PhysAddr(3 * s));
        assert!(c.contains(PhysAddr(s)), "refreshed line survives");
        assert!(!c.contains(PhysAddr(2 * s)));
    }

    #[test]
    fn table1_configs() {
        let d = CacheConfig::table1_dcache();
        assert_eq!(d.sets(), 512);
        assert_eq!(d.ports, 4);
        let i = CacheConfig::table1_icache();
        assert_eq!(i.ports, 1);
        // Both build.
        let _ = Cache::new(d);
        let _ = Cache::new(i);
    }
}
