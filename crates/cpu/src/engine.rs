//! The cycle-timing engine: an 8-way superscalar processor in the mould of
//! the paper's baseline simulator (Table 1), driven by the committed-path
//! op stream from `hbat-isa`: any [`OpSource`], a functional `Machine`
//! executing, a [`TapeReader`](hbat_isa::tape::TapeReader) or a
//! `&[MicroOp]`.
//!
//! The engine holds no whole trace. It keeps a fetch window of the
//! stream, from the next committed fetch to the furthest phantom op (at
//! most a re-order buffer plus a fetch group past it), and refills the
//! window in chunks of [`FETCH_CHUNK`] ops as fetch reaches its end.
//! Ops before the next committed fetch are never read again: a squash
//! resumes fetch there.
//!
//! One engine serves both issue disciplines: out-of-order issue over a
//! 64-entry re-order buffer with a 32-entry load/store queue, or in-order
//! issue with stall-on-hazard (Section 4.4). Address translation is
//! delegated to any [`AddressTranslator`]; translation requests are made
//! when a memory operation's address generation executes, earliest
//! instruction first, exactly as the paper allocates TLB ports.
//!
//! ## Speculative (wrong-path) execution
//!
//! Like the paper's simulator, execution continues down the speculative
//! path after a branch misprediction: *phantom* instructions are fetched,
//! issued, translated, and access the data cache, then are squashed when
//! the branch resolves (plus the 3-cycle redirect penalty). This is where
//! most of the extra translation bandwidth demand beyond the committed
//! instruction stream comes from — the paper's issue rates run 30–60 %
//! above its commit rates. Since the engine sees only the committed
//! path, the phantom stream is the *upcoming committed path* rather than the true
//! not-taken path; the traffic volume and timing match, and for loops
//! (the common case) the wrong path largely is the fall-through code.
//! Matching Section 4.1, a speculative TLB miss is not serviced —
//! instruction dispatch stalls until the squash.
//!
//! Other modelling notes (see `DESIGN.md`):
//!
//! * a non-speculative TLB miss begins its 30-cycle walk only once every
//!   earlier instruction has completed (Table 1's "after earlier-issued
//!   instructions complete"), and dispatch stalls until the walk is done;
//! * pretranslation attach/propagate events are applied to the translator
//!   in program order immediately before the first translation with a
//!   higher serial number; phantom writebacks are not applied.

use std::collections::VecDeque;

use hbat_core::addr::{Ppn, VirtAddr, Vpn};
use hbat_core::cycle::Cycle;
use hbat_core::request::{TranslateRequest, WritebackKind};
use hbat_core::translator::AddressTranslator;
use hbat_core::Outcome;
use hbat_isa::executor::{OpSource, Retired};
use hbat_isa::tape::Tape;
use hbat_isa::trace::OpClass;
use hbat_isa::uop::{MicroOp, NO_REG};
use hbat_mem::cache::{Cache, CacheAccess};
use hbat_obs::{
    NullRecorder, OccupancySample, PortResource, Recorder, StallCause, SAMPLE_INTERVAL,
};

use crate::bpred::BranchPredictor;
use crate::config::{IssueModel, SimConfig};
use crate::fu::FuPool;
use crate::metrics::RunMetrics;
use crate::warm::WarmState;

/// Progress of one in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for operands / functional unit / translation port.
    Waiting,
    /// Memory op: address generated and translated; execution pending.
    Translated,
    /// Result available at `finish`.
    Complete,
}

/// What a sleeping slot is waiting for (see [`Engine::asleep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaiterKind {
    /// The producer's result value: wake at `finish` when it completes.
    Value,
    /// The producer's post-increment writeback: wake at `aux_finish`
    /// once the producer leaves `Waiting`.
    Aux,
    /// The producer's next state transition itself (a store's address
    /// becoming known, a forwarding store's data arriving): wake
    /// immediately, within the same issue pass.
    Event,
}

/// Waiter-list capacity per slot. A producer whose list is full simply
/// stops accepting sleepers — the rejected consumer stays awake and
/// polls, which is always correct.
const MAX_WAITERS: usize = 6;

/// Packs (consumer_id - producer_id, kind) into one u16. The delta is
/// at most `rob_entries` (< 128), so 7 bits suffice.
#[inline(always)]
fn pack_waiter(delta: u64, kind: WaiterKind) -> u16 {
    debug_assert!((1..128).contains(&delta));
    delta as u16 | ((kind as u16) << 7)
}

/// "No producer" sentinel for packed rename/producer entries.
const PROD_NONE: u32 = u32::MAX;

/// Packs a producer reference (slot id, produced-as-aux) into one u32.
/// Slot ids stay below 2^31 (bounded by the dynamic instruction count),
/// so bit 31 is free for the aux flag. The packed form keeps the rename
/// map and each slot's producer fields to 4 bytes per entry — rename
/// snapshots and ROB slots are copied in the dispatch hot path.
#[inline(always)]
fn pack_producer(id: u64, aux: bool) -> u32 {
    debug_assert!(id < (1 << 31), "slot id overflows packed producer");
    id as u32 | (u32::from(aux) << 31)
}

#[inline(always)]
fn unpack_producer(p: u32) -> (u64, bool) {
    (u64::from(p & 0x7fff_ffff), p >> 31 != 0)
}

#[inline(always)]
fn unpack_waiter(w: u16) -> (u64, WaiterKind) {
    let kind = match w >> 7 {
        0 => WaiterKind::Value,
        1 => WaiterKind::Aux,
        _ => WaiterKind::Event,
    };
    (u64::from(w & 0x7f), kind)
}

#[derive(Debug, Clone)]
struct Slot {
    /// Unique, monotonically increasing dispatch id (never reused).
    id: u64,
    t: MicroOp,
    /// True for wrong-path instructions (squashed, never committed).
    phantom: bool,
    state: State,
    /// Result-ready time (valid when `Complete`).
    finish: Cycle,
    /// Address-generation writeback time for post-increment (`aux_dest`).
    aux_finish: Cycle,
    /// Translation available at (valid from `Translated` on).
    addr_ready: Cycle,
    /// Physical page of the access (valid from `Translated` on).
    ppn: Ppn,
    /// Producer of each source, packed via [`pack_producer`]
    /// ([`PROD_NONE`] if the value was architected at dispatch time).
    producers: [u32; 3],
    /// Producer of the previous value of the primary dest (WAW stall for
    /// the in-order model), packed like `producers`.
    waw: u32,
    /// Fetched with a wrong direction prediction.
    mispredicted: bool,
    /// TLB miss awaiting service: the walk latency to charge once every
    /// older instruction has completed (Table 1: "30 cycle fixed TLB miss
    /// latency after earlier-issued instructions complete"). Walk
    /// latencies are small per-design constants; the non-zero niche keeps
    /// the option to 4 bytes in a struct copied on every dispatch.
    pending_walk: Option<std::num::NonZeroU32>,
    /// Cycle at which the translator answered this request (used to share
    /// walks between piggybacked requests to the same page).
    translated_at: Cycle,
    /// Load that missed the data cache (observability only; never read by
    /// the timing model).
    dmiss: bool,
    /// Sleeping consumers registered for this slot's transitions
    /// (packed via [`pack_waiter`]); only the first `n_waiters` are live.
    waiters: [u16; MAX_WAITERS],
    n_waiters: u8,
}

/// Completion times of recent page walks, by VPN: piggybacked requests
/// that shared a translation share its (serialized) walk instead of
/// paying a second one.
///
/// A fixed-capacity table, not a map: a stored walk is only ever matched
/// by a sharer still in the re-order buffer (the `translated_at` filter
/// rejects anything older), so keeping the `rob_entries` most recent
/// walks preserves behaviour while the steady-state loop stays free of
/// heap allocation and hashing.
#[derive(Debug)]
struct WalkTable {
    /// (vpn, walk completion); at most one entry per VPN.
    entries: Vec<(u64, Cycle)>,
    /// Next victim when full (insertion-order rotation).
    victim: usize,
    cap: usize,
}

impl WalkTable {
    fn new(cap: usize) -> Self {
        WalkTable {
            entries: Vec::with_capacity(cap.max(1)),
            victim: 0,
            cap: cap.max(1),
        }
    }

    fn get(&self, vpn: u64) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|&&(v, _)| v == vpn)
            .map(|&(_, done)| done)
    }

    fn insert(&mut self, vpn: u64, done: Cycle) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = done;
        } else if self.entries.len() < self.cap {
            self.entries.push((vpn, done));
        } else {
            self.entries[self.victim] = (vpn, done);
            self.victim = (self.victim + 1) % self.cap;
        }
    }
}

/// Scheduling mirror of one in-flight store: the fields the load
/// pipeline's older-store scans need (address-overlap forwarding,
/// unknown-address blocking), kept in a dense side deque so those scans
/// touch only stores instead of walking the whole re-order buffer.
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    /// Slot id of the store (phantoms included — wrong-path stores
    /// block and forward exactly like the full-ROB scan they replace).
    id: u64,
    /// First byte of the access.
    lo: u64,
    /// One past the last byte of the access.
    hi: u64,
    /// Mirror of the slot's state.
    state: State,
    /// Mirror of the slot's finish time (valid when `Complete`).
    finish: Cycle,
}

/// The low `n` bits set, saturating at all-ones for `n >= 128`.
#[inline(always)]
fn low_mask(n: usize) -> u128 {
    if n >= 128 {
        !0
    } else {
        (1u128 << n) - 1
    }
}

/// Why an evaluation of a waiting slot failed, and when it is worth
/// re-evaluating. Conditions that can flip for reasons without a
/// traceable event (a free port, per-cycle bandwidth) get no verdict at
/// all — those paths simply never sleep the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The condition holds now.
    Ready,
    /// Guaranteed false until `at` (exact: derived from fixed times).
    Until(Cycle),
    /// Guaranteed false until the slot with this id transitions as
    /// described by the kind.
    On(u64, WaiterKind),
}

/// A pending pretranslation register-writeback notification.
#[derive(Debug, Clone, Copy)]
struct PendingWb {
    serial: u64,
    dest: u8,
    srcs: [Option<u8>; 3],
    kind: WritebackKind,
}

/// Wrong-path fetch state, entered when a mispredicted branch dispatches.
#[derive(Debug, Clone)]
struct SpecEpoch {
    /// Slot id of the mispredicted branch.
    branch_id: u64,
    /// Where phantom fetch reads the stream (never advances `next_fetch`).
    phantom_ptr: usize,
    /// Rename map snapshot taken right after the branch dispatched
    /// (packed via [`pack_producer`]).
    rename_snapshot: [u32; 64],
    /// Phantom fetch hit a (would-be) second misprediction and stopped.
    fetch_stopped: bool,
    /// Resolution time of the branch, once it has issued.
    squash_at: Option<Cycle>,
}

/// Ops the fetch window asks its stream for at a time.
pub const FETCH_CHUNK: usize = 512;

/// An [`OpSource`] as the fetch window refills from it: one
/// object-safe call per chunk, so the engine takes any stream without a
/// type parameter.
trait Refill {
    /// Appends up to `max` ops to `ops`; returns how many.
    fn refill(&mut self, max: u64, ops: &mut Tape) -> u64;
}

impl<S: OpSource> Refill for S {
    fn refill(&mut self, max: u64, ops: &mut Tape) -> u64 {
        self.feed_tape(max, ops)
    }
}

/// The engine's view of its op stream: ops `base .. base + ops.len()`,
/// counted from the stream's first op, kept as a tape of the stream's
/// templates ([`OpSource::tape`]), so a machine's ops go in by pc and a
/// stored tape's are copied. Fetch reads it at the next committed op or
/// the phantom pointer, both at most one past its end; a refill drops
/// the ops before the next committed fetch and appends a chunk.
struct FetchWindow<'a> {
    src: Box<dyn Refill + 'a>,
    ops: Tape,
    base: usize,
    /// The stream fed less than a chunk: nothing follows `ops`.
    ended: bool,
}

impl<'a> FetchWindow<'a> {
    /// An empty window over `src`, sized so that a refill never
    /// reallocates while `rob_entries + width` ops stay live.
    fn new(src: impl OpSource + 'a, rob_entries: usize, width: usize) -> Self {
        let mut ops = src.tape();
        ops.reserve(FETCH_CHUNK + rob_entries + width);
        FetchWindow {
            src: Box::new(src),
            ops,
            base: 0,
            ended: false,
        }
    }

    /// Op `ptr` of the stream, refilling first if `ptr` is just past the
    /// window; `None` once the stream has ended before it. `keep` is the
    /// next committed fetch, the oldest op a refill must keep.
    #[inline(always)]
    fn get(&mut self, ptr: usize, keep: usize) -> Option<Retired<'_>> {
        if ptr - self.base == self.ops.len() && !self.refill(keep) {
            return None;
        }
        Some(self.ops.retired(ptr - self.base))
    }

    /// Drops the ops before `keep` and appends the stream's next chunk;
    /// false if the stream had nothing more.
    #[cold]
    fn refill(&mut self, keep: usize) -> bool {
        if self.ended {
            return false;
        }
        self.ops.drain_front(keep - self.base);
        self.base = keep;
        let fed = self.src.refill(FETCH_CHUNK as u64, &mut self.ops);
        self.ended = fed < FETCH_CHUNK as u64;
        fed > 0
    }
}

/// Per-cycle scratch flags feeding the stall classifier: set at the
/// point in the cycle where the engine learns a resource rejected work,
/// read (and reset) once per cycle. Write-only when observability is
/// off — the timing model never reads them.
#[derive(Debug, Clone, Copy, Default)]
struct ObsFlags {
    /// A translation request got `Outcome::Retry` this cycle.
    tlb_retry: bool,
    /// A memory op sat on a pending or in-progress page walk this cycle.
    walk_wait: bool,
    /// A data-cache access found no free port this cycle.
    dcache_noport: bool,
}

/// The timing engine. Construct with [`Engine::new`] from a
/// [`WarmState`] (the empty one for a cold start), then call
/// [`Engine::run`].
///
/// The engine is generic over a [`Recorder`]; with
/// [`NullRecorder`] every probe is statically compiled out
/// (`Recorder::ENABLED` is a `const`). Any recorder leaves the run
/// bit-identical to an unobserved one, and observed runs keep the
/// sleep/wake fast path of the issue scan (see the `asleep` field).
///
/// It streams its ops through a fetch window of the stream (see the
/// module docs) and copies each fetched [`MicroOp`] (see
/// `hbat_isa::uop`) into its ROB slot, so every operand fetch in the
/// per-cycle scans is a plain field read of the slot's copy.
pub struct Engine<'a, R: Recorder = NullRecorder> {
    cfg: &'a SimConfig,
    window: FetchWindow<'a>,
    translator: &'a mut dyn AddressTranslator,
    now: Cycle,
    /// Re-order buffer storage: a power-of-two ring indexed by slot id.
    /// Live ids are contiguous (`front_id .. front_id + rob_len`), so the
    /// slot with id `x` always lives at `rob[x & rob_mask]` — no head
    /// pointer, no wrap arithmetic, no deque bookkeeping on the hot path.
    /// The vector grows on first touch of each position and never shrinks;
    /// positions outside the live window hold stale slots that are
    /// overwritten before they can be observed.
    rob: Vec<Slot>,
    rob_mask: usize,
    /// Number of live slots (`rob` positions are a window, not a length).
    rob_len: usize,
    /// Slot id of the oldest live slot.
    front_id: u64,
    next_id: u64,
    next_fetch: usize,
    lsq_occupancy: usize,
    rename: [u32; 64],
    fus: FuPool,
    dcache: Cache,
    icache: Cache,
    /// `log2(icache.block_bytes)` — fetch-group block extraction is a
    /// shift, not a hardware division by the runtime block size.
    iblock_shift: u32,
    bpred: BranchPredictor,
    fetch_stall_until: Cycle,
    dispatch_stall_until: Cycle,
    /// A speculative access missed the TLB: dispatch stalls until squash.
    spec_tlb_miss_stall: bool,
    spec: Option<SpecEpoch>,
    /// Does the translator consume writeback notifications? When false
    /// (every design but pretranslation) the `pending_wb` queue is never
    /// fed — queueing and draining a notification per retired
    /// instruction for a no-op listener costs real hot-loop time.
    track_wb: bool,
    pending_wb: VecDeque<PendingWb>,
    walk_done: WalkTable,
    /// Bit `i` set ⇔ `rob[i]` is not yet `Complete`: the issue stage
    /// scans this word instead of every ROB entry, so steady-state
    /// cycles skip completed slots in O(popcount) time.
    active: u128,
    /// Completion frontier: every slot with id below this is `Complete`
    /// with `finish <= now`. Sound because completion times are always
    /// strictly in the future (functional-unit latencies are >= 1 and
    /// the store/forward/cache paths all add at least one cycle), so a
    /// "done" slot can never become un-done within or across cycles;
    /// squash clamps it back when younger ids are recycled.
    done_through: u64,
    /// In-flight stores in program order: the load pipeline's
    /// older-store-known and forwarding scans walk only this mirror.
    stores: VecDeque<StoreRec>,
    /// Bit `i` set ⇔ `rob[i]` is asleep: a previous evaluation failed
    /// for a reason that provably cannot flip until a scheduled wake
    /// (timing wheel) or a producer transition (waiter list) fires, so
    /// the issue scan skips it. Spurious wakes are harmless — a woken
    /// slot just re-evaluates — so every wake path may over-approximate;
    /// only a *missed* wake would change timing. Sleeping is disabled
    /// under in-order issue only, which keeps the full scan. The
    /// golden obs-record and sampled-window digests were blessed while
    /// recorders still forced the full scan, so they pin that the fast
    /// path reports the same probes.
    asleep: u128,
    /// Sleepers blocked on a deferred TLB-miss walk: also woken when any
    /// walk enters the walk table, since a new walk can be shared by any
    /// of them (same-page piggybacking) ahead of their scheduled wake.
    walk_sleepers: u128,
    /// Slots woken mid-pass by an `Event` transition; the issue loop
    /// folds the younger ones back into the current scan, matching the
    /// legacy single ascending pass exactly.
    pass_wake: u128,
    /// Timing wheel: bucket `c & 255` holds the (id & 127) bits of slots
    /// to wake at cycle `c`. Wakes farther than 255 cycles out are
    /// clamped (an early, spurious wake). Live ids span less than 128,
    /// so `id & 127` is collision-free among live slots; stale bits from
    /// committed or squashed ids at worst wake an unrelated live slot.
    wheel: Box<[u128; 256]>,
    metrics: RunMetrics,
    rec: R,
    obs: ObsFlags,
}

/// Replays `warm`'s TLB list into `translator`, whose page table
/// already holds the warm mappings. If every touched page fits the
/// design without evictions, the recency list is exact for any
/// replacement policy. Once it overflows, replaying it would churn
/// random-replacement banks (and the newest-capacity suffix is only an
/// LRU proxy), so the steady-state model's residents replay instead —
/// see the `SteadyTlb` docs. Either list replays oldest-first,
/// truncated to what the design can hold eviction-free.
fn replay_tlb(translator: &mut dyn AddressTranslator, warm: &WarmState) {
    let cap = translator.warm_tlb_capacity();
    let replay: &[u64] = if warm.tlb.len() <= cap || warm.tlb_steady.is_empty() {
        &warm.tlb
    } else {
        &warm.tlb_steady
    };
    let keep = replay.len().saturating_sub(cap);
    for &vpn in &replay[keep..] {
        let mut e = translator.page_table_mut().walk(Vpn(vpn));
        e.referenced = true;
        translator.warm_insert(e);
    }
}

impl<'a, R: Recorder> Engine<'a, R> {
    /// Builds an engine over the op stream `ops` (a `Machine`, a
    /// `TapeReader` or a `&[MicroOp]`, run to its end) that starts from `warm`,
    /// translates data addresses through `translator` and reports its
    /// probes to `rec` ([`NullRecorder`] for an uninstrumented run).
    /// Pass a recorder by `&mut` to read it back after
    /// [`run`](Engine::run) consumes the engine.
    ///
    /// A cold start is the [`WarmState`] of a
    /// [`WarmAccumulator`](crate::warm::WarmAccumulator) that has seen
    /// nothing: an empty page table, empty caches and an untrained
    /// predictor. Otherwise `warm` was captured at a checkpoint boundary
    /// or a sampled window's start. The translator gets a clone of the
    /// warm page table, so it maps every touched page to the frame the
    /// warm data cache was translated through; then the TLB replays
    /// oldest-first through the stat-free warm path, and the caches and
    /// predictor start as clones of the warm ones. Deterministic for a
    /// given `warm`, so cold and restored differential runs that start
    /// from the same state stay bit-identical.
    ///
    /// # Panics
    /// If `warm` was built for other cache shapes than `cfg`'s, or for a
    /// page table of another geometry or miss latency than the
    /// translator's.
    pub fn new(
        cfg: &'a SimConfig,
        ops: impl OpSource + 'a,
        translator: &'a mut dyn AddressTranslator,
        warm: &WarmState,
        rec: R,
    ) -> Self {
        assert!(
            cfg.rob_entries <= 128,
            "the issue-stage active mask holds at most 128 ROB entries"
        );
        assert!(
            *warm.dcache.config() == cfg.dcache && *warm.icache.config() == cfg.icache,
            "warm state built for another cache configuration"
        );
        let pt = translator.page_table_mut();
        assert!(
            pt.geometry() == warm.page_table.geometry()
                && pt.miss_latency() == warm.page_table.miss_latency(),
            "warm state built for another page table"
        );
        // Installing the table changes only the mappings: every design
        // starts from an empty `PageTable::new(geometry)`.
        *pt = warm.page_table.clone();
        replay_tlb(translator, warm);
        let track_wb = translator.uses_writebacks();
        let rob_cap = cfg.rob_entries.next_power_of_two();
        Engine {
            cfg,
            window: FetchWindow::new(ops, cfg.rob_entries, cfg.width),
            translator,
            now: Cycle::ZERO,
            rob: Vec::with_capacity(rob_cap),
            rob_mask: rob_cap - 1,
            rob_len: 0,
            front_id: 0,
            next_id: 0,
            next_fetch: 0,
            lsq_occupancy: 0,
            rename: [PROD_NONE; 64],
            fus: FuPool::new(cfg),
            dcache: warm.dcache.clone(),
            icache: warm.icache.clone(),
            iblock_shift: cfg.icache.block_bytes.trailing_zeros(),
            bpred: warm.bpred.clone(),
            fetch_stall_until: Cycle::ZERO,
            dispatch_stall_until: Cycle::ZERO,
            spec_tlb_miss_stall: false,
            spec: None,
            track_wb,
            pending_wb: VecDeque::with_capacity(cfg.rob_entries),
            walk_done: WalkTable::new(cfg.rob_entries),
            active: 0,
            done_through: 0,
            stores: VecDeque::with_capacity(cfg.lsq_entries),
            asleep: 0,
            walk_sleepers: 0,
            pass_wake: 0,
            wheel: Box::new([0; 256]),
            metrics: RunMetrics::default(),
            rec,
            obs: ObsFlags::default(),
        }
    }

    // hbat-lint: hot — the per-cycle engine loop: run/commit/issue/dispatch must stay allocation-free
    /// Runs to completion, or until the recorder reports
    /// [`finished`](Recorder::finished) after a cycle, and returns the
    /// metrics of the cycles actually simulated.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `cfg.max_cycles` (a model bug, not an
    /// input condition) or if the engine stops making progress.
    pub fn run(mut self) -> RunMetrics {
        let mut idle_cycles = 0u64;
        while (self.rob_len > 0 || self.window.get(self.next_fetch, self.next_fetch).is_some())
            && !(R::ENABLED && self.rec.finished())
        {
            assert!(self.now.0 < self.cfg.max_cycles, "cycle budget exceeded");
            self.begin_cycle();
            let issued_before = self.metrics.issued;
            let progressed = {
                let s = self.maybe_squash();
                let a = self.commit();
                let b = self.issue();
                let c = self.dispatch();
                s || a || b || c
            };
            if R::ENABLED {
                self.record_cycle(issued_before);
            }
            #[cfg(debug_assertions)]
            self.check_shadow_state();
            if progressed {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if idle_cycles >= 100_000 {
                    let head = (self.rob_len > 0).then(|| {
                        let s = self.slot(0);
                        (
                            s.id,
                            s.t.serial,
                            s.t.class,
                            s.phantom,
                            s.state,
                            s.mispredicted,
                        )
                    });
                    panic!(
                        "engine deadlocked at {} (rob {} entries, next_fetch {}, head {:?}, spec {:?}, stalls: fetch {} dispatch {} spec_tlb {})",
                        self.now,
                        self.rob_len,
                        self.next_fetch,
                        head,
                        self.spec.as_ref().map(|e| (e.branch_id, e.squash_at, e.fetch_stopped)),
                        self.fetch_stall_until,
                        self.dispatch_stall_until,
                        self.spec_tlb_miss_stall,
                    );
                }
            }
            self.now += 1;
        }
        self.metrics.cycles = self.now.0;
        // Fetched real ops less those still in the ROB: the whole stream
        // after a complete run, the retired prefix after an early stop.
        let in_flight = (0..self.rob_len).filter(|&i| !self.slot(i).phantom).count();
        self.metrics.committed = (self.next_fetch - in_flight) as u64;
        self.metrics.tlb = *self.translator.stats();
        self.metrics.dcache = *self.dcache.stats();
        self.metrics.icache = *self.icache.stats();
        self.metrics
    }

    fn begin_cycle(&mut self) {
        self.translator.begin_cycle(self.now);
        self.dcache.begin_cycle(self.now);
        self.icache.begin_cycle(self.now);
        self.fus.begin_cycle(self.now);
        if self.sleep_enabled() {
            self.drain_wheel();
        }
        if R::ENABLED {
            self.obs = ObsFlags::default();
        }
    }

    /// Debug-build invariant check: the three scheduling shortcuts (the
    /// active mask, the completion frontier, the store mirror) must stay
    /// exact images of the full ROB state they summarise.
    ///
    /// # Panics
    /// When a shortcut diverges from the ROB it summarises — the panic
    /// *is* the check.
    #[cfg(debug_assertions)]
    fn check_shadow_state(&self) {
        let mut mirror = self.stores.iter();
        for i in 0..self.rob_len {
            let s = self.slot(i);
            debug_assert_eq!(s.id, self.front_id + i as u64, "ring ids not contiguous");
            debug_assert_eq!(
                self.active & (1 << i) != 0,
                s.state != State::Complete,
                "active mask out of sync at rob[{i}]"
            );
            if s.t.class != OpClass::Store {
                continue;
            }
            let rec = mirror.next().expect("store missing from mirror");
            debug_assert_eq!(rec.id, s.id, "store mirror order diverged");
            debug_assert_eq!(rec.state, s.state, "store mirror state diverged");
            if rec.state == State::Complete {
                debug_assert_eq!(rec.finish, s.finish, "store mirror finish diverged");
            }
            debug_assert_eq!(rec.lo, s.t.vaddr);
            debug_assert_eq!(rec.hi, rec.lo + s.t.width.bytes());
        }
        debug_assert_eq!(self.active >> self.rob_len, 0, "stale high bits");
        debug_assert!(mirror.next().is_none(), "squashed store left in mirror");
        debug_assert_eq!(self.asleep & !self.active, 0, "completed slot asleep");
        debug_assert_eq!(
            self.walk_sleepers & !self.asleep,
            0,
            "awake slot on the walk-sleeper list"
        );
        let upto = self.done_through.min(self.front_id + self.rob_len as u64);
        for id in self.front_id..upto {
            let s = self.slot((id - self.front_id) as usize);
            debug_assert!(
                s.state == State::Complete && s.finish <= self.now,
                "completion frontier passed a live slot (id {id})"
            );
        }
    }

    /// Charges this cycle to issue or to exactly one stall cause, and
    /// takes the periodic occupancy sample. Called only when `R::ENABLED`.
    fn record_cycle(&mut self, issued_before: u64) {
        let issued = self.metrics.issued - issued_before;
        if issued > 0 {
            self.rec.issue_cycle(self.now.0, issued as u32);
        } else {
            let cause = self.classify_stall();
            self.rec.stall_cycle(self.now.0, cause);
        }
        if self.now.0.is_multiple_of(SAMPLE_INTERVAL) {
            let occupancy = OccupancySample {
                rob: self.rob_len as u32,
                lsq: self.lsq_occupancy as u32,
                mshrs: self.dcache.inflight_fills(self.now) as u32,
                tlb_queue: self.translator.queue_depth(self.now) as u32,
            };
            self.rec.sample(self.now.0, &occupancy);
        }
    }

    /// Attributes a non-issuing cycle to the single most specific cause,
    /// in fixed priority order: direct in-cycle evidence (a rejected
    /// translation, a blocking walk, a rejected cache access) beats
    /// structural back-pressure (full ROB/LSQ), which beats the default
    /// dependence-stall bucket. Reads engine state only.
    fn classify_stall(&self) -> StallCause {
        if self.obs.tlb_retry {
            return StallCause::TlbPort;
        }
        if self.obs.walk_wait || self.spec_tlb_miss_stall || self.now < self.dispatch_stall_until {
            return StallCause::TlbWalk;
        }
        if self.obs.dcache_noport {
            return StallCause::DcachePort;
        }
        if self.rob_len == 0 {
            return StallCause::FetchStarved;
        }
        if (0..self.rob_len)
            .map(|i| self.slot(i))
            .any(|s| s.dmiss && s.state == State::Complete && s.finish > self.now)
        {
            return StallCause::DcacheMiss;
        }
        if self.rob_len == self.cfg.rob_entries {
            return StallCause::RobFull;
        }
        if self.lsq_occupancy == self.cfg.lsq_entries {
            return StallCause::LsqFull;
        }
        if self.now < self.fetch_stall_until {
            return StallCause::FetchStarved;
        }
        StallCause::NoReadyOp
    }

    /// The `idx`-th oldest live slot (`idx < rob_len`).
    ///
    /// # Panics
    /// If `idx` names a ring position no [`Self::push_slot`] ever
    /// touched — a broken live-window invariant.
    #[inline(always)]
    fn slot(&self, idx: usize) -> &Slot {
        debug_assert!(idx < self.rob_len);
        &self.rob[(self.front_id as usize).wrapping_add(idx) & self.rob_mask]
    }

    /// Mutable access to the `idx`-th oldest live slot.
    ///
    /// # Panics
    /// Same live-window invariant as [`Self::slot`].
    #[inline(always)]
    fn slot_mut(&mut self, idx: usize) -> &mut Slot {
        debug_assert!(idx < self.rob_len);
        &mut self.rob[(self.front_id as usize).wrapping_add(idx) & self.rob_mask]
    }

    /// Appends a slot at the back of the live window (caller guarantees
    /// the window is not full). First touch of a ring position grows the
    /// vector; afterwards the position is overwritten in place.
    ///
    /// # Panics
    /// If the window is already full, the wrapped position skips past
    /// the vector's end — callers check occupancy first.
    #[inline(always)]
    fn push_slot(&mut self, s: Slot) {
        let pos = (self.front_id as usize).wrapping_add(self.rob_len) & self.rob_mask;
        if pos == self.rob.len() {
            self.rob.push(s);
        } else {
            self.rob[pos] = s;
        }
        self.rob_len += 1;
    }

    /// The live slot with ROB id `id`, or `None` when it is not live.
    ///
    /// # Panics
    /// Same live-window invariant as [`Self::slot`]: a live id's ring
    /// position must have been pushed.
    #[inline(always)]
    fn slot_by_id(&self, id: u64) -> Option<&Slot> {
        if id < self.front_id || id - self.front_id >= self.rob_len as u64 {
            return None;
        }
        Some(&self.rob[id as usize & self.rob_mask])
    }

    /// Clears the active-mask bit when `rob[idx]` completes.
    #[inline(always)]
    fn clear_active(&mut self, idx: usize) {
        self.active &= !(1u128 << idx);
    }

    // ---- sleep/wake scheduling ------------------------------------------

    /// Sleeping applies to out-of-order issue, observed or not. In-order
    /// issue pivots on its oldest waiting slot anyway, so it keeps the
    /// full scan. A recorder loses nothing to sleeping: the one probe a
    /// sleeping slot's visit would have raised (`walk_wait`) is taken
    /// from `walk_sleepers` at the start of [`Self::issue`].
    #[inline(always)]
    fn sleep_enabled(&self) -> bool {
        self.cfg.issue_model == IssueModel::OutOfOrder
    }

    /// Schedules a wake for slot `id` at cycle `at` (clamped into the
    /// wheel horizon — an early wake is merely spurious).
    #[inline(always)]
    fn schedule_wake(&mut self, id: u64, at: Cycle) {
        debug_assert!(at > self.now, "wake scheduled in the past");
        let at = at.min(self.now + 255);
        // hbat-lint: allow(panic-reach) index masked to the wheel's fixed 256 buckets
        self.wheel[(at.0 & 255) as usize] |= 1u128 << ((id & 127) as u32);
    }

    /// Wakes every slot whose wheel bucket matured this cycle.
    fn drain_wheel(&mut self) {
        // hbat-lint: allow(panic-reach) index masked to the wheel's fixed 256 buckets
        let mut bucket = std::mem::replace(&mut self.wheel[(self.now.0 & 255) as usize], 0);
        if (self.asleep | self.walk_sleepers) == 0 {
            // Nothing is asleep: the bucket holds only stale bits from
            // slots already woken by other paths. Clearing it suffices.
            return;
        }
        while bucket != 0 {
            let low = bucket.trailing_zeros() as u64;
            bucket &= bucket - 1;
            // Reconstruct the id from its low 7 bits: live ids span less
            // than 128, so the offset from `front_id` is unambiguous.
            let idx = ((low + 128 - (self.front_id & 127)) & 127) as usize;
            if idx < self.rob_len {
                let bit = 1u128 << idx;
                self.asleep &= !bit;
                self.walk_sleepers &= !bit;
            }
        }
    }

    /// Wakes slot `id` immediately, folding it into the current issue
    /// pass (no-op if it is not a live sleeping slot).
    #[inline(always)]
    fn wake_id_now(&mut self, id: u64) {
        if id < self.front_id {
            return;
        }
        let idx = (id - self.front_id) as usize;
        if idx >= self.rob_len {
            return;
        }
        let bit = 1u128 << idx;
        self.asleep &= !bit;
        self.walk_sleepers &= !bit;
        self.pass_wake |= bit;
    }

    /// Wakes every walk-blocked sleeper: a walk just entered the walk
    /// table, and any of them might share it.
    fn wake_walk_sleepers(&mut self) {
        let b = self.walk_sleepers;
        self.asleep &= !b;
        self.walk_sleepers = 0;
        self.pass_wake |= b;
    }

    /// Adds `consumer_id` to the producer's waiter list. Returns false
    /// (caller must stay awake and poll) if the list is full or the
    /// producer is not a live slot.
    ///
    /// # Panics
    /// Same live-window invariant as [`Self::slot`]: a live producer's
    /// ring position must have been pushed.
    #[inline(always)]
    fn register_waiter(&mut self, producer_id: u64, consumer_id: u64, kind: WaiterKind) -> bool {
        if producer_id < self.front_id || producer_id - self.front_id >= self.rob_len as u64 {
            return false;
        }
        let mask = self.rob_mask;
        let slot = &mut self.rob[producer_id as usize & mask];
        let n = slot.n_waiters as usize;
        if n == MAX_WAITERS {
            return false;
        }
        slot.waiters[n] = pack_waiter(consumer_id - producer_id, kind);
        slot.n_waiters = n as u8 + 1;
        true
    }

    /// Puts `rob[idx]` to sleep per `verdict` (when the verdict admits
    /// it): a known wake time goes on the wheel, an awaited transition
    /// registers with the producer. Call only when sleeping is enabled.
    #[inline(always)]
    fn sleep_slot(&mut self, idx: usize, verdict: Verdict) {
        match verdict {
            Verdict::Until(at) => {
                let id = self.slot(idx).id;
                self.schedule_wake(id, at);
                self.asleep |= 1u128 << idx;
            }
            Verdict::On(pid, kind) => {
                let cid = self.slot(idx).id;
                if self.register_waiter(pid, cid, kind) {
                    self.asleep |= 1u128 << idx;
                }
            }
            Verdict::Ready => {}
        }
    }

    /// Producer transition hook: `rob[idx]` just left `Waiting` for
    /// `Translated`. Address-event waiters wake now, post-increment
    /// waiters at the (just fixed) writeback time; value waiters keep
    /// waiting for completion.
    ///
    /// # Panics
    /// If a slot reports more than `MAX_WAITERS` waiters — the count is
    /// capped at registration, so this is a corrupted slot.
    #[inline(always)]
    fn on_translated(&mut self, idx: usize) {
        if !self.sleep_enabled() || self.slot(idx).n_waiters == 0 {
            return;
        }
        let (pid, aux_finish, list, n) = {
            let s = self.slot(idx);
            (s.id, s.aux_finish, s.waiters, s.n_waiters as usize)
        };
        let mut kept = [0u16; MAX_WAITERS];
        let mut k = 0;
        for &w in &list[..n] {
            let (delta, kind) = unpack_waiter(w);
            match kind {
                WaiterKind::Value => {
                    kept[k] = w;
                    k += 1;
                }
                WaiterKind::Aux => self.schedule_wake(pid + delta, aux_finish),
                WaiterKind::Event => self.wake_id_now(pid + delta),
            }
        }
        let s = self.slot_mut(idx);
        s.waiters = kept;
        s.n_waiters = k as u8;
    }

    /// Producer transition hook: `rob[idx]` just completed with result
    /// time `finish`. Value (and post-increment) waiters wake when the
    /// result is readable; event waiters wake within this pass.
    ///
    /// # Panics
    /// Same capped-waiter-count invariant as [`Self::on_translated`].
    #[inline(always)]
    fn on_completed(&mut self, idx: usize, finish: Cycle) {
        if !self.sleep_enabled() || self.slot(idx).n_waiters == 0 {
            return;
        }
        let (pid, list, n) = {
            let s = self.slot(idx);
            (s.id, s.waiters, s.n_waiters as usize)
        };
        for &w in &list[..n] {
            let (delta, kind) = unpack_waiter(w);
            match kind {
                WaiterKind::Value | WaiterKind::Aux => self.schedule_wake(pid + delta, finish),
                WaiterKind::Event => self.wake_id_now(pid + delta),
            }
        }
        self.slot_mut(idx).n_waiters = 0;
    }

    /// One producer's readiness as a [`Verdict`] — the sleep-aware
    /// refinement of [`Self::value_ready`] (Ready ⇔ `value_ready`).
    #[inline(always)]
    fn dep_verdict(&self, producer: u32) -> Verdict {
        if producer == PROD_NONE {
            return Verdict::Ready;
        }
        let (id, aux) = unpack_producer(producer);
        let Some(slot) = self.slot_by_id(id) else {
            return Verdict::Ready; // producer already committed
        };
        if aux {
            if slot.state == State::Waiting {
                Verdict::On(id, WaiterKind::Aux)
            } else if slot.aux_finish <= self.now {
                Verdict::Ready
            } else {
                Verdict::Until(slot.aux_finish)
            }
        } else if slot.state == State::Complete {
            if slot.finish <= self.now {
                Verdict::Ready
            } else {
                Verdict::Until(slot.finish)
            }
        } else {
            Verdict::On(id, WaiterKind::Value)
        }
    }

    /// Readiness of `rob[idx]`'s operands (all three, or only the
    /// address-generation subset), folded into one verdict: Ready iff
    /// every operand is ready; otherwise the first awaited transition,
    /// or the latest known ready time.
    #[inline(always)]
    fn deps_verdict(&mut self, idx: usize, addr_only: bool) -> Verdict {
        let producers = self.slot(idx).producers;
        if producers == [PROD_NONE; 3] {
            // Common after pruning: every operand was architected or has
            // already been seen ready, so skip the mask computation too.
            return Verdict::Ready;
        }
        let mask = if addr_only {
            self.slot(idx).t.addr_src_mask
        } else {
            0b111
        };
        let mut until: Option<Cycle> = None;
        let mut prune = 0u8;
        let mut on = None;
        for (i, &p) in producers.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            match self.dep_verdict(p) {
                // Readiness is monotone, so a producer seen ready is pruned
                // in place: re-evaluations of this slot skip the ROB probe.
                Verdict::Ready => prune |= 1 << i,
                Verdict::Until(at) => until = Some(until.map_or(at, |u| u.max(at))),
                v @ Verdict::On(..) => {
                    on = Some(v);
                    break;
                }
            }
        }
        if prune != 0 {
            let slot = self.slot_mut(idx);
            for i in 0..3 {
                if prune & (1 << i) != 0 {
                    // hbat-lint: allow(panic-reach) producers is a fixed 3-element array
                    slot.producers[i] = PROD_NONE;
                }
            }
        }
        if let Some(v) = on {
            return v;
        }
        match until {
            Some(at) => Verdict::Until(at),
            None => Verdict::Ready,
        }
    }

    /// Is the value produced by `producer` available now?
    #[inline(always)]
    fn value_ready(&self, producer: u32) -> bool {
        if producer == PROD_NONE {
            return true;
        }
        let (id, aux) = unpack_producer(producer);
        let Some(slot) = self.slot_by_id(id) else {
            return true; // producer already committed
        };
        if aux {
            // Post-increment writeback: ready once address generation ran.
            slot.state != State::Waiting && slot.aux_finish <= self.now
        } else {
            slot.state == State::Complete && slot.finish <= self.now
        }
    }

    // ---- squash ---------------------------------------------------------

    /// If the active misprediction has resolved, squash everything younger
    /// than the branch and redirect fetch.
    fn maybe_squash(&mut self) -> bool {
        let Some(epoch) = &self.spec else {
            return false;
        };
        let Some(squash_at) = epoch.squash_at else {
            return false;
        };
        if squash_at > self.now {
            return false;
        }
        let branch_id = epoch.branch_id;
        let keep = (branch_id - self.front_id + 1) as usize;
        while self.rob_len > keep {
            let s = self.slot(self.rob_len - 1);
            debug_assert!(s.phantom, "squashed a non-phantom slot");
            let is_mem = s.t.is_mem();
            if is_mem {
                self.lsq_occupancy -= 1;
            }
            self.metrics.squashed += 1;
            self.rob_len -= 1;
        }
        self.active &= low_mask(keep);
        // Sleep state for squashed slots dies with them. Survivors keep
        // sleeping soundly: their producers are older than they are, so
        // every registered waker survived too (a squashed id on the wheel
        // becomes at worst a spurious wake of whatever recycles it).
        self.asleep &= low_mask(keep);
        self.walk_sleepers &= low_mask(keep);
        while self.stores.back().is_some_and(|r| r.id > branch_id) {
            self.stores.pop_back();
        }
        // Squashed ids will be recycled: pull the completion frontier
        // back so it never vouches for a dead id's successor.
        self.done_through = self.done_through.min(branch_id + 1);
        // hbat-lint: allow(panic-reach) epoch presence checked at fn entry
        let epoch = self.spec.take().expect("epoch checked above");
        self.rename = epoch.rename_snapshot;
        // Squashed ids are recycled so ROB slot ids stay contiguous (the
        // restored rename map holds no reference to them).
        self.next_id = branch_id + 1;
        self.spec_tlb_miss_stall = false;
        self.fetch_stall_until = self
            .fetch_stall_until
            .max(squash_at + self.cfg.mispredict_penalty);
        true
    }

    // ---- commit stage ---------------------------------------------------

    /// Retires completed slots in program order, charging commit-port
    /// and store-port limits.
    ///
    /// # Panics
    /// If a committing store is missing from the store mirror — the
    /// mirror tracks every live store by construction.
    fn commit(&mut self) -> bool {
        let mut n = 0;
        while n < self.cfg.width {
            if self.rob_len == 0 {
                break;
            }
            let head = self.slot(0);
            debug_assert!(!head.phantom, "phantom at commit: squash failed");
            if head.state != State::Complete || head.finish > self.now {
                break;
            }
            let class = head.t.class;
            if class == OpClass::Store {
                // Committed stores write the data cache; they need a port.
                let pa = self
                    .translator
                    .geometry()
                    .splice(head.ppn, VirtAddr(head.t.vaddr));
                match self.dcache.access(pa, true) {
                    CacheAccess::Served { was_miss, .. } => {
                        if R::ENABLED {
                            self.rec.dcache_access(self.now.0, !was_miss);
                        }
                    }
                    CacheAccess::NoPort => {
                        if R::ENABLED {
                            self.obs.dcache_noport = true;
                            self.rec.port_conflict(self.now.0, PortResource::Dcache);
                        }
                        break;
                    }
                }
                self.metrics.stores += 1;
                let rec = self.stores.pop_front().expect("committed store unmirrored");
                debug_assert_eq!(rec.id, self.front_id);
            } else if class == OpClass::Load {
                self.metrics.loads += 1;
            }
            if class.is_mem() {
                self.lsq_occupancy -= 1;
            }
            self.rob_len -= 1;
            self.front_id += 1;
            // The head was Complete, so bit 0 is clear; the shifts keep
            // the masks aligned with the shortened ROB. (A completed slot
            // is never asleep, so bit 0 of `asleep` is clear too.)
            self.active >>= 1;
            self.asleep >>= 1;
            self.walk_sleepers >>= 1;
            n += 1;
        }
        if R::ENABLED && n > 0 {
            self.rec.commit_cycle(self.now.0, n as u32);
        }
        n > 0
    }

    // ---- issue/execute stage --------------------------------------------

    fn issue(&mut self) -> bool {
        let mut progressed = false;
        let mut issue_slots = self.cfg.width;
        let in_order = self.cfg.issue_model == IssueModel::InOrder;
        let use_sleep = self.sleep_enabled();
        if R::ENABLED && self.walk_sleepers != 0 {
            // A full scan would visit each of these sleepers and find
            // it sitting on its pending walk; the evidence is the same.
            self.obs.walk_wait = true;
        }
        // Snapshot of the not-yet-complete slots: the legacy loop visited
        // every ROB index and `continue`d the completed ones; walking the
        // set bits visits exactly the remainder, in the same ascending
        // order. Work done inside the loop only completes the visited
        // slot itself, so the snapshot never goes stale for later bits.
        //
        // With sleeping enabled, slots whose blocking condition provably
        // cannot have changed are skipped as well. Skipping is sound
        // because their evaluation would return false with no side
        // effects; same-pass wakes (`pass_wake`) are folded back in so a
        // producer completing mid-pass can still unblock a younger
        // sleeper this cycle, exactly as the full scan would.
        let mut pending = if use_sleep {
            self.active & !self.asleep
        } else {
            self.active
        };
        self.pass_wake = 0;
        let mut last_idx = 0usize;
        loop {
            if use_sleep && self.pass_wake != 0 {
                // Only bits younger than the slot just processed: the
                // legacy scan never revisits an index within a pass.
                pending |= self.pass_wake & !low_mask(last_idx + 1);
                self.pass_wake = 0;
            }
            if pending == 0 || issue_slots == 0 {
                break;
            }
            let idx = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            last_idx = idx;
            match self.slot(idx).state {
                State::Complete => continue,
                State::Translated => {
                    // Phase 2 does not consume an issue slot.
                    if self.try_complete_mem(idx) {
                        progressed = true;
                    }
                    continue;
                }
                State::Waiting => {}
            }
            if self.try_issue(idx, in_order) {
                progressed = true;
                issue_slots -= 1;
                self.metrics.issued += 1;
                // Mem ops that just translated may finish the same cycle.
                if self.slot(idx).state == State::Translated {
                    self.try_complete_mem(idx);
                }
            } else if in_order {
                break; // in-order issue: an unissued op blocks younger ones
            }
        }
        progressed
    }

    /// Phase 1: operands/FU/translation. Returns true on any state change.
    fn try_issue(&mut self, idx: usize, in_order: bool) -> bool {
        let (class, is_mem) = {
            let s = self.slot(idx);
            (s.t.class, s.t.is_mem())
        };

        // Operand readiness: memory ops need address operands only in
        // phase 1 — except under in-order issue, where every operand
        // (store data included) must be ready before issue.
        let verdict = self.deps_verdict(idx, is_mem && !in_order);
        if verdict != Verdict::Ready {
            if self.sleep_enabled() {
                self.sleep_slot(idx, verdict);
            }
            return false;
        }
        // In-order issue has no renaming: stall on WAW hazards.
        if in_order && !self.value_ready(self.slot(idx).waw) {
            return false;
        }
        if !self.fus.can_issue(class) {
            return false;
        }

        if is_mem {
            return self.try_issue_mem(idx);
        }

        // Plain operation.
        let finish = self.fus.issue(class);
        let slot = self.slot_mut(idx);
        slot.state = State::Complete;
        slot.finish = finish;
        slot.aux_finish = finish;
        let mispredicted = slot.mispredicted;
        let slot_id = slot.id;
        self.clear_active(idx);
        self.on_completed(idx, finish);
        if mispredicted {
            // Branch resolved: everything younger dies at `finish`.
            if let Some(epoch) = &mut self.spec {
                if epoch.branch_id == slot_id {
                    epoch.squash_at = Some(finish);
                }
            }
        }
        true
    }

    /// Address generation + translation for a load or store.
    ///
    /// # Panics
    /// If a walk latency overflows `u32` (cycle arithmetic gone wrong)
    /// or a translated store is missing from the store mirror.
    fn try_issue_mem(&mut self, idx: usize) -> bool {
        let (serial, phantom, t) = {
            let s = self.slot(idx);
            (s.t.serial, s.phantom, s.t)
        };
        // Apply pretranslation register writebacks in program order up to
        // this instruction (only the pretranslation design queues any).
        if self.track_wb {
            self.drain_writebacks(serial);
        }
        let bc = t.base_reg;
        let req = TranslateRequest {
            vaddr: VirtAddr(t.vaddr),
            kind: t.mem_kind(),
            base_reg: (bc != 0).then_some(bc),
            offset: t.offset,
            serial,
        };
        let outcome = self.translator.translate(&req);
        let addr_ready = match outcome {
            Outcome::Retry => {
                // The address-generation unit did its work even though the
                // translator had no port: the retry next cycle goes through
                // an AGU again, so port contention also burns load/store
                // unit bandwidth.
                self.fus.issue(t.class);
                self.metrics.translation_retries += 1;
                if R::ENABLED {
                    self.obs.tlb_retry = true;
                    self.rec.port_conflict(self.now.0, PortResource::Tlb);
                }
                return false;
            }
            Outcome::Hit { ppn, extra_latency } => {
                if R::ENABLED {
                    self.rec.tlb_lookup(self.now.0, true);
                }
                self.slot_mut(idx).ppn = ppn;
                self.now + extra_latency
            }
            Outcome::Miss { ppn, ready_at } => {
                if R::ENABLED {
                    self.rec.tlb_lookup(self.now.0, false);
                }
                self.slot_mut(idx).ppn = ppn;
                if phantom {
                    // Speculative TLB misses are not permitted: dispatch
                    // stalls until this instruction is squashed.
                    self.spec_tlb_miss_stall = true;
                    ready_at
                } else {
                    // Non-speculative miss: the walk is charged only after
                    // earlier-issued instructions complete (Table 1), so
                    // record its latency and defer it to phase 2.
                    let walk = u32::try_from(ready_at.since(self.now))
                        .ok()
                        .and_then(std::num::NonZeroU32::new)
                        .expect("walk latency out of range");
                    self.slot_mut(idx).pending_walk = Some(walk);
                    self.now // placeholder; fixed when the walk starts
                }
            }
        };
        if phantom {
            self.metrics.wrong_path_translations += 1;
        }
        self.metrics.issued_mem += 1;
        let finish_agu = self.fus.issue(t.class);
        let now = self.now;
        let slot = self.slot_mut(idx);
        slot.addr_ready = addr_ready;
        slot.aux_finish = finish_agu; // post-increment writeback
        slot.state = State::Translated;
        slot.translated_at = now;
        if t.class == OpClass::Store {
            let id = slot.id;
            let rec = self
                .stores
                .iter_mut()
                .rev()
                .find(|r| r.id == id)
                .expect("translated store unmirrored");
            rec.state = State::Translated;
        }
        self.on_translated(idx);
        true
    }

    /// Everything older than `rob[idx]` complete with results available?
    ///
    /// Uses the monotone completion frontier instead of rescanning the
    /// ROB prefix: a done slot stays done (completion times are strictly
    /// in the future), so the frontier only ever advances — each slot is
    /// inspected O(1) times per run instead of once per waiting cycle.
    /// On failure the error names the frontier slot blocking progress,
    /// as a sleep verdict: wake when it finishes (if complete but not
    /// yet readable) or when it completes (via its waiter list).
    fn older_done(&mut self, idx: usize) -> Result<(), Verdict> {
        let target = self.front_id + idx as u64;
        let mut p = self.done_through.max(self.front_id);
        while p < target {
            let s = self.slot((p - self.front_id) as usize);
            if s.state == State::Complete && s.finish <= self.now {
                p += 1;
            } else {
                let verdict = if s.state == State::Complete {
                    Verdict::Until(s.finish)
                } else {
                    Verdict::On(s.id, WaiterKind::Value)
                };
                self.done_through = p;
                return Err(verdict);
            }
        }
        self.done_through = p;
        Ok(())
    }

    /// Is the address of every store older than slot `my_id` known
    /// (issued at least to `Translated`)? On failure returns the id of
    /// the oldest still-waiting store.
    fn older_stores_known(&self, my_id: u64) -> Result<(), u64> {
        for r in &self.stores {
            if r.id >= my_id {
                break;
            }
            if r.state == State::Waiting {
                return Err(r.id);
            }
        }
        Ok(())
    }

    /// Phase 2: complete a translated load (cache or forward) or store
    /// (data ready). Returns true on completion.
    ///
    /// # Panics
    /// If called on a non-memory op, or a completing store is missing
    /// from the store mirror.
    fn try_complete_mem(&mut self, idx: usize) -> bool {
        // A deferred TLB-miss walk starts only once every older
        // instruction has completed; dispatch stays stalled meanwhile. A
        // request that piggybacked on another request's translation shares
        // that request's walk rather than paying a second one.
        if let Some(walk) = self.slot(idx).pending_walk {
            let walk = u64::from(walk.get());
            if R::ENABLED {
                self.obs.walk_wait = true;
            }
            let vpn = self
                .translator
                .geometry()
                .vpn(VirtAddr(self.slot(idx).t.vaddr))
                .0;
            let shared = self
                .walk_done
                .get(vpn)
                .filter(|&done| done >= self.slot(idx).translated_at);
            if let Some(done) = shared {
                let now = self.now;
                let s = self.slot_mut(idx);
                s.pending_walk = None;
                s.addr_ready = done.max(now);
            } else {
                if let Err(verdict) = self.older_done(idx) {
                    if self.sleep_enabled() {
                        self.sleep_slot(idx, verdict);
                        if self.asleep & (1u128 << idx) != 0 {
                            // A walk entering the table can unblock this
                            // slot early (walk sharing), independent of
                            // the frontier blocker it sleeps on.
                            self.walk_sleepers |= 1u128 << idx;
                        }
                    }
                    return false;
                }
                let ready_at = self.now + walk;
                let s = self.slot_mut(idx);
                s.pending_walk = None;
                s.addr_ready = ready_at;
                self.walk_done.insert(vpn, ready_at);
                // Every walk-blocked sleeper might share this walk: wake
                // them all for a (possibly spurious) re-check.
                self.wake_walk_sleepers();
                if R::ENABLED {
                    self.rec.walk(self.now.0, vpn, walk);
                }
                if ready_at > self.dispatch_stall_until {
                    self.metrics.tlb_dispatch_stall_cycles +=
                        ready_at - self.dispatch_stall_until.max(self.now);
                    self.dispatch_stall_until = ready_at;
                }
            }
        }
        let slot = self.slot(idx);
        let my_id = slot.id;
        match slot.t.class {
            OpClass::Store => {
                let verdict = self.deps_verdict(idx, false);
                if verdict != Verdict::Ready {
                    if self.sleep_enabled() {
                        self.sleep_slot(idx, verdict);
                    }
                    return false;
                }
                let finish = self.slot(idx).addr_ready.max(self.now + 1);
                let s = self.slot_mut(idx);
                s.state = State::Complete;
                s.finish = finish;
                self.clear_active(idx);
                let rec = self
                    .stores
                    .iter_mut()
                    .rev()
                    .find(|r| r.id == my_id)
                    .expect("completed store unmirrored");
                rec.state = State::Complete;
                rec.finish = finish;
                self.on_completed(idx, finish);
                true
            }
            OpClass::Load => {
                // Loads execute only once every older store address is
                // known. A still-waiting store's next transition (its
                // translation) is an address-known event, so sleep on it
                // as an event waiter: the wake lands in the same pass,
                // where the legacy scan would also have seen it.
                if let Err(blocker) = self.older_stores_known(my_id) {
                    if self.sleep_enabled() {
                        self.sleep_slot(idx, Verdict::On(blocker, WaiterKind::Event));
                    }
                    return false;
                }
                // Store-to-load forwarding from the youngest older store
                // overlapping this access (the mirror holds exactly the
                // in-flight stores, in program order).
                let slot = self.slot(idx);
                let lo = slot.t.vaddr;
                let hi = lo + slot.t.width.bytes();
                let forward = self
                    .stores
                    .iter()
                    .rev()
                    .filter(|r| r.id < my_id)
                    .find(|r| r.lo < hi && lo < r.hi)
                    .map(|r| (r.id, r.state, r.finish));
                let addr_ready = slot.addr_ready;
                if let Some((st_id, state, st_finish)) = forward {
                    if state != State::Complete {
                        // Wait for the store's data: completion can make
                        // this load finish within the same pass, so this
                        // too is an event wait.
                        if self.sleep_enabled() {
                            self.sleep_slot(idx, Verdict::On(st_id, WaiterKind::Event));
                        }
                        return false;
                    }
                    let finish = addr_ready.max(st_finish).max(self.now) + 1;
                    let s = self.slot_mut(idx);
                    s.state = State::Complete;
                    s.finish = finish;
                    self.clear_active(idx);
                    self.on_completed(idx, finish);
                    return true;
                }
                // Cache access (physically tagged; TLB overlap means only
                // `addr_ready` beyond `now` adds latency).
                let pa = self
                    .translator
                    .geometry()
                    .splice(slot.ppn, VirtAddr(slot.t.vaddr));
                match self.dcache.access(pa, false) {
                    CacheAccess::Served { data_at, was_miss } => {
                        if R::ENABLED {
                            self.rec.dcache_access(self.now.0, !was_miss);
                        }
                        let finish = data_at + addr_ready.since(self.now);
                        let s = self.slot_mut(idx);
                        s.state = State::Complete;
                        s.finish = finish;
                        s.dmiss = was_miss;
                        self.clear_active(idx);
                        self.on_completed(idx, finish);
                        true
                    }
                    CacheAccess::NoPort => {
                        // A per-cycle port-bandwidth limit, not a slot
                        // condition: stay awake and retry next cycle.
                        if R::ENABLED {
                            self.obs.dcache_noport = true;
                            self.rec.port_conflict(self.now.0, PortResource::Dcache);
                        }
                        false
                    }
                }
            }
            _ => unreachable!("try_complete_mem on a non-memory op"),
        }
    }

    /// Feeds queued register writebacks (older than `up_to_serial`) to
    /// the translator's attachment tracker in program order.
    ///
    /// # Panics
    /// The front pop and the source-register copy are bounds-checked by
    /// construction; a panic means a corrupted writeback record.
    fn drain_writebacks(&mut self, up_to_serial: u64) {
        while self
            .pending_wb
            .front()
            .map(|w| w.serial < up_to_serial)
            .unwrap_or(false)
        {
            let w = self.pending_wb.pop_front().expect("checked non-empty");
            let mut srcs = [0u8; 3];
            let mut n = 0;
            for &s in w.srcs.iter().flatten() {
                srcs[n] = s;
                n += 1;
            }
            self.translator.note_writeback(w.dest, &srcs[..n], w.kind);
        }
    }

    // ---- fetch/dispatch stage --------------------------------------------

    /// Fetches up to one dispatch group from the window (committed or
    /// phantom stream) and enqueues it.
    ///
    /// # Panics
    /// If phantom mode is entered without a speculation epoch — a
    /// broken fetch invariant.
    fn dispatch(&mut self) -> bool {
        if self.now < self.fetch_stall_until
            || self.now < self.dispatch_stall_until
            || self.spec_tlb_miss_stall
        {
            return false;
        }
        let phantom_mode = self.spec.is_some();
        if phantom_mode && self.spec.as_ref().map(|e| e.fetch_stopped).unwrap_or(false) {
            return false;
        }
        let mut ptr = if phantom_mode {
            self.spec.as_ref().expect("phantom mode").phantom_ptr
        } else {
            self.next_fetch
        };
        let mut fetched = 0usize;
        let mut branches = 0usize;
        let mut block: Option<u64> = None;
        while fetched < self.cfg.width {
            if self.rob_len == self.cfg.rob_entries {
                break;
            }
            // Static fields are read from the op's template; the whole
            // op is rebuilt below, for its ROB slot.
            let Some(r) = self.window.get(ptr, self.next_fetch) else {
                break;
            };
            let t = r.template;
            if t.is_mem() && self.lsq_occupancy == self.cfg.lsq_entries {
                break;
            }
            // Fetch-group rule: all instructions from one I-cache block.
            let iblock = (t.pc as u64 * 4) >> self.iblock_shift;
            match block {
                None => {
                    // First instruction: access the I-cache for the block.
                    let pa = hbat_core::addr::PhysAddr(t.pc as u64 * 4);
                    match self.icache.access(pa, false) {
                        CacheAccess::Served { data_at, was_miss } => {
                            if was_miss {
                                self.fetch_stall_until = data_at;
                                break;
                            }
                        }
                        CacheAccess::NoPort => {
                            if R::ENABLED {
                                self.rec.port_conflict(self.now.0, PortResource::Icache);
                            }
                            break;
                        }
                    }
                    block = Some(iblock);
                }
                Some(b) if b != iblock => break,
                Some(_) => {}
            }

            // Branch handling.
            let mut end_group = false;
            let mut mispredicted = false;
            if let Some(br) = t.branch() {
                if branches == self.cfg.fetch_branches {
                    break; // prediction bandwidth exhausted
                }
                branches += 1;
                // The direction is the op's, not the template's.
                let taken = r.taken;
                if br.conditional {
                    if phantom_mode {
                        // Phantom branches consult but never train the
                        // predictor; a second misprediction ends the
                        // speculative fetch stream.
                        if self.bpred.predict(t.pc) != taken {
                            self.spec.as_mut().expect("phantom mode").fetch_stopped = true;
                            end_group = true;
                        }
                    } else {
                        self.metrics.cond_branches += 1;
                        let correct = self.bpred.update(t.pc, taken);
                        if correct {
                            self.metrics.bpred_correct += 1;
                        } else {
                            mispredicted = true;
                            end_group = true;
                        }
                    }
                }
                if !mispredicted && taken {
                    // Redirect within the same block may continue (the
                    // collapsing buffer); otherwise the group ends.
                    let tblock = (br.target as u64 * 4) >> self.iblock_shift;
                    if Some(tblock) != block {
                        end_group = true;
                    }
                }
            }

            let op = r.uop();
            self.enqueue(op, phantom_mode, mispredicted);
            ptr += 1;
            fetched += 1;
            if mispredicted {
                // Enter wrong-path mode: younger fetches are phantoms of
                // the upcoming stream, squashed when the branch resolves.
                self.spec = Some(SpecEpoch {
                    branch_id: self.next_id - 1,
                    phantom_ptr: ptr,
                    rename_snapshot: self.rename,
                    fetch_stopped: false,
                    squash_at: None,
                });
                self.next_fetch = ptr;
                return true;
            }
            if end_group {
                break;
            }
        }
        if phantom_mode {
            self.spec.as_mut().expect("phantom mode").phantom_ptr = ptr;
        } else {
            self.next_fetch = ptr;
        }
        fetched > 0
    }

    /// Allocates a ROB slot for `t`, recording producers and updating the
    /// rename map and the pretranslation writeback queue.
    ///
    /// # Panics
    /// If an operand register code exceeds the rename map — a broken
    /// trace invariant.
    ///
    /// Force-inlined into its single call site (the dispatch loop):
    /// out-of-line, every call marshals the op record by value and the
    /// slot is built on the stack before being copied into the ring.
    #[inline(always)]
    fn enqueue(&mut self, t: MicroOp, phantom: bool, mispredicted: bool) {
        let srcs = t.srcs;
        // Producers already readable at dispatch are pruned to the "no
        // producer" sentinel: readiness is monotone (a completed value
        // never becomes un-ready), so the issue stage would find them
        // ready on every visit anyway — pruning here makes each one a
        // single compare per visit instead of a slot probe.
        let mut producers = [PROD_NONE; 3];
        for (i, &c) in srcs.iter().enumerate() {
            if c != NO_REG {
                let p = self.rename[c as usize];
                if !self.value_ready(p) {
                    producers[i] = p;
                }
            }
        }
        let dest = t.dest;
        let aux = t.aux_dest;
        let waw = if dest != NO_REG {
            let p = self.rename[dest as usize];
            if self.value_ready(p) {
                PROD_NONE
            } else {
                p
            }
        } else {
            PROD_NONE
        };
        let id = self.next_id;
        self.next_id += 1;
        if dest != NO_REG {
            self.rename[dest as usize] = pack_producer(id, false);
        }
        if aux != NO_REG {
            self.rename[aux as usize] = pack_producer(id, true);
        }
        // Pretranslation bookkeeping — committed path only (wrong-path
        // writebacks would corrupt the program-order attachment stream),
        // and only for designs that actually listen.
        if self.track_wb && !phantom {
            if dest != NO_REG {
                let mut wsrcs = [None; 3];
                for (i, &c) in srcs.iter().enumerate() {
                    if c != NO_REG {
                        wsrcs[i] = Some(c);
                    }
                }
                self.pending_wb.push_back(PendingWb {
                    serial: t.serial,
                    dest,
                    srcs: wsrcs,
                    kind: t.dest_kind(),
                });
            }
            if aux != NO_REG {
                self.pending_wb.push_back(PendingWb {
                    serial: t.serial,
                    dest: aux,
                    srcs: [Some(aux), None, None],
                    kind: WritebackKind::PointerArith,
                });
            }
        }
        if t.is_mem() {
            self.lsq_occupancy += 1;
        }
        if t.class == OpClass::Store {
            let lo = t.vaddr;
            self.stores.push_back(StoreRec {
                id,
                lo,
                hi: lo + t.width.bytes(),
                state: State::Waiting,
                finish: Cycle::ZERO,
            });
        }
        self.push_slot(Slot {
            id,
            t,
            phantom,
            state: State::Waiting,
            finish: Cycle::ZERO,
            aux_finish: Cycle::ZERO,
            addr_ready: Cycle::ZERO,
            ppn: Ppn(0),
            producers,
            waw,
            mispredicted,
            pending_walk: None,
            translated_at: Cycle::ZERO,
            dmiss: false,
            waiters: [0; MAX_WAITERS],
            n_waiters: 0,
        });
        self.active |= 1u128 << (self.rob_len - 1);
    }
    // hbat-lint: cold
}
