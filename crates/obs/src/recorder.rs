//! The [`Recorder`] contract between the timing engine and any
//! observability sink, and the stall-attribution taxonomy.

/// Why a cycle issued no new operations. Exactly one cause is charged
/// per non-issuing cycle, by the engine's priority classifier (most
/// specific in-cycle evidence first; see DESIGN.md §10):
///
/// 1. [`TlbPort`](StallCause::TlbPort) — a translation request was
///    rejected for lack of a translator port this cycle;
/// 2. [`TlbWalk`](StallCause::TlbWalk) — a TLB miss is blocking: a
///    page-table walk is pending, in progress, or a speculative miss
///    has frozen dispatch until squash;
/// 3. [`DcachePort`](StallCause::DcachePort) — a data-cache access
///    found no free cache port this cycle;
/// 4. [`DcacheMiss`](StallCause::DcacheMiss) — an executed operation is
///    waiting on a data-cache fill;
/// 5. [`RobFull`](StallCause::RobFull) — dispatch blocked on a full
///    re-order buffer;
/// 6. [`LsqFull`](StallCause::LsqFull) — dispatch blocked on a full
///    load/store queue;
/// 7. [`FetchStarved`](StallCause::FetchStarved) — nothing to issue
///    because fetch is stalled (I-cache miss, redirect penalty) or the
///    window is empty;
/// 8. [`NoReadyOp`](StallCause::NoReadyOp) — work is in flight but no
///    operation has its operands and functional unit ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Translation request rejected: no translator port free.
    TlbPort,
    /// TLB miss: page-table walk pending/in progress, or a speculative
    /// miss froze dispatch.
    TlbWalk,
    /// Data-cache access rejected: no cache port free.
    DcachePort,
    /// Waiting on a data-cache fill.
    DcacheMiss,
    /// Re-order buffer full.
    RobFull,
    /// Load/store queue full.
    LsqFull,
    /// Fetch stalled or window empty.
    FetchStarved,
    /// In-flight work, but no operation ready to issue.
    NoReadyOp,
}

impl StallCause {
    /// Number of causes in the taxonomy.
    pub const COUNT: usize = 8;

    /// Every cause, in classifier priority order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::TlbPort,
        StallCause::TlbWalk,
        StallCause::DcachePort,
        StallCause::DcacheMiss,
        StallCause::RobFull,
        StallCause::LsqFull,
        StallCause::FetchStarved,
        StallCause::NoReadyOp,
    ];

    /// Stable dense index, for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable kebab-case name, used in tables and JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::TlbPort => "tlb-port",
            StallCause::TlbWalk => "tlb-walk",
            StallCause::DcachePort => "dcache-port",
            StallCause::DcacheMiss => "dcache-miss",
            StallCause::RobFull => "rob-full",
            StallCause::LsqFull => "lsq-full",
            StallCause::FetchStarved => "fetch-starved",
            StallCause::NoReadyOp => "no-ready-op",
        }
    }
}

/// A fixed-bandwidth resource whose per-cycle port conflicts are
/// observable events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortResource {
    /// A translator port (any design; `Outcome::Retry`).
    Tlb,
    /// A data-cache port.
    Dcache,
    /// The instruction-cache fetch port.
    Icache,
}

impl PortResource {
    /// Number of observable resources.
    pub const COUNT: usize = 3;

    /// Every resource, in index order.
    pub const ALL: [PortResource; PortResource::COUNT] = [
        PortResource::Tlb,
        PortResource::Dcache,
        PortResource::Icache,
    ];

    /// Stable dense index, for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name, used in tables and JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            PortResource::Tlb => "tlb",
            PortResource::Dcache => "dcache",
            PortResource::Icache => "icache",
        }
    }
}

/// Cycles between occupancy snapshots: the engine hands every enabled
/// recorder a [`sample`](Recorder::sample) on each cycle that is a
/// multiple of this.
pub const SAMPLE_INTERVAL: u64 = 64;

/// One occupancy snapshot, taken every [`SAMPLE_INTERVAL`] cycles: how
/// full the machine's queues are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancySample {
    /// Re-order buffer entries occupied.
    pub rob: u32,
    /// Load/store queue entries occupied.
    pub lsq: u32,
    /// Data-cache fills in flight (MSHR-equivalent occupancy).
    pub mshrs: u32,
    /// Translator-internal queue depth (busy banks / queued ports).
    pub tlb_queue: u32,
}

/// An observability sink the timing engine is generic over.
///
/// The engine calls exactly one of [`issue_cycle`](Recorder::issue_cycle)
/// or [`stall_cycle`](Recorder::stall_cycle) per simulated cycle, so
/// `issue cycles + Σ stall counts == total cycles` holds by
/// construction. All probes are `&mut self` reads of engine state —
/// a recorder must never influence the simulation.
///
/// [`ENABLED`](Recorder::ENABLED) is a `const`: with [`NullRecorder`]
/// the probes (and the classifier work feeding them) compile away
/// entirely, keeping the hot loop identical to an uninstrumented build.
pub trait Recorder {
    /// Statically known on/off switch; `false` compiles probes out.
    const ENABLED: bool;

    /// A cycle in which `issued` (> 0) new operations issued.
    fn issue_cycle(&mut self, now: u64, issued: u32) {
        let _ = (now, issued);
    }

    /// A cycle in which no operation issued, charged to `cause`.
    fn stall_cycle(&mut self, now: u64, cause: StallCause) {
        let _ = (now, cause);
    }

    /// A request found every port of `resource` busy this cycle.
    fn port_conflict(&mut self, now: u64, resource: PortResource) {
        let _ = (now, resource);
    }

    /// A page-table walk of `latency` cycles began for `vpn`.
    fn walk(&mut self, now: u64, vpn: u64, latency: u64) {
        let _ = (now, vpn, latency);
    }

    /// An occupancy snapshot (taken by the engine every
    /// [`SAMPLE_INTERVAL`] cycles).
    fn sample(&mut self, now: u64, occupancy: &OccupancySample) {
        let _ = (now, occupancy);
    }

    /// A cycle in which `committed` (> 0) operations retired.
    fn commit_cycle(&mut self, now: u64, committed: u32) {
        let _ = (now, committed);
    }

    /// A translation request was served (`Outcome::Hit`/`Outcome::Miss`).
    /// Port rejects are *not* lookups; they arrive via
    /// [`port_conflict`](Recorder::port_conflict) instead.
    fn tlb_lookup(&mut self, now: u64, hit: bool) {
        let _ = (now, hit);
    }

    /// A data-cache access was served (hit or fill started). Port
    /// rejects arrive via [`port_conflict`](Recorder::port_conflict).
    fn dcache_access(&mut self, now: u64, hit: bool) {
        let _ = (now, hit);
    }

    /// Whether this recorder has taken everything it will ever take.
    /// The engine checks it after each cycle and ends the run once it
    /// holds, so a recorder that measures a bounded span (a sampled
    /// window) stops the simulation there. Recorders that observe a
    /// whole run never finish.
    fn finished(&self) -> bool {
        false
    }
}

/// The do-nothing recorder: every probe is an empty `#[inline]` default
/// and `ENABLED` is `false`, so an engine instantiated with it is
/// bit-identical (and equally fast) to one with no instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
}

/// Delegation through a mutable borrow, so a caller can keep ownership
/// of a [`TraceRecorder`](crate::TraceRecorder) and read it back after
/// the engine (which takes its recorder by value) has run.
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    fn issue_cycle(&mut self, now: u64, issued: u32) {
        (**self).issue_cycle(now, issued);
    }

    fn stall_cycle(&mut self, now: u64, cause: StallCause) {
        (**self).stall_cycle(now, cause);
    }

    fn port_conflict(&mut self, now: u64, resource: PortResource) {
        (**self).port_conflict(now, resource);
    }

    fn walk(&mut self, now: u64, vpn: u64, latency: u64) {
        (**self).walk(now, vpn, latency);
    }

    fn sample(&mut self, now: u64, occupancy: &OccupancySample) {
        (**self).sample(now, occupancy);
    }

    fn commit_cycle(&mut self, now: u64, committed: u32) {
        (**self).commit_cycle(now, committed);
    }

    fn tlb_lookup(&mut self, now: u64, hit: bool) {
        (**self).tlb_lookup(now, hit);
    }

    fn dcache_access(&mut self, now: u64, hit: bool) {
        (**self).dcache_access(now, hit);
    }

    fn finished(&self) -> bool {
        (**self).finished()
    }
}

/// Fans every probe out to two recorders, so one run can feed e.g. a
/// [`TraceRecorder`](crate::TraceRecorder) and an
/// [`IntervalRecorder`](crate::IntervalRecorder) at once
/// (`hbat trace --intervals`). Statically on iff either side is.
#[derive(Debug, Default)]
pub struct Tee<A, B> {
    /// First sink (probed first).
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Combines two recorders into one.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn issue_cycle(&mut self, now: u64, issued: u32) {
        self.a.issue_cycle(now, issued);
        self.b.issue_cycle(now, issued);
    }

    fn stall_cycle(&mut self, now: u64, cause: StallCause) {
        self.a.stall_cycle(now, cause);
        self.b.stall_cycle(now, cause);
    }

    fn port_conflict(&mut self, now: u64, resource: PortResource) {
        self.a.port_conflict(now, resource);
        self.b.port_conflict(now, resource);
    }

    fn walk(&mut self, now: u64, vpn: u64, latency: u64) {
        self.a.walk(now, vpn, latency);
        self.b.walk(now, vpn, latency);
    }

    fn sample(&mut self, now: u64, occupancy: &OccupancySample) {
        self.a.sample(now, occupancy);
        self.b.sample(now, occupancy);
    }

    fn commit_cycle(&mut self, now: u64, committed: u32) {
        self.a.commit_cycle(now, committed);
        self.b.commit_cycle(now, committed);
    }

    fn tlb_lookup(&mut self, now: u64, hit: bool) {
        self.a.tlb_lookup(now, hit);
        self.b.tlb_lookup(now, hit);
    }

    fn dcache_access(&mut self, now: u64, hit: bool) {
        self.a.dcache_access(now, hit);
        self.b.dcache_access(now, hit);
    }

    /// Finished only once both sides are: the run must go on while
    /// either still observes it.
    fn finished(&self) -> bool {
        self.a.finished() && self.b.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_indices_are_dense_and_stable() {
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        let names: std::collections::BTreeSet<_> =
            StallCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), StallCause::COUNT, "names must be distinct");
        assert_eq!(StallCause::TlbPort.name(), "tlb-port");
        assert_eq!(StallCause::NoReadyOp.name(), "no-ready-op");
    }

    // Compile-time: the null recorder is statically off, including
    // through the `&mut R` delegation impl.
    const _: () = assert!(!NullRecorder::ENABLED);
    const _: () = assert!(!<&mut NullRecorder as Recorder>::ENABLED);

    #[test]
    fn null_recorder_is_statically_off() {
        let mut r = NullRecorder;
        r.issue_cycle(0, 3);
        r.stall_cycle(1, StallCause::RobFull);
        r.port_conflict(2, PortResource::Tlb);
        r.walk(3, 7, 30);
        r.sample(4, &OccupancySample::default());
        r.commit_cycle(5, 2);
        r.tlb_lookup(6, true);
        r.dcache_access(7, false);
    }

    // Compile-time: a tee of two null recorders stays statically off;
    // one enabled side turns the tee on.
    struct On;
    impl Recorder for On {
        const ENABLED: bool = true;
    }
    const _: () = assert!(!<Tee<NullRecorder, NullRecorder> as Recorder>::ENABLED);
    const _: () = assert!(<Tee<NullRecorder, On> as Recorder>::ENABLED);
    const _: () = assert!(<Tee<On, NullRecorder> as Recorder>::ENABLED);

    #[test]
    fn tee_forwards_every_probe_to_both_sides() {
        // Counts each probe kind in its own slot, so a probe that is
        // dropped, or forwarded as another, shows.
        #[derive(Default)]
        struct Counting([u32; 8]);
        impl Recorder for Counting {
            const ENABLED: bool = true;
            fn issue_cycle(&mut self, _now: u64, _issued: u32) {
                self.0[0] += 1;
            }
            fn stall_cycle(&mut self, _now: u64, _cause: StallCause) {
                self.0[1] += 1;
            }
            fn port_conflict(&mut self, _now: u64, _resource: PortResource) {
                self.0[2] += 1;
            }
            fn walk(&mut self, _now: u64, _vpn: u64, _latency: u64) {
                self.0[3] += 1;
            }
            fn sample(&mut self, _now: u64, _occupancy: &OccupancySample) {
                self.0[4] += 1;
            }
            fn commit_cycle(&mut self, _now: u64, _committed: u32) {
                self.0[5] += 1;
            }
            fn tlb_lookup(&mut self, _now: u64, _hit: bool) {
                self.0[6] += 1;
            }
            fn dcache_access(&mut self, _now: u64, _hit: bool) {
                self.0[7] += 1;
            }
        }

        let mut tee = Tee::new(Counting::default(), Counting::default());
        tee.issue_cycle(0, 4);
        tee.stall_cycle(1, StallCause::TlbWalk);
        tee.port_conflict(1, PortResource::Dcache);
        tee.walk(1, 7, 30);
        tee.sample(SAMPLE_INTERVAL, &OccupancySample::default());
        tee.commit_cycle(1, 2);
        tee.tlb_lookup(2, true);
        tee.dcache_access(2, false);
        assert_eq!(tee.a.0, [1; 8]);
        assert_eq!(tee.b.0, [1; 8]);
    }

    // A recorder that finishes on demand, to drive `finished` through
    // the delegation and fan-out impls.
    struct Closes(bool);
    impl Recorder for Closes {
        const ENABLED: bool = true;
        fn finished(&self) -> bool {
            self.0
        }
    }

    // Asks `r` itself, so a `&mut` argument goes through the
    // delegation impl.
    fn finished_as<R: Recorder>(r: R) -> bool {
        r.finished()
    }

    #[test]
    fn null_recorder_never_finishes() {
        assert!(!NullRecorder.finished());
        assert!(!finished_as(&mut NullRecorder));
    }

    #[test]
    fn mut_ref_delegates_finished() {
        assert!(!finished_as(&mut Closes(false)));
        assert!(finished_as(&mut Closes(true)));
        // Nested borrows delegate all the way down.
        assert!(finished_as(&mut &mut Closes(true)));
    }

    #[test]
    fn tee_finishes_only_when_both_sides_have() {
        assert!(!Tee::new(Closes(false), Closes(false)).finished());
        assert!(!Tee::new(Closes(true), Closes(false)).finished());
        assert!(!Tee::new(Closes(false), Closes(true)).finished());
        assert!(Tee::new(Closes(true), Closes(true)).finished());
        // A never-finishing side keeps the run going.
        assert!(!Tee::new(Closes(true), NullRecorder).finished());
        assert!(!Tee::new(NullRecorder, Closes(true)).finished());
    }

    #[test]
    fn resource_names() {
        assert_eq!(PortResource::Tlb.name(), "tlb");
        assert_eq!(PortResource::Dcache.index(), 1);
        assert_eq!(PortResource::Icache.index(), 2);
    }
}
