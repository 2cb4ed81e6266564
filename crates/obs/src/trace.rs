//! The collecting recorder: stall attribution, occupancy histograms,
//! port-conflict counts, and a bounded cycle-stamped event stream.

use crate::histogram::Histogram;
use crate::interval::IntervalRecord;
use crate::recorder::{OccupancySample, PortResource, Recorder, StallCause};

/// Schema version stamped as the first key (`"v"`) of every rendered
/// event record (the `hbat trace --out` JSONL stream). Bump on any key
/// change; the golden test below pins the byte-exact layout.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// Capacity of the bounded event buffer.
pub const EVENT_CAPACITY: usize = 1 << 16;

/// One cycle-stamped observation, renderable as a JSONL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A non-issuing cycle and the cause it was charged to.
    Stall {
        /// Cycle the stall occurred.
        now: u64,
        /// Cause charged by the classifier.
        cause: StallCause,
    },
    /// A request found every port of a resource busy.
    PortConflict {
        /// Cycle of the conflict.
        now: u64,
        /// Resource whose ports were all taken.
        resource: PortResource,
    },
    /// A page-table walk began.
    Walk {
        /// Cycle the walk began.
        now: u64,
        /// Virtual page number being walked.
        vpn: u64,
        /// Walk latency in cycles.
        latency: u64,
    },
    /// A periodic occupancy snapshot.
    Sample {
        /// Cycle of the snapshot.
        now: u64,
        /// Queue occupancies at that cycle.
        occupancy: OccupancySample,
    },
}

impl Event {
    /// Append this event as one JSON object (no trailing newline) to
    /// `out`. Keys are stable; the schema version (`"v"`) is always
    /// first, then the cycle.
    pub fn render_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"v\":{EVENT_SCHEMA_VERSION},");
        match *self {
            Event::Stall { now, cause } => {
                let _ = write!(
                    out,
                    "\"cycle\":{now},\"event\":\"stall\",\"cause\":\"{}\"}}",
                    cause.name()
                );
            }
            Event::PortConflict { now, resource } => {
                let _ = write!(
                    out,
                    "\"cycle\":{now},\"event\":\"port-conflict\",\"resource\":\"{}\"}}",
                    resource.name()
                );
            }
            Event::Walk { now, vpn, latency } => {
                let _ = write!(
                    out,
                    "\"cycle\":{now},\"event\":\"walk\",\"vpn\":{vpn},\"latency\":{latency}}}"
                );
            }
            Event::Sample { now, occupancy } => {
                let _ = write!(
                    out,
                    "\"cycle\":{now},\"event\":\"sample\",\"rob\":{},\"lsq\":{},\"mshrs\":{},\"tlb_queue\":{}}}",
                    occupancy.rob, occupancy.lsq, occupancy.mshrs, occupancy.tlb_queue
                );
            }
        }
    }
}

/// A [`Recorder`] that keeps everything: the run's issue, stall and
/// walk totals (one [`IntervalRecord`] counter block), four occupancy
/// histograms, per-resource port-conflict counts, and a *bounded*
/// pre-allocated event buffer (events past [`EVENT_CAPACITY`]
/// are counted in [`dropped_events`](Self::dropped_events) rather than
/// grown into — the recording path never allocates).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    counts: IntervalRecord,
    port_conflicts: [u64; PortResource::COUNT],
    rob: Histogram,
    lsq: Histogram,
    mshrs: Histogram,
    tlb_queue: Histogram,
    events: Vec<Event>,
    dropped: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An empty recorder. Its histograms cover occupancies up to the
    /// queue sizes worth distinguishing (ROB 64, LSQ 32, in-flight
    /// fills 16, translator queue 16); larger values saturate into the
    /// last bucket.
    pub fn new() -> Self {
        TraceRecorder {
            counts: IntervalRecord::default(),
            port_conflicts: [0; PortResource::COUNT],
            rob: Histogram::new(64),
            lsq: Histogram::new(32),
            mshrs: Histogram::new(16),
            tlb_queue: Histogram::new(16),
            events: Vec::with_capacity(EVENT_CAPACITY),
            dropped: 0,
        }
    }

    // hbat-lint: hot
    #[inline]
    fn push_event(&mut self, ev: Event) {
        if self.events.len() < self.events.capacity() {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
    // hbat-lint: cold

    /// Cycles in which at least one operation issued.
    pub fn issue_cycles(&self) -> u64 {
        self.counts.issue_cycles
    }

    /// Total operations issued across all issue cycles.
    pub fn issued_ops(&self) -> u64 {
        self.counts.issued
    }

    /// Stall cycles charged to `cause`.
    pub fn stall(&self, cause: StallCause) -> u64 {
        // hbat-lint: allow(panic) index() < COUNT by construction; the array is [_; COUNT]
        self.counts.stalls[cause.index()]
    }

    /// Total stall cycles across the taxonomy.
    pub fn stall_total(&self) -> u64 {
        self.counts.stall_cycles()
    }

    /// Total cycles observed (`issue_cycles + stall_total`); matches
    /// the engine's cycle count by construction.
    pub fn cycles(&self) -> u64 {
        self.counts.cycles
    }

    /// The stall breakdown in classifier priority order.
    pub fn stall_breakdown(&self) -> [(StallCause, u64); StallCause::COUNT] {
        StallCause::ALL.map(|cause| (cause, self.stall(cause)))
    }

    /// Port conflicts observed on `resource`.
    pub fn port_conflicts(&self, resource: PortResource) -> u64 {
        // hbat-lint: allow(panic) index() < COUNT by construction; the array is [_; COUNT]
        self.port_conflicts[resource.index()]
    }

    /// Page-table walks begun.
    pub fn walks(&self) -> u64 {
        self.counts.walks
    }

    /// Total latency, in cycles, of all walks begun.
    pub fn walk_cycles(&self) -> u64 {
        self.counts.walk_cycles
    }

    /// Re-order buffer occupancy histogram.
    pub fn rob_occupancy(&self) -> &Histogram {
        &self.rob
    }

    /// Load/store queue occupancy histogram.
    pub fn lsq_occupancy(&self) -> &Histogram {
        &self.lsq
    }

    /// In-flight data-cache fill (MSHR) occupancy histogram.
    pub fn mshr_occupancy(&self) -> &Histogram {
        &self.mshrs
    }

    /// Translator queue-depth histogram.
    pub fn tlb_queue_occupancy(&self) -> &Histogram {
        &self.tlb_queue
    }

    /// The captured events, oldest first (bounded by the buffer
    /// capacity; see [`dropped_events`](Self::dropped_events)).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events that arrived after the buffer filled.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Render the captured events as JSON Lines: one object per event,
    /// `\n`-terminated, cycle-ordered as captured.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for ev in &self.events {
            ev.render_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Forwards to the counter block only the probes whose counters it
/// reports: commits and TLB/D-cache lookups are left to the interval
/// recorders, and occupancy goes to the histograms instead of sums.
impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    // hbat-lint: hot
    #[inline]
    fn issue_cycle(&mut self, _now: u64, issued: u32) {
        self.counts.issue_cycle(issued);
    }

    #[inline]
    fn stall_cycle(&mut self, now: u64, cause: StallCause) {
        self.counts.stall_cycle(cause);
        self.push_event(Event::Stall { now, cause });
    }

    #[inline]
    fn port_conflict(&mut self, now: u64, resource: PortResource) {
        self.port_conflicts[resource.index()] += 1;
        self.push_event(Event::PortConflict { now, resource });
    }

    #[inline]
    fn walk(&mut self, now: u64, vpn: u64, latency: u64) {
        self.counts.walk(latency);
        self.push_event(Event::Walk { now, vpn, latency });
    }

    #[inline]
    fn sample(&mut self, now: u64, occupancy: &OccupancySample) {
        self.rob.record(occupancy.rob);
        self.lsq.record(occupancy.lsq);
        self.mshrs.record(occupancy.mshrs);
        self.tlb_queue.record(occupancy.tlb_queue);
        self.push_event(Event::Sample {
            now,
            occupancy: *occupancy,
        });
    }
    // hbat-lint: cold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_to_cycles() {
        let mut r = TraceRecorder::new();
        r.issue_cycle(0, 4);
        r.issue_cycle(1, 2);
        r.stall_cycle(2, StallCause::RobFull);
        r.stall_cycle(3, StallCause::TlbWalk);
        r.stall_cycle(4, StallCause::TlbWalk);
        assert_eq!(r.issue_cycles(), 2);
        assert_eq!(r.issued_ops(), 6);
        assert_eq!(r.stall(StallCause::TlbWalk), 2);
        assert_eq!(r.stall_total(), 3);
        assert_eq!(r.cycles(), 5);
        let breakdown = r.stall_breakdown();
        assert_eq!(breakdown[StallCause::RobFull.index()].1, 1);
    }

    #[test]
    fn events_are_bounded_not_grown() {
        let mut r = TraceRecorder::new();
        let cap_before = r.events.capacity();
        // Eight events more than the buffer holds.
        let stalls = EVENT_CAPACITY as u64 + 8;
        for now in 0..stalls {
            r.stall_cycle(now, StallCause::NoReadyOp);
        }
        assert_eq!(r.events().len(), EVENT_CAPACITY);
        assert_eq!(r.dropped_events(), 8);
        assert_eq!(r.events.capacity(), cap_before, "buffer never reallocates");
        assert_eq!(
            r.stall(StallCause::NoReadyOp),
            stalls,
            "counters never drop"
        );
    }

    #[test]
    fn samples_feed_histograms() {
        let mut r = TraceRecorder::new();
        r.sample(
            64,
            &OccupancySample {
                rob: 3,
                lsq: 1,
                mshrs: 99,
                tlb_queue: 0,
            },
        );
        assert_eq!(r.rob_occupancy().count(3), 1);
        assert_eq!(r.lsq_occupancy().count(1), 1);
        let mshrs = r.mshr_occupancy();
        assert_eq!(
            mshrs.count(mshrs.len() - 1),
            1,
            "saturated into last bucket"
        );
        assert_eq!(mshrs.max_seen(), 99);
        assert_eq!(r.tlb_queue_occupancy().count(0), 1);
    }

    #[test]
    fn jsonl_rendering_is_one_object_per_line() {
        let mut r = TraceRecorder::new();
        r.stall_cycle(7, StallCause::DcachePort);
        r.port_conflict(8, PortResource::Tlb);
        r.walk(9, 42, 30);
        r.sample(
            64,
            &OccupancySample {
                rob: 1,
                lsq: 2,
                mshrs: 3,
                tlb_queue: 4,
            },
        );
        let jsonl = r.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"v\":1,\"cycle\":7,\"event\":\"stall\",\"cause\":\"dcache-port\"}"
        );
        assert_eq!(
            lines[1],
            "{\"v\":1,\"cycle\":8,\"event\":\"port-conflict\",\"resource\":\"tlb\"}"
        );
        assert_eq!(
            lines[2],
            "{\"v\":1,\"cycle\":9,\"event\":\"walk\",\"vpn\":42,\"latency\":30}"
        );
        assert_eq!(
            lines[3],
            "{\"v\":1,\"cycle\":64,\"event\":\"sample\",\"rob\":1,\"lsq\":2,\"mshrs\":3,\"tlb_queue\":4}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    // The golden byte-for-byte schema pin (same discipline as the
    // `hbat-lint --graph` dump): every event kind's exact serialized
    // form, including the leading schema version. A change here is a
    // schema change and must bump EVENT_SCHEMA_VERSION.
    #[test]
    fn golden_event_stream_schema() {
        let mut r = TraceRecorder::new();
        for cause in StallCause::ALL {
            r.stall_cycle(100, cause);
        }
        for resource in PortResource::ALL {
            r.port_conflict(101, resource);
        }
        r.walk(102, 0xdead, 30);
        r.sample(
            128,
            &OccupancySample {
                rob: 64,
                lsq: 32,
                mshrs: 16,
                tlb_queue: 8,
            },
        );
        assert_eq!(
            r.render_jsonl(),
            concat!(
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"tlb-port\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"tlb-walk\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"dcache-port\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"dcache-miss\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"rob-full\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"lsq-full\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"fetch-starved\"}\n",
                "{\"v\":1,\"cycle\":100,\"event\":\"stall\",\"cause\":\"no-ready-op\"}\n",
                "{\"v\":1,\"cycle\":101,\"event\":\"port-conflict\",\"resource\":\"tlb\"}\n",
                "{\"v\":1,\"cycle\":101,\"event\":\"port-conflict\",\"resource\":\"dcache\"}\n",
                "{\"v\":1,\"cycle\":101,\"event\":\"port-conflict\",\"resource\":\"icache\"}\n",
                "{\"v\":1,\"cycle\":102,\"event\":\"walk\",\"vpn\":57005,\"latency\":30}\n",
                "{\"v\":1,\"cycle\":128,\"event\":\"sample\",\"rob\":64,\"lsq\":32,\"mshrs\":16,\"tlb_queue\":8}\n",
            )
        );
    }

    #[test]
    fn delegation_through_mut_ref_reaches_the_recorder() {
        // Monomorphised with R = &mut TraceRecorder, so every call
        // goes through the blanket `impl Recorder for &mut R`.
        fn drive<R: Recorder>(rec: &mut R) {
            rec.issue_cycle(0, 1);
            rec.stall_cycle(1, StallCause::LsqFull);
        }
        let mut r = TraceRecorder::new();
        drive(&mut &mut r);
        assert_eq!(r.cycles(), 2);
        assert_eq!(r.stall(StallCause::LsqFull), 1);
    }
}
