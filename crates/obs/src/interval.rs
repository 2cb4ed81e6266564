//! Interval time-series telemetry: the probe stream bucketed into
//! fixed-width cycle windows.
//!
//! Whole-run aggregates (the paper's Tables 2–3, [`TraceRecorder`]'s
//! totals) answer *how much*; the [`IntervalRecorder`] answers *when*.
//! It slices a run into windows of `width` cycles and emits one
//! [`IntervalRecord`] per window — IPC, TLB and D-cache hit rates, the
//! full 8-cause stall mix, and ROB/LSQ occupancy means — preserving the
//! engine's attribution invariant `issue + Σstalls == cycles` inside
//! every window. This is the substrate ROADMAP item 2's SMARTS-style
//! sampled windows build on: per-window statistics are exactly what a
//! confidence interval needs.
//!
//! Windows are anchored at the first observed cycle (cycle numbering
//! may start at 0 or 1 depending on the engine), the window buffer is
//! pre-allocated and never reallocates (overflow is counted, not
//! grown), and — like every recorder — attaching one never changes the
//! simulation.
//!
//! [`TraceRecorder`]: crate::TraceRecorder

use crate::recorder::{OccupancySample, Recorder, StallCause};

/// Schema version stamped as the first key (`"v"`) of every interval
/// JSONL record. Bump on any key change.
pub const INTERVAL_SCHEMA_VERSION: u32 = 1;

/// Capacity of the completed-window buffer (windows beyond it are
/// counted in [`IntervalRecorder::dropped_windows`], not stored).
pub const WINDOW_CAPACITY: usize = 1 << 16;

/// The counter block every recorder keeps: one completed window of
/// `width` cycles (the final window of a run may be shorter;
/// [`cycles`](IntervalRecord::cycles) says how many cycles it actually
/// covered), a sampled window's measurement, or a whole run's totals.
///
/// The probe → counter mapping lives here once, as the `#[inline]`
/// methods named after the [`Recorder`] probes they serve; the
/// recorders are policies around it ([`IntervalRecorder`] rolls one
/// every `width` cycles, a sampled window's gate feeds one while open,
/// [`TraceRecorder`] keeps one for the run).
///
/// [`TraceRecorder`]: crate::TraceRecorder
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalRecord {
    /// First cycle of the window.
    pub start: u64,
    /// Cycles observed in the window (== window width except for the
    /// trailing partial window).
    pub cycles: u64,
    /// Cycles in which at least one operation issued.
    pub issue_cycles: u64,
    /// Operations issued.
    pub issued: u64,
    /// Operations committed (retired).
    pub committed: u64,
    /// Stall cycles per [`StallCause`], indexed by
    /// [`StallCause::index`]. `issue_cycles + Σ stalls == cycles`.
    pub stalls: [u64; StallCause::COUNT],
    /// Translations served (TLB hits + misses; port rejects excluded).
    pub tlb_lookups: u64,
    /// Translations that missed.
    pub tlb_misses: u64,
    /// Data-cache accesses served.
    pub dcache_accesses: u64,
    /// Data-cache accesses that missed.
    pub dcache_misses: u64,
    /// Page-table walks started.
    pub walks: u64,
    /// Total latency of the walks started this window.
    pub walk_cycles: u64,
    /// Sum of sampled ROB occupancies.
    pub rob_sum: u64,
    /// Sum of sampled LSQ occupancies.
    pub lsq_sum: u64,
    /// Occupancy samples taken.
    pub samples: u64,
}

impl IntervalRecord {
    // hbat-lint: hot
    /// A cycle in which `issued` operations issued.
    #[inline]
    pub fn issue_cycle(&mut self, issued: u32) {
        self.cycles += 1;
        self.issue_cycles += 1;
        self.issued += u64::from(issued);
    }

    /// A cycle in which nothing issued, charged to `cause`.
    #[inline]
    pub fn stall_cycle(&mut self, cause: StallCause) {
        self.cycles += 1;
        // hbat-lint: allow(panic, panic-reach) index() < COUNT by construction; the array is [_; COUNT]
        self.stalls[cause.index()] += 1;
    }

    /// `n` operations committed.
    #[inline]
    pub fn commit(&mut self, n: u64) {
        self.committed += n;
    }

    /// A translation was served.
    #[inline]
    pub fn tlb_lookup(&mut self, hit: bool) {
        self.tlb_lookups += 1;
        self.tlb_misses += u64::from(!hit);
    }

    /// A data-cache access was served.
    #[inline]
    pub fn dcache_access(&mut self, hit: bool) {
        self.dcache_accesses += 1;
        self.dcache_misses += u64::from(!hit);
    }

    /// A page-table walk of `latency` cycles began.
    #[inline]
    pub fn walk(&mut self, latency: u64) {
        self.walks += 1;
        self.walk_cycles += latency;
    }

    /// An occupancy snapshot.
    #[inline]
    pub fn sample(&mut self, occupancy: &OccupancySample) {
        self.rob_sum += u64::from(occupancy.rob);
        self.lsq_sum += u64::from(occupancy.lsq);
        self.samples += 1;
    }
    // hbat-lint: cold

    /// Committed instructions per cycle over the window.
    pub fn ipc(&self) -> f64 {
        ratio(self.committed, self.cycles)
    }

    /// Issued operations per cycle (includes wrong-path work).
    pub fn issue_ipc(&self) -> f64 {
        ratio(self.issued, self.cycles)
    }

    /// TLB hit rate; `None` when the window saw no lookups.
    pub fn tlb_hit_rate(&self) -> Option<f64> {
        fraction(
            self.tlb_lookups - self.tlb_misses.min(self.tlb_lookups),
            self.tlb_lookups,
        )
    }

    /// D-cache hit rate; `None` when the window saw no accesses.
    pub fn dcache_hit_rate(&self) -> Option<f64> {
        fraction(
            self.dcache_accesses - self.dcache_misses.min(self.dcache_accesses),
            self.dcache_accesses,
        )
    }

    /// Mean sampled ROB occupancy; `None` when no sample landed in the
    /// window.
    pub fn rob_mean(&self) -> Option<f64> {
        fraction(self.rob_sum, self.samples)
    }

    /// Mean sampled LSQ occupancy; `None` when no sample landed.
    pub fn lsq_mean(&self) -> Option<f64> {
        fraction(self.lsq_sum, self.samples)
    }

    /// Total stall cycles across all causes.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// The window's fields as JSON object members (no braces, no
    /// version key), for embedding in a larger record — the sweep
    /// interval sidecar nests these under its own identity keys.
    pub fn render_fields(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "\"start\":{},\"cycles\":{},\"issue\":{},\"issued\":{},\"committed\":{}",
            self.start, self.cycles, self.issue_cycles, self.issued, self.committed
        );
        s.push_str(",\"stalls\":{");
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            // hbat-lint: allow(panic) index() < COUNT by construction; the array is [_; COUNT]
            let _ = write!(s, "\"{}\":{}", cause.name(), self.stalls[cause.index()]);
        }
        let _ = write!(
            s,
            "}},\"tlb\":{{\"lookups\":{},\"misses\":{}}}",
            self.tlb_lookups, self.tlb_misses
        );
        let _ = write!(
            s,
            ",\"dcache\":{{\"accesses\":{},\"misses\":{}}}",
            self.dcache_accesses, self.dcache_misses
        );
        let _ = write!(
            s,
            ",\"walks\":{{\"count\":{},\"cycles\":{}}}",
            self.walks, self.walk_cycles
        );
        let _ = write!(
            s,
            ",\"occupancy\":{{\"rob_sum\":{},\"lsq_sum\":{},\"samples\":{}}}",
            self.rob_sum, self.lsq_sum, self.samples
        );
        s
    }

    /// One JSON object on one line, `"v"` first.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"v\":{},{}}}",
            INTERVAL_SCHEMA_VERSION,
            self.render_fields()
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn fraction(num: u64, den: u64) -> Option<f64> {
    if den == 0 {
        None
    } else {
        Some(num as f64 / den as f64)
    }
}

/// Buckets the probe stream into fixed-width cycle windows.
///
/// Windows are half-open `[start, start + width)` ranges anchored at
/// the first cycle any probe reports, so window 0 is always full-width
/// regardless of where the engine starts counting. The completed-window
/// buffer is allocated once up front; if a run outlasts it, further
/// windows are dropped and counted, never reallocated (the probe path
/// stays allocation-free, same policy as [`TraceRecorder`]'s event
/// buffer).
///
/// Call [`finish`](IntervalRecorder::finish) after the run to flush the
/// trailing partial window (idempotent; windows shorter than `width`
/// report their true [`cycles`](IntervalRecord::cycles)).
///
/// [`TraceRecorder`]: crate::TraceRecorder
#[derive(Debug)]
pub struct IntervalRecorder {
    width: u64,
    /// Start cycle of the window being accumulated; `None` until the
    /// first probe anchors the timeline.
    win_start: Option<u64>,
    cur: IntervalRecord,
    windows: Vec<IntervalRecord>,
    dropped: u64,
}

impl IntervalRecorder {
    /// A recorder with `width`-cycle windows and room for
    /// [`WINDOW_CAPACITY`] of them.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`: width 0 defines no window at all and
    /// width 1 makes every per-window rate a 0/1 step function — both
    /// are rejected rather than silently producing noise. The CLI
    /// validates `--intervals` before construction.
    pub fn new(width: u64) -> Self {
        assert!(
            width >= 2,
            "interval width must be >= 2 cycles, got {width}"
        );
        IntervalRecorder {
            width,
            win_start: None,
            cur: IntervalRecord::default(),
            windows: Vec::with_capacity(WINDOW_CAPACITY),
            dropped: 0,
        }
    }

    /// Window width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Completed windows, in time order. Trailing activity is only
    /// visible after [`finish`](IntervalRecorder::finish).
    pub fn windows(&self) -> &[IntervalRecord] {
        &self.windows
    }

    /// Windows dropped after the buffer filled.
    pub fn dropped_windows(&self) -> u64 {
        self.dropped
    }

    /// Flushes the in-progress window if it observed anything. Call
    /// once after the run; safe to call again (the flushed accumulator
    /// is empty, so a second call is a no-op).
    pub fn finish(&mut self) {
        if let Some(start) = self.win_start {
            let untouched = IntervalRecord {
                start,
                ..IntervalRecord::default()
            };
            if self.cur != untouched {
                self.push_window();
            }
        }
    }

    // hbat-lint: hot
    /// Advances the window clock to `now`, flushing every window whose
    /// range has fully passed.
    #[inline]
    fn roll(&mut self, now: u64) {
        let start = match self.win_start {
            Some(s) => s,
            None => {
                self.win_start = Some(now);
                self.cur.start = now;
                return;
            }
        };
        if now < start.saturating_add(self.width) {
            return;
        }
        self.roll_slow(now);
    }

    #[inline(never)]
    fn roll_slow(&mut self, now: u64) {
        while let Some(start) = self.win_start {
            let end = start.saturating_add(self.width);
            if now < end {
                break;
            }
            self.push_window();
        }
    }

    #[inline]
    fn push_window(&mut self) {
        let next = match self.win_start {
            Some(s) => s.saturating_add(self.width),
            None => return,
        };
        if self.windows.len() < self.windows.capacity() {
            self.windows.push(self.cur);
        } else {
            self.dropped += 1;
        }
        self.win_start = Some(next);
        self.cur = IntervalRecord {
            start: next,
            ..IntervalRecord::default()
        };
    }
    // hbat-lint: cold

    /// Every completed window as versioned JSONL, one object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&w.render_json());
            out.push('\n');
        }
        out
    }
}

impl Recorder for IntervalRecorder {
    const ENABLED: bool = true;

    // hbat-lint: hot
    #[inline]
    fn issue_cycle(&mut self, now: u64, issued: u32) {
        self.roll(now);
        self.cur.issue_cycle(issued);
    }

    #[inline]
    fn stall_cycle(&mut self, now: u64, cause: StallCause) {
        self.roll(now);
        self.cur.stall_cycle(cause);
    }

    #[inline]
    fn commit_cycle(&mut self, now: u64, committed: u32) {
        self.roll(now);
        self.cur.commit(u64::from(committed));
    }

    #[inline]
    fn tlb_lookup(&mut self, now: u64, hit: bool) {
        self.roll(now);
        self.cur.tlb_lookup(hit);
    }

    #[inline]
    fn dcache_access(&mut self, now: u64, hit: bool) {
        self.roll(now);
        self.cur.dcache_access(hit);
    }

    #[inline]
    fn walk(&mut self, now: u64, _vpn: u64, latency: u64) {
        self.roll(now);
        self.cur.walk(latency);
    }

    #[inline]
    fn sample(&mut self, now: u64, occupancy: &OccupancySample) {
        self.roll(now);
        self.cur.sample(occupancy);
    }
    // hbat-lint: cold
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = assert!(IntervalRecorder::ENABLED);

    fn feed_cycles(rec: &mut IntervalRecorder, range: std::ops::Range<u64>) {
        for now in range {
            if now % 3 == 0 {
                rec.stall_cycle(now, StallCause::DcacheMiss);
            } else {
                rec.issue_cycle(now, 2);
                rec.commit_cycle(now, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "interval width must be >= 2")]
    fn width_zero_is_rejected() {
        let _ = IntervalRecorder::new(0);
    }

    #[test]
    #[should_panic(expected = "interval width must be >= 2")]
    fn width_one_is_rejected() {
        let _ = IntervalRecorder::new(1);
    }

    #[test]
    fn windows_anchor_at_first_observed_cycle() {
        // Cycle numbering starting at 1 (the engine's convention) must
        // still produce a full-width window 0.
        let mut rec = IntervalRecorder::new(10);
        feed_cycles(&mut rec, 1..21);
        rec.finish();
        let w = rec.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].start, 1);
        assert_eq!(w[0].cycles, 10);
        assert_eq!(w[1].start, 11);
        assert_eq!(w[1].cycles, 10);
    }

    #[test]
    fn per_window_invariant_and_partial_tail() {
        // 25 cycles into width-10 windows: two full windows plus a
        // 5-cycle partial tail.
        let mut rec = IntervalRecorder::new(10);
        feed_cycles(&mut rec, 0..25);
        rec.finish();
        let w = rec.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[2].start, 20);
        assert_eq!(w[2].cycles, 5, "trailing window reports true length");
        for win in w {
            assert_eq!(
                win.issue_cycles + win.stall_cycles(),
                win.cycles,
                "issue+stalls==cycles must hold inside every window"
            );
        }
        assert_eq!(w.iter().map(|w| w.cycles).sum::<u64>(), 25);
    }

    #[test]
    fn run_shorter_than_one_window_yields_one_partial_window() {
        let mut rec = IntervalRecorder::new(1000);
        feed_cycles(&mut rec, 0..7);
        assert!(rec.windows().is_empty(), "nothing complete before finish");
        rec.finish();
        assert_eq!(rec.windows().len(), 1);
        assert_eq!(rec.windows()[0].cycles, 7);
        // finish is idempotent.
        rec.finish();
        assert_eq!(rec.windows().len(), 1);
    }

    #[test]
    fn finish_on_untouched_recorder_is_a_no_op() {
        let mut rec = IntervalRecorder::new(10);
        rec.finish();
        assert!(rec.windows().is_empty());
        assert_eq!(rec.dropped_windows(), 0);
    }

    #[test]
    fn rates_and_means_derive_per_window() {
        let mut rec = IntervalRecorder::new(4);
        rec.issue_cycle(0, 4);
        rec.commit_cycle(0, 2);
        rec.tlb_lookup(0, true);
        rec.tlb_lookup(1, false);
        rec.dcache_access(1, true);
        rec.dcache_access(1, true);
        rec.dcache_access(2, false);
        rec.walk(2, 0x42, 30);
        rec.sample(
            2,
            &OccupancySample {
                rob: 10,
                lsq: 4,
                ..OccupancySample::default()
            },
        );
        rec.sample(
            3,
            &OccupancySample {
                rob: 20,
                lsq: 6,
                ..OccupancySample::default()
            },
        );
        rec.stall_cycle(1, StallCause::TlbWalk);
        rec.stall_cycle(2, StallCause::TlbWalk);
        rec.issue_cycle(3, 1);
        rec.commit_cycle(3, 1);
        rec.finish();

        let w = rec.windows()[0];
        assert_eq!(w.cycles, 4);
        assert_eq!(w.committed, 3);
        assert!((w.ipc() - 0.75).abs() < 1e-12);
        assert!((w.issue_ipc() - 1.25).abs() < 1e-12);
        assert_eq!(w.tlb_hit_rate(), Some(0.5));
        assert!((w.dcache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.rob_mean(), Some(15.0));
        assert_eq!(w.lsq_mean(), Some(5.0));
        assert_eq!(w.walks, 1);
        assert_eq!(w.walk_cycles, 30);
        assert_eq!(w.stalls[StallCause::TlbWalk.index()], 2);
    }

    #[test]
    fn empty_window_rates_are_none_not_nan() {
        let w = IntervalRecord::default();
        assert_eq!(w.tlb_hit_rate(), None);
        assert_eq!(w.dcache_hit_rate(), None);
        assert_eq!(w.rob_mean(), None);
        assert_eq!(w.ipc(), 0.0);
    }

    #[test]
    fn window_buffer_is_bounded_and_counts_drops() {
        let mut rec = IntervalRecorder::new(2);
        let cap_before = rec.windows.capacity();
        // Seven windows more than the buffer holds.
        let windows = WINDOW_CAPACITY as u64 + 7;
        feed_cycles(&mut rec, 0..2 * windows);
        rec.finish();
        assert_eq!(rec.windows().len(), WINDOW_CAPACITY);
        assert_eq!(rec.dropped_windows(), 7);
        assert_eq!(
            rec.windows.capacity(),
            cap_before,
            "the window buffer must never reallocate"
        );
    }

    #[test]
    fn jsonl_is_versioned_one_object_per_line() {
        let mut rec = IntervalRecorder::new(4);
        feed_cycles(&mut rec, 0..9);
        rec.finish();
        let out = rec.render_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(
                line.starts_with(&format!("{{\"v\":{INTERVAL_SCHEMA_VERSION},")),
                "schema version must lead every record: {line}"
            );
            assert!(line.ends_with('}'));
            for key in [
                "\"start\":",
                "\"cycles\":",
                "\"issue\":",
                "\"committed\":",
                "\"stalls\":",
                "\"tlb-port\":",
                "\"no-ready-op\":",
                "\"tlb\":",
                "\"dcache\":",
                "\"walks\":",
                "\"occupancy\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
    }

    // The golden byte-for-byte schema pin: any change to the interval
    // record layout must be a conscious version bump.
    #[test]
    fn golden_interval_record_schema() {
        let mut rec = IntervalRecorder::new(4);
        rec.issue_cycle(0, 3);
        rec.commit_cycle(0, 2);
        rec.stall_cycle(1, StallCause::TlbPort);
        rec.tlb_lookup(1, false);
        rec.dcache_access(2, true);
        rec.walk(2, 9, 30);
        rec.sample(
            3,
            &OccupancySample {
                rob: 5,
                lsq: 2,
                mshrs: 1,
                tlb_queue: 0,
            },
        );
        rec.issue_cycle(3, 1);
        rec.commit_cycle(3, 1);
        rec.finish();
        assert_eq!(
            rec.render_jsonl(),
            "{\"v\":1,\"start\":0,\"cycles\":3,\"issue\":2,\"issued\":4,\"committed\":3,\
             \"stalls\":{\"tlb-port\":1,\"tlb-walk\":0,\"dcache-port\":0,\"dcache-miss\":0,\
             \"rob-full\":0,\"lsq-full\":0,\"fetch-starved\":0,\"no-ready-op\":0},\
             \"tlb\":{\"lookups\":1,\"misses\":1},\"dcache\":{\"accesses\":1,\"misses\":0},\
             \"walks\":{\"count\":1,\"cycles\":30},\
             \"occupancy\":{\"rob_sum\":5,\"lsq_sum\":2,\"samples\":1}}\n"
        );
    }
}
