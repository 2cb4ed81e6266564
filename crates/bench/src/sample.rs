//! SMARTS-style sampled simulation: detailed timing in systematically
//! selected windows, functional warming between them, and metrics
//! reported as confidence intervals (DESIGN.md §15).
//!
//! A sampled cell replays the same committed-path micro-op trace a full
//! detailed run would, but only `n_windows` stretches of
//! `warmup_len + window_len` instructions go through the out-of-order
//! timing engine. Everything between windows streams through
//! [`WarmAccumulator::warm_gap`] — TLB, cache-block and
//! branch-predictor state stay warm at trace-replay speed, with no
//! ROB/LSQ timing. Each window installs the accumulated warm state,
//! times `warmup_len` instructions as detailed warmup (measured
//! counters gated off), then measures exactly `window_len` committed
//! instructions into one [`IntervalRecord`].
//!
//! The warming and the timing are separate halves. [`warm_schedule`]
//! makes the one functional pass over a stream of ops and keeps, for
//! each window, the warm state at its start and the ops it times; it
//! takes no design and holds no more of the stream than the windows'
//! slices. [`run_sampled_windows`] times the windows of one design from
//! that schedule. A sweep streams each program from its machine once and
//! shares the schedule across its designs, so it never holds a trace;
//! [`run_sampled_uops`] composes the two over a stored trace for a
//! single cell.
//!
//! The estimator is the classic systematic-sample Student-t interval
//! over per-window CPI (cycles per instruction). Windows hold an equal
//! number of committed instructions, so the mean of per-window CPIs *is*
//! the ratio estimator for aggregate CPI, and IPC bounds follow by the
//! exact monotone transform `ipc = 1/cpi` (see [`ipc_interval`]).
//!
//! Everything here is a pure function of `(ops, design, plan)`: window
//! placement derives from a splitmix64 hash of the plan seed, so
//! identical plans give byte-identical journals and reports.

use hbat_core::designs::spec::DesignSpec;
use hbat_core::hash::splitmix64;
use hbat_cpu::{RunMetrics, WarmAccumulator, WarmState};
use hbat_isa::executor::OpSource;
use hbat_isa::tape::Tape;
use hbat_isa::uop::MicroOp;
use hbat_obs::{prof, IntervalRecord, OccupancySample, Recorder, StallCause};
use hbat_stats::ci::{ConfLevel, ConfidenceInterval};

use crate::experiment::{run_cell, ExperimentConfig};

/// How a sampled run slices its trace: `n_windows` detailed windows of
/// `window_len` measured instructions, each preceded by `warmup_len`
/// detailed-but-unmeasured instructions, placed systematically with a
/// seed-derived offset.
///
/// The plan (including the seed) is folded into the journal fingerprint
/// — see [`crate::experiment::sweep_fingerprint`] — so sampled and full
/// runs, or two different plans, can never share journal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    /// Detailed measurement windows per cell.
    pub n_windows: u64,
    /// Measured committed instructions per window.
    pub window_len: u64,
    /// Detailed (timed but unmeasured) instructions run before each
    /// window to settle ROB/LSQ/queue state the functional gap cannot
    /// warm.
    pub warmup_len: u64,
    /// Seed for the systematic placement offset.
    pub seed: u64,
}

/// Default measured window length (instructions) when `--sample N`
/// gives no explicit length.
pub const DEFAULT_WINDOW_LEN: u64 = 1000;

impl SamplePlan {
    /// Parses the CLI form `N[:len[:warmup]]`: window count, optional
    /// measured length (default [`DEFAULT_WINDOW_LEN`]), optional
    /// detailed warmup (default `len / 4`).
    ///
    /// # Errors
    ///
    /// A human-readable message when the shape or a field fails to
    /// parse, or when `N` or `len` is zero.
    pub fn parse(spec: &str, seed: u64) -> Result<SamplePlan, String> {
        let mut parts = spec.split(':');
        let n_windows = parse_field(parts.next(), "window count")?;
        let window_len = match parts.next() {
            Some(s) => parse_field(Some(s), "window length")?,
            None => DEFAULT_WINDOW_LEN,
        };
        let warmup_len = match parts.next() {
            Some(s) => parse_count(Some(s), "warmup length")?,
            None => window_len / 4,
        };
        if parts.next().is_some() {
            return Err(format!("--sample takes at most N:len:warmup, got {spec:?}"));
        }
        Ok(SamplePlan {
            n_windows,
            window_len,
            warmup_len,
            seed,
        })
    }

    /// The CLI form back: `N:len:warmup`.
    pub fn render(&self) -> String {
        format!("{}:{}:{}", self.n_windows, self.window_len, self.warmup_len)
    }
}

fn parse_count(part: Option<&str>, what: &str) -> Result<u64, String> {
    match part {
        Some(s) => s
            .parse::<u64>()
            .map_err(|e| format!("bad --sample {what} {s:?}: {e}")),
        None => Err(format!("--sample is missing its {what}")),
    }
}

fn parse_field(part: Option<&str>, what: &str) -> Result<u64, String> {
    let v = parse_count(part, what)?;
    if v == 0 {
        return Err(format!("--sample {what} must be >= 1"));
    }
    Ok(v)
}

/// One placed window, as op-index ranges into the sampled trace:
/// detailed warmup covers `[warm_start, meas_start)`, measurement
/// covers `[meas_start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleWindow {
    /// First op of the detailed warmup.
    pub warm_start: u64,
    /// First measured op.
    pub meas_start: u64,
    /// One past the last measured op.
    pub end: u64,
}

/// Places the plan's windows over a trace of `n_ops` committed
/// instructions: systematic sampling with period `n_ops / n_windows`
/// (clamped so windows never overlap) and a seed-derived phase offset.
/// Short traces degrade gracefully — the window length clamps to the
/// trace, the warmup to what remains, and fewer than `n_windows`
/// windows are returned when they cannot all fit. Returned windows are
/// strictly increasing and non-overlapping, every bound `<= n_ops`.
pub fn plan_windows(plan: &SamplePlan, n_ops: u64) -> Vec<SampleWindow> {
    if n_ops == 0 {
        return Vec::new();
    }
    let window_len = plan.window_len.min(n_ops).max(1);
    let warmup = plan.warmup_len.min(n_ops - window_len);
    let span = warmup + window_len;
    let k = plan.n_windows.max(1);
    let period = (n_ops / k).max(span);
    // The placement offset shifts every window by the same amount, so
    // the sample stays systematic; modulo keeps window 0 inside the
    // first period.
    let slack = period - span + 1;
    // One SplitMix64 step decorrelates the offset from small seeds.
    let mut state = plan.seed;
    let offset = splitmix64(&mut state) % slack;
    // At most `n_ops / span + 1` windows fit, whatever the plan asks for.
    let fit = n_ops / span + 1;
    let mut windows = Vec::with_capacity(usize::try_from(k.min(fit)).unwrap_or(0));
    let mut s = offset;
    while s + span <= n_ops && (windows.len() as u64) < k {
        windows.push(SampleWindow {
            warm_start: s,
            meas_start: s + warmup,
            end: s + span,
        });
        s += period;
    }
    windows
}

/// A recorder that gates one [`IntervalRecord`] on the detailed
/// warmup: probes are discarded until `skip` instructions have
/// committed, measured until `limit` further instructions have
/// committed, then discarded again. Both boundary commits are counted
/// exactly — instructions committed beyond `skip` in the gate-opening
/// cycle land in the measurement, and a closing commit is clipped to
/// `limit` — so the gate measures exactly `limit` committed
/// instructions whenever the run commits at least `skip + limit`.
///
/// Closing on a commit *count* (rather than running to the end of the
/// detailed slice) is what makes the measurement steady-state: the
/// in-flight work the window inherits from the warmup at open is
/// balanced by the in-flight work it leaves behind at close. The
/// engine commits before it issues, so a cycle's commit probe fires
/// before its issue/stall probe: the opening cycle is counted and the
/// closing cycle is not, and a window's `cycles` is the distance
/// between its opening and closing commit cycles (a gate with
/// `skip == 0` opens at cycle 0). Once closed the gate is
/// [`finished`](Recorder::finished), so the engine stops right after
/// the closing cycle instead of simulating the rest of the slice.
#[derive(Debug)]
pub struct WindowGate {
    skip: u64,
    limit: u64,
    seen: u64,
    open: bool,
    done: bool,
    rec: IntervalRecord,
}

impl WindowGate {
    /// A gate that discards the first `skip` committed instructions and
    /// measures the next `limit`.
    pub fn new(skip: u64, limit: u64) -> WindowGate {
        WindowGate {
            skip,
            limit,
            seen: 0,
            open: skip == 0 && limit > 0,
            done: limit == 0,
            rec: IntervalRecord::default(),
        }
    }

    /// The measured window so far; `start` is left 0 for the caller to
    /// stamp with the window's trace position.
    pub fn record(&self) -> IntervalRecord {
        self.rec
    }
}

impl Recorder for WindowGate {
    const ENABLED: bool = true;

    // hbat-lint: hot
    #[inline]
    fn issue_cycle(&mut self, _now: u64, issued: u32) {
        if self.open {
            self.rec.issue_cycle(issued);
        }
    }

    #[inline]
    fn stall_cycle(&mut self, _now: u64, cause: StallCause) {
        if self.open {
            self.rec.stall_cycle(cause);
        }
    }

    #[inline]
    fn commit_cycle(&mut self, _now: u64, committed: u32) {
        let c = u64::from(committed);
        self.seen += c;
        if self.done {
            return;
        }
        if self.open {
            let room = self.limit - self.rec.committed;
            self.rec.commit(c.min(room));
        } else if self.seen >= self.skip {
            self.open = true;
            self.rec.commit((self.seen - self.skip).min(self.limit));
        } else {
            return;
        }
        if self.rec.committed >= self.limit {
            self.open = false;
            self.done = true;
        }
    }

    #[inline]
    fn tlb_lookup(&mut self, _now: u64, hit: bool) {
        if self.open {
            self.rec.tlb_lookup(hit);
        }
    }

    #[inline]
    fn dcache_access(&mut self, _now: u64, hit: bool) {
        if self.open {
            self.rec.dcache_access(hit);
        }
    }

    #[inline]
    fn walk(&mut self, _now: u64, _vpn: u64, latency: u64) {
        if self.open {
            self.rec.walk(latency);
        }
    }

    #[inline]
    fn sample(&mut self, _now: u64, occupancy: &OccupancySample) {
        if self.open {
            self.rec.sample(occupancy);
        }
    }
    // hbat-lint: cold

    fn finished(&self) -> bool {
        self.done
    }
}

/// One sampled cell's result: the per-window measurements plus their
/// sum in [`RunMetrics`] form.
///
/// Only the counters a [`WindowGate`] observes are populated in
/// `metrics` — `cycles`, `committed`, `issued`, `tlb.{accesses,misses}`
/// and `dcache.{accesses,misses}` — and they cover the *measured
/// windows only*, not the whole trace. Every other field stays 0. Rates
/// derived from these sums (IPC, miss ratios) are the sample estimates;
/// [`cpi_interval`]/[`ipc_interval`] add the error bars.
#[derive(Debug, Clone, Default)]
pub struct SampledCell {
    /// Per-window measurements, in trace order. `start` holds the
    /// window's first *measured op index* in the sampled trace (not a
    /// cycle — sampled windows are placed in instructions).
    pub windows: Vec<IntervalRecord>,
    /// Window-summed counters in the journal's metrics shape.
    pub metrics: RunMetrics,
}

impl SampledCell {
    /// Sums the measured windows into the journal's [`RunMetrics`]
    /// shape (see the type-level doc for which fields are populated).
    fn sum_windows(windows: &[IntervalRecord]) -> RunMetrics {
        let mut m = RunMetrics::default();
        for w in windows {
            m.cycles += w.cycles;
            m.committed += w.committed;
            m.issued += w.issued;
            m.tlb.accesses += w.tlb_lookups;
            m.tlb.misses += w.tlb_misses;
            m.dcache.accesses += w.dcache_accesses;
            m.dcache.misses += w.dcache_misses;
        }
        m
    }

    /// Rebuilds a cell from journalled windows (the `--resume` path).
    /// The metrics sum is recomputed, so a resumed cell is bit-identical
    /// to the run that produced the windows.
    pub fn from_windows(windows: Vec<IntervalRecord>) -> SampledCell {
        let metrics = SampledCell::sum_windows(&windows);
        SampledCell { windows, metrics }
    }
}

/// One window of a warm schedule: where it sits, the install-form
/// [`WarmState`] at its `warm_start`, and the ops it times in detail.
#[derive(Debug, Clone)]
pub struct ScheduledWindow {
    /// The window's placement in the sampled op stream.
    pub window: SampleWindow,
    /// The accumulator's install form at `window.warm_start`.
    pub warm: WarmState,
    /// The detail slice: the window's warmup and measured ops plus a
    /// drain margin of `4 × rob_entries` ops, cut at the end of the
    /// stream. The margin lets the gate close while the pipeline is
    /// still full. Ending the slice exactly at the window boundary
    /// would let the window pocket the warmup's in-flight head start
    /// (up to a ROB's worth of pre-issued work) without paying any
    /// tail, biasing IPC high by roughly `rob_entries / window_len`. A
    /// [`WindowGate`] finishes at its close and the run ends there, so
    /// the margin is fetched behind the measured ops but not simulated
    /// past the close. A margin can reach into the next window, so on
    /// short streams one op may sit in more than one slice. Stored as a
    /// [`Tape`] that shares the source's templates.
    pub ops: Tape,
}

/// The design-independent half of a sampled cell: one
/// [`ScheduledWindow`] per window of `plan_windows(plan, n)`, from a
/// single functional-warming pass over `src`, a stream of `n` committed
/// instructions, that continues a clone of `start` (`None` = cold
/// start, i.e. the stream begins at program start). Window `k`'s state
/// is what the accumulator holds at its `warm_start`.
///
/// The stream is read only as far as the last detail slice reaches, in
/// chunks between the points where a window starts, a slice ends or
/// warming stops. Outside the slices the source runs straight into the
/// accumulator and nothing is kept; only the slices' ops are kept, as
/// tapes of the source's templates, so a schedule holds the windows,
/// not the stream. A sweep feeds it from a program's
/// [`ProgramTail::stream`](crate::ckpt::ProgramTail::stream), and
/// [`run_sampled_uops`] from a slice of ops, through the one
/// [`OpSource`] interface.
///
/// Nothing here depends on the translation design, so a sweep builds
/// the schedule once per program and every design's
/// [`run_sampled_windows`] replays it (DESIGN.md §15).
///
/// # Panics
///
/// If `src` ends before a planned window starts: the caller's `n`
/// overstates the stream.
pub fn warm_schedule(
    mut src: impl OpSource,
    n: u64,
    cfg: &ExperimentConfig,
    start: Option<&WarmAccumulator>,
    plan: &SamplePlan,
) -> Vec<ScheduledWindow> {
    let mut acc = start
        .cloned()
        .unwrap_or_else(|| WarmAccumulator::new(&cfg.sim, cfg.geometry));
    let windows = plan_windows(plan, n);
    let drain = 4 * cfg.sim.rob_entries as u64;
    let slice_end = |w: &SampleWindow| w.end.saturating_add(drain).min(n);
    let Some(last) = windows.last() else {
        return Vec::new();
    };
    // The accumulator is the sole warm-state carrier, so it sees every
    // op before the last window's start exactly once; later ops never
    // reach a state.
    let (last_start, stop) = (last.warm_start, slice_end(last));
    let mut schedule: Vec<ScheduledWindow> = Vec::with_capacity(windows.len());
    // Slices `open..schedule.len()` are still collecting ops.
    let mut open = 0;
    let mut i = 0;
    while i < stop {
        if let Some(&window) = windows.get(schedule.len()).filter(|w| w.warm_start == i) {
            let warm = {
                let _warm = prof::scope("warm-state");
                acc.warm_state()
            };
            let mut ops = src.tape();
            ops.reserve((slice_end(&window) - i) as usize);
            schedule.push(ScheduledWindow { window, warm, ops });
        }
        // The chunk runs to the next window start (the last one ends the
        // warming) or the end of the oldest open slice, whichever comes
        // first.
        let mut next = stop;
        if let Some(w) = windows.get(schedule.len()) {
            next = next.min(w.warm_start);
        }
        if let Some(w) = schedule.get(open) {
            next = next.min(slice_end(&w.window));
        }
        let want = next - i;
        let fed = match schedule[open..].split_last_mut() {
            // No slice is open, so this is a gap before the last window.
            None => src.feed(want, &mut acc),
            // The newest slice collects the chunk's ops; older open
            // slices copy them.
            Some((newest, older)) => {
                let from = newest.ops.len();
                let fed = if i < last_start {
                    src.feed(want, &mut (&mut acc, &mut newest.ops))
                } else {
                    src.feed(want, &mut newest.ops)
                };
                for w in older {
                    let mut copy = newest.ops.reader();
                    copy.feed(from as u64, &mut ());
                    copy.feed(fed, &mut w.ops);
                }
                fed
            }
        };
        if fed < want {
            break;
        }
        i = next;
        while schedule
            .get(open)
            .is_some_and(|w| slice_end(&w.window) == i)
        {
            open += 1;
        }
    }
    assert_eq!(
        schedule.len(),
        windows.len(),
        "the op stream ended before window {} of {}",
        schedule.len(),
        windows.len()
    );
    schedule
}

/// The per-design half of a sampled cell: times every window of
/// `schedule` (from [`warm_schedule`]) in detail under `design`, each
/// from its own warm state. The schedule is only read, so any number
/// of designs may share one.
pub fn run_sampled_windows(
    design: DesignSpec,
    cfg: &ExperimentConfig,
    schedule: &[ScheduledWindow],
) -> SampledCell {
    let records = schedule
        .iter()
        .map(|s| {
            let w = &s.window;
            let mut gate = WindowGate::new(w.meas_start - w.warm_start, w.end - w.meas_start);
            run_cell(s.ops.reader(), design, cfg, &s.warm, &mut gate);
            let mut rec = gate.record();
            rec.start = w.meas_start;
            rec
        })
        .collect();
    SampledCell::from_windows(records)
}

/// Runs one sampled (trace, design) cell: [`warm_schedule`] straight
/// over the slice `ops`, then [`run_sampled_windows`].
/// Deterministic: identical `(ops, design, cfg, start, plan)` give
/// identical results.
///
/// # Panics
///
/// If the serials of a window's slice are not contiguous.
pub fn run_sampled_uops(
    ops: &[MicroOp],
    design: DesignSpec,
    cfg: &ExperimentConfig,
    start: Option<&WarmAccumulator>,
    plan: &SamplePlan,
) -> SampledCell {
    let schedule = warm_schedule(ops, ops.len() as u64, cfg, start, plan);
    run_sampled_windows(design, cfg, &schedule)
}

/// The primary estimator: a Student-t interval over per-window CPI
/// (cycles per committed instruction). Windows hold equal committed
/// counts by construction, so the mean of per-window CPIs is the ratio
/// estimator for aggregate CPI. Windows that measured nothing are
/// excluded (they carry no timing information); zero usable windows
/// yield the degenerate full-width interval.
pub fn cpi_interval(windows: &[IntervalRecord], level: ConfLevel) -> ConfidenceInterval {
    let mut s = hbat_stats::Summary::new();
    for w in windows {
        if w.committed > 0 {
            s.push(w.cycles as f64 / w.committed as f64);
        }
    }
    ConfidenceInterval::from_summary(&s, level)
}

/// The IPC interval, by exact monotone transform of the CPI interval:
/// `ipc = 1/cpi` maps `[cpi_lo, cpi_hi]` to `[1/cpi_hi, 1/cpi_lo]`
/// with unchanged coverage. The returned interval is re-centred on
/// `1/cpi_mean` with the conservative symmetric half-width
/// `max(mean - lo, hi - mean)`, so `covers` can only over-cover.
/// Degenerate CPI intervals (or a CPI lower bound at or below zero,
/// where the transform's upper bound is unbounded) stay degenerate.
pub fn ipc_interval(windows: &[IntervalRecord], level: ConfLevel) -> ConfidenceInterval {
    let cpi = cpi_interval(windows, level);
    if cpi.mean <= 0.0 {
        return ConfidenceInterval {
            mean: 0.0,
            half_width: f64::INFINITY,
            level: cpi.level,
            n: cpi.n,
        };
    }
    let mean = 1.0 / cpi.mean;
    let half_width = if cpi.half_width.is_finite() && cpi.lo() > 0.0 {
        let lo = 1.0 / cpi.hi();
        let hi = 1.0 / cpi.lo();
        (mean - lo).max(hi - mean)
    } else {
        f64::INFINITY
    };
    ConfidenceInterval {
        mean,
        half_width,
        level: cpi.level,
        n: cpi.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::ProgramTail;
    use hbat_isa::Machine;
    use hbat_obs::Tee;
    use hbat_workloads::Scale;

    fn plan(n: u64, len: u64, warm: u64) -> SamplePlan {
        SamplePlan {
            n_windows: n,
            window_len: len,
            warmup_len: warm,
            seed: 1996,
        }
    }

    #[test]
    fn plan_parses_cli_forms_and_rejects_junk() {
        assert_eq!(
            SamplePlan::parse("30", 7).unwrap(),
            SamplePlan {
                n_windows: 30,
                window_len: DEFAULT_WINDOW_LEN,
                warmup_len: DEFAULT_WINDOW_LEN / 4,
                seed: 7
            }
        );
        assert_eq!(
            SamplePlan::parse("8:500", 7).unwrap(),
            plan(8, 500, 125).with_seed(7)
        );
        assert_eq!(
            SamplePlan::parse("8:500:0", 7).unwrap(),
            plan(8, 500, 0).with_seed(7)
        );
        for bad in ["", "0", "8:0", "8:100:25:9", "x", "8:y", "8:100:z", "-3"] {
            assert!(SamplePlan::parse(bad, 7).is_err(), "{bad:?} must fail");
        }
        assert_eq!(
            SamplePlan::parse("8:500:125", 7).unwrap().render(),
            "8:500:125"
        );
    }

    impl SamplePlan {
        fn with_seed(mut self, seed: u64) -> SamplePlan {
            self.seed = seed;
            self
        }
    }

    #[test]
    fn windows_are_systematic_nonoverlapping_and_in_bounds() {
        let p = plan(10, 100, 25);
        let ws = plan_windows(&p, 10_000);
        assert_eq!(ws.len(), 10);
        for w in &ws {
            assert_eq!(w.meas_start - w.warm_start, 25);
            assert_eq!(w.end - w.meas_start, 100);
            assert!(w.end <= 10_000);
        }
        for pair in ws.windows(2) {
            assert!(
                pair[0].end <= pair[1].warm_start,
                "windows must not overlap"
            );
            assert_eq!(
                pair[1].warm_start - pair[0].warm_start,
                1000,
                "systematic period"
            );
        }
        // Determinism: same plan, same placement; different seed, shifted.
        assert_eq!(plan_windows(&p, 10_000), ws);
        let shifted = plan_windows(&p.with_seed(2), 10_000);
        assert_ne!(shifted, ws);
    }

    // An oversized window count plans only the windows that fit, and
    // reserves no more than that.
    #[test]
    fn a_huge_window_count_plans_the_windows_that_fit() {
        let ws = plan_windows(&plan(u64::MAX, 100, 25), 10_000);
        assert_eq!(ws.len(), 80);
        for w in &ws {
            assert!(w.warm_start < w.meas_start && w.meas_start < w.end);
            assert!(w.end <= 10_000);
        }
        for pair in ws.windows(2) {
            assert!(pair[0].end <= pair[1].warm_start, "{pair:?}");
        }
        assert!(ws.capacity() <= 10_000 / 125 + 1);
    }

    #[test]
    fn short_traces_degrade_gracefully() {
        assert!(plan_windows(&plan(4, 100, 25), 0).is_empty());
        // Trace shorter than one window: one clamped window, no warmup.
        let ws = plan_windows(&plan(4, 1000, 250), 60);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].end - ws[0].meas_start, 60);
        // Trace fits some but not all windows.
        let ws = plan_windows(&plan(8, 100, 0), 250);
        assert!(ws.len() < 8 && !ws.is_empty(), "{ws:?}");
        for w in &ws {
            assert!(w.end <= 250);
        }
    }

    #[test]
    fn gate_measures_exactly_the_post_warmup_committed_stream() {
        let mut g = WindowGate::new(10, 5);
        // 4 cycles of warmup committing 3 each: 12 committed, 2 excess.
        for now in 0..4u64 {
            g.issue_cycle(now, 3);
            g.tlb_lookup(now, true);
            g.commit_cycle(now, 3);
        }
        let r = g.record();
        assert_eq!(r.committed, 2, "excess beyond the warmup is measured");
        assert_eq!(r.tlb_lookups, 0, "pre-open lookups are discarded");
        // 3 stall/issue cycle pairs; the limit of 5 is reached on the
        // last commit. (This synthetic sequence fires a cycle's other
        // probes before its commit; the engine's order, commit first,
        // is checked below.)
        for now in 4..7u64 {
            g.stall_cycle(2 * now, StallCause::DcacheMiss);
            g.issue_cycle(2 * now + 1, 1);
            g.commit_cycle(2 * now + 1, 1);
        }
        let r = g.record();
        assert_eq!(r.committed, 5, "limit reached exactly");
        assert_eq!(r.cycles, 6, "3 issue + 3 stall cycles after opening");
        assert_eq!(r.issue_cycles + r.stall_cycles(), r.cycles);
        // Gate is closed now: further activity (the drain tail) is
        // discarded, and an over-full closing commit would have been
        // clipped to the limit.
        g.issue_cycle(7, 8);
        g.commit_cycle(7, 8);
        g.tlb_lookup(7, false);
        let r2 = g.record();
        assert_eq!(r2, r, "post-close probes must not leak in");

        // A closing commit that overshoots the limit is clipped.
        let mut g = WindowGate::new(0, 3);
        g.issue_cycle(0, 8);
        g.commit_cycle(0, 8);
        assert_eq!(g.record().committed, 3, "closing commit clipped");

        // skip == 0 opens immediately: cycles before the first commit
        // still count.
        let mut g = WindowGate::new(0, 100);
        g.stall_cycle(0, StallCause::FetchStarved);
        g.issue_cycle(1, 2);
        g.commit_cycle(1, 2);
        assert_eq!(g.record().cycles, 2);
        assert_eq!(g.record().committed, 2);

        // The engine's order: each cycle commits, then looks up, then
        // charges the cycle to issue or a stall. The opening cycle (1)
        // is counted and the closing cycle (3) is not.
        let mut g = WindowGate::new(4, 6);
        let cycles: [(u32, Option<u32>); 5] = [
            (2, Some(2)),
            (3, Some(1)),
            (2, None),
            (4, Some(3)),
            (1, Some(1)),
        ];
        for (now, &(committed, issued)) in cycles.iter().enumerate() {
            let now = now as u64;
            g.commit_cycle(now, committed);
            g.tlb_lookup(now, false);
            match issued {
                Some(n) => g.issue_cycle(now, n),
                None => g.stall_cycle(now, StallCause::NoReadyOp),
            }
            assert_eq!(g.finished(), now >= 3, "finished from the close on");
        }
        let r = g.record();
        assert_eq!(r.committed, 6, "1 excess at open + 2 + 3 clipped at close");
        assert_eq!(
            r.cycles,
            3 - 1,
            "closing commit cycle - opening commit cycle"
        );
        assert_eq!((r.issue_cycles, r.stall_cycles()), (1, 1));
        assert_eq!(
            r.tlb_lookups, 2,
            "cycles 1 and 2; the close shuts out cycle 3's"
        );
    }

    #[test]
    fn cpi_and_ipc_intervals_transform_exactly() {
        let mk = |cycles, committed| IntervalRecord {
            cycles,
            committed,
            ..IntervalRecord::default()
        };
        let ws: Vec<IntervalRecord> = vec![mk(200, 100), mk(220, 100), mk(180, 100), mk(210, 100)];
        let cpi = cpi_interval(&ws, ConfLevel::P95);
        assert_eq!(cpi.n, 4);
        assert!((cpi.mean - 2.025).abs() < 1e-12);
        assert!(cpi.half_width.is_finite());
        let ipc = ipc_interval(&ws, ConfLevel::P95);
        assert!((ipc.mean - 1.0 / 2.025).abs() < 1e-12);
        // The transformed bounds are inside the conservative symmetric ones.
        assert!(ipc.lo() <= 1.0 / cpi.hi() + 1e-15);
        assert!(ipc.hi() >= 1.0 / cpi.lo() - 1e-15);
        // An empty-window cell degenerates instead of NaN-ing.
        let empty = ipc_interval(&[], ConfLevel::P95);
        assert!(empty.half_width.is_infinite());
        assert!(!empty.mean.is_nan());
        // A lone window: mean defined, width infinite.
        let one = ipc_interval(&ws[..1], ConfLevel::P95);
        assert!((one.mean - 0.5).abs() < 1e-12);
        assert!(one.half_width.is_infinite());
        // Zero-committed windows are excluded, not divided by.
        let with_empty = [mk(0, 0), mk(200, 100)];
        assert_eq!(cpi_interval(&with_empty, ConfLevel::P95).n, 1);
    }

    // End-to-end determinism and sanity on a real workload: same plan →
    // identical windows; the sampled IPC estimate lands near the full
    // run's and its CI covers it.
    #[test]
    fn sampled_cell_is_deterministic_and_covers_ground_truth() {
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let design = DesignSpec::MultiPorted { ports: 4 };
        let ops = Benchmark::Compress.build(&cfg.workload).uops();
        let p = plan(12, 400, 100);

        let a = run_sampled_uops(&ops, design, &cfg, None, &p);
        let b = run_sampled_uops(&ops, design, &cfg, None, &p);
        assert_eq!(a.windows, b.windows, "sampling must be deterministic");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.windows.len(), 12);
        for w in &a.windows {
            assert_eq!(w.committed, 400, "every window measures window_len");
            assert_eq!(
                w.issue_cycles + w.stall_cycles(),
                w.cycles,
                "attribution invariant holds inside measured windows"
            );
        }

        let full = crate::experiment::run_cell_uops(&ops, design, &cfg);
        let ipc = ipc_interval(&a.windows, ConfLevel::P95);
        assert!(
            ipc.covers(full.ipc()),
            "sampled CI {} must cover full-run IPC {:.4}",
            ipc.render(4),
            full.ipc()
        );
        assert!(
            (ipc.mean - full.ipc()).abs() / full.ipc() < 0.10,
            "point estimate {:.4} strays far from ground truth {:.4}",
            ipc.mean,
            full.ipc()
        );
    }

    // A sampled run chained from a fast-forward's accumulator must place
    // windows in the tail and still behave: this is the
    // checkpoint-composition path (restore → gap → window …).
    #[test]
    fn sampled_cell_chains_from_a_checkpoint_export() {
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let design = DesignSpec::MultiPorted { ports: 4 };
        let ws = crate::ckpt::build_warm_start_cold(Benchmark::Compress, &cfg, 1_000).unwrap();
        let ws = ProgramTail::new(ws).unwrap();
        let p = plan(6, 200, 50);
        let mut tail = Vec::new();
        ws.stream().feed(u64::MAX, &mut tail);
        let a = run_sampled_uops(&tail, design, &cfg, Some(&ws.start.acc), &p);
        let b = run_sampled_uops(&tail, design, &cfg, Some(&ws.start.acc), &p);
        assert_eq!(a.windows, b.windows);
        assert!(!a.windows.is_empty());
        let full = run_cell(
            ws.stream(),
            design,
            &cfg,
            &ws.start.acc.warm_state(),
            hbat_obs::NullRecorder,
        );
        let ipc = ipc_interval(&a.windows, ConfLevel::P95);
        assert!(
            ipc.covers(full.ipc()),
            "warm-chained CI {} must cover warm full-run IPC {:.4}",
            ipc.render(4),
            full.ipc()
        );
    }

    /// The schedule a stream of `n` ops from `src` builds, checked
    /// against slicing `full`, of which the stream is the suffix from
    /// `skip` on: window `k` holds a cold accumulation of `full` up to
    /// its start and the ops from its start to its drain margin's end.
    /// Returns the windows and how many ops the builder read, as
    /// `read(src)` counts them.
    fn check_schedule<S: OpSource>(
        cfg: &ExperimentConfig,
        full: &[MicroOp],
        skip: usize,
        (mut src, n): (S, u64),
        read: impl Fn(&S) -> u64,
        start: Option<&WarmAccumulator>,
        p: &SamplePlan,
    ) -> (Vec<SampleWindow>, u64) {
        let schedule = warm_schedule(&mut src, n, cfg, start, p);
        let windows = plan_windows(p, n);
        assert_eq!(schedule.len(), windows.len(), "one entry per window");
        let drain = 4 * cfg.sim.rob_entries;
        for (k, (w, s)) in windows.iter().zip(&schedule).enumerate() {
            assert_eq!(s.window, *w, "window {k}");
            let at = skip + w.warm_start as usize;
            let mut acc = WarmAccumulator::new(&cfg.sim, cfg.geometry);
            acc.warm_gap(&full[..at]);
            assert!(s.warm == acc.warm_state(), "window {k}: state differs");
            let end = (skip + w.end as usize + drain).min(skip + n as usize);
            assert_eq!(s.ops.to_ops(), full[at..end], "window {k}: slice differs");
        }
        (windows, read(&src))
    }

    // The schedule is the accumulator's state at each window start plus
    // the window's detail slice, whichever state it starts from, however
    // many windows fit, and whether the ops come from a slice or
    // straight from a machine. A schedule chained
    // from a fast-forward's accumulator is the exact continuation: it
    // equals a cold accumulation of the whole trace up to each window.
    // The builder reads the stream no further than the last slice.
    #[test]
    fn warm_schedule_streams_the_states_and_slices_of_the_full_trace() {
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let ops = Benchmark::Compress.build(&cfg.workload).uops();
        let full = &ops[..];
        fn trace(ops: &[MicroOp]) -> (&[MicroOp], u64) {
            (ops, ops.len() as u64)
        }
        let trace_read = |rest: &&[MicroOp]| (full.len() - rest.len()) as u64;
        let machine = |n: u64| (Benchmark::Compress.build(&cfg.workload).instantiate(), n);
        let machine_read = |m: &Machine| m.instructions_retired();
        let n = full.len() as u64;

        let p = plan(8, 300, 50);
        let (ws, read) = check_schedule(&cfg, full, 0, trace(full), trace_read, None, &p);
        assert_eq!(ws.len(), 8);
        assert_eq!(read, ws[7].end + 256, "reads to the last slice's end");
        let (mws, mread) = check_schedule(&cfg, full, 0, machine(n), machine_read, None, &p);
        assert_eq!((mws, mread), (ws, read));

        let start = crate::ckpt::build_warm_start_cold(Benchmark::Compress, &cfg, 1_000).unwrap();
        let tail = ProgramTail::new(start).unwrap();
        let skip = tail.start.start as usize;
        let mut tail_ops = Vec::new();
        tail.stream().feed(u64::MAX, &mut tail_ops);
        assert_eq!(full[skip..], tail_ops);
        let (ws, _) = check_schedule(
            &cfg,
            full,
            skip,
            (tail.stream(), tail.n),
            |_| 0,
            Some(&tail.start.acc),
            &plan(6, 200, 50),
        );
        assert_eq!(ws.len(), 6);

        // 900 ops hold three 250-op windows back to back, not the eight
        // asked for, and each 256-op drain margin runs past the next
        // window's start: ops 500..506 sit in all three slices. The
        // stream runs on past 900; the builder stops there.
        let p = plan(8, 200, 50);
        for (ws, read) in [
            check_schedule(&cfg, full, 0, (full, 900), trace_read, None, &p),
            check_schedule(&cfg, full, 0, machine(900), machine_read, None, &p),
        ] {
            assert_eq!(
                ws.iter().map(|w| w.warm_start).collect::<Vec<_>>(),
                [0, 250, 500]
            );
            assert_eq!(read, 900);
        }
        // A stream shorter than one window: one clamped window, its
        // slice the whole stream.
        let p = plan(4, 1000, 250);
        let (ws, read) = check_schedule(&cfg, full, 0, machine(60), machine_read, None, &p);
        assert_eq!(
            (ws.len(), ws[0].warm_start, ws[0].end, read),
            (1, 0, 60, 60)
        );
        assert!(warm_schedule(machine(0).0, 0, &cfg, None, &p).is_empty());
    }

    // Fed from a machine, from its stored ops or from a tape of them,
    // the schedule is the same in windows, warm states and slice ops, on
    // every workload, from program start and chained from a
    // fast-forward's accumulator, and under a plan whose drain margins
    // overlap the next windows.
    #[test]
    fn machine_fed_schedule_equals_the_slice_fed_one_on_every_workload() {
        use hbat_ckpt::fast_forward;
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        for bench in Benchmark::ALL {
            let mut start = crate::ckpt::WarmStart::program_start(bench, &cfg);
            let ops = start.machine.clone().run_to_uops(start.max_steps);
            let cold = (start.machine.clone(), ops);
            fast_forward(
                &mut start.machine,
                &mut start.acc,
                0,
                1_000,
                1_000,
                None,
                |_, _, _| Ok(()),
            )
            .unwrap();
            let tail = start.machine.clone().run_to_uops(start.max_steps);
            let chained = (start.machine.clone(), tail);
            for ((machine, ops), acc) in [(cold, None), (chained, Some(&start.acc))] {
                let n = ops.len() as u64;
                // Three 250-op windows back to back in 900 ops, each
                // drain margin reaching into the next window.
                let mut tape = machine.tape();
                machine.clone().feed_tape(start.max_steps, &mut tape);
                for (n, p) in [(n, plan(8, 300, 50)), (n.min(900), plan(8, 200, 50))] {
                    let from_machine = warm_schedule(machine.clone(), n, &cfg, acc, &p);
                    let from_slice = warm_schedule(&ops[..], n, &cfg, acc, &p);
                    let from_tape = warm_schedule(tape.reader(), n, &cfg, acc, &p);
                    let what = format!("{} from {:?}, {n} ops", bench.name(), acc.is_some());
                    assert_eq!(from_machine.len(), from_slice.len(), "{what}");
                    assert_eq!(from_tape.len(), from_slice.len(), "{what}");
                    assert!(!from_slice.is_empty(), "{what}");
                    for ((m, s), t) in from_machine.iter().zip(&from_slice).zip(&from_tape) {
                        assert_eq!(m.window, s.window, "{what}");
                        assert!(m.warm == s.warm, "{what} {:?}: state differs", s.window);
                        assert!(t.warm == s.warm, "{what} {:?}: state differs", s.window);
                        assert_eq!(m.ops, s.ops, "{what} {:?}", s.window);
                        assert_eq!(t.ops, s.ops, "{what} {:?}", s.window);
                    }
                }
            }
        }
    }

    /// Logs every commit cycle with the running committed count, and
    /// never finishes.
    #[derive(Default)]
    struct CommitLog(Vec<(u64, u64)>);
    impl Recorder for CommitLog {
        const ENABLED: bool = true;
        fn commit_cycle(&mut self, now: u64, committed: u32) {
            let total = self.0.last().map_or(0, |&(_, t)| t) + u64::from(committed);
            self.0.push((now, total));
        }
    }

    // On the real engine, a window's cycles run from the cycle whose
    // commit opens the gate (counted) to the one whose commit closes it
    // (not counted), and a gate-only run stops right after the close
    // with the commits it retired.
    #[test]
    fn window_cycles_span_the_opening_to_the_closing_commit_cycle() {
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let design = DesignSpec::MultiPorted { ports: 4 };
        let tail = ProgramTail::program_start(Benchmark::Compress, &cfg).unwrap();
        let schedule = tail.schedule(&cfg, &plan(6, 400, 100));
        for ScheduledWindow {
            window: w,
            warm,
            ops: slice,
        } in &schedule
        {
            let (skip, limit) = (w.meas_start - w.warm_start, w.end - w.meas_start);
            let (mut gate, mut log) = (WindowGate::new(skip, limit), CommitLog::default());
            run_cell(
                slice.reader(),
                design,
                &cfg,
                warm,
                Tee::new(&mut gate, &mut log),
            );
            let first_reaching = |n: u64| *log.0.iter().find(|&&(_, t)| t >= n).unwrap();
            let open = first_reaching(skip).0;
            let (close, retired) = first_reaching(skip + limit);
            assert_eq!(gate.record().cycles, close - open, "{w:?}");
            assert_eq!(gate.record().committed, limit);

            let mut stopped = WindowGate::new(skip, limit);
            let m = run_cell(slice.reader(), design, &cfg, warm, &mut stopped);
            assert_eq!(stopped.record(), gate.record(), "{w:?}");
            assert_eq!(m.cycles, close + 1, "stops after the closing cycle");
            assert_eq!(m.committed, retired, "reports what it retired");
        }
    }

    // Stopping at the close changes no measurement: for every Table-2
    // design under both issue models, the sampled cell equals one whose
    // gate is teed with a recorder that never finishes, and the stopped
    // runs simulate fewer cycles.
    #[test]
    fn early_stop_leaves_every_window_record_unchanged() {
        use hbat_workloads::Benchmark;
        let p = plan(6, 400, 100);
        for cfg in [
            ExperimentConfig::baseline(Scale::Test),
            ExperimentConfig::baseline(Scale::Test).with_inorder(),
        ] {
            let tail = ProgramTail::program_start(Benchmark::Compress, &cfg).unwrap();
            let schedule = tail.schedule(&cfg, &p);
            for design in DesignSpec::TABLE2 {
                let cell = run_sampled_windows(design, &cfg, &schedule);
                let (mut stopped_cycles, mut full_cycles) = (0, 0);
                for (s, got) in schedule.iter().zip(&cell.windows) {
                    let (w, warm, slice) = (&s.window, &s.warm, &s.ops);
                    let (skip, limit) = (w.meas_start - w.warm_start, w.end - w.meas_start);
                    let mut gate = WindowGate::new(skip, limit);
                    let tee = Tee::new(&mut gate, hbat_obs::NullRecorder);
                    full_cycles += run_cell(slice.reader(), design, &cfg, warm, tee).cycles;
                    let mut want = gate.record();
                    want.start = w.meas_start;
                    assert_eq!(*got, want, "{design:?} {:?} {w:?}", cfg.sim.issue_model);
                    let mut gate = WindowGate::new(skip, limit);
                    stopped_cycles +=
                        run_cell(slice.reader(), design, &cfg, warm, &mut gate).cycles;
                }
                assert!(
                    stopped_cycles < full_cycles,
                    "{design:?}: stopped {stopped_cycles} vs full {full_cycles} cycles"
                );
            }
        }
    }

    #[test]
    fn from_windows_rebuilds_identical_metrics() {
        use hbat_workloads::Benchmark;
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let design = DesignSpec::MultiPorted { ports: 1 };
        let ops = Benchmark::Compress.build(&cfg.workload).uops();
        let cell = run_sampled_uops(&ops, design, &cfg, None, &plan(5, 300, 50));
        let rebuilt = SampledCell::from_windows(cell.windows.clone());
        assert_eq!(
            rebuilt.metrics, cell.metrics,
            "resume path is bit-identical"
        );
    }
}
