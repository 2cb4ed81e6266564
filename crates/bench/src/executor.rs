//! The cell-level sweep executor: a self-scheduling worker pool over
//! (benchmark, design) cells, with fault-tolerant cell execution, and
//! the process-wide trace cache that single-cell callers share.
//!
//! A sweep runs in two phases, each scheduled at cell granularity:
//!
//! 1. **Start and count** — each benchmark, in parallel, builds its
//!    machine at the timing start (or fast-forwards to the `--ff`
//!    boundary) and counts the ops it runs from there on a clone.
//! 2. **Cell execution** — all benchmark × design cells go into one
//!    shared queue; workers claim the next cell with an atomic fetch-add
//!    until the queue drains, so a slow cell never idles the other
//!    workers. A full cell streams a clone of its benchmark's machine
//!    into the engine, so no trace is stored. In a sampled sweep a
//!    benchmark's first cell builds the schedule its designs share, and
//!    its last cell drops it.
//!
//! Execution is *isolated per cell*: each attempt runs under
//! `catch_unwind`, so one panicking cell becomes a
//! [`CellOutcome::Panicked`] slot instead of unwinding the whole
//! `thread::scope` and losing every completed cell. A [`RunPolicy`]
//! adds bounded deterministic retries and a watchdog-enforced per-cell
//! deadline; see [`parallel_map_outcomes`].
//!
//! Scheduling is invisible in the results: every cell seeds its design's
//! replacement RNG from the experiment's `design_seed` and runs its own
//! clone of the machine or replays an immutable shared schedule, so the metrics are bit-identical to a
//! one-worker sweep regardless of worker count or claim order (tested in
//! `tests/executor.rs`).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use hbat_isa::tape::Tape;
use hbat_isa::uop::PredecodedTrace;
use hbat_workloads::{Benchmark, WorkloadConfig};

use crate::outcome::{panic_message, CellOutcome};

/// How many workers a sweep uses: `HBAT_THREADS` when set to a positive
/// integer (with a stderr warning otherwise), else the machine's
/// available parallelism.
pub fn worker_threads() -> usize {
    if let Ok(raw) = std::env::var("HBAT_THREADS") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!("warning: ignoring HBAT_THREADS={raw:?} (expected a positive integer)"),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Retry and deadline policy for cell execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPolicy {
    /// Re-attempts after a panicked attempt (0 = fail fast). Retries are
    /// deterministic: a cell re-runs with identical inputs and seeds.
    pub retries: u32,
    /// Per-cell wall-clock deadline enforced by the watchdog thread;
    /// `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Progress-heartbeat interval: a reporter thread prints cells
    /// done/failed/retried, throughput, and the ETA to stderr every
    /// interval. `None` means "unset" (callers pick their default);
    /// `Duration::ZERO` means explicitly off.
    pub heartbeat: Option<Duration>,
}

impl RunPolicy {
    /// Sets the per-cell deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the retry budget.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the heartbeat interval (`Duration::ZERO` switches it off).
    #[must_use]
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }
}

/// Renders one heartbeat line: progress, failure/retry counts,
/// throughput, and the ETA extrapolated from the current rate. When a
/// sliding-window rate is available (`recent`), it is shown alongside
/// the since-start rate and the ETA uses it — so the estimate recovers
/// after a stalled or retried cell instead of staying skewed by old
/// history for the rest of the sweep. The checkpoint counters
/// (process-wide, from [`hbat_ckpt::events`]) are appended only when a
/// checkpointed sweep has actually used them, so plain sweeps keep the
/// historical format.
fn heartbeat_line(
    done: usize,
    n: usize,
    failed: usize,
    retried: usize,
    elapsed: f64,
    recent: Option<f64>,
    ckpt: CkptCounters,
) -> String {
    let rate = if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        0.0
    };
    let eta_rate = recent.filter(|r| *r > 0.0).unwrap_or(rate);
    let eta = if done > 0 && eta_rate > 0.0 {
        format!("{:.0}s", (n - done) as f64 / eta_rate)
    } else {
        "?".to_owned()
    };
    let recent = match recent {
        Some(r) => format!(" (recent {r:.1})"),
        None => String::new(),
    };
    let mut line = format!(
        "heartbeat: {done}/{n} cells ({failed} failed, {retried} retried), {rate:.1} cells/s{recent}, ETA {eta}"
    );
    if ckpt != CkptCounters::default() {
        line.push_str(&format!(
            ", ckpt {} written/{} restored/{} rejected",
            ckpt.written, ckpt.restored, ckpt.rejected
        ));
    }
    line
}

/// Checkpoint event deltas for one sweep's heartbeat (counts since the
/// sweep started, not process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CkptCounters {
    written: u64,
    restored: u64,
    rejected: u64,
}

impl CkptCounters {
    /// The process-wide counters right now (a baseline to diff against).
    fn now() -> CkptCounters {
        CkptCounters {
            written: hbat_ckpt::events::written(),
            restored: hbat_ckpt::events::restored(),
            rejected: hbat_ckpt::events::rejected(),
        }
    }

    /// Events since `base`.
    fn since(base: CkptCounters) -> CkptCounters {
        let now = CkptCounters::now();
        CkptCounters {
            written: now.written.saturating_sub(base.written),
            restored: now.restored.saturating_sub(base.restored),
            rejected: now.rejected.saturating_sub(base.rejected),
        }
    }
}

/// Per-attempt execution context handed to fault-tolerant jobs.
pub struct CellCtx<'a> {
    cancelled: &'a AtomicBool,
    /// 1-based attempt number (first run is attempt 1).
    pub attempt: u32,
}

impl CellCtx<'_> {
    /// Has the watchdog cancelled this cell? Long-running cooperative
    /// jobs (and the injected stall fault) poll this to stop early.
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The raw cancellation flag, for jobs that hand it to helpers.
    pub fn cancel_flag(&self) -> &AtomicBool {
        self.cancelled
    }
}

/// The value behind a lock result, poisoned or not.
pub(crate) fn unpoisoned<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Runs every attempt of one cell and classifies the result.
fn run_one_cell<T, F>(
    i: usize,
    policy: &RunPolicy,
    job: &F,
    cancelled: &AtomicBool,
    started: &AtomicU64,
    epoch: Instant,
    retried: &AtomicUsize,
) -> CellOutcome<T>
where
    F: Fn(usize, &CellCtx) -> T + Sync,
{
    let max_attempts = policy.retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if attempt > 1 {
            retried.fetch_add(1, Ordering::Relaxed);
        }
        // Publish the attempt's start time for the watchdog (+1 so a
        // zero-millisecond offset is distinguishable from "idle").
        started.store(epoch.elapsed().as_millis() as u64 + 1, Ordering::SeqCst);
        let ctx = CellCtx { cancelled, attempt };
        let result = catch_unwind(AssertUnwindSafe(|| job(i, &ctx)));
        started.store(0, Ordering::SeqCst);
        if policy.timeout.is_some() && cancelled.load(Ordering::SeqCst) {
            // The watchdog cancelled this attempt; whatever the job
            // returned after the deadline is discarded.
            return CellOutcome::TimedOut { attempts: attempt };
        }
        match result {
            Ok(value) => return CellOutcome::Ok(value),
            Err(payload) if attempt >= max_attempts => {
                return CellOutcome::Panicked {
                    msg: panic_message(payload.as_ref()),
                    attempts: attempt,
                    payload,
                }
            }
            Err(_) => {} // retry
        }
    }
}

/// Set when a pool's last cell finishes. The heartbeat and watchdog
/// threads sleep on it between polls, so they exit as soon as the pool
/// drains instead of up to a poll interval later.
#[derive(Default)]
struct Drained {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Drained {
    fn set(&self) {
        *unpoisoned(self.flag.lock()) = true;
        self.cv.notify_all();
    }

    /// Sleeps for `d`, or until the pool drains if that comes first.
    fn sleep(&self, d: Duration) {
        let flag = unpoisoned(self.flag.lock());
        drop(unpoisoned(
            self.cv.wait_timeout_while(flag, d, |drained| !*drained),
        ));
    }
}

/// Runs `job(0..n)` across `threads` workers with per-cell fault
/// isolation, returning one [`CellOutcome`] per index, in index order.
///
/// Workers self-schedule (atomic fetch-add claim), every attempt runs
/// under `catch_unwind`, panicked cells retry up to `policy.retries`
/// times, and — when `policy.timeout` is set — a watchdog thread
/// cancels cells whose attempt exceeds the deadline (the job observes
/// this through [`CellCtx::cancelled`]; its late result is discarded
/// and the slot reports [`CellOutcome::TimedOut`]). The watchdog can
/// only *preempt* cooperative jobs; a job that never returns and never
/// polls its flag still wedges its worker.
pub fn parallel_map_outcomes<T, F>(
    n: usize,
    threads: usize,
    policy: &RunPolicy,
    job: F,
) -> Vec<CellOutcome<T>>
where
    T: Send,
    F: Fn(usize, &CellCtx) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cancelled: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let started: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let drained = Drained::default();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        if let Some(interval) = policy.heartbeat.filter(|d| !d.is_zero()) {
            // Progress reporter: prints every full interval, and is
            // woken when the pool drains.
            let poll = interval.min(Duration::from_millis(50));
            let (done, failed, retried, drained) = (&done, &failed, &retried, &drained);
            let ckpt_base = CkptCounters::now();
            scope.spawn(move || {
                let mut last_report = Instant::now();
                // Sliding window for the recent cells/s rate: the last
                // few (elapsed, done) samples, one per printed line.
                const WINDOW: usize = 8;
                let mut samples: std::collections::VecDeque<(f64, usize)> =
                    std::collections::VecDeque::with_capacity(WINDOW + 1);
                samples.push_back((0.0, 0));
                while done.load(Ordering::SeqCst) < n {
                    drained.sleep(poll);
                    if last_report.elapsed() >= interval {
                        last_report = Instant::now();
                        let d = done.load(Ordering::SeqCst);
                        if d >= n {
                            break;
                        }
                        let elapsed = epoch.elapsed().as_secs_f64();
                        let recent = samples.front().and_then(|&(t0, d0)| {
                            let dt = elapsed - t0;
                            (dt > 0.0 && d >= d0).then(|| (d - d0) as f64 / dt)
                        });
                        let mut line = heartbeat_line(
                            d,
                            n,
                            failed.load(Ordering::SeqCst),
                            retried.load(Ordering::SeqCst),
                            elapsed,
                            recent,
                            CkptCounters::since(ckpt_base),
                        );
                        if let Some(top) = hbat_obs::prof::busiest_root() {
                            line.push_str(&format!(", busiest {top}"));
                        }
                        eprintln!("{line}");
                        samples.push_back((elapsed, d));
                        if samples.len() > WINDOW {
                            samples.pop_front();
                        }
                    }
                }
            });
        }
        if let Some(deadline) = policy.timeout {
            let deadline_ms = deadline.as_millis() as u64;
            let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
            let (done, cancelled, started, drained) = (&done, &cancelled, &started, &drained);
            scope.spawn(move || {
                while done.load(Ordering::SeqCst) < n {
                    drained.sleep(poll);
                    let now = epoch.elapsed().as_millis() as u64;
                    for (flag, start) in cancelled.iter().zip(started) {
                        let s = start.load(Ordering::SeqCst);
                        if s != 0 && now.saturating_sub(s - 1) >= deadline_ms {
                            flag.store(true, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
        // hbat-lint: hot — the worker claim loop: one atomic per cell, no allocation
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // hbat-lint: allow(panic) cell index bounded by the claim guard above
                let (cancel, start) = (&cancelled[i], &started[i]);
                let outcome = run_one_cell(i, policy, &job, cancel, start, epoch, &retried);
                if !outcome.is_ok() {
                    failed.fetch_add(1, Ordering::SeqCst);
                }
                // hbat-lint: allow(panic) cell index bounded by the claim guard above
                *unpoisoned(slots[i].lock()) = Some(outcome);
                if done.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    drained.set();
                }
            });
        }
        // hbat-lint: cold
    });
    // Poison-tolerant drain: a slot mutex is only ever locked around the
    // store above (jobs run outside the lock), but even a poisoned slot
    // yields its value instead of a second opaque panic.
    slots
        .into_iter()
        .map(|slot| {
            unpoisoned(slot.into_inner()).unwrap_or(CellOutcome::Skipped {
                reason: "cell was never scheduled".to_owned(),
            })
        })
        .collect()
}

/// Runs `job(0..n)` across `threads` workers and returns the results in
/// index order. Workers self-schedule: each claims the next unclaimed
/// index with an atomic fetch-add, so imbalanced jobs spread naturally.
///
/// This is the all-or-nothing wrapper over [`parallel_map_outcomes`]
/// for jobs that are not expected to fail; sweeps that need partial
/// results use the outcome form directly.
///
/// # Panics
///
/// If a job panics, the *original* panic payload is re-raised on the
/// calling thread once the pool has drained (other cells complete
/// first; their results are discarded).
pub fn parallel_map<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 || n == 1 {
        return (0..n).map(job).collect();
    }
    let outcomes = parallel_map_outcomes(n, threads, &RunPolicy::default(), |i, _ctx| job(i));
    let mut out = Vec::with_capacity(n);
    for outcome in outcomes {
        match outcome {
            CellOutcome::Ok(value) => out.push(value),
            CellOutcome::Panicked { payload, .. } => std::panic::resume_unwind(payload),
            // No timeout or skip is possible under the default policy.
            other => panic!("unexpected outcome {} without a deadline", other.kind()),
        }
    }
    out
}

/// A process-wide cache of benchmark traces, keyed by the complete
/// workload identity. Each workload runs once straight to a [`Tape`]
/// (`Workload::tape`: the program's micro-op templates plus 12 bytes
/// per op), the one form the cache holds. Tapes are immutable once
/// built and shared as `Arc<Tape>`, and kept until the cache is
/// dropped, so sweeps, which store no whole trace, never use it;
/// single cells reach it through `tape_for`.
/// [`TraceCache::get_or_build_uops`] materialises a cached tape's
/// micro-ops for callers that take `&[MicroOp]`.
#[derive(Debug, Default)]
pub struct TraceCache {
    /// One slot per workload; the `OnceLock` lets concurrent requesters
    /// of the same trace block on a single builder instead of racing.
    slots: Mutex<HashMap<(Benchmark, WorkloadConfig), TraceSlot>>,
}

/// A shared once-built tape slot in the [`TraceCache`].
type TraceSlot = Arc<OnceLock<Arc<Tape>>>;

impl TraceCache {
    /// An empty cache (tests use private caches; `tape_for` shares
    /// [`TraceCache::global`]).
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide cache `tape_for` uses.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// Returns the tape of `bench` under `cfg`, building and publishing
    /// it if no other caller has yet, and whether this call built it.
    /// Concurrent requests for the same workload build it once; the
    /// rest block and share the result.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the trace builder. The slot is *not*
    /// wedged by that: the builder panic leaves the `OnceLock`
    /// uninitialized, so the next requester retries the build (see the
    /// builder-panic regression test).
    pub fn get_or_build_tape(&self, bench: Benchmark, cfg: &WorkloadConfig) -> (bool, Arc<Tape>) {
        self.get_or_build_with(bench, cfg, || {
            let _prof = hbat_obs::prof::scope("workload-build");
            bench.build(cfg).tape()
        })
    }

    /// [`TraceCache::get_or_build_tape`], with the tape's micro-ops
    /// materialised into a new [`PredecodedTrace`] on every call: the
    /// boundary for callers that take `&[MicroOp]`.
    ///
    /// [`MicroOp`]: hbat_isa::uop::MicroOp
    ///
    /// # Panics
    ///
    /// As [`TraceCache::get_or_build_tape`].
    pub fn get_or_build_uops(
        &self,
        bench: Benchmark,
        cfg: &WorkloadConfig,
    ) -> (bool, Arc<PredecodedTrace>) {
        let (built, tape) = self.get_or_build_tape(bench, cfg);
        (built, Arc::new(tape.to_ops().into()))
    }

    /// [`TraceCache::get_or_build_tape`] with an explicit builder — the
    /// form the fault-injection tests drive to exercise builder panics.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `build` (the slot stays retryable).
    pub fn get_or_build_with(
        &self,
        bench: Benchmark,
        cfg: &WorkloadConfig,
        build: impl FnOnce() -> Tape,
    ) -> (bool, Arc<Tape>) {
        let slot = {
            // Poison-tolerant: the map lock is never held across the
            // builder, so a poisoned lock only means another worker
            // panicked elsewhere; the map itself is still consistent.
            let mut slots = unpoisoned(self.slots.lock());
            slots.entry((bench, *cfg)).or_default().clone()
        };
        let mut built = false;
        let tape = slot
            .get_or_init(|| {
                built = true;
                Arc::new(build())
            })
            .clone();
        (built, tape)
    }

    /// The tapes held: one per workload built so far.
    pub fn len(&self) -> usize {
        let slots = unpoisoned(self.slots.lock());
        slots.values().filter(|slot| slot.get().is_some()).count()
    }

    /// True if no tape has been built.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where a sweep's wall time went, for throughput reporting.
#[derive(Debug, Clone, Default)]
pub struct SweepTelemetry {
    /// Worker threads used.
    pub threads: usize,
    /// Benchmark × design cells executed.
    pub cells: usize,
    /// Wall time of the start-and-count phase: building each program's
    /// machine at the timing start (fast-forwarding under `--ff`) and
    /// counting its ops. Tapes and schedules are built in the cell
    /// phase.
    pub trace_build: Duration,
    /// Wall time of the cell-execution phase.
    pub cell_exec: Duration,
}

impl SweepTelemetry {
    /// Total sweep wall time.
    pub fn wall(&self) -> Duration {
        self.trace_build + self.cell_exec
    }

    /// One-line human summary (figure binaries print this to stderr).
    /// The setup time is the start-and-count phase.
    pub fn summary(&self) -> String {
        format!(
            "{} cells on {} threads in {:.2?} (setup {:.2?}, cells {:.2?})",
            self.cells,
            self.threads,
            self.wall(),
            self.trace_build,
            self.cell_exec,
        )
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_workloads::Scale;

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(64, 4, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_serial() {
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(3, 1, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn parallel_map_reraises_the_original_payload() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(8, 4, |i| {
                if i == 3 {
                    std::panic::panic_any(String::from("original payload"));
                }
                i
            })
        });
        let payload = r.expect_err("the job panic must surface");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("original payload"),
            "the original payload survives, not a second opaque panic"
        );
    }

    #[test]
    fn outcomes_isolate_a_panicking_cell() {
        let outcomes = parallel_map_outcomes(16, 4, &RunPolicy::default(), |i, _ctx| {
            assert!(i != 5, "injected failure in cell 5");
            i * 10
        });
        assert_eq!(outcomes.len(), 16);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 5 {
                assert_eq!(o.kind(), "panicked");
                assert!(o.detail().contains("injected failure"), "{:?}", o.detail());
                assert_eq!(o.attempts(), 1);
            } else {
                assert_eq!(o.ok(), Some(&(i * 10)), "cell {i} must still complete");
            }
        }
    }

    #[test]
    fn retries_recover_transient_panics() {
        use std::sync::atomic::AtomicU32;
        let tries = AtomicU32::new(0);
        let policy = RunPolicy::default().with_retries(2);
        let outcomes = parallel_map_outcomes(4, 2, &policy, |i, ctx| {
            if i == 2 {
                tries.fetch_add(1, Ordering::SeqCst);
                assert!(ctx.attempt >= 2, "fails on the first attempt only");
            }
            i
        });
        assert!(outcomes.iter().all(CellOutcome::is_ok));
        assert_eq!(tries.load(Ordering::SeqCst), 2, "one failure + one retry");
    }

    #[test]
    fn retries_are_bounded() {
        let policy = RunPolicy::default().with_retries(2);
        let outcomes = parallel_map_outcomes(2, 2, &policy, |i, _ctx| {
            assert!(i != 1, "always fails");
            i
        });
        assert_eq!(outcomes[1].kind(), "panicked");
        assert_eq!(outcomes[1].attempts(), 3, "1 attempt + 2 retries");
        assert!(outcomes[0].is_ok());
    }

    #[test]
    fn watchdog_times_out_a_stalled_cell() {
        let policy = RunPolicy::default().with_timeout(Duration::from_millis(40));
        let (outcomes, wall) = timed(|| {
            parallel_map_outcomes(6, 3, &policy, |i, ctx| {
                if i == 4 {
                    // Cooperative wedge: spins until the watchdog cancels.
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                i
            })
        });
        assert_eq!(outcomes[4].kind(), "timed_out");
        for (i, o) in outcomes.iter().enumerate() {
            if i != 4 {
                assert_eq!(o.ok(), Some(&i), "non-stalled cells complete");
            }
        }
        assert!(
            wall < Duration::from_secs(10),
            "the stalled cell must not wedge the sweep: {wall:?}"
        );
    }

    // The heartbeat and watchdog threads sleep up to 50 ms between
    // polls; the pool must not wait out that sleep after its last cell.
    #[test]
    fn heartbeat_and_watchdog_wake_when_the_pool_drains() {
        let long = Duration::from_secs(30);
        let policy = RunPolicy {
            timeout: Some(long),
            ..RunPolicy::default()
        }
        .with_heartbeat(long);
        let t0 = Instant::now();
        let out = parallel_map_outcomes(4, 4, &policy, |i, _ctx| {
            std::thread::sleep(Duration::from_millis(5));
            i
        });
        let took = t0.elapsed();
        assert!(out.iter().enumerate().all(|(i, o)| o.ok() == Some(&i)));
        assert!(took < Duration::from_millis(40), "returned after {took:?}");
    }

    #[test]
    fn heartbeat_line_reports_progress_and_eta() {
        let s = heartbeat_line(25, 100, 2, 3, 5.0, None, CkptCounters::default());
        assert_eq!(
            s,
            "heartbeat: 25/100 cells (2 failed, 3 retried), 5.0 cells/s, ETA 15s"
        );
        // Before any cell completes the ETA is unknown, not a panic.
        let s0 = heartbeat_line(0, 100, 0, 0, 0.0, None, CkptCounters::default());
        assert!(s0.contains("0/100"), "{s0}");
        assert!(s0.ends_with("ETA ?"), "{s0}");
    }

    #[test]
    fn heartbeat_line_shows_recent_rate_and_bases_eta_on_it() {
        // Since-start: 25 cells in 25 s = 1.0 cells/s. Recent window:
        // 5.0 cells/s — the stall that produced the slow average is
        // over, so the ETA must extrapolate from the recent rate:
        // 75 remaining / 5.0 = 15 s, not 75 s.
        let s = heartbeat_line(25, 100, 2, 3, 25.0, Some(5.0), CkptCounters::default());
        assert_eq!(
            s,
            "heartbeat: 25/100 cells (2 failed, 3 retried), 1.0 cells/s (recent 5.0), ETA 15s"
        );
        // A zero recent rate (window saw no completions — mid-stall)
        // cannot produce an ETA division by zero: fall back to the
        // since-start rate.
        let stalled = heartbeat_line(25, 100, 0, 0, 25.0, Some(0.0), CkptCounters::default());
        assert!(stalled.contains("(recent 0.0)"), "{stalled}");
        assert!(stalled.ends_with("ETA 75s"), "{stalled}");
    }

    #[test]
    fn heartbeat_line_appends_ckpt_counters_only_when_active() {
        let ck = CkptCounters {
            written: 7,
            restored: 2,
            rejected: 1,
        };
        let s = heartbeat_line(25, 100, 2, 3, 5.0, None, ck);
        assert!(
            s.ends_with("ETA 15s, ckpt 7 written/2 restored/1 rejected"),
            "{s}"
        );
        let r = heartbeat_line(25, 100, 2, 3, 5.0, Some(10.0), ck);
        assert!(
            r.ends_with("(recent 10.0), ETA 8s, ckpt 7 written/2 restored/1 rejected"),
            "{r}"
        );
    }

    #[test]
    fn heartbeat_thread_does_not_perturb_results() {
        // A very short interval fires the reporter mid-pool; the
        // outcomes (and their order) must be unaffected.
        let policy = RunPolicy::default().with_heartbeat(Duration::from_millis(1));
        let out = parallel_map_outcomes(32, 4, &policy, |i, _ctx| {
            std::thread::sleep(Duration::from_millis(1));
            i * 2
        });
        assert_eq!(out.len(), 32);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.ok(), Some(&(i * 2)));
        }
        // An explicit zero interval means off and also changes nothing.
        let off = RunPolicy::default().with_heartbeat(Duration::ZERO);
        let out = parallel_map_outcomes(4, 2, &off, |i, _ctx| i);
        assert!(out.iter().enumerate().all(|(i, o)| o.ok() == Some(&i)));
    }

    #[test]
    fn trace_cache_builds_each_workload_once() {
        let cache = TraceCache::new();
        let cfg = WorkloadConfig::new(Scale::Test);
        let (built, a) = cache.get_or_build_tape(Benchmark::Compress, &cfg);
        assert!(built);
        assert_eq!(cache.len(), 1);
        let (built, b) = cache.get_or_build_tape(Benchmark::Compress, &cfg);
        assert!(!built);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared trace");
        // The materialising boundary shares the slot and hands out the
        // tape's ops.
        let (built, uops) = cache.get_or_build_uops(Benchmark::Compress, &cfg);
        assert!(!built && uops.ops() == a.to_ops());
        // A different workload identity is a different trace.
        let small_regs = cfg.with_small_regs();
        assert!(cache.get_or_build_tape(Benchmark::Compress, &small_regs).0);
        assert!(cache.get_or_build_tape(Benchmark::Xlisp, &cfg).0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = TraceCache::new();
        let cfg = WorkloadConfig::new(Scale::Test);
        let got = parallel_map(8, 4, |_| cache.get_or_build_tape(Benchmark::Doduc, &cfg));
        let builders = got.iter().filter(|(built, _)| *built).count();
        assert_eq!(builders, 1, "one builder, everyone else waits");
        assert_eq!(cache.len(), 1);
        assert!(got.windows(2).all(|w| Arc::ptr_eq(&w[0].1, &w[1].1)));
    }

    #[test]
    fn builder_panic_does_not_wedge_the_slot() {
        let cache = TraceCache::new();
        let cfg = WorkloadConfig::new(Scale::Test);
        // First request: the builder panics. The panic propagates…
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build_with(Benchmark::Gcc, &cfg, || panic!("builder exploded"))
        }));
        assert!(r.is_err());
        assert!(cache.is_empty());
        // …but the slot is not deadlocked or poisoned: the next
        // requester retries the build and succeeds.
        let (built, trace) = cache.get_or_build_tape(Benchmark::Gcc, &cfg);
        assert!(built && !trace.is_empty());
        assert_eq!(cache.len(), 1);
        // And a plain hit still works afterwards.
        let (built, again) = cache.get_or_build_tape(Benchmark::Gcc, &cfg);
        assert!(!built && Arc::ptr_eq(&trace, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_builder_panic_leaves_other_requesters_live() {
        let cache = TraceCache::new();
        let cfg = WorkloadConfig::new(Scale::Test);
        // Several workers race the same slot while the first builder
        // panics: every worker must terminate (no deadlock), and at
        // least the retries must converge on a real trace.
        let outcomes = parallel_map_outcomes(6, 3, &RunPolicy::default(), |i, _ctx| {
            cache.get_or_build_with(Benchmark::Perl, &cfg, || {
                assert!(i != 0, "first builder exploded");
                Benchmark::Perl.build(&cfg).tape()
            })
        });
        let completed = outcomes.iter().filter(|o| o.is_ok()).count();
        assert!(completed >= 5, "only the panicking builder may fail");
        let (_, trace) = cache.get_or_build_tape(Benchmark::Perl, &cfg);
        assert!(!trace.is_empty());
    }

    #[test]
    fn escape_json_escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape_json("fig5 \"small\""), "\"fig5 \\\"small\\\"\"");
        assert_eq!(
            escape_json("quote\"back\\slash"),
            "\"quote\\\"back\\\\slash\""
        );
        assert_eq!(escape_json("tab\there"), "\"tab\\there\"");
        assert_eq!(escape_json("newline\nkey"), "\"newline\\nkey\"");
        let ctrl = escape_json("bell\u{7}null\u{0}cr\r");
        assert!(ctrl.contains("\\u0007"));
        assert!(ctrl.contains("\\u0000"));
        assert!(ctrl.contains("\\u000d"));
        // Escaped keys and values assemble into an object that the
        // journal's strict JSON parser accepts, i.e. valid JSON.
        let object = format!(
            "{{{}: {}, {}: {}, {}: {}}}",
            escape_json("quote\"back\\slash"),
            escape_json("tab\there"),
            escape_json("ctrl"),
            ctrl,
            escape_json("newline\nkey"),
            escape_json("v"),
        );
        let parsed = crate::journal::parse_json_object(&object).expect("escaped JSON parses");
        assert_eq!(parsed.len(), 3);
    }
}
