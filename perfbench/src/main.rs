//! # hbat-perfbench — what regenerating Figure 5 costs on the host
//!
//! The paper's result is a grid: 13 Table-2 translation designs × 10
//! programs, re-simulated under each system variation. This benchmark
//! times that grid the way a user of the repository runs it — the
//! Figure-5 sweep through `hbat-bench`'s fault-tolerant entry
//! [`sweep_ft_on`], with a fresh [`TraceCache`] and [`WORKERS`] workers,
//! in one process — and, in a separate traced mode, splits the same work
//! by crate (the per-component view of Guo's *Fast TLB Simulation for
//! RISC-V Systems*).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-full --seed 1 --seconds 60 --trace 0
//! ```
//!
//! `--trace 0` repeats the sweep for about `--seconds` seconds and
//! reports the fastest sweep's times and the median set-up time.
//! `--trace 1` alternates untraced sweeps with traced rebuilds of them
//! for about half of `--seconds`, runs the component replays, and
//! reports the per-layer ledger of the fastest rebuild. `--scale
//! test|small|reference` overrides a workload's size (defaults below);
//! the output self-test, `perfbench/selftest.py`, runs every workload of
//! `BENCHMARK.json` at `test`. The last line of standard output is one
//! JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! host (cores, workers, scale, sample plan, commit), and diagnostics go
//! to standard error.
//!
//! ## Workloads
//!
//! Every workload is the Figure-5 baseline (out-of-order issue, 4 KB
//! pages, 32 registers) over all 130 cells. `--seed` sets the workload
//! seed (input data), the design seed (random replacement) and the
//! sample-plan seed.
//!
//! * `fig5-full` — full detailed timing at test scale, sweeps of about
//!   0.25 s. The detailed engine (`hbat-cpu`) takes most of the
//!   wall-clock, so engine, translator and cache changes show here.
//! * `fig5-sampled` — the SMARTS-style plan `25:1000:250` at small
//!   scale, sweeps of about 2 s: only traces much longer than the plan's
//!   25 windows of 1,250 ops leave sampling anything to skip. Trace build
//!   (functional execution and predecode) and functional warming carry
//!   most of the cost and the detailed engine sees under a tenth of the
//!   ops, so an engine-only gain shows far less here than on
//!   `fig5-full`, while a functional-executor or trace-memory gain shows
//!   more. The reference scale this workload was first planned at holds
//!   about 5 GB of traces, too much to run repeatedly on a shared 16 GB
//!   host; it belongs here once trace memory is bounded.
//! * `fig5-observed` — `fig5-full` with `observe` on, 10 000-cycle
//!   interval windows and a journal, so every sweep also writes journal,
//!   `.obs.jsonl` and `.iv.jsonl` files (into a temporary directory in
//!   the working directory, removed after every sweep). Enabled
//!   recorders switch the engine's sleep/wake fast path off. It runs by
//!   hand but is not in `BENCHMARK.json`: in two of three sets of ten
//!   35- or 40-second runs its times spread by 0.18–0.22, too close to the 0.25
//!   bound, and dropping it let the other two run 60 seconds each within
//!   the time all runs may take. `fig5-full`'s traced run measures the
//!   `obs` layer instead, with an observed rebuild of its grid.
//!
//! ## End-to-end metrics (`--trace 0`, host time)
//!
//! | metric | unit | what |
//! |---|---|---|
//! | `sweep_s` | s | wall-clock of the run's fastest whole sweep |
//! | `setup_s` | s | median over the run's sweeps of the trace-build phase: workload build, functional execution, predecode |
//! | `sim_minst_per_s` | Minst/s | committed-path instructions all cells account for ÷ cell-phase wall-clock, highest over the run's sweeps |
//! | `peak_rss_mb` | MB | peak resident memory during a sweep (`VmHWM`, restarted before each sweep through `/proc/self/clear_refs`), smallest over the run's sweeps |
//!
//! ### Why the fastest sweep, and why test scale
//!
//! On the shared 2-vCPU host this was built on, one sweep runs up to 2×
//! slower than the next, and slow spells last tens of seconds. A compute
//! loop holds its speed within 3% there while a pointer chase over 4 MB
//! varies 2×, so the cause is cache and memory traffic from other
//! tenants, which process CPU time does not remove either (it rose and
//! fell with wall-clock). At small scale, sweeps of 5–8 s, the median
//! sweep of a 35-second run spread by 0.20–0.28 of its value over ten
//! runs (the distance between first and third quartile); the fastest of
//! its six sweeps, and the sum of each cell's fastest of six runs,
//! spread as widely, because a whole run can fall in one slow spell.
//! Slow spells leave short gaps, and only a short sweep fits in one: the
//! fastest of a hundred or more test-scale sweeps spread by 0.08–0.17,
//! as spells of slow minutes still show (see the baseline).
//! So `fig5-full` runs at test scale, each run lasts 60 seconds, and
//! `sweep_s` and `sim_minst_per_s` take the run's fastest sweep;
//! `setup_s` stays a median over the run's sweeps.
//! Memory has its own noise: at some sweep of a run, at a point that
//! differs from run to run, the allocator's retained free memory grows
//! and raises every later sweep's peak, by up to 40% at test scale. The
//! smallest per-sweep peak leaves that out and still holds every byte a
//! sweep itself needs.
//!
//! Sampling accuracy — the largest relative gap between sampled and
//! full-detail IPC, and the share of cells whose 95% CI covers the
//! full-detail IPC — is reported by the traced run as
//! `bench.ipc_rel_err_max` and `bench.ci_cover_frac`, over every cell
//! of the grid. On `fig5-sampled` the sampled side is the sweep's own;
//! on `fig5-full` the full side is. Both are simulated
//! statistics fixed by the seed, and they move between seeds by more
//! than any allowed bound (coverage misses whole programs at a time:
//! 0.8 to 1.0 over ten seeds), so they carry no bound. The model has no
//! hardware reference, so no error against hardware is given; the
//! correctness checks below pin the simulated statistics instead.
//!
//! ## Per-layer metrics (`--trace 1`, layer = crate)
//!
//! The traced run rebuilds the sweep from public calls into each crate,
//! on the same worker pool, with a span around each call, and alternates
//! these rebuilds with untraced sweeps of the same work; the ledger is
//! the fastest rebuild's, set against the fastest untraced sweep, for
//! the reason above. `<layer>.self_s` is a layer's span
//! time in wall-clock seconds (thread-seconds ÷ workers); the
//! `bench.executor` span holds what a job's other spans leave uncovered.
//!
//! | layer | metrics | moves | on |
//! |---|---|---|---|
//! | `workloads` | `build_ms` (`Benchmark::build`, summed over the ten programs), `self_s` | `setup_s` | `fig5-sampled` |
//! | `isa` | `exec_ns_per_inst` (`instantiate` + `Machine::run_to_vec`), `predecode_ns_per_op`, `trace_mb` (raw + predecoded), `self_s` | `setup_s`, `peak_rss_mb` | `fig5-sampled` |
//! | `cpu` engine | `engine_ns_per_op`, `engine_ns_per_cycle`, `cell_ns_per_op_p50`/`_p90` (over the 130 cells), `useful_issue_frac` (committed ÷ issued) | `sim_minst_per_s`, `sweep_s` | `fig5-full` |
//! | `cpu` warming | `warm_gap_ns_per_op`, `warm_state_us`, `window_ns_per_op` | `sim_minst_per_s`, `sweep_s` | `fig5-sampled` only |
//! | `cpu` bpred | `bpred_ns_per_branch` (every conditional branch through `predict` + `update`) | `sim_minst_per_s` | `fig5-full` |
//! | `core` | `design_build_us`, `translate_ns_per_req.<design>` (13 designs, `/` printed as `-`), `retries_per_access`, `walks` (count), `self_s` | `sim_minst_per_s` | translate: `fig5-full`; builds: `fig5-sampled` (3,250 vs 130) |
//! | `mem` | `dcache_ns_per_access` (replay through `Cache::access`), `dcache_miss_rate` | `sim_minst_per_s` | `fig5-full` |
//! | `obs` | `recorder_ns_per_op` (Tee recorder minus `NullRecorder` on one cell), `render_us_per_cell`, `sidecar_mb`, `self_s` (of the observed rebuild) | `sweep_s` of observed sweeps (`fig5-observed`) | `fig5-full` only |
//! | `bench` | `cell_exec_s`, `worker_busy_frac`, `cell_inflation_2w` (per-cell cost at 2 vs 1 workers), `ipc_rel_err_max` and `ci_cover_frac` (sampling accuracy, see above), `journal_append_us` (of the observed rebuild), `measured_frac`, `trace_overhead`, `uncovered_frac`, `self_s` | `sweep_s` | `fig5-full`; journal: `fig5-full` only |
//!
//! `measured_frac` is the spans' wall-clock ÷ the untraced `sweep_s` (the
//! target is within 10% of 1), `trace_overhead` the traced ÷ untraced
//! wall-clock, and `uncovered_frac` the share of worker time no span
//! covers (idle workers). The translate, cache and branch-predictor
//! replays time work that already sits inside the engine spans; they
//! run after the rebuilds and stay out of that accounting, as does the
//! observed rebuild that gives `fig5-full` its `obs` and journal
//! metrics: the same rebuild with `fig5-observed`'s recorders and
//! journal, checked against the sweep cell by cell. A metric with
//! nothing to measure on a workload (warming without sampling, recorders
//! on a sampled sweep) prints 0 and is listed on standard error.
//! `stats`, `ckpt`, `analysis` and `lint` are left out: `stats` renders
//! once per sweep, `ckpt` runs only under `--ff`, and the other two are
//! not on the sweep path.
//!
//! ## Correctness
//!
//! Every cell of every sweep is checked, and failures count against the
//! cells attempted: full cells must commit exactly their trace's ops and
//! sampled cells exactly the plan's measured instructions; T4's relative
//! IPC must be 1; one designated cell (Compress × T1) is run again
//! outside the sweep and must repeat its `RunMetrics`; every traced
//! rebuild, observed or not, must reproduce every cell. The FNV-1a digest of every cell's
//! `RunMetrics` is printed per run, must agree between the run's sweeps,
//! and for a seed and scale listed in `digests.txt` must match it.
//!
//! ## Baseline (2-core host, 2 workers)
//!
//! Ten 60-second runs per workload, seeds 61–70: the median of the ten
//! values, and in brackets the distance between their first and third
//! quartile as a share of that median. A run held 167–209 `fig5-full`
//! sweeps and 27–32 `fig5-sampled` sweeps.
//!
//! | workload | `sweep_s` | `setup_s` | `sim_minst_per_s` | `peak_rss_mb` |
//! |---|---|---|---|---|
//! | `fig5-full` | 0.217 (0.11) | 0.0229 (0.07) | 18.4 (0.12) | 32.5 (0.01) |
//! | `fig5-sampled` | 1.70 (0.11) | 0.500 (0.07) | 57.1 (0.11) | 582 (0.03) |
//!
//! Three earlier sets of the same runs, 35 or 40 seconds long, spread by
//! 0.08–0.17 on `fig5-full`'s times and 0.12–0.16 on `fig5-sampled`'s,
//! and their medians lay within 7% of these. Hence the 0.25 bounds on
//! the times: a spell of slow minutes still moves a run's fastest sweep.
//!
//! Traced, seed 1: the detailed engine is 80% of `fig5-full`'s fastest
//! sweep (`isa` 4%, `bench` 1%); on `fig5-sampled` functional execution
//! and predecode take 20% and the `cpu` layer (windows plus functional
//! warming) 76%. The spans account for 0.86 and 1.01 of the untraced
//! `sweep_s`, and for 1.03 and 1.06 in an earlier pair of runs: the
//! fastest sweep and the fastest rebuild can fall in different quiet
//! gaps. The recorders add 125 ns per op to the Compress × T4 cell,
//! rendering takes 20 µs and journalling 32 µs per observed cell.
//! `bench.cell_inflation_2w` read 0.72–1.21 over five traced runs: the
//! host's noise hides any small effect, but two cells at once never cost
//! each 1.5× one alone, so the per-cell inflation that ROADMAP item 2 set
//! out to explain did not appear on this host. The cells share only
//! read-only traces and the allocator, so the earlier figure points at
//! the host of that measurement rather than at the executor.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbat_bench::executor::{parallel_map, timed, RunPolicy, TraceCache};
use hbat_bench::experiment::{
    config_fingerprint, iv_sidecar_path, obs_sidecar_path, render_interval_record,
    render_obs_record, run_cell_uops, run_cell_uops_with, sweep_ft_on, CellResult,
    ExperimentConfig, SweepOptions,
};
use hbat_bench::journal::{fnv1a_hex, CellKey, JournalRecord, JournalWriter};
use hbat_bench::outcome::CellOutcome;
use hbat_bench::sample::{
    ipc_interval, plan_windows, run_sampled_uops, SamplePlan, SampledCell, WindowGate,
};
use hbat_core::addr::{PhysAddr, VirtAddr};
use hbat_core::cycle::Cycle;
use hbat_core::designs::spec::DesignSpec;
use hbat_core::request::TranslateRequest;
use hbat_cpu::{
    simulate_uops, simulate_uops_warm_with_recorder, simulate_uops_with_recorder, BranchPredictor,
    RunMetrics, WarmAccumulator,
};
use hbat_isa::trace::TraceInst;
use hbat_isa::uop::{MicroOp, PredecodedTrace};
use hbat_mem::cache::Cache;
use hbat_obs::{prof, IntervalRecorder, Tee, TraceRecorder};
use hbat_stats::ci::ConfLevel;
use hbat_workloads::{Benchmark, Scale};

/// Sweep workers: the core count of the 2-core host the baseline was
/// measured on, fixed so that every host runs the same schedule.
const WORKERS: usize = 2;
/// Interval-window width of `fig5-observed`, in cycles.
const OBS_INTERVAL: u64 = 10_000;
/// Sample plan `windows:len:warmup` of `fig5-sampled`, and of the
/// sampled T4 runs that measure accuracy on the other workloads.
const PLAN: (u64, u64, u64) = (25, 1000, 250);
/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// The cell run a second time outside the sweep: Compress × T1.
const DESIGNATED: (usize, usize) = (0, 2);
/// Column of T4, the figure's normalisation baseline, in `TABLE2`.
const T4_COL: usize = 0;
/// Memory references per trace replayed through the translators and
/// the data cache.
const REPLAY_REFS: usize = 200_000;
/// Pinned digests, one `<workload> <scale> <seed> <digest>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

const USAGE: &str = "usage: hbat-perfbench --workload fig5-full|fig5-sampled|fig5-observed \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale test|small|reference]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Full,
    Sampled,
    Observed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Full, Workload::Sampled, Workload::Observed];

    fn name(self) -> &'static str {
        match self {
            Workload::Full => "fig5-full",
            Workload::Sampled => "fig5-sampled",
            Workload::Observed => "fig5-observed",
        }
    }

    /// The scale a run uses when `--scale` is absent: sub-second sweeps
    /// for the two full-detail workloads, so that a run holds dozens of
    /// them (see "Why the fastest sweep").
    fn default_scale(self) -> Scale {
        match self {
            Workload::Full | Workload::Observed => Scale::Test,
            Workload::Sampled => Scale::Small,
        }
    }
}

/// The parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale) = (DEFAULT_SEED, 10, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--scale" => {
                scale = Some(match value.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "reference" => Scale::Reference,
                    _ => {
                        return Err(format!(
                            "--scale takes test, small or reference, got {value:?}"
                        ))
                    }
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale: scale.unwrap_or(workload.default_scale()),
    })
}

fn scale_name(scale: Scale) -> String {
    format!("{scale:?}").to_lowercase()
}

/// One workload's configuration, shared by every sweep of a run.
struct Bench {
    workload: Workload,
    seed: u64,
    cfg: ExperimentConfig,
    plan: SamplePlan,
    /// Temporary journal directory in the working directory
    /// (`fig5-observed` only).
    tmp: PathBuf,
}

impl Bench {
    fn new(args: &Args) -> std::io::Result<Bench> {
        let mut cfg = ExperimentConfig::baseline(args.scale);
        cfg.workload.seed = args.seed;
        cfg.design_seed = args.seed;
        let (n_windows, window_len, warmup_len) = PLAN;
        Ok(Bench {
            workload: args.workload,
            seed: args.seed,
            cfg,
            plan: SamplePlan {
                n_windows,
                window_len,
                warmup_len,
                seed: args.seed,
            },
            tmp: std::env::current_dir()?.join(format!(".perfbench-tmp-{}", std::process::id())),
        })
    }

    fn sampled(&self) -> bool {
        self.workload == Workload::Sampled
    }

    fn observed(&self) -> bool {
        self.workload == Workload::Observed
    }

    fn journal(&self) -> PathBuf {
        self.tmp.join("sweep.journal")
    }

    fn options(&self) -> SweepOptions {
        SweepOptions {
            threads: WORKERS,
            // No progress heartbeat: it would print, and wake, during
            // the timed sweep.
            policy: RunPolicy::default().with_heartbeat(Duration::ZERO),
            journal: self.observed().then(|| self.journal()),
            observe: self.observed(),
            intervals: self.observed().then_some(OBS_INTERVAL),
            sample: self.sampled().then_some(self.plan),
            ..SweepOptions::default()
        }
    }

    /// Runs one cell outside the sweep, on the path the sweep takes for
    /// this workload.
    fn run_cell(&self, ops: &[MicroOp], design: DesignSpec) -> RunMetrics {
        match self.workload {
            Workload::Full => run_cell_uops(ops, design, &self.cfg),
            Workload::Sampled => run_sampled_uops(ops, design, &self.cfg, None, &self.plan).metrics,
            Workload::Observed => {
                let mut rec = observer();
                let metrics = run_cell_uops_with(ops, design, &self.cfg, &mut rec);
                rec.b.finish();
                metrics
            }
        }
    }

    /// For a trace of `n` ops: the committed count a correct cell
    /// reports, and the committed-path ops the cell accounts for (timed
    /// in detail or functionally warmed).
    fn expected(&self, n: u64) -> (u64, u64) {
        if !self.sampled() {
            return (n, n);
        }
        let windows = plan_windows(&self.plan, n);
        let measured = windows.iter().map(|w| w.end - w.meas_start).sum();
        (measured, windows.last().map_or(0, |w| w.end))
    }

    /// Prints this run's digest line (the `digests.txt` format) and
    /// compares it with the pinned digest, when one is pinned.
    fn digest_matches(&self, digest: &str) -> bool {
        let key = [
            self.workload.name().to_owned(),
            scale_name(self.cfg.scale),
            self.seed.to_string(),
        ];
        let pinned = DIGESTS.lines().find_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            (fields.len() == 4 && fields[..3] == key).then(|| fields[3])
        });
        let verdict = match pinned {
            None => "not pinned".to_owned(),
            Some(p) if p == digest => "matches the pinned digest".to_owned(),
            Some(p) => format!("MISMATCH, pinned {p}"),
        };
        eprintln!("perfbench: digest {} {digest} ({verdict})", key.join(" "));
        pinned.is_none_or(|p| p == digest)
    }
}

/// The recorders `fig5-observed` runs every cell under: the stall and
/// port-conflict trace, and the interval windows.
fn observer() -> Tee<TraceRecorder, IntervalRecorder> {
    Tee::new(TraceRecorder::new(), IntervalRecorder::new(OBS_INTERVAL))
}

/// Removes the temporary journal directory when dropped, so that no run
/// leaves it behind.
struct TmpDir<'a>(&'a Path);

impl Drop for TmpDir<'_> {
    fn drop(&mut self) {
        // Absent unless the workload journals; nothing to report either way.
        let _ = std::fs::remove_dir_all(self.0);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

// ---- untraced sweeps -----------------------------------------------------

/// One untraced sweep: its timings, and what the checks need.
struct Sweep {
    wall: Duration,
    setup: Duration,
    cells_wall: Duration,
    /// Peak resident memory during the sweep, in MB.
    peak_mb: f64,
    traces: Vec<Arc<PredecodedTrace>>,
    /// Row-major `[bench][design]`; `None` for a cell that failed.
    cells: Vec<Vec<Option<CellResult>>>,
    t4_rel_ipc: Option<f64>,
}

fn sweep(b: &Bench) -> Sweep {
    // A fresh cache for every sweep: the process-wide one would hand a
    // later sweep its traces without building them.
    let cache = TraceCache::new();
    let _tmp = TmpDir(&b.tmp);
    let opts = b.options();
    reset_peak_rss();
    let t0 = Instant::now();
    let result = sweep_ft_on(&DesignSpec::TABLE2, &b.cfg, &opts, &cache)
        .expect("the sweep journals into the benchmark's temporary directory");
    let wall = t0.elapsed();
    let peak_mb = peak_rss_mb();
    if !result.manifest.is_empty() {
        eprintln!("{}", result.manifest.render());
    }
    let traces = Benchmark::ALL
        .iter()
        .map(|&bench| cache.get_or_build_uops(bench, &b.cfg.workload).1)
        .collect();
    Sweep {
        wall,
        setup: result.telemetry.trace_build,
        cells_wall: result.telemetry.cell_exec,
        peak_mb,
        traces,
        t4_rel_ipc: result.relative_ipc(DesignSpec::TABLE2[T4_COL]),
        cells: result
            .cells
            .into_iter()
            .map(|row| row.into_iter().map(CellOutcome::into_ok).collect())
            .collect(),
    }
}

/// Checks attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks every cell of a sweep. Returns the tally (one check per cell),
/// the FNV-1a digest of every cell's `RunMetrics` in grid order, and the
/// committed-path ops all cells account for.
fn check(b: &Bench, s: &Sweep) -> (Tally, String, u64) {
    let mut tally = Tally::default();
    let mut text = String::new();
    let mut covered = 0;
    let t4_ok = s.t4_rel_ipc.is_some_and(|r| (r - 1.0).abs() <= 1e-12);
    for (bi, row) in s.cells.iter().enumerate() {
        let bench = Benchmark::ALL[bi].name();
        let (expect, span) = b.expected(s.traces[bi].len() as u64);
        for (di, cell) in row.iter().enumerate() {
            let design = DesignSpec::TABLE2[di].mnemonic();
            let committed = cell.as_ref().map(|c| c.metrics.committed);
            tally.record(committed == Some(expect) && (di != T4_COL || t4_ok), || {
                format!(
                    "{bench}/{design}: committed {committed:?} (expected {expect}), \
                     T4 relative IPC {:?}",
                    s.t4_rel_ipc
                )
            });
            match cell {
                Some(c) => {
                    covered += span;
                    text.push_str(&format!("{bench}/{design} {:?}\n", c.metrics));
                }
                None => text.push_str(&format!("{bench}/{design} failed\n")),
            }
        }
    }
    (tally, fnv1a_hex(&text), covered)
}

/// Runs the designated cell again outside the sweep; a deterministic
/// simulator repeats its `RunMetrics` exactly.
fn designated_repeats(b: &Bench, s: &Sweep) -> bool {
    let (bi, di) = DESIGNATED;
    let again = b.run_cell(s.traces[bi].ops(), DesignSpec::TABLE2[di]);
    s.cells[bi][di].as_ref().is_some_and(|c| c.metrics == again)
}

/// Sampled against full-detail IPC over every cell of the grid: the
/// largest relative gap, and the share of cells whose 95% CI covers the
/// full-detail IPC. `None` when a cell failed or a gap is not finite.
fn accuracy(b: &Bench, s: &Sweep) -> Option<(f64, f64)> {
    let designs = DesignSpec::TABLE2;
    let per_cell = parallel_map(s.traces.len() * designs.len(), WORKERS, |i| {
        let (bi, di) = (i / designs.len(), i % designs.len());
        let ops = s.traces[bi].ops();
        let cell = s.cells[bi][di].as_ref()?;
        let (windows, full) = if b.sampled() {
            (
                cell.windows.clone(),
                run_cell_uops(ops, designs[di], &b.cfg).ipc(),
            )
        } else {
            let sampled = run_sampled_uops(ops, designs[di], &b.cfg, None, &b.plan);
            (sampled.windows, cell.metrics.ipc())
        };
        let ci = ipc_interval(&windows, ConfLevel::P95);
        let gap = (ci.mean - full).abs() / full;
        gap.is_finite().then_some((gap, ci.covers(full)))
    });
    let per_cell: Vec<(f64, bool)> = per_cell.into_iter().collect::<Option<_>>()?;
    let max = per_cell.iter().map(|p| p.0).fold(0.0, f64::max);
    let covered = per_cell.iter().filter(|p| p.1).count();
    Some((max, covered as f64 / per_cell.len() as f64))
}

/// Restarts this process's peak resident memory (`VmHWM`) at its current
/// resident size.
fn reset_peak_rss() {
    // Only kernels older than 4.0 refuse this; there the peak counts
    // from the start of the process instead.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (`VmHWM`) in MB since the last
/// [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    kib.map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Repeats the sweep until the next one would end past `budget`, and
/// reports the fastest sweep's `sweep_s` and `sim_minst_per_s`, the
/// median `setup_s` and the smallest `peak_rss_mb`.
fn untraced(b: &Bench, budget: Duration) -> Report {
    let start = Instant::now();
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut tally = Tally::default();
    let mut correct = true;
    let mut digest: Option<String> = None;
    loop {
        let s = sweep(b);
        let (t, d, covered) = check(b, &s);
        tally.add(t);
        walls.push(s.wall.as_secs_f64());
        setups.push(s.setup.as_secs_f64());
        rates.push(covered as f64 / s.cells_wall.as_secs_f64() / 1e6);
        peaks.push(s.peak_mb);
        if let Some(first) = &digest {
            if *first != d {
                correct = false;
                eprintln!("perfbench: sweeps of one run disagree: digest {first}, then {d}");
            }
        } else {
            // Once per run, outside every timed sweep.
            tally.record(designated_repeats(b, &s), || {
                "the designated cell did not repeat its RunMetrics".to_owned()
            });
            digest = Some(d);
        }
        if start.elapsed() + s.wall > budget {
            break;
        }
    }
    correct &= b.digest_matches(digest.as_deref().unwrap_or_default());
    eprintln!(
        "perfbench: {} sweeps; sweep_s {walls:.3?}; setup_s {setups:.3?}; \
         sim_minst_per_s {rates:.3?}; peak_rss_mb {peaks:.1?}",
        walls.len()
    );
    let mut r = Report::new(correct, tally);
    r.put("sweep_s", walls.iter().copied().reduce(f64::min), "s");
    r.put("setup_s", Some(median(&setups)), "s");
    r.put(
        "sim_minst_per_s",
        rates.iter().copied().reduce(f64::max),
        "Minst/s",
    );
    r.put("peak_rss_mb", peaks.iter().copied().reduce(f64::min), "MB");
    r
}

// ---- the traced rebuild --------------------------------------------------

/// Span totals of a traced run, keyed `layer.what` with the crate as the
/// layer: thread-time and calls per span, plus work counters.
#[derive(Debug, Default)]
struct Ledger {
    spans: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Times `f` as one call of span `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        self.add(name, t0.elapsed());
        value
    }

    fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.spans.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |e| e.0.as_secs_f64())
    }

    fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |e| e.1)
    }

    fn total(&self) -> Duration {
        self.spans.values().map(|e| e.0).sum()
    }

    /// Thread-seconds in every span of `layer`.
    fn layer(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, e)| e.0)
            .sum::<Duration>()
            .as_secs_f64()
    }

    /// Closes a job that started at `t0`: the part of it no span covered
    /// is the executor's (bench layer) self-time.
    fn finish_job(&mut self, t0: Instant) {
        let rest = t0.elapsed().saturating_sub(self.total());
        self.add("bench.executor", rest);
    }

    fn merge(&mut self, other: Ledger) {
        for (name, (d, n)) in other.spans {
            let e = self.spans.entry(name).or_default();
            e.0 += d;
            e.1 += n;
        }
        for (name, n) in other.counts {
            self.count(name, n);
        }
    }
}

/// Counts what one detailed engine run over `ops` ops did.
fn count_engine(l: &mut Ledger, ops: usize, m: &RunMetrics) {
    l.count("cpu.ops", ops as u64);
    l.count("cpu.cycles", m.cycles);
    l.count("cpu.committed", m.committed);
    l.count("cpu.issued", m.issued);
    l.count("core.accesses", m.tlb.accesses);
    l.count("core.retries", m.translation_retries);
    l.count("core.walks", m.tlb.misses);
    l.count("mem.accesses", m.dcache.accesses);
    l.count("mem.misses", m.dcache.misses);
}

/// `run_sampled_uops`, rebuilt from its public pieces with a span around
/// each call.
fn sampled_cell(b: &Bench, ops: &[MicroOp], design: DesignSpec, l: &mut Ledger) -> RunMetrics {
    let cfg = &b.cfg;
    let mut acc = l.span("cpu.warm_gap", || {
        WarmAccumulator::new(&cfg.sim, cfg.geometry)
    });
    let windows = plan_windows(&b.plan, ops.len() as u64);
    let drain = 4 * cfg.sim.rob_entries;
    let mut records = Vec::with_capacity(windows.len());
    let mut pos = 0usize;
    for w in &windows {
        let (warm_start, end) = (w.warm_start as usize, w.end as usize);
        let detail_end = end.saturating_add(drain).min(ops.len());
        let gap = ops.get(pos..warm_start).unwrap_or_default();
        let win_ops = ops.get(warm_start..end).unwrap_or_default();
        let detail_ops = ops.get(warm_start..detail_end).unwrap_or_default();
        l.span("cpu.warm_gap", || acc.warm_gap(gap));
        let warm = l.span("cpu.warm_state", || acc.warm_state());
        let mut tlb = l.span("core.design_build", || {
            design.build(cfg.geometry, cfg.design_seed)
        });
        let mut gate = WindowGate::new(w.meas_start - w.warm_start, w.end - w.meas_start);
        let m = l.span("cpu.window", || {
            simulate_uops_warm_with_recorder(&cfg.sim, detail_ops, tlb.as_mut(), &warm, &mut gate)
        });
        count_engine(l, detail_ops.len(), &m);
        l.count("cpu.window_ops", detail_ops.len() as u64);
        let mut rec = gate.record();
        rec.start = w.meas_start;
        records.push(rec);
        l.span("cpu.warm_gap", || acc.warm_gap(win_ops));
        l.count("cpu.gap_ops", (gap.len() + win_ops.len()) as u64);
        pos = end;
    }
    SampledCell::from_windows(records).metrics
}

/// The traced rebuild of one sweep.
struct Rebuild {
    traces: Vec<Arc<PredecodedTrace>>,
    trace_bytes: usize,
    metrics: Vec<RunMetrics>,
    cell_ns_per_op: Vec<f64>,
    ledger: Ledger,
    /// Thread-seconds inside cell jobs.
    cell_busy: f64,
    build_wall: Duration,
    cells_wall: Duration,
    sidecar_bytes: u64,
}

/// Rebuilds the sweep from public calls into each crate — the trace
/// build `TraceCache::get_or_build_uops` does, then every cell the way
/// `sweep_ft_on` runs it for this workload — on the same worker pool,
/// with a span around each call.
fn rebuild(b: &Bench) -> Rebuild {
    let cfg = &b.cfg;
    let mut ledger = Ledger::default();
    let (built, build_wall) = timed(|| {
        parallel_map(Benchmark::ALL.len(), WORKERS, |bi| {
            let t0 = Instant::now();
            let mut l = Ledger::default();
            let w = l.span("workloads.build", || {
                Benchmark::ALL[bi].build(&cfg.workload)
            });
            let trace = l.span("isa.exec", || {
                let mut m = w.instantiate();
                let trace = m.run_to_vec(w.max_steps);
                assert!(m.is_halted(), "workload {} did not halt", w.name);
                trace
            });
            // The trace cache publishes the raw trace as a shared slice,
            // which copies it.
            let raw: Arc<[TraceInst]> = l.span("bench.publish", || trace.into());
            let uops = l.span("isa.predecode", || {
                Arc::new(PredecodedTrace::predecode(&raw))
            });
            l.count("isa.insts", raw.len() as u64);
            l.finish_job(t0);
            (raw, uops, l)
        })
    });
    let mut raws = Vec::new();
    let mut traces = Vec::new();
    let mut trace_bytes = 0;
    for (raw, uops, l) in built {
        trace_bytes += raw.len() * size_of::<TraceInst>() + uops.len() * size_of::<MicroOp>();
        raws.push(raw);
        traces.push(uops);
        ledger.merge(l);
    }

    let writers = b.observed().then(|| {
        let journal = b.journal();
        [
            journal.clone(),
            obs_sidecar_path(&journal),
            iv_sidecar_path(&journal),
        ]
        .map(|p| {
            JournalWriter::append_to(&p).expect("the journal lives in the temporary directory")
        })
    });
    let fingerprint = config_fingerprint(cfg);
    let designs = DesignSpec::TABLE2;
    let (cells, cells_wall) = timed(|| {
        parallel_map(traces.len() * designs.len(), WORKERS, |i| {
            let (bi, di) = (i / designs.len(), i % designs.len());
            let t0 = Instant::now();
            let mut l = Ledger::default();
            let ops = traces[bi].ops();
            let metrics = if b.sampled() {
                sampled_cell(b, ops, designs[di], &mut l)
            } else {
                let mut tlb = l.span("core.design_build", || {
                    designs[di].build(cfg.geometry, cfg.design_seed)
                });
                let metrics = match &writers {
                    None => l.span("cpu.engine", || simulate_uops(&cfg.sim, ops, tlb.as_mut())),
                    Some([journal, obs, iv]) => {
                        let mut rec = observer();
                        let metrics = l.span("cpu.engine", || {
                            simulate_uops_with_recorder(&cfg.sim, ops, tlb.as_mut(), &mut rec)
                        });
                        let key = CellKey {
                            bench: Benchmark::ALL[bi].name().to_owned(),
                            design: format!("{:?}", designs[di]),
                            config: fingerprint.clone(),
                            seed: cfg.design_seed,
                        };
                        let (line, block) = l.span("obs.render", || {
                            rec.b.finish();
                            let block: String = rec
                                .b
                                .windows()
                                .iter()
                                .map(|w| render_interval_record(&key, w) + "\n")
                                .collect();
                            (render_obs_record(&key, &rec.a), block)
                        });
                        l.span("bench.journal_append", || {
                            journal.append(&JournalRecord {
                                key,
                                metrics: metrics.clone(),
                            })?;
                            obs.append_line(&line)?;
                            iv.append_block(&block)
                        })
                        .expect("the journal lives in the temporary directory");
                        metrics
                    }
                };
                count_engine(&mut l, ops.len(), &metrics);
                metrics
            };
            let engine_ns = (l.secs("cpu.engine") + l.secs("cpu.window")) * 1e9;
            let ns_per_op = engine_ns / l.counted("cpu.ops").max(1) as f64;
            l.finish_job(t0);
            (metrics, ns_per_op, l)
        })
    });
    let mut metrics = Vec::with_capacity(cells.len());
    let mut cell_ns_per_op = Vec::with_capacity(cells.len());
    let mut cell_busy = 0.0;
    for (m, ns, l) in cells {
        cell_busy += l.total().as_secs_f64();
        metrics.push(m);
        cell_ns_per_op.push(ns);
        ledger.merge(l);
    }
    drop(writers);
    drop(raws);
    let journal = b.journal();
    Rebuild {
        traces,
        trace_bytes,
        metrics,
        cell_ns_per_op,
        ledger,
        cell_busy,
        build_wall,
        cells_wall,
        sidecar_bytes: file_len(&obs_sidecar_path(&journal)) + file_len(&iv_sidecar_path(&journal)),
    }
}

impl Rebuild {
    /// Wall-clock of the rebuild: its trace build and its cells.
    fn wall(&self) -> Duration {
        self.build_wall + self.cells_wall
    }
}

// ---- component replays (outside the sweep accounting) --------------------

/// `num / den`, or `None` when there is nothing to divide by.
fn ratio(num: f64, den: u64) -> Option<f64> {
    (den > 0).then(|| num / den as f64)
}

/// The data references of each trace as the engine presents them to the
/// translator (the first [`REPLAY_REFS`] of each).
fn data_refs(traces: &[Arc<PredecodedTrace>]) -> Vec<Vec<TranslateRequest>> {
    traces
        .iter()
        .map(|t| {
            t.ops()
                .iter()
                .filter(|op| op.is_mem())
                .take(REPLAY_REFS)
                .map(|op| TranslateRequest {
                    vaddr: VirtAddr(op.vaddr),
                    kind: op.mem_kind(),
                    base_reg: (op.base_reg != 0).then_some(op.base_reg),
                    offset: op.offset,
                    serial: op.serial,
                })
                .collect()
        })
        .collect()
}

/// Host ns per request presented to a fresh `design` translator. Each
/// cycle presents up to one request per load/store unit, in order, and a
/// refused request is presented again next cycle. `None` if the
/// translator stops accepting requests.
fn replay_translate(
    design: DesignSpec,
    cfg: &ExperimentConfig,
    refs: &[Vec<TranslateRequest>],
) -> Option<f64> {
    let per_cycle = cfg.sim.ldst_units;
    let (mut presented, mut busy) = (0u64, Duration::ZERO);
    for stream in refs {
        let mut tlb = design.build(cfg.geometry, cfg.design_seed);
        let t0 = Instant::now();
        let (mut next, mut now, mut idle) = (0, 0u64, 0u32);
        while next < stream.len() {
            tlb.begin_cycle(Cycle(now));
            let before = next;
            for req in &stream[next..stream.len().min(next + per_cycle)] {
                presented += 1;
                if !black_box(tlb.translate(req)).is_translated() {
                    break;
                }
                next += 1;
            }
            idle = if next == before { idle + 1 } else { 0 };
            if idle > 10_000 {
                return None;
            }
            now += 1;
        }
        busy += t0.elapsed();
    }
    ratio(busy.as_secs_f64() * 1e9, presented)
}

/// Host ns per access of a fresh Table-1 data cache over the same
/// references (physical address = virtual address, one access per port
/// per cycle).
fn replay_dcache(cfg: &ExperimentConfig, refs: &[Vec<TranslateRequest>]) -> Option<f64> {
    let (mut accesses, mut busy) = (0u64, Duration::ZERO);
    for stream in refs {
        let mut cache = Cache::new(cfg.sim.dcache);
        let t0 = Instant::now();
        for (cycle, group) in stream.chunks(cfg.sim.dcache.ports).enumerate() {
            cache.begin_cycle(Cycle(cycle as u64));
            for req in group {
                black_box(cache.access(PhysAddr(req.vaddr.0), req.kind.is_store()));
            }
        }
        busy += t0.elapsed();
        accesses += stream.len() as u64;
    }
    ratio(busy.as_secs_f64() * 1e9, accesses)
}

/// Host ns per conditional branch through a fresh Table-1 predictor's
/// `predict` and `update`, over every trace's conditional branches.
fn replay_bpred(traces: &[Arc<PredecodedTrace>]) -> Option<f64> {
    let branches: Vec<Vec<(u32, bool)>> = traces
        .iter()
        .map(|t| {
            t.ops()
                .iter()
                .filter(|op| op.flags & MicroOp::F_BR_COND != 0)
                .map(|op| (op.pc, op.flags & MicroOp::F_BR_TAKEN != 0))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let mut n = 0u64;
    for stream in &branches {
        let mut bp = BranchPredictor::table1();
        for &(pc, taken) in stream {
            black_box(bp.predict(pc));
            black_box(bp.update(pc, taken));
        }
        n += stream.len() as u64;
    }
    ratio(t0.elapsed().as_secs_f64() * 1e9, n)
}

/// The smallest of `n` timings of `f`, in seconds.
fn fastest(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Host ns per op that `fig5-observed`'s recorders add to one cell
/// (Compress × T4): the Tee-recorder run minus the `NullRecorder` run,
/// the fastest of nine each.
fn recorder_ns_per_op(b: &Bench, ops: &[MicroOp]) -> Option<f64> {
    let t4 = DesignSpec::TABLE2[T4_COL];
    let null = fastest(9, || {
        timed(|| run_cell_uops(ops, t4, &b.cfg)).1.as_secs_f64()
    });
    let rec = fastest(9, || {
        timed(|| run_cell_uops_with(ops, t4, &b.cfg, &mut observer()))
            .1
            .as_secs_f64()
    });
    ratio((rec - null) * 1e9, ops.len() as u64)
}

/// Per-cell cost of running cells two at a time over one at a time: the
/// first twelve designs on Compress (an even count, so both workers stay
/// busy), timed serially and then on the worker pool, the fastest of
/// three each.
fn cell_inflation(b: &Bench, ops: &[MicroOp]) -> f64 {
    let designs = &DesignSpec::TABLE2[..12];
    let solo = fastest(3, || {
        designs
            .iter()
            .map(|&d| timed(|| b.run_cell(ops, d)).1.as_secs_f64())
            .sum()
    });
    let paired = fastest(3, || {
        parallel_map(designs.len(), WORKERS, |i| {
            timed(|| b.run_cell(ops, designs[i])).1.as_secs_f64()
        })
        .iter()
        .sum()
    });
    paired / solo
}

/// The traced rebuild, with every cell checked against the sweep's.
fn checked_rebuild(b: &Bench, reference: &[Option<RunMetrics>], tally: &mut Tally) -> Rebuild {
    let r = {
        let _tmp = TmpDir(&b.tmp);
        rebuild(b)
    };
    for (i, m) in r.metrics.iter().enumerate() {
        tally.record(reference[i].as_ref() == Some(m), || {
            format!("the traced rebuild of cell {i} differs from the sweep's")
        });
    }
    r
}

/// Pairs of an untraced sweep and its traced rebuild, repeated for
/// about half of `budget`, then the component replays; reports the
/// per-layer ledger of the fastest rebuild against the fastest sweep.
fn traced(b: &Bench, budget: Duration) -> Report {
    let start = Instant::now();
    // A process's first sweep also pays first-touch page faults on a
    // cold heap. The traced rebuild runs warm, so its untraced
    // reference must too.
    drop(sweep(b));
    let s = sweep(b);
    let (mut tally, digest, _) = check(b, &s);
    let mut correct = b.digest_matches(&digest);
    let mut untraced_wall = s.wall;
    let mut cell_exec = s.cells_wall;
    let acc = accuracy(b, &s);
    tally.record(acc.is_some(), || {
        "the sampled-vs-full accuracy runs".to_owned()
    });
    let reference: Vec<Option<RunMetrics>> = s
        .cells
        .iter()
        .flatten()
        .map(|c| c.as_ref().map(|c| c.metrics.clone()))
        .collect();
    drop(s);

    // One set of traces is alive at a time, so memory stays at one
    // sweep's: the replays below use the last rebuild's, and every
    // rebuild builds the same traces.
    let mut pair_start = Instant::now();
    let mut r = checked_rebuild(b, &reference, &mut tally);
    let mut traces = std::mem::take(&mut r.traces);
    let mut pairs = 1;
    while start.elapsed() + pair_start.elapsed() <= budget / 2 {
        pair_start = Instant::now();
        traces.clear();
        let s = sweep(b);
        let (t, d, _) = check(b, &s);
        tally.add(t);
        if d != digest {
            correct = false;
            eprintln!("perfbench: sweeps of one run disagree: digest {digest}, then {d}");
        }
        untraced_wall = untraced_wall.min(s.wall);
        cell_exec = cell_exec.min(s.cells_wall);
        drop(s);
        let mut next = checked_rebuild(b, &reference, &mut tally);
        traces = std::mem::take(&mut next.traces);
        if next.wall() < r.wall() {
            r = next;
        }
        pairs += 1;
    }
    let untraced_wall = untraced_wall.as_secs_f64();
    let cell_exec = cell_exec.as_secs_f64();
    let l = &r.ledger;
    let w = WORKERS as f64;
    let traced_wall = r.wall().as_secs_f64();
    let spans = l.total().as_secs_f64();
    eprintln!(
        "perfbench: layer ledger, {}: fastest of {pairs} untraced sweeps {untraced_wall:.3} s, \
         fastest of {pairs} traced rebuilds {traced_wall:.3} s, on {WORKERS} workers",
        b.workload.name()
    );
    eprintln!(
        "  {:<10} {:>9} {:>9} {:>8}",
        "layer", "thread-s", "wall-s", "of sweep"
    );
    for layer in ["workloads", "isa", "cpu", "core", "obs", "bench"] {
        let t = l.layer(layer);
        eprintln!(
            "  {layer:<10} {t:>9.3} {:>9.3} {:>7.1}%",
            t / w,
            100.0 * t / w / untraced_wall
        );
    }
    let idle = w * traced_wall - spans;
    eprintln!("  {:<10} {idle:>9.3} {:>9.3}", "uncovered", idle / w);

    // `fig5-full` measures the recorders with an observed rebuild of its
    // grid, outside its ledger: `fig5-observed` is not in BENCHMARK.json
    // (see "Workloads"), and sampled sweeps reject recorders.
    let observed_rebuild = (b.workload == Workload::Full).then(|| {
        let ob = Bench {
            workload: Workload::Observed,
            seed: b.seed,
            cfg: b.cfg.clone(),
            plan: b.plan,
            tmp: b.tmp.clone(),
        };
        checked_rebuild(&ob, &reference, &mut tally)
    });
    let obs = if b.observed() {
        Some(&r)
    } else {
        observed_rebuild.as_ref()
    };
    let ol = obs.map(|o| &o.ledger);

    let refs = data_refs(&traces);
    let compress = traces[0].ops();
    let mut rep = Report::new(correct, tally);
    rep.put(
        "workloads.build_ms",
        Some(l.secs("workloads.build") * 1e3),
        "ms",
    );
    rep.put("workloads.self_s", Some(l.layer("workloads") / w), "s");
    let insts = l.counted("isa.insts");
    rep.put(
        "isa.exec_ns_per_inst",
        ratio(l.secs("isa.exec") * 1e9, insts),
        "ns",
    );
    rep.put(
        "isa.predecode_ns_per_op",
        ratio(l.secs("isa.predecode") * 1e9, insts),
        "ns",
    );
    rep.put("isa.trace_mb", Some(r.trace_bytes as f64 / 1e6), "MB");
    rep.put("isa.self_s", Some(l.layer("isa") / w), "s");
    let engine_ns = (l.secs("cpu.engine") + l.secs("cpu.window")) * 1e9;
    rep.put(
        "cpu.engine_ns_per_op",
        ratio(engine_ns, l.counted("cpu.ops")),
        "ns",
    );
    rep.put(
        "cpu.engine_ns_per_cycle",
        ratio(engine_ns, l.counted("cpu.cycles")),
        "ns",
    );
    rep.put(
        "cpu.cell_ns_per_op_p50",
        Some(percentile(&r.cell_ns_per_op, 0.5)),
        "ns",
    );
    rep.put(
        "cpu.cell_ns_per_op_p90",
        Some(percentile(&r.cell_ns_per_op, 0.9)),
        "ns",
    );
    rep.put(
        "cpu.useful_issue_frac",
        ratio(l.counted("cpu.committed") as f64, l.counted("cpu.issued")),
        "ratio",
    );
    rep.put(
        "cpu.warm_gap_ns_per_op",
        ratio(l.secs("cpu.warm_gap") * 1e9, l.counted("cpu.gap_ops")),
        "ns",
    );
    rep.put(
        "cpu.warm_state_us",
        ratio(l.secs("cpu.warm_state") * 1e6, l.calls("cpu.warm_state")),
        "us",
    );
    rep.put(
        "cpu.window_ns_per_op",
        ratio(l.secs("cpu.window") * 1e9, l.counted("cpu.window_ops")),
        "ns",
    );
    rep.put("cpu.bpred_ns_per_branch", replay_bpred(&traces), "ns");
    rep.put("cpu.self_s", Some(l.layer("cpu") / w), "s");
    rep.put(
        "core.design_build_us",
        ratio(
            l.secs("core.design_build") * 1e6,
            l.calls("core.design_build"),
        ),
        "us",
    );
    for d in DesignSpec::TABLE2 {
        // Metric names allow no '/': I4/PB prints as I4-PB.
        let name = format!(
            "core.translate_ns_per_req.{}",
            d.mnemonic().replace('/', "-")
        );
        rep.put(name, replay_translate(d, &b.cfg, &refs), "ns");
    }
    rep.put(
        "core.retries_per_access",
        ratio(l.counted("core.retries") as f64, l.counted("core.accesses")),
        "ratio",
    );
    rep.put("core.walks", Some(l.counted("core.walks") as f64), "count");
    rep.put("core.self_s", Some(l.layer("core") / w), "s");
    rep.put(
        "mem.dcache_ns_per_access",
        replay_dcache(&b.cfg, &refs),
        "ns",
    );
    rep.put(
        "mem.dcache_miss_rate",
        ratio(l.counted("mem.misses") as f64, l.counted("mem.accesses")),
        "ratio",
    );
    rep.put(
        "obs.recorder_ns_per_op",
        obs.and_then(|_| recorder_ns_per_op(b, compress)),
        "ns",
    );
    rep.put(
        "obs.render_us_per_cell",
        ol.and_then(|ol| ratio(ol.secs("obs.render") * 1e6, ol.calls("obs.render"))),
        "us",
    );
    rep.put(
        "obs.sidecar_mb",
        obs.map(|o| o.sidecar_bytes as f64 / 1e6),
        "MB",
    );
    rep.put("obs.self_s", ol.map(|ol| ol.layer("obs") / w), "s");
    rep.put("bench.cell_exec_s", Some(cell_exec), "s");
    rep.put(
        "bench.worker_busy_frac",
        Some(r.cell_busy / (w * r.cells_wall.as_secs_f64())),
        "ratio",
    );
    rep.put(
        "bench.cell_inflation_2w",
        Some(cell_inflation(b, compress)),
        "ratio",
    );
    rep.put("bench.ipc_rel_err_max", acc.map(|a| a.0), "ratio");
    rep.put("bench.ci_cover_frac", acc.map(|a| a.1), "ratio");
    rep.put(
        "bench.journal_append_us",
        ol.and_then(|ol| {
            ratio(
                ol.secs("bench.journal_append") * 1e6,
                ol.calls("bench.journal_append"),
            )
        }),
        "us",
    );
    rep.put(
        "bench.measured_frac",
        Some(spans / w / untraced_wall),
        "ratio",
    );
    rep.put(
        "bench.trace_overhead",
        Some(traced_wall / untraced_wall),
        "ratio",
    );
    rep.put(
        "bench.uncovered_frac",
        Some(1.0 - spans / (w * traced_wall)),
        "ratio",
    );
    rep.put("bench.self_s", Some(l.layer("bench") / w), "s");
    rep
}

// ---- output --------------------------------------------------------------

/// What a run prints as its last line.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics with nothing to measure on this workload (printed as 0).
    not_measured: Vec<String>,
}

impl Report {
    fn new(correct: bool, tally: Tally) -> Report {
        Report {
            correct,
            tally,
            metrics: Vec::new(),
            not_measured: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let name = name.into();
        let value = value.unwrap_or_else(|| {
            self.not_measured.push(name.clone());
            0.0
        });
        self.metrics.push((name, value, unit));
    }

    /// The contract's JSON object. A non-finite value cannot be printed
    /// as a JSON number: it prints as 0 and marks the run incorrect.
    fn render(&mut self) -> String {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() {
                *value
            } else {
                eprintln!("perfbench: {name} is not finite ({value})");
                self.correct = false;
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated percentile, `p` in `[0, 1]`; NaN for no values.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(commit) = read(&format!(".git/{name}")) {
        return commit.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Untraced numbers must not pay for the self-profiler, whatever
    // HBAT_PROF says.
    prof::set_enabled(false);
    let b = match Bench::new(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = if b.sampled() {
        b.plan.render()
    } else {
        "none".to_owned()
    };
    println!(
        "perfbench: workload={} seed={} scale={} plan={plan} host_cores={host_cores} \
         workers={WORKERS} commit={} trace={}",
        b.workload.name(),
        b.seed,
        scale_name(b.cfg.scale),
        git_commit(),
        u8::from(args.trace),
    );
    let mut report = if args.trace {
        traced(&b, Duration::from_secs(args.seconds))
    } else {
        untraced(&b, Duration::from_secs(args.seconds))
    };
    if !report.not_measured.is_empty() {
        eprintln!(
            "perfbench: not measured on {} (printed as 0): {}",
            b.workload.name(),
            report.not_measured.join(", ")
        );
    }
    println!("{}", report.render());
    ExitCode::SUCCESS
}
