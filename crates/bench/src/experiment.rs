//! The experiment runner: sweeps translation designs over the benchmark
//! suite, exactly as Section 4 of the paper does.
//!
//! Each benchmark is kept as the machine at its timing start (its first
//! instruction, or the `--ff` boundary) with its op count. A full
//! sweep's cell runs a clone of that machine straight into the engine,
//! so no trace is stored. In a sampled sweep the first of the program's
//! cells to run builds the warm schedule's windows that every design
//! replays, and the last of its cells drops them. The benchmark ×
//! design cells are scheduled individually across a worker pool (see
//! [`crate::executor`]), so a full Table-2 sweep keeps every core busy
//! until the last cell drains; results are bit-identical to a serial
//! sweep regardless of worker count because each cell's replacement RNG
//! is seeded independently from the experiment's `design_seed`.
//!
//! There is one sweep body, [`sweep_ft`]; [`sweep`] is its fail-fast
//! convenience. Both return one [`SweepResult`], whose
//! [`SweepResult::render_figure`] and [`SweepResult::render_details`]
//! render every figure: full or sampled, complete or partial.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use hbat_ckpt::CkptError;
use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::engine::Engine;
use hbat_cpu::{RunMetrics, SimConfig, WarmAccumulator, WarmState};
use hbat_isa::executor::{Capped, OpSource};
use hbat_isa::tape::Tape;
use hbat_isa::uop::MicroOp;
use hbat_isa::Machine;
use hbat_obs::{
    prof, IntervalRecord, IntervalRecorder, NullRecorder, PortResource, Tee, TraceRecorder,
};
use hbat_stats::agg::weighted_average;
use hbat_stats::chart::BarChart;
use hbat_stats::ci::{ConfLevel, ConfidenceInterval};
use hbat_stats::table::{fnum_opt, percent_opt, TextTable};
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

use crate::ckpt::{build_warm_start, CheckpointOptions, WarmStart};
use crate::executor::{
    parallel_map_outcomes, timed, unpoisoned, worker_threads, RunPolicy, SweepTelemetry, TraceCache,
};
use crate::faults::FaultPlan;
use crate::journal::{
    fnv1a_hex, read_interval_sidecar, read_journal, CellKey, JournalRecord, JournalWriter,
};
use crate::outcome::{CellFailure, CellOutcome, FailureManifest};
use crate::sample::{
    ipc_interval, run_sampled_windows, warm_schedule, SamplePlan, ScheduledWindow,
};

/// The four-ported TLB: the design every figure normalises IPC to.
const T4: DesignSpec = DesignSpec::MultiPorted { ports: 4 };

/// Everything one experiment (one figure) varies.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Problem size for the workload generators.
    pub scale: Scale,
    /// Machine model (issue discipline etc.).
    pub sim: SimConfig,
    /// Page size.
    pub geometry: PageGeometry,
    /// Workload build configuration (register budget, seed).
    pub workload: WorkloadConfig,
    /// Seed for the designs' random replacement.
    pub design_seed: u64,
}

impl ExperimentConfig {
    /// The Figure-5 baseline: out-of-order, 4 KB pages, 32 registers.
    pub fn baseline(scale: Scale) -> Self {
        ExperimentConfig {
            scale,
            sim: SimConfig::baseline(),
            geometry: PageGeometry::KB4,
            workload: WorkloadConfig::new(scale),
            design_seed: 1996,
        }
    }

    /// Figure 7: in-order issue.
    #[must_use]
    pub fn with_inorder(mut self) -> Self {
        self.sim = SimConfig {
            issue_model: hbat_cpu::IssueModel::InOrder,
            ..self.sim
        };
        self
    }

    /// Figure 8: 8 KB pages.
    #[must_use]
    pub fn with_8k_pages(mut self) -> Self {
        self.geometry = PageGeometry::KB8;
        self
    }

    /// Figure 9: 8 int / 8 fp architected registers.
    #[must_use]
    pub fn with_small_regs(mut self) -> Self {
        self.workload = self.workload.with_small_regs();
        self
    }

    /// The state a run from program start begins in: the install form
    /// of an accumulator that has seen nothing.
    pub fn cold_state(&self) -> WarmState {
        WarmAccumulator::new(&self.sim, self.geometry).warm_state()
    }
}

/// One (benchmark, design) timing result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The benchmark.
    pub bench: Benchmark,
    /// The design.
    pub design: DesignSpec,
    /// Full run metrics. In a sampled sweep these are the measured
    /// windows' sums (see [`crate::sample::SampledCell`]), so rates are
    /// sample estimates, not exact counts.
    pub metrics: RunMetrics,
    /// A sampled sweep's per-window measurements (empty for full
    /// detailed runs) — what the interval estimators consume.
    pub windows: Vec<IntervalRecord>,
}

/// The result of sweeping `designs` over all ten benchmarks: one
/// outcome per cell (partial results survive individual failures), a
/// manifest of the failed cells, and how many cells were restored from
/// the journal.
#[derive(Debug)]
pub struct SweepResult {
    /// Designs in presentation order.
    pub designs: Vec<DesignSpec>,
    /// Row-major: `cells[bench][design]`, one outcome per cell.
    pub cells: Vec<Vec<CellOutcome<CellResult>>>,
    /// The failed cells, in schedule order.
    pub manifest: FailureManifest,
    /// Cells restored from the journal instead of re-executed.
    pub resumed: usize,
    /// Where the sweep's wall time went.
    pub telemetry: SweepTelemetry,
    /// The sample plan when this was a sampled sweep (`None` for full
    /// detailed runs); the renderers then show confidence intervals.
    pub sample: Option<SamplePlan>,
    /// Per program, in [`Benchmark::ALL`] order: the committed ops its
    /// cells time from (the whole run, or the tail past an `--ff`
    /// boundary), as the count pass over a clone of its start machine
    /// counted them before any cell ran. `None` where that phase failed.
    /// A sampled sweep weights each program by this count (see
    /// [`Self::weighted_ipc`]).
    pub program_ops: Vec<Option<u64>>,
}

/// The fewest windows a sampled cell needs to enter a weighted
/// confidence interval: one window has no spread to estimate from.
const MIN_INTERVAL_WINDOWS: usize = 2;

/// One benchmark behind a figure aggregate: the design's cell, the
/// weight (T4) cell, and the program's run-time weight
/// ([`SweepResult::weight`]).
type Row<'a> = (&'a CellResult, &'a CellResult, f64);

/// The run-time weighted mean of `ipc` over `rows`: the direct weighted
/// mean of IPCs, which is what the paper's "run-time weighted average
/// IPC" denotes. `None` when there are no rows.
fn runtime_weighted(rows: &[Row<'_>], ipc: impl Fn(&Row<'_>) -> f64) -> Option<f64> {
    if rows.is_empty() {
        return None;
    }
    let ipcs: Vec<f64> = rows.iter().map(ipc).collect();
    let weights: Vec<f64> = rows.iter().map(|&(_, _, weight)| weight).collect();
    Some(weighted_average(&ipcs, &weights))
}

impl SweepResult {
    /// Cells that completed (executed or restored).
    pub fn completed(&self) -> usize {
        self.cells.iter().flatten().filter(|o| o.is_ok()).count()
    }

    /// The weight column: T4's, or the first design's when T4 is not
    /// part of the sweep.
    fn weight_col(&self) -> usize {
        self.designs.iter().position(|d| *d == T4).unwrap_or(0)
    }

    /// Program `bench`'s weight in the figure aggregates: its run time
    /// under the weight design, from its weight cell `w`. A full sweep
    /// has it exactly, as the cell's cycles. A sampled cell times only
    /// its windows, so a sampled sweep estimates the whole run: the
    /// program's op count times the cell's window CPI (0 when the cell
    /// timed nothing). `None` when a sampled program's op count is
    /// unknown; the program then leaves the aggregates.
    fn weight(&self, bench: usize, w: &CellResult) -> Option<f64> {
        #![allow(clippy::cast_precision_loss)]
        if self.sample.is_none() {
            return Some(w.metrics.cycles as f64);
        }
        let n = (*self.program_ops.get(bench)?)?;
        if w.metrics.committed == 0 {
            return Some(0.0);
        }
        Some(n as f64 * w.metrics.cycles as f64 / w.metrics.committed as f64)
    }

    /// The rows where both `design`'s cell and the
    /// [weight cell](Self::weight_col) completed and the program's
    /// [weight](Self::weight) is known. `None` when `design` is not part
    /// of the sweep.
    fn completed_rows(&self, design: DesignSpec) -> Option<Vec<Row<'_>>> {
        let weight_col = self.weight_col();
        let col = self.designs.iter().position(|d| *d == design)?;
        Some(
            self.cells
                .iter()
                .enumerate()
                .filter_map(|(bi, row)| {
                    let w = row.get(weight_col)?.ok()?;
                    Some((row.get(col)?.ok()?, w, self.weight(bi, w)?))
                })
                .collect(),
        )
    }

    /// Run-time weighted IPC (weighted by each benchmark's T4 run time,
    /// per the paper) over the benchmarks where both this design's cell
    /// and the weight cell completed. A sampled sweep estimates the run
    /// time as the program's op count ([`Self::program_ops`]) times the
    /// T4 cell's window CPI, and leaves out a program whose count is
    /// unknown. `None` when the design is absent from the sweep or no
    /// benchmark has both cells.
    pub fn weighted_ipc(&self, design: DesignSpec) -> Option<f64> {
        runtime_weighted(&self.completed_rows(design)?, |(c, _, _)| c.metrics.ipc())
    }

    /// IPC of `design` normalised to T4's over the same benchmarks (the
    /// ones where both cells completed): the paper's figure metric.
    /// `None` when T4 or the design is absent, or no benchmark has both
    /// cells.
    pub fn relative_ipc(&self, design: DesignSpec) -> Option<f64> {
        if !self.designs.contains(&T4) {
            return None;
        }
        let rows = self.completed_rows(design)?;
        let t4 = runtime_weighted(&rows, |(_, w, _)| w.metrics.ipc())?;
        if t4 == 0.0 {
            return Some(0.0);
        }
        Some(runtime_weighted(&rows, |(c, _, _)| c.metrics.ipc())? / t4)
    }

    /// Run-time weighted IPC as a 95% confidence interval, for sampled
    /// sweeps: the weighted mean of the per-benchmark window-estimate
    /// means, with a *conservatively* weighted half-width
    /// (`Σw·hw / Σw` — at least as wide as a pooled-variance interval,
    /// never narrower). Weights are the estimated run times of
    /// [`Self::weighted_ipc`], so a benchmark whose weight cell timed
    /// nothing (an `--ff` boundary past its end) drops out of both the
    /// mean and the half-width. `None` when the sweep was not sampled,
    /// the design is absent, or no benchmark has weight. A weighted cell
    /// with fewer than two windows (a one-window tail, a lost sidecar)
    /// has no spread to estimate from, so it is left out too;
    /// [`Self::render_figure`] names each such program under the table,
    /// so the interval never narrows quietly.
    pub fn weighted_ipc_interval(&self, design: DesignSpec) -> Option<ConfidenceInterval> {
        self.sample?;
        let mut w_sum = 0.0f64;
        let mut mean_sum = 0.0f64;
        let mut hw_sum = 0.0f64;
        let mut n_min = u64::MAX;
        for (c, _, weight) in self.completed_rows(design)? {
            if weight == 0.0 || c.windows.len() < MIN_INTERVAL_WINDOWS {
                continue;
            }
            let ci = ipc_interval(&c.windows, ConfLevel::P95);
            w_sum += weight;
            mean_sum += weight * ci.mean;
            hw_sum += weight * ci.half_width;
            n_min = n_min.min(ci.n);
        }
        (w_sum > 0.0).then(|| ConfidenceInterval {
            mean: mean_sum / w_sum,
            half_width: hw_sum / w_sum,
            level: ConfLevel::P95.value(),
            n: n_min,
        })
    }

    /// The programs whose weight cell timed something but that some
    /// design's [`Self::weighted_ipc_interval`] leaves out, each with
    /// why: its op count is unknown, so it has no weight, or its cell
    /// under some design has fewer than two windows (the fewest are
    /// given). Empty for a full sweep.
    fn programs_outside_interval(&self) -> Vec<(Benchmark, String)> {
        if self.sample.is_none() {
            return Vec::new();
        }
        let weight_col = self.weight_col();
        (0..)
            .zip(Benchmark::ALL.iter().zip(&self.cells))
            .filter_map(|(bi, (bench, row))| {
                let w = row.get(weight_col)?.ok()?;
                if w.metrics.cycles == 0 {
                    return None;
                }
                if self.weight(bi, w).is_none() {
                    return Some((*bench, "op count unknown".to_owned()));
                }
                let fewest = row
                    .iter()
                    .filter_map(|o| o.ok())
                    .map(|c| c.windows.len())
                    .min()?;
                let plural = if fewest == 1 { "" } else { "s" };
                (fewest < MIN_INTERVAL_WINDOWS)
                    .then(|| (*bench, format!("{fewest} window{plural}")))
            })
            .collect()
    }

    /// Renders the figure as a text table plus the paper-style bar
    /// chart: one row/bar per design, relative to T4. A sampled sweep
    /// shows its plan and each design's weighted IPC as a 95% confidence
    /// interval. A design with no usable measurements shows `n/a`, and
    /// the failure manifest, if any, is appended below the chart.
    pub fn render_figure(&self, title: &str) -> String {
        let (ipc_header, plan) = match self.sample {
            Some(p) => (
                "weighted IPC (95% CI)",
                format!(
                    "sampled: {} (windows:len:warmup), relative IPC from window means\n",
                    p.render()
                ),
            ),
            None => ("weighted IPC", String::new()),
        };
        let mut t = TextTable::new(vec!["design", ipc_header, "vs T4"]);
        t.numeric();
        let mut chart = BarChart::new("relative IPC (normalised to T4)", 50)
            .with_max(1.0)
            .percent();
        for d in &self.designs {
            let ipc = match self.sample {
                Some(_) => self
                    .weighted_ipc_interval(*d)
                    .map_or_else(|| "n/a".to_owned(), |ci| ci.render(4)),
                None => fnum_opt(self.weighted_ipc(*d), 4),
            };
            let rel = self.relative_ipc(*d);
            t.row(vec![d.mnemonic().to_owned(), ipc, percent_opt(rel)]);
            match rel {
                Some(rel) => chart.bar(d.mnemonic(), rel),
                None => chart.bar_missing(d.mnemonic()),
            };
        }
        let mut out = format!("{title}\n{plan}{}", t.render());
        let outside = self.programs_outside_interval();
        if !outside.is_empty() {
            let names: Vec<String> = outside
                .iter()
                .map(|(b, why)| format!("{} ({why})", b.name()))
                .collect();
            out.push_str(&format!("not in the 95% CI: {}\n", names.join(", ")));
        }
        out.push('\n');
        out.push_str(&chart.render());
        if !self.manifest.is_empty() {
            out.push('\n');
            out.push_str(&self.manifest.render());
        }
        out
    }

    /// Renders the per-benchmark detail (the paper's FTP results file):
    /// one IPC per cell, `mean ± hw` in a sampled sweep, and `n/a` for a
    /// failed cell or a sampled cell with no windows (a program that
    /// halts before an `--ff` boundary, or a lost sidecar).
    pub fn render_details(&self) -> String {
        let mut headers = vec!["program".to_owned()];
        headers.extend(self.designs.iter().map(|d| d.mnemonic().to_owned()));
        let mut t = TextTable::new(headers);
        t.numeric();
        for (bench, row) in Benchmark::ALL.iter().zip(&self.cells) {
            let mut cells = vec![bench.name().to_owned()];
            cells.extend(row.iter().map(|o| match (o.ok(), self.sample) {
                (Some(c), Some(_)) if c.windows.is_empty() => "n/a".to_owned(),
                (Some(c), Some(_)) => ipc_interval(&c.windows, ConfLevel::P95).render(3),
                (c, _) => fnum_opt(c.map(|c| c.metrics.ipc()), 3),
            }));
            t.row(cells);
        }
        t.render()
    }
}

/// The tape of one benchmark's trace under `cfg`, through the
/// process-wide cache: the first request builds it, later requests for
/// the same workload share the stored copy.
pub fn tape_for(bench: Benchmark, cfg: &ExperimentConfig) -> Arc<Tape> {
    TraceCache::global()
        .get_or_build_tape(bench, &cfg.workload)
        .1
}

/// Runs one cell: `design` times the op stream `ops` (a `Machine`, a
/// `TapeReader` or a `&[MicroOp]`) in detail from `warm`, reporting
/// to `rec` ([`NullRecorder`] for an unobserved run; a [`TraceRecorder`]
/// for the stall taxonomy, an [`IntervalRecorder`], a [`Tee`] of both,
/// or a sampled window's gate). The one cell runner: a full cell starts
/// from the empty state, an `--ff` cell from the boundary's and a
/// sampled window from its schedule entry. Metrics are bit-identical
/// whatever `R` is, unless the recorder
/// [`finished`](hbat_obs::Recorder::finished) early.
pub fn run_cell<R: hbat_obs::Recorder>(
    ops: impl OpSource,
    design: DesignSpec,
    cfg: &ExperimentConfig,
    warm: &WarmState,
    rec: R,
) -> RunMetrics {
    let mut translator = design.build(cfg.geometry, cfg.design_seed);
    Engine::new(&cfg.sim, ops, translator.as_mut(), warm, rec).run()
}

/// [`run_cell`] of a full trace, unobserved.
pub fn run_cell_uops(uops: &[MicroOp], design: DesignSpec, cfg: &ExperimentConfig) -> RunMetrics {
    run_cell_uops_with(uops, design, cfg, NullRecorder)
}

/// [`run_cell`] of a full trace from the empty state, under `rec`.
///
/// # Panics
///
/// If the serials of `uops` are not contiguous.
pub fn run_cell_uops_with<R: hbat_obs::Recorder>(
    uops: &[MicroOp],
    design: DesignSpec,
    cfg: &ExperimentConfig,
    rec: R,
) -> RunMetrics {
    run_cell(uops, design, cfg, &cfg.cold_state(), rec)
}

/// Sweeps `designs` over all ten benchmarks on [`worker_threads`]
/// workers: the fail-fast convenience over [`sweep_ft`] with default
/// options.
///
/// # Panics
///
/// If any cell fails, with the rendered failure manifest.
pub fn sweep(designs: &[DesignSpec], cfg: &ExperimentConfig) -> SweepResult {
    let r = sweep_ft(designs, cfg, &SweepOptions::default())
        .expect("a sweep without a journal does no I/O");
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

// ---- fault-tolerant sweeps -----------------------------------------------

/// Fingerprint of everything that affects a full run's metrics, for the
/// journal's cell identity: scale, machine model, page geometry,
/// workload configuration, and design seed.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> String {
    sweep_fingerprint(cfg, None, None)
}

/// [`config_fingerprint`] with the fast-forward `boundary` and the
/// sample `plan` folded in when the sweep has them. Checkpointed metrics
/// start timing at the boundary and sampled metrics are window
/// estimates, so two runs share journal records (and snapshots) only
/// when the configuration, the boundary and the plan all match.
pub fn sweep_fingerprint(
    cfg: &ExperimentConfig,
    boundary: Option<u64>,
    plan: Option<&SamplePlan>,
) -> String {
    let ff = boundary.map(|f| format!("/ff={f}")).unwrap_or_default();
    let sample = plan.map(|p| format!("/sample={p:?}")).unwrap_or_default();
    fnv1a_hex(&format!("{cfg:?}{ff}{sample}"))
}

/// How a fault-tolerant sweep runs: worker count, retry/deadline
/// policy, an optional fault-injection plan, and the journal used for
/// restartable campaigns.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = [`worker_threads`]).
    pub threads: usize,
    /// Retry, deadline and heartbeat policy.
    pub policy: RunPolicy,
    /// Injected faults; [`FaultPlan::none`] for production runs.
    pub faults: FaultPlan,
    /// Append completed cells to this JSONL journal.
    pub journal: Option<PathBuf>,
    /// Replay the journal first and re-execute only missing cells.
    pub resume: bool,
    /// Run every cell under a [`TraceRecorder`] and append one
    /// observability summary per executed cell to the journal's
    /// `.obs.jsonl` sidecar (requires `journal`; the main journal stays
    /// byte-identical to an unobserved sweep).
    pub observe: bool,
    /// Bucket every executed cell into fixed-width cycle windows of
    /// this many cycles (≥ 2) and append one record per window to the
    /// journal's `.iv.jsonl` sidecar (requires `journal`; composes
    /// with `observe` through a [`hbat_obs::Tee`]; the main journal
    /// stays byte-identical).
    pub intervals: Option<u64>,
    /// Checkpointed mode: fast-forward each benchmark functionally to
    /// the boundary, publishing crash-safe snapshots, then run detailed
    /// timing on the tail with warm state installed. A killed or
    /// faulted run restores from the newest valid snapshot (see
    /// [`crate::ckpt`]). Changes the cells' metrics — and therefore the
    /// journal fingerprint — because timing starts at the boundary.
    pub checkpoint: Option<CheckpointOptions>,
    /// Sampled mode (SMARTS-style): run detailed timing only in the
    /// plan's windows, fast-forward functionally between them, and
    /// report metrics as interval estimates. Composes with `checkpoint`
    /// (windows are placed in the tail past the boundary, chained from
    /// the snapshot's warm state); mutually exclusive with `observe`
    /// and `intervals` — sampled windows own the `.iv.jsonl` sidecar.
    /// The plan is folded into the journal fingerprint.
    pub sample: Option<SamplePlan>,
}

/// The sidecar path that an observed sweep writes its per-cell
/// observability summaries to: `<journal>.obs.jsonl` next to the
/// journal itself, so the main journal stays byte-identical whether or
/// not observation is on.
pub fn obs_sidecar_path(journal: &std::path::Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".obs.jsonl");
    PathBuf::from(os)
}

/// The sidecar path an interval sweep writes its per-window records
/// to: `<journal>.iv.jsonl`, same convention as [`obs_sidecar_path`].
pub fn iv_sidecar_path(journal: &std::path::Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".iv.jsonl");
    PathBuf::from(os)
}

/// Renders one interval sidecar record: the cell's identity plus one
/// window's counters, as a single JSON line (schema-versioned, like
/// every JSONL stream in the repo).
pub fn render_interval_record(key: &CellKey, window: &hbat_obs::IntervalRecord) -> String {
    use crate::executor::escape_json;
    format!(
        "{{\"v\":{},\"bench\":{},\"design\":{},\"config\":{},\"seed\":{},\"window\":{{{}}}}}",
        hbat_obs::INTERVAL_SCHEMA_VERSION,
        escape_json(&key.bench),
        escape_json(&key.design),
        escape_json(&key.config),
        key.seed,
        window.render_fields(),
    )
}

/// Renders one observability sidecar record: the cell's identity plus
/// the recorder's summary counters (stall taxonomy, port conflicts,
/// walks, occupancy histogram summaries) as a single JSON line.
pub fn render_obs_record(key: &CellKey, rec: &TraceRecorder) -> String {
    use crate::executor::escape_json;
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "{{\"v\":1,\"bench\":{},\"design\":{},\"config\":{},\"seed\":{},\"obs\":{{",
        escape_json(&key.bench),
        escape_json(&key.design),
        escape_json(&key.config),
        key.seed,
    ));
    out.push_str(&format!(
        "\"cycles\":{},\"issue_cycles\":{},\"issued_ops\":{},\"stalls\":{{",
        rec.cycles(),
        rec.issue_cycles(),
        rec.issued_ops(),
    ));
    for (i, (cause, n)) in rec.stall_breakdown().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{n}", escape_json(cause.name())));
    }
    out.push_str("},\"port_conflicts\":{");
    for (i, res) in PortResource::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{}",
            escape_json(res.name()),
            rec.port_conflicts(*res)
        ));
    }
    out.push_str(&format!(
        "}},\"walks\":{},\"walk_cycles\":{},\"occupancy\":{{",
        rec.walks(),
        rec.walk_cycles(),
    ));
    for (i, (name, h)) in [
        ("rob", rec.rob_occupancy()),
        ("lsq", rec.lsq_occupancy()),
        ("mshrs", rec.mshr_occupancy()),
        ("tlb_queue", rec.tlb_queue_occupancy()),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"samples\":{},\"max\":{}}}",
            escape_json(name),
            h.total(),
            h.max_seen()
        ));
    }
    out.push_str("}}}");
    out
}

/// What phase 1 built for one program: the machine and accumulator at
/// its timing start (the first instruction, or the `--ff` boundary) and
/// the ops it runs from there to halt. Each full cell streams a clone
/// of the machine into the engine; a sampled sweep's first cell builds
/// the [`SharedSchedule`] its designs time from another clone. So no
/// sweep holds a program's trace.
struct BenchInput {
    /// The machine and accumulator at the timing start.
    start: WarmStart,
    /// The ops the machine runs from there to halt.
    n: u64,
}

impl BenchInput {
    /// What a full cell times: a clone of the machine, capped at the
    /// `n` ops phase 1 counted.
    fn stream(&self) -> Capped<Machine> {
        self.start.machine.clone().capped(self.n)
    }

    /// The windows every cell of a sampled sweep times: [`warm_schedule`]
    /// of a clone of the machine, continuing a clone of the accumulator.
    fn schedule(&self, cfg: &ExperimentConfig, plan: &SamplePlan) -> Vec<ScheduledWindow> {
        let start = &self.start;
        warm_schedule(start.machine.clone(), self.n, cfg, Some(&start.acc), plan)
    }
}

/// One program's timing input in a sampled sweep (DESIGN.md §15): its
/// warm schedule. The first of the program's cells to run builds it,
/// the other designs share it, and the last cell to finish drops it, so
/// only programs with cells still to run hold one.
struct SharedSchedule {
    /// The schedule once built, and how many of the program's cells
    /// have yet to finish with it.
    state: Mutex<(Option<Arc<Vec<ScheduledWindow>>>, usize)>,
}

impl SharedSchedule {
    fn new(cells: usize) -> SharedSchedule {
        SharedSchedule {
            state: Mutex::new((None, cells)),
        }
    }

    /// The schedule, built by `build` if no cell has built it yet. The
    /// lock is held across the build, so the program's other cells wait
    /// for it instead of warming a second time. A build that panics
    /// leaves the slot empty and its poisoned lock is recovered, so the
    /// next cell (or the retry) builds it afresh.
    fn get_or_build(
        &self,
        build: impl FnOnce() -> Vec<ScheduledWindow>,
    ) -> Arc<Vec<ScheduledWindow>> {
        let mut state = unpoisoned(self.state.lock());
        state
            .0
            .get_or_insert_with(|| {
                let _build = prof::scope("sched-build");
                Arc::new(build())
            })
            .clone()
    }

    /// Marks one of the program's cells finished; the last one drops
    /// the schedule. A cell that fails for good never finishes, and its
    /// program's schedule then lives until the sweep returns.
    fn finish_cell(&self) {
        let mut state = unpoisoned(self.state.lock());
        state.1 = state.1.saturating_sub(1);
        if state.1 == 0 {
            state.0 = None;
        }
    }

    /// Whether a schedule is currently held.
    #[cfg(test)]
    fn is_held(&self) -> bool {
        unpoisoned(self.state.lock()).0.is_some()
    }
}

/// The order the workers claim a `rows × cols` grid of cells in, as
/// grid indices. Each program's first cell is handed out `lookahead`
/// programs early, ahead of the current program's remaining cells: at
/// lookahead 1 the order is `p0d0, p1d0, p0d1..dN, p2d0, p1d1..dN, …`.
/// In a sampled sweep the first cell builds the program's
/// [`SharedSchedule`], so with `threads − 1` lookahead a worker that
/// would wait on the current program's build builds the next one
/// instead, and about `threads + 1` schedules are held at once. A full
/// sweep's cells share nothing but the program's start, so there the
/// lookahead changes nothing but the claim order.
/// Lookahead 0 is grid order.
fn dispatch_order(rows: usize, cols: usize, lookahead: usize) -> Vec<usize> {
    if cols == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..rows.min(lookahead + 1)).map(|b| b * cols).collect();
    for b in 0..rows {
        order.extend(b * cols + 1..(b + 1) * cols);
        if b + lookahead + 1 < rows {
            order.push((b + lookahead + 1) * cols);
        }
    }
    order
}

/// [`sweep_ft`], for callers that still pass a trace cache; the sweep
/// holds no trace, so `_cache` is neither read nor filled.
///
/// # Errors
///
/// As [`sweep_ft`].
pub fn sweep_ft_on(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
    _cache: &TraceCache,
) -> io::Result<SweepResult> {
    sweep_ft(designs, cfg, opts)
}

/// `windows` of a cell: interval records plus how many the recorder
/// dropped on buffer overflow; `None` when the cell records none.
type Windows = Option<(Vec<IntervalRecord>, u64)>;

/// [`run_cell`] of a full sweep's cell under the recorder combination
/// `opts` asks for: none, the trace recorder, the interval recorder, or
/// both through a [`Tee`]. Picked with static dispatch, so the
/// unobserved arm stays the [`NullRecorder`] hot loop.
fn run_recorded(
    ops: impl OpSource,
    design: DesignSpec,
    cfg: &ExperimentConfig,
    warm: &WarmState,
    opts: &SweepOptions,
) -> (RunMetrics, Option<TraceRecorder>, Windows) {
    match (opts.observe, opts.intervals) {
        (false, None) => (run_cell(ops, design, cfg, warm, NullRecorder), None, None),
        (true, None) => {
            let mut rec = TraceRecorder::new();
            let metrics = run_cell(ops, design, cfg, warm, &mut rec);
            (metrics, Some(rec), None)
        }
        (false, Some(width)) => {
            let mut iv = IntervalRecorder::new(width);
            let metrics = run_cell(ops, design, cfg, warm, &mut iv);
            iv.finish();
            let wins = (iv.windows().to_vec(), iv.dropped_windows());
            (metrics, None, Some(wins))
        }
        (true, Some(width)) => {
            let mut tee = Tee::new(TraceRecorder::new(), IntervalRecorder::new(width));
            let metrics = run_cell(ops, design, cfg, warm, &mut tee);
            tee.b.finish();
            let wins = (tee.b.windows().to_vec(), tee.b.dropped_windows());
            (metrics, Some(tee.a), Some(wins))
        }
    }
}

/// The one sweep body: every benchmark × design cell of `designs` over
/// all ten benchmarks. Each cell runs isolated, with retries and
/// deadlines per `opts.policy`; completed cells are journalled, and
/// failed ones leave partial results (see [`SweepResult`]).
///
/// # Errors
///
/// Only journal I/O errors propagate (opening the journal for append,
/// or reading it under `opts.resume`), and options that need a journal
/// without one; cell failures are reported through the result's
/// manifest instead.
pub fn sweep_ft(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> io::Result<SweepResult> {
    let benches = Benchmark::ALL;
    let threads = if opts.threads == 0 {
        worker_threads()
    } else {
        opts.threads
    };
    // The journal rules: resuming replays the journal, and the
    // observability and interval records live in sidecars next to it.
    // Checked before any file is opened.
    let needs_journal = if opts.resume {
        Some("--resume needs --journal <path>")
    } else if opts.observe {
        Some("--observe needs --journal <path> (the sidecar lives next to it)")
    } else if opts.intervals.is_some() {
        Some("--intervals needs --journal <path> (the sidecar lives next to it)")
    } else {
        None
    };
    if let (None, Some(msg)) = (&opts.journal, needs_journal) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    // Reject bad interval widths here, with an error, rather than
    // letting the recorder's constructor panic inside every isolated
    // cell job.
    if let Some(w) = opts.intervals {
        if w < 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("interval width must be >= 2 cycles, got {w}"),
            ));
        }
    }
    // Sampled runs emit one interval record per *measurement window*
    // through the same `.iv.jsonl` sidecar the cycle-interval recorder
    // uses; letting both write would interleave two different window
    // semantics in one file.
    if opts.sample.is_some() && (opts.observe || opts.intervals.is_some()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "--sample is mutually exclusive with --observe / --intervals \
             (sampled windows own the interval sidecar)",
        ));
    }
    let n_cells = benches.len() * designs.len();
    let fingerprint = sweep_fingerprint(
        cfg,
        opts.checkpoint.as_ref().map(|ck| ck.boundary),
        opts.sample.as_ref(),
    );

    // Resume: restore completed cells from the journal. Records keyed
    // for a different configuration simply never match.
    let mut restored: HashMap<CellKey, RunMetrics> = HashMap::new();
    // Sampled resume also restores the per-window measurements from
    // the interval sidecar so a restored cell still renders its
    // confidence interval. If a crashed cell re-ran and re-appended
    // its block, window starts go non-monotonic at the seam — reset
    // and keep the latest complete block.
    let mut restored_windows: HashMap<CellKey, Vec<IntervalRecord>> = HashMap::new();
    if let (true, Some(path)) = (opts.resume, &opts.journal) {
        for rec in read_journal(path)? {
            restored.insert(rec.key, rec.metrics);
        }
        if opts.sample.is_some() {
            for rec in read_interval_sidecar(&iv_sidecar_path(path))? {
                let wins = restored_windows.entry(rec.key).or_default();
                if wins.last().is_some_and(|w| rec.window.start <= w.start) {
                    wins.clear();
                }
                wins.push(rec.window);
            }
        }
    }
    let writer = match &opts.journal {
        Some(path) => Some(JournalWriter::append_to(path)?),
        None => None,
    };
    let obs_writer = match (&opts.journal, opts.observe) {
        (Some(path), true) => Some(JournalWriter::append_to(&obs_sidecar_path(path))?),
        _ => None,
    };
    let iv_writer = match &opts.journal {
        Some(path) if opts.intervals.is_some() || opts.sample.is_some() => {
            Some(JournalWriter::append_to(&iv_sidecar_path(path))?)
        }
        _ => None,
    };

    // Phase 1: every program's start and op count, built in parallel,
    // isolated per benchmark — a failed build skips that benchmark's
    // cells instead of aborting the sweep. Each program counts its ops
    // on a clone of its machine and keeps the machine.
    let phase_trace_build = prof::scope("trace-build");
    // hbat-lint: allow(panic) bi < benches.len() by parallel_map_outcomes' contract; an escaped panic here is caught per-cell anyway
    let (trace_outcomes, trace_build) = timed(|| {
        parallel_map_outcomes(benches.len(), threads, &opts.policy, |bi, ctx| {
            let bench = benches[bi];
            assert!(
                !opts.faults.trace_fault_for(bi),
                "injected fault: trace build for {} panicked",
                bench.name()
            );
            let fail = |e: CkptError| -> ! { panic!("timing input for {}: {e}", bench.name()) };
            let start = match &opts.checkpoint {
                // Checkpointed: restore from the newest valid snapshot
                // (retries resume from whatever the crashed attempt
                // published), fast-forward the remainder, snapshot as we
                // go. A checkpoint-layer error fails this benchmark's
                // cells cleanly via the isolation layer.
                Some(ck) => build_warm_start(
                    bench,
                    bi,
                    cfg,
                    ck,
                    &opts.faults,
                    ctx.attempt,
                    Some(ctx.cancel_flag()),
                )
                .unwrap_or_else(|e| fail(e)),
                None => {
                    let _build = prof::scope("workload-build");
                    WarmStart::program_start(bench, cfg)
                }
            };
            let n = {
                let _count = prof::scope("count");
                start.tail_len().unwrap_or_else(|e| fail(e))
            };
            BenchInput { start, n }
        })
    });
    drop(phase_trace_build);
    let mut traces: Vec<Option<BenchInput>> = Vec::with_capacity(benches.len());
    let mut trace_errs: Vec<String> = Vec::with_capacity(benches.len());
    for outcome in trace_outcomes {
        trace_errs.push(match &outcome {
            CellOutcome::Ok(_) => String::new(),
            other => format!("trace build {}: {}", other.kind(), other.detail()),
        });
        traces.push(outcome.into_ok());
    }
    let program_ops = traces
        .iter()
        .map(|input| input.as_ref().map(|input| input.n))
        .collect();

    // Phase 2: one queue of benchmark × design cells. Restored cells
    // return without executing (and without re-journalling); fresh
    // completions journal themselves before returning.
    // hbat-lint: allow(panic) every caller passes bi < benches.len() and di < designs.len()
    let key_of = |bi: usize, di: usize| CellKey {
        bench: benches[bi].name().to_owned(),
        design: format!("{:?}", designs[di]),
        config: fingerprint.clone(),
        seed: cfg.design_seed,
    };
    // A sampled program runs its machine once more: its cells still to
    // run share one schedule, built lazily here in the cell phase.
    let restored_in_row: Vec<usize> = (0..benches.len())
        .map(|bi| {
            (0..designs.len())
                .filter(|&di| restored.contains_key(&key_of(bi, di)))
                .count()
        })
        .collect();
    let schedules: Vec<SharedSchedule> = restored_in_row
        .iter()
        .map(|restored| SharedSchedule::new(designs.len() - restored))
        .collect();
    // Look ahead so schedule builds overlap other programs' cells; see
    // `dispatch_order`. Everything but the order the workers claim cells
    // in stays indexed by grid position.
    let order = dispatch_order(benches.len(), designs.len(), threads.saturating_sub(1));
    let phase_detailed = prof::scope("detailed-run");
    // hbat-lint: allow(panic) bi/di derive from i < n_cells, and a panic inside a cell job is exactly what the isolation layer catches
    let (by_claim, cell_exec) = timed(|| {
        parallel_map_outcomes(n_cells, threads, &opts.policy, |claim, ctx| {
            let i = order[claim];
            let (bi, di) = (i / designs.len(), i % designs.len());
            let key = key_of(bi, di);
            let done = |metrics: RunMetrics, windows: Vec<IntervalRecord>| {
                CellOutcome::Ok(CellResult {
                    bench: benches[bi],
                    design: designs[di],
                    metrics,
                    windows,
                })
            };
            if let Some(metrics) = restored.get(&key) {
                // A sampled cell restored from the journal gets its
                // windows back from the sidecar too; an incomplete or
                // lost sidecar yields an empty vector, which renders as
                // a degenerate full-width interval instead of lying.
                let wins = restored_windows.get(&key).cloned().unwrap_or_default();
                return done(metrics.clone(), wins);
            }
            let Some(input) = &traces[bi] else {
                return CellOutcome::Skipped {
                    reason: trace_errs[bi].clone(),
                };
            };
            opts.faults.arm(i, ctx.attempt, ctx.cancel_flag());
            assert!(
                !ctx.cancelled(),
                "injected fault: cell {i} stalled past its deadline"
            );
            let design = designs[di];
            // `windows` unifies the two interval sources: cycle-width
            // intervals from the recorder (which can drop on buffer
            // overflow) and sampled measurement windows (which never
            // drop — the plan bounds them up front).
            let (metrics, rec, windows) = {
                let _cell = prof::scope("cell-run");
                match &opts.sample {
                    Some(plan) => {
                        let schedule = schedules[bi].get_or_build(|| input.schedule(cfg, plan));
                        let _windows = prof::scope("windows");
                        let cell = run_sampled_windows(design, cfg, &schedule);
                        drop(schedule);
                        schedules[bi].finish_cell();
                        (cell.metrics, None, Some((cell.windows, 0)))
                    }
                    None => {
                        let warm = input.start.acc.warm_state();
                        run_recorded(input.stream(), design, cfg, &warm, opts)
                    }
                }
            };
            if let Some(w) = &writer {
                let _journal = prof::scope("journal-append");
                if let Err(e) = w.append(&JournalRecord {
                    key: key.clone(),
                    metrics: metrics.clone(),
                }) {
                    eprintln!("warning: journal append failed: {e}");
                }
            }
            if let (Some(w), Some(rec)) = (&obs_writer, &rec) {
                if let Err(e) = w.append_line(&render_obs_record(&key, rec)) {
                    eprintln!("warning: obs sidecar append failed: {e}");
                }
            }
            if let (Some(w), Some((wins, dropped))) = (&iv_writer, &windows) {
                let mut block = String::new();
                for win in wins {
                    block.push_str(&render_interval_record(&key, win));
                    block.push('\n');
                }
                if *dropped > 0 {
                    eprintln!(
                        "warning: {}/{}: {dropped} interval windows dropped (buffer full); widen --intervals",
                        key.bench, key.design,
                    );
                }
                if let Err(e) = w.append_block(&block) {
                    eprintln!("warning: interval sidecar append failed: {e}");
                }
            }
            // Sampled windows ride on the cell result (the interval
            // estimators consume them); cycle-width interval windows
            // stay sidecar-only, as before.
            let cell_windows = match (&opts.sample, windows) {
                (Some(_), Some((wins, _))) => wins,
                _ => Vec::new(),
            };
            done(metrics, cell_windows)
        })
    });
    drop(phase_detailed);

    // Back into grid order. A cell job's own outcome (completed, or
    // skipped for want of a trace) inside its isolation outcome:
    // flatten, then split into the manifest and rows.
    let mut by_grid: Vec<(usize, _)> = order.into_iter().zip(by_claim).collect();
    by_grid.sort_unstable_by_key(|&(i, _)| i);
    let flat: Vec<CellOutcome<CellResult>> = by_grid
        .into_iter()
        .map(|(_, o)| o.and_then(|o| o))
        .collect();
    let failures = flat.iter().enumerate().filter(|(_, o)| !o.is_ok());
    // hbat-lint: allow(panic) i < n_cells = benches.len() * designs.len()
    let manifest = FailureManifest {
        failures: failures
            .map(|(i, outcome)| CellFailure {
                index: i,
                bench: benches[i / designs.len()].name().to_owned(),
                design: designs[i % designs.len()].mnemonic().to_owned(),
                kind: outcome.kind().to_owned(),
                detail: outcome.detail(),
                attempts: outcome.attempts(),
            })
            .collect(),
    };
    let mut flat = flat.into_iter();
    let cells = benches
        .iter()
        .map(|_| flat.by_ref().take(designs.len()).collect())
        .collect();

    Ok(SweepResult {
        designs: designs.to_vec(),
        cells,
        manifest,
        resumed: restored_in_row.iter().sum(),
        sample: opts.sample,
        program_ops,
        telemetry: SweepTelemetry {
            threads,
            cells: n_cells,
            trace_build,
            cell_exec,
        },
    })
}

/// Parses the scale from the first CLI argument ([`Scale::parse`];
/// default `small`); used by the figure binaries. An unknown scale
/// prints a usage line and exits with status 2, before any work.
pub fn scale_from_args() -> Scale {
    let mut args = std::env::args();
    let prog = args.next().unwrap_or_default();
    let Some(arg) = args.next() else {
        return Scale::Small;
    };
    Scale::parse(&arg).unwrap_or_else(|| {
        eprintln!("error: unknown scale `{arg}`\nusage: {prog} [test|small|reference]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::parallel_map;

    #[test]
    fn dispatch_order_hands_out_first_cells_early_and_permutes_the_grid() {
        assert_eq!(dispatch_order(3, 4, 0), (0..12).collect::<Vec<_>>());
        assert_eq!(
            dispatch_order(3, 3, 1),
            [0, 3, 1, 2, 6, 4, 5, 7, 8],
            "p0d0, p1d0, p0 rest, p2d0, p1 rest, p2 rest"
        );
        assert_eq!(dispatch_order(3, 3, 2), [0, 3, 6, 1, 2, 4, 5, 7, 8]);
        // A lookahead past the last program, one-design rows and an
        // empty grid.
        assert_eq!(dispatch_order(2, 3, 7), [0, 3, 1, 2, 4, 5]);
        assert_eq!(dispatch_order(4, 1, 1), [0, 1, 2, 3]);
        assert!(dispatch_order(5, 0, 1).is_empty());
        for (rows, cols, ahead) in [(10, 13, 1), (10, 13, 3), (1, 13, 1), (10, 2, 9)] {
            let mut order = dispatch_order(rows, cols, ahead);
            order.sort_unstable();
            assert_eq!(order, (0..rows * cols).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_sweep_produces_sane_relative_ipcs() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let designs = [
            DesignSpec::MultiPorted { ports: 4 },
            DesignSpec::MultiPorted { ports: 1 },
        ];
        let r = sweep(&designs, &cfg);
        assert_eq!(r.cells.len(), 10);
        let rel_t4 = r.relative_ipc(designs[0]).expect("T4 swept");
        let rel_t1 = r.relative_ipc(designs[1]).expect("T1 swept");
        assert!((rel_t4 - 1.0).abs() < 1e-12, "T4 is its own baseline");
        assert!(rel_t1 < 1.0, "T1 must trail T4: {rel_t1}");
        assert!(rel_t1 > 0.3, "T1 cannot be catastrophically slow: {rel_t1}");
        let fig = r.render_figure("test figure");
        assert!(fig.contains("T4") && fig.contains("T1"));
        let details = r.render_details();
        assert!(details.contains("Compress") && details.contains("Xlisp"));
    }

    /// A T4/T1 sampled sweep, one row per `(t4, t1)` pair of window
    /// lists; each cell's metrics are its windows' sums, and every
    /// program runs 1,000 ops.
    fn sampled_result(rows: Vec<(Vec<IntervalRecord>, Vec<IntervalRecord>)>) -> SweepResult {
        let designs = vec![T4, DesignSpec::MultiPorted { ports: 1 }];
        let cell = |design, windows: Vec<IntervalRecord>| {
            CellOutcome::Ok(CellResult {
                bench: Benchmark::Compress,
                design,
                metrics: RunMetrics {
                    cycles: windows.iter().map(|w| w.cycles).sum(),
                    committed: windows.iter().map(|w| w.committed).sum(),
                    ..RunMetrics::default()
                },
                windows,
            })
        };
        SweepResult {
            program_ops: vec![Some(1_000); rows.len()],
            cells: rows
                .into_iter()
                .map(|(t4, t1)| vec![cell(designs[0], t4), cell(designs[1], t1)])
                .collect(),
            designs,
            manifest: FailureManifest::default(),
            resumed: 0,
            telemetry: SweepTelemetry::default(),
            sample: Some(SamplePlan {
                n_windows: 3,
                window_len: 100,
                warmup_len: 0,
                seed: 1996,
            }),
        }
    }

    fn windows(commits: &[u64]) -> Vec<IntervalRecord> {
        let window = |&committed| IntervalRecord {
            cycles: 100,
            committed,
            ..IntervalRecord::default()
        };
        commits.iter().map(window).collect()
    }

    // A sampled sweep weights each program by its estimated whole-run
    // T4 time, op count x window CPI. The windows' cycles would weight
    // every program about the same, since each times the same number of
    // ops; a full sweep still weights by the cells' cycles.
    #[test]
    fn sampled_figures_weight_programs_by_estimated_run_time() {
        let t1 = DesignSpec::MultiPorted { ports: 1 };
        // Both programs' T4 windows take 300 cycles. Program 0 runs
        // 1,000 ops at T4 CPI 1 and program 1 runs 100,000 at CPI 2, so
        // their weights are 1,000 and 200,000 cycles.
        let mut r = sampled_result(vec![
            (windows(&[100, 100, 100]), windows(&[50, 50, 50])),
            (windows(&[50, 50, 50]), windows(&[40, 40, 40])),
        ]);
        r.program_ops = vec![Some(1_000), Some(100_000)];
        let (w0, w1) = (1_000.0, 200_000.0);
        let t4 = (w0 * 1.0 + w1 * 0.5) / (w0 + w1);
        let t1_ipc = (w0 * 0.5 + w1 * 0.4) / (w0 + w1);
        assert!((r.weighted_ipc(T4).unwrap() - t4).abs() < 1e-12);
        assert!((r.relative_ipc(t1).unwrap() - t1_ipc / t4).abs() < 1e-12);
        let ci = r.weighted_ipc_interval(T4).unwrap();
        assert!((ci.mean - t4).abs() < 1e-12, "{ci:?}");
        assert!(!r.render_figure("t").contains("not in the 95% CI"));

        // Weighted by the windows' cycles, as a full sweep weights its
        // cells, the two programs would count the same.
        let sample = r.sample.take();
        assert!((r.weighted_ipc(T4).unwrap() - 0.75).abs() < 1e-12);
        assert!((r.relative_ipc(t1).unwrap() - 0.9 / 1.5).abs() < 1e-12);
        r.sample = sample;

        // A program whose op count is unknown leaves the aggregates and
        // is named under the table.
        r.program_ops[1] = None;
        assert!((r.weighted_ipc(T4).unwrap() - 1.0).abs() < 1e-12);
        assert!((r.relative_ipc(t1).unwrap() - 0.5).abs() < 1e-12);
        assert!((r.weighted_ipc_interval(T4).unwrap().mean - 1.0).abs() < 1e-12);
        let fig = r.render_figure("t");
        assert!(
            fig.contains("not in the 95% CI: Doduc (op count unknown)\n"),
            "{fig}"
        );
    }

    #[test]
    fn weighted_interval_drops_programs_whose_weight_cell_timed_nothing() {
        let t1 = DesignSpec::MultiPorted { ports: 1 };
        let timed = windows(&[90, 100, 110]);
        // The second program halted before the boundary: no windows.
        let r = sampled_result(vec![
            (windows(&[150, 150, 150]), timed.clone()),
            (Vec::new(), Vec::new()),
        ]);
        let ci = r.weighted_ipc_interval(t1).expect("one program has weight");
        let alone = ipc_interval(&timed, ConfLevel::P95);
        assert!(ci.half_width.is_finite(), "{ci:?}");
        assert!((ci.mean - alone.mean).abs() < 1e-12, "{ci:?} vs {alone:?}");
        assert!((ci.half_width - alone.half_width).abs() < 1e-12);
        assert_eq!(ci.n, 3);
        assert!((ci.mean - r.weighted_ipc(t1).unwrap()).abs() < 0.05);

        // No program with weight: no interval at all.
        let none = sampled_result(vec![(Vec::new(), Vec::new()); 2]);
        assert!(none.weighted_ipc_interval(t1).is_none());
    }

    #[test]
    fn weighted_interval_leaves_out_and_names_cells_under_two_windows() {
        let t1 = DesignSpec::MultiPorted { ports: 1 };
        let full = || (windows(&[150, 150, 150]), windows(&[90, 100, 110]));
        let alone = ipc_interval(&windows(&[90, 100, 110]), ConfLevel::P95);
        // Row 0 is sampled in full; row 1 is a one-window tail, weighted
        // but with no spread to estimate from.
        let tail = sampled_result(vec![full(), (windows(&[150]), windows(&[100]))]);
        // Row 1's weight cell has windows but its T1 windows were lost.
        let lost = sampled_result(vec![full(), (windows(&[150, 150]), Vec::new())]);
        for (r, note) in [
            (&tail, "not in the 95% CI: Doduc (1 window)\n"),
            (&lost, "not in the 95% CI: Doduc (0 windows)\n"),
        ] {
            // The short cell leaves both the mean and the half-width.
            let ci = r.weighted_ipc_interval(t1).unwrap();
            assert!((ci.mean - alone.mean).abs() < 1e-12, "{ci:?} vs {alone:?}");
            assert!((ci.half_width - alone.half_width).abs() < 1e-12);
            assert_eq!(ci.n, 3);
            // It is named once, under the table and above the chart.
            let fig = r.render_figure("t");
            assert_eq!(fig.matches(note).count(), 1, "{fig}");
            assert!(
                fig.find(note) < fig.find("relative IPC (normalised"),
                "{fig}"
            );
        }
        // A fully sampled sweep names nothing.
        let fig = sampled_result(vec![full(), full()]).render_figure("t");
        assert!(!fig.contains("not in the 95% CI"), "{fig}");
    }

    #[test]
    fn details_mark_sampled_cells_without_windows_not_available() {
        // The second program halted before the boundary: no windows.
        let r = sampled_result(vec![
            (windows(&[150, 150, 150]), windows(&[90, 100, 110])),
            (Vec::new(), Vec::new()),
        ]);
        let details = r.render_details();
        let row = |name: &str| {
            let line = details.lines().find(|l| l.starts_with(name)).unwrap();
            line.split_whitespace()
                .skip(1)
                .collect::<Vec<_>>()
                .join(" ")
        };
        let t1 = ipc_interval(&windows(&[90, 100, 110]), ConfLevel::P95).render(3);
        assert_eq!(row("Compress"), format!("1.500 ± 0.000 {t1}"), "{details}");
        assert_eq!(row("Doduc"), "n/a n/a", "{details}");
        assert!(!details.contains("inf"), "{details}");
    }

    #[test]
    fn sweep_fingerprints_separate_boundaries_plans_and_configs() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let p = SamplePlan {
            n_windows: 10,
            window_len: 100,
            warmup_len: 25,
            seed: 1996,
        };
        let ids = [
            config_fingerprint(&cfg),
            config_fingerprint(&ExperimentConfig::baseline(Scale::Small)),
            sweep_fingerprint(&cfg, Some(1000), None),
            sweep_fingerprint(&cfg, Some(2000), None),
            sweep_fingerprint(&cfg, None, Some(&p)),
            sweep_fingerprint(&cfg, None, Some(&SamplePlan { seed: 2, ..p })),
            sweep_fingerprint(&cfg, None, Some(&SamplePlan { n_windows: 11, ..p })),
            sweep_fingerprint(&cfg, Some(1000), Some(&p)),
            sweep_fingerprint(&cfg, Some(2000), Some(&p)),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Journal keys and snapshot names written before the boundary
        // and plan were folded into one function stay valid.
        assert_eq!(ids[0], fnv1a_hex(&format!("{cfg:?}")));
        assert_eq!(ids[7], fnv1a_hex(&format!("{cfg:?}/ff=1000/sample={p:?}")));
    }

    /// A one-op window installing the state of an accumulator that has
    /// seen nothing.
    fn cold_window() -> ScheduledWindow {
        ScheduledWindow {
            window: crate::sample::SampleWindow {
                warm_start: 0,
                meas_start: 0,
                end: 1,
            },
            warm: WarmAccumulator::new(&SimConfig::baseline(), PageGeometry::KB4).warm_state(),
            ops: Tape::default(),
        }
    }

    #[test]
    fn shared_schedule_builds_once_and_drops_after_the_last_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // (cells that finish, held afterwards): all three, or two while
        // the third fails after taking the schedule and never finishes.
        for (finishing, held) in [(3, false), (2, true)] {
            let slot = SharedSchedule::new(3);
            let builds = AtomicUsize::new(0);
            let build = || {
                builds.fetch_add(1, Ordering::SeqCst);
                vec![cold_window(); 2]
            };
            let got = parallel_map(3, 3, |_| slot.get_or_build(build));
            assert_eq!(builds.load(Ordering::SeqCst), 1, "one build, shared");
            assert!(got.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
            for _ in 0..finishing {
                assert!(slot.is_held(), "a cell is still to finish");
                slot.finish_cell();
            }
            assert_eq!(slot.is_held(), held, "{finishing} of 3 cells finished");
        }
    }

    #[test]
    fn shared_schedule_survives_a_panicking_build() {
        let slot = SharedSchedule::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get_or_build(|| panic!("schedule build exploded"))
        }));
        assert!(r.is_err());
        assert!(!slot.is_held(), "a failed build publishes nothing");
        // The poisoned lock is recovered and the next cell rebuilds.
        let s = slot.get_or_build(|| vec![cold_window()]);
        assert_eq!(s.len(), 1);
        assert!(slot.is_held());
    }

    #[test]
    fn journal_only_options_need_a_journal() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let designs = [DesignSpec::MultiPorted { ports: 4 }];
        for (flag, opts) in [
            (
                "--resume",
                SweepOptions {
                    resume: true,
                    ..SweepOptions::default()
                },
            ),
            (
                "--observe",
                SweepOptions {
                    observe: true,
                    ..SweepOptions::default()
                },
            ),
            (
                "--intervals",
                SweepOptions {
                    intervals: Some(512),
                    ..SweepOptions::default()
                },
            ),
        ] {
            // An error at all means no cell ran: a sweep that reaches
            // its cells reports their failures in the manifest instead.
            let err = sweep_ft(&designs, &cfg, &opts).expect_err(flag);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{flag}");
            let want = format!("{flag} needs --journal <path>");
            assert!(err.to_string().starts_with(&want), "{err}");
        }
    }

    #[test]
    fn experiment_config_builders() {
        let c = ExperimentConfig::baseline(Scale::Test);
        assert_eq!(c.geometry, PageGeometry::KB4);
        assert_eq!(c.clone().with_8k_pages().geometry, PageGeometry::KB8);
        assert_eq!(
            c.clone().with_inorder().sim.issue_model,
            hbat_cpu::IssueModel::InOrder
        );
        assert_eq!(c.with_small_regs().workload.regs.int, 8);
    }
}
