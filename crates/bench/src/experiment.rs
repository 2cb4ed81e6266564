//! The experiment runner: sweeps translation designs over the benchmark
//! suite, exactly as Section 4 of the paper does.
//!
//! Traces are generated once per benchmark (functional execution),
//! published through the process-wide [`TraceCache`], and replayed
//! against every design. The benchmark × design cells are scheduled
//! individually across a worker pool (see [`crate::executor`]), so a
//! full Table-2 sweep keeps every core busy until the last cell drains;
//! results are bit-identical to a serial sweep regardless of worker
//! count because each cell's replacement RNG is seeded independently
//! from the experiment's `design_seed`.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use hbat_core::addr::PageGeometry;
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::{simulate_uops, simulate_uops_with_recorder, RunMetrics, SimConfig, WarmState};
use hbat_isa::trace::TraceInst;
use hbat_isa::tracefile::{read_trace, write_trace};
use hbat_isa::uop::{MicroOp, PredecodedTrace};
use hbat_obs::{
    prof, IntervalRecord, IntervalRecorder, NullRecorder, PortResource, Tee, TraceRecorder,
};
use hbat_stats::agg::runtime_weighted_ipc;
use hbat_stats::chart::BarChart;
use hbat_stats::ci::{ConfLevel, ConfidenceInterval};
use hbat_stats::table::{fnum, fnum_opt, percent_opt, TextTable};
use hbat_workloads::{Benchmark, Scale, WorkloadConfig};

use crate::ckpt::{
    build_warm_trace, ckpt_fingerprint, run_warm_cell_with, CheckpointOptions, WarmTrace,
};
use crate::executor::{
    parallel_map_outcomes, timed, unpoisoned, worker_threads, RunPolicy, SweepTelemetry, TraceCache,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::journal::{
    fnv1a_hex, read_interval_sidecar, read_journal, CellKey, JournalRecord, JournalWriter,
};
use crate::outcome::{CellFailure, CellOutcome, FailureManifest};
use crate::sample::{
    ckpt_sample_fingerprint, ipc_interval, run_sampled_windows, sample_fingerprint, warm_schedule,
    SamplePlan,
};

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

/// The result of sweeping `designs` over all ten benchmarks.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Designs in presentation order.
    pub designs: Vec<DesignSpec>,
    /// Row-major: `cells[bench][design]`.
    pub cells: Vec<Vec<CellResult>>,
    /// Where the sweep's wall time went.
    pub telemetry: SweepTelemetry,
}

impl SweepResult {
    /// Per-design run-time weighted average IPC (weighted by each
    /// benchmark's T4 run time, per the paper). Falls back to the first
    /// design's run time when T4 is not part of the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not one of this sweep's designs.
    pub fn weighted_ipc(&self, design: DesignSpec) -> f64 {
        let weight_col = self
            .designs
            .iter()
            .position(|d| *d == DesignSpec::MultiPorted { ports: 4 })
            .unwrap_or(0);
        let col = self
            .designs
            .iter()
            .position(|d| *d == design)
            .expect("design not part of this sweep");
        let ipcs: Vec<f64> = self
            .cells
            .iter()
            .map(|row| row[col].metrics.ipc())
            .collect();
        let weights: Vec<u64> = self
            .cells
            .iter()
            .map(|row| row[weight_col].metrics.cycles)
            .collect();
        runtime_weighted_ipc(&ipcs, &weights)
    }

    /// IPC of `design` normalised to T4's, the paper's figure metric.
    pub fn relative_ipc(&self, design: DesignSpec) -> f64 {
        let t4 = self.weighted_ipc(DesignSpec::MultiPorted { ports: 4 });
        if t4 == 0.0 {
            0.0
        } else {
            self.weighted_ipc(design) / t4
        }
    }

    /// Renders the figure as a text table plus the paper-style bar chart:
    /// one row/bar per design, relative to T4.
    pub fn render_figure(&self, title: &str) -> String {
        let mut t = TextTable::new(vec!["design", "weighted IPC", "vs T4"]);
        t.numeric();
        let mut chart = BarChart::new("relative IPC (normalised to T4)", 50)
            .with_max(1.0)
            .percent();
        for d in &self.designs {
            t.row(vec![
                d.mnemonic().to_owned(),
                fnum(self.weighted_ipc(*d), 4),
                format!("{:5.1}%", self.relative_ipc(*d) * 100.0),
            ]);
            chart.bar(d.mnemonic(), self.relative_ipc(*d));
        }
        format!("{title}\n{}\n{}", t.render(), chart.render())
    }

    /// Renders the per-benchmark detail (the paper's FTP results file).
    pub fn render_details(&self) -> String {
        let mut headers = vec!["program".to_owned()];
        headers.extend(self.designs.iter().map(|d| d.mnemonic().to_owned()));
        let mut t = TextTable::new(headers);
        t.numeric();
        for row in &self.cells {
            let mut cells = vec![row[0].bench.name().to_owned()];
            cells.extend(row.iter().map(|c| fnum(c.metrics.ipc(), 3)));
            t.row(cells);
        }
        t.render()
    }
}

/// Generates the dynamic trace for one benchmark under `cfg` through the
/// process-wide cache: the first request builds it, later requests for
/// the same workload share the stored copy.
pub fn trace_for(bench: Benchmark, cfg: &ExperimentConfig) -> Arc<[TraceInst]> {
    TraceCache::global().get_or_build(bench, &cfg.workload)
}

/// The predecoded micro-op form of one benchmark's trace under `cfg`,
/// built at most once process-wide (see [`trace_for`]).
pub fn uops_for(bench: Benchmark, cfg: &ExperimentConfig) -> Arc<PredecodedTrace> {
    TraceCache::global()
        .get_or_build_uops(bench, &cfg.workload)
        .1
}

/// Runs one (micro-ops, design) cell through the engine.
pub fn run_cell_uops(uops: &[MicroOp], design: DesignSpec, cfg: &ExperimentConfig) -> RunMetrics {
    let mut translator = design.build(cfg.geometry, cfg.design_seed);
    simulate_uops(&cfg.sim, uops, translator.as_mut())
}

/// [`run_cell_uops`] under any recorder: a [`TraceRecorder`] for the
/// stall taxonomy, an [`hbat_obs::IntervalRecorder`], or a
/// [`hbat_obs::Tee`] of both. Metrics are bit-identical whatever `R`
/// is; the recorder only reads.
pub fn run_cell_uops_with<R: hbat_obs::Recorder>(
    uops: &[MicroOp],
    design: DesignSpec,
    cfg: &ExperimentConfig,
    rec: R,
) -> RunMetrics {
    let mut translator = design.build(cfg.geometry, cfg.design_seed);
    simulate_uops_with_recorder(&cfg.sim, uops, translator.as_mut(), rec)
}

/// Sweeps `designs` over all ten benchmarks on [`worker_threads`]
/// workers, sharing traces through the process-wide cache: the
/// fail-fast convenience over [`sweep_ft`] with default options.
///
/// # Panics
///
/// If any cell fails, with the rendered failure manifest.
pub fn sweep(designs: &[DesignSpec], cfg: &ExperimentConfig) -> SweepResult {
    let r = sweep_ft(designs, cfg, &SweepOptions::default())
        .expect("a sweep without a journal does no I/O");
    let manifest = r.manifest.render();
    r.into_complete().unwrap_or_else(|| panic!("{manifest}"))
}

// ---- fault-tolerant sweeps -----------------------------------------------

/// Fingerprint of everything that affects a cell's metrics, for the
/// journal's cell identity: scale, machine model, page geometry,
/// workload configuration, and design seed. Two runs share journal
/// records only when their fingerprints match.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> String {
    fnv1a_hex(&format!("{cfg:?}"))
}

/// How a fault-tolerant sweep runs: worker count, retry/deadline
/// policy, an optional fault-injection plan, and the journal used for
/// restartable campaigns.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = [`worker_threads`]).
    pub threads: usize,
    /// Retry and deadline policy (see [`RunPolicy::from_env`]).
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

/// The result of a fault-tolerant sweep: per-cell outcomes (partial
/// results survive individual failures), a manifest of the failed
/// cells, and how many cells were restored from the journal.
#[derive(Debug)]
pub struct FtSweepResult {
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
    /// detailed runs); drives the interval-aware renderers.
    pub sample: Option<SamplePlan>,
}

impl FtSweepResult {
    /// Cells that completed (executed or restored).
    pub fn completed(&self) -> usize {
        self.cells.iter().flatten().filter(|o| o.is_ok()).count()
    }

    /// Converts to a plain [`SweepResult`] when *every* cell completed;
    /// `None` if any cell failed.
    pub fn into_complete(self) -> Option<SweepResult> {
        let cells: Option<Vec<Vec<CellResult>>> = self
            .cells
            .into_iter()
            .map(|row| row.into_iter().map(CellOutcome::into_ok).collect())
            .collect();
        Some(SweepResult {
            designs: self.designs,
            cells: cells?,
            telemetry: self.telemetry,
        })
    }

    /// Partial run-time weighted IPC: averages over the benchmarks
    /// where both this design's cell and the weight (T4) cell
    /// completed. `None` when the design is absent from the sweep or no
    /// benchmark has both cells.
    pub fn weighted_ipc(&self, design: DesignSpec) -> Option<f64> {
        let weight_col = self
            .designs
            .iter()
            .position(|d| *d == DesignSpec::MultiPorted { ports: 4 })
            .unwrap_or(0);
        let col = self.designs.iter().position(|d| *d == design)?;
        let mut ipcs = Vec::new();
        let mut weights = Vec::new();
        for row in &self.cells {
            if let (Some(c), Some(w)) = (
                row.get(col).and_then(CellOutcome::ok),
                row.get(weight_col).and_then(CellOutcome::ok),
            ) {
                ipcs.push(c.metrics.ipc());
                weights.push(w.metrics.cycles);
            }
        }
        if ipcs.is_empty() {
            None
        } else {
            Some(runtime_weighted_ipc(&ipcs, &weights))
        }
    }

    /// Partial relative IPC (normalised to T4 over the same benchmark
    /// subset); `None` when either side is unavailable.
    pub fn relative_ipc(&self, design: DesignSpec) -> Option<f64> {
        let t4 = self.weighted_ipc(DesignSpec::MultiPorted { ports: 4 })?;
        if t4 == 0.0 {
            return Some(0.0);
        }
        Some(self.weighted_ipc(design)? / t4)
    }

    /// Run-time weighted IPC as a 95% confidence interval, for sampled
    /// sweeps: the weighted mean of the per-benchmark window-estimate
    /// means, with a *conservatively* weighted half-width
    /// (`Σw·hw / Σw` — at least as wide as a pooled-variance interval,
    /// never narrower). Weights are the T4 cell's sampled cycles,
    /// mirroring [`Self::weighted_ipc`]. `None` when the sweep was not
    /// sampled, the design is absent, or no benchmark completed both
    /// this design's cell and the weight cell. A completed cell with
    /// no windows (lost sidecar) degrades the whole interval to an
    /// infinite half-width rather than quietly narrowing it.
    pub fn weighted_ipc_interval(&self, design: DesignSpec) -> Option<ConfidenceInterval> {
        self.sample?;
        let weight_col = self
            .designs
            .iter()
            .position(|d| *d == DesignSpec::MultiPorted { ports: 4 })
            .unwrap_or(0);
        let col = self.designs.iter().position(|d| *d == design)?;
        let mut w_sum = 0.0f64;
        let mut mean_sum = 0.0f64;
        let mut hw_sum = 0.0f64;
        let mut n_min = u64::MAX;
        for row in &self.cells {
            if let (Some(c), Some(w)) = (
                row.get(col).and_then(CellOutcome::ok),
                row.get(weight_col).and_then(CellOutcome::ok),
            ) {
                let ci = ipc_interval(&c.windows, ConfLevel::P95);
                #[allow(clippy::cast_precision_loss)]
                let weight = w.metrics.cycles as f64;
                let weight = if weight > 0.0 { weight } else { 1.0 };
                w_sum += weight;
                mean_sum += weight * ci.mean;
                hw_sum += weight * ci.half_width;
                n_min = n_min.min(ci.n);
            }
        }
        if w_sum <= 0.0 {
            return None;
        }
        Some(ConfidenceInterval {
            mean: mean_sum / w_sum,
            half_width: hw_sum / w_sum,
            level: ConfLevel::P95.value(),
            n: if n_min == u64::MAX { 0 } else { n_min },
        })
    }

    /// Renders the sampled-sweep figure: the usual weighted-IPC table
    /// extended with the `± 95% CI` column, and bars annotated with the
    /// window count. Falls back to [`Self::render_figure`] when the
    /// sweep was not sampled.
    pub fn render_sample_figure(&self, title: &str) -> String {
        if self.sample.is_none() {
            return self.render_figure(title);
        }
        let mut t = TextTable::new(vec!["design", "weighted IPC (95% CI)", "vs T4"]);
        t.numeric();
        let mut chart = BarChart::new("relative IPC (normalised to T4)", 50)
            .with_max(1.0)
            .percent();
        for d in &self.designs {
            let ci = self.weighted_ipc_interval(*d);
            t.row(vec![
                d.mnemonic().to_owned(),
                ci.as_ref()
                    .map_or_else(|| "n/a".to_owned(), |ci| ci.render(4)),
                percent_opt(self.relative_ipc(*d)),
            ]);
            match self.relative_ipc(*d) {
                Some(rel) => chart.bar(d.mnemonic(), rel),
                None => chart.bar_missing(d.mnemonic()),
            };
        }
        let plan = self.sample.map_or_else(String::new, |p| p.render());
        let mut out = format!(
            "{title}\nsampled: {plan} (windows:len:warmup), relative IPC from window means\n{}\n{}",
            t.render(),
            chart.render()
        );
        if !self.manifest.is_empty() {
            out.push('\n');
            out.push_str(&self.manifest.render());
        }
        out
    }

    /// Renders the per-benchmark detail table for a sampled sweep, one
    /// `mean ± hw` entry per cell. Falls back to
    /// [`Self::render_details`] when the sweep was not sampled.
    pub fn render_sample_details(&self) -> String {
        if self.sample.is_none() {
            return self.render_details();
        }
        let mut headers = vec!["program".to_owned()];
        headers.extend(self.designs.iter().map(|d| d.mnemonic().to_owned()));
        let mut t = TextTable::new(headers);
        t.numeric();
        for (bench, row) in Benchmark::ALL.iter().zip(&self.cells) {
            let mut cells = vec![bench.name().to_owned()];
            cells.extend(row.iter().map(|o| {
                o.ok().map_or_else(
                    || "n/a".to_owned(),
                    |c| ipc_interval(&c.windows, ConfLevel::P95).render(3),
                )
            }));
            t.row(cells);
        }
        t.render()
    }

    /// Renders the figure like [`SweepResult::render_figure`], but
    /// failed cells are marked explicitly: designs with no usable
    /// measurements show `n/a` bars, and the failure manifest is
    /// appended below the chart.
    pub fn render_figure(&self, title: &str) -> String {
        let mut t = TextTable::new(vec!["design", "weighted IPC", "vs T4"]);
        t.numeric();
        let mut chart = BarChart::new("relative IPC (normalised to T4)", 50)
            .with_max(1.0)
            .percent();
        for d in &self.designs {
            t.row(vec![
                d.mnemonic().to_owned(),
                fnum_opt(self.weighted_ipc(*d), 4),
                percent_opt(self.relative_ipc(*d)),
            ]);
            match self.relative_ipc(*d) {
                Some(rel) => chart.bar(d.mnemonic(), rel),
                None => chart.bar_missing(d.mnemonic()),
            };
        }
        let mut out = format!("{title}\n{}\n{}", t.render(), chart.render());
        if !self.manifest.is_empty() {
            out.push('\n');
            out.push_str(&self.manifest.render());
        }
        out
    }

    /// Renders the per-benchmark detail table with failed cells marked
    /// `n/a` instead of aborting the render.
    pub fn render_details(&self) -> String {
        let mut headers = vec!["program".to_owned()];
        headers.extend(self.designs.iter().map(|d| d.mnemonic().to_owned()));
        let mut t = TextTable::new(headers);
        t.numeric();
        for (bench, row) in Benchmark::ALL.iter().zip(&self.cells) {
            let mut cells = vec![bench.name().to_owned()];
            cells.extend(
                row.iter()
                    .map(|o| fnum_opt(o.ok().map(|c| c.metrics.ipc()), 3)),
            );
            t.row(cells);
        }
        t.render()
    }
}

/// What phase 1 built for one benchmark: the full trace (normal sweeps)
/// or a checkpointed warm trace (timing tail + warm state).
enum BenchInput {
    /// Full trace from program start; timing covers every instruction.
    Full(Arc<PredecodedTrace>),
    /// Fast-forwarded through the checkpoint layer; timing covers the
    /// tail past the boundary with warm state installed.
    Warm(Box<WarmTrace>),
}

/// One program's warm schedule in a sampled sweep (DESIGN.md §15). The
/// first of the program's cells to run builds it, the other designs
/// share it, and the last cell to finish drops it, so only programs
/// with cells still to run hold one.
struct SharedSchedule {
    /// The schedule once built, and how many of the program's cells
    /// have yet to finish with it.
    state: Mutex<(Option<Arc<Vec<WarmState>>>, usize)>,
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
    fn get_or_build(&self, build: impl FnOnce() -> Vec<WarmState>) -> Arc<Vec<WarmState>> {
        let mut state = unpoisoned(self.state.lock());
        state.0.get_or_insert_with(|| Arc::new(build())).clone()
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

/// What one phase-2 cell job produced (before outcome classification).
/// The window vector is empty for full detailed runs; sampled runs
/// carry one [`IntervalRecord`] per measurement window.
enum CellJob {
    /// Executed this run (journalled if a journal is configured).
    Ran(RunMetrics, Vec<IntervalRecord>),
    /// Restored from the resume journal without re-executing.
    Restored(RunMetrics, Vec<IntervalRecord>),
    /// Not runnable: its benchmark's trace failed to build.
    NoTrace(String),
}

/// Exercises the corrupt-input recovery path for a `CorruptTrace`
/// fault: the cell's micro-ops are decoded back to `TraceInst` records
/// and serialised, the image is truncated at the plan's
/// deterministic offset, and fed back through [`read_trace`], which
/// must reject it. Diverges either way: the rejection (the expected
/// path) fails the cell cleanly into the manifest, and an accepted
/// corrupt image is a hardening bug surfaced loudly.
///
/// # Panics
///
/// Always — both branches diverge by design; the surrounding cell
/// isolation turns the panic into a manifest entry.
fn run_with_corrupt_trace(index: usize, uops: &PredecodedTrace, plan: &FaultPlan) -> ! {
    let mut buf = Vec::new();
    if let Err(e) = write_trace(&mut buf, &uops.decode()) {
        panic!("injected fault: trace serialisation failed: {e}");
    }
    buf.truncate(plan.corruption_offset(index, buf.len()));
    match read_trace(&mut &buf[..]) {
        Err(e) => panic!("injected fault: corrupt trace rejected: {e}"),
        Ok(_) => panic!("corrupt trace image was accepted by read_trace"),
    }
}

/// Fault-tolerant sweep over all ten benchmarks: per-cell isolation,
/// retries/deadlines per `opts.policy`, journalled completion, and
/// partial results (see [`FtSweepResult`]). Uses the process-wide trace
/// cache.
///
/// # Errors
///
/// Only journal I/O errors propagate (opening the journal for append,
/// or reading it under `opts.resume`); cell failures are reported
/// through the result's manifest instead.
pub fn sweep_ft(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> io::Result<FtSweepResult> {
    sweep_ft_on(designs, cfg, opts, TraceCache::global())
}

/// [`sweep_ft`] with an explicit trace cache — the form the
/// fault-injection tests drive with private caches.
///
/// # Errors
///
/// Journal I/O errors only; see [`sweep_ft`].
pub fn sweep_ft_on(
    designs: &[DesignSpec],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
    cache: &TraceCache,
) -> io::Result<FtSweepResult> {
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
    // Checkpointed sweeps fold the fast-forward boundary into the cell
    // identity: their metrics start timing at the boundary, so they must
    // never share journal records (or snapshots) with full sweeps or
    // with a different boundary. Sampled sweeps likewise fold the
    // sample plan in: their metrics are window estimates, not full-run
    // totals.
    let fingerprint = match (&opts.checkpoint, &opts.sample) {
        (Some(ck), Some(p)) => ckpt_sample_fingerprint(cfg, ck.boundary, p),
        (Some(ck), None) => ckpt_fingerprint(cfg, ck.boundary),
        (None, Some(p)) => sample_fingerprint(cfg, p),
        (None, None) => config_fingerprint(cfg),
    };
    let (hits0, misses0) = (cache.hits(), cache.misses());

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

    // Phase 1: every distinct trace, built in parallel, isolated per
    // benchmark — a failed build skips that benchmark's cells instead
    // of aborting the sweep.
    let phase_trace_build = prof::scope("trace-build");
    // hbat-lint: allow(panic) bi < benches.len() by parallel_map_outcomes' contract; an escaped panic here is caught per-cell anyway
    let (trace_outcomes, trace_build) = timed(|| {
        parallel_map_outcomes(benches.len(), threads, &opts.policy, |bi, ctx| {
            assert!(
                !opts.faults.trace_fault_for(bi),
                "injected fault: trace build for {} panicked",
                benches[bi].name()
            );
            match &opts.checkpoint {
                // Checkpointed: restore from the newest valid snapshot
                // (retries resume from whatever the crashed attempt
                // published), fast-forward the remainder, snapshot as we
                // go. A checkpoint-layer error fails this benchmark's
                // cells cleanly via the isolation layer.
                Some(ck) => {
                    let wt = build_warm_trace(
                        benches[bi],
                        bi,
                        cfg,
                        ck,
                        &opts.faults,
                        ctx.attempt,
                        Some(ctx.cancel_flag()),
                    )
                    .unwrap_or_else(|e| {
                        panic!("checkpointed build for {}: {e}", benches[bi].name())
                    });
                    BenchInput::Warm(Box::new(wt))
                }
                None => BenchInput::Full(cache.get_or_build_uops(benches[bi], &cfg.workload).1),
            }
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
    // A sampled sweep warms each program once: its cells still to run
    // share one schedule, built lazily here in the cell phase (so
    // `trace_build` keeps timing trace builds alone). A full sweep has
    // none.
    let schedules: Vec<SharedSchedule> = (0..opts.sample.map_or(0, |_| benches.len()))
        .map(|bi| {
            let pending = (0..designs.len())
                .filter(|&di| !restored.contains_key(&key_of(bi, di)))
                .count();
            SharedSchedule::new(pending)
        })
        .collect();
    let phase_detailed = prof::scope("detailed-run");
    // hbat-lint: allow(panic) bi/di derive from i < n_cells, and a panic inside a cell job is exactly what the isolation layer catches
    let (flat, cell_exec) = timed(|| {
        parallel_map_outcomes(n_cells, threads, &opts.policy, |i, ctx| {
            let (bi, di) = (i / designs.len(), i % designs.len());
            let key = key_of(bi, di);
            if let Some(metrics) = restored.get(&key) {
                // A sampled cell restored from the journal gets its
                // windows back from the sidecar too; an incomplete or
                // lost sidecar yields an empty vector, which renders as
                // a degenerate full-width interval instead of lying.
                let wins = restored_windows.get(&key).cloned().unwrap_or_default();
                return CellJob::Restored(metrics.clone(), wins);
            }
            let Some(input) = &traces[bi] else {
                return CellJob::NoTrace(trace_errs[bi].clone());
            };
            opts.faults.arm(i, ctx.attempt, ctx.cancel_flag());
            assert!(
                !ctx.cancelled(),
                "injected fault: cell {i} stalled past its deadline"
            );
            if opts.faults.fault_for(i) == Some(FaultKind::CorruptTrace) {
                let uops = match input {
                    BenchInput::Full(uops) => uops,
                    BenchInput::Warm(wt) => &wt.tail,
                };
                run_with_corrupt_trace(i, uops, &opts.faults);
            }
            // One generic execution path per input form; the recorder
            // combination (none / trace / interval / both via Tee) is
            // picked here with static dispatch, so the unobserved arm
            // stays the NullRecorder hot loop.
            fn exec<R: hbat_obs::Recorder>(
                input: &BenchInput,
                design: DesignSpec,
                cfg: &ExperimentConfig,
                rec: R,
            ) -> RunMetrics {
                match input {
                    BenchInput::Full(uops) => run_cell_uops_with(uops, design, cfg, rec),
                    BenchInput::Warm(wt) => run_warm_cell_with(wt, design, cfg, rec),
                }
            }
            // `windows` unifies the two interval sources: cycle-width
            // intervals from the recorder (which can drop on buffer
            // overflow) and sampled measurement windows (which never
            // drop — the plan bounds them up front).
            type Windows = Option<(Vec<IntervalRecord>, u64)>;
            let (metrics, rec, windows): (RunMetrics, Option<TraceRecorder>, Windows) = {
                let _cell = prof::scope("cell-run");
                if let Some(plan) = &opts.sample {
                    let (ops, export) = match input {
                        BenchInput::Full(uops) => (uops.ops(), None),
                        BenchInput::Warm(wt) => (wt.tail.ops(), Some(&wt.export)),
                    };
                    let schedule =
                        schedules[bi].get_or_build(|| warm_schedule(ops, cfg, export, plan));
                    let cell = run_sampled_windows(ops, designs[di], cfg, plan, &schedule);
                    drop(schedule);
                    schedules[bi].finish_cell();
                    (cell.metrics, None, Some((cell.windows, 0)))
                } else {
                    match (opts.observe, opts.intervals) {
                        (false, None) => (exec(input, designs[di], cfg, NullRecorder), None, None),
                        (true, None) => {
                            let mut rec = TraceRecorder::new();
                            let metrics = exec(input, designs[di], cfg, &mut rec);
                            (metrics, Some(rec), None)
                        }
                        (false, Some(width)) => {
                            let mut iv = IntervalRecorder::new(width);
                            let metrics = exec(input, designs[di], cfg, &mut iv);
                            iv.finish();
                            (
                                metrics,
                                None,
                                Some((iv.windows().to_vec(), iv.dropped_windows())),
                            )
                        }
                        (true, Some(width)) => {
                            let mut tee =
                                Tee::new(TraceRecorder::new(), IntervalRecorder::new(width));
                            let metrics = exec(input, designs[di], cfg, &mut tee);
                            tee.b.finish();
                            let wins = (tee.b.windows().to_vec(), tee.b.dropped_windows());
                            (metrics, Some(tee.a), Some(wins))
                        }
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
            CellJob::Ran(metrics, cell_windows)
        })
    });
    drop(phase_detailed);

    // Classify the flat outcomes into rows, the manifest, and the
    // resumed count.
    let mut cells: Vec<Vec<CellOutcome<CellResult>>> = Vec::with_capacity(benches.len());
    let mut manifest = FailureManifest::default();
    let mut resumed = 0usize;
    // hbat-lint: allow(panic) bi/di derive from i < n_cells = benches.len() * designs.len()
    for (i, outcome) in flat.into_iter().enumerate() {
        let (bi, di) = (i / designs.len(), i % designs.len());
        let done = |metrics: RunMetrics, windows: Vec<IntervalRecord>| CellResult {
            bench: benches[bi],
            design: designs[di],
            metrics,
            windows,
        };
        let outcome: CellOutcome<CellResult> = match outcome {
            CellOutcome::Ok(CellJob::Ran(m, w)) => CellOutcome::Ok(done(m, w)),
            CellOutcome::Ok(CellJob::Restored(m, w)) => {
                resumed += 1;
                CellOutcome::Ok(done(m, w))
            }
            CellOutcome::Ok(CellJob::NoTrace(reason)) => CellOutcome::Skipped { reason },
            CellOutcome::Panicked {
                msg,
                attempts,
                payload,
            } => CellOutcome::Panicked {
                msg,
                attempts,
                payload,
            },
            CellOutcome::TimedOut { attempts } => CellOutcome::TimedOut { attempts },
            CellOutcome::Skipped { reason } => CellOutcome::Skipped { reason },
        };
        if !outcome.is_ok() {
            manifest.failures.push(CellFailure {
                index: i,
                bench: benches[bi].name().to_owned(),
                design: designs[di].mnemonic().to_owned(),
                kind: outcome.kind().to_owned(),
                detail: outcome.detail(),
                attempts: outcome.attempts(),
            });
        }
        if di == 0 {
            cells.push(Vec::with_capacity(designs.len()));
        }
        if let Some(row) = cells.last_mut() {
            row.push(outcome);
        }
    }

    Ok(FtSweepResult {
        designs: designs.to_vec(),
        cells,
        manifest,
        resumed,
        sample: opts.sample,
        telemetry: SweepTelemetry {
            threads,
            cells: n_cells,
            traces_built: cache.misses() - misses0,
            trace_cache_hits: cache.hits() - hits0,
            trace_build,
            cell_exec,
        },
    })
}

/// Parses the scale from a CLI argument / env (`test`, `small`,
/// `reference`); used by the figure binaries.
pub fn scale_from_args() -> Scale {
    let arg = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("HBAT_SCALE").ok())
        .unwrap_or_else(|| "small".to_owned());
    match arg.to_ascii_lowercase().as_str() {
        "test" => Scale::Test,
        "reference" | "ref" | "full" => Scale::Reference,
        "small" => Scale::Small,
        other => {
            eprintln!(
                "warning: unrecognized scale {other:?} (expected test, small, or reference); \
                 defaulting to small"
            );
            Scale::Small
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::parallel_map;

    #[test]
    fn tiny_sweep_produces_sane_relative_ipcs() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let designs = [
            DesignSpec::MultiPorted { ports: 4 },
            DesignSpec::MultiPorted { ports: 1 },
        ];
        let r = sweep(&designs, &cfg);
        assert_eq!(r.cells.len(), 10);
        let rel_t4 = r.relative_ipc(designs[0]);
        let rel_t1 = r.relative_ipc(designs[1]);
        assert!((rel_t4 - 1.0).abs() < 1e-12, "T4 is its own baseline");
        assert!(rel_t1 < 1.0, "T1 must trail T4: {rel_t1}");
        assert!(rel_t1 > 0.3, "T1 cannot be catastrophically slow: {rel_t1}");
        let fig = r.render_figure("test figure");
        assert!(fig.contains("T4") && fig.contains("T1"));
        let details = r.render_details();
        assert!(details.contains("Compress") && details.contains("Xlisp"));
    }

    #[test]
    fn shared_schedule_builds_once_and_drops_after_the_last_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let slot = SharedSchedule::new(3);
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            vec![WarmState::default(); 2]
        };
        let got = parallel_map(3, 3, |_| slot.get_or_build(build));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build, shared");
        assert!(got.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        slot.finish_cell();
        slot.finish_cell();
        assert!(slot.is_held(), "a cell is still to finish");
        slot.finish_cell();
        assert!(!slot.is_held(), "the last cell drops the schedule");
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
        let s = slot.get_or_build(|| vec![WarmState::default()]);
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
            let cache = TraceCache::new();
            let err = sweep_ft_on(&designs, &cfg, &opts, &cache).expect_err(flag);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{flag}");
            let want = format!("{flag} needs --journal <path>");
            assert!(err.to_string().starts_with(&want), "{err}");
            assert_eq!(cache.misses(), 0, "{flag}: rejected before any work");
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
