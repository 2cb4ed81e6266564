//! `hbat` — the command-line front end to the reproduction suite.
//!
//! ```text
//! hbat list                             designs and benchmarks
//! hbat run <bench> <design> [opts]      one timing simulation
//! hbat trace <bench> <design> [opts]    one run with stall attribution
//! hbat sweep [opts]                     all 13 designs × 10 benchmarks
//! hbat anatomy <bench> [opts]           trace-anatomy ceilings
//! hbat ckpt <file> [--json]             inspect and verify a snapshot
//!
//! options: --scale test|small|reference   (default small)
//!          --inorder                      in-order issue
//!          --pages-8k                     8 KB pages
//!          --small-regs                   8 int / 8 fp registers
//!          --seed N                       design replacement seed
//!          --prof                         self-profile phases to stderr
//!                                         (equivalent to HBAT_PROF=1)
//!
//! trace observability (see DESIGN.md § 10 and § 14):
//!          --out <path>                   write the JSONL event stream (with
//!                                         --intervals: the interval stream)
//!          --intervals <n>                bucket the run into n-cycle windows:
//!                                         table, IPC-over-time chart, summary
//!
//! sweep fault tolerance (see DESIGN.md § 9) and observability:
//!          --journal <path>               append completed cells (JSONL)
//!          --resume                       replay the journal, re-run the rest
//!          --timeout <secs>               per-cell deadline
//!          --retries <n>                  per-cell retries
//!          --observe                      per-cell obs sidecar (<journal>.obs.jsonl)
//!          --intervals <n>                per-cell interval sidecar
//!                                         (<journal>.iv.jsonl, needs --journal)
//!          --heartbeat <secs>             progress line interval, 0 = off
//!                                         (default: off at test scale, 30 s
//!                                         otherwise)
//!
//! sampled simulation (SMARTS-style; see DESIGN.md § 15):
//!          --sample N[:len[:warmup]]      detailed timing only in N systematic
//!                                         windows of len committed micro-ops
//!                                         (default len 1000), warmed by warmup
//!                                         detailed ops each (default 0); the
//!                                         gaps run functional warming only.
//!                                         IPC becomes `mean ± 95% CI`. Applies
//!                                         to `trace` and `sweep`; mutually
//!                                         exclusive with --observe/--intervals.
//!                                         With --journal, windows append to
//!                                         <journal>.iv.jsonl; with --out (on
//!                                         `trace`), windows are written there.
//!
//! sweep checkpointing (see DESIGN.md § 13):
//!          --ff <n>                       fast-forward each benchmark n committed
//!                                         instructions functionally before timing
//!          --ckpt-dir <path>              publish crash-safe snapshots during
//!                                         fast-forward; restore from the newest
//!                                         valid one on restart (needs --ff)
//!          --ckpt-interval <n>            instructions between snapshots
//!                                         (default: --ff / 4)
//! ```

use std::process::ExitCode;
use std::time::Duration;

use hbat_suite::bench::ckpt::{CheckpointOptions, ProgramTail};
use hbat_suite::bench::executor::RunPolicy;
use hbat_suite::bench::experiment::{run_cell, sweep_ft, ExperimentConfig, SweepOptions};
use hbat_suite::bench::faults::FaultPlan;
use hbat_suite::bench::sample::{ipc_interval, run_sampled_windows, SamplePlan};
use hbat_suite::ckpt::Snapshot;
use hbat_suite::obs::{prof, IntervalRecorder, PortResource, Tee};
use hbat_suite::prelude::*;
use hbat_suite::stats::chart::BarChart;
use hbat_suite::stats::table::TextTable;
use hbat_suite::stats::{ConfLevel, Summary};

struct Options {
    scale: Scale,
    inorder: bool,
    pages_8k: bool,
    small_regs: bool,
    seed: u64,
    journal: Option<std::path::PathBuf>,
    resume: bool,
    timeout: Option<f64>,
    retries: Option<u32>,
    observe: bool,
    intervals: Option<u64>,
    prof: bool,
    heartbeat: Option<f64>,
    out: Option<std::path::PathBuf>,
    ckpt_dir: Option<std::path::PathBuf>,
    ckpt_interval: Option<u64>,
    ff: Option<u64>,
    // Raw `--sample` spec; parsed into a SamplePlan once the seed is
    // known (flag order is free, so the seed may arrive after it).
    sample: Option<String>,
    json: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        scale: Scale::Small,
        inorder: false,
        pages_8k: false,
        small_regs: false,
        seed: 1996,
        journal: None,
        resume: false,
        timeout: None,
        retries: None,
        observe: false,
        intervals: None,
        prof: false,
        heartbeat: None,
        out: None,
        ckpt_dir: None,
        ckpt_interval: None,
        ff: None,
        sample: None,
        json: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                o.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--inorder" => o.inorder = true,
            "--pages-8k" => o.pages_8k = true,
            "--small-regs" => o.small_regs = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
            }
            "--journal" => {
                let v = it.next().ok_or("--journal needs a path")?;
                o.journal = Some(v.into());
            }
            "--resume" => o.resume = true,
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs seconds")?;
                let secs: f64 = v.parse().map_err(|e| format!("bad timeout: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("bad timeout `{v}` (need positive seconds)"));
                }
                o.timeout = Some(secs);
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a count")?;
                o.retries = Some(v.parse().map_err(|e| format!("bad retries: {e}"))?);
            }
            "--observe" => o.observe = true,
            "--intervals" => {
                let v = it
                    .next()
                    .ok_or("--intervals needs a window width in cycles")?;
                let n: u64 = v.parse().map_err(|e| format!("bad interval width: {e}"))?;
                if n < 2 {
                    return Err(format!(
                        "bad interval width `{n}` (need at least 2 cycles per window)"
                    ));
                }
                o.intervals = Some(n);
            }
            "--prof" => o.prof = true,
            "--heartbeat" => {
                let v = it.next().ok_or("--heartbeat needs seconds (0 = off)")?;
                let secs: f64 = v.parse().map_err(|e| format!("bad heartbeat: {e}"))?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err(format!("bad heartbeat `{v}` (need seconds, 0 = off)"));
                }
                o.heartbeat = Some(secs);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                o.out = Some(v.into());
            }
            "--ckpt-dir" => {
                let v = it.next().ok_or("--ckpt-dir needs a path")?;
                o.ckpt_dir = Some(v.into());
            }
            "--ckpt-interval" => {
                let v = it
                    .next()
                    .ok_or("--ckpt-interval needs an instruction count")?;
                let n: u64 = v.parse().map_err(|e| format!("bad ckpt interval: {e}"))?;
                if n == 0 {
                    return Err("bad ckpt interval `0` (need at least 1 instruction)".to_owned());
                }
                o.ckpt_interval = Some(n);
            }
            "--sample" => {
                let v = it.next().ok_or("--sample needs N[:len[:warmup]]")?;
                o.sample = Some(v.clone());
            }
            "--ff" => {
                let v = it.next().ok_or("--ff needs an instruction count")?;
                o.ff = Some(
                    v.parse()
                        .map_err(|e| format!("bad fast-forward count: {e}"))?,
                );
            }
            "--json" => o.json = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option `{flag}`"));
            }
            pos => o.positional.push(pos.to_owned()),
        }
    }
    Ok(o)
}

impl Options {
    fn experiment(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::baseline(self.scale);
        if self.inorder {
            cfg = cfg.with_inorder();
        }
        if self.pages_8k {
            cfg = cfg.with_8k_pages();
        }
        if self.small_regs {
            cfg = cfg.with_small_regs();
        }
        cfg.design_seed = self.seed;
        cfg
    }

    fn bench(&self, idx: usize) -> Result<Benchmark, String> {
        let name = self
            .positional
            .get(idx)
            .ok_or("missing benchmark name (try `hbat list`)")?;
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `hbat list`)"))
    }

    fn sample_plan(&self) -> Result<Option<SamplePlan>, String> {
        self.sample
            .as_deref()
            .map(|spec| SamplePlan::parse(spec, self.seed))
            .transpose()
    }

    fn design(&self, idx: usize) -> Result<DesignSpec, String> {
        let name = self
            .positional
            .get(idx)
            .ok_or("missing design mnemonic (try `hbat list`)")?;
        DesignSpec::parse(name).map_err(|e| e.to_string())
    }
}

fn print_metrics(design: DesignSpec, m: &RunMetrics) {
    println!(
        "design            : {} ({})",
        design.mnemonic(),
        design.description()
    );
    println!("cycles            : {}", m.cycles);
    println!("IPC (commit)      : {:.3}", m.ipc());
    println!("IPC (issue)       : {:.3}", m.issue_ipc());
    println!("loads / stores    : {} / {}", m.loads, m.stores);
    println!("branch prediction : {:.1}%", m.bpred_rate() * 100.0);
    println!("TLB accesses      : {}", m.tlb.accesses);
    println!("TLB shielded      : {:.1}%", m.tlb.shield_rate() * 100.0);
    println!("TLB miss rate     : {:.3}%", m.tlb.miss_rate() * 100.0);
    println!("port retries      : {}", m.tlb.retries);
    println!("wrong-path xlat   : {}", m.wrong_path_translations);
}

/// Renders a finished interval recorder: per-window table (capped),
/// IPC-over-time chart (downsampled), and summary statistics.
fn print_intervals(iv: &IntervalRecorder) {
    let windows = iv.windows();
    println!(
        "\ninterval telemetry: {} window(s) of {} cycles",
        windows.len(),
        iv.width()
    );
    let opt = |v: Option<f64>, unit: &str| match v {
        Some(v) if unit == "%" => format!("{:5.1}%", v * 100.0),
        Some(v) => format!("{v:.1}"),
        None => "-".to_owned(),
    };
    const MAX_ROWS: usize = 20;
    let mut t = TextTable::new(vec![
        "window", "start", "cycles", "IPC", "tlb hit", "dc hit", "rob avg",
    ]);
    t.numeric();
    for (i, w) in windows.iter().take(MAX_ROWS).enumerate() {
        t.row(vec![
            i.to_string(),
            w.start.to_string(),
            w.cycles.to_string(),
            format!("{:.3}", w.ipc()),
            opt(w.tlb_hit_rate(), "%"),
            opt(w.dcache_hit_rate(), "%"),
            opt(w.rob_mean(), ""),
        ]);
    }
    println!("{}", t.render());
    if windows.len() > MAX_ROWS {
        println!("… ({} more windows)", windows.len() - MAX_ROWS);
    }

    if !windows.is_empty() {
        // At most ~40 bars: a long run strides across its windows.
        let stride = windows.len().div_ceil(40).max(1);
        let mut chart = BarChart::new("IPC over time", 50);
        for w in windows.iter().step_by(stride) {
            chart.bar(&format!("@{}", w.start), w.ipc());
        }
        println!("{}", chart.render());
    }

    let mut ipc = Summary::new();
    let mut tlb = Summary::new();
    for w in windows {
        ipc.push(w.ipc());
        if let Some(h) = w.tlb_hit_rate() {
            tlb.push(h);
        }
    }
    let sum = |s: &Summary, scale: f64, unit: &str| {
        format!(
            "mean {:.3}{unit} stddev {} min {:.3}{unit} max {:.3}{unit}",
            s.mean() * scale,
            match s.stddev() {
                Some(d) => format!("{:.3}{unit}", d * scale),
                None => "-".to_owned(),
            },
            s.min().unwrap_or(0.0) * scale,
            s.max().unwrap_or(0.0) * scale,
        )
    };
    println!("IPC per window    : {}", sum(&ipc, 1.0, ""));
    if tlb.count() > 0 {
        println!("TLB hit rate      : {}", sum(&tlb, 100.0, "%"));
    }
    if iv.dropped_windows() > 0 {
        eprintln!(
            "warning: {} window(s) dropped past the buffer (widen --intervals)",
            iv.dropped_windows()
        );
    }
}

/// Renders a sampled run's measurement windows: per-window table
/// (capped), IPC-per-window chart, and the spread across windows.
fn print_sample_windows(windows: &[hbat_suite::obs::IntervalRecord]) {
    const MAX_ROWS: usize = 20;
    let opt = |v: Option<f64>| match v {
        Some(v) => format!("{:5.1}%", v * 100.0),
        None => "-".to_owned(),
    };
    let mut t = TextTable::new(vec![
        "window",
        "op index",
        "cycles",
        "committed",
        "IPC",
        "tlb hit",
    ]);
    t.numeric();
    for (i, w) in windows.iter().take(MAX_ROWS).enumerate() {
        t.row(vec![
            i.to_string(),
            w.start.to_string(),
            w.cycles.to_string(),
            w.committed.to_string(),
            format!("{:.3}", w.ipc()),
            opt(w.tlb_hit_rate()),
        ]);
    }
    println!("{}", t.render());
    if windows.len() > MAX_ROWS {
        println!("… ({} more windows)", windows.len() - MAX_ROWS);
    }
    if !windows.is_empty() {
        let stride = windows.len().div_ceil(40).max(1);
        let mut chart = BarChart::new("IPC per sampled window", 50);
        for w in windows.iter().step_by(stride) {
            chart.bar(&format!("@{}", w.start), w.ipc());
        }
        println!("{}", chart.render());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: hbat <list|run|trace|sweep|anatomy|ckpt> …");
        return ExitCode::FAILURE;
    };
    let opts = match parse_args(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.prof {
        hbat_suite::obs::prof::set_enabled(true);
    }
    let result = run_command(cmd, &opts);
    if hbat_suite::obs::prof::enabled() {
        eprint!("{}", hbat_suite::obs::prof::render_report());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_command(cmd: &str, opts: &Options) -> Result<(), String> {
    match cmd {
        "list" => {
            println!("designs (Table 2):");
            for d in DesignSpec::TABLE2 {
                println!("  {:<6} {}", d.mnemonic(), d.description());
            }
            println!("\nbenchmarks (Table 3):");
            for b in Benchmark::ALL {
                println!("  {b}");
            }
            Ok(())
        }
        "run" => {
            let bench = opts.bench(0)?;
            let design = opts.design(1)?;
            let cfg = opts.experiment();
            let tail = {
                let _p = prof::scope("trace-build");
                ProgramTail::program_start(bench, &cfg).map_err(|e| e.to_string())?
            };
            let m = {
                let _p = prof::scope("detailed-run");
                run_cell(tail.stream(), design, &cfg, &cfg.cold_state(), NullRecorder)
            };
            println!("{bench}: {} instructions\n", tail.n);
            print_metrics(design, &m);
            Ok(())
        }
        "trace" => {
            let bench = opts.bench(0)?;
            let design = opts.design(1)?;
            let cfg = opts.experiment();
            let tail = {
                let _p = prof::scope("trace-build");
                ProgramTail::program_start(bench, &cfg).map_err(|e| e.to_string())?
            };
            let n = tail.n;
            if let Some(plan) = opts.sample_plan()? {
                if opts.intervals.is_some() {
                    return Err(
                        "--sample is mutually exclusive with --intervals (pick one window scheme)"
                            .to_owned(),
                    );
                }
                let phase = prof::scope("sampled-run");
                let schedule = tail.schedule(&cfg, &plan);
                let cell = run_sampled_windows(design, &cfg, &schedule);
                drop(phase);
                println!(
                    "{bench} on {} ({}): {n} instructions, sampled {} (windows:len:warmup)\n",
                    design.mnemonic(),
                    design.description(),
                    plan.render()
                );
                print_sample_windows(&cell.windows);
                let ci = ipc_interval(&cell.windows, ConfLevel::P95);
                let measured: u64 = cell.metrics.committed;
                println!("IPC (95% CI)      : {}", ci.render(3));
                println!(
                    "measured          : {measured} committed micro-ops in {} window(s) \
                     ({:.1}% of the trace's {n} micro-ops)",
                    cell.windows.len(),
                    measured as f64 / n.max(1) as f64 * 100.0,
                );
                if let Some(path) = &opts.out {
                    let mut out = String::new();
                    for w in &cell.windows {
                        out.push_str(&w.render_json());
                        out.push('\n');
                    }
                    std::fs::write(path, out).map_err(|e| e.to_string())?;
                    println!(
                        "wrote {} sampled windows to {}",
                        cell.windows.len(),
                        path.display()
                    );
                }
                return Ok(());
            }
            // With --intervals the run is recorded twice at once: the
            // event/stall recorder feeds the summary below, the interval
            // recorder the time series — one simulation, statically teed.
            let phase = prof::scope("detailed-run");
            let cold = cfg.cold_state();
            let (m, rec, iv) = match opts.intervals {
                None => {
                    let mut rec = TraceRecorder::new();
                    let m = run_cell(tail.stream(), design, &cfg, &cold, &mut rec);
                    (m, rec, None)
                }
                Some(width) => {
                    let mut tee = Tee::new(TraceRecorder::new(), IntervalRecorder::new(width));
                    let m = run_cell(tail.stream(), design, &cfg, &cold, &mut tee);
                    tee.b.finish();
                    (m, tee.a, Some(tee.b))
                }
            };
            drop(phase);
            println!(
                "{bench} on {} ({}): {n} instructions, {} cycles, IPC {:.3}\n",
                design.mnemonic(),
                design.description(),
                m.cycles,
                m.ipc()
            );
            let total = m.cycles.max(1) as f64;
            let mut t = TextTable::new(vec!["cycles charged to", "count", "share"]);
            t.numeric();
            let mut chart = BarChart::new("where the cycles went", 50)
                .with_max(1.0)
                .percent();
            let issue_share = rec.issue_cycles() as f64 / total;
            t.row(vec![
                "issue".to_owned(),
                rec.issue_cycles().to_string(),
                format!("{:5.1}%", issue_share * 100.0),
            ]);
            chart.bar("issue", issue_share);
            for (cause, n) in rec.stall_breakdown() {
                let share = n as f64 / total;
                t.row(vec![
                    cause.name().to_owned(),
                    n.to_string(),
                    format!("{:5.1}%", share * 100.0),
                ]);
                chart.bar(cause.name(), share);
            }
            println!("{}", t.render());
            println!("{}", chart.render());
            println!(
                "port conflicts    : tlb {} / dcache {} / icache {}",
                rec.port_conflicts(PortResource::Tlb),
                rec.port_conflicts(PortResource::Dcache),
                rec.port_conflicts(PortResource::Icache)
            );
            println!(
                "page-table walks  : {} ({} cycles)",
                rec.walks(),
                rec.walk_cycles()
            );
            println!(
                "occupancy (max)   : rob {} / lsq {} / mshrs {} / tlb-queue {}",
                rec.rob_occupancy().max_seen(),
                rec.lsq_occupancy().max_seen(),
                rec.mshr_occupancy().max_seen(),
                rec.tlb_queue_occupancy().max_seen()
            );
            if let Some(iv) = &iv {
                print_intervals(iv);
            }
            if let Some(path) = &opts.out {
                match &iv {
                    Some(iv) => {
                        std::fs::write(path, iv.render_jsonl()).map_err(|e| e.to_string())?;
                        println!(
                            "wrote {} interval windows to {} ({} dropped past the buffer)",
                            iv.windows().len(),
                            path.display(),
                            iv.dropped_windows()
                        );
                    }
                    None => {
                        std::fs::write(path, rec.render_jsonl()).map_err(|e| e.to_string())?;
                        println!(
                            "wrote {} events to {} ({} dropped past the buffer)",
                            rec.events().len(),
                            path.display(),
                            rec.dropped_events()
                        );
                    }
                }
            }
            Ok(())
        }
        "sweep" => {
            if opts.ckpt_dir.is_some() && opts.ff.is_none() {
                return Err("--ckpt-dir needs --ff <n> (the fast-forward boundary)".to_owned());
            }
            if opts.ff.is_some() && opts.ckpt_dir.is_none() {
                return Err(
                    "--ff needs --ckpt-dir <path> (fast-forward runs checkpointed)".to_owned(),
                );
            }
            if opts.ckpt_interval.is_some() && opts.ckpt_dir.is_none() {
                return Err("--ckpt-interval needs --ckpt-dir <path>".to_owned());
            }
            let cfg = opts.experiment();
            // The heartbeat defaults to off at test scale, 30 s otherwise.
            let heartbeat = match (opts.heartbeat, opts.scale) {
                (Some(secs), _) => Duration::from_secs_f64(secs),
                (None, Scale::Test) => Duration::ZERO,
                (None, _) => Duration::from_secs(30),
            };
            let policy = RunPolicy {
                retries: opts.retries.unwrap_or(0),
                timeout: opts.timeout.map(Duration::from_secs_f64),
                heartbeat: Some(heartbeat),
            };
            let checkpoint = match (&opts.ckpt_dir, opts.ff) {
                (Some(dir), Some(boundary)) => Some(CheckpointOptions {
                    dir: dir.clone(),
                    interval: opts.ckpt_interval.unwrap_or((boundary / 4).max(1)),
                    boundary,
                }),
                _ => None,
            };
            let sample = opts.sample_plan()?;
            let sweep_opts = SweepOptions {
                threads: 0,
                policy,
                faults: FaultPlan::from_env().unwrap_or_default(),
                journal: opts.journal.clone(),
                resume: opts.resume,
                observe: opts.observe,
                intervals: opts.intervals,
                checkpoint,
                sample,
            };
            let r = sweep_ft(&DesignSpec::TABLE2, &cfg, &sweep_opts).map_err(|e| e.to_string())?;
            let title = if sample.is_some() {
                "design sweep (sampled)"
            } else {
                "design sweep"
            };
            println!("{}", r.render_figure(title));
            println!("{}", r.render_details());
            if r.resumed > 0 {
                eprintln!("resumed {} cell(s) from the journal", r.resumed);
            }
            if r.manifest.is_empty() {
                Ok(())
            } else {
                eprintln!("{}", r.manifest.render());
                Err(format!(
                    "{} of {} cell(s) failed{}",
                    r.manifest.len(),
                    r.telemetry.cells,
                    if opts.journal.is_some() {
                        " (re-run with --resume to retry only those)"
                    } else {
                        ""
                    }
                ))
            }
        }
        "anatomy" => {
            let bench = opts.bench(0)?;
            let cfg = opts.experiment();
            let tail = ProgramTail::program_start(bench, &cfg).map_err(|e| e.to_string())?;
            let pages = page_stream(tail.stream(), cfg.geometry);
            let reuse = ReuseProfile::of_pages(&pages);
            let adj = AdjacencyProfile::of_pages(&pages, 4);
            let ptr = PointerProfile::of_ops(tail.stream(), cfg.geometry);
            println!("{bench}: {} instructions", tail.n);
            println!("distinct pages        : {}", reuse.distinct_pages());
            for n in [4usize, 8, 16, 64, 128] {
                println!(
                    "LRU-{n:<3} miss rate    : {:.2}%",
                    reuse.lru_miss_rate(n) * 100.0
                );
            }
            println!(
                "combinable (window 4) : {:.1}%",
                adj.combinable_fraction() * 100.0
            );
            println!(
                "pointer-page reuse    : {:.1}%",
                ptr.reuse_fraction() * 100.0
            );
            Ok(())
        }
        "ckpt" => {
            let path = opts.positional.first().ok_or("missing snapshot path")?;
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            // Decode performs the full integrity check (magic, version,
            // length, checksum, structure); any corruption is a typed
            // error and a non-zero exit.
            let snap = Snapshot::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
            let mem_bytes: usize = snap.mem_chunks.iter().map(|(_, c)| c.len()).sum();
            let stored =
                u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8-byte trailer"));
            if opts.json {
                println!(
                    "{{\"v\":{},\"bench\":\"{}\",\"fingerprint\":\"{}\",\"index\":{},\
                     \"bytes\":{},\"checksum\":\"{stored:016x}\",\"mem_chunks\":{},\
                     \"mem_bytes\":{mem_bytes},\"warm_pages\":{},\"warm_tlb\":{},\
                     \"warm_tlb_model\":{},\"warm_dblocks\":{},\"warm_iblocks\":{},\"bpred_pht\":{},\
                     \"halted\":{}}}",
                    hbat_suite::ckpt::CKPT_VERSION,
                    snap.bench,
                    snap.fingerprint,
                    snap.index,
                    bytes.len(),
                    snap.mem_chunks.len(),
                    snap.warm.pages.len(),
                    snap.warm.tlb.len(),
                    snap.warm.steady.len(),
                    snap.warm.dblocks.len(),
                    snap.warm.iblocks.len(),
                    snap.warm.pht.len(),
                    snap.arch.halted,
                );
            } else {
                println!("snapshot          : {path}");
                println!("version           : {}", hbat_suite::ckpt::CKPT_VERSION);
                println!("benchmark         : {}", snap.bench);
                println!("fingerprint       : {}", snap.fingerprint);
                println!("instruction index : {}", snap.index);
                println!("file size         : {} bytes", bytes.len());
                println!("checksum          : {stored:016x} (verified)");
                println!(
                    "memory            : {} chunk(s), {mem_bytes} bytes",
                    snap.mem_chunks.len()
                );
                println!(
                    "warm state        : {} pages / {} tlb / {} tlb model / {} dblocks / {} iblocks",
                    snap.warm.pages.len(),
                    snap.warm.tlb.len(),
                    snap.warm.steady.len(),
                    snap.warm.dblocks.len(),
                    snap.warm.iblocks.len()
                );
                println!("branch predictor  : {} PHT entries", snap.warm.pht.len());
                println!("status            : valid");
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
