//! The interval-telemetry sweep contract (DESIGN.md § 14):
//!
//! * a sweep with an `IntervalRecorder` attached writes a *byte*-identical
//!   main journal and bit-identical `RunMetrics` — the time series is
//!   free of observer effects;
//! * every window of every cell satisfies the accounting invariant
//!   `issue_cycles + Σ stalls == cycles`, and the windows tile the run
//!   exactly (contiguous starts, cycle counts summing to the run's);
//! * the `.iv.jsonl` sidecar is valid JSONL with a stable schema and is
//!   deterministic across runs;
//! * degenerate widths are rejected up front, and runs shorter than one
//!   window or not dividing evenly produce a correct partial window;
//! * the three recorders agree: a `TraceRecorder`'s totals, the sum of
//!   an `IntervalRecorder`'s windows and a never-closing `WindowGate`'s
//!   record count the same cycles, ops, stalls, walks and lookups.

use std::path::{Path, PathBuf};

use hbat_bench::experiment::{
    iv_sidecar_path, run_cell_uops, run_cell_uops_with, sweep_ft, ExperimentConfig, SweepOptions,
};
use hbat_bench::journal::parse_json_object;
use hbat_bench::WindowGate;
use hbat_core::designs::spec::DesignSpec;
use hbat_obs::{IntervalRecord, IntervalRecorder, StallCause, Tee, TraceRecorder};
use hbat_workloads::{Benchmark, Scale};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbat-iv-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs() -> [DesignSpec; 3] {
    [
        DesignSpec::parse("I4").unwrap(),
        DesignSpec::parse("M8").unwrap(),
        DesignSpec::parse("P8").unwrap(),
    ]
}

fn run_sweep(journal: &Path, intervals: Option<u64>) -> hbat_bench::SweepResult {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let opts = SweepOptions {
        threads: 1, // deterministic journal line order for byte comparison
        journal: Some(journal.to_path_buf()),
        intervals,
        ..SweepOptions::default()
    };
    sweep_ft(&designs(), &cfg, &opts).unwrap()
}

/// Checks the window accounting of one finished recorder against the
/// run it observed: the invariant on every window, contiguous tiling,
/// full-width interior windows, and totals that match the metrics.
fn assert_windows_account_for(iv: &IntervalRecorder, cycles: u64, committed: u64, tag: &str) {
    let windows = iv.windows();
    assert!(!windows.is_empty(), "{tag}: no windows");
    assert_eq!(iv.dropped_windows(), 0, "{tag}: dropped windows");
    let first = windows[0].start;
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(
            w.issue_cycles + w.stall_cycles(),
            w.cycles,
            "{tag}: window {i} @{}: issue+stalls != cycles",
            w.start
        );
        assert_eq!(
            w.start,
            first + i as u64 * iv.width(),
            "{tag}: window {i} not contiguous"
        );
        if i + 1 < windows.len() {
            assert_eq!(w.cycles, iv.width(), "{tag}: interior window {i} partial");
        } else {
            assert!(
                w.cycles >= 1 && w.cycles <= iv.width(),
                "{tag}: tail window"
            );
        }
    }
    let total: u64 = windows.iter().map(|w| w.cycles).sum();
    assert_eq!(total, cycles, "{tag}: windows do not tile the run");
    let retired: u64 = windows.iter().map(|w| w.committed).sum();
    assert_eq!(retired, committed, "{tag}: committed ops lost in bucketing");
}

#[test]
fn interval_sweep_journal_is_byte_identical() {
    let dir = tmp_dir("identity");
    let plain_path = dir.join("plain.journal");
    let iv_path = dir.join("intervals.journal");

    let plain = run_sweep(&plain_path, None);
    let observed = run_sweep(&iv_path, Some(256));

    assert_eq!(plain.completed(), 30);
    assert_eq!(observed.completed(), 30);
    for (prow, orow) in plain.cells.iter().zip(&observed.cells) {
        for (p, o) in prow.iter().zip(orow) {
            let (p, o) = (p.ok().unwrap(), o.ok().unwrap());
            assert_eq!(
                p.metrics,
                o.metrics,
                "{}/{}: interval recording changed the metrics",
                p.bench,
                p.design.mnemonic()
            );
        }
    }

    let plain_bytes = std::fs::read(&plain_path).unwrap();
    let iv_bytes = std::fs::read(&iv_path).unwrap();
    assert!(!plain_bytes.is_empty());
    assert_eq!(
        plain_bytes, iv_bytes,
        "interval recording must not perturb the journal"
    );

    assert!(!iv_sidecar_path(&plain_path).exists());
    assert!(iv_sidecar_path(&iv_path).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interval_sidecar_is_valid_jsonl_with_stable_schema_and_deterministic() {
    let dir = tmp_dir("schema");
    let journal = dir.join("sweep.journal");
    let result = run_sweep(&journal, Some(256));
    assert_eq!(result.completed(), 30);

    let sidecar = std::fs::read_to_string(iv_sidecar_path(&journal)).unwrap();
    let lines: Vec<&str> = sidecar.lines().collect();
    assert!(lines.len() >= 30, "at least one window per executed cell");
    for line in &lines {
        let keys = parse_json_object(line).expect("sidecar line is strict JSON");
        assert_eq!(keys, ["bench", "config", "design", "seed", "v", "window"]);
        for name in [
            "\"start\":",
            "\"cycles\":",
            "\"issue\":",
            "\"committed\":",
            "\"tlb-port\":",
            "\"tlb-walk\":",
            "\"dcache-port\":",
            "\"dcache-miss\":",
            "\"rob-full\":",
            "\"lsq-full\":",
            "\"fetch-starved\":",
            "\"no-ready-op\":",
            "\"walks\":",
            "\"occupancy\":",
        ] {
            assert!(line.contains(name), "missing {name} in {line}");
        }
    }

    // A second interval sweep writes a byte-identical sidecar.
    let dir2 = tmp_dir("schema2");
    let journal2 = dir2.join("sweep.journal");
    run_sweep(&journal2, Some(256));
    let sidecar2 = std::fs::read_to_string(iv_sidecar_path(&journal2)).unwrap();
    assert_eq!(sidecar, sidecar2, "interval output must be deterministic");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn per_window_invariant_holds_for_every_workload_and_design() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    for bench in Benchmark::ALL {
        let uops = bench.build(&cfg.workload).uops();
        for design in designs() {
            let mut iv = IntervalRecorder::new(512);
            let m = run_cell_uops_with(uops.ops(), design, &cfg, &mut iv);
            iv.finish();
            assert_windows_account_for(
                &iv,
                m.cycles,
                m.committed,
                &format!("{bench}/{}", design.mnemonic()),
            );
        }
    }
}

#[test]
fn metrics_are_bit_identical_across_all_table2_designs() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let uops = Benchmark::Compress.build(&cfg.workload).uops();
    for design in DesignSpec::TABLE2 {
        let plain = run_cell_uops(uops.ops(), design, &cfg);
        let mut iv = IntervalRecorder::new(777);
        let observed = run_cell_uops_with(uops.ops(), design, &cfg, &mut iv);
        iv.finish();
        assert_eq!(
            plain,
            observed,
            "{}: interval recorder changed the metrics",
            design.mnemonic()
        );
        assert_windows_account_for(&iv, plain.cycles, plain.committed, design.mnemonic());
    }
}

#[test]
fn short_runs_and_awkward_widths_produce_correct_partial_windows() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    let uops = Benchmark::Compress.build(&cfg.workload).uops();
    let design = DesignSpec::parse("M8").unwrap();

    // A width wider than the whole run: exactly one partial window.
    let mut iv = IntervalRecorder::new(1 << 40);
    let m = run_cell_uops_with(uops.ops(), design, &cfg, &mut iv);
    iv.finish();
    assert_eq!(iv.windows().len(), 1, "run shorter than one window");
    assert_eq!(iv.windows()[0].cycles, m.cycles);
    assert_windows_account_for(&iv, m.cycles, m.committed, "one-window");

    // A width that does not divide the run: the tail window carries the
    // remainder, every interior window is full.
    let width = 777u64;
    let mut iv = IntervalRecorder::new(width);
    let m2 = run_cell_uops_with(uops.ops(), design, &cfg, &mut iv);
    iv.finish();
    assert_eq!(m2, m, "recorder width cannot affect the simulation");
    let windows = iv.windows();
    assert_eq!(windows.len() as u64, m.cycles.div_ceil(width));
    let tail = windows.last().unwrap();
    let expect_tail = m.cycles - (windows.len() as u64 - 1) * width;
    assert_eq!(tail.cycles, expect_tail, "tail carries the remainder");
    assert_windows_account_for(&iv, m.cycles, m.committed, "awkward-width");
}

/// Field-wise sum of `windows`, `start` left 0.
fn window_sum(windows: &[IntervalRecord]) -> IntervalRecord {
    let mut s = IntervalRecord::default();
    for w in windows {
        s.cycles += w.cycles;
        s.issue_cycles += w.issue_cycles;
        s.issued += w.issued;
        s.committed += w.committed;
        for (acc, n) in s.stalls.iter_mut().zip(w.stalls) {
            *acc += n;
        }
        s.tlb_lookups += w.tlb_lookups;
        s.tlb_misses += w.tlb_misses;
        s.dcache_accesses += w.dcache_accesses;
        s.dcache_misses += w.dcache_misses;
        s.walks += w.walks;
        s.walk_cycles += w.walk_cycles;
        s.rob_sum += w.rob_sum;
        s.lsq_sum += w.lsq_sum;
        s.samples += w.samples;
    }
    s
}

/// The run-level recorder, the interval recorder and a sampled window's
/// gate keep the same accounting of one run: a gate that opens at cycle
/// 0 and never closes records exactly what the interval windows sum to,
/// and the trace recorder's totals match both on every counter it
/// reports.
#[test]
fn trace_interval_and_gate_recorders_agree() {
    let cfg = ExperimentConfig::baseline(Scale::Test);
    for bench in Benchmark::ALL {
        let uops = bench.build(&cfg.workload).uops();
        for mnemonic in ["T1", "I4", "M8", "P8"] {
            let tag = format!("{bench}/{mnemonic}");
            let design = DesignSpec::parse(mnemonic).unwrap();
            let mut tee = Tee::new(TraceRecorder::new(), IntervalRecorder::new(1000));
            let m = run_cell_uops_with(uops.ops(), design, &cfg, &mut tee);
            tee.b.finish();
            let mut gate = WindowGate::new(0, u64::MAX);
            let gated = run_cell_uops_with(uops.ops(), design, &cfg, &mut gate);
            assert_eq!(gated, m, "{tag}: an open gate changed the run");

            let (trace, gate) = (&tee.a, gate.record());
            let sum = window_sum(tee.b.windows());
            assert_eq!(tee.b.dropped_windows(), 0, "{tag}: dropped windows");
            assert_eq!(gate, sum, "{tag}: gate record != interval window sum");
            assert_eq!(trace.cycles(), m.cycles, "{tag}: trace cycles");
            assert_eq!(sum.cycles, m.cycles, "{tag}: window cycles");
            assert_eq!(
                trace.issue_cycles(),
                sum.issue_cycles,
                "{tag}: issue cycles"
            );
            assert_eq!(trace.issued_ops(), sum.issued, "{tag}: ops issued");
            for cause in StallCause::ALL {
                assert_eq!(
                    trace.stall(cause),
                    sum.stalls[cause.index()],
                    "{tag}: {} stalls",
                    cause.name()
                );
            }
            assert_eq!(trace.walks(), sum.walks, "{tag}: walks");
            assert_eq!(trace.walk_cycles(), sum.walk_cycles, "{tag}: walk cycles");
            assert_eq!(trace.rob_occupancy().total(), sum.samples, "{tag}: samples");
        }
    }
}

#[test]
fn degenerate_widths_are_rejected_before_any_cell_runs() {
    let dir = tmp_dir("reject");
    for width in [0u64, 1] {
        let journal = dir.join(format!("w{width}.journal"));
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let opts = SweepOptions {
            threads: 1,
            journal: Some(journal.clone()),
            intervals: Some(width),
            ..SweepOptions::default()
        };
        let err = sweep_ft(&designs(), &cfg, &opts).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("interval width"), "{err}");
        assert!(
            !journal.exists(),
            "rejected sweep must not touch the journal"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
