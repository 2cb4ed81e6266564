//! Golden digests: the behaviour oracle for refactors.
//!
//! Each test pins an FNV-1a digest of every test-scale cell of one
//! figure's Table-2 grid, rendered as `"{bench}/{design} {metrics:?}\n"`
//! in grid order. A change that moves any simulated statistic of any
//! cell changes a digest. Re-bless a digest only for an intentional
//! behaviour change, and record the reason in CHANGES.md.
//!
//! Figure 6 is pinned the same way, over the `(misses, references)` of
//! every workload and Figure-6 TLB size, and the functional executor
//! over every workload's micro-op stream. The trace analyses are pinned
//! over every workload's profiles, as the `anatomy` binary reads them.
//!
//! The rendered text is pinned too: each of Figures 5/7/8/9 exactly as
//! the `figs` binary prints it, and a sampled Figure 5 exactly as
//! `hbat sweep --sample` prints it, together with every sampled
//! window's `IntervalRecord` beneath it.
//!
//! The observed path is pinned by the traced records of every workload
//! under I4/M8/P8 and under all 13 Table-2 designs, and by the
//! 256-cycle interval windows of every workload under T1. The sweep's
//! own recorder path is pinned by the journal and sidecars of an
//! observed Figure 5 with 256-cycle intervals, plain and `--ff 20000`,
//! on one worker and on three.
//!
//! The checkpointed paths are pinned by a Figure-5 sweep fast-forwarded
//! to instruction 20,000 (`hbat sweep --ff 20000 --ckpt-dir <dir>`):
//! every cell's metrics, and every window of the same sweep sampled
//! under `6:400:100`.
//!
//! Functional warming is pinned by every program's `6:400:100` warm
//! schedule (window placements, install-form states and slice ops) and
//! by its accumulator export at instruction 20,000.
//!
//! The ported, banked and piggybacked translators are pinned directly,
//! under seeded request batches that evict from their 128 entries, since
//! no test-scale workload fills a 128-entry TLB. The shielded
//! translators (multi-level and pretranslation) are pinned the same way,
//! with base registers, register writebacks and page shootdowns.
//!
//! One `#[test]` per figure, so the harness runs them in parallel.

use hbat_suite::analysis::{working_set, BankConflictProfile};
use hbat_suite::bench::ckpt::{build_warm_start_cold, CheckpointOptions, WarmStart};
use hbat_suite::bench::experiment::{
    config_fingerprint, iv_sidecar_path, obs_sidecar_path, render_obs_record, run_cell, sweep,
    sweep_ft, tape_for, ExperimentConfig, SweepOptions, SweepResult,
};
use hbat_suite::bench::journal::{fnv1a_hex, CellKey};
use hbat_suite::bench::missrate::{miss_count, FIG6_SIZES};
use hbat_suite::bench::sample::{warm_schedule, SamplePlan};
use hbat_suite::core::designs::interleaved::BankSelect;
use hbat_suite::core::designs::ported::PortedTlb;
use hbat_suite::core::designs::shielded::ShieldedTlb;
use hbat_suite::core::hash::splitmix64;
use hbat_suite::core::request::WritebackKind;
use hbat_suite::core::{VirtAddr, Vpn};
use hbat_suite::obs::IntervalRecorder;
use hbat_suite::prelude::*;

/// The digest of every cell of a sweep, in grid order.
fn grid_digest(r: &SweepResult) -> String {
    let mut text = String::new();
    for row in &r.cells {
        for c in row {
            let c = c.ok().expect("sweep() completes every cell");
            text.push_str(&format!(
                "{}/{} {:?}\n",
                c.bench.name(),
                c.design.mnemonic(),
                c.metrics
            ));
        }
    }
    fnv1a_hex(&text)
}

/// The digest of one figure's text exactly as `figs` prints it at test
/// scale: the table and chart, then the per-benchmark detail.
fn figure_digest(r: &SweepResult, title: &str) -> String {
    fnv1a_hex(&format!(
        "{}\nPer-benchmark IPC detail:\n\n{}\n",
        r.render_figure(&format!("{title} (Test scale)")),
        r.render_details()
    ))
}

/// The Table-2 sweep of one figure's configuration, pinned twice: every
/// cell's metrics and the rendered figure.
fn assert_figure(cfg: &ExperimentConfig, title: &str, grid: &str, figure: &str) {
    let r = sweep(&DesignSpec::TABLE2, cfg);
    assert_eq!(grid_digest(&r), grid, "{title}: cell metrics");
    assert_eq!(figure_digest(&r, title), figure, "{title}: rendered text");
}

fn test_cfg() -> ExperimentConfig {
    ExperimentConfig::baseline(Scale::Test)
}

#[test]
fn fig5_seed1_matches_the_benchmark_digest() {
    // The same cells and text as the benchmark's `fig5-full test 1` line.
    let mut cfg = test_cfg();
    cfg.workload.seed = 1;
    cfg.design_seed = 1;
    assert_eq!(
        grid_digest(&sweep(&DesignSpec::TABLE2, &cfg)),
        "2bf73229a9bc6253"
    );
}

#[test]
fn fig5_baseline() {
    assert_figure(
        &test_cfg(),
        "Figure 5: Relative Performance on Baseline Simulator",
        "ba104fd7c5354663",
        "c11e4d31d7e2acf9",
    );
}

#[test]
fn fig7_inorder() {
    assert_figure(
        &test_cfg().with_inorder(),
        "Figure 7: Relative Performance with In-order Issue",
        "69fc8d173af824dc",
        "2c8e6b1b1f138bb0",
    );
}

#[test]
fn fig8_8k_pages() {
    assert_figure(
        &test_cfg().with_8k_pages(),
        "Figure 8: Relative Performance with 8k Pages",
        "040c6429904cfc86",
        "3ed16f6d0ec8e846",
    );
}

#[test]
fn fig9_small_regs() {
    assert_figure(
        &test_cfg().with_small_regs(),
        "Figure 9: Relative Performance with Fewer Registers (8 int/8 fp)",
        "4ae9e771c8513490",
        "863a8be9c0b4dbe7",
    );
}

/// The Figure-5 sweep under `opts`, failing on any failed cell.
fn fig5_with(opts: &SweepOptions) -> SweepResult {
    let r = sweep_ft(&DesignSpec::TABLE2, &test_cfg(), opts).unwrap();
    assert!(r.manifest.is_empty(), "{}", r.manifest.render());
    r
}

fn sample_6_400_100() -> Option<SamplePlan> {
    Some(SamplePlan::parse("6:400:100", 1996).unwrap())
}

/// The sampled Figure 5 of `hbat sweep --scale test --sample 6:400:100`.
fn sampled_fig5() -> SweepResult {
    fig5_with(&SweepOptions {
        sample: sample_6_400_100(),
        ..SweepOptions::default()
    })
}

/// The digest of every sampled window of a sweep, in grid order.
fn windows_digest(r: &SweepResult) -> String {
    let mut text = String::new();
    for row in &r.cells {
        for c in row {
            let c = c.ok().expect("the sampled sweep completes every cell");
            for w in &c.windows {
                text.push_str(&format!(
                    "{}/{} {w:?}\n",
                    c.bench.name(),
                    c.design.mnemonic()
                ));
            }
        }
    }
    fnv1a_hex(&text)
}

/// Figure 5 as `hbat sweep --scale test --ff 20000 --ckpt-dir <dir>`
/// runs it: every program fast-forwarded to instruction 20,000 through
/// a fresh snapshot directory (snapshots every 5,000, the CLI default),
/// timing the tail from the boundary's warm state. Six of the ten
/// test-scale programs run past the boundary; the other four halt
/// before it and leave an empty tail.
fn ff_fig5(tag: &str, sample: Option<SamplePlan>) -> SweepResult {
    let dir = std::env::temp_dir().join(format!("hbat-golden-ff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let r = fig5_with(&SweepOptions {
        checkpoint: Some(CheckpointOptions {
            dir: dir.clone(),
            interval: 5_000,
            boundary: 20_000,
        }),
        sample,
        ..SweepOptions::default()
    });
    std::fs::remove_dir_all(&dir).ok();
    r
}

/// Pins the sampled renderer: Figure 5 under the plan `6:400:100`,
/// exactly as `hbat sweep --scale test --sample 6:400:100` prints it.
#[test]
fn fig5_sampled_text() {
    let r = sampled_fig5();
    let text = format!(
        "{}\n{}\n",
        r.render_figure("design sweep (sampled)"),
        r.render_details()
    );
    assert_eq!(fnv1a_hex(&text), "228f498b7751e937");
}

/// Pins the sampled windows beneath that text: every field of every
/// window's `IntervalRecord` (cycles, issue and stall buckets, walks,
/// occupancy sums) for all 130 cells. The figure shows only each cell's
/// mean and interval, so a change to a window's stall attribution or
/// occupancy shows here and nowhere else.
#[test]
fn fig5_sampled_windows() {
    assert_eq!(windows_digest(&sampled_fig5()), "a32fc43ad909ca63");
}

/// Pins the checkpointed full path: every cell of the fast-forwarded
/// Figure 5, timed from the boundary's warm state to the program's end.
#[test]
fn fig5_ff_cells() {
    assert_eq!(grid_digest(&ff_fig5("cells", None)), "8c36b8fe46f5372d");
}

/// Pins the checkpointed sampled path: every window of the same sweep
/// under `6:400:100`, its schedule chained from the boundary's warm
/// accumulator.
#[test]
fn fig5_ff_sampled_windows() {
    assert_eq!(
        windows_digest(&ff_fig5("sampled", sample_6_400_100())),
        "30676526e23ca55a"
    );
}

#[test]
fn fig6_miss_counts() {
    // The same cells, geometry and seed as the `fig6` binary.
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let tape = tape_for(bench, &cfg);
        for (entries, policy) in FIG6_SIZES {
            let (misses, refs) = miss_count(&tape, entries, policy, cfg.geometry, 1996);
            text.push_str(&format!("{}/{entries} {misses} {refs}\n", bench.name()));
        }
    }
    assert_eq!(fnv1a_hex(&text), "cdefe8c3b7dee446");
}

/// Pins the functional executor: every micro-op of every test-scale
/// workload, rendered as `"{bench} {op:?}\n"` in `Benchmark::ALL` order.
#[test]
fn uop_streams() {
    let cfg = test_cfg();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        for op in tape_for(bench, &cfg).iter() {
            text.push_str(&format!("{bench} {op:?}\n"));
        }
    }
    assert_eq!(fnv1a_hex(&text), "8fd1127759a78881");
}

/// Pins functional warming directly: for every test-scale program, the
/// `6:400:100` warm schedule a sampled sweep builds (each window's
/// placement, the `{:?}` of its install-form `WarmState`, and its slice
/// ops), then the exact accumulator export after a cold fast-forward to
/// instruction 20,000. The sampled digests see warm states only through
/// the timing of the windows that install them.
#[test]
fn warm_schedules() {
    let cfg = test_cfg();
    let plan = sample_6_400_100().unwrap();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let start = WarmStart::program_start(bench, &cfg);
        let n = start.tail_len().unwrap();
        for s in warm_schedule(start.machine.clone(), n, &cfg, None, &plan) {
            text.push_str(&format!("{bench} {:?} {:?}\n", s.window, s.warm));
            for op in s.ops.iter() {
                text.push_str(&format!("{op:?}\n"));
            }
        }
        let ff = build_warm_start_cold(bench, &cfg, 20_000).unwrap();
        text.push_str(&format!("{bench} {:?}\n", ff.acc.export()));
    }
    assert_eq!(fnv1a_hex(&text), "88f0e262ca40a8a1");
}

/// Pins the trace analyses: every test-scale workload's reuse,
/// adjacency (window 4), pointer and bank-conflict (4-bank bit-select,
/// window 4) profiles and its working set per 1,000 references, as the
/// `anatomy` binary computes them.
#[test]
fn anatomy_profiles() {
    let cfg = test_cfg();
    let geom = cfg.geometry;
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let tape = bench.build(&cfg.workload).tape();
        let pages = page_stream(tape.iter(), geom);
        let reuse = ReuseProfile::of_pages(&pages);
        let adj = AdjacencyProfile::of_pages(&pages, 4);
        let ptr = PointerProfile::of_ops(tape.iter(), geom);
        let bc = BankConflictProfile::of_pages(&pages, BankSelect::BitSelect, 4, 4);
        let ws = working_set(&pages, 1000);
        text.push_str(&format!(
            "{bench} {reuse:?} {adj:?} {ptr:?} {bc:?} {ws:?}\n"
        ));
    }
    assert_eq!(fnv1a_hex(&text), "8e4a2f998b4e778e");
}

/// The traced records of every workload under each of `designs`,
/// rendered as an observed sweep journals them, after checking that the
/// stall taxonomy accounts for every cycle.
fn obs_records(designs: &[DesignSpec]) -> String {
    let cfg = test_cfg();
    let cold = cfg.cold_state();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let tape = tape_for(bench, &cfg);
        for &design in designs {
            let mut rec = TraceRecorder::new();
            run_cell(tape.reader(), design, &cfg, &cold, &mut rec);
            // Every cycle is an issue cycle or charged to one stall cause.
            assert_eq!(
                rec.issue_cycles() + rec.stall_total(),
                rec.cycles(),
                "{bench}/{design:?}"
            );
            let key = CellKey {
                bench: bench.name().to_owned(),
                design: format!("{design:?}"),
                config: config_fingerprint(&cfg),
                seed: cfg.design_seed,
            };
            text.push_str(&render_obs_record(&key, &rec));
            text.push('\n');
        }
    }
    text
}

/// Pins the traced path beyond `RunMetrics`: the stall taxonomy, port
/// conflicts, walks and occupancy summaries `hbat trace` and observed
/// sweeps report, for every workload under one interleaved, one
/// multi-level and one pretranslation design, and checks that the
/// stall taxonomy accounts for every cycle.
#[test]
fn observed_cells_render_the_same_obs_records() {
    let designs = ["I4", "M8", "P8"].map(|d| DesignSpec::parse(d).unwrap());
    assert_eq!(fnv1a_hex(&obs_records(&designs)), "5cabc9ae848613e6");
}

/// The same records for all 13 Table-2 designs. Blessed while enabled
/// recorders still ran the engine's full issue scan, so it pins that
/// the sleep/wake fast path reports exactly the probes the full scan did.
#[test]
fn observed_cells_render_the_same_obs_records_on_table2() {
    assert_eq!(
        fnv1a_hex(&obs_records(&DesignSpec::TABLE2)),
        "e60e900b75857ac1"
    );
}

/// Pins the interval time series `hbat trace --intervals 256` records:
/// every field of every 256-cycle window of every workload under T1,
/// plus the count of windows dropped past the buffer.
#[test]
fn interval_windows() {
    let cfg = test_cfg();
    let design = DesignSpec::parse("T1").unwrap();
    let cold = cfg.cold_state();
    let mut text = String::new();
    for bench in Benchmark::ALL {
        let mut iv = IntervalRecorder::new(256);
        run_cell(tape_for(bench, &cfg).reader(), design, &cfg, &cold, &mut iv);
        iv.finish();
        for w in iv.windows() {
            text.push_str(&format!("{bench} {w:?}\n"));
        }
        text.push_str(&format!("{bench} dropped {}\n", iv.dropped_windows()));
    }
    assert_eq!(fnv1a_hex(&text), "c991cf6813f44467");
}

/// The digest of an observed, journalled Figure 5 (`hbat sweep --scale
/// test --observe --intervals 256 --journal <path>`, plus `--ff 20000`
/// when `ff`) on `threads` workers: every line of the journal and of its
/// `.obs.jsonl` and `.iv.jsonl` sidecars, sorted, since the cells append
/// in the order the workers finish them.
fn observed_sweep_digest(tag: &str, threads: usize, ff: bool) -> String {
    let dir = std::env::temp_dir().join(format!(
        "hbat-golden-sidecars-{tag}-{threads}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("sweep.journal");
    fig5_with(&SweepOptions {
        threads,
        journal: Some(journal.clone()),
        observe: true,
        intervals: Some(256),
        checkpoint: ff.then(|| CheckpointOptions {
            dir: dir.join("ckpt"),
            interval: 5_000,
            boundary: 20_000,
        }),
        ..SweepOptions::default()
    });
    let mut lines: Vec<String> = Vec::new();
    for path in [
        journal.clone(),
        obs_sidecar_path(&journal),
        iv_sidecar_path(&journal),
    ] {
        let text = std::fs::read_to_string(&path).unwrap();
        lines.extend(text.lines().map(str::to_owned));
    }
    std::fs::remove_dir_all(&dir).ok();
    lines.sort_unstable();
    fnv1a_hex(&(lines.join("\n") + "\n"))
}

/// Pins the sweep's own recorder path: the journal and both sidecars of
/// an observed Figure 5 with 256-cycle intervals, from the first
/// instruction and fast-forwarded to instruction 20,000, on one worker
/// and on three.
#[test]
fn observed_sweep_sidecars() {
    for threads in [1, 3] {
        assert_eq!(
            observed_sweep_digest("full", threads, false),
            "97acad7370f67413",
            "full, {threads} workers"
        );
        assert_eq!(
            observed_sweep_digest("ff", threads, true),
            "c931697ab3e67e51",
            "--ff 20000, {threads} workers"
        );
    }
}

/// Presents one same-cycle batch to `t` from cycle `now` on,
/// re-presenting each rejected request one cycle later, and records
/// every outcome with the cycle it was accepted in and `queue_depth`
/// after each cycle.
fn present(
    t: &mut dyn AddressTranslator,
    reqs: &[TranslateRequest],
    now: &mut u64,
    text: &mut String,
) {
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    while !pending.is_empty() {
        t.begin_cycle(Cycle(*now));
        pending.retain(|&i| match t.translate(&reqs[i]) {
            Outcome::Retry => true,
            o => {
                text.push_str(&format!("{i} {o:?} @{now}\n"));
                false
            }
        });
        text.push_str(&format!("q{}\n", t.queue_depth(Cycle(*now))));
        *now += 1;
    }
}

/// Presents seeded same-cycle batches of 1-8 loads and stores to `t`
/// through [`present`]. Pages come from `pages`, and about one request
/// in three repeats an earlier page of its batch.
fn drive_seeded(
    t: &mut dyn AddressTranslator,
    rng: &mut u64,
    now: &mut u64,
    batches: usize,
    pages: u64,
    text: &mut String,
) {
    for _ in 0..batches {
        let n = 1 + (splitmix64(rng) % 8) as usize;
        let mut reqs: Vec<TranslateRequest> = Vec::with_capacity(n);
        for i in 0..n {
            let r = splitmix64(rng);
            let page = if i > 0 && r.is_multiple_of(3) {
                reqs[(r >> 8) as usize % i].vaddr.0 >> 12
            } else {
                (r >> 16) % pages
            };
            let va = VirtAddr(page << 12 | (r >> 40) & 0xff8);
            let serial = *now * 8 + i as u64;
            reqs.push(if r & 0x80 == 0 {
                TranslateRequest::load(va, serial)
            } else {
                TranslateRequest::store(va, serial)
            });
        }
        present(t, &reqs, now, text);
    }
}

/// Pins the translators that differ only in banks, real ports per bank
/// and piggyback ports per bank: the nine such Table-2 designs at seeds
/// 1 and 1996, every configuration the `ablation` binary builds, and a
/// multiplicative-select interleaved TLB. Each is driven with seeded
/// batches over four times its capacity in pages, so random replacement
/// evicts and same-page requests combine, then given a run of
/// `warm_insert`s and driven again. The digest covers every outcome,
/// its accept cycle, `queue_depth` after each cycle, the final
/// `TranslatorStats` and the page table's status bits.
#[test]
fn ported_translators() {
    let geom = PageGeometry::KB4;
    let pt = || PageTable::new(geom);
    let mut designs: Vec<Box<dyn AddressTranslator>> = Vec::new();
    for seed in [1, 1996] {
        for spec in DesignSpec::TABLE2 {
            if matches!(
                spec,
                DesignSpec::MultiPorted { .. }
                    | DesignSpec::Interleaved { .. }
                    | DesignSpec::Piggyback { .. }
            ) {
                designs.push(spec.build(geom, seed));
            }
        }
    }
    for pb in [0, 1, 2, 3, 7] {
        designs.push(Box::new(PortedTlb::new("PBx", 1, 1, pb, 128, pt(), 1996)));
    }
    for banks in [2, 4, 8, 16] {
        designs.push(Box::new(PortedTlb::new("Ix", banks, 1, 0, 128, pt(), 1996)));
    }
    designs.push(Box::new(PortedTlb::new("T1", 1, 1, 0, 128, pt(), 1996)));
    designs.push(Box::new(
        PortedTlb::new("M4", 4, 1, 0, 128, pt(), 1996).with_select(BankSelect::Multiplicative),
    ));
    assert_eq!(designs.len(), 29);

    let mut text = String::new();
    for (k, t) in designs.iter_mut().enumerate() {
        let t = t.as_mut();
        let pages = 4 * t.warm_tlb_capacity() as u64;
        let mut rng = k as u64;
        let mut now = 0;
        text.push_str(&format!("== {k} {}\n", t.name()));
        drive_seeded(t, &mut rng, &mut now, 600, pages, &mut text);
        text.push_str(&format!("{:?}\nwarm\n", t.stats()));
        for _ in 0..200 {
            let vpn = Vpn(splitmix64(&mut rng) % pages);
            let entry = t.page_table_mut().walk(vpn);
            t.warm_insert(entry);
        }
        drive_seeded(t, &mut rng, &mut now, 200, pages, &mut text);
        text.push_str(&format!("{:?}\n", t.stats()));
        for vpn in 0..pages {
            if let Some(e) = t.page_table().probe(Vpn(vpn)) {
                text.push_str(&format!("{e:?}\n"));
            }
        }
    }
    assert_eq!(fnv1a_hex(&text), "c8bf14819b257f80");
}

/// Presents seeded same-cycle batches of 1-8 loads and stores, based on
/// eight pointer registers, to `t` with [`present`]. A request
/// mostly dereferences its base register's page with one of four
/// displacement sub-ranges; one in four loads the register with a new
/// page, and one in eight carries no base register. After each batch two
/// register writebacks follow, one pointer copy and one opaque value,
/// then an idle gap of 0-7 cycles so the base port's queue can drain, and
/// every 25 batches a page is unmapped and shot down.
fn drive_shielded(
    t: &mut dyn AddressTranslator,
    rng: &mut u64,
    now: &mut u64,
    batches: usize,
    pages: u64,
    text: &mut String,
) {
    const UNMAP_EVERY: usize = 25;
    let mut regs = [0u64; 9];
    for reg in &mut regs {
        *reg = splitmix64(rng) % pages;
    }
    for b in 0..batches {
        let n = 1 + (splitmix64(rng) % 8) as usize;
        let mut reqs: Vec<TranslateRequest> = Vec::with_capacity(n);
        for i in 0..n {
            let r = splitmix64(rng);
            let reg = 1 + (r >> 3) as usize % 8;
            if r.is_multiple_of(4) {
                regs[reg] = (r >> 16) % pages;
            }
            let off = (((r >> 40) & 3) << 12 | (r >> 48) & 0xff8) as i32;
            let va = VirtAddr(regs[reg] << 12 | off as u64 & 0xff8);
            let serial = *now * 8 + i as u64;
            let req = if r & 0x80 == 0 {
                TranslateRequest::load(va, serial)
            } else {
                TranslateRequest::store(va, serial)
            };
            reqs.push(if (r >> 8) & 7 == 0 {
                req
            } else {
                req.with_base(reg as u8, off)
            });
        }
        present(t, &reqs, now, text);
        let r = splitmix64(rng);
        let (dest, src) = (1 + r as usize % 8, 1 + (r >> 8) as usize % 8);
        regs[dest] = regs[src];
        t.note_writeback(dest as u8, &[src as u8, 0], WritebackKind::PointerArith);
        let dest = 1 + (r >> 16) as usize % 8;
        regs[dest] = (r >> 24) % pages;
        t.note_writeback(dest as u8, &[], WritebackKind::Opaque);
        *now += (r >> 40) % 8;
        if b % UNMAP_EVERY == UNMAP_EVERY - 1 {
            let vpn = Vpn(splitmix64(rng) % pages);
            t.page_table_mut().unmap(vpn);
            t.invalidate_page(vpn);
            text.push_str(&format!("unmap {}\n", vpn.0));
        }
    }
}

/// Pins the shielded translators, a small multi-ported shield in front
/// of one single-ported base TLB: M16, M8, M4 and P8 at seeds 1 and
/// 1996, and every configuration the `ablation` binary builds (L1 sizes
/// 1-64, and pretranslation caches of 4, 8 and 16 entries with 0 or 4
/// offset-tag bits). Each is driven through [`drive_shielded`] over four
/// times its base capacity in pages, so the base TLB evicts, inclusion
/// invalidates and replacement flushes the cache, then given a run of
/// `warm_insert`s and driven again. The digest covers every outcome, its
/// accept cycle, `queue_depth` after each cycle, the final
/// `TranslatorStats` and the page table's status bits.
#[test]
fn shielded_translators() {
    let geom = PageGeometry::KB4;
    let pt = || PageTable::new(geom);
    let mut designs: Vec<Box<dyn AddressTranslator>> = Vec::new();
    for seed in [1, 1996] {
        for spec in DesignSpec::TABLE2 {
            if matches!(
                spec,
                DesignSpec::MultiLevel { .. } | DesignSpec::Pretranslation { .. }
            ) {
                designs.push(spec.build(geom, seed));
            }
        }
    }
    for l1 in [1, 2, 4, 8, 16, 32, 64] {
        designs.push(Box::new(ShieldedTlb::multilevel("Mx", l1, 128, pt(), 1996)));
    }
    for entries in [4, 8, 16] {
        for bits in [0, 4] {
            designs.push(Box::new(ShieldedTlb::pretranslation(
                "Px",
                entries,
                bits,
                128,
                pt(),
                1996,
            )));
        }
    }
    assert_eq!(designs.len(), 21);

    let mut text = String::new();
    for (k, t) in designs.iter_mut().enumerate() {
        let t = t.as_mut();
        let pages = 4 * t.warm_tlb_capacity() as u64;
        let mut rng = k as u64;
        let mut now = 0;
        text.push_str(&format!("== {k} {}\n", t.name()));
        drive_shielded(t, &mut rng, &mut now, 600, pages, &mut text);
        text.push_str(&format!("{:?}\nwarm\n", t.stats()));
        for _ in 0..200 {
            let vpn = Vpn(splitmix64(&mut rng) % pages);
            let entry = t.page_table_mut().walk(vpn);
            t.warm_insert(entry);
        }
        drive_shielded(t, &mut rng, &mut now, 200, pages, &mut text);
        text.push_str(&format!("{:?}\n", t.stats()));
        for vpn in 0..pages {
            if let Some(e) = t.page_table().probe(Vpn(vpn)) {
                text.push_str(&format!("{e:?}\n"));
            }
        }
    }
    assert_eq!(fnv1a_hex(&text), "c99ed88f775d9d02");
}
