//! Crash-safe checkpointing for long-running sweeps.
//!
//! A checkpointed sweep splits every benchmark into a cheap functional
//! *fast-forward* phase (Machine-only stepping to a fixed boundary `F`,
//! publishing verified snapshots every `interval` committed
//! instructions) and a detailed *timing* phase over the remaining trace
//! tail with the warm micro-architectural state installed. A killed or
//! faulted run restores from the newest snapshot that decodes,
//! checksums, and identity-checks cleanly — corrupt snapshots are
//! rejected with a typed [`CkptError`] and the restore falls back to the
//! previous one (or a cold start), never to questionable state.
//!
//! The timing metrics of a checkpointed cell are a pure function of
//! `(benchmark, configuration, F)`: the snapshot carries the *exact*
//! warm-state accumulator, so a run restored at any intermediate index
//! reaches the boundary with bit-identical state to a run that never
//! crashed. [`verify_restore_equivalence`] proves that end to end, and
//! `F` is folded into the [`sweep_fingerprint`] so journals and
//! snapshots from different boundaries can never be mixed up.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

use hbat_ckpt::format::checksum_of;
use hbat_ckpt::{fast_forward, CheckpointStore, CkptError, Snapshot};
use hbat_core::designs::spec::DesignSpec;
use hbat_cpu::WarmAccumulator;
use hbat_isa::executor::OpSource;
use hbat_isa::Machine;
use hbat_obs::NullRecorder;
use hbat_workloads::Benchmark;

use crate::experiment::{run_cell, sweep_fingerprint, ExperimentConfig};
use crate::faults::{CkptFault, FaultPlan};

/// Where and how a checkpointed sweep snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Snapshot directory (shared by all benchmarks; files are
    /// content-addressed by benchmark + fingerprint + index).
    pub dir: PathBuf,
    /// Committed instructions between snapshots during fast-forward.
    pub interval: u64,
    /// The fast-forward boundary `F`: every benchmark executes
    /// functionally to `min(F, program end)` before detailed timing
    /// begins.
    pub boundary: u64,
}

/// One benchmark at the start of detailed timing: the machine, ready to
/// run the timing tail, and the warm state there. Every sweep keeps
/// this, not the tail: a full cell streams a clone of the machine into
/// the engine, and a sampled sweep's first cell runs one through the
/// warm schedule.
#[derive(Debug)]
pub struct WarmStart {
    /// The benchmark.
    pub bench: Benchmark,
    /// The functional machine at the timing start.
    pub machine: Machine,
    /// The workload's runaway guard, applied to the tail.
    pub max_steps: u64,
    /// The warm-state accumulator at the timing start.
    pub acc: WarmAccumulator,
    /// Where timing starts: `min(F, halt point)`, or 0 without `--ff`.
    pub start: u64,
    /// The snapshot index the build restored from (`None` = cold start).
    pub restored_from: Option<u64>,
    /// Snapshots rejected during the restore scan, newest first, with
    /// their typed errors rendered.
    pub rejected: Vec<(PathBuf, String)>,
}

impl WarmStart {
    /// The program's first instruction with nothing warmed: where a
    /// sweep without `--ff` starts timing.
    pub fn program_start(bench: Benchmark, cfg: &ExperimentConfig) -> WarmStart {
        let workload = bench.build(&cfg.workload);
        WarmStart {
            bench,
            machine: workload.instantiate(),
            max_steps: workload.max_steps,
            acc: WarmAccumulator::new(&cfg.sim, cfg.geometry),
            start: 0,
            restored_from: None,
            rejected: Vec::new(),
        }
    }

    /// The number of ops in the timing tail: runs a clone of the machine
    /// to halt and keeps none of them.
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] if the program does not halt within its
    /// step budget.
    pub fn tail_len(&self) -> Result<u64, CkptError> {
        let mut machine = self.machine.clone();
        let n = machine.execute(self.max_steps, &mut ());
        if machine.is_halted() {
            return Ok(n);
        }
        Err(CkptError::Malformed(format!(
            "workload {} did not halt within {} tail steps",
            self.bench.name(),
            self.max_steps
        )))
    }
}

/// Fast-forwards a benchmark to `boundary` with *no* disk involvement:
/// a pure in-memory fast-forward. This is the differential reference
/// [`build_warm_start`] must match bit for bit.
///
/// # Errors
///
/// Fails only if the workload misbehaves (does not halt within its step
/// budget).
pub fn build_warm_start_cold(
    bench: Benchmark,
    cfg: &ExperimentConfig,
    boundary: u64,
) -> Result<WarmStart, CkptError> {
    let _prof = hbat_obs::prof::scope("warm-build");
    let mut ws = WarmStart::program_start(bench, cfg);
    let out = fast_forward(
        &mut ws.machine,
        &mut ws.acc,
        0,
        boundary,
        boundary.max(1),
        None,
        |_, _, _| Ok(()),
    )?;
    ws.start = out.index;
    Ok(ws)
}

/// Re-signs a snapshot image so only the deliberately-wrong field can be
/// blamed when the decoder rejects it.
fn resign(bytes: &mut [u8]) {
    if bytes.len() < 28 {
        return;
    }
    let body_end = bytes.len() - 8;
    let sum = checksum_of(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
}

/// Applies a checkpoint corruption fault to the newest on-disk snapshot
/// (no-op when the store is empty or the fault is [`CkptFault::FfPanic`],
/// which targets the fast-forward itself). The write is deliberately
/// *not* atomic — it simulates external corruption, which the restore
/// scan must detect and recover from.
fn corrupt_newest(store: &CheckpointStore, fault: CkptFault) -> Result<(), CkptError> {
    if fault == CkptFault::FfPanic {
        return Ok(());
    }
    let Some(&idx) = store.indices()?.last() else {
        return Ok(());
    };
    let path = store.path_for(idx);
    let mut bytes = std::fs::read(&path)?;
    match fault {
        // hbat-lint: allow(panic) FfPanic returned early above
        CkptFault::FfPanic => unreachable!("handled above"),
        CkptFault::Torn => {
            let cut = bytes.len() * 2 / 3;
            bytes.truncate(cut);
        }
        CkptFault::BitFlip => {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x10;
        }
        CkptFault::Truncate => bytes.truncate(20.min(bytes.len())),
        CkptFault::VersionMismatch => {
            bytes[8] = 0x7F;
            resign(&mut bytes);
        }
        CkptFault::FingerprintMismatch => {
            let mut snap = Snapshot::decode(&bytes)?;
            snap.fingerprint = "feedfacefeedface".to_owned();
            bytes = snap.encode();
        }
    }
    std::fs::write(&path, &bytes)?;
    Ok(())
}

/// Fast-forwards a benchmark to the boundary through the checkpoint
/// store:
/// restores from the newest valid snapshot at or below the boundary
/// (cold-starting past any rejected ones), fast-forwards the remainder
/// while publishing snapshots every `opts.interval` instructions, and
/// returns the machine and warm state there. Bit-identical to
/// [`build_warm_start_cold`] wherever it restores from, which
/// [`verify_restore_equivalence`] checks.
///
/// `attempt` is the executor's 1-based retry attempt; an armed
/// [`CkptFault::FfPanic`] panics the first attempt right after its first
/// snapshot lands, so the retry must resume from it. Corruption faults
/// sabotage the newest on-disk snapshot *before* the restore scan.
///
/// # Errors
///
/// Disk and decode errors on the snapshot path, [`CkptError::Cancelled`]
/// when the executor's watchdog fires, or a snapshot whose arch state or
/// memory the workload's program rejects.
///
/// # Panics
///
/// Panics when an armed `FfPanic` fault fires (the injected fault — the
/// executor's cell isolation catches it).
pub fn build_warm_start(
    bench: Benchmark,
    bi: usize,
    cfg: &ExperimentConfig,
    opts: &CheckpointOptions,
    faults: &FaultPlan,
    attempt: u32,
    cancel: Option<&AtomicBool>,
) -> Result<WarmStart, CkptError> {
    let _prof = hbat_obs::prof::scope("warm-build");
    let fingerprint = sweep_fingerprint(cfg, Some(opts.boundary), None);
    let store = CheckpointStore::new(&opts.dir, bench.name(), &fingerprint);
    if let Some(fault) = faults.ckpt_fault_for(bi) {
        corrupt_newest(&store, fault)?;
    }

    let restore = hbat_obs::prof::scope("warm-restore");
    let scan = store.latest_valid(opts.boundary)?;
    let mut ws = WarmStart::program_start(bench, cfg);
    let from = match scan.snapshot {
        Some(snap) => {
            ws.machine
                .restore_arch_state(&snap.arch)
                .map_err(CkptError::Malformed)?;
            ws.machine.memory_mut().clear();
            for (base, bytes) in &snap.mem_chunks {
                ws.machine
                    .memory_mut()
                    .import_chunk(*base, bytes)
                    .map_err(CkptError::Malformed)?;
            }
            ws.acc = WarmAccumulator::import(&cfg.sim, cfg.geometry, &snap.warm);
            ws.restored_from = Some(snap.index);
            snap.index
        }
        None => 0,
    };
    drop(restore);

    let ff_panic = faults.ckpt_fault_for(bi) == Some(CkptFault::FfPanic) && attempt <= 1;
    let mut saved = 0u64;
    let out = fast_forward(
        &mut ws.machine,
        &mut ws.acc,
        from,
        opts.boundary,
        opts.interval,
        cancel,
        |m, a, i| {
            let snap = Snapshot {
                bench: bench.name().to_owned(),
                fingerprint: fingerprint.clone(),
                index: i,
                arch: m.arch_state(),
                mem_chunks: m
                    .memory()
                    .export_chunks()
                    .into_iter()
                    .map(|(base, bytes)| (base, bytes.to_vec()))
                    .collect(),
                warm: a.export(),
            };
            store.save(&snap)?;
            saved += 1;
            assert!(
                !(ff_panic && saved >= 1),
                "injected fault: fast-forward for {} panicked after checkpoint {i}",
                bench.name()
            );
            Ok(())
        },
    )?;

    ws.start = out.index;
    ws.rejected = scan
        .rejected
        .into_iter()
        .map(|(path, e)| (path, e.to_string()))
        .collect();
    Ok(ws)
}

/// What [`verify_restore_equivalence`] proved.
#[derive(Debug)]
pub struct EquivalenceReport {
    /// The snapshot index the restored run resumed from.
    pub restored_from: u64,
    /// Designs whose metrics were compared (all bit-identical).
    pub designs_checked: usize,
    /// Distinct data pages the cold run touched before the boundary.
    /// Above [`hbat_core::designs::BASE_TLB_ENTRIES`] the warm state's
    /// random-replacement TLB model has evicted, so the check covers the
    /// model's exact restore.
    pub pages_touched: usize,
}

/// Differential proof that restore is exact: fast-forwards the benchmark
/// cold (pure in-memory) and through the checkpoint store with a forced
/// mid-stream restore, then times both tails against every design in
/// `designs` and demands bit-identical [`RunMetrics`](hbat_cpu::RunMetrics).
///
/// The checkpointed side is populated by a first (cold) checkpointing
/// pass; the boundary snapshot is then deleted so the verification pass
/// *must* restore from an interior snapshot and re-execute the remainder
/// — exercising restore, not just replay.
///
/// # Errors
///
/// A human-readable explanation of the first divergence (or of a
/// checkpoint-layer failure). `Ok` carries proof of what was checked.
pub fn verify_restore_equivalence(
    bench: Benchmark,
    cfg: &ExperimentConfig,
    opts: &CheckpointOptions,
    designs: &[DesignSpec],
) -> Result<EquivalenceReport, String> {
    let err = |stage: &str, e: CkptError| format!("{}: {stage}: {e}", bench.name());

    let cold =
        build_warm_start_cold(bench, cfg, opts.boundary).map_err(|e| err("cold build", e))?;

    // Pass 1: populate the store (itself a cold start).
    let first = build_warm_start(bench, 0, cfg, opts, &FaultPlan::none(), 1, None)
        .map_err(|e| err("checkpointing pass", e))?;
    if first.restored_from.is_some() {
        return Err(format!(
            "{}: store was expected to start empty (restored from {:?})",
            bench.name(),
            first.restored_from
        ));
    }

    // Delete the newest snapshot so pass 2 must restore mid-stream and
    // actually re-execute instructions up to the boundary.
    let fingerprint = sweep_fingerprint(cfg, Some(opts.boundary), None);
    let store = CheckpointStore::new(&opts.dir, bench.name(), &fingerprint);
    let indices = store.indices().map_err(|e| err("index scan", e))?;
    let Some((&newest, earlier)) = indices.split_last() else {
        return Err(format!("{}: no snapshots were written", bench.name()));
    };
    if !earlier.is_empty() {
        std::fs::remove_file(store.path_for(newest))
            .map_err(|e| err("snapshot removal", CkptError::Io(e)))?;
    }

    // Pass 2: restore and resume.
    let restored = build_warm_start(bench, 0, cfg, opts, &FaultPlan::none(), 1, None)
        .map_err(|e| err("restore pass", e))?;
    let Some(restored_from) = restored.restored_from else {
        return Err(format!(
            "{}: restore pass cold-started instead of restoring",
            bench.name()
        ));
    };

    if cold.start != restored.start || cold.acc.export() != restored.acc.export() {
        return Err(format!(
            "{}: warm state diverged (cold start {} vs restored start {})",
            bench.name(),
            cold.start,
            restored.start
        ));
    }
    let (cold_warm, restored_warm) = (cold.acc.warm_state(), restored.acc.warm_state());
    let cold_n = cold.tail_len().map_err(|e| err("cold tail", e))?;
    let restored_n = restored.tail_len().map_err(|e| err("restored tail", e))?;
    for design in designs {
        let cold_ops = cold.machine.clone().capped(cold_n);
        let restored_ops = restored.machine.clone().capped(restored_n);
        let a = run_cell(cold_ops, *design, cfg, &cold_warm, NullRecorder);
        let b = run_cell(restored_ops, *design, cfg, &restored_warm, NullRecorder);
        if a != b {
            return Err(format!(
                "{}: {} metrics diverged after restore from {restored_from}:\n  cold:     {a:?}\n  restored: {b:?}",
                bench.name(),
                design.mnemonic()
            ));
        }
    }
    Ok(EquivalenceReport {
        restored_from,
        designs_checked: designs.len(),
        pages_touched: cold.acc.export().pages.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbat_workloads::Scale;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hbat-bench-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn opts(dir: PathBuf) -> CheckpointOptions {
        CheckpointOptions {
            dir,
            interval: 400,
            boundary: 1_000,
        }
    }

    #[test]
    fn checkpointed_build_matches_cold_build() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let dir = tdir("match");
        let o = opts(dir.clone());
        let cold = build_warm_start_cold(Benchmark::Compress, &cfg, o.boundary).unwrap();
        let ck = build_warm_start(
            Benchmark::Compress,
            0,
            &cfg,
            &o,
            &FaultPlan::none(),
            1,
            None,
        )
        .unwrap();
        assert_eq!(cold.start, ck.start);
        assert_eq!(cold.acc.export(), ck.acc.export());
        let tail = |ws: &WarmStart| ws.machine.clone().run_to_tape(ws.max_steps);
        assert_eq!(tail(&cold), tail(&ck));
        assert!(ck.restored_from.is_none(), "first pass cold-starts");

        // A second pass restores from the boundary snapshot and skips
        // straight to the tail.
        let again = build_warm_start(
            Benchmark::Compress,
            0,
            &cfg,
            &o,
            &FaultPlan::none(),
            1,
            None,
        )
        .unwrap();
        assert_eq!(again.restored_from, Some(cold.start.min(o.boundary)));
        assert_eq!(again.acc.export(), cold.acc.export());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn equivalence_verifier_passes_and_restores_midstream() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let dir = tdir("equiv");
        let o = opts(dir.clone());
        let report = verify_restore_equivalence(
            Benchmark::Compress,
            &cfg,
            &o,
            &[DesignSpec::MultiPorted { ports: 4 }],
        )
        .unwrap();
        assert!(report.restored_from < o.boundary, "restored mid-stream");
        assert_eq!(report.designs_checked, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_corruption_kind_is_detected_and_recovered() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        for (fault, tag) in [
            (CkptFault::Torn, "torn"),
            (CkptFault::BitFlip, "flip"),
            (CkptFault::Truncate, "trunc"),
            (CkptFault::VersionMismatch, "version"),
            (CkptFault::FingerprintMismatch, "fp"),
        ] {
            let dir = tdir(&format!("corrupt-{tag}"));
            let o = opts(dir.clone());
            let clean = build_warm_start(
                Benchmark::Compress,
                0,
                &cfg,
                &o,
                &FaultPlan::none(),
                1,
                None,
            )
            .unwrap();
            let plan = FaultPlan::none().with_ckpt_fault(0, fault);
            let recovered =
                build_warm_start(Benchmark::Compress, 0, &cfg, &o, &plan, 1, None).unwrap();
            assert!(
                !recovered.rejected.is_empty(),
                "{fault:?}: corruption must be detected"
            );
            assert_eq!(
                recovered.acc.export(),
                clean.acc.export(),
                "{fault:?}: recovery must reach identical state"
            );
            assert!(
                recovered.restored_from.unwrap_or(0) < o.boundary
                    || recovered.restored_from.is_none(),
                "{fault:?}: must not restore from the corrupted boundary snapshot"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn ff_panic_fault_fires_then_retry_restores() {
        let cfg = ExperimentConfig::baseline(Scale::Test);
        let dir = tdir("ffpanic");
        let o = opts(dir.clone());
        let plan = FaultPlan::none().with_ckpt_fault(0, CkptFault::FfPanic);
        let attempt1 = std::panic::catch_unwind(|| {
            build_warm_start(Benchmark::Compress, 0, &cfg, &o, &plan, 1, None)
        });
        assert!(attempt1.is_err(), "attempt 1 must panic after a snapshot");

        // The panic landed after a checkpoint was durably published, so
        // attempt 2 restores instead of cold-starting.
        let attempt2 = build_warm_start(Benchmark::Compress, 0, &cfg, &o, &plan, 2, None).unwrap();
        assert!(attempt2.restored_from.is_some(), "retry must restore");

        let cold = build_warm_start_cold(Benchmark::Compress, &cfg, o.boundary).unwrap();
        assert_eq!(
            attempt2.acc.export(),
            cold.acc.export(),
            "retry reaches identical state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
