//! Deterministic fault injection for the sweep executor.
//!
//! A [`FaultPlan`] is a seeded, reproducible assignment of faults to
//! cell indices: a cell can be made to panic (for its first `k`
//! attempts or forever) or to stall until the watchdog cancels it. The
//! plan is pure data — the same seed and cell count always select the
//! same cells — so every recovery path in the executor
//! (catch-and-continue, bounded retry, deadline cancellation) can be
//! exercised by deterministic tests and CI.
//!
//! Plans can also be armed from the environment for end-to-end runs:
//!
//! ```text
//! HBAT_FAULT_PLAN="seed=7,panic=3,stall=1"   seeded random cells
//! HBAT_FAULT_PLAN="panic@4,stall@9"          explicit cells
//! ```
//!
//! Checkpoint faults target the snapshot subsystem instead of cells and
//! are keyed by *benchmark* index (checkpoints are per-benchmark):
//!
//! ```text
//! HBAT_FAULT_PLAN="ff_panic@0"       fast-forward panics after its first checkpoint
//! HBAT_FAULT_PLAN="ckpt_torn@1"      newest snapshot torn mid-body
//! HBAT_FAULT_PLAN="ckpt_flip@2"      one body bit flipped
//! HBAT_FAULT_PLAN="ckpt_trunc@3"     snapshot cut to a bare header
//! HBAT_FAULT_PLAN="ckpt_version@4"   version patched, file re-signed
//! HBAT_FAULT_PLAN="ckpt_fp@5"        alien fingerprint, file re-signed
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hbat_core::hash::splitmix64;

/// The kinds of fault a cell can be armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the first `failures` attempts (`u32::MAX` = always).
    /// `failures: 1` with one retry exercises transient-fault recovery.
    Panic {
        /// How many leading attempts panic.
        failures: u32,
    },
    /// Spin (cooperatively) until the watchdog sets the cell's cancel
    /// flag — a bounded stand-in for a wedged simulation.
    Stall,
}

/// Faults against the checkpoint subsystem, keyed by *benchmark* index
/// (snapshots are per-benchmark, shared by that benchmark's cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptFault {
    /// The fast-forward phase panics on its first attempt, after at
    /// least one checkpoint has been published — the retry must restore
    /// from the snapshot instead of cold-starting.
    FfPanic,
    /// The newest snapshot is torn mid-body, as if a write bypassed the
    /// atomic publisher and was killed partway.
    Torn,
    /// One bit of the newest snapshot's body is flipped.
    BitFlip,
    /// The newest snapshot is cut down to a bare header prefix.
    Truncate,
    /// The newest snapshot's version field is patched and the file
    /// re-signed, so only the version check (not the checksum) can fire.
    VersionMismatch,
    /// The newest snapshot's contents are re-encoded under an alien
    /// config fingerprint (checksum-valid, identity-invalid).
    FingerprintMismatch,
}

/// A deterministic assignment of faults to sweep cell indices.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
    /// Benchmark indices whose trace build panics (exercises the
    /// skip-dependent-cells path).
    trace_faults: BTreeMap<usize, ()>,
    /// Benchmark indices whose checkpoint pipeline is sabotaged.
    ckpt_faults: BTreeMap<usize, CkptFault>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.trace_faults.is_empty() && self.ckpt_faults.is_empty()
    }

    /// Number of cell faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Builds a seeded plan over `n_cells` cells: `panics` cells panic
    /// on every attempt and `stalls` cells stall. Cells are chosen
    /// without replacement; the same `(seed, n_cells, counts)` always
    /// selects the same cells.
    pub fn seeded(seed: u64, n_cells: usize, panics: usize, stalls: usize) -> Self {
        let mut plan = FaultPlan::default();
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let kinds = [
            (panics, FaultKind::Panic { failures: u32::MAX }),
            (stalls, FaultKind::Stall),
        ];
        for (count, kind) in kinds {
            let mut placed = 0;
            // n_cells bounds the distinct cells available; stop rather
            // than loop forever once the plan saturates.
            while placed < count && plan.faults.len() < n_cells {
                let idx = (splitmix64(&mut state) % n_cells.max(1) as u64) as usize;
                if let std::collections::btree_map::Entry::Vacant(e) = plan.faults.entry(idx) {
                    e.insert(kind);
                    placed += 1;
                }
            }
        }
        plan
    }

    /// Adds or overrides one cell fault.
    #[must_use]
    pub fn with(mut self, index: usize, kind: FaultKind) -> Self {
        self.faults.insert(index, kind);
        self
    }

    /// Arms a trace-build panic for benchmark index `bi`: every cell of
    /// that benchmark is skipped with a manifest entry.
    #[must_use]
    pub fn with_trace_fault(mut self, bi: usize) -> Self {
        self.trace_faults.insert(bi, ());
        self
    }

    /// Arms a checkpoint fault for benchmark index `bi`.
    #[must_use]
    pub fn with_ckpt_fault(mut self, bi: usize, fault: CkptFault) -> Self {
        self.ckpt_faults.insert(bi, fault);
        self
    }

    /// The fault (if any) armed on cell `index`.
    pub fn fault_for(&self, index: usize) -> Option<FaultKind> {
        self.faults.get(&index).copied()
    }

    /// Is benchmark index `bi`'s trace build armed to fail?
    pub fn trace_fault_for(&self, bi: usize) -> bool {
        self.trace_faults.contains_key(&bi)
    }

    /// The checkpoint fault (if any) armed on benchmark index `bi`.
    pub fn ckpt_fault_for(&self, bi: usize) -> Option<CkptFault> {
        self.ckpt_faults.get(&bi).copied()
    }

    /// The faulted cell indices, ascending.
    pub fn cells(&self) -> Vec<usize> {
        self.faults.keys().copied().collect()
    }

    /// Executes the cell fault armed on `index`, if any, for the given
    /// 1-based `attempt`. Called by the sweep's cell job before the real
    /// simulation. Stalls spin in short sleeps until `cancelled` is set
    /// by the watchdog (so a timed-out stall still lets its worker
    /// thread rejoin the pool).
    ///
    /// # Panics
    ///
    /// Panics by design when a `Panic` fault is armed for this attempt —
    /// that is the injected fault.
    pub fn arm(&self, index: usize, attempt: u32, cancelled: &AtomicBool) {
        match self.fault_for(index) {
            Some(FaultKind::Panic { failures }) if attempt <= failures => {
                panic!("injected fault: cell {index} panicked (attempt {attempt})");
            }
            Some(FaultKind::Stall) => {
                while !cancelled.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            _ => {}
        }
    }

    /// Parses `HBAT_FAULT_PLAN` (see module docs); `None` when unset.
    /// Malformed specs warn to stderr and yield an empty plan rather
    /// than aborting the run.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("HBAT_FAULT_PLAN").ok()?;
        Some(Self::parse(&raw, usize::MAX))
    }

    /// Parses a plan spec. `n_cells` bounds seeded selection (pass the
    /// sweep's cell count, or `usize::MAX` to defer bounding).
    pub fn parse(spec: &str, n_cells: usize) -> Self {
        let mut seed = 0u64;
        let mut counts = [0usize; 2]; // panic, stall
        let mut explicit: Vec<(usize, FaultKind)> = Vec::new();
        let mut explicit_ckpt: Vec<(usize, CkptFault)> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some((key, value)) = part.split_once('=') {
                match (key.trim(), value.trim().parse::<u64>()) {
                    ("seed", Ok(v)) => seed = v,
                    ("panic", Ok(v)) => counts[0] = v as usize,
                    ("stall", Ok(v)) => counts[1] = v as usize,
                    _ => eprintln!("warning: ignoring fault-plan term {part:?}"),
                }
            } else if let Some((kind, at)) = part.split_once('@') {
                let cell_kind = match kind.trim() {
                    "panic" => Some(FaultKind::Panic { failures: u32::MAX }),
                    "panic_once" => Some(FaultKind::Panic { failures: 1 }),
                    "stall" => Some(FaultKind::Stall),
                    _ => None,
                };
                let ckpt_kind = match kind.trim() {
                    "ff_panic" => Some(CkptFault::FfPanic),
                    "ckpt_torn" => Some(CkptFault::Torn),
                    "ckpt_flip" => Some(CkptFault::BitFlip),
                    "ckpt_trunc" => Some(CkptFault::Truncate),
                    "ckpt_version" => Some(CkptFault::VersionMismatch),
                    "ckpt_fp" => Some(CkptFault::FingerprintMismatch),
                    _ => None,
                };
                match (cell_kind, ckpt_kind, at.trim().parse::<usize>()) {
                    (Some(k), _, Ok(idx)) => explicit.push((idx, k)),
                    (_, Some(f), Ok(bi)) => explicit_ckpt.push((bi, f)),
                    _ => eprintln!("warning: ignoring fault-plan term {part:?}"),
                }
            } else {
                eprintln!("warning: ignoring fault-plan term {part:?}");
            }
        }
        let bound = if n_cells == usize::MAX {
            counts.iter().sum::<usize>().max(1) * 64
        } else {
            n_cells
        };
        let mut plan = FaultPlan::seeded(seed, bound, counts[0], counts[1]);
        for (idx, kind) in explicit {
            plan = plan.with(idx, kind);
        }
        for (bi, fault) in explicit_ckpt {
            plan = plan.with_ckpt_fault(bi, fault);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_disjoint() {
        let a = FaultPlan::seeded(7, 130, 3, 2);
        let b = FaultPlan::seeded(7, 130, 3, 2);
        assert_eq!(a.cells(), b.cells());
        assert_eq!(a.len(), 5, "faults land on distinct cells");
        for idx in a.cells() {
            assert!(idx < 130);
            assert_eq!(a.fault_for(idx), b.fault_for(idx));
        }
        let c = FaultPlan::seeded(8, 130, 3, 2);
        assert_ne!(a.cells(), c.cells(), "different seed, different cells");
    }

    #[test]
    fn saturated_plan_stops_at_cell_count() {
        let p = FaultPlan::seeded(1, 4, 10, 10);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn arm_panics_only_for_armed_attempts() {
        let plan = FaultPlan::none().with(3, FaultKind::Panic { failures: 1 });
        let cancelled = AtomicBool::new(false);
        // Unfaulted cell: no-op.
        plan.arm(0, 1, &cancelled);
        // Attempt 1 panics…
        let r = std::panic::catch_unwind(|| plan.arm(3, 1, &cancelled));
        assert!(r.is_err());
        // …attempt 2 succeeds (transient fault).
        plan.arm(3, 2, &cancelled);
    }

    #[test]
    fn stall_returns_once_cancelled() {
        let plan = FaultPlan::none().with(0, FaultKind::Stall);
        let cancelled = AtomicBool::new(true);
        plan.arm(0, 1, &cancelled); // already cancelled: returns at once
    }

    #[test]
    fn parse_counts_and_explicit_cells() {
        let p = FaultPlan::parse("seed=9, panic=2, stall@7, panic_once@11", 100);
        assert!(p.len() >= 3);
        assert_eq!(p.fault_for(7), Some(FaultKind::Stall));
        assert_eq!(p.fault_for(11), Some(FaultKind::Panic { failures: 1 }));
        let q = FaultPlan::parse("panic_once@0", 10);
        assert_eq!(q.fault_for(0), Some(FaultKind::Panic { failures: 1 }));
        assert!(FaultPlan::parse("garbage", 10).is_empty());
        // Unknown fault kinds are ignored with a warning.
        assert!(FaultPlan::parse("corrupt@3, corrupt=2", 10).is_empty());
    }

    #[test]
    fn trace_faults_tracked_separately() {
        let p = FaultPlan::none().with_trace_fault(2);
        assert!(p.trace_fault_for(2));
        assert!(!p.trace_fault_for(0));
        assert!(!p.is_empty());
        assert_eq!(p.len(), 0, "trace faults are not cell faults");
    }

    #[test]
    fn ckpt_faults_tracked_separately_and_parse() {
        let p = FaultPlan::none().with_ckpt_fault(3, CkptFault::Torn);
        assert_eq!(p.ckpt_fault_for(3), Some(CkptFault::Torn));
        assert_eq!(p.ckpt_fault_for(0), None);
        assert!(!p.is_empty());
        assert_eq!(p.len(), 0, "ckpt faults are not cell faults");

        let q = FaultPlan::parse(
            "ff_panic@0, ckpt_torn@1, ckpt_flip@2, ckpt_trunc@3, ckpt_version@4, ckpt_fp@5",
            200,
        );
        assert_eq!(q.ckpt_fault_for(0), Some(CkptFault::FfPanic));
        assert_eq!(q.ckpt_fault_for(1), Some(CkptFault::Torn));
        assert_eq!(q.ckpt_fault_for(2), Some(CkptFault::BitFlip));
        assert_eq!(q.ckpt_fault_for(3), Some(CkptFault::Truncate));
        assert_eq!(q.ckpt_fault_for(4), Some(CkptFault::VersionMismatch));
        assert_eq!(q.ckpt_fault_for(5), Some(CkptFault::FingerprintMismatch));
        assert_eq!(q.len(), 0, "no cell faults from ckpt terms");
    }
}
