//! Per-cell execution outcomes for the fault-tolerant sweep executor.
//!
//! The executor never lets one cell's failure take down the sweep: every
//! cell runs under `catch_unwind`, and its result slot records what
//! happened as a [`CellOutcome`]. A sweep then reports the completed
//! cells as partial results and the failed ones through a
//! [`FailureManifest`], instead of unwinding through
//! `std::thread::scope` and losing everything (the pre-fault-tolerance
//! behaviour).

use std::any::Any;
use std::fmt;

/// What happened to one scheduled cell.
pub enum CellOutcome<T> {
    /// The cell completed and produced a value.
    Ok(T),
    /// Every attempt panicked; the original payload is preserved so the
    /// compatibility wrapper can re-raise it unchanged.
    Panicked {
        /// Human-readable panic message extracted from the payload.
        msg: String,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The final attempt's original panic payload.
        payload: Box<dyn Any + Send>,
    },
    /// The watchdog cancelled the cell after its deadline passed.
    TimedOut {
        /// Attempts made before the deadline expired.
        attempts: u32,
    },
    /// The cell never ran (e.g. its benchmark's trace failed to build).
    Skipped {
        /// Why the cell was not run.
        reason: String,
    },
}

impl<T> CellOutcome<T> {
    /// The completed value, if any.
    pub fn ok(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome, returning the completed value if any.
    pub fn into_ok(self) -> Option<T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Chains a completed cell into `f`; a failed cell keeps its
    /// failure whatever `f` would have made of it.
    pub fn and_then<U>(self, f: impl FnOnce(T) -> CellOutcome<U>) -> CellOutcome<U> {
        match self {
            CellOutcome::Ok(v) => f(v),
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
        }
    }

    /// Did the cell complete?
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// Short machine-readable tag (`ok`, `panicked`, `timed_out`,
    /// `skipped`) used by manifests and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Panicked { .. } => "panicked",
            CellOutcome::TimedOut { .. } => "timed_out",
            CellOutcome::Skipped { .. } => "skipped",
        }
    }

    /// Failure detail for manifests (empty for `Ok`).
    pub fn detail(&self) -> String {
        match self {
            CellOutcome::Ok(_) => String::new(),
            CellOutcome::Panicked { msg, .. } => msg.clone(),
            CellOutcome::TimedOut { .. } => "deadline exceeded".to_owned(),
            CellOutcome::Skipped { reason } => reason.clone(),
        }
    }

    /// Attempts recorded on the outcome (0 for `Skipped`, 1 for `Ok` —
    /// successful retries are folded into `Ok`).
    pub fn attempts(&self) -> u32 {
        match self {
            CellOutcome::Ok(_) => 1,
            CellOutcome::Panicked { attempts, .. } | CellOutcome::TimedOut { attempts } => {
                *attempts
            }
            CellOutcome::Skipped { .. } => 0,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for CellOutcome<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellOutcome::Ok(v) => f.debug_tuple("Ok").field(v).finish(),
            CellOutcome::Panicked { msg, attempts, .. } => f
                .debug_struct("Panicked")
                .field("msg", msg)
                .field("attempts", attempts)
                .finish(),
            CellOutcome::TimedOut { attempts } => f
                .debug_struct("TimedOut")
                .field("attempts", attempts)
                .finish(),
            CellOutcome::Skipped { reason } => {
                f.debug_struct("Skipped").field("reason", reason).finish()
            }
        }
    }
}

/// Extracts a printable message from a panic payload (`&str` and
/// `String` payloads cover `panic!` with and without formatting).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One failed cell of a sweep, identified for the failure manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Flat cell index in the sweep's schedule.
    pub index: usize,
    /// Benchmark name.
    pub bench: String,
    /// Design mnemonic.
    pub design: String,
    /// Outcome tag (`panicked`, `timed_out`, `skipped`).
    pub kind: String,
    /// Panic message, timeout note, or skip reason.
    pub detail: String,
    /// Attempts made on the cell.
    pub attempts: u32,
}

/// The failed cells of a sweep, in schedule order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureManifest {
    /// One record per failed cell.
    pub failures: Vec<CellFailure>,
}

impl FailureManifest {
    /// True when every cell completed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of failed cells.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// Renders the manifest as a human-readable block (empty string when
    /// there are no failures).
    pub fn render(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!("{} cell(s) failed:\n", self.failures.len());
        for f in &self.failures {
            out.push_str(&format!(
                "  [{}] {} x {}: {} after {} attempt(s) — {}\n",
                f.index, f.bench, f.design, f.kind, f.attempts, f.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        let ok: CellOutcome<u32> = CellOutcome::Ok(7);
        assert!(ok.is_ok());
        assert_eq!(ok.ok(), Some(&7));
        assert_eq!(ok.kind(), "ok");
        assert_eq!(ok.attempts(), 1);

        let timed: CellOutcome<u32> = CellOutcome::TimedOut { attempts: 2 };
        assert!(!timed.is_ok());
        assert_eq!(timed.kind(), "timed_out");
        assert_eq!(timed.detail(), "deadline exceeded");
        assert_eq!(timed.into_ok(), None);

        let skipped: CellOutcome<u32> = CellOutcome::Skipped {
            reason: "trace build failed".into(),
        };
        assert_eq!(skipped.kind(), "skipped");
        assert_eq!(skipped.attempts(), 0);
    }

    #[test]
    fn and_then_chains_completions_and_keeps_failures() {
        let ok: CellOutcome<u32> = CellOutcome::Ok(7);
        assert_eq!(ok.and_then(|v| CellOutcome::Ok(v * 2)).into_ok(), Some(14));
        let ok: CellOutcome<u32> = CellOutcome::Ok(7);
        let skipped = ok.and_then(|_| CellOutcome::<u32>::Skipped {
            reason: "no trace".into(),
        });
        assert_eq!(skipped.detail(), "no trace");
        let timed: CellOutcome<u32> = CellOutcome::TimedOut { attempts: 3 };
        let timed = timed.and_then(|v| CellOutcome::Ok(v + 1));
        assert_eq!((timed.kind(), timed.attempts()), ("timed_out", 3));
        let p: CellOutcome<u32> = CellOutcome::Panicked {
            msg: "boom".into(),
            attempts: 2,
            payload: Box::new("boom"),
        };
        let p = p.and_then(|v| CellOutcome::Ok(v + 1));
        assert_eq!(
            (p.kind(), p.detail(), p.attempts()),
            ("panicked", "boom".to_owned(), 2)
        );
    }

    #[test]
    fn panic_message_extraction() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static message");
        assert_eq!(panic_message(boxed.as_ref()), "static message");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted"));
        assert_eq!(panic_message(boxed.as_ref()), "formatted");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }

    #[test]
    fn manifest_renders_failures() {
        let mut m = FailureManifest::default();
        assert!(m.is_empty());
        assert_eq!(m.render(), "");
        m.failures.push(CellFailure {
            index: 3,
            bench: "Compress".into(),
            design: "T4".into(),
            kind: "panicked".into(),
            detail: "boom".into(),
            attempts: 2,
        });
        let s = m.render();
        assert!(s.contains("1 cell(s) failed"));
        assert!(s.contains("[3] Compress x T4: panicked after 2 attempt(s) — boom"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn debug_formats_without_payload() {
        let p: CellOutcome<u32> = CellOutcome::Panicked {
            msg: "boom".into(),
            attempts: 1,
            payload: Box::new("boom"),
        };
        let s = format!("{p:?}");
        assert!(s.contains("Panicked") && s.contains("boom"));
    }
}
