//! Scoped wall-clock self-profiling for the simulator itself.
//!
//! ROADMAP item 1 stalled on a flat line profile: after the micro-op
//! rewrite no single function dominates, so the next optimization
//! round needs *phase*-level attribution — how long trace build,
//! warm restore, the detailed run, and report rendering
//! actually take — not another line profiler. This module is that
//! attribution: a dependency-free scoped timer, hierarchical (nested
//! scopes join their names with `/`), counted, and off by default.
//!
//! Enable with the `HBAT_PROF` environment variable (any value except
//! `0`/empty) or [`set_enabled`]; when off, [`scope`] is a no-op that
//! takes no lock and reads no clock. Scopes aggregate into a global
//! table keyed by path — [`report`] snapshots it, [`render_report`]
//! formats it, and the sweep executor folds the busiest phase into its
//! heartbeat line.
//!
//! Wall-clock time is observational only: nothing here feeds back into
//! the simulation, so the determinism contract of the recorders is
//! untouched.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant; // hbat-lint: allow(determinism) wall clock is observational only; nothing feeds back into the simulation

/// 0 = not yet read from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

static TABLE: Mutex<BTreeMap<String, (u64, u128)>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn table() -> std::sync::MutexGuard<'static, BTreeMap<String, (u64, u128)>> {
    // A panic inside a scope's drop can poison the lock; the table is
    // plain counters, so recover rather than propagate.
    TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether profiling is on (lazily initialized from `HBAT_PROF` on
/// first call; `0` or an empty value means off).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = matches!(std::env::var("HBAT_PROF"), Ok(v) if !v.is_empty() && v != "0");
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns profiling on or off for the whole process (the CLI `--prof`
/// flag overrides the environment through this).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Discards all recorded samples (the on/off state is kept).
pub fn reset() {
    table().clear();
}

/// A live scope timer; its `Drop` records one sample. Created by
/// [`scope`] — inactive (and free) when profiling is off.
#[must_use = "a prof scope measures the span it is alive for"]
pub struct Scope {
    /// Full `/`-joined path and start time, `None` when profiling is
    /// off.
    live: Option<(String, Instant)>, // hbat-lint: allow(determinism) observational timing only
}

/// Opens a named scope. Nested scopes *on the same thread* record
/// under `parent/child` paths; a scope opened on a worker thread
/// starts a fresh path (phase names in the bench pipeline are chosen
/// to stay meaningful either way).
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope { live: None };
    }
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.to_owned()
        } else {
            let mut p = stack.join("/");
            p.push('/');
            p.push_str(name);
            p
        };
        stack.push(name);
        path
    });
    Scope {
        live: Some((path, Instant::now())), // hbat-lint: allow(determinism) observational timing only
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some((path, start)) = self.live.take() else {
            return;
        };
        let nanos = start.elapsed().as_nanos();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut table = table();
        let entry = table.entry(path).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += nanos;
    }
}

/// One aggregated row of the profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfEntry {
    /// `/`-joined scope path.
    pub path: String,
    /// Completed scopes at this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across them.
    pub nanos: u128,
}

impl ProfEntry {
    /// Total milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Snapshot of every recorded path, sorted by path (so children follow
/// their parents).
pub fn report() -> Vec<ProfEntry> {
    table()
        .iter()
        .map(|(path, &(count, nanos))| ProfEntry {
            path: path.clone(),
            count,
            nanos,
        })
        .collect()
}

/// The busiest *root* phase as a compact `name time` fragment for the
/// executor heartbeat, or `None` when nothing was recorded.
pub fn busiest_root() -> Option<String> {
    report()
        .into_iter()
        .filter(|e| !e.path.contains('/'))
        .max_by_key(|e| e.nanos)
        .map(|e| format!("{} {:.1}s", e.path, e.nanos as f64 / 1e9))
}

/// The profile as an aligned text table (empty string when nothing was
/// recorded — e.g. profiling was never enabled).
pub fn render_report() -> String {
    let rows = report();
    if rows.is_empty() {
        return String::new();
    }
    let width = rows.iter().map(|e| e.path.len()).max().unwrap_or(0);
    let mut out = String::from("self-profile (wall clock):\n");
    for e in &rows {
        let mean = e.millis() / e.count.max(1) as f64;
        out.push_str(&format!(
            "  {:width$}  {:>8} calls  {:>10.2} ms total  {:>9.3} ms/call\n",
            e.path,
            e.count,
            e.millis(),
            mean,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The prof table and switch are process-global; serialize the
    // tests that touch them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = locked();
        set_enabled(false);
        reset();
        {
            let _s = scope("off");
        }
        assert!(report().is_empty());
        assert_eq!(render_report(), "");
        assert_eq!(busiest_root(), None);
    }

    #[test]
    fn scopes_count_and_nest_hierarchically() {
        let _guard = locked();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _outer = scope("build");
            let _inner = scope("predecode");
        }
        {
            let _run = scope("run");
        }
        let rows = report();
        set_enabled(false);

        let paths: Vec<&str> = rows.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["build", "build/predecode", "run"]);
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[1].count, 3);
        assert_eq!(rows[2].count, 1);
        assert!(
            rows[0].nanos >= rows[1].nanos,
            "a parent covers at least its child"
        );

        let rendered = render_report();
        assert!(rendered.starts_with("self-profile"));
        assert!(rendered.contains("build/predecode"));
        assert!(rendered.contains("3 calls"));
    }

    #[test]
    fn busiest_root_ignores_children_and_reset_clears() {
        let _guard = locked();
        set_enabled(true);
        reset();
        {
            let _a = scope("alpha");
            let _child = scope("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = scope("beta");
        }
        let top = busiest_root().expect("two roots recorded");
        set_enabled(false);
        assert!(top.starts_with("alpha "), "{top}");
        assert!(!top.contains('/'));
        reset();
        assert!(report().is_empty());
    }
}
