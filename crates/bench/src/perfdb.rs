//! The performance-regression database: `hbat perfdb add | check`.
//!
//! Every macro-benchmark (`obs_bench`, `sample_bench`, `sweep_bench`)
//! already writes a flat `results/BENCH_*.json` report. This module
//! turns those one-off reports into a history and a gate:
//!
//! * **add** appends one flat JSONL record per report to an append-only
//!   database (`results/perf.jsonl` by convention), keyed by the
//!   benchmark name, a fingerprint of the report's identity fields, and
//!   a host tag — so numbers from different machines, scales, or
//!   workloads never get compared by accident.
//! * **check** evaluates the *current* reports against a checked-in
//!   frozen baseline (`results/perf_baseline.jsonl`): one check per
//!   line, each a `min`/`max` bound or an `equals` assertion on a
//!   single metric. CI fails when any check fails.
//!
//! Two deliberate restrictions keep the gate honest on shared runners:
//! records carry **no timestamps** (the history is ordered by append
//! position; determinism audits stay clean), and baselines should bound
//! only **noise-robust ratio metrics** (`overhead_frac`, `speedup`,
//! `identical_metrics`) — wall-clock milliseconds are recorded in the
//! database for trend analysis but are too machine-dependent to gate
//! on. Both formats are flat JSON objects: the journal's strict parser
//! ([`crate::journal::parse_scalars`]) has no array support, and a
//! line-oriented diff of the database stays readable.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::executor::escape_json;
use crate::journal::{fnv1a_hex, parse_scalars, JournalWriter, Scalar};

/// Perf-database record/baseline format version; bump on incompatible
/// changes.
pub const PERFDB_VERSION: u64 = 1;

/// The host tag for a record: an explicit `--host` wins, then the
/// `HBAT_HOST` environment variable, then a fixed fallback. CI sets
/// `HBAT_HOST` to the runner class so its numbers never blend with a
/// laptop's.
pub fn host_tag(explicit: Option<&str>) -> String {
    if let Some(h) = explicit {
        return h.to_owned();
    }
    match std::env::var("HBAT_HOST") {
        Ok(h) if !h.is_empty() => h,
        _ => "unknown-host".to_owned(),
    }
}

/// Renders one scalar back to JSON.
fn render_scalar(s: &Scalar) -> String {
    match s {
        Scalar::Str(v) => escape_json(v),
        Scalar::Int(v) => v.to_string(),
        Scalar::Num(v) => {
            // `{}` on f64 round-trips; a fractionless float renders as
            // an integer literal, which is still a valid JSON number.
            format!("{v}")
        }
        Scalar::Bool(v) => v.to_string(),
        Scalar::Null => "null".to_owned(),
    }
}

/// The scalar as a comparison string: booleans and strings unify
/// (`"true"` in one report, `true` in another — both benches mean the
/// same flag), numbers via [`Scalar::as_f64`].
fn scalar_text(s: &Scalar) -> String {
    match s {
        Scalar::Str(v) => v.clone(),
        Scalar::Bool(v) => v.to_string(),
        other => render_scalar(other),
    }
}

/// Loose scalar equality for `equals` checks: numerically when both
/// sides are numbers, otherwise on the unified text form (so a baseline
/// `"true"` matches a report's bool `true`).
fn scalar_eq(a: &Scalar, b: &Scalar) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => scalar_text(a) == scalar_text(b),
    }
}

/// Fingerprints a report's identity: the string and integer fields
/// (benchmark, scale, workload, design, instruction count, reps — what
/// was measured), excluding every float (the measurements themselves)
/// and boolean (verdicts). Two records compare meaningfully only when
/// their fingerprints match.
pub fn config_fingerprint(report: &BTreeMap<String, Scalar>) -> String {
    let mut identity = String::new();
    for (k, v) in report {
        match v {
            Scalar::Str(_) | Scalar::Int(_) => {
                identity.push_str(k);
                identity.push('=');
                identity.push_str(&scalar_text(v));
                identity.push(';');
            }
            _ => {}
        }
    }
    fnv1a_hex(&identity)
}

/// Renders one database record for a parsed report: version, benchmark
/// name, config fingerprint, and host tag first, then every report
/// field verbatim (sorted). Flat by construction — the report parser
/// already rejected nesting.
///
/// # Errors
///
/// The report must carry a string `benchmark` field.
pub fn render_perf_record(report: &BTreeMap<String, Scalar>, host: &str) -> Result<String, String> {
    let Some(Scalar::Str(bench)) = report.get("benchmark") else {
        return Err("report has no string \"benchmark\" field".to_owned());
    };
    let mut out = format!(
        "{{\"v\":{PERFDB_VERSION},\"bench\":{},\"config\":{},\"host\":{}",
        escape_json(bench),
        escape_json(&config_fingerprint(report)),
        escape_json(host),
    );
    for (k, v) in report {
        if k == "benchmark" {
            continue; // already the "bench" key
        }
        out.push(',');
        out.push_str(&escape_json(k));
        out.push(':');
        out.push_str(&render_scalar(v));
    }
    out.push('}');
    Ok(out)
}

/// Reads and strictly parses one flat `BENCH_*.json` report.
///
/// # Errors
///
/// I/O errors, malformed JSON, or nested fields.
pub fn read_report(path: &Path) -> io::Result<BTreeMap<String, Scalar>> {
    let text = std::fs::read_to_string(path)?;
    parse_scalars(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Appends one report to the database file, returning the appended
/// line. The write shares the journal's append + flush discipline, so
/// concurrent adders interleave whole lines.
///
/// # Errors
///
/// I/O errors or a malformed report.
pub fn add_report(report_path: &Path, db_path: &Path, host: &str) -> io::Result<String> {
    let report = read_report(report_path)?;
    let line = render_perf_record(&report, host)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    JournalWriter::append_to(db_path)?.append_line(&line)?;
    Ok(line)
}

/// One baseline assertion: a bound or equality on one metric of one
/// benchmark's report.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheck {
    /// The report's `benchmark` field this check applies to.
    pub bench: String,
    /// The report field under test.
    pub metric: String,
    /// The assertion.
    pub kind: CheckKind,
}

/// What a [`BaselineCheck`] asserts about its metric.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckKind {
    /// The metric must be `<=` this bound (a regression *ceiling*:
    /// overhead fractions, error rates).
    Max(f64),
    /// The metric must be `>=` this bound (a regression *floor*:
    /// speedups).
    Min(f64),
    /// The metric must equal this value (correctness verdicts like
    /// `identical_metrics`).
    Equals(Scalar),
}

/// Parses one baseline line:
/// `{"v":1,"bench":"obs_overhead","metric":"overhead_frac","max":0.35}`
/// with exactly one of `max`, `min`, or `equals`.
///
/// # Errors
///
/// Malformed JSON, wrong version, missing fields, or zero/multiple
/// assertion keys.
pub fn parse_baseline_line(line: &str) -> Result<BaselineCheck, String> {
    let m = parse_scalars(line)?;
    match m.get("v") {
        Some(Scalar::Int(v)) if *v == PERFDB_VERSION => {}
        other => {
            return Err(format!(
                "baseline version {other:?} (this build reads {PERFDB_VERSION})"
            ))
        }
    }
    let field = |k: &str| match m.get(k) {
        Some(Scalar::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {k:?}")),
    };
    let bench = field("bench")?;
    let metric = field("metric")?;
    let bound = |k: &str| m.get(k).and_then(Scalar::as_f64);
    let kinds: Vec<CheckKind> = [
        bound("max").map(CheckKind::Max),
        bound("min").map(CheckKind::Min),
        m.get("equals").cloned().map(CheckKind::Equals),
    ]
    .into_iter()
    .flatten()
    .collect();
    let mut kinds = kinds;
    let (Some(kind), true) = (kinds.pop(), kinds.is_empty()) else {
        return Err("need exactly one of \"max\", \"min\", \"equals\"".to_owned());
    };
    Ok(BaselineCheck {
        bench,
        metric,
        kind,
    })
}

/// Reads a baseline file: one check per line, blank lines skipped. A
/// malformed line is an error with its line number — a baseline is
/// checked-in configuration, so there is no torn-tail tolerance here.
///
/// # Errors
///
/// I/O errors or any malformed line.
pub fn read_baseline(path: &Path) -> io::Result<Vec<BaselineCheck>> {
    let text = std::fs::read_to_string(path)?;
    let mut checks = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let check = parse_baseline_line(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?;
        checks.push(check);
    }
    Ok(checks)
}

/// One evaluated check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The assertion that ran.
    pub check: BaselineCheck,
    /// The metric's value in the report (`None` when absent — a fail).
    pub actual: Option<Scalar>,
    /// Whether the assertion held.
    pub pass: bool,
}

/// Evaluates every check whose `bench` matches the report's `benchmark`
/// field. A check naming a metric the report lacks fails — a silently
/// dropped metric must not read as a pass.
pub fn check_report(
    report: &BTreeMap<String, Scalar>,
    checks: &[BaselineCheck],
) -> Vec<CheckOutcome> {
    let bench = match report.get("benchmark") {
        Some(Scalar::Str(b)) => b.clone(),
        _ => return Vec::new(),
    };
    checks
        .iter()
        .filter(|c| c.bench == bench)
        .map(|c| {
            let actual = report.get(&c.metric).cloned();
            let pass = match (&actual, &c.kind) {
                (Some(a), CheckKind::Max(bound)) => a.as_f64().is_some_and(|v| v <= *bound),
                (Some(a), CheckKind::Min(bound)) => a.as_f64().is_some_and(|v| v >= *bound),
                (Some(a), CheckKind::Equals(want)) => scalar_eq(a, want),
                (None, _) => false,
            };
            CheckOutcome {
                check: c.clone(),
                actual,
                pass,
            }
        })
        .collect()
}

/// Renders one outcome as a human-readable line:
/// `PASS obs_overhead overhead_frac=0.28 (max 0.35)`.
pub fn render_outcome(o: &CheckOutcome) -> String {
    let verdict = if o.pass { "PASS" } else { "FAIL" };
    let actual = match &o.actual {
        Some(s) => scalar_text(s),
        None => "<missing>".to_owned(),
    };
    let bound = match &o.check.kind {
        CheckKind::Max(b) => format!("max {b}"),
        CheckKind::Min(b) => format!("min {b}"),
        CheckKind::Equals(want) => format!("equals {}", scalar_text(want)),
    };
    format!(
        "{verdict} {} {}={actual} ({bound})",
        o.check.bench, o.check.metric
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(json: &str) -> BTreeMap<String, Scalar> {
        parse_scalars(json).unwrap()
    }

    const OBS: &str = r#"{
        "benchmark": "obs_overhead",
        "scale": "small",
        "workload": "Compress",
        "design": "M8",
        "instructions": 451618,
        "reps": 5,
        "null_ms": 93.5,
        "traced_ms": 102.9,
        "overhead_frac": 0.1,
        "identical_metrics": "true"
    }"#;

    #[test]
    fn record_is_flat_jsonl_with_identity_first() {
        let r = report(OBS);
        let line = render_perf_record(&r, "ci-ubuntu").unwrap();
        assert!(line.starts_with("{\"v\":1,\"bench\":\"obs_overhead\",\"config\":\""));
        assert!(line.contains("\"host\":\"ci-ubuntu\""));
        assert!(line.contains("\"overhead_frac\":0.1"));
        assert!(!line.contains("\"benchmark\""), "renamed to bench");
        // The rendered record is itself a valid flat object.
        let back = parse_scalars(&line).unwrap();
        assert_eq!(back.get("bench"), Some(&Scalar::Str("obs_overhead".into())));
        assert_eq!(back["config"], Scalar::Str(config_fingerprint(&r)));
    }

    #[test]
    fn fingerprint_keys_on_identity_not_measurements() {
        let a = report(OBS);
        // Same identity, different timings: same fingerprint.
        let b = report(&OBS.replace("93.5", "80.1").replace("0.1,", "0.2,"));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        // Different workload: different fingerprint.
        let c = report(&OBS.replace("Compress", "Xlisp"));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        // Different scale too.
        let d = report(&OBS.replace("\"small\"", "\"test\""));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&d));
    }

    #[test]
    fn baseline_lines_parse_and_reject_ambiguity() {
        let c = parse_baseline_line(
            r#"{"v":1,"bench":"obs_overhead","metric":"overhead_frac","max":0.35}"#,
        )
        .unwrap();
        assert_eq!(c.bench, "obs_overhead");
        assert_eq!(c.kind, CheckKind::Max(0.35));
        let c = parse_baseline_line(r#"{"v":1,"bench":"fig5_sweep","metric":"speedup","min":1}"#)
            .unwrap();
        assert_eq!(c.kind, CheckKind::Min(1.0));
        let c = parse_baseline_line(
            r#"{"v":1,"bench":"obs_overhead","metric":"identical_metrics","equals":"true"}"#,
        )
        .unwrap();
        assert_eq!(c.kind, CheckKind::Equals(Scalar::Str("true".into())));

        // No assertion, two assertions, wrong version: all rejected.
        assert!(parse_baseline_line(r#"{"v":1,"bench":"b","metric":"m"}"#).is_err());
        assert!(
            parse_baseline_line(r#"{"v":1,"bench":"b","metric":"m","max":1,"min":0}"#).is_err()
        );
        assert!(parse_baseline_line(r#"{"v":9,"bench":"b","metric":"m","max":1}"#).is_err());
    }

    #[test]
    fn checks_gate_bounds_equality_and_missing_metrics() {
        let r = report(OBS);
        let checks = vec![
            BaselineCheck {
                bench: "obs_overhead".into(),
                metric: "overhead_frac".into(),
                kind: CheckKind::Max(0.35),
            },
            BaselineCheck {
                bench: "obs_overhead".into(),
                metric: "overhead_frac".into(),
                kind: CheckKind::Min(0.2),
            },
            BaselineCheck {
                bench: "obs_overhead".into(),
                metric: "identical_metrics".into(),
                kind: CheckKind::Equals(Scalar::Bool(true)),
            },
            BaselineCheck {
                bench: "obs_overhead".into(),
                metric: "no_such_metric".into(),
                kind: CheckKind::Max(1.0),
            },
            BaselineCheck {
                bench: "other_bench".into(),
                metric: "overhead_frac".into(),
                kind: CheckKind::Max(0.0),
            },
        ];
        let out = check_report(&r, &checks);
        assert_eq!(out.len(), 4, "other_bench's check does not apply");
        assert!(out[0].pass, "0.1 <= 0.35");
        assert!(!out[1].pass, "0.1 < min 0.2 fails");
        assert!(out[2].pass, "string \"true\" equals bool true");
        assert!(!out[3].pass, "missing metric fails, never passes");
        assert_eq!(
            render_outcome(&out[0]),
            "PASS obs_overhead overhead_frac=0.1 (max 0.35)"
        );
        assert_eq!(
            render_outcome(&out[3]),
            "FAIL obs_overhead no_such_metric=<missing> (max 1)"
        );
    }

    #[test]
    fn add_appends_to_the_database_file() {
        let dir = std::env::temp_dir().join(format!("hbat-perfdb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("BENCH_obs.json");
        let db = dir.join("perf.jsonl");
        std::fs::remove_file(&db).ok();
        std::fs::write(&report_path, OBS).unwrap();

        let first = add_report(&report_path, &db, "host-a").unwrap();
        let second = add_report(&report_path, &db, "host-b").unwrap();
        let text = std::fs::read_to_string(&db).unwrap();
        assert_eq!(text, format!("{first}\n{second}\n"), "append-only");
        assert!(first.contains("\"host\":\"host-a\""));
        assert!(second.contains("\"host\":\"host-b\""));
        for line in text.lines() {
            parse_scalars(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_tag_prefers_explicit_over_env() {
        assert_eq!(host_tag(Some("laptop")), "laptop");
        // Explicit absent: env or fallback — both are fine here; we
        // only pin that the function never returns an empty tag.
        assert!(!host_tag(None).is_empty());
    }
}
