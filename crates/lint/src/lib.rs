//! `hbat-lint`: workspace-native static analysis for the HBAT simulator.
//!
//! Six rules, each toggleable (see `DESIGN.md` § "Static analysis" and
//! § "Interprocedural lint"):
//!
//! * **R1 determinism** — no hash-ordered iteration feeding output, no
//!   wall clocks in simulation crates;
//! * **R2 hot-path hygiene** — no allocation APIs inside
//!   `// hbat-lint: hot` regions;
//! * **R3 panic policy** — no undocumented panics in library code of the
//!   panic-policy crates;
//! * **R4 shim drift** — every import from a shimmed crate must exist in
//!   the shim's source;
//! * **R5 hot propagation** — no allocation APIs in any function
//!   transitively reachable from a hot region, across files and crates;
//! * **R6 panic reachability** — no undocumented panic sites in any
//!   function transitively reachable from the engine hot entry points
//!   (`Engine::run`, `Machine::execute`).
//!
//! The tool is deliberately dependency-free: it lexes Rust with its own
//! lightweight lexer ([`lexer`]), parses items with its own item-level
//! parser ([`parse`]), and resolves calls with a pragmatic heuristic
//! ([`graph`]) — no `syn`. That keeps it honest about what it can know
//! (suppressions and the explicit ambiguity bucket exist for the rest)
//! and buildable in an offline environment.

pub mod baseline;
pub mod context;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod propagate;
pub mod rules;
pub mod walk;

use std::collections::BTreeMap;

use diag::{Diagnostic, Rule};
use rules::{classify, collect_shim_imports, lint_file, shim_drift, shim_exports, LintOptions};

/// The parsed workspace, its call graph, and the propagation results —
/// everything `--graph` dumps and the interprocedural rules consume.
pub struct WorkspaceAnalysis {
    pub files: Vec<parse::FileInfo>,
    pub graph: graph::CallGraph,
    pub propagation: propagate::Propagation,
}

/// Parses the workspace and runs both propagation passes.
pub fn analyze_workspace(files: &[(String, String)]) -> WorkspaceAnalysis {
    let parsed = parse::parse_workspace(files);
    let g = graph::build(&parsed);
    let p = propagate::propagate(&parsed, &g);
    WorkspaceAnalysis {
        files: parsed,
        graph: g,
        propagation: p,
    }
}

/// Lints a whole workspace given `(relative path, contents)` pairs.
/// Shim sources are the reference for R4 and exempt from R1–R3;
/// R5/R6 run over the interprocedural call graph of the non-shim files.
pub fn lint_workspace(files: &[(String, String)], opts: &LintOptions) -> Vec<Diagnostic> {
    // Group shim sources by crate directory name.
    let mut shim_sources: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for (rel, src) in files {
        let class = classify(rel);
        if class.shim {
            if let Some(root) = class.crate_dir {
                shim_sources.entry(root).or_default().push(src.as_str());
            }
        }
    }
    let exports: BTreeMap<String, std::collections::BTreeSet<String>> = shim_sources
        .iter()
        .map(|(root, sources)| (root.clone(), shim_exports(sources)))
        .collect();

    let run_r4 = opts.rule_mask & diag::Rule::ShimDrift.bit() != 0;
    let mut out = Vec::new();
    for (rel, src) in files {
        if classify(rel).shim {
            continue;
        }
        out.extend(lint_file(rel, src, opts));
        if run_r4 {
            let imports = collect_shim_imports(src);
            out.extend(shim_drift(rel, &imports, &exports));
        }
    }

    let run_r5 = opts.rule_mask & Rule::HotProp.bit() != 0;
    let run_r6 = opts.rule_mask & Rule::PanicReach.bit() != 0;
    if run_r5 || run_r6 {
        let ws = analyze_workspace(files);
        if run_r5 {
            out.extend(propagate::rule_hot_prop(
                &ws.files,
                &ws.graph,
                &ws.propagation,
            ));
        }
        if run_r6 {
            out.extend(propagate::rule_panic_reach(
                &ws.files,
                &ws.graph,
                &ws.propagation,
            ));
        }
    }

    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag::Rule;

    #[test]
    fn workspace_run_combines_rules_and_skips_shims() {
        let files = vec![
            (
                "shims/rand/src/lib.rs".to_string(),
                // unwrap in a shim must not be flagged
                "pub struct SmallRng;\npub fn seed() { None::<u32>.unwrap(); }\n".to_string(),
            ),
            (
                "crates/core/src/x.rs".to_string(),
                "use rand::SmallRng;\nuse rand::Missing;\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"
                    .to_string(),
            ),
        ];
        let d = lint_workspace(&files, &LintOptions::default());
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::ShimDrift && d.message.contains("Missing")));
        assert!(!d.iter().any(|d| d.message.contains("SmallRng")));
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::PanicPolicy && d.file.contains("core")));
        assert!(!d.iter().any(|d| d.file.starts_with("shims/")));
    }

    #[test]
    fn interprocedural_rules_fire_through_lint_workspace() {
        let files = vec![
            (
                "crates/cpu/src/engine.rs".to_string(),
                "use hbat_mem::grow;\n// hbat-lint: hot\nfn scan() { grow(); }\n// hbat-lint: cold\n"
                    .to_string(),
            ),
            (
                "crates/mem/src/lib.rs".to_string(),
                "pub fn grow() { let v: Vec<u32> = Vec::new(); let _ = v; }\n".to_string(),
            ),
        ];
        let d = lint_workspace(&files, &LintOptions::default());
        assert!(
            d.iter().any(|d| d.rule == Rule::HotProp),
            "R5 must cross the crate boundary: {d:#?}"
        );
        // And toggling R5 off silences it.
        let opts = LintOptions {
            rule_mask: diag::all_rules_mask() & !Rule::HotProp.bit(),
        };
        let d = lint_workspace(&files, &opts);
        assert!(d.iter().all(|d| d.rule != Rule::HotProp), "{d:#?}");
    }
}
