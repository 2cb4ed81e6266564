//! Propagation passes over the workspace call graph.
//!
//! * **R5 hot propagation** — the transitive closure of calls made on
//!   `hbat-lint: hot` lines inherits hot-ness; R2's allocation checks
//!   then fire inside every inherited function. Sites on literal hot
//!   lines are R2's jurisdiction and skipped here, so a finding is
//!   reported exactly once. Suppressing with `allow(hot)` or
//!   `allow(hot-prop)` at the site (or its function) both work.
//! * **R6 panic reachability** — every `panic!`-family macro,
//!   `.unwrap()`/`.expect(`, and computed-index site in a function
//!   transitively reachable from the engine hot entry points
//!   (`Engine::run`, `Machine::execute`) is reported, honoring the
//!   `# Panics` doc convention and `allow(panic)`/`allow(panic-reach)`
//!   suppressions from PR 2's panic policy.
//!
//! Both passes skip test code entirely and report a witness call chain
//! (`seed -> … -> offender`) so findings are actionable without
//! re-deriving the graph by hand.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Rule};
use crate::graph::CallGraph;
use crate::parse::{FileInfo, FnDef};

/// The engine hot entry points whose transitive callees must not panic:
/// `(impl type, method)`.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[("Engine", "run"), ("Machine", "execute")];

/// The result of both propagation passes, also consumed by `--graph`.
#[derive(Debug, Default)]
pub struct Propagation {
    /// Node indices hot by propagation (closure of hot-line calls).
    pub hot: Vec<usize>,
    /// Node indices reachable from the panic entry points (inclusive).
    pub panic_reachable: Vec<usize>,
    /// Witness parents for hot nodes.
    pub hot_parent: BTreeMap<usize, usize>,
    /// Witness parents for panic-reachable nodes.
    pub panic_parent: BTreeMap<usize, usize>,
    /// The entry nodes that seeded `panic_reachable`.
    pub entries: Vec<usize>,
}

fn node_def<'a>(files: &'a [FileInfo], g: &CallGraph, n: usize) -> &'a FnDef {
    let (fi, di) = g.nodes[n];
    &files[fi].fns[di]
}

/// Runs both propagation passes over the graph.
pub fn propagate(files: &[FileInfo], g: &CallGraph) -> Propagation {
    let mut p = Propagation::default();

    // --- hot seeds: callees of call edges whose site is on a hot line.
    // The function *containing* a hot region is deliberately not seeded:
    // its literal-hot sites are R2's jurisdiction, and its code outside
    // the region (setup/teardown) is not hot at all.
    let mut seeds: Vec<usize> = Vec::new();
    for n in 0..g.nodes.len() {
        let d = node_def(files, g, n);
        if d.test {
            continue;
        }
        let (fi, _) = g.nodes[n];
        let hot_ranges = &files[fi].hot;
        let in_hot = |line: u32| hot_ranges.iter().any(|&(a, b)| a <= line && line <= b);
        for call in &d.calls {
            if in_hot(call.line) {
                // The *callees* of hot-line calls seed the closure;
                // resolve via the edge list (site line match).
                for &(a, b, line) in &g.edges {
                    if a == n && line == call.line {
                        seeds.push(b);
                    }
                }
            }
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    let (hot_set, hot_parent) = g.reach(&seeds);
    p.hot = hot_set.into_iter().collect();
    p.hot_parent = hot_parent;

    // --- panic reachability from the engine entry points.
    let mut entries: Vec<usize> = Vec::new();
    for n in 0..g.nodes.len() {
        let d = node_def(files, g, n);
        if d.test {
            continue;
        }
        if PANIC_ENTRY_POINTS
            .iter()
            .any(|&(q, m)| d.qualifier.as_deref() == Some(q) && d.name == m)
        {
            entries.push(n);
        }
    }
    let (reach_set, panic_parent) = g.reach(&entries);
    p.panic_reachable = reach_set.into_iter().collect();
    p.panic_parent = panic_parent;
    p.entries = entries;
    p
}

/// R5: allocation sites inside propagated-hot functions.
pub fn rule_hot_prop(files: &[FileInfo], g: &CallGraph, p: &Propagation) -> Vec<Diagnostic> {
    let suppress = Rule::HotPath.bit() | Rule::HotProp.bit();
    let mut out = Vec::new();
    for &n in &p.hot {
        let d = node_def(files, g, n);
        if d.test {
            continue;
        }
        for site in &d.allocs {
            if site.test || site.literal_hot || site.allow_mask & suppress != 0 {
                continue;
            }
            let chain = g.chain(files, &p.hot_parent, n);
            out.push(Diagnostic {
                rule: Rule::HotProp,
                file: d.file.clone(),
                line: site.line,
                message: format!(
                    "allocation API `{}` in `{}`, which is transitively reachable from a \
                     `hbat-lint: hot` region (call chain: {chain}) — hot-path callees must \
                     stay allocation-free or carry `hbat-lint: allow(hot-prop) <reason>`",
                    site.what,
                    g.fn_name(files, n),
                ),
            });
        }
    }
    out
}

/// R6: panic sites inside functions reachable from the engine entry
/// points.
pub fn rule_panic_reach(files: &[FileInfo], g: &CallGraph, p: &Propagation) -> Vec<Diagnostic> {
    let suppress = Rule::PanicPolicy.bit() | Rule::PanicReach.bit();
    let entry_names: Vec<String> = p.entries.iter().map(|&e| g.fn_name(files, e)).collect();
    let entry_label = if entry_names.is_empty() {
        "engine entry".to_string()
    } else {
        entry_names.join("/")
    };
    let mut out = Vec::new();
    for &n in &p.panic_reachable {
        let d = node_def(files, g, n);
        if d.test || d.panic_doc {
            continue;
        }
        for site in &d.panics {
            if site.test || site.panic_doc || site.allow_mask & suppress != 0 {
                continue;
            }
            let chain = g.chain(files, &p.panic_parent, n);
            out.push(Diagnostic {
                rule: Rule::PanicReach,
                file: d.file.clone(),
                line: site.line,
                message: format!(
                    "{} in `{}`, reachable from engine entry {entry_label} (call chain: \
                     {chain}) — return a Result, document `# Panics`, or add \
                     `hbat-lint: allow(panic-reach) <reason>`",
                    site.what,
                    g.fn_name(files, n),
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::parse::parse_workspace;

    fn analyze(files: &[(&str, &str)]) -> (Vec<FileInfo>, CallGraph, Propagation) {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let parsed = parse_workspace(&owned);
        let g = build(&parsed);
        let p = propagate(&parsed, &g);
        (parsed, g, p)
    }

    #[test]
    fn hot_propagates_across_crates() {
        let (files, g, p) = analyze(&[
            (
                "crates/cpu/src/engine.rs",
                "use hbat_mem::build_tables;\n// hbat-lint: hot\nfn scan() { build_tables(); }\n// hbat-lint: cold\n",
            ),
            (
                "crates/mem/src/lib.rs",
                "pub fn build_tables() -> Vec<u32> { let v = Vec::new(); v }\n",
            ),
        ]);
        let d = rule_hot_prop(&files, &g, &p);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::HotProp);
        assert!(d[0].file.contains("mem"), "{d:?}");
        assert!(d[0].message.contains("Vec::new"), "{d:?}");
        assert!(d[0].message.contains("build_tables"), "{d:?}");
    }

    #[test]
    fn literal_hot_sites_left_to_r2() {
        let (files, g, p) = analyze(&[(
            "crates/cpu/src/x.rs",
            "// hbat-lint: hot\nfn f() { let v = Vec::new(); }\n// hbat-lint: cold\n",
        )]);
        let d = rule_hot_prop(&files, &g, &p);
        assert!(d.is_empty(), "literal hot sites are R2's: {d:?}");
    }

    #[test]
    fn panic_reach_two_hops() {
        let (files, g, p) = analyze(&[
            (
                "crates/cpu/src/engine.rs",
                "use hbat_mem::translate;\nstruct Engine;\nimpl Engine { fn run(&mut self) { translate(0); } }\n",
            ),
            (
                "crates/mem/src/lib.rs",
                "pub fn translate(a: u64) -> u64 { lookup(a) }\nfn lookup(a: u64) -> u64 { TABLE[a as usize] }\n",
            ),
        ]);
        let d = rule_panic_reach(&files, &g, &p);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::PanicReach);
        assert!(d[0].message.contains("computed index"), "{d:?}");
        assert!(
            d[0].message.contains("Engine::run -> translate -> lookup"),
            "{d:?}"
        );
    }

    #[test]
    fn panic_doc_and_allow_suppress_r6() {
        let (files, g, p) = analyze(&[
            (
                "crates/cpu/src/engine.rs",
                "struct Engine;\nimpl Engine { fn run(&mut self) { documented(); allowed(); } }\n",
            ),
            (
                "crates/mem/src/lib.rs",
                "/// # Panics\n/// On empty input.\npub fn documented() { None::<u32>.unwrap(); }\n\
                 // hbat-lint: allow(panic-reach) length checked at construction\n\
                 pub fn allowed() { None::<u32>.unwrap(); }\n",
            ),
        ]);
        let d = rule_panic_reach(&files, &g, &p);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unreachable_panics_not_reported_by_r6() {
        let (files, g, p) = analyze(&[(
            "crates/mem/src/lib.rs",
            "pub fn isolated() { None::<u32>.unwrap(); }\n",
        )]);
        let d = rule_panic_reach(&files, &g, &p);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_never_seeds_or_reports() {
        let (files, g, p) = analyze(&[(
            "crates/cpu/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    struct Engine;\n    impl Engine { fn run(&mut self) { helper(); } }\n    fn helper() { None::<u32>.unwrap(); }\n}\n",
        )]);
        let d = rule_panic_reach(&files, &g, &p);
        assert!(d.is_empty(), "{d:?}");
    }
}
