//! The four rules, implemented over the lexed token stream and the
//! region context. See `DESIGN.md` § "Static analysis" for the policy
//! each rule enforces and the rationale.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::FileContext;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Token, TokenKind};

/// Crates whose whole job is producing reports: any hash-ordered
/// container there leaks iteration order into output.
pub const REPORT_CRATES: &[&str] = &["analysis", "stats"];

/// Simulation crates: results must not depend on wall-clock time.
/// `obs` counts as one — its probes run inside the engine's cycle loop,
/// so an observation taken from the clock would both perturb timing and
/// break run-to-run determinism of the recorded streams.
pub const SIM_CRATES: &[&str] = &["core", "cpu", "mem", "isa", "obs"];

/// Crates whose library code must not panic (R3). `bench` joined when
/// it grew the fault-tolerance layer: a sweep that survives panicking
/// *cells* must not itself panic in the surviving paths; `obs` joined
/// with the observability layer: a recorder that panics mid-probe would
/// take the simulation down with it.
pub const PANIC_CRATES: &[&str] = &["isa", "workloads", "stats", "core", "bench", "obs"];

/// Crate names resolved to offline shims (R4).
pub const SHIM_ROOTS: &[&str] = &["rand", "proptest", "criterion"];

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Which rules run (bitmask of [`Rule::bit`]).
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    pub rule_mask: u8,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            rule_mask: crate::diag::all_rules_mask(),
        }
    }
}

impl LintOptions {
    fn on(&self, rule: Rule) -> bool {
        self.rule_mask & rule.bit() != 0
    }
}

/// What kind of file a path is, for rule targeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<name>` directory name (`core`, `isa`, …), `suite` for the
    /// root `src/`, or `None` for top-level tests/examples.
    pub crate_dir: Option<String>,
    /// Library code: under `src/`, not a binary target.
    pub library: bool,
    /// Under `shims/` (exempt from R1–R3; the source of truth for R4).
    pub shim: bool,
}

/// Classifies a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_bin = |rest: &[&str]| rest.contains(&"bin") || rest == ["main.rs"];
    match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => FileClass {
            crate_dir: Some((*c).to_string()),
            library: !in_bin(rest),
            shim: false,
        },
        ["crates", c, ..] => FileClass {
            crate_dir: Some((*c).to_string()),
            library: false,
            shim: false,
        },
        ["shims", c, ..] => FileClass {
            crate_dir: Some((*c).to_string()),
            library: false,
            shim: true,
        },
        ["src", rest @ ..] => FileClass {
            crate_dir: Some("suite".to_string()),
            library: !in_bin(rest),
            shim: false,
        },
        _ => FileClass {
            crate_dir: None,
            library: false,
            shim: false,
        },
    }
}

/// Lints one non-shim file under rules R1–R3 (plus directive hygiene).
pub fn lint_file(rel: &str, src: &str, opts: &LintOptions) -> Vec<Diagnostic> {
    let class = classify(rel);
    if class.shim {
        return Vec::new();
    }
    let tokens = lex(src);
    let ctx = FileContext::of(&tokens);
    // Indices of non-comment tokens, for sequence matching.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let mut out = Vec::new();

    // Malformed suppression directives undermine every rule; they are
    // reported under R3 (the policy rule suppressions most often target).
    if opts.on(Rule::PanicPolicy) {
        for (line, problem) in &ctx.directive_problems {
            out.push(Diagnostic {
                rule: Rule::PanicPolicy,
                file: rel.to_string(),
                line: *line,
                message: problem.clone(),
            });
        }
    }

    if opts.on(Rule::Determinism) {
        rule_determinism(rel, &class, &tokens, &ctx, &code, &mut out);
    }
    if opts.on(Rule::HotPath) {
        rule_hot_path(rel, &tokens, &ctx, &code, &mut out);
    }
    if opts.on(Rule::PanicPolicy) {
        rule_panic_policy(rel, &class, &tokens, &ctx, &code, &mut out);
    }

    out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    out.dedup();
    out
}

fn is_hash_type(t: &Token) -> bool {
    t.is_ident("HashMap") || t.is_ident("HashSet")
}

/// R1: determinism.
fn rule_determinism(
    rel: &str,
    class: &FileClass,
    tokens: &[Token],
    ctx: &FileContext,
    code: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let crate_dir = class.crate_dir.as_deref().unwrap_or("");
    let report_crate = class.library && REPORT_CRATES.contains(&crate_dir);
    let sim_crate = class.library && SIM_CRATES.contains(&crate_dir);
    let mut push = |rule_line: u32, message: String| {
        let d = Diagnostic {
            rule: Rule::Determinism,
            file: rel.to_string(),
            line: rule_line,
            message,
        };
        if !out.contains(&d) {
            out.push(d);
        }
    };

    // R1a: hash containers anywhere in a report-producing crate.
    if report_crate {
        for &i in code {
            let t = &tokens[i];
            if is_hash_type(t) && !ctx.flags[i].test && !ctx.allowed(i, t.line, Rule::Determinism) {
                push(
                    t.line,
                    format!(
                        "`{}` in report-producing crate `{}`: iteration order leaks into output; \
                         use BTreeMap/BTreeSet or sort before emitting",
                        t.text, crate_dir
                    ),
                );
            }
        }
    }

    // R1b: wall-clock time in simulation crates.
    if sim_crate {
        for &i in code {
            let t = &tokens[i];
            if (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && !ctx.flags[i].test
                && !ctx.allowed(i, t.line, Rule::Determinism)
            {
                push(
                    t.line,
                    format!(
                        "`{}` in simulation crate `{}`: timing sources make runs irreproducible",
                        t.text, crate_dir
                    ),
                );
            }
        }
    }

    // R1c: iteration over hash-ordered bindings, any library file (report
    // crates are already covered wholesale by R1a).
    if class.library && !report_crate {
        let mut hash_names: BTreeSet<&str> = BTreeSet::new();
        for w in code.windows(3) {
            let (a, b, c) = (&tokens[w[0]], &tokens[w[1]], &tokens[w[2]]);
            if a.kind == TokenKind::Ident && (b.is_punct(':') || b.is_punct('=')) && is_hash_type(c)
            {
                hash_names.insert(&a.text);
            }
        }
        if hash_names.is_empty() {
            return;
        }
        for (k, w) in code.windows(3).enumerate() {
            let (a, b, c) = (&tokens[w[0]], &tokens[w[1]], &tokens[w[2]]);
            let flagged = if a.kind == TokenKind::Ident
                && hash_names.contains(a.text.as_str())
                && b.is_punct('.')
                && c.kind == TokenKind::Ident
                && HASH_ITER_METHODS.contains(&c.text.as_str())
            {
                Some((w[0], a.text.clone(), c.text.clone()))
            } else if a.is_ident("in") {
                // `for x in &name {` / `for x in name {`
                let mut j = k + 1;
                while j < code.len()
                    && (tokens[code[j]].is_punct('&') || tokens[code[j]].is_ident("mut"))
                {
                    j += 1;
                }
                match (code.get(j), code.get(j + 1)) {
                    (Some(&n), Some(&brace))
                        if tokens[n].kind == TokenKind::Ident
                            && hash_names.contains(tokens[n].text.as_str())
                            && tokens[brace].is_punct('{') =>
                    {
                        Some((n, tokens[n].text.clone(), "for-loop".to_string()))
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some((idx, name, how)) = flagged {
                let t = &tokens[idx];
                if !ctx.flags[idx].test && !ctx.allowed(idx, t.line, Rule::Determinism) {
                    push(
                        t.line,
                        format!(
                            "iteration ({how}) over hash-ordered `{name}` is \
                             nondeterministic; sort the results or use BTreeMap/BTreeSet"
                        ),
                    );
                }
            }
        }
    }
}

/// Matches an allocation-API site at code position `k`; returns the API
/// name for the message. Shared by R2 (literal hot regions) and R5
/// (propagated hot functions).
pub(crate) fn alloc_site_hit(tokens: &[Token], code: &[usize], k: usize) -> Option<String> {
    let t = &tokens[code[k]];
    let next = |n: usize| code.get(k + n).map(|&j| &tokens[j]);
    if (t.is_ident("vec") || t.is_ident("format")) && next(1).is_some_and(|n| n.is_punct('!')) {
        Some(format!("{}!", t.text))
    } else if (t.is_ident("Vec") || t.is_ident("Box") || t.is_ident("String"))
        && next(1).is_some_and(|n| n.is_punct(':'))
        && next(2).is_some_and(|n| n.is_punct(':'))
        && next(3)
            .is_some_and(|n| n.is_ident("new") || n.is_ident("from") || n.is_ident("with_capacity"))
    {
        Some(format!(
            "{}::{}",
            t.text,
            next(3).map(|n| n.text.clone()).unwrap_or_default()
        ))
    } else if t.is_punct('.')
        && next(1).is_some_and(|n| {
            n.is_ident("collect")
                || n.is_ident("to_vec")
                || n.is_ident("to_string")
                || n.is_ident("to_owned")
        })
    {
        next(1).map(|n| format!(".{}()", n.text))
    } else {
        None
    }
}

/// Matches a `.unwrap()`/`.expect(` site at code position `k`.
pub(crate) fn unwrap_site_hit(tokens: &[Token], code: &[usize], k: usize) -> Option<String> {
    let t = &tokens[code[k]];
    let next = |n: usize| code.get(k + n).map(|&j| &tokens[j]);
    if t.is_punct('.')
        && next(1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
        && next(2).is_some_and(|n| n.is_punct('('))
    {
        next(1).map(|n| format!("{}()", n.text))
    } else {
        None
    }
}

/// Matches a `panic!`-family macro at code position `k`.
pub(crate) fn panic_macro_hit(tokens: &[Token], code: &[usize], k: usize) -> Option<String> {
    let t = &tokens[code[k]];
    let next = |n: usize| code.get(k + n).map(|&j| &tokens[j]);
    if (t.is_ident("panic")
        || t.is_ident("unreachable")
        || t.is_ident("todo")
        || t.is_ident("unimplemented"))
        && next(1).is_some_and(|n| n.is_punct('!'))
    {
        Some(format!("{}!", t.text))
    } else {
        None
    }
}

/// Matches a computed (non-literal) index expression opening at code
/// position `k` (a `[` with an indexable receiver before it and at
/// least one identifier inside the brackets).
pub(crate) fn computed_index_hit(tokens: &[Token], code: &[usize], k: usize) -> bool {
    let t = &tokens[code[k]];
    if !t.is_punct('[') {
        return false;
    }
    let indexable_receiver = k.checked_sub(1).map(|p| &tokens[code[p]]).is_some_and(|p| {
        (p.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
            || p.is_punct(')')
            || p.is_punct(']')
    });
    if !indexable_receiver {
        return false;
    }
    let mut depth = 0i32;
    let mut computed = false;
    for &j in &code[k..] {
        let u = &tokens[j];
        if u.is_punct('[') {
            depth += 1;
        } else if u.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if u.kind == TokenKind::Ident || u.kind == TokenKind::StrLit {
            computed = true;
        }
    }
    computed
}

/// R2: allocation APIs inside hot regions.
fn rule_hot_path(
    rel: &str,
    tokens: &[Token],
    ctx: &FileContext,
    code: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if !ctx.hot_line(t.line) || ctx.allowed(i, t.line, Rule::HotPath) {
            continue;
        }
        if let Some(api) = alloc_site_hit(tokens, code, k) {
            out.push(Diagnostic {
                rule: Rule::HotPath,
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "allocation API `{api}` inside a `hbat-lint: hot` region — \
                     the hot loop must stay allocation-free"
                ),
            });
        }
    }
}

/// R3: panic policy in library code of the panic crates.
fn rule_panic_policy(
    rel: &str,
    class: &FileClass,
    tokens: &[Token],
    ctx: &FileContext,
    code: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let crate_dir = class.crate_dir.as_deref().unwrap_or("");
    if !class.library || !PANIC_CRATES.contains(&crate_dir) {
        return;
    }
    for (k, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        let f = ctx.flags[i];
        if f.test || f.panic_doc || ctx.allowed(i, t.line, Rule::PanicPolicy) {
            continue;
        }

        // `.unwrap()` / `.expect(` on any receiver.
        if let Some(name) = unwrap_site_hit(tokens, code, k) {
            out.push(Diagnostic {
                rule: Rule::PanicPolicy,
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` in library code of `{crate_dir}`: return a Result, document \
                     the contract with `# Panics`, or add `hbat-lint: allow(panic) <reason>`"
                ),
            });
            continue;
        }

        // panic!-family macros.
        if let Some(mac) = panic_macro_hit(tokens, code, k) {
            out.push(Diagnostic {
                rule: Rule::PanicPolicy,
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`{mac}` in library code of `{crate_dir}`: return a Result, document the \
                     contract with `# Panics`, or add `hbat-lint: allow(panic) <reason>`"
                ),
            });
            continue;
        }

        // Computed slice/array indexing in a pub fn without a `# Panics`
        // doc: `xs[i]` panics on bad input and the API does not say so.
        if f.pub_fn && computed_index_hit(tokens, code, k) {
            out.push(Diagnostic {
                rule: Rule::PanicPolicy,
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "computed index in a public function of `{crate_dir}` without a \
                     `# Panics` doc: use get()/get_mut(), document the contract, or \
                     add `hbat-lint: allow(panic) <reason>`"
                ),
            });
        }
    }
}

// ---- R4: shim drift ------------------------------------------------------

/// Collects the exported names of a shim crate from its sources: items
/// declared by keyword, `macro_rules!` names, and everything re-exported
/// through `pub use`.
pub fn shim_exports(sources: &[&str]) -> BTreeSet<String> {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
    ];
    let mut names = BTreeSet::new();
    for src in sources {
        let tokens = lex(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut k = 0usize;
        while k < code.len() {
            let t = code[k];
            if t.kind == TokenKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()) {
                if let Some(n) = code.get(k + 1) {
                    if n.kind == TokenKind::Ident {
                        names.insert(n.text.clone());
                    }
                }
            } else if t.is_ident("macro_rules") && code.get(k + 1).is_some_and(|n| n.is_punct('!'))
            {
                if let Some(n) = code.get(k + 2) {
                    names.insert(n.text.clone());
                }
            } else if t.is_ident("pub") && code.get(k + 1).is_some_and(|n| n.is_ident("use")) {
                let mut j = k + 2;
                while j < code.len() && !code[j].is_punct(';') {
                    let u = code[j];
                    if u.kind == TokenKind::Ident
                        && !matches!(u.text.as_str(), "self" | "super" | "crate" | "as")
                    {
                        names.insert(u.text.clone());
                    }
                    j += 1;
                }
                k = j;
            }
            k += 1;
        }
    }
    names
}

/// One `use`d or path-qualified item from a shimmed crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShimImport {
    pub root: String,
    pub item: String,
    pub line: u32,
}

/// Finds every item a file pulls from the shimmed crates, through `use`
/// trees and inline qualified paths (`rand::rngs::SmallRng::seed_from_u64(1)`
/// in an expression).
pub fn collect_shim_imports(src: &str) -> Vec<ShimImport> {
    let tokens = lex(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let t = code[k];
        if t.is_ident("use")
            && code.get(k + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && SHIM_ROOTS.contains(&n.text.as_str())
            })
            && code.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(k + 3).is_some_and(|n| n.is_punct(':'))
        {
            let root = code[k + 1].text.clone();
            let mut j = k + 4;
            let mut after_as = false;
            while j < code.len() && !code[j].is_punct(';') {
                let u = code[j];
                if u.kind == TokenKind::Ident {
                    if u.text == "as" {
                        after_as = true;
                    } else if after_as {
                        after_as = false; // local rename, not a shim item
                    } else if !matches!(u.text.as_str(), "self" | "super" | "crate") {
                        out.push(ShimImport {
                            root: root.clone(),
                            item: u.text.clone(),
                            line: u.line,
                        });
                    }
                }
                j += 1;
            }
            k = j;
        } else if t.kind == TokenKind::Ident
            && SHIM_ROOTS.contains(&t.text.as_str())
            && code.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(k + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(k + 3).is_some_and(|n| n.kind == TokenKind::Ident)
            && !k
                .checked_sub(1)
                .is_some_and(|p| code[p].is_punct(':') || code[p].is_punct('.'))
        {
            // Inline qualified path: check the first segment after the
            // crate root (deeper segments resolve inside the shim).
            out.push(ShimImport {
                root: t.text.clone(),
                item: code[k + 3].text.clone(),
                line: t.line,
            });
            k += 3;
        }
        k += 1;
    }
    out
}

/// R4: every imported shim item must exist in the shim's exports.
pub fn shim_drift(
    rel: &str,
    imports: &[ShimImport],
    exports: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for imp in imports {
        let found = exports
            .get(&imp.root)
            .is_some_and(|set| set.contains(&imp.item));
        if !found {
            out.push(Diagnostic {
                rule: Rule::ShimDrift,
                file: rel.to_string(),
                line: imp.line,
                message: format!(
                    "`{}::{}` is not provided by shims/{} — the shim has drifted from \
                     the workspace's imports",
                    imp.root, imp.item, imp.root
                ),
            });
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/core/src/pagetable.rs"),
            FileClass {
                crate_dir: Some("core".into()),
                library: true,
                shim: false
            }
        );
        assert!(!classify("crates/core/tests/properties.rs").library);
        assert!(!classify("crates/bench/benches/missrate.rs").library);
        assert!(classify("shims/rand/src/lib.rs").shim);
        assert!(classify("src/lib.rs").library);
        assert!(!classify("src/bin/hbat.rs").library);
        assert_eq!(classify("tests/integration.rs").crate_dir, None);
    }

    #[test]
    fn hash_in_report_crate_flagged_but_not_in_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n";
        let d = lint_file("crates/analysis/src/x.rs", src, &LintOptions::default());
        assert!(d.iter().all(|d| d.rule == Rule::Determinism));
        assert!(d.iter().any(|d| d.line == 1));
        assert!(d.iter().all(|d| d.line <= 2), "{d:?}");
    }

    #[test]
    fn hash_iteration_flagged_in_sim_crate() {
        let src = "use std::collections::HashMap;\npub struct S { m: HashMap<u64, u64> }\nimpl S {\n    pub fn sum(&self) -> u64 { self.m.values().sum() }\n    pub fn count(&self) -> usize { self.m.len() }\n}\n";
        let d = lint_file("crates/core/src/x.rs", src, &LintOptions::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("hash-ordered `m`"));
    }

    #[test]
    fn wall_clock_flagged_in_sim_crate_only() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert!(
            !lint_file("crates/bench/src/x.rs", src, &LintOptions::default())
                .iter()
                .any(|d| d.rule == Rule::Determinism)
        );
        assert!(
            lint_file("crates/cpu/src/x.rs", src, &LintOptions::default())
                .iter()
                .any(|d| d.rule == Rule::Determinism)
        );
    }

    #[test]
    fn hot_region_bans_allocation() {
        let src = "fn cold() { let v = vec![1]; }\n// hbat-lint: hot\nfn hot() { let v = Vec::new(); let s = format!(\"x\"); }\n";
        let d = lint_file("crates/cpu/src/x.rs", src, &LintOptions::default());
        let hot: Vec<_> = d.iter().filter(|d| d.rule == Rule::HotPath).collect();
        assert_eq!(hot.len(), 2, "{hot:?}");
        assert!(hot.iter().all(|d| d.line == 3));
    }

    #[test]
    fn unwrap_flagged_unless_documented_or_test() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n/// # Panics\n/// On None.\npub fn g(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }\n";
        let d = lint_file("crates/isa/src/x.rs", src, &LintOptions::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn computed_index_in_pub_fn_flagged_literal_ok() {
        let src = "pub fn f(xs: &[u32], i: usize) -> u32 { xs[i] }\npub fn g(xs: &[u32; 4]) -> u32 { xs[0] }\nfn h(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
        let d = lint_file("crates/stats/src/x.rs", src, &LintOptions::default());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allow_suppresses_and_requires_reason() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() } // hbat-lint: allow(panic) validated by caller\npub fn g(x: Option<u32>) -> u32 { x.unwrap() } // hbat-lint: allow(panic)\n";
        let d = lint_file("crates/isa/src/x.rs", src, &LintOptions::default());
        // Line 1 fully suppressed; line 2 suppressed but missing-reason reported.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("reason"));
    }

    #[test]
    fn rule_toggles() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let off = LintOptions {
            rule_mask: Rule::Determinism.bit(),
        };
        assert!(lint_file("crates/isa/src/x.rs", src, &off).is_empty());
    }

    #[test]
    fn shim_exports_and_drift() {
        let shim = "pub struct SmallRng;\npub trait Rng {}\nmacro_rules! gen { () => {} }\npub use internal::SeedableRng;\npub mod rngs;\n";
        let exports = shim_exports(&[shim]);
        for name in ["SmallRng", "Rng", "gen", "SeedableRng", "rngs"] {
            assert!(exports.contains(name), "missing {name}");
        }
        let user =
            "use rand::rngs::SmallRng;\nuse rand::{Rng, SeedableRng};\nuse rand::DoesNotExist;\n";
        let imports = collect_shim_imports(user);
        let mut map = BTreeMap::new();
        map.insert("rand".to_string(), exports);
        let d = shim_drift("crates/x/src/y.rs", &imports, &map);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("DoesNotExist"));
    }

    #[test]
    fn use_as_rename_checks_source_not_alias() {
        let user = "use rand::Rng as LocalName;\n";
        let imports = collect_shim_imports(user);
        assert_eq!(imports.len(), 1);
        assert_eq!(imports[0].item, "Rng");
    }

    #[test]
    fn inline_qualified_path_checked() {
        let user = "fn f() {\n    let rng = rand::rngs::SmallRng::seed_from_u64(1);\n}\n";
        let imports = collect_shim_imports(user);
        assert_eq!(imports.len(), 1);
        assert_eq!(imports[0].root, "rand");
        assert_eq!(imports[0].item, "rngs");
        assert_eq!(imports[0].line, 2);
    }
}
