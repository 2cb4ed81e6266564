//! Diagnostics: rule identities, findings, and the human/JSON renderers.

use std::fmt;

/// The six repo-specific rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: bit-determinism — no hash-order-dependent output, no wall
    /// clocks in simulation crates.
    Determinism,
    /// R2: no allocation APIs inside `// hbat-lint: hot` regions.
    HotPath,
    /// R3: no `unwrap`/`expect`/`panic!`/undocumented computed indexing
    /// in library code of the panic-policy crates.
    PanicPolicy,
    /// R4: every item imported from a shimmed crate must exist in the
    /// shim's source.
    ShimDrift,
    /// R5: interprocedural hot propagation — allocation APIs in any
    /// function transitively reachable from a `hbat-lint: hot` region,
    /// across files and crates.
    HotProp,
    /// R6: panic reachability — `panic!`/`unwrap`/`expect`/computed
    /// indexing in any function transitively reachable from the engine
    /// hot entry points (`Engine::run`, `Machine::execute`).
    PanicReach,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 6] = [
    Rule::Determinism,
    Rule::HotPath,
    Rule::PanicPolicy,
    Rule::ShimDrift,
    Rule::HotProp,
    Rule::PanicReach,
];

/// Bitmask with every rule enabled.
pub fn all_rules_mask() -> u8 {
    ALL_RULES.iter().map(|r| r.bit()).fold(0, |a, b| a | b)
}

impl Rule {
    /// Short code used in output and baselines.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Determinism => "R1",
            Rule::HotPath => "R2",
            Rule::PanicPolicy => "R3",
            Rule::ShimDrift => "R4",
            Rule::HotProp => "R5",
            Rule::PanicReach => "R6",
        }
    }

    /// Name accepted by `--only`/`--skip` and `allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::HotPath => "hot",
            Rule::PanicPolicy => "panic",
            Rule::ShimDrift => "shims",
            Rule::HotProp => "hot-prop",
            Rule::PanicReach => "panic-reach",
        }
    }

    /// Bit for suppression masks.
    pub fn bit(self) -> u8 {
        match self {
            Rule::Determinism => 1 << 0,
            Rule::HotPath => 1 << 1,
            Rule::PanicPolicy => 1 << 2,
            Rule::ShimDrift => 1 << 3,
            Rule::HotProp => 1 << 4,
            Rule::PanicReach => 1 << 5,
        }
    }

    /// Parses a rule name or code (case-insensitive); `all` is every rule.
    pub fn parse_mask(s: &str) -> Option<u8> {
        let s = s.trim().to_ascii_lowercase();
        if s == "all" {
            return Some(ALL_RULES.iter().map(|r| r.bit()).fold(0, |a, b| a | b));
        }
        ALL_RULES
            .iter()
            .find(|r| r.name() == s || r.code().to_ascii_lowercase() == s)
            .map(|r| r.bit())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Path relative to the workspace root, with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    /// The identity used for baseline matching: line numbers drift, so
    /// the key is (rule, file, message).
    pub fn baseline_key(&self) -> String {
        format!("{}|{}|{}", self.rule.code(), self.file, self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Escapes a string for JSON output.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders findings as a JSON document; `new` marks findings absent from
/// the baseline.
pub fn render_json(findings: &[(Diagnostic, bool)]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, (d, is_new)) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"name\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"new\": {}}}",
            json_escape(d.rule.code()),
            json_escape(d.rule.name()),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message),
            is_new,
        ));
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let new = findings.iter().filter(|(_, n)| *n).count();
    out.push_str(&format!(
        "  ],\n  \"total\": {},\n  \"new\": {}\n}}",
        findings.len(),
        new
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parsing_accepts_names_codes_and_all() {
        assert_eq!(Rule::parse_mask("determinism"), Some(1));
        assert_eq!(Rule::parse_mask("R3"), Some(4));
        assert_eq!(Rule::parse_mask("r2"), Some(2));
        assert_eq!(Rule::parse_mask("hot-prop"), Some(1 << 4));
        assert_eq!(Rule::parse_mask("R6"), Some(1 << 5));
        assert_eq!(Rule::parse_mask("all"), Some(0b11_1111));
        assert_eq!(Rule::parse_mask("bogus"), None);
    }

    #[test]
    fn json_escapes_and_counts() {
        let d = Diagnostic {
            rule: Rule::PanicPolicy,
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "say \"no\"".into(),
        };
        let s = render_json(&[(d, true)]);
        assert!(s.contains("\\\"no\\\""));
        assert!(s.contains("\"new\": true"));
        assert!(s.contains("\"total\": 1"));
    }
}
