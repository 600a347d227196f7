//! Diagnostics: the rule identifiers, the `file:line: RULE: message`
//! rendering contract, and the report-JSON encoding used by `--json`.

use ssmc_sim::report::Value;
use std::fmt;

/// The rule catalog. See DESIGN.md §Static analysis for the policy each
/// rule enforces and the allowlist format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant`, `SystemTime`) outside `crates/bench`.
    D1,
    /// `HashMap`/`HashSet` in simulator crates without a determinism
    /// justification.
    D2,
    /// Threading / `std::sync` primitives outside `ssmc_sim::parallel_sweep`.
    D3,
    /// External-crate imports (the hermetic-workspace guard).
    D4,
    /// Allocation-prone calls inside `// lint: hot-path` functions.
    H1,
    /// Allocation-prone calls *reachable* from a hot-path function
    /// through the workspace call graph.
    H2,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    U1,
    /// Dimensional-suffix mixing: arithmetic/assignment combining
    /// `_ns`/`_us`/`_ms` or `_nj`/`_mj` identifiers without a named
    /// conversion.
    U2,
    /// Energy double-attribution: a function charges an `EnergyLedger`
    /// and calls a callee that also charges one.
    E1,
    /// Allowlist hygiene: stale, malformed, or unjustified allow
    /// directives, and directives naming an unknown rule.
    A1,
}

impl Rule {
    pub const ALL: [Rule; 10] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::H1,
        Rule::H2,
        Rule::U1,
        Rule::U2,
        Rule::E1,
        Rule::A1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::H1 => "H1",
            Rule::H2 => "H2",
            Rule::U1 => "U1",
            Rule::U2 => "U2",
            Rule::E1 => "E1",
            Rule::A1 => "A1",
        }
    }

    /// Parses a rule name as written in an allow directive.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// Rationale and suppression syntax, for `ssmc-lint --explain RULE`.
    /// DESIGN.md §8 points here instead of restating the catalog, so the
    /// CLI text and the docs cannot drift apart.
    pub fn explain(self) -> RuleDoc {
        RULE_DOCS
            .iter()
            .find(|d| d.rule == self)
            .copied()
            .expect("every rule has a RULE_DOCS entry (pinned by test)")
    }
}

/// One entry of the rule catalog as shown by `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    pub rule: Rule,
    /// One-line summary of what the rule flags.
    pub summary: &'static str,
    /// Why the rule exists (the invariant it protects).
    pub rationale: &'static str,
    /// How a justified exception is recorded.
    pub allow: &'static str,
}

/// The single source of truth for rule documentation. `--explain` prints
/// it and DESIGN.md §8 references it; a test pins full coverage of
/// [`Rule::ALL`].
pub const RULE_DOCS: [RuleDoc; 10] = [
    RuleDoc {
        rule: Rule::D1,
        summary: "wall-clock reads (`Instant`, `SystemTime`) outside crates/bench",
        rationale: "Simulated results must be a pure function of the trace and the seed. \
                    Host time in simulator code makes runs unreproducible; only the bench \
                    crate, whose job is host timing, may read the clock.",
        allow: "// lint: allow(D1): <why this wall-clock read cannot affect simulated state>",
    },
    RuleDoc {
        rule: Rule::D2,
        summary: "`HashMap`/`HashSet` in simulator crates",
        rationale: "Hash iteration order is host-random, so any state that iterates one \
                    diverges between runs. Simulator crates use BTreeMap or DenseIndex.",
        allow: "// lint: allow(D2): <why iteration order cannot reach simulated state>",
    },
    RuleDoc {
        rule: Rule::D3,
        summary: "threads or `std::sync` primitives outside `ssmc_sim::parallel_sweep`",
        rationale: "The simulator is single-threaded by design; scheduling nondeterminism \
                    is confined to the documented fan-out in crates/sim/src/par.rs.",
        allow: "// lint: allow(D3): <why this concurrency cannot order simulated events>",
    },
    RuleDoc {
        rule: Rule::D4,
        summary: "imports of external crates",
        rationale: "The workspace is hermetic: in-tree code only, no registry access. \
                    This is the property that lets CI run fully offline.",
        allow: "// lint: allow(D4): <why the dependency is unavoidable> (expect pushback)",
    },
    RuleDoc {
        rule: Rule::H1,
        summary: "allocation-prone calls written directly inside a `// lint: hot-path` fn",
        rationale: "Steady-state replay must perform zero heap allocations per op (the \
                    alloc-guard bench is the dynamic half of this rule).",
        allow: "// lint: allow(H1): <why the allocation is amortized or off the steady path>",
    },
    RuleDoc {
        rule: Rule::H2,
        summary: "allocation-prone calls reachable from a hot-path fn via the call graph",
        rationale: "H1 only sees the marked function body; a hot path that calls an \
                    allocating helper two crates away is just as non-steady-state. The \
                    diagnostic prints the call chain from the root to the allocation.",
        allow: "// lint: allow(H2): <argument> on the allocating line (silences that line \
                only), or on the call edge that breaks the chain",
    },
    RuleDoc {
        rule: Rule::U1,
        summary: "`unsafe` without a `// SAFETY:` comment within three lines above",
        rationale: "Every unsafe block must carry its proof obligation next to the code.",
        allow: "write the `// SAFETY:` comment (there is no allow form on purpose)",
    },
    RuleDoc {
        rule: Rule::U2,
        summary: "arithmetic mixing `_ns`/`_us`/`_ms` or `_nj`/`_mj` suffixed identifiers",
        rationale: "Dimensional bugs (adding milliseconds to nanoseconds, microjoules to \
                    millijoules) type-check fine and corrupt results silently. Mixed-unit \
                    statements must route through a named conversion fn (`*_to_*`).",
        allow: "// lint: allow(U2): <why the units are actually consistent here>",
    },
    RuleDoc {
        rule: Rule::E1,
        summary: "a fn charges an EnergyLedger and calls a callee that also charges one",
        rationale: "DESIGN.md §Observability: energy is summed one level, not both — a \
                    caller either delegates attribution to its callees or charges for \
                    them, never both, or device energy is double-counted.",
        allow: "// lint: allow(E1): <why the two charges cover disjoint work> on the \
                call edge or a charge line",
    },
    RuleDoc {
        rule: Rule::A1,
        summary: "allow-directive hygiene: stale, malformed, unjustified, or unknown-rule \
                  directives",
        rationale: "Inline allows are the only way to accept a finding, so the allowlist \
                    only stays trustworthy if every entry names a real rule, still \
                    suppresses a real finding, and carries a written argument (ten \
                    characters minimum).",
        allow: "delete the stale directive or fix its justification (A1 has no allow form)",
    },
];

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

impl Diagnostic {
    /// Encodes the diagnostic as a report-JSON object.
    pub fn to_report(&self) -> Value {
        Value::object(vec![
            ("file", Value::Str(self.file.clone())),
            ("line", Value::Int(i64::from(self.line))),
            ("rule", Value::Str(self.rule.name().to_owned())),
            ("message", Value::Str(self.message.clone())),
        ])
    }
}

/// Encodes a full lint run as a report-JSON object. `functions` and
/// `edges` are the call-graph dimensions, published (as `lint.functions`
/// / `lint.edges` / `lint.diags`) so future changes can gate on graph
/// growth.
pub fn run_to_report(
    checked_files: usize,
    functions: usize,
    edges: usize,
    diags: &[Diagnostic],
) -> Value {
    Value::object(vec![
        ("checked_files", Value::Int(checked_files as i64)),
        (
            "lint",
            Value::object(vec![
                ("functions", Value::Int(functions as i64)),
                ("edges", Value::Int(edges as i64)),
                ("diags", Value::Int(diags.len() as i64)),
            ]),
        ),
        (
            "rules",
            Value::Array(
                Rule::ALL
                    .iter()
                    .map(|r| Value::Str(r.name().to_owned()))
                    .collect(),
            ),
        ),
        (
            "diagnostics",
            Value::Array(diags.iter().map(Diagnostic::to_report).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_contract() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: Rule::D2,
            message: "HashMap in simulator crate".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: D2: HashMap in simulator crate"
        );
    }

    #[test]
    fn report_encoding_round_trips_fields() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 1,
            rule: Rule::H1,
            message: "m".into(),
        };
        let v = run_to_report(3, 120, 340, &[d]);
        assert_eq!(v.get("checked_files").and_then(Value::as_i64), Some(3));
        let lint = v.get("lint").unwrap();
        assert_eq!(lint.get("functions").and_then(Value::as_i64), Some(120));
        assert_eq!(lint.get("edges").and_then(Value::as_i64), Some(340));
        assert_eq!(lint.get("diags").and_then(Value::as_i64), Some(1));
        let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(diags[0].get("rule").and_then(Value::as_str), Some("H1"));
    }

    #[test]
    fn every_rule_has_an_explain_entry() {
        for rule in Rule::ALL {
            let doc = rule.explain();
            assert_eq!(doc.rule, rule);
            assert!(!doc.summary.is_empty() && !doc.rationale.is_empty() && !doc.allow.is_empty());
        }
        // And the table has no orphans pointing at duplicate rules.
        assert_eq!(RULE_DOCS.len(), Rule::ALL.len());
    }
}
