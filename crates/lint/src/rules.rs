//! The rule engine: token-pattern checks, scope policy, region detection
//! (`#[cfg(test)]` bodies, `// lint: hot-path` functions), and the
//! per-site allow directive machinery.
//!
//! Per-file rules live here; the interprocedural passes (H2/E1) live
//! in [`crate::graph`] and consume the [`FileAnalysis`] this module
//! produces, so a file is lexed and parsed exactly once per run.
//!
//! # Allow directives
//!
//! A finding is suppressed by an allow comment on the same line or the
//! line directly above the flagged site. The directive must be the
//! *start* of the comment text (so prose that merely mentions the syntax
//! is inert), and reads: `lint: allow(RULE): justification` after the
//! comment marker.
//!
//! Every directive must name a real rule and carry a written
//! justification (at least ten characters); a directive that suppresses
//! nothing is itself reported (A1) so the allowlist cannot rot. These
//! directives are the linter's only suppression mechanism.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Tok, TokKind};
use crate::parse::{self, matches_at, ParsedFile, Pat};
use std::collections::BTreeSet;

/// Crates whose simulation results must be run-to-run deterministic.
/// Rules D2 (unordered-container iteration) and U2 (dimensional-suffix
/// mixing) apply only to these.
const SIM_CRATES: [&str; 8] = [
    "ssmc-core",
    "ssmc-storage",
    "ssmc-memfs",
    "ssmc-vm",
    "ssmc-device",
    "ssmc-sim",
    "ssmc-trace",
    "ssmc-baseline",
];

/// The files allowed to use threads and `std::sync`: the
/// `parallel_sweep` fan-out documented in DESIGN.md, and the counting
/// global allocator (the `GlobalAlloc` contract hands out `&self` from
/// any thread, so its counters must be atomic even though the bench
/// itself is single-threaded).
const D3_EXEMPT_FILES: [&str; 2] = [
    "crates/sim/src/par.rs",
    "crates/bench/src/alloc_sentinel.rs",
];

/// `use` roots that do not name an external crate: the language/std
/// roots plus the workspace's own `ssmc_*` crates. Roots that name a
/// sibling `mod`, a name bound by another `use` in the file (uniform
/// paths, e.g. `use fmt::Write` after `use std::fmt`), or a capitalized
/// type path (`use TokKind::*`) are also accepted — see
/// [`collect_local_roots`].
const ALLOWED_USE_ROOTS: [&str; 6] = ["std", "core", "alloc", "crate", "self", "Self"];

/// `std::sync` primitive type names flagged by D3. `Ordering` is
/// deliberately absent: it collides with `cmp::Ordering`, and importing
/// it is harmless without one of these to use it on.
const SYNC_PRIMITIVES: [&str; 13] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI64",
    "AtomicPtr",
];

/// Time-unit identifier suffixes, one per power of a thousand (U2).
const TIME_SUFFIXES: [&str; 3] = ["_ns", "_us", "_ms"];

/// Energy-unit identifier suffixes (U2).
const ENERGY_SUFFIXES: [&str; 2] = ["_nj", "_mj"];

/// An inclusive range of source lines.
fn in_spans(line: u32, spans: &[(u32, u32)]) -> bool {
    spans.iter().any(|&(s, e)| line >= s && line <= e)
}

/// A parsed `lint: allow(RULE): justification` directive. It suppresses
/// findings of `rule` on its own line (trailing directive) or on
/// `target_line` — the next line below it that holds code, so a
/// justification may span several comment lines.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub line: u32,
    pub target_line: u32,
    pub rule: Rule,
    pub used: bool,
}

/// Everything one pass over a source file produces: the parsed item
/// skeleton (input to the call graph), the per-file rule findings
/// *before* allow application, the file's allow directives, and any
/// immediately-final diagnostics (malformed directives).
pub struct FileAnalysis {
    pub parsed: ParsedFile,
    pub findings: Vec<Diagnostic>,
    pub allows: Vec<AllowEntry>,
    pub diags: Vec<Diagnostic>,
}

/// Lints one source file in isolation (per-file rules only). `path` is
/// the repo-relative display path; `crate_name` decides rule scope
/// (`ssmc`, `ssmc-bench`, `ssmc-lint`, or a simulator crate).
///
/// This is the legacy single-file entry point: allow application and A1
/// staleness are decided within the file. The workspace pipeline uses
/// [`analyze_source`] instead so the interprocedural passes can consume
/// allows before staleness is judged.
pub fn lint_source(path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
    let mut a = analyze_source(path, crate_name, src);
    let mut diags = std::mem::take(&mut a.diags);
    diags.extend(apply_allows(a.findings, &mut a.allows));
    diags.extend(stale_allow_diags(path, &a.allows));
    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

/// Filters `findings` through `allows`, marking used directives. Returns
/// the findings that survive.
pub fn apply_allows(findings: Vec<Diagnostic>, allows: &mut [AllowEntry]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for d in findings {
        let allowed = allows
            .iter_mut()
            .find(|a| a.rule == d.rule && (a.line == d.line || a.target_line == d.line));
        match allowed {
            Some(a) => a.used = true,
            None => out.push(d),
        }
    }
    out
}

/// A1 reports for directives that suppressed nothing.
pub fn stale_allow_diags(path: &str, allows: &[AllowEntry]) -> Vec<Diagnostic> {
    allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| Diagnostic {
            file: path.to_owned(),
            line: a.line,
            rule: Rule::A1,
            message: format!(
                "stale allow({}): no matching finding at its target line",
                a.rule
            ),
        })
        .collect()
}

/// Runs the lexer, the item parser, and every per-file rule over one
/// source file. Allow directives are parsed but not applied.
pub fn analyze_source(path: &str, crate_name: &str, src: &str) -> FileAnalysis {
    let toks = lex(src);
    // Comment-free view for pattern matching; comments would otherwise
    // break adjacency in sequences like `Box :: new`.
    let sig: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();

    let parsed = parse::parse_file(path, crate_name, &toks);
    let test_spans = parsed.test_spans.clone();
    let local_roots = collect_local_roots(&sig);
    let (mut allows, diags) = parse_allow_directives(path, &toks);
    for a in &mut allows {
        a.target_line = sig
            .iter()
            .map(|t| t.line)
            .find(|&l| l > a.line)
            .unwrap_or(a.line);
    }
    let safety_lines: Vec<u32> = toks
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Comment(c) if c.contains("SAFETY:") => Some(t.line),
            _ => None,
        })
        .collect();

    let is_sim = SIM_CRATES.contains(&crate_name);
    let is_bench = crate_name == "ssmc-bench";
    let d3_exempt = D3_EXEMPT_FILES.iter().any(|f| path.ends_with(f));

    // Candidate findings, deduplicated per (line, rule) so one source
    // line yields at most one diagnostic per rule.
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut push = |findings: &mut Vec<Diagnostic>, line: u32, rule: Rule, msg: String| {
        if seen.insert((line, rule.name())) {
            findings.push(Diagnostic {
                file: path.to_owned(),
                line,
                rule,
                message: msg,
            });
        }
    };

    for (i, t) in sig.iter().enumerate() {
        let line = t.line;
        let in_test = in_spans(line, &test_spans);

        // D1 — wall-clock reads. Applies everywhere (including tests)
        // except the bench crate, whose whole purpose is host timing.
        if !is_bench {
            if let Some(id @ ("Instant" | "SystemTime")) = t.ident() {
                push(
                    &mut findings,
                    line,
                    Rule::D1,
                    format!("wall-clock type `{id}` outside crates/bench; simulator code must use SimTime"),
                );
            }
        }

        // D2 — unordered containers in simulator crates (non-test code).
        if is_sim && !in_test {
            if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
                push(
                    &mut findings,
                    line,
                    Rule::D2,
                    format!(
                        "`{id}` in simulator crate `{crate_name}`; iteration order is host-random — use BTreeMap/DenseIndex or allow with a determinism argument"
                    ),
                );
            }
        }

        // D3 — threading and std::sync outside parallel_sweep.
        if !d3_exempt && !in_test {
            let hit = if matches_at(
                &sig,
                i,
                &[
                    Pat::Id("thread"),
                    Pat::P(':'),
                    Pat::P(':'),
                    Pat::Id("spawn"),
                ],
            ) {
                Some("thread::spawn")
            } else if matches_at(
                &sig,
                i,
                &[
                    Pat::Id("thread"),
                    Pat::P(':'),
                    Pat::P(':'),
                    Pat::Id("scope"),
                ],
            ) {
                Some("thread::scope")
            } else if matches_at(
                &sig,
                i,
                &[Pat::Id("std"), Pat::P(':'), Pat::P(':'), Pat::Id("sync")],
            ) {
                Some("std::sync")
            } else {
                t.ident()
                    .filter(|id| SYNC_PRIMITIVES.contains(id))
                    .map(|_| "sync primitive")
            };
            if let Some(what) = hit {
                let id = t.ident().unwrap_or("?");
                push(
                    &mut findings,
                    line,
                    Rule::D3,
                    format!("{what} `{id}` outside ssmc_sim::parallel_sweep; the simulator is single-threaded by design"),
                );
            }
        }

        // D4 — external-crate imports (hermetic-workspace guard).
        if t.ident() == Some("use") {
            // Skip a leading `::` (2015-style global path).
            let mut j = i + 1;
            while j < sig.len() && sig[j].is_punct(':') {
                j += 1;
            }
            if let Some(root) = sig.get(j).and_then(|t| t.ident()) {
                let allowed = ALLOWED_USE_ROOTS.contains(&root)
                    || root == "super"
                    || root == "ssmc"
                    || root.starts_with("ssmc_")
                    || root.starts_with(char::is_uppercase)
                    || local_roots.contains(root);
                if !allowed {
                    push(
                        &mut findings,
                        line,
                        Rule::D4,
                        format!("import of external crate `{root}`; the workspace is hermetic (in-tree code only)"),
                    );
                }
            }
        }
        if t.ident() == Some("extern") && sig.get(i + 1).and_then(|t| t.ident()) == Some("crate") {
            push(
                &mut findings,
                line,
                Rule::D4,
                "extern crate declaration; the workspace is hermetic (in-tree code only)"
                    .to_owned(),
            );
        }

        // U1 — unsafe without an adjacent SAFETY comment.
        if t.ident() == Some("unsafe") {
            let documented = safety_lines
                .iter()
                .any(|&sl| sl <= line && line.saturating_sub(sl) <= 3);
            if !documented {
                push(
                    &mut findings,
                    line,
                    Rule::U1,
                    "unsafe without a `// SAFETY:` comment within the three preceding lines"
                        .to_owned(),
                );
            }
        }
    }

    // U2 — dimensional-suffix mixing (statement-granular, so it gets its
    // own scan instead of the per-token loop above).
    if is_sim {
        for (line, msg) in unit_mixing_findings(&sig, &test_spans) {
            push(&mut findings, line, Rule::U2, msg);
        }
    }

    FileAnalysis {
        parsed,
        findings,
        allows,
        diags,
    }
}

/// Rule U2: within one statement segment, identifiers carrying two
/// *different* suffixes of the same dimension (time `_ns`/`_us`/`_ms`,
/// energy `_nj`/`_mj`) combined by an operator are a unit bug unless a
/// named conversion fn (any ident containing `_to_`) sanctions the
/// statement. Segments break at `;`, `{`, `}`, `,`, `&&`, and `||`, so
/// argument lists and independent clauses never pool their suffixes.
fn unit_mixing_findings(sig: &[&Tok], test_spans: &[(u32, u32)]) -> Vec<(u32, String)> {
    let suffix_of = |id: &str| -> Option<(usize, &'static str)> {
        for s in TIME_SUFFIXES {
            if id.ends_with(s) {
                return Some((0, s));
            }
        }
        for s in ENERGY_SUFFIXES {
            if id.ends_with(s) {
                return Some((1, s));
            }
        }
        None
    };
    const DIM_NAMES: [&str; 2] = ["time", "energy"];

    let mut out = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        // Find the segment end.
        let mut j = i;
        while j < sig.len() {
            let t = sig[j];
            let two = |c: char| t.is_punct(c) && sig.get(j + 1).is_some_and(|n| n.is_punct(c));
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(',') {
                break;
            }
            if two('&') || two('|') {
                j += 1; // consume the pair below
                break;
            }
            j += 1;
        }
        let seg = &sig[i..j];
        let mut dims: [Vec<&'static str>; 2] = [Vec::new(), Vec::new()];
        let mut mix: Option<(u32, usize)> = None;
        let mut has_op = false;
        let mut sanctioned = false;
        for (k, t) in seg.iter().enumerate() {
            match &t.kind {
                TokKind::Ident(id) => {
                    if id.contains("_to_") {
                        sanctioned = true;
                    }
                    if let Some((d, s)) = suffix_of(id) {
                        if !dims[d].contains(&s) {
                            dims[d].push(s);
                            if dims[d].len() == 2 && mix.is_none() {
                                mix = Some((t.line, d));
                            }
                        }
                    }
                }
                TokKind::Punct(c) => {
                    let next_gt = seg.get(k + 1).is_some_and(|n| n.is_punct('>'));
                    let prev_arrowish =
                        k > 0 && (seg[k - 1].is_punct('-') || seg[k - 1].is_punct('='));
                    match c {
                        '+' | '*' | '/' | '%' | '<' => has_op = true,
                        // `->` and `=>` are not operators.
                        '-' | '=' if !next_gt => has_op = true,
                        '>' if !prev_arrowish => has_op = true,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        if let Some((line, d)) = mix {
            if has_op && !sanctioned && !in_spans(line, test_spans) {
                out.push((
                    line,
                    format!(
                        "statement mixes {}-unit suffixes ({}) without a named conversion fn (`*_to_*`)",
                        DIM_NAMES[d],
                        dims[d].join(", "),
                    ),
                ));
            }
        }
        i = j + 1;
    }
    out
}

/// Parses every `lint: allow(RULE): justification` directive in the
/// file. Malformed or unjustified directives are reported immediately
/// (A1) and do not suppress anything.
fn parse_allow_directives(path: &str, toks: &[Tok]) -> (Vec<AllowEntry>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for t in toks {
        let TokKind::Comment(text) = &t.kind else {
            continue;
        };
        // The directive must open the comment; prose that merely
        // mentions the syntax (like this sentence) is inert.
        let Some(rest) = text.trim_start().strip_prefix("lint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic {
                file: path.to_owned(),
                line: t.line,
                rule: Rule::A1,
                message: "malformed allow directive: missing `)`".to_owned(),
            });
            continue;
        };
        let rule_name = rest[..close].trim();
        let after = &rest[close + 1..];
        let Some(rule) = Rule::parse(rule_name) else {
            diags.push(Diagnostic {
                file: path.to_owned(),
                line: t.line,
                rule: Rule::A1,
                message: format!("allow directive names unknown rule `{rule_name}`"),
            });
            continue;
        };
        let just = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if just.len() < 10 {
            diags.push(Diagnostic {
                file: path.to_owned(),
                line: t.line,
                rule: Rule::A1,
                message: format!(
                    "allow({rule}) requires a written justification with at least ten characters"
                ),
            });
            continue;
        }
        allows.push(AllowEntry {
            line: t.line,
            target_line: t.line,
            rule,
            used: false,
        });
    }
    (allows, diags)
}

/// Collects `use`-path roots that are locally bound in this file: names
/// declared by `mod` items and names bound by other `use` statements
/// (Rust 2018 uniform paths let `use fmt::Write` resolve through an
/// earlier `use std::fmt`).
fn collect_local_roots(sig: &[&Tok]) -> BTreeSet<String> {
    let mut roots = BTreeSet::new();
    let mut i = 0;
    while i < sig.len() {
        match sig[i].ident() {
            Some("mod") => {
                if let Some(name) = sig.get(i + 1).and_then(|t| t.ident()) {
                    roots.insert(name.to_owned());
                }
            }
            Some("use") => {
                // Every ident after the root is a name the statement may
                // bind (`use std::fmt;` binds `fmt`). The root itself is
                // deliberately excluded so an external import cannot
                // launder its own name.
                let mut j = i + 1;
                let mut seen_root = false;
                while j < sig.len() && !sig[j].is_punct(';') {
                    if let Some(id) = sig[j].ident() {
                        if seen_root {
                            roots.insert(id.to_owned());
                        } else {
                            seen_root = true;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, krate: &str, src: &str) -> Vec<String> {
        lint_source(path, krate, src)
            .into_iter()
            .map(|d| d.rule.name().to_owned())
            .collect()
    }

    #[test]
    fn d2_skips_cfg_test_items() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n}\n";
        assert!(rules_fired("x.rs", "ssmc-storage", src).is_empty());
    }

    #[test]
    fn d2_fires_once_per_line_outside_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let diags = lint_source("x.rs", "ssmc-storage", src);
        assert_eq!(diags.len(), 2); // line 1 and line 2, deduped within each
        assert!(diags.iter().all(|d| d.rule == Rule::D2));
    }

    #[test]
    fn d2_does_not_apply_outside_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert!(rules_fired("x.rs", "ssmc-lint", src).is_empty());
    }

    #[test]
    fn allow_directive_consumes_and_requires_justification() {
        let good = "// lint: allow(D2): keyed access only, never iterated.\nuse std::collections::HashMap;\n";
        assert!(rules_fired("x.rs", "ssmc-core", good).is_empty());
        let unjustified = "// lint: allow(D2)\nuse std::collections::HashMap;\n";
        let fired = rules_fired("x.rs", "ssmc-core", unjustified);
        assert!(fired.contains(&"A1".to_owned()) && fired.contains(&"D2".to_owned()));
    }

    #[test]
    fn directive_naming_a_retired_rule_is_unknown() {
        // P1 (panic reachability) was retired; a leftover directive for it
        // must fail loudly rather than sit inert.
        let src = "// lint: allow(P1): the index is masked to the table size.\nfn f(t: &[u32; 256], b: u8) -> u32 { t[b as usize] }\n";
        let diags = lint_source("x.rs", "ssmc-storage", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::A1);
        assert!(
            diags[0].message.contains("names unknown rule `P1`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// lint: allow(D1): nothing here actually uses Instant.\nfn f() {}\n";
        let diags = lint_source("x.rs", "ssmc-core", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::A1);
    }

    #[test]
    fn u1_accepts_nearby_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert_eq!(rules_fired("x.rs", "ssmc-bench", bad), vec!["U1"]);
        let good = "// SAFETY: guarded by the bounds check above.\nfn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        assert!(rules_fired("x.rs", "ssmc-bench", good).is_empty());
    }

    #[test]
    fn d4_flags_external_roots_only() {
        let src = "use std::fmt;\nuse crate::x;\nuse ssmc_sim::report;\nuse serde::Serialize;\n";
        let diags = lint_source("x.rs", "ssmc-core", src);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].rule, diags[0].line), (Rule::D4, 4));
    }

    #[test]
    fn d3_exempts_par_rs_and_tests() {
        let src = "use std::sync::Mutex;\n";
        assert!(rules_fired("crates/sim/src/par.rs", "ssmc-sim", src).is_empty());
        assert_eq!(
            rules_fired("crates/sim/src/other.rs", "ssmc-sim", src),
            vec!["D3"]
        );
    }

    #[test]
    fn d1_ignores_comments_and_strings() {
        let src = "// Instant is banned here\nfn f() { let s = \"Instant\"; }\n";
        assert!(rules_fired("x.rs", "ssmc-core", src).is_empty());
    }

    #[test]
    fn u2_flags_mixed_time_suffixes_in_arithmetic() {
        let src = "fn f(a_ns: u64, b_ms: u64) -> u64 { a_ns + b_ms }\n";
        let diags = lint_source("x.rs", "ssmc-storage", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::U2);
        assert!(diags[0].message.contains("_ns") && diags[0].message.contains("_ms"));
    }

    #[test]
    fn u2_flags_mixed_energy_assignment() {
        let src = "fn f(total_nj: &mut u64, add_mj: u64) { *total_nj = add_mj; }\n";
        assert_eq!(rules_fired("x.rs", "ssmc-device", src), vec!["U2"]);
    }

    #[test]
    fn u2_accepts_named_conversion_fns() {
        let src = "fn f(a_ns: u64, b_ms: u64) -> u64 { a_ns + ms_to_ns(b_ms) }\n";
        assert!(rules_fired("x.rs", "ssmc-storage", src).is_empty());
    }

    #[test]
    fn u2_segments_do_not_pool_across_args_or_clauses() {
        // Distinct arguments and `&&`-joined clauses are independent.
        let src = "fn f(a_ns: u64, b_ms: u64) -> bool { g(a_ns, b_ms); a_ns > 1 && b_ms > 2 }\n";
        assert!(rules_fired("x.rs", "ssmc-storage", src).is_empty());
    }

    #[test]
    fn u2_same_suffix_is_consistent() {
        let src = "fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }\n";
        assert!(rules_fired("x.rs", "ssmc-storage", src).is_empty());
    }

    #[test]
    fn u2_only_applies_to_sim_crates() {
        let src = "fn f(a_ns: u64, b_ms: u64) -> u64 { a_ns + b_ms }\n";
        assert!(rules_fired("x.rs", "ssmc-bench", src).is_empty());
    }
}
