//! Fixture-corpus check.
//!
//! Per-file rules iterate the `{rule}_bad.rs` / `{rule}_clean.rs`
//! convention: every bad fixture must produce exactly one diagnostic of
//! its rule, every clean fixture none. The interprocedural rules
//! (H2/E1) need a call graph, so their fixtures run through
//! [`ssmc_lint::lint_files`] under synthetic `crates/...` paths — paths
//! under `tests/` would mark every function test-only and exclude it
//! from the graph. The fixtures live outside the workspace walk (the
//! walker skips `fixtures/` directories) and are never compiled — they
//! are pure lexer/rule-engine input.

use ssmc_lint::{lint_files, lint_source, Diagnostic, Rule};
use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Fixtures lint as simulator-crate code so every rule is in scope.
const FIXTURE_CRATE: &str = "ssmc-storage";

/// The rules whose fixtures are a single file through [`lint_source`].
/// H2/E1 are interprocedural (explicit tests below).
const PER_FILE_RULES: [Rule; 8] = [
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::H1,
    Rule::U1,
    Rule::U2,
    Rule::A1,
];

fn render(diags: &[Diagnostic]) -> Vec<String> {
    diags.iter().map(|d| d.to_string()).collect()
}

#[test]
fn every_bad_fixture_fires_its_rule_exactly_once() {
    for rule in PER_FILE_RULES {
        let name = format!("{}_bad.rs", rule.name().to_lowercase());
        let src = fixture(&name);
        let path = format!("crates/lint/tests/fixtures/{name}");
        let diags = lint_source(&path, FIXTURE_CRATE, &src);
        assert_eq!(
            diags.len(),
            1,
            "{name}: expected exactly one diagnostic, got {:?}",
            render(&diags)
        );
        assert_eq!(diags[0].rule, rule, "{name}: wrong rule: {}", diags[0]);
    }
}

#[test]
fn every_clean_fixture_is_silent() {
    for rule in PER_FILE_RULES {
        let name = format!("{}_clean.rs", rule.name().to_lowercase());
        let src = fixture(&name);
        let path = format!("crates/lint/tests/fixtures/{name}");
        let diags = lint_source(&path, FIXTURE_CRATE, &src);
        assert!(
            diags.is_empty(),
            "{name}: expected no diagnostics, got {:?}",
            render(&diags)
        );
    }
}

#[test]
fn bad_fixture_diagnostics_render_the_contract_format() {
    let src = fixture("d2_bad.rs");
    let diags = lint_source("crates/lint/tests/fixtures/d2_bad.rs", FIXTURE_CRATE, &src);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/lint/tests/fixtures/d2_bad.rs:")
            && rendered.contains(": D2: "),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn h1_fixture_survives_an_inner_block_before_the_allocation() {
    // Regression: a line-oriented span heuristic ended the hot span at
    // the if-block's `}`, hiding the `.to_vec()` after it.
    let src = fixture("h1_depth_bad.rs");
    let diags = lint_source(
        "crates/lint/tests/fixtures/h1_depth_bad.rs",
        FIXTURE_CRATE,
        &src,
    );
    assert_eq!(diags.len(), 1, "{:?}", render(&diags));
    assert_eq!(diags[0].rule, Rule::H1, "{}", diags[0]);
    assert!(diags[0].message.contains(".to_vec()"), "{}", diags[0]);
}

#[test]
fn h1_capacity_fixtures_match_only_the_path_forms() {
    let lint = |name: &str| {
        let path = format!("crates/lint/tests/fixtures/{name}");
        lint_source(&path, FIXTURE_CRATE, &fixture(name))
    };
    let diags = lint("h1_capacity_bad.rs");
    let rendered = render(&diags);
    assert_eq!(diags.len(), 2, "{rendered:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::H1), "{rendered:?}");
    assert!(
        diags[0].message.contains("Vec::with_capacity"),
        "{}",
        diags[0]
    );
    assert!(
        diags[1].message.contains("String::with_capacity"),
        "{}",
        diags[1]
    );
    let diags = lint("h1_capacity_clean.rs");
    assert!(diags.is_empty(), "{:?}", render(&diags));
}

/// Runs an interprocedural fixture pair: `entry` becomes
/// `crates/storage/src/entry.rs`, `helper` (if any) becomes the `help`
/// module the entry calls into.
fn lint_interprocedural(entry: &str, helper: Option<&str>) -> Vec<Diagnostic> {
    let entry_src = fixture(entry);
    let helper_src = helper.map(fixture);
    let mut files = vec![(
        "crates/storage/src/entry.rs",
        FIXTURE_CRATE,
        entry_src.as_str(),
    )];
    if let Some(src) = helper_src.as_deref() {
        files.push(("crates/storage/src/help.rs", FIXTURE_CRATE, src));
    }
    lint_files(&files)
}

#[test]
fn h2_bad_fixture_reports_the_chain_across_files() {
    let diags = lint_interprocedural("h2_bad_entry.rs", Some("h2_bad_helper.rs"));
    assert_eq!(diags.len(), 1, "{:?}", render(&diags));
    assert_eq!(diags[0].rule, Rule::H2, "{}", diags[0]);
    assert!(
        diags[0]
            .message
            .contains("replay_op → record_op → Vec::new"),
        "chain missing: {}",
        diags[0]
    );
}

#[test]
fn h2_clean_fixture_breaks_the_chain_at_the_allowed_edge() {
    let diags = lint_interprocedural("h2_clean_entry.rs", Some("h2_bad_helper.rs"));
    assert!(diags.is_empty(), "{:?}", render(&diags));
}

#[test]
fn h2_reports_a_sized_vec_behind_a_hot_root() {
    let diags = lint_interprocedural("h2_bad_entry.rs", Some("h2_capacity_helper.rs"));
    assert_eq!(diags.len(), 1, "{:?}", render(&diags));
    assert_eq!(diags[0].rule, Rule::H2, "{}", diags[0]);
    assert!(
        diags[0]
            .message
            .contains("replay_op → record_op → Vec::with_capacity"),
        "chain missing: {}",
        diags[0]
    );
}

#[test]
fn h2_site_allow_silences_only_its_own_line() {
    // The helper's first allocation carries an argued allow; its second
    // allocation does not, and must still fire. The allow is used, so A1
    // stays silent.
    let src = fixture("h2_site_allow_helper.rs");
    let clone_line = src.lines().position(|l| l.contains(".clone()")).unwrap() as u32 + 1;
    let diags = lint_interprocedural("h2_bad_entry.rs", Some("h2_site_allow_helper.rs"));
    assert_eq!(diags.len(), 1, "{:?}", render(&diags));
    assert_eq!(diags[0].rule, Rule::H2, "{}", diags[0]);
    assert_eq!(diags[0].line, clone_line, "{}", diags[0]);
    assert!(
        diags[0].message.contains("record_op → .clone()"),
        "{}",
        diags[0]
    );
}

#[test]
fn e1_bad_fixture_reports_double_charging() {
    let diags = lint_interprocedural("e1_bad.rs", None);
    assert_eq!(diags.len(), 1, "{:?}", render(&diags));
    assert_eq!(diags[0].rule, Rule::E1, "{}", diags[0]);
    assert!(
        diags[0].message.contains("sum one level, not both"),
        "rationale missing: {}",
        diags[0]
    );
}

#[test]
fn e1_clean_fixture_charges_at_one_level_only() {
    let diags = lint_interprocedural("e1_clean.rs", None);
    assert!(diags.is_empty(), "{:?}", render(&diags));
}
