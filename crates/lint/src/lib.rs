//! `ssmc-lint`: the in-tree invariant linter.
//!
//! A dependency-free static analysis pass over every workspace `.rs`
//! file, enforcing the determinism, hermeticity, hot-path, and
//! energy-attribution rules catalogued in DESIGN.md §8. The linter is
//! built from a hand-rolled lexer ([`lexer`]), a token-pattern rule
//! engine ([`rules`]), and a lightweight item parser ([`parse`]) that
//! feeds a workspace-wide call graph ([`graph`]) for the
//! interprocedural passes (H2/E1). A finding is accepted only by an
//! inline `// lint: allow(RULE): <why>` directive ([`rules`]), which rule
//! A1 keeps honest. It deliberately has no external dependencies,
//! because rule D4 is the property that keeps it that way.
//!
//! Run it with `cargo run -p ssmc-lint -- --workspace`.

#![forbid(unsafe_code)]

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use diag::{run_to_report, Diagnostic, Rule};
pub use rules::lint_source;

use rules::{analyze_source, apply_allows, stale_allow_diags};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, VCS metadata, and the
/// linter's own fixture corpus (which exists to violate the rules).
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Maps a repo-relative path to the cargo package that owns it:
/// `crates/<name>/...` → `ssmc-<name>`, everything else → the root
/// package `ssmc`.
pub fn crate_for_path(rel: &str) -> String {
    let rel = rel.replace('\\', "/");
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return format!("ssmc-{name}");
        }
    }
    "ssmc".to_owned()
}

/// The result of a lint run.
pub struct WorkspaceAnalysis {
    pub checked_files: usize,
    pub graph: graph::CallGraph,
    /// Final diagnostics: per-file rules, interprocedural findings, and
    /// A1 allow hygiene, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
}

/// Lints every `.rs` file under `root` (the workspace root) through the
/// same pipeline as [`lint_files`], with crate dependencies read from
/// the package manifests.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceAnalysis> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for rel in &paths {
        let src = fs::read_to_string(root.join(rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let krate = crate_for_path(&rel);
        sources.push((rel, krate, src));
    }
    let files: Vec<(&str, &str, &str)> = sources
        .iter()
        .map(|(p, k, s)| (p.as_str(), k.as_str(), s.as_str()))
        .collect();
    let deps = crate_deps_from_manifests(root).unwrap_or_else(|_| graph::CrateDeps::permissive());
    Ok(run_pipeline(&files, &deps))
}

/// Runs the full pipeline over an in-memory `(path, crate, source)` file
/// set — the harness for multi-file fixtures. Crate dependencies are
/// permissive.
pub fn lint_files(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    run_pipeline(files, &graph::CrateDeps::permissive()).diags
}

/// The one lint pipeline: per-file rules, call-graph construction, the
/// interprocedural passes, and A1 allow hygiene.
fn run_pipeline(files: &[(&str, &str, &str)], deps: &graph::CrateDeps) -> WorkspaceAnalysis {
    let mut parsed_files = Vec::new();
    // Per file: (path, per-file findings pre-allow, allows, final diags).
    let mut per_file = Vec::new();
    for &(path, krate, src) in files {
        let a = analyze_source(path, krate, src);
        parsed_files.push(a.parsed);
        per_file.push((path, a.findings, a.allows, a.diags));
    }
    let call_graph = graph::CallGraph::build(&parsed_files, deps);

    // Per-file rules consume their allows first, then the graph passes
    // get a shot at the rest; A1 staleness is judged only after both.
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (_, findings, allows, immediate) in &mut per_file {
        diags.append(immediate);
        diags.extend(apply_allows(std::mem::take(findings), allows));
    }
    let mut allow_view = graph::Allows {
        by_file: per_file
            .iter_mut()
            .map(|(path, _, allows, _)| (*path, allows.as_mut_slice()))
            .collect(),
    };
    diags.extend(graph::run_passes(&call_graph, &mut allow_view));
    for (path, _, allows, _) in &per_file {
        diags.extend(stale_allow_diags(path, allows));
    }
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    WorkspaceAnalysis {
        checked_files: files.len(),
        graph: call_graph,
        diags,
    }
}

/// Reads the direct `ssmc-*` dependency edges out of every package
/// manifest (`[dependencies]` tables only — dev-dependencies feed test
/// code, which never contributes call edges) and closes them
/// transitively. A crate the map does not know stays permissive.
fn crate_deps_from_manifests(root: &Path) -> io::Result<graph::CrateDeps> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut add_manifest = |name: &str, text: &str| {
        let mut deps = BTreeSet::new();
        let mut in_deps = false;
        for line in text.lines() {
            let l = line.trim();
            if l.starts_with('[') {
                in_deps = l.starts_with("[dependencies");
                continue;
            }
            if in_deps {
                if let Some((key, _)) = l.split_once('=') {
                    let key = key.trim().split('.').next().unwrap_or("").trim();
                    if key.starts_with("ssmc") {
                        deps.insert(key.to_owned());
                    }
                }
            }
        }
        direct.insert(name.to_owned(), deps);
    };
    if let Ok(text) = fs::read_to_string(root.join("Cargo.toml")) {
        add_manifest("ssmc", &text);
    }
    for entry in fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        if !entry.path().is_dir() {
            continue;
        }
        let name = format!("ssmc-{}", entry.file_name().to_string_lossy());
        if let Ok(text) = fs::read_to_string(entry.path().join("Cargo.toml")) {
            add_manifest(&name, &text);
        }
    }
    Ok(graph::CrateDeps::from_direct(&direct))
}

/// Whether `dir` holds its own cargo workspace (a manifest with a
/// `[workspace]` table), which builds apart from this one and is not
/// linted as part of it.
fn is_nested_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref())
                || name.starts_with('.')
                || is_nested_workspace(&path)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_owned());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_classification() {
        assert_eq!(crate_for_path("crates/storage/src/manager.rs"), "ssmc-storage");
        assert_eq!(crate_for_path("crates/bench/benches/simulator.rs"), "ssmc-bench");
        assert_eq!(crate_for_path("src/lib.rs"), "ssmc");
        assert_eq!(crate_for_path("tests/determinism.rs"), "ssmc");
        assert_eq!(crate_for_path("examples/replay.rs"), "ssmc");
    }

    #[test]
    fn lint_files_runs_interprocedural_passes() {
        let caller = "// lint: hot-path\npub fn hot() { crate::help::helper(); }\n";
        let helper = "pub fn helper(&self) { let v = vec![1]; }\n";
        let diags = lint_files(&[
            ("crates/storage/src/manager.rs", "ssmc-storage", caller),
            ("crates/storage/src/help.rs", "ssmc-storage", helper),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::H2);
        assert!(diags[0].message.contains("hot → helper"), "{}", diags[0].message);
    }
}
