//! CLI for `ssmc-lint`.
//!
//! ```text
//! cargo run -p ssmc-lint -- --workspace [--root PATH] [--json] [--graph-out PATH]
//! cargo run -p ssmc-lint -- --explain RULE
//! ```
//!
//! Exits 0 when the tree lints clean, 1 when any diagnostic fires, 2 on
//! usage or I/O errors. Diagnostics print as `file:line: RULE: message`;
//! `--json` emits the run as report JSON on stdout instead (including
//! `lint.functions` / `lint.edges` / `lint.diags`, the call-graph
//! dimensions future changes can gate on). `--graph-out` writes the
//! name-ordered call-graph dump.

#![forbid(unsafe_code)]

use ssmc_lint::{analyze_workspace, run_to_report, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ssmc-lint --workspace [--root PATH] [--json] [--graph-out PATH] | --explain RULE";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut graph_out: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ssmc-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--graph-out" => match args.next() {
                Some(p) => graph_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ssmc-lint: --graph-out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(r) => explain = Some(r),
                None => {
                    eprintln!(
                        "ssmc-lint: --explain requires a rule name (one of: {})",
                        rule_list()
                    );
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("ssmc-lint: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(name) = explain {
        return explain_rule(&name);
    }
    if !workspace {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let analysis = match analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssmc-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = graph_out {
        if let Err(e) = std::fs::write(&path, analysis.graph.dump()) {
            eprintln!("ssmc-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let diags = &analysis.diags;
    if json {
        println!(
            "{}",
            run_to_report(
                analysis.checked_files,
                analysis.graph.nodes.len(),
                analysis.graph.edge_count(),
                diags
            )
            .encode_pretty()
        );
    } else {
        for d in diags {
            println!("{d}");
        }
        eprintln!(
            "ssmc-lint: checked {} files ({} functions, {} call edges), {} diagnostic{}",
            analysis.checked_files,
            analysis.graph.nodes.len(),
            analysis.graph.edge_count(),
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn rule_list() -> String {
    Rule::ALL.map(|r| r.name()).join(", ")
}

/// Prints the shared rule-catalog entry for one rule (or all of them).
fn explain_rule(name: &str) -> ExitCode {
    if name == "all" {
        for rule in Rule::ALL {
            print_doc(rule);
            println!();
        }
        return ExitCode::SUCCESS;
    }
    match Rule::parse(name) {
        Some(rule) => {
            print_doc(rule);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "ssmc-lint: unknown rule `{name}` (one of: {}, or `all`)",
                rule_list()
            );
            ExitCode::from(2)
        }
    }
}

fn print_doc(rule: Rule) {
    let doc = rule.explain();
    println!("{}: {}", rule.name(), doc.summary);
    println!();
    println!("  why:   {}", doc.rationale);
    println!("  allow: {}", doc.allow);
}

/// Walks up from the current directory to the first directory containing
/// a `Cargo.toml` with a `[workspace]` table.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
