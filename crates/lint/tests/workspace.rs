//! Self-test: the live workspace must lint clean. This is the same
//! check `scripts/ci.sh` runs via the CLI, wired into `cargo test` so a
//! violation fails the suite even when CI is not involved.

use ssmc_lint::analyze_workspace;
use std::path::PathBuf;

#[test]
fn live_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let a = analyze_workspace(&root).expect("walk workspace");
    // The workspace has 9 crates plus the root package; anything under
    // ~50 files means the walker silently missed most of the tree.
    assert!(
        a.checked_files > 50,
        "only {} files checked — walker is broken",
        a.checked_files
    );
    // The interprocedural passes must actually have a graph to walk: a
    // near-empty graph means the item parser or call resolution silently
    // regressed and H2/E1 are vacuously "clean". The passes themselves
    // are kept honest by the tree's site allows: if the H2 pass stopped
    // finding anything, every `allow(H2)` on an allocating line would go
    // stale, and A1 would fail the clean-workspace assert below.
    assert!(
        a.graph.nodes.len() > 500 && a.graph.edge_count() > 1000,
        "call graph too small ({} functions, {} edges) — parser or resolver regressed",
        a.graph.nodes.len(),
        a.graph.edge_count()
    );
    assert!(
        a.diags.is_empty(),
        "workspace must lint clean, got {} diagnostics:\n{}",
        a.diags.len(),
        a.diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
