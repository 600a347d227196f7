//! The workspace call graph and the interprocedural passes that run
//! over it (rules H2 and E1).
//!
//! # Construction and what resolution over-approximates
//!
//! Nodes are every `fn` item the parser found, keyed by qualified name
//! (`crate::module::Type::fn`). Edges come from call sites, resolved
//! without type information:
//!
//! - `self.m(...)` resolves to `Owner::m` of the enclosing impl when it
//!   exists, else to **every** workspace method named `m`.
//! - `expr.m(...)` resolves to every workspace method named `m` — the
//!   deliberate over-approximation that makes reachability sound without
//!   a type checker. `std` methods produce no edges (no workspace node).
//! - `a::b::f(...)` expands its first segment through the file's `use`
//!   bindings (`crate`/`self`/`super`/`Self` handled), then matches
//!   nodes whose qualified path ends with the written segments; paths
//!   rooted at a workspace crate must match exactly.
//! - `f(...)` resolves to the same-module `f`, else through `use`
//!   bindings; an unresolvable bare name is assumed external (no edge).
//!
//! Edges are filtered by the cargo dependency direction: a call in crate
//! A can only target crates in A's transitive dependency closure (plus A
//! itself), so a `.get(` in `ssmc-storage` can never "reach" a helper in
//! `ssmc-bench`. `#[cfg(test)]`/test-file functions and
//! `#[cfg(debug_assertions)]` functions are never edge sources or
//! targets: the passes model the release simulator binary.

use crate::diag::{Diagnostic, Rule};
use crate::parse::{CallKind, ParsedFile, Site};
use crate::rules::AllowEntry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The fully-qualified names of the energy-accounting primitives. Rule
/// E1 exempts them: *being* the ledger is not double-charging it. The
/// workspace self-test checks that each one is a live function.
pub const CHARGE_PRIMITIVES: [&str; 1] = ["ssmc_sim::energy::EnergyLedger::charge"];

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub qual: String,
    pub name: String,
    pub owner: Option<String>,
    pub file: String,
    pub krate: String,
    pub line: u32,
    pub is_hot: bool,
    pub is_test: bool,
    pub is_debug: bool,
    pub alloc_sites: Vec<Site>,
    pub charge_sites: Vec<Site>,
}

impl Node {
    /// Short display form for call chains: `Owner::name` or `name`.
    fn short(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub to: usize,
    /// Call-site line in the caller's file — where an edge-breaking
    /// `// lint: allow(RULE): ...` directive goes.
    pub line: u32,
    /// True when the call only exists under `debug_assertions`.
    pub in_debug_assert: bool,
}

/// Transitive crate dependency closure, used to direction-filter edges.
#[derive(Debug, Clone, Default)]
pub struct CrateDeps {
    /// crate name → crates it may call into (includes itself). A crate
    /// absent from the map may call anything (permissive default, used
    /// by the single-file fixture harness).
    closure: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// Builds the transitive closure from direct dependency edges.
    pub fn from_direct(direct: &BTreeMap<String, BTreeSet<String>>) -> CrateDeps {
        let mut closure = BTreeMap::new();
        for name in direct.keys() {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut stack = vec![name.clone()];
            while let Some(k) = stack.pop() {
                if !seen.insert(k.clone()) {
                    continue;
                }
                if let Some(ds) = direct.get(&k) {
                    for d in ds {
                        stack.push(d.clone());
                    }
                }
            }
            closure.insert(name.clone(), seen);
        }
        CrateDeps { closure }
    }

    /// Everything-may-call-everything (fixture harness default).
    pub fn permissive() -> CrateDeps {
        CrateDeps::default()
    }

    fn allows(&self, from: &str, to: &str) -> bool {
        match self.closure.get(from) {
            Some(set) => set.contains(to),
            None => true,
        }
    }
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Adjacency lists, deduplicated, sorted by (callee qual, line) for
    /// deterministic traversal order.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Builds the graph from every parsed file.
    pub fn build(files: &[ParsedFile], deps: &CrateDeps) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        for pf in files {
            for f in &pf.fns {
                nodes.push(Node {
                    qual: f.qual.clone(),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    file: pf.path.clone(),
                    krate: pf.krate.clone(),
                    line: f.sig_line,
                    is_hot: f.is_hot,
                    is_test: f.is_test,
                    is_debug: f.is_debug,
                    alloc_sites: f.alloc_sites.clone(),
                    charge_sites: f.charge_sites.clone(),
                });
            }
        }

        // Indexes over *eligible targets*: release-mode, non-test fns.
        let eligible = |n: &Node| !n.is_test && !n.is_debug;
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_owner_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut qual_segs: Vec<Vec<&str>> = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            qual_segs.push(n.qual.split("::").collect());
            if !eligible(n) {
                continue;
            }
            by_qual.entry(&n.qual).or_default().push(i);
            if let Some(o) = &n.owner {
                by_method.entry(&n.name).or_default().push(i);
                by_owner_method
                    .entry((o.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
            }
        }

        let suffix_matches = |segs: &[String], out: &mut Vec<usize>| {
            for (i, n) in nodes.iter().enumerate() {
                if !eligible(n) {
                    continue;
                }
                let q = &qual_segs[i];
                if q.len() >= segs.len()
                    && q[q.len() - segs.len()..]
                        .iter()
                        .zip(segs)
                        .all(|(a, b)| *a == b)
                {
                    out.push(i);
                }
            }
        };

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut node_idx = 0usize;
        for pf in files {
            for f in &pf.fns {
                let caller = node_idx;
                node_idx += 1;
                if f.is_test || f.is_debug {
                    continue; // not part of the release call graph
                }
                for call in &f.calls {
                    let mut cands: Vec<usize> = Vec::new();
                    match &call.kind {
                        CallKind::Macro(_) => {}
                        CallKind::SelfMethod(m) => {
                            let exact = f
                                .owner
                                .as_ref()
                                .and_then(|o| by_owner_method.get(&(o.clone(), m.clone())));
                            match exact {
                                Some(v) => cands.extend(v.iter().copied()),
                                None => {
                                    if let Some(v) = by_method.get(m.as_str()) {
                                        cands.extend(v.iter().copied());
                                    }
                                }
                            }
                        }
                        CallKind::Method(m) => {
                            if let Some(v) = by_method.get(m.as_str()) {
                                cands.extend(v.iter().copied());
                            }
                        }
                        CallKind::Bare(name) => {
                            // Same module first: an exact local hit wins.
                            let local = format!("{}::{name}", pf.module.join("::"));
                            if let Some(v) = by_qual.get(local.as_str()) {
                                cands.extend(v.iter().copied());
                            } else {
                                for exp in
                                    expand(std::slice::from_ref(name), pf, f.owner.as_deref())
                                {
                                    resolve_path(&exp, &by_qual, &suffix_matches, &mut cands);
                                }
                            }
                        }
                        CallKind::Path(segs) => {
                            for exp in expand(segs, pf, f.owner.as_deref()) {
                                resolve_path(&exp, &by_qual, &suffix_matches, &mut cands);
                            }
                        }
                    }
                    for to in cands {
                        if to == caller {
                            continue; // self-recursion adds nothing to reachability
                        }
                        if !deps.allows(&pf.krate, &nodes[to].krate) {
                            continue;
                        }
                        edges[caller].push(Edge {
                            to,
                            line: call.line,
                            in_debug_assert: call.in_debug_assert,
                        });
                    }
                }
            }
        }
        for adj in &mut edges {
            adj.sort_by(|a, b| (&nodes[a.to].qual, a.line).cmp(&(&nodes[b.to].qual, b.line)));
            adj.dedup();
        }
        CallGraph { nodes, edges }
    }

    /// Renders the graph as a stable, name-ordered text dump
    /// (`--graph-out`).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# ssmc-lint call graph: {} functions, {} edges\n",
            self.nodes.len(),
            self.edge_count()
        ));
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| (&self.nodes[a].qual, a).cmp(&(&self.nodes[b].qual, b)));
        for &i in &order {
            let n = &self.nodes[i];
            let mut flags = String::new();
            if n.is_hot {
                flags.push_str(" hot");
            }
            if n.is_test {
                flags.push_str(" test");
            }
            if n.is_debug {
                flags.push_str(" debug");
            }
            out.push_str(&format!("fn {} {}:{}{}\n", n.qual, n.file, n.line, flags));
            for e in &self.edges[i] {
                out.push_str(&format!(
                    "  -> {} @ {}:{}{}\n",
                    self.nodes[e.to].qual,
                    n.file,
                    e.line,
                    if e.in_debug_assert {
                        " (debug_assert)"
                    } else {
                        ""
                    }
                ));
            }
        }
        out
    }
}

/// Expands the first segment of a written path through `crate`/`self`/
/// `super`/`Self` and the file's `use` bindings. Returns every possible
/// absolute-or-suffix form.
fn expand(segs: &[String], pf: &ParsedFile, owner: Option<&str>) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let first = segs[0].as_str();
    match first {
        "crate" => {
            let mut v = vec![pf.module[0].clone()];
            v.extend(segs[1..].iter().cloned());
            out.push(v);
        }
        "self" => {
            let mut v = pf.module.clone();
            v.extend(segs[1..].iter().cloned());
            out.push(v);
        }
        "super" => {
            let mut base = pf.module.clone();
            let mut rest = segs;
            while rest.first().map(String::as_str) == Some("super") {
                base.pop();
                rest = &rest[1..];
            }
            base.extend(rest.iter().cloned());
            out.push(base);
        }
        "Self" => {
            if let Some(o) = owner {
                let mut v = vec![o.to_owned()];
                v.extend(segs[1..].iter().cloned());
                out.push(v);
            }
        }
        _ => {
            if let Some(paths) = pf.uses.get(first) {
                for p in paths {
                    // The binding may itself start with crate/self/super.
                    let mut full = p.clone();
                    full.extend(segs[1..].iter().cloned());
                    if matches!(full[0].as_str(), "crate" | "self" | "super") {
                        out.extend(expand(&full, pf, owner));
                    } else {
                        out.push(full);
                    }
                }
            } else {
                out.push(segs.to_vec());
            }
        }
    }
    out
}

/// Resolves one expanded path: exact-match when rooted at a workspace
/// crate, suffix-match otherwise.
fn resolve_path(
    segs: &[String],
    by_qual: &BTreeMap<&str, Vec<usize>>,
    suffix_matches: &impl Fn(&[String], &mut Vec<usize>),
    out: &mut Vec<usize>,
) {
    if segs.is_empty() {
        return;
    }
    let rooted = segs[0] == "ssmc" || segs[0].starts_with("ssmc_");
    if rooted {
        let qual = segs.join("::");
        if let Some(v) = by_qual.get(qual.as_str()) {
            out.extend(v.iter().copied());
        }
        return;
    }
    // `std`, `core`, `alloc` roots can never be workspace functions.
    if matches!(segs[0].as_str(), "std" | "core" | "alloc") {
        return;
    }
    suffix_matches(segs, out);
}

/// Mutable view over every file's allow directives, shared by the
/// interprocedural passes so edge-break and site allows mark usage.
pub struct Allows<'a> {
    /// file path → directives in that file.
    pub by_file: BTreeMap<&'a str, &'a mut [AllowEntry]>,
}

impl Allows<'_> {
    /// If a directive of `rule` targets `line` in `file`, marks it used.
    fn try_suppress(&mut self, file: &str, line: u32, rule: Rule) -> bool {
        if let Some(entries) = self.by_file.get_mut(file) {
            for a in entries.iter_mut() {
                if a.rule == rule && (a.line == line || a.target_line == line) {
                    a.used = true;
                    return true;
                }
            }
        }
        false
    }
}

/// Runs every interprocedural pass. Returns the findings that no allow
/// directive suppressed, in pass order; the caller sorts.
pub fn run_passes(graph: &CallGraph, allows: &mut Allows<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    allocation_pass(graph, allows, &mut out);
    attribution_pass(graph, allows, &mut out);
    out
}

/// Rule H2: BFS from every hot-path root, reporting the allocation sites
/// of the root's own body and of every function it reaches.
fn allocation_pass(graph: &CallGraph, allows: &mut Allows<'_>, out: &mut Vec<Diagnostic>) {
    let mut roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| graph.nodes[i].is_hot && !graph.nodes[i].is_test && !graph.nodes[i].is_debug)
        .collect();
    roots.sort_by(|&a, &b| (&graph.nodes[a].qual, a).cmp(&(&graph.nodes[b].qual, b)));
    let root_set: BTreeSet<usize> = roots.iter().copied().collect();

    // One report per concrete site, whichever root reaches it first
    // (roots are name-ordered, so output is stable).
    let mut reported: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();

    for &root in &roots {
        let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(root);
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let n = &graph.nodes[u];
            for s in &n.alloc_sites {
                if allows.try_suppress(&n.file, s.line, Rule::H2) {
                    continue; // argued site allow
                }
                if !reported.insert((n.file.clone(), s.line, s.what)) {
                    continue;
                }
                let chain = chain_to(graph, &parent, root, u, s.what);
                out.push(Diagnostic {
                    file: n.file.clone(),
                    line: s.line,
                    rule: Rule::H2,
                    message: format!(
                        "allocation-prone call {} reachable from hot-path `{}`: {chain}",
                        s.what, graph.nodes[root].qual
                    ),
                });
            }
            let caller = &graph.nodes[u];
            for e in &graph.edges[u] {
                if e.in_debug_assert {
                    continue; // not part of the release call graph
                }
                if visited.contains(&e.to) {
                    continue;
                }
                // Another hot root owns its own subtree.
                if root_set.contains(&e.to) {
                    continue;
                }
                // An allow on a line that allocates is a site allow: it
                // accepts that allocation only, and the line's calls stay
                // in the graph. An allow on a call-only line breaks the edge.
                let site_line = caller.alloc_sites.iter().any(|s| s.line == e.line);
                if !site_line && allows.try_suppress(&caller.file, e.line, Rule::H2) {
                    continue; // argued edge break
                }
                visited.insert(e.to);
                parent.insert(e.to, (u, e.line));
                queue.push_back(e.to);
            }
        }
    }
}

/// Renders `root → f1 → f2 → site` using short names.
fn chain_to(
    graph: &CallGraph,
    parent: &BTreeMap<usize, (usize, u32)>,
    root: usize,
    node: usize,
    what: &str,
) -> String {
    let mut names = vec![graph.nodes[node].short()];
    let mut cur = node;
    while cur != root {
        let Some(&(p, _)) = parent.get(&cur) else {
            break;
        };
        names.push(graph.nodes[p].short());
        cur = p;
    }
    names.reverse();
    let mut s = names.join(" → ");
    s.push_str(" → ");
    s.push_str(what);
    s
}

/// Rule E1: a function that charges an `EnergyLedger` and calls a callee
/// that (transitively) charges one is double-counting — DESIGN.md's
/// "sum one level, not both".
fn attribution_pass(graph: &CallGraph, allows: &mut Allows<'_>, out: &mut Vec<Diagnostic>) {
    let primitive: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| CHARGE_PRIMITIVES.contains(&graph.nodes[i].qual.as_str()))
        .collect();
    let direct: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            !n.charge_sites.is_empty() && !n.is_test && !n.is_debug && !primitive.contains(&i)
        })
        .collect();

    // Reverse reachability: every node from which a directly-charging
    // node is reachable. The link points *toward* the charger so chains
    // can be printed.
    let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); graph.nodes.len()];
    for (u, adj) in graph.edges.iter().enumerate() {
        for e in adj {
            if !e.in_debug_assert {
                rev[e.to].push((u, e.line));
            }
        }
    }
    let mut reaches: BTreeMap<usize, (usize, u32)> = BTreeMap::new(); // node -> (next hop, line)
    let mut queue: VecDeque<usize> = direct.iter().copied().collect();
    let mut seen: BTreeSet<usize> = direct.clone();
    while let Some(u) = queue.pop_front() {
        for &(p, line) in &rev[u] {
            if primitive.contains(&p) {
                continue;
            }
            if seen.insert(p) {
                reaches.insert(p, (u, line));
                queue.push_back(p);
            }
        }
    }

    let mut emitted: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &f in &direct {
        let nf = &graph.nodes[f];
        for e in &graph.edges[f] {
            if e.in_debug_assert || primitive.contains(&e.to) || e.to == f {
                continue;
            }
            let charges = direct.contains(&e.to) || reaches.contains_key(&e.to);
            if !charges {
                continue;
            }
            if !emitted.insert((f, e.to)) {
                continue;
            }
            // The allow goes on the call edge (or on a charge line).
            if allows.try_suppress(&nf.file, e.line, Rule::E1) {
                continue;
            }
            if nf
                .charge_sites
                .iter()
                .any(|s| allows.try_suppress(&nf.file, s.line, Rule::E1))
            {
                continue;
            }
            let callee = &graph.nodes[e.to];
            let via = charge_chain(graph, &reaches, &direct, e.to);
            out.push(Diagnostic {
                file: nf.file.clone(),
                line: e.line,
                rule: Rule::E1,
                message: format!(
                    "`{}` charges the EnergyLedger (line {}) and calls `{}`, which also charges ({via}); sum one level, not both",
                    nf.short(),
                    nf.charge_sites[0].line,
                    callee.short(),
                ),
            });
        }
    }
}

/// Renders the path from `node` to the nearest directly-charging fn.
fn charge_chain(
    graph: &CallGraph,
    reaches: &BTreeMap<usize, (usize, u32)>,
    direct: &BTreeSet<usize>,
    node: usize,
) -> String {
    let mut names = vec![graph.nodes[node].short()];
    let mut cur = node;
    while !direct.contains(&cur) {
        let Some(&(next, _)) = reaches.get(&cur) else {
            break;
        };
        names.push(graph.nodes[next].short());
        cur = next;
    }
    names.push(".charge()".to_owned());
    names.join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn parsed(path: &str, krate: &str, src: &str) -> ParsedFile {
        parse_file(path, krate, &lex(src))
    }

    fn no_allows() -> Allows<'static> {
        Allows {
            by_file: BTreeMap::new(),
        }
    }

    #[test]
    fn h2_reports_chain_across_files() {
        let a = parsed(
            "crates/storage/src/manager.rs",
            "ssmc-storage",
            "use crate::help::helper;\nimpl M {\n    // lint: hot-path\n    fn hot(&mut self) { helper(); }\n}\n",
        );
        let b = parsed(
            "crates/storage/src/help.rs",
            "ssmc-storage",
            "pub fn helper() { let v = vec![1]; }\n",
        );
        let g = CallGraph::build(&[a, b], &CrateDeps::permissive());
        let mut allows = no_allows();
        let findings = run_passes(&g, &mut allows);
        let h2: Vec<_> = findings.iter().filter(|f| f.rule == Rule::H2).collect();
        assert_eq!(h2.len(), 1, "{findings:?}");
        assert_eq!(h2[0].file, "crates/storage/src/help.rs");
        assert!(
            h2[0].message.contains("M::hot → helper → vec! macro"),
            "{}",
            h2[0].message
        );
    }

    #[test]
    fn h2_reports_the_roots_own_site_once() {
        let a = parsed(
            "crates/storage/src/manager.rs",
            "ssmc-storage",
            "// lint: hot-path\nfn hot() { let v = vec![1]; }\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let findings = run_passes(&g, &mut no_allows());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), (Rule::H2, 2));
        assert!(
            findings[0].message.contains("hot → vec! macro"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn dependency_direction_filters_method_edges() {
        // A hot storage fn calling `.helper(` must not reach a method in
        // ssmc-bench (bench depends on storage, not vice versa).
        let a = parsed(
            "crates/storage/src/manager.rs",
            "ssmc-storage",
            "// lint: hot-path\nfn hot(x: &X) { x.helper(); }\n",
        );
        let b = parsed(
            "crates/bench/src/lib.rs",
            "ssmc-bench",
            "impl Y { pub fn helper(&self) { let v = vec![1]; } }\n",
        );
        let mut direct = BTreeMap::new();
        direct.insert("ssmc-storage".to_owned(), BTreeSet::new());
        direct.insert(
            "ssmc-bench".to_owned(),
            BTreeSet::from(["ssmc-storage".to_owned()]),
        );
        let g = CallGraph::build(&[a.clone(), b.clone()], &CrateDeps::from_direct(&direct));
        assert!(run_passes(&g, &mut no_allows()).is_empty());
        // Sanity: permissive deps do produce the edge.
        let g2 = CallGraph::build(&[a, b], &CrateDeps::permissive());
        assert_eq!(run_passes(&g2, &mut no_allows()).len(), 1);
    }

    #[test]
    fn crate_dep_closure_is_transitive() {
        let mut direct = BTreeMap::new();
        direct.insert("a".to_owned(), BTreeSet::from(["b".to_owned()]));
        direct.insert("b".to_owned(), BTreeSet::from(["c".to_owned()]));
        direct.insert("c".to_owned(), BTreeSet::new());
        let deps = CrateDeps::from_direct(&direct);
        assert!(deps.allows("a", "c"));
        assert!(deps.allows("a", "a"));
        assert!(!deps.allows("c", "a"));
    }

    #[test]
    fn edge_break_allow_stops_the_chain() {
        let a = parsed(
            "crates/storage/src/manager.rs",
            "ssmc-storage",
            "// lint: hot-path\nfn hot() {\n    // lint: allow(H2): helper's vec is amortized by the pool.\n    helper();\n}\nfn helper() { let v = vec![1]; }\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let mut entries = vec![AllowEntry {
            line: 3,
            target_line: 4,
            rule: Rule::H2,
            used: false,
        }];
        let mut by_file = BTreeMap::new();
        by_file.insert("crates/storage/src/manager.rs", entries.as_mut_slice());
        let mut allows = Allows { by_file };
        let findings = run_passes(&g, &mut allows);
        assert!(findings.iter().all(|f| f.rule != Rule::H2), "{findings:?}");
        assert!(entries[0].used);
    }

    #[test]
    fn site_allow_keeps_the_calls_on_its_line() {
        // The allow accepts `helper`'s own `vec!`; the call into `deeper`
        // on the same line stays in the graph, so its allocation fires.
        let a = parsed(
            "crates/storage/src/manager.rs",
            "ssmc-storage",
            "// lint: hot-path\nfn hot() { helper(); }\nfn helper() {\n    // lint: allow(H2): warm-up-only buffer, reused after.\n    let v = vec![deeper()];\n}\nfn deeper() -> u8 { let s = String::from(\"x\"); 0 }\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let mut entries = vec![AllowEntry {
            line: 4,
            target_line: 5,
            rule: Rule::H2,
            used: false,
        }];
        let mut by_file = BTreeMap::new();
        by_file.insert("crates/storage/src/manager.rs", entries.as_mut_slice());
        let findings = run_passes(&g, &mut Allows { by_file });
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("helper → deeper → String::from"),
            "{}",
            findings[0].message
        );
        assert!(entries[0].used);
    }

    #[test]
    fn e1_flags_double_charging() {
        let a = parsed(
            "crates/device/src/disk.rs",
            "ssmc-device",
            "impl Disk {\n    fn op(&mut self) { self.energy.charge(\"disk\", e); self.seek(); }\n    fn seek(&mut self) { self.energy.charge(\"disk.seek\", e); }\n}\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let findings = run_passes(&g, &mut no_allows());
        let e1: Vec<_> = findings.iter().filter(|f| f.rule == Rule::E1).collect();
        assert_eq!(e1.len(), 1, "{findings:?}");
        assert!(e1[0].message.contains("sum one level"), "{}", e1[0].message);
        assert!(e1[0].message.contains("Disk::seek"));
    }

    #[test]
    fn e1_transitive_callee_chain_is_printed() {
        let a = parsed(
            "crates/device/src/disk.rs",
            "ssmc-device",
            "impl Disk {\n    fn op(&mut self) { self.energy.charge(\"d\", e); self.mid(); }\n    fn mid(&mut self) { self.leaf(); }\n    fn leaf(&mut self) { self.energy.charge(\"d.leaf\", e); }\n}\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let findings = run_passes(&g, &mut no_allows());
        let e1: Vec<_> = findings.iter().filter(|f| f.rule == Rule::E1).collect();
        assert_eq!(e1.len(), 1, "{findings:?}");
        assert!(
            e1[0].message.contains("Disk::mid → Disk::leaf → .charge()"),
            "{}",
            e1[0].message
        );
    }

    #[test]
    fn graph_dump_is_name_ordered() {
        let a = parsed(
            "crates/storage/src/lib.rs",
            "ssmc-storage",
            "fn zeta() { alpha(); }\nfn alpha() {}\n",
        );
        let g = CallGraph::build(&[a], &CrateDeps::permissive());
        let dump = g.dump();
        let alpha = dump.find("fn ssmc_storage::alpha").unwrap();
        let zeta = dump.find("fn ssmc_storage::zeta").unwrap();
        assert!(alpha < zeta, "{dump}");
        assert!(
            dump.starts_with("# ssmc-lint call graph: 2 functions, 1 edges"),
            "{dump}"
        );
    }
}
