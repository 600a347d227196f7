//! Lightweight item parser: fn/impl/mod/use structure over the lexer.
//!
//! This is not a Rust parser — it recognizes exactly the item skeleton
//! the interprocedural passes need (function boundaries, impl/trait
//! ownership, module nesting, `use` bindings) plus the call sites and
//! rule-relevant token sites inside each function body. Everything else
//! is skipped conservatively. Two properties matter:
//!
//! 1. **Spans are exact.** Function bodies are found by tracking
//!    paren/bracket/angle depth through the signature (so a `;` in
//!    `[u8; 4]`, a const-generic `{ N }` brace, or a multi-line `where`
//!    clause cannot end the item early) and then brace-matched using the
//!    lexer's depth field. This replaced the heuristic scan that rule H1
//!    originally used, which a brace in a return type could truncate.
//! 2. **Resolution input is conservative.** Call sites record what was
//!    written (`foo(`, `self.foo(`, `x.foo(`, `a::b::foo(`); name
//!    resolution happens later in [`crate::graph`] and deliberately
//!    over-approximates. Nothing here tries to infer types.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// Allocation-prone token patterns (shared by rule H1, which checks them
/// inside `// lint: hot-path` functions, and rule H2, which checks them
/// in every function *reachable* from one). Each entry is
/// (pattern, needs-leading-dot, human name). Patterns are matched
/// against comment-free tokens; `::` appears as two `:` puncts.
pub(crate) const ALLOC_PATTERNS: &[(&[Pat], bool, &str)] = &[
    (&[Pat::Id("Box"), Pat::P(':'), Pat::P(':'), Pat::Id("new")], false, "Box::new"),
    (&[Pat::Id("Vec"), Pat::P(':'), Pat::P(':'), Pat::Id("new")], false, "Vec::new"),
    (&[Pat::Id("vec"), Pat::P('!')], false, "vec! macro"),
    (&[Pat::Id("format"), Pat::P('!')], false, "format! macro"),
    (&[Pat::Id("String"), Pat::P(':'), Pat::P(':'), Pat::Id("from")], false, "String::from"),
    (&[Pat::Id("to_vec")], true, ".to_vec()"),
    (&[Pat::Id("to_string")], true, ".to_string()"),
    (&[Pat::Id("to_owned")], true, ".to_owned()"),
    (&[Pat::Id("clone")], true, ".clone()"),
    (&[Pat::Id("collect")], true, ".collect()"),
];

/// A token pattern element.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pat {
    Id(&'static str),
    P(char),
}

pub(crate) fn matches_at(sig: &[&Tok], i: usize, pat: &[Pat]) -> bool {
    if i + pat.len() > sig.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| match p {
        Pat::Id(s) => sig[i + k].ident() == Some(s),
        Pat::P(c) => sig[i + k].is_punct(*c),
    })
}

/// Keywords that look like call heads when followed by `(` but are not.
const KEYWORDS: [&str; 31] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "trait", "struct", "enum", "pub", "use", "mod",
    "where", "unsafe", "dyn", "const", "static", "type", "await", "yield",
];

/// Macros whose interior is only compiled under `debug_assertions`; call
/// edges inside them do not exist in the release call graph.
const DEBUG_ASSERT_MACROS: [&str; 3] = ["debug_assert", "debug_assert_eq", "debug_assert_ne"];

/// How a call was written at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(` — resolved against the local module, then `use` bindings.
    Bare(String),
    /// `self.foo(` — resolved against the enclosing impl first.
    SelfMethod(String),
    /// `expr.foo(` — resolved against every workspace method named `foo`.
    Method(String),
    /// `a::b::foo(` — resolved by qualified-path suffix match.
    Path(Vec<String>),
    /// `foo!(` — no edges; macros only matter as site patterns.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: u32,
    pub kind: CallKind,
    /// True when the call is inside a `debug_assert*!` argument list —
    /// the edge does not exist in release builds, so the passes skip it.
    pub in_debug_assert: bool,
}

/// A rule-relevant token site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    pub what: &'static str,
}

/// One `fn` item (free function, method, trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple name, e.g. `flush`.
    pub name: String,
    /// Fully qualified name, e.g. `ssmc_storage::manager::StorageManager::flush`.
    pub qual: String,
    /// Enclosing impl/trait type name, if any.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Last line of the item: the closing `}` of the body, or the `;` of
    /// a bodyless trait-method declaration.
    pub end_line: u32,
    /// True for `#[cfg(test)]`/`#[test]` items and everything in
    /// test-like files (`tests/`, `examples/`, `benches/`).
    pub is_test: bool,
    /// True for `#[cfg(debug_assertions)]` items: not compiled into
    /// release hot paths, so the reachability passes skip them.
    pub is_debug: bool,
    /// True when a `// lint: hot-path` marker binds to this fn.
    pub is_hot: bool,
    pub calls: Vec<CallSite>,
    /// Allocation-prone sites (the ALLOC_PATTERNS table).
    pub alloc_sites: Vec<Site>,
    /// Lines of `.charge(` / `.charge_power(` calls (rule E1).
    pub charge_sites: Vec<Site>,
}

/// The parsed skeleton of one source file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    pub path: String,
    pub krate: String,
    /// Module path of the file root, e.g. `["ssmc_storage", "manager"]`.
    pub module: Vec<String>,
    pub fns: Vec<FnItem>,
    /// `use` bindings: leaf name → every path it may refer to.
    pub uses: BTreeMap<String, Vec<Vec<String>>>,
    /// True for files under `tests/`, `examples/`, or `benches/`.
    pub test_like: bool,
    /// `#[cfg(test)]` line spans (inclusive), for scope exemptions.
    pub test_spans: Vec<(u32, u32)>,
}

/// Maps a repo-relative path to the module path of its file root.
pub fn module_path_for(path: &str, krate: &str) -> Vec<String> {
    let root = if krate == "ssmc" { "ssmc".to_owned() } else { krate.replace('-', "_") };
    let rel = path.replace('\\', "/");
    // Strip the crate directory prefix, leaving e.g. `src/a/b.rs`.
    let inner = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split_once('/').map(|(_, r)| r).unwrap_or(rest)
    } else {
        rel.as_str()
    };
    let mut out = vec![root];
    let trimmed = inner
        .strip_prefix("src/")
        .unwrap_or(inner)
        .trim_end_matches(".rs");
    for seg in trimmed.split('/') {
        if seg == "lib" || seg == "main" || seg == "mod" || seg.is_empty() {
            continue;
        }
        out.push(seg.replace('-', "_"));
    }
    out
}

/// True for files whose functions never run in the simulator proper.
pub fn is_test_like_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
        || p.contains("/benches/")
}

/// Parses one file. `toks` must be the full lex of the source, comments
/// included (hot-path markers live in comments).
pub fn parse_file(path: &str, krate: &str, toks: &[Tok]) -> ParsedFile {
    let sig: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    let hot_lines: Vec<u32> = toks
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Comment(c) if c.trim_start().starts_with("lint: hot-path") => Some(t.line),
            _ => None,
        })
        .collect();
    let test_spans = find_cfg_test_spans(&sig);
    let test_like = is_test_like_path(path);
    let module = module_path_for(path, krate);

    let mut p = Parser {
        s: &sig,
        braces: brace_matches(&sig),
        test_spans: &test_spans,
        test_like,
        fns: Vec::new(),
        uses: BTreeMap::new(),
    };
    let len = sig.len();
    p.walk(0, len, &module, None, None);

    let mut fns = p.fns;
    // Bind hot-path markers: each marker marks the first fn (in source
    // order) whose `fn` keyword is at or below the marker line.
    for &h in &hot_lines {
        if let Some(f) = fns.iter_mut().find(|f| f.sig_line >= h) {
            f.is_hot = true;
        }
    }
    let uses = p.uses;
    ParsedFile { path: path.to_owned(), krate: krate.to_owned(), module, fns, uses, test_like, test_spans }
}

/// Finds the line spans of `#[cfg(test)]`-gated items (attribute through
/// closing brace).
pub(crate) fn find_cfg_test_spans(sig: &[&Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let braces = brace_matches(sig);
    let mut i = 0;
    while i < sig.len() {
        if sig[i].is_punct('#') && sig.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let start_line = sig[i].line;
            let attr_start = i + 2;
            let mut depth = 1usize;
            let mut j = attr_start;
            while j < sig.len() && depth > 0 {
                if sig[j].is_punct('[') {
                    depth += 1;
                } else if sig[j].is_punct(']') {
                    depth -= 1;
                }
                j += 1;
            }
            let attr = &sig[attr_start..j.saturating_sub(1)];
            let has = |name: &str| attr.iter().any(|t| t.ident() == Some(name));
            if has("cfg") && has("test") && !has("not") {
                // End of the gated item: first body brace at the item's
                // own depth, matched exactly; or the terminating `;`.
                let item_depth = sig[i].depth;
                let mut k = j;
                let mut end = None;
                while k < sig.len() {
                    let t = sig[k];
                    if t.is_punct('{') && t.depth == item_depth {
                        end = braces[k].map(|c| sig[c].line);
                        break;
                    }
                    if t.is_punct(';') && t.depth == item_depth {
                        end = Some(t.line);
                        break;
                    }
                    if t.depth < item_depth {
                        break;
                    }
                    k += 1;
                }
                if let Some(end) = end {
                    spans.push((start_line, end));
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// For each `{` token index, the index of its matching `}` (computed
/// from the lexer's depth field; unbalanced input degrades to `None`).
fn brace_matches(sig: &[&Tok]) -> Vec<Option<usize>> {
    let mut out = vec![None; sig.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
            }
        }
    }
    out
}

struct Parser<'a> {
    s: &'a [&'a Tok],
    braces: Vec<Option<usize>>,
    test_spans: &'a [(u32, u32)],
    test_like: bool,
    fns: Vec<FnItem>,
    uses: BTreeMap<String, Vec<Vec<String>>>,
}

/// Pending attribute flags gathered while walking toward the next item.
#[derive(Default, Clone, Copy)]
struct Attrs {
    test: bool,
    debug: bool,
}

impl<'a> Parser<'a> {
    fn ident(&self, i: usize) -> Option<&str> {
        self.s.get(i).and_then(|t| t.ident())
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.s.get(i).is_some_and(|t| t.is_punct(c))
    }

    fn line(&self, i: usize) -> u32 {
        self.s.get(i).map_or(0, |t| t.line)
    }

    /// Walks `[lo, hi)` recognizing items. `owner` is the enclosing
    /// impl/trait type; `encl` is the index (into `self.fns`) of the
    /// enclosing fn when walking a body.
    fn walk(&mut self, lo: usize, hi: usize, module: &[String], owner: Option<&str>, encl: Option<usize>) {
        let mut attrs = Attrs::default();
        let mut i = lo;
        while i < hi {
            // Attributes: record test/debug_assertions cfg flags.
            if self.punct(i, '#') && (self.punct(i + 1, '[') || (self.punct(i + 1, '!') && self.punct(i + 2, '['))) {
                let open = if self.punct(i + 1, '[') { i + 1 } else { i + 2 };
                let mut depth = 1usize;
                let mut j = open + 1;
                while j < hi && depth > 0 {
                    if self.punct(j, '[') {
                        depth += 1;
                    } else if self.punct(j, ']') {
                        depth -= 1;
                    }
                    j += 1;
                }
                for t in &self.s[open + 1..j.saturating_sub(1)] {
                    match t.ident() {
                        Some("test") => attrs.test = true,
                        Some("debug_assertions") => attrs.debug = true,
                        _ => {}
                    }
                }
                i = j;
                continue;
            }
            let at_stmt_start = i == lo || self.punct(i - 1, ';') || self.punct(i - 1, '{') || self.punct(i - 1, '}');
            match self.ident(i) {
                Some("use") => {
                    i = self.parse_use(i + 1, hi);
                    attrs = Attrs::default();
                }
                Some("mod") if self.ident(i + 1).is_some() => {
                    if self.punct(i + 2, '{') {
                        let name = self.ident(i + 1).unwrap().to_owned();
                        let close = self.braces[i + 2].unwrap_or(hi).min(hi);
                        let mut m = module.to_vec();
                        m.push(name);
                        self.walk(i + 3, close, &m, None, None);
                        i = close + 1;
                    } else {
                        i += 2; // `mod name;` — out-of-line, its file is parsed separately
                    }
                    attrs = Attrs::default();
                }
                Some("impl") if encl.is_none() || at_stmt_start => {
                    i = self.parse_impl_or_trait(i, hi, module, attrs);
                    attrs = Attrs::default();
                }
                Some("trait") if encl.is_none() || at_stmt_start => {
                    i = self.parse_impl_or_trait(i, hi, module, attrs);
                    attrs = Attrs::default();
                }
                Some("fn") if self.ident(i + 1).is_some() => {
                    i = self.parse_fn(i, hi, module, owner, encl, attrs);
                    attrs = Attrs::default();
                }
                Some("macro_rules") if self.punct(i + 1, '!') => {
                    // macro_rules! name { ... } — skip the definition.
                    let mut j = i + 2;
                    while j < hi && !self.punct(j, '{') {
                        j += 1;
                    }
                    i = if j < hi { self.braces[j].unwrap_or(hi).min(hi) + 1 } else { hi };
                    attrs = Attrs::default();
                }
                Some("struct" | "enum") if encl.is_none() => {
                    i = self.skip_item(i + 1, hi);
                    attrs = Attrs::default();
                }
                Some("const" | "static" | "type") if encl.is_none() => {
                    if self.ident(i + 1) == Some("fn") {
                        i += 1; // `const fn` — let the fn arm handle it
                    } else {
                        i = self.skip_item(i + 1, hi);
                        attrs = Attrs::default();
                    }
                }
                _ => {
                    if self.punct(i, '{') && encl.is_none() {
                        // Stray brace at item level (const initializer
                        // block, extern block): skip it wholesale.
                        i = self.braces[i].unwrap_or(hi).min(hi) + 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Skips a non-fn item starting after its keyword: ends at the first
    /// `;` outside brackets, or past the first brace block (struct/enum
    /// bodies). Returns the index after the item.
    fn skip_item(&self, mut i: usize, hi: usize) -> usize {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while i < hi {
            let t = self.s[i];
            match &t.kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct(';') if paren == 0 && bracket == 0 => return i + 1,
                TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                    let close = self.braces[i].unwrap_or(hi).min(hi);
                    // `struct X { .. }` ends here; `const X: T = { .. };`
                    // continues to the `;`.
                    if self.punct(close + 1, ';') {
                        return close + 2;
                    }
                    return close + 1;
                }
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Parses an `impl`/`trait` header at `i`, recursing into the body
    /// with the subject type as owner. Returns the index after the body.
    fn parse_impl_or_trait(&mut self, i: usize, hi: usize, module: &[String], _attrs: Attrs) -> usize {
        // Collect header idents until the body `{` at zero paren/bracket/
        // angle depth; the owner is the last path-segment ident after
        // `for` (inherent/trait impls) or the first ident (traits).
        let is_trait = self.ident(i) == Some("trait");
        let mut j = i + 1;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        let mut last_path_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        let mut trait_name: Option<String> = None;
        while j < hi {
            let t = self.s[j];
            match &t.kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    if !self.punct(j.wrapping_sub(1), '-') {
                        angle -= 1;
                    }
                }
                TokKind::Punct('{') => {
                    if paren == 0 && bracket == 0 && angle <= 0 {
                        break;
                    }
                    // Const-generic expression brace: skip wholesale.
                    j = self.braces[j].unwrap_or(hi).min(hi);
                }
                TokKind::Punct(';') if paren == 0 && bracket == 0 && angle <= 0 => {
                    return j + 1; // bodyless (e.g. `impl T {}` never, but be safe)
                }
                TokKind::Ident(id) => {
                    if id == "for" && angle == 0 {
                        seen_for = true;
                    } else if id == "where" && angle == 0 {
                        // Type part is over.
                    } else if angle == 0 {
                        if trait_name.is_none() {
                            trait_name = Some(id.clone());
                        }
                        if seen_for {
                            after_for = Some(id.clone());
                        } else {
                            last_path_ident = Some(id.clone());
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let owner = if is_trait { trait_name } else { after_for.or(last_path_ident) };
        let close = self.braces[j].unwrap_or(hi).min(hi);
        self.walk(j + 1, close, module, owner.as_deref(), None);
        close + 1
    }

    /// Parses a `fn` item at `i` (`self.ident(i) == Some("fn")`).
    /// Records the item, extracts body call sites, recurses for nested
    /// items, and returns the index after the item.
    fn parse_fn(
        &mut self,
        i: usize,
        hi: usize,
        module: &[String],
        owner: Option<&str>,
        encl: Option<usize>,
        attrs: Attrs,
    ) -> usize {
        let name = self.ident(i + 1).unwrap().to_owned();
        let sig_line = self.line(i);
        // Scan the signature for the body `{` or terminating `;`,
        // tracking paren/bracket/angle depth. `->` arrows must not close
        // an angle bracket, and const-generic braces (`Foo<{ N }>`) at
        // nonzero depth are skipped wholesale.
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut angle = 0i32;
        let mut body: Option<(usize, usize)> = None;
        let mut end_line = sig_line;
        while j < hi {
            let t = self.s[j];
            match &t.kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    if !self.punct(j.wrapping_sub(1), '-') {
                        angle -= 1;
                    }
                }
                TokKind::Punct('{') => {
                    if paren == 0 && bracket == 0 && angle <= 0 {
                        let close = self.braces[j].unwrap_or(hi.saturating_sub(1)).min(hi.saturating_sub(1));
                        body = Some((j, close));
                        end_line = self.line(close);
                        break;
                    }
                    j = self.braces[j].unwrap_or(hi).min(hi);
                }
                TokKind::Punct(';') if paren == 0 && bracket == 0 && angle <= 0 => {
                    end_line = t.line;
                    break;
                }
                _ => {}
            }
            j += 1;
        }

        let qual = if let Some(pidx) = encl {
            format!("{}::{}", self.fns[pidx].qual, name)
        } else {
            let mut q = module.join("::");
            if let Some(o) = owner {
                q.push_str("::");
                q.push_str(o);
            }
            q.push_str("::");
            q.push_str(&name);
            q
        };
        let in_test_span = self.test_spans.iter().any(|&(s, e)| sig_line >= s && sig_line <= e);
        let parent_test = encl.is_some_and(|p| self.fns[p].is_test);
        let parent_debug = encl.is_some_and(|p| self.fns[p].is_debug);
        let item = FnItem {
            name,
            qual,
            owner: owner.map(str::to_owned),
            sig_line,
            end_line,
            is_test: attrs.test || in_test_span || self.test_like || parent_test,
            is_debug: attrs.debug || parent_debug,
            is_hot: false,
            calls: Vec::new(),
            alloc_sites: Vec::new(),
            charge_sites: Vec::new(),
        };
        let idx = self.fns.len();
        self.fns.push(item);

        let Some((b_open, b_close)) = body else {
            return j + 1; // bodyless declaration
        };
        // Recurse for nested items first, recording their body extents
        // so the call-site scan can skip them.
        let before = self.fns.len();
        self.walk(b_open + 1, b_close, module, None, Some(idx));
        let nested: Vec<(u32, u32)> = self.fns[before..]
            .iter()
            .map(|f| (f.sig_line, f.end_line))
            .collect();
        self.extract_sites(idx, b_open + 1, b_close, &nested);
        b_close + 1
    }

    /// Scans a fn body for call sites and rule-relevant token sites,
    /// skipping line ranges owned by nested fn items.
    fn extract_sites(&mut self, idx: usize, lo: usize, hi: usize, nested: &[(u32, u32)]) {
        let mut calls = Vec::new();
        let mut alloc_sites = Vec::new();
        let mut charge_sites = Vec::new();
        // Token ranges inside debug_assert*! argument lists.
        let mut exempt: Vec<(usize, usize)> = Vec::new();

        let in_nested =
            |line: u32| nested.iter().any(|&(s, e)| line >= s && line <= e);
        let mut i = lo;
        while i < hi {
            let t = self.s[i];
            if in_nested(t.line) {
                i += 1;
                continue;
            }
            let Some(id) = t.ident() else {
                i += 1;
                continue;
            };
            // Allocation-prone patterns (shared with rule H1). Checked
            // before the macro branch: `vec!`/`format!` are both macros
            // and allocation patterns.
            for (pat, needs_dot, name) in ALLOC_PATTERNS {
                if matches_at(self.s, i, pat) {
                    if *needs_dot && !(i > 0 && self.s[i - 1].is_punct('.')) {
                        continue;
                    }
                    alloc_sites.push(Site { line: t.line, what: name });
                }
            }
            // Macro invocation: `name!(` / `name![` / `name!{`.
            if self.punct(i + 1, '!')
                && (self.punct(i + 2, '(') || self.punct(i + 2, '[') || self.punct(i + 2, '{'))
            {
                let in_da = within(&exempt, i);
                calls.push(CallSite {
                    line: t.line,
                    kind: CallKind::Macro(id.to_owned()),
                    in_debug_assert: in_da,
                });
                if DEBUG_ASSERT_MACROS.contains(&id) {
                    if let Some(close) = self.delim_close(i + 2, hi) {
                        exempt.push((i + 2, close));
                    }
                }
                i += 2;
                continue;
            }
            // Call head: ident, optional turbofish, then `(`.
            let mut call_paren = None;
            if self.punct(i + 1, '(') {
                call_paren = Some(i + 1);
            } else if self.punct(i + 1, ':') && self.punct(i + 2, ':') && self.punct(i + 3, '<') {
                if let Some(gt) = self.angle_close(i + 3, hi) {
                    if self.punct(gt + 1, '(') {
                        call_paren = Some(gt + 1);
                    }
                }
            }
            if call_paren.is_some() && !KEYWORDS.contains(&id) && id != "self" && id != "Self" {
                let kind = self.classify_call(i, id);
                if let CallKind::Method(m) | CallKind::SelfMethod(m) = &kind {
                    if m == "charge" || m == "charge_power" {
                        charge_sites.push(Site {
                            line: t.line,
                            what: if m == "charge" {
                                ".charge()"
                            } else {
                                ".charge_power()"
                            },
                        });
                    }
                }
                calls.push(CallSite {
                    line: t.line,
                    kind,
                    in_debug_assert: within(&exempt, i),
                });
            }
            i += 1;
        }
        let f = &mut self.fns[idx];
        f.calls = calls;
        f.alloc_sites = alloc_sites;
        f.charge_sites = charge_sites;
    }

    /// Classifies a call whose head ident sits at `i`.
    fn classify_call(&self, i: usize, name: &str) -> CallKind {
        if i > 0 && self.punct(i - 1, '.') {
            if i >= 2
                && self.ident(i - 2) == Some("self")
                && !(i >= 3 && self.punct(i - 3, '.'))
            {
                return CallKind::SelfMethod(name.to_owned());
            }
            return CallKind::Method(name.to_owned());
        }
        if i >= 2 && self.punct(i - 1, ':') && self.punct(i - 2, ':') {
            // Walk the path backwards: `a::b::name(`. A `>` before `::`
            // is a generic-args tail (`Vec::<u8>::new`) — skip to its `<`
            // and keep collecting.
            let mut segs = vec![name.to_owned()];
            let mut k = i as isize - 3;
            loop {
                if k >= 0 && self.s[k as usize].is_punct('>') {
                    let mut depth = 1i32;
                    k -= 1;
                    while k >= 0 && depth > 0 {
                        if self.s[k as usize].is_punct('>') {
                            depth += 1;
                        } else if self.s[k as usize].is_punct('<') {
                            depth -= 1;
                        }
                        k -= 1;
                    }
                    // Consume the `::` before the generic args
                    // (`Vec::<u8>::new` — the turbofish form); the
                    // reverse scan already left `k` on the token before
                    // the `<`, which for `Foo<T>::new` is the ident.
                    while k >= 0 && self.s[k as usize].is_punct(':') {
                        k -= 1;
                    }
                }
                let Some(seg) = (k >= 0).then(|| self.s[k as usize].ident()).flatten() else {
                    break;
                };
                segs.push(seg.to_owned());
                if k >= 2 && self.punct(k as usize - 1, ':') && self.punct(k as usize - 2, ':') {
                    k -= 3;
                } else {
                    break;
                }
            }
            segs.reverse();
            return CallKind::Path(segs);
        }
        CallKind::Bare(name.to_owned())
    }

    /// Index of the delimiter closing the one opening at `open`.
    fn delim_close(&self, open: usize, hi: usize) -> Option<usize> {
        let (o, c) = match &self.s[open].kind {
            TokKind::Punct('(') => ('(', ')'),
            TokKind::Punct('[') => ('[', ']'),
            TokKind::Punct('{') => return self.braces[open],
            _ => return None,
        };
        let mut depth = 0i32;
        for j in open..hi {
            if self.s[j].is_punct(o) {
                depth += 1;
            } else if self.s[j].is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    /// Index of the `>` closing the `<` at `open` (turbofish contents;
    /// `->` arrows inside `Fn(..) -> T` bounds do not close it).
    fn angle_close(&self, open: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = open;
        while j < hi {
            if self.s[j].is_punct('<') {
                depth += 1;
            } else if self.s[j].is_punct('>') && !self.punct(j.wrapping_sub(1), '-') {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// Parses a `use` declaration starting after the `use` keyword.
    /// Returns the index after the terminating `;`.
    fn parse_use(&mut self, i: usize, hi: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        let end = self.parse_use_tree(i, hi, &mut prefix);
        // Skip to `;` defensively (parse_use_tree normally lands on it).
        let mut j = end;
        while j < hi && !self.punct(j, ';') {
            j += 1;
        }
        j + 1
    }

    /// Parses one use-tree with `prefix` already collected. Returns the
    /// index of the token that ended the tree (`;`, `}`, or `,` — not
    /// consumed).
    fn parse_use_tree(&mut self, mut i: usize, hi: usize, prefix: &mut Vec<String>) -> usize {
        let depth0 = prefix.len();
        while i < hi {
            if self.punct(i, ';') || self.punct(i, ',') || self.punct(i, '}') {
                // Plain path end: bind the leaf.
                if prefix.len() > depth0 {
                    self.bind_use(prefix.last().unwrap().clone(), prefix.clone());
                }
                prefix.truncate(depth0);
                return i;
            }
            if self.punct(i, '{') {
                // Group: parse each comma-separated subtree.
                let close = self.braces[i].unwrap_or(hi).min(hi);
                let mut j = i + 1;
                while j < close {
                    j = self.parse_use_tree(j, close, prefix);
                    if self.punct(j, ',') {
                        j += 1;
                    } else {
                        break;
                    }
                }
                prefix.truncate(depth0);
                return close + 1;
            }
            if self.punct(i, '*') {
                // Glob: record nothing bindable; resolution treats glob
                // modules as opaque (documented over-approximation).
                prefix.truncate(depth0);
                i += 1;
                continue;
            }
            if self.ident(i) == Some("as") {
                // `path as name`: bind the rename to the path collected.
                if let Some(alias) = self.ident(i + 1) {
                    let path = prefix.clone();
                    self.bind_use(alias.to_owned(), path);
                }
                prefix.truncate(depth0);
                // Consume through the alias; loop ends at `,`/`;`/`}`.
                i += 2;
                continue;
            }
            if self.ident(i) == Some("self") && !prefix.is_empty() {
                // `use a::b::{self, ..}` — binds `b`.
                let path = prefix.clone();
                self.bind_use(path.last().unwrap().clone(), path.clone());
                i += 1;
                continue;
            }
            if let Some(id) = self.ident(i) {
                prefix.push(id.to_owned());
                i += 1;
                // Skip `::`.
                while self.punct(i, ':') {
                    i += 1;
                }
                continue;
            }
            i += 1;
        }
        // Range exhausted (group member ending at the `}` boundary):
        // bind the path collected so far.
        if prefix.len() > depth0 {
            self.bind_use(prefix.last().unwrap().clone(), prefix.clone());
        }
        prefix.truncate(depth0);
        hi
    }

    fn bind_use(&mut self, leaf: String, path: Vec<String>) {
        let entry = self.uses.entry(leaf).or_default();
        if !entry.contains(&path) {
            entry.push(path);
        }
    }
}

fn within(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(s, e)| i > s && i < e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let toks = lex(src);
        parse_file("crates/storage/src/manager.rs", "ssmc-storage", &toks)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path_for("crates/storage/src/lib.rs", "ssmc-storage"), ["ssmc_storage"]);
        assert_eq!(
            module_path_for("crates/storage/src/manager.rs", "ssmc-storage"),
            ["ssmc_storage", "manager"]
        );
        assert_eq!(
            module_path_for("crates/trace/src/generator/mod.rs", "ssmc-trace"),
            ["ssmc_trace", "generator"]
        );
        assert_eq!(
            module_path_for("crates/bench/src/bin/trace-dump.rs", "ssmc-bench"),
            ["ssmc_bench", "bin", "trace_dump"]
        );
        assert_eq!(module_path_for("src/lib.rs", "ssmc"), ["ssmc"]);
        assert_eq!(module_path_for("tests/determinism.rs", "ssmc"), ["ssmc", "tests", "determinism"]);
    }

    #[test]
    fn fns_and_methods_get_qualified_names() {
        let p = parse("fn free() {}\nimpl Manager {\n    pub fn flush(&mut self) {}\n}\n");
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            ["ssmc_storage::manager::free", "ssmc_storage::manager::Manager::flush"]
        );
    }

    #[test]
    fn trait_impl_owner_is_the_implementing_type() {
        let p = parse("impl Iterator for SlotIter<'_> { fn next(&mut self) -> Option<u32> { None } }");
        assert_eq!(p.fns[0].qual, "ssmc_storage::manager::SlotIter::next");
    }

    #[test]
    fn hot_marker_binds_to_next_fn() {
        let p = parse("fn cold() {}\n// lint: hot-path\nfn hot() {}\nfn also_cold() {}\n");
        let hot: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_hot)).collect();
        assert_eq!(hot, [("cold", false), ("hot", true), ("also_cold", false)]);
    }

    #[test]
    fn const_generic_brace_in_signature_does_not_truncate_span() {
        // The old heuristic treated `{ N }` in the return type as the
        // body and silently stopped checking at its closing brace.
        let src = "// lint: hot-path\nfn hot<const N: usize>() -> ArrayVec<{ N }>\n{\n    let v = vec![1];\n    v\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert!(f.is_hot);
        assert_eq!((f.sig_line, f.end_line), (2, 6));
        assert_eq!(f.alloc_sites.len(), 1);
        assert_eq!(f.alloc_sites[0].what, "vec! macro");
    }

    #[test]
    fn nested_fn_sites_attribute_to_the_nested_fn() {
        let src = "fn outer() {\n    fn inner() { helper(); }\n    direct();\n}\n";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.qual, "ssmc_storage::manager::outer::inner");
        let outer_calls: Vec<_> = outer.calls.iter().map(|c| &c.kind).collect();
        assert_eq!(outer_calls, [&CallKind::Bare("direct".into())]);
        let inner_calls: Vec<_> = inner.calls.iter().map(|c| &c.kind).collect();
        assert_eq!(inner_calls, [&CallKind::Bare("helper".into())]);
    }

    #[test]
    fn call_kinds_classify() {
        let src = "fn f(&self) {\n    free();\n    self.own();\n    self.field.method();\n    a::b::path_fn();\n    Vec::<u8>::new();\n    x.collect::<Vec<_>>();\n}\n";
        let p = parse(src);
        let kinds: Vec<&CallKind> = p.fns[0].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(
            kinds,
            [
                &CallKind::Bare("free".into()),
                &CallKind::SelfMethod("own".into()),
                &CallKind::Method("method".into()),
                &CallKind::Path(vec!["a".into(), "b".into(), "path_fn".into()]),
                &CallKind::Path(vec!["Vec".into(), "new".into()]),
                &CallKind::Method("collect".into()),
            ]
        );
    }

    #[test]
    fn use_trees_bind_leaves_groups_and_renames() {
        let src = "use std::collections::BTreeMap;\nuse ssmc_sim::{report::Value, time::SimTime as T};\nuse crate::dense::{self, DenseIndex};\n";
        let p = parse(src);
        let get = |k: &str| p.uses.get(k).cloned().unwrap_or_default();
        assert_eq!(get("BTreeMap"), [vec!["std".to_owned(), "collections".into(), "BTreeMap".into()]]);
        assert_eq!(get("Value"), [vec!["ssmc_sim".to_owned(), "report".into(), "Value".into()]]);
        assert_eq!(get("T"), [vec!["ssmc_sim".to_owned(), "time".into(), "SimTime".into()]]);
        assert_eq!(get("dense"), [vec!["crate".to_owned(), "dense".into()]]);
        assert_eq!(get("DenseIndex"), [vec!["crate".to_owned(), "dense".into(), "DenseIndex".into()]]);
    }

    #[test]
    fn cfg_test_and_test_attr_mark_fns() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\n";
        let p = parse(src);
        let flags: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(flags, [("prod", false), ("helper", true), ("t", true)]);
    }

    #[test]
    fn charge_sites_recorded() {
        let src = "fn f(&mut self) { self.energy.charge(\"x\", e); other.charge_power(\"y\", p, d); }\n";
        let p = parse(src);
        let what: Vec<&str> = p.fns[0].charge_sites.iter().map(|s| s.what).collect();
        assert_eq!(what, [".charge()", ".charge_power()"]);
    }

    #[test]
    fn multi_line_signature_spans_whole_body() {
        let src = "// lint: hot-path\nfn hot(\n    a: u32,\n    b: [u8; 4],\n) -> u32\nwhere\n    u32: Copy,\n{\n    a\n}\n";
        let p = parse(src);
        assert_eq!((p.fns[0].sig_line, p.fns[0].end_line), (2, 10));
        assert!(p.fns[0].is_hot);
    }
}
