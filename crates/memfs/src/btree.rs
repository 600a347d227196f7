//! Slab/arena B-tree keyed by interned names.
//!
//! The DRAM directory index for the paper's memory-resident namespace.
//! A per-directory `HashMap<String, _>` tops out long before the
//! ROADMAP's millions-of-files target: every entry is a separate heap
//! string, iteration order is nondeterministic (lint rule D2), and churn
//! fragments the allocator. This B-tree stores fixed-fanout nodes in a
//! slab `Vec` — no per-entry boxing — and interns name bytes in a single
//! arena, so lookups compare against arena slices and allocate nothing.
//!
//! Determinism: iteration is in-order over byte-lexicographic keys, node
//! and span recycling are LIFO from plain `Vec` free lists, and nothing
//! depends on addresses or hashes — the same operation sequence always
//! produces the identical structure.
//!
//! Flat memory under churn: freed name spans are recycled through
//! exact-length buckets (names are at most [`MAX_NAME_LEN`] bytes, so
//! there are few buckets and a freed span can always be reused verbatim),
//! and freed nodes return to the slab's free list. A create/unlink cycle
//! at any population level leaves `arena_bytes` and the slab length
//! unchanged.

use std::cmp::Ordering;

/// Longest name the arena buckets handle, matching the on-flash dirent
/// limit ([`crate::layout::NAME_MAX`]).
pub const MAX_NAME_LEN: usize = crate::layout::NAME_MAX;

/// Minimum degree `t`: nodes hold `t-1 ..= 2t-1` keys (root exempt
/// below) and internal nodes `len+1` children.
const MIN_KEYS: usize = 7;
/// Maximum keys per node (`2t - 1` with `t = 8`).
const MAX_KEYS: usize = 2 * MIN_KEYS + 1;

/// An interned name: `len` bytes at `off` in the arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    off: u32,
    len: u8,
}

/// One B-tree node: fixed-size arrays in the slab, no per-entry boxes.
#[derive(Debug, Clone, Copy)]
struct Node<V> {
    len: u8,
    leaf: bool,
    keys: [Span; MAX_KEYS],
    vals: [V; MAX_KEYS],
    kids: [u32; MAX_KEYS + 1],
}

impl<V: Copy + Default> Node<V> {
    fn empty(leaf: bool) -> Self {
        Node {
            len: 0,
            leaf,
            keys: [Span::default(); MAX_KEYS],
            vals: [V::default(); MAX_KEYS],
            kids: [0; MAX_KEYS + 1],
        }
    }
}

/// A deterministic ordered map from short names to copyable values,
/// backed by a node slab and a name arena.
///
/// # Examples
///
/// ```
/// use ssmc_memfs::btree::BTreeIndex;
///
/// let mut idx: BTreeIndex<u64> = BTreeIndex::new();
/// idx.insert("alpha", 1);
/// idx.insert("beta", 2);
/// assert_eq!(idx.get("alpha"), Some(1));
/// assert_eq!(idx.remove("alpha"), Some(1));
/// assert_eq!(idx.get("alpha"), None);
/// assert_eq!(idx.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BTreeIndex<V> {
    nodes: Vec<Node<V>>,
    free_nodes: Vec<u32>,
    root: u32,
    /// Levels from root to leaves inclusive (1 = the root is a leaf).
    height: u32,
    len: usize,
    splits: u64,
    /// Interned name bytes; spans never straddle two names.
    arena: Vec<u8>,
    /// Freed span offsets bucketed by exact length (index = len), so
    /// reuse never fragments: a recycled span fits its new name exactly.
    free_spans: Vec<Vec<u32>>,
}

impl<V: Copy + Default> Default for BTreeIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> BTreeIndex<V> {
    /// An empty index (one leaf root in the slab).
    pub fn new() -> Self {
        BTreeIndex {
            nodes: vec![Node::empty(true)],
            free_nodes: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
            splits: 0,
            arena: Vec::new(),
            free_spans: (0..=MAX_NAME_LEN).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree depth in levels (1 = a lone leaf root). Lookups touch at most
    /// this many nodes, so an O(log n) bound is directly assertable.
    pub fn depth(&self) -> u32 {
        self.height
    }

    /// Cumulative node splits since creation.
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Bytes held by the name arena (peak interned footprint; freed spans
    /// are recycled, so churn at a fixed population keeps this flat).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Slab length in nodes (live + free-listed).
    pub fn node_slab_len(&self) -> usize {
        self.nodes.len()
    }

    fn key_bytes(&self, s: Span) -> &[u8] {
        &self.arena[s.off as usize..s.off as usize + s.len as usize]
    }

    /// First position whose key is `>= name`, and whether it is equal.
    fn search_pos(&self, x: u32, name: &[u8]) -> (usize, bool) {
        let node = &self.nodes[x as usize];
        for i in 0..node.len as usize {
            match self.key_bytes(node.keys[i]).cmp(name) {
                Ordering::Less => {}
                Ordering::Equal => return (i, true),
                Ordering::Greater => return (i, false),
            }
        }
        (node.len as usize, false)
    }

    /// Looks up `name`, allocation-free: the descent compares the probe
    /// against arena slices and copies out the value.
    // lint: hot-path
    pub fn get(&self, name: &str) -> Option<V> {
        let name = name.as_bytes();
        let mut x = self.root;
        loop {
            let (pos, found) = self.search_pos(x, name);
            let node = &self.nodes[x as usize];
            if found {
                return Some(node.vals[pos]);
            }
            if node.leaf {
                return None;
            }
            x = node.kids[pos];
        }
    }

    /// Interns `name`, reusing a freed same-length span when one exists.
    fn intern(&mut self, name: &[u8]) -> Span {
        debug_assert!(!name.is_empty() && name.len() <= MAX_NAME_LEN);
        let len = name.len();
        let off = match self.free_spans[len].pop() {
            Some(off) => {
                self.arena[off as usize..off as usize + len].copy_from_slice(name);
                off
            }
            None => {
                let off = self.arena.len() as u32;
                self.arena.extend_from_slice(name);
                off
            }
        };
        Span {
            off,
            len: len as u8,
        }
    }

    fn free_span(&mut self, s: Span) {
        self.free_spans[s.len as usize].push(s.off);
    }

    fn alloc_node(&mut self, leaf: bool) -> u32 {
        match self.free_nodes.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node::empty(leaf);
                i
            }
            None => {
                self.nodes.push(Node::empty(leaf));
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn free_node(&mut self, i: u32) {
        self.free_nodes.push(i);
    }

    /// Inserts `name → val`; returns the previous value if the name was
    /// already present (its span is reused, nothing re-interned).
    // lint: hot-path
    pub fn insert(&mut self, name: &str, val: V) -> Option<V> {
        let bytes = name.as_bytes();
        // Replace in place when present: one descent, no interning.
        let mut x = self.root;
        loop {
            let (pos, found) = self.search_pos(x, bytes);
            if found {
                let node = &mut self.nodes[x as usize];
                let old = node.vals[pos];
                node.vals[pos] = val;
                return Some(old);
            }
            let node = &self.nodes[x as usize];
            if node.leaf {
                break;
            }
            x = node.kids[pos];
        }
        let span = self.intern(bytes);
        if self.nodes[self.root as usize].len as usize == MAX_KEYS {
            let old_root = self.root;
            let new_root = self.alloc_node(false);
            self.nodes[new_root as usize].kids[0] = old_root;
            self.root = new_root;
            self.height += 1;
            self.split_child(new_root, 0);
        }
        self.insert_nonfull(self.root, span, val);
        self.len += 1;
        None
    }

    /// Splits the full child `kids[i]` of `parent`, promoting its median.
    fn split_child(&mut self, parent: u32, i: usize) {
        let child = self.nodes[parent as usize].kids[i];
        let cnode = self.nodes[child as usize];
        debug_assert_eq!(cnode.len as usize, MAX_KEYS);
        let right = self.alloc_node(cnode.leaf);
        {
            let r = &mut self.nodes[right as usize];
            r.len = MIN_KEYS as u8;
            r.keys[..MIN_KEYS].copy_from_slice(&cnode.keys[MIN_KEYS + 1..]);
            r.vals[..MIN_KEYS].copy_from_slice(&cnode.vals[MIN_KEYS + 1..]);
            if !cnode.leaf {
                r.kids[..MIN_KEYS + 1].copy_from_slice(&cnode.kids[MIN_KEYS + 1..]);
            }
        }
        self.nodes[child as usize].len = MIN_KEYS as u8;
        let p = &mut self.nodes[parent as usize];
        let plen = p.len as usize;
        p.keys.copy_within(i..plen, i + 1);
        p.vals.copy_within(i..plen, i + 1);
        p.kids.copy_within(i + 1..plen + 1, i + 2);
        p.keys[i] = cnode.keys[MIN_KEYS];
        p.vals[i] = cnode.vals[MIN_KEYS];
        p.kids[i + 1] = right;
        p.len += 1;
        self.splits += 1;
    }

    /// Standard top-down insert: every node descended into is non-full.
    fn insert_nonfull(&mut self, mut x: u32, span: Span, val: V) {
        // The probe's bytes live in the arena, which reallocates under
        // `self`; a stack copy sidesteps the aliasing.
        let mut probe = [0u8; MAX_NAME_LEN];
        let plen = span.len as usize;
        probe[..plen].copy_from_slice(self.key_bytes(span));
        let probe = &probe[..plen];
        loop {
            let (pos, found) = self.search_pos(x, probe);
            debug_assert!(!found, "duplicate insert handled by the replace descent");
            let node = &self.nodes[x as usize];
            if node.leaf {
                let node = &mut self.nodes[x as usize];
                let len = node.len as usize;
                node.keys.copy_within(pos..len, pos + 1);
                node.vals.copy_within(pos..len, pos + 1);
                node.keys[pos] = span;
                node.vals[pos] = val;
                node.len += 1;
                return;
            }
            let child = node.kids[pos];
            if self.nodes[child as usize].len as usize == MAX_KEYS {
                self.split_child(x, pos);
                // The promoted median sits at `pos` now; step right of it
                // when the new key sorts after it.
                let promoted = self.nodes[x as usize].keys[pos];
                let step = if self.key_bytes(promoted) < probe {
                    pos + 1
                } else {
                    pos
                };
                x = self.nodes[x as usize].kids[step];
            } else {
                x = child;
            }
        }
    }

    /// Removes `name`, returning its value; the span and any emptied
    /// nodes go back to the free lists.
    pub fn remove(&mut self, name: &str) -> Option<V> {
        let removed = self.remove_rec(self.root, name.as_bytes());
        if removed.is_some() {
            self.len -= 1;
            let r = self.root as usize;
            if self.nodes[r].len == 0 && !self.nodes[r].leaf {
                let old = self.root;
                self.root = self.nodes[r].kids[0];
                self.free_node(old);
                self.height -= 1;
            }
        }
        removed
    }

    /// CLRS-style preemptive delete: any node recursed into (other than
    /// the root) has at least `MIN_KEYS + 1` keys, so underflow repairs
    /// never propagate back up.
    fn remove_rec(&mut self, x: u32, name: &[u8]) -> Option<V> {
        let (pos, found) = self.search_pos(x, name);
        let leaf = self.nodes[x as usize].leaf;
        if found {
            if leaf {
                let (span, val) = self.remove_at_leaf(x, pos);
                self.free_span(span);
                return Some(val);
            }
            let left = self.nodes[x as usize].kids[pos];
            let right = self.nodes[x as usize].kids[pos + 1];
            if self.nodes[left as usize].len as usize > MIN_KEYS {
                let (span, val) = self.pop_max(left);
                let node = &mut self.nodes[x as usize];
                let (old_span, old_val) = (node.keys[pos], node.vals[pos]);
                node.keys[pos] = span;
                node.vals[pos] = val;
                self.free_span(old_span);
                Some(old_val)
            } else if self.nodes[right as usize].len as usize > MIN_KEYS {
                let (span, val) = self.pop_min(right);
                let node = &mut self.nodes[x as usize];
                let (old_span, old_val) = (node.keys[pos], node.vals[pos]);
                node.keys[pos] = span;
                node.vals[pos] = val;
                self.free_span(old_span);
                Some(old_val)
            } else {
                self.merge_children(x, pos);
                self.remove_rec(left, name)
            }
        } else if leaf {
            None
        } else {
            let child = self.ensure_child(x, pos);
            self.remove_rec(child, name)
        }
    }

    /// Removes and returns the leaf entry at `pos`.
    fn remove_at_leaf(&mut self, x: u32, pos: usize) -> (Span, V) {
        let node = &mut self.nodes[x as usize];
        debug_assert!(node.leaf);
        let len = node.len as usize;
        let out = (node.keys[pos], node.vals[pos]);
        node.keys.copy_within(pos + 1..len, pos);
        node.vals.copy_within(pos + 1..len, pos);
        node.len -= 1;
        out
    }

    /// Detaches the maximum entry of the subtree at `x` (span not freed:
    /// the caller reuses it as a separator).
    fn pop_max(&mut self, mut x: u32) -> (Span, V) {
        loop {
            if self.nodes[x as usize].leaf {
                let len = self.nodes[x as usize].len as usize;
                return self.remove_at_leaf(x, len - 1);
            }
            let pos = self.nodes[x as usize].len as usize;
            x = self.ensure_child(x, pos);
        }
    }

    /// Detaches the minimum entry of the subtree at `x`.
    fn pop_min(&mut self, mut x: u32) -> (Span, V) {
        loop {
            if self.nodes[x as usize].leaf {
                return self.remove_at_leaf(x, 0);
            }
            x = self.ensure_child(x, 0);
        }
    }

    /// Guarantees the child to descend into has more than `MIN_KEYS`
    /// keys, borrowing from a rich sibling or merging with a poor one.
    /// Returns the node to descend into (the merge target when the child
    /// was absorbed leftward).
    fn ensure_child(&mut self, x: u32, i: usize) -> u32 {
        let child = self.nodes[x as usize].kids[i];
        if self.nodes[child as usize].len as usize > MIN_KEYS {
            return child;
        }
        let xlen = self.nodes[x as usize].len as usize;
        if i > 0 {
            let lsib = self.nodes[x as usize].kids[i - 1];
            if self.nodes[lsib as usize].len as usize > MIN_KEYS {
                self.rotate_into_right(x, i - 1);
                return child;
            }
        }
        if i < xlen {
            let rsib = self.nodes[x as usize].kids[i + 1];
            if self.nodes[rsib as usize].len as usize > MIN_KEYS {
                self.rotate_into_left(x, i);
                return child;
            }
        }
        if i < xlen {
            self.merge_children(x, i);
            child
        } else {
            self.merge_children(x, i - 1);
            self.nodes[x as usize].kids[i - 1]
        }
    }

    /// Moves one entry from `kids[k]` through separator `k` into
    /// `kids[k+1]` (right rotation around the separator).
    fn rotate_into_right(&mut self, x: u32, k: usize) {
        let left = self.nodes[x as usize].kids[k];
        let right = self.nodes[x as usize].kids[k + 1];
        let sep = (
            self.nodes[x as usize].keys[k],
            self.nodes[x as usize].vals[k],
        );
        let lnode = self.nodes[left as usize];
        let llen = lnode.len as usize;
        {
            let r = &mut self.nodes[right as usize];
            let rlen = r.len as usize;
            r.keys.copy_within(0..rlen, 1);
            r.vals.copy_within(0..rlen, 1);
            r.kids.copy_within(0..rlen + 1, 1);
            r.keys[0] = sep.0;
            r.vals[0] = sep.1;
            if !r.leaf {
                r.kids[0] = lnode.kids[llen];
            }
            r.len += 1;
        }
        let p = &mut self.nodes[x as usize];
        p.keys[k] = lnode.keys[llen - 1];
        p.vals[k] = lnode.vals[llen - 1];
        self.nodes[left as usize].len -= 1;
    }

    /// Moves one entry from `kids[k+1]` through separator `k` into
    /// `kids[k]` (left rotation around the separator).
    fn rotate_into_left(&mut self, x: u32, k: usize) {
        let left = self.nodes[x as usize].kids[k];
        let right = self.nodes[x as usize].kids[k + 1];
        let sep = (
            self.nodes[x as usize].keys[k],
            self.nodes[x as usize].vals[k],
        );
        let rnode = self.nodes[right as usize];
        let rlen = rnode.len as usize;
        {
            let l = &mut self.nodes[left as usize];
            let llen = l.len as usize;
            l.keys[llen] = sep.0;
            l.vals[llen] = sep.1;
            if !l.leaf {
                l.kids[llen + 1] = rnode.kids[0];
            }
            l.len += 1;
        }
        {
            let p = &mut self.nodes[x as usize];
            p.keys[k] = rnode.keys[0];
            p.vals[k] = rnode.vals[0];
        }
        let r = &mut self.nodes[right as usize];
        r.keys.copy_within(1..rlen, 0);
        r.vals.copy_within(1..rlen, 0);
        r.kids.copy_within(1..rlen + 1, 0);
        r.len -= 1;
    }

    /// Merges `kids[k]`, separator `k`, and `kids[k+1]` into `kids[k]`;
    /// the right node returns to the slab free list.
    fn merge_children(&mut self, x: u32, k: usize) {
        let left = self.nodes[x as usize].kids[k];
        let right = self.nodes[x as usize].kids[k + 1];
        let sep = (
            self.nodes[x as usize].keys[k],
            self.nodes[x as usize].vals[k],
        );
        let rnode = self.nodes[right as usize];
        let rlen = rnode.len as usize;
        {
            let l = &mut self.nodes[left as usize];
            let llen = l.len as usize;
            l.keys[llen] = sep.0;
            l.vals[llen] = sep.1;
            l.keys[llen + 1..llen + 1 + rlen].copy_from_slice(&rnode.keys[..rlen]);
            l.vals[llen + 1..llen + 1 + rlen].copy_from_slice(&rnode.vals[..rlen]);
            if !l.leaf {
                l.kids[llen + 1..llen + 2 + rlen].copy_from_slice(&rnode.kids[..rlen + 1]);
            }
            l.len = (llen + 1 + rlen) as u8;
        }
        let p = &mut self.nodes[x as usize];
        let plen = p.len as usize;
        p.keys.copy_within(k + 1..plen, k);
        p.vals.copy_within(k + 1..plen, k);
        p.kids.copy_within(k + 2..plen + 1, k + 1);
        p.len -= 1;
        self.free_node(right);
    }

    /// In-order traversal (byte-lexicographic name order).
    pub fn for_each(&self, mut f: impl FnMut(&str, V)) {
        self.for_each_rec(self.root, &mut f);
    }

    fn for_each_rec(&self, x: u32, f: &mut impl FnMut(&str, V)) {
        let node = &self.nodes[x as usize];
        for i in 0..node.len as usize {
            if !node.leaf {
                self.for_each_rec(node.kids[i], f);
            }
            let name = std::str::from_utf8(self.key_bytes(node.keys[i]))
                .expect("interned names are UTF-8");
            f(name, node.vals[i]);
        }
        if !node.leaf {
            self.for_each_rec(node.kids[node.len as usize], f);
        }
    }

    /// Test support: panics if any B-tree invariant is violated (key
    /// order, node fill bounds, uniform leaf depth, entry count).
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        let mut prev: Option<Vec<u8>> = None;
        self.check_rec(self.root, 1, &mut count, &mut prev);
        assert_eq!(count, self.len, "entry count diverged from len()");
    }

    fn check_rec(&self, x: u32, depth: u32, count: &mut usize, prev: &mut Option<Vec<u8>>) {
        let node = &self.nodes[x as usize];
        let len = node.len as usize;
        assert!(len <= MAX_KEYS, "node over-full");
        if x != self.root {
            assert!(len >= MIN_KEYS, "non-root node under-filled: {len}");
        }
        if node.leaf {
            assert_eq!(depth, self.height, "leaf at wrong depth");
        }
        for i in 0..len {
            if !node.leaf {
                self.check_rec(node.kids[i], depth + 1, count, prev);
            }
            let key = self.key_bytes(node.keys[i]);
            if let Some(p) = prev {
                assert!(p.as_slice() < key, "keys out of order");
            }
            *prev = Some(key.to_vec());
            *count += 1;
        }
        if !node.leaf {
            self.check_rec(node.kids[len], depth + 1, count, prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(i: u32) -> String {
        format!("n{i:06}")
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        for i in 0..500 {
            assert_eq!(idx.insert(&name(i), i), None);
        }
        idx.check_invariants();
        assert_eq!(idx.len(), 500);
        assert!(idx.depth() > 1, "500 entries must split the root");
        assert!(idx.splits() > 0);
        for i in 0..500 {
            assert_eq!(idx.get(&name(i)), Some(i), "lookup {i}");
        }
        assert_eq!(idx.get("missing"), None);
        for i in 0..500 {
            assert_eq!(idx.remove(&name(i)), Some(i), "remove {i}");
            assert_eq!(idx.remove(&name(i)), None, "double remove {i}");
        }
        idx.check_invariants();
        assert!(idx.is_empty());
        assert_eq!(idx.depth(), 1, "empty tree collapses to a lone root");
    }

    #[test]
    fn insert_replaces_and_returns_old_value() {
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        assert_eq!(idx.insert("dup", 1), None);
        let arena_after_first = idx.arena_bytes();
        assert_eq!(idx.insert("dup", 2), Some(1));
        assert_eq!(idx.get("dup"), Some(2));
        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx.arena_bytes(),
            arena_after_first,
            "replace re-interns nothing"
        );
    }

    #[test]
    fn iteration_is_in_name_order() {
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        // Insert in descending order; traversal must come back ascending.
        for i in (0..200).rev() {
            idx.insert(&name(i), i);
        }
        let mut seen = Vec::new();
        idx.for_each(|n, v| seen.push((n.to_owned(), v)));
        let expected: Vec<(String, u32)> = (0..200).map(|i| (name(i), i)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn churn_keeps_arena_and_slab_flat() {
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        for i in 0..300 {
            idx.insert(&name(i), i);
        }
        let arena = idx.arena_bytes();
        let slab = idx.node_slab_len();
        for round in 0..5 {
            for i in 0..300 {
                assert_eq!(idx.remove(&name(i)), Some(i), "round {round}");
            }
            for i in 0..300 {
                idx.insert(&name(i), i);
            }
            idx.check_invariants();
        }
        assert_eq!(idx.arena_bytes(), arena, "arena grew under churn");
        assert_eq!(idx.node_slab_len(), slab, "node slab grew under churn");
    }

    #[test]
    fn interleaved_removal_patterns_hold_invariants() {
        // Odd-entry removal exercises borrows and merges at every level.
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        for i in 0..1000 {
            idx.insert(&name(i), i);
        }
        for i in (1..1000).step_by(2) {
            assert_eq!(idx.remove(&name(i)), Some(i));
        }
        idx.check_invariants();
        for i in (0..1000).step_by(2) {
            assert_eq!(idx.get(&name(i)), Some(i));
        }
        for i in (1..1000).step_by(2) {
            assert_eq!(idx.get(&name(i)), None);
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let mut idx: BTreeIndex<u32> = BTreeIndex::new();
        for i in 0..20_000 {
            idx.insert(&name(i), i);
        }
        // With t = 8, 20k entries fit in ceil(log_8 20e3) + 1 ≈ 6 levels.
        assert!(idx.depth() <= 6, "depth {} too deep for 20k", idx.depth());
        idx.check_invariants();
    }
}
