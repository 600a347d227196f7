//! A dense two-level index over structured 64-bit ids.
//!
//! The simulator's hot ids — logical page numbers, buffer frames, file
//! descriptors — are structured `(window << 32) | slot` values: a small
//! high half (an inode number, usually zero) and a small, densely packed
//! low half. [`DenseIndex`] exploits that shape: the high 32 bits select
//! a lazily-grown window, the low bits index a flat `Vec<Option<V>>` of
//! slots, so a lookup is two array indexes — no hashing, no allocation,
//! no pointer chasing. Ids past the per-window slot bound, or in very
//! high windows (the VM swap area), fall back to a sorted overflow map,
//! which also keeps iteration deterministic.
//!
//! This is the storage crate's shared building block for the hot-path
//! tables: the page map, the write buffer's page→frame index, and the
//! file system's descriptor tables all sit on it.

use std::collections::BTreeMap;

/// Windows (distinct high-32-bit prefixes) eligible for dense tables.
/// Inode numbers are small sequential integers, so this covers every
/// file window; the VM swap window (`0xFFFF_FFFF…`) overflows.
const DENSE_WINDOWS: u64 = 1 << 16;

/// A dense windowed index from `u64` ids to copyable values.
#[derive(Debug, Clone)]
pub struct DenseIndex<V> {
    /// Dense windows, indexed by `id >> 32`; each grows to its highest
    /// occupied slot.
    windows: Vec<Vec<Option<V>>>,
    /// Ids outside the dense bounds, in ascending order.
    overflow: BTreeMap<u64, V>,
    /// Per-window slot bound; slots at or past it go to `overflow`.
    dense_slots: u64,
    /// Occupied entries, maintained on every mutation.
    len: usize,
}

impl<V: Copy> DenseIndex<V> {
    /// Creates an empty index whose windows hold `dense_slots` slots.
    pub fn new(dense_slots: u64) -> Self {
        DenseIndex {
            windows: Vec::new(),
            overflow: BTreeMap::new(),
            dense_slots: dense_slots.max(1),
            len: 0,
        }
    }

    /// Splits an id into dense `(window, slot)` coordinates, or `None`
    /// if it belongs in the overflow map.
    #[inline]
    fn split(&self, id: u64) -> Option<(usize, usize)> {
        let hi = id >> 32;
        let lo = id & 0xFFFF_FFFF;
        if hi < DENSE_WINDOWS && lo < self.dense_slots {
            Some((hi as usize, lo as usize))
        } else {
            None
        }
    }

    /// Looks up an id.
    #[inline]
    pub fn get(&self, id: u64) -> Option<V> {
        match self.split(id) {
            Some((w, s)) => self
                .windows
                .get(w)
                .and_then(|win| win.get(s))
                .copied()
                .flatten(),
            None => self.overflow.get(&id).copied(),
        }
    }

    /// Whether an id is present.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Inserts or replaces, returning the previous value.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let old = match self.split(id) {
            Some((w, s)) => {
                if w >= self.windows.len() {
                    // lint: allow(H2): a window is added once per new file id;
                    // steady state is alloc-guard pinned.
                    self.windows.resize_with(w + 1, Vec::new);
                }
                let slots = &mut self.windows[w];
                if s >= slots.len() {
                    slots.resize(s + 1, None);
                }
                std::mem::replace(&mut slots[s], Some(value))
            }
            None => self.overflow.insert(id, value),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes an id, returning its value.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let old = match self.split(id) {
            Some((w, s)) => self
                .windows
                .get_mut(w)
                .and_then(|win| win.get_mut(s))
                .and_then(Option::take),
            None => self.overflow.remove(&id),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every entry, keeping window capacity for reuse.
    pub fn clear(&mut self) {
        for w in &mut self.windows {
            w.clear();
        }
        self.overflow.clear();
        self.len = 0;
    }

    /// Iterates `(id, value)` pairs in deterministic order: dense windows
    /// ascending (slots ascending within each), then the overflow map in
    /// ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.windows
            .iter()
            .enumerate()
            .flat_map(|(w, win)| {
                win.iter().enumerate().filter_map(move |(s, v)| {
                    v.map(|v| (((w as u64) << 32) | s as u64, v))
                })
            })
            .chain(self.overflow.iter().map(|(k, v)| (*k, *v)))
    }

    /// Removes every entry for which `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, V) -> bool) {
        for (w, win) in self.windows.iter_mut().enumerate() {
            for (s, slot) in win.iter_mut().enumerate() {
                if let Some(v) = slot {
                    if !keep(((w as u64) << 32) | s as u64, *v) {
                        *slot = None;
                        self.len -= 1;
                    }
                }
            }
        }
        let before = self.overflow.len();
        self.overflow.retain(|k, v| keep(*k, *v));
        self.len -= before - self.overflow.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut ix: DenseIndex<u32> = DenseIndex::new(8);
        assert!(ix.get(5).is_none());
        assert_eq!(ix.insert(5, 50), None);
        assert_eq!(ix.insert(5, 51), Some(50));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.remove(5), Some(51));
        assert!(ix.is_empty());
    }

    #[test]
    fn overflow_ids_work_like_dense_ones() {
        let mut ix: DenseIndex<u32> = DenseIndex::new(4);
        let dense = (2u64 << 32) | 3;
        let slot_overflow = (2u64 << 32) | 4;
        let window_overflow = 0xFFFF_FFFF_0000_0000u64;
        ix.insert(dense, 1);
        ix.insert(slot_overflow, 2);
        ix.insert(window_overflow, 3);
        assert_eq!(ix.get(dense), Some(1));
        assert_eq!(ix.get(slot_overflow), Some(2));
        assert_eq!(ix.get(window_overflow), Some(3));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.remove(slot_overflow), Some(2));
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn retain_updates_len_across_tiers() {
        let mut ix: DenseIndex<u32> = DenseIndex::new(4);
        for i in 0..4u64 {
            ix.insert(i, i as u32);
        }
        ix.insert(u64::MAX, 99);
        ix.retain(|_, v| v % 2 == 0);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(1), None);
        assert_eq!(ix.get(2), Some(2));
        assert_eq!(ix.get(u64::MAX), None);
    }

    #[test]
    fn iteration_is_sorted_within_tiers() {
        let mut ix: DenseIndex<u32> = DenseIndex::new(16);
        ix.insert((1u64 << 32) | 2, 0);
        ix.insert(3, 0);
        ix.insert(u64::MAX, 0);
        let ids: Vec<u64> = ix.iter().map(|(k, _)| k).collect();
        assert_eq!(ids, vec![3, (1u64 << 32) | 2, u64::MAX]);
    }
}
