//! The buffer cache of the conventional organisation.
//!
//! A fixed-capacity cache of disk blocks held in DRAM, with delayed
//! write-back: dirty blocks linger until the periodic sync (or eviction)
//! writes them out. Copies in and out of the cache are charged to a DRAM
//! device — the data-duplication cost the memory-resident design
//! eliminates. Replacement is least-recently-used.

use ssmc_device::{Dram, DramSpec};
use ssmc_sim::{SharedClock, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that needed the disk.
    pub misses: u64,
    /// Dirty blocks written back (eviction or sync).
    pub write_backs: u64,
    /// Dirty blocks discarded before reaching the disk (deleted files).
    pub write_cancels: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    dirty: bool,
    last_use: SimTime,
}

/// A fixed-capacity LRU block cache.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    block_size: u64,
    entries: BTreeMap<u64, Entry>,
    /// Eviction order, least recent first: `(last use, block)`, so blocks
    /// last used at the same instant leave in block order.
    lru: BTreeSet<(SimTime, u64)>,
    dram: Dram,
    clock: SharedClock,
    stats: CacheStats,
}

impl BufferCache {
    /// Creates an LRU cache of `capacity` blocks of `block_size` bytes.
    pub fn new(capacity: usize, block_size: u64, dram: DramSpec, clock: SharedClock) -> Self {
        let dram_spec = dram.with_capacity((capacity as u64 * block_size).max(block_size));
        BufferCache {
            capacity: capacity.max(1),
            block_size,
            entries: BTreeMap::new(),
            lru: BTreeSet::new(),
            dram: Dram::new(dram_spec, clock.clone()),
            clock,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dirty blocks currently cached.
    pub fn dirty_count(&self) -> usize {
        self.entries.values().filter(|e| e.dirty).count()
    }

    /// The cache's DRAM device (energy accounting).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    fn touch_entry(&mut self, block: u64, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&block) {
            self.lru.remove(&(e.last_use, block));
            e.last_use = now;
            self.lru.insert((now, block));
        }
    }

    /// Charges one block-sized copy out of (or into) cache memory.
    fn charge_copy(&mut self) {
        // Contents are not modelled; charge the DRAM transfer time and
        // energy.
        let _ = self.dram.read_borrow(0, self.block_size);
    }

    /// Looks a block up. On a hit, charges the copy and refreshes LRU.
    pub fn lookup(&mut self, block: u64) -> bool {
        let now = self.clock.now();
        if self.entries.contains_key(&block) {
            self.touch_entry(block, now);
            self.charge_copy();
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Inserts a block just read from disk (clean) or about to be written
    /// (dirty). Returns a dirty block evicted to make room, if any —
    /// the caller must write it to disk.
    pub fn insert(&mut self, block: u64, dirty: bool) -> Option<u64> {
        let now = self.clock.now();
        self.charge_copy();
        if let Some(e) = self.entries.get_mut(&block) {
            e.dirty |= dirty;
            self.touch_entry(block, now);
            return None;
        }
        let mut evicted_dirty = None;
        if self.entries.len() >= self.capacity {
            if let Some((_, victim)) = self.lru.pop_first() {
                let e = self.entries.remove(&victim).expect("entry exists");
                if e.dirty {
                    self.stats.write_backs += 1;
                    evicted_dirty = Some(victim);
                }
            }
        }
        self.entries.insert(
            block,
            Entry {
                dirty,
                last_use: now,
            },
        );
        self.lru.insert((now, block));
        evicted_dirty
    }

    /// Marks a cached block dirty (it must be present).
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached.
    pub fn mark_dirty(&mut self, block: u64) {
        let now = self.clock.now();
        self.entries
            .get_mut(&block)
            .expect("mark_dirty of uncached block")
            .dirty = true;
        self.touch_entry(block, now);
    }

    /// Takes every dirty block (clearing its dirty flag), for a sync
    /// write-back pass. The blocks stay cached clean.
    pub fn take_dirty(&mut self) -> Vec<u64> {
        // lint: allow(H2): the 1993 disk-stack comparator is modelled for
        // contrast, outside the zero-allocation replay contract.
        let mut dirty = Vec::new();
        for (b, e) in self.entries.iter_mut() {
            if e.dirty {
                e.dirty = false;
                dirty.push(*b);
            }
        }
        self.stats.write_backs += dirty.len() as u64;
        dirty
    }

    /// Marks a cached block clean (its content just reached the disk via a
    /// synchronous write outside the cache). No-op if not cached.
    pub fn clean(&mut self, block: u64) {
        if let Some(e) = self.entries.get_mut(&block) {
            e.dirty = false;
        }
    }

    /// Discards a block (file deleted); a pending dirty write is cancelled.
    pub fn discard(&mut self, block: u64) {
        if let Some(e) = self.entries.remove(&block) {
            self.lru.remove(&(e.last_use, block));
            if e.dirty {
                self.stats.write_cancels += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::{Clock, SimDuration};

    fn cache(cap: usize) -> (BufferCache, SharedClock) {
        let clock = Clock::shared();
        (
            BufferCache::new(cap, 4096, DramSpec::default(), clock.clone()),
            clock,
        )
    }

    #[test]
    fn hit_after_insert() {
        let (mut c, _) = cache(4);
        assert!(!c.lookup(7));
        c.insert(7, false);
        assert!(c.lookup(7));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent_and_reports_dirty() {
        let (mut c, clock) = cache(2);
        c.insert(1, true);
        clock.advance(SimDuration::from_millis(1));
        c.insert(2, false);
        clock.advance(SimDuration::from_millis(1));
        // Touch 1 so 2 becomes the LRU victim.
        c.lookup(1);
        clock.advance(SimDuration::from_millis(1));
        let evicted = c.insert(3, false);
        assert_eq!(evicted, None, "block 2 was clean");
        assert!(!c.lookup(2), "2 was evicted");
        assert!(c.lookup(1), "1 survived");
    }

    #[test]
    fn dirty_eviction_is_reported_for_write_back() {
        let (mut c, clock) = cache(1);
        c.insert(1, true);
        clock.advance(SimDuration::from_millis(1));
        let evicted = c.insert(2, false);
        assert_eq!(evicted, Some(1), "dirty victim must be written back");
        assert_eq!(c.stats().write_backs, 1);
    }

    #[test]
    fn clean_marks_block_durable() {
        let (mut c, _) = cache(2);
        c.insert(5, true);
        c.clean(5);
        assert_eq!(c.dirty_count(), 0);
        assert!(c.lookup(5), "still cached");
        c.clean(99); // no-op
    }

    #[test]
    fn take_dirty_clears_flags_keeps_blocks() {
        let (mut c, _) = cache(4);
        c.insert(1, true);
        c.insert(2, true);
        c.insert(3, false);
        let mut d = c.take_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
        assert_eq!(c.dirty_count(), 0);
        assert_eq!(c.len(), 3);
        assert!(c.take_dirty().is_empty());
    }

    #[test]
    fn discard_cancels_pending_write() {
        let (mut c, _) = cache(4);
        c.insert(9, true);
        c.discard(9);
        assert_eq!(c.stats().write_cancels, 1);
        assert_eq!(c.dirty_count(), 0);
        assert!(!c.lookup(9));
    }

    #[test]
    fn copies_cost_dram_time_and_energy() {
        let (mut c, clock) = cache(4);
        let t0 = clock.now();
        c.insert(1, false);
        c.lookup(1);
        assert!(clock.now() > t0, "cache copies take time");
        assert!(c.dram().energy().total().as_nanojoules() > 0);
    }
}
