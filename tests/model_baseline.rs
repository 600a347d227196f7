//! Randomized-model tests for the conventional organisation: the disk
//! file system against a size/existence model, and its buffer cache
//! against a naive full-scan LRU. Both are driven by fixed `SimRng` seeds
//! so every run exercises identical sequences.

use ssmc::baseline::{BaselineConfig, BufferCache, DiskFs, FfsError};
use ssmc::device::DramSpec;
use ssmc::sim::{Clock, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Base seed for the deterministic case generator.
const SEED: u64 = 0xBA5E_11FE;

#[derive(Debug, Clone)]
enum Op {
    Create(u64),
    Write(u64, u32, u32),
    Read(u64, u32, u32),
    Truncate(u64, u32),
    Delete(u64),
    Flush,
}

/// Mirrors the old proptest weights: Create 2, Write 4, Read 3,
/// Truncate/Delete/Flush 1 each (total 12), over a six-file universe.
fn random_op(rng: &mut SimRng) -> Op {
    let file = |rng: &mut SimRng| rng.below(6);
    match rng.below(12) {
        0..=1 => Op::Create(file(rng)),
        2..=5 => Op::Write(
            file(rng),
            rng.below(100_000) as u32,
            1 + rng.below(39_999) as u32,
        ),
        6..=8 => Op::Read(
            file(rng),
            rng.below(120_000) as u32,
            1 + rng.below(39_999) as u32,
        ),
        9 => Op::Truncate(file(rng), rng.below(100_000) as u32),
        10 => Op::Delete(file(rng)),
        _ => Op::Flush,
    }
}

#[test]
fn diskfs_matches_size_model() {
    for case in 0..32u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..1 + rng.below(79))
            .map(|_| random_op(&mut rng))
            .collect();

        let clock = Clock::shared();
        let mut fs = DiskFs::new(
            BaselineConfig {
                spin_down: None,
                ..BaselineConfig::default()
            },
            clock,
        );
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Create(f) => {
                    let real = fs.create(f);
                    match model.entry(f) {
                        std::collections::hash_map::Entry::Occupied(_) => {
                            assert_eq!(
                                real,
                                Err(FfsError::Exists(f)),
                                "seed {seed}: double create {f}"
                            );
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            assert!(real.is_ok(), "seed {seed}: create {f} failed");
                            v.insert(0);
                        }
                    }
                }
                Op::Write(f, off, len) => {
                    let real = fs.write(f, off as u64, len as u64);
                    match model.get_mut(&f) {
                        Some(size) => {
                            assert!(real.is_ok(), "seed {seed}: write failed: {:?}", real.err());
                            *size = (*size).max(off as u64 + len as u64);
                        }
                        None => assert_eq!(
                            real,
                            Err(FfsError::UnknownFile(f)),
                            "seed {seed}: write to ghost {f}"
                        ),
                    }
                }
                Op::Read(f, off, len) => {
                    let real = fs.read(f, off as u64, len as u64);
                    if model.contains_key(&f) {
                        assert!(real.is_ok(), "seed {seed}: read of {f} failed");
                    } else {
                        assert_eq!(
                            real,
                            Err(FfsError::UnknownFile(f)),
                            "seed {seed}: read of ghost {f}"
                        );
                    }
                }
                Op::Truncate(f, len) => {
                    let real = fs.truncate(f, len as u64);
                    match model.get_mut(&f) {
                        Some(size) => {
                            assert!(real.is_ok(), "seed {seed}: truncate of {f} failed");
                            *size = len as u64;
                        }
                        None => assert_eq!(
                            real,
                            Err(FfsError::UnknownFile(f)),
                            "seed {seed}: truncate of ghost {f}"
                        ),
                    }
                }
                Op::Delete(f) => {
                    let real = fs.delete(f);
                    if model.remove(&f).is_some() {
                        assert!(real.is_ok(), "seed {seed}: delete of {f} failed");
                    } else {
                        assert_eq!(
                            real,
                            Err(FfsError::UnknownFile(f)),
                            "seed {seed}: delete of ghost {f}"
                        );
                    }
                }
                Op::Flush => fs.flush_all(),
            }
            // Sizes agree at every step.
            for (&f, &size) in &model {
                assert_eq!(fs.size_of(f), Some(size), "seed {seed}: size of {f}");
            }
            assert_eq!(fs.file_count(), model.len(), "seed {seed}: file count");
        }
        // Flushing leaves no dirty blocks behind.
        fs.flush_all();
        assert_eq!(fs.cache().dirty_count(), 0, "seed {seed}: dirty blocks");
    }
}

/// Base seed for the buffer-cache cases.
const CACHE_SEED: u64 = 0x1A0C_AC4E;
/// Block-number pool; twice the largest capacity, so evictions are common.
const CACHE_BLOCKS: u64 = 16;

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u64),
    Insert(u64, bool),
    /// Applied only when the block is cached (the cache panics otherwise).
    MarkDirty(u64),
    Clean(u64),
    Discard(u64),
    TakeDirty,
}

/// Weights: Lookup 4, Insert 4, MarkDirty 2, Clean/Discard/TakeDirty 1
/// each (total 13).
fn random_cache_op(rng: &mut SimRng) -> CacheOp {
    let block = |rng: &mut SimRng| rng.below(CACHE_BLOCKS);
    match rng.below(13) {
        0..=3 => CacheOp::Lookup(block(rng)),
        4..=7 => CacheOp::Insert(block(rng), rng.below(2) == 0),
        8..=9 => CacheOp::MarkDirty(block(rng)),
        10 => CacheOp::Clean(block(rng)),
        11 => CacheOp::Discard(block(rng)),
        _ => CacheOp::TakeDirty,
    }
}

/// The reference: each cached block with its last use and dirty bit. The
/// victim is found by scanning every entry for the smallest
/// `(last_use, block)`.
struct NaiveLru {
    capacity: usize,
    blocks: BTreeMap<u64, (SimTime, bool)>,
    /// Evictions whose victim shared its last use with another block.
    tied_evictions: u64,
}

impl NaiveLru {
    fn lookup(&mut self, block: u64, now: SimTime) -> bool {
        match self.blocks.get_mut(&block) {
            Some(entry) => {
                entry.0 = now;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, block: u64, dirty: bool, now: SimTime) -> Option<u64> {
        if let Some(entry) = self.blocks.get_mut(&block) {
            *entry = (now, entry.1 || dirty);
            return None;
        }
        let mut evicted = None;
        if self.blocks.len() >= self.capacity {
            let (last_use, victim) = self
                .blocks
                .iter()
                .map(|(&b, &(t, _))| (t, b))
                .min()
                .expect("a full cache holds blocks");
            if self.blocks.values().filter(|e| e.0 == last_use).count() > 1 {
                self.tied_evictions += 1;
            }
            let (_, was_dirty) = self.blocks.remove(&victim).expect("victim cached");
            if was_dirty {
                evicted = Some(victim);
            }
        }
        self.blocks.insert(block, (now, dirty));
        evicted
    }

    fn take_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for (&b, entry) in self.blocks.iter_mut() {
            if entry.1 {
                entry.1 = false;
                dirty.push(b);
            }
        }
        dirty
    }
}

#[test]
fn buffer_cache_evicts_like_a_full_scan_lru() {
    let mut tied_evictions = 0;
    for case in 0..32u64 {
        let seed = CACHE_SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let capacity = 2 + (case % 7) as usize;
        let clock = Clock::shared();
        let mut real = BufferCache::new(capacity, 512, DramSpec::default(), clock.clone());
        let mut model = NaiveLru {
            capacity,
            blocks: BTreeMap::new(),
            tied_evictions: 0,
        };
        for step in 0..300 {
            // 0–2 ticks between ops, so blocks share last-use instants.
            clock.advance(SimDuration::from_micros(rng.below(3)));
            let now = clock.now();
            let op = random_cache_op(&mut rng);
            let ctx = format!("seed {seed} step {step} {op:?}");
            match op {
                CacheOp::Lookup(b) => {
                    assert_eq!(real.lookup(b), model.lookup(b, now), "{ctx}: hit/miss");
                }
                CacheOp::Insert(b, dirty) => {
                    assert_eq!(
                        real.insert(b, dirty),
                        model.insert(b, dirty, now),
                        "{ctx}: dirty victim"
                    );
                }
                CacheOp::MarkDirty(b) => {
                    if let Some(entry) = model.blocks.get_mut(&b) {
                        *entry = (now, true);
                        real.mark_dirty(b);
                    }
                }
                CacheOp::Clean(b) => {
                    if let Some(entry) = model.blocks.get_mut(&b) {
                        entry.1 = false;
                    }
                    real.clean(b);
                }
                CacheOp::Discard(b) => {
                    model.blocks.remove(&b);
                    real.discard(b);
                }
                CacheOp::TakeDirty => {
                    assert_eq!(real.take_dirty(), model.take_dirty(), "{ctx}: dirty set");
                }
            }
            assert_eq!(real.len(), model.blocks.len(), "{ctx}: population");
            let dirty = model.blocks.values().filter(|e| e.1).count();
            assert_eq!(real.dirty_count(), dirty, "{ctx}: dirty count");
        }
        tied_evictions += model.tied_evictions;
    }
    assert!(tied_evictions > 0, "no eviction broke a same-instant tie");
}
