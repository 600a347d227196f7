//! Randomized-model test: the conventional disk file system against a
//! size/existence model, driven by fixed `SimRng` seeds so every run
//! exercises identical sequences.

use ssmc::baseline::{BaselineConfig, DiskFs, FfsError};
use ssmc::sim::{Clock, SimRng};
use std::collections::HashMap;

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
