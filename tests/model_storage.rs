//! Randomized-model test: the storage manager against a trivial model.
//!
//! The model is a `HashMap<PageId, Vec<u8>>` plus a record of what was
//! synced. Invariants checked under random operation sequences:
//!
//! * read-your-writes: a read always returns the latest written data;
//! * free-then-read yields zeros (holes);
//! * after a crash, recovery restores the latest *durable* version of
//!   every page (explicit syncs and background ticks both flush), never
//!   fabricated data, and never loses an explicitly synced page;
//! * capacity accounting never lets live pages exceed the advertised
//!   capacity, and `NoSpace` means exactly that live data is at capacity
//!   (or past it, once retired blocks have shrunk it);
//! * on a full flash the cleaner either makes room or says why it cannot
//!   (`CleanerStalled`), never `NoSpace` while live data fits.
//!
//! Cases are generated from fixed seeds by `SimRng`, so every run (and
//! every machine) exercises the identical sequences; a failure message
//! names the seed so the case can be replayed in isolation.

use ssmc::device::FlashSpec;
use ssmc::sim::{Clock, SimDuration, SimRng};
use ssmc::storage::{Stall, StorageConfig, StorageError, StorageManager};
use std::collections::HashMap;

const PAGE: usize = 512;
/// Keep the page universe small so overwrites and frees actually collide.
const UNIVERSE: u64 = 48;
/// Base seed for the deterministic case generator.
const SEED: u64 = 0x5704_6A6E;

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u8),
    Read(u64),
    Free(u64),
    Sync,
    Tick(u64),
    CrashRecover,
}

/// Mirrors the old proptest weights: Write 4, Read 3, Free/Sync/Tick/
/// CrashRecover 1 each (total 11).
fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(11) {
        0..=3 => Op::Write(rng.below(UNIVERSE), rng.below(256) as u8),
        4..=6 => Op::Read(rng.below(UNIVERSE)),
        7 => Op::Free(rng.below(UNIVERSE)),
        8 => Op::Sync,
        9 => Op::Tick(1 + rng.below(119)),
        _ => Op::CrashRecover,
    }
}

fn random_ops(rng: &mut SimRng, min: u64, max: u64) -> Vec<Op> {
    let len = min + rng.below(max - min);
    (0..len).map(|_| random_op(rng)).collect()
}

fn manager() -> (StorageManager, ssmc::sim::SharedClock) {
    let clock = Clock::shared();
    let cfg = StorageConfig {
        page_size: PAGE as u64,
        dram_buffer_bytes: 8 * PAGE as u64,
        flash: FlashSpec {
            banks: 2,
            blocks_per_bank: 10,
            block_bytes: 4096,
            write_unit: 512,
            ..FlashSpec::default()
        },
        gc_trigger_segments: 2,
        gc_target_segments: 3,
        ..StorageConfig::default()
    };
    (StorageManager::new(cfg, clock.clone()), clock)
}

/// Drives one operation sequence against the model; panics (with `ctx`
/// naming the seed) on any divergence.
fn check_against_model(ops: &[Op], ctx: &str) {
    let (mut sm, clock) = manager();
    // Model: current contents, last-synced contents, and every value
    // ever written per page (ticks may flush intermediate versions,
    // so recovery may restore any historically written value).
    let mut current: HashMap<u64, u8> = HashMap::new();
    let mut synced: HashMap<u64, u8> = HashMap::new();
    let mut history: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut buf = vec![0u8; PAGE];

    for op in ops {
        match *op {
            Op::Write(p, b) => match sm.write_page(p, &vec![b; PAGE]) {
                Ok(()) => {
                    current.insert(p, b);
                    history.entry(p).or_default().push(b);
                }
                Err(StorageError::NoSpace) => {
                    // Model must agree capacity was the issue.
                    assert!(
                        !current.contains_key(&p),
                        "{ctx}: NoSpace rewriting an existing page"
                    );
                    assert!(
                        !sm.has_capacity_for(1),
                        "{ctx}: NoSpace with room for another page"
                    );
                }
                Err(e) => panic!("{ctx}: write: {e}"),
            },
            Op::Read(p) => {
                sm.read_page(p, &mut buf).expect("read");
                match current.get(&p) {
                    Some(&b) => assert!(
                        buf.iter().all(|&x| x == b),
                        "{ctx}: page {p} expected {b}, got {}",
                        buf[0]
                    ),
                    None => assert!(
                        buf.iter().all(|&x| x == 0),
                        "{ctx}: hole {p} must read zeros"
                    ),
                }
            }
            Op::Free(p) => {
                sm.free_page(p).expect("free");
                current.remove(&p);
            }
            Op::Sync => {
                sm.sync().expect("sync");
                synced = current.clone();
            }
            Op::Tick(secs) => {
                clock.advance(SimDuration::from_secs(secs));
                sm.tick().expect("tick");
                // Ticks may flush buffered pages; anything that
                // reached flash is as good as synced, but we cannot
                // see which — conservatively leave `synced` alone
                // (recovery may restore MORE than `synced`, checked
                // below as a superset property only for deletes).
            }
            Op::CrashRecover => {
                sm.crash();
                sm.recover().expect("recover");
                // Recovery restores the latest *durable* version of
                // each page. Explicit syncs and background ticks both
                // flush, so the recovered value may be any version
                // ever written — but never garbage, and synced pages
                // must exist.
                for &p in synced.keys() {
                    if current.contains_key(&p) {
                        assert!(sm.contains(p), "{ctx}: synced page {p} lost");
                        sm.read_page(p, &mut buf).expect("read");
                        assert!(buf.iter().all(|&x| x == buf[0]));
                        let known = history.get(&p).cloned().unwrap_or_default();
                        assert!(
                            known.contains(&buf[0]),
                            "{ctx}: page {p}: recovered {} was never written",
                            buf[0]
                        );
                    }
                }
                // Reset the model to what the device now reports.
                let mut rebuilt: HashMap<u64, u8> = HashMap::new();
                for p in 0..UNIVERSE {
                    if sm.contains(p) {
                        sm.read_page(p, &mut buf).expect("read");
                        rebuilt.insert(p, buf[0]);
                    }
                }
                current = rebuilt.clone();
                synced = rebuilt;
            }
        }
        // Global invariant: live pages within capacity.
        assert!(
            sm.pages_live() <= sm.page_capacity(),
            "{ctx}: live pages exceed capacity"
        );
    }
}

#[test]
fn storage_manager_matches_model() {
    for case in 0..48u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 1, 120);
        check_against_model(&ops, &format!("seed {seed}"));
    }
}

/// Regression distilled by the old proptest shrinker: a page written,
/// synced, rewritten, tick-flushed, rewritten again and then crashed must
/// recover to one of its historically written values.
#[test]
fn storage_regression_synced_page_survives_tick_flush() {
    let ops = [
        Op::Write(23, 0),
        Op::Sync,
        Op::Write(23, 1),
        Op::Tick(30),
        Op::Write(23, 2),
        Op::CrashRecover,
    ];
    check_against_model(&ops, "regression");
}

#[test]
fn synced_state_always_survives_crash() {
    for case in 0..48u64 {
        let seed = SEED + 1_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let writes: Vec<(u64, u8)> = (0..1 + rng.below(39))
            .map(|_| (rng.below(UNIVERSE), rng.below(256) as u8))
            .collect();
        let extra: Vec<(u64, u8)> = (0..rng.below(20))
            .map(|_| (rng.below(UNIVERSE), rng.below(256) as u8))
            .collect();

        let (mut sm, _clock) = manager();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(p, b) in &writes {
            if sm.write_page(p, &vec![b; PAGE]).is_ok() {
                model.insert(p, b);
            }
        }
        sm.sync().expect("sync");
        // Unsynced extra writes may revert.
        for &(p, b) in &extra {
            let _ = sm.write_page(p, &vec![b; PAGE]);
        }
        sm.crash();
        sm.recover().expect("recover");
        let mut buf = vec![0u8; PAGE];
        for (p, _b) in model {
            assert!(sm.contains(p), "seed {seed}: synced page {p} lost");
            sm.read_page(p, &mut buf).expect("read");
            // Either the synced value or a newer flushed one; since the
            // extra writes used the same universe, accept any uniform
            // non-hole value.
            assert!(
                buf.iter().all(|&x| x == buf[0]),
                "seed {seed}: page {p} not uniform"
            );
        }
    }
}

/// The small crash sweep's flash (`ssmc_storage::torture`'s tests): one
/// bank of eight 2 KiB blocks, so 6 segments of 4 slots behind the two
/// checkpoint blocks, GC trigger 2 and target 3, written through.
fn small_flash(max_utilization: f64) -> StorageManager {
    let cfg = StorageConfig {
        page_size: PAGE as u64,
        dram_buffer_bytes: 0,
        flash: FlashSpec {
            banks: 1,
            blocks_per_bank: 8,
            block_bytes: 2048,
            write_unit: 512,
            ..FlashSpec::default()
        },
        gc_trigger_segments: 2,
        gc_target_segments: 3,
        max_utilization,
        ..StorageConfig::default()
    };
    StorageManager::new(cfg, Clock::shared())
}

/// Writes pages `0..page_capacity()` and syncs; returns the capacity.
fn fill_to_capacity(sm: &mut StorageManager) -> u64 {
    let cap = sm.page_capacity();
    for p in 0..cap {
        sm.write_page(p, &[p as u8; PAGE]).expect("fill");
    }
    sm.sync().expect("sync the fill");
    assert!(!sm.has_capacity_for(1));
    cap
}

/// At the default utilisation limit a full flash keeps two segments'
/// worth of dead or unwritten slots, so GC can always make room for a
/// rewrite. A free's tombstone can still find no segment to go to,
/// because the write head may hold the last free one; that stall names
/// its cause rather than claiming the flash is full.
#[test]
fn full_flash_rewrites_succeed_and_stalled_frees_say_why() {
    let mut sm = small_flash(StorageConfig::default().max_utilization);
    let cap = fill_to_capacity(&mut sm);
    assert_eq!(cap, 20);
    for p in 0..cap {
        let rewrite = sm.write_page(p, &[0xB0; PAGE]).and_then(|()| sm.sync());
        rewrite.unwrap_or_else(|e| panic!("rewrite of page {p}: {e}"));
    }
    let mut stalls = 0;
    for p in 0..10 {
        match sm.free_page(p).and_then(|()| sm.sync()) {
            Ok(()) => {}
            Err(StorageError::CleanerStalled(Stall::NoRoomForSurvivors)) => stalls += 1,
            Err(e) => panic!("free of page {p}: {e}"),
        }
        assert!(sm.pages_live() <= sm.page_capacity());
    }
    assert!(stalls > 0, "no free stalled: the stall cause went untested");
}

/// With no utilisation limit a full flash is fully live: no segment has
/// a slot to reclaim, so a rewrite stalls the write head even though
/// live data is within capacity.
#[test]
fn fully_live_flash_stalls_with_nothing_to_reclaim() {
    let mut sm = small_flash(1.0);
    let cap = fill_to_capacity(&mut sm);
    assert_eq!(cap, 24);
    let err = (0..cap)
        .find_map(|p| sm.write_page(p, &[0xB0; PAGE]).err())
        .expect("a rewrite of a fully live flash stalls");
    assert_eq!(err, StorageError::CleanerStalled(Stall::NothingToReclaim));
    assert!(sm.pages_live() <= sm.page_capacity());
}

#[test]
fn wear_accounting_is_consistent() {
    for rounds in 1..12u64 {
        let (mut sm, clock) = manager();
        let data = vec![3u8; PAGE];
        for r in 0..rounds * 30 {
            sm.write_page(r % 20, &data).expect("write");
            if r % 10 == 0 {
                sm.sync().expect("sync");
                clock.advance(SimDuration::from_secs(1));
                sm.tick().expect("tick");
            }
        }
        let stats = sm.flash().wear_stats();
        assert_eq!(stats.total_erases, sm.flash().counters().erases);
        assert!(stats.max_erases >= stats.min_erases);
        assert!(stats.evenness() >= 0.0 && stats.evenness() <= 1.0);
    }
}
