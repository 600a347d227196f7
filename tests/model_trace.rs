//! Randomized-model tests of the workload generators and the segment
//! table's crash-recovery scan, driven by fixed `SimRng` seeds so every
//! run exercises identical cases.

use ssmc::sim::{SimRng, SimTime};
use ssmc::storage::segment::{SegState, SegmentTable, Slot, SlotMeta};
use ssmc::trace::{FileOp, GeneratorConfig, LifetimeModel, Workload};
use std::collections::{HashMap, HashSet};

/// Base seed for the deterministic case generator.
const SEED: u64 = 0x7124_CE00;

const WORKLOADS: [Workload; 5] = [
    Workload::Bsd,
    Workload::Office,
    Workload::SoftwareDev,
    Workload::Database,
    Workload::MailSpool,
];

/// For any workload, seed, and lifetime skew: traces are time-ordered,
/// reference only live files, never exceed the live-byte cap by more
/// than one append, and are reproducible from the seed.
#[test]
fn generated_traces_are_well_formed() {
    for case in 0..24u64 {
        let case_seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(case_seed);
        let workload = WORKLOADS[rng.below(WORKLOADS.len() as u64) as usize];
        let gen_seed = rng.next_u64();
        let short_fraction = rng.f64();
        let ops = 200 + rng.below(1_800) as usize;
        let ctx = format!("seed {case_seed} ({workload:?}, {ops} ops)");

        let cfg = GeneratorConfig::new(workload)
            .with_ops(ops)
            .with_seed(gen_seed)
            .with_max_live_bytes(2 << 20)
            .with_lifetime(LifetimeModel::default().with_short_fraction(short_fraction));
        let trace = cfg.generate();
        assert_eq!(trace.len(), ops, "{ctx}: length");

        // Time-ordered.
        assert!(
            trace.records.windows(2).all(|w| w[0].at <= w[1].at),
            "{ctx}: records out of time order"
        );

        // Ops reference only live files; sizes never go negative.
        let mut live: HashMap<u64, u64> = HashMap::new();
        for r in &trace.records {
            match &r.op {
                FileOp::Create { file } => {
                    assert!(live.insert(*file, 0).is_none(), "{ctx}: double create");
                }
                FileOp::Delete { file } => {
                    assert!(live.remove(file).is_some(), "{ctx}: delete of dead file");
                }
                FileOp::Write { file, offset, len } => {
                    let size = live.get_mut(file).expect("write to dead file");
                    *size = (*size).max(offset + len);
                }
                FileOp::Read { file, offset, len } => {
                    let size = live.get(file).expect("read of dead file");
                    // Reads target within (or at most at) the written size.
                    assert!(offset + len <= size + 1, "{ctx}: read beyond file");
                }
                FileOp::Truncate { file, len } => {
                    let size = live.get_mut(file).expect("truncate of dead file");
                    *size = (*size).min(*len);
                }
                FileOp::Stat { file } => {
                    assert!(live.contains_key(file), "{ctx}: stat of dead file");
                }
                FileOp::Rename { file, to } => {
                    let size = live.remove(file).expect("rename of dead file");
                    assert!(
                        live.insert(*to, size).is_none(),
                        "{ctx}: rename onto live id"
                    );
                }
                FileOp::Sync => {}
            }
        }

        // Reproducible.
        let again = cfg.generate();
        assert_eq!(again.records, trace.records, "{ctx}: not reproducible");
    }
}

/// The segment table's recovery scan must pick, for every page, the
/// record with the highest sequence — data slot wins means the page
/// lives at that address; tombstone wins means it stays dead.
#[test]
fn segment_recovery_picks_highest_sequence() {
    for case in 0..24u64 {
        let case_seed = SEED + 1_000 + case;
        let mut rng = SimRng::seed_from_u64(case_seed);
        // (page, is_tombstone) events in sequence order.
        let events: Vec<(u64, bool)> = (0..1 + rng.below(59))
            .map(|_| (rng.below(12), rng.chance(0.5)))
            .collect();
        let ctx = format!("seed {case_seed}");

        let mut table = SegmentTable::new(8, 8, 0, 4096, 512);
        let mut open: Option<usize> = None;
        let mut next_free = 0usize;
        // Model: latest (seq, is_tombstone) per page.
        let mut latest: HashMap<u64, (u64, bool)> = HashMap::new();
        let mut seq = 0u64;

        for (page, is_tomb) in events {
            seq += 1;
            // Ensure an open segment with room.
            let seg = match open {
                Some(s) if !table.seg(s).is_full() => s,
                maybe => {
                    if let Some(s) = maybe {
                        table.close(s);
                    }
                    if next_free >= table.len() {
                        break; // out of space for this case
                    }
                    let s = next_free;
                    next_free += 1;
                    table.open(s);
                    open = Some(s);
                    s
                }
            };
            if is_tomb {
                table.append_tomb(seg, vec![(page, seq)], SimTime::ZERO, |_| false);
            } else {
                // A newer data copy makes the old one dead; the recovery
                // scan must reconstruct this without our help, so just
                // append (leaving stale Live slots is exactly the
                // post-crash state).
                table.append(seg, SlotMeta { page, seq, crc: 0 }, SimTime::ZERO);
            }
            latest.insert(page, (seq, is_tomb));
        }

        let (live, max_seq) = table.recover_liveness();
        assert_eq!(max_seq, seq, "{ctx}: max sequence");
        let expected_live: HashSet<u64> = latest
            .iter()
            .filter(|(_, (_, tomb))| !tomb)
            .map(|(p, _)| *p)
            .collect();
        let got_live: HashSet<u64> = live.keys().copied().collect();
        assert_eq!(got_live, expected_live, "{ctx}: live set");

        // Liveness counters agree with the winner set, and each winner's
        // address holds a Live slot with the winning sequence.
        let live_slots = (0..table.len())
            .flat_map(|s| table.seg(s).slots.iter())
            .filter(|slot| matches!(slot, Slot::Live(_)))
            .count();
        assert_eq!(live_slots, expected_live.len(), "{ctx}: live count");
        table
            .check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        for (page, addr) in live {
            let (seg, slot) = table.locate(addr);
            match &table.seg(seg).slots[slot] {
                Slot::Live(m) => {
                    assert_eq!(m.page, page, "{ctx}: winner page");
                    assert_eq!(m.seq, latest[&page].0, "{ctx}: winner sequence");
                }
                other => panic!("{ctx}: winner slot is {other:?}, not Live"),
            }
        }
        // No free/retired segment contributes liveness.
        for s in 0..table.len() {
            if matches!(table.seg(s).state, SegState::Free) {
                assert_eq!(table.seg(s).live, 0, "{ctx}: free segment has liveness");
            }
        }
    }
}
