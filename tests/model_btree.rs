//! Randomized-model test: the memfs B-tree directory index against
//! `std::collections::BTreeMap`.
//!
//! Random insert/remove/get sequences over a small, collision-prone name
//! pool must produce identical return values, identical final contents,
//! and identical in-order iteration — while the tree's structural
//! invariants (key ordering, node fill, uniform leaf depth) hold after
//! every mutation.
//!
//! Cases are generated from fixed seeds by `SimRng`, so every run (and
//! every machine) exercises the identical sequences; a failure message
//! names the seed so the case can be replayed in isolation.

use ssmc::memfs::btree::BTreeIndex;
use ssmc::sim::SimRng;
use std::collections::BTreeMap;

/// Base seed for the deterministic case generator.
const SEED: u64 = 0xB7EE_1000;

#[derive(Debug, Clone)]
enum Op {
    Insert(String, u64),
    Remove(String),
    Get(String),
}

/// Short names over a six-letter alphabet: repeats are common, so the
/// same sequence exercises replacement, re-insertion after removal, and
/// arena-span reuse across many lengths.
fn random_name(rng: &mut SimRng) -> String {
    let len = 1 + rng.below(8) as usize;
    (0..len)
        .map(|_| (b'a' + rng.below(6) as u8) as char)
        .collect()
}

/// Weights: Insert 5, Remove 3, Get 3 (total 11).
fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(11) {
        0..=4 => {
            let v = rng.below(1 << 32);
            Op::Insert(random_name(rng), v)
        }
        5..=7 => Op::Remove(random_name(rng)),
        _ => Op::Get(random_name(rng)),
    }
}

/// Drives one operation sequence against the model; panics (with `ctx`
/// naming the seed) on any divergence.
fn check_against_model(ops: &[Op], ctx: &str) {
    let mut real: BTreeIndex<u64> = BTreeIndex::new();
    let mut model: BTreeMap<String, u64> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Insert(name, v) => {
                assert_eq!(
                    real.insert(name, *v),
                    model.insert(name.clone(), *v),
                    "{ctx}: insert {name}"
                );
            }
            Op::Remove(name) => {
                assert_eq!(
                    real.remove(name),
                    model.remove(name),
                    "{ctx}: remove {name}"
                );
            }
            Op::Get(name) => {
                assert_eq!(
                    real.get(name),
                    model.get(name).copied(),
                    "{ctx}: get {name}"
                );
            }
        }
        real.check_invariants();
        assert_eq!(real.len(), model.len(), "{ctx}: length diverged");
    }

    // Final audit: in-order iteration yields exactly the model's pairs.
    let mut pairs: Vec<(String, u64)> = Vec::new();
    real.for_each(|k, v| pairs.push((k.to_owned(), v)));
    let expected: Vec<(String, u64)> = model.iter().map(|(k, &v)| (k.clone(), v)).collect();
    assert_eq!(pairs, expected, "{ctx}: iteration diverged");
}

#[test]
fn btree_matches_std_btreemap() {
    for case in 0..32u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let len = 1 + rng.below(299);
        let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
        check_against_model(&ops, &format!("seed {seed}"));
    }
}

/// Longer sequences push the tree to several levels, so removals cross
/// internal nodes (predecessor/successor promotion, child merges, root
/// collapse) rather than staying in the root leaf.
#[test]
fn btree_matches_std_btreemap_deep() {
    for case in 0..8u64 {
        let seed = SEED + 500 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..2_000).map(|_| random_op(&mut rng)).collect();
        check_against_model(&ops, &format!("seed {seed}"));
    }
}

/// Regression (distilled by hand from the randomized runs' failure
/// shapes): fill one leaf past the split point, then delete back through
/// the separator so the root collapses to a leaf again, then reuse the
/// freed names. Exercises split, merge, root collapse, and arena-span
/// reuse in one short deterministic sequence.
#[test]
fn btree_regression_split_then_collapse_and_reuse() {
    let mut ops: Vec<Op> = Vec::new();
    // 26 single-letter names: enough to split the root (max 15 per node).
    for c in b'a'..=b'z' {
        ops.push(Op::Insert((c as char).to_string(), c as u64));
    }
    // Delete every second name, including the promoted separator region.
    for c in (b'a'..=b'z').step_by(2) {
        ops.push(Op::Remove((c as char).to_string()));
    }
    // Re-insert into the freed spans with new values.
    for c in (b'a'..=b'z').step_by(2) {
        ops.push(Op::Insert((c as char).to_string(), 1_000 + c as u64));
    }
    // Then drain to empty, which must collapse the root cleanly.
    for c in b'a'..=b'z' {
        ops.push(Op::Remove((c as char).to_string()));
    }
    check_against_model(&ops, "regression");
}
