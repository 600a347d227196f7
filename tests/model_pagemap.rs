//! Randomized-model test: the dense [`PageMap`] against a hash-map model.
//!
//! The page map moved from a `HashMap` to a windowed dense table with a
//! sorted overflow map; this test drives random operation sequences over
//! structured page ids (file windows, slots past the dense bound, swap
//! range) and checks that the dense map stays exactly equivalent to the
//! obvious reference implementation:
//!
//! * `get` after every operation returns what the model holds;
//! * `len` / `flash_pages` match the model (the O(1) flash counter against
//!   a model scan);
//! * iteration visits exactly the model's entries, each id once;
//! * iteration order depends only on the final contents, never on the
//!   insertion order that produced them.
//!
//! Cases come from fixed `SimRng` seeds, so every run exercises identical
//! sequences; failures name the case so it can be replayed in isolation.

use ssmc::sim::SimRng;
use ssmc::storage::{Location, PageId, PageMap};
use std::collections::HashMap;

/// Base seed for the deterministic case generator.
const SEED: u64 = 0x90A7_113D;
const CASES: u64 = 48;
/// Small dense bound so slots routinely spill into the overflow map.
const DENSE_BOUND: u64 = 32;

#[derive(Debug, Clone, Copy)]
enum Op {
    Set(PageId, Location),
    Remove(PageId),
    Clear,
}

/// Structured ids like the real stack produces: `(ino << 32) | index`
/// file pages (some past the dense bound), plus occasional swap slots in
/// the far window.
fn random_page(rng: &mut SimRng) -> PageId {
    if rng.below(10) == 0 {
        0xFFFF_FFFF_0000_0000 + rng.below(16)
    } else {
        (rng.below(6) << 32) | rng.below(2 * DENSE_BOUND)
    }
}

fn random_loc(rng: &mut SimRng) -> Location {
    if rng.below(2) == 0 {
        Location::Dram(rng.below(64) as usize)
    } else {
        Location::Flash(rng.below(1 << 14) * 512)
    }
}

/// Weights: Set 8, Remove 3, Clear 1.
fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(12) {
        0..=7 => Op::Set(random_page(rng), random_loc(rng)),
        8..=10 => Op::Remove(random_page(rng)),
        _ => Op::Clear,
    }
}

fn model_flash_pages(model: &HashMap<PageId, Location>) -> usize {
    model
        .values()
        .filter(|l| matches!(l, Location::Flash(_)))
        .count()
}

#[test]
fn page_map_matches_hash_map_model() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(SEED + case);
        let mut map = PageMap::with_dense_pages(DENSE_BOUND);
        let mut model: HashMap<PageId, Location> = HashMap::new();
        let len = 50 + rng.below(150);
        for step in 0..len {
            match random_op(&mut rng) {
                Op::Set(page, loc) => {
                    map.set(page, loc);
                    model.insert(page, loc);
                    assert_eq!(map.get(page), Some(loc), "case {case} step {step}");
                }
                Op::Remove(page) => {
                    let got = map.remove(page);
                    let want = model.remove(&page);
                    assert_eq!(got, want, "case {case} step {step} remove {page:#x}");
                }
                Op::Clear => {
                    map.clear();
                    model.clear();
                }
            }
            assert_eq!(map.len(), model.len(), "case {case} step {step}");
            assert_eq!(
                map.flash_pages(),
                model_flash_pages(&model),
                "case {case} step {step}: flash counter diverged"
            );
        }
        // Final deep comparison: iteration covers exactly the model.
        let mut got: Vec<(PageId, Location)> = map.iter().collect();
        got.sort_by_key(|&(p, _)| p);
        let mut want: Vec<(PageId, Location)> = model.iter().map(|(&p, &l)| (p, l)).collect();
        want.sort_by_key(|&(p, _)| p);
        assert_eq!(got, want, "case {case}: final contents diverged");
        // Probe ids the sequence may never have touched.
        for _ in 0..32 {
            let p = random_page(&mut rng);
            assert_eq!(
                map.get(p),
                model.get(&p).copied(),
                "case {case} probe {p:#x}"
            );
        }
    }
}

#[test]
fn iteration_order_ignores_insertion_order() {
    for case in 0..8 {
        let mut rng = SimRng::seed_from_u64(SEED ^ (0xA5A5 + case));
        let mut entries: Vec<(PageId, Location)> = Vec::new();
        let mut seen = HashMap::new();
        while entries.len() < 40 {
            let p = random_page(&mut rng);
            if seen.insert(p, ()).is_none() {
                entries.push((p, random_loc(&mut rng)));
            }
        }
        let mut forward = PageMap::with_dense_pages(DENSE_BOUND);
        for &(p, l) in &entries {
            forward.set(p, l);
        }
        let mut backward = PageMap::with_dense_pages(DENSE_BOUND);
        for &(p, l) in entries.iter().rev() {
            backward.set(p, l);
        }
        let f: Vec<(PageId, Location)> = forward.iter().collect();
        let b: Vec<(PageId, Location)> = backward.iter().collect();
        assert_eq!(f, b, "case {case}: iteration order depends on history");
        assert_eq!(f.len(), entries.len());
    }
}
