//! Randomized-model tests of core data structures against trivial models:
//! the VM page table vs a `HashMap`, the flash device's erase/program
//! protocol, and the latency histogram's quantile invariants. Cases are
//! generated from fixed `SimRng` seeds so every run exercises identical
//! sequences.

use ssmc::device::{BlockId, DeviceError, Flash, FlashSpec};
use ssmc::sim::{Clock, Histogram, SimRng};
use ssmc::vm::{Backing, PageTable};
use std::collections::HashMap;

/// Base seed for the deterministic case generator.
const SEED: u64 = 0x9A6E_7AB1;

/// Even tags back a page with a DRAM frame, odd tags with a storage page.
fn backing(tag: u64) -> Backing {
    if tag.is_multiple_of(2) {
        Backing::Frame(tag)
    } else {
        Backing::Storage(tag)
    }
}

#[derive(Debug, Clone)]
enum TableOp {
    Map(u64, u64),
    Get(u64),
}

/// Map 3, Get 2 (total 5), with a mix of nearby and far-flung VPNs to
/// exercise all radix levels. There is no unmap: the VM keeps a program
/// mapped for the life of its address space.
fn random_table_op(rng: &mut SimRng) -> TableOp {
    let vpn = |rng: &mut SimRng| {
        if rng.chance(0.5) {
            rng.below(64)
        } else {
            rng.below(1 << 50) | 1 << 40
        }
    };
    match rng.below(5) {
        0..=2 => TableOp::Map(vpn(rng), rng.next_u64()),
        _ => TableOp::Get(vpn(rng)),
    }
}

#[test]
fn page_table_matches_hashmap() {
    for case in 0..64u64 {
        let seed = SEED + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops: Vec<TableOp> = (0..1 + rng.below(199))
            .map(|_| random_table_op(&mut rng))
            .collect();

        let mut table = PageTable::new(55);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                TableOp::Map(vpn, tag) => {
                    let old = table.map(vpn, backing(tag));
                    assert_eq!(
                        old,
                        model.insert(vpn, tag).map(backing),
                        "seed {seed}: map {vpn} returned wrong prior"
                    );
                }
                TableOp::Get(vpn) => {
                    assert_eq!(
                        table.get(vpn),
                        model.get(&vpn).copied().map(backing),
                        "seed {seed}: get {vpn}"
                    );
                }
            }
            assert_eq!(
                table.mapped_count() as usize,
                model.len(),
                "seed {seed}: mapped count"
            );
        }
    }
}

#[test]
fn flash_protocol_is_enforced() {
    for case in 0..64u64 {
        let seed = SEED + 1_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let ops: Vec<(u64, bool)> = (0..1 + rng.below(99))
            .map(|_| (rng.below(16), rng.chance(0.5)))
            .collect();

        // Model: per 512-byte slot, is it programmed? Flash: 2 blocks of
        // 4 KB = 16 slots.
        let spec = FlashSpec {
            banks: 1,
            blocks_per_bank: 2,
            block_bytes: 4096,
            write_unit: 512,
            ..FlashSpec::default()
        };
        let mut flash = Flash::new(spec, Clock::shared());
        let mut programmed = [false; 16];
        for (slot, do_program) in ops {
            if do_program {
                let addr = slot * 512;
                let result = flash.program(addr, &[slot as u8; 512]);
                if programmed[slot as usize] {
                    assert!(
                        matches!(result, Err(DeviceError::ProgramToUnerased { .. })),
                        "seed {seed}: double program must fail"
                    );
                } else {
                    assert!(result.is_ok(), "seed {seed}: program of erased slot failed");
                    programmed[slot as usize] = true;
                }
            } else {
                // Erase the block containing the slot.
                let block = (slot / 8) as u32;
                flash.erase(BlockId(block)).expect("erase within endurance");
                for slot_state in programmed.iter_mut().skip(block as usize * 8).take(8) {
                    *slot_state = false;
                }
            }
            // Device agrees with the model on erased state, and data of
            // programmed slots reads back.
            for s in 0..16u64 {
                assert_eq!(
                    flash.is_erased(s * 512, 512),
                    !programmed[s as usize],
                    "seed {seed}: slot {s} erased-state mismatch"
                );
                if programmed[s as usize] {
                    let mut buf = [0u8; 512];
                    flash.read(s * 512, &mut buf).expect("read");
                    assert!(
                        buf.iter().all(|&b| b == s as u8),
                        "seed {seed}: slot {s} data diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn histogram_quantiles_are_ordered_and_bounded() {
    for case in 0..64u64 {
        let seed = SEED + 4_000 + case;
        let mut rng = SimRng::seed_from_u64(seed);
        let xs: Vec<u64> = (0..1 + rng.below(299))
            .map(|_| rng.below(1_000_000))
            .collect();

        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(
            q25 <= q50 && q50 <= q99,
            "seed {seed}: quantiles out of order"
        );
        let max = *xs.iter().max().expect("non-empty");
        // Log-bucketed estimate never exceeds twice the true maximum.
        assert!(q99 <= max.max(1) * 2, "seed {seed}: q99 {q99} vs max {max}");
        assert_eq!(h.count(), xs.len() as u64, "seed {seed}: count");
    }
}
