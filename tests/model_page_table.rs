//! Randomized-model tests against trivial models: the flash device's
//! erase/program protocol and the latency histogram's quantile bounds.
//! (The file is named for the VM page table it once also tested.) Cases
//! are generated from fixed `SimRng` seeds so every run exercises
//! identical sequences.

use ssmc::device::{BlockId, DeviceError, Flash, FlashSpec};
use ssmc::sim::{Clock, Histogram, SimRng};

/// Base seed for the deterministic case generator.
const SEED: u64 = 0x9A6E_7AB1;

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
