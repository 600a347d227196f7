//! Equivalence pin: the storage stack's flash image after a fixed replay.
//!
//! The dense hot-path rework (dense page map, slab write-buffer frames,
//! pooled page buffers) is required to be *behaviour-preserving*: it may
//! change how fast the simulator runs, never what it writes. This test
//! pins that down end to end: replay the canonical 25 k-operation BSD
//! trace through a full machine, sync, and hash the raw flash array. The
//! expected hash was recorded on the pre-rework (hash-map + per-op
//! allocation) implementation; any divergence in flush order, GC copy
//! choice, checkpoint layout, or buffer reuse shows up as a different
//! image. It also bounds the host memory that image takes.
//!
//! If this test fails after an *intentional* behaviour change, re-record
//! the constants by running with `--nocapture` and copying the printed
//! values — but that also invalidates `results/*.json`, so regenerate
//! those in the same change.

use ssmc::core::{run_trace, MachineConfig, MobileComputer};
use ssmc::device::{BlockId, Flash};
use ssmc::trace::{GeneratorConfig, Workload};

/// FNV-1a hash of the whole flash address space after the replay + sync.
/// Re-recorded when memfs stopped reading the parent directory's inode a
/// second time in create, mkdir, unlink, rmdir and rename: each of those
/// reads was charged simulated time, so dropping them moved the times
/// written to flash (inode mtimes among them). The page count is a
/// user-write tally and did not move.
const GOLDEN_FLASH_FNV: u64 = 0xc43a_f034_c310_48a7;
/// Total pages programmed during the same run, recorded alongside the
/// hash as a cheaper first-line diagnostic.
const GOLDEN_PAGES_WRITTEN: u64 = 121_954;
/// Most host bytes the flash may hold for its cells after the same run.
/// It measured 3,643,392 B, the capacity of its blocks' stores; a 64 KiB
/// buffer per programmed block would be 24,772,608 B (378 of 384
/// blocks), since most programs here are same-filled payload or zero
/// pages, which hold no bytes.
const MAX_FLASH_HELD_BYTES: u64 = 4 << 20;

/// FNV-1a over the device's bytes in address order, one erase block at a
/// time.
fn fnv1a(flash: &Flash) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for block in 0..flash.spec().total_blocks() {
        let (start, len) = flash.block_range(BlockId(block));
        for &b in flash.peek(start, len).iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn bsd_replay_produces_the_recorded_flash_image() {
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(25_000)
        .with_max_live_bytes(4 << 20)
        .generate();
    let mut cfg = MachineConfig::with_sizes("equiv", 8 << 20, 24 << 20);
    cfg.write_buffer_bytes = Some(1 << 20);
    let mut m = MobileComputer::new(cfg);
    run_trace(&mut m, &trace);
    m.fs().sync().expect("final sync");

    let pages_written = m.fs().storage().metrics().pages_written;
    let hash = fnv1a(m.fs().storage().flash());
    let held = m.fs().storage().flash().held_bytes();
    println!("flash fnv1a = {hash:#018x}, pages written = {pages_written}, flash holds {held} B");
    assert_eq!(
        pages_written, GOLDEN_PAGES_WRITTEN,
        "flash program count diverged from the recorded baseline"
    );
    assert_eq!(
        hash, GOLDEN_FLASH_FNV,
        "flash image diverged from the recorded baseline"
    );
    assert!(
        held <= MAX_FLASH_HELD_BYTES,
        "flash holds {held} B for its cells, over {MAX_FLASH_HELD_BYTES}"
    );
    // A trace replay never touches the VM, so its DRAM holds nothing.
    assert_eq!(m.vm().dram().held_bytes(), 0);
}
