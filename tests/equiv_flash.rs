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
//! image.
//!
//! If this test fails after an *intentional* behaviour change, re-record
//! the constants by running with `--nocapture` and copying the printed
//! values — but that also invalidates `results/*.json`, so regenerate
//! those in the same change.

use ssmc::core::{run_trace, MachineConfig, MobileComputer};
use ssmc::trace::{GeneratorConfig, Workload};

/// FNV-1a hash of the whole flash address space after the replay + sync.
/// Re-recorded for the shadow-slot crash-consistency fix: stale durable
/// copies of dirty pages now stay Live until their replacement is
/// flushed, which changes GC victim choice and segment layout (but not
/// the page count — that is a user-write tally).
const GOLDEN_FLASH_FNV: u64 = 0x7b0c_1ed6_147f_a880;
/// Total pages programmed during the same run, recorded alongside the
/// hash as a cheaper first-line diagnostic.
const GOLDEN_PAGES_WRITTEN: u64 = 121_954;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
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
    let hash = fnv1a(m.fs().storage().flash().contents());
    println!("flash fnv1a = {hash:#018x}, pages written = {pages_written}");
    assert_eq!(
        pages_written, GOLDEN_PAGES_WRITTEN,
        "flash program count diverged from the recorded baseline"
    );
    assert_eq!(
        hash, GOLDEN_FLASH_FNV,
        "flash image diverged from the recorded baseline"
    );
}
