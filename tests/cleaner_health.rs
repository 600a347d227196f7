//! Cleaner health over a long run.
//!
//! The BSD stream at the generator's default seed (21932), with at most
//! 4 MB live, replays on the benchmark's `bsd-long` machine: 8 MB DRAM
//! with a 1 MB write buffer and 24 MB of flash (382 segments of 128
//! slots). After every window of ops the storage manager's bookkeeping
//! must balance ([`StorageManager::check_invariants`]: among others, every
//! open segment is a write head), no op may have failed, no block may
//! have worn out, and tombstone (summary) pages must stay a small share of
//! the user pages the window flushed. A cleaner that orphans heads or
//! re-logs tombstones it no longer needs fails here long before it runs
//! out of space.
//!
//! [`StorageManager::check_invariants`]: ssmc::storage::StorageManager::check_invariants

use ssmc::core::{MachineConfig, MobileComputer};
use ssmc::sim::Energy;
use ssmc::trace::{replay, GeneratorConfig, Workload};

/// Summary pages a window may write, as a share of its user pages.
const MAX_SUMMARY_SHARE: f64 = 0.05;

fn replay_checked(ops: usize, window: usize) {
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(ops)
        .with_max_live_bytes(4 << 20)
        .generate();
    let mut cfg = MachineConfig::with_sizes("bsd-long", 8 << 20, 24 << 20);
    cfg.write_buffer_bytes = Some(1 << 20);
    // A pack large enough that the battery outlives the run.
    cfg.battery.primary_capacity = Energy::from_joules(3_600_000.0);
    let mut m = MobileComputer::new(cfg);
    let clock = m.clock().clone();
    let (mut user0, mut summary0) = (0, 0);
    for (i, records) in trace.records.chunks(window).enumerate() {
        let end = i * window + records.len();
        let report = replay(records.iter().cloned(), &mut m, &clock);
        assert_eq!(report.errors, 0, "ops to {end}: failed ops");
        let sm = m.fs().storage();
        if let Err(e) = sm.check_invariants() {
            panic!("ops to {end}: {e}");
        }
        assert_eq!(sm.flash().wear_stats().bad_blocks, 0, "ops to {end}");
        let metrics = sm.metrics();
        let user = metrics.user_flash_pages - user0;
        let summary = metrics.summary_flash_pages - summary0;
        println!(
            "ops to {end}: {summary} summary pages for {user} user pages ({:.2}%), {} GC page copies so far",
            100.0 * summary as f64 / user.max(1) as f64,
            metrics.gc_flash_pages
        );
        assert!(
            summary as f64 <= MAX_SUMMARY_SHARE * user as f64,
            "ops to {end}: {summary} summary pages for {user} user pages"
        );
        (user0, summary0) = (metrics.user_flash_pages, metrics.summary_flash_pages);
    }
}

/// Long enough to pass where the cleaner used to fail: an orphaned write
/// head by op 20k, and a storm of re-logged tombstones by op 30k.
#[test]
fn cleaner_stays_healthy_over_60k_bsd_ops() {
    replay_checked(60_000, 10_000);
}

/// The million-op run. Release-only by design: `scripts/ci.sh` runs it.
#[test]
#[ignore]
fn cleaner_stays_healthy_over_a_million_bsd_ops() {
    replay_checked(1_000_000, 100_000);
}
