//! Seed-pinned cut-index regressions from the crash-torture sweep.
//!
//! The full sweep (`experiments crash-torture`, BSD trace, seed
//! `0x0C0F_FEE5`, 2 k trace ops) found 129 failing cuts in two windows,
//! both rooted in the same design flaw: a dirty rewrite eagerly killed
//! the page's stale-but-durable flash slot, so a segment whose pages
//! were all rewritten-but-unflushed looked fully dead and GC's
//! free-lunch path erased it. A power cut before the next flush then
//! either resurrected an older durable generation (cuts 7736–7762) or
//! lost synced pages outright (cuts 7961–7998). These tests pin one
//! representative cut per window through the real `run_cut` path; both
//! failed on the eager-kill code and passed with the shadow-slot shield
//! in `StorageManager`.
//!
//! The windows are gone from today's numbering. Since the cleaner keeps
//! only the tombstones recovery needs, the sweep issues 9,673 boundaries
//! instead of 9,884, and with the eager kill put back no cut of it (nor
//! of a 4k-op sweep) fails: GC no longer picks the rewritten segment
//! while its pages are dirty. No cut of this sweep can pin the shield any
//! more, so these two stay as plain cuts at their old indices. What pins
//! it now is the small crash sweep in `ssmc_storage::torture`'s tests
//! (the eager kill fails 121 of its 300 streams) and the shadow-slot unit
//! tests in `manager.rs`.

use ssmc::device::TearMode;
use ssmc::storage::torture;
use ssmc::trace::Workload;

const SEED: u64 = 0x0C0F_FEE5;

fn assert_cut_passes(cut: u64, tear: TearMode) {
    // The sweep `experiments crash-torture` runs at its defaults.
    let (cfg, ops) = ssmc_bench::torture_sweep(Workload::Bsd, 2_000, SEED);
    let r = torture::run_cut(&cfg, &ops, SEED, cut, tear);
    assert!(
        r.passed(),
        "{tear:?} cut {cut} regressed: {:?}",
        r.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    );
}

/// Window A: page 6601's newest durable generation lived in a segment
/// GC erased while the page sat dirty in the buffer; recovery then
/// crowned the superseded older generation — a resurrection.
#[test]
fn cut_7740_no_stale_generation_resurrected() {
    assert_cut_passes(7740, TearMode::Prefix);
    assert_cut_passes(7740, TearMode::Stripe);
}

/// Window B: pages 6692–6698 were synced, rewritten dirty, and their
/// only durable copies erased with their segment; the cut lost them
/// entirely.
#[test]
fn cut_7970_no_synced_data_lost() {
    assert_cut_passes(7970, TearMode::Prefix);
    assert_cut_passes(7970, TearMode::Stripe);
}
