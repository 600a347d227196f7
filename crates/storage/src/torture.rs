//! Crash-consistency torture harness: deterministic power-cut injection
//! at every flash program/erase boundary, with differential durability
//! checking against a model oracle.
//!
//! §3.1 of the paper rests on the claim that battery-backed DRAM plus
//! flash can survive "an untimely crash" without corrupting data. This
//! module makes the claim falsifiable: a *pre-pass* replays an op
//! stream and counts every flash program/erase boundary; the sweep then
//! re-runs the stream once per boundary `K`, cutting power exactly at
//! boundary `K` (optionally tearing the in-flight operation), crashes,
//! recovers, and differentially checks the recovered state against a
//! [`DurabilityModel`]:
//!
//! * data the model saw synced **must** be present at a version no older
//!   than the synced floor (`must` set);
//! * data written but never synced **may** be present at any attempted
//!   version, or cleanly absent (`may` set);
//! * data durably freed **must not** reappear, and no page may ever hold
//!   bytes matching *no* attempted version — an undetected old/new mix
//!   (`must-not` set).
//!
//! Every run is a pure function of `(ops, seed, cut_at, tear)`: page
//! contents come from a counter-keyed PRNG fill, the simulated clock is
//! the only time source, and the sweep is shardable by cut index with
//! bit-identical results at any thread count.

use crate::config::StorageConfig;
use crate::manager::StorageManager;
use crate::map::PageId;
use crate::recovery::RecoveryReport;
use crate::StorageError;
use ssmc_device::TearMode;
use ssmc_sim::obs::MetricsRegistry;
use ssmc_sim::{Clock, SimDuration, SimRng};
use std::collections::BTreeMap;

/// One step of a torture op stream. The stream is the storage-level
/// projection of a file trace (see `ssmc_bench::torture_sweep`) or a
/// synthetic generator; either way it is fixed before the sweep starts
/// so every cut replays the identical prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TortureOp {
    /// Write one page. Content is derived from `(seed, page, version)`
    /// where the version is the per-page attempt counter — the model and
    /// the replay derive it identically.
    Write {
        /// Logical page to write.
        page: PageId,
    },
    /// Free (delete) one page.
    Free {
        /// Logical page to free.
        page: PageId,
    },
    /// Make everything written so far durable.
    Sync,
    /// Advance the clock one tick step and run periodic maintenance
    /// (age flushes, GC, wear leveling, checkpoints).
    Tick,
}

/// Clock advance per [`TortureOp::Tick`].
pub const TICK_STEP: SimDuration = SimDuration::from_millis(250);

/// A durability violation found after recovering from a cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A page the model saw synced is gone.
    LostDurable {
        /// The missing page.
        page: PageId,
        /// The version the last successful sync made durable.
        floor_ver: u64,
    },
    /// A durably-freed (or durably-overwritten) version reappeared.
    Resurrected {
        /// The resurrected page.
        page: PageId,
        /// The stale version whose bytes came back.
        ver: u64,
    },
    /// A page's bytes match no version ever attempted — a torn write
    /// that recovery failed to detect (the old/new mix §3.1 forbids).
    TornContent {
        /// The corrupt page.
        page: PageId,
    },
    /// Recovery itself returned an error.
    RecoveryFailed,
    /// The recovered manager's bookkeeping broke an invariant
    /// ([`StorageManager::check_invariants`]'s message).
    Invariant(String),
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::LostDurable { page, floor_ver } => {
                write!(f, "page {page}: synced v{floor_ver} lost")
            }
            Violation::Resurrected { page, ver } => {
                write!(f, "page {page}: durably-dead v{ver} resurrected")
            }
            Violation::TornContent { page } => {
                write!(f, "page {page}: content matches no attempted version")
            }
            Violation::RecoveryFailed => write!(f, "recovery returned an error"),
            Violation::Invariant(msg) => write!(f, "invariant broken after recovery: {msg}"),
        }
    }
}

/// Per-page durability bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct PageState {
    /// Version live in the manager right now (None = freed/never written).
    current: Option<u64>,
    /// Durable floor as of the last successful sync: `Some(v)` means the
    /// page must survive a crash at version ≥ `v`; `None` means it is
    /// durably absent (or was never synced).
    floor: Option<u64>,
    /// Highest version number handed out (attempted), synced or not.
    max_ver: u64,
    /// Versions `≤ min_allowed` must never be observed after recovery:
    /// they are older than the durable floor, or were durably freed.
    min_allowed: u64,
    /// A free was attempted since the last successful sync, so clean
    /// absence is acceptable even when `floor` is `Some`.
    freed_since_sync: bool,
}

/// Differential oracle for the torture sweep. Tracks, per page, what a
/// crash at any instant is allowed to leave behind. Ops are registered
/// as *attempts* before the manager call and *committed* only when the
/// call returns `Ok` — an `Err` (the power cut) leaves only the "may"
/// effects in place.
#[derive(Debug, Clone)]
pub struct DurabilityModel {
    seed: u64,
    pages: BTreeMap<PageId, PageState>,
}

impl DurabilityModel {
    /// New model; `seed` keys the content fill.
    pub fn new(seed: u64) -> Self {
        DurabilityModel {
            seed,
            pages: BTreeMap::new(),
        }
    }

    /// Registers a write attempt and returns its version number. Call
    /// before `write_page`; the version may land on flash even if the
    /// call errors.
    pub fn write_attempt(&mut self, page: PageId) -> u64 {
        let s = self.pages.entry(page).or_default();
        s.max_ver += 1;
        s.max_ver
    }

    /// Commits a successful write.
    pub fn write_committed(&mut self, page: PageId) {
        let s = self.pages.entry(page).or_default();
        s.current = Some(s.max_ver);
    }

    /// Registers a free attempt: its tombstone may be durable even if the
    /// call errors, so clean absence becomes acceptable.
    pub fn free_attempt(&mut self, page: PageId) {
        self.pages.entry(page).or_default().freed_since_sync = true;
    }

    /// Commits a successful free.
    pub fn free_committed(&mut self, page: PageId) {
        self.pages.entry(page).or_default().current = None;
    }

    /// Commits a successful sync: every page's durable floor advances to
    /// its current state, and older versions become forbidden.
    pub fn sync_committed(&mut self) {
        for s in self.pages.values_mut() {
            s.floor = s.current;
            s.min_allowed = match s.current {
                Some(v) => v - 1,
                None => s.max_ver,
            };
            s.freed_since_sync = false;
        }
    }

    /// Deterministic content for `(page, version)` under this model's
    /// seed.
    pub fn fill(&self, page: PageId, ver: u64, buf: &mut [u8]) {
        fill_page(self.seed, page, ver, buf);
    }

    /// Differentially checks a recovered manager against the model,
    /// appending every violation found.
    pub fn verify(&self, m: &mut StorageManager, out: &mut Vec<Violation>) {
        let ps = m.config().page_size as usize;
        let mut got = vec![0u8; ps];
        let mut want = vec![0u8; ps];
        for (&page, s) in &self.pages {
            let must_present = s.floor.is_some() && !s.freed_since_sync;
            if !m.contains(page) {
                if must_present {
                    out.push(Violation::LostDurable {
                        page,
                        floor_ver: s.floor.unwrap_or(0),
                    });
                }
                continue;
            }
            if m.read_page(page, &mut got).is_err() {
                out.push(Violation::RecoveryFailed);
                continue;
            }
            // Any attempted version newer than the forbidden floor is an
            // acceptable surviving state (newest first: the common case).
            let allowed = ((s.min_allowed + 1)..=s.max_ver).rev();
            if self.matches_any(page, allowed, &got, &mut want) {
                continue;
            }
            // Present but matching nothing allowed: distinguish a
            // resurrection of a forbidden version from an undetected
            // torn write.
            let forbidden = (1..=s.min_allowed).rev();
            match self.first_match(page, forbidden, &got, &mut want) {
                Some(ver) => out.push(Violation::Resurrected { page, ver }),
                None => out.push(Violation::TornContent { page }),
            }
        }
    }

    fn matches_any(
        &self,
        page: PageId,
        vers: impl Iterator<Item = u64>,
        got: &[u8],
        scratch: &mut [u8],
    ) -> bool {
        self.first_match(page, vers, got, scratch).is_some()
    }

    fn first_match(
        &self,
        page: PageId,
        vers: impl Iterator<Item = u64>,
        got: &[u8],
        scratch: &mut [u8],
    ) -> Option<u64> {
        for v in vers {
            self.fill(page, v, scratch);
            if got == scratch {
                return Some(v);
            }
        }
        None
    }
}

/// Deterministic page content for `(seed, page, version)`. Page ids and
/// versions occupy disjoint bit ranges of the PRNG seed so distinct
/// pairs never collide.
pub fn fill_page(seed: u64, page: PageId, ver: u64, buf: &mut [u8]) {
    let mut rng = SimRng::seed_from_u64(seed ^ page.rotate_left(17) ^ ver.rotate_left(41));
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        for (dst, src) in rest.iter_mut().zip(rng.next_u64().to_le_bytes()) {
            *dst = src;
        }
    }
}

/// Outcome of one cut-at-`K` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutReport {
    /// The armed boundary (1-based flash program/erase count).
    pub cut_at: u64,
    /// Whether the cut actually fired during the replay.
    pub fired: bool,
    /// Durability violations found after recovery (empty = pass).
    pub violations: Vec<Violation>,
    /// The recovery report, when recovery itself succeeded.
    pub recovery: Option<RecoveryReport>,
}

impl CutReport {
    /// Whether this cut survived with no violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate of a full sweep, for metrics publication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TortureSummary {
    /// Cut points exercised.
    pub cuts_total: u64,
    /// Cut points with at least one violation.
    pub failures: u64,
}

impl TortureSummary {
    /// Folds a cut report into the aggregate.
    pub fn absorb(&mut self, r: &CutReport) {
        self.cuts_total += 1;
        if !r.passed() {
            self.failures += 1;
        }
    }

    /// Publishes `torture.cuts_total` / `torture.failures`.
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        reg.counter("torture.cuts_total", self.cuts_total);
        reg.counter("torture.failures", self.failures);
    }
}

/// The replay set-up both passes share: a fresh manager and durability
/// model, a power cut armed at `cut` if one is given, `ops` replayed with
/// the model in lockstep until they end or the cut fires (the machine is
/// off), then a crash and a recovery. Returns the rebooted manager, the
/// model, whether the cut fired, and recovery's outcome.
fn replay_and_recover(
    cfg: &StorageConfig,
    ops: &[TortureOp],
    seed: u64,
    cut: Option<(u64, TearMode)>,
) -> (
    StorageManager,
    DurabilityModel,
    bool,
    Result<RecoveryReport, StorageError>,
) {
    let clock = Clock::shared();
    let mut m = StorageManager::new(cfg.clone(), clock.clone());
    let mut model = DurabilityModel::new(seed);
    if let Some((cut_at, tear)) = cut {
        m.arm_power_cut(cut_at, tear);
    }
    let mut buf = vec![0u8; m.config().page_size as usize];
    for op in ops {
        match *op {
            TortureOp::Write { page } => {
                let v = model.write_attempt(page);
                model.fill(page, v, &mut buf);
                if m.write_page(page, &buf).is_ok() {
                    model.write_committed(page);
                }
            }
            TortureOp::Free { page } => {
                model.free_attempt(page);
                if m.free_page(page).is_ok() {
                    model.free_committed(page);
                }
            }
            TortureOp::Sync => {
                if m.sync().is_ok() {
                    model.sync_committed();
                }
            }
            TortureOp::Tick => {
                clock.advance(TICK_STEP);
                let _ = m.tick();
            }
        }
        if m.power_cut_fired() {
            break;
        }
    }
    let fired = m.power_cut_fired();
    m.crash();
    let recovery = m.recover();
    (m, model, fired, recovery)
}

/// Pre-pass: replays `ops` with no cut armed and returns the number of
/// flash program/erase boundaries the stream issues. The sweep then
/// enumerates cuts `1..=boundaries`.
///
/// # Errors
///
/// Propagates a failed clean replay — the stream must run green before
/// cuts mean anything. A clean replay must also survive a clean (untorn)
/// crash and recovery; that error surfaces here rather than per cut.
pub fn count_boundaries(
    cfg: &StorageConfig,
    ops: &[TortureOp],
    seed: u64,
) -> Result<u64, StorageError> {
    let (m, _, fired, recovery) = replay_and_recover(cfg, ops, seed, None);
    debug_assert!(!fired, "no cut armed, none can fire");
    recovery?;
    Ok(m.boundary_ops())
}

/// One torture run: arm a power cut at boundary `cut_at` with the given
/// tear mode, replay until it fires, crash, recover, check the manager's
/// invariants, and differentially verify. Pure function of its
/// arguments — shard freely.
pub fn run_cut(
    cfg: &StorageConfig,
    ops: &[TortureOp],
    seed: u64,
    cut_at: u64,
    tear: TearMode,
) -> CutReport {
    let (mut m, model, fired, recovery) = replay_and_recover(cfg, ops, seed, Some((cut_at, tear)));
    let mut violations = Vec::new();
    let recovery = match recovery {
        Ok(r) => {
            if let Err(msg) = m.check_invariants() {
                violations.push(Violation::Invariant(msg));
            }
            model.verify(&mut m, &mut violations);
            Some(r)
        }
        Err(_) => {
            violations.push(Violation::RecoveryFailed);
            None
        }
    };
    CutReport {
        cut_at,
        fired,
        violations,
        recovery,
    }
}

/// Sweeps every boundary of `ops` serially with one tear mode. The bench
/// harness shards the same cut indices across threads; this entry point
/// is for tests and the CI smoke.
///
/// # Errors
///
/// Propagates a failure of the clean pre-pass.
pub fn sweep(
    cfg: &StorageConfig,
    ops: &[TortureOp],
    seed: u64,
    tear: TearMode,
) -> Result<(TortureSummary, Vec<CutReport>), StorageError> {
    let boundaries = count_boundaries(cfg, ops, seed)?;
    let mut summary = TortureSummary::default();
    let mut reports = Vec::with_capacity(boundaries as usize);
    for cut_at in 1..=boundaries {
        let r = run_cut(cfg, ops, seed, cut_at, tear);
        summary.absorb(&r);
        reports.push(r);
    }
    Ok((summary, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::SimDuration;

    fn torture_cfg() -> StorageConfig {
        StorageConfig {
            page_size: 512,
            dram_buffer_bytes: 16 * 512,
            flash: FlashSpec {
                banks: 2,
                blocks_per_bank: 8,
                block_bytes: 4096,
                write_unit: 512,
                ..FlashSpec::default()
            },
            gc_trigger_segments: 2,
            gc_target_segments: 3,
            checkpoint_interval: SimDuration::from_secs(1),
            ..StorageConfig::default()
        }
    }

    /// Small mixed workload: writes, overwrites, frees, periodic syncs
    /// and ticks — enough churn to exercise flush, tombstones, GC and
    /// checkpoints within a few dozen flash boundaries.
    fn synth_ops(n: usize, pages: u64, seed: u64) -> Vec<TortureOp> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            let r = rng.below(10);
            let page = rng.below(pages);
            ops.push(match r {
                0..=5 => TortureOp::Write { page },
                6 => TortureOp::Free { page },
                7 => TortureOp::Tick,
                _ => TortureOp::Sync,
            });
            if i % 16 == 15 {
                ops.push(TortureOp::Sync);
            }
        }
        ops.push(TortureOp::Sync);
        ops
    }

    #[test]
    fn fill_is_deterministic_and_version_sensitive() {
        let mut a = vec![0u8; 512];
        let mut b = vec![0u8; 512];
        fill_page(1, 7, 3, &mut a);
        fill_page(1, 7, 3, &mut b);
        assert_eq!(a, b);
        fill_page(1, 7, 4, &mut b);
        assert_ne!(a, b);
        fill_page(1, 8, 3, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn clean_prepass_counts_boundaries() {
        let cfg = torture_cfg();
        let ops = synth_ops(120, 24, 0xBEEF);
        let n = count_boundaries(&cfg, &ops, 0xBEEF).expect("clean replay");
        assert!(n > 10, "workload too small to torture ({n} boundaries)");
        // Deterministic across reruns.
        let again = count_boundaries(&cfg, &ops, 0xBEEF).expect("clean replay");
        assert_eq!(n, again);
    }

    /// The small crash sweep's machine: 1 bank × 8 blocks × 2 KiB, so 6
    /// segments of 4 slots, behind a 2-page buffer, at the lowest GC
    /// trigger the configuration allows. Within a dozen ops of a stream,
    /// GC erases tombstone slots and page ids come back to life.
    fn small_sweep_cfg() -> StorageConfig {
        StorageConfig {
            page_size: 512,
            dram_buffer_bytes: 2 * 512,
            flash: FlashSpec {
                banks: 1,
                blocks_per_bank: 8,
                block_bytes: 2048,
                write_unit: 512,
                ..FlashSpec::default()
            },
            gc_trigger_segments: 2,
            gc_target_segments: 3,
            checkpoint_interval: SimDuration::from_secs(1),
            ..StorageConfig::default()
        }
    }

    /// Stream `k` of the small sweep and its content seed: 100–200 ops
    /// over 3 page ids (half writes, a fifth frees, a fifth syncs, a
    /// tenth ticks), then a final sync.
    fn small_sweep_stream(k: u64) -> (Vec<TortureOp>, u64) {
        let seed = 0xA11C_E000 + k;
        let mut rng = SimRng::seed_from_u64(seed);
        let n = 100 + rng.below(101);
        let mut ops: Vec<_> = (0..n)
            .map(|_| {
                let page = rng.below(3);
                match rng.below(10) {
                    0..=4 => TortureOp::Write { page },
                    5 | 6 => TortureOp::Free { page },
                    7 | 8 => TortureOp::Sync,
                    _ => TortureOp::Tick,
                }
            })
            .collect();
        ops.push(TortureOp::Sync);
        (ops, seed)
    }

    /// Sweeps every cut of `ops` under each tear mode, returning a line
    /// per mode that failed a cut (or whose cut never fired).
    fn failed_sweeps(
        cfg: &StorageConfig,
        ops: &[TortureOp],
        seed: u64,
        tears: &[TearMode],
    ) -> Vec<String> {
        let mut failed = Vec::new();
        for &tear in tears {
            let (summary, reports) = sweep(cfg, ops, seed, tear).expect("clean pre-pass");
            // Every armed boundary is reachable: the replay is identical
            // up to the cut, so each cut in range must fire.
            assert!(reports.iter().all(|r| r.fired), "{tear:?}: unfired cut");
            if let Some(r) = reports.iter().find(|r| !r.passed()) {
                failed.push(format!(
                    "seed {seed:#x} {tear:?}: {} of {} cuts failed; first: cut {} -> {}",
                    summary.failures, summary.cuts_total, r.cut_at, r.violations[0]
                ));
            }
        }
        failed
    }

    /// Sweeps small-sweep streams `streams`, with prefix and stripe tears,
    /// and panics naming every stream that failed a cut.
    fn assert_small_sweep_passes(streams: core::ops::Range<u64>) {
        let cfg = small_sweep_cfg();
        let mut failed = Vec::new();
        for k in streams.clone() {
            let (ops, seed) = small_sweep_stream(k);
            let lines = failed_sweeps(&cfg, &ops, seed, &[TearMode::Prefix, TearMode::Stripe]);
            if !lines.is_empty() {
                failed.push(format!("stream {k}: {}", lines.join("; ")));
            }
        }
        assert!(
            failed.is_empty(),
            "{} of {} small-sweep streams failed:\n{}",
            failed.len(),
            streams.end - streams.start,
            failed.join("\n")
        );
    }

    #[test]
    fn every_cut_passes_all_tear_modes() {
        let ops = synth_ops(120, 24, 0xBEEF);
        let tears = [TearMode::Clean, TearMode::Prefix, TearMode::Stripe];
        let failed = failed_sweeps(&torture_cfg(), &ops, 0xBEEF, &tears);
        assert!(failed.is_empty(), "{failed:?}");
        assert_small_sweep_passes(0..SMALL_SWEEP_DEFAULT);
    }

    /// Small-sweep streams the default test run covers.
    const SMALL_SWEEP_DEFAULT: u64 = 40;

    /// Every small-sweep stream: too slow for a debug test run, so
    /// `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore]
    fn every_small_sweep_stream_passes() {
        assert_small_sweep_passes(0..300);
    }

    #[test]
    fn cut_runs_are_reproducible() {
        let cfg = torture_cfg();
        let ops = synth_ops(80, 16, 0x5EED);
        let a = run_cut(&cfg, &ops, 0x5EED, 5, TearMode::Prefix);
        let b = run_cut(&cfg, &ops, 0x5EED, 5, TearMode::Prefix);
        assert_eq!(a, b);
    }

    #[test]
    fn summary_publishes_counters() {
        let mut reg = MetricsRegistry::new();
        let s = TortureSummary {
            cuts_total: 42,
            failures: 1,
        };
        s.publish(&mut reg);
        assert_eq!(reg.counter_value("torture.cuts_total"), Some(42));
        assert_eq!(reg.counter_value("torture.failures"), Some(1));
    }
}
