//! The physical storage manager.
//!
//! Ties together the DRAM write buffer, the page map, the log-structured
//! segment table (or the naive in-place layout), garbage collection, wear
//! leveling, bank placement, and crash recovery. See the crate docs for
//! the paper-to-mechanism correspondence.
//!
//! # Timing model
//!
//! Foreground work (DRAM reads/writes, flash reads, GC copy reads)
//! advances the shared clock; flash programs and erases are issued
//! asynchronously and occupy their bank, so later reads addressed to a
//! busy bank stall — which is precisely the contention experiment F3
//! measures. When a writer must wait for an erase to deliver a free
//! segment, the wait is charged to [`StorageMetrics::gc_wait`].

use crate::buffer::WriteBuffer;
use crate::config::{BankPolicy, Placement, StorageConfig, WearLeveling};
use crate::crc;
use crate::error::StorageError;
use crate::gc::{pick_coldest, pick_victim};
use crate::map::{Location, PageId, PageMap};
use crate::metrics::StorageMetrics;
use crate::pool::PagePool;
use crate::recovery::RecoveryReport;
use crate::segment::{SegState, SegmentTable, Slot, SlotMeta};
use crate::Result;
use ssmc_device::{DeviceError, Dram, Flash, TearMode};
use ssmc_sim::obs::{EventKind, MetricSink, Recorder, Span};
use ssmc_sim::{Energy, EnergyLedger, SharedClock, SimDuration, SimTime};

/// Which write head a segment is opened for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegClass {
    /// Fresh user data (hot).
    Write,
    /// GC survivors and wear-leveling migrations (cold, read-mostly).
    Cold,
}

/// Checkpoint-area state (two ping-pong erase blocks ahead of the log).
#[derive(Debug)]
struct CkptState {
    /// Which of the two blocks holds the latest checkpoint.
    active: usize,
    /// Whether a checkpoint has ever been written.
    valid: bool,
    /// Pages the latest checkpoint occupies.
    pages: u64,
    /// Segments appended to since the latest checkpoint (recovery must
    /// re-scan only these). A bitmap indexed by segment — marking a
    /// segment dirty happens on every flash program, so it must not
    /// touch the allocator the way a tree-set insert would; reads scan
    /// ascending, matching the old ordered-set iteration.
    dirtied: Vec<bool>,
    /// Last checkpoint instant.
    last: SimTime,
    /// Set when a checkpoint block wears out; checkpointing then stops.
    disabled: bool,
}

impl CkptState {
    /// Marks `seg` as appended-to since the last checkpoint. The bitmap
    /// is sized when the snapshot is taken; if the segment table has
    /// grown since, indexing out of range must neither panic nor —
    /// worse — silently drop the mark, so the bitmap grows here with
    /// the new entries conservatively dirty (they were never covered by
    /// the snapshot).
    fn mark_dirtied(&mut self, seg: usize) {
        match self.dirtied.get_mut(seg) {
            Some(dirty) => *dirty = true,
            None => self.dirtied.resize(seg + 1, true),
        }
    }

    /// Whether a checkpoint-bounded recovery must rescan `seg`'s
    /// headers. Out of range means the segment appeared after the
    /// snapshot, so it must be scanned. (The old `unwrap_or(false)`
    /// default silently skipped such segments.) Callers that iterate
    /// the whole table call [`CkptState::cover`] first, so an
    /// out-of-range query here indicates a missed `mark_dirtied`.
    fn is_dirtied(&self, seg: usize) -> bool {
        debug_assert!(
            seg < self.dirtied.len(),
            "segment {seg} outside the checkpoint bitmap — mark_dirtied skipped?"
        );
        self.dirtied.get(seg).copied().unwrap_or(true)
    }

    /// Extends the bitmap to cover `n` segments, marking any segments
    /// that appeared after the snapshot as conservatively dirty.
    fn cover(&mut self, n: usize) {
        if self.dirtied.len() < n {
            self.dirtied.resize(n, true);
        }
    }
}

/// The physical storage manager of §3.3.
///
/// # Examples
///
/// ```
/// use ssmc_sim::Clock;
/// use ssmc_storage::{StorageConfig, StorageManager};
///
/// let mut sm = StorageManager::new(StorageConfig::default(), Clock::shared());
/// sm.write_page(7, &[0xAA; 512]).unwrap();      // lands in the DRAM buffer
/// sm.sync().unwrap();                            // ...and now in flash
/// sm.crash();                                    // battery dies
/// let report = sm.recover().unwrap();            // rebuilt from flash headers
/// assert_eq!(report.lost_pages, 0);
/// let mut buf = [0u8; 512];
/// sm.read_page(7, &mut buf).unwrap();
/// assert_eq!(buf, [0xAA; 512]);
/// ```
#[derive(Debug)]
pub struct StorageManager {
    cfg: StorageConfig,
    clock: SharedClock,
    flash: Flash,
    dram: Dram,
    map: PageMap,
    buffer: WriteBuffer,
    table: SegmentTable,
    open_write: Option<usize>,
    open_cold: Option<usize>,
    pending_tombstones: Vec<(PageId, u64)>,
    /// Recycled scratch for tombstones carried across a segment erase;
    /// see [`StorageManager::retire_or_erase`].
    carry_scratch: Vec<(PageId, u64)>,
    /// CRC-32 of one all-zero page — the expected payload checksum of
    /// tombstone and checkpoint slots.
    zero_crc: u32,
    /// Recycled page-sized scratch buffers for flush/GC/checkpoint paths.
    pool: PagePool,
    /// Recycled victim-page list for the flush paths (sync, tick aging,
    /// eviction, watermark). Taken with `mem::take` around each use so a
    /// re-entrant call degrades to an allocation instead of aliasing.
    flush_scratch: Vec<PageId>,
    /// Recycled live-slot list for the GC and wear-leveling copy loops.
    live_scratch: Vec<(usize, SlotMeta)>,
    /// Cached wear spread keyed by `(total erases, retired segments)`:
    /// the per-tick wear-leveling check only rescans after an erase.
    wear_spread: Option<(u64, usize, (u64, u64))>,
    metrics: StorageMetrics,
    recorder: Recorder,
    crashed: bool,
    crash_buffered: Vec<PageId>,
    crash_pending_tombs: Vec<PageId>,
    ckpt: CkptState,
}

/// Reserved erase blocks at the front of the device for the checkpoint
/// ping-pong area.
const RESERVED_BLOCKS: u32 = 2;
/// Bytes per (page, seq) record in tombstone slots and checkpoints.
const RECORD_BYTES: u64 = 16;

impl StorageManager {
    /// Builds a manager over fresh devices.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`StorageConfig::validate`]) or the flash is too small to hold
    /// the reserved checkpoint area plus at least four segments.
    pub fn new(mut cfg: StorageConfig, clock: SharedClock) -> Self {
        cfg.validate();
        let total_blocks = cfg.flash.total_blocks();
        assert!(
            total_blocks > RESERVED_BLOCKS + 4,
            "flash too small: need > {} erase blocks",
            RESERVED_BLOCKS + 4
        );
        let num_segments = (total_blocks - RESERVED_BLOCKS) as usize;
        let base_addr = RESERVED_BLOCKS as u64 * cfg.flash.block_bytes;
        let table = SegmentTable::new(
            num_segments,
            cfg.slots_per_segment(),
            base_addr,
            cfg.flash.block_bytes,
            cfg.page_size,
        );
        // The DRAM device is sized to the write buffer; resize the spec in
        // place rather than cloning it (callers hand `cfg` over by value,
        // and nothing reads `cfg.dram` after construction).
        cfg.dram.capacity = cfg.dram_buffer_bytes.max(1);
        let flash = Flash::new(cfg.flash.clone(), clock.clone());
        let dram = Dram::new(cfg.dram.clone(), clock.clone());
        let now = clock.now();
        // Scratch capacity is claimed here, not on first use: the first
        // watermark flush or GC pass runs mid-replay, inside the
        // zero-allocation steady-state window the alloc-guard pins.
        let mut pool = PagePool::new(cfg.page_size as usize);
        pool.prewarm(4);
        let zero_page = pool.take_zeroed();
        let zero_crc = crc::crc32(&zero_page);
        pool.put(zero_page);
        let buffer_frames = cfg.buffer_frames();
        let slots = cfg.slots_per_segment();
        StorageManager {
            buffer: WriteBuffer::new(buffer_frames),
            map: PageMap::new(),
            pool,
            wear_spread: None,
            metrics: StorageMetrics::new(now),
            recorder: Recorder::disabled(),
            open_write: None,
            open_cold: None,
            pending_tombstones: Vec::with_capacity(4 * slots.max(64)),
            carry_scratch: Vec::with_capacity(slots.max(16)),
            zero_crc,
            flush_scratch: Vec::with_capacity(buffer_frames),
            live_scratch: Vec::with_capacity(slots),
            crashed: false,
            crash_buffered: Vec::new(),
            crash_pending_tombs: Vec::new(),
            ckpt: CkptState {
                active: 0,
                valid: false,
                pages: 0,
                dirtied: vec![false; num_segments],
                last: now,
                disabled: false,
            },
            cfg,
            clock,
            flash,
            dram,
            table,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StorageConfig {
        &self.cfg
    }

    /// Logical page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.cfg.page_size
    }

    /// The flash device (for wear statistics and counters).
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// The DRAM device backing the write buffer.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &StorageMetrics {
        &self.metrics
    }

    /// Installs the observability recorder on this layer and the devices
    /// beneath it (disabled by default).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.flash.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Publishes the storage layer: every [`StorageMetrics`] signal, GC
    /// efficiency and segment-state occupancy, the flash device below,
    /// the DRAM energy total and ledger, and one wear counter per
    /// segment — the raw material for the timeline's wear heatmap.
    pub fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        self.metrics.publish(sink);
        sink.gauge("storage.gc_efficiency", self.gc_efficiency());
        sink.gauge(
            "storage.data_at_risk_bytes",
            self.data_at_risk_bytes() as f64,
        );
        sink.counter("storage.free_segments", self.table.free_count() as u64);
        sink.counter(
            "storage.retired_segments",
            self.table.retired_count() as u64,
        );
        self.flash.publish_metrics(sink);
        sink.counter(
            "energy.dram_total_nj",
            self.dram.energy().total().as_nanojoules(),
        );
        sink.ledger("energy.", self.dram.energy());
        sink.counter_family("storage.segment_wear", self.table.len(), |seg| {
            self.flash
                .erase_count(self.flash.block_of(self.table.block_addr(seg)))
        });
    }

    /// Fraction of reclaimed segment slots that were free (not live
    /// copies) per GC pass, in `[0, 1]`: `1 - gc_copies / (runs × slots
    /// per segment)`. 1.0 means every collected segment was entirely
    /// dead — the erase-ahead ideal of §3 — while values near 0 mean the
    /// cleaner is copying almost everything it reclaims. 1.0 when GC has
    /// never run.
    pub fn gc_efficiency(&self) -> f64 {
        let runs = self.metrics.gc_runs;
        if runs == 0 {
            return 1.0;
        }
        let reclaimed = (runs * self.cfg.slots_per_segment() as u64) as f64;
        (1.0 - self.metrics.gc_flash_pages as f64 / reclaimed).max(0.0)
    }

    /// Flash energy drawn so far — sampled around flush/GC spans so their
    /// energy deltas attribute device work to the storage operation that
    /// caused it. Returns zero when the recorder is disabled to keep the
    /// hot path free of ledger walks.
    fn span_energy_mark(&self) -> Energy {
        if self.recorder.is_enabled() {
            self.flash.total_energy()
        } else {
            Energy::ZERO
        }
    }

    /// Pages the manager can hold (live data), after utilisation and
    /// wear-retirement limits.
    pub fn page_capacity(&self) -> u64 {
        match self.cfg.placement {
            Placement::LogStructured => {
                (self.table.usable_slots() as f64 * self.cfg.max_utilization) as u64
            }
            Placement::InPlace => {
                let blocks = self.cfg.flash.total_blocks() - RESERVED_BLOCKS;
                blocks as u64 * self.cfg.flash.block_bytes / self.cfg.page_size
            }
        }
    }

    /// Pages currently live (mapped).
    pub fn pages_live(&self) -> u64 {
        self.map.len() as u64
    }

    /// Whether `extra` more pages fit.
    pub fn has_capacity_for(&self, extra: u64) -> bool {
        self.pages_live() + extra <= self.page_capacity()
    }

    /// Whether `page` currently exists (was written and not freed).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.get(page).is_some()
    }

    /// Charges idle/refresh power for a span during which the devices sat
    /// unused (the machine layer calls this as simulated time passes).
    /// `self_refresh` selects the DRAM's low-power battery-preservation
    /// mode.
    pub fn charge_idle(&mut self, d: SimDuration, self_refresh: bool) {
        self.flash.charge_idle(d);
        self.dram.charge_refresh(d, self_refresh);
    }

    /// Combined energy ledger of the devices (itemised by operation kind;
    /// allocates — use [`StorageManager::energy_total`] on hot paths).
    pub fn total_energy(&self) -> EnergyLedger {
        let mut l = EnergyLedger::new();
        l.merge(self.flash.energy());
        l.merge(self.dram.energy());
        l
    }

    /// Total energy drawn by both devices, as a scalar. Unlike
    /// [`StorageManager::total_energy`] this builds no ledger, so the
    /// per-operation battery-drain path can call it freely.
    pub fn energy_total(&self) -> Energy {
        self.flash.energy().total() + self.dram.energy().total()
    }

    /// Current simulated instant (the shared clock's reading).
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Handle to the shared simulation clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    fn frame_addr(&self, frame: usize) -> u64 {
        frame as u64 * self.cfg.page_size
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed {
            Err(StorageError::Crashed)
        } else {
            Ok(())
        }
    }

    fn update_gauges(&mut self) {
        let now = self.now();
        let pages = self.buffer.len() as f64;
        self.metrics.buffer_occupancy.set(now, pages);
        self.metrics
            .dirty_exposure
            .set(now, pages * self.cfg.page_size as f64);
    }

    // ------------------------------------------------------------------
    // Public data path
    // ------------------------------------------------------------------

    /// Writes one page. `data.len()` must equal the page size.
    ///
    /// The page lands in the DRAM write buffer (absorbing overwrite and
    /// death traffic); the flush policy later migrates it to flash.
    ///
    /// # Errors
    ///
    /// [`StorageError::NoSpace`] when live data would exceed capacity,
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error (in-place mode wearing out a block).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the page size.
    // lint: hot-path
    pub fn write_page(&mut self, page: PageId, data: &[u8]) -> Result<()> {
        assert_eq!(
            data.len() as u64,
            self.cfg.page_size,
            "write_page takes exactly one page"
        );
        self.check_alive()?;
        self.metrics.pages_written += 1;
        self.metrics.bytes_written += data.len() as u64;

        if self.buffer.capacity() == 0 {
            // Write-through configuration (the 0 MB point of F2).
            if self.map.get(page).is_none() && !self.has_capacity_for(1) {
                return Err(StorageError::NoSpace);
            }
            self.flush_data_to_flash(page, data)?;
            self.metrics.user_flash_pages += 1;
            return Ok(());
        }

        let now = self.now();
        if self.buffer.contains(page) {
            let frame = self.buffer.touch(page, now);
            self.dram.write(self.frame_addr(frame), data)?;
            self.metrics.overwrites_absorbed += 1;
            self.update_gauges();
            return Ok(());
        }

        let old = self.map.get(page);
        if old.is_none() && !self.has_capacity_for(1) {
            return Err(StorageError::NoSpace);
        }
        self.make_room()?;
        let now = self.now();
        let frame = self
            .buffer
            .insert(page, now)
            .expect("make_room guarantees a frame");
        self.dram.write(self.frame_addr(frame), data)?;
        if let Some(Location::Flash(addr)) = old {
            // The flash copy is stale, but it is the page's only copy
            // that survives a crash: shield it from GC until the newer
            // version is durably flushed. Killing it here let GC erase
            // synced data whose replacement was still volatile. The
            // shadow rides in the frame slab — it exists exactly as long
            // as the page sits dirty in a frame. (The crash-torture
            // sweep caught the eager-kill design losing synced pages and
            // resurrecting older generations whenever a power cut landed
            // between a victim erase and the next flush.)
            if self.cfg.placement == Placement::LogStructured {
                self.buffer.shadow_set(frame, addr);
            }
        }
        self.map.set(page, Location::Dram(frame));
        self.maybe_watermark_flush()?;
        self.update_gauges();
        Ok(())
    }

    /// Sub-page read-modify-write of a DRAM-resident page without the
    /// staging copy. Charges exactly what the two-call sequence
    /// `read_page(page)` + `write_page(page, modified)` charges when the
    /// page sits in the write buffer — full-page DRAM read and write
    /// latency, energy, and counters — but stores only the changed bytes:
    /// the unmodified remainder of a full-page rewrite is already in the
    /// frame. Returns `Ok(false)` without charging anything when the page
    /// is not buffer-resident (or the buffer is write-through); the caller
    /// falls back to the copying path.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error.
    ///
    /// # Panics
    ///
    /// Panics if the byte range crosses the page boundary.
    // lint: hot-path
    pub fn modify_page_in_place(
        &mut self,
        page: PageId,
        offset: u64,
        bytes: &[u8],
    ) -> Result<bool> {
        assert!(
            offset + bytes.len() as u64 <= self.cfg.page_size,
            "range crosses page boundary"
        );
        self.check_alive()?;
        let Some(Location::Dram(frame)) = self.map.get(page) else {
            return Ok(false);
        };
        let ps = self.cfg.page_size;
        let addr = self.frame_addr(frame);
        // The read half of the RMW: full-page charge, no copy out.
        let _ = self.dram.read_borrow(addr, ps)?;
        self.metrics.reads_from_dram += 1;
        // The write half, mirroring write_page's buffer-hit branch.
        self.metrics.pages_written += 1;
        self.metrics.bytes_written += ps;
        let now = self.now();
        let touched = self.buffer.touch(page, now);
        debug_assert_eq!(touched, frame, "map and buffer disagree on the frame");
        self.dram.write_within(addr, ps, offset, bytes)?;
        self.metrics.overwrites_absorbed += 1;
        self.update_gauges();
        Ok(true)
    }

    /// Reads one page into `buf` (length must equal the page size).
    /// Unwritten pages read as zeros.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the page size.
    // lint: hot-path
    pub fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(
            buf.len() as u64,
            self.cfg.page_size,
            "read_page takes exactly one page"
        );
        self.check_alive()?;
        match self.map.get(page) {
            Some(Location::Dram(frame)) => {
                self.dram.read(self.frame_addr(frame), buf)?;
                self.metrics.reads_from_dram += 1;
            }
            Some(Location::Flash(addr)) => {
                self.flash.read(addr, buf)?;
                self.metrics.reads_from_flash += 1;
            }
            None => {
                buf.fill(0);
                self.metrics.hole_reads += 1;
            }
        }
        Ok(())
    }

    /// Reads one page without a staging copy: charges exactly what
    /// [`Self::read_page`] charges (device latency, energy, counters) but
    /// returns a borrow of the backing array instead of filling a caller
    /// buffer. `None` means the page is a hole (all zeros); the hole read
    /// is still counted. Metadata paths that decode a few bytes of a page
    /// use this to skip the page-sized memcpy.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error.
    // lint: hot-path
    pub fn read_page_ref(&mut self, page: PageId) -> Result<Option<&[u8]>> {
        self.check_alive()?;
        let ps = self.cfg.page_size;
        match self.map.get(page) {
            Some(Location::Dram(frame)) => {
                let data = self.dram.read_borrow(self.frame_addr(frame), ps)?;
                self.metrics.reads_from_dram += 1;
                Ok(Some(data))
            }
            Some(Location::Flash(addr)) => {
                let data = self.flash.read_borrow(addr, ps)?;
                self.metrics.reads_from_flash += 1;
                Ok(Some(data))
            }
            None => {
                self.metrics.hole_reads += 1;
                Ok(None)
            }
        }
    }

    /// Batch entry point for replay-style reads whose data nobody
    /// inspects: charges `count` consecutive pages exactly as
    /// [`Self::read_page_ref`] of each would — device clock, counters,
    /// energy, and hit metrics, in the same order — with one call and one
    /// liveness check per batch, and no borrow or copy formed at all.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error.
    // lint: hot-path
    pub fn read_pages_discard(&mut self, first: PageId, count: u64) -> Result<()> {
        self.check_alive()?;
        let ps = self.cfg.page_size;
        for page in first..first + count {
            match self.map.get(page) {
                Some(Location::Dram(frame)) => {
                    self.dram.read_borrow(self.frame_addr(frame), ps)?;
                    self.metrics.reads_from_dram += 1;
                }
                Some(Location::Flash(addr)) => {
                    self.flash.read_borrow(addr, ps)?;
                    self.metrics.reads_from_flash += 1;
                }
                None => self.metrics.hole_reads += 1,
            }
        }
        Ok(())
    }

    /// Reads a byte range within one page — the direct-mapped access path
    /// used by execute-in-place and memory-mapped files (§3.2): flash is
    /// byte-addressable, so a mapped fetch reads exactly the bytes it
    /// needs, with no page-sized staging copy.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death, or a
    /// propagated device error.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses the page boundary.
    // lint: hot-path
    pub fn read_page_slice(&mut self, page: PageId, offset: u64, buf: &mut [u8]) -> Result<()> {
        assert!(
            offset + buf.len() as u64 <= self.cfg.page_size,
            "slice crosses page boundary"
        );
        self.check_alive()?;
        match self.map.get(page) {
            Some(Location::Dram(frame)) => {
                self.dram.read(self.frame_addr(frame) + offset, buf)?;
                self.metrics.reads_from_dram += 1;
            }
            Some(Location::Flash(addr)) => {
                self.flash.read(addr + offset, buf)?;
                self.metrics.reads_from_flash += 1;
            }
            None => {
                buf.fill(0);
                self.metrics.hole_reads += 1;
            }
        }
        Ok(())
    }

    /// Frees a page. If it is still buffered, its write is cancelled
    /// outright — the death-absorption half of F2's traffic reduction.
    ///
    /// # Errors
    ///
    /// [`StorageError::Crashed`] after an unrecovered battery death.
    // lint: hot-path
    pub fn free_page(&mut self, page: PageId) -> Result<()> {
        self.check_alive()?;
        match self.map.remove(page) {
            Some(Location::Dram(frame)) => {
                // The shielded stale copy (if any) dies with the free; it
                // becomes a dead copy needing a tombstone, exactly like
                // copies dead from before the page went dirty. Taken
                // before the frame is released, which discards its slab
                // entry.
                let shadow = self.buffer.shadow_take(frame);
                self.buffer.remove(page);
                self.metrics.deaths_absorbed += 1;
                if self.cfg.placement == Placement::LogStructured {
                    if let Some(addr) = shadow {
                        self.table.kill_at(addr);
                    }
                    if self.table.has_dead_copies(page) {
                        let seq = self.map.next_seq();
                        self.pending_tombstones.push((page, seq));
                    }
                }
            }
            // In-place mode leaves stale data at its fixed home; the home
            // is reused on the next write of the same page.
            Some(Location::Flash(addr)) if self.cfg.placement == Placement::LogStructured => {
                self.table.kill_at(addr);
                let seq = self.map.next_seq();
                self.pending_tombstones.push((page, seq));
            }
            Some(Location::Flash(_)) => {}
            None => {}
        }
        self.maybe_flush_tombstones()?;
        self.update_gauges();
        Ok(())
    }

    /// Flushes all dirty pages and pending tombstones to flash.
    ///
    /// # Errors
    ///
    /// Propagates flush failures (no space, device errors).
    // lint: hot-path
    pub fn sync(&mut self) -> Result<()> {
        self.check_alive()?;
        let mut pages = core::mem::take(&mut self.flush_scratch);
        self.buffer.pages_into(&mut pages);
        let flushed = self.flush_pages(&pages);
        pages.clear();
        self.flush_scratch = pages;
        flushed?;
        self.flush_tombstones()?;
        self.update_gauges();
        Ok(())
    }

    /// Periodic maintenance: reaps finished erases, flushes pages that
    /// have gone cold, runs triggered GC, wear-levels, and checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates flush/GC failures.
    // lint: hot-path
    pub fn tick(&mut self) -> Result<()> {
        self.check_alive()?;
        let now = self.now();
        self.table.reap_erased(now);
        // Age-based flush: write back pages that have not been written for
        // the policy's age limit (keeping write-hot pages in DRAM).
        let cutoff_ns = now
            .as_nanos()
            .saturating_sub(self.cfg.flush.age_limit.as_nanos());
        let mut cold = core::mem::take(&mut self.flush_scratch);
        self.buffer
            .colder_than_into(SimTime::from_nanos(cutoff_ns), usize::MAX, &mut cold);
        let flushed = if cold.is_empty() {
            Ok(())
        } else {
            self.flush_pages(&cold)
        };
        cold.clear();
        self.flush_scratch = cold;
        flushed?;
        if self.cfg.placement == Placement::LogStructured {
            let free = self.table.free_count() + self.table.pending_erases();
            if free < self.cfg.gc_trigger_segments {
                self.collect_garbage()?;
            }
            self.maybe_wear_level()?;
            if self.cfg.checkpointing
                && !self.ckpt.disabled
                && now.since(self.ckpt.last) >= self.cfg.checkpoint_interval
            {
                self.checkpoint()?;
            }
        }
        self.update_gauges();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Flushing
    // ------------------------------------------------------------------

    /// Ensures at least one free buffer frame, flushing the coldest batch
    /// if necessary.
    // lint: hot-path
    fn make_room(&mut self) -> Result<()> {
        if !self.buffer.is_full() {
            return Ok(());
        }
        let mut victims = core::mem::take(&mut self.flush_scratch);
        self.buffer
            .coldest_k_into(self.cfg.flush.batch.max(1), &mut victims);
        let flushed = self.flush_pages(&victims);
        victims.clear();
        self.flush_scratch = victims;
        flushed
    }

    /// Applies the high/low watermark policy after an insert.
    // lint: hot-path
    fn maybe_watermark_flush(&mut self) -> Result<()> {
        if self.buffer.fill_fraction() <= self.cfg.flush.high_watermark {
            return Ok(());
        }
        let target = (self.cfg.flush.low_watermark * self.buffer.capacity() as f64) as usize;
        let excess = self.buffer.len().saturating_sub(target);
        if excess > 0 {
            let mut victims = core::mem::take(&mut self.flush_scratch);
            self.buffer.coldest_k_into(excess, &mut victims);
            let flushed = self.flush_pages(&victims);
            victims.clear();
            self.flush_scratch = victims;
            flushed?;
        }
        Ok(())
    }

    /// Writes the given buffered pages back to flash and releases their
    /// frames.
    // lint: hot-path
    fn flush_pages(&mut self, pages: &[PageId]) -> Result<()> {
        let start = self.now();
        let e0 = self.span_energy_mark();
        let mut flushed = 0u64;
        let ps = self.cfg.page_size;
        for &page in pages {
            let Some(frame) = self.buffer.frame_of(page) else {
                continue; // already flushed or freed
            };
            let frame_addr = self.frame_addr(frame);
            match self.cfg.placement {
                Placement::LogStructured => {
                    // Charge the DRAM read up front (borrow discarded), run
                    // the allocation — which may garbage-collect — and only
                    // then hand the frame's bytes straight to the flash
                    // program. Same charge sequence as read-into-scratch
                    // followed by `flush_data_to_flash`, minus the copy.
                    self.dram.read_borrow(frame_addr, ps)?;
                    let seq = self.map.next_seq();
                    let crc = crc::crc32(self.dram.peek(frame_addr, ps));
                    let (seg, addr) =
                        self.append_slot(SegClass::Write, SlotMeta { page, seq, crc })?;
                    // Dirty the segment *before* the program: a power cut
                    // mid-program must never leave a slot the
                    // checkpoint-bounded recovery scan would skip.
                    self.ckpt.mark_dirtied(seg);
                    self.flash
                        .program_async(addr, self.dram.peek(frame_addr, ps))?;
                    self.map.set(page, Location::Flash(addr));
                    // The newer version is durable: the shielded stale
                    // copy (possibly relocated by GC under append_slot)
                    // can finally die. Taken by frame index — the map no
                    // longer points at the frame, but it isn't released
                    // until the `buffer.remove` below.
                    if let Some(old_addr) = self.buffer.shadow_take(frame) {
                        self.table.kill_at(old_addr);
                    }
                }
                Placement::InPlace => {
                    // In-place flush needs read-modify-write staging; keep
                    // the copying path.
                    let mut data = self.pool.take();
                    let r = match self.dram.read(frame_addr, &mut data) {
                        Ok(_) => self.flush_inplace(page, &data),
                        Err(e) => Err(e.into()),
                    };
                    self.pool.put(data);
                    r?;
                }
            }
            self.buffer.remove(page);
            self.metrics.user_flash_pages += 1;
            flushed += 1;
        }
        if flushed > 0 {
            self.recorder.emit(|| Span {
                kind: EventKind::StorageFlush,
                start,
                end: self.clock.now(),
                energy: Energy::from_nanojoules(
                    self.flash.total_energy().as_nanojoules() - e0.as_nanojoules(),
                ),
                pages: flushed,
                bytes: flushed * self.cfg.page_size,
            });
        }
        self.update_gauges();
        Ok(())
    }

    /// Places one page's bytes on flash (log append or in-place RMW) and
    /// updates the map.
    // lint: hot-path
    fn flush_data_to_flash(&mut self, page: PageId, data: &[u8]) -> Result<()> {
        match self.cfg.placement {
            Placement::LogStructured => {
                let seq = self.map.next_seq();
                let crc = crc::crc32(data);
                let (seg, addr) = self.append_slot(SegClass::Write, SlotMeta { page, seq, crc })?;
                self.ckpt.mark_dirtied(seg);
                self.flash.program_async(addr, data)?;
                // Kill the previous durable copy only now that its
                // replacement is on flash, and look its location up only
                // now: GC under `append_slot` may have relocated the old
                // slot (and updated the map).
                let prev = self.map.get(page);
                self.map.set(page, Location::Flash(addr));
                if let Some(Location::Flash(prev_addr)) = prev {
                    self.table.kill_at(prev_addr);
                }
                Ok(())
            }
            Placement::InPlace => self.flush_inplace(page, data),
        }
    }

    /// In-place placement: each page has a fixed home; rewriting it means
    /// erase-block read-modify-write.
    fn flush_inplace(&mut self, page: PageId, data: &[u8]) -> Result<()> {
        let base = RESERVED_BLOCKS as u64 * self.cfg.flash.block_bytes;
        let home = base + page * self.cfg.page_size;
        if home + self.cfg.page_size > self.flash.capacity() {
            return Err(StorageError::NoSpace);
        }
        if self.flash.is_erased(home, self.cfg.page_size) {
            self.flash.program_async(home, data)?;
            self.map.set(page, Location::Flash(home));
            return Ok(());
        }
        // Read-modify-write of the whole erase block.
        let block = self.flash.block_of(home);
        let (block_start, block_len) = self.flash.block_range(block);
        let pages_per_block = block_len / self.cfg.page_size;
        let first_page = (block_start - base) / self.cfg.page_size;
        // lint: allow(H2): in-place placement is the read-modify-write
        // baseline; the log-structured flush never comes here.
        let mut survivors: Vec<(u64, Vec<u8>)> = Vec::new();
        for p in first_page..first_page + pages_per_block {
            if p == page {
                continue;
            }
            if let Some(Location::Flash(addr)) = self.map.get(p) {
                let mut buf = self.pool.take();
                self.flash.read(addr, &mut buf)?;
                survivors.push((addr, buf));
            }
        }
        self.flash.erase_async(block)?;
        for (addr, buf) in &survivors {
            self.flash.program_async(*addr, buf)?;
            self.metrics.gc_flash_pages += 1;
        }
        for (_, buf) in survivors {
            self.pool.put(buf);
        }
        self.flash.program_async(home, data)?;
        self.map.set(page, Location::Flash(home));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Segment allocation and garbage collection (log mode)
    // ------------------------------------------------------------------

    fn bank_of_seg(&self, seg: usize) -> u32 {
        self.flash.bank_of(self.table.block_addr(seg)).0
    }

    fn seg_allowed(&self, seg: usize, class: SegClass) -> bool {
        match self.cfg.bank_policy {
            BankPolicy::Unified => true,
            BankPolicy::ReadMostlyPartition { read_banks } => {
                let bank = self.bank_of_seg(seg);
                match class {
                    SegClass::Write => bank >= read_banks,
                    SegClass::Cold => bank < read_banks,
                }
            }
        }
    }

    fn seg_wear(&self, seg: usize) -> u64 {
        self.flash
            .erase_count(self.flash.block_of(self.table.block_addr(seg)))
    }

    /// Picks a free segment for `class`: least-worn among allowed banks,
    /// falling back to any free segment rather than failing. Iterates the
    /// table directly — no candidate list is materialised.
    // lint: hot-path
    fn alloc_segment(&self, class: SegClass) -> Option<usize> {
        self.table
            .segments_in(SegState::Free)
            .filter(|&s| self.seg_allowed(s, class))
            .min_by_key(|&s| self.seg_wear(s))
            .or_else(|| {
                self.table
                    .segments_in(SegState::Free)
                    .min_by_key(|&s| self.seg_wear(s))
            })
    }

    /// Picks the most-worn free segment (wear-leveling destination).
    fn alloc_most_worn(&self) -> Option<usize> {
        self.table
            .segments_in(SegState::Free)
            .max_by_key(|&s| self.seg_wear(s))
    }

    fn open_slot_of(&self, class: SegClass) -> Option<usize> {
        match class {
            SegClass::Write => self.open_write,
            SegClass::Cold => self.open_cold,
        }
    }

    fn set_open(&mut self, class: SegClass, seg: Option<usize>) {
        match class {
            SegClass::Write => self.open_write = seg,
            SegClass::Cold => self.open_cold = seg,
        }
    }

    /// Returns an open segment for `class` with at least one free slot,
    /// allocating / garbage-collecting / waiting for erases as needed.
    // lint: hot-path
    fn ensure_open(&mut self, class: SegClass, allow_gc: bool) -> Result<usize> {
        for _ in 0..self.table.len() * 2 + 4 {
            if let Some(seg) = self.open_slot_of(class) {
                if !self.table.seg(seg).is_full() {
                    return Ok(seg);
                }
                self.table.close(seg);
                self.set_open(class, None);
            }
            let now = self.now();
            self.table.reap_erased(now);
            if allow_gc {
                let free = self.table.free_count() + self.table.pending_erases();
                if free < self.cfg.gc_trigger_segments {
                    self.collect_garbage()?;
                }
            }
            if let Some(seg) = self.alloc_segment(class) {
                self.table.open(seg);
                self.set_open(class, Some(seg));
                continue;
            }
            // No free segment: wait out the erase backlog if there is one.
            if let Some(at) = self.table.next_erase_completion() {
                let waited_from = self.now();
                self.clock.advance_to(at);
                self.metrics.gc_wait += self.now().since(waited_from);
                self.recorder.emit(|| Span {
                    kind: EventKind::StorageStall,
                    start: waited_from,
                    end: self.clock.now(),
                    energy: Energy::ZERO,
                    pages: 0,
                    bytes: 0,
                });
                continue;
            }
            if allow_gc && self.collect_garbage()? {
                continue;
            }
            return Err(StorageError::NoSpace);
        }
        Err(StorageError::NoSpace)
    }

    /// Appends a slot for `meta` in an open segment of `class`, returning
    /// `(segment, flash address)`.
    fn append_slot(&mut self, class: SegClass, meta: SlotMeta) -> Result<(usize, u64)> {
        let seg = self.ensure_open(class, true)?;
        let slot = self.table.append(seg, meta, self.now());
        Ok((seg, self.table.slot_addr(seg, slot)))
    }

    /// Runs garbage collection until the free-segment target is met or no
    /// further progress is possible. Returns whether anything was
    /// reclaimed.
    // lint: hot-path
    fn collect_garbage(&mut self) -> Result<bool> {
        let start = self.now();
        let e0 = self.span_energy_mark();
        let moved0 = self.metrics.gc_flash_pages;
        let mut progressed = false;
        let mut data = self.pool.take();
        for _ in 0..self.table.len() {
            let now = self.now();
            self.table.reap_erased(now);
            let free = self.table.free_count() + self.table.pending_erases();
            if free >= self.cfg.gc_target_segments {
                break;
            }
            let Some(victim) = pick_victim(&self.table, self.cfg.gc, now) else {
                break;
            };
            // Never clean the open heads (they are not Closed, so
            // pick_victim cannot return them by construction).
            let mut live = core::mem::take(&mut self.live_scratch);
            live.clear();
            self.table.seg(victim).live_slots_into(&mut live);
            for &(slot, meta) in &live {
                let old_addr = self.table.slot_addr(victim, slot);
                self.flash.read(old_addr, &mut data)?;
                // GC survivors are cold by definition: they go to the cold
                // head (and, under partitioning, to the read-mostly banks).
                let seg = self.ensure_open(SegClass::Cold, false)?;
                // The copy is byte-identical, so the header's CRC carries.
                let new_slot = self.table.append(seg, meta, self.now());
                let new_addr = self.table.slot_addr(seg, new_slot);
                self.ckpt.mark_dirtied(seg);
                self.flash.program_async(new_addr, &data)?;
                self.table.kill_at(old_addr);
                // A shielded stale copy relocates with its slot; only a
                // current copy re-points the page map (the page may be
                // dirty in DRAM, and the map must keep saying so).
                match self.map.get(meta.page) {
                    Some(Location::Dram(frame))
                        if self.buffer.shadow_get(frame) == Some(old_addr) =>
                    {
                        self.buffer.shadow_set(frame, new_addr);
                    }
                    _ => self.map.set(meta.page, Location::Flash(new_addr)),
                }
                self.metrics.gc_flash_pages += 1;
            }
            live.clear();
            self.live_scratch = live;
            self.retire_or_erase(victim)?;
            self.metrics.gc_runs += 1;
            progressed = true;
        }
        self.pool.put(data);
        if progressed {
            self.recorder.emit(|| Span {
                kind: EventKind::StorageGc,
                start,
                end: self.clock.now(),
                energy: Energy::from_nanojoules(
                    self.flash.total_energy().as_nanojoules() - e0.as_nanojoules(),
                ),
                pages: self.metrics.gc_flash_pages - moved0,
                bytes: (self.metrics.gc_flash_pages - moved0) * self.cfg.page_size,
            });
        }
        self.maybe_flush_tombstones()?;
        Ok(progressed)
    }

    /// Erases a drained victim segment, or retires it if the block has
    /// worn out.
    ///
    /// WAL discipline for tombstones: any record in the victim whose
    /// page still has a stale copy on flash is re-logged durably
    /// *before* the erase is issued. The previous design queued carried
    /// tombstones on the DRAM `pending_tombstones` list, which opened
    /// two resurrection windows the crash-torture sweep flagged: a
    /// power cut after the erase but before the next tombstone flush
    /// lost the only durable record of a synced delete, and a *torn*
    /// erase could wipe the tombstone slot's half of the block while
    /// the stale data copy in the other half survived. Only when no
    /// segment can be opened without recursing into GC do the records
    /// fall back to the DRAM list (terminal space pressure).
    // lint: hot-path
    fn retire_or_erase(&mut self, victim: usize) -> Result<()> {
        let mut carried = core::mem::take(&mut self.carry_scratch);
        carried.clear();
        self.table.peek_carried_into(victim, &mut carried);
        let relogged = if carried.is_empty() {
            false
        } else {
            match self.log_carried_tombstones(&mut carried) {
                Ok(durable) => durable,
                Err(e) => {
                    carried.clear();
                    self.carry_scratch = carried;
                    return Err(e);
                }
            }
        };
        let block = self.flash.block_of(self.table.block_addr(victim));
        let r = match self.flash.erase_async(block) {
            Ok(done) => {
                if relogged {
                    // Already durable: discard the release-time copies.
                    self.table.begin_erase_into(victim, done, &mut carried);
                } else {
                    self.table
                        .begin_erase_into(victim, done, &mut self.pending_tombstones);
                }
                Ok(())
            }
            Err(DeviceError::WornOut { .. }) | Err(DeviceError::BadBlock { .. }) => {
                if relogged {
                    self.table.retire_into(victim, &mut carried);
                } else {
                    self.table.retire_into(victim, &mut self.pending_tombstones);
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        };
        carried.clear();
        self.carry_scratch = carried;
        r
    }

    /// Durably logs carried tombstone records into the cold head ahead
    /// of a segment erase. Returns `Ok(true)` when every record was
    /// programmed; `Ok(false)` means no segment could be opened without
    /// recursing into GC and the records went to the DRAM pending list
    /// instead (the degraded pre-fix behaviour).
    // lint: hot-path
    fn log_carried_tombstones(&mut self, records: &mut Vec<(PageId, u64)>) -> Result<bool> {
        let per_slot = self.tombstones_per_slot();
        while !records.is_empty() {
            let Ok(seg) = self.ensure_open(SegClass::Write, false) else {
                self.pending_tombstones.append(records);
                return Ok(false);
            };
            let take = per_slot.min(records.len());
            let batch = self.table.tomb_batch(records, take);
            let now = self.now();
            let slot = self.table.append_tomb(seg, batch, now);
            let addr = self.table.slot_addr(seg, slot);
            self.ckpt.mark_dirtied(seg);
            let data = self.pool.take_zeroed();
            let programmed = self.flash.program_async(addr, &data);
            self.pool.put(data);
            programmed?;
            self.metrics.summary_flash_pages += 1;
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Wear leveling
    // ------------------------------------------------------------------

    /// Erase-count spread across non-retired segment blocks.
    fn segment_wear_spread(&mut self) -> (u64, u64) {
        // Erase counts only move on erases and the scanned set only
        // shrinks on retirement, so the scan result is cached under
        // those two counters — the common tick recomputes nothing.
        let key = (self.flash.counters().erases, self.table.retired_count());
        if let Some((erases, retired, spread)) = self.wear_spread {
            if (erases, retired) == key {
                return spread;
            }
        }
        let mut min = u64::MAX;
        let mut max = 0;
        for seg in 0..self.table.len() {
            if self.table.seg(seg).state == SegState::Retired {
                continue;
            }
            let c = self
                .flash
                .erase_count(self.flash.block_of(self.table.block_addr(seg)));
            min = min.min(c);
            max = max.max(c);
        }
        let spread = if min == u64::MAX { (0, 0) } else { (min, max) };
        self.wear_spread = Some((key.0, key.1, spread));
        spread
    }

    /// Static wear leveling: when the wear spread exceeds the threshold,
    /// migrate the coldest segment (parked on a young block) onto the
    /// most-worn free block, freeing the young block for the hot write
    /// path.
    fn maybe_wear_level(&mut self) -> Result<()> {
        let WearLeveling::Static { threshold } = self.cfg.wear_leveling else {
            return Ok(());
        };
        let (min, max) = self.segment_wear_spread();
        if max - min <= threshold {
            return Ok(());
        }
        // `usize::MAX` is never a valid segment index, so closed heads
        // encode as impossible values instead of a built candidate list.
        let exclude = [
            self.open_write.unwrap_or(usize::MAX),
            self.open_cold.unwrap_or(usize::MAX),
        ];
        let Some(victim) = pick_coldest(&self.table, &exclude) else {
            return Ok(());
        };
        // Only worthwhile if the victim actually shields a young block.
        let victim_wear = self
            .flash
            .erase_count(self.flash.block_of(self.table.block_addr(victim)));
        if victim_wear > min + threshold / 2 {
            return Ok(());
        }
        let Some(dest) = self.alloc_most_worn() else {
            return Ok(());
        };
        if dest == victim {
            return Ok(());
        }
        let start = self.now();
        let e0 = self.span_energy_mark();
        let moved0 = self.metrics.gc_flash_pages;
        self.table.open(dest);
        let mut data = self.pool.take();
        let mut live = core::mem::take(&mut self.live_scratch);
        live.clear();
        self.table.seg(victim).live_slots_into(&mut live);
        for &(slot, meta) in &live {
            let old_addr = self.table.slot_addr(victim, slot);
            self.flash.read(old_addr, &mut data)?;
            let new_slot = self.table.append(dest, meta, self.now());
            let new_addr = self.table.slot_addr(dest, new_slot);
            self.ckpt.mark_dirtied(dest);
            self.flash.program_async(new_addr, &data)?;
            self.table.kill_at(old_addr);
            // Same shielded-copy rule as the GC copy loop above.
            match self.map.get(meta.page) {
                Some(Location::Dram(frame))
                    if self.buffer.shadow_get(frame) == Some(old_addr) =>
                {
                    self.buffer.shadow_set(frame, new_addr);
                }
                _ => self.map.set(meta.page, Location::Flash(new_addr)),
            }
            self.metrics.gc_flash_pages += 1;
        }
        live.clear();
        self.live_scratch = live;
        self.table.close(dest);
        self.pool.put(data);
        self.retire_or_erase(victim)?;
        self.metrics.wear_migrations += 1;
        self.recorder.emit(|| Span {
            kind: EventKind::StorageWearLevel,
            start,
            end: self.clock.now(),
            energy: Energy::from_nanojoules(
                self.flash.total_energy().as_nanojoules() - e0.as_nanojoules(),
            ),
            pages: self.metrics.gc_flash_pages - moved0,
            bytes: (self.metrics.gc_flash_pages - moved0) * self.cfg.page_size,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tombstones and checkpointing
    // ------------------------------------------------------------------

    fn tombstones_per_slot(&self) -> usize {
        (self.cfg.page_size / RECORD_BYTES) as usize
    }

    /// Flushes pending tombstones once a full slot's worth accumulated.
    fn maybe_flush_tombstones(&mut self) -> Result<()> {
        if self.cfg.placement == Placement::LogStructured
            && self.pending_tombstones.len() >= self.tombstones_per_slot()
        {
            self.flush_tombstones()?;
        }
        Ok(())
    }

    /// Writes all pending tombstones into tombstone slots.
    // lint: hot-path
    fn flush_tombstones(&mut self) -> Result<()> {
        if self.cfg.placement != Placement::LogStructured {
            self.pending_tombstones.clear();
            return Ok(());
        }
        let per_slot = self.tombstones_per_slot();
        while !self.pending_tombstones.is_empty() {
            // The batch is drained before ensure_open: GC under it can
            // append carried tombstones to `pending_tombstones`, and
            // those must go into *later* batches. If no segment can be
            // opened, the drained batch is lost with the failed flush;
            // the manager is out of space and the error is terminal for
            // the operation that triggered the flush.
            let take = per_slot.min(self.pending_tombstones.len());
            let batch = self.table.tomb_batch(&mut self.pending_tombstones, take);
            let seg = match self.ensure_open(SegClass::Write, true) {
                Ok(seg) => seg,
                Err(e) => {
                    self.table.recycle_tomb_batch(batch);
                    return Err(e);
                }
            };
            let now = self.now();
            let slot = self.table.append_tomb(seg, batch, now);
            let addr = self.table.slot_addr(seg, slot);
            self.ckpt.mark_dirtied(seg);
            // Tombstone slots are real programs: zeroed payload of records.
            let data = self.pool.take_zeroed();
            let programmed = self.flash.program_async(addr, &data);
            self.pool.put(data);
            programmed?;
            self.metrics.summary_flash_pages += 1;
        }
        Ok(())
    }

    /// Writes a checkpoint: a snapshot of the flash-resident map into the
    /// ping-pong area, bounding the recovery scan.
    ///
    /// # Errors
    ///
    /// Propagates device errors other than checkpoint-block wear-out
    /// (which permanently disables checkpointing instead).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_alive()?;
        if self.cfg.placement != Placement::LogStructured || self.ckpt.disabled {
            return Ok(());
        }
        let start = self.now();
        let e0 = self.span_energy_mark();
        let target = 1 - self.ckpt.active;
        let block = ssmc_device::BlockId(target as u32);
        match self.flash.erase_async(block) {
            Ok(_) => {}
            Err(DeviceError::WornOut { .. }) | Err(DeviceError::BadBlock { .. }) => {
                self.ckpt.disabled = true;
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        }
        let entries = self.map.flash_pages() as u64;
        let bytes = (entries * RECORD_BYTES).max(RECORD_BYTES);
        let pages = bytes.div_ceil(self.cfg.page_size);
        let max_pages = self.cfg.flash.block_bytes / self.cfg.page_size;
        let pages = pages.min(max_pages);
        let base = target as u64 * self.cfg.flash.block_bytes;
        let data = self.pool.take_zeroed();
        for i in 0..pages {
            self.flash
                .program_async(base + i * self.cfg.page_size, &data)?;
            self.metrics.checkpoint_flash_pages += 1;
        }
        self.pool.put(data);
        self.ckpt.active = target;
        self.ckpt.valid = true;
        self.ckpt.pages = pages;
        self.ckpt.dirtied.fill(false);
        self.ckpt.last = self.now();
        self.recorder.emit(|| Span {
            kind: EventKind::StorageCheckpoint,
            start,
            end: self.clock.now(),
            energy: Energy::from_nanojoules(
                self.flash.total_energy().as_nanojoules() - e0.as_nanojoules(),
            ),
            pages,
            bytes: pages * self.cfg.page_size,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash and recovery
    // ------------------------------------------------------------------

    /// Simulates total battery death: DRAM contents (dirty pages, the page
    /// map, pending tombstones) are gone. All operations fail until
    /// [`StorageManager::recover`] is called.
    pub fn crash(&mut self) {
        self.crash_buffered.clear();
        self.buffer.pages_into(&mut self.crash_buffered);
        self.crash_pending_tombs.clear();
        self.crash_pending_tombs
            .extend(self.pending_tombstones.drain(..).map(|(p, _)| p));
        // The shielded stale copies stop being shadows the moment the
        // buffered replacements die with the DRAM: recovery will pick
        // them up as ordinary live slots (highest surviving sequence).
        // `buffer.clear()` drops the shadows with their frames.
        self.buffer.clear();
        self.map.clear();
        self.dram.lose_contents();
        self.flash.power_cycle();
        self.open_write = None;
        self.open_cold = None;
        self.crashed = true;
    }

    /// Rebuilds the page map from flash after a battery death and charges
    /// the realistic scan cost.
    ///
    /// # Errors
    ///
    /// Propagates device read errors during the scan.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if !self.crashed {
            return Ok(RecoveryReport {
                recovered_pages: self.map.len() as u64,
                lost_pages: 0,
                reverted_pages: 0,
                resurrected_pages: 0,
                duration: SimDuration::ZERO,
                used_checkpoint: false,
                invalidated_slots: 0,
                scrubbed_segments: 0,
            });
        }
        let start = self.now();
        self.dram.reinitialise();
        let used_checkpoint = self.ckpt.valid && !self.ckpt.disabled;

        match self.cfg.placement {
            Placement::LogStructured => {
                // Charge the scan: with a checkpoint, read it plus the
                // headers of segments dirtied since; without, read every
                // programmed slot header in the log.
                let mut header = [0u8; RECORD_BYTES as usize];
                if used_checkpoint {
                    let base = self.ckpt.active as u64 * self.cfg.flash.block_bytes;
                    let mut page = self.pool.take();
                    for i in 0..self.ckpt.pages {
                        self.flash.read(base + i * self.cfg.page_size, &mut page)?;
                    }
                    self.pool.put(page);
                    // Ascending scan over the bitmap: the same order the
                    // old sorted-set iteration charged reads in. Cover
                    // first: segments past the snapshot-time bitmap are
                    // conservatively dirty, never silently clean.
                    self.ckpt.cover(self.table.len());
                    for seg in 0..self.table.len() {
                        if !self.ckpt.is_dirtied(seg) {
                            continue;
                        }
                        let n = self.table.seg(seg).next_slot;
                        for slot in 0..n {
                            let addr = self.table.slot_addr(seg, slot);
                            self.flash.read(addr, &mut header)?;
                        }
                    }
                } else {
                    for seg in 0..self.table.len() {
                        if matches!(
                            self.table.seg(seg).state,
                            SegState::Free | SegState::Retired
                        ) {
                            continue;
                        }
                        let n = self.table.seg(seg).next_slot;
                        for slot in 0..n {
                            let addr = self.table.slot_addr(seg, slot);
                            self.flash.read(addr, &mut header)?;
                        }
                    }
                }
                // A power cut can tear the program that was in flight:
                // the slot header landed in the table but the flash holds
                // a partial (or garbage) payload. Check every programmed
                // slot's payload against the CRC carried in its header
                // and drop the ones that fail before rebuilding liveness,
                // so a torn write can never surface as a corrupt page.
                let invalidated = self.validate_slot_crcs();
                let (live, max_seq) = self.table.recover_liveness();
                // Defensive scrub: a Free segment whose block is not
                // actually erased (a torn erase) would fault the next
                // program placed on it. Re-issue or retire such blocks.
                let scrubbed = self.scrub_torn_erases()?;
                let recovered = live.len() as u64;
                let mut resurrected = 0u64;
                for page in &self.crash_pending_tombs {
                    if live.contains_key(page) {
                        resurrected += 1;
                    }
                }
                let mut lost = 0u64;
                let mut reverted = 0u64;
                for page in &self.crash_buffered {
                    if live.contains_key(page) {
                        reverted += 1;
                    } else {
                        lost += 1;
                    }
                }
                for (page, addr) in live {
                    self.map.set(page, Location::Flash(addr));
                }
                self.map.restore_seq(max_seq);
                self.crashed = false;
                self.crash_buffered.clear();
                self.crash_pending_tombs.clear();
                self.metrics.dirty_exposure.set(self.now(), 0.0);
                self.metrics.buffer_occupancy.set(self.now(), 0.0);
                Ok(RecoveryReport {
                    recovered_pages: recovered,
                    lost_pages: lost,
                    reverted_pages: reverted,
                    resurrected_pages: resurrected,
                    duration: self.now().since(start),
                    used_checkpoint,
                    invalidated_slots: invalidated,
                    scrubbed_segments: scrubbed,
                })
            }
            Placement::InPlace => {
                // Identity layout: any non-erased home is a live page.
                let base = RESERVED_BLOCKS as u64 * self.cfg.flash.block_bytes;
                let capacity = (self.flash.capacity() - base) / self.cfg.page_size;
                let mut header = [0u8; RECORD_BYTES as usize];
                let mut recovered = 0u64;
                for page in 0..capacity {
                    let home = base + page * self.cfg.page_size;
                    self.flash.read(home, &mut header)?;
                    if !self.flash.is_erased(home, self.cfg.page_size) {
                        self.map.set(page, Location::Flash(home));
                        recovered += 1;
                    }
                }
                let lost = self.crash_buffered.len() as u64;
                self.crashed = false;
                self.crash_buffered.clear();
                Ok(RecoveryReport {
                    recovered_pages: recovered,
                    lost_pages: lost,
                    reverted_pages: 0,
                    resurrected_pages: 0,
                    duration: self.now().since(start),
                    used_checkpoint: false,
                    invalidated_slots: 0,
                    scrubbed_segments: 0,
                })
            }
        }
    }

    /// Discards every programmed slot whose flash payload fails the CRC
    /// recorded in its header — the footprint of a program torn by power
    /// loss. Runs before `recover_liveness`, which recomputes live/dead
    /// counts from scratch and skips `Empty` slots, so invalidation here
    /// is safe. The byte inspection is free of charged reads: its cost
    /// is folded into the per-header read charge of the recovery scan.
    fn validate_slot_crcs(&mut self) -> u64 {
        let ps = self.cfg.page_size as usize;
        let mut bad: Vec<(usize, usize)> = Vec::new();
        {
            let contents = self.flash.contents();
            for seg in 0..self.table.len() {
                if matches!(
                    self.table.seg(seg).state,
                    SegState::Free | SegState::Retired | SegState::ErasePending
                ) {
                    continue;
                }
                let n = self.table.seg(seg).next_slot;
                for slot in 0..n {
                    let expect = match &self.table.seg(seg).slots[slot] {
                        Slot::Live(m) | Slot::Dead(m) => m.crc,
                        Slot::Tomb(_) => self.zero_crc,
                        Slot::Empty => continue,
                    };
                    let addr = self.table.slot_addr(seg, slot) as usize;
                    let mut torn = crc::crc32(&contents[addr..addr + ps]) != expect;
                    // The canary feature plants a recovery bug on purpose:
                    // torn payloads are accepted as valid, which the CI
                    // torture smoke must catch as a durability violation.
                    torn = torn && !cfg!(feature = "recovery-fault-canary");
                    if torn {
                        bad.push((seg, slot));
                    }
                }
            }
        }
        for &(seg, slot) in &bad {
            self.table.invalidate_slot(seg, slot);
        }
        bad.len() as u64
    }

    /// Re-erases (or retires) Free segments whose blocks read back
    /// partially programmed — the footprint of an erase torn by power
    /// loss. In the current device model an armed cut fires *before* the
    /// erase applies (the segment stays out of Free), so this path is
    /// defensive depth for any future device where erasure is destructive
    /// mid-flight.
    fn scrub_torn_erases(&mut self) -> Result<u64> {
        let mut scrubbed = 0u64;
        for seg in 0..self.table.len() {
            if self.table.seg(seg).state != SegState::Free {
                continue;
            }
            let addr = self.table.block_addr(seg);
            if self.flash.is_erased(addr, self.cfg.flash.block_bytes) {
                continue;
            }
            let block = self.flash.block_of(addr);
            match self.flash.erase_async(block) {
                Ok(done) => {
                    self.table.scrub_erase(seg, done);
                    scrubbed += 1;
                }
                Err(DeviceError::WornOut { .. }) | Err(DeviceError::BadBlock { .. }) => {
                    self.table.retire_free(seg);
                    scrubbed += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(scrubbed)
    }

    // ------------------------------------------------------------------
    // Power-cut injection (crash-torture harness)
    // ------------------------------------------------------------------

    /// Arms a simulated power cut at the `boundary`-th flash program or
    /// erase (1-based, counted from device creation), with the given
    /// tear mode. Passthrough to `Flash::arm_power_cut` for the torture
    /// harness.
    pub fn arm_power_cut(&mut self, boundary: u64, tear: TearMode) {
        self.flash.arm_power_cut(boundary, tear);
    }

    /// Whether an armed power cut has fired. Sample this *before*
    /// [`StorageManager::crash`]: the power cycle inside `crash` clears
    /// the plan and the fired flag.
    pub fn power_cut_fired(&self) -> bool {
        self.flash.power_cut_fired()
    }

    /// Flash program/erase boundaries issued so far — the coordinate
    /// system of [`StorageManager::arm_power_cut`].
    pub fn boundary_ops(&self) -> u64 {
        self.flash.boundary_ops()
    }

    /// Bytes of synced-visible state currently held only in DRAM: dirty
    /// buffer pages plus pending tombstone records. This is the paper
    /// §3.1 "data at risk" quantity — what a battery death right now
    /// would expose to loss or resurrection.
    pub fn data_at_risk_bytes(&self) -> u64 {
        self.buffer.len() as u64 * self.cfg.page_size
            + self.pending_tombstones.len() as u64 * RECORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;

    fn small_cfg() -> StorageConfig {
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
            ..StorageConfig::default()
        }
    }

    fn manager() -> (StorageManager, SharedClock) {
        let clock = Clock::shared();
        (StorageManager::new(small_cfg(), clock.clone()), clock)
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; 512]
    }

    #[test]
    fn write_read_round_trip_via_buffer() {
        let (mut m, _) = manager();
        m.write_page(7, &page_of(0xAA)).expect("write");
        let mut buf = page_of(0);
        m.read_page(7, &mut buf).expect("read");
        assert_eq!(buf, page_of(0xAA));
        assert_eq!(m.metrics().reads_from_dram, 1);
        assert_eq!(m.metrics().user_flash_pages, 0, "nothing flushed yet");
    }

    #[test]
    fn sync_moves_pages_to_flash() {
        let (mut m, _) = manager();
        m.write_page(1, &page_of(0x11)).expect("write");
        m.write_page(2, &page_of(0x22)).expect("write");
        m.sync().expect("sync");
        assert_eq!(m.metrics().user_flash_pages, 2);
        let mut buf = page_of(0);
        m.read_page(1, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x11));
        assert_eq!(m.metrics().reads_from_flash, 1);
    }

    #[test]
    fn overwrites_are_absorbed_in_dram() {
        let (mut m, _) = manager();
        for i in 0..10 {
            m.write_page(5, &page_of(i)).expect("write");
        }
        assert_eq!(m.metrics().pages_written, 10);
        assert_eq!(m.metrics().overwrites_absorbed, 9);
        assert_eq!(m.metrics().user_flash_pages, 0);
        assert!(m.metrics().write_traffic_reduction() > 0.99);
    }

    #[test]
    fn freeing_buffered_page_cancels_its_write() {
        let (mut m, _) = manager();
        m.write_page(3, &page_of(1)).expect("write");
        m.free_page(3).expect("free");
        m.sync().expect("sync");
        assert_eq!(m.metrics().user_flash_pages, 0);
        assert_eq!(m.metrics().deaths_absorbed, 1);
        assert!(!m.contains(3));
        // Reads now see a hole.
        let mut buf = page_of(9);
        m.read_page(3, &mut buf).expect("hole read");
        assert_eq!(buf, page_of(0));
        assert_eq!(m.metrics().hole_reads, 1);
    }

    #[test]
    fn hole_reads_return_zeros() {
        let (mut m, _) = manager();
        let mut buf = page_of(7);
        m.read_page(1234, &mut buf).expect("hole");
        assert_eq!(buf, page_of(0));
    }

    #[test]
    fn buffer_overflow_spills_coldest_to_flash() {
        let (mut m, _) = manager();
        // Buffer holds 16 frames; write 40 distinct pages.
        for p in 0..40u64 {
            m.write_page(p, &page_of(p as u8)).expect("write");
        }
        assert!(m.metrics().user_flash_pages > 0);
        // Everything still reads back correctly from wherever it lives.
        let mut buf = page_of(0);
        for p in 0..40u64 {
            m.read_page(p, &mut buf).expect("read");
            assert_eq!(buf[0], p as u8, "page {p}");
        }
    }

    #[test]
    fn gc_reclaims_dead_segments_under_churn() {
        let (mut m, clock) = manager();
        // 14 segments of 8 slots each minus utilisation cap: keep ~20
        // pages live but rewrite them many times to force log churn + GC.
        for round in 0..40u64 {
            for p in 0..20u64 {
                m.write_page(p, &page_of((round + p) as u8)).expect("write");
            }
            m.sync().expect("sync");
            clock.advance(SimDuration::from_secs(1));
            m.tick().expect("tick");
        }
        assert!(m.metrics().gc_runs > 0, "GC never ran");
        assert!(m.flash().counters().erases > 0);
        // Data integrity after all that churn.
        let mut buf = page_of(0);
        for p in 0..20u64 {
            m.read_page(p, &mut buf).expect("read");
            assert_eq!(buf[0], (39 + p) as u8, "page {p}");
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut m, _) = manager();
        let cap = m.page_capacity();
        let mut wrote = 0u64;
        let data = page_of(1);
        for p in 0.. {
            match m.write_page(p, &data) {
                Ok(()) => wrote += 1,
                Err(StorageError::NoSpace) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            if wrote > cap + 10 {
                panic!("capacity never enforced");
            }
        }
        assert_eq!(wrote, cap);
        // Freeing makes room again.
        m.free_page(0).expect("free");
        m.write_page(100_000, &data).expect("write after free");
    }

    #[test]
    fn write_through_mode_bypasses_buffer() {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            dram_buffer_bytes: 0,
            ..small_cfg()
        };
        let mut m = StorageManager::new(cfg, clock);
        m.write_page(1, &page_of(0x33)).expect("write");
        assert_eq!(m.metrics().user_flash_pages, 1);
        assert!((m.metrics().write_traffic_reduction()).abs() < 1e-12);
        let mut buf = page_of(0);
        m.read_page(1, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x33));
    }

    #[test]
    fn crash_loses_dirty_data_and_recovery_restores_flushed() {
        let (mut m, _) = manager();
        m.write_page(1, &page_of(0x11)).expect("write");
        m.sync().expect("sync");
        m.write_page(1, &page_of(0x99)).expect("rewrite (dirty)");
        m.write_page(2, &page_of(0x22))
            .expect("write (dirty, never flushed)");
        m.crash();
        assert!(matches!(
            m.read_page(1, &mut page_of(0)),
            Err(StorageError::Crashed)
        ));
        let report = m.recover().expect("recover");
        assert_eq!(report.reverted_pages, 1, "page 1 reverts to 0x11");
        assert_eq!(report.lost_pages, 1, "page 2 is gone");
        assert_eq!(report.recovered_pages, 1);
        let mut buf = page_of(0);
        m.read_page(1, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x11), "recovered the flushed version");
        m.read_page(2, &mut buf).expect("hole read");
        assert_eq!(buf, page_of(0));
    }

    #[test]
    fn tombstones_keep_deletes_dead_through_recovery() {
        let (mut m, _) = manager();
        m.write_page(5, &page_of(0x55)).expect("write");
        m.sync().expect("sync");
        m.free_page(5).expect("free (flash-resident)");
        // Make the tombstone durable.
        m.sync().expect("sync tombstones");
        m.crash();
        let report = m.recover().expect("recover");
        assert!(!m.contains(5), "deleted page must stay dead");
        assert_eq!(report.resurrected_pages, 0);
    }

    #[test]
    fn unflushed_tombstone_resurrects_page() {
        let (mut m, _) = manager();
        m.write_page(5, &page_of(0x55)).expect("write");
        m.sync().expect("sync");
        m.free_page(5).expect("free");
        // Crash before the tombstone is durable.
        m.crash();
        let report = m.recover().expect("recover");
        assert_eq!(report.resurrected_pages, 1);
        assert!(m.contains(5), "page resurrects without its tombstone");
    }

    #[test]
    fn recovery_with_checkpoint_is_faster() {
        let run = |checkpointing: bool| -> SimDuration {
            let clock = Clock::shared();
            let cfg = StorageConfig {
                checkpointing,
                ..small_cfg()
            };
            let mut m = StorageManager::new(cfg, clock.clone());
            // Churn the log so a full header scan has plenty to read.
            for round in 0..5u64 {
                for p in 0..80u64 {
                    m.write_page(p, &page_of((round + p) as u8)).expect("write");
                }
                m.sync().expect("sync");
                clock.advance(SimDuration::from_secs(1));
                m.tick().expect("tick");
            }
            if checkpointing {
                m.checkpoint().expect("checkpoint");
            }
            m.crash();
            m.recover().expect("recover").duration
        };
        let with = run(true);
        let without = run(false);
        assert!(with < without, "checkpoint {with} vs scan {without}");
    }

    #[test]
    fn in_place_mode_round_trips_and_amplifies() {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            placement: Placement::InPlace,
            wear_leveling: WearLeveling::None,
            ..small_cfg()
        };
        let mut m = StorageManager::new(cfg, clock);
        // Fill one erase block's worth of pages and flush.
        for p in 0..8u64 {
            m.write_page(p, &page_of(p as u8)).expect("write");
        }
        m.sync().expect("sync");
        assert_eq!(m.flash().counters().erases, 0, "fresh block needs no erase");
        // Rewrite one page: forces read-modify-write of the block.
        m.write_page(0, &page_of(0xFF)).expect("rewrite");
        m.sync().expect("sync");
        assert!(m.flash().counters().erases >= 1);
        assert!(m.metrics().gc_flash_pages >= 7, "co-residents rewritten");
        let mut buf = page_of(0);
        m.read_page(0, &mut buf).expect("read");
        assert_eq!(buf, page_of(0xFF));
        m.read_page(3, &mut buf).expect("read survivor");
        assert_eq!(buf, page_of(3));
    }

    #[test]
    fn read_mostly_partition_sends_gc_survivors_to_read_banks() {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            bank_policy: BankPolicy::ReadMostlyPartition { read_banks: 1 },
            ..small_cfg()
        };
        let mut m = StorageManager::new(cfg, clock.clone());
        for round in 0..40u64 {
            for p in 0..20u64 {
                m.write_page(p, &page_of((round + p) as u8)).expect("write");
            }
            m.sync().expect("sync");
            clock.advance(SimDuration::from_secs(1));
            m.tick().expect("tick");
        }
        assert!(m.metrics().gc_runs > 0);
        // The cold head, when present, must sit in the read-mostly bank;
        // under memory pressure the write head may temporarily fall back,
        // but the cold class never should while bank-0 segments are free.
        if let Some(seg) = m.open_cold {
            assert_eq!(m.bank_of_seg(seg), 0, "cold head outside read bank");
        }
        // Data integrity after partitioned churn.
        let mut buf = page_of(0);
        for p in 0..20u64 {
            m.read_page(p, &mut buf).expect("read");
            assert_eq!(buf[0], (39 + p) as u8, "page {p}");
        }
    }

    #[test]
    fn wear_leveling_reduces_spread_under_skew() {
        let run = |wl: WearLeveling| -> f64 {
            let clock = Clock::shared();
            let cfg = StorageConfig {
                wear_leveling: wl,
                flush: crate::config::FlushPolicy {
                    age_limit: SimDuration::from_secs(1),
                    ..Default::default()
                },
                ..small_cfg()
            };
            let mut m = StorageManager::new(cfg, clock.clone());
            // Cold data: 40 pages written once.
            for p in 0..40u64 {
                m.write_page(p, &page_of(1)).expect("write");
            }
            m.sync().expect("sync");
            // Hot data: 4 pages rewritten constantly.
            for round in 0..400u64 {
                for p in 100..104u64 {
                    m.write_page(p, &page_of(round as u8)).expect("write");
                }
                m.sync().expect("sync");
                clock.advance(SimDuration::from_secs(2));
                m.tick().expect("tick");
            }
            m.flash().wear_stats().evenness()
        };
        let without = run(WearLeveling::None);
        let with = run(WearLeveling::Static { threshold: 8 });
        assert!(
            with > without,
            "static WL should even wear: {with} vs {without}"
        );
    }

    #[test]
    fn metrics_track_buffer_occupancy() {
        let (mut m, clock) = manager();
        m.write_page(1, &page_of(1)).expect("write");
        clock.advance(SimDuration::from_secs(10));
        m.tick().expect("tick");
        assert!(m.metrics().buffer_occupancy.peak() >= 1.0);
    }

    #[test]
    fn age_based_flush_writes_back_cold_pages() {
        let (mut m, clock) = manager();
        m.write_page(1, &page_of(1)).expect("write");
        clock.advance(SimDuration::from_secs(60));
        m.tick().expect("tick");
        assert_eq!(m.metrics().user_flash_pages, 1, "cold page flushed by age");
        // A freshly rewritten page is hot again and stays.
        m.write_page(1, &page_of(2)).expect("rewrite");
        clock.advance(SimDuration::from_secs(10));
        m.tick().expect("tick");
        assert_eq!(m.metrics().user_flash_pages, 1, "hot page not flushed");
    }

    // --------------------------------------------------------------
    // Crash-torture regression pins
    // --------------------------------------------------------------

    /// Regression: the dirtied bitmap used to be indexed blindly on the
    /// write path and defaulted out-of-range segments to *clean* on the
    /// recovery path — a segment past the checkpoint-time bitmap length
    /// was silently skipped by the bounded scan. Growth must resize the
    /// bitmap and out-of-range queries must default to dirty.
    #[test]
    fn dirtied_bitmap_grows_conservatively_past_checkpoint_size() {
        let mut ck = CkptState {
            active: 0,
            valid: true,
            pages: 1,
            dirtied: vec![false; 2],
            last: SimTime::ZERO,
            disabled: false,
        };
        ck.mark_dirtied(1);
        assert!(ck.is_dirtied(1));
        assert!(!ck.is_dirtied(0));
        // Mark past the checkpoint-time size: the bitmap grows, and the
        // gap segments (2..=4) default to dirty, never silently clean.
        ck.mark_dirtied(5);
        assert_eq!(ck.dirtied.len(), 6);
        assert!(ck.is_dirtied(5));
        assert!(ck.is_dirtied(3), "gap segment must default dirty");
        assert!(!ck.is_dirtied(0), "explicitly clean segments stay clean");
    }

    /// End-to-end version: a checkpoint-time bitmap shorter than the
    /// segment table (simulating growth) must neither panic on the next
    /// flush nor lose segments from the post-crash scan.
    #[test]
    fn recovery_survives_bitmap_shorter_than_table() {
        let (mut m, _) = manager();
        m.write_page(1, &page_of(0x11)).expect("write");
        m.sync().expect("sync");
        m.checkpoint().expect("checkpoint");
        // Simulate a table that grew after the checkpoint snapshot.
        m.ckpt.dirtied.truncate(1);
        for p in 0..24u64 {
            m.write_page(p, &page_of(p as u8)).expect("write");
        }
        m.sync().expect("sync");
        m.crash();
        let report = m.recover().expect("recover");
        assert!(report.used_checkpoint);
        let mut buf = page_of(0);
        for p in 0..24u64 {
            m.read_page(p, &mut buf).expect("read");
            assert_eq!(buf, page_of(p as u8), "page {p}");
        }
    }

    /// Satellite 2: once a checkpoint block wears out mid-run, recovery
    /// must fall back to the full scan and never consult the stale (but
    /// still `valid`) snapshot.
    #[test]
    fn recovery_after_checkpoint_wearout_full_scans() {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            flash: FlashSpec {
                banks: 2,
                blocks_per_bank: 8,
                block_bytes: 4096,
                write_unit: 512,
                endurance: 2,
                ..FlashSpec::default()
            },
            ..small_cfg()
        };
        let mut m = StorageManager::new(cfg, clock);
        m.write_page(1, &page_of(0x11)).expect("write");
        m.sync().expect("sync");
        // Ping-pong wears each checkpoint block in turn; with endurance
        // 2 the fifth checkpoint hits a worn block and disables the
        // mechanism for good.
        for _ in 0..5 {
            m.checkpoint().expect("checkpoint");
        }
        assert!(m.ckpt.disabled, "checkpoint area should wear out");
        assert!(m.ckpt.valid, "a stale snapshot still exists");
        // Data written after the wear-out exists only in the log.
        m.write_page(2, &page_of(0x22)).expect("write");
        m.sync().expect("sync");
        m.crash();
        let report = m.recover().expect("recover");
        assert!(!report.used_checkpoint, "stale checkpoint must be ignored");
        let mut buf = page_of(0);
        m.read_page(1, &mut buf).expect("read old");
        assert_eq!(buf, page_of(0x11));
        m.read_page(2, &mut buf).expect("read new");
        assert_eq!(buf, page_of(0x22));
    }

    /// Satellite 3a: successive checkpoints alternate between the two
    /// reserved blocks so a crash mid-write always leaves the previous
    /// snapshot intact.
    #[test]
    fn checkpoint_blocks_alternate_ping_pong() {
        let (mut m, _) = manager();
        m.write_page(1, &page_of(1)).expect("write");
        m.sync().expect("sync");
        assert_eq!(m.ckpt.active, 0, "block 0 active before any checkpoint");
        m.checkpoint().expect("checkpoint");
        assert_eq!(m.ckpt.active, 1);
        m.checkpoint().expect("checkpoint");
        assert_eq!(m.ckpt.active, 0);
        m.checkpoint().expect("checkpoint");
        assert_eq!(m.ckpt.active, 1);
        assert_eq!(m.flash.erase_count(ssmc_device::BlockId(0)), 1);
        assert_eq!(m.flash.erase_count(ssmc_device::BlockId(1)), 2);
    }

    /// Satellite 3b: a power cut during `checkpoint()` — either in the
    /// target block's erase or its first program — must leave the
    /// previous block's snapshot recoverable.
    #[test]
    fn torn_checkpoint_leaves_previous_snapshot_recoverable() {
        for cut_offset in [1u64, 2u64] {
            let (mut m, _) = manager();
            for p in 0..8u64 {
                m.write_page(p, &page_of(p as u8)).expect("write");
            }
            m.sync().expect("sync");
            m.checkpoint().expect("checkpoint");
            assert_eq!(m.ckpt.active, 1);
            m.write_page(8, &page_of(8)).expect("write");
            m.sync().expect("sync");
            // Offset 1 cuts the erase of block 0; offset 2 lets the
            // erase through and tears the first snapshot program.
            m.arm_power_cut(m.boundary_ops() + cut_offset, TearMode::Prefix);
            let err = m.checkpoint().expect_err("checkpoint hits the cut");
            assert!(matches!(
                err,
                StorageError::Device(DeviceError::PowerCut { .. })
            ));
            assert!(m.power_cut_fired());
            assert_eq!(m.ckpt.active, 1, "state only advances after success");
            m.crash();
            let report = m.recover().expect("recover");
            assert!(report.used_checkpoint, "previous snapshot still bounds");
            let mut buf = page_of(0);
            for p in 0..9u64 {
                m.read_page(p, &mut buf).expect("read");
                assert_eq!(buf, page_of(p as u8), "cut_offset {cut_offset} page {p}");
            }
        }
    }

    /// Regression for the torn-erase resurrection bug: a tombstone whose
    /// page still has a stale copy elsewhere must be durably re-logged
    /// *before* its segment is erased. The pre-fix code carried it on
    /// the DRAM pending list, so a crash between the erase and the next
    /// tombstone flush resurrected a synced delete.
    #[test]
    fn carried_tombstone_survives_erase_of_its_segment() {
        let (mut m, _) = manager();
        // Fill one segment with pages 0..8, then delete page 3 and sync
        // the tombstone: the data segment keeps a dead copy of page 3,
        // the tombstone lands in the cold segment.
        for p in 0..8u64 {
            m.write_page(p, &page_of(p as u8)).expect("write");
        }
        m.sync().expect("sync");
        m.free_page(3).expect("free");
        m.sync().expect("sync tombstone");
        assert!(m.table.has_dead_copies(3));
        let tomb_seg = m
            .open_write
            .expect("tombstone flush opened a fresh write segment");
        assert_eq!(m.table.seg(tomb_seg).live, 0, "tomb-only segment");
        // Drain the tombstone segment (no live pages) and erase it, the
        // way GC would after its data died.
        m.table.close(tomb_seg);
        m.open_write = None;
        m.retire_or_erase(tomb_seg).expect("erase");
        // Crash before any later tombstone flush could run.
        m.crash();
        m.recover().expect("recover");
        assert!(
            !m.contains(3),
            "synced delete resurrected: tombstone died with its segment"
        );
        for p in [0u64, 1, 2, 4, 5, 6, 7] {
            assert!(m.contains(p), "page {p} must survive");
        }
    }

    /// A program torn by power loss must be detected by the slot CRC and
    /// the page reverted to its last synced version.
    #[test]
    fn torn_data_program_is_detected_and_reverted() {
        for tear in [TearMode::Prefix, TearMode::Stripe] {
            let (mut m, _) = manager();
            m.write_page(7, &page_of(0x11)).expect("write");
            m.sync().expect("sync v1");
            m.write_page(7, &page_of(0x99)).expect("rewrite");
            m.arm_power_cut(m.boundary_ops() + 1, tear);
            m.sync().expect_err("flush hits the cut");
            assert!(m.power_cut_fired());
            m.crash();
            let report = m.recover().expect("recover");
            assert_eq!(report.invalidated_slots, 1, "{tear:?}");
            let mut buf = page_of(0);
            m.read_page(7, &mut buf).expect("read");
            assert_eq!(buf, page_of(0x11), "{tear:?}: reverts to synced v1");
        }
    }

    /// A clean (untorn) cut leaves the in-flight slot header without its
    /// payload bytes; recovery must invalidate it the same way.
    #[test]
    fn clean_cut_slot_is_invalidated_too() {
        let (mut m, _) = manager();
        m.write_page(7, &page_of(0x11)).expect("write");
        m.sync().expect("sync v1");
        m.write_page(7, &page_of(0x99)).expect("rewrite");
        m.arm_power_cut(m.boundary_ops() + 1, TearMode::Clean);
        m.sync().expect_err("flush hits the cut");
        m.crash();
        let report = m.recover().expect("recover");
        assert_eq!(report.invalidated_slots, 1);
        let mut buf = page_of(0);
        m.read_page(7, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x11));
    }

    /// Defensive scrub: a Free segment whose block reads back partially
    /// programmed (a torn erase under a destructive-erase device model)
    /// must be re-erased during recovery, not handed out as-is.
    #[test]
    fn recovery_scrubs_partially_programmed_free_segment() {
        let (mut m, _) = manager();
        m.write_page(1, &page_of(0x11)).expect("write");
        m.sync().expect("sync");
        // Plant garbage directly on a Free segment's block, simulating
        // the residue of a half-applied erase.
        let free_seg = (0..m.table.len())
            .find(|&s| m.table.seg(s).state == SegState::Free)
            .expect("a free segment exists");
        let addr = m.table.block_addr(free_seg);
        m.flash
            .program_async(addr, &page_of(0xEE))
            .expect("plant residue");
        m.crash();
        let report = m.recover().expect("recover");
        assert_eq!(report.scrubbed_segments, 1);
        assert_eq!(
            m.table.seg(free_seg).state,
            SegState::ErasePending,
            "scrub re-erases the residue block"
        );
    }

    /// §3.1's data-at-risk quantity: dirty buffer pages plus pending
    /// tombstone records, in bytes; zero right after a sync.
    #[test]
    fn data_at_risk_tracks_unsynced_state() {
        let (mut m, _) = manager();
        assert_eq!(m.data_at_risk_bytes(), 0);
        m.write_page(1, &page_of(1)).expect("write");
        m.write_page(2, &page_of(2)).expect("write");
        assert_eq!(m.data_at_risk_bytes(), 2 * 512);
        m.sync().expect("sync");
        assert_eq!(m.data_at_risk_bytes(), 0);
        m.free_page(1).expect("free");
        assert_eq!(m.data_at_risk_bytes(), RECORD_BYTES);
        m.sync().expect("sync");
        assert_eq!(m.data_at_risk_bytes(), 0);
    }

    /// Counts Live slots for `page` across the whole segment table.
    fn live_copies(m: &StorageManager, page: PageId) -> usize {
        (0..m.table.len())
            .flat_map(|s| m.table.seg(s).slots.iter())
            .filter(|slot| matches!(slot, Slot::Live(meta) if meta.page == page))
            .count()
    }

    /// The shielded stale-copy address recorded for `page`'s buffer
    /// frame, if the page is dirty and carries one.
    fn shadow_of(m: &StorageManager, page: PageId) -> Option<u64> {
        match m.map.get(page) {
            Some(Location::Dram(frame)) => m.buffer.shadow_get(frame),
            _ => None,
        }
    }

    /// Regression (crash-torture sweep, BSD seed 0x0C0F_FEE5, cuts
    /// 7736-7998): rewriting a flash-resident page into the DRAM buffer
    /// used to kill its durable slot immediately, leaving the segment
    /// fully dead while the only current copy was still volatile. The
    /// shadow shield must keep the stale copy Live until the
    /// replacement is programmed.
    #[test]
    fn dirty_rewrite_shields_stale_durable_copy() {
        let (mut m, _) = manager();
        m.write_page(9, &page_of(0x01)).expect("write v1");
        m.sync().expect("sync v1");
        assert_eq!(live_copies(&m, 9), 1);
        // Dirty rewrite: the durable v1 slot must stay Live (shadowed),
        // even though the page map now points at DRAM.
        m.write_page(9, &page_of(0x02)).expect("rewrite");
        assert_eq!(m.map.get(9), Some(Location::Dram(0)));
        assert_eq!(live_copies(&m, 9), 1, "stale copy eagerly killed");
        assert!(shadow_of(&m, 9).is_some());
        // Flushing the replacement retires the shadow: exactly one Live
        // copy again, and it is the new one.
        m.sync().expect("sync v2");
        assert!(shadow_of(&m, 9).is_none());
        assert_eq!(live_copies(&m, 9), 1);
        let mut buf = page_of(0);
        m.read_page(9, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x02));
    }

    /// Freeing a dirty page whose stale flash copy is shadow-shielded
    /// must kill the shield *and* queue a tombstone, or recovery
    /// resurrects the stale copy.
    #[test]
    fn free_of_dirty_page_kills_shadow_and_tombstones() {
        let (mut m, _) = manager();
        m.write_page(4, &page_of(0x44)).expect("write");
        m.sync().expect("sync");
        m.write_page(4, &page_of(0x45)).expect("rewrite");
        assert!(shadow_of(&m, 4).is_some());
        m.free_page(4).expect("free");
        assert_eq!(live_copies(&m, 4), 0, "shield must die with the page");
        assert!(
            m.pending_tombstones.iter().any(|&(p, _)| p == 4),
            "dead flash copy needs a tombstone"
        );
        m.sync().expect("sync tombstone");
        m.crash();
        m.recover().expect("recover");
        let mut buf = page_of(0xFF);
        m.read_page(4, &mut buf).expect("read");
        assert_eq!(buf, page_of(0), "freed page resurrected");
    }

    /// The bug the sweep actually caught: a segment whose every page has
    /// been rewritten into the buffer looks fully dead, so GC's
    /// free-lunch path erases it — destroying the only durable copies —
    /// and a crash before the next flush loses synced data. Post-fix the
    /// shadowed slots count as live, GC copies them forward, and
    /// recovery restores v1.
    #[test]
    fn gc_never_erases_shadowed_copies_of_dirty_pages() {
        // A large target makes collect_garbage hungry enough to run
        // unconditionally, without needing organic space pressure.
        let cfg = StorageConfig {
            gc_target_segments: 13,
            ..small_cfg()
        };
        let clock = Clock::shared();
        let mut m = StorageManager::new(cfg, clock);
        // Fill one segment (8 slots) with synced v1 data...
        for p in 0..8 {
            m.write_page(p, &page_of(p as u8 + 1)).expect("write v1");
        }
        m.sync().expect("sync v1");
        // ...and close it by pushing one more page into the next one.
        m.write_page(100, &page_of(0x64)).expect("filler");
        m.sync().expect("sync filler");
        let victim = (0..m.table.len())
            .find(|&s| m.table.seg(s).state == SegState::Closed && m.table.seg(s).live >= 8)
            .expect("v1 segment is closed");
        // Rewrite every page dirty: pre-fix this zeroed the segment's
        // live count, making it free-lunch GC bait.
        for p in 0..8 {
            m.write_page(p, &page_of(p as u8 + 0x11)).expect("rewrite");
        }
        assert_eq!(
            m.table.seg(victim).live,
            8,
            "shadowed copies must stay live"
        );
        m.collect_garbage().expect("gc");
        // Crash with the rewrites still volatile; recovery must land on
        // the synced v1 generation, wherever GC moved it.
        m.crash();
        m.recover().expect("recover");
        for p in 0..8 {
            let mut buf = page_of(0);
            m.read_page(p, &mut buf).expect("read");
            assert_eq!(buf, page_of(p as u8 + 1), "synced v1 of page {p} lost");
        }
    }

    /// Write-through companion bug: the unbuffered log path never killed
    /// the previous slot on rewrite, leaking a stale Live copy that GC
    /// would dutifully copy forward forever (and whose map entry a later
    /// GC pass could clobber).
    #[test]
    fn write_through_rewrite_kills_previous_slot() {
        let cfg = StorageConfig {
            dram_buffer_bytes: 0,
            ..small_cfg()
        };
        let clock = Clock::shared();
        let mut m = StorageManager::new(cfg, clock);
        m.write_page(6, &page_of(0x61)).expect("write v1");
        m.write_page(6, &page_of(0x62)).expect("write v2");
        assert_eq!(live_copies(&m, 6), 1, "stale write-through copy leaked");
        let mut buf = page_of(0);
        m.read_page(6, &mut buf).expect("read");
        assert_eq!(buf, page_of(0x62));
    }
}
