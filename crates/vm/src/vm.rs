//! The VM engine: frame pool, fault handling, and the optional pager.

use crate::error::VmError;
use crate::page_table::{Backing, Pte};
use crate::space::{AddressSpace, MappingKind, Perm};
use crate::Result;
use ssmc_device::{Dram, DramSpec};
use ssmc_sim::obs::{EventKind, MetricSink, Recorder, Span};
use ssmc_sim::{Energy, SharedClock, SimDuration, TimeWeighted};
use ssmc_storage::{PageId, StorageManager};
use std::collections::VecDeque;

/// First logical page id of the swap area. The file system assigns pages
/// below this (inode windows are `ino << 32` with 32-bit inos), so swap
/// slots can never collide with file pages.
pub const SWAP_BASE: PageId = 0xFFFF_FFFF_0000_0000;

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Exec,
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Page size in bytes; must match the storage manager's.
    pub page_size: u64,
    /// DRAM frames available to the VM (data/stack/heap + load copies).
    pub dram_frames: u64,
    /// Timing/energy model of the VM's DRAM.
    pub dram: DramSpec,
    /// Bytes fetched per touch (a cache-line fill).
    pub fetch_bytes: u64,
    /// Page-table walk latency charged per fault.
    pub table_walk: SimDuration,
    /// Allow swapping anonymous pages to storage when frames run out —
    /// the capacity-expansion mode §3.2 expects to become unnecessary.
    pub enable_paging: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            page_size: 512,
            dram_frames: 4096,
            dram: DramSpec::default(),
            fetch_bytes: 64,
            table_walk: SimDuration::from_nanos(400),
            enable_paging: false,
        }
    }
}

impl VmConfig {
    /// Bits of virtual page number for this page size (64 − offset bits).
    pub fn vpn_bits(&self) -> u32 {
        64 - self.page_size.trailing_zeros()
    }
}

/// VM counters.
#[derive(Debug)]
pub struct VmMetrics {
    /// Total page faults.
    pub faults: u64,
    /// Faults resolved without any copy (XIP maps, zero-fill, in-place
    /// file maps).
    pub minor_faults: u64,
    /// Faults that copied a page (demand load, COW, swap-in).
    pub major_faults: u64,
    /// Copy-on-write copies performed.
    pub cow_copies: u64,
    /// Pages copied by demand loading.
    pub pages_loaded: u64,
    /// Pages swapped out.
    pub swap_outs: u64,
    /// Pages swapped back in.
    pub swap_ins: u64,
    /// Frames in use over time.
    pub frames_used: TimeWeighted,
}

/// The virtual memory system.
#[derive(Debug)]
pub struct Vm {
    cfg: VmConfig,
    clock: SharedClock,
    dram: Dram,
    free_frames: Vec<u64>,
    /// FIFO eviction queue of `(asid, vpn, frame)`; stale entries are
    /// skipped at pop time.
    fifo: VecDeque<(u32, u64, u64)>,
    /// Address spaces in a slab indexed by asid. Asids are issued
    /// sequentially from 1 and never reused, so the slab stays dense;
    /// slot 0 is permanently empty.
    spaces: Vec<Option<AddressSpace>>,
    next_asid: u32,
    next_swap_slot: u64,
    metrics: VmMetrics,
    recorder: Recorder,
    scratch: Vec<u8>,
    /// Reusable cache-line buffer for `touch` accesses.
    line: Vec<u8>,
}

impl Vm {
    /// Creates a VM with an empty frame pool of the configured size.
    pub fn new(cfg: VmConfig, clock: SharedClock) -> Self {
        let dram_spec = cfg
            .dram
            .clone()
            .with_capacity((cfg.dram_frames * cfg.page_size).max(cfg.page_size));
        let dram = Dram::new(dram_spec, clock.clone());
        Vm {
            free_frames: (0..cfg.dram_frames).rev().collect(),
            fifo: VecDeque::new(),
            spaces: Vec::new(),
            next_asid: 1,
            next_swap_slot: 0,
            metrics: VmMetrics {
                faults: 0,
                minor_faults: 0,
                major_faults: 0,
                cow_copies: 0,
                pages_loaded: 0,
                swap_outs: 0,
                swap_ins: 0,
                frames_used: TimeWeighted::new(clock.now(), 0.0),
            },
            recorder: Recorder::disabled(),
            scratch: vec![0u8; cfg.page_size as usize],
            line: Vec::new(),
            cfg,
            clock,
            dram,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VmConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn metrics(&self) -> &VmMetrics {
        &self.metrics
    }

    /// Installs an observability recorder; fault and XIP spans land in it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Publishes the `vm.*` counters, frame occupancy, and the VM DRAM's
    /// energy total and ledger.
    pub fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        sink.counter("vm.faults", self.metrics.faults);
        sink.counter("vm.minor_faults", self.metrics.minor_faults);
        sink.counter("vm.major_faults", self.metrics.major_faults);
        sink.counter("vm.cow_copies", self.metrics.cow_copies);
        sink.counter("vm.pages_loaded", self.metrics.pages_loaded);
        sink.counter("vm.swap_outs", self.metrics.swap_outs);
        sink.counter("vm.swap_ins", self.metrics.swap_ins);
        sink.time_weighted("vm.frames_used", &self.metrics.frames_used);
        sink.counter(
            "energy.vm_total_nj",
            self.dram.energy().total().as_nanojoules(),
        );
        sink.ledger("energy.vm_", self.dram.energy());
    }

    /// VM DRAM energy so far, or zero when the recorder is off (avoids
    /// walking the ledger on the hot path).
    fn span_energy_mark(&self) -> Energy {
        if self.recorder.is_enabled() {
            self.dram.energy().total()
        } else {
            Energy::ZERO
        }
    }

    /// The VM's DRAM device (energy accounting).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Charges refresh power for a span of idleness.
    pub fn charge_idle(&mut self, d: SimDuration, self_refresh: bool) {
        self.dram.charge_refresh(d, self_refresh);
    }

    /// Frames currently in use.
    pub fn frames_in_use(&self) -> u64 {
        self.cfg.dram_frames - self.free_frames.len() as u64
    }

    fn note_frames(&mut self) {
        let used = self.frames_in_use() as f64;
        self.metrics.frames_used.set(self.clock.now(), used);
    }

    /// Creates a new protection domain.
    pub fn create_space(&mut self) -> u32 {
        let asid = self.next_asid;
        self.next_asid += 1;
        let idx = asid as usize;
        if self.spaces.len() <= idx {
            self.spaces.resize_with(idx + 1, || None);
        }
        self.spaces[idx] = Some(AddressSpace::new(asid, self.cfg.vpn_bits()));
        asid
    }

    /// Immutable access to a space.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn space(&self, asid: u32) -> Result<&AddressSpace> {
        self.spaces
            .get(asid as usize)
            .and_then(|s| s.as_ref())
            .ok_or(VmError::BadAsid(asid))
    }

    /// Mutable access to a space.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn space_mut(&mut self, asid: u32) -> Result<&mut AddressSpace> {
        self.spaces
            .get_mut(asid as usize)
            .and_then(|s| s.as_mut())
            .ok_or(VmError::BadAsid(asid))
    }

    /// Destroys a space, releasing its frames.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn destroy_space(&mut self, asid: u32) -> Result<()> {
        self.spaces
            .get_mut(asid as usize)
            .and_then(Option::take)
            .ok_or(VmError::BadAsid(asid))?;
        // Every frame the space held is identified by its FIFO entries;
        // the page table died with the space.
        let mut kept = VecDeque::new();
        while let Some((a, vpn, frame)) = self.fifo.pop_front() {
            if a == asid {
                self.free_frames.push(frame);
            } else {
                kept.push_back((a, vpn, frame));
            }
        }
        self.fifo = kept;
        self.note_frames();
        Ok(())
    }

    /// Maps anonymous zero-filled memory, returning the base address.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn map_anonymous(&mut self, asid: u32, pages: u64, perm: Perm) -> Result<u64> {
        let page_size = self.cfg.page_size;
        let space = self.space_mut(asid)?;
        let base = space.map_region(pages, perm, MappingKind::Anonymous);
        Ok(base * page_size)
    }

    /// Maps file pages with the given kind, returning the base address.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn map_pages(
        &mut self,
        asid: u32,
        pages: Vec<PageId>,
        perm: Perm,
        kind_fn: fn(Vec<PageId>) -> MappingKind,
    ) -> Result<u64> {
        let page_size = self.cfg.page_size;
        let n = pages.len() as u64;
        let space = self.space_mut(asid)?;
        let base = space.map_region(n, perm, kind_fn(pages));
        Ok(base * page_size)
    }

    fn alloc_frame(&mut self, sm: &mut StorageManager) -> Result<u64> {
        if let Some(f) = self.free_frames.pop() {
            self.note_frames();
            return Ok(f);
        }
        if !self.cfg.enable_paging {
            return Err(VmError::OutOfMemory);
        }
        self.evict_one(sm)?;
        self.free_frames
            .pop()
            .ok_or(VmError::OutOfMemory)
            .inspect(|_f| {
                self.note_frames();
            })
    }

    /// Evicts one resident page (FIFO order), writing anonymous pages to
    /// swap and dirty file pages back to their file.
    fn evict_one(&mut self, sm: &mut StorageManager) -> Result<()> {
        while let Some((asid, vpn, frame)) = self.fifo.pop_front() {
            let Some(space) = self.spaces.get_mut(asid as usize).and_then(|s| s.as_mut()) else {
                self.free_frames.push(frame);
                return Ok(());
            };
            let Some(pte) = space.table.get(vpn) else {
                self.free_frames.push(frame);
                return Ok(());
            };
            if pte.backing != Backing::Frame(frame) {
                continue; // stale queue entry
            }
            let region = space
                .region_of(vpn)
                .cloned()
                .expect("present PTE inside a region");
            match &region.kind {
                MappingKind::Anonymous => {
                    let slot = SWAP_BASE + self.next_swap_slot;
                    self.next_swap_slot += 1;
                    self.dram
                        .read(frame * self.cfg.page_size, &mut self.scratch)
                        .map_err(ssmc_storage::StorageError::from)?;
                    sm.write_page(slot, &self.scratch)?;
                    let space = self.spaces[asid as usize].as_mut().expect("checked");
                    space.table.map(
                        vpn,
                        Pte {
                            writable: false,
                            cow: false,
                            dirty: false,
                            backing: Backing::Storage(slot),
                        },
                    );
                    self.metrics.swap_outs += 1;
                }
                MappingKind::CodeLoad { .. } | MappingKind::CodeXip { .. } => {
                    // Clean code copy: just drop it; the next fetch
                    // re-faults from the file.
                    space.table.unmap(vpn);
                }
                MappingKind::FileCow { .. } => {
                    if pte.dirty {
                        let page = region.storage_page(vpn).expect("file page");
                        self.dram
                            .read(frame * self.cfg.page_size, &mut self.scratch)
                            .map_err(ssmc_storage::StorageError::from)?;
                        sm.write_page(page, &self.scratch)?;
                    }
                    let page = region.storage_page(vpn).expect("file page");
                    space.table.map(
                        vpn,
                        Pte {
                            writable: false,
                            cow: true,
                            dirty: false,
                            backing: Backing::Storage(page),
                        },
                    );
                }
            }
            self.free_frames.push(frame);
            return Ok(());
        }
        Err(VmError::OutOfMemory)
    }

    fn copy_in(&mut self, sm: &mut StorageManager, src: PageId, frame: u64) -> Result<()> {
        sm.read_page(src, &mut self.scratch)?;
        self.dram
            .write(frame * self.cfg.page_size, &self.scratch)
            .map_err(ssmc_storage::StorageError::from)?;
        Ok(())
    }

    /// Handles a fault at `vpn`.
    fn fault(
        &mut self,
        asid: u32,
        vpn: u64,
        kind: AccessKind,
        sm: &mut StorageManager,
    ) -> Result<()> {
        self.metrics.faults += 1;
        let span_start = self.clock.now();
        let e0 = self.span_energy_mark();
        let majors0 = self.metrics.major_faults;
        self.clock.advance(self.cfg.table_walk);
        let addr = vpn * self.cfg.page_size;
        let space = self
            .spaces
            .get_mut(asid as usize)
            .and_then(|s| s.as_mut())
            .ok_or(VmError::BadAsid(asid))?;
        let region = space
            .region_of(vpn)
            .cloned()
            .ok_or(VmError::SegFault { addr })?;
        let allowed = match kind {
            AccessKind::Read => region.perm.read,
            AccessKind::Write => region.perm.write,
            AccessKind::Exec => region.perm.exec,
        };
        if !allowed {
            return Err(VmError::Protection { addr });
        }
        let existing = space.table.get(vpn);
        match existing {
            None => match &region.kind {
                MappingKind::Anonymous => {
                    let frame = self.alloc_frame(sm)?;
                    // Zero-fill: one DRAM page write.
                    self.scratch.fill(0);
                    self.dram
                        .write(frame * self.cfg.page_size, &self.scratch)
                        .map_err(ssmc_storage::StorageError::from)?;
                    let space = self.spaces[asid as usize].as_mut().expect("checked");
                    space.table.map(
                        vpn,
                        Pte {
                            writable: region.perm.write,
                            cow: false,
                            dirty: kind == AccessKind::Write,
                            backing: Backing::Frame(frame),
                        },
                    );
                    self.fifo.push_back((asid, vpn, frame));
                    self.metrics.minor_faults += 1;
                }
                MappingKind::CodeXip { .. } => {
                    // Execute in place: map the flash page directly.
                    let page = region.storage_page(vpn).ok_or(VmError::SegFault { addr })?;
                    space.table.map(
                        vpn,
                        Pte {
                            writable: false,
                            cow: false,
                            dirty: false,
                            backing: Backing::Storage(page),
                        },
                    );
                    self.metrics.minor_faults += 1;
                }
                MappingKind::CodeLoad { .. } => {
                    let page = region.storage_page(vpn).ok_or(VmError::SegFault { addr })?;
                    let frame = self.alloc_frame(sm)?;
                    self.copy_in(sm, page, frame)?;
                    let space = self.spaces[asid as usize].as_mut().expect("checked");
                    space.table.map(
                        vpn,
                        Pte {
                            writable: false,
                            cow: false,
                            dirty: false,
                            backing: Backing::Frame(frame),
                        },
                    );
                    self.fifo.push_back((asid, vpn, frame));
                    self.metrics.pages_loaded += 1;
                    self.metrics.major_faults += 1;
                }
                MappingKind::FileCow { .. } => {
                    let page = region.storage_page(vpn).ok_or(VmError::SegFault { addr })?;
                    if kind == AccessKind::Write {
                        self.cow_copy(asid, vpn, page, sm)?;
                    } else {
                        space.table.map(
                            vpn,
                            Pte {
                                writable: false,
                                cow: true,
                                dirty: false,
                                backing: Backing::Storage(page),
                            },
                        );
                        self.metrics.minor_faults += 1;
                    }
                }
            },
            Some(pte) => {
                // Present but the access still faulted: COW or swap-in.
                match pte.backing {
                    Backing::Storage(slot) if slot >= SWAP_BASE => {
                        let frame = self.alloc_frame(sm)?;
                        self.copy_in(sm, slot, frame)?;
                        sm.free_page(slot)?;
                        let space = self.spaces[asid as usize].as_mut().expect("checked");
                        space.table.map(
                            vpn,
                            Pte {
                                writable: region.perm.write,
                                cow: false,
                                dirty: kind == AccessKind::Write,
                                backing: Backing::Frame(frame),
                            },
                        );
                        self.fifo.push_back((asid, vpn, frame));
                        self.metrics.swap_ins += 1;
                        self.metrics.major_faults += 1;
                    }
                    Backing::Storage(page) if pte.cow && kind == AccessKind::Write => {
                        self.cow_copy(asid, vpn, page, sm)?;
                    }
                    _ => {
                        return Err(VmError::Protection { addr });
                    }
                }
            }
        }
        let copied = self.metrics.major_faults - majors0;
        self.recorder.emit(|| Span {
            kind: EventKind::VmFault,
            start: span_start,
            end: self.clock.now(),
            energy: Energy::from_nanojoules(
                self.dram.energy().total().as_nanojoules() - e0.as_nanojoules(),
            ),
            pages: copied,
            bytes: copied * self.cfg.page_size,
        });
        Ok(())
    }

    fn cow_copy(
        &mut self,
        asid: u32,
        vpn: u64,
        page: PageId,
        sm: &mut StorageManager,
    ) -> Result<()> {
        let frame = self.alloc_frame(sm)?;
        self.copy_in(sm, page, frame)?;
        let space = self
            .spaces
            .get_mut(asid as usize)
            .and_then(|s| s.as_mut())
            .ok_or(VmError::BadAsid(asid))?;
        space.table.map(
            vpn,
            Pte {
                writable: true,
                cow: false,
                dirty: true,
                backing: Backing::Frame(frame),
            },
        );
        self.fifo.push_back((asid, vpn, frame));
        self.metrics.cow_copies += 1;
        self.metrics.major_faults += 1;
        Ok(())
    }

    /// Writes back the dirty pages of a copy-on-write file mapping to
    /// their file pages and reverts them to clean in-place mappings.
    /// Returns the number of pages written.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] / [`VmError::SegFault`] for a bad region, and
    /// storage errors from the write-back.
    pub fn msync(&mut self, asid: u32, base_addr: u64, sm: &mut StorageManager) -> Result<u64> {
        let base_vpn = base_addr / self.cfg.page_size;
        let region = self
            .space(asid)?
            .region_of(base_vpn)
            .cloned()
            .ok_or(VmError::SegFault { addr: base_addr })?;
        if !matches!(region.kind, MappingKind::FileCow { .. }) {
            return Ok(0);
        }
        let mut written = 0;
        for vpn in region.base_vpn..region.base_vpn + region.pages {
            let pte = {
                let space = self.spaces[asid as usize].as_ref().expect("checked");
                space.table.get(vpn)
            };
            let Some(pte) = pte else { continue };
            let Backing::Frame(frame) = pte.backing else {
                continue;
            };
            if !pte.dirty {
                continue;
            }
            let file_page = region.storage_page(vpn).expect("file-backed");
            self.dram
                .read(frame * self.cfg.page_size, &mut self.scratch)
                .map_err(ssmc_storage::StorageError::from)?;
            sm.write_page(file_page, &self.scratch)?;
            // The frame stays resident and writable but is clean again.
            let space = self.spaces[asid as usize].as_mut().expect("checked");
            if let Some(p) = space.table.get_mut(vpn) {
                p.dirty = false;
            }
            written += 1;
        }
        Ok(written)
    }

    /// Unmaps the region based at `base_addr`, releasing its frames and
    /// swap slots. With `sync` set, dirty copy-on-write file pages are
    /// written back first (like `munmap` of a `MAP_SHARED`-style region);
    /// otherwise they are discarded. Returns the frames released.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`], plus storage errors from a requested
    /// write-back.
    pub fn munmap(
        &mut self,
        asid: u32,
        base_addr: u64,
        sync: bool,
        sm: &mut StorageManager,
    ) -> Result<u64> {
        if sync {
            // Best effort: only file mappings have anything to sync.
            let _ = self.msync(asid, base_addr, sm);
        }
        let base_vpn = base_addr / self.cfg.page_size;
        let space = self.space_mut(asid)?;
        space.unmap_region(base_vpn);
        let mut released = 0u64;
        // `unmap_region` removed the PTEs; release the frames they held by
        // draining FIFO entries that no longer map to a live frame (any
        // other stale entries get cleaned up as a bonus).
        let mut kept = VecDeque::new();
        while let Some((a, vpn, frame)) = self.fifo.pop_front() {
            let still_mapped = self
                .spaces
                .get(a as usize)
                .and_then(|s| s.as_ref())
                .and_then(|s| s.table.get(vpn))
                .is_some_and(|p| p.backing == Backing::Frame(frame));
            if still_mapped {
                kept.push_back((a, vpn, frame));
            } else {
                self.free_frames.push(frame);
                released += 1;
            }
        }
        self.fifo = kept;
        self.note_frames();
        Ok(released)
    }

    /// Performs one memory access (a cache-line-sized touch), faulting as
    /// needed, and returns the latency experienced.
    ///
    /// # Errors
    ///
    /// [`VmError::SegFault`] / [`VmError::Protection`] for bad accesses,
    /// [`VmError::OutOfMemory`] when frames run out with paging disabled,
    /// and storage errors from fault service.
    // lint: hot-path
    pub fn touch(
        &mut self,
        asid: u32,
        addr: u64,
        kind: AccessKind,
        sm: &mut StorageManager,
    ) -> Result<SimDuration> {
        let start = self.clock.now();
        let vpn = addr / self.cfg.page_size;
        let offset = addr % self.cfg.page_size;
        for _ in 0..3 {
            let pte = {
                let space = self.space(asid)?;
                space.table.get(vpn)
            };
            let Some(pte) = pte else {
                self.fault(asid, vpn, kind, sm)?;
                continue;
            };
            // Exec permission is a region property.
            if kind == AccessKind::Exec {
                let space = self.space(asid)?;
                let region = space.region_of(vpn).ok_or(VmError::SegFault { addr })?;
                if !region.perm.exec {
                    return Err(VmError::Protection { addr });
                }
            }
            if kind == AccessKind::Write && !pte.writable {
                self.fault(asid, vpn, kind, sm)?;
                continue;
            }
            // Swapped-out pages must come back through a major fault; they
            // are not in byte-addressable residence like mapped files.
            if let Backing::Storage(slot) = pte.backing {
                if slot >= SWAP_BASE {
                    self.fault(asid, vpn, kind, sm)?;
                    continue;
                }
            }
            let len = self.cfg.fetch_bytes.min(self.cfg.page_size - offset).max(1) as usize;
            match pte.backing {
                Backing::Frame(f) => {
                    let base = f * self.cfg.page_size + offset;
                    // Resize from empty so a store writes zeros, exactly as
                    // the old fresh allocation did.
                    self.line.clear();
                    self.line.resize(len, 0);
                    if kind == AccessKind::Write {
                        self.dram
                            .write(base, &self.line)
                            .map_err(ssmc_storage::StorageError::from)?;
                        let space = self.spaces[asid as usize].as_mut().expect("checked");
                        if let Some(p) = space.table.get_mut(vpn) {
                            p.dirty = true;
                        }
                    } else {
                        self.dram
                            .read(base, &mut self.line)
                            .map_err(ssmc_storage::StorageError::from)?;
                    }
                }
                Backing::Storage(page) => {
                    debug_assert!(kind != AccessKind::Write, "writes never hit storage PTEs");
                    self.line.clear();
                    self.line.resize(len, 0);
                    sm.read_page_slice(page, offset, &mut self.line)?;
                    if kind == AccessKind::Exec {
                        // Execute in place: the fetch came straight from
                        // flash (the device span carries its energy).
                        self.recorder.emit(|| Span {
                            kind: EventKind::VmXip,
                            start,
                            end: self.clock.now(),
                            energy: Energy::ZERO,
                            pages: 0,
                            bytes: len as u64,
                        });
                    }
                }
            }
            return Ok(self.clock.now().since(start));
        }
        Err(VmError::Protection { addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::MappingKind;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    fn storage(clock: &SharedClock) -> StorageManager {
        StorageManager::new(
            StorageConfig {
                page_size: 512,
                dram_buffer_bytes: 32 * 512,
                flash: FlashSpec {
                    banks: 1,
                    blocks_per_bank: 32,
                    block_bytes: 4096,
                    write_unit: 512,
                    ..FlashSpec::default()
                },
                ..StorageConfig::default()
            },
            clock.clone(),
        )
    }

    fn setup(frames: u64, paging: bool) -> (Vm, StorageManager, SharedClock) {
        let clock = Clock::shared();
        let sm = storage(&clock);
        let vm = Vm::new(
            VmConfig {
                dram_frames: frames,
                enable_paging: paging,
                ..VmConfig::default()
            },
            clock.clone(),
        );
        (vm, sm, clock)
    }

    /// Writes a small "program" into storage and returns its pages.
    fn install_file(sm: &mut StorageManager, pages: u64, first_page: PageId) -> Vec<PageId> {
        let data = vec![0x90u8; 512];
        let ids: Vec<PageId> = (0..pages).map(|i| first_page + i).collect();
        for &p in &ids {
            sm.write_page(p, &data).expect("install");
        }
        sm.sync().expect("sync");
        ids
    }

    #[test]
    fn anonymous_memory_faults_in_and_reads_back() {
        let (mut vm, mut sm, _) = setup(16, false);
        let asid = vm.create_space();
        let base = vm.map_anonymous(asid, 4, Perm::RW).expect("map");
        vm.touch(asid, base, AccessKind::Write, &mut sm)
            .expect("write");
        vm.touch(asid, base + 100, AccessKind::Read, &mut sm)
            .expect("read same page");
        assert_eq!(vm.metrics().faults, 1, "second touch hits the same page");
        assert_eq!(vm.frames_in_use(), 1);
    }

    #[test]
    fn unmapped_access_segfaults() {
        let (mut vm, mut sm, _) = setup(16, false);
        let asid = vm.create_space();
        let err = vm
            .touch(asid, 0x100, AccessKind::Read, &mut sm)
            .expect_err("page zero");
        assert!(matches!(err, VmError::SegFault { .. }));
    }

    #[test]
    fn protection_is_enforced_per_region() {
        let (mut vm, mut sm, _) = setup(16, false);
        let asid = vm.create_space();
        let ro = vm.map_anonymous(asid, 1, Perm::RO).expect("map");
        assert!(matches!(
            vm.touch(asid, ro, AccessKind::Write, &mut sm),
            Err(VmError::Protection { .. })
        ));
        // Data is not executable.
        let rw = vm.map_anonymous(asid, 1, Perm::RW).expect("map");
        vm.touch(asid, rw, AccessKind::Write, &mut sm)
            .expect("write");
        assert!(matches!(
            vm.touch(asid, rw, AccessKind::Exec, &mut sm),
            Err(VmError::Protection { .. })
        ));
    }

    #[test]
    fn spaces_are_isolated() {
        let (mut vm, mut sm, _) = setup(16, false);
        let a = vm.create_space();
        let b = vm.create_space();
        let base = vm.map_anonymous(a, 1, Perm::RW).expect("map in a");
        vm.touch(a, base, AccessKind::Write, &mut sm)
            .expect("write in a");
        // The same numeric address in space b is unmapped.
        assert!(matches!(
            vm.touch(b, base, AccessKind::Read, &mut sm),
            Err(VmError::SegFault { .. })
        ));
    }

    #[test]
    fn xip_uses_no_frames_demand_load_does() {
        let (mut vm, mut sm, _) = setup(64, false);
        let pages = install_file(&mut sm, 8, 5u64 << 32);
        let asid = vm.create_space();
        let xip_base = vm
            .map_pages(asid, pages.clone(), Perm::RX, |p| MappingKind::CodeXip {
                pages: p,
            })
            .expect("map xip");
        for i in 0..8u64 {
            vm.touch(asid, xip_base + i * 512, AccessKind::Exec, &mut sm)
                .expect("xip fetch");
        }
        assert_eq!(vm.frames_in_use(), 0, "XIP copies nothing to DRAM");
        assert_eq!(vm.metrics().pages_loaded, 0);

        let load_base = vm
            .map_pages(asid, pages, Perm::RX, |p| MappingKind::CodeLoad {
                pages: p,
            })
            .expect("map load");
        for i in 0..8u64 {
            vm.touch(asid, load_base + i * 512, AccessKind::Exec, &mut sm)
                .expect("load fetch");
        }
        assert_eq!(vm.frames_in_use(), 8, "demand load copies every page");
        assert_eq!(vm.metrics().pages_loaded, 8);
    }

    #[test]
    fn cow_file_mapping_copies_only_written_pages() {
        let (mut vm, mut sm, _) = setup(64, false);
        let pages = install_file(&mut sm, 4, 6u64 << 32);
        let asid = vm.create_space();
        let base = vm
            .map_pages(
                asid,
                pages,
                Perm {
                    read: true,
                    write: true,
                    exec: false,
                },
                |p| MappingKind::FileCow { pages: p },
            )
            .expect("map cow");
        // Read all four pages: in place, no copies.
        for i in 0..4u64 {
            vm.touch(asid, base + i * 512, AccessKind::Read, &mut sm)
                .expect("read");
        }
        assert_eq!(vm.metrics().cow_copies, 0);
        assert_eq!(vm.frames_in_use(), 0);
        // Write one page: exactly one copy.
        vm.touch(asid, base + 512, AccessKind::Write, &mut sm)
            .expect("cow write");
        assert_eq!(vm.metrics().cow_copies, 1);
        assert_eq!(vm.frames_in_use(), 1);
        // Further writes to the same page are plain DRAM stores.
        vm.touch(asid, base + 600, AccessKind::Write, &mut sm)
            .expect("hot write");
        assert_eq!(vm.metrics().cow_copies, 1);
    }

    #[test]
    fn out_of_frames_without_paging_is_an_error() {
        let (mut vm, mut sm, _) = setup(2, false);
        let asid = vm.create_space();
        let base = vm.map_anonymous(asid, 4, Perm::RW).expect("map");
        vm.touch(asid, base, AccessKind::Write, &mut sm).expect("1");
        vm.touch(asid, base + 512, AccessKind::Write, &mut sm)
            .expect("2");
        assert!(matches!(
            vm.touch(asid, base + 1024, AccessKind::Write, &mut sm),
            Err(VmError::OutOfMemory)
        ));
    }

    #[test]
    fn paging_swaps_out_and_back_in() {
        let (mut vm, mut sm, _) = setup(2, true);
        let asid = vm.create_space();
        let base = vm.map_anonymous(asid, 4, Perm::RW).expect("map");
        for i in 0..4u64 {
            vm.touch(asid, base + i * 512, AccessKind::Write, &mut sm)
                .expect("write");
        }
        assert!(vm.metrics().swap_outs >= 2, "evictions happened");
        // Touch the first page again: swap-in.
        vm.touch(asid, base, AccessKind::Read, &mut sm)
            .expect("swap in");
        assert!(vm.metrics().swap_ins >= 1);
        assert_eq!(vm.frames_in_use(), 2, "pool size respected");
    }

    #[test]
    fn xip_fetch_latency_is_flash_read_scale() {
        let (mut vm, mut sm, _) = setup(16, false);
        let pages = install_file(&mut sm, 1, 7u64 << 32);
        let asid = vm.create_space();
        let base = vm
            .map_pages(asid, pages, Perm::RX, |p| MappingKind::CodeXip { pages: p })
            .expect("map");
        vm.touch(asid, base, AccessKind::Exec, &mut sm)
            .expect("first");
        let steady = vm
            .touch(asid, base + 64, AccessKind::Exec, &mut sm)
            .expect("steady");
        // 64 bytes at 100 ns/B ≈ 6.4 µs: well under a disk access, within
        // ~10x of DRAM — the paper's "without loss of performance".
        assert!(
            steady < SimDuration::from_micros(20),
            "steady fetch {steady}"
        );
    }
}

#[cfg(test)]
mod msync_tests {
    use super::*;
    use crate::space::MappingKind;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    fn setup() -> (Vm, StorageManager) {
        let clock = Clock::shared();
        let sm = StorageManager::new(
            StorageConfig {
                page_size: 512,
                dram_buffer_bytes: 32 * 512,
                flash: FlashSpec {
                    banks: 1,
                    blocks_per_bank: 32,
                    block_bytes: 4096,
                    write_unit: 512,
                    ..FlashSpec::default()
                },
                ..StorageConfig::default()
            },
            clock.clone(),
        );
        let vm = Vm::new(VmConfig::default(), clock);
        (vm, sm)
    }

    fn install(sm: &mut StorageManager, pages: u64, base: PageId) -> Vec<PageId> {
        let data = vec![0x11u8; 512];
        let ids: Vec<PageId> = (0..pages).map(|i| base + i).collect();
        for &p in &ids {
            sm.write_page(p, &data).expect("install");
        }
        sm.sync().expect("sync");
        ids
    }

    #[test]
    fn msync_writes_back_only_dirty_pages() {
        let (mut vm, mut sm) = setup();
        let pages = install(&mut sm, 4, 9 << 32);
        let asid = vm.create_space();
        let base = vm
            .map_pages(asid, pages.clone(), Perm::RW, |p| MappingKind::FileCow {
                pages: p,
            })
            .expect("map");
        // Read two pages, write one.
        vm.touch(asid, base, AccessKind::Read, &mut sm)
            .expect("read");
        vm.touch(asid, base + 512, AccessKind::Write, &mut sm)
            .expect("write");
        let before = sm.metrics().pages_written;
        let written = vm.msync(asid, base, &mut sm).expect("msync");
        assert_eq!(written, 1, "only the dirtied page syncs");
        assert_eq!(sm.metrics().pages_written - before, 1);
        // A second msync with nothing new is a no-op.
        assert_eq!(vm.msync(asid, base, &mut sm).expect("msync"), 0);
        // The page is still resident and writable; a new store re-dirties.
        vm.touch(asid, base + 600, AccessKind::Write, &mut sm)
            .expect("write");
        assert_eq!(vm.msync(asid, base, &mut sm).expect("msync"), 1);
    }

    #[test]
    fn msync_of_anonymous_region_is_a_noop() {
        let (mut vm, mut sm) = setup();
        let asid = vm.create_space();
        let base = vm.map_anonymous(asid, 2, Perm::RW).expect("map");
        vm.touch(asid, base, AccessKind::Write, &mut sm)
            .expect("write");
        assert_eq!(vm.msync(asid, base, &mut sm).expect("msync"), 0);
    }

    #[test]
    fn munmap_releases_frames_and_unmaps() {
        let (mut vm, mut sm) = setup();
        let asid = vm.create_space();
        let base = vm.map_anonymous(asid, 4, Perm::RW).expect("map");
        for i in 0..4u64 {
            vm.touch(asid, base + i * 512, AccessKind::Write, &mut sm)
                .expect("write");
        }
        assert_eq!(vm.frames_in_use(), 4);
        let released = vm.munmap(asid, base, false, &mut sm).expect("munmap");
        assert_eq!(released, 4);
        assert_eq!(vm.frames_in_use(), 0);
        assert!(matches!(
            vm.touch(asid, base, AccessKind::Read, &mut sm),
            Err(VmError::SegFault { .. })
        ));
    }

    #[test]
    fn munmap_with_sync_persists_cow_edits() {
        let (mut vm, mut sm) = setup();
        let pages = install(&mut sm, 2, 10 << 32);
        let asid = vm.create_space();
        let base = vm
            .map_pages(asid, pages.clone(), Perm::RW, |p| MappingKind::FileCow {
                pages: p,
            })
            .expect("map");
        vm.touch(asid, base, AccessKind::Write, &mut sm)
            .expect("write");
        let before = sm.metrics().pages_written;
        vm.munmap(asid, base, true, &mut sm).expect("munmap");
        assert_eq!(sm.metrics().pages_written - before, 1, "edit persisted");
        assert_eq!(vm.frames_in_use(), 0);
    }

    #[test]
    fn munmap_without_sync_discards_cow_edits() {
        let (mut vm, mut sm) = setup();
        let pages = install(&mut sm, 2, 11 << 32);
        let asid = vm.create_space();
        let base = vm
            .map_pages(asid, pages.clone(), Perm::RW, |p| MappingKind::FileCow {
                pages: p,
            })
            .expect("map");
        vm.touch(asid, base, AccessKind::Write, &mut sm)
            .expect("write");
        let before = sm.metrics().pages_written;
        vm.munmap(asid, base, false, &mut sm).expect("munmap");
        assert_eq!(sm.metrics().pages_written - before, 0, "edit discarded");
    }
}
