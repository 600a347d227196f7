//! The VM engine: frame pool and fault handling for code mappings.

use crate::error::VmError;
use crate::page_table::Backing;
use crate::space::AddressSpace;
use crate::Result;
use ssmc_device::{Dram, DramSpec};
use ssmc_sim::obs::{EventKind, MetricSink, Recorder, Span};
use ssmc_sim::{Energy, SharedClock, SimDuration, TimeWeighted};
use ssmc_storage::{PageId, StorageManager};

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Page size in bytes; must match the storage manager's.
    pub page_size: u64,
    /// DRAM frames available to the VM for demand-loaded code copies.
    pub dram_frames: u64,
    /// Timing/energy model of the VM's DRAM.
    pub dram: DramSpec,
    /// Bytes fetched per instruction fetch (a cache-line fill).
    pub fetch_bytes: u64,
    /// Page-table walk latency charged per fault.
    pub table_walk: SimDuration,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            page_size: 512,
            dram_frames: 4096,
            dram: DramSpec::default(),
            fetch_bytes: 64,
            table_walk: SimDuration::from_nanos(400),
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
    /// Faults resolved without any copy (XIP maps).
    pub minor_faults: u64,
    /// Faults that copied a page (demand loads).
    pub major_faults: u64,
    /// Pages copied by demand loading.
    pub pages_loaded: u64,
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
    /// Address spaces; asid `n` lives at index `n - 1`. Asids are issued
    /// sequentially from 1 and never reused.
    spaces: Vec<AddressSpace>,
    metrics: VmMetrics,
    recorder: Recorder,
    scratch: Vec<u8>,
    /// Reusable cache-line buffer for fetches.
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
            spaces: Vec::new(),
            metrics: VmMetrics {
                faults: 0,
                minor_faults: 0,
                major_faults: 0,
                pages_loaded: 0,
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
        sink.counter("vm.pages_loaded", self.metrics.pages_loaded);
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

    /// Creates a new protection domain and returns its asid.
    pub fn create_space(&mut self) -> u32 {
        self.spaces.push(AddressSpace::new(self.cfg.vpn_bits()));
        self.spaces.len() as u32
    }

    fn space(&self, asid: u32) -> Result<&AddressSpace> {
        asid.checked_sub(1)
            .and_then(|i| self.spaces.get(i as usize))
            .ok_or(VmError::BadAsid(asid))
    }

    fn space_mut(&mut self, asid: u32) -> Result<&mut AddressSpace> {
        asid.checked_sub(1)
            .and_then(|i| self.spaces.get_mut(i as usize))
            .ok_or(VmError::BadAsid(asid))
    }

    /// Maps a program's text pages read-execute, either in place (`xip`)
    /// or for demand loading, and returns the base address.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAsid`] for unknown identifiers.
    pub fn map_code(&mut self, asid: u32, pages: Vec<PageId>, xip: bool) -> Result<u64> {
        let page_size = self.cfg.page_size;
        let base = self.space_mut(asid)?.map_region(pages, xip);
        Ok(base * page_size)
    }

    /// Handles a fault at `vpn` and returns the backing it installed. The
    /// table walk is charged first; an XIP fault then maps the storage
    /// page, a demand-load fault copies it into a fresh DRAM frame.
    fn fault(&mut self, asid: u32, vpn: u64, sm: &mut StorageManager) -> Result<Backing> {
        self.metrics.faults += 1;
        let span_start = self.clock.now();
        let e0 = self.span_energy_mark();
        self.clock.advance(self.cfg.table_walk);
        let addr = vpn * self.cfg.page_size;
        let (page, xip) = self
            .space(asid)?
            .region_of(vpn)
            .and_then(|r| Some((r.storage_page(vpn)?, r.xip)))
            .ok_or(VmError::SegFault { addr })?;
        let backing = if xip {
            self.metrics.minor_faults += 1;
            Backing::Storage(page)
        } else {
            let frame = self.free_frames.pop().ok_or(VmError::OutOfMemory)?;
            let used = self.frames_in_use() as f64;
            self.metrics.frames_used.set(self.clock.now(), used);
            sm.read_page(page, &mut self.scratch)?;
            self.dram
                .write(frame * self.cfg.page_size, &self.scratch)
                .map_err(ssmc_storage::StorageError::from)?;
            self.metrics.pages_loaded += 1;
            self.metrics.major_faults += 1;
            Backing::Frame(frame)
        };
        self.space_mut(asid)?.table.map(vpn, backing);
        let copied = u64::from(!xip);
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
        Ok(backing)
    }

    /// Performs one instruction fetch (a cache-line-sized read), faulting
    /// the page in as needed, and returns the latency experienced. An
    /// XIP page is read in place from storage; a loaded page from its
    /// DRAM frame.
    ///
    /// # Errors
    ///
    /// [`VmError::SegFault`] outside every mapping,
    /// [`VmError::OutOfMemory`] when a demand load finds no free frame,
    /// and storage errors from fault service or the fetch.
    // lint: hot-path
    pub fn fetch(&mut self, asid: u32, addr: u64, sm: &mut StorageManager) -> Result<SimDuration> {
        let start = self.clock.now();
        let vpn = addr / self.cfg.page_size;
        let offset = addr % self.cfg.page_size;
        let backing = match self.space(asid)?.table.get(vpn) {
            Some(backing) => backing,
            None => self.fault(asid, vpn, sm)?,
        };
        let len = self.cfg.fetch_bytes.min(self.cfg.page_size - offset).max(1) as usize;
        self.line.clear();
        self.line.resize(len, 0);
        match backing {
            Backing::Frame(f) => {
                self.dram
                    .read(f * self.cfg.page_size + offset, &mut self.line)
                    .map_err(ssmc_storage::StorageError::from)?;
            }
            Backing::Storage(page) => {
                sm.read_page_slice(page, offset, &mut self.line)?;
                // Execute in place: the fetch came straight from flash
                // (the device span carries its energy).
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
        Ok(self.clock.now().since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    fn setup(frames: u64) -> (Vm, StorageManager) {
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
        let vm = Vm::new(
            VmConfig {
                dram_frames: frames,
                ..VmConfig::default()
            },
            clock,
        );
        (vm, sm)
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
    fn unmapped_access_segfaults() {
        let (mut vm, mut sm) = setup(16);
        let asid = vm.create_space();
        let err = vm.fetch(asid, 0x100, &mut sm).expect_err("page zero");
        assert!(matches!(err, VmError::SegFault { .. }));
    }

    #[test]
    fn unknown_asids_are_rejected() {
        let (mut vm, mut sm) = setup(16);
        let asid = vm.create_space();
        for bad in [0, asid + 1] {
            assert!(matches!(vm.space(bad), Err(VmError::BadAsid(b)) if b == bad));
            assert!(matches!(
                vm.fetch(bad, 512, &mut sm),
                Err(VmError::BadAsid(_))
            ));
        }
    }

    #[test]
    fn spaces_are_isolated() {
        let (mut vm, mut sm) = setup(16);
        let pages = install_file(&mut sm, 1, 4u64 << 32);
        let a = vm.create_space();
        let b = vm.create_space();
        let base = vm.map_code(a, pages, true).expect("map in a");
        vm.fetch(a, base, &mut sm).expect("fetch in a");
        // The same numeric address in space b is unmapped.
        assert!(matches!(
            vm.fetch(b, base, &mut sm),
            Err(VmError::SegFault { .. })
        ));
    }

    #[test]
    fn xip_uses_no_frames_demand_load_does() {
        let (mut vm, mut sm) = setup(64);
        let pages = install_file(&mut sm, 8, 5u64 << 32);
        let asid = vm.create_space();
        let xip_base = vm.map_code(asid, pages.clone(), true).expect("map xip");
        for i in 0..8u64 {
            vm.fetch(asid, xip_base + i * 512, &mut sm)
                .expect("xip fetch");
        }
        assert_eq!(vm.frames_in_use(), 0, "XIP copies nothing to DRAM");
        assert_eq!(vm.metrics().pages_loaded, 0);
        assert_eq!(vm.metrics().minor_faults, 8);

        let load_base = vm.map_code(asid, pages, false).expect("map load");
        for i in 0..8u64 {
            vm.fetch(asid, load_base + i * 512, &mut sm)
                .expect("load fetch");
        }
        assert_eq!(vm.frames_in_use(), 8, "demand load copies every page");
        assert_eq!(vm.metrics().pages_loaded, 8);
        assert_eq!(vm.metrics().major_faults, 8);
    }

    #[test]
    fn resident_pages_fetch_without_faulting() {
        let (mut vm, mut sm) = setup(16);
        let pages = install_file(&mut sm, 2, 6u64 << 32);
        let asid = vm.create_space();
        for xip in [true, false] {
            let base = vm.map_code(asid, pages.clone(), xip).expect("map");
            let faults = vm.metrics().faults;
            vm.fetch(asid, base, &mut sm).expect("first");
            vm.fetch(asid, base + 100, &mut sm).expect("same page");
            assert_eq!(vm.metrics().faults - faults, 1, "xip={xip}");
        }
        assert_eq!(vm.frames_in_use(), 1, "only the loaded page holds a frame");
    }

    #[test]
    fn demand_load_out_of_frames_is_an_error() {
        let (mut vm, mut sm) = setup(2);
        let pages = install_file(&mut sm, 4, 8u64 << 32);
        let asid = vm.create_space();
        let base = vm.map_code(asid, pages.clone(), false).expect("map");
        vm.fetch(asid, base, &mut sm).expect("1");
        vm.fetch(asid, base + 512, &mut sm).expect("2");
        assert!(matches!(
            vm.fetch(asid, base + 1024, &mut sm),
            Err(VmError::OutOfMemory)
        ));
        // Executing in place needs no frame, so a full pool does not stop it.
        let xip = vm.map_code(asid, pages, true).expect("map xip");
        vm.fetch(asid, xip + 1024, &mut sm).expect("xip");
    }

    #[test]
    fn xip_fetch_latency_is_flash_read_scale() {
        let (mut vm, mut sm) = setup(16);
        let pages = install_file(&mut sm, 1, 7u64 << 32);
        let asid = vm.create_space();
        let base = vm.map_code(asid, pages, true).expect("map");
        vm.fetch(asid, base, &mut sm).expect("first");
        let steady = vm.fetch(asid, base + 64, &mut sm).expect("steady");
        // 64 bytes at 100 ns/B ≈ 6.4 µs: well under a disk access, within
        // ~10x of DRAM — the paper's "without loss of performance".
        assert!(
            steady < SimDuration::from_micros(20),
            "steady fetch {steady}"
        );
    }
}
