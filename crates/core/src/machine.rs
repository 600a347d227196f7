//! The two machine organisations under test.
//!
//! [`MobileComputer`] is the paper's design: battery-backed DRAM + flash,
//! memory-resident FS, single-level-store VM. [`DiskComputer`] wraps the
//! conventional FFS-over-disk baseline with the same battery accounting.
//! Both implement [`TraceTarget`], so [`crate::run::run_trace`] drives
//! them with identical workloads.

use crate::config::MachineConfig;
use ssmc_baseline::{BaselineConfig, DiskFs};
use ssmc_device::{Battery, BatterySpec, BatteryState};
use ssmc_memfs::{FileMap, FsError, MemFs, OpenMode};
use ssmc_sim::obs::{EventKind, MetricSink, MetricsRegistry, Recorder, Span};
use ssmc_sim::timeline::{SampleBuf, Schema, SeekWrite, TimelineSink, TimelineSummary};
use ssmc_sim::{Clock, Energy, SharedClock, SimDuration, SimTime};
use ssmc_storage::{DenseIndex, RecoveryReport, StorageManager};
use ssmc_trace::{FileId, FileOp, TraceTarget};
use ssmc_vm::{launch, LaunchStats, Vm, VmError};

/// The solid-state mobile computer.
#[derive(Debug)]
pub struct MobileComputer {
    cfg: MachineConfig,
    clock: SharedClock,
    fs: MemFs,
    vm: Vm,
    battery: Battery,
    /// Trace file-id → lazily opened fd. Trace generators hand out small
    /// sequential file ids, so the dense index resolves them without
    /// hashing on every replayed operation.
    trace_files: DenseIndex<u64>,
    /// Reusable scratch for synthesising trace write payloads. Grow-only
    /// and kept filled with the 0xA5 pattern at all times, so a write of
    /// any length slices it without a per-operation memset.
    write_scratch: Vec<u8>,
    /// Reusable scratch for formatting trace-file paths; a second buffer
    /// exists because `Rename` needs two live paths at once. Capacity is
    /// retained across operations, so path-based ops stop allocating
    /// once the longest file id has been seen.
    path_scratch: String,
    rename_scratch: String,
    drained: Energy,
    last_maintain: SimTime,
    recorder: Recorder,
    /// Sim-time flight recorder; `None` (one not-taken branch per
    /// maintenance tick) unless [`Self::enable_timeline`] installed one.
    timeline: Option<TimelineSink>,
}

impl MobileComputer {
    /// Builds the machine from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration or if formatting the fresh file
    /// system fails (it cannot on an empty device).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let clock = Clock::shared();
        let mut storage_cfg = cfg.storage.clone();
        storage_cfg.dram_buffer_bytes = cfg.buffer_bytes();
        let sm = StorageManager::new(storage_cfg, clock.clone());
        let fs = MemFs::new(sm, cfg.write_policy).expect("fresh format cannot fail");
        let vm = Vm::new(cfg.vm_frames(), cfg.storage.page_size, clock.clone());
        let battery = Battery::new(cfg.battery.clone());
        MobileComputer {
            trace_files: DenseIndex::new(1 << 16),
            write_scratch: Vec::new(),
            path_scratch: String::new(),
            rename_scratch: String::new(),
            drained: Energy::ZERO,
            last_maintain: clock.now(),
            recorder: Recorder::disabled(),
            timeline: None,
            cfg,
            clock,
            fs,
            vm,
            battery,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The file system.
    pub fn fs(&mut self) -> &mut MemFs {
        &mut self.fs
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The virtual-memory system.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Installs an observability recorder across every layer of the
    /// machine: machine root spans, FS, storage, flash, and VM.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.fs.set_recorder(recorder.clone());
        self.vm.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The recorder in force (disabled unless [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Assembles the unified metrics registry: every layer's counters,
    /// gauges, and time-weighted instruments under one snapshot.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.publish_metrics(&mut reg);
        reg
    }

    /// The machine's one metrics walk, feeding both the registry and
    /// every timeline row, in channel order: file system (with storage,
    /// flash, and per-segment wear below it), VM, machine totals, and
    /// battery.
    fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        self.fs.publish_metrics(sink);
        self.vm.publish_metrics(sink);
        sink.counter(
            "machine.energy_total_nj",
            self.total_energy().as_nanojoules(),
        );
        sink.counter("machine.energy_drained_nj", self.drained.as_nanojoules());
        sink.gauge("machine.sim_time_s", self.clock.now().as_secs_f64());
        self.battery.publish_metrics(sink);
    }

    /// The machine's timeline channel schema, built by one registration
    /// pass over the same metrics walk that later produces values —
    /// schema and samples cannot drift apart.
    pub fn timeline_schema(&self) -> Schema {
        let mut buf = SampleBuf::registration();
        self.publish_metrics(&mut buf);
        buf.into_schema()
    }

    /// Installs a sim-time flight recorder writing to `sink`, sampling
    /// every channel of [`Self::timeline_schema`] at `interval`
    /// boundaries of simulated time. Replaces (and abandons unsealed)
    /// any previously installed timeline.
    ///
    /// # Errors
    ///
    /// Write errors from the sink while writing the container header.
    pub fn enable_timeline(
        &mut self,
        sink: Box<dyn SeekWrite>,
        interval: SimDuration,
    ) -> std::io::Result<()> {
        let schema = self.timeline_schema();
        self.timeline = Some(TimelineSink::new(
            sink,
            &schema,
            interval,
            self.clock.now(),
        )?);
        Ok(())
    }

    /// [`Self::enable_timeline`] writing to a buffered file at `path`.
    ///
    /// # Errors
    ///
    /// File-creation or header-write errors.
    pub fn enable_timeline_file(
        &mut self,
        path: &std::path::Path,
        interval: SimDuration,
    ) -> std::io::Result<()> {
        // Room for many rows per write: a row is 8 bytes a channel, and a
        // 24 MB machine publishes 438 channels.
        let f = std::io::BufWriter::with_capacity(256 << 10, std::fs::File::create(path)?);
        self.enable_timeline(Box::new(f), interval)
    }

    /// Rows the installed timeline has written, or `None` without one.
    pub fn timeline_rows(&self) -> Option<u64> {
        self.timeline.as_ref().map(TimelineSink::rows)
    }

    /// Takes one final unconditional sample (so the last row always
    /// carries the end-of-run values, whatever the boundary phase), seals
    /// the container, and uninstalls the recorder. `Ok(None)` if no
    /// timeline was installed — or if one hit a write error mid-run and
    /// was dropped (see [`Self::maintain`]).
    ///
    /// # Errors
    ///
    /// Write/seek errors while sealing.
    pub fn finish_timeline(&mut self) -> std::io::Result<Option<TimelineSummary>> {
        let Some(mut tl) = self.timeline.take() else {
            return Ok(None);
        };
        tl.sample(self.clock.now(), |buf| self.publish_metrics(buf))?;
        tl.finish().map(Some)
    }

    /// Samples the timeline if a boundary has been crossed. At most one
    /// row per maintenance tick: after a long idle gap the row lands on
    /// the *current* boundary (the tick channel records which), rather
    /// than back-filling rows nothing observed. A write error drops the
    /// sink — sampling must never turn into a simulation failure — and
    /// [`Self::finish_timeline`] then reports `None`.
    // lint: hot-path
    fn timeline_tick(&mut self) {
        let now = self.clock.now();
        match &self.timeline {
            Some(tl) if tl.due(now) => {}
            _ => return,
        }
        let mut tl = self.timeline.take().expect("checked above");
        if tl.sample(now, |buf| self.publish_metrics(buf)).is_ok() {
            self.timeline = Some(tl);
        }
    }

    /// Total energy consumed by all devices so far.
    pub fn total_energy(&self) -> Energy {
        // Scalar sums only: `maintain` runs before every trace operation,
        // so building an itemised ledger here would dominate replay.
        self.fs.storage().energy_total() + self.vm.dram().energy().total()
    }

    /// Periodic maintenance: charge idle power for elapsed time, drain the
    /// battery, run storage maintenance, and destroy DRAM contents if the
    /// battery has died.
    // lint: hot-path
    pub fn maintain(&mut self) {
        let now = self.clock.now();
        let dt = now.since(self.last_maintain);
        if dt > SimDuration::ZERO {
            self.fs.storage_mut().charge_idle(dt, false);
            self.vm.charge_idle(dt, false);
            self.last_maintain = now;
        }
        let _ = self.fs.tick();
        let total = self.total_energy();
        let delta = Energy::from_nanojoules(total.as_nanojoules() - self.drained.as_nanojoules());
        self.drained = total;
        if self.battery.drain(delta) == BatteryState::Dead && self.fs.storage().dram().is_valid() {
            // Battery death destroys DRAM contents.
            self.fs.crash();
        }
        if self.timeline.is_some() {
            self.timeline_tick();
        }
    }

    /// Injects a sudden total battery failure (drop, double fault) —
    /// experiment T3.
    pub fn battery_failure(&mut self) {
        self.battery.fail_all();
        self.fs.crash();
    }

    /// Arms a simulated power cut at the `boundary`-th flash program or
    /// erase (1-based, counted from device creation), tearing the
    /// in-flight operation per `tear` — the machine-level entry point
    /// of the crash-torture harness.
    pub fn arm_power_cut(&mut self, boundary: u64, tear: ssmc_device::TearMode) {
        self.fs.storage_mut().arm_power_cut(boundary, tear);
    }

    /// Whether an armed power cut has fired. Sample *before*
    /// [`Self::battery_failure`]: the power cycle inside the crash
    /// clears the flag.
    pub fn power_cut_fired(&self) -> bool {
        self.fs.storage().power_cut_fired()
    }

    /// Swaps in a fresh primary pack and recovers the file system.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors.
    pub fn replace_battery_and_recover(
        &mut self,
    ) -> Result<(RecoveryReport, ssmc_memfs::FsckReport), FsError> {
        self.battery.swap_primary();
        self.trace_files.clear();
        self.fs.recover()
    }

    /// Launches a program from the file system, XIP or demand-loaded.
    ///
    /// # Errors
    ///
    /// [`VmError::Storage`] wrapping file-system lookup failures, or any
    /// VM fault-handling error.
    pub fn launch_app(&mut self, path: &str, xip: bool) -> Result<LaunchStats, VmError> {
        let map: FileMap = self.fs.map_file(path).map_err(|e| match e {
            FsError::Storage(s) => VmError::Storage(s),
            _ => VmError::SegFault { addr: 0 },
        })?;
        let asid = self.vm.create_space();
        launch(&mut self.vm, asid, &map, xip, self.fs.storage_mut())
    }

    /// Models steady-state execution of a launched program: `touches`
    /// instruction fetches striding through its text.
    ///
    /// # Errors
    ///
    /// VM and storage errors.
    pub fn run_app(
        &mut self,
        stats: &LaunchStats,
        text_bytes: u64,
        touches: u64,
    ) -> Result<SimDuration, VmError> {
        ssmc_vm::run_code(
            &mut self.vm,
            stats.asid,
            stats.base,
            text_bytes,
            touches,
            self.fs.storage_mut(),
        )
    }

    // Convenience file API used by the examples and doc tests.

    /// Creates a file, returning its descriptor.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn fs_create(&mut self, path: &str) -> Result<u64, FsError> {
        self.fs.create(path)
    }

    /// Writes at an offset.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn fs_write(&mut self, fd: u64, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.fs.write(fd, offset, data)
    }

    /// Reads at an offset.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn fs_read(&mut self, fd: u64, offset: u64, buf: &mut [u8]) -> Result<usize, FsError> {
        self.fs.read(fd, offset, buf)
    }

    /// Syncs everything to flash.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn fs_sync(&mut self) -> Result<(), FsError> {
        self.fs.sync()
    }

    /// Formats the trace-file path for `file` into `buf`, reusing its
    /// capacity. `write!` into a `String` is infallible, so the result
    /// is ignored rather than unwrapped.
    fn trace_path_into(buf: &mut String, file: FileId) -> &str {
        use std::fmt::Write as _;
        buf.clear();
        let _ = write!(buf, "/t{file}");
        buf
    }

    fn trace_fd(&mut self, file: FileId) -> Result<u64, FsError> {
        if let Some(fd) = self.trace_files.get(file) {
            return Ok(fd);
        }
        let path = Self::trace_path_into(&mut self.path_scratch, file);
        let fd = self.fs.open(path, OpenMode::Write)?;
        self.trace_files.insert(file, fd);
        Ok(fd)
    }
}

impl MobileComputer {
    /// Applies one trace operation without tracing overhead.
    // lint: hot-path
    fn apply_op(&mut self, op: &FileOp) -> Result<(), FsError> {
        match *op {
            FileOp::Create { file } => {
                let fd = self
                    .fs
                    .create(Self::trace_path_into(&mut self.path_scratch, file))?;
                self.trace_files.insert(file, fd);
            }
            FileOp::Write { file, offset, len } => {
                let fd = self.trace_fd(file)?;
                let len = len as usize;
                if self.write_scratch.len() < len {
                    self.write_scratch.resize(len, 0xA5);
                }
                self.fs.write(fd, offset, &self.write_scratch[..len])?;
            }
            FileOp::Read { file, offset, len } => {
                let fd = self.trace_fd(file)?;
                // Nobody inspects replayed read data; charge the read
                // without materialising it.
                self.fs.read_discard(fd, offset, len)?;
            }
            FileOp::Truncate { file, len } => {
                let fd = self.trace_fd(file)?;
                self.fs.ftruncate(fd, len)?;
            }
            FileOp::Delete { file } => {
                self.trace_files.remove(file);
                self.fs
                    .unlink(Self::trace_path_into(&mut self.path_scratch, file))?;
            }
            FileOp::Stat { file } => {
                self.fs
                    .stat(Self::trace_path_into(&mut self.path_scratch, file))?;
            }
            FileOp::Rename { file, to } => {
                self.fs.rename(
                    Self::trace_path_into(&mut self.path_scratch, file),
                    Self::trace_path_into(&mut self.rename_scratch, to),
                )?;
                if let Some(fd) = self.trace_files.get(file) {
                    self.trace_files.remove(file);
                    self.trace_files.insert(to, fd);
                }
            }
            FileOp::Sync => self.fs.sync()?,
        }
        Ok(())
    }
}

impl TraceTarget for MobileComputer {
    // lint: hot-path
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
        self.maintain();
        if !self.recorder.is_enabled() {
            // Replay hot path: one branch, no timestamps, no energy walk.
            return self.apply_op(op).map_err(Into::into);
        }
        let start = self.clock.now();
        let e0 = self.total_energy();
        let id = self.recorder.begin_op();
        let result = self.apply_op(op);
        let (kind, bytes) = match *op {
            FileOp::Create { .. } => (EventKind::TraceCreate, 0),
            FileOp::Write { len, .. } => (EventKind::TraceWrite, len),
            FileOp::Read { len, .. } => (EventKind::TraceRead, len),
            FileOp::Truncate { .. } => (EventKind::TraceTruncate, 0),
            FileOp::Delete { .. } => (EventKind::TraceDelete, 0),
            FileOp::Stat { .. } => (EventKind::TraceStat, 0),
            FileOp::Rename { .. } => (EventKind::TraceRename, 0),
            FileOp::Sync => (EventKind::TraceSync, 0),
        };
        // Root span: whole-machine energy delta for the op. Nested device
        // spans carry their own shares; sum one level, not both.
        self.recorder.end_op(
            id,
            Span {
                kind,
                start,
                end: self.clock.now(),
                energy: Energy::from_nanojoules(
                    self.total_energy().as_nanojoules() - e0.as_nanojoules(),
                ),
                pages: 0,
                bytes,
            },
        );
        result.map_err(Into::into)
    }
}

/// The conventional machine: FFS over a mobile disk, with a battery.
#[derive(Debug)]
pub struct DiskComputer {
    clock: SharedClock,
    fs: DiskFs,
    battery: Battery,
    drained: Energy,
}

impl DiskComputer {
    /// Builds the baseline machine.
    pub fn new(cfg: BaselineConfig, battery: BatterySpec) -> Self {
        let clock = Clock::shared();
        let fs = DiskFs::new(cfg, clock.clone());
        DiskComputer {
            clock,
            fs,
            battery: Battery::new(battery),
            drained: Energy::ZERO,
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The disk file system.
    pub fn fs(&mut self) -> &mut DiskFs {
        &mut self.fs
    }

    /// The battery.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Total energy consumed so far.
    pub fn total_energy(&self) -> Energy {
        self.fs.total_energy()
    }

    /// Drains the battery by the energy consumed since the last call.
    pub fn maintain(&mut self) {
        let total = self.total_energy();
        let delta = Energy::from_nanojoules(total.as_nanojoules() - self.drained.as_nanojoules());
        self.drained = total;
        self.battery.drain(delta);
    }
}

impl TraceTarget for DiskComputer {
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
        self.fs.apply(op)?;
        self.maintain();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_trace::{replay, GeneratorConfig, Workload};

    #[test]
    fn machine_runs_the_doc_example() {
        let mut machine = MobileComputer::new(MachineConfig::small_notebook());
        let fd = machine.fs_create("/notes.txt").expect("create");
        machine
            .fs_write(fd, 0, b"flash is the new disk")
            .expect("write");
        machine.fs_sync().expect("sync");
        let mut buf = vec![0u8; 21];
        machine.fs_read(fd, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"flash is the new disk");
    }

    #[test]
    fn machine_replays_a_trace_without_errors() {
        let mut machine = MobileComputer::new(MachineConfig::small_notebook());
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(3_000)
            .with_max_live_bytes(2 << 20)
            .generate();
        let clock = machine.clock().clone();
        let report = replay(&trace, &mut machine, &clock);
        assert_eq!(report.errors, 0, "machine must replay office cleanly");
        assert!(machine.total_energy().as_joules() > 0.0);
    }

    #[test]
    fn disk_computer_replays_the_same_trace() {
        let mut machine = DiskComputer::new(BaselineConfig::default(), BatterySpec::default());
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(3_000)
            .with_max_live_bytes(2 << 20)
            .generate();
        let clock = machine.clock().clone();
        let report = replay(&trace, &mut machine, &clock);
        assert_eq!(report.errors, 0);
        assert!(machine.total_energy().as_joules() > 0.0);
    }

    #[test]
    fn battery_failure_and_recovery_round_trip() {
        let mut machine = MobileComputer::new(MachineConfig::small_notebook());
        let fd = machine.fs_create("/saveme").expect("create");
        machine.fs_write(fd, 0, b"durable").expect("write");
        machine.fs_sync().expect("sync");
        machine.battery_failure();
        assert_eq!(machine.battery().state(), BatteryState::Dead);
        let (report, _fsck) = machine.replace_battery_and_recover().expect("recover");
        assert_eq!(report.lost_pages, 0);
        let fd = machine
            .fs()
            .open("/saveme", OpenMode::Read)
            .expect("reopen");
        let mut buf = [0u8; 7];
        machine.fs_read(fd, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn xip_launch_works_from_machine_level() {
        let mut machine = MobileComputer::new(MachineConfig::small_notebook());
        let fd = machine.fs_create("/app").expect("create");
        machine
            .fs_write(fd, 0, &vec![0xC3u8; 64 * 1024])
            .expect("write");
        machine.fs_sync().expect("sync");
        let xip = machine.launch_app("/app", true).expect("xip");
        let load = machine.launch_app("/app", false).expect("load");
        assert!(xip.latency < load.latency);
        assert_eq!(xip.dram_pages, 0);
        assert!(load.dram_pages > 0);
    }

    #[test]
    fn one_page_size_serves_storage_and_vm() {
        // The VM pages at the storage page size, so setting it once
        // builds a machine whose launches and replays both work.
        let mut cfg = MachineConfig::small_notebook();
        cfg.storage.page_size = 2048;
        let mut machine = MobileComputer::new(cfg);
        let fd = machine.fs_create("/app").expect("create");
        machine
            .fs_write(fd, 0, &vec![0xC3u8; 64 * 1024])
            .expect("write");
        machine.fs_sync().expect("sync");
        let xip = machine.launch_app("/app", true).expect("xip");
        let load = machine.launch_app("/app", false).expect("load");
        assert_eq!(xip.dram_pages, 0);
        assert_eq!(load.dram_pages, 64 * 1024 / 2048);
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(1_000)
            .with_max_live_bytes(1 << 20)
            .generate();
        let clock = machine.clock().clone();
        let report = replay(&trace, &mut machine, &clock);
        assert_eq!(report.errors, 0, "office replays cleanly at 2 KB pages");
    }
}
