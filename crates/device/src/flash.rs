//! Direct-mapped flash memory.
//!
//! Models the device class the paper builds on: random byte-level *reads* at
//! DRAM-like speed, *programs* two orders of magnitude slower, mandatory
//! *erase* of fixed-size blocks before reprogramming, a bounded number of
//! erase cycles per block, and one or more independently operable banks.
//! While a bank is busy programming or erasing, reads addressed to it stall
//! until the operation completes — the effect §3.3 proposes to hide by
//! partitioning flash into banks.
//!
//! The model enforces flash semantics rather than advising them: programming
//! non-erased cells or erasing a retired block is an error, so the storage
//! manager above genuinely has to implement erase-before-write and wear
//! management.

use crate::error::DeviceError;
use crate::Result;
use ssmc_sim::obs::{EventKind, MetricSink, Recorder, Span};
use ssmc_sim::{Energy, EnergyLedger, Power, SharedClock, SimDuration, SimTime};

/// Identifies an erase block within the device (global, not per-bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Identifies a bank within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub u32);

/// Static characteristics of a flash device.
///
/// Defaults approximate the memory-mapped parts the paper describes in §2:
/// reads around 100 ns/byte, writes around 10 µs/byte, erase blocks, and a
/// guaranteed 100 000 erase cycles per block.
#[derive(Debug, Clone)]
pub struct FlashSpec {
    /// Human-readable part name.
    pub name: String,
    /// Number of independently operable banks.
    pub banks: u32,
    /// Erase blocks per bank.
    pub blocks_per_bank: u32,
    /// Bytes per erase block.
    pub block_bytes: u64,
    /// Program-tracking granularity in bytes; programs must be aligned to
    /// this unit.
    pub write_unit: u64,
    /// Fixed setup latency per read operation.
    pub read_access: SimDuration,
    /// Additional read latency per byte, in nanoseconds.
    pub read_ns_per_byte: u64,
    /// Fixed setup latency per program operation.
    pub program_setup: SimDuration,
    /// Additional program latency per byte, in nanoseconds.
    pub program_ns_per_byte: u64,
    /// Latency of one block erase.
    pub erase_latency: SimDuration,
    /// Guaranteed erase cycles per block; the erase after the last
    /// guaranteed cycle retires the block.
    pub endurance: u64,
    /// Program/erase *suspend* support (a post-1993 part feature the
    /// paper's banking proposal predates): when set, a read addressed to
    /// a busy bank suspends the in-flight operation after this overhead
    /// instead of waiting for it to finish; the suspended operation's
    /// completion is pushed back by the suspension. `None` models 1993
    /// parts (reads stall for the whole program/erase).
    pub suspend_overhead: Option<SimDuration>,
    /// Power drawn while reading.
    pub read_power: Power,
    /// Power drawn while programming.
    pub program_power: Power,
    /// Power drawn while erasing.
    pub erase_power: Power,
    /// Idle power for the whole device.
    pub idle_power: Power,
    /// 1993 list cost, US dollars per megabyte.
    pub cost_per_mb: f64,
    /// Volumetric density, megabytes per cubic inch.
    pub density_mb_per_in3: f64,
}

impl Default for FlashSpec {
    fn default() -> Self {
        FlashSpec {
            name: "generic-flash-1993".to_owned(),
            banks: 1,
            blocks_per_bank: 320,
            block_bytes: 64 * 1024,
            write_unit: 512,
            read_access: SimDuration::from_nanos(150),
            read_ns_per_byte: 100,
            program_setup: SimDuration::from_micros(5),
            program_ns_per_byte: 10_000,
            erase_latency: SimDuration::from_millis(500),
            endurance: 100_000,
            suspend_overhead: None,
            read_power: Power::from_milliwatts(30),
            program_power: Power::from_milliwatts(90),
            erase_power: Power::from_milliwatts(90),
            idle_power: Power::from_milliwatts(1),
            cost_per_mb: 50.0,
            density_mb_per_in3: 16.0,
        }
    }
}

impl FlashSpec {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.banks as u64 * self.blocks_per_bank as u64 * self.block_bytes
    }

    /// Total number of erase blocks.
    pub fn total_blocks(&self) -> u32 {
        self.banks * self.blocks_per_bank
    }

    /// Bytes per bank.
    pub fn bank_bytes(&self) -> u64 {
        self.blocks_per_bank as u64 * self.block_bytes
    }

    /// Returns a copy resized to approximately `bytes` capacity by changing
    /// the block count (rounding up to at least one block per bank).
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        let per_bank = bytes / self.banks as u64;
        self.blocks_per_bank = per_bank.div_ceil(self.block_bytes).max(1) as u32;
        self
    }

    /// Returns a copy with a different bank count, holding capacity roughly
    /// constant.
    pub fn with_banks(self, banks: u32) -> Self {
        assert!(banks > 0, "flash needs at least one bank");
        let capacity = self.capacity();
        let mut s = self;
        s.banks = banks;
        s.with_capacity(capacity)
    }

    /// Latency of reading `len` bytes.
    pub fn read_latency(&self, len: u64) -> SimDuration {
        self.read_access + SimDuration::from_nanos(self.read_ns_per_byte * len)
    }

    /// Latency of programming `len` bytes.
    pub fn program_latency(&self, len: u64) -> SimDuration {
        self.program_setup + SimDuration::from_nanos(self.program_ns_per_byte * len)
    }

    fn validate(&self) {
        assert!(self.banks > 0, "flash needs at least one bank");
        assert!(self.blocks_per_bank > 0, "flash needs at least one block");
        assert!(self.block_bytes > 0, "empty erase blocks are meaningless");
        assert!(
            self.write_unit > 0 && self.block_bytes.is_multiple_of(self.write_unit),
            "write unit must divide the erase block"
        );
    }
}

/// Aggregate wear statistics over all blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearStats {
    /// Total erases performed on the device.
    pub total_erases: u64,
    /// Fewest erases of any live block.
    pub min_erases: u64,
    /// Most erases of any block (live or retired).
    pub max_erases: u64,
    /// Mean erases per block.
    pub mean_erases: f64,
    /// Population standard deviation of per-block erase counts.
    pub std_dev: f64,
    /// Number of blocks retired for wear.
    pub bad_blocks: u32,
}

impl WearStats {
    /// Wear evenness in `[0, 1]`: mean / max. 1.0 means perfectly level
    /// wear; near 0 means a hot spot is absorbing all erases.
    pub fn evenness(&self) -> f64 {
        if self.max_erases == 0 {
            1.0
        } else {
            self.mean_erases / self.max_erases as f64
        }
    }
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashCounters {
    /// Read operations completed.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Program operations completed.
    pub programs: u64,
    /// Bytes programmed.
    pub bytes_programmed: u64,
    /// Erase operations completed.
    pub erases: u64,
    /// Total time reads spent stalled behind busy banks.
    pub read_stall: SimDuration,
    /// Number of reads that stalled behind a busy bank.
    pub stalled_reads: u64,
    /// Reads served by suspending an in-flight program/erase.
    pub suspended_reads: u64,
}

/// How an injected power cut leaves the cells of the in-flight program or
/// erase. Used by the crash-torture harness via [`Flash::arm_power_cut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearMode {
    /// Power dies before the operation's pulse reaches the array: the
    /// targeted cells are unchanged. Equivalent to a crash *between* the
    /// previous operation and this one.
    Clean,
    /// A torn write: the first half of the bytes take effect, the tail is
    /// left as it was (erased cells for a program, old cells for an
    /// erase). The disturbed write units are marked programmed either
    /// way — half-pulsed cells cannot be reprogrammed without an erase.
    Prefix,
    /// Interleaved-stripe corruption: alternating 64-byte chunks of the
    /// operation take effect, modelling multi-plane devices where the
    /// pulse lands on part of the page's cells first.
    Stripe,
}

/// Stripe width, in bytes, of [`TearMode::Stripe`].
const STRIPE_BYTES: usize = 64;

/// An armed power cut: the `cut_at`-th program/erase boundary (1-based,
/// counted across both operation kinds in issue order) fires the cut.
#[derive(Debug, Clone, Copy)]
struct PowerCutPlan {
    cut_at: u64,
    tear: TearMode,
}

#[derive(Debug)]
struct Block {
    erase_count: u64,
    bad: bool,
    /// One bit per write unit: set = programmed since last erase.
    programmed: Vec<u64>,
}

impl Block {
    fn new(units: usize) -> Self {
        Block {
            erase_count: 0,
            bad: false,
            programmed: vec![0; units.div_ceil(64)],
        }
    }

    fn unit_is_programmed(&self, unit: usize) -> bool {
        self.programmed[unit / 64] >> (unit % 64) & 1 == 1
    }

    fn set_programmed(&mut self, unit: usize) {
        self.programmed[unit / 64] |= 1 << (unit % 64);
    }

    fn clear_all(&mut self) {
        for w in &mut self.programmed {
            *w = 0;
        }
    }
}

/// A direct-mapped flash device.
///
/// # Examples
///
/// ```
/// use ssmc_device::{BlockId, Flash, FlashSpec};
/// use ssmc_sim::Clock;
///
/// let mut flash = Flash::new(FlashSpec::default().with_capacity(1 << 20), Clock::shared());
/// flash.program(0, &[0xAB; 512]).unwrap();
/// // Flash cells must be erased before they can be reprogrammed.
/// assert!(flash.program(0, &[0xCD; 512]).is_err());
/// flash.erase(BlockId(0)).unwrap();
/// flash.program(0, &[0xCD; 512]).unwrap();
/// ```
#[derive(Debug)]
pub struct Flash {
    spec: FlashSpec,
    clock: SharedClock,
    data: Vec<u8>,
    blocks: Vec<Block>,
    bank_busy_until: Vec<SimTime>,
    counters: FlashCounters,
    energy: EnergyLedger,
    first_wearout: Option<SimTime>,
    recorder: Recorder,
    /// Programs + erases issued so far (operations that passed their
    /// preconditions); the crash-torture harness enumerates cut points
    /// against this count.
    boundary_ops: u64,
    /// Armed power cut, if any.
    cut_plan: Option<PowerCutPlan>,
    /// Set when the armed cut fires; the device then refuses every
    /// program and erase until [`Flash::power_cycle`].
    cut_fired: bool,
}

impl Flash {
    /// Creates a device in the fully erased state.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (zero banks, write unit
    /// not dividing the block, …).
    pub fn new(spec: FlashSpec, clock: SharedClock) -> Self {
        spec.validate();
        let capacity = spec.capacity() as usize;
        let units_per_block = (spec.block_bytes / spec.write_unit) as usize;
        let blocks = (0..spec.total_blocks())
            .map(|_| Block::new(units_per_block))
            .collect();
        Flash {
            bank_busy_until: vec![SimTime::ZERO; spec.banks as usize],
            data: vec![0xFF; capacity],
            blocks,
            counters: FlashCounters::default(),
            energy: EnergyLedger::new(),
            first_wearout: None,
            recorder: Recorder::disabled(),
            boundary_ops: 0,
            cut_plan: None,
            cut_fired: false,
            spec,
            clock,
        }
    }

    /// Installs the observability recorder (disabled by default).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The device's static characteristics.
    pub fn spec(&self) -> &FlashSpec {
        &self.spec
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.spec.capacity()
    }

    /// Cumulative operation counters.
    pub fn counters(&self) -> FlashCounters {
        self.counters
    }

    /// The raw array contents, as a flat byte view over the whole address
    /// space. This is an inspection hook for tests and verification tools:
    /// unlike [`Flash::read`], it moves no simulated time and charges no
    /// energy.
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    /// Per-component energy consumed so far.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Instant the first block was retired for wear, if any.
    pub fn first_wearout(&self) -> Option<SimTime> {
        self.first_wearout
    }

    /// Programs + erases issued so far (1-based boundary numbering: the
    /// first program or erase is boundary 1). The crash-torture harness
    /// runs a counting pre-pass over this to enumerate cut points.
    pub fn boundary_ops(&self) -> u64 {
        self.boundary_ops
    }

    /// Arms a power cut at the `boundary`-th program/erase (1-based,
    /// counted from device creation across both operation kinds). When
    /// that operation is issued, `tear` decides what its cells look like,
    /// the operation returns [`DeviceError::PowerCut`], and every further
    /// program or erase fails the same way until [`Flash::power_cycle`]
    /// restores power. Reads keep working — the harness reads nothing
    /// after the cut, and contents cannot change on a dead device.
    ///
    /// # Panics
    ///
    /// Panics if `boundary` is zero (boundaries are 1-based).
    pub fn arm_power_cut(&mut self, boundary: u64, tear: TearMode) {
        assert!(boundary > 0, "cut boundaries are 1-based");
        self.cut_plan = Some(PowerCutPlan {
            cut_at: boundary,
            tear,
        });
        self.cut_fired = false;
    }

    /// Whether an armed power cut has fired. Cleared (with the plan) by
    /// [`Flash::power_cycle`], so callers must sample it before simulating
    /// the reboot.
    pub fn power_cut_fired(&self) -> bool {
        self.cut_fired
    }

    /// The bank containing byte address `addr`.
    pub fn bank_of(&self, addr: u64) -> BankId {
        BankId((addr / self.spec.bank_bytes()) as u32)
    }

    /// The erase block containing byte address `addr`.
    pub fn block_of(&self, addr: u64) -> BlockId {
        BlockId((addr / self.spec.block_bytes) as u32)
    }

    /// Byte range `[start, start + len)` of an erase block.
    pub fn block_range(&self, block: BlockId) -> (u64, u64) {
        (
            block.0 as u64 * self.spec.block_bytes,
            self.spec.block_bytes,
        )
    }

    /// Erase count of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block.0 as usize].erase_count
    }

    /// Whether a block has been retired for wear.
    pub fn is_bad(&self, block: BlockId) -> bool {
        self.blocks[block.0 as usize].bad
    }

    /// Whether every write unit overlapping `[addr, addr+len)` is erased.
    pub fn is_erased(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let first = addr / self.spec.write_unit;
        let last = (addr + len - 1) / self.spec.write_unit;
        let units_per_block = self.spec.block_bytes / self.spec.write_unit;
        (first..=last).all(|u| {
            let block = &self.blocks[(u / units_per_block) as usize];
            !block.unit_is_programmed((u % units_per_block) as usize)
        })
    }

    /// Instant until which `bank` is occupied by a program or erase.
    pub fn bank_busy_until(&self, bank: BankId) -> SimTime {
        self.bank_busy_until[bank.0 as usize]
    }

    /// Charges idle power for a span during which the device did nothing.
    pub fn charge_idle(&mut self, d: SimDuration) {
        self.energy
            .charge("flash.idle", self.spec.idle_power.energy_over(d));
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<()> {
        let capacity = self.capacity();
        if addr.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(DeviceError::OutOfRange {
                addr,
                len,
                capacity,
            });
        }
        Ok(())
    }

    /// Everything a read does except deliver the bytes: stall on the busy
    /// bank (or suspend), advance the clock, bump counters, charge energy,
    /// and emit the span. Shared by the copying and borrowing read paths
    /// so both charge identically.
    // lint: hot-path
    fn charge_read(&mut self, addr: u64, len: u64) -> Result<SimDuration> {
        self.check_range(addr, len)?;
        let start = self.clock.now();
        let bank = self.bank_of(addr);
        let busy = self.bank_busy_until[bank.0 as usize];
        let latency = self.spec.read_latency(len);
        if busy > start {
            match self.spec.suspend_overhead {
                Some(overhead) => {
                    // Suspend the in-flight operation: the read waits only
                    // for the suspend handshake, and the suspended
                    // operation finishes later by the time we borrowed.
                    self.clock.advance(overhead);
                    self.bank_busy_until[bank.0 as usize] = busy + overhead + latency;
                    self.counters.suspended_reads += 1;
                    self.counters.read_stall += overhead;
                }
                None => {
                    self.clock.advance_to(busy);
                    self.counters.read_stall += busy.since(start);
                    self.counters.stalled_reads += 1;
                }
            }
        }
        self.clock.advance(latency);
        self.counters.reads += 1;
        self.counters.bytes_read += len;
        self.energy
            .charge("flash.read", self.spec.read_power.energy_over(latency));
        self.recorder.emit(|| Span {
            kind: EventKind::FlashRead,
            start,
            end: self.clock.now(),
            energy: self.spec.read_power.energy_over(latency),
            pages: 0,
            bytes: len,
        });
        Ok(self.clock.now().since(start))
    }

    /// Reads `buf.len()` bytes starting at `addr`, advancing the clock past
    /// any bank-busy stall plus the read latency. Returns the total latency
    /// experienced (stall included).
    // lint: hot-path
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<SimDuration> {
        let len = buf.len() as u64;
        let total = self.charge_read(addr, len)?;
        buf.copy_from_slice(&self.data[addr as usize..(addr + len) as usize]);
        Ok(total)
    }

    /// Reads `len` bytes at `addr` without a staging copy: charges exactly
    /// what [`Self::read`] charges (stall, latency, counters, energy,
    /// span), but hands back a borrow of the array instead of filling a
    /// caller buffer. Metadata paths that only *decode* a few bytes of a
    /// page use this to skip the page-sized memcpy.
    // lint: hot-path
    pub fn read_borrow(&mut self, addr: u64, len: u64) -> Result<&[u8]> {
        self.charge_read(addr, len)?;
        Ok(&self.data[addr as usize..(addr + len) as usize])
    }

    /// Latency a read of `len` bytes at `addr` *would* experience right now,
    /// without performing it (used by placement policies).
    pub fn read_cost(&self, addr: u64, len: u64) -> SimDuration {
        let now = self.clock.now();
        let busy = self.bank_busy_until[self.bank_of(addr).0 as usize];
        let stall = if busy > now {
            busy.since(now)
        } else {
            SimDuration::ZERO
        };
        stall + self.spec.read_latency(len)
    }

    fn program_checks(&self, addr: u64, data: &[u8]) -> Result<BlockId> {
        let len = data.len() as u64;
        self.check_range(addr, len)?;
        if !addr.is_multiple_of(self.spec.write_unit) || !len.is_multiple_of(self.spec.write_unit) {
            // Alignment violations are programming errors in the layer
            // above, not device conditions; fail fast.
            panic!(
                "program [{addr}, +{len}) not aligned to write unit {}",
                self.spec.write_unit
            );
        }
        let block = self.block_of(addr);
        if len > 0 && self.block_of(addr + len - 1) != block {
            return Err(DeviceError::CrossesBlockBoundary { addr, len });
        }
        let b = &self.blocks[block.0 as usize];
        if b.bad {
            return Err(DeviceError::BadBlock { block });
        }
        if !self.is_erased(addr, len) {
            return Err(DeviceError::ProgramToUnerased { addr });
        }
        Ok(block)
    }

    fn program_commit(&mut self, addr: u64, data: &[u8], block: BlockId) {
        let units_per_block = (self.spec.block_bytes / self.spec.write_unit) as usize;
        let first_unit = (addr / self.spec.write_unit) as usize % units_per_block;
        let unit_count = data.len() / self.spec.write_unit as usize;
        let b = &mut self.blocks[block.0 as usize];
        for u in first_unit..first_unit + unit_count {
            b.set_programmed(u);
        }
        self.data[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        self.counters.programs += 1;
        self.counters.bytes_programmed += data.len() as u64;
    }

    /// Programs `data` at `addr` synchronously: waits for the bank, performs
    /// the program, and advances the clock to completion. Returns the total
    /// latency experienced.
    ///
    /// `addr` and `data.len()` must be aligned to the write unit and must
    /// not cross an erase-block boundary. The target cells must be erased.
    pub fn program(&mut self, addr: u64, data: &[u8]) -> Result<SimDuration> {
        let start = self.clock.now();
        let done = self.program_async(addr, data)?;
        self.clock.advance_to(done);
        Ok(self.clock.now().since(start))
    }

    /// Programs `data` at `addr` asynchronously: the bank is occupied until
    /// the returned completion instant, but the caller's clock does not
    /// advance. Used by background flushing in the storage manager.
    // lint: hot-path
    pub fn program_async(&mut self, addr: u64, data: &[u8]) -> Result<SimTime> {
        if self.cut_fired {
            return Err(DeviceError::PowerCut);
        }
        let block = self.program_checks(addr, data)?;
        self.boundary_ops += 1;
        if let Some(plan) = self.cut_plan {
            if self.boundary_ops == plan.cut_at {
                self.cut_fired = true;
                self.tear_program(addr, data, block, plan.tear);
                return Err(DeviceError::PowerCut);
            }
        }
        let bank = self.bank_of(addr);
        let latency = self.spec.program_latency(data.len() as u64);
        let begin = self.bank_busy_until[bank.0 as usize].max(self.clock.now());
        let done = begin + latency;
        self.bank_busy_until[bank.0 as usize] = done;
        self.program_commit(addr, data, block);
        self.energy.charge(
            "flash.program",
            self.spec.program_power.energy_over(latency),
        );
        self.recorder.emit(|| Span {
            kind: EventKind::FlashProgram,
            start: begin,
            end: done,
            energy: self.spec.program_power.energy_over(latency),
            pages: 0,
            bytes: data.len() as u64,
        });
        Ok(done)
    }

    /// Erases a block synchronously, advancing the clock to completion.
    pub fn erase(&mut self, block: BlockId) -> Result<SimDuration> {
        let start = self.clock.now();
        let done = self.erase_async(block)?;
        self.clock.advance_to(done);
        Ok(self.clock.now().since(start))
    }

    /// Erases a block asynchronously; the bank is occupied until the
    /// returned completion instant.
    ///
    /// The erase that exceeds the guaranteed endurance retires the block:
    /// it returns [`DeviceError::WornOut`] and the block refuses all further
    /// programs and erases.
    pub fn erase_async(&mut self, block: BlockId) -> Result<SimTime> {
        if self.cut_fired {
            return Err(DeviceError::PowerCut);
        }
        let idx = block.0 as usize;
        if idx >= self.blocks.len() {
            return Err(DeviceError::OutOfRange {
                addr: block.0 as u64 * self.spec.block_bytes,
                len: self.spec.block_bytes,
                capacity: self.capacity(),
            });
        }
        if self.blocks[idx].bad {
            return Err(DeviceError::BadBlock { block });
        }
        if self.blocks[idx].erase_count >= self.spec.endurance {
            self.blocks[idx].bad = true;
            if self.first_wearout.is_none() {
                self.first_wearout = Some(self.clock.now());
            }
            return Err(DeviceError::WornOut {
                block,
                cycles: self.blocks[idx].erase_count,
            });
        }
        self.boundary_ops += 1;
        if let Some(plan) = self.cut_plan {
            if self.boundary_ops == plan.cut_at {
                self.cut_fired = true;
                self.tear_erase(block, plan.tear);
                return Err(DeviceError::PowerCut);
            }
        }
        let bank = BankId(block.0 / self.spec.blocks_per_bank);
        let begin = self.bank_busy_until[bank.0 as usize].max(self.clock.now());
        let done = begin + self.spec.erase_latency;
        self.bank_busy_until[bank.0 as usize] = done;

        let b = &mut self.blocks[idx];
        b.erase_count += 1;
        b.clear_all();
        let (start_addr, len) = self.block_range(block);
        self.data[start_addr as usize..(start_addr + len) as usize].fill(0xFF);
        self.counters.erases += 1;
        self.energy.charge(
            "flash.erase",
            self.spec.erase_power.energy_over(self.spec.erase_latency),
        );
        self.recorder.emit(|| Span {
            kind: EventKind::FlashErase,
            start: begin,
            end: done,
            energy: self.spec.erase_power.energy_over(self.spec.erase_latency),
            pages: 0,
            bytes: self.spec.block_bytes,
        });
        Ok(done)
    }

    /// Applies a torn program: a prefix (or interleaved stripes) of `data`
    /// reaches the cells, the rest stays erased. No counters, energy, or
    /// bank occupancy — the power is gone. Every covered write unit is
    /// marked programmed regardless of how many of its bytes landed:
    /// half-pulsed cells are indeterminate and need an erase before reuse.
    fn tear_program(&mut self, addr: u64, data: &[u8], block: BlockId, tear: TearMode) {
        if matches!(tear, TearMode::Clean) || data.is_empty() {
            return;
        }
        let units_per_block = (self.spec.block_bytes / self.spec.write_unit) as usize;
        let first_unit = (addr / self.spec.write_unit) as usize % units_per_block;
        let unit_count = data.len() / self.spec.write_unit as usize;
        let b = &mut self.blocks[block.0 as usize];
        for u in first_unit..first_unit + unit_count {
            b.set_programmed(u);
        }
        match tear {
            TearMode::Clean => unreachable!(),
            TearMode::Prefix => {
                let torn = data.len() / 2;
                self.data[addr as usize..addr as usize + torn].copy_from_slice(&data[..torn]);
            }
            TearMode::Stripe => {
                for (i, chunk) in data.chunks(STRIPE_BYTES).enumerate() {
                    if i % 2 == 0 {
                        let at = addr as usize + i * STRIPE_BYTES;
                        self.data[at..at + chunk.len()].copy_from_slice(chunk);
                    }
                }
            }
        }
    }

    /// Applies a torn erase: part of the block returns to 0xFF, the rest
    /// keeps its old cells. The erase count does not advance (the pulse
    /// never completed) and programmed-unit bits are only cleared for
    /// units whose bytes are now fully erased, so `is_erased` over the
    /// whole block stays false — recovery must scrub it before reuse.
    fn tear_erase(&mut self, block: BlockId, tear: TearMode) {
        if matches!(tear, TearMode::Clean) {
            return;
        }
        let (start, len) = self.block_range(block);
        let unit = self.spec.write_unit as usize;
        match tear {
            TearMode::Clean => unreachable!(),
            TearMode::Prefix => {
                let torn = (len / 2) as usize;
                self.data[start as usize..start as usize + torn].fill(0xFF);
                let b = &mut self.blocks[block.0 as usize];
                for u in 0..torn / unit {
                    b.programmed[u / 64] &= !(1u64 << (u % 64));
                }
            }
            TearMode::Stripe => {
                for i in 0..(len as usize).div_ceil(STRIPE_BYTES) {
                    if i % 2 == 0 {
                        let at = start as usize + i * STRIPE_BYTES;
                        let end = (at + STRIPE_BYTES).min((start + len) as usize);
                        self.data[at..end].fill(0xFF);
                    }
                }
            }
        }
    }

    /// Models a power cycle: any in-flight program or erase is abandoned
    /// (the banks come back idle) and any armed or fired power cut is
    /// cleared — external power is back. Cell contents and wear state
    /// persist — flash is non-volatile. Absent an injected cut, state
    /// changes commit at issue time, so an interrupted operation's effect
    /// is treated as complete; the storage layer above treats mid-erase
    /// blocks as erased (and, after this PR, scrubs any block an injected
    /// torn erase left half-done).
    pub fn power_cycle(&mut self) {
        let now = self.clock.now();
        for b in &mut self.bank_busy_until {
            *b = now.min(*b);
        }
        self.cut_plan = None;
        self.cut_fired = false;
    }

    /// Aggregate wear statistics.
    pub fn wear_stats(&self) -> WearStats {
        let mut total = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut bad = 0u32;
        for b in &self.blocks {
            total += b.erase_count;
            max = max.max(b.erase_count);
            if b.bad {
                bad += 1;
            } else {
                min = min.min(b.erase_count);
            }
        }
        let n = self.blocks.len() as f64;
        let mean = total as f64 / n;
        let var = self
            .blocks
            .iter()
            .map(|b| (b.erase_count as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        WearStats {
            total_erases: total,
            min_erases: if min == u64::MAX { 0 } else { min },
            max_erases: max,
            mean_erases: mean,
            std_dev: var.sqrt(),
            bad_blocks: bad,
        }
    }

    /// Total energy consumed, summed over components.
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }

    /// Publishes the device counters and wear under `flash.*` names, and
    /// its energy as the `energy.flash_total_nj` scalar plus the
    /// per-component ledger accounts.
    pub fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        let c = self.counters;
        sink.counter("flash.reads", c.reads);
        sink.counter("flash.bytes_read", c.bytes_read);
        sink.counter("flash.programs", c.programs);
        sink.counter("flash.bytes_programmed", c.bytes_programmed);
        sink.counter("flash.erases", c.erases);
        sink.counter("flash.read_stall_ns", c.read_stall.as_nanos());
        sink.counter("flash.stalled_reads", c.stalled_reads);
        sink.counter("flash.suspended_reads", c.suspended_reads);
        let wear = self.wear_stats();
        sink.counter("flash.bad_blocks", wear.bad_blocks as u64);
        sink.gauge("flash.wear_evenness", wear.evenness());
        sink.counter("energy.flash_total_nj", self.energy.total().as_nanojoules());
        sink.ledger("energy.", &self.energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::Clock;

    fn small_spec() -> FlashSpec {
        FlashSpec {
            banks: 2,
            blocks_per_bank: 4,
            block_bytes: 4096,
            write_unit: 512,
            ..FlashSpec::default()
        }
    }

    fn device() -> Flash {
        Flash::new(small_spec(), Clock::shared())
    }

    #[test]
    fn new_device_is_erased_and_reads_ff() {
        let mut f = device();
        assert_eq!(f.capacity(), 2 * 4 * 4096);
        let mut buf = [0u8; 16];
        f.read(100, &mut buf).expect("read in range");
        assert!(buf.iter().all(|&b| b == 0xFF));
        assert!(f.is_erased(0, f.capacity()));
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut f = device();
        let data = vec![0xAB; 512];
        f.program(1024, &data).expect("program erased cells");
        let mut buf = vec![0u8; 512];
        f.read(1024, &mut buf).expect("read back");
        assert_eq!(buf, data);
        assert!(!f.is_erased(1024, 512));
        assert!(f.is_erased(0, 512));
    }

    #[test]
    fn reprogram_without_erase_is_rejected() {
        let mut f = device();
        let data = vec![1u8; 512];
        f.program(0, &data).expect("first program");
        let err = f.program(0, &data).expect_err("second program must fail");
        assert!(matches!(err, DeviceError::ProgramToUnerased { addr: 0 }));
    }

    #[test]
    fn erase_resets_block_to_ff() {
        let mut f = device();
        f.program(0, &vec![0u8; 4096]).expect("fill block");
        f.erase(BlockId(0)).expect("erase");
        assert!(f.is_erased(0, 4096));
        let mut buf = [0u8; 8];
        f.read(0, &mut buf).expect("read");
        assert!(buf.iter().all(|&b| b == 0xFF));
        assert_eq!(f.erase_count(BlockId(0)), 1);
        // Reprogram now succeeds.
        f.program(0, &vec![2u8; 512])
            .expect("reprogram after erase");
    }

    #[test]
    fn program_cannot_cross_block_boundary() {
        let mut f = device();
        let err = f
            .program(4096 - 512, &vec![0u8; 1024])
            .expect_err("cross-boundary program");
        assert!(matches!(err, DeviceError::CrossesBlockBoundary { .. }));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut f = device();
        let cap = f.capacity();
        let mut buf = [0u8; 4];
        assert!(matches!(
            f.read(cap - 2, &mut buf),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn read_latency_scales_with_length() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        let mut one = [0u8; 1];
        let d1 = f.read(0, &mut one).expect("read 1");
        let mut kb = [0u8; 1024];
        let d2 = f.read(0, &mut kb).expect("read 1024");
        assert!(d2 > d1);
        // 1024 bytes at 100 ns/byte dominates: >100 µs.
        assert!(d2.as_nanos() >= 1024 * 100);
    }

    #[test]
    fn program_is_two_orders_slower_than_read() {
        let mut f = device();
        let data = vec![0u8; 512];
        let w = f.program(0, &data).expect("program");
        let mut buf = vec![0u8; 512];
        let r = f.read(0, &mut buf).expect("read");
        assert!(
            w.as_nanos() > 50 * r.as_nanos(),
            "write {w} vs read {r} not ~100x"
        );
    }

    #[test]
    fn read_stalls_behind_busy_bank() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        // Occupy bank 0 with an async erase.
        let done = f.erase_async(BlockId(0)).expect("erase");
        assert!(done > clock.now());
        let mut buf = [0u8; 8];
        let lat = f.read(0, &mut buf).expect("read stalls");
        assert!(lat >= f.spec().erase_latency);
        assert_eq!(f.counters().stalled_reads, 1);
        assert!(f.counters().read_stall >= f.spec().erase_latency - SimDuration::from_nanos(1));
    }

    #[test]
    fn read_from_other_bank_does_not_stall() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        f.erase_async(BlockId(0)).expect("erase bank 0");
        let bank1_addr = f.spec().bank_bytes();
        let mut buf = [0u8; 8];
        let lat = f.read(bank1_addr, &mut buf).expect("read bank 1");
        assert!(lat < SimDuration::from_micros(10));
        assert_eq!(f.counters().stalled_reads, 0);
    }

    #[test]
    fn endurance_limit_retires_block() {
        let spec = FlashSpec {
            endurance: 3,
            ..small_spec()
        };
        let mut f = Flash::new(spec, Clock::shared());
        for _ in 0..3 {
            f.erase(BlockId(1)).expect("within endurance");
        }
        let err = f.erase(BlockId(1)).expect_err("beyond endurance");
        assert!(matches!(err, DeviceError::WornOut { .. }));
        assert!(f.is_bad(BlockId(1)));
        assert!(f.first_wearout().is_some());
        // Programs to the bad block fail too.
        let err = f.program(4096, &vec![0u8; 512]).expect_err("bad block");
        assert!(matches!(err, DeviceError::BadBlock { .. }));
        let stats = f.wear_stats();
        assert_eq!(stats.bad_blocks, 1);
        assert_eq!(stats.max_erases, 3);
    }

    #[test]
    fn wear_stats_track_distribution() {
        let mut f = device();
        for _ in 0..10 {
            f.erase(BlockId(0)).expect("erase");
        }
        f.erase(BlockId(5)).expect("erase");
        let s = f.wear_stats();
        assert_eq!(s.total_erases, 11);
        assert_eq!(s.max_erases, 10);
        assert_eq!(s.min_erases, 0);
        assert!(s.evenness() < 0.2);
    }

    #[test]
    fn energy_is_charged_per_operation_class() {
        let mut f = device();
        f.program(0, &vec![0u8; 512]).expect("program");
        let mut buf = [0u8; 512];
        f.read(0, &mut buf).expect("read");
        f.erase(BlockId(1)).expect("erase");
        f.charge_idle(SimDuration::from_secs(1));
        let e = f.energy();
        assert!(e.component("flash.program").as_nanojoules() > 0);
        assert!(e.component("flash.read").as_nanojoules() > 0);
        assert!(e.component("flash.erase").as_nanojoules() > 0);
        assert!(e.component("flash.idle").as_nanojoules() > 0);
        // Erase at 90 mW for 500 ms = 45 mJ, dwarfing a 512-byte read.
        assert!(e.component("flash.erase") > e.component("flash.read"));
    }

    #[test]
    fn async_program_occupies_bank_without_advancing_clock() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        let t0 = clock.now();
        let done = f.program_async(0, &vec![0u8; 512]).expect("async program");
        assert_eq!(clock.now(), t0, "caller clock must not advance");
        assert!(done > t0);
        assert_eq!(f.bank_busy_until(BankId(0)), done);
    }

    #[test]
    fn with_capacity_resizes() {
        let spec = FlashSpec::default().with_capacity(1 << 20);
        assert!(spec.capacity() >= 1 << 20);
        assert!(spec.capacity() < (1 << 20) + spec.block_bytes * spec.banks as u64);
    }

    #[test]
    fn with_banks_preserves_capacity() {
        let spec = FlashSpec::default().with_capacity(4 << 20).with_banks(4);
        assert_eq!(spec.banks, 4);
        assert!(spec.capacity() >= 4 << 20);
    }

    #[test]
    fn clean_cut_drops_the_target_op_and_all_later_ones() {
        let mut f = device();
        f.program(0, &[1u8; 512]).expect("boundary 1");
        f.arm_power_cut(2, TearMode::Clean);
        let err = f.program(512, &[2u8; 512]).expect_err("boundary 2 cut");
        assert!(matches!(err, DeviceError::PowerCut));
        assert!(f.power_cut_fired());
        // Nothing landed, and the device now refuses everything.
        assert!(f.is_erased(512, 512));
        assert!(matches!(
            f.program(1024, &[3u8; 512]),
            Err(DeviceError::PowerCut)
        ));
        assert!(matches!(
            f.erase_async(BlockId(1)),
            Err(DeviceError::PowerCut)
        ));
        // Reads still work and see the pre-cut state.
        let mut buf = [0u8; 512];
        f.read(0, &mut buf).expect("read survives the cut");
        assert_eq!(buf, [1u8; 512]);
        // Power restored: the cut clears and programs work again.
        f.power_cycle();
        assert!(!f.power_cut_fired());
        f.program(512, &[2u8; 512]).expect("program after reboot");
    }

    #[test]
    fn prefix_torn_program_writes_half_and_poisons_the_units() {
        let mut f = device();
        f.arm_power_cut(1, TearMode::Prefix);
        let err = f.program(0, &[0xAB; 512]).expect_err("torn");
        assert!(matches!(err, DeviceError::PowerCut));
        let c = f.contents();
        assert!(c[..256].iter().all(|&b| b == 0xAB), "prefix landed");
        assert!(c[256..512].iter().all(|&b| b == 0xFF), "tail stayed erased");
        // The unit is disturbed: not erased, so it cannot be reprogrammed.
        assert!(!f.is_erased(0, 512));
        f.power_cycle();
        assert!(matches!(
            f.program(0, &[0u8; 512]),
            Err(DeviceError::ProgramToUnerased { .. })
        ));
        // Counters never saw the torn program.
        assert_eq!(f.counters().programs, 0);
    }

    #[test]
    fn stripe_torn_program_interleaves_chunks() {
        let mut f = device();
        f.arm_power_cut(1, TearMode::Stripe);
        f.program(0, &[0x77; 512]).expect_err("torn");
        let c = f.contents();
        for (i, chunk) in c[..512].chunks(64).enumerate() {
            let want = if i % 2 == 0 { 0x77 } else { 0xFF };
            assert!(chunk.iter().all(|&b| b == want), "chunk {i}");
        }
    }

    #[test]
    fn prefix_torn_erase_leaves_block_half_old_and_unerased() {
        let mut f = device();
        f.program(0, &vec![0x11; 4096]).expect("fill block");
        f.arm_power_cut(2, TearMode::Prefix);
        let err = f.erase(BlockId(0)).expect_err("torn erase");
        assert!(matches!(err, DeviceError::PowerCut));
        let c = f.contents();
        assert!(c[..2048].iter().all(|&b| b == 0xFF), "front half erased");
        assert!(c[2048..4096].iter().all(|&b| b == 0x11), "tail kept");
        assert!(!f.is_erased(0, 4096), "block must not read as erased");
        assert_eq!(f.erase_count(BlockId(0)), 0, "pulse never completed");
        // After reboot the block can be erased for real.
        f.power_cycle();
        f.erase(BlockId(0)).expect("scrub erase");
        assert!(f.is_erased(0, 4096));
    }

    #[test]
    fn boundary_count_is_stable_across_reruns() {
        let run = || {
            let mut f = device();
            f.program(0, &[1u8; 512]).unwrap();
            f.program(512, &[2u8; 512]).unwrap();
            f.erase(BlockId(1)).unwrap();
            f.boundary_ops()
        };
        assert_eq!(run(), 3);
        assert_eq!(run(), 3);
    }

    #[test]
    fn read_cost_reflects_pending_busy() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        let quiet = f.read_cost(0, 512);
        f.erase_async(BlockId(0)).expect("erase");
        let busy = f.read_cost(0, 512);
        assert!(busy > quiet);
    }
}

#[cfg(test)]
mod suspend_tests {
    use super::*;
    use ssmc_sim::Clock;

    fn suspending_spec() -> FlashSpec {
        FlashSpec {
            banks: 1,
            blocks_per_bank: 4,
            block_bytes: 4096,
            write_unit: 512,
            suspend_overhead: Some(SimDuration::from_micros(20)),
            ..FlashSpec::default()
        }
    }

    #[test]
    fn suspend_lets_reads_cut_through_erases() {
        let clock = Clock::shared();
        let mut f = Flash::new(suspending_spec(), clock.clone());
        let done = f.erase_async(BlockId(0)).expect("erase");
        let mut buf = [0u8; 8];
        let lat = f.read(512, &mut buf).expect("read suspends the erase");
        // The read pays the suspend overhead plus its own latency — far
        // below the 500 ms erase it interrupted.
        assert!(lat < SimDuration::from_micros(50), "latency {lat}");
        assert_eq!(f.counters().suspended_reads, 1);
        assert_eq!(f.counters().stalled_reads, 0);
        // The erase finishes later than originally scheduled.
        assert!(f.bank_busy_until(BankId(0)) > done);
    }

    #[test]
    fn without_suspend_the_same_read_stalls() {
        let clock = Clock::shared();
        let spec = FlashSpec {
            suspend_overhead: None,
            ..suspending_spec()
        };
        let mut f = Flash::new(spec, clock.clone());
        f.erase_async(BlockId(0)).expect("erase");
        let mut buf = [0u8; 8];
        let lat = f.read(512, &mut buf).expect("read stalls");
        assert!(lat >= f.spec().erase_latency);
        assert_eq!(f.counters().stalled_reads, 1);
    }

    #[test]
    fn suspended_operation_state_remains_committed() {
        // Our model commits program/erase effects at issue time; suspend
        // only affects timing. Verify the data path is unaffected.
        let clock = Clock::shared();
        let mut f = Flash::new(suspending_spec(), clock.clone());
        f.program_async(0, &[0x5A; 512]).expect("program");
        let mut buf = [0u8; 512];
        f.read(0, &mut buf).expect("read during program");
        assert_eq!(buf, [0x5A; 512]);
        assert_eq!(f.counters().suspended_reads, 1);
    }
}
