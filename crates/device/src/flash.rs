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
use std::borrow::Cow;

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
    /// The catalog's Intel part under a generic name, erasing in 500 ms.
    fn default() -> Self {
        FlashSpec {
            name: "generic-flash-1993".to_owned(),
            erase_latency: SimDuration::from_millis(500),
            ..crate::catalog::intel_flash()
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
        // A power of two, so the block of an address is a shift on every
        // read's path rather than a division.
        assert!(
            self.block_bytes.is_power_of_two(),
            "erase blocks must be a power of two bytes"
        );
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

/// What one write unit holds since its block's last erase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Not programmed: reads 0xFF and takes a program.
    Erased,
    /// Programmed with one byte repeated. Distinct from `Erased` even
    /// for 0xFF: the unit needs an erase before its next program.
    Fill(u8),
    /// Programmed with the bytes at this offset of the block's store.
    Stored(u32),
}

/// A store offset as a unit entry holds it.
fn store_offset(at: usize) -> u32 {
    u32::try_from(at).expect("a block's store holds under 4 GiB")
}

/// `Some(byte)` when every byte of `data` is `byte`.
fn same_filled(data: &[u8]) -> Option<u8> {
    let (&first, _) = data.split_first()?;
    // Each byte equals its successor: one overlapping memcmp.
    (data[1..] == data[..data.len() - 1]).then_some(first)
}

#[derive(Debug)]
struct Block {
    erase_count: u64,
    bad: bool,
    /// One entry per write unit.
    units: Box<[Unit]>,
    /// The bytes of the `Stored` units, appended in program order. An
    /// erase empties it and keeps its capacity.
    store: Vec<u8>,
}

impl Block {
    fn new(units: usize) -> Self {
        Block {
            erase_count: 0,
            bad: false,
            units: vec![Unit::Erased; units].into_boxed_slice(),
            store: Vec::new(),
        }
    }

    /// Marks the units from `first` programmed with `data`: a `Fill`
    /// each when its bytes are all equal, else the bytes join the store.
    fn set_program(&mut self, first: usize, data: &[u8], unit: usize) {
        match same_filled(data) {
            Some(byte) => self.units[first..first + data.len() / unit].fill(Unit::Fill(byte)),
            None => {
                let base = self.store.len();
                self.store.extend_from_slice(data);
                self.mark_stored(first, base, unit);
            }
        }
    }

    /// Marks the units from `first` programmed with the bytes the caller
    /// appended to the store at `base`, giving them back if they are all
    /// equal.
    fn mark_stored(&mut self, first: usize, base: usize, unit: usize) {
        let n = (self.store.len() - base) / unit;
        let units = &mut self.units[first..first + n];
        if let Some(byte) = same_filled(&self.store[base..]) {
            self.store.truncate(base);
            units.fill(Unit::Fill(byte));
            return;
        }
        for (k, u) in units.iter_mut().enumerate() {
            *u = Unit::Stored(store_offset(base + k * unit));
        }
    }

    /// The store offset of `[off, off + len)` when the range lies in one
    /// run of the store: every unit it covers is `Stored` right after
    /// the one before, as the units of one stored program are.
    fn stored_run(&self, off: usize, len: usize, unit: usize) -> Option<usize> {
        if len == 0 {
            return Some(0);
        }
        let first = off / unit;
        let Unit::Stored(base) = self.units[first] else {
            return None;
        };
        let units = &self.units[first..=(off + len - 1) / unit];
        let run = units
            .iter()
            .enumerate()
            .all(|(k, &u)| u == Unit::Stored(base + (k * unit) as u32));
        run.then_some(base as usize + off % unit)
    }

    /// Copies the block's bytes `[off, off + out.len())` into `out`.
    fn gather(&self, off: usize, out: &mut [u8], unit: usize) {
        let end = off + out.len();
        let mut at = off;
        while at < end {
            let next = (at / unit + 1) * unit;
            let to = &mut out[at - off..next.min(end) - off];
            match self.units[at / unit] {
                Unit::Erased => to.fill(0xFF),
                Unit::Fill(byte) => to.fill(byte),
                Unit::Stored(base) => {
                    let from = base as usize + at % unit;
                    to.copy_from_slice(&self.store[from..from + to.len()]);
                }
            }
            at = next;
        }
    }

    /// Returns the bytes `[off, end)` of the block to 0xFF, leaving every
    /// unit they touch programmed. A same-filled unit moves its bytes to
    /// the store first.
    fn erase_bytes(&mut self, off: usize, end: usize, unit: usize) {
        let mut at = off;
        while at < end {
            let u = at / unit;
            let next = (u + 1) * unit;
            let base = match self.units[u] {
                Unit::Erased | Unit::Fill(0xFF) => None,
                Unit::Fill(byte) => {
                    let base = self.store.len();
                    self.store.resize(base + unit, byte);
                    self.units[u] = Unit::Stored(store_offset(base));
                    Some(base)
                }
                Unit::Stored(base) => Some(base as usize),
            };
            if let Some(base) = base {
                let from = base + at % unit;
                self.store[from..from + next.min(end) - at].fill(0xFF);
            }
            at = next;
        }
    }

    fn set_erased(&mut self) {
        self.units.fill(Unit::Erased);
        self.store.clear();
    }
}

/// The device's energy accounts: the ledger's name table, sorted, and the
/// index of each name in it.
mod account {
    pub const NAMES: &[&str] = &["flash.erase", "flash.idle", "flash.program", "flash.read"];
    pub const ERASE: usize = 0;
    pub const IDLE: usize = 1;
    pub const PROGRAM: usize = 2;
    pub const READ: usize = 3;
}

/// A direct-mapped flash device.
///
/// Each write unit records whether it is erased, programmed with one
/// byte repeated, or programmed with bytes kept in its erase block's
/// store, so the device's memory follows the bytes it holds that are
/// not same-filled, not its capacity.
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
    blocks: Vec<Block>,
    /// One erase block of bytes: where [`Flash::read_borrow`] gathers a
    /// range that is not one run of a store.
    gathered: Box<[u8]>,
    /// `log2(block_bytes)`: the block of an address is `addr >> block_shift`.
    block_shift: u32,
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
        let units_per_block = (spec.block_bytes / spec.write_unit) as usize;
        let blocks = (0..spec.total_blocks())
            .map(|_| Block::new(units_per_block))
            .collect();
        Flash {
            bank_busy_until: vec![SimTime::ZERO; spec.banks as usize],
            blocks,
            gathered: vec![0; spec.block_bytes as usize].into_boxed_slice(),
            block_shift: spec.block_bytes.trailing_zeros(),
            counters: FlashCounters::default(),
            energy: EnergyLedger::new(account::NAMES),
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

    /// The `len` bytes of the array at `addr`, without charging clock,
    /// counters or energy: an inspection hook for recovery's checksum scan
    /// and for tests. A range inside one program of mixed bytes is
    /// borrowed; any other range is gathered into a new buffer. Like
    /// [`Flash::read`], the range must stay within one erase block.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or crosses an erase block.
    pub fn peek(&self, addr: u64, len: u64) -> Cow<'_, [u8]> {
        if let Err(e) = self.check_span(addr, len) {
            panic!("peek: {e}");
        }
        let (block, off, unit) = self.locate(addr);
        let len = len as usize;
        match block.stored_run(off, len, unit) {
            Some(at) => Cow::Borrowed(&block.store[at..at + len]),
            None => {
                // lint: allow(H2): recovery and tests peek; the hot paths
                // reach this only through a name shared with `Dram::peek`.
                let mut out = vec![0; len];
                block.gather(off, &mut out, unit);
                Cow::Owned(out)
            }
        }
    }

    /// Host bytes the device holds for its cells: the capacity of every
    /// block's store. Same-filled programs take none; the per-unit table,
    /// a fixed 8 bytes a write unit, is not counted.
    pub fn held_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.store.capacity() as u64).sum()
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
        BlockId((addr >> self.block_shift) as u32)
    }

    /// Byte range `[start, start + len)` of an erase block.
    pub fn block_range(&self, block: BlockId) -> (u64, u64) {
        ((block.0 as u64) << self.block_shift, self.spec.block_bytes)
    }

    /// Erase count of a block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block.0 as usize].erase_count
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
            block.units[(u % units_per_block) as usize] == Unit::Erased
        })
    }

    /// Instant until which `bank` is occupied by a program or erase.
    pub fn bank_busy_until(&self, bank: BankId) -> SimTime {
        self.bank_busy_until[bank.0 as usize]
    }

    /// Charges idle power for a span during which the device did nothing.
    pub fn charge_idle(&mut self, d: SimDuration) {
        self.energy
            .charge(account::IDLE, self.spec.idle_power.energy_over(d));
    }

    /// A read or a program must start inside the device, even an empty
    /// one, and lie within one erase block.
    fn check_span(&self, addr: u64, len: u64) -> Result<()> {
        let capacity = self.capacity();
        if addr >= capacity || len > capacity - addr {
            return Err(DeviceError::OutOfRange {
                addr,
                len,
                capacity,
            });
        }
        if len > 0 && self.block_of(addr) != self.block_of(addr + len - 1) {
            return Err(DeviceError::CrossesBlockBoundary { addr, len });
        }
        Ok(())
    }

    /// The block of an address [`Flash::check_span`] accepted, with the
    /// address's offset in it and the write unit, as indices.
    fn locate(&self, addr: u64) -> (&Block, usize, usize) {
        let block = &self.blocks[(addr >> self.block_shift) as usize];
        let off = (addr & (self.spec.block_bytes - 1)) as usize;
        (block, off, self.spec.write_unit as usize)
    }

    /// Everything a read does except deliver the bytes: stall on the busy
    /// bank (or suspend), advance the clock, bump counters, charge energy,
    /// and emit the span. Shared by the copying and borrowing read paths
    /// so both charge identically.
    // lint: hot-path
    fn charge_read(&mut self, addr: u64, len: u64) -> Result<SimDuration> {
        self.check_span(addr, len)?;
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
            .charge(account::READ, self.spec.read_power.energy_over(latency));
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
    /// experienced (stall included). The range must not cross an erase
    /// block.
    // lint: hot-path
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<SimDuration> {
        let total = self.charge_read(addr, buf.len() as u64)?;
        let (block, off, unit) = self.locate(addr);
        block.gather(off, buf, unit);
        Ok(total)
    }

    /// Reads `len` bytes at `addr` without a staging copy: charges exactly
    /// what [`Self::read`] charges (stall, latency, counters, energy,
    /// span), but hands back a borrow instead of filling a caller buffer.
    /// A range inside one program of mixed bytes borrows the block's
    /// store; any other range is gathered into a device buffer, which for
    /// a same-filled page is one fill. Metadata paths that only *decode*
    /// a few bytes of a page use this to skip the page-sized memcpy.
    // lint: hot-path
    pub fn read_borrow(&mut self, addr: u64, len: u64) -> Result<&[u8]> {
        self.charge_read(addr, len)?;
        let block = &self.blocks[(addr >> self.block_shift) as usize];
        let off = (addr & (self.spec.block_bytes - 1)) as usize;
        let (len, unit) = (len as usize, self.spec.write_unit as usize);
        if let Some(at) = block.stored_run(off, len, unit) {
            return Ok(&block.store[at..at + len]);
        }
        block.gather(off, &mut self.gathered[..len], unit);
        Ok(&self.gathered[..len])
    }

    fn program_checks(&self, addr: u64, data: &[u8]) -> Result<BlockId> {
        let len = data.len() as u64;
        self.check_span(addr, len)?;
        if !addr.is_multiple_of(self.spec.write_unit) || !len.is_multiple_of(self.spec.write_unit) {
            // Alignment violations are programming errors in the layer
            // above, not device conditions; fail fast.
            panic!(
                "program [{addr}, +{len}) not aligned to write unit {}",
                self.spec.write_unit
            );
        }
        let block = self.block_of(addr);
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
        let unit = self.spec.write_unit as usize;
        let off = (addr & (self.spec.block_bytes - 1)) as usize;
        self.blocks[block.0 as usize].set_program(off / unit, data, unit);
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
            account::PROGRAM,
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
        b.set_erased();
        self.counters.erases += 1;
        self.energy.charge(
            account::ERASE,
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
        let unit = self.spec.write_unit as usize;
        let off = (addr & (self.spec.block_bytes - 1)) as usize;
        let b = &mut self.blocks[block.0 as usize];
        let base = b.store.len();
        b.store.extend_from_slice(data);
        let cells = &mut b.store[base..];
        match tear {
            TearMode::Clean => unreachable!(),
            TearMode::Prefix => cells[data.len() / 2..].fill(0xFF),
            TearMode::Stripe => {
                for chunk in cells.chunks_mut(STRIPE_BYTES).skip(1).step_by(2) {
                    chunk.fill(0xFF);
                }
            }
        }
        b.mark_stored(off / unit, base, unit);
    }

    /// Applies a torn erase: part of the block returns to 0xFF, the rest
    /// keeps its old cells. The erase count does not advance (the pulse
    /// never completed) and only units whose bytes are now fully erased
    /// read as erased again, so `is_erased` over the whole block stays
    /// false — recovery must scrub it before reuse.
    fn tear_erase(&mut self, block: BlockId, tear: TearMode) {
        let unit = self.spec.write_unit as usize;
        let block_bytes = self.spec.block_bytes as usize;
        let b = &mut self.blocks[block.0 as usize];
        match tear {
            TearMode::Clean => {}
            TearMode::Prefix => {
                let torn = block_bytes / 2;
                b.units[..torn / unit].fill(Unit::Erased);
                // Only a unit as large as the block straddles the middle.
                b.erase_bytes(torn / unit * unit, torn, unit);
            }
            TearMode::Stripe => {
                for start in (0..block_bytes).step_by(2 * STRIPE_BYTES) {
                    b.erase_bytes(start, (start + STRIPE_BYTES).min(block_bytes), unit);
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
    /// blocks as erased (and scrubs any block an injected torn erase left
    /// half-done).
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
        // An empty access at the capacity starts past the last block and
        // bank.
        assert!(matches!(
            f.read(cap, &mut []),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            f.program(cap, &[]),
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
        assert!(f.blocks[1].bad);
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
        assert!(e.component(account::PROGRAM).as_nanojoules() > 0);
        assert!(e.component(account::READ).as_nanojoules() > 0);
        assert!(e.component(account::ERASE).as_nanojoules() > 0);
        assert!(e.component(account::IDLE).as_nanojoules() > 0);
        // Erase at 90 mW for 500 ms = 45 mJ, dwarfing a 512-byte read.
        assert!(e.component(account::ERASE) > e.component(account::READ));
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
        let c = f.peek(0, 512);
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
        for (i, chunk) in f.peek(0, 512).chunks(64).enumerate() {
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
        let c = f.peek(0, 4096);
        assert!(c[..2048].iter().all(|&b| b == 0xFF), "front half erased");
        assert!(c[2048..4096].iter().all(|&b| b == 0x11), "tail kept");
        assert!(!f.is_erased(0, 4096), "block must not read as erased");
        assert_eq!(f.erase_count(BlockId(0)), 0, "pulse never completed");
        // After reboot the block can be erased for real.
        f.power_cycle();
        f.erase(BlockId(0)).expect("scrub erase");
        assert!(f.is_erased(0, 4096));
    }

    /// A block's units: `E` erased, `F` same-filled, `S` stored.
    fn unit_kinds(f: &Flash, block: usize) -> String {
        f.blocks[block]
            .units
            .iter()
            .map(|u| match u {
                Unit::Erased => 'E',
                Unit::Fill(_) => 'F',
                Unit::Stored(_) => 'S',
            })
            .collect()
    }

    /// 512 bytes that are not same-filled.
    fn mixed(seed: u8) -> Vec<u8> {
        (0..512u32).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn fresh_device_holds_no_bytes() {
        let mut f = Flash::new(
            FlashSpec::default().with_capacity(64 << 20),
            Clock::shared(),
        );
        assert_eq!(f.capacity(), 64 << 20);
        let last = f.capacity() - 16;
        for addr in [0, f.capacity() / 2 + 100, last] {
            let mut buf = [0u8; 16];
            f.read(addr, &mut buf).expect("read");
            assert_eq!(buf, [0xFF; 16]);
            assert_eq!(f.read_borrow(addr, 16).expect("borrow"), [0xFF; 16]);
            assert_eq!(*f.peek(addr, 16), [0xFF; 16]);
        }
        assert_eq!(f.held_bytes(), 0);
    }

    #[test]
    fn same_filled_programs_hold_no_bytes_and_mixed_ones_only_theirs() {
        let mut f = device();
        f.program(3 * 4096 + 1024, &[0x5A; 1024]).expect("fill");
        f.program(3 * 4096 + 2048, &[0xFF; 512]).expect("0xFF fill");
        assert_eq!(f.held_bytes(), 0);
        assert_eq!(unit_kinds(&f, 3), "EEFFFEEE");
        // A program of 0xFF is programmed, not erased.
        assert!(!f.is_erased(3 * 4096 + 2048, 512));
        assert!(matches!(
            f.program(3 * 4096 + 2048, &[0xFF; 512]),
            Err(DeviceError::ProgramToUnerased { .. })
        ));
        f.program(3 * 4096, &mixed(1)).expect("mixed");
        assert_eq!(f.held_bytes(), 512);
        assert_eq!(unit_kinds(&f, 3), "SEFFFEEE");
        assert_eq!(*f.peek(3 * 4096, 512), mixed(1)[..]);
        assert!(f.peek(3 * 4096 + 512, 512).iter().all(|&b| b == 0xFF));
        assert!(f.peek(3 * 4096 + 1024, 1024).iter().all(|&b| b == 0x5A));
        assert!(matches!(f.peek(3 * 4096, 512), Cow::Borrowed(_)));
    }

    #[test]
    fn erased_blocks_never_show_an_earlier_life() {
        let mut f = device();
        let old: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        f.program(0, &old).expect("fill block 0");
        let held = f.held_bytes();
        f.erase(BlockId(0)).expect("erase");
        assert!(f.peek(0, 4096).iter().all(|&b| b == 0xFF));
        f.program(512, &mixed(7)).expect("reprogram");
        assert_eq!(*f.peek(512, 512), mixed(7)[..]);
        assert!(f.peek(0, 512).iter().all(|&b| b == 0xFF));
        assert!(f.peek(1024, 3072).iter().all(|&b| b == 0xFF));
        // The store kept its capacity across the erase.
        assert_eq!(f.held_bytes(), held);
    }

    #[test]
    fn program_erase_cycles_keep_one_stores_capacity() {
        let mut f = device();
        for round in 0..5u8 {
            f.program(0, &mixed(round)).expect("program");
            assert_eq!(*f.peek(0, 512), mixed(round)[..]);
            f.erase(BlockId(0)).expect("erase");
            assert_eq!(f.held_bytes(), 512, "round {round}");
        }
    }

    #[test]
    fn reads_spanning_programs_gather_them() {
        let mut f = device();
        f.program(0, &mixed(1)).expect("mixed");
        f.program(512, &[0xA5; 512]).expect("fill");
        f.program(1536, &mixed(2)).expect("mixed");
        let mut want = mixed(1);
        want.extend([0xA5; 512]);
        want.extend([0xFF; 512]);
        want.extend(mixed(2));
        assert!(matches!(f.peek(0, 2048), Cow::Owned(_)));
        assert_eq!(*f.peek(0, 2048), want[..]);
        let mut buf = vec![0; 2048];
        f.read(0, &mut buf).expect("read");
        assert_eq!(buf, want);
        assert_eq!(f.read_borrow(0, 2048).expect("borrow"), want);
        assert_eq!(f.read_borrow(100, 1000).expect("borrow"), &want[100..1100]);
        // Same-filled and erased ranges of different lengths in turn.
        assert_eq!(f.read_borrow(512, 512).expect("fill"), [0xA5; 512]);
        assert_eq!(f.read_borrow(1024, 512).expect("erased"), [0xFF; 512]);
        assert_eq!(f.read_borrow(600, 8).expect("fill"), [0xA5; 8]);
        assert_eq!(f.read_borrow(512, 512).expect("fill"), [0xA5; 512]);
    }

    #[test]
    fn torn_erase_of_an_erased_block_reads_erased() {
        for tear in [TearMode::Prefix, TearMode::Stripe] {
            let mut f = device();
            // Block 1 has held bytes once; block 0 never has.
            f.program(4096, &[0x33; 4096]).expect("fill block 1");
            f.erase(BlockId(1)).expect("erase block 1");
            for (boundary, block) in [(3, 0), (4, 1)] {
                f.arm_power_cut(boundary, tear);
                let err = f.erase(BlockId(block)).expect_err("torn erase");
                assert!(matches!(err, DeviceError::PowerCut));
                f.power_cycle();
                let start = u64::from(block) * 4096;
                assert!(f.peek(start, 4096).iter().all(|&b| b == 0xFF), "{tear:?}");
                assert!(f.is_erased(start, 4096), "{tear:?}");
                assert_eq!(f.erase_count(BlockId(block)), u64::from(block));
            }
            assert_eq!(f.held_bytes(), 0, "{tear:?}");
        }
    }

    #[test]
    fn stripe_torn_erase_moves_same_filled_units_to_the_store() {
        let mut f = device();
        f.program(0, &[0x11; 4096]).expect("fill block 0");
        f.arm_power_cut(2, TearMode::Stripe);
        f.erase(BlockId(0)).expect_err("torn erase");
        for (i, chunk) in f.peek(0, 4096).chunks(64).enumerate() {
            let want = if i % 2 == 0 { 0xFF } else { 0x11 };
            assert!(chunk.iter().all(|&b| b == want), "chunk {i}");
        }
        assert_eq!(unit_kinds(&f, 0), "SSSSSSSS");
        assert!(!f.is_erased(0, 512));
    }

    #[test]
    fn torn_programs_read_what_landed() {
        for tear in [TearMode::Prefix, TearMode::Stripe] {
            let mut f = device();
            f.program(0, &mixed(3)).expect("fill block 0");
            f.erase(BlockId(0)).expect("erase");
            f.arm_power_cut(3, tear);
            f.program(4096, &[0xAB; 512]).expect_err("torn");
            for (i, chunk) in f.peek(4096, 512).chunks(64).enumerate() {
                let landed = match tear {
                    TearMode::Prefix => i < 4,
                    _ => i % 2 == 0,
                };
                let want = if landed { 0xAB } else { 0xFF };
                assert!(chunk.iter().all(|&b| b == want), "{tear:?} chunk {i}");
            }
            assert!(f.peek(4096 + 512, 3584).iter().all(|&b| b == 0xFF));
            assert!(!f.is_erased(4096, 512));
            assert!(f.is_erased(4096 + 512, 3584));
            // A torn program of 0xFF lands as 0xFF and still needs an erase.
            f.power_cycle();
            f.arm_power_cut(4, tear);
            f.program(4096 + 1024, &[0xFF; 512]).expect_err("torn");
            assert_eq!(unit_kinds(&f, 1), "SEFEEEEE", "{tear:?}");
            assert!(!f.is_erased(4096 + 1024, 512));
        }
    }

    #[test]
    fn reads_cannot_cross_block_boundary() {
        let clock = Clock::shared();
        let mut f = Flash::new(small_spec(), clock.clone());
        let mut buf = [0u8; 16];
        let err = f.read(4096 - 8, &mut buf).expect_err("cross-boundary read");
        assert!(matches!(err, DeviceError::CrossesBlockBoundary { .. }));
        let err = f
            .read_borrow(4096 - 8, 16)
            .expect_err("cross-boundary borrow");
        assert!(matches!(err, DeviceError::CrossesBlockBoundary { .. }));
        // Nothing was charged.
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(f.counters().reads, 0);
        assert_eq!(f.total_energy(), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn block_size_must_be_a_power_of_two() {
        let spec = FlashSpec {
            block_bytes: 3 * 1024,
            ..small_spec()
        };
        Flash::new(spec, Clock::shared());
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
