//! Battery-backed DRAM.
//!
//! Primary storage in the paper's organisation. Reads and writes are fast
//! and symmetric, endurance is effectively unlimited, and the part offers a
//! low-power self-refresh mode (the NEC 3.3 V device the paper highlights).
//! Contents persist as long as *some* battery holds charge; when the
//! machine's [`crate::Battery`] dies, the owning layer calls
//! [`Dram::lose_contents`] and subsequent accesses fail until the memory is
//! reinitialised — the hazard experiment T3 quantifies.

use crate::error::DeviceError;
use crate::Result;
use ssmc_sim::{EnergyLedger, Power, SharedClock, SimDuration};

/// Static characteristics of a DRAM array.
#[derive(Debug, Clone)]
pub struct DramSpec {
    /// Human-readable part name.
    pub name: String,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Fixed access latency per operation.
    pub access: SimDuration,
    /// Additional transfer latency per byte, in nanoseconds (page-mode
    /// bandwidth).
    pub ns_per_byte: u64,
    /// Power while actively reading or writing.
    pub active_power: Power,
    /// Refresh power during normal operation, for the whole array.
    pub refresh_power: Power,
    /// Self-refresh power (battery-preservation mode), for the whole array.
    pub self_refresh_power: Power,
    /// 1993 list cost, US dollars per megabyte.
    pub cost_per_mb: f64,
    /// Volumetric density, megabytes per cubic inch.
    pub density_mb_per_in3: f64,
}

impl Default for DramSpec {
    /// The catalog's NEC part under a generic name, refreshing at 10 mW.
    fn default() -> Self {
        DramSpec {
            name: "generic-dram-1993".to_owned(),
            refresh_power: Power::from_milliwatts(10),
            ..crate::catalog::nec_dram()
        }
    }
}

impl DramSpec {
    /// Returns a copy resized to `bytes`.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Latency of transferring `len` bytes.
    pub fn access_latency(&self, len: u64) -> SimDuration {
        self.access + SimDuration::from_nanos(self.ns_per_byte * len)
    }
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramCounters {
    /// Read operations completed.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Write operations completed.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// The DRAM's energy accounts: the ledger's name table, sorted, and the
/// index of each name in it.
mod account {
    pub const NAMES: &[&str] = &["dram.active", "dram.refresh", "dram.self_refresh"];
    pub const ACTIVE: usize = 0;
    pub const REFRESH: usize = 1;
    pub const SELF_REFRESH: usize = 2;
}

/// A battery-backed DRAM array.
///
/// The array holds host memory only up to the highest byte an access
/// has touched; every byte past it reads zero.
#[derive(Debug)]
pub struct Dram {
    spec: DramSpec,
    clock: SharedClock,
    /// The bytes up to the highest one touched.
    data: Vec<u8>,
    valid: bool,
    counters: DramCounters,
    energy: EnergyLedger,
}

impl Dram {
    /// Creates a valid array that reads zero everywhere and holds no
    /// memory yet.
    pub fn new(spec: DramSpec, clock: SharedClock) -> Self {
        Dram {
            data: Vec::new(),
            valid: true,
            counters: DramCounters::default(),
            energy: EnergyLedger::new(account::NAMES),
            spec,
            clock,
        }
    }

    /// The device's static characteristics.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.spec.capacity
    }

    /// Whether contents are intact (no unrecovered battery death).
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Cumulative counters.
    pub fn counters(&self) -> DramCounters {
        self.counters
    }

    /// Per-component energy consumed so far.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Host bytes the array holds: what it has grown to, not its
    /// capacity.
    pub fn held_bytes(&self) -> u64 {
        self.data.capacity() as u64
    }

    /// Checks an access and grows the array to cover it.
    fn check(&mut self, addr: u64, len: u64) -> Result<()> {
        if !self.valid {
            return Err(DeviceError::ContentsLost);
        }
        if addr
            .checked_add(len)
            .is_none_or(|end| end > self.spec.capacity)
        {
            return Err(DeviceError::OutOfRange {
                addr,
                len,
                capacity: self.spec.capacity,
            });
        }
        let end = (addr + len) as usize;
        if self.data.len() < end {
            self.data.resize(end, 0);
        }
        Ok(())
    }

    /// The accounting half of a read: clock, counters, energy. Shared by
    /// the copying and borrowing paths so both charge identically.
    // lint: hot-path
    fn charge_read(&mut self, addr: u64, len: u64) -> Result<SimDuration> {
        self.check(addr, len)?;
        let latency = self.spec.access_latency(len);
        self.clock.advance(latency);
        self.counters.reads += 1;
        self.counters.bytes_read += len;
        self.energy
            .charge(account::ACTIVE, self.spec.active_power.energy_over(latency));
        Ok(latency)
    }

    /// Reads `buf.len()` bytes at `addr`, advancing the clock.
    // lint: hot-path
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<SimDuration> {
        let len = buf.len() as u64;
        let latency = self.charge_read(addr, len)?;
        buf.copy_from_slice(&self.data[addr as usize..(addr + len) as usize]);
        Ok(latency)
    }

    /// Reads `len` bytes at `addr` without a staging copy: charges exactly
    /// what [`Self::read`] charges but returns a borrow of the array.
    /// Lets metadata paths decode in place instead of memcpy-ing a whole
    /// page to inspect a few hundred bytes.
    // lint: hot-path
    pub fn read_borrow(&mut self, addr: u64, len: u64) -> Result<&[u8]> {
        self.charge_read(addr, len)?;
        Ok(&self.data[addr as usize..(addr + len) as usize])
    }

    /// Host-side accessor: borrows `len` bytes at `addr` without charging
    /// clock, counters, or energy. The caller must have already charged the
    /// access (e.g. via [`Self::read_borrow`]); this exists so a flush path
    /// can charge the read, run intervening bookkeeping that needs `&mut`
    /// elsewhere, and then hand the bytes to another device without a
    /// staging copy.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past every byte an access has
    /// touched, or contents are lost.
    pub fn peek(&self, addr: u64, len: u64) -> &[u8] {
        assert!(self.valid, "peek after contents lost");
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Writes `data` at `addr`, advancing the clock. DRAM needs no erase and
    /// has no endurance limit.
    // lint: hot-path
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<SimDuration> {
        self.write_within(addr, data.len() as u64, 0, data)
    }

    /// Charges a write of `charged_len` bytes at `addr` (clock, counters,
    /// energy — exactly what [`Self::write`] of that length charges) but
    /// stores only `data` at `addr + offset`. This is the in-place
    /// sub-page update: the caller models a full-page rewrite whose other
    /// bytes are unchanged, so storing just the changed range yields an
    /// identical array without the page-sized copy.
    ///
    /// # Panics
    ///
    /// Panics if the stored range falls outside the charged range.
    // lint: hot-path
    pub fn write_within(
        &mut self,
        addr: u64,
        charged_len: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<SimDuration> {
        assert!(
            offset + data.len() as u64 <= charged_len,
            "stored range escapes the charged range"
        );
        self.check(addr, charged_len)?;
        let latency = self.spec.access_latency(charged_len);
        self.clock.advance(latency);
        let at = (addr + offset) as usize;
        self.data[at..at + data.len()].copy_from_slice(data);
        self.counters.writes += 1;
        self.counters.bytes_written += charged_len;
        self.energy
            .charge(account::ACTIVE, self.spec.active_power.energy_over(latency));
        Ok(latency)
    }

    /// Charges refresh power for a span, in normal or self-refresh mode.
    pub fn charge_refresh(&mut self, d: SimDuration, self_refresh: bool) {
        let (account, p) = if self_refresh {
            (account::SELF_REFRESH, self.spec.self_refresh_power)
        } else {
            (account::REFRESH, self.spec.refresh_power)
        };
        self.energy.charge(account, p.energy_over(d));
    }

    /// Destroys the contents: called when the battery dies. Subsequent
    /// accesses fail with [`DeviceError::ContentsLost`] until
    /// [`Dram::reinitialise`] is called, and then read zeros.
    pub fn lose_contents(&mut self) {
        self.valid = false;
        self.data.clear();
    }

    /// Marks the array valid again after recovery re-populates it.
    pub fn reinitialise(&mut self) {
        self.valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::Clock;

    fn dram() -> Dram {
        Dram::new(DramSpec::default().with_capacity(1 << 20), Clock::shared())
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = dram();
        d.write(4096, b"hello").expect("write");
        let mut buf = [0u8; 5];
        d.read(4096, &mut buf).expect("read");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn rewrite_needs_no_erase() {
        let mut d = dram();
        d.write(0, &[1; 64]).expect("first");
        d.write(0, &[2; 64]).expect("overwrite");
        let mut buf = [0u8; 64];
        d.read(0, &mut buf).expect("read");
        assert_eq!(buf, [2; 64]);
    }

    #[test]
    fn reads_and_writes_are_symmetric_speed() {
        let mut d = dram();
        let w = d.write(0, &[0; 512]).expect("write");
        let mut buf = [0u8; 512];
        let r = d.read(0, &mut buf).expect("read");
        assert_eq!(w, r);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dram();
        let cap = d.capacity();
        assert!(matches!(
            d.write(cap, &[0]),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn battery_death_loses_contents() {
        let mut d = dram();
        d.write(0, &[9; 16]).expect("write");
        d.lose_contents();
        let mut buf = [0u8; 16];
        assert!(matches!(
            d.read(0, &mut buf),
            Err(DeviceError::ContentsLost)
        ));
        d.reinitialise();
        d.read(0, &mut buf).expect("valid again");
        // Contents were genuinely destroyed, not preserved.
        assert_eq!(buf, [0; 16]);
    }

    #[test]
    fn array_holds_only_what_accesses_touched() {
        let mut d = dram();
        assert_eq!(d.held_bytes(), 0);
        d.write(4096, &[7; 16]).expect("write");
        let held = d.held_bytes();
        assert!((4096 + 16..1 << 20).contains(&held), "held {held}");
        // Bytes past the highest one written read zero.
        let mut buf = [1u8; 32];
        d.read(4096, &mut buf).expect("read past the written bytes");
        assert_eq!(buf[..16], [7; 16]);
        assert_eq!(buf[16..], [0; 16]);
        assert_eq!(d.read_borrow(8192, 8).expect("borrow"), [0; 8]);
        assert_eq!(d.peek(8192, 8), [0; 8]);
        // A lost array keeps its memory and reads zero once valid again.
        let held = d.held_bytes();
        d.lose_contents();
        assert_eq!(d.held_bytes(), held);
        d.reinitialise();
        d.read(4096, &mut buf).expect("read after reinitialise");
        assert_eq!(buf, [0; 32]);
    }

    #[test]
    fn self_refresh_draws_less_than_refresh() {
        let mut d = dram();
        d.charge_refresh(SimDuration::from_secs(1), false);
        d.charge_refresh(SimDuration::from_secs(1), true);
        let normal = d.energy().component(account::REFRESH);
        let low = d.energy().component(account::SELF_REFRESH);
        assert!(low < normal);
    }

    #[test]
    fn dram_read_is_faster_than_flash_program() {
        let mut d = dram();
        let r = d.read(0, &mut [0u8; 512]).expect("read");
        // 512 B at 20 ns/B ≈ 10 µs, far below a 512 B flash program (~5 ms).
        assert!(r < SimDuration::from_micros(50));
    }
}
