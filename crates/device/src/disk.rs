//! Small mobile magnetic disk.
//!
//! The conventional secondary storage the paper argues flash will displace.
//! The model captures what matters for that comparison: mechanical
//! positioning (seek curve plus rotational latency), streaming transfer,
//! and a spin-up/spin-down power state machine — mobile disks save power by
//! spinning down, then pay a long spin-up on the next access. The drive
//! holds no data: every experiment that uses it measures time and energy,
//! so a request is an address range, not a buffer.

use crate::error::DeviceError;
use crate::Result;
use ssmc_sim::{EnergyLedger, Power, SharedClock, SimDuration};

/// Static characteristics of a disk drive.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Human-readable drive name.
    pub name: String,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Sector size in bytes.
    pub sector_bytes: u64,
    /// Number of cylinders (used by the seek curve).
    pub cylinders: u32,
    /// Single-track seek time.
    pub track_to_track: SimDuration,
    /// Average seek time (at a distance of one third of the cylinders).
    pub avg_seek: SimDuration,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Fixed controller overhead per request.
    pub controller_overhead: SimDuration,
    /// Time to spin the platters up from standby.
    pub spin_up: SimDuration,
    /// Power while seeking/transferring.
    pub active_power: Power,
    /// Power while spinning idle.
    pub idle_power: Power,
    /// Power while spun down (electronics only).
    pub standby_power: Power,
    /// Power during spin-up.
    pub spin_up_power: Power,
    /// 1993 list cost, US dollars per megabyte.
    pub cost_per_mb: f64,
    /// Volumetric density, megabytes per cubic inch.
    pub density_mb_per_in3: f64,
}

impl Default for DiskSpec {
    /// The catalog's HP KittyHawk under a generic name.
    fn default() -> Self {
        DiskSpec {
            name: "generic-mobile-disk-1993".to_owned(),
            ..crate::catalog::hp_kittyhawk()
        }
    }
}

impl DiskSpec {
    /// Returns a copy resized to `bytes`.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// One full platter rotation.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm as f64)
    }

    /// Seek time for a distance of `d` cylinders, using the standard
    /// `a + b·√d` curve anchored at the single-track and average seeks.
    pub fn seek_time(&self, d: u32) -> SimDuration {
        if d == 0 {
            return SimDuration::ZERO;
        }
        let avg_dist = (self.cylinders as f64 / 3.0).max(1.0);
        let t2t = self.track_to_track.as_secs_f64();
        let avg = self.avg_seek.as_secs_f64();
        let b = (avg - t2t) / (avg_dist.sqrt() - 1.0).max(1e-9);
        let a = t2t - b;
        SimDuration::from_secs_f64(a + b * (d as f64).sqrt())
    }

    /// Transfer time for `len` bytes.
    pub fn transfer_time(&self, len: u64) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.transfer_bytes_per_sec as f64)
    }

    fn bytes_per_cylinder(&self) -> u64 {
        (self.capacity / self.cylinders as u64).max(1)
    }

    /// The cylinder holding byte offset `addr`.
    pub fn cylinder_of(&self, addr: u64) -> u32 {
        ((addr / self.bytes_per_cylinder()) as u32).min(self.cylinders - 1)
    }
}

/// Spindle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinState {
    /// Platters at speed; access has no spin-up penalty.
    Spinning,
    /// Spun down to save power; next access pays the spin-up.
    Standby,
}

/// Cumulative operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskCounters {
    /// Read requests completed.
    pub reads: u64,
    /// Write requests completed.
    pub writes: u64,
    /// Bytes transferred in either direction.
    pub bytes: u64,
    /// Total time spent seeking.
    pub seek_time: SimDuration,
    /// Spin-ups performed.
    pub spin_ups: u64,
}

/// The drive's energy accounts: the ledger's name table, sorted, and the
/// index of each name in it.
mod account {
    pub const NAMES: &[&str] = &["disk.active", "disk.idle", "disk.spin_up", "disk.standby"];
    pub const ACTIVE: usize = 0;
    pub const IDLE: usize = 1;
    pub const SPIN_UP: usize = 2;
    pub const STANDBY: usize = 3;
}

/// A mobile disk drive.
#[derive(Debug)]
pub struct Disk {
    spec: DiskSpec,
    clock: SharedClock,
    head_cylinder: u32,
    spin: SpinState,
    counters: DiskCounters,
    energy: EnergyLedger,
}

impl Disk {
    /// Creates a drive, spinning, with its head at cylinder 0.
    pub fn new(spec: DiskSpec, clock: SharedClock) -> Self {
        Disk {
            head_cylinder: 0,
            spin: SpinState::Spinning,
            counters: DiskCounters::default(),
            energy: EnergyLedger::new(account::NAMES),
            spec,
            clock,
        }
    }

    /// The drive's static characteristics.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.spec.capacity
    }

    /// Current spindle state.
    pub fn spin_state(&self) -> SpinState {
        self.spin
    }

    /// Cumulative counters.
    pub fn counters(&self) -> DiskCounters {
        self.counters
    }

    /// Per-component energy consumed so far.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Current head position (cylinder).
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    fn check(&self, addr: u64, len: u64) -> Result<()> {
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
        Ok(())
    }

    /// Spins the platters up if they are in standby, advancing the clock by
    /// the spin-up time.
    pub fn spin_up(&mut self) {
        if self.spin == SpinState::Standby {
            self.clock.advance(self.spec.spin_up);
            self.energy.charge(
                account::SPIN_UP,
                self.spec.spin_up_power.energy_over(self.spec.spin_up),
            );
            self.counters.spin_ups += 1;
            self.spin = SpinState::Spinning;
        }
    }

    /// Spins the platters down (no latency charged; drives do this in the
    /// background).
    pub fn spin_down(&mut self) {
        self.spin = SpinState::Standby;
    }

    /// Charges power for a span during which the drive sat in its current
    /// spindle state without transferring.
    pub fn charge_idle(&mut self, d: SimDuration) {
        match self.spin {
            SpinState::Spinning => self
                .energy
                .charge(account::IDLE, self.spec.idle_power.energy_over(d)),
            SpinState::Standby => self
                .energy
                .charge(account::STANDBY, self.spec.standby_power.energy_over(d)),
        }
    }

    /// The positioning + transfer latency a request would pay right now,
    /// ignoring spin-up (used by schedulers to order requests).
    pub fn service_estimate(&self, addr: u64, len: u64) -> SimDuration {
        let target = self.spec.cylinder_of(addr);
        let dist = target.abs_diff(self.head_cylinder);
        self.spec.controller_overhead
            + self.spec.seek_time(dist)
            + self.spec.rotation_time() / 2
            + self.spec.transfer_time(len)
    }

    fn access(&mut self, addr: u64, len: u64) -> SimDuration {
        // lint: allow(E1): spin_up charges "disk.spin_up" for the spin-up window, access charges "disk.active" for the transfer window — disjoint accounts over disjoint intervals, not double counting
        self.spin_up();
        let latency = self.service_estimate(addr, len);
        let target = self.spec.cylinder_of(addr);
        self.counters.seek_time += self.spec.seek_time(target.abs_diff(self.head_cylinder));
        self.head_cylinder = target;
        self.clock.advance(latency);
        self.energy
            .charge(account::ACTIVE, self.spec.active_power.energy_over(latency));
        self.counters.bytes += len;
        latency
    }

    /// Reads `len` bytes at `addr`, spinning up first if necessary.
    pub fn read(&mut self, addr: u64, len: u64) -> Result<SimDuration> {
        self.check(addr, len)?;
        let start = self.clock.now();
        self.access(addr, len);
        self.counters.reads += 1;
        Ok(self.clock.now().since(start))
    }

    /// Writes `len` bytes at `addr`, spinning up first if necessary. Disks
    /// rewrite in place: no erase, no endurance limit.
    pub fn write(&mut self, addr: u64, len: u64) -> Result<SimDuration> {
        self.check(addr, len)?;
        let start = self.clock.now();
        self.access(addr, len);
        self.counters.writes += 1;
        Ok(self.clock.now().since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::Clock;

    fn disk() -> Disk {
        Disk::new(DiskSpec::default().with_capacity(4 << 20), Clock::shared())
    }

    #[test]
    fn requests_are_counted() {
        let mut d = disk();
        d.write(8192, 13).expect("write");
        d.read(8192, 512).expect("read");
        let c = d.counters();
        assert_eq!((c.reads, c.writes, c.bytes), (1, 1, 525));
    }

    #[test]
    fn seek_curve_is_monotone_and_anchored() {
        let s = DiskSpec::default();
        assert_eq!(s.seek_time(0), SimDuration::ZERO);
        let t1 = s.seek_time(1);
        let t_avg = s.seek_time(s.cylinders / 3);
        let t_full = s.seek_time(s.cylinders - 1);
        assert!((t1.as_millis_f64() - 3.0).abs() < 0.1);
        assert!((t_avg.as_millis_f64() - 18.0).abs() < 1.0);
        assert!(t1 < t_avg && t_avg < t_full);
    }

    #[test]
    fn access_latency_is_milliseconds_not_nanoseconds() {
        let mut d = disk();
        let lat = d.read(0, 512).expect("read");
        // Seek 0, half rotation ≈ 5.6 ms at 5400 rpm, plus overheads.
        assert!(lat >= SimDuration::from_millis(5));
    }

    #[test]
    fn sequential_access_avoids_long_seeks() {
        let mut d = disk();
        d.read(0, 512).expect("position at 0");
        let near = d.read(512, 512).expect("sequential");
        let mut d2 = disk();
        d2.read(0, 512).expect("position at 0");
        let cap = d2.capacity();
        let far = d2.read(cap - 512, 512).expect("far");
        assert!(far > near);
    }

    #[test]
    fn standby_access_pays_spin_up() {
        let clock = Clock::shared();
        let mut d = Disk::new(DiskSpec::default().with_capacity(1 << 20), clock.clone());
        d.spin_down();
        assert_eq!(d.spin_state(), SpinState::Standby);
        let lat = d.read(0, 512).expect("read from standby");
        assert!(lat >= d.spec().spin_up);
        assert_eq!(d.counters().spin_ups, 1);
        assert_eq!(d.spin_state(), SpinState::Spinning);
    }

    #[test]
    fn idle_power_depends_on_spin_state() {
        let mut d = disk();
        d.charge_idle(SimDuration::from_secs(1));
        d.spin_down();
        d.charge_idle(SimDuration::from_secs(1));
        let spinning = d.energy().component(account::IDLE);
        let standby = d.energy().component(account::STANDBY);
        assert!(standby < spinning);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let cap = d.capacity();
        assert!(matches!(
            d.write(cap - 10, 64),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn service_estimate_matches_actual_latency() {
        let mut d = disk();
        let est = d.service_estimate(1 << 20, 4096);
        let act = d.read(1 << 20, 4096).expect("read");
        assert_eq!(est, act);
    }
}
