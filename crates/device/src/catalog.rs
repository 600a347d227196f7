//! The 1993 product catalog.
//!
//! §2 of the paper compares concrete products: an NEC 3.3 V self-refresh
//! DRAM, Intel memory-mapped flash, the SunDisk solid-state drive
//! replacement, the HP KittyHawk 1.3-inch disk, and a Fujitsu 2.5-inch
//! disk. This module encodes those products as presets for the device
//! models, and the presets are the one place those numbers are written:
//! T1 prints them, the generic default specs differ from them only where
//! stated, the trend model (F1) extrapolates from them and the sizing
//! sweep (F7) prices its machines with them. Figures are taken from the
//! paper where it states them (flash ≈100 ns/B reads, ≈10 µs/B writes,
//! 100 k cycles, ≈$50/MB, tens of mW/MB; NEC DRAM 15 MB/in³; KittyHawk
//! 19 MB/in³; the 12 MB DRAM ≈ 20 MB flash ≈ 120 MB disk equal-cost
//! anchor of §4) and otherwise approximated from data sheets of the era.
//! Absolute values matter less than the ratios the paper argues from.

use crate::disk::DiskSpec;
use crate::dram::DramSpec;
use crate::flash::FlashSpec;
use ssmc_sim::{Power, SimDuration};

/// Storage technology: the class of a catalog part, and what the
/// [`crate::trends`] model extrapolates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technology {
    /// Volatile semiconductor memory (battery-backed in this design).
    Dram,
    /// Non-volatile flash memory.
    Flash,
    /// Small magnetic disk.
    Disk,
}

impl core::fmt::Display for Technology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Technology::Dram => write!(f, "DRAM"),
            Technology::Flash => write!(f, "flash"),
            Technology::Disk => write!(f, "disk"),
        }
    }
}

/// One catalog part: a device-model preset, which carries the part's
/// name, timing, power, $/MB and MB/in³.
#[derive(Debug, Clone)]
pub enum Part {
    /// A DRAM part.
    Dram(DramSpec),
    /// A flash part.
    Flash(FlashSpec),
    /// A disk.
    Disk(DiskSpec),
}

impl Part {
    /// Product name.
    pub fn name(&self) -> &str {
        match self {
            Part::Dram(s) => &s.name,
            Part::Flash(s) => &s.name,
            Part::Disk(s) => &s.name,
        }
    }

    /// Technology class.
    pub fn technology(&self) -> Technology {
        match self {
            Part::Dram(_) => Technology::Dram,
            Part::Flash(_) => Technology::Flash,
            Part::Disk(_) => Technology::Disk,
        }
    }

    /// 1993 list cost, US dollars per megabyte.
    pub fn cost_per_mb(&self) -> f64 {
        match self {
            Part::Dram(s) => s.cost_per_mb,
            Part::Flash(s) => s.cost_per_mb,
            Part::Disk(s) => s.cost_per_mb,
        }
    }

    /// Volumetric density, megabytes per cubic inch.
    pub fn density_mb_per_in3(&self) -> f64 {
        match self {
            Part::Dram(s) => s.density_mb_per_in3,
            Part::Flash(s) => s.density_mb_per_in3,
            Part::Disk(s) => s.density_mb_per_in3,
        }
    }
}

/// A catalog entry: the part plus the one §2 attribute its device model
/// does not carry.
#[derive(Debug, Clone)]
pub struct ProductSpec {
    /// The part.
    pub part: Part,
    /// Active power per megabyte, milliwatts (coarse; §2 compares orders of
    /// magnitude).
    pub active_mw_per_mb: f64,
}

/// NEC 3.3 V DRAM with low-power self-refresh (\[7\] in the paper).
pub fn nec_dram() -> DramSpec {
    DramSpec {
        name: "NEC 3.3V self-refresh DRAM".to_owned(),
        capacity: 8 << 20,
        access: SimDuration::from_nanos(100),
        ns_per_byte: 20,
        active_power: Power::from_milliwatts(300),
        refresh_power: Power::from_milliwatts(8),
        self_refresh_power: Power::from_milliwatts(2),
        cost_per_mb: 83.0,
        density_mb_per_in3: 15.0,
    }
}

/// Intel memory-mapped flash (\[6\]): fast reads, slow writes, large erase
/// blocks. This is the part the execute-in-place and direct-mapping
/// arguments assume.
pub fn intel_flash() -> FlashSpec {
    FlashSpec {
        name: "Intel memory-mapped flash".to_owned(),
        banks: 1,
        blocks_per_bank: 320,
        block_bytes: 64 * 1024,
        write_unit: 512,
        read_access: SimDuration::from_nanos(150),
        read_ns_per_byte: 100,
        program_setup: SimDuration::from_micros(5),
        program_ns_per_byte: 10_000,
        erase_latency: SimDuration::from_millis(800),
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

/// SunDisk solid-state drive replacement (\[13\]): disk-like sector
/// interface, balanced read/write, small auto-erased sectors.
pub fn sundisk_flash() -> FlashSpec {
    FlashSpec {
        name: "SunDisk SDP drive replacement".to_owned(),
        banks: 1,
        blocks_per_bank: 40_960,
        block_bytes: 512,
        write_unit: 512,
        read_access: SimDuration::from_micros(1_500),
        read_ns_per_byte: 1_000,
        program_setup: SimDuration::from_micros(1_000),
        program_ns_per_byte: 2_000,
        erase_latency: SimDuration::from_micros(2_500),
        endurance: 100_000,
        suspend_overhead: None,
        read_power: Power::from_milliwatts(60),
        program_power: Power::from_milliwatts(120),
        erase_power: Power::from_milliwatts(120),
        idle_power: Power::from_milliwatts(2),
        cost_per_mb: 50.0,
        density_mb_per_in3: 17.0,
    }
}

/// HP KittyHawk 1.3-inch personal storage module (\[5\]).
pub fn hp_kittyhawk() -> DiskSpec {
    DiskSpec {
        name: "HP KittyHawk 1.3-inch".to_owned(),
        capacity: 20 << 20,
        sector_bytes: 512,
        cylinders: 900,
        track_to_track: SimDuration::from_millis(3),
        avg_seek: SimDuration::from_millis(18),
        rpm: 5400,
        transfer_bytes_per_sec: 1_000_000,
        controller_overhead: SimDuration::from_micros(500),
        spin_up: SimDuration::from_millis(1_000),
        active_power: Power::from_milliwatts(1_500),
        idle_power: Power::from_milliwatts(700),
        standby_power: Power::from_milliwatts(15),
        spin_up_power: Power::from_milliwatts(2_200),
        cost_per_mb: 8.3,
        density_mb_per_in3: 19.0,
    }
}

/// Fujitsu M2633 2.5-inch drive (\[4\]): larger, denser, cheaper per MB.
pub fn fujitsu_m2633() -> DiskSpec {
    DiskSpec {
        name: "Fujitsu M2633 2.5-inch".to_owned(),
        capacity: 90 << 20,
        sector_bytes: 512,
        cylinders: 1_400,
        track_to_track: SimDuration::from_millis(4),
        avg_seek: SimDuration::from_millis(17),
        rpm: 4500,
        transfer_bytes_per_sec: 1_500_000,
        controller_overhead: SimDuration::from_micros(500),
        spin_up: SimDuration::from_millis(1_500),
        active_power: Power::from_milliwatts(2_300),
        idle_power: Power::from_milliwatts(950),
        standby_power: Power::from_milliwatts(25),
        spin_up_power: Power::from_milliwatts(3_000),
        cost_per_mb: 5.0,
        density_mb_per_in3: 34.0,
    }
}

/// The full §2 comparison catalog.
pub fn catalog_1993() -> Vec<ProductSpec> {
    let product = |part, active_mw_per_mb| ProductSpec {
        part,
        active_mw_per_mb,
    };
    vec![
        product(Part::Dram(nec_dram()), 37.0),
        product(Part::Flash(intel_flash()), 4.5),
        product(Part::Flash(sundisk_flash()), 6.0),
        product(Part::Disk(hp_kittyhawk()), 75.0),
        product(Part::Disk(fujitsu_m2633()), 26.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_five_products() {
        let c = catalog_1993();
        assert_eq!(c.len(), 5);
        let count = |t| c.iter().filter(|p| p.part.technology() == t).count();
        assert_eq!(count(Technology::Flash), 2);
        assert_eq!(count(Technology::Disk), 2);
    }

    #[test]
    fn paper_cost_ordering_holds() {
        // §2: "DRAM is faster than flash memory but somewhat costlier,
        // while disk is slower than flash memory but considerably cheaper."
        let dram = nec_dram().cost_per_mb;
        let flash = intel_flash().cost_per_mb;
        let disk = hp_kittyhawk().cost_per_mb;
        assert!(dram > flash);
        assert!(flash > 3.0 * disk);
    }

    #[test]
    fn section4_equal_cost_anchor() {
        // §4: "one may have to choose between 12 megabytes of DRAM, 20
        // megabytes of flash memory, or 120 megabytes of magnetic disk for
        // the same cost." Our per-MB prices honour that within 20 %.
        let dram_total = 12.0 * nec_dram().cost_per_mb;
        let flash_total = 20.0 * intel_flash().cost_per_mb;
        let disk_total = 120.0 * hp_kittyhawk().cost_per_mb;
        let max = dram_total.max(flash_total).max(disk_total);
        let min = dram_total.min(flash_total).min(disk_total);
        assert!(max / min < 1.2, "anchor spread {max}/{min}");
    }

    #[test]
    fn flash_timing_matches_paper_ranges() {
        let f = intel_flash();
        // ~100 ns per byte reads, ~10 us per byte writes.
        assert_eq!(f.read_ns_per_byte, 100);
        assert_eq!(f.program_ns_per_byte, 10_000);
        assert_eq!(f.endurance, 100_000);
    }

    #[test]
    fn dram_density_near_kittyhawk() {
        // §2: NEC DRAM 15 MB/in^3 vs KittyHawk 19 MB/in^3.
        assert!((nec_dram().density_mb_per_in3 - 15.0).abs() < f64::EPSILON);
        assert!((hp_kittyhawk().density_mb_per_in3 - 19.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flash_density_within_20pct_of_kittyhawk_half_of_fujitsu() {
        // §2's two density claims about the flash products.
        for f in [intel_flash(), sundisk_flash()] {
            let ratio = f.density_mb_per_in3 / hp_kittyhawk().density_mb_per_in3;
            assert!(ratio > 0.8, "{} density ratio {ratio}", f.name);
            let vs_fujitsu = f.density_mb_per_in3 / fujitsu_m2633().density_mb_per_in3;
            assert!((0.4..0.6).contains(&vs_fujitsu), "{vs_fujitsu}");
        }
    }

    #[test]
    fn specs_construct_valid_devices() {
        use ssmc_sim::Clock;
        let clock = Clock::shared();
        let _ = crate::Flash::new(intel_flash().with_capacity(1 << 20), clock.clone());
        let _ = crate::Flash::new(sundisk_flash().with_capacity(1 << 20), clock.clone());
        let _ = crate::Dram::new(nec_dram().with_capacity(1 << 20), clock.clone());
        let _ = crate::Disk::new(hp_kittyhawk().with_capacity(1 << 20), clock.clone());
        let _ = crate::Disk::new(fujitsu_m2633().with_capacity(1 << 20), clock);
    }
}
