//! Storage-device models for the solid-state mobile computer.
//!
//! The paper's §2 compares three technologies on performance, cost, density,
//! and power: DRAM, flash memory, and small magnetic disks. This crate
//! models all three with the characteristics the paper's argument rests on:
//!
//! * [`flash`] — direct-mapped flash: byte-granular random reads, slow
//!   programs, erase-before-rewrite in fixed blocks, bounded endurance per
//!   block, and independent banks (reads stall while the addressed bank is
//!   busy programming or erasing).
//! * [`dram`] — battery-backed DRAM with refresh/self-refresh power and
//!   content loss when the [`battery`] finally dies.
//! * [`disk`] — a small mobile hard disk with a seek curve, rotational
//!   latency, transfer time, and a spin-up/spin-down power state machine.
//! * [`catalog`] — the 1993 products the paper cites (NEC 3.3 V DRAM, Intel
//!   and SunDisk flash, HP KittyHawk and Fujitsu disks) as model presets,
//!   the one place §2's numbers are written.
//! * [`trends`] — the Patterson & Hennessy improvement-rate extrapolation
//!   the paper uses to predict the flash/disk cost crossover, starting
//!   from the catalog's presets.
//!
//! Every operation charges simulated latency to a shared
//! [`ssmc_sim::Clock`] and energy to an [`ssmc_sim::EnergyLedger`].

#![forbid(unsafe_code)]

pub mod battery;
pub mod catalog;
pub mod disk;
pub mod dram;
pub mod error;
pub mod flash;
pub mod trends;

pub use battery::{Battery, BatterySpec, BatteryState};
pub use catalog::{
    catalog_1993, fujitsu_m2633, hp_kittyhawk, intel_flash, nec_dram, sundisk_flash, Part,
    ProductSpec, Technology,
};
pub use disk::{Disk, DiskSpec, SpinState};
pub use dram::{Dram, DramSpec};
pub use error::DeviceError;
pub use flash::{BankId, BlockId, Flash, FlashSpec, TearMode, WearStats};
pub use trends::TrendModel;

/// Result alias for device operations.
pub type Result<T> = core::result::Result<T, DeviceError>;
