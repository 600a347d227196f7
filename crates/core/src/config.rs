//! Machine configuration and presets.

use ssmc_device::{BatterySpec, FlashSpec};
use ssmc_memfs::WritePolicy;
use ssmc_storage::StorageConfig;

/// Full configuration of a solid-state mobile computer. Both DRAM pools
/// (the storage manager's write buffer and the VM's frames) are the
/// generic `DramSpec::default()` part; the VM pages at
/// `storage.page_size`.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Machine name for reports.
    pub name: String,
    /// Total DRAM budget in bytes, split between the storage manager's
    /// write buffer and the VM's frame pool.
    pub dram_total: u64,
    /// Fraction of DRAM given to the write buffer.
    pub write_buffer_fraction: f64,
    /// Explicit write-buffer size in bytes; overrides the fraction when
    /// set (used by the F2 buffer-size sweep).
    pub write_buffer_bytes: Option<u64>,
    /// Storage-manager configuration (its `dram_buffer_bytes` is derived
    /// from the fields above).
    pub storage: StorageConfig,
    /// Battery pack.
    pub battery: BatterySpec,
    /// File-system write policy (copy-on-write per §3.1, or the
    /// conventional copy-on-open F8 compares against).
    pub write_policy: WritePolicy,
}

impl MachineConfig {
    /// A small 1993 notebook: 4 MB DRAM, 20 MB flash.
    pub fn small_notebook() -> Self {
        MachineConfig::with_sizes("small-notebook", 4 << 20, 20 << 20)
    }

    /// A palmtop / personal digital assistant: 1 MB DRAM, 4 MB flash.
    pub fn pda() -> Self {
        MachineConfig::with_sizes("pda", 1 << 20, 4 << 20)
    }

    /// A machine with explicit DRAM and flash sizes and default policies.
    pub fn with_sizes(name: &str, dram_bytes: u64, flash_bytes: u64) -> Self {
        // Flash cards are built from several independently operable chips;
        // four banks keeps reads from stalling behind every program/erase
        // (§3.3's partitioning argument, measured in experiment F3).
        let storage = StorageConfig {
            flash: FlashSpec::default()
                .with_capacity(flash_bytes)
                .with_banks(4),
            ..StorageConfig::default()
        };
        MachineConfig {
            name: name.to_owned(),
            dram_total: dram_bytes,
            write_buffer_fraction: 0.25,
            write_buffer_bytes: None,
            storage,
            battery: BatterySpec::default(),
            write_policy: WritePolicy::CopyOnWrite,
        }
    }

    /// DRAM bytes assigned to the write buffer.
    pub fn buffer_bytes(&self) -> u64 {
        let raw = match self.write_buffer_bytes {
            Some(b) => b.min(self.dram_total),
            None => (self.dram_total as f64 * self.write_buffer_fraction) as u64,
        };
        // Align down to whole pages.
        raw / self.storage.page_size * self.storage.page_size
    }

    /// DRAM frames assigned to the VM.
    pub fn vm_frames(&self) -> u64 {
        (self.dram_total - self.buffer_bytes()) / self.storage.page_size
    }

    /// Validates cross-component consistency.
    ///
    /// # Panics
    ///
    /// Panics on an empty DRAM budget or a buffer fraction out of range.
    pub fn validate(&self) {
        assert!(
            self.dram_total >= 2 * self.storage.page_size,
            "DRAM budget too small"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_buffer_fraction),
            "buffer fraction out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineConfig::small_notebook().validate();
        MachineConfig::pda().validate();
    }

    #[test]
    fn budget_split_adds_up() {
        let cfg = MachineConfig::small_notebook();
        let total = cfg.buffer_bytes() + cfg.vm_frames() * cfg.storage.page_size;
        assert!(total <= cfg.dram_total);
        assert!(total >= cfg.dram_total - 2 * cfg.storage.page_size);
    }

    #[test]
    fn notebook_flash_matches_twenty_megabytes() {
        let cfg = MachineConfig::small_notebook();
        let flash = cfg.storage.flash.capacity();
        assert!(flash >= 20 << 20);
        assert!(flash < (20 << 20) + 2 * cfg.storage.flash.block_bytes);
    }
}
