//! Storage-manager metrics.
//!
//! Every experiment about the storage manager reads off this struct:
//! F2 from the absorbed-versus-flushed byte counts, F5 from the write
//! amplification, F4 from erase counts (combined with the device's wear
//! stats), T3 from the dirty-data exposure.

use ssmc_sim::obs::MetricSink;
use ssmc_sim::{SimDuration, SimTime, TimeWeighted};

/// Counters and gauges maintained by the storage manager.
#[derive(Debug)]
pub struct StorageMetrics {
    /// Page writes requested by the layers above.
    pub pages_written: u64,
    /// Bytes of write requests from above.
    pub bytes_written: u64,
    /// Page writes absorbed by overwriting a still-buffered page.
    pub overwrites_absorbed: u64,
    /// Page writes cancelled because the page was freed while buffered.
    pub deaths_absorbed: u64,
    /// Pages programmed to flash on behalf of user data (flushes).
    pub user_flash_pages: u64,
    /// Pages programmed to flash by garbage collection and wear leveling
    /// (copies of live data).
    pub gc_flash_pages: u64,
    /// Segment summary pages programmed.
    pub summary_flash_pages: u64,
    /// Checkpoint pages programmed.
    pub checkpoint_flash_pages: u64,
    /// Page reads served from the DRAM buffer.
    pub reads_from_dram: u64,
    /// Page reads served from flash.
    pub reads_from_flash: u64,
    /// Reads of unwritten pages (holes), served as zeros.
    pub hole_reads: u64,
    /// Garbage-collection passes.
    pub gc_runs: u64,
    /// Static wear-leveling migrations.
    pub wear_migrations: u64,
    /// Time writers spent stalled waiting for a free segment (erase
    /// backlog).
    pub gc_wait: SimDuration,
    /// Write-buffer occupancy over time (pages).
    pub buffer_occupancy: TimeWeighted,
    /// Dirty (at-risk) pages over time.
    pub dirty_exposure: TimeWeighted,
}

impl StorageMetrics {
    /// Creates zeroed metrics starting at `now`.
    pub fn new(now: SimTime) -> Self {
        StorageMetrics {
            pages_written: 0,
            bytes_written: 0,
            overwrites_absorbed: 0,
            deaths_absorbed: 0,
            user_flash_pages: 0,
            gc_flash_pages: 0,
            summary_flash_pages: 0,
            checkpoint_flash_pages: 0,
            reads_from_dram: 0,
            reads_from_flash: 0,
            hole_reads: 0,
            gc_runs: 0,
            wear_migrations: 0,
            gc_wait: SimDuration::ZERO,
            buffer_occupancy: TimeWeighted::new(now, 0.0),
            dirty_exposure: TimeWeighted::new(now, 0.0),
        }
    }

    /// Fraction of requested page writes that never reached flash — the
    /// paper's "write traffic reduction" (experiment F2).
    pub fn write_traffic_reduction(&self) -> f64 {
        if self.pages_written == 0 {
            return 0.0;
        }
        1.0 - self.user_flash_pages as f64 / self.pages_written as f64
    }

    /// Flash write amplification: total pages programmed per user page
    /// flushed (experiment F5). 1.0 means GC copied nothing.
    pub fn write_amplification(&self) -> f64 {
        if self.user_flash_pages == 0 {
            return 1.0;
        }
        (self.user_flash_pages + self.gc_flash_pages) as f64 / self.user_flash_pages as f64
    }

    /// Fraction of data reads served from DRAM.
    pub fn dram_read_fraction(&self) -> f64 {
        let total = self.reads_from_dram + self.reads_from_flash;
        if total == 0 {
            0.0
        } else {
            self.reads_from_dram as f64 / total as f64
        }
    }

    /// Publishes every field (and the derived ratios) under `storage.*`
    /// names: counters as counters, the time-weighted signals as
    /// time-weighted instruments, the ratios as gauges.
    pub fn publish<S: MetricSink>(&self, sink: &mut S) {
        sink.counter("storage.pages_written", self.pages_written);
        sink.counter("storage.bytes_written", self.bytes_written);
        sink.counter("storage.overwrites_absorbed", self.overwrites_absorbed);
        sink.counter("storage.deaths_absorbed", self.deaths_absorbed);
        sink.counter("storage.user_flash_pages", self.user_flash_pages);
        sink.counter("storage.gc_flash_pages", self.gc_flash_pages);
        sink.counter("storage.summary_flash_pages", self.summary_flash_pages);
        sink.counter(
            "storage.checkpoint_flash_pages",
            self.checkpoint_flash_pages,
        );
        sink.counter("storage.reads_from_dram", self.reads_from_dram);
        sink.counter("storage.reads_from_flash", self.reads_from_flash);
        sink.counter("storage.hole_reads", self.hole_reads);
        sink.counter("storage.gc_runs", self.gc_runs);
        sink.counter("storage.wear_migrations", self.wear_migrations);
        sink.counter("storage.gc_wait_ns", self.gc_wait.as_nanos());
        sink.time_weighted("storage.buffer_occupancy", &self.buffer_occupancy);
        sink.time_weighted("storage.dirty_exposure", &self.dirty_exposure);
        sink.gauge(
            "storage.write_traffic_reduction",
            self.write_traffic_reduction(),
        );
        sink.gauge("storage.write_amplification", self.write_amplification());
        sink.gauge("storage.dram_read_fraction", self.dram_read_fraction());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_amplification_formulas() {
        let mut m = StorageMetrics::new(SimTime::ZERO);
        m.pages_written = 100;
        m.user_flash_pages = 55;
        m.gc_flash_pages = 11;
        assert!((m.write_traffic_reduction() - 0.45).abs() < 1e-12);
        assert!((m.write_amplification() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn zero_activity_is_well_defined() {
        let m = StorageMetrics::new(SimTime::ZERO);
        assert_eq!(m.write_traffic_reduction(), 0.0);
        assert_eq!(m.write_amplification(), 1.0);
        assert_eq!(m.dram_read_fraction(), 0.0);
    }

    #[test]
    fn dram_read_fraction_counts_both_sources() {
        let mut m = StorageMetrics::new(SimTime::ZERO);
        m.reads_from_dram = 3;
        m.reads_from_flash = 1;
        assert!((m.dram_read_fraction() - 0.75).abs() < 1e-12);
    }
}
