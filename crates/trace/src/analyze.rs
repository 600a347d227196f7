//! Workload characterization.
//!
//! The generators claim calibration against the published findings of the
//! BSD \[8\] and Sprite \[3\] studies; this module measures a trace the same
//! way those papers measured their systems, so the claim is checkable:
//! operation mix, write-size distribution, and — the load-bearing one —
//! the *survival curve of written bytes* (what fraction of new data is
//! dead within N seconds of being written).

use crate::record::{FileOp, Trace};
use ssmc_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Characterization of one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Fraction of operations that are writes (including create writes).
    pub write_fraction: f64,
    /// Median write size in bytes.
    pub median_write: u64,
    /// 90th-percentile write size in bytes.
    pub p90_write: u64,
    /// Fraction of written bytes deleted within 30 simulated seconds.
    pub bytes_dead_30s: f64,
    /// Fraction of written bytes deleted within 5 simulated minutes.
    pub bytes_dead_5min: f64,
    /// Fraction of written bytes still alive at the end of the trace.
    pub bytes_surviving: f64,
    /// Mean interval between operations.
    pub mean_interarrival: SimDuration,
}

impl TraceAnalysis {
    /// Analyses a trace.
    pub fn of(trace: &Trace) -> TraceAnalysis {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut write_sizes: Vec<u64> = Vec::new();
        // Byte-lifetime accounting: every written byte belongs to its
        // file; deletion stamps the death time of all its bytes.
        let mut file_bytes: BTreeMap<u64, Vec<(SimTime, u64)>> = BTreeMap::new();
        let mut lifetimes: Vec<(SimDuration, u64)> = Vec::new();
        let mut total_bytes = 0u64;
        for r in &trace.records {
            match &r.op {
                FileOp::Read { .. } => reads += 1,
                FileOp::Write { file, len, .. } => {
                    writes += 1;
                    write_sizes.push(*len);
                    total_bytes += len;
                    file_bytes.entry(*file).or_default().push((r.at, *len));
                }
                FileOp::Delete { file } => {
                    if let Some(chunks) = file_bytes.remove(file) {
                        for (born, len) in chunks {
                            lifetimes.push((r.at.since(born), len));
                        }
                    }
                }
                _ => {}
            }
        }
        let total_ops = trace.len().max(1) as f64;
        write_sizes.sort_unstable();
        let pick = |q: f64| -> u64 {
            if write_sizes.is_empty() {
                0
            } else {
                write_sizes[((write_sizes.len() - 1) as f64 * q) as usize]
            }
        };
        let dead_within = |d: SimDuration| -> f64 {
            if total_bytes == 0 {
                return 0.0;
            }
            let dead: u64 = lifetimes
                .iter()
                .filter(|(life, _)| *life <= d)
                .map(|(_, len)| len)
                .sum();
            dead as f64 / total_bytes as f64
        };
        let dead_total: u64 = lifetimes.iter().map(|(_, len)| len).sum();
        TraceAnalysis {
            read_fraction: reads as f64 / total_ops,
            write_fraction: writes as f64 / total_ops,
            median_write: pick(0.5),
            p90_write: pick(0.9),
            bytes_dead_30s: dead_within(SimDuration::from_secs(30)),
            bytes_dead_5min: dead_within(SimDuration::from_secs(300)),
            bytes_surviving: if total_bytes == 0 {
                0.0
            } else {
                1.0 - dead_total as f64 / total_bytes as f64
            },
            mean_interarrival: if trace.len() > 1 {
                trace.span() / (trace.len() as u64 - 1)
            } else {
                SimDuration::ZERO
            },
        }
    }
}

impl core::fmt::Display for TraceAnalysis {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "op mix: {:.0}% reads, {:.0}% writes; mean interarrival {}",
            self.read_fraction * 100.0,
            self.write_fraction * 100.0,
            self.mean_interarrival
        )?;
        writeln!(
            f,
            "write sizes: median {} B, p90 {} B",
            self.median_write, self.p90_write
        )?;
        write!(
            f,
            "byte survival: {:.0}% dead within 30 s, {:.0}% within 5 min, {:.0}% survive the trace",
            self.bytes_dead_30s * 100.0,
            self.bytes_dead_5min * 100.0,
            self.bytes_surviving * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, Workload};
    use crate::lifetime::LifetimeModel;

    #[test]
    fn bsd_trace_matches_sprite_calibration_targets() {
        // Baker et al. report 65-80 % of new bytes dying within ~30 s on
        // Sprite; our default BSD profile (short_fraction 0.7, mean 30 s)
        // should land a substantial dead-bytes fraction within 5 minutes.
        let trace = GeneratorConfig::new(Workload::Bsd)
            .with_ops(30_000)
            .with_max_live_bytes(6 << 20)
            .generate();
        let a = TraceAnalysis::of(&trace);
        assert!(
            a.bytes_dead_5min > 0.3,
            "dead within 5 min: {:.2}",
            a.bytes_dead_5min
        );
        assert!(a.bytes_dead_30s < a.bytes_dead_5min);
        // Reads dominate the BSD mix.
        assert!(a.read_fraction > a.write_fraction);
        // Small median, heavy tail.
        assert!(a.median_write <= a.p90_write);
    }

    #[test]
    fn lifetime_override_moves_the_survival_curve() {
        let short = TraceAnalysis::of(
            &GeneratorConfig::new(Workload::Bsd)
                .with_ops(15_000)
                .with_lifetime(LifetimeModel::default().with_short_fraction(0.95))
                .generate(),
        );
        let long = TraceAnalysis::of(
            &GeneratorConfig::new(Workload::Bsd)
                .with_ops(15_000)
                .with_lifetime(LifetimeModel::default().with_short_fraction(0.1))
                .generate(),
        );
        assert!(
            short.bytes_dead_5min > long.bytes_dead_5min,
            "short {:.2} vs long {:.2}",
            short.bytes_dead_5min,
            long.bytes_dead_5min
        );
    }

    #[test]
    fn database_data_does_not_die_young() {
        // Database tables are long-lived: almost nothing is deleted within
        // seconds of being written (the opposite of the BSD profile), and
        // the op mix is write-heavy.
        let a = TraceAnalysis::of(
            &GeneratorConfig::new(Workload::Database)
                .with_ops(10_000)
                .with_max_live_bytes(16 << 20)
                .generate(),
        );
        assert!(
            a.bytes_dead_30s < 0.15,
            "dead in 30 s: {:.2}",
            a.bytes_dead_30s
        );
        assert!(a.write_fraction > a.read_fraction);
        let bsd = TraceAnalysis::of(
            &GeneratorConfig::new(Workload::Bsd)
                .with_ops(10_000)
                .generate(),
        );
        assert!(
            bsd.bytes_dead_5min > a.bytes_dead_5min,
            "bsd {:.2} vs db {:.2}",
            bsd.bytes_dead_5min,
            a.bytes_dead_5min
        );
    }

    #[test]
    fn display_is_readable() {
        let a = TraceAnalysis::of(
            &GeneratorConfig::new(Workload::Office)
                .with_ops(2_000)
                .generate(),
        );
        let s = a.to_string();
        assert!(s.contains("op mix"));
        assert!(s.contains("byte survival"));
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let a = TraceAnalysis::of(&Trace::new("empty"));
        assert_eq!(a.read_fraction, 0.0);
        assert_eq!(a.median_write, 0);
        assert_eq!(a.bytes_surviving, 0.0);
    }
}
