//! The §4 sizing question: how to apportion storage between DRAM and
//! flash (experiment F7).
//!
//! For a fixed dollar budget the sweep builds machines along the
//! DRAM:flash trade-off curve, runs the same workload on each, and
//! reports latency, energy, projected flash lifetime, and feasibility
//! (enough flash to hold the workload's live data; enough DRAM to run).
//! The paper's position — "the answer depends on the workload" — falls
//! out as different workloads preferring different points.

use crate::config::MachineConfig;
use crate::machine::MobileComputer;
use crate::run::run_trace;
use ssmc_device::DramSpec;
use ssmc_sim::parallel_sweep;
use ssmc_sim::report::{ToReport, Value};
use ssmc_trace::Trace;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SizingSpec {
    /// Total budget in 1993 dollars.
    pub budget_dollars: f64,
    /// DRAM fractions of the budget to try.
    pub dram_fractions: Vec<f64>,
    /// Base machine configuration (sizes are overwritten per point). Its
    /// parts' 1993 prices set how many megabytes each share buys.
    pub base: MachineConfig,
}

impl Default for SizingSpec {
    fn default() -> Self {
        SizingSpec {
            budget_dollars: 1_000.0,
            dram_fractions: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            base: MachineConfig::small_notebook(),
        }
    }
}

/// One point on the trade-off curve.
#[derive(Debug, Clone)]
pub struct SizingPoint {
    /// DRAM megabytes bought.
    pub dram_mb: f64,
    /// Flash megabytes bought.
    pub flash_mb: f64,
    /// Fraction of budget spent on DRAM.
    pub dram_fraction: f64,
    /// Whether the machine completed the workload without running out of
    /// space or memory.
    pub feasible: bool,
    /// Mean data-operation latency, microseconds.
    pub mean_latency_us: f64,
    /// Total energy, joules.
    pub energy_joules: f64,
    /// Projected flash lifetime, years (`None` if no wear observed).
    pub lifetime_years: Option<f64>,
    /// Write-traffic reduction achieved by the buffer.
    pub write_reduction: f64,
}

impl ToReport for SizingPoint {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("dram_mb", self.dram_mb.to_report()),
            ("flash_mb", self.flash_mb.to_report()),
            ("dram_fraction", self.dram_fraction.to_report()),
            ("feasible", self.feasible.to_report()),
            ("mean_latency_us", self.mean_latency_us.to_report()),
            ("energy_joules", self.energy_joules.to_report()),
            ("lifetime_years", self.lifetime_years.to_report()),
            ("write_reduction", self.write_reduction.to_report()),
        ])
    }
}

/// Runs the sweep: one machine per DRAM fraction, all driven by `trace`.
///
/// Points are independent simulations, so they run on the shared
/// [`parallel_sweep`] pool; the returned vector preserves the order of
/// `spec.dram_fractions` regardless of the thread count.
pub fn sweep_sizing(spec: &SizingSpec, trace: &Trace) -> Vec<SizingPoint> {
    parallel_sweep(&spec.dram_fractions, |_, &fraction| {
        run_point(spec, trace, fraction)
    })
}

fn run_point(spec: &SizingSpec, trace: &Trace, fraction: f64) -> SizingPoint {
    let dram_dollars = spec.budget_dollars * fraction;
    let flash_dollars = spec.budget_dollars - dram_dollars;
    let dram_mb = dram_dollars / DramSpec::default().cost_per_mb;
    let flash_mb = flash_dollars / spec.base.storage.flash.cost_per_mb;
    let dram_bytes = (dram_mb * 1024.0 * 1024.0) as u64;
    let flash_bytes = (flash_mb * 1024.0 * 1024.0) as u64;

    let mut cfg = spec.base.clone();
    cfg.name = format!("sizing-{:.0}pct-dram", fraction * 100.0);
    cfg.dram_total = dram_bytes.max(4 * cfg.storage.page_size);
    cfg.storage.flash = cfg.storage.flash.clone().with_capacity(
        flash_bytes
            .max((cfg.storage.gc_target_segments as u64 + 8) * cfg.storage.flash.block_bytes),
    );
    let mut machine = MobileComputer::new(cfg);
    let report = run_trace(&mut machine, trace);
    let feasible = report.replay.errors == 0;
    SizingPoint {
        dram_mb,
        flash_mb,
        dram_fraction: fraction,
        feasible,
        mean_latency_us: report.replay.mean_data_latency().as_micros_f64(),
        energy_joules: report.energy_joules,
        lifetime_years: report.lifetime_years,
        write_reduction: report.write_reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_trace::{GeneratorConfig, Workload};

    #[test]
    fn sweep_produces_a_point_per_fraction() {
        let spec = SizingSpec {
            dram_fractions: vec![0.2, 0.5],
            ..SizingSpec::default()
        };
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(1_500)
            .with_max_live_bytes(1 << 20)
            .generate();
        let points = sweep_sizing(&spec, &trace);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.feasible, "office at {}% DRAM", p.dram_fraction * 100.0);
            assert!(p.dram_mb + p.flash_mb > 0.0);
            // Budget respected.
            let cost = p.dram_mb * DramSpec::default().cost_per_mb
                + p.flash_mb * spec.base.storage.flash.cost_per_mb;
            assert!((cost - spec.budget_dollars).abs() < 1.0);
        }
    }

    #[test]
    fn giving_all_budget_to_dram_starves_flash() {
        // With 95 % of the budget on DRAM, flash is tiny; a workload with
        // a bigger live set must fail ops and be reported infeasible.
        let spec = SizingSpec {
            budget_dollars: 400.0,
            dram_fractions: vec![0.95],
            ..SizingSpec::default()
        };
        let trace = GeneratorConfig::new(Workload::Bsd)
            .with_ops(8_000)
            .with_max_live_bytes(6 << 20)
            .generate();
        let points = sweep_sizing(&spec, &trace);
        assert!(!points[0].feasible, "starved flash should be infeasible");
    }
}
