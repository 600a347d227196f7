//! F7 — §4 sizing DRAM and flash.
//!
//! Paper: "How should a system apportion its storage capacity between the
//! two technologies? ... The answer depends on the workload." For a fixed
//! 1993 budget we sweep the DRAM share and run three workloads with very
//! different writable working sets; the preferred split moves with the
//! workload, and over-buying DRAM starves the permanent-data repository
//! (infeasible points).

use ssmc_core::{sweep_sizing, MachineConfig, SizingSpec};
use ssmc_sim::{parallel_sweep, Table};
use ssmc_trace::{GeneratorConfig, Workload};

/// Runs F7. The three workload sweeps are independent and run on the
/// shared [`parallel_sweep`] pool (each sweep further parallelises over
/// its fractions).
pub fn run() -> Vec<Table> {
    let workloads = [Workload::Office, Workload::Bsd, Workload::Database];
    let sweeps = parallel_sweep(&workloads, |_, &workload| {
        let trace = GeneratorConfig::new(workload)
            .with_ops(8_000)
            .with_max_live_bytes(3 << 20)
            .generate();
        let spec = SizingSpec {
            budget_dollars: 1_000.0,
            dram_fractions: vec![0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9],
            base: MachineConfig::small_notebook(),
        };
        sweep_sizing(&spec, &trace)
    });
    let mut tables = Vec::new();
    for (workload, points) in workloads.into_iter().zip(sweeps) {
        let mut t = Table::new(
            format!("F7: $1000 split between DRAM and flash — {workload} workload"),
            &[
                "DRAM share",
                "DRAM (MB)",
                "flash (MB)",
                "feasible",
                "mean data op (us)",
                "energy (J)",
                "write reduction (%)",
                "flash life (years)",
            ],
        );
        for p in points {
            t.row(vec![
                p.dram_fraction.into(),
                p.dram_mb.into(),
                p.flash_mb.into(),
                if p.feasible { "yes" } else { "NO" }.into(),
                p.mean_latency_us.into(),
                p.energy_joules.into(),
                (p.write_reduction * 100.0).into(),
                match p.lifetime_years {
                    Some(y) => y.into(),
                    None => "-".into(),
                },
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_core::SizingPoint;

    fn best_feasible(points: &[SizingPoint]) -> Option<&SizingPoint> {
        points.iter().filter(|p| p.feasible).min_by(|a, b| {
            a.mean_latency_us
                .partial_cmp(&b.mean_latency_us)
                .expect("finite")
        })
    }

    #[test]
    fn extreme_dram_share_starves_flash_for_data_heavy_workloads() {
        let trace = GeneratorConfig::new(Workload::Bsd)
            .with_ops(6_000)
            .with_max_live_bytes(4 << 20)
            .generate();
        let spec = SizingSpec {
            budget_dollars: 500.0,
            dram_fractions: vec![0.15, 0.5, 0.95],
            base: MachineConfig::small_notebook(),
        };
        let points = sweep_sizing(&spec, &trace);
        assert!(points[0].feasible, "flash-heavy point runs");
        assert!(!points[2].feasible, "95% DRAM leaves too little flash");
        assert!(best_feasible(&points).is_some());
    }
}
