//! A3 — ablation: logical page size.
//!
//! The storage manager's page is the unit of buffering, copy-on-write,
//! tombstoning, and flash programming. Small pages absorb fine-grained
//! record updates (the PDA workload) but cost more per-page bookkeeping;
//! big pages amplify sub-page writes through read-modify-write. The paper
//! fixes no page size; this ablation shows why 512 B is the sweet spot
//! for the 1993 workloads.

use ssmc_core::{run_trace, MachineConfig, MobileComputer};
use ssmc_sim::Table;
use ssmc_trace::{GeneratorConfig, Workload};

struct Outcome {
    reduction_pct: f64,
    flash_kb: u64,
    mean_data_us: f64,
    amplification: f64,
}

fn drive(page_size: u64, workload: Workload) -> Outcome {
    let mut cfg = MachineConfig::small_notebook();
    cfg.storage.page_size = page_size;
    let mut m = MobileComputer::new(cfg);
    let trace = GeneratorConfig::new(workload)
        .with_ops(10_000)
        .with_max_live_bytes(2 << 20)
        .generate();
    let report = run_trace(&mut m, &trace);
    assert_eq!(report.replay.errors, 0, "page size {page_size} errored");
    let sm = m.fs().storage().metrics();
    Outcome {
        reduction_pct: report.write_reduction * 100.0,
        flash_kb: sm.user_flash_pages * page_size / 1024,
        mean_data_us: report.replay.mean_data_latency().as_micros_f64(),
        amplification: report.write_amplification,
    }
}

/// Runs A3.
pub fn run() -> Vec<Table> {
    let mut tables = Vec::new();
    for workload in [Workload::Office, Workload::Bsd] {
        let mut t = Table::new(
            format!("A3: logical page size — {workload} workload"),
            &[
                "page size (B)",
                "traffic reduction (%)",
                "flash written (KB)",
                "mean data op (us)",
                "write amplification",
            ],
        );
        for page in [512u64, 1024, 2048, 4096] {
            let o = drive(page, workload);
            t.row(vec![
                page.into(),
                o.reduction_pct.into(),
                o.flash_kb.into(),
                o.mean_data_us.into(),
                o.amplification.into(),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pages_write_less_flash_for_record_updates() {
        let small = drive(512, Workload::Office);
        let big = drive(4096, Workload::Office);
        assert!(
            small.flash_kb < big.flash_kb,
            "512 B wrote {} KB, 4 KB wrote {} KB",
            small.flash_kb,
            big.flash_kb
        );
    }
}
