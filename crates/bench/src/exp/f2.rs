//! F2 — §3.3 write buffering (the paper's headline number).
//!
//! Paper, citing Baker et al. \[1\]: "as little as one megabyte of
//! battery-backed RAM can reduce write traffic by 40 to 50%." We sweep the
//! DRAM write-buffer size under a BSD-like workload and report the flash
//! write-traffic reduction, then sweep the *data-lifetime* assumption the
//! number rests on (fraction of new data that dies young).

use ssmc_core::{run_trace, MachineConfig, MobileComputer};
use ssmc_sim::{parallel_sweep, Table};
use ssmc_trace::{GeneratorConfig, LifetimeModel, Trace, Workload};

fn machine_with_buffer(buffer_bytes: u64) -> MobileComputer {
    let mut cfg = MachineConfig::with_sizes("f2", 8 << 20, 24 << 20);
    cfg.write_buffer_bytes = Some(buffer_bytes);
    MobileComputer::new(cfg)
}

fn bsd_trace(short_fraction: f64) -> Trace {
    GeneratorConfig::new(Workload::Bsd)
        .with_ops(25_000)
        .with_max_live_bytes(4 << 20)
        .with_lifetime(LifetimeModel::default().with_short_fraction(short_fraction))
        .generate()
}

/// Runs F2.
pub fn run() -> Vec<Table> {
    let mut sweep = Table::new(
        "F2a: flash write traffic vs DRAM write-buffer size (BSD-like workload)",
        &[
            "buffer (KB)",
            "traffic reduction (%)",
            "overwrites absorbed",
            "deaths absorbed",
            "user pages to flash",
            "pages written",
        ],
    );
    let trace = bsd_trace(0.7);
    let buffer_kbs = [0u64, 64, 128, 256, 512, 1024, 2048, 4096];
    for row in parallel_sweep(&buffer_kbs, |_, &kb| {
        let mut m = machine_with_buffer(kb * 1024);
        let report = run_trace(&mut m, &trace);
        let sm = m.fs().storage().metrics();
        vec![
            kb.into(),
            (report.write_reduction * 100.0).into(),
            sm.overwrites_absorbed.into(),
            sm.deaths_absorbed.into(),
            sm.user_flash_pages.into(),
            sm.pages_written.into(),
        ]
    }) {
        sweep.row(row);
    }

    let mut sens = Table::new(
        "F2b: sensitivity to data lifetime (1 MB buffer; fraction of new data dying young)",
        &["short-lived fraction", "traffic reduction (%)"],
    );
    let fractions = [0.3, 0.5, 0.7, 0.9];
    for row in parallel_sweep(&fractions, |_, &frac| {
        let trace = bsd_trace(frac);
        let mut m = machine_with_buffer(1 << 20);
        let report = run_trace(&mut m, &trace);
        vec![frac.into(), (report.write_reduction * 100.0).into()]
    }) {
        sens.row(row);
    }
    vec![sweep, sens]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_megabyte_buffer_reaches_the_papers_band() {
        let trace = GeneratorConfig::new(Workload::Bsd)
            .with_ops(10_000)
            .with_max_live_bytes(4 << 20)
            .generate();
        let mut m = machine_with_buffer(1 << 20);
        let report = run_trace(&mut m, &trace);
        assert!(
            report.write_reduction >= 0.35,
            "reduction {} below the paper's 40-50% band",
            report.write_reduction
        );
    }

    #[test]
    fn reduction_grows_with_buffer_size() {
        let trace = GeneratorConfig::new(Workload::Bsd)
            .with_ops(8_000)
            .with_max_live_bytes(4 << 20)
            .generate();
        let mut small = machine_with_buffer(64 * 1024);
        let r_small = run_trace(&mut small, &trace).write_reduction;
        let mut big = machine_with_buffer(2 << 20);
        let r_big = run_trace(&mut big, &trace).write_reduction;
        assert!(r_big > r_small, "big {r_big} vs small {r_small}");
    }

    #[test]
    fn write_through_absorbs_nothing() {
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(2_000)
            .with_max_live_bytes(1 << 20)
            .generate();
        let mut m = machine_with_buffer(0);
        let report = run_trace(&mut m, &trace);
        assert!(report.write_reduction.abs() < 1e-9);
    }
}
