//! T1 — §2 device comparison.
//!
//! Paper: flash reads ≈100 ns/byte (DRAM-like), writes ≈10 µs/byte (two
//! orders slower), erase sectors, 100 k cycles, ≈$50/MB, tens of mW/MB;
//! DRAM faster but costlier; disk far slower but considerably cheaper.
//! We *measure* each catalog device model (512-byte transfers) and print
//! the data-sheet attributes next to the measurements.

use ssmc_device::{catalog_1993, BlockId, Disk, Dram, Flash, Part};
use ssmc_sim::{Clock, Table};

const IO: usize = 512;

fn measure_flash(spec: ssmc_device::FlashSpec) -> (f64, f64, f64) {
    let clock = Clock::shared();
    let mut f = Flash::new(spec.with_capacity(1 << 20), clock);
    let w = f
        .program(0, &vec![0u8; IO])
        .expect("program")
        .as_micros_f64();
    let mut buf = vec![0u8; IO];
    let r = f.read(0, &mut buf).expect("read").as_micros_f64();
    let e = f.erase(BlockId(0)).expect("erase").as_millis_f64();
    (r, w, e)
}

fn measure_dram(spec: ssmc_device::DramSpec) -> (f64, f64) {
    let clock = Clock::shared();
    let mut d = Dram::new(spec.with_capacity(1 << 20), clock);
    let w = d.write(0, &vec![0u8; IO]).expect("write").as_micros_f64();
    let mut buf = vec![0u8; IO];
    let r = d.read(0, &mut buf).expect("read").as_micros_f64();
    (r, w)
}

fn measure_disk(spec: ssmc_device::DiskSpec) -> (f64, f64) {
    let clock = Clock::shared();
    let mut d = Disk::new(spec.with_capacity(4 << 20), clock);
    // Measure a random-ish access (seek across half the span).
    let cap = d.capacity();
    let w = d.write(cap / 2, IO as u64).expect("write").as_micros_f64();
    let r = d.read(1024, IO as u64).expect("read").as_micros_f64();
    (r, w)
}

/// Runs T1.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "T1: 1993 storage devices — measured 512 B access vs data-sheet attributes",
        &[
            "device",
            "class",
            "read (us)",
            "write (us)",
            "erase (ms)",
            "$ / MB",
            "MB / in^3",
            "active mW/MB",
        ],
    );
    for product in catalog_1993() {
        let part = &product.part;
        let (r, w, erase) = match part {
            Part::Dram(spec) => {
                let (r, w) = measure_dram(spec.clone());
                (r, w, "-".into())
            }
            Part::Flash(spec) => {
                let (r, w, e) = measure_flash(spec.clone());
                (r, w, e.into())
            }
            Part::Disk(spec) => {
                let (r, w) = measure_disk(spec.clone());
                (r, w, "-".into())
            }
        };
        t.row(vec![
            part.name().into(),
            part.technology().to_string().into(),
            r.into(),
            w.into(),
            erase,
            part.cost_per_mb().into(),
            part.density_mb_per_in3().into(),
            product.active_mw_per_mb.into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::{hp_kittyhawk, intel_flash, nec_dram};

    #[test]
    fn t1_reproduces_paper_orderings() {
        let tables = run();
        assert_eq!(tables[0].rows.len(), 5);
        // Measured: Intel flash read ≈ DRAM scale; write ~2 orders slower.
        let (fr, fw, _) = measure_flash(intel_flash());
        assert!(fw / fr > 50.0, "flash write/read ratio {}", fw / fr);
        let (dr, _) = measure_dram(nec_dram());
        assert!(fr < 20.0 * dr, "flash read {fr} vs dram {dr}");
        // Disk is milliseconds.
        let (kr, _) = measure_disk(hp_kittyhawk());
        assert!(kr > 1_000.0, "disk access {kr} us");
    }
}
