//! Sizing advisor: §4's question answered for your budget and workload.
//!
//! "How should a system apportion its storage capacity between the two
//! technologies? Should the ratio between DRAM and flash memory
//! capacities be 1:1, or something else? The answer depends on the
//! workload."
//!
//! ```text
//! cargo run --release --example sizing_advisor -- 1000 office
//! cargo run --release --example sizing_advisor -- 1500 database
//! ```

use ssmc::core::{sweep_sizing, MachineConfig, SizingSpec};
use ssmc::trace::{GeneratorConfig, Workload};

fn main() {
    let mut args = std::env::args().skip(1);
    let budget: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_000.0);
    let workload = match args.next().as_deref() {
        Some("office") | None => Workload::Office,
        Some("bsd") => Workload::Bsd,
        Some("dev") | Some("software-dev") => Workload::SoftwareDev,
        Some("database") | Some("db") => Workload::Database,
        Some(other) => {
            eprintln!("unknown workload {other}; use office|bsd|dev|database");
            std::process::exit(2);
        }
    };

    println!("sizing a ${budget:.0} machine for the {workload} workload (1993 prices)...\n");
    let trace = GeneratorConfig::new(workload)
        .with_ops(8_000)
        .with_max_live_bytes(3 << 20)
        .generate();
    let spec = SizingSpec {
        budget_dollars: budget,
        dram_fractions: vec![0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9],
        base: MachineConfig::small_notebook(),
    };
    let points = sweep_sizing(&spec, &trace);

    println!(
        "{:>10} {:>9} {:>10} {:>9} {:>14} {:>10}",
        "DRAM share", "DRAM MB", "flash MB", "feasible", "mean op (us)", "energy (J)"
    );
    for p in &points {
        println!(
            "{:>10.0}% {:>9.1} {:>10.1} {:>9} {:>14.0} {:>10.1}",
            p.dram_fraction * 100.0,
            p.dram_mb,
            p.flash_mb,
            if p.feasible { "yes" } else { "NO" },
            p.mean_latency_us,
            p.energy_joules
        );
    }

    let best = points.iter().filter(|p| p.feasible).min_by(|a, b| {
        a.mean_latency_us
            .partial_cmp(&b.mean_latency_us)
            .expect("finite")
    });
    match best {
        Some(p) => println!(
            "\nrecommendation: {:.1} MB DRAM + {:.1} MB flash \
             (DRAM:flash ≈ 1:{:.1}) — {:.1} ms mean op",
            p.dram_mb,
            p.flash_mb,
            p.flash_mb / p.dram_mb.max(0.01),
            p.mean_latency_us / 1_000.0
        ),
        None => println!("\nno feasible split: the workload needs a bigger budget"),
    }
}
