//! Renders a traced-replay artifact (`experiments --trace-out PATH`) as
//! human-readable tables: per-op-kind latency histograms, per-layer
//! totals, and the energy-attribution breakdown.
//!
//! ```text
//! cargo run --release -p ssmc-bench --bin trace-dump -- trace.json
//! ```

use ssmc_bench::obs_trace::TraceArtifact;
use ssmc_sim::obs::{EventKind, Layer, EVENT_KINDS, LAYERS};
use ssmc_sim::report::{FromReport, Value};
use ssmc_sim::{Histogram, Table};

/// Label for a bucket's inclusive upper bound. The top bucket ends at
/// `u64::MAX` — printing `2^64` (or a wrapped `0`) here would claim a
/// bound no `u64` latency can reach.
fn bucket_label(i: usize) -> String {
    let (_, hi) = Histogram::bucket_bounds(i);
    if hi == u64::MAX {
        "max".into()
    } else {
        format!("{hi}")
    }
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) if !p.starts_with("--") => p,
        _ => {
            eprintln!("usage: trace-dump <trace.json>");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("trace-dump: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let value = Value::decode(&text).unwrap_or_else(|e| {
        eprintln!("trace-dump: {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let artifact = TraceArtifact::from_report(&value).unwrap_or_else(|e| {
        eprintln!("trace-dump: {path} is not a trace artifact: {e}");
        std::process::exit(2);
    });

    let journal = &artifact.journal;
    println!(
        "trace: machine={} workload={} ops={} (journal: {} events retained, {} dropped, ring {})",
        artifact.machine,
        artifact.workload,
        artifact.ops,
        journal.events.len(),
        journal.dropped,
        journal.capacity,
    );
    println!();

    // Per-op-kind latency and volume, from the never-dropping aggregates.
    let mut kinds = Table::new(
        "span latency by kind (ns)",
        &[
            "kind", "layer", "count", "mean", "p50", "p99", "energy_j", "pages", "bytes",
        ],
    );
    for kind in EVENT_KINDS {
        let Some(row) = journal.aggregate(kind) else {
            continue;
        };
        let h = &row.agg.latency;
        kinds.row(vec![
            kind.name().into(),
            kind.layer().name().into(),
            row.agg.count.into(),
            h.mean().into(),
            h.quantile(0.5).into(),
            h.quantile(0.99).into(),
            row.agg.energy.as_joules().into(),
            row.agg.pages.into(),
            row.agg.bytes.into(),
        ]);
    }
    println!("{}", kinds.render());

    // The full latency distributions behind those quantiles: one line
    // per kind, non-empty buckets only, keyed by each bucket's inclusive
    // upper bound in ns (structural form — the same buckets obs-diff
    // compares).
    println!("latency distribution (count per bucket, keyed by upper bound ns):");
    for kind in EVENT_KINDS {
        let Some(row) = journal.aggregate(kind) else {
            continue;
        };
        let mut line = String::new();
        for (i, &c) in row.agg.latency.bucket_counts().iter().enumerate() {
            if c > 0 {
                line.push_str(&format!(" ..{}={c}", bucket_label(i)));
            }
        }
        println!("  {:<20}{line}", kind.name());
    }
    println!();

    // Per-layer totals.
    let mut layers = Table::new(
        "per-layer totals",
        &["layer", "spans", "latency_ms", "energy_j", "pages", "bytes"],
    );
    for layer in LAYERS {
        let (count, latency_ns, energy, pages, bytes) = journal.layer_totals(layer);
        if count == 0 {
            continue;
        }
        layers.row(vec![
            layer.name().into(),
            count.into(),
            (latency_ns as f64 / 1e6).into(),
            energy.as_joules().into(),
            pages.into(),
            bytes.into(),
        ]);
    }
    println!("{}", layers.render());

    // Energy attribution: device spans each carry their own device's
    // energy; machine root spans carry the whole-machine delta. Comparing
    // the two shows how much of each op's energy the devices explain
    // (the remainder is idle/refresh power charged between spans).
    let (_, _, machine_energy, _, _) = journal.layer_totals(Layer::Machine);
    let mut energy = Table::new(
        "energy attribution",
        &["source", "energy_j", "share_of_machine"],
    );
    let device_kinds = [
        EventKind::FlashRead,
        EventKind::FlashProgram,
        EventKind::FlashErase,
    ];
    let machine_j = machine_energy.as_joules();
    for kind in device_kinds {
        let Some(row) = journal.aggregate(kind) else {
            continue;
        };
        let j = row.agg.energy.as_joules();
        let share = if machine_j > 0.0 { j / machine_j } else { 0.0 };
        energy.row(vec![kind.name().into(), j.into(), share.into()]);
    }
    energy.row(vec![
        "machine total (root spans)".into(),
        machine_j.into(),
        1.0.into(),
    ]);
    println!("{}", energy.render());

    println!("registry: {} instruments", artifact.registry.len());
}
