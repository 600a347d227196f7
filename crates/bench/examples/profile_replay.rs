//! Ad-hoc replay profiler, built on the observability span layer.
//!
//! Replays the throughput-bench BSD trace with an enabled [`Recorder`]
//! and reports, from the journal aggregates, where simulated time and
//! energy go — per op kind and per layer — plus host-side throughput for
//! both the traced and the no-op-recorder configurations, and host time
//! per op kind.

use ssmc_bench::obs_trace::{throughput_machine, traced_replay};
use ssmc_core::run_trace;
use ssmc_sim::obs::{EVENT_KINDS, LAYERS};
use ssmc_trace::{GeneratorConfig, OpKind, TraceTarget, Workload};
use std::time::Instant;

const OPS: u64 = 25_000;

fn main() {
    // Traced run: one pass, journal carries the whole breakdown.
    let start = Instant::now();
    let artifact = traced_replay(Workload::Bsd, OPS);
    let traced_secs = start.elapsed().as_secs_f64();

    // Untraced run on a fresh machine: what the hot path costs with the
    // no-op recorder (the configuration the throughput bench measures).
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(OPS as usize)
        .with_max_live_bytes(4 << 20)
        .generate();
    let mut m = throughput_machine();
    let start = Instant::now();
    run_trace(&mut m, &trace);
    let plain_secs = start.elapsed().as_secs_f64();

    // Sampler-on run: same machine and trace, with the timeline flight
    // recorder writing to a temp `.tl` at the default interval. The gap
    // against the no-op run above is the sampler's whole host cost.
    let tl_path = std::env::temp_dir().join("ssmc_profile_replay.tl");
    let mut m = throughput_machine();
    m.enable_timeline_file(&tl_path, ssmc_bench::obs_trace::default_sample_interval())
        .expect("enable timeline");
    let start = Instant::now();
    run_trace(&mut m, &trace);
    let sampled_secs = start.elapsed().as_secs_f64();
    let summary = m
        .finish_timeline()
        .expect("finish timeline")
        .expect("timeline stayed healthy");
    let _ = std::fs::remove_file(&tl_path);

    println!(
        "host: traced {:.3}s ({:.0} ops/sec), no-op recorder {:.3}s ({:.0} ops/sec)",
        traced_secs,
        OPS as f64 / traced_secs,
        plain_secs,
        OPS as f64 / plain_secs,
    );
    println!(
        "host: sampler on {:.3}s ({:.0} ops/sec; {} rows x {} channels) — {:+.1}% vs sampler off",
        sampled_secs,
        OPS as f64 / sampled_secs,
        summary.rows,
        summary.channels,
        100.0 * (sampled_secs - plain_secs) / plain_secs,
    );
    println!();

    let journal = &artifact.journal;
    let machine_ns: u128 = journal
        .aggregates
        .iter()
        .filter(|r| r.kind.layer() == ssmc_sim::obs::Layer::Machine)
        .map(|r| r.agg.latency.sum())
        .sum();

    println!("simulated time and energy by span kind:");
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "kind", "count", "mean ns", "p99 ns", "energy J", "% sim"
    );
    for kind in EVENT_KINDS {
        let Some(row) = journal.aggregate(kind) else {
            continue;
        };
        let h = &row.agg.latency;
        let share = if machine_ns > 0 {
            100.0 * h.sum() as f64 / machine_ns as f64
        } else {
            0.0
        };
        println!(
            "{:<20} {:>8} {:>12.1} {:>12} {:>10.4} {:>7.1}%",
            kind.name(),
            row.agg.count,
            h.mean(),
            h.quantile(0.99),
            row.agg.energy.as_joules(),
            share,
        );
    }
    println!();

    println!("per layer:");
    for layer in LAYERS {
        let (count, latency_ns, energy, pages, bytes) = journal.layer_totals(layer);
        if count == 0 {
            continue;
        }
        println!(
            "{:<10} {:>8} spans  {:>10.1} ms sim  {:>10.4} J  {:>8} pages  {:>12} bytes",
            layer.name(),
            count,
            latency_ns as f64 / 1e6,
            energy.as_joules(),
            pages,
            bytes,
        );
    }

    // Host-time breakdown per op kind: the per-record replay loop, one
    // `Instant` pair around each apply.
    let kind_idx = |k: OpKind| {
        OpKind::ALL
            .iter()
            .position(|&x| x == k)
            .expect("known kind")
    };
    let mut m = throughput_machine();
    let clock = m.clock().clone();
    let mut counts = [0u64; OpKind::ALL.len()];
    let mut host_ns = [0u64; OpKind::ALL.len()];
    for rec in &trace.records {
        clock.advance_to(rec.at);
        let i = kind_idx(rec.op.kind());
        counts[i] += 1;
        let t = Instant::now();
        let _ = m.apply(&rec.op);
        host_ns[i] += t.elapsed().as_nanos() as u64;
    }

    println!();
    println!("host time per op kind:");
    println!("{:<10} {:>8} {:>12}", "kind", "count", "host ns/op");
    for kind in OpKind::ALL {
        let k = kind_idx(kind);
        if counts[k] == 0 {
            continue;
        }
        println!(
            "{:<10} {:>8} {:>12.1}",
            kind.to_string(),
            counts[k],
            host_ns[k] as f64 / counts[k] as f64,
        );
    }
    let (n, ns) = (counts.iter().sum::<u64>(), host_ns.iter().sum::<u64>());
    println!(
        "{:<10} {:>8} {:>12.1}",
        "total",
        n,
        ns as f64 / n.max(1) as f64
    );
}
