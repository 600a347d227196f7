//! Round-trip differential: the compiled `.ops` file format is lossless.
//!
//! Every generator profile is compiled straight to disk through
//! `generate_into`, decoded back with `OpStreamFileReader`, and checked
//! two ways: the decoded records equal the in-memory `generate()` output
//! record for record, and replaying the decoded stream straight from the
//! file produces a bit-identical report to replaying the uncompiled
//! trace. Together with the flash-image pin in `equiv_flash.rs` this
//! makes the compile → decode → replay pipeline an equivalence-preserving
//! transformation for all five workloads.

use ssmc::core::{MachineConfig, MobileComputer};
use ssmc::sim::stats::Histogram;
use ssmc::sim::SimDuration;
use ssmc::trace::{
    replay, GeneratorConfig, OpKind, OpStreamFileReader, OpStreamWriter, ReplayReport, Workload,
};

const OPS: usize = 6_000;

fn config(w: Workload) -> GeneratorConfig {
    GeneratorConfig::new(w)
        .with_ops(OPS)
        .with_max_live_bytes(4 << 20)
}

fn machine() -> MobileComputer {
    let mut cfg = MachineConfig::with_sizes("roundtrip", 8 << 20, 24 << 20);
    cfg.write_buffer_bytes = Some(1 << 20);
    MobileComputer::new(cfg)
}

/// Everything observable about a replay report, in comparable form.
fn report_fingerprint(r: &ReplayReport) -> Vec<(OpKind, u64, u64, u64, u64)> {
    r.per_op
        .iter()
        .map(|(&kind, h)| {
            (
                kind,
                h.count(),
                h.mean().to_bits(),
                h.quantile(0.5),
                h.quantile(0.99),
            )
        })
        .collect()
}

#[test]
fn all_five_generators_round_trip_through_the_ops_file() {
    let dir = std::env::temp_dir();
    for w in Workload::ALL {
        let trace = config(w).generate();

        // Compile the same seeded draw straight to disk.
        let path = dir.join(format!(
            "ssmc_roundtrip_{}_{}.ops",
            w.name(),
            std::process::id()
        ));
        let mut writer = OpStreamWriter::create(&path, w.name()).expect("create stream file");
        let written = config(w)
            .generate_into(&mut writer)
            .expect("compile stream");
        writer.finish().expect("finish stream");
        assert_eq!(written as usize, trace.records.len(), "{w}: record count");

        // Decode: the fixed-width records must match the in-memory trace
        // exactly — arrival times, file ids, offsets, lengths.
        let mut reader = OpStreamFileReader::open(&path).expect("open stream file");
        assert_eq!(reader.header().name, w.name(), "{w}: header name");
        assert_eq!(reader.header().records, written, "{w}: header count");
        let mut decoded = Vec::with_capacity(trace.records.len());
        while let Some(rec) = reader.next_record().expect("decode record") {
            decoded.push(rec);
        }
        assert_eq!(decoded, trace.records, "{w}: decoded records diverged");

        // Differential replay: records decoded one at a time from the
        // file vs the uncompiled in-memory trace.
        let mut m1 = machine();
        let clock1 = m1.clock().clone();
        let r1 = replay(&trace, &mut m1, &clock1);

        let mut m2 = machine();
        let clock2 = m2.clock().clone();
        let mut reader = OpStreamFileReader::open(&path).expect("reopen stream file");
        let r2 = replay(
            std::iter::from_fn(|| reader.next_record().expect("decode record")),
            &mut m2,
            &clock2,
        );
        let _ = std::fs::remove_file(&path);

        assert_eq!(r2.ops, r1.ops, "{w}: op count");
        assert_eq!(r2.errors, r1.errors, "{w}: error count");
        assert_eq!(r2.elapsed, r1.elapsed, "{w}: simulated elapsed time");
        assert_eq!(
            report_fingerprint(&r2),
            report_fingerprint(&r1),
            "{w}: replay reports diverged"
        );
    }
}

/// `ReplayReport`'s percentile accessors are thin views over the shared
/// `ssmc_sim` histogram — the same quantile and merge logic every other
/// reporter uses. Cross-check them against direct histogram computation
/// on a real replay, so replay tables and observability dumps can never
/// disagree about the same data.
#[test]
fn replay_percentiles_match_the_shared_histogram_logic() {
    let trace = config(Workload::Office).generate();
    let mut m = machine();
    let clock = m.clock().clone();
    let report = replay(&trace, &mut m, &clock);

    for kind in OpKind::ALL {
        let expect = report
            .per_op
            .get(&kind)
            .map(|h| SimDuration::from_nanos(h.quantile(0.99)))
            .unwrap_or(SimDuration::ZERO);
        assert_eq!(report.p99_latency(kind), expect, "{kind}: p99 accessor");
    }

    let mut merged = Histogram::new();
    for kind in [OpKind::Read, OpKind::Write] {
        if let Some(h) = report.per_op.get(&kind) {
            merged.merge(h);
        }
    }
    assert!(merged.count() > 0, "office replay must record data ops");
    assert_eq!(
        report.mean_data_latency(),
        SimDuration::from_nanos(merged.mean() as u64),
        "mean data latency must equal the merged-histogram mean"
    );
}
