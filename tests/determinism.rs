//! Determinism guarantees the whole experiment suite rests on:
//!
//! * a fixed-seed trace replay produces a bit-identical `RunReport` on
//!   every run;
//! * a parallel sweep produces the same results regardless of the worker
//!   thread count (results are keyed by input index, not completion
//!   order);
//! * the report encoder reproduces the checked-in `results/*.json`
//!   byte-for-byte, so regenerated artifacts diff cleanly.

use ssmc::core::{sweep_sizing, MachineConfig, MobileComputer, SizingSpec};
use ssmc::sim::report::{FromReport, ToReport, Value};
use ssmc::sim::{set_threads, Table};
use ssmc::trace::{GeneratorConfig, Workload};

fn bsd_trace() -> ssmc::trace::Trace {
    GeneratorConfig::new(Workload::Bsd)
        .with_ops(3_000)
        .with_seed(1993)
        .with_max_live_bytes(2 << 20)
        .generate()
}

/// Replaying the same fixed-seed trace on two fresh machines must yield
/// bit-identical reports (the simulation has no hidden nondeterminism).
#[test]
fn fixed_seed_replay_is_reproducible() {
    let trace = bsd_trace();
    let run = || {
        let mut m = MobileComputer::new(MachineConfig::small_notebook());
        format!("{:?}", ssmc::core::run_trace(&mut m, &trace))
    };
    assert_eq!(run(), run(), "two replays of the same trace diverged");
}

/// The sizing sweep (and by extension every `parallel_sweep` user) must
/// produce identical output whether it runs on one worker or many. The
/// thread cap is process-global, so the whole comparison lives in one
/// test.
#[test]
fn sweep_results_do_not_depend_on_thread_count() {
    let trace = bsd_trace();
    let spec = SizingSpec {
        dram_fractions: vec![0.2, 0.4, 0.6],
        ..SizingSpec::default()
    };
    let encode = |spec: &SizingSpec| sweep_sizing(spec, &trace).to_report().encode();

    set_threads(1);
    let sequential = encode(&spec);
    set_threads(8);
    let parallel = encode(&spec);
    set_threads(0); // restore the host default
    assert_eq!(
        sequential, parallel,
        "sweep output changed with the thread count"
    );
}

/// The checked-in `results/f2.json` (originally written by serde_json)
/// must decode through the report layer into tables and re-encode to the
/// identical bytes — field names, ordering, and float formatting all
/// preserved.
#[test]
fn report_encoder_reproduces_checked_in_f2_results() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/f2.json");
    let text = std::fs::read_to_string(path).expect("read results/f2.json");
    let value = Value::decode(&text).expect("decode results/f2.json");
    let tables = Vec::<Table>::from_report(&value).expect("tables from report");
    assert_eq!(
        tables.len(),
        2,
        "f2 emits the F2a sweep and F2b sensitivity"
    );
    assert!(
        tables[0].title.starts_with("F2a:"),
        "title {}",
        tables[0].title
    );
    assert_eq!(tables[0].headers[0], "buffer (KB)");
    assert!(
        tables[1].title.starts_with("F2b:"),
        "title {}",
        tables[1].title
    );
    assert!(!tables[0].rows.is_empty() && !tables[1].rows.is_empty());

    let reencoded = tables.to_report().encode_pretty();
    assert_eq!(
        reencoded,
        text.trim_end(),
        "re-encoded f2.json diverged from the checked-in bytes"
    );
}

/// The observability golden: a traced fixed-seed 25k-op BSD replay must
/// serialize its journal and registry to byte-identical JSON on every
/// run — and regardless of the worker thread count, since the traced
/// replay is single-threaded and stamps only simulated time.
#[test]
fn traced_replay_journal_is_byte_identical() {
    use ssmc::trace::Workload;
    use ssmc_bench::obs_trace::traced_replay;

    let encode = || {
        let artifact = traced_replay(Workload::Bsd, 25_000);
        (
            artifact.journal.to_report().encode(),
            artifact.registry.to_report().encode(),
        )
    };
    let (journal_a, registry_a) = encode();
    let (journal_b, registry_b) = encode();
    assert_eq!(journal_a, journal_b, "journal bytes diverged across runs");
    assert_eq!(
        registry_a, registry_b,
        "registry bytes diverged across runs"
    );

    set_threads(1);
    let (journal_seq, registry_seq) = encode();
    set_threads(8);
    let (journal_par, registry_par) = encode();
    set_threads(0); // restore the host default
    assert_eq!(
        journal_seq, journal_par,
        "journal bytes changed with the thread count"
    );
    assert_eq!(
        registry_seq, registry_par,
        "registry bytes changed with the thread count"
    );
    assert_eq!(
        journal_a, journal_seq,
        "journal bytes drifted between phases"
    );

    // The artifact is non-trivial: root spans for every op, plus nested
    // spans from at least the fs, storage, and device layers.
    let artifact = traced_replay(Workload::Bsd, 25_000);
    assert_eq!(artifact.journal.ops, 25_000);
    for layer in [
        ssmc::sim::obs::Layer::Machine,
        ssmc::sim::obs::Layer::MemFs,
        ssmc::sim::obs::Layer::Storage,
        ssmc::sim::obs::Layer::Device,
    ] {
        let (count, ..) = artifact.journal.layer_totals(layer);
        assert!(count > 0, "no spans recorded for layer {}", layer.name());
    }
    assert!(!artifact.registry.is_empty(), "registry must not be empty");
}
