//! Timeline flight-recorder guarantees the observability stack rests on:
//!
//! * the registry and the timeline schema cover each other (both come
//!   from one metrics walk), and the sealed final row equals the
//!   end-of-run registry values;
//! * fixed-seed timelines are byte-identical across repeats and across
//!   `--threads` settings (the sampler stamps SimTime only);
//! * `obs-diff` reports an empty diff when a run is compared against
//!   itself, and a non-empty one across genuinely different runs.

use ssmc::sim::obs::Instrument;
use ssmc::sim::timeline::{ChannelKind, Timeline};
use ssmc::sim::{set_threads, SimDuration};
use ssmc::trace::{GeneratorConfig, Workload};
use ssmc_bench::obs_diff::{diff, DiffInput, DiffOptions};
use ssmc_bench::obs_trace::{throughput_machine, timeline_replay, traced_replay, TRACE_SEED};
use std::path::PathBuf;

/// A per-test temp path that survives parallel test execution.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssmc_tl_test_{}_{name}", std::process::id()))
}

/// The registry and the timeline come from one metrics walk, so they
/// must cover each other in both directions:
///
/// * every registry instrument is a same-named channel, except the
///   per-component `energy.*` ledger accounts (an account shows only once
///   it holds energy, and a row's width is fixed at registration; the
///   per-device `energy.*_total_nj` scalars stand in for them);
/// * every channel is a registry instrument, except `timeline.tick` and
///   the per-segment wear family (the registry carries the wear summary).
///
/// The sealed final row must equal the end-of-run registry value for
/// value, and kinds must map Counter→Counter and Gauge/TimeWeighted→Gauge
/// (a time-weighted instrument samples as its current level).
///
/// The run publishes a fixed set of `energy.*` names (the VM's DRAM is
/// never accessed, so it has no active account), and each device's
/// accounts sum to its total.
#[test]
fn final_row_matches_end_of_run_registry() {
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(2_000)
        .with_seed(TRACE_SEED)
        .with_max_live_bytes(4 << 20)
        .generate();
    let path = tmp("coverage.tl");
    let mut m = throughput_machine();
    m.enable_timeline_file(&path, SimDuration::from_millis(50))
        .expect("enable timeline");
    let report = ssmc::core::run_trace(&mut m, &trace);
    assert_eq!(report.replay.errors, 0, "coverage replay must be clean");
    let registry = m.metrics_registry();
    // Sealing takes one final unconditional sample at the current clock,
    // the same instant the registry snapshot above was taken.
    let summary = m
        .finish_timeline()
        .expect("finish timeline")
        .expect("timeline stayed healthy");
    let tl = Timeline::read(&path).expect("read timeline back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(summary.rows, tl.rows() as u64);
    assert_eq!(summary.channels as usize, tl.channels().len());
    assert!(tl.rows() > 10, "50 ms sampling must yield many rows");

    let last = tl.rows() - 1;
    let ledger_account = |name: &str| name.starts_with("energy.") && !name.ends_with("_total_nj");
    for (name, instrument) in registry.iter() {
        if ledger_account(name) {
            continue;
        }
        let ch = tl
            .channel_index(name)
            .unwrap_or_else(|| panic!("registry instrument {name} has no timeline channel"));
        let kind = tl.channels()[ch].kind;
        let level = match instrument {
            Instrument::Counter(v) => {
                assert_eq!(kind, ChannelKind::Counter, "{name} kind");
                assert_eq!(
                    tl.value(last, ch),
                    *v,
                    "{name}: final row diverged from the registry"
                );
                continue;
            }
            Instrument::Gauge(v) => *v,
            Instrument::TimeWeighted(t) => t.level(),
            Instrument::Histogram(_) => {
                unreachable!("the machine registry publishes no histograms; {name} is new")
            }
        };
        assert_eq!(kind, ChannelKind::Gauge, "{name} kind");
        let got = tl.gauge(last, ch);
        assert!(
            got == level || (got.is_nan() && level.is_nan()),
            "{name}: final gauge {got} != registry {level}"
        );
    }
    let mut wear = 0;
    for c in tl.channels() {
        if c.name == "timeline.tick" {
            continue;
        }
        if c.name.starts_with("storage.segment_wear.") {
            wear += 1;
            continue;
        }
        assert!(
            registry.get(&c.name).is_some(),
            "timeline channel {} is not a registry instrument",
            c.name
        );
    }
    assert!(wear > 0, "per-segment wear channels missing");

    let energy: Vec<&str> = registry
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("energy."))
        .collect();
    assert_eq!(
        energy,
        [
            "energy.dram.active_nj",
            "energy.dram.refresh_nj",
            "energy.dram_total_nj",
            "energy.flash.erase_nj",
            "energy.flash.idle_nj",
            "energy.flash.program_nj",
            "energy.flash.read_nj",
            "energy.flash_total_nj",
            "energy.vm_dram.refresh_nj",
            "energy.vm_total_nj",
        ]
    );
    for (total, accounts) in [
        ("energy.flash_total_nj", "energy.flash."),
        ("energy.dram_total_nj", "energy.dram."),
        ("energy.vm_total_nj", "energy.vm_dram."),
    ] {
        let sum: u64 = energy
            .iter()
            .filter(|name| name.starts_with(accounts))
            .map(|name| {
                registry
                    .counter_value(name)
                    .expect("ledger accounts are counters")
            })
            .sum();
        assert!(sum > 0, "{accounts}* charged nothing");
        assert_eq!(registry.counter_value(total), Some(sum), "{total}");
    }
}

/// Fixed-seed timelines must be byte-identical across repeats and across
/// worker-thread settings: the sampler fires on SimTime boundaries only,
/// so nothing host-dependent can reach the artifact.
#[test]
fn fixed_seed_timelines_are_byte_identical() {
    let run = |name: &str| {
        let path = tmp(name);
        timeline_replay(Workload::Bsd, 2_000, SimDuration::from_millis(50), &path)
            .expect("timeline replay");
        let bytes = std::fs::read(&path).expect("read timeline bytes");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let a = run("det_a.tl");
    let b = run("det_b.tl");
    assert!(!a.is_empty());
    assert_eq!(a, b, "two fixed-seed timelines diverged");

    set_threads(1);
    let seq = run("det_t1.tl");
    set_threads(4);
    let par = run("det_t4.tl");
    set_threads(0); // restore the host default
    assert_eq!(seq, par, "timeline bytes changed with the thread count");
    assert_eq!(a, seq, "timeline bytes drifted between phases");
}

/// Property: any run diffed against itself is clean, for timelines and
/// trace artifacts alike, across workloads and op counts — and a
/// cross-workload diff is not.
#[test]
fn obs_diff_self_compare_is_empty() {
    let opts = DiffOptions::default();
    let mut kept: Vec<DiffInput> = Vec::new();
    for workload in [Workload::Bsd, Workload::Office] {
        for ops in [500u64, 1_500] {
            let name = format!("self_{workload:?}_{ops}.tl").to_lowercase();
            let make = |tag: &str| {
                let path = tmp(&format!("{tag}_{name}"));
                timeline_replay(workload, ops, SimDuration::from_millis(100), &path)
                    .expect("timeline replay");
                let tl = Timeline::read(&path).expect("read timeline");
                let _ = std::fs::remove_file(&path);
                DiffInput::Timeline(tl)
            };
            let (a, b) = (make("a"), make("b"));
            let report = diff(&a, &b, &opts);
            assert!(
                report.is_clean(),
                "self-compare of {workload:?}/{ops} found drift:\n{}",
                report.render()
            );
            kept.push(a);
        }
    }
    // Different workloads at the same op count must not diff clean.
    let cross = diff(&kept[0], &kept[2], &opts);
    assert!(!cross.is_clean(), "bsd vs office timelines diffed clean");

    // The same property holds for trace artifacts.
    let a = DiffInput::Artifact(Box::new(traced_replay(Workload::Bsd, 1_000)));
    let b = DiffInput::Artifact(Box::new(traced_replay(Workload::Bsd, 1_000)));
    let report = diff(&a, &b, &opts);
    assert!(
        report.is_clean(),
        "artifact self-compare found drift:\n{}",
        report.render()
    );
    // And an artifact can be diffed against a timeline of the same run
    // shape without shape errors exploding (drift is expected — they
    // summarize different things — but shared metrics must align).
    let mixed = diff(&a, &kept[0], &opts);
    assert!(
        mixed.compared > 0,
        "artifact×timeline diff compared no shared metrics"
    );
}
