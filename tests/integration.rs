//! End-to-end integration tests spanning the whole stack: devices,
//! storage manager, file system, VM, machine assembly, and both
//! organisations on shared workloads.

use ssmc::baseline::BaselineConfig;
use ssmc::core::{run_trace, DiskComputer, MachineConfig, MobileComputer};
use ssmc::device::BatterySpec;
use ssmc::memfs::OpenMode;
use ssmc::sim::report::ToReport;
use ssmc::sim::SimDuration;
use ssmc::trace::{replay, GeneratorConfig, OpKind, Workload};

#[test]
fn full_machine_lifecycle() {
    let mut m = MobileComputer::new(MachineConfig::small_notebook());

    // A directory tree with real data.
    m.fs().mkdir("/home").expect("mkdir");
    m.fs().mkdir("/home/docs").expect("mkdir");
    let fd = m.fs().create("/home/docs/report.txt").expect("create");
    let body: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    m.fs().write(fd, 0, &body).expect("write");

    // A program executed in place.
    let app = m.fs().create("/home/app").expect("create");
    m.fs()
        .write(app, 0, &vec![0xC3u8; 128 * 1024])
        .expect("install");
    m.fs_sync().expect("sync");
    let launch = m.launch_app("/home/app", true).expect("xip");
    assert_eq!(launch.dram_pages, 0);
    m.run_app(&launch, 128 * 1024, 200).expect("run");

    // A day of work.
    let trace = GeneratorConfig::new(Workload::Office)
        .with_ops(4_000)
        .with_max_live_bytes(2 << 20)
        .generate();
    let report = run_trace(&mut m, &trace);
    assert_eq!(report.replay.errors, 0);

    // Crash and come back.
    m.fs_sync().expect("sync");
    m.battery_failure();
    let (rec, fsck) = m.replace_battery_and_recover().expect("recover");
    assert_eq!(rec.lost_pages, 0, "everything was synced");
    assert!(!fsck.root_rebuilt);

    // The report survived intact, byte for byte.
    let fd = m
        .fs()
        .open("/home/docs/report.txt", OpenMode::Read)
        .expect("open");
    let mut buf = vec![0u8; 10_000];
    let n = m.fs().read(fd, 0, &mut buf).expect("read");
    assert_eq!(n, 10_000);
    assert_eq!(buf, body);
}

#[test]
fn both_organisations_run_the_same_workload() {
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(6_000)
        .with_max_live_bytes(3 << 20)
        .generate();

    let mut solid = MobileComputer::new(MachineConfig::small_notebook());
    let clock = solid.clock().clone();
    let solid_report = replay(&trace, &mut solid, &clock);

    let mut disk = DiskComputer::new(BaselineConfig::default(), BatterySpec::default());
    let clock = disk.clock().clone();
    let disk_report = replay(&trace, &mut disk, &clock);

    assert_eq!(solid_report.errors, 0, "solid-state replay clean");
    assert_eq!(disk_report.errors, 0, "disk replay clean");

    // The paper's core performance claim: writes buffered in DRAM beat
    // writes behind a mechanical arm.
    let solid_w = solid_report.mean_latency(OpKind::Write);
    let disk_w = disk_report.mean_latency(OpKind::Write);
    assert!(
        solid_w * 3 < disk_w,
        "solid write {solid_w} vs disk write {disk_w}"
    );
    // And the energy claim.
    let solid_j = solid.total_energy().as_joules();
    let disk_j = disk.total_energy().as_joules();
    assert!(
        solid_j * 3.0 < disk_j,
        "solid {solid_j} J vs disk {disk_j} J"
    );
}

#[test]
fn sustained_churn_exercises_gc_without_data_loss() {
    // Rewrite a working set far larger than flash many times over: the
    // log wraps repeatedly, GC cleans, wear stays even, and every read
    // still returns the latest data.
    let mut m = MobileComputer::new(MachineConfig::with_sizes("churn", 2 << 20, 4 << 20));
    let clock = m.clock().clone();
    let fd = m.fs().create("/state").expect("create");
    let mut payload = vec![0u8; 64 * 1024];
    for round in 0..150u8 {
        payload.fill(round);
        m.fs().write(fd, 0, &payload).expect("write");
        m.fs_sync().expect("sync");
        clock.advance(SimDuration::from_secs(2));
        m.fs().tick().expect("tick");
    }
    let wear = m.fs().storage().flash().wear_stats();
    assert!(wear.total_erases > 50, "log must have wrapped");
    assert_eq!(wear.bad_blocks, 0);
    let mut buf = vec![0u8; 64 * 1024];
    m.fs().read(fd, 0, &mut buf).expect("read");
    assert!(buf.iter().all(|&b| b == 149), "latest round visible");
}

#[test]
fn repeated_crashes_never_corrupt_the_namespace() {
    let mut m = MobileComputer::new(MachineConfig::small_notebook());
    for round in 0..5u32 {
        let trace = GeneratorConfig::new(Workload::SoftwareDev)
            .with_ops(1_500)
            .with_max_live_bytes(1 << 20)
            .with_seed(round as u64)
            .generate();
        let clock = m.clock().clone();
        let _ = replay(&trace, &mut m, &clock);
        m.battery_failure();
        let (_, fsck) = m.replace_battery_and_recover().expect("recover");
        assert!(!fsck.root_rebuilt, "round {round}");
        // Whatever fsck kept must fully resolve.
        for e in m.fs().list_dir("/").expect("list") {
            m.fs().stat(&format!("/{}", e.name)).expect("resolves");
        }
    }
}

#[test]
fn experiment_registry_is_complete_and_unique() {
    let exps = ssmc_bench::experiments();
    assert_eq!(exps.len(), 14, "T1-T3, F1-F8, and ablations A1-A3");
    let mut ids: Vec<&str> = exps.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 14, "ids must be unique");
    for required in [
        "t1", "t2", "t3", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "a1", "a2", "a3",
    ] {
        assert!(ids.contains(&required), "missing {required}");
    }
}

#[test]
fn fast_experiments_produce_tables() {
    // T1 and F1 are pure model computations and T2 replays both
    // organisations; each must reproduce its checked-in results byte for
    // byte, so drift in the device models or the disk comparator fails
    // here rather than only in the full-regeneration guard.
    for id in ["t1", "f1", "t2"] {
        let e = ssmc_bench::experiments()
            .into_iter()
            .find(|e| e.id == id)
            .expect("registered");
        let tables = (e.run)();
        assert!(!tables.is_empty(), "{id} returned no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id} has an empty table");
            assert!(t.render().contains("=="), "{id} renders a title");
        }
        let path = format!("{}/results/{id}.json", env!("CARGO_MANIFEST_DIR"));
        let checked_in = std::fs::read_to_string(&path).expect("read checked-in results");
        assert!(
            tables.to_report().encode_pretty() == checked_in,
            "{id} no longer reproduces {path}"
        );
    }
}
