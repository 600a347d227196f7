//! Micro-benchmarks of the simulator itself, on an in-tree timer harness.
//!
//! These measure *host* throughput of the building blocks each experiment
//! leans on (device ops, storage-manager paths, file-system operations,
//! trace generation and replay), one group per experiment family, so
//! regressions in the simulator's own performance are caught next to the
//! experiment that would suffer.
//!
//! The harness auto-calibrates an iteration count per scenario to fill a
//! short measurement window, then reports mean ns/iter (and MB/s where a
//! byte throughput is declared). Run with:
//!
//! ```text
//! cargo bench -p ssmc-bench
//! cargo bench -p ssmc-bench -- t2                  # filter by substring
//! cargo bench -p ssmc-bench -- --smoke             # short CI mode
//! cargo bench -p ssmc-bench -- --json BENCH_throughput.json
//! cargo bench -p ssmc-bench -- --alloc-guard      # zero-alloc sentinel
//! cargo bench -p ssmc-bench -- --check BENCH_throughput.json  # perf gate
//! ```

use ssmc_baseline::{BaselineConfig, DiskFs};
use ssmc_bench::alloc_sentinel::CountingAlloc;
use ssmc_bench::obs_trace::throughput_machine;
use ssmc_core::{run_trace, MachineConfig, MobileComputer};
use ssmc_device::{BlockId, Dram, DramSpec, Flash, FlashSpec};
use ssmc_memfs::{MemFs, WritePolicy};
use ssmc_sim::report::{FromReport, ToReport};
use ssmc_sim::{Clock, Energy, Histogram, SimDuration, SimTime, Table};
use ssmc_storage::crc::crc32;
use ssmc_storage::{StorageConfig, StorageManager};
use ssmc_trace::{
    kind_code, replay, FileId, FileOp, GeneratorConfig, OpStreamFileReader, OpStreamWriter, Trace,
    TraceTarget, Workload,
};
use std::hint::black_box;
// lint: allow(D3): host-side bench harness state, not simulator code;
// the atomic is a process-global CLI flag and touches no SimTime path.
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Short-mode switch (`--smoke`): shrinks the timing windows and the
/// macrobenchmark traces so CI can exercise every scenario in seconds.
// lint: allow(D3): single-threaded CLI flag set once during argument
// parsing before any scenario runs; atomic only because statics demand it.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// The dynamic half of the zero-alloc invariant: every heap allocation
/// this binary makes is counted, so `--alloc-guard` can assert that a
/// steady-state replay window makes none. Installed only here — the
/// library and the test binaries run on the system allocator.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// Wall-clock budget per measured scenario.
fn measure_window() -> Duration {
    if smoke() {
        Duration::from_millis(30)
    } else {
        Duration::from_millis(300)
    }
}

/// Calibration budget used to size the iteration count.
fn calibrate_window() -> Duration {
    if smoke() {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(30)
    }
}

struct Group {
    name: &'static str,
    filter: Option<String>,
    throughput_bytes: Option<u64>,
}

impl Group {
    fn new(name: &'static str, filter: Option<String>) -> Self {
        Group {
            name,
            filter,
            throughput_bytes: None,
        }
    }

    fn throughput_bytes(&mut self, bytes: u64) {
        self.throughput_bytes = Some(bytes);
    }

    /// Benchmarks a stateful closure: `f` is called once per iteration
    /// against state built once by `setup` and reused across the run
    /// (matching criterion's `iter` with captured state).
    fn bench<S, F: FnMut(&mut S)>(&self, scenario: &str, setup: impl Fn() -> S, mut f: F) {
        let full = format!("{}/{}", self.name, scenario);
        if let Some(want) = &self.filter {
            if !full.contains(want.as_str()) {
                return;
            }
        }
        let mut state = setup();
        // Calibrate: how many iterations fit the calibration window?
        let mut n: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..n {
                f(black_box(&mut state));
            }
            let took = start.elapsed();
            if took >= calibrate_window() {
                let scale = measure_window().as_secs_f64() / took.as_secs_f64().max(1e-9);
                n = ((n as f64) * scale).max(1.0) as u64;
                break;
            }
            n = n.saturating_mul(4);
        }
        // Measure on fresh state so calibration churn doesn't skew it.
        let mut state = setup();
        let start = Instant::now();
        for _ in 0..n {
            f(black_box(&mut state));
        }
        let took = start.elapsed();
        let ns_per_iter = took.as_nanos() as f64 / n as f64;
        let mut line = format!("{full:<45} {n:>10} iters  {ns_per_iter:>12.1} ns/iter");
        if let Some(bytes) = self.throughput_bytes {
            let mbps = bytes as f64 * n as f64 / took.as_secs_f64() / (1 << 20) as f64;
            line.push_str(&format!("  {mbps:>10.1} MB/s"));
        }
        println!("{line}");
    }

    /// Benchmarks a setup-heavy scenario: `setup` runs per iteration
    /// outside the timed section (criterion's `iter_batched`).
    fn bench_batched<S, R>(
        &self,
        scenario: &str,
        setup: impl Fn() -> S,
        mut f: impl FnMut(S) -> R,
    ) {
        let full = format!("{}/{}", self.name, scenario);
        if let Some(want) = &self.filter {
            if !full.contains(want.as_str()) {
                return;
            }
        }
        // Batched scenarios have expensive setups; bound total iterations
        // instead of filling the window exactly.
        let probe_state = setup();
        let probe_start = Instant::now();
        black_box(f(probe_state));
        let per_iter = probe_start.elapsed();
        let n = (measure_window().as_secs_f64() / per_iter.as_secs_f64().max(1e-9))
            .clamp(1.0, 200.0) as u64;
        let mut timed = Duration::ZERO;
        for _ in 0..n {
            let state = setup();
            let start = Instant::now();
            black_box(f(state));
            timed += start.elapsed();
        }
        let ns_per_iter = timed.as_nanos() as f64 / n as f64;
        println!("{full:<45} {n:>10} iters  {ns_per_iter:>12.1} ns/iter");
    }
}

fn small_flash() -> FlashSpec {
    FlashSpec {
        banks: 2,
        blocks_per_bank: 32,
        block_bytes: 16 * 1024,
        write_unit: 512,
        // The harness drives many iterations; endurance is measured by
        // the experiments binary, not these host-throughput benches.
        endurance: u64::MAX,
        ..FlashSpec::default()
    }
}

/// T1 family: raw device-model operation throughput.
fn bench_devices(filter: Option<String>) {
    let mut g = Group::new("t1_device_micro", filter);
    g.throughput_bytes(512);
    g.bench(
        "flash_read_512",
        || {
            let mut f = Flash::new(small_flash(), Clock::shared());
            f.program(0, &[0u8; 512]).expect("program");
            (f, [0u8; 512])
        },
        |(f, buf)| {
            f.read(0, buf).expect("read");
        },
    );
    g.bench(
        "flash_program_erase_cycle",
        || Flash::new(small_flash(), Clock::shared()),
        |f| {
            f.program(0, &[0u8; 512]).expect("program");
            f.erase(BlockId(0)).expect("erase");
        },
    );
    g.bench(
        "dram_write_512",
        || Dram::new(DramSpec::default().with_capacity(1 << 20), Clock::shared()),
        |d| {
            d.write(0, &[0u8; 512]).expect("write");
        },
    );
}

/// F2/F5 family: storage-manager write path and GC under churn.
fn bench_storage(filter: Option<String>) {
    let mut g = Group::new("f2_f5_storage_manager", filter);
    g.throughput_bytes(512);
    g.bench(
        "write_page_buffered",
        || {
            let clock = Clock::shared();
            let cfg = StorageConfig {
                flash: small_flash(),
                dram_buffer_bytes: 64 * 512,
                ..StorageConfig::default()
            };
            (StorageManager::new(cfg, clock), 0u64)
        },
        |(sm, p)| {
            sm.write_page(*p % 16, &[0u8; 512]).expect("write");
            *p += 1;
        },
    );
    // The new-page branch, which the rewrites above never reach: each
    // write maps a page id that is not mapped yet, so it runs the
    // capacity check on a 64 MB part (1,022 segments). Freeing the page
    // written 1,024 iterations earlier, still buffered, keeps live data
    // under the flush watermark and the ids inside one dense window.
    g.bench(
        "write_page_fresh",
        || {
            let cfg = StorageConfig {
                flash: FlashSpec {
                    endurance: u64::MAX,
                    ..FlashSpec::default().with_capacity(64 << 20)
                },
                ..StorageConfig::default()
            };
            (StorageManager::new(cfg, Clock::shared()), 0u64)
        },
        |(sm, p)| {
            sm.write_page(*p % 65_536, &[0u8; 512]).expect("write");
            if let Some(old) = p.checked_sub(1024) {
                sm.free_page(old % 65_536).expect("free");
            }
            *p += 1;
        },
    );
    // The checksum the flush path computes for every page it programs.
    g.bench(
        "crc32_page",
        || {
            let mut page = [0u8; 512];
            for (i, b) in page.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31) ^ 0x5A;
            }
            page
        },
        |page| {
            black_box(crc32(page));
        },
    );
    g.bench(
        "churn_with_gc",
        || {
            let clock = Clock::shared();
            let cfg = StorageConfig {
                flash: small_flash(),
                dram_buffer_bytes: 16 * 512,
                checkpointing: false,
                ..StorageConfig::default()
            };
            let mut sm = StorageManager::new(cfg, clock.clone());
            for p in 0..400u64 {
                sm.write_page(p, &[0u8; 512]).expect("fill");
            }
            sm.sync().expect("sync");
            (sm, clock, 0u64)
        },
        |(sm, clock, i)| {
            sm.write_page(*i % 400, &[0u8; 512]).expect("update");
            *i += 1;
            if i.is_multiple_of(64) {
                sm.sync().expect("sync");
                clock.advance(ssmc_sim::SimDuration::from_secs(1));
                sm.tick().expect("tick");
            }
        },
    );
}

/// T2 family: file-system operations on both organisations.
fn bench_filesystems(filter: Option<String>) {
    let g = Group::new("t2_fs_ops", filter);
    g.bench(
        "memfs_create_write_delete",
        || {
            let clock = Clock::shared();
            let cfg = StorageConfig {
                flash: small_flash().with_capacity(8 << 20),
                dram_buffer_bytes: 256 * 512,
                ..StorageConfig::default()
            };
            let sm = StorageManager::new(cfg, clock);
            let fs = MemFs::new(sm, WritePolicy::CopyOnWrite).expect("mount");
            (fs, 0u64)
        },
        |(fs, i)| {
            let path = format!("/bench{i}");
            let fd = fs.create(&path).expect("create");
            fs.write(fd, 0, &[7u8; 2048]).expect("write");
            fs.unlink(&path).expect("unlink");
            *i += 1;
        },
    );
    g.bench(
        "diskfs_create_write_delete",
        || {
            (
                DiskFs::new(BaselineConfig::default(), Clock::shared()),
                0u64,
            )
        },
        |(fs, i)| {
            fs.create(*i).expect("create");
            fs.write(*i, 0, 2048).expect("write");
            fs.delete(*i).expect("delete");
            *i += 1;
        },
    );
}

/// F6 family: VM fault handling and XIP launches.
fn bench_vm(filter: Option<String>) {
    let g = Group::new("f6_vm", filter);
    g.bench_batched(
        "xip_launch_64k",
        || {
            let mut m = MobileComputer::new(MachineConfig::small_notebook());
            let fd = m.fs().create("/app").expect("create");
            m.fs().write(fd, 0, &vec![0u8; 64 * 1024]).expect("write");
            m.fs().sync().expect("sync");
            m
        },
        |mut m| m.launch_app("/app", true).expect("launch"),
    );
}

/// F7/T2b family: trace generation and replay throughput.
fn bench_traces(filter: Option<String>) {
    let g = Group::new("f7_trace_replay", filter);
    g.bench(
        "generate_bsd_5k",
        || 0u64,
        |seed| {
            *seed += 1;
            black_box(
                GeneratorConfig::new(Workload::Bsd)
                    .with_ops(5_000)
                    .with_seed(*seed)
                    .generate(),
            );
        },
    );
    let trace = GeneratorConfig::new(Workload::Office)
        .with_ops(2_000)
        .with_max_live_bytes(1 << 20)
        .generate();
    g.bench_batched(
        "replay_office_2k_on_machine",
        || MobileComputer::new(MachineConfig::small_notebook()),
        |mut m| {
            let clock = m.clock().clone();
            replay(&trace, &mut m, &clock)
        },
    );
}

/// Host ops/sec of the BSD macrobenchmark measured on the hash-map,
/// allocate-per-operation storage stack immediately before the dense
/// hot-path rework, in this repo's CI container. The dense-path speedup
/// reported in `BENCH_throughput.json` is relative to this recording.
const BASELINE_OPS_PER_SEC: [(&str, f64); 2] = [("bsd", 97_639.0), ("office", 136_506.0)];

/// The macrobenchmark workloads, including the metadata-heavy
/// mail-spool trace that stresses the directory index rather than the
/// data path. Database is absent on purpose: at 25k ops on this machine
/// its cleaner collapses (millions of GC passes, failed ops), and a row
/// counts only if its run was healthy.
const THROUGHPUT_WORKLOADS: [(Workload, &str); 3] = [
    (Workload::Bsd, "bsd"),
    (Workload::Office, "office"),
    (Workload::MailSpool, "mail-spool"),
];

/// One measured macrobenchmark row.
struct ThroughputRow {
    name: &'static str,
    ops: u64,
    data_bytes: u64,
    ops_per_sec: f64,
    mbps: f64,
}

impl ThroughputRow {
    /// The row for `ops` records carrying `data_bytes`, replayed in
    /// `secs` of host time.
    fn new(name: &'static str, ops: u64, data_bytes: u64, secs: f64) -> ThroughputRow {
        ThroughputRow {
            name,
            ops,
            data_bytes,
            ops_per_sec: ops as f64 / secs,
            mbps: data_bytes as f64 / secs / (1 << 20) as f64,
        }
    }
}

/// The fixed-seed `ops`-record trace of `workload` every row replays,
/// with its read plus write payload in bytes.
fn bench_trace(workload: Workload, ops: usize) -> (Trace, u64) {
    let trace = GeneratorConfig::new(workload)
        .with_ops(ops)
        .with_max_live_bytes(4 << 20)
        .generate();
    let data_bytes = trace
        .records
        .iter()
        .map(|r| match r.op {
            FileOp::Write { len, .. } | FileOp::Read { len, .. } => len,
            _ => 0,
        })
        .sum();
    (trace, data_bytes)
}

/// Replays each workload through the full stack (trace → fs → storage →
/// devices), best-of-`reps` on fresh machines: the fastest run is the
/// one least disturbed by the host, which is the quantity we track.
/// The sampler-on BSD row comes last.
fn measure_throughput(ops: usize, reps: usize) -> Vec<ThroughputRow> {
    let mut rows: Vec<ThroughputRow> = THROUGHPUT_WORKLOADS
        .iter()
        .map(|&(workload, name)| measure_row(workload, name, ops, reps))
        .collect();
    rows.push(measure_stream_tl_row(ops, reps));
    rows
}

/// One replay row, best-of-`reps` on fresh machines. Every rep must
/// replay without an error: a fast number from a machine that failed
/// ops measures the failure, not the simulator.
fn measure_row(workload: Workload, name: &'static str, ops: usize, reps: usize) -> ThroughputRow {
    let (trace, data_bytes) = bench_trace(workload, ops);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut m = throughput_machine();
        let start = Instant::now();
        let report = black_box(run_trace(&mut m, &trace));
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            report.replay.errors, 0,
            "{name}: throughput rows must replay cleanly"
        );
    }
    ThroughputRow::new(name, trace.records.len() as u64, data_bytes, best)
}

/// The million-op machine: the throughput configuration on external
/// power (a ~1 kWh pack) — a million operations drain the stock 10 Wh
/// notebook battery about 150 k ops in, and the streaming alloc-guard
/// measures the storage stack, not battery exhaustion (experiment T3
/// covers that).
fn stream_1m_machine() -> MobileComputer {
    let mut cfg = MachineConfig::with_sizes("stream-1m", 8 << 20, 24 << 20);
    cfg.write_buffer_bytes = Some(1 << 20);
    cfg.battery.primary_capacity = Energy::from_joules(3_600_000.0);
    MobileComputer::new(cfg)
}

/// The timeline-enabled row: the BSD trace written through
/// `OpStreamWriter` to a temp `.ops` file outside the timed section, then
/// decoded record by record through `OpStreamFileReader` inside it — the
/// way perfbench and the alloc-guard read streams — with the flight
/// recorder sampling every simulated second into a temp-file `.tl` (~900
/// rows over this trace's ~940 simulated seconds). Sitting next to `bsd`
/// in the recording keeps the sampler's cost on the record: the
/// `--check` gate fails if sampling ever stops being cheap.
fn measure_stream_tl_row(ops: usize, reps: usize) -> ThroughputRow {
    let (trace, data_bytes) = bench_trace(Workload::Bsd, ops);
    let ops_path = std::env::temp_dir().join("ssmc_bench_stream_bsd.ops");
    let mut w = OpStreamWriter::create(&ops_path, &trace.name).expect("create bench stream");
    for r in &trace.records {
        w.push(r.at, &r.op).expect("push bench record");
    }
    let records = w.finish().expect("finish bench stream").records;
    drop(trace);
    let path = std::env::temp_dir().join("ssmc_bench_stream_bsd.tl");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut m = throughput_machine();
        m.enable_timeline_file(&path, SimDuration::from_secs(1))
            .expect("enable bench timeline");
        let clock = m.clock().clone();
        let mut reader = OpStreamFileReader::open(&ops_path).expect("open bench stream");
        let start = Instant::now();
        let records = std::iter::from_fn(|| reader.next_record().expect("decode bench stream"));
        let report = black_box(replay(records, &mut m, &clock));
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            report.errors, 0,
            "stream_bsd_tl: throughput rows must replay cleanly"
        );
        let summary = m
            .finish_timeline()
            .expect("finish bench timeline")
            .expect("timeline stayed healthy");
        assert!(summary.rows > 0, "timeline must sample during the replay");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ops_path);
    ThroughputRow::new("stream_bsd_tl", records, data_bytes, best)
}

/// End-to-end macrobenchmark: reports host ops/sec and bytes/sec. With
/// `--json PATH`, writes the table through the in-tree report module so
/// the perf trajectory is diffable across PRs.
fn bench_throughput(filter: Option<String>, json: Option<std::path::PathBuf>) {
    if let Some(want) = &filter {
        if !"throughput".contains(want.as_str()) && json.is_none() {
            return;
        }
    }
    let ops = if smoke() { 2_000 } else { 25_000 };
    let reps = if smoke() { 1 } else { 3 };
    let mut table = Table::new(
        "BENCH: end-to-end trace replay throughput (host-side, full stack)",
        &[
            "workload",
            "ops",
            "data bytes",
            "ops/sec",
            "MB/sec",
            "baseline ops/sec",
            "speedup",
        ],
    );
    for row in measure_throughput(ops, reps) {
        let baseline = BASELINE_OPS_PER_SEC
            .iter()
            .find(|(n, _)| *n == row.name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        let speedup = if baseline > 0.0 && !smoke() {
            row.ops_per_sec / baseline
        } else {
            0.0
        };
        println!(
            "throughput/{:<37} {:>10} ops  {:>12.0} ops/sec  {:>8.1} MB/s",
            row.name, row.ops, row.ops_per_sec, row.mbps
        );
        table.row(vec![
            row.name.into(),
            row.ops.into(),
            row.data_bytes.into(),
            row.ops_per_sec.into(),
            row.mbps.into(),
            baseline.into(),
            speedup.into(),
        ]);
    }
    if let Some(path) = json {
        let json = vec![table].to_report().encode_pretty();
        std::fs::write(&path, json).expect("write throughput json");
        println!("wrote {}", path.display());
    }
}

/// Fractional slowdown tolerated by `--check` before the gate fails,
/// measured against the host-normalized floor (see [`check_throughput`]).
/// Machine load moves every row of one run in the same direction — a
/// full `ci.sh` pipeline leaves the host 15–25% slow by the time the
/// gate runs — so raw recorded-value floors fire on machine state, not
/// code. After dividing out the run-wide median measured/recorded
/// ratio, the residual per-row spread observed on a loaded single-core
/// host stays within ±10%, so 15% only fires on a row that lost ground
/// relative to its peers: a code regression, not a slow afternoon.
const CHECK_TOLERANCE: f64 = 0.15;

/// Absolute backstop for the normalized gate. Normalization cannot
/// distinguish a uniformly slow machine from a uniform code regression,
/// so if the run-wide median measured/recorded ratio collapses past 2×
/// the gate fails outright — measured host sag tops out around 25%, and
/// nothing legitimate halves every workload at once.
const CHECK_GLOBAL_FLOOR: f64 = 0.5;

/// Extra measurement rounds granted to a row that lands below its floor
/// before the gate declares a regression. Host noise on shared machines
/// only ever makes a run *slower* than the simulator's true speed, so a
/// single later sample at or above the floor is proof there is no
/// regression; persistent failure across every round is the real signal.
/// Sized for the load swings measured on shared single-core hosts,
/// where individual samples range ±30% around the quiet-machine speed.
const CHECK_RETRIES: usize = 3;

/// Re-measures a single recorded row by name (used by the `--check`
/// retry rounds). Returns `None` for names no measure function owns.
fn remeasure_row(name: &str, ops: usize, reps: usize) -> Option<ThroughputRow> {
    if name == "stream_bsd_tl" {
        return Some(measure_stream_tl_row(ops, reps));
    }
    THROUGHPUT_WORKLOADS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|&(w, n)| measure_row(w, n, ops, reps))
}

/// `--check PATH`: the throughput regression gate. Re-measures the full
/// macrobenchmark, estimates the host's current speed relative to the
/// recording in `PATH` (normally `BENCH_throughput.json`) as the median
/// measured/recorded ratio across all rows, and fails (panics, so the
/// process exits non-zero) if any workload lands more than
/// [`CHECK_TOLERANCE`] below its host-normalized floor, or if the
/// median itself collapses past [`CHECK_GLOBAL_FLOOR`]. Workloads in
/// the recording but missing from the current build — or vice versa —
/// fail too: silent coverage loss is a regression.
fn check_throughput(path: &std::path::Path) {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("check: cannot read {}: {e}", path.display()));
    let value = ssmc_sim::report::Value::decode(&json).expect("check: recording must parse");
    let tables = Vec::<Table>::from_report(&value).expect("check: recording must decode");
    let table = tables.first().expect("check: recording must hold a table");
    let mut recorded: Vec<(String, f64)> = Vec::new();
    for row in &table.rows {
        let (Some(ssmc_sim::Cell::Text(name)), Some(ssmc_sim::Cell::Num(ops))) =
            (row.first(), row.get(3))
        else {
            panic!("check: malformed row in {}", path.display());
        };
        recorded.push((name.clone(), *ops));
    }
    println!(
        "check: re-measuring {} workloads against {} (tolerance {:.0}%)…",
        THROUGHPUT_WORKLOADS.len() + 1,
        path.display(),
        CHECK_TOLERANCE * 100.0
    );
    let fresh = measure_throughput(25_000, 3);
    // Host-state normalization: machine load moves every row of a run in
    // the same direction, so the run-wide median measured/recorded ratio
    // estimates the host's current speed relative to the recording.
    // Floors scale by it — capped at 1.0, because a faster host must not
    // raise the bar — which keeps the gate sensitive to a row that lost
    // ground relative to its peers and blind to the machine being
    // globally slow today. The median stays fixed across retry rounds so
    // every row is judged against the same host estimate.
    let mut ratios: Vec<f64> = fresh
        .iter()
        .filter_map(|row| {
            recorded
                .iter()
                .find(|(n, _)| n == row.name)
                .map(|(_, was)| row.ops_per_sec / was)
        })
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let host = if ratios.is_empty() {
        1.0
    } else {
        let mid = ratios.len() / 2;
        let median = if ratios.len() % 2 == 0 {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        };
        median.min(1.0)
    };
    println!("check: host-state factor {host:.2} (median measured/recorded ratio, capped at 1)");
    let mut failures: Vec<String> = Vec::new();
    if host < CHECK_GLOBAL_FLOOR {
        failures.push(format!(
            "whole suite: median measured/recorded ratio {host:.2} is below the global \
             floor {CHECK_GLOBAL_FLOOR}; a uniform collapse this deep is a regression, \
             not machine load"
        ));
    }
    for row in &fresh {
        let Some((_, was)) = recorded.iter().find(|(n, _)| n == row.name) else {
            failures.push(format!(
                "{}: not in the recording — re-run with --json to add it",
                row.name
            ));
            continue;
        };
        let floor = was * host * (1.0 - CHECK_TOLERANCE);
        let mut measured = row.ops_per_sec;
        // Noise only slows a sample down, never speeds the simulator up:
        // give a below-floor row fresh rounds before calling it a
        // regression.
        let mut round = 0;
        while measured < floor && round < CHECK_RETRIES {
            round += 1;
            if let Some(again) = remeasure_row(row.name, 25_000, 3) {
                measured = measured.max(again.ops_per_sec);
            } else {
                break;
            }
        }
        let verdict = if measured >= floor {
            if round > 0 {
                "ok (retried)"
            } else {
                "ok"
            }
        } else {
            "FAIL"
        };
        println!(
            "check: {:<16} {:>12.0} ops/sec  (recorded {:>12.0}, floor {:>12.0})  {verdict}",
            row.name, measured, was, floor
        );
        if measured < floor {
            failures.push(format!(
                "{}: {:.0} ops/sec is {:.1}% below the host-normalized floor {:.0} \
                 (recorded {:.0}, host factor {:.2}) after {} rounds",
                row.name,
                measured,
                (1.0 - measured / floor) * 100.0,
                floor,
                was,
                host,
                1 + CHECK_RETRIES
            ));
        }
    }
    for (name, _) in &recorded {
        if !fresh.iter().any(|r| r.name == name.as_str()) {
            failures.push(format!("{name}: recorded workload no longer measured"));
        }
    }
    if !failures.is_empty() {
        panic!(
            "throughput regression gate FAILED:\n  {}",
            failures.join("\n  ")
        );
    }
    println!(
        "check: OK — all workloads within {:.0}% of host-normalized floors",
        CHECK_TOLERANCE * 100.0
    );
}

/// Working set driven by the alloc-guard's steady-state loop.
const GUARD_FILES: u64 = 8;
/// 4 KB slots per file; rewrites cycle through them so the flash sees
/// real churn (dead pages, GC pressure) without ever extending a file.
const GUARD_SLOTS: u64 = 8;
const GUARD_SLOT_BYTES: u64 = 4096;

/// The op the guard issues at step `i`: mostly slot rewrites, every
/// fourth op a read, every 64th a sync — the same shape the throughput
/// macrobenchmark's traces exercise, minus namespace churn (create and
/// delete allocate by design; the zero-alloc contract covers the
/// steady-state data path).
fn guard_op(i: u64, base: FileId) -> FileOp {
    let file = base + (i % GUARD_FILES);
    let slot = (i / GUARD_FILES) % GUARD_SLOTS;
    let offset = slot * GUARD_SLOT_BYTES;
    if i % 64 == 63 {
        FileOp::Sync
    } else if i % 4 == 3 {
        FileOp::Read {
            file,
            offset,
            len: GUARD_SLOT_BYTES,
        }
    } else {
        FileOp::Write {
            file,
            offset,
            len: GUARD_SLOT_BYTES,
        }
    }
}

/// `--alloc-guard`: dynamically verifies the zero-alloc hot path.
///
/// Warms the full stack by replaying a generated BSD trace (allocation
/// is expected and fine there — pools, indexes, and scratch vectors are
/// sized during warmup), primes a small working set, runs one settle
/// pass so every recycled buffer has reached steady-state capacity, and
/// then asserts that a long measured window of writes/reads/syncs
/// performs **zero** allocation events (allocs + reallocs; frees are
/// not asserted on). Exits non-zero via panic on violation, listing the
/// first offending ops.
fn alloc_guard() {
    let measured_ops: u64 = if smoke() { 4_000 } else { 25_000 };
    println!("alloc-guard: warming full stack with a BSD trace…");
    let trace = GeneratorConfig::new(Workload::Bsd)
        .with_ops(8_000)
        .with_max_live_bytes(4 << 20)
        .generate();
    let mut m = throughput_machine();
    black_box(run_trace(&mut m, &trace));
    let clock = m.clock().clone();

    // Drain the warmup residue: delete every file the trace left live,
    // then let the churn below reclaim it all. Without this, the
    // measured window keeps paying for warmup history — GC discovers
    // never-before-killed warmup pages (growing the dead-copy index)
    // and keeps re-logging warmup-era tombstones — and only converges
    // after the whole log has turned over.
    let mut live: Vec<FileId> = Vec::new();
    for r in &trace.records {
        match r.op {
            FileOp::Create { file } => live.push(file),
            FileOp::Delete { file } => {
                if let Some(pos) = live.iter().position(|&f| f == file) {
                    live.swap_remove(pos);
                }
            }
            _ => {}
        }
    }
    for (i, &file) in live.iter().enumerate() {
        // Tolerate files the replayer failed to create (it counts
        // errors and continues); cleanup only needs best effort.
        let _ = m.apply(&FileOp::Delete { file });
        if i % 32 == 31 {
            m.apply(&FileOp::Sync).expect("guard cleanup sync");
            clock.advance(SimDuration::from_millis(1));
        }
    }
    m.apply(&FileOp::Sync).expect("guard cleanup sync");

    // Fresh file ids above anything the trace used: priming writes them
    // to full size so the measured window never extends a file (file
    // extension legitimately allocates index entries).
    let base: FileId = trace
        .records
        .iter()
        .filter_map(|r| r.op.file())
        .max()
        .unwrap_or(0)
        + 1;
    for f in 0..GUARD_FILES {
        let file = base + f;
        m.apply(&FileOp::Create { file }).expect("guard create");
        for slot in 0..GUARD_SLOTS {
            m.apply(&FileOp::Write {
                file,
                offset: slot * GUARD_SLOT_BYTES,
                len: GUARD_SLOT_BYTES,
            })
            .expect("guard prime write");
        }
    }
    m.apply(&FileOp::Sync).expect("guard prime sync");

    // The guard window also proves the sampler: the timeline is enabled
    // here — registration and the header write allocate now, during
    // warmup — so every measured op below runs with the flight recorder
    // live, and steady-state sampling must allocate nothing. The 1 ms
    // interval against the 20 µs pace lands a sample roughly every 50
    // measured ops.
    let tl_path = std::env::temp_dir().join("ssmc_alloc_guard.tl");
    m.enable_timeline_file(&tl_path, SimDuration::from_millis(1))
        .expect("enable guard timeline");

    // Settle: an un-measured run of the exact measured loop, long
    // enough (~2 full device turnovers of write traffic) that GC has
    // reclaimed every warmup segment, the deleted files' tombstones
    // have all been dropped, and every recycled buffer and index has
    // reached its steady-state capacity. Ends in syncs so nothing
    // buffered or pending crosses into the window.
    let pace = SimDuration::from_micros(20);
    for i in 0..16_384 {
        m.apply(&guard_op(i, base)).expect("guard settle op");
        clock.advance(pace);
    }
    m.apply(&FileOp::Sync).expect("guard settle sync");
    clock.advance(SimDuration::from_millis(5));
    m.apply(&FileOp::Sync).expect("guard drain sync");

    // Measured window. Offenders are recorded into a stack array — the
    // guard itself must not allocate inside the window.
    let rows_before = m.timeline_rows().expect("guard timeline alive");
    let before = ALLOC.counts();
    let mut offenders: [(u64, &'static str, u64); 8] = [(0, "", 0); 8];
    let mut offender_count: usize = 0;
    let mut last_events = before.events();
    for i in 0..measured_ops {
        let op = guard_op(i, base);
        let kind = match op {
            FileOp::Sync => "sync",
            FileOp::Read { .. } => "read",
            _ => "write",
        };
        m.apply(&op).expect("guard measured op");
        clock.advance(pace);
        let events = ALLOC.counts().events();
        if events != last_events {
            if offender_count < offenders.len() {
                offenders[offender_count] = (i, kind, events - last_events);
            }
            offender_count += 1;
            last_events = events;
        }
    }
    let after = ALLOC.counts();
    // The zero-alloc claim only counts if the sampler actually ran
    // inside the window (a write error silently retires the sink).
    let rows_after = m
        .timeline_rows()
        .expect("guard timeline alive after window");
    assert!(
        rows_after > rows_before,
        "sampler must take rows inside the guard window ({rows_before} -> {rows_after})"
    );
    m.finish_timeline().expect("finish guard timeline");
    let _ = std::fs::remove_file(&tl_path);
    let events = after.events() - before.events();
    let bytes = after.bytes.saturating_sub(before.bytes);
    println!(
        "alloc-guard: {measured_ops} steady-state ops, {events} allocation \
         events ({bytes} bytes), {} frees; {} timeline rows in window",
        after.deallocs - before.deallocs,
        rows_after - rows_before
    );
    if events != 0 {
        for &(i, kind, delta) in offenders.iter().take(offender_count.min(8)) {
            println!("alloc-guard:   op {i} ({kind}): {delta} event(s)");
        }
        if offender_count > 8 {
            println!(
                "alloc-guard:   … and {} more ops allocated",
                offender_count - 8
            );
        }
        panic!("alloc-guard FAILED: steady-state hot path allocated");
    }
    println!("alloc-guard: OK — zero allocations per op in steady state");
    alloc_guard_stream();
}

/// The streaming half of the alloc-guard: compiles a million-op stream
/// of the guard's steady-state loop to disk, then replays it by decoding
/// records one at a time, asserting the decode → `apply` → histogram
/// loop allocates nothing once the warmup fifth of the stream has
/// passed. Memory is flat no matter how long the stream is: the only
/// per-record state is a 32-byte stack buffer and a fixed histogram
/// array. Namespace ops allocate by design and are confined to the
/// warmup, as in the in-memory guard above.
fn alloc_guard_stream() {
    let stream_ops: u64 = if smoke() { 60_000 } else { 1_000_000 };
    // Steady state begins once the flash has filled and garbage
    // collection is running: the first GC pass (a little past 16 k ops on
    // this machine) lazily grows per-inode dead-copy windows and similar
    // one-time structures, which is warmup, not a leak. The measured
    // window opens after it.
    let warm = (stream_ops / 5).max(25_000);
    let base: FileId = 1;
    println!("alloc-guard: compiling a {stream_ops}-op stream to disk…");
    let path = std::env::temp_dir().join("ssmc_alloc_guard.ops");
    {
        let mut w = OpStreamWriter::create(&path, "guard-stream").expect("create guard stream");
        let pace = SimDuration::from_micros(20);
        let mut at = SimTime::ZERO;
        // Priming rides at the head of the stream: creates and full-size
        // slot writes, all long before the measured window opens.
        for f in 0..GUARD_FILES {
            at = at + pace;
            w.push(at, &FileOp::Create { file: base + f })
                .expect("push create");
            for slot in 0..GUARD_SLOTS {
                at = at + pace;
                w.push(
                    at,
                    &FileOp::Write {
                        file: base + f,
                        offset: slot * GUARD_SLOT_BYTES,
                        len: GUARD_SLOT_BYTES,
                    },
                )
                .expect("push prime write");
            }
        }
        for i in 0..stream_ops {
            at = at + pace;
            w.push(at, &guard_op(i, base)).expect("push guard op");
        }
        w.finish().expect("finish guard stream");
    }
    let expected = stream_ops + GUARD_FILES * (1 + GUARD_SLOTS);
    let mut m = stream_1m_machine();
    // The streaming window runs sampler-on too: the decode → apply loop
    // and the flight recorder must be allocation-free together, not just
    // separately.
    let tl_path = std::env::temp_dir().join("ssmc_alloc_guard_stream.tl");
    m.enable_timeline_file(&tl_path, SimDuration::from_millis(1))
        .expect("enable guard stream timeline");
    let clock = m.clock().clone();
    let mut reader = OpStreamFileReader::open(&path).expect("open guard stream");
    let mut hists: [Histogram; 8] = std::array::from_fn(|_| Histogram::new());
    let mut applied: u64 = 0;
    let mut errors: u64 = 0;
    let mut window = None;
    let mut rows_at_window: u64 = 0;
    while let Some(rec) = reader.next_record().expect("decode guard stream") {
        clock.advance_to(rec.at);
        let t0 = clock.now();
        match m.apply(&rec.op) {
            Ok(()) => {
                hists[kind_code(rec.op.kind()) as usize].record_duration(clock.now().since(t0))
            }
            Err(_) => errors += 1,
        }
        applied += 1;
        if window.is_none() && applied >= warm {
            rows_at_window = m.timeline_rows().expect("guard stream timeline alive");
            window = Some(ALLOC.counts());
        }
    }
    let before = window.expect("stream shorter than its warmup window");
    let after = ALLOC.counts();
    let rows_in_window = m
        .timeline_rows()
        .expect("guard stream timeline alive at end")
        - rows_at_window;
    assert!(
        rows_in_window > 0,
        "sampler must take rows inside the streaming guard window"
    );
    m.finish_timeline().expect("finish guard stream timeline");
    let _ = std::fs::remove_file(&tl_path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(applied, expected, "stream must decode every record");
    assert_eq!(errors, 0, "guard stream ops must not fail");
    let events = after.events() - before.events();
    let bytes = after.bytes.saturating_sub(before.bytes);
    println!(
        "alloc-guard: stream window of {} decoded ops, {events} allocation \
         events ({bytes} bytes); {rows_in_window} timeline rows in window",
        applied - warm
    );
    if events != 0 {
        panic!("alloc-guard FAILED: streaming decode/apply loop allocated");
    }
    println!("alloc-guard: OK — flat memory while decoding the op stream");
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; the first free
    // argument (if any) is a substring filter on scenario names. `--smoke`
    // selects the short CI mode and `--json PATH` records the throughput
    // table via the report module.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--json"))
        .map(|(_, a)| a.clone());
    if args.iter().any(|a| a == "--smoke") {
        SMOKE.store(true, Ordering::Relaxed);
    }
    if args.iter().any(|a| a == "--alloc-guard") {
        alloc_guard();
        return;
    }
    if let Some(path) = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
    {
        check_throughput(&path);
        return;
    }
    let json = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    println!(
        "in-tree bench harness: window {} ms/scenario{}{}",
        measure_window().as_millis(),
        filter
            .as_deref()
            .map(|f| format!(", filter `{f}`"))
            .unwrap_or_default(),
        if smoke() { ", smoke mode" } else { "" }
    );
    bench_devices(filter.clone());
    bench_storage(filter.clone());
    bench_filesystems(filter.clone());
    bench_vm(filter.clone());
    bench_traces(filter.clone());
    bench_throughput(filter, json);
}
