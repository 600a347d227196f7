//! Replay benchmark for the solid-state mobile computer.
//!
//! ```text
//! perfbench --workload <bsd-long|mail-spool> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's sub-traces from the seed into `.ops` files,
//! then replays them through fresh `MobileComputer`s for `--seconds` of
//! host time. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it runs the traced pass and the layer drive and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! output check exits 1.

mod drive;
mod replay;
mod stats;
mod workload;

use replay::{replay_machine, MachineRun, Mode};
use ssmc_sim::obs::MetricsRegistry;
use ssmc_trace::{OpKind, OpStreamFileReader};
use stats::{fingerprint_diff, median, percentile, rate, tail_quantile, Accounting, Fingerprint};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};
use workload::Spec;

/// Host budget of one replay; a healthy one takes 1–3 s.
const REPLAY_BUDGET: Duration = Duration::from_secs(30);

/// Host budget of the whole run, checked between operations.
const RUN_BUDGET: Duration = Duration::from_secs(140);

/// Hard limit of the whole process. An operation that livelocks never
/// returns to the between-operation checks, so past this the main thread
/// reports where the run was stuck and exits.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Percentiles `op_host_p999_us` may fall back to, highest first.
const TAIL_QUANTILES: [f64; 3] = [0.999, 0.99, 0.9];

/// Scratch directory for traces and timelines, under the working
/// directory.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec = spec.ok_or("--workload is required")?;
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run found, ready to print.
struct Outcome {
    acct: Accounting,
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

/// The run's files and deadlines.
struct Ctx {
    args: Args,
    dir: PathBuf,
    run_deadline: Instant,
}

impl Ctx {
    fn ops_path(&self, sub: usize) -> PathBuf {
        self.dir.join(format!("{}-{sub}.ops", self.args.spec.name))
    }

    fn replay_deadline(&self) -> Instant {
        (Instant::now() + REPLAY_BUDGET).min(self.run_deadline)
    }

    fn reader(&self, sub: usize) -> std::io::Result<OpStreamFileReader> {
        OpStreamFileReader::open(&self.ops_path(sub))
    }

    fn replay(&self, sub: usize, traced: bool, timeline: bool) -> std::io::Result<MachineRun> {
        replay::SUB_TRACE.store(sub as u64, Ordering::Relaxed);
        let mode = Mode { traced, timeline };
        let tl_path = self.dir.join(format!("{}.tl", self.args.spec.name));
        let run = replay_machine(
            &self.args.spec,
            &mut self.reader(sub)?,
            mode,
            &tl_path,
            self.replay_deadline(),
        )?;
        self.report_abort(sub, &run.acct);
        Ok(run)
    }

    fn report_abort(&self, sub: usize, acct: &Accounting) {
        if acct.unreplayed() > 0 {
            println!(
                "deadline: workload {} seed {} sub-trace {sub} (trace seed {}) stopped at op {} of {}",
                self.args.spec.name,
                self.args.seed,
                workload::sub_seed(self.args.seed, sub),
                acct.replayed,
                acct.attempted
            );
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let dir = Path::new(WORK_DIR).join(format!("{}", std::process::id()));
    let (name, seed) = (args.spec.name, args.seed);
    // The run goes on a worker thread so this one can end the process
    // if an operation never returns.
    let (tx, rx) = channel();
    let worker_dir = dir.clone();
    let worker = std::thread::spawn(move || {
        let code = match std::fs::create_dir_all(&worker_dir) {
            Ok(()) => run(args, &worker_dir, started),
            Err(e) => {
                eprintln!("perfbench: cannot create {}: {e}", worker_dir.display());
                1
            }
        };
        let _ = tx.send(code);
    });
    let code = match rx.recv_timeout(HARD_LIMIT) {
        Ok(code) => {
            let _ = worker.join();
            code
        }
        Err(RecvTimeoutError::Timeout) => {
            println!(
                "deadline: workload {name} seed {seed} sub-trace {} stuck in op {} after {} s",
                replay::SUB_TRACE.load(Ordering::Relaxed),
                replay::OPS_DONE.load(Ordering::Relaxed),
                HARD_LIMIT.as_secs()
            );
            1
        }
        Err(RecvTimeoutError::Disconnected) => {
            eprintln!("perfbench: the run panicked: {:?}", worker.join().err());
            1
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    std::process::exit(code);
}

fn run(args: Args, dir: &Path, started: Instant) -> i32 {
    let ctx = Ctx {
        dir: dir.to_owned(),
        run_deadline: started + RUN_BUDGET,
        args,
    };
    // The traced run does not report set-up time, so it sets up once.
    let result = if ctx.args.trace {
        setup(&ctx, 1).and_then(|_| traced_run(&ctx))
    } else {
        setup(&ctx, SETUP_REPS).and_then(|setup_s| end_to_end_run(&ctx, setup_s))
    };
    match result {
        Ok(out) => {
            print_outcome(&ctx, &out);
            i32::from(!out.violations.is_empty())
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Generates every sub-trace and builds a machine for each, `reps` times
/// over, returning the median seconds per full set-up.
fn setup(ctx: &Ctx, reps: usize) -> std::io::Result<f64> {
    let spec = &ctx.args.spec;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for sub in 0..spec.subtraces {
            let written =
                spec.generate(workload::sub_seed(ctx.args.seed, sub), &ctx.ops_path(sub))?;
            if written != spec.ops as u64 {
                return Err(std::io::Error::other(format!(
                    "generator wrote {written} of {} records",
                    spec.ops
                )));
            }
            std::hint::black_box(spec.machine());
        }
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Checks that run `what` matches the reference fingerprint.
fn check_same(
    violations: &mut Vec<String>,
    what: &str,
    reference: &Fingerprint,
    other: &Fingerprint,
) {
    let diff = fingerprint_diff(reference, other);
    if !diff.is_empty() {
        violations.push(format!(
            "{what}: simulated fingerprint differs: {}",
            diff.join(", ")
        ));
    }
}

/// Checks shared by every replay: balanced accounting and a clean fsck.
fn check_run(violations: &mut Vec<String>, what: &str, acct: &Accounting, fsck_repairs: u64) {
    if !acct.is_balanced() {
        violations.push(format!(
            "{what}: records neither replayed nor counted failed: {acct:?}"
        ));
    }
    if fsck_repairs != 0 {
        violations.push(format!("{what}: fsck made {fsck_repairs} repairs"));
    }
}

/// Nearest-rank percentile of a run's samples, or zero without samples.
/// Sorts `v` in place.
fn percentile_ns(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    percentile(v, q)
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.counter_value(name).unwrap_or(0)
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// One replay reduced to the numbers the end-to-end metrics need, so
/// no per-op samples outlive their replay and peak memory does not grow
/// with the number of replays.
struct ReplaySummary {
    sub: usize,
    acct: Accounting,
    fsck_repairs: u64,
    ops_per_s: f64,
    tail: Duration,
    tail_ops: u64,
    mean_us: f64,
    ptail_us: f64,
    /// Fingerprint plus the simulated metrics, all of which must repeat.
    sim: Fingerprint,
}

fn summarize(sub: usize, mut run: MachineRun, q: f64) -> ReplaySummary {
    let reg = &run.registry;
    let mut sim = run.fingerprint.clone();
    sim.insert(
        "machine.energy_total_nj".into(),
        counter(reg, "machine.energy_total_nj"),
    );
    sim.insert(
        "sim.write_p99_ns".into(),
        percentile_ns(&mut run.sim_write_ns, 0.99),
    );
    let apply_ns: u64 = run.op_host_ns.iter().sum();
    ReplaySummary {
        sub,
        acct: run.acct,
        fsck_repairs: run.fsck_repairs,
        ops_per_s: rate(run.acct.replayed, run.host.as_secs_f64()),
        tail: run.tail,
        tail_ops: run.tail_ops,
        mean_us: apply_ns as f64 / run.acct.replayed.max(1) as f64 / 1e3,
        ptail_us: percentile_ns(&mut run.op_host_ns, q) as f64 / 1e3,
        sim,
    }
}

/// Replays every sub-trace on a fresh machine, pass after pass, until
/// `--seconds` of host time pass (the first pass always completes), and
/// reports host metrics as medians over all replays and simulated
/// metrics as medians over the sub-traces.
fn end_to_end_run(ctx: &Ctx, setup_s: f64) -> std::io::Result<Outcome> {
    let spec = ctx.args.spec;
    let measure_end = Instant::now() + Duration::from_secs(ctx.args.seconds);
    let q = tail_quantile(spec.ops, &TAIL_QUANTILES).unwrap_or(1.0);
    let mut runs: Vec<ReplaySummary> = Vec::new();
    let mut acct = Accounting::default();
    let mut timeline_rows = 0;
    let mut pooled_w = Vec::new();
    'passes: for pass in 0.. {
        if pass > 0 && Instant::now() >= measure_end {
            break;
        }
        for sub in 0..spec.subtraces {
            let run = ctx.replay(sub, false, spec.timeline)?;
            if pass == 0 {
                pooled_w.extend_from_slice(&run.sim_write_ns);
            }
            timeline_rows = run.timeline_rows;
            let run = summarize(sub, run, q);
            acct = acct.add(run.acct);
            let aborted = run.acct.unreplayed() > 0;
            runs.push(run);
            if aborted {
                // The sub-traces this pass never reached count as
                // attempted and unreplayed.
                acct.attempted += (spec.subtraces - sub - 1) as u64 * spec.ops as u64;
                break 'passes;
            }
        }
    }
    let mut violations = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        check_run(
            &mut violations,
            &format!("replay {i}"),
            &run.acct,
            run.fsck_repairs,
        );
    }
    // Simulated results must repeat exactly; an aborted replay stopped
    // early, so only complete ones are compared.
    let complete: Vec<&ReplaySummary> = runs.iter().filter(|r| r.acct.unreplayed() == 0).collect();
    for run in &complete {
        let first = complete
            .iter()
            .find(|r| r.sub == run.sub)
            .expect("run is in the list");
        check_same(
            &mut violations,
            &format!("sub-trace {} repeat", run.sub),
            &first.sim,
            &run.sim,
        );
    }
    let first_pass = &runs[..spec.subtraces.min(runs.len())];
    let med = |f: &dyn Fn(&ReplaySummary) -> f64, over: &[ReplaySummary]| {
        median(&over.iter().map(f).collect::<Vec<_>>())
    };
    let get = |r: &ReplaySummary, k: &str| r.sim.get(k).copied().unwrap_or(0) as f64;
    // Each sub-trace's tail rate pools its tail windows over every pass;
    // the median over sub-traces then keeps a sub-trace caught in a
    // summary-write storm from setting the rate.
    let tail_rates: Vec<f64> = (0..spec.subtraces)
        .map(|sub| {
            let of_sub = runs.iter().filter(|r| r.sub == sub);
            let (ops, secs) = of_sub.fold((0, 0.0), |(o, s), r| {
                (o + r.tail_ops, s + r.tail.as_secs_f64())
            });
            rate(ops, secs)
        })
        .collect();
    println!(
        "workload {} seed {}: {} replays over {} sub-traces of {} ops; host percentiles from {} samples per replay (tail = p{}); {} timeline rows",
        spec.name,
        ctx.args.seed,
        runs.len(),
        spec.subtraces,
        spec.ops,
        spec.ops,
        q * 100.0,
        timeline_rows,
    );
    for r in first_pass {
        println!(
            "  sub-trace {:>2} (trace seed {}): flash/user bytes {:.4}, {:.1} uJ/op, {} GC passes",
            r.sub,
            workload::sub_seed(ctx.args.seed, r.sub),
            get(r, "flash.bytes_programmed") / get(r, "fs.bytes_written").max(1.0),
            get(r, "machine.energy_total_nj") / 1e3 / r.acct.replayed.max(1) as f64,
            get(r, "storage.gc_runs"),
        );
    }
    let metrics = vec![
        metric("replay_ops_per_s", med(&|r| r.ops_per_s, &runs), "1/s"),
        metric("tail_ops_per_s", median(&tail_rates), "1/s"),
        metric("op_host_mean_us", med(&|r| r.mean_us, &runs), "us"),
        metric("op_host_p999_us", med(&|r| r.ptail_us, &runs), "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("replayed_op_share", 1.0 - acct.failed_share(), "frac"),
        metric(
            "sim_write_p99_us",
            percentile_ns(&mut pooled_w, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "sim_flash_bytes_per_user_byte",
            med(
                &|r| get(r, "flash.bytes_programmed") / get(r, "fs.bytes_written").max(1.0),
                first_pass,
            ),
            "B/B",
        ),
        metric(
            "sim_energy_uj_per_op",
            med(
                &|r| get(r, "machine.energy_total_nj") / 1e3 / r.acct.replayed.max(1) as f64,
                first_pass,
            ),
            "uJ",
        ),
    ];
    Ok(Outcome {
        acct,
        metrics,
        violations,
    })
}

/// Per-layer values of one traced iteration.
struct LayerSample {
    decode_ns_per_op: f64,
    apply_ns: [f64; 8],
    core_self_ns_per_op: f64,
    memfs_ns: [f64; 9],
    tick_ns_per_call: f64,
    overhead_frac: f64,
    timeline_ns_per_row: f64,
}

/// Cycles through the sub-traces, running on each an untraced replay,
/// the traced pass, the layer drive and, with the sampler on, a
/// sampler-off replay, until `--seconds` pass. Host-time metrics are
/// medians over the iterations; counts come from sub-trace 0.
fn traced_run(ctx: &Ctx) -> std::io::Result<Outcome> {
    let spec = ctx.args.spec;
    let measure_end = Instant::now() + Duration::from_secs(ctx.args.seconds);
    let mut violations = Vec::new();
    let mut acct = Accounting::default();
    let mut samples = Vec::new();
    let mut first = None;
    loop {
        let i = samples.len();
        let sub = i % spec.subtraces;
        let mut plain = ctx.replay(sub, false, spec.timeline)?;
        let traced = ctx.replay(sub, true, spec.timeline)?;
        replay::SUB_TRACE.store(sub as u64, Ordering::Relaxed);
        let layers = drive::drive(
            &spec.machine_config(),
            &mut ctx.reader(sub)?,
            ctx.replay_deadline(),
        )?;
        ctx.report_abort(sub, &layers.acct);
        let off = if spec.timeline {
            Some(ctx.replay(sub, false, false)?)
        } else {
            None
        };
        check_run(
            &mut violations,
            &format!("iteration {i} untraced"),
            &plain.acct,
            plain.fsck_repairs,
        );
        check_run(
            &mut violations,
            &format!("iteration {i} traced"),
            &traced.acct,
            traced.fsck_repairs,
        );
        acct = acct.add(plain.acct).add(traced.acct).add(layers.acct);
        let aborted = [plain.acct, traced.acct, layers.acct]
            .iter()
            .any(|a| a.unreplayed() > 0)
            || off.as_ref().is_some_and(|o| o.acct.unreplayed() > 0);
        if aborted {
            break;
        }
        check_same(
            &mut violations,
            &format!("iteration {i} traced vs untraced"),
            &plain.fingerprint,
            &traced.fingerprint,
        );
        check_same(
            &mut violations,
            &format!("iteration {i} layer drive vs machine"),
            &plain.fingerprint,
            &layers.fingerprint,
        );
        if let Some(off) = &off {
            check_same(
                &mut violations,
                &format!("iteration {i} sampler off vs on"),
                &plain.fingerprint,
                &off.fingerprint,
            );
        }
        let spans = traced.spans.expect("traced pass records spans");
        let ops = traced.acct.replayed.max(1) as f64;
        let apply_total: u64 = spans.apply_ns.iter().sum();
        let mut apply_ns = [0.0; 8];
        for (k, v) in apply_ns.iter_mut().enumerate() {
            if spans.applies[k] > 0 {
                *v = spans.apply_ns[k] as f64 / spans.applies[k] as f64;
            }
        }
        let rows = plain.timeline_rows;
        samples.push(LayerSample {
            decode_ns_per_op: spans.decode_ns as f64 / ops,
            apply_ns,
            core_self_ns_per_op: (apply_total as f64 - layers.layer_ns() as f64) / ops,
            memfs_ns: layers.memfs.map(|s| s.ns_per_call()),
            tick_ns_per_call: layers.tick.ns_per_call(),
            overhead_frac: traced.host.as_secs_f64() / plain.host.as_secs_f64() - 1.0,
            timeline_ns_per_row: match &off {
                Some(off) if rows > 0 => {
                    (plain.host.as_secs_f64() - off.host.as_secs_f64()) * 1e9 / rows as f64
                }
                _ => 0.0,
            },
        });
        if first.is_none() {
            let lag_p99_us = percentile_ns(&mut plain.arrival_lag_ns, 0.99) as f64 / 1e3;
            let read_p99_us = percentile_ns(&mut plain.sim_read_ns, 0.99) as f64 / 1e3;
            first = Some((traced, layers, lag_p99_us, read_p99_us));
        }
        if Instant::now() >= measure_end {
            break;
        }
    }
    let Some((traced, layers, lag_p99_us, read_p99_us)) = first else {
        return Ok(Outcome {
            acct,
            metrics: Vec::new(),
            violations: vec!["the deadline stopped the first traced iteration".into()],
        });
    };
    println!(
        "workload {} seed {}: {} traced iterations of {} ops",
        spec.name,
        ctx.args.seed,
        samples.len(),
        spec.ops
    );
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![metric(
        "trace.decode_ns_per_op",
        med(&|s| s.decode_ns_per_op),
        "ns",
    )];
    for (k, kind) in OpKind::ALL.iter().enumerate() {
        metrics.push(metric(
            format!("core.apply_ns.{kind}"),
            med(&|s| s.apply_ns[k]),
            "ns",
        ));
    }
    metrics.push(metric(
        "core.self_ns_per_op",
        med(&|s| s.core_self_ns_per_op),
        "ns",
    ));
    for (c, call) in drive::MEMFS_CALLS.iter().enumerate() {
        metrics.push(metric(
            format!("memfs.call_ns.{call}"),
            med(&|s| s.memfs_ns[c]),
            "ns",
        ));
    }
    for (c, call) in drive::MEMFS_CALLS.iter().enumerate() {
        metrics.push(metric(
            format!("memfs.calls.{call}"),
            layers.memfs[c].calls as f64,
            "count",
        ));
    }
    let reg = &traced.registry;
    metrics.push(metric(
        "fs.dindex_depth",
        layers
            .registry
            .gauge_value("fs.dindex_depth")
            .unwrap_or(0.0),
        "count",
    ));
    metrics.push(metric(
        "fs.dindex_splits",
        counter(&layers.registry, "fs.dindex_splits") as f64,
        "count",
    ));
    metrics.push(metric(
        "storage.tick_ns_per_call",
        med(&|s| s.tick_ns_per_call),
        "ns",
    ));
    metrics.push(metric(
        "storage.tick_calls",
        layers.tick.calls as f64,
        "count",
    ));
    for (name, unit) in [
        ("storage.gc_runs", "count"),
        ("storage.gc_flash_pages", "count"),
        ("storage.summary_flash_pages", "count"),
        ("storage.checkpoint_flash_pages", "count"),
        ("storage.user_flash_pages", "count"),
        ("storage.overwrites_absorbed", "count"),
        ("storage.deaths_absorbed", "count"),
        ("storage.gc_wait_ns", "ns"),
    ] {
        metrics.push(metric(name, counter(reg, name) as f64, unit));
    }
    for name in ["storage.gc_efficiency", "storage.write_traffic_reduction"] {
        metrics.push(metric(name, reg.gauge_value(name).unwrap_or(0.0), "frac"));
    }
    for (name, unit) in [
        ("flash.programs", "count"),
        ("flash.erases", "count"),
        ("flash.reads", "count"),
        ("flash.bytes_programmed", "B"),
        ("flash.read_stall_ns", "ns"),
        ("flash.stalled_reads", "count"),
        ("flash.bad_blocks", "count"),
    ] {
        metrics.push(metric(name, counter(reg, name) as f64, unit));
    }
    metrics.push(metric("sim.read_p99_us", read_p99_us, "us"));
    metrics.push(metric("sim.arrival_lag_p99_us", lag_p99_us, "us"));
    metrics.push(metric(
        "sim.timeline_rows",
        traced.timeline_rows as f64,
        "count",
    ));
    metrics.push(metric(
        "sim.timeline_ns_per_row",
        med(&|s| s.timeline_ns_per_row),
        "ns",
    ));
    metrics.push(metric(
        "bench.trace_overhead_frac",
        med(&|s| s.overhead_frac),
        "frac",
    ));
    Ok(Outcome {
        acct,
        metrics,
        violations,
    })
}

/// A JSON number: finite values as Rust prints them (all digits, never
/// an exponent), anything else as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_outcome(ctx: &Ctx, out: &Outcome) {
    for m in &out.metrics {
        println!("  {:<34} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    for v in &out.violations {
        println!(
            "CHECK FAILED ({} seed {}): {v}",
            ctx.args.spec.name, ctx.args.seed
        );
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.acct.attempted,
        out.acct.failed(),
        metrics.join(", ")
    );
}
