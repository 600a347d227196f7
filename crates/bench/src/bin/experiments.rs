//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ssmc-bench --bin experiments -- all
//! cargo run --release -p ssmc-bench --bin experiments -- t1 f2 f4
//! cargo run --release -p ssmc-bench --bin experiments -- --list
//! cargo run --release -p ssmc-bench --bin experiments -- all --json results/
//! cargo run --release -p ssmc-bench --bin experiments -- all --threads 4
//! cargo run --release -p ssmc-bench --bin experiments -- t2 --cache-policy lru_k
//! cargo run --release -p ssmc-bench --bin experiments -- --trace-out trace.json
//! cargo run --release -p ssmc-bench --bin experiments -- --timeline-out run.tl
//! ```

use ssmc_bench::experiments;
use ssmc_sim::report::ToReport;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments();

    // Parsed before any mode dispatch, so experiments and crash-torture
    // read the flag the same way.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n =
            ssmc_bench::parse_threads(args.get(i + 1).map(String::as_str)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        ssmc_sim::set_threads(n);
    }

    if args.first().map(String::as_str) == Some("trace-compile") {
        trace_compile(&args[1..]);
        return;
    }

    if args.first().map(String::as_str) == Some("crash-torture") {
        crash_torture(&args[1..]);
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--cache-policy") {
        let policy = args
            .get(i + 1)
            .and_then(|v| ssmc_baseline::CachePolicy::parse(v))
            .unwrap_or_else(|| {
                eprintln!("--cache-policy needs one of: lru, lru_k");
                std::process::exit(2);
            });
        ssmc_bench::baseline_policy::set_cache_policy(policy);
    }

    let trace_out = args.iter().position(|a| a == "--trace-out").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                eprintln!("--trace-out needs a path");
                std::process::exit(2);
            })
    });
    let trace_ops = args
        .iter()
        .position(|a| a == "--trace-ops")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--trace-ops needs a positive integer");
                    std::process::exit(2);
                })
        })
        .unwrap_or(25_000);

    if let Some(path) = &trace_out {
        eprintln!(">>> traced replay: bsd, {trace_ops} ops");
        let start = std::time::Instant::now();
        let artifact = ssmc_bench::obs_trace::traced_replay(ssmc_trace::Workload::Bsd, trace_ops);
        eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());
        let mut f = std::fs::File::create(path).expect("create trace-out file");
        f.write_all(artifact.to_report().encode_pretty().as_bytes())
            .expect("write trace-out file");
        eprintln!("    wrote {}", path.display());
    }

    let timeline_out = args.iter().position(|a| a == "--timeline-out").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                eprintln!("--timeline-out needs a path");
                std::process::exit(2);
            })
    });
    let sample_interval = args
        .iter()
        .position(|a| a == "--sample-interval")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .map(ssmc_sim::SimDuration::from_millis)
                .unwrap_or_else(|| {
                    eprintln!("--sample-interval needs a positive integer (simulated ms)");
                    std::process::exit(2);
                })
        })
        .unwrap_or_else(ssmc_bench::obs_trace::default_sample_interval);

    if let Some(path) = &timeline_out {
        eprintln!(
            ">>> timeline replay: bsd, {trace_ops} ops @ {} ms samples",
            sample_interval.as_millis_f64()
        );
        let start = std::time::Instant::now();
        let summary = ssmc_bench::obs_trace::timeline_replay(
            ssmc_trace::Workload::Bsd,
            trace_ops,
            sample_interval,
            path,
        )
        .expect("timeline replay");
        eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "    wrote {} ({} rows x {} channels, {bytes} bytes)",
            path.display(),
            summary.rows,
            summary.channels,
        );
    }

    if (args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h"))
        && trace_out.is_none()
        && timeline_out.is_none()
    {
        eprintln!(
            "usage: experiments [--list] [--json DIR] [--threads N] \
             [--cache-policy lru|lru_k] [--trace-out PATH [--trace-ops N]] \
             [--timeline-out PATH [--sample-interval MS]] \
             <ids...|all>"
        );
        eprintln!(
            "       experiments trace-compile --out PATH \
             [--workload NAME] [--ops N]"
        );
        eprintln!(
            "       experiments crash-torture [--workload NAME] [--ops N] \
             [--seed N] [--tear clean|prefix|stripe|both|all] \
             [--threads N] [--json PATH]"
        );
        eprintln!("experiments:");
        for e in &registry {
            eprintln!("  {:4}  {}", e.id, e.title);
        }
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for e in &registry {
            println!("{:4}  {}", e.id, e.title);
        }
        return;
    }

    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    let want_all = args.iter().any(|a| a == "all");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    let mut ran = 0;
    for e in &registry {
        if !want_all && !wanted.contains(&e.id) {
            continue;
        }
        eprintln!(">>> running {} — {}", e.id, e.title);
        let start = std::time::Instant::now();
        let tables = (e.run)();
        eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());
        for t in &tables {
            println!("{}", t.render());
        }
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{}.json", e.id));
            let mut f = std::fs::File::create(&path).expect("create json");
            let json = tables.to_report().encode_pretty();
            f.write_all(json.as_bytes()).expect("write json");
            eprintln!("    wrote {}", path.display());
        }
        ran += 1;
    }
    if ran == 0 && trace_out.is_none() && timeline_out.is_none() {
        eprintln!("no matching experiments; try --list");
        std::process::exit(2);
    }
}

/// `experiments trace-compile --out PATH [--workload NAME] [--ops N]`
///
/// Compiles a generated workload straight to a fixed-width `.ops` stream
/// on disk, reports the host time and records/s of that generation, then
/// reopens the stream and dumps the header as a sanity check. The seed
/// (the generator's default, 21932) and the 4 MB live cap are the replay
/// benchmark's, so `--workload bsd --ops 50000` times the generation of
/// its bsd-long sub-trace 0.
fn trace_compile(args: &[String]) {
    use ssmc_trace::io::{OpStreamFileReader, OpStreamWriter};
    use ssmc_trace::{GeneratorConfig, Workload};

    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        })
    };
    let workload = match flag("--workload") {
        None => Workload::Bsd,
        Some(v) => Workload::parse(&v).unwrap_or_else(|| {
            eprintln!(
                "unknown workload {v:?}; one of: {}",
                Workload::ALL.map(|w| w.name()).join(", ")
            );
            std::process::exit(2);
        }),
    };
    let ops = match flag("--ops") {
        None => 25_000usize,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--ops needs a positive integer");
            std::process::exit(2);
        }),
    };
    let out = flag("--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("trace-compile needs --out PATH");
            std::process::exit(2);
        });

    eprintln!(
        ">>> trace-compile: {workload}, {ops} ops -> {}",
        out.display()
    );
    let start = std::time::Instant::now();
    let cfg = GeneratorConfig::new(workload)
        .with_ops(ops)
        .with_max_live_bytes(4 << 20);
    let mut w = OpStreamWriter::create(&out, &workload.to_string()).expect("create op stream");
    let written = cfg.generate_into(&mut w).expect("compile op stream");
    w.finish().expect("finish op stream");
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "    ({secs:.3} s, {:.0} records/s)",
        written as f64 / secs.max(1e-9)
    );

    let r = OpStreamFileReader::open(&out).expect("reopen op stream");
    let h = r.header();
    assert_eq!(h.records, written, "header record count matches writer");
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!("name:    {}", h.name);
    println!("version: {}", h.version);
    println!("records: {}", h.records);
    println!("files:   {}", h.files);
    println!("bytes:   {bytes}");
}

/// `experiments crash-torture [--workload NAME] [--ops N] [--seed N]
/// [--tear clean|prefix|stripe|both|all] [--threads N] [--json PATH]`
///
/// Generates a workload trace, projects it to a page-op stream through
/// the trace oracle, counts every flash program/erase boundary in a
/// clean pre-pass, then power-cuts the replay at each boundary with the
/// requested tear modes, recovering and differentially checking
/// durability after every cut (see `ssmc_storage::torture`).
///
/// Cut runs are pure functions of `(ops, seed, cut, tear)` and are
/// sharded across threads with `parallel_sweep`, which returns results
/// in input order — stdout and `--json` output are bit-identical at any
/// `--threads` value. Exits non-zero if any cut produced a violation.
fn crash_torture(args: &[String]) {
    use ssmc_device::{FlashSpec, TearMode};
    use ssmc_sim::obs::MetricsRegistry;
    use ssmc_sim::report::Value;
    use ssmc_sim::SimDuration;
    use ssmc_storage::torture::{self, TortureOp, TortureSummary};
    use ssmc_storage::StorageConfig;
    use ssmc_trace::{project, GeneratorConfig, OracleConfig, PageOpKind, Workload};

    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        })
    };
    let workload = match flag("--workload") {
        None => Workload::Bsd,
        Some(v) => Workload::parse(&v).unwrap_or_else(|| {
            eprintln!(
                "unknown workload {v:?}; one of: {}",
                Workload::ALL.map(|w| w.name()).join(", ")
            );
            std::process::exit(2);
        }),
    };
    let ops_n: usize = match flag("--ops") {
        None => 2_000,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--ops needs a positive integer");
            std::process::exit(2);
        }),
    };
    let seed: u64 = match flag("--seed") {
        None => 0x0C0F_FEE5,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--seed needs an unsigned integer");
            std::process::exit(2);
        }),
    };
    let tears: Vec<TearMode> = match flag("--tear").as_deref() {
        // "both" = both torn-write modes; "all" adds the untorn cut.
        None | Some("both") => vec![TearMode::Prefix, TearMode::Stripe],
        Some("all") => vec![TearMode::Clean, TearMode::Prefix, TearMode::Stripe],
        Some("clean") => vec![TearMode::Clean],
        Some("prefix") => vec![TearMode::Prefix],
        Some("stripe") => vec![TearMode::Stripe],
        Some(v) => {
            eprintln!("unknown tear mode {v:?}; one of: clean, prefix, stripe, both, all");
            std::process::exit(2);
        }
    };
    let json_out = flag("--json").map(std::path::PathBuf::from);

    // Fixed page-op stream: generate, project through the oracle.
    let trace = GeneratorConfig::new(workload)
        .with_ops(ops_n)
        .with_seed(seed)
        .with_max_live_bytes(128 << 10)
        .generate();
    let page_ops = project(&trace, &OracleConfig::default());
    let ops: Vec<TortureOp> = page_ops
        .iter()
        .map(|o| match o.kind {
            PageOpKind::Write => TortureOp::Write { page: o.page },
            PageOpKind::Free => TortureOp::Free { page: o.page },
            PageOpKind::Sync => TortureOp::Sync,
            PageOpKind::Tick => TortureOp::Tick,
        })
        .collect();

    // Small flash so the window still exercises GC and checkpointing:
    // 4 banks x 16 blocks x 8 KiB = 1024 pages against <= 256 live.
    let cfg = StorageConfig {
        page_size: 512,
        dram_buffer_bytes: 16 << 10,
        flash: FlashSpec {
            banks: 4,
            blocks_per_bank: 16,
            block_bytes: 8 << 10,
            write_unit: 512,
            ..FlashSpec::default()
        },
        gc_trigger_segments: 4,
        gc_target_segments: 6,
        checkpoint_interval: SimDuration::from_secs(1),
        ..StorageConfig::default()
    };

    let boundaries = torture::count_boundaries(&cfg, &ops, seed).unwrap_or_else(|e| {
        eprintln!("clean pre-pass failed: {e:?}");
        std::process::exit(2);
    });
    eprintln!(
        ">>> crash-torture: {workload}, {} page ops, {boundaries} boundaries, {} tear mode(s), {} threads",
        ops.len(),
        tears.len(),
        ssmc_sim::threads(),
    );

    let items: Vec<(TearMode, u64)> = tears
        .iter()
        .flat_map(|&t| (1..=boundaries).map(move |c| (t, c)))
        .collect();
    let start = std::time::Instant::now();
    let reports = ssmc_sim::parallel_sweep(&items, |_, &(tear, cut)| {
        torture::run_cut(&cfg, &ops, seed, cut, tear)
    });
    eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());

    let mut total = TortureSummary::default();
    let mut tear_rows: Vec<Value> = Vec::new();
    for (ti, &tear) in tears.iter().enumerate() {
        let slice = &reports[ti * boundaries as usize..(ti + 1) * boundaries as usize];
        let mut summary = TortureSummary::default();
        let mut failed_cuts: Vec<Value> = Vec::new();
        for r in slice {
            summary.absorb(r);
            total.absorb(r);
            if !r.passed() {
                failed_cuts.push(Value::object(vec![
                    ("cut", Value::UInt(r.cut_at)),
                    (
                        "violations",
                        Value::Array(
                            r.violations
                                .iter()
                                .map(|v| Value::Str(v.to_string()))
                                .collect(),
                        ),
                    ),
                ]));
            }
        }
        println!(
            "tear={:<6} cuts={} failures={}",
            format!("{tear:?}").to_lowercase(),
            summary.cuts_total,
            summary.failures
        );
        for r in slice.iter().filter(|r| !r.passed()).take(8) {
            for v in &r.violations {
                eprintln!("    {tear:?} cut {}: {v}", r.cut_at);
            }
        }
        tear_rows.push(Value::object(vec![
            ("tear", Value::Str(format!("{tear:?}").to_lowercase())),
            ("cuts_total", Value::UInt(summary.cuts_total)),
            ("failures", Value::UInt(summary.failures)),
            ("failed_cuts", Value::Array(failed_cuts)),
        ]));
    }
    println!(
        "total cuts={} failures={}",
        total.cuts_total, total.failures
    );

    let mut reg = MetricsRegistry::new();
    total.publish(&mut reg);
    debug_assert_eq!(
        reg.counter_value("torture.cuts_total"),
        Some(total.cuts_total)
    );

    if let Some(path) = &json_out {
        let report = Value::object(vec![
            ("workload", Value::Str(workload.to_string())),
            ("trace_ops", Value::UInt(ops_n as u64)),
            ("page_ops", Value::UInt(ops.len() as u64)),
            ("seed", Value::UInt(seed)),
            ("boundaries", Value::UInt(boundaries)),
            ("tears", Value::Array(tear_rows)),
            ("cuts_total", Value::UInt(total.cuts_total)),
            ("failures", Value::UInt(total.failures)),
        ]);
        let mut f = std::fs::File::create(path).expect("create json");
        f.write_all(report.encode_pretty().as_bytes())
            .expect("write json");
        eprintln!("    wrote {}", path.display());
    }

    if total.failures > 0 {
        std::process::exit(1);
    }
}
