//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ssmc-bench --bin experiments -- all
//! cargo run --release -p ssmc-bench --bin experiments -- t1 f2 f4
//! cargo run --release -p ssmc-bench --bin experiments -- --list
//! cargo run --release -p ssmc-bench --bin experiments -- all --json results/
//! cargo run --release -p ssmc-bench --bin experiments -- all --threads 4
//! cargo run --release -p ssmc-bench --bin experiments -- --trace-out trace.json
//! cargo run --release -p ssmc-bench --bin experiments -- --timeline-out run.tl
//! ```

use ssmc_bench::{experiments, Experiment};
use ssmc_device::TearMode;
use ssmc_sim::report::ToReport;
use ssmc_sim::SimDuration;
use ssmc_trace::Workload;
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments();

    // Parsed before any mode dispatch, so experiments and crash-torture
    // read the flag the same way.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n = ssmc_bench::parse_threads(args.get(i + 1).map(String::as_str))
            .unwrap_or_else(|e| exit_2(&e));
        ssmc_sim::set_threads(n);
    }

    if args.first().map(String::as_str) == Some("trace-compile") {
        trace_compile(parse_trace_compile(&args[1..]).unwrap_or_else(|e| exit_2(&e)));
        return;
    }

    if args.first().map(String::as_str) == Some("crash-torture") {
        crash_torture(parse_crash_torture(&args[1..]).unwrap_or_else(|e| exit_2(&e)));
        return;
    }

    let cli = parse_cli(&args, &registry).unwrap_or_else(|e| exit_2(&e));

    if let Some(path) = &cli.trace_out {
        eprintln!(">>> traced replay: bsd, {} ops", cli.trace_ops);
        let start = std::time::Instant::now();
        let artifact = ssmc_bench::obs_trace::traced_replay(Workload::Bsd, cli.trace_ops);
        eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());
        let mut f = std::fs::File::create(path).expect("create trace-out file");
        f.write_all(artifact.to_report().encode_pretty().as_bytes())
            .expect("write trace-out file");
        eprintln!("    wrote {}", path.display());
    }

    if let Some(path) = &cli.timeline_out {
        eprintln!(
            ">>> timeline replay: bsd, {} ops @ {} ms samples",
            cli.trace_ops,
            cli.sample_interval.as_millis_f64()
        );
        let start = std::time::Instant::now();
        let summary = ssmc_bench::obs_trace::timeline_replay(
            Workload::Bsd,
            cli.trace_ops,
            cli.sample_interval,
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
    let replayed = cli.trace_out.is_some() || cli.timeline_out.is_some();

    if (args.is_empty() || cli.help) && !replayed {
        eprintln!(
            "usage: experiments [--list] [--json DIR] [--threads N] \
             [--trace-out PATH [--trace-ops N]] \
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
    if cli.list {
        for e in &registry {
            println!("{:4}  {}", e.id, e.title);
        }
        return;
    }

    if let Some(dir) = &cli.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }

    let mut ran = 0;
    for e in &registry {
        if !cli.all && !cli.ids.contains(&e.id) {
            continue;
        }
        eprintln!(">>> running {} — {}", e.id, e.title);
        let start = std::time::Instant::now();
        let tables = (e.run)();
        eprintln!("    ({:.1} s)", start.elapsed().as_secs_f64());
        for t in &tables {
            println!("{}", t.render());
        }
        if let Some(dir) = &cli.json_dir {
            let path = dir.join(format!("{}.json", e.id));
            let mut f = std::fs::File::create(&path).expect("create json");
            let json = tables.to_report().encode_pretty();
            f.write_all(json.as_bytes()).expect("write json");
            eprintln!("    wrote {}", path.display());
        }
        ran += 1;
    }
    if ran == 0 && !replayed {
        eprintln!("no matching experiments; try --list");
        std::process::exit(2);
    }
}

/// Prints a command-line error and exits 2, before any work starts.
fn exit_2(e: &str) -> ! {
    eprintln!("{e}");
    std::process::exit(2);
}

/// The experiment-running mode's command line.
struct Cli {
    list: bool,
    help: bool,
    json_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_ops: u64,
    timeline_out: Option<PathBuf>,
    sample_interval: SimDuration,
    all: bool,
    ids: Vec<&'static str>,
}

/// Parses the experiment-running mode's arguments in one pass: each flag
/// consumes its value, and every other argument must be `all` or the id
/// of an experiment in `registry`.
///
/// # Errors
///
/// The one-line message printed before exiting 2.
fn parse_cli(args: &[String], registry: &[Experiment]) -> Result<Cli, String> {
    let mut cli = Cli {
        list: false,
        help: false,
        json_dir: None,
        trace_out: None,
        trace_ops: 25_000,
        timeline_out: None,
        sample_interval: ssmc_bench::obs_trace::default_sample_interval(),
        all: false,
        ids: Vec::new(),
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--list" => cli.list = true,
            "--help" | "-h" => cli.help = true,
            // Validated and applied before mode dispatch.
            "--threads" => {
                it.next();
            }
            "--json" => cli.json_dir = Some(value(&mut it, "--json needs a directory")?.into()),
            "--trace-out" => {
                cli.trace_out = Some(value(&mut it, "--trace-out needs a path")?.into());
            }
            "--timeline-out" => {
                cli.timeline_out = Some(value(&mut it, "--timeline-out needs a path")?.into());
            }
            "--trace-ops" => {
                let need = "--trace-ops needs a positive integer";
                cli.trace_ops = value(&mut it, need)?.parse().map_err(|_| need.to_owned())?;
            }
            "--sample-interval" => {
                let need = "--sample-interval needs a positive integer (simulated ms)";
                let ms: u64 = value(&mut it, need)?.parse().map_err(|_| need.to_owned())?;
                if ms == 0 {
                    return Err(need.to_owned());
                }
                cli.sample_interval = SimDuration::from_millis(ms);
            }
            "all" => cli.all = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag:?}; try --help"));
            }
            id => match registry.iter().find(|e| e.id == id) {
                Some(e) => cli.ids.push(e.id),
                None => return Err(format!("unknown experiment id {id:?}; try --list")),
            },
        }
    }
    Ok(cli)
}

/// A flag's value; one that looks like another flag counts as missing.
fn value<'a>(it: &mut impl Iterator<Item = &'a str>, need: &str) -> Result<&'a str, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| need.to_owned())
}

/// A flag's value parsed as a number.
fn number<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    need: &str,
) -> Result<T, String> {
    value(it, need)?.parse().map_err(|_| need.to_owned())
}

/// The error for an argument a subcommand does not take; the main
/// usage text lists every subcommand's flags.
fn unexpected(arg: &str, mode: &str) -> String {
    if arg.starts_with("--") {
        format!("unknown {mode} flag {arg:?}; see experiments --help")
    } else {
        format!("unexpected {mode} argument {arg:?}; see experiments --help")
    }
}

fn parse_workload(v: &str) -> Result<Workload, String> {
    Workload::parse(v).ok_or_else(|| {
        format!(
            "unknown workload {v:?}; one of: {}",
            Workload::ALL.map(|w| w.name()).join(", ")
        )
    })
}

/// `trace-compile`'s command line.
struct CompileCli {
    workload: Workload,
    ops: usize,
    out: PathBuf,
}

/// Parses `trace-compile`'s arguments in one pass, like [`parse_cli`].
///
/// # Errors
///
/// The one-line message printed before exiting 2.
fn parse_trace_compile(args: &[String]) -> Result<CompileCli, String> {
    let mut workload = Workload::Bsd;
    let mut ops = 25_000;
    let mut out = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--workload" => workload = parse_workload(value(&mut it, "--workload needs a name")?)?,
            "--ops" => ops = number(&mut it, "--ops needs a positive integer")?,
            "--out" => out = Some(value(&mut it, "--out needs a path")?.into()),
            other => return Err(unexpected(other, "trace-compile")),
        }
    }
    let out = out.ok_or("trace-compile needs --out PATH")?;
    Ok(CompileCli { workload, ops, out })
}

/// `crash-torture`'s command line.
struct TortureCli {
    workload: Workload,
    ops: usize,
    seed: u64,
    tears: Vec<TearMode>,
    json: Option<PathBuf>,
}

/// Parses `crash-torture`'s arguments in one pass, like [`parse_cli`].
///
/// # Errors
///
/// The one-line message printed before exiting 2.
fn parse_crash_torture(args: &[String]) -> Result<TortureCli, String> {
    let mut cli = TortureCli {
        workload: Workload::Bsd,
        ops: 2_000,
        seed: 0x0C0F_FEE5,
        tears: vec![TearMode::Prefix, TearMode::Stripe],
        json: None,
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--workload" => {
                cli.workload = parse_workload(value(&mut it, "--workload needs a name")?)?;
            }
            "--ops" => cli.ops = number(&mut it, "--ops needs a positive integer")?,
            "--seed" => cli.seed = number(&mut it, "--seed needs an unsigned integer")?,
            "--tear" => {
                cli.tears = match value(&mut it, "--tear needs a mode")? {
                    // "both" = both torn-write modes; "all" adds the untorn cut.
                    "both" => vec![TearMode::Prefix, TearMode::Stripe],
                    "all" => vec![TearMode::Clean, TearMode::Prefix, TearMode::Stripe],
                    "clean" => vec![TearMode::Clean],
                    "prefix" => vec![TearMode::Prefix],
                    "stripe" => vec![TearMode::Stripe],
                    v => {
                        return Err(format!(
                            "unknown tear mode {v:?}; one of: clean, prefix, stripe, both, all"
                        ))
                    }
                };
            }
            "--json" => cli.json = Some(value(&mut it, "--json needs a path")?.into()),
            // Validated and applied before mode dispatch.
            "--threads" => {
                it.next();
            }
            other => return Err(unexpected(other, "crash-torture")),
        }
    }
    Ok(cli)
}

/// `experiments trace-compile --out PATH [--workload NAME] [--ops N]`
///
/// Compiles a generated workload straight to a fixed-width `.ops` stream
/// on disk, reports the host time and records/s of that generation, then
/// reopens the stream and dumps the header as a sanity check. The seed
/// (the generator's default, 21932) and the 4 MB live cap are the replay
/// benchmark's, so `--workload bsd --ops 50000` times the generation of
/// its bsd-long sub-trace 0.
fn trace_compile(cli: CompileCli) {
    use ssmc_trace::io::{OpStreamFileReader, OpStreamWriter};
    use ssmc_trace::GeneratorConfig;

    let CompileCli { workload, ops, out } = cli;
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
fn crash_torture(cli: TortureCli) {
    use ssmc_sim::obs::MetricsRegistry;
    use ssmc_sim::report::Value;
    use ssmc_storage::torture::{self, TortureSummary};

    let TortureCli {
        workload,
        ops: ops_n,
        seed,
        tears,
        json: json_out,
    } = cli;
    let (cfg, ops) = ssmc_bench::torture_sweep(workload, ops_n, seed);

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
