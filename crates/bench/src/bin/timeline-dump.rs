//! Renders a `.tl` timeline (`experiments --timeline-out PATH`) as
//! ASCII: per-metric sparklines, a per-segment wear heatmap, and a
//! cleaning-cost-over-time view — the visual form of the paper's §3
//! erase-ahead argument (cleaning work should run ahead of demand, so
//! the free-segment level should never crash while GC copy traffic
//! spikes).
//!
//! ```text
//! timeline-dump <file.tl> [--metric SUBSTR]
//! ```

use ssmc_bench::obs_diff::{load, DiffInput};
use ssmc_sim::timeline::{ChannelKind, Timeline};
use std::path::Path;

/// Ten-step ASCII intensity ramp used by sparklines and the heatmap.
const RAMP: &[u8] = b" .:-=+*#%@";
/// Maximum sparkline width; longer series are downsampled (max within
/// each cell, so spikes survive).
const WIDTH: usize = 64;

fn shade(v: f64, max: f64) -> char {
    if !v.is_finite() || max <= 0.0 {
        return RAMP[0] as char;
    }
    let idx = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)] as char
}

fn sparkline(values: &[f64]) -> (String, f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() {
        return ("(no finite samples)".into(), 0.0, 0.0);
    }
    let cells = values.len().min(WIDTH).max(1);
    let mut line = String::with_capacity(cells);
    for c in 0..cells {
        let from = c * values.len() / cells;
        let to = ((c + 1) * values.len() / cells).max(from + 1);
        let cell = values[from..to]
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        line.push(shade(cell - lo, hi - lo));
    }
    (line, lo, hi)
}

/// Per-row deltas of a counter channel (saturating at zero so the rare
/// resetting counter renders as flat, not as a giant wrapped spike).
fn deltas(tl: &Timeline, ch: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(tl.rows());
    let mut prev = 0u64;
    for (row, v) in tl.series(ch).enumerate() {
        out.push(if row == 0 {
            0.0
        } else {
            v.saturating_sub(prev) as f64
        });
        prev = v;
    }
    out
}

fn main() {
    let mut path = None;
    let mut filter: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metric" => match args.get(i + 1) {
                Some(s) => {
                    filter = Some(s.clone());
                    i += 2;
                }
                None => {
                    eprintln!("timeline-dump: --metric needs a substring");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("timeline-dump: unknown flag {flag}");
                std::process::exit(2);
            }
            p => {
                path = Some(p.to_string());
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: timeline-dump <file.tl> [--metric SUBSTR]");
        std::process::exit(2);
    };
    let tl = match load(Path::new(&path)) {
        Ok(DiffInput::Timeline(tl)) => tl,
        Ok(DiffInput::Artifact(_)) => {
            eprintln!("timeline-dump: {path} is a trace artifact; use trace-dump");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("timeline-dump: {path}: {e}");
            std::process::exit(2);
        }
    };

    let interval = tl.interval();
    let tick = tl.channel_index("timeline.tick");
    let span_s = match (tick, tl.rows()) {
        (Some(t), r) if r > 0 => {
            (tl.value(r - 1, t).saturating_sub(tl.value(0, t)) + 1) as f64 * interval.as_secs_f64()
        }
        _ => 0.0,
    };
    println!(
        "timeline: {} channels × {} rows @ {} ns interval (~{:.3} s simulated)",
        tl.channels().len(),
        tl.rows(),
        interval.as_nanos(),
        span_s,
    );
    println!();

    // Sparklines: counters as per-row rates, gauges as levels. Constant
    // channels are compressed to one line each; wear channels render
    // below as the heatmap instead.
    let mut constant: Vec<&str> = Vec::new();
    println!(
        "sparklines ({} cells max; counters shown as per-row deltas):",
        WIDTH
    );
    for (i, c) in tl.channels().iter().enumerate() {
        if c.name.starts_with("storage.segment_wear.") || c.name == "timeline.tick" {
            continue;
        }
        if let Some(f) = &filter {
            if !c.name.contains(f.as_str()) {
                continue;
            }
        }
        let (values, unit) = match c.kind {
            ChannelKind::Counter => (deltas(&tl, i), "Δ"),
            ChannelKind::Gauge => (
                (0..tl.rows()).map(|r| tl.gauge(r, i)).collect::<Vec<_>>(),
                "level",
            ),
        };
        let (line, lo, hi) = sparkline(&values);
        if lo == hi {
            constant.push(&c.name);
            continue;
        }
        println!("  {:<34} |{line}| {unit} {lo:.6e}..{hi:.6e}", c.name);
    }
    if !constant.is_empty() {
        println!("  ({} constant channels omitted)", constant.len());
    }
    println!();

    // Per-segment wear heatmap from final erase counts.
    let wear: Vec<(usize, u64)> = tl
        .channels()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.name.starts_with("storage.segment_wear."))
        .map(|(i, _)| (i, tl.final_value(i)))
        .collect();
    if !wear.is_empty() {
        let max = wear.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let total: u64 = wear.iter().map(|&(_, v)| v).sum();
        println!(
            "segment wear heatmap ({} segments, {} erases total, max {}/segment, '@' = max):",
            wear.len(),
            total,
            max,
        );
        for row in wear.chunks(WIDTH) {
            let mut line = String::with_capacity(row.len());
            for &(_, v) in row {
                line.push(shade(v as f64, max as f64));
            }
            println!("  {line}");
        }
        println!();
    }

    // Cleaning cost over time: §3's erase-ahead argument says the
    // cleaner should keep free segments available ahead of writes; if it
    // falls behind, writers stall (gc_wait) and copy traffic (the GC
    // share of programs) climbs.
    let user = tl.channel_index("storage.user_flash_pages");
    let gc = tl.channel_index("storage.gc_flash_pages");
    let free = tl.channel_index("storage.free_segments");
    let wait = tl.channel_index("storage.gc_wait_ns");
    if let (Some(user), Some(gc)) = (user, gc) {
        let du = deltas(&tl, user);
        let dg = deltas(&tl, gc);
        let share: Vec<f64> = du
            .iter()
            .zip(&dg)
            .map(|(&u, &g)| if u + g > 0.0 { g / (u + g) } else { 0.0 })
            .collect();
        println!("cleaning cost over time:");
        let (line, lo, hi) = sparkline(&share);
        println!("  gc share of page programs    |{line}| {lo:.3}..{hi:.3}");
        if let Some(free) = free {
            let levels: Vec<f64> = tl.series(free).map(|v| v as f64).collect();
            let (line, lo, hi) = sparkline(&levels);
            println!("  free segments (erase-ahead)  |{line}| {lo:.0}..{hi:.0}");
        }
        if let Some(wait) = wait {
            let (line, lo, hi) = sparkline(&deltas(&tl, wait));
            println!("  writer stall ns per row      |{line}| {lo:.0}..{hi:.0}");
        }
        let programs_user: f64 = du.iter().sum();
        let programs_gc: f64 = dg.iter().sum();
        let amp = if programs_user > 0.0 {
            (programs_user + programs_gc) / programs_user
        } else {
            1.0
        };
        println!(
            "  totals: {programs_user:.0} user pages + {programs_gc:.0} gc copies = {amp:.3}x write amplification"
        );
    }
}
