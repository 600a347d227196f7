//! `obs-diff`: structural comparison of observability artifacts.
//!
//! Takes two runs — as `.tl` timelines or `TraceArtifact` JSON — and
//! reports per-metric drift, turning every sensitivity sweep into a
//! diffable, regression-gated artifact. Two timelines are compared
//! row-by-row (worst deviation over aligned sample rows, plus shape:
//! interval, row count, channel sets); everything else is compared on
//! final values — counters and gauges numerically, histograms
//! structurally (bucket-by-bucket against their published bounds, not
//! just by quantile), time-weighted signals by level and peak.
//!
//! The default thresholds are zero: fixed-seed runs are byte-identical,
//! so *any* drift is signal. Sweeps that expect variation pass
//! `--rel-tol`/`--abs-tol`.

use crate::obs_trace::TraceArtifact;
use ssmc_sim::obs::Instrument;
use ssmc_sim::report::{FromReport, Value};
use ssmc_sim::stats::Histogram;
use ssmc_sim::timeline::{ChannelKind, Timeline, TIMELINE_MAGIC};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read};
use std::path::Path;

/// Comparison thresholds. A metric drifts only if it exceeds *both*
/// tolerances (so `abs_tol` forgives absolute noise on large values and
/// `rel_tol` forgives relative noise, independently).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Allowed relative deviation, e.g. `0.05` for 5%.
    pub rel_tol: f64,
    /// Allowed absolute deviation.
    pub abs_tol: f64,
}

impl DiffOptions {
    fn within(&self, a: f64, b: f64) -> bool {
        if a == b || (a.is_nan() && b.is_nan()) {
            return true;
        }
        let abs = (a - b).abs();
        let denom = a.abs().max(b.abs());
        let rel = if denom > 0.0 { abs / denom } else { 0.0 };
        abs <= self.abs_tol || rel <= self.rel_tol
    }
}

/// One drifting metric.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Metric/channel name (suffixed `.level`/`.peak`/`[bucket i]` for
    /// compound instruments, `@row N` context for timelines).
    pub metric: String,
    /// Value on the A side (worst row for timelines).
    pub a: f64,
    /// Value on the B side.
    pub b: f64,
}

impl Drift {
    fn rel(&self) -> f64 {
        let denom = self.a.abs().max(self.b.abs());
        if denom > 0.0 {
            (self.a - self.b).abs() / denom
        } else {
            0.0
        }
    }
}

/// The full comparison result.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Metrics present on both sides and compared.
    pub compared: usize,
    /// Metrics exceeding the thresholds, in name order.
    pub drifts: Vec<Drift>,
    /// Metrics only the A side has.
    pub only_a: Vec<String>,
    /// Metrics only the B side has.
    pub only_b: Vec<String>,
    /// Structural mismatches (interval, row count, instrument kind).
    pub shape: Vec<String>,
}

impl DiffReport {
    /// True when the two runs are indistinguishable under the thresholds.
    pub fn is_clean(&self) -> bool {
        self.drifts.is_empty()
            && self.only_a.is_empty()
            && self.only_b.is_empty()
            && self.shape.is_empty()
    }

    /// Human-readable rendering (drifts sorted worst-first, capped).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "compared {} metrics", self.compared);
        for s in &self.shape {
            let _ = writeln!(out, "  shape: {s}");
        }
        for m in &self.only_a {
            let _ = writeln!(out, "  only in A: {m}");
        }
        for m in &self.only_b {
            let _ = writeln!(out, "  only in B: {m}");
        }
        let mut worst: Vec<&Drift> = self.drifts.iter().collect();
        worst.sort_by(|x, y| y.rel().total_cmp(&x.rel()));
        const CAP: usize = 40;
        for d in worst.iter().take(CAP) {
            let _ = writeln!(
                out,
                "  drift: {} a={} b={} ({:+.3}%)",
                d.metric,
                d.a,
                d.b,
                (d.b - d.a) / d.a.abs().max(d.b.abs()).max(f64::MIN_POSITIVE) * 100.0
            );
        }
        if worst.len() > CAP {
            let _ = writeln!(out, "  … and {} more drifting metrics", worst.len() - CAP);
        }
        if self.is_clean() {
            let _ = writeln!(out, "  no drift");
        }
        out
    }
}

/// A loaded comparison input.
#[derive(Debug)]
pub enum DiffInput {
    /// A decoded `.tl` timeline.
    Timeline(Timeline),
    /// A decoded traced-replay artifact.
    Artifact(Box<TraceArtifact>),
}

/// Loads either input format, sniffing the `.tl` magic (extension is not
/// trusted — CI pipes both through temp paths).
///
/// # Errors
///
/// Filesystem errors, or content that is neither a timeline nor a trace
/// artifact.
pub fn load(path: &Path) -> io::Result<DiffInput> {
    let mut f = fs::File::open(path)?;
    let mut head = [0u8; 8];
    let n = f.read(&mut head)?;
    drop(f);
    if n == 8 && head == TIMELINE_MAGIC {
        return Ok(DiffInput::Timeline(Timeline::read(path)?));
    }
    let text = fs::read_to_string(path)?;
    let value = Value::decode(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("not JSON: {e}")))?;
    let artifact = TraceArtifact::from_report(&value).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a trace artifact: {e}"),
        )
    })?;
    Ok(DiffInput::Artifact(Box::new(artifact)))
}

/// Compares two inputs. Timeline×timeline goes row-by-row; any mix
/// involving an artifact compares final values (a timeline's last row
/// carries the end-of-run state by construction).
pub fn diff(a: &DiffInput, b: &DiffInput, opts: &DiffOptions) -> DiffReport {
    match (a, b) {
        (DiffInput::Timeline(x), DiffInput::Timeline(y)) => diff_timelines(x, y, opts),
        _ => diff_maps(&metric_map(a), &metric_map(b), opts),
    }
}

fn diff_timelines(a: &Timeline, b: &Timeline, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    if a.interval() != b.interval() {
        report.shape.push(format!(
            "sample interval: A={}ns B={}ns",
            a.interval().as_nanos(),
            b.interval().as_nanos()
        ));
    }
    if a.rows() != b.rows() {
        report
            .shape
            .push(format!("rows: A={} B={}", a.rows(), b.rows()));
    }
    for c in b.channels() {
        if a.channel_index(&c.name).is_none() {
            report.only_b.push(c.name.clone());
        }
    }
    let rows = a.rows().min(b.rows());
    for (ia, c) in a.channels().iter().enumerate() {
        let Some(ib) = b.channel_index(&c.name) else {
            report.only_a.push(c.name.clone());
            continue;
        };
        if b.channels()[ib].kind != c.kind {
            report
                .shape
                .push(format!("channel kind differs: {}", c.name));
            continue;
        }
        report.compared += 1;
        // Worst deviation over aligned rows, so a transient spike that
        // settles back by end of run still shows up.
        let mut worst: Option<(usize, f64, f64)> = None;
        let mut worst_abs = 0.0f64;
        for row in 0..rows {
            let (va, vb) = match c.kind {
                ChannelKind::Counter => (a.value(row, ia) as f64, b.value(row, ib) as f64),
                ChannelKind::Gauge => (a.gauge(row, ia), b.gauge(row, ib)),
            };
            if opts.within(va, vb) {
                continue;
            }
            let dev = (va - vb).abs();
            if worst.is_none() || dev > worst_abs {
                worst_abs = dev;
                worst = Some((row, va, vb));
            }
        }
        if let Some((row, va, vb)) = worst {
            report.drifts.push(Drift {
                metric: format!("{} @row {row}", c.name),
                a: va,
                b: vb,
            });
        }
    }
    report
}

/// The common shape scalar/structural comparisons run over.
#[derive(Debug, Clone)]
enum MetricVal {
    Counter(u64),
    Gauge(f64),
    Histo {
        buckets: Vec<u64>,
        count: u64,
        sum: u128,
    },
    Weighted {
        level: f64,
        peak: f64,
    },
}

impl MetricVal {
    /// A single representative scalar, for cross-kind comparisons (e.g. a
    /// timeline gauge against a registry `TimeWeighted` level).
    fn scalar(&self) -> Option<f64> {
        match self {
            MetricVal::Counter(v) => Some(*v as f64),
            MetricVal::Gauge(v) => Some(*v),
            MetricVal::Weighted { level, .. } => Some(*level),
            MetricVal::Histo { .. } => None,
        }
    }
}

fn metric_map(input: &DiffInput) -> BTreeMap<String, MetricVal> {
    let mut map = BTreeMap::new();
    match input {
        DiffInput::Timeline(tl) => {
            for (i, c) in tl.channels().iter().enumerate() {
                let v = match c.kind {
                    ChannelKind::Counter => MetricVal::Counter(tl.final_value(i)),
                    ChannelKind::Gauge => MetricVal::Gauge(f64::from_bits(tl.final_value(i))),
                };
                map.insert(c.name.clone(), v);
            }
        }
        DiffInput::Artifact(art) => {
            for (name, inst) in art.registry.iter() {
                let v = match inst {
                    Instrument::Counter(v) => MetricVal::Counter(*v),
                    Instrument::Gauge(v) => MetricVal::Gauge(*v),
                    Instrument::Histogram(h) => MetricVal::Histo {
                        buckets: h.bucket_counts().to_vec(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                    Instrument::TimeWeighted(t) => MetricVal::Weighted {
                        level: t.level(),
                        peak: t.peak(),
                    },
                };
                map.insert(name.to_owned(), v);
            }
            map.insert("trace.ops".into(), MetricVal::Counter(art.ops));
            for row in &art.journal.aggregates {
                let k = row.kind.name();
                map.insert(format!("span.{k}.count"), MetricVal::Counter(row.agg.count));
                map.insert(format!("span.{k}.pages"), MetricVal::Counter(row.agg.pages));
                map.insert(format!("span.{k}.bytes"), MetricVal::Counter(row.agg.bytes));
                map.insert(
                    format!("span.{k}.latency"),
                    MetricVal::Histo {
                        buckets: row.agg.latency.bucket_counts().to_vec(),
                        count: row.agg.latency.count(),
                        sum: row.agg.latency.sum(),
                    },
                );
            }
        }
    }
    map
}

fn diff_maps(
    a: &BTreeMap<String, MetricVal>,
    b: &BTreeMap<String, MetricVal>,
    opts: &DiffOptions,
) -> DiffReport {
    let mut report = DiffReport::default();
    for name in b.keys() {
        if !a.contains_key(name) {
            report.only_b.push(name.clone());
        }
    }
    for (name, va) in a {
        let Some(vb) = b.get(name) else {
            report.only_a.push(name.clone());
            continue;
        };
        report.compared += 1;
        match (va, vb) {
            (
                MetricVal::Histo {
                    buckets: ba,
                    count: ca,
                    sum: sa,
                },
                MetricVal::Histo {
                    buckets: bb,
                    count: cb,
                    sum: sb,
                },
            ) => {
                scalar_drift(
                    &mut report,
                    opts,
                    format!("{name}.count"),
                    *ca as f64,
                    *cb as f64,
                );
                scalar_drift(
                    &mut report,
                    opts,
                    format!("{name}.sum"),
                    *sa as f64,
                    *sb as f64,
                );
                // Structural: bucket-by-bucket against the shared bounds,
                // so a shifted distribution with identical quantile
                // summaries still shows.
                for (i, (&xa, &xb)) in ba.iter().zip(bb.iter()).enumerate() {
                    if xa != xb {
                        let (lo, hi) = Histogram::bucket_bounds(i);
                        scalar_drift(
                            &mut report,
                            opts,
                            format!("{name}[{lo}..={hi}]"),
                            xa as f64,
                            xb as f64,
                        );
                    }
                }
            }
            (
                MetricVal::Weighted {
                    level: la,
                    peak: pa,
                },
                MetricVal::Weighted {
                    level: lb,
                    peak: pb,
                },
            ) => {
                scalar_drift(&mut report, opts, format!("{name}.level"), *la, *lb);
                scalar_drift(&mut report, opts, format!("{name}.peak"), *pa, *pb);
            }
            _ => match (va.scalar(), vb.scalar()) {
                (Some(xa), Some(xb)) => scalar_drift(&mut report, opts, name.clone(), xa, xb),
                _ => report
                    .shape
                    .push(format!("instrument kind differs: {name}")),
            },
        }
    }
    report
}

fn scalar_drift(report: &mut DiffReport, opts: &DiffOptions, metric: String, a: f64, b: f64) {
    if !opts.within(a, b) {
        report.drifts.push(Drift { metric, a, b });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::timeline::{Channel, Schema, TimelineWriter};
    use ssmc_sim::SimDuration;
    use std::io::Cursor;

    fn tl(rows: &[[u64; 2]], interval_ns: u64) -> Timeline {
        let schema = Schema {
            channels: vec![
                Channel {
                    name: "x".into(),
                    kind: ChannelKind::Counter,
                },
                Channel {
                    name: "g".into(),
                    kind: ChannelKind::Gauge,
                },
            ],
        };
        let mut w = TimelineWriter::new(
            Cursor::new(Vec::new()),
            &schema,
            SimDuration::from_nanos(interval_ns),
        )
        .expect("header");
        for r in rows {
            w.push_row(r).expect("row");
        }
        let (_, sink) = w.finish().expect("finish");
        Timeline::decode(&mut Cursor::new(sink.into_inner())).expect("decode")
    }

    #[test]
    fn identical_timelines_are_clean() {
        let rows = [[1, (0.5f64).to_bits()], [4, (0.25f64).to_bits()]];
        let a = tl(&rows, 100);
        let b = tl(&rows, 100);
        let r = diff(
            &DiffInput::Timeline(a),
            &DiffInput::Timeline(b),
            &DiffOptions::default(),
        );
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn timeline_drift_and_shape_are_flagged() {
        let a = tl(&[[1, (0.5f64).to_bits()], [4, (0.5f64).to_bits()]], 100);
        let b = tl(&[[1, (0.5f64).to_bits()], [9, (0.5f64).to_bits()]], 200);
        let r = diff(
            &DiffInput::Timeline(a),
            &DiffInput::Timeline(b),
            &DiffOptions::default(),
        );
        assert!(!r.is_clean());
        assert_eq!(r.shape.len(), 1, "interval mismatch: {}", r.render());
        assert_eq!(r.drifts.len(), 1);
        assert!(r.drifts[0].metric.starts_with("x @row 1"));
    }

    #[test]
    fn tolerances_forgive_small_drift() {
        let a = tl(&[[100, (1.0f64).to_bits()]], 100);
        let b = tl(&[[103, (1.0f64).to_bits()]], 100);
        assert!(!diff(
            &DiffInput::Timeline(tl(&[[100, (1.0f64).to_bits()]], 100)),
            &DiffInput::Timeline(tl(&[[103, (1.0f64).to_bits()]], 100)),
            &DiffOptions::default(),
        )
        .is_clean());
        let r = diff(
            &DiffInput::Timeline(a),
            &DiffInput::Timeline(b),
            &DiffOptions {
                rel_tol: 0.05,
                abs_tol: 0.0,
            },
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn transient_spike_is_caught_even_if_final_values_match() {
        // Counters identical at the end, divergent mid-run: row-by-row
        // comparison must flag it.
        let a = tl(&[[0, 0], [5, 0], [10, 0]], 100);
        let b = tl(&[[0, 0], [9, 0], [10, 0]], 100);
        let r = diff(
            &DiffInput::Timeline(a),
            &DiffInput::Timeline(b),
            &DiffOptions::default(),
        );
        assert_eq!(r.drifts.len(), 1);
        assert!(r.drifts[0].metric.contains("@row 1"));
    }
}
