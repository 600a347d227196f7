//! The benchmark's own per-record replay loop through `MobileComputer`.
//!
//! Closed loop in host time (the next record is decoded only after the
//! previous one was applied) and open loop in simulated time (the clock
//! advances to each record's arrival, and a record that arrives while
//! the machine is still busy queues behind it). Simulated latency is
//! measured from the start of service, so it includes waits for busy
//! devices inside the operation; the wait behind earlier records is
//! kept apart as the arrival lag.

use crate::stats::{tail_start, Accounting, Fingerprint};
use crate::workload::Spec;
use ssmc_core::MobileComputer;
use ssmc_sim::obs::MetricsRegistry;
use ssmc_sim::{SimDuration, SimTime};
use ssmc_trace::{kind_code, FileOp, OpStreamFileReader, TraceRecord, TraceTarget};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Records applied so far by the replay or drive in flight, for the
/// report of a run stuck inside one operation.
pub static OPS_DONE: AtomicU64 = AtomicU64::new(0);

/// Sub-trace of the replay or drive in flight.
pub static SUB_TRACE: AtomicU64 = AtomicU64::new(0);

/// Where records come from. The benchmark decodes from a `.ops` file;
/// tests feed records from memory.
pub trait RecordSource {
    /// Records the source holds in total.
    fn len(&self) -> u64;

    /// The next record, or `None` at the end.
    ///
    /// # Errors
    ///
    /// Read or decode errors.
    fn next_record(&mut self) -> io::Result<Option<TraceRecord>>;
}

impl RecordSource for OpStreamFileReader {
    fn len(&self) -> u64 {
        self.header().records
    }

    fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        OpStreamFileReader::next_record(self)
    }
}

impl RecordSource for std::vec::IntoIter<TraceRecord> {
    fn len(&self) -> u64 {
        ExactSizeIterator::len(self) as u64
    }

    fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        Ok(self.next())
    }
}

/// Host time spent in each span of the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ApplySpans {
    /// Total ns inside `next_record`.
    pub decode_ns: u64,
    /// Total ns inside `TraceTarget::apply`, per op kind code.
    pub apply_ns: [u64; 8],
    /// Applies per op kind code.
    pub applies: [u64; 8],
}

/// One replay of a whole trace through a fresh machine.
#[derive(Debug)]
pub struct MachineRun {
    /// Where every record went.
    pub acct: Accounting,
    /// Host time of decode plus apply over the whole run.
    pub host: Duration,
    /// Host time over the tail window.
    pub tail: Duration,
    /// Ops in the tail window.
    pub tail_ops: u64,
    /// Host ns of each `apply`, in record order.
    pub op_host_ns: Vec<u64>,
    /// Simulated ns from the start of service to completion of each
    /// trace write, including waits for busy flash banks and cleaning
    /// inside the operation; a failed write counts as `u64::MAX`.
    pub sim_write_ns: Vec<u64>,
    /// The same for trace reads.
    pub sim_read_ns: Vec<u64>,
    /// Simulated ns each record waited between its arrival and the start
    /// of its service, behind the records before it.
    pub arrival_lag_ns: Vec<u64>,
    /// The machine's registry at the end of the run.
    pub registry: MetricsRegistry,
    /// SimTime plus every `fs.*`, `storage.*` and `flash.*` counter.
    pub fingerprint: Fingerprint,
    /// Timeline rows written (zero with the sampler off).
    pub timeline_rows: u64,
    /// Repairs `MemFs::fsck` made on the finished machine.
    pub fsck_repairs: u64,
    /// Spans of the traced pass; `None` for an untraced run.
    pub spans: Option<ApplySpans>,
}

/// The layer fingerprint of a registry: the final SimTime plus every
/// `fs.*`, `storage.*` and `flash.*` counter.
pub fn layer_fingerprint(reg: &MetricsRegistry, now: SimTime) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.insert("sim_time_ns".into(), now.as_nanos());
    for (name, _) in reg.iter() {
        let layer =
            name.starts_with("fs.") || name.starts_with("storage.") || name.starts_with("flash.");
        if let (true, Some(v)) = (layer, reg.counter_value(name)) {
            fp.insert(name.to_owned(), v);
        }
    }
    fp
}

/// How a replay runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Time `next_record` and each `apply` by op kind.
    pub traced: bool,
    /// Install the timeline flight recorder, sampling every simulated
    /// second.
    pub timeline: bool,
}

/// Replays every record of `src` through a fresh machine for `spec`,
/// writing any timeline to `tl_path`. Once host time passes `deadline`
/// it stops, and the records left count as unreplayed.
///
/// # Errors
///
/// Decode errors, timeline I/O errors, or an `fsck` that fails outright.
pub fn replay_machine<S: RecordSource>(
    spec: &Spec,
    src: &mut S,
    mode: Mode,
    tl_path: &Path,
    deadline: Instant,
) -> io::Result<MachineRun> {
    let mut m = spec.machine();
    if mode.timeline {
        m.enable_timeline_file(tl_path, SimDuration::from_secs(1))?;
    }
    let clock = m.clock().clone();
    let n = src.len();
    let tail_from = tail_start(n);
    let mut acct = Accounting {
        attempted: n,
        ..Accounting::default()
    };
    let mut op_host_ns = Vec::with_capacity(n as usize);
    let mut sim_write_ns = Vec::new();
    let mut sim_read_ns = Vec::new();
    let mut arrival_lag_ns = Vec::with_capacity(n as usize);
    let mut spans = ApplySpans::default();
    OPS_DONE.store(0, Ordering::Relaxed);
    let start = Instant::now();
    let mut tail_begin = start;
    loop {
        let t_dec = Instant::now();
        if acct.replayed == tail_from {
            tail_begin = t_dec;
        }
        let Some(rec) = src.next_record()? else {
            break;
        };
        let t0 = Instant::now();
        let t_sim = clock.advance_to(rec.at);
        arrival_lag_ns.push(t_sim.since(rec.at).as_nanos());
        let ok = TraceTarget::apply(&mut m, &rec.op).is_ok();
        let t1 = Instant::now();
        let apply_ns = (t1 - t0).as_nanos() as u64;
        op_host_ns.push(apply_ns);
        if mode.traced {
            let k = kind_code(rec.op.kind()) as usize;
            spans.decode_ns += (t0 - t_dec).as_nanos() as u64;
            spans.apply_ns[k] += apply_ns;
            spans.applies[k] += 1;
        }
        acct.replayed += 1;
        OPS_DONE.store(acct.replayed, Ordering::Relaxed);
        if !ok {
            acct.op_errors += 1;
        }
        let sim_ns = if ok {
            clock.now().since(t_sim).as_nanos()
        } else {
            u64::MAX
        };
        match rec.op {
            FileOp::Write { .. } => sim_write_ns.push(sim_ns),
            FileOp::Read { .. } => sim_read_ns.push(sim_ns),
            _ => {}
        }
        if t1 >= deadline {
            break;
        }
    }
    let end = Instant::now();
    if acct.replayed == acct.attempted && src.next_record()?.is_some() {
        return Err(io::Error::other(
            "source holds more records than its header says",
        ));
    }
    let timeline_rows = match m.finish_timeline()? {
        Some(summary) => summary.rows,
        None => 0,
    };
    let registry = m.metrics_registry();
    let fingerprint = layer_fingerprint(&registry, clock.now());
    let fsck_repairs = fsck_repairs(&mut m)?;
    Ok(MachineRun {
        acct,
        host: end - start,
        tail: end - tail_begin,
        tail_ops: acct.replayed.saturating_sub(tail_from),
        op_host_ns,
        sim_write_ns,
        sim_read_ns,
        arrival_lag_ns,
        registry,
        fingerprint,
        timeline_rows,
        fsck_repairs,
        spans: mode.traced.then_some(spans),
    })
}

/// Runs `MemFs::fsck` on the finished machine and counts its repairs.
fn fsck_repairs(m: &mut MobileComputer) -> io::Result<u64> {
    let r = m
        .fs()
        .fsck()
        .map_err(|e| io::Error::other(format!("fsck failed: {e}")))?;
    Ok(r.dangling_entries + r.orphans_freed + r.nlinks_repaired + u64::from(r.root_rebuilt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fingerprint_diff;
    use crate::workload::SPECS;
    use ssmc_trace::{GeneratorConfig, Workload};

    fn records(ops: usize) -> Vec<TraceRecord> {
        GeneratorConfig::new(Workload::Bsd)
            .with_ops(ops)
            .with_max_live_bytes(4 << 20)
            .generate()
            .records
    }

    fn run(recs: Vec<TraceRecord>, traced: bool) -> MachineRun {
        let mode = Mode {
            traced,
            timeline: false,
        };
        let far = Instant::now() + Duration::from_secs(600);
        replay_machine(&SPECS[0], &mut recs.into_iter(), mode, Path::new(""), far).expect("replay")
    }

    #[test]
    fn repeats_and_tracing_leave_the_fingerprint_unchanged() {
        let recs = records(2_000);
        let a = run(recs.clone(), false);
        let b = run(recs, true);
        assert_eq!(a.acct.failed(), 0);
        assert_eq!(a.fsck_repairs, 0);
        assert!(fingerprint_diff(&a.fingerprint, &b.fingerprint).is_empty());
        let spans = b.spans.expect("traced run has spans");
        assert_eq!(spans.applies.iter().sum::<u64>(), 2_000);
        assert_eq!(a.op_host_ns.len(), 2_000);
        assert_eq!(a.tail_ops, 200);
    }

    #[test]
    fn fingerprint_check_fires_on_one_perturbed_record() {
        let recs = records(2_000);
        let base = run(recs.clone(), false);
        let mut perturbed = recs;
        let i = perturbed
            .iter()
            .rposition(|r| matches!(r.op, FileOp::Write { .. }))
            .expect("trace has a write");
        if let FileOp::Write { len, .. } = &mut perturbed[i].op {
            *len += 1;
        }
        let other = run(perturbed, false);
        let diff = fingerprint_diff(&base.fingerprint, &other.fingerprint);
        assert!(
            diff.iter().any(|d| d.starts_with("fs.bytes_written")),
            "{diff:?}"
        );
    }

    #[test]
    fn a_passed_deadline_counts_the_rest_as_unreplayed() {
        let recs = records(500);
        let mode = Mode {
            traced: false,
            timeline: false,
        };
        let past = Instant::now();
        let r = replay_machine(&SPECS[0], &mut recs.into_iter(), mode, Path::new(""), past)
            .expect("replay");
        // The deadline is checked after each apply, so exactly one
        // record ran.
        assert_eq!(r.acct.replayed, 1);
        assert_eq!(r.acct.unreplayed(), 499);
        assert_eq!(r.acct.failed(), 499 + r.acct.op_errors);
    }
}
