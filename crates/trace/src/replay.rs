//! Trace replay against a file-system-under-test.
//!
//! Replay is *open-loop*: each record is submitted at its trace timestamp
//! (the replayer advances the shared clock to the arrival instant), unless
//! the system is still busy, in which case the operation queues behind the
//! previous one — exactly how a user feels a slow file system.

use crate::record::{FileOp, OpKind, TraceRecord};
use ssmc_sim::{Clock, Histogram, SimDuration};
use std::collections::BTreeMap;

/// Anything that can execute trace operations: the memory-resident file
/// system, the disk-based baseline, or a mock.
pub trait TraceTarget {
    /// Applies one operation, charging simulated time to the shared clock.
    ///
    /// # Errors
    ///
    /// Returns an error when the operation cannot be applied (out of space,
    /// lost contents, …); the replayer counts these and continues.
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>>;
}

/// Per-kind latency distributions and error counts from a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Latency histograms (nanoseconds) keyed by operation kind.
    pub per_op: BTreeMap<OpKind, Histogram>,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations submitted.
    pub ops: u64,
    /// Simulated time from first submission to last completion.
    pub elapsed: SimDuration,
}

impl ReplayReport {
    /// Mean latency of `kind`, or zero if none were recorded.
    pub fn mean_latency(&self, kind: OpKind) -> SimDuration {
        self.per_op
            .get(&kind)
            .map(|h| SimDuration::from_nanos(h.mean() as u64))
            .unwrap_or(SimDuration::ZERO)
    }

    /// 99th-percentile latency of `kind`.
    pub fn p99_latency(&self, kind: OpKind) -> SimDuration {
        self.per_op
            .get(&kind)
            .map(|h| SimDuration::from_nanos(h.quantile(0.99)))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Mean latency across all data operations (reads plus writes).
    pub fn mean_data_latency(&self) -> SimDuration {
        let mut merged = Histogram::new();
        for kind in [OpKind::Read, OpKind::Write] {
            if let Some(h) = self.per_op.get(&kind) {
                merged.merge(h);
            }
        }
        SimDuration::from_nanos(merged.mean() as u64)
    }
}

/// Replays `records` against `target`, measuring per-operation latency on
/// `clock` (which the target must share). The one driver every trace
/// takes to a target: pass `&trace` for an in-memory [`Trace`](crate::Trace),
/// or records decoded one at a time from an
/// [`OpStreamFileReader`](crate::OpStreamFileReader) so a million-op
/// replay never holds the trace in memory.
pub fn replay<I, T>(records: I, target: &mut T, clock: &Clock) -> ReplayReport
where
    I: IntoIterator<Item = TraceRecord>,
    T: TraceTarget + ?Sized,
{
    let mut report = ReplayReport::default();
    let start = clock.now();
    for record in records {
        // Open-loop arrival: wait for the arrival time unless we are
        // already running behind.
        clock.advance_to(record.at);
        let t0 = clock.now();
        report.ops += 1;
        match target.apply(&record.op) {
            Ok(()) => {
                let latency = clock.now().since(t0);
                report
                    .per_op
                    .entry(record.op.kind())
                    .or_default()
                    .record_duration(latency);
            }
            Err(_) => report.errors += 1,
        }
    }
    report.elapsed = clock.now().since(start);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileId, Trace};
    use ssmc_sim::{SimDuration, SimTime};
    use std::collections::HashSet;

    /// A target that charges fixed latencies and tracks live files.
    struct FakeFs<'c> {
        clock: &'c Clock,
        live: HashSet<FileId>,
        write_cost: SimDuration,
        read_cost: SimDuration,
    }

    impl TraceTarget for FakeFs<'_> {
        fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
            match op {
                FileOp::Create { file } => {
                    self.live.insert(*file);
                }
                FileOp::Delete { file } => {
                    if !self.live.remove(file) {
                        return Err("delete of unknown file".into());
                    }
                }
                FileOp::Write { .. } | FileOp::Truncate { .. } => {
                    self.clock.advance(self.write_cost);
                }
                FileOp::Read { .. } => {
                    self.clock.advance(self.read_cost);
                }
                FileOp::Stat { file } => {
                    if !self.live.contains(file) {
                        return Err("stat of unknown file".into());
                    }
                }
                FileOp::Rename { file, to } => {
                    if !self.live.remove(file) {
                        return Err("rename of unknown file".into());
                    }
                    self.live.insert(*to);
                }
                FileOp::Sync => {}
            }
            Ok(())
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn replay_measures_per_kind_latency() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::from_micros(500),
            read_cost: SimDuration::from_micros(5),
        };
        let mut tr = Trace::new("t");
        tr.push(t(0), FileOp::Create { file: 1 });
        tr.push(
            t(1),
            FileOp::Write {
                file: 1,
                offset: 0,
                len: 10,
            },
        );
        tr.push(
            t(2),
            FileOp::Read {
                file: 1,
                offset: 0,
                len: 10,
            },
        );
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.ops, 3);
        assert_eq!(report.errors, 0);
        assert_eq!(
            report.mean_latency(OpKind::Write),
            SimDuration::from_micros(500)
        );
        assert_eq!(
            report.mean_latency(OpKind::Read),
            SimDuration::from_micros(5)
        );
        assert!(report.mean_data_latency() > SimDuration::from_micros(5));
    }

    #[test]
    fn replay_respects_arrival_times() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::ZERO,
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        tr.push(t(100), FileOp::Sync);
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.elapsed, SimDuration::from_millis(100));
        assert_eq!(clock.now(), t(100));
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::ZERO,
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        tr.push(t(0), FileOp::Delete { file: 42 });
        tr.push(t(1), FileOp::Create { file: 1 });
        let report = replay(&tr, &mut fs, &clock);
        assert_eq!(report.errors, 1);
        assert_eq!(report.ops, 2);
    }

    #[test]
    fn queueing_delays_show_in_latency() {
        // Two writes arriving simultaneously: the second queues behind the
        // first, so its measured latency includes the wait.
        let clock = Clock::new();
        let mut fs = FakeFs {
            clock: &clock,
            live: HashSet::new(),
            write_cost: SimDuration::from_millis(10),
            read_cost: SimDuration::ZERO,
        };
        let mut tr = Trace::new("t");
        for _ in 0..2 {
            tr.push(
                t(0),
                FileOp::Write {
                    file: 1,
                    offset: 0,
                    len: 1,
                },
            );
        }
        let mut fs_live = HashSet::new();
        fs_live.insert(1);
        fs.live = fs_live;
        let report = replay(&tr, &mut fs, &clock);
        let h = &report.per_op[&OpKind::Write];
        assert_eq!(h.count(), 2);
        // Total elapsed is 20 ms: both ops measured at 10 ms service each,
        // the second starting only after the first finished.
        assert_eq!(report.elapsed, SimDuration::from_millis(20));
    }
}
