//! Trace record format.
//!
//! A trace is a time-ordered list of file-level operations, deliberately
//! file-system-agnostic: both the memory-resident file system and the
//! disk-based baseline replay the same records, which is what makes the
//! organisational comparisons (T2, F7) apples-to-apples.

use ssmc_sim::SimTime;
use std::collections::BTreeSet;

/// Identifies a file within a trace. Targets map these to their own
/// handles/paths during replay.
pub type FileId = u64;

/// One file-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOp {
    /// Create an empty file.
    Create {
        /// File being created.
        file: FileId,
    },
    /// Write `len` bytes at `offset` (extending the file if needed).
    Write {
        /// Target file.
        file: FileId,
        /// Byte offset of the write.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Target file.
        file: FileId,
        /// Byte offset of the read.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Delete the file.
    Delete {
        /// File being deleted.
        file: FileId,
    },
    /// Truncate the file to `len` bytes.
    Truncate {
        /// Target file.
        file: FileId,
        /// New length.
        len: u64,
    },
    /// Read the file's attributes (a metadata-only touch; no data moves).
    Stat {
        /// Target file.
        file: FileId,
    },
    /// Rename the file. The trace retires `file` and continues under
    /// `to` — a fresh id never used before — so replay targets can model
    /// the rename as a directory-entry rewrite without aliasing.
    Rename {
        /// File being renamed.
        file: FileId,
        /// Its identity after the rename.
        to: FileId,
    },
    /// Force all dirty data to stable storage (the 30-second `sync` of
    /// conventional systems, or an explicit application fsync-all).
    Sync,
}

impl FileOp {
    /// The operation's kind, for aggregation.
    pub fn kind(&self) -> OpKind {
        match self {
            FileOp::Create { .. } => OpKind::Create,
            FileOp::Write { .. } => OpKind::Write,
            FileOp::Read { .. } => OpKind::Read,
            FileOp::Delete { .. } => OpKind::Delete,
            FileOp::Truncate { .. } => OpKind::Truncate,
            FileOp::Stat { .. } => OpKind::Stat,
            FileOp::Rename { .. } => OpKind::Rename,
            FileOp::Sync => OpKind::Sync,
        }
    }

    /// The file the operation targets, if any.
    pub fn file(&self) -> Option<FileId> {
        match self {
            FileOp::Create { file }
            | FileOp::Write { file, .. }
            | FileOp::Read { file, .. }
            | FileOp::Delete { file }
            | FileOp::Truncate { file, .. }
            | FileOp::Stat { file }
            | FileOp::Rename { file, .. } => Some(*file),
            FileOp::Sync => None,
        }
    }
}

/// Operation kinds, used as aggregation keys in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// File creation.
    Create,
    /// Data write.
    Write,
    /// Data read.
    Read,
    /// File deletion.
    Delete,
    /// Truncation.
    Truncate,
    /// Whole-system sync.
    Sync,
    /// Attribute read.
    Stat,
    /// Rename.
    Rename,
}

impl OpKind {
    /// All kinds, in report order. `Stat` and `Rename` append after the
    /// original six so existing per-op report layouts keep their order.
    pub const ALL: [OpKind; 8] = [
        OpKind::Create,
        OpKind::Write,
        OpKind::Read,
        OpKind::Delete,
        OpKind::Truncate,
        OpKind::Sync,
        OpKind::Stat,
        OpKind::Rename,
    ];
}

impl core::fmt::Display for OpKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            OpKind::Create => "create",
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Delete => "delete",
            OpKind::Truncate => "truncate",
            OpKind::Sync => "sync",
            OpKind::Stat => "stat",
            OpKind::Rename => "rename",
        };
        write!(f, "{s}")
    }
}

/// A timestamped operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival instant on the simulated timeline.
    pub at: SimTime,
    /// The operation.
    pub op: FileOp,
}

/// A named, time-ordered operation sequence.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Workload name, e.g. `"bsd"`.
    pub name: String,
    /// Records in non-decreasing time order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last record's time.
    pub fn push(&mut self, at: SimTime, op: FileOp) {
        debug_assert!(
            self.records.last().is_none_or(|r| r.at <= at),
            "trace records must be time-ordered"
        );
        self.records.push(TraceRecord { at, op });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Duration spanned by the trace (zero for fewer than two records).
    pub fn span(&self) -> ssmc_sim::SimDuration {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => b.at.since(a.at),
            _ => ssmc_sim::SimDuration::ZERO,
        }
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        let mut files = BTreeSet::new();
        for r in &self.records {
            if let Some(f) = r.op.file() {
                files.insert(f);
            }
            match &r.op {
                FileOp::Create { .. } => s.creates += 1,
                FileOp::Write { len, .. } => {
                    s.writes += 1;
                    s.bytes_written += len;
                }
                FileOp::Read { len, .. } => {
                    s.reads += 1;
                    s.bytes_read += len;
                }
                FileOp::Delete { .. } => s.deletes += 1,
                FileOp::Truncate { .. } => s.truncates += 1,
                FileOp::Stat { .. } => s.stats += 1,
                FileOp::Rename { to, .. } => {
                    s.renames += 1;
                    files.insert(*to);
                }
                FileOp::Sync => s.syncs += 1,
            }
        }
        s.unique_files = files.len() as u64;
        s
    }
}

/// Iterating a borrowed trace yields its records by value
/// ([`TraceRecord`] is `Copy`), so `replay(&trace, ..)` and a replay of
/// records decoded from a `.ops` file take the same driver.
impl<'a> IntoIterator for &'a Trace {
    type Item = TraceRecord;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, TraceRecord>>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter().copied()
    }
}

/// Aggregate counts over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Create operations.
    pub creates: u64,
    /// Write operations.
    pub writes: u64,
    /// Read operations.
    pub reads: u64,
    /// Delete operations.
    pub deletes: u64,
    /// Truncate operations.
    pub truncates: u64,
    /// Sync operations.
    pub syncs: u64,
    /// Stat operations.
    pub stats: u64,
    /// Rename operations.
    pub renames: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Distinct files referenced.
    pub unique_files: u64,
}

impl TraceStats {
    /// Total operations.
    pub fn total_ops(&self) -> u64 {
        self.creates
            + self.writes
            + self.reads
            + self.deletes
            + self.truncates
            + self.syncs
            + self.stats
            + self.renames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn stats_aggregate_correctly() {
        let mut tr = Trace::new("test");
        tr.push(t(0), FileOp::Create { file: 1 });
        tr.push(
            t(1),
            FileOp::Write {
                file: 1,
                offset: 0,
                len: 100,
            },
        );
        tr.push(
            t(2),
            FileOp::Read {
                file: 1,
                offset: 0,
                len: 40,
            },
        );
        tr.push(t(3), FileOp::Delete { file: 1 });
        tr.push(t(3), FileOp::Sync);
        let s = tr.stats();
        assert_eq!(s.creates, 1);
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 40);
        assert_eq!(s.unique_files, 1);
        assert_eq!(s.total_ops(), 5);
        assert_eq!(tr.span(), SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics_in_debug() {
        let mut tr = Trace::new("bad");
        tr.push(t(5), FileOp::Sync);
        tr.push(t(1), FileOp::Sync);
    }

    #[test]
    fn op_kind_and_file_accessors() {
        let w = FileOp::Write {
            file: 9,
            offset: 0,
            len: 1,
        };
        assert_eq!(w.kind(), OpKind::Write);
        assert_eq!(w.file(), Some(9));
        assert_eq!(FileOp::Sync.file(), None);
        let r = FileOp::Rename { file: 3, to: 4 };
        assert_eq!(r.kind(), OpKind::Rename);
        assert_eq!(r.file(), Some(3));
        assert_eq!(FileOp::Stat { file: 5 }.kind(), OpKind::Stat);
        assert_eq!(OpKind::ALL.len(), 8);
    }

    #[test]
    fn stat_and_rename_aggregate() {
        let mut tr = Trace::new("meta");
        tr.push(t(0), FileOp::Create { file: 1 });
        tr.push(t(1), FileOp::Stat { file: 1 });
        tr.push(t(2), FileOp::Rename { file: 1, to: 2 });
        tr.push(t(3), FileOp::Delete { file: 2 });
        let s = tr.stats();
        assert_eq!(s.stats, 1);
        assert_eq!(s.renames, 1);
        assert_eq!(s.unique_files, 2, "rename target counts as a file");
        assert_eq!(s.total_ops(), 4);
    }
}
