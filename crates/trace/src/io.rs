//! The `.ops` trace container: the one persisted trace format.
//!
//! A trace on disk is a dense sequence of fixed-width records with the
//! file identifiers interned into a trailing table, so million-op traces
//! stream to and from disk without ever existing as `Vec<TraceRecord>`.
//! This module owns every format decision: the container layout, the
//! record codec, the one writer ([`OpStreamWriter`]) and the one reader
//! ([`OpStreamFileReader`]).
//!
//! # Container
//!
//! ```text
//! magic "SSMCOPS\0" · version u16 · pad u16 · name_len u32
//! record_count u64 · file_count u64            (patched by finish())
//! name bytes · records (4 × u64 LE each) · file table (u64 LE each)
//! ```
//!
//! [`OpStreamWriter`] appends records as they are produced (the
//! generators' streaming path) and back-patches the counts on
//! [`OpStreamWriter::finish`]; [`OpStreamFileReader`] checks the header
//! against the file's length, then streams records back through a fixed
//! buffer, allocation-free after open.
//!
//! # Record layout
//!
//! Each record is [`RECORD_WORDS`] little-endian `u64` words:
//!
//! | word | contents                                                    |
//! |------|-------------------------------------------------------------|
//! | 0    | arrival instant, nanoseconds since the simulation epoch     |
//! | 1    | op kind (bits 32..40) · interned file index (bits 0..32)    |
//! | 2    | byte offset (write/read), new length (truncate), interned   |
//! |      | rename-target index (rename), zero otherwise                |
//! | 3    | length in bytes (write/read), zero otherwise                |
//!
//! Kinds are numbered in [`OpKind::ALL`] order. Operations without a file
//! (sync) carry [`NO_FILE`] as their index. File ids are interned in
//! first-use order, so writing is deterministic. The format is lossless:
//! decoding reproduces the written records bit for bit.

use crate::record::{FileId, FileOp, OpKind, TraceRecord};
use ssmc_sim::SimTime;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every `.ops` file.
pub const STREAM_MAGIC: [u8; 8] = *b"SSMCOPS\0";

/// Container format version this build writes and reads.
pub const STREAM_VERSION: u16 = 1;

/// Words per record.
pub const RECORD_WORDS: usize = 4;

/// Bytes per record.
pub const RECORD_BYTES: usize = RECORD_WORDS * 8;

/// File-index sentinel for operations that target no file (sync).
pub const NO_FILE: u32 = u32::MAX;

/// Fixed header bytes ahead of the name: magic, version, pad, name_len,
/// record_count, file_count.
const HEADER_BYTES: u64 = 8 + 2 + 2 + 4 + 8 + 8;
/// Offset of the back-patched `record_count`/`file_count` pair.
const COUNTS_OFFSET: u64 = 16;

/// Numeric codes of the eight op kinds, in [`OpKind::ALL`] order.
const KIND_CREATE: u64 = 0;
const KIND_WRITE: u64 = 1;
const KIND_READ: u64 = 2;
const KIND_DELETE: u64 = 3;
const KIND_TRUNCATE: u64 = 4;
const KIND_SYNC: u64 = 5;
const KIND_STAT: u64 = 6;
const KIND_RENAME: u64 = 7;

/// The numeric kind code of an [`OpKind`] (its [`OpKind::ALL`] position).
pub fn kind_code(kind: OpKind) -> u8 {
    match kind {
        OpKind::Create => KIND_CREATE as u8,
        OpKind::Write => KIND_WRITE as u8,
        OpKind::Read => KIND_READ as u8,
        OpKind::Delete => KIND_DELETE as u8,
        OpKind::Truncate => KIND_TRUNCATE as u8,
        OpKind::Sync => KIND_SYNC as u8,
        OpKind::Stat => KIND_STAT as u8,
        OpKind::Rename => KIND_RENAME as u8,
    }
}

/// Whether a kind code is valid.
fn kind_code_valid(code: u64) -> bool {
    code <= KIND_RENAME
}

/// Interns trace file ids into dense `u32` indices, preserving first-use
/// order so writing is deterministic.
#[derive(Debug, Default)]
struct FileTable {
    by_id: BTreeMap<FileId, u32>,
    ids: Vec<FileId>,
}

impl FileTable {
    fn intern(&mut self, id: FileId) -> u32 {
        if let Some(&idx) = self.by_id.get(&id) {
            return idx;
        }
        let idx = u32::try_from(self.ids.len()).expect("more than 2^32 distinct files");
        assert!(idx != NO_FILE, "file table full");
        self.by_id.insert(id, idx);
        self.ids.push(id);
        idx
    }
}

/// Encodes one operation into its four-word record.
fn encode_record(at: SimTime, op: &FileOp, table: &mut FileTable) -> [u64; RECORD_WORDS] {
    let (kind, idx, w2, w3) = match *op {
        FileOp::Create { file } => (KIND_CREATE, table.intern(file), 0, 0),
        FileOp::Write { file, offset, len } => (KIND_WRITE, table.intern(file), offset, len),
        FileOp::Read { file, offset, len } => (KIND_READ, table.intern(file), offset, len),
        FileOp::Delete { file } => (KIND_DELETE, table.intern(file), 0, 0),
        FileOp::Truncate { file, len } => (KIND_TRUNCATE, table.intern(file), len, 0),
        FileOp::Sync => (KIND_SYNC, NO_FILE, 0, 0),
        FileOp::Stat { file } => (KIND_STAT, table.intern(file), 0, 0),
        FileOp::Rename { file, to } => {
            let from_idx = table.intern(file);
            (KIND_RENAME, from_idx, u64::from(table.intern(to)), 0)
        }
    };
    [at.as_nanos(), (kind << 32) | u64::from(idx), w2, w3]
}

/// Decodes one four-word record against the interned file table.
///
/// # Panics
///
/// Panics on an unknown kind code or an out-of-range file index — both
/// only possible on a corrupt stream, and [`validate_record`] surfaces
/// corruption as an error before a record reaches this decoder.
// lint: hot-path
fn decode_record(w: &[u64], file_ids: &[FileId]) -> TraceRecord {
    let at = SimTime::from_nanos(w[0]);
    let kind = w[1] >> 32;
    let idx = (w[1] & u64::from(u32::MAX)) as u32;
    let file = |idx: u32| file_ids[idx as usize];
    let op = match kind {
        KIND_CREATE => FileOp::Create { file: file(idx) },
        KIND_WRITE => FileOp::Write {
            file: file(idx),
            offset: w[2],
            len: w[3],
        },
        KIND_READ => FileOp::Read {
            file: file(idx),
            offset: w[2],
            len: w[3],
        },
        KIND_DELETE => FileOp::Delete { file: file(idx) },
        KIND_TRUNCATE => FileOp::Truncate {
            file: file(idx),
            len: w[2],
        },
        KIND_SYNC => FileOp::Sync,
        KIND_STAT => FileOp::Stat { file: file(idx) },
        KIND_RENAME => FileOp::Rename {
            file: file(idx),
            to: file_ids[w[2] as usize],
        },
        other => panic!("corrupt op stream: unknown kind code {other}"),
    };
    TraceRecord { at, op }
}

/// Checks one encoded record against the file-table size.
fn validate_record(w: &[u64], files: u64) -> io::Result<()> {
    let kind = w[1] >> 32;
    if !kind_code_valid(kind) {
        // lint: allow(H2): error path: a corrupt record formats one message and
        // replay stops.
        return Err(corrupt(format!("unknown kind code {kind}")));
    }
    let idx = w[1] & u64::from(u32::MAX);
    if kind != KIND_SYNC && idx >= files {
        // lint: allow(H2): error path: a corrupt record formats one message and
        // replay stops.
        return Err(corrupt(format!("file index {idx} out of range ({files})")));
    }
    if kind == KIND_RENAME && w[2] >= files {
        // lint: allow(H2): error path: a corrupt record formats one message and
        // replay stops.
        return Err(corrupt(format!("rename target {} out of range", w[2])));
    }
    Ok(())
}

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// What a finished stream write produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Records written.
    pub records: u64,
    /// Distinct files interned.
    pub files: u64,
}

/// Streams records into a `.ops` container as they are produced.
/// Records are appended incrementally — the generators' sink path pushes
/// each operation the moment it is drawn — and the header counts are
/// back-patched when [`Self::finish`] seals the file.
#[derive(Debug)]
pub struct OpStreamWriter<W: Write + Seek> {
    w: W,
    table: FileTable,
    records: u64,
}

impl OpStreamWriter<io::BufWriter<fs::File>> {
    /// Creates a `.ops` file at `path` (buffered).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(path: &Path, name: &str) -> io::Result<Self> {
        OpStreamWriter::new(io::BufWriter::new(fs::File::create(path)?), name)
    }
}

impl<W: Write + Seek> OpStreamWriter<W> {
    /// Writes the header and prepares for record appends.
    ///
    /// # Errors
    ///
    /// Write errors from `w`.
    pub fn new(mut w: W, name: &str) -> io::Result<Self> {
        let name_len = u32::try_from(name.len()).map_err(|_| corrupt("name too long"))?;
        w.write_all(&STREAM_MAGIC)?;
        w.write_all(&STREAM_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        w.write_all(&name_len.to_le_bytes())?;
        // Counts are unknown until finish(); zero for now.
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        Ok(OpStreamWriter {
            w,
            table: FileTable::default(),
            records: 0,
        })
    }

    /// Appends one operation.
    ///
    /// # Errors
    ///
    /// Write errors from the underlying sink.
    pub fn push(&mut self, at: SimTime, op: &FileOp) -> io::Result<()> {
        let words = encode_record(at, op, &mut self.table);
        let mut buf = [0u8; RECORD_BYTES];
        for (chunk, word) in buf.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        self.w.write_all(&buf)?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends the file table, back-patches the header counts, and
    /// flushes.
    ///
    /// # Errors
    ///
    /// Write/seek errors from the underlying sink.
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        let files = self.table.ids.len() as u64;
        for &id in &self.table.ids {
            self.w.write_all(&id.to_le_bytes())?;
        }
        self.w.seek(SeekFrom::Start(COUNTS_OFFSET))?;
        self.w.write_all(&self.records.to_le_bytes())?;
        self.w.write_all(&files.to_le_bytes())?;
        self.w.flush()?;
        Ok(StreamSummary {
            records: self.records,
            files,
        })
    }
}

/// Parsed `.ops` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Workload name.
    pub name: String,
    /// Container version.
    pub version: u16,
    /// Records in the file.
    pub records: u64,
    /// Interned file-table entries.
    pub files: u64,
}

/// Reads the header of a `.ops` file that is `file_len` bytes long. The
/// counts are untrusted: the container length they imply must equal
/// `file_len` before anything is sized by them, so a crafted or
/// never-finished header fails here instead of overflowing an offset or
/// allocating for data the file does not hold.
fn read_header<R: Read>(r: &mut R, file_len: u64) -> io::Result<StreamHeader> {
    let mut fixed = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut fixed)?;
    if fixed[..8] != STREAM_MAGIC {
        return Err(corrupt("not an op stream (bad magic)"));
    }
    let version = u16::from_le_bytes([fixed[8], fixed[9]]);
    if version != STREAM_VERSION {
        // lint: allow(H2): stream open runs at setup and on an fd-cache miss,
        // not per op.
        return Err(corrupt(format!(
            "unsupported op-stream version {version} (this build reads {STREAM_VERSION})"
        )));
    }
    let name_len = u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes"));
    let records = u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes"));
    let files = u64::from_le_bytes(fixed[24..32].try_into().expect("8 bytes"));
    let implied = records
        .checked_mul(RECORD_BYTES as u64)
        .zip(files.checked_mul(8))
        .and_then(|(recs, table)| recs.checked_add(table))
        .and_then(|body| body.checked_add(HEADER_BYTES + u64::from(name_len)))
        .ok_or_else(|| corrupt("header counts overflow the container length"))?;
    if implied != file_len {
        // lint: allow(H2): stream open runs at setup and on an fd-cache miss,
        // not per op.
        return Err(corrupt(format!(
            "header implies {implied} bytes ({records} records, {files} files) \
             but the file holds {file_len}"
        )));
    }
    // lint: allow(H2): stream open runs at setup and on an fd-cache miss, not
    // per op.
    let mut name = vec![0u8; name_len as usize];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| corrupt("name is not UTF-8"))?;
    Ok(StreamHeader {
        name,
        version,
        records,
        files,
    })
}

/// Streams records out of a `.ops` file through a fixed buffer: after
/// [`Self::open`], [`Self::next_record`] performs no heap allocation, so
/// million-op replays hold only the file table and one record in memory.
#[derive(Debug)]
pub struct OpStreamFileReader {
    r: io::BufReader<fs::File>,
    header: StreamHeader,
    file_ids: Vec<FileId>,
    remaining: u64,
}

impl OpStreamFileReader {
    /// Opens the file, checks the header against the file's length, and
    /// loads the file table from the trailer (one seek there and back).
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` for a malformed container: bad
    /// magic or version, or header counts that overflow or disagree with
    /// the file's length (a truncated file, or one whose writer never
    /// reached [`OpStreamWriter::finish`]).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = io::BufReader::new(file);
        let header = read_header(&mut r, file_len)?;
        let records_start = HEADER_BYTES + header.name.len() as u64;
        let table_start = records_start + header.records * RECORD_BYTES as u64;
        r.seek(SeekFrom::Start(table_start))?;
        // lint: allow(H2): stream open runs at setup and on an fd-cache miss,
        // not per op.
        let mut file_ids = vec![0u64; header.files as usize];
        let mut buf = [0u8; 8];
        for id in &mut file_ids {
            r.read_exact(&mut buf)?;
            *id = u64::from_le_bytes(buf);
        }
        r.seek(SeekFrom::Start(records_start))?;
        Ok(OpStreamFileReader {
            r,
            remaining: header.records,
            header,
            file_ids,
        })
    }

    /// The container header.
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Records not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads and decodes the next record, `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Filesystem errors or a corrupt record.
    // lint: hot-path
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        self.r.read_exact(&mut buf)?;
        let mut words = [0u64; RECORD_WORDS];
        for (word, chunk) in words.iter_mut().zip(buf.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        validate_record(&words, self.file_ids.len() as u64)?;
        self.remaining -= 1;
        Ok(Some(decode_record(&words, &self.file_ids)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, Workload};
    use crate::record::Trace;
    use ssmc_sim::SimDuration;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ssmc-opstream-{tag}-{}.ops", std::process::id()))
    }

    /// Writes `trace` through the one writer into a `.ops` file.
    fn write(trace: &Trace, path: &Path) -> StreamSummary {
        let mut w = OpStreamWriter::create(path, &trace.name).expect("create");
        for r in &trace.records {
            w.push(r.at, &r.op).expect("push");
        }
        w.finish().expect("finish")
    }

    /// A header with the given counts and no name, and nothing after it.
    fn crafted_header(name_len: u32, records: u64, files: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STREAM_MAGIC);
        bytes.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&name_len.to_le_bytes());
        bytes.extend_from_slice(&records.to_le_bytes());
        bytes.extend_from_slice(&files.to_le_bytes());
        assert_eq!(bytes.len() as u64, HEADER_BYTES);
        bytes
    }

    fn open_crafted(tag: &str, bytes: &[u8]) -> io::Result<OpStreamFileReader> {
        let path = temp(tag);
        fs::write(&path, bytes).expect("write");
        let opened = OpStreamFileReader::open(&path);
        let _ = fs::remove_file(&path);
        opened
    }

    #[test]
    fn every_variant_and_extreme_value_round_trips_densely() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut tr = Trace::new("variants");
        tr.push(t(0), FileOp::Create { file: 7 });
        tr.push(
            t(1),
            FileOp::Write {
                file: 7,
                offset: 512,
                len: 4096,
            },
        );
        tr.push(
            t(2),
            FileOp::Read {
                file: 7,
                offset: 0,
                len: 9,
            },
        );
        tr.push(t(3), FileOp::Truncate { file: 7, len: 100 });
        tr.push(t(4), FileOp::Stat { file: 7 });
        tr.push(t(5), FileOp::Rename { file: 7, to: 9001 });
        tr.push(t(6), FileOp::Sync);
        tr.push(t(7), FileOp::Delete { file: 9001 });
        tr.push(
            SimTime::from_nanos(u64::MAX),
            FileOp::Write {
                file: u64::MAX,
                offset: u64::MAX,
                len: u64::MAX,
            },
        );
        let path = temp("variants");
        let summary = write(&tr, &path);
        assert_eq!(summary.records, tr.len() as u64);
        assert_eq!(summary.files, 3, "7, 9001 and u64::MAX interned once each");
        let file_len = fs::metadata(&path).expect("stat").len();
        assert_eq!(
            file_len,
            HEADER_BYTES
                + tr.name.len() as u64
                + RECORD_BYTES as u64 * summary.records
                + 8 * summary.files,
            "the container is exactly header + name + records + file table"
        );
        let mut reader = OpStreamFileReader::open(&path).expect("open");
        assert_eq!(
            *reader.header(),
            StreamHeader {
                name: tr.name.clone(),
                version: STREAM_VERSION,
                records: summary.records,
                files: summary.files,
            }
        );
        let mut decoded = Vec::new();
        while let Some(r) = reader.next_record().expect("decode") {
            decoded.push(r);
        }
        assert_eq!(decoded, tr.records);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn writer_streams_without_a_trace() {
        // The generator sink path pushes records one by one; reading the
        // sealed file back must yield exactly the pushed records.
        let trace = GeneratorConfig::new(Workload::Database)
            .with_ops(1_000)
            .generate();
        let path = temp("writer");
        let mut w = OpStreamWriter::create(&path, &trace.name).expect("create");
        for r in &trace.records {
            w.push(r.at, &r.op).expect("push");
        }
        assert_eq!(w.records(), trace.len() as u64);
        w.finish().expect("finish");

        let mut reader = OpStreamFileReader::open(&path).expect("open");
        assert_eq!(reader.header().name, trace.name);
        assert_eq!(reader.remaining(), trace.len() as u64);
        for (i, r) in trace.records.iter().enumerate() {
            let got = reader.next_record().expect("read").expect("record");
            assert_eq!(&got, r, "record {i}");
        }
        assert!(reader.next_record().expect("eof").is_none());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_streams_fail_to_read() {
        let path = temp("corrupt");
        assert!(OpStreamFileReader::open(&path).is_err(), "missing file");

        // Bad magic.
        fs::write(&path, b"NOTMAGIC").expect("write");
        assert!(OpStreamFileReader::open(&path).is_err());

        // Bad version.
        let mut bytes = crafted_header(0, 0, 0);
        bytes[8..10].copy_from_slice(&99u16.to_le_bytes());
        fs::write(&path, &bytes).expect("write");
        assert!(OpStreamFileReader::open(&path).is_err());

        // Valid container, first record corrupted word by word: each
        // damaged record opens fine and fails on decode.
        let mut tr = Trace::new("corrupt");
        tr.push(SimTime::ZERO, FileOp::Rename { file: 1, to: 2 });
        let files = write(&tr, &path).files;
        let good = fs::read(&path).expect("read");
        let first_record = HEADER_BYTES as usize + tr.name.len();
        let word = |i: usize| first_record + 8 * i..first_record + 8 * (i + 1);
        let cases = [
            ("unknown kind code", 1, 8u64 << 32),
            ("file index past the table", 1, (KIND_RENAME << 32) | files),
            ("rename target past the table", 2, files),
        ];
        for (what, w, value) in cases {
            let mut bytes = good.clone();
            bytes[word(w)].copy_from_slice(&value.to_le_bytes());
            fs::write(&path, &bytes).expect("write");
            let mut reader = OpStreamFileReader::open(&path).expect("length is intact");
            let err = reader.next_record().expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(50)
            .generate();
        let path = temp("truncated");
        write(&trace, &path);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        let err = OpStreamFileReader::open(&path).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unfinished_stream_is_rejected_at_open() {
        // A writer that dies before finish() leaves zero counts in the
        // header ahead of real records.
        let path = temp("unfinished");
        let mut w = OpStreamWriter::create(&path, "unfinished").expect("create");
        w.push(SimTime::ZERO, &FileOp::Create { file: 1 })
            .expect("push");
        drop(w);
        let err = OpStreamFileReader::open(&path).expect_err("unfinished");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn huge_file_count_is_rejected_at_open() {
        let err = open_crafted("files", &crafted_header(0, 0, 1 << 61)).expect_err("files");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn huge_record_count_is_rejected_at_open() {
        let err = open_crafted("records", &crafted_header(0, 1 << 60, 0)).expect_err("records");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn huge_name_length_is_rejected_at_open() {
        let err = open_crafted("name", &crafted_header(u32::MAX, 0, 0)).expect_err("name");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn kind_codes_follow_report_order() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(kind_code(*k) as usize, i, "{k}");
            assert!(kind_code_valid(kind_code(*k) as u64));
        }
        assert!(!kind_code_valid(8));
    }
}
