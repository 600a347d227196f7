//! Synthetic workload generators.
//!
//! Each workload is a `Profile` — operation mix, file-size distribution,
//! chunk sizes, access skew, and data-lifetime model — driven by a common
//! engine that maintains a live-file population, schedules deaths from the
//! [`LifetimeModel`], and emits a time-ordered [`Trace`]. Generation is
//! deterministic given the seed.

mod bsd;
mod database;
mod mail_spool;
mod office;
mod software_dev;

use crate::io::OpStreamWriter;
use crate::lifetime::LifetimeModel;
use crate::record::{FileId, FileOp, Trace};
use ssmc_sim::rng::Zipf;
use ssmc_sim::{EventQueue, SimDuration, SimRng, SimTime};
use std::io::{self, Seek, Write};
// lint: allow(D2): the engine's file table is keyed-access only; see
// the directive on the `files` field for the determinism argument.
use std::collections::HashMap;

/// The four calibrated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// General time-sharing file activity (Ousterhout/Baker-like).
    Bsd,
    /// Personal-information-manager record keeping (Wizard/Newton class).
    Office,
    /// Edit/compile cycles with short-lived object files.
    SoftwareDev,
    /// Random in-place record updates in a few large files.
    Database,
    /// Metadata-heavy mail delivery and mailbox scanning: create / stat /
    /// rename / unlink churn over many small messages.
    MailSpool,
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl Workload {
    /// Every generator profile, in a stable order.
    pub const ALL: [Workload; 5] = [
        Workload::Bsd,
        Workload::Office,
        Workload::SoftwareDev,
        Workload::Database,
        Workload::MailSpool,
    ];

    /// The kebab-case profile name (what `Display` prints).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bsd => "bsd",
            Workload::Office => "office",
            Workload::SoftwareDev => "software-dev",
            Workload::Database => "database",
            Workload::MailSpool => "mail-spool",
        }
    }

    /// Parses a profile name as printed by `Display`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Relative operation weights for a profile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpWeights {
    pub create: f64,
    pub overwrite: f64,
    pub read: f64,
    pub delete: f64,
    pub truncate: f64,
    pub sync: f64,
    /// Attribute-only touches. Zero in the original four profiles: the
    /// weighted draw consumes one uniform either way, so traces generated
    /// before these ops existed are unchanged byte for byte.
    pub stat: f64,
    /// Renames (e.g. mail-spool delivery: tmp file → final name).
    pub rename: f64,
}

/// A workload's statistical shape.
#[derive(Debug, Clone)]
pub(crate) struct Profile {
    pub name: &'static str,
    pub weights: OpWeights,
    /// Log-normal parameters of new-file sizes (of the underlying normal).
    pub size_mu: f64,
    pub size_sigma: f64,
    pub size_min: u64,
    pub size_max: u64,
    /// Overwrite / record chunk bounds.
    pub chunk_min: u64,
    pub chunk_max: u64,
    /// Probability a read covers the whole file (sequential whole-file
    /// access dominated the BSD/Sprite traces).
    pub whole_file_read_prob: f64,
    /// Zipf skew over recency rank for choosing the target file.
    pub recency_skew: f64,
    /// Probability an overwrite-class operation appends instead.
    pub append_prob: f64,
    /// Data-lifetime model for new files.
    pub lifetime: LifetimeModel,
    /// Files pre-populated before the trace starts.
    pub initial_files: usize,
}

/// Generator configuration: which workload, how much of it, and overrides.
///
/// # Examples
///
/// ```
/// use ssmc_trace::{GeneratorConfig, Workload};
///
/// let trace = GeneratorConfig::new(Workload::Office)
///     .with_ops(1_000)
///     .with_seed(42)
///     .generate();
/// assert_eq!(trace.len(), 1_000);
/// // Same seed, same trace.
/// let again = GeneratorConfig::new(Workload::Office)
///     .with_ops(1_000)
///     .with_seed(42)
///     .generate();
/// assert_eq!(trace.records, again.records);
/// ```
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Which workload profile to use.
    pub workload: Workload,
    /// Number of records to emit.
    pub ops: usize,
    /// Mean operation interarrival time (exponential).
    pub mean_interarrival: SimDuration,
    /// RNG seed; same seed, same trace.
    pub seed: u64,
    /// Cap on total live bytes; the generator deletes the oldest files to
    /// stay under it, so traces fit the small devices under test.
    pub max_live_bytes: u64,
    /// Override the profile's lifetime model (used by the F2 sensitivity
    /// sweep).
    pub lifetime_override: Option<LifetimeModel>,
}

impl GeneratorConfig {
    /// A reasonable default for `workload`: 50 000 ops at 50 ms mean
    /// interarrival (≈42 simulated minutes).
    pub fn new(workload: Workload) -> Self {
        GeneratorConfig {
            workload,
            ops: 50_000,
            mean_interarrival: SimDuration::from_millis(50),
            seed: 0x55AC,
            max_live_bytes: 8 << 20,
            lifetime_override: None,
        }
    }

    /// Sets the record count.
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the live-byte cap.
    pub fn with_max_live_bytes(mut self, bytes: u64) -> Self {
        self.max_live_bytes = bytes;
        self
    }

    /// Overrides the lifetime model.
    pub fn with_lifetime(mut self, l: LifetimeModel) -> Self {
        self.lifetime_override = Some(l);
        self
    }

    fn profile(&self) -> Profile {
        let mut profile = match self.workload {
            Workload::Bsd => bsd::profile(),
            Workload::Office => office::profile(),
            Workload::SoftwareDev => software_dev::profile(),
            Workload::Database => database::profile(),
            Workload::MailSpool => mail_spool::profile(),
        };
        if let Some(l) = self.lifetime_override {
            profile.lifetime = l;
        }
        profile
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let profile = self.profile();
        let sink = TraceSink {
            trace: Trace::new(profile.name),
        };
        let mut trace = Engine::new(self, profile, sink).run().trace;
        // An engine step can emit several records (create = Create +
        // Write, plus cap-eviction deletes), so the last step may
        // overshoot; trim to the requested count.
        trace.records.truncate(self.ops);
        trace
    }

    /// Generates straight into a `.ops` stream writer, never
    /// materialising a `Vec<TraceRecord>`: each operation is encoded and
    /// written the moment it is drawn, so million-op traces cost the
    /// writer's buffer plus the engine's live-file table. Emits exactly
    /// the records [`Self::generate`] would — the same seed produces a
    /// byte-identical stream to pushing the in-memory trace's records
    /// through the writer.
    ///
    /// Returns the number of records written (`self.ops`, unless the
    /// writer failed).
    ///
    /// # Errors
    ///
    /// The first write error from the underlying sink, if any.
    pub fn generate_into<W: Write + Seek>(&self, w: &mut OpStreamWriter<W>) -> io::Result<u64> {
        let profile = self.profile();
        let sink = Engine::new(self, profile, WriterSink::new(w, self.ops)).run();
        if let Some(e) = sink.error {
            return Err(e);
        }
        Ok(sink.emitted.min(sink.cap) as u64)
    }
}

/// Where the engine sends each drawn operation. The engine only ever
/// appends and asks how many records exist so far; abstracting that pair
/// lets the same stepping logic fill an in-memory [`Trace`] or stream
/// records straight to disk.
trait OpSink {
    fn emit(&mut self, at: SimTime, op: FileOp);
    /// Records emitted so far — **including** any past the requested cap,
    /// so the run loop's termination test sees the same counts on both
    /// sink paths.
    fn emitted(&self) -> usize;
}

/// Collects records into an in-memory trace (the [`GeneratorConfig::generate`] path).
struct TraceSink {
    trace: Trace,
}

impl OpSink for TraceSink {
    fn emit(&mut self, at: SimTime, op: FileOp) {
        self.trace.push(at, op);
    }

    fn emitted(&self) -> usize {
        self.trace.len()
    }
}

/// Forwards records to an [`OpStreamWriter`]. Counts every emit but only
/// forwards the first `cap`: the in-memory path truncates its overshoot
/// after the run, and this sink must drop exactly the same tail to keep
/// the two paths byte-identical. The first write error is latched and
/// ends forwarding; the engine still runs to completion (its RNG draws
/// are already spent) and the error surfaces from `generate_into`.
struct WriterSink<'w, W: Write + Seek> {
    w: &'w mut OpStreamWriter<W>,
    cap: usize,
    emitted: usize,
    error: Option<io::Error>,
}

impl<'w, W: Write + Seek> WriterSink<'w, W> {
    fn new(w: &'w mut OpStreamWriter<W>, cap: usize) -> Self {
        WriterSink {
            w,
            cap,
            emitted: 0,
            error: None,
        }
    }
}

impl<W: Write + Seek> OpSink for WriterSink<'_, W> {
    fn emit(&mut self, at: SimTime, op: FileOp) {
        if self.emitted < self.cap && self.error.is_none() {
            if let Err(e) = self.w.push(at, &op) {
                self.error = Some(e);
            }
        }
        self.emitted += 1;
    }

    fn emitted(&self) -> usize {
        self.emitted
    }
}

struct LiveFile {
    size: u64,
}

struct Engine<'a, S: OpSink> {
    cfg: &'a GeneratorConfig,
    profile: Profile,
    rng: SimRng,
    now: SimTime,
    sink: S,
    next_id: FileId,
    /// Most-recent-first list of live file ids (recency rank order).
    recency: Vec<FileId>,
    // lint: allow(D2): keyed get/insert/remove only, never iterated;
    // victim selection walks the `recency` vector and the death queue,
    // both of which are insertion-ordered.
    files: HashMap<FileId, LiveFile>,
    live_bytes: u64,
    deaths: EventQueue<FileId>,
}

impl<'a, S: OpSink> Engine<'a, S> {
    fn new(cfg: &'a GeneratorConfig, profile: Profile, sink: S) -> Self {
        Engine {
            rng: SimRng::seed_from_u64(cfg.seed),
            now: SimTime::ZERO,
            sink,
            next_id: 1,
            recency: Vec::new(),
            // lint: allow(D2): construction of the keyed-only table
            // justified on the field declaration above.
            files: HashMap::new(),
            live_bytes: 0,
            deaths: EventQueue::new(),
            cfg,
            profile,
        }
    }

    fn sample_size(&mut self) -> u64 {
        let raw = self
            .rng
            .lognormal(self.profile.size_mu, self.profile.size_sigma);
        (raw as u64).clamp(self.profile.size_min, self.profile.size_max)
    }

    fn sample_chunk(&mut self) -> u64 {
        if self.profile.chunk_min >= self.profile.chunk_max {
            return self.profile.chunk_min;
        }
        self.rng
            .range(self.profile.chunk_min, self.profile.chunk_max)
    }

    /// Picks a live file by Zipf over recency rank (rank 0 = newest).
    fn pick_file(&mut self) -> Option<FileId> {
        if self.recency.is_empty() {
            return None;
        }
        let z = Zipf::new(self.recency.len(), self.profile.recency_skew);
        let rank = z.sample(&mut self.rng);
        Some(self.recency[rank])
    }

    fn touch(&mut self, file: FileId) {
        if let Some(pos) = self.recency.iter().position(|&f| f == file) {
            let f = self.recency.remove(pos);
            self.recency.insert(0, f);
        }
    }

    fn delete(&mut self, file: FileId) {
        if let Some(lf) = self.files.remove(&file) {
            self.live_bytes -= lf.size;
            self.recency.retain(|&f| f != file);
            self.sink.emit(self.now, FileOp::Delete { file });
        }
    }

    fn create_file(&mut self, size: u64) -> FileId {
        // Stay under the live-byte cap by retiring the oldest files.
        while self.live_bytes + size > self.cfg.max_live_bytes && !self.recency.is_empty() {
            let victim = *self.recency.last().expect("non-empty");
            self.delete(victim);
        }
        let file = self.next_id;
        self.next_id += 1;
        self.sink.emit(self.now, FileOp::Create { file });
        self.sink.emit(
            self.now,
            FileOp::Write {
                file,
                offset: 0,
                len: size,
            },
        );
        self.files.insert(file, LiveFile { size });
        self.recency.insert(0, file);
        self.live_bytes += size;
        let death = self.now + self.profile.lifetime.sample(&mut self.rng);
        self.deaths.schedule(death, file);
        file
    }

    fn op_overwrite(&mut self) {
        let Some(file) = self.pick_file() else {
            self.create_default();
            return;
        };
        let append = self.rng.chance(self.profile.append_prob);
        let size = self.files[&file].size;
        let chunk = self.sample_chunk();
        if append {
            self.sink.emit(
                self.now,
                FileOp::Write {
                    file,
                    offset: size,
                    len: chunk,
                },
            );
            self.files.get_mut(&file).expect("live").size += chunk;
            self.live_bytes += chunk;
        } else {
            let offset = if size > chunk {
                // Align overwrites to 512-byte records, like real updates.
                (self.rng.below(size - chunk) / 512) * 512
            } else {
                0
            };
            let len = chunk.min(size.max(1));
            self.sink
                .emit(self.now, FileOp::Write { file, offset, len });
        }
        self.touch(file);
    }

    fn op_read(&mut self) {
        let Some(file) = self.pick_file() else {
            self.create_default();
            return;
        };
        let size = self.files[&file].size.max(1);
        let (offset, len) = if self.rng.chance(self.profile.whole_file_read_prob) {
            (0, size)
        } else {
            let chunk = self.sample_chunk().min(size);
            let offset = if size > chunk {
                self.rng.below(size - chunk)
            } else {
                0
            };
            (offset, chunk.max(1))
        };
        self.sink
            .emit(self.now, FileOp::Read { file, offset, len });
        self.touch(file);
    }

    fn op_truncate(&mut self) {
        let Some(file) = self.pick_file() else {
            return;
        };
        let size = self.files[&file].size;
        let new_len = size / 2;
        self.sink
            .emit(self.now, FileOp::Truncate { file, len: new_len });
        self.live_bytes -= size - new_len;
        self.files.get_mut(&file).expect("live").size = new_len;
    }

    fn op_stat(&mut self) {
        let Some(file) = self.pick_file() else {
            self.create_default();
            return;
        };
        self.sink.emit(self.now, FileOp::Stat { file });
        self.touch(file);
    }

    fn op_rename(&mut self) {
        let Some(file) = self.pick_file() else {
            self.create_default();
            return;
        };
        let to = self.next_id;
        self.next_id += 1;
        self.sink.emit(self.now, FileOp::Rename { file, to });
        // The data lives on under the new id; the old id retires. The
        // stale death event becomes a no-op (delete ignores dead ids), so
        // the file gets a fresh lifetime draw under its new name.
        let lf = self.files.remove(&file).expect("live");
        self.files.insert(to, lf);
        if let Some(pos) = self.recency.iter().position(|&f| f == file) {
            self.recency[pos] = to;
        }
        self.touch(to);
        let death = self.now + self.profile.lifetime.sample(&mut self.rng);
        self.deaths.schedule(death, to);
    }

    fn create_default(&mut self) {
        let size = self.sample_size();
        self.create_file(size);
    }

    fn run(mut self) -> S {
        // Pre-populate the working set.
        for _ in 0..self.profile.initial_files {
            self.create_default();
        }
        let weights = self.profile.weights;
        // Sync stays the LAST entry: `SimRng::weighted` falls back to the
        // final index when float drift leaves the draw past every bucket,
        // and that terminal case must keep resolving to Sync (as it did
        // with the original six-entry table) or pre-stat/rename traces
        // would not reproduce byte for byte. The zero-weight stat/rename
        // entries in the legacy profiles can never win a bucket, and
        // subtracting 0.0 leaves the draw untouched, so mid-table they
        // are inert.
        let table = [
            weights.create,
            weights.overwrite,
            weights.read,
            weights.delete,
            weights.truncate,
            weights.stat,
            weights.rename,
            weights.sync,
        ];
        while self.sink.emitted() < self.cfg.ops {
            let dt = SimDuration::from_secs_f64(
                self.rng
                    .exponential(self.cfg.mean_interarrival.as_secs_f64()),
            );
            self.now += dt;
            // Fire scheduled deaths that have come due.
            while let Some((_, file)) = self.deaths.pop_until(self.now) {
                self.delete(file);
            }
            match self.rng.weighted(&table) {
                0 => self.create_default(),
                1 => self.op_overwrite(),
                2 => self.op_read(),
                3 => {
                    if let Some(f) = self.pick_file() {
                        self.delete(f);
                    }
                }
                4 => self.op_truncate(),
                5 => self.op_stat(),
                6 => self.op_rename(),
                _ => self.sink.emit(self.now, FileOp::Sync),
            }
        }
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(w: Workload) -> Trace {
        GeneratorConfig::new(w).with_ops(5_000).generate()
    }

    #[test]
    fn all_workloads_generate_requested_ops() {
        for w in [
            Workload::Bsd,
            Workload::Office,
            Workload::SoftwareDev,
            Workload::Database,
        ] {
            let t = gen(w);
            assert_eq!(t.len(), 5_000, "{w}");
            assert_eq!(t.stats().total_ops(), 5_000, "{w}");
        }
    }

    #[test]
    fn generate_into_matches_generate_byte_for_byte() {
        // The streaming path must be indistinguishable from generating in
        // memory and pushing each record: same records in, same container
        // bytes out, including the truncate-at-cap tail behaviour.
        for w in [
            Workload::Bsd,
            Workload::Office,
            Workload::SoftwareDev,
            Workload::Database,
            Workload::MailSpool,
        ] {
            let cfg = GeneratorConfig::new(w).with_ops(3_000);
            let trace = cfg.generate();
            let via_memory = {
                let mut buf = io::Cursor::new(Vec::new());
                let mut writer = OpStreamWriter::new(&mut buf, &trace.name).expect("header");
                for r in &trace.records {
                    writer.push(r.at, &r.op).expect("push");
                }
                writer.finish().expect("finish");
                buf.into_inner()
            };
            let via_stream = {
                let mut buf = io::Cursor::new(Vec::new());
                let mut writer = OpStreamWriter::new(&mut buf, &trace.name).expect("header");
                let n = cfg.generate_into(&mut writer).expect("generate_into");
                assert_eq!(n, 3_000, "{w}");
                writer.finish().expect("finish");
                buf.into_inner()
            };
            assert_eq!(via_memory, via_stream, "{w} container bytes diverge");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratorConfig::new(Workload::Bsd)
            .with_ops(2_000)
            .generate();
        let b = GeneratorConfig::new(Workload::Bsd)
            .with_ops(2_000)
            .generate();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::new(Workload::Bsd)
            .with_ops(2_000)
            .with_seed(1)
            .generate();
        let b = GeneratorConfig::new(Workload::Bsd)
            .with_ops(2_000)
            .with_seed(2)
            .generate();
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn records_are_time_ordered() {
        let t = gen(Workload::SoftwareDev);
        assert!(t.records.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn operations_reference_live_files() {
        check_live_file_model(&gen(Workload::Bsd));
    }

    #[test]
    fn mail_spool_is_metadata_heavy_and_consistent() {
        let t = gen(Workload::MailSpool);
        check_live_file_model(&t);
        let s = t.stats();
        assert!(s.stats > 0, "mail-spool must stat");
        assert!(s.renames > 0, "mail-spool must rename");
        let namespace = s.creates + s.deletes + s.stats + s.renames;
        let data = s.writes + s.reads;
        assert!(
            namespace > data,
            "namespace ops ({namespace}) should dominate data ops ({data})"
        );
    }

    fn check_live_file_model(t: &Trace) {
        // Replay the trace against a simple model: every non-create op on a
        // file must land between its Create and its Delete (or Rename, which
        // retires the old id and brings the new one to life).
        let mut live = std::collections::HashSet::new();
        for r in &t.records {
            match &r.op {
                FileOp::Create { file } => {
                    assert!(live.insert(*file), "create of live file {file}");
                }
                FileOp::Delete { file } => {
                    assert!(live.remove(file), "delete of dead file {file}");
                }
                FileOp::Write { file, .. }
                | FileOp::Read { file, .. }
                | FileOp::Truncate { file, .. }
                | FileOp::Stat { file } => {
                    assert!(live.contains(file), "op on dead file {file}");
                }
                FileOp::Rename { file, to } => {
                    assert!(live.remove(file), "rename of dead file {file}");
                    assert!(live.insert(*to), "rename onto live file {to}");
                }
                FileOp::Sync => {}
            }
        }
    }

    #[test]
    fn live_bytes_stay_under_cap() {
        let cap = 1 << 20;
        let t = GeneratorConfig::new(Workload::Bsd)
            .with_ops(20_000)
            .with_max_live_bytes(cap)
            .generate();
        let mut sizes: HashMap<FileId, u64> = HashMap::new();
        let mut live = 0u64;
        let mut peak = 0u64;
        for r in &t.records {
            match &r.op {
                FileOp::Create { file } => {
                    sizes.insert(*file, 0);
                }
                FileOp::Write { file, offset, len } => {
                    if let Some(s) = sizes.get_mut(file) {
                        let end = offset + len;
                        if end > *s {
                            live += end - *s;
                            *s = end;
                        }
                    }
                }
                FileOp::Truncate { file, len } => {
                    if let Some(s) = sizes.get_mut(file) {
                        live -= s.saturating_sub(*len);
                        *s = (*len).min(*s);
                    }
                }
                FileOp::Delete { file } => {
                    if let Some(s) = sizes.remove(file) {
                        live -= s;
                    }
                }
                _ => {}
            }
            peak = peak.max(live);
        }
        // Appends can momentarily exceed the cap (only creates enforce it),
        // but not by much.
        assert!(peak < cap * 2, "peak {peak} vs cap {cap}");
    }

    #[test]
    fn bsd_write_data_mostly_dies_young() {
        // The calibration target behind F2: a large share of written bytes
        // belongs to files deleted within the trace.
        let t = GeneratorConfig::new(Workload::Bsd)
            .with_ops(30_000)
            .generate();
        let mut written: HashMap<FileId, u64> = HashMap::new();
        let mut dead_bytes = 0u64;
        let mut total_bytes = 0u64;
        for r in &t.records {
            match &r.op {
                FileOp::Write { file, len, .. } => {
                    *written.entry(*file).or_default() += len;
                    total_bytes += len;
                }
                FileOp::Delete { file } => {
                    dead_bytes += written.get(file).copied().unwrap_or(0);
                }
                _ => {}
            }
        }
        let frac = dead_bytes as f64 / total_bytes.max(1) as f64;
        assert!(frac > 0.35, "dead-byte fraction {frac}");
    }

    #[test]
    fn database_workload_overwrites_in_place() {
        let t = gen(Workload::Database);
        let s = t.stats();
        // Few files, many writes.
        assert!(s.unique_files < 50, "{} files", s.unique_files);
        assert!(s.writes > s.creates * 10);
    }

    #[test]
    fn office_files_are_small() {
        let t = gen(Workload::Office);
        let s = t.stats();
        let mean_write = s.bytes_written as f64 / s.writes.max(1) as f64;
        assert!(mean_write < 16_384.0, "mean write {mean_write}");
    }

    #[test]
    fn software_dev_creates_heavily() {
        let t = gen(Workload::SoftwareDev);
        let s = t.stats();
        assert!(
            s.creates * 3 > s.reads,
            "creates {} reads {}",
            s.creates,
            s.reads
        );
        assert!(s.deletes > 0);
    }
}
