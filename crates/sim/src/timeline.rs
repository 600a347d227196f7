//! Deterministic timeline telemetry: a sim-time flight recorder.
//!
//! The span journal and [`MetricsRegistry`](crate::obs::MetricsRegistry)
//! surface end-of-run aggregates; this module records how those numbers
//! *evolve* over a run. A machine registers a fixed set of **channels**
//! (counters and gauges drawn from every layer: storage wear and GC
//! state, buffer occupancy, write amplification, battery and energy
//! levels, …) and then samples all of them at fixed [`SimTime`]
//! boundaries into a compact columnar on-disk artifact — the `.tl`
//! container, following the `.ops` discipline:
//!
//! ```text
//! magic "SSMCTL\0\0" · version u16 · pad u16 · channel_count u32
//! row_count u64 (patched by finish()) · interval_ns u64
//! channel table: (kind u8 · name_len u16 · name bytes) per channel
//! rows: channel_count × u64 LE per row, delta-encoded against the
//!       previous row (row 0 against zeros); gauges carry f64 bits
//! ```
//!
//! Determinism rules: samples are taken **on simulated-time boundaries,
//! never host time** — the sampler fires when the machine's maintenance
//! tick first observes the clock at or past the next interval boundary,
//! which is a pure function of the replayed trace. Fixed-seed timelines
//! are therefore byte-identical across repeated runs and `--threads`
//! settings.
//!
//! Cost rules: a machine without a [`TimelineSink`] pays one not-taken
//! branch per maintenance tick. With the sampler on, the steady state is
//! allocation-free: channel names are materialised once at registration
//! (a sampling-mode [`SampleBuf`] never touches a name), sample
//! values land in a reused buffer, and rows stream through a fixed
//! scratch row into a buffered writer — million-op runs never hold their
//! samples in memory.

use crate::energy::EnergyLedger;
use crate::obs::MetricSink;
use crate::stats::TimeWeighted;
use crate::time::{SimDuration, SimTime};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every `.tl` file.
pub const TIMELINE_MAGIC: [u8; 8] = *b"SSMCTL\0\0";

/// Container format version this build writes and reads.
pub const TIMELINE_VERSION: u16 = 1;

/// Fixed header bytes: magic, version, pad, channel_count, row_count,
/// interval_ns.
const HEADER_BYTES: u64 = 8 + 2 + 2 + 4 + 8 + 8;
/// Offset of the back-patched `row_count`.
const ROWS_OFFSET: u64 = 16;

/// Name of the implicit channel 0 every timeline carries: the interval
/// index (`now / interval`) the row was sampled at. Rows are emitted on
/// boundary *crossings*, so ticks are strictly increasing but not
/// necessarily dense — idle stretches produce no rows.
pub const TICK_CHANNEL: &str = "timeline.tick";

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// How a channel's 64-bit samples are to be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// A monotonically accumulated count; the word is the value itself.
    Counter,
    /// A point-in-time level; the word is the `f64` bit pattern.
    Gauge,
}

impl ChannelKind {
    fn code(self) -> u8 {
        match self {
            ChannelKind::Counter => 0,
            ChannelKind::Gauge => 1,
        }
    }

    fn from_code(c: u8) -> Option<ChannelKind> {
        match c {
            0 => Some(ChannelKind::Counter),
            1 => Some(ChannelKind::Gauge),
            _ => None,
        }
    }
}

/// One named, typed channel of a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Dotted metric name (`storage.gc_runs`, `battery.remaining_j`, …).
    pub name: String,
    /// How samples decode.
    pub kind: ChannelKind,
}

/// The ordered channel set a machine samples. Built by running one
/// registration pass ([`SampleBuf::registration`]) over the same
/// [`MetricSink`] walk that later produces values — the schema and the
/// samples cannot drift apart because they are the same walk.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// Channels in sampling order.
    pub channels: Vec<Channel>,
}

impl Schema {
    /// Panics if two channels share a name — a schema bug that would make
    /// columns ambiguous.
    fn assert_unique(&self) {
        let mut names: Vec<&str> = self.channels.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        for pair in names.windows(2) {
            assert_ne!(pair[0], pair[1], "duplicate timeline channel {}", pair[0]);
        }
    }
}

/// The dual-mode [`MetricSink`] a layer's metrics walk fills for the
/// timeline.
///
/// In **registration** mode every instrument records its `(name, kind)`;
/// in **sampling** mode only the value is pushed, into a buffer reused
/// across samples, and no name is materialised — so the steady-state
/// sampler performs no allocation and no formatting. One walk serves
/// both, which keeps the schema and the samples aligned by
/// construction. Time-weighted instruments sample as their current
/// level; ledger accounts are skipped (their count grows mid-run).
#[derive(Debug)]
pub struct SampleBuf {
    names: Option<Vec<Channel>>,
    values: Vec<u64>,
}

impl MetricSink for SampleBuf {
    #[inline]
    fn counter(&mut self, name: &'static str, v: u64) {
        self.push_channel(name, ChannelKind::Counter, v);
    }

    #[inline]
    fn gauge(&mut self, name: &'static str, v: f64) {
        self.push_channel(name, ChannelKind::Gauge, v.to_bits());
    }

    #[inline]
    fn time_weighted(&mut self, name: &'static str, t: &TimeWeighted) {
        self.push_channel(name, ChannelKind::Gauge, t.level().to_bits());
    }

    fn counter_family(
        &mut self,
        prefix: &'static str,
        n: usize,
        mut value_of: impl FnMut(usize) -> u64,
    ) {
        for i in 0..n {
            if let Some(names) = &mut self.names {
                names.push(Channel {
                    // lint: allow(H2): registration mode only; a sampling
                    // buffer has no name list and never formats.
                    name: format!("{prefix}.{i:04}"),
                    kind: ChannelKind::Counter,
                });
            }
            self.values.push(value_of(i));
        }
    }

    fn ledger(&mut self, _prefix: &'static str, _ledger: &EnergyLedger) {}
}

impl SampleBuf {
    /// A registration-mode buffer: collects the channel schema.
    pub fn registration() -> SampleBuf {
        SampleBuf {
            names: Some(Vec::new()),
            values: Vec::new(),
        }
    }

    /// A sampling-mode buffer sized for `channels` values.
    fn sampling(channels: usize) -> SampleBuf {
        SampleBuf {
            names: None,
            values: Vec::with_capacity(channels),
        }
    }

    /// Pushes one channel's word; in registration mode also records the
    /// channel.
    #[inline]
    fn push_channel(&mut self, name: &'static str, kind: ChannelKind, word: u64) {
        if let Some(names) = &mut self.names {
            names.push(Channel {
                // lint: allow(H2): registration mode only; a sampling
                // buffer has no name list and never copies a name.
                name: name.to_owned(),
                kind,
            });
        }
        self.values.push(word);
    }

    /// Channels registered / values pushed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finishes a registration pass.
    ///
    /// # Panics
    ///
    /// Panics if called on a sampling-mode buffer or if two channels
    /// share a name.
    pub fn into_schema(self) -> Schema {
        let schema = Schema {
            channels: self.names.expect("registration-mode SampleBuf"),
        };
        schema.assert_unique();
        schema
    }
}

/// Streams delta-encoded sample rows into a `.tl` container. The row
/// count is back-patched on [`Self::finish`], mirroring the `.ops`
/// writer.
#[derive(Debug)]
pub struct TimelineWriter<W: Write + Seek> {
    w: W,
    channels: usize,
    rows: u64,
    /// Previous row's absolute values; deltas are taken against these.
    prev: Vec<u64>,
    /// Reused encode scratch, `channels × 8` bytes.
    scratch: Vec<u8>,
}

impl TimelineWriter<io::BufWriter<fs::File>> {
    /// Creates a `.tl` file at `path` (buffered).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(path: &Path, schema: &Schema, interval: SimDuration) -> io::Result<Self> {
        TimelineWriter::new(
            io::BufWriter::new(fs::File::create(path)?),
            schema,
            interval,
        )
    }
}

impl<W: Write + Seek> TimelineWriter<W> {
    /// Writes the header and channel table, and prepares for row appends.
    ///
    /// # Errors
    ///
    /// Write errors from `w`, or a channel name longer than `u16::MAX`.
    pub fn new(mut w: W, schema: &Schema, interval: SimDuration) -> io::Result<Self> {
        assert!(
            interval > SimDuration::ZERO,
            "a zero sample interval would sample every maintenance tick"
        );
        let channels =
            u32::try_from(schema.channels.len()).map_err(|_| corrupt("too many channels"))?;
        w.write_all(&TIMELINE_MAGIC)?;
        w.write_all(&TIMELINE_VERSION.to_le_bytes())?;
        w.write_all(&0u16.to_le_bytes())?;
        w.write_all(&channels.to_le_bytes())?;
        // Row count is unknown until finish(); zero for now.
        w.write_all(&0u64.to_le_bytes())?;
        w.write_all(&interval.as_nanos().to_le_bytes())?;
        for c in &schema.channels {
            let len = u16::try_from(c.name.len()).map_err(|_| corrupt("channel name too long"))?;
            w.write_all(&[c.kind.code()])?;
            w.write_all(&len.to_le_bytes())?;
            w.write_all(c.name.as_bytes())?;
        }
        let n = schema.channels.len();
        Ok(TimelineWriter {
            w,
            channels: n,
            rows: 0,
            // lint: allow(H2): sized once when the timeline opens; replay
            // reaches it only through name-based resolution of `create`.
            prev: vec![0u64; n],
            // lint: allow(H2): sized once when the timeline opens, like `prev`.
            scratch: vec![0u8; n * 8],
        })
    }

    /// Appends one sample row of absolute values (delta encoding is the
    /// writer's business). Allocation-free: the encode scratch is reused.
    ///
    /// # Errors
    ///
    /// Write errors from the underlying sink.
    // lint: hot-path
    pub fn push_row(&mut self, values: &[u64]) -> io::Result<()> {
        assert_eq!(values.len(), self.channels, "row width matches the schema");
        for (i, &v) in values.iter().enumerate() {
            let delta = v.wrapping_sub(self.prev[i]);
            self.scratch[i * 8..i * 8 + 8].copy_from_slice(&delta.to_le_bytes());
            self.prev[i] = v;
        }
        self.w.write_all(&self.scratch)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Back-patches the row count, flushes, and returns the sink.
    ///
    /// # Errors
    ///
    /// Write/seek errors from the underlying sink.
    pub fn finish(mut self) -> io::Result<(u64, W)> {
        self.w.seek(SeekFrom::Start(ROWS_OFFSET))?;
        self.w.write_all(&self.rows.to_le_bytes())?;
        self.w.flush()?;
        Ok((self.rows, self.w))
    }
}

/// A decoded timeline: channel table plus row-major absolute values
/// (deltas are resolved at decode time).
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: SimDuration,
    channels: Vec<Channel>,
    values: Vec<u64>,
}

impl Timeline {
    /// Reads and decodes a `.tl` file.
    ///
    /// # Errors
    ///
    /// Filesystem errors or a malformed container.
    pub fn read(path: &Path) -> io::Result<Timeline> {
        Timeline::decode(&mut io::BufReader::new(fs::File::open(path)?))
    }

    /// Decodes a `.tl` container from any seekable reader, from its
    /// current position to its end. The header's counts are untrusted:
    /// the channel table must fit in the bytes that follow the header,
    /// and the rows must fill exactly what the table leaves, before
    /// anything is sized by them.
    ///
    /// # Errors
    ///
    /// Read errors, or `InvalidData` for a malformed container: bad
    /// magic, version or kind code, or counts the container's length
    /// cannot hold.
    pub fn decode<R: Read + Seek>(r: &mut R) -> io::Result<Timeline> {
        let start = r.stream_position()?;
        let len = r.seek(SeekFrom::End(0))?.saturating_sub(start);
        r.seek(SeekFrom::Start(start))?;
        if len < HEADER_BYTES {
            return Err(corrupt("shorter than a timeline header"));
        }
        let mut fixed = [0u8; HEADER_BYTES as usize];
        r.read_exact(&mut fixed)?;
        if fixed[..8] != TIMELINE_MAGIC {
            return Err(corrupt("not a timeline (bad magic)"));
        }
        let version = u16::from_le_bytes([fixed[8], fixed[9]]);
        if version != TIMELINE_VERSION {
            // lint: allow(H2): tooling-side `.tl` decode (timeline-dump,
            // obs-diff); linked to replay only by name-based resolution of
            // `read`.
            return Err(corrupt(format!(
                "unsupported timeline version {version} (this build reads {TIMELINE_VERSION})"
            )));
        }
        let channel_count = u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes"));
        let rows = u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes"));
        let interval_ns = u64::from_le_bytes(fixed[24..32].try_into().expect("8 bytes"));
        if interval_ns == 0 {
            return Err(corrupt("zero sample interval"));
        }
        // Each table entry takes at least its 3-byte kind and length.
        let mut left = len - HEADER_BYTES;
        if u64::from(channel_count) * 3 > left {
            return Err(corrupt("channel count exceeds the container length"));
        }
        let channel_count = channel_count as usize;
        // lint: allow(H2): tooling-side `.tl` decode (timeline-dump,
        // obs-diff); linked to replay only by name-based resolution of
        // `read`.
        let mut channels = Vec::with_capacity(channel_count);
        for _ in 0..channel_count {
            let mut head = [0u8; 3];
            r.read_exact(&mut head)?;
            let kind = ChannelKind::from_code(head[0])
                // lint: allow(H2): tooling-side `.tl` decode (timeline-dump,
                // obs-diff); linked to replay only by name-based resolution of
                // `read`.
                .ok_or_else(|| corrupt(format!("unknown channel kind code {}", head[0])))?;
            let name_len = u16::from_le_bytes([head[1], head[2]]);
            left = left
                .checked_sub(3 + u64::from(name_len))
                .ok_or_else(|| corrupt("channel table exceeds the container length"))?;
            // lint: allow(H2): tooling-side `.tl` decode (timeline-dump,
            // obs-diff); linked to replay only by name-based resolution of
            // `read`.
            let mut name = vec![0u8; usize::from(name_len)];
            r.read_exact(&mut name)?;
            let name = String::from_utf8(name).map_err(|_| corrupt("channel name is not UTF-8"))?;
            channels.push(Channel { name, kind });
        }
        if rows.checked_mul(channel_count as u64 * 8) != Some(left) {
            return Err(corrupt("row count disagrees with the container length"));
        }
        let n_values = usize::try_from(left / 8)
            .map_err(|_| corrupt("row data exceeds this host's address space"))?;
        // lint: allow(H2): tooling-side `.tl` decode (timeline-dump, obs-diff);
        // linked to replay only by name-based resolution of `read`.
        let mut values = vec![0u64; n_values];
        // Row-major, so a value's predecessor in its channel sits one
        // row width back; row 0 is delta-encoded against zeros.
        let mut buf = [0u8; 8];
        for i in 0..values.len() {
            r.read_exact(&mut buf)?;
            let prev = i.checked_sub(channel_count).map_or(0, |j| values[j]);
            values[i] = prev.wrapping_add(u64::from_le_bytes(buf));
        }
        Ok(Timeline {
            interval: SimDuration::from_nanos(interval_ns),
            channels,
            values,
        })
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The channel table, in sampling order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Number of sample rows.
    pub fn rows(&self) -> usize {
        if self.channels.is_empty() {
            0
        } else {
            self.values.len() / self.channels.len()
        }
    }

    /// Index of the channel named `name`.
    pub fn channel_index(&self, name: &str) -> Option<usize> {
        self.channels.iter().position(|c| c.name == name)
    }

    /// Raw 64-bit word at `(row, channel)`.
    pub fn value(&self, row: usize, channel: usize) -> u64 {
        self.values[row * self.channels.len() + channel]
    }

    /// Gauge level at `(row, channel)`.
    pub fn gauge(&self, row: usize, channel: usize) -> f64 {
        f64::from_bits(self.value(row, channel))
    }

    /// The last row's raw word for `channel`, or 0 with no rows.
    pub fn final_value(&self, channel: usize) -> u64 {
        match self.rows() {
            0 => 0,
            r => self.value(r - 1, channel),
        }
    }

    /// Iterates one channel's raw words across all rows.
    pub fn series(&self, channel: usize) -> impl Iterator<Item = u64> + '_ {
        (0..self.rows()).map(move |r| self.value(r, channel))
    }
}

/// Summary of a sealed timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Sample rows written.
    pub rows: u64,
    /// Channels per row.
    pub channels: u64,
}

/// Object-safe `Write + Seek`, so a machine can hold a boxed sink
/// without being generic over it (one virtual call per sample row, not
/// per operation).
pub trait SeekWrite: Write + Seek {}
impl<T: Write + Seek> SeekWrite for T {}

impl std::fmt::Debug for dyn SeekWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn SeekWrite")
    }
}

/// The machine-facing sampler: owns the writer, the boundary schedule,
/// and the reused sampling buffer. The machine checks [`Self::due`] on
/// its maintenance tick and calls [`Self::sample`] with a closure that
/// fills every registered channel (the same walk that produced the
/// schema).
#[derive(Debug)]
pub struct TimelineSink {
    w: TimelineWriter<Box<dyn SeekWrite>>,
    interval_ns: u64,
    next_due: SimTime,
    buf: SampleBuf,
}

impl TimelineSink {
    /// Seals `schema` (prepending the [`TICK_CHANNEL`]) into `sink` and
    /// schedules the first sample at the boundary containing `now`.
    ///
    /// # Errors
    ///
    /// Write errors from the sink.
    pub fn new(
        sink: Box<dyn SeekWrite>,
        schema: &Schema,
        interval: SimDuration,
        now: SimTime,
    ) -> io::Result<TimelineSink> {
        let mut full = Schema {
            channels: Vec::with_capacity(schema.channels.len() + 1),
        };
        full.channels.push(Channel {
            name: TICK_CHANNEL.to_owned(),
            kind: ChannelKind::Counter,
        });
        full.channels.extend(schema.channels.iter().cloned());
        full.assert_unique();
        let interval_ns = interval.as_nanos();
        let channels = full.channels.len();
        let w = TimelineWriter::new(sink, &full, interval)?;
        Ok(TimelineSink {
            w,
            interval_ns,
            // First sample at the boundary of the current interval, so
            // row 0 carries the machine's starting state.
            next_due: SimTime::from_nanos(now.as_nanos() / interval_ns * interval_ns),
            buf: SampleBuf::sampling(channels),
        })
    }

    /// Whether the next boundary has been reached.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.w.rows()
    }

    /// Takes one sample: pushes the tick index, lets `fill` append every
    /// schema channel, writes the row, and schedules the next boundary.
    /// Allocation-free in steady state — the value buffer and the
    /// writer's scratch are reused, and `fill` runs in sampling mode.
    ///
    /// # Errors
    ///
    /// Write errors from the sink.
    // lint: hot-path
    pub fn sample(&mut self, now: SimTime, fill: impl FnOnce(&mut SampleBuf)) -> io::Result<()> {
        let tick = now.as_nanos() / self.interval_ns;
        self.buf.values.clear();
        self.buf.values.push(tick);
        fill(&mut self.buf);
        self.w.push_row(&self.buf.values)?;
        self.next_due = SimTime::from_nanos((tick + 1) * self.interval_ns);
        Ok(())
    }

    /// Seals the container (back-patching the row count) and drops the
    /// sink.
    ///
    /// # Errors
    ///
    /// Write/seek errors from the sink.
    pub fn finish(self) -> io::Result<TimelineSummary> {
        let channels = self.w.channels as u64;
        let (rows, _sink) = self.w.finish()?;
        Ok(TimelineSummary { rows, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn schema(names: &[(&str, ChannelKind)]) -> Schema {
        Schema {
            channels: names
                .iter()
                .map(|(n, k)| Channel {
                    name: (*n).to_owned(),
                    kind: *k,
                })
                .collect(),
        }
    }

    #[test]
    fn writer_reader_round_trip_with_extreme_values() {
        let s = schema(&[
            ("a.count", ChannelKind::Counter),
            ("b.level", ChannelKind::Gauge),
            ("c.count", ChannelKind::Counter),
        ]);
        let interval = SimDuration::from_nanos(1_000);
        let mut w = TimelineWriter::new(Cursor::new(Vec::new()), &s, interval).expect("header");
        // Counters that wrap backwards through delta encoding, gauges
        // with negative and extreme levels.
        let rows: Vec<[u64; 3]> = vec![
            [0, (0.0f64).to_bits(), u64::MAX],
            [10, (-1.5f64).to_bits(), 0],
            [10, f64::MAX.to_bits(), 7],
            [u64::MAX, (1.0e-300f64).to_bits(), 7],
        ];
        for r in &rows {
            w.push_row(r).expect("row");
        }
        assert_eq!(w.rows(), 4);
        let (n, sink) = w.finish().expect("finish");
        assert_eq!(n, 4);

        let bytes = sink.into_inner();
        let tl = Timeline::decode(&mut Cursor::new(&bytes)).expect("decode");
        assert_eq!(tl.interval(), interval);
        assert_eq!(tl.channels(), s.channels.as_slice());
        assert_eq!(tl.rows(), 4);
        for (r, want) in rows.iter().enumerate() {
            for (c, &v) in want.iter().enumerate() {
                assert_eq!(tl.value(r, c), v, "row {r} channel {c}");
            }
        }
        assert_eq!(tl.gauge(1, 1), -1.5);
        assert_eq!(tl.final_value(2), 7);
        assert_eq!(tl.series(0).collect::<Vec<_>>(), vec![0, 10, 10, u64::MAX]);
    }

    fn fill<S: MetricSink>(sink: &mut S, gc: u64, amp: f64) {
        sink.counter("storage.gc_runs", gc);
        sink.gauge("storage.write_amplification", amp);
    }

    #[test]
    fn registration_and_sampling_share_one_walk() {
        let mut reg = SampleBuf::registration();
        fill(&mut reg, 0, 1.0);
        let schema = reg.into_schema();
        assert_eq!(schema.channels.len(), 2);
        assert_eq!(schema.channels[0].name, "storage.gc_runs");
        assert_eq!(schema.channels[0].kind, ChannelKind::Counter);
        assert_eq!(schema.channels[1].kind, ChannelKind::Gauge);

        let mut sink = TimelineSink::new(
            Box::new(Cursor::new(Vec::new())),
            &schema,
            SimDuration::from_nanos(100),
            SimTime::ZERO,
        )
        .expect("sink");
        assert!(sink.due(SimTime::ZERO), "row 0 is due immediately");
        sink.sample(SimTime::ZERO, |buf| fill(buf, 3, 1.5))
            .expect("sample");
        assert!(!sink.due(SimTime::from_nanos(99)));
        assert!(sink.due(SimTime::from_nanos(100)));
        // A large jump lands on its own boundary, not every missed one.
        sink.sample(SimTime::from_nanos(1_050), |buf| fill(buf, 8, 1.25))
            .expect("sample");
        assert!(!sink.due(SimTime::from_nanos(1_099)));
        assert_eq!(sink.rows(), 2);
        let summary = sink.finish().expect("finish");
        assert_eq!(summary.rows, 2);
        assert_eq!(summary.channels, 3, "tick channel is prepended");
    }

    /// One walk, two sinks: scalars reach both, the counter family only
    /// the timeline, the ledger only the registry, and a time-weighted
    /// instrument samples as its current level.
    #[test]
    fn family_and_ledger_each_feed_one_sink() {
        use crate::obs::MetricsRegistry;
        use crate::{Energy, EnergyLedger};
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_nanos(10), 4.0);
        let mut ledger = EnergyLedger::new();
        ledger.charge("flash.read", Energy::from_nanojoules(7));
        fn publish<S: MetricSink>(sink: &mut S, tw: &TimeWeighted, ledger: &EnergyLedger) {
            sink.counter("a.count", 5);
            sink.time_weighted("a.level", tw);
            sink.counter_family("a.wear", 2, |i| 10 + i as u64);
            sink.ledger("energy.", ledger);
        }
        let mut reg = SampleBuf::registration();
        publish(&mut reg, &tw, &ledger);
        assert_eq!(reg.values, vec![5, 4.0f64.to_bits(), 10, 11]);
        let names: Vec<String> = reg
            .into_schema()
            .channels
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, ["a.count", "a.level", "a.wear.0000", "a.wear.0001"]);

        let mut registry = MetricsRegistry::new();
        publish(&mut registry, &tw, &ledger);
        let names: Vec<&str> = registry.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.count", "a.level", "energy.flash.read_nj"]);
        assert_eq!(registry.counter_value("energy.flash.read_nj"), Some(7));
    }

    #[test]
    #[should_panic(expected = "duplicate timeline channel")]
    fn duplicate_channel_names_are_rejected() {
        let mut reg = SampleBuf::registration();
        reg.counter("dup", 1);
        reg.counter("dup", 2);
        let _ = reg.into_schema();
    }

    #[test]
    fn corrupt_containers_fail_to_decode() {
        let s = schema(&[("x", ChannelKind::Counter)]);
        let mut w = TimelineWriter::new(Cursor::new(Vec::new()), &s, SimDuration::from_nanos(5))
            .expect("header");
        w.push_row(&[42]).expect("row");
        let (_, sink) = w.finish().expect("finish");
        let good = sink.into_inner();

        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let cases = [
            ("bad magic", b"NOTMAGIC".to_vec()),
            ("bad version", patched(8, &[99])),
            (
                "unknown channel kind code",
                patched(HEADER_BYTES as usize, &[7]),
            ),
            ("truncated rows", good[..good.len() - 4].to_vec()),
            // Counts no allocation may trust: 2^40 rows of one channel
            // would be 8 TiB, and 2^32 − 1 table entries 137 GB.
            (
                "row count 2^40",
                patched(ROWS_OFFSET as usize, &(1u64 << 40).to_le_bytes()),
            ),
            (
                "channel count 2^32 - 1",
                patched(12, &u32::MAX.to_le_bytes()),
            ),
        ];
        for (what, bad) in cases {
            let err = Timeline::decode(&mut Cursor::new(bad)).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }

        // The untouched container still decodes.
        let tl = Timeline::decode(&mut Cursor::new(good)).expect("decode");
        assert_eq!(tl.final_value(0), 42);
    }

    #[test]
    fn file_round_trip() {
        let path =
            std::env::temp_dir().join(format!("ssmc-timeline-test-{}.tl", std::process::id()));
        let s = schema(&[("n", ChannelKind::Counter), ("g", ChannelKind::Gauge)]);
        let mut w = TimelineWriter::create(&path, &s, SimDuration::from_micros(1)).expect("create");
        w.push_row(&[1, (0.5f64).to_bits()]).expect("row");
        w.push_row(&[5, (0.25f64).to_bits()]).expect("row");
        w.finish().expect("finish");
        let tl = Timeline::read(&path).expect("read");
        assert_eq!(tl.rows(), 2);
        assert_eq!(tl.channel_index("g"), Some(1));
        assert_eq!(tl.gauge(1, 1), 0.25);
        let _ = fs::remove_file(&path);
    }
}
