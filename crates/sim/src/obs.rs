//! Deterministic cross-layer observability: a span journal and a metrics
//! registry.
//!
//! The paper's arguments are attribution claims — where time, energy, and
//! flash wear go as an operation crosses vm → memfs → storage → device. This
//! module gives every layer a shared, simulation-time-stamped substrate for
//! making that attribution visible:
//!
//! * a [`Recorder`] handle each layer holds and emits [`Span`]s into,
//! * a bounded ring-buffer **journal** of op-scoped events plus
//!   never-dropping per-kind aggregates (count, latency [`Histogram`],
//!   energy, pages, bytes),
//! * a [`MetricsRegistry`] unifying named counters, gauges, [`Histogram`]s
//!   and [`TimeWeighted`] instruments behind one snapshot serialized via the
//!   in-tree `report` model, filled by each layer's one [`MetricSink`] walk.
//!
//! Determinism rules: events carry only [`SimTime`] stamps (never the wall
//! clock), aggregates iterate in fixed [`EventKind`] order, and registry
//! entries iterate in name order — so a fixed-seed journal serializes to
//! byte-identical JSON across repeated runs and `--threads` settings.
//!
//! Disabled cost: a [`Recorder`] is a cloneable
//! `Option<Rc<RefCell<…>>>` handle, the same idiom as
//! [`SharedClock`](crate::SharedClock). When disabled (`None`) an emit is a
//! single branch — the span-constructing closure never runs, nothing
//! allocates, and no `Box<dyn>` dispatch exists anywhere on the path — which
//! preserves the allocation-free replay hot path.

use crate::energy::{Energy, EnergyLedger};
use crate::report::{field, FromReport, ReportError, ToReport, Value};
use crate::stats::{Histogram, TimeWeighted};
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default journal ring capacity, in events.
///
/// The per-kind aggregates never drop, so a modest ring is enough to keep a
/// tail of raw events for inspection without journal snapshots ballooning.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// The layer of the machine that emitted a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ssmc-core::machine` trace-op root spans.
    Machine,
    /// `ssmc-vm` fault and XIP paths.
    Vm,
    /// `ssmc-memfs` file operations.
    MemFs,
    /// `ssmc-storage` flush / GC / wear-level / stall.
    Storage,
    /// `ssmc-device` flash and disk primitives.
    Device,
}

/// All layers, in display order.
pub const LAYERS: [Layer; 5] = [
    Layer::Machine,
    Layer::Vm,
    Layer::MemFs,
    Layer::Storage,
    Layer::Device,
];

impl Layer {
    /// Stable lowercase name used in serialized journals.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Machine => "machine",
            Layer::Vm => "vm",
            Layer::MemFs => "memfs",
            Layer::Storage => "storage",
            Layer::Device => "device",
        }
    }
}

/// What a span covers. Each kind belongs to exactly one [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    // Machine-layer root spans: one per replayed trace operation.
    /// `FileOp::Create` root span.
    TraceCreate,
    /// `FileOp::Write` root span.
    TraceWrite,
    /// `FileOp::Read` root span.
    TraceRead,
    /// `FileOp::Truncate` root span.
    TraceTruncate,
    /// `FileOp::Delete` root span.
    TraceDelete,
    /// `FileOp::Sync` root span.
    TraceSync,
    /// `FileOp::Stat` root span.
    TraceStat,
    /// `FileOp::Rename` root span.
    TraceRename,
    // Vm layer.
    /// A page fault (minor or major; `pages` counts major loads).
    VmFault,
    /// An execute-in-place / mapped-file fetch served straight from storage.
    VmXip,
    // MemFs layer.
    /// `MemFs::open`, including any copy-on-open page copies.
    FsOpen,
    /// `MemFs::read`.
    FsRead,
    /// `MemFs::write`.
    FsWrite,
    // Storage layer.
    /// A write-buffer flush of one or more dirty pages to flash.
    StorageFlush,
    /// One garbage-collection run (victim selection + live copy-out).
    StorageGc,
    /// One wear-leveling migration pass.
    StorageWearLevel,
    /// A foreground stall waiting for an erase to free a segment.
    StorageStall,
    /// A checkpoint of the mapping tables.
    StorageCheckpoint,
    // Device layer.
    /// One flash page read (including any bank-busy stall).
    FlashRead,
    /// One flash page program, spanning submit to bank-idle.
    FlashProgram,
    /// One flash block erase, spanning submit to bank-idle.
    FlashErase,
    /// One disk access (seek + rotation + transfer; spin-up excluded).
    DiskSeek,
}

/// All event kinds, in the fixed order aggregates serialize in.
pub const EVENT_KINDS: [EventKind; 22] = [
    EventKind::TraceCreate,
    EventKind::TraceWrite,
    EventKind::TraceRead,
    EventKind::TraceTruncate,
    EventKind::TraceDelete,
    EventKind::TraceSync,
    EventKind::TraceStat,
    EventKind::TraceRename,
    EventKind::VmFault,
    EventKind::VmXip,
    EventKind::FsOpen,
    EventKind::FsRead,
    EventKind::FsWrite,
    EventKind::StorageFlush,
    EventKind::StorageGc,
    EventKind::StorageWearLevel,
    EventKind::StorageStall,
    EventKind::StorageCheckpoint,
    EventKind::FlashRead,
    EventKind::FlashProgram,
    EventKind::FlashErase,
    EventKind::DiskSeek,
];

impl EventKind {
    /// Stable dotted name used in serialized journals.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TraceCreate => "trace.create",
            EventKind::TraceWrite => "trace.write",
            EventKind::TraceRead => "trace.read",
            EventKind::TraceTruncate => "trace.truncate",
            EventKind::TraceDelete => "trace.delete",
            EventKind::TraceSync => "trace.sync",
            EventKind::TraceStat => "trace.stat",
            EventKind::TraceRename => "trace.rename",
            EventKind::VmFault => "vm.fault",
            EventKind::VmXip => "vm.xip",
            EventKind::FsOpen => "fs.open",
            EventKind::FsRead => "fs.read",
            EventKind::FsWrite => "fs.write",
            EventKind::StorageFlush => "storage.flush",
            EventKind::StorageGc => "storage.gc",
            EventKind::StorageWearLevel => "storage.wear_level",
            EventKind::StorageStall => "storage.stall",
            EventKind::StorageCheckpoint => "storage.checkpoint",
            EventKind::FlashRead => "flash.read",
            EventKind::FlashProgram => "flash.program",
            EventKind::FlashErase => "flash.erase",
            EventKind::DiskSeek => "disk.seek",
        }
    }

    /// Parses a serialized kind name.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EVENT_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// The layer this kind of span is emitted from.
    pub fn layer(self) -> Layer {
        match self {
            EventKind::TraceCreate
            | EventKind::TraceWrite
            | EventKind::TraceRead
            | EventKind::TraceTruncate
            | EventKind::TraceDelete
            | EventKind::TraceSync
            | EventKind::TraceStat
            | EventKind::TraceRename => Layer::Machine,
            EventKind::VmFault | EventKind::VmXip => Layer::Vm,
            EventKind::FsOpen | EventKind::FsRead | EventKind::FsWrite => Layer::MemFs,
            EventKind::StorageFlush
            | EventKind::StorageGc
            | EventKind::StorageWearLevel
            | EventKind::StorageStall
            | EventKind::StorageCheckpoint => Layer::Storage,
            EventKind::FlashRead
            | EventKind::FlashProgram
            | EventKind::FlashErase
            | EventKind::DiskSeek => Layer::Device,
        }
    }

    fn index(self) -> usize {
        EVENT_KINDS
            .iter()
            .position(|k| *k == self)
            .expect("kind in EVENT_KINDS")
    }
}

/// What instrumented code constructs when a span closes.
///
/// The op id is stamped by the journal (spans inherit the machine-level op
/// in flight), so layers never thread ids through call chains.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: EventKind,
    /// Simulated start of the span.
    pub start: SimTime,
    /// Simulated end of the span.
    pub end: SimTime,
    /// Energy attributed to the span. Device spans carry device energy;
    /// machine root spans carry the whole-machine delta — sum one level,
    /// not both.
    pub energy: Energy,
    /// Pages moved (flushed, collected, migrated, faulted in…).
    pub pages: u64,
    /// Bytes moved.
    pub bytes: u64,
}

/// A journaled event: a [`Span`] stamped with its enclosing op id.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Machine-level trace-op id the span occurred under (0 = outside any).
    pub op: u64,
    /// The span itself.
    pub span: Span,
}

impl ToReport for Event {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("op", self.op.to_report()),
            ("layer", self.span.kind.layer().name().to_report()),
            ("kind", self.span.kind.name().to_report()),
            ("start", self.span.start.to_report()),
            ("end", self.span.end.to_report()),
            ("energy", self.span.energy.to_report()),
            ("pages", self.span.pages.to_report()),
            ("bytes", self.span.bytes.to_report()),
        ])
    }
}

impl FromReport for Event {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        let kind_name: String = field(v, "kind")?;
        let kind = EventKind::from_name(&kind_name)
            .ok_or_else(|| ReportError::schema(format!("unknown event kind `{kind_name}`")))?;
        Ok(Event {
            op: field(v, "op")?,
            span: Span {
                kind,
                start: field(v, "start")?,
                end: field(v, "end")?,
                energy: field(v, "energy")?,
                pages: field(v, "pages")?,
                bytes: field(v, "bytes")?,
            },
        })
    }
}

/// Never-dropping per-kind totals, kept alongside the bounded ring so
/// `trace-dump` histograms cover every event of a run, not just the tail.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Spans recorded for this kind.
    pub count: u64,
    /// Distribution of span latencies (`end - start`), in nanoseconds.
    pub latency: Histogram,
    /// Total energy across spans.
    pub energy: Energy,
    /// Total pages across spans.
    pub pages: u64,
    /// Total bytes across spans.
    pub bytes: u64,
}

/// One `(kind, aggregate)` row of a serialized journal.
#[derive(Debug, Clone)]
pub struct AggregateRow {
    /// The span kind the row totals.
    pub kind: EventKind,
    /// The totals.
    pub agg: Aggregate,
}

impl ToReport for AggregateRow {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("layer", self.kind.layer().name().to_report()),
            ("kind", self.kind.name().to_report()),
            ("count", self.agg.count.to_report()),
            ("latency", self.agg.latency.to_report()),
            ("energy", self.agg.energy.to_report()),
            ("pages", self.agg.pages.to_report()),
            ("bytes", self.agg.bytes.to_report()),
        ])
    }
}

impl FromReport for AggregateRow {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        let kind_name: String = field(v, "kind")?;
        let kind = EventKind::from_name(&kind_name)
            .ok_or_else(|| ReportError::schema(format!("unknown event kind `{kind_name}`")))?;
        Ok(AggregateRow {
            kind,
            agg: Aggregate {
                count: field(v, "count")?,
                latency: field(v, "latency")?,
                energy: field(v, "energy")?,
                pages: field(v, "pages")?,
                bytes: field(v, "bytes")?,
            },
        })
    }
}

struct Inner {
    capacity: usize,
    ring: Vec<Event>,
    /// Oldest event when the ring is full; next overwrite target.
    head: usize,
    dropped: u64,
    next_op: u64,
    current_op: u64,
    ops: u64,
    aggs: Vec<Aggregate>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("events", &self.ring.len())
            .field("dropped", &self.dropped)
            .field("ops", &self.ops)
            .finish()
    }
}

impl Inner {
    fn new(capacity: usize) -> Inner {
        Inner {
            capacity: capacity.max(1),
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            dropped: 0,
            next_op: 0,
            current_op: 0,
            ops: 0,
            aggs: vec![Aggregate::default(); EVENT_KINDS.len()],
        }
    }

    fn push(&mut self, op: u64, span: Span) {
        let agg = &mut self.aggs[span.kind.index()];
        agg.count += 1;
        agg.latency.record(span.end.since(span.start).as_nanos());
        agg.energy = agg.energy.saturating_add(span.energy);
        agg.pages += span.pages;
        agg.bytes += span.bytes;
        let ev = Event { op, span };
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> JournalSnapshot {
        let mut events = Vec::with_capacity(self.ring.len());
        events.extend_from_slice(&self.ring[self.head..]);
        events.extend_from_slice(&self.ring[..self.head]);
        JournalSnapshot {
            ops: self.ops,
            dropped: self.dropped,
            capacity: self.capacity as u64,
            aggregates: EVENT_KINDS
                .iter()
                .zip(&self.aggs)
                .filter(|(_, a)| a.count > 0)
                .map(|(k, a)| AggregateRow {
                    kind: *k,
                    agg: a.clone(),
                })
                .collect(),
            events,
        }
    }
}

/// The recorder handle every layer holds.
///
/// Cloning is cheap (an `Rc` bump); all clones share one journal. The
/// default handle is disabled and costs one branch per would-be span.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Recorder {
    /// The no-op recorder: every emit is a single not-taken branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder journaling into a ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Inner::new(capacity)))),
        }
    }

    /// Whether spans are being journaled. Use to guard span-only work
    /// (e.g. energy-total sampling) that `emit`'s closure can't defer.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the span `f` constructs. When disabled, `f` never runs.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Span) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let op = inner.current_op;
            inner.push(op, f());
        }
    }

    /// Opens a machine-level root op; spans emitted until the matching
    /// [`end_op`](Recorder::end_op) inherit its id. Returns 0 when disabled.
    pub fn begin_op(&self) -> u64 {
        match &self.inner {
            Some(inner) => {
                let mut inner = inner.borrow_mut();
                inner.next_op += 1;
                inner.current_op = inner.next_op;
                inner.current_op
            }
            None => 0,
        }
    }

    /// Closes the root op `op`, journaling its span.
    pub fn end_op(&self, op: u64, span: Span) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            inner.current_op = 0;
            inner.ops += 1;
            inner.push(op, span);
        }
    }

    /// Snapshots the journal for serialization. `None` when disabled.
    pub fn snapshot(&self) -> Option<JournalSnapshot> {
        self.inner.as_ref().map(|inner| inner.borrow().snapshot())
    }
}

/// A serializable view of the journal: ring contents in age order plus the
/// never-dropping per-kind aggregates.
#[derive(Debug, Clone)]
pub struct JournalSnapshot {
    /// Root ops completed.
    pub ops: u64,
    /// Events overwritten out of the ring.
    pub dropped: u64,
    /// Ring capacity the journal ran with.
    pub capacity: u64,
    /// Per-kind totals over the whole run, in [`EVENT_KINDS`] order,
    /// omitting kinds never seen.
    pub aggregates: Vec<AggregateRow>,
    /// The retained tail of raw events, oldest first.
    pub events: Vec<Event>,
}

impl JournalSnapshot {
    /// The aggregate row for `kind`, if any spans of it were recorded.
    pub fn aggregate(&self, kind: EventKind) -> Option<&AggregateRow> {
        self.aggregates.iter().find(|r| r.kind == kind)
    }

    /// Sums `(count, latency-sum ns, energy, pages, bytes)` over the
    /// aggregates of `layer`.
    pub fn layer_totals(&self, layer: Layer) -> (u64, u128, Energy, u64, u64) {
        let mut totals = (0u64, 0u128, Energy::ZERO, 0u64, 0u64);
        for row in self.aggregates.iter().filter(|r| r.kind.layer() == layer) {
            totals.0 += row.agg.count;
            totals.1 += row.agg.latency.sum();
            totals.2 = totals.2.saturating_add(row.agg.energy);
            totals.3 += row.agg.pages;
            totals.4 += row.agg.bytes;
        }
        totals
    }
}

impl ToReport for JournalSnapshot {
    fn to_report(&self) -> Value {
        Value::object(vec![
            ("ops", self.ops.to_report()),
            ("dropped", self.dropped.to_report()),
            ("capacity", self.capacity.to_report()),
            ("aggregates", self.aggregates.to_report()),
            ("events", self.events.to_report()),
        ])
    }
}

impl FromReport for JournalSnapshot {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        Ok(JournalSnapshot {
            ops: field(v, "ops")?,
            dropped: field(v, "dropped")?,
            capacity: field(v, "capacity")?,
            aggregates: field(v, "aggregates")?,
            events: field(v, "events")?,
        })
    }
}

/// One named instrument in a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub enum Instrument {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A latency/size distribution.
    Histogram(Histogram),
    /// A time-weighted level (occupancy, exposure, frames in use).
    TimeWeighted(TimeWeighted),
}

impl ToReport for Instrument {
    fn to_report(&self) -> Value {
        // Externally tagged, like `Cell` in the checked-in results files.
        match self {
            Instrument::Counter(v) => Value::object(vec![("Counter", v.to_report())]),
            Instrument::Gauge(v) => Value::object(vec![("Gauge", v.to_report())]),
            Instrument::Histogram(h) => Value::object(vec![("Histogram", h.to_report())]),
            Instrument::TimeWeighted(t) => Value::object(vec![("TimeWeighted", t.to_report())]),
        }
    }
}

impl FromReport for Instrument {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        match v.as_object() {
            Some([(tag, inner)]) => match tag.as_str() {
                "Counter" => Ok(Instrument::Counter(u64::from_report(inner)?)),
                "Gauge" => Ok(Instrument::Gauge(f64::from_report(inner)?)),
                "Histogram" => Ok(Instrument::Histogram(Histogram::from_report(inner)?)),
                "TimeWeighted" => Ok(Instrument::TimeWeighted(TimeWeighted::from_report(inner)?)),
                other => Err(ReportError::schema(format!(
                    "unknown Instrument variant `{other}`"
                ))),
            },
            _ => Err(ReportError::schema(
                "expected single-variant Instrument object",
            )),
        }
    }
}

/// Where a layer's one metrics walk sends its instruments.
///
/// Every layer lists its instruments exactly once, in a `publish_metrics`
/// walk generic over this trait. Two sinks consume the walk: the
/// end-of-run [`MetricsRegistry`] and the timeline's
/// [`SampleBuf`](crate::timeline::SampleBuf), which turns the same walk
/// into one fixed-width row per sample — so the registry and the
/// timeline schema cannot drift apart.
///
/// Scalar instruments carry `'static` names and land in both sinks. The
/// two family methods are the only ones that format names, and each
/// feeds one sink only:
///
/// * [`counter_family`](MetricSink::counter_family) is timeline-only
///   (per-segment wear would add ~1,000 registry entries on a 64 MB
///   part, and the registry already carries the wear summary);
/// * [`ledger`](MetricSink::ledger) is registry-only (ledger accounts
///   appear on first charge, while a timeline row's width is fixed when
///   the timeline is registered).
pub trait MetricSink {
    /// A monotonically accumulated count.
    fn counter(&mut self, name: &'static str, v: u64);

    /// A point-in-time level.
    fn gauge(&mut self, name: &'static str, v: f64);

    /// A time-weighted level: the registry keeps the whole instrument, a
    /// timeline row samples its current level (the timeline itself is
    /// the time-weighting).
    fn time_weighted(&mut self, name: &'static str, t: &TimeWeighted);

    /// Timeline only: `n` counters named `{prefix}.{i:04}`, valued
    /// `value_of(i)`.
    fn counter_family(
        &mut self,
        prefix: &'static str,
        n: usize,
        value_of: impl FnMut(usize) -> u64,
    );

    /// Registry only: one counter per ledger account, named
    /// `{prefix}{component}_nj`.
    fn ledger(&mut self, prefix: &'static str, ledger: &EnergyLedger);
}

/// A unified snapshot of every named instrument in the machine.
///
/// Layers publish into the registry under dotted names (`storage.gc_runs`,
/// `vm.frames_used`, …); entries iterate and serialize in name order, so a
/// snapshot of a fixed-seed run is byte-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, Instrument>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Publishes a counter value.
    pub fn counter(&mut self, name: &str, v: u64) {
        self.insert(name, Instrument::Counter(v));
    }

    /// Publishes a gauge level.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.insert(name, Instrument::Gauge(v));
    }

    /// Publishes a histogram.
    pub fn histogram(&mut self, name: &str, h: Histogram) {
        self.insert(name, Instrument::Histogram(h));
    }

    /// Publishes a time-weighted level.
    pub fn time_weighted(&mut self, name: &str, t: TimeWeighted) {
        self.insert(name, Instrument::TimeWeighted(t));
    }

    /// Stores `inst` under `name`, replacing any earlier value.
    fn insert(&mut self, name: &str, inst: Instrument) {
        // lint: allow(H2): registry publication runs once at end of run. The
        // timeline sampler's walk is monomorphized to SampleBuf and meets
        // the registry only through name-based call resolution.
        self.entries.insert(name.to_owned(), inst);
    }

    /// Looks up an instrument by name.
    pub fn get(&self, name: &str) -> Option<&Instrument> {
        self.entries.get(name)
    }

    /// The value of a counter, if `name` is one.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(Instrument::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The level of a gauge, if `name` is one.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.entries.get(name) {
            Some(Instrument::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Number of instruments registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, instrument)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Instrument)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl MetricSink for MetricsRegistry {
    fn counter(&mut self, name: &'static str, v: u64) {
        MetricsRegistry::counter(self, name, v);
    }

    fn gauge(&mut self, name: &'static str, v: f64) {
        MetricsRegistry::gauge(self, name, v);
    }

    fn time_weighted(&mut self, name: &'static str, t: &TimeWeighted) {
        // lint: allow(H2): registry-only copy at end of run; the sampler's
        // SampleBuf reads the level in place.
        MetricsRegistry::time_weighted(self, name, t.clone());
    }

    fn counter_family(
        &mut self,
        _prefix: &'static str,
        _n: usize,
        _value_of: impl FnMut(usize) -> u64,
    ) {
    }

    fn ledger(&mut self, prefix: &'static str, ledger: &EnergyLedger) {
        for (component, e) in ledger.iter() {
            // lint: allow(H2): ledger names are formatted in the registry
            // sink only; SampleBuf's ledger is a no-op.
            let name = format!("{prefix}{component}_nj");
            MetricsRegistry::counter(self, &name, e.as_nanojoules());
        }
    }
}

impl ToReport for MetricsRegistry {
    fn to_report(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_report()))
                .collect(),
        )
    }
}

impl FromReport for MetricsRegistry {
    fn from_report(v: &Value) -> Result<Self, ReportError> {
        let obj = v
            .as_object()
            .ok_or_else(|| ReportError::schema("expected registry object"))?;
        let mut entries = BTreeMap::new();
        for (k, inner) in obj {
            entries.insert(k.clone(), Instrument::from_report(inner)?);
        }
        Ok(MetricsRegistry { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn span(kind: EventKind, start_ns: u64, dur_ns: u64) -> Span {
        let start = SimTime::from_nanos(start_ns);
        Span {
            kind,
            start,
            end: start + SimDuration::from_nanos(dur_ns),
            energy: Energy::from_nanojoules(dur_ns / 2),
            pages: 1,
            bytes: 4096,
        }
    }

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.emit(|| unreachable!("closure must not run when disabled"));
        assert_eq!(rec.begin_op(), 0);
        assert!(rec.snapshot().is_none());
    }

    #[test]
    fn spans_inherit_the_open_op_id() {
        let rec = Recorder::enabled(16);
        let outside = span(EventKind::FlashRead, 0, 10);
        rec.emit(|| outside);
        let op = rec.begin_op();
        assert_eq!(op, 1);
        rec.emit(|| span(EventKind::FsWrite, 10, 20));
        rec.end_op(op, span(EventKind::TraceWrite, 10, 30));
        rec.emit(|| span(EventKind::FlashRead, 50, 10));
        let snap = rec.snapshot().expect("enabled");
        assert_eq!(snap.ops, 1);
        let ops: Vec<u64> = snap.events.iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![0, 1, 1, 0]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = Recorder::enabled(4);
        for i in 0..7 {
            rec.emit(|| span(EventKind::FlashRead, i * 100, 10));
        }
        let snap = rec.snapshot().expect("enabled");
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.events.len(), 4);
        let starts: Vec<u64> = snap
            .events
            .iter()
            .map(|e| e.span.start.as_nanos())
            .collect();
        assert_eq!(starts, vec![300, 400, 500, 600]);
        // Aggregates never drop.
        let agg = snap.aggregate(EventKind::FlashRead).expect("seen");
        assert_eq!(agg.agg.count, 7);
        assert_eq!(agg.agg.bytes, 7 * 4096);
    }

    #[test]
    fn aggregates_total_latency_energy_and_sizes() {
        let rec = Recorder::enabled(8);
        rec.emit(|| span(EventKind::StorageFlush, 0, 100));
        rec.emit(|| span(EventKind::StorageFlush, 500, 300));
        let snap = rec.snapshot().expect("enabled");
        let row = snap.aggregate(EventKind::StorageFlush).expect("seen");
        assert_eq!(row.agg.count, 2);
        assert_eq!(row.agg.latency.sum(), 400);
        assert_eq!(row.agg.energy.as_nanojoules(), 200);
        assert_eq!(row.agg.pages, 2);
        let (count, ns, _, _, _) = snap.layer_totals(Layer::Storage);
        assert_eq!((count, ns), (2, 400));
        assert_eq!(snap.layer_totals(Layer::Device).0, 0);
    }

    #[test]
    fn every_kind_has_a_unique_name_and_round_trips() {
        let mut names = std::collections::BTreeSet::new();
        for k in EVENT_KINDS {
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nonsense"), None);
    }

    #[test]
    fn journal_snapshot_round_trips_through_report() {
        let rec = Recorder::enabled(8);
        let op = rec.begin_op();
        rec.emit(|| span(EventKind::FlashProgram, 5, 25));
        rec.end_op(op, span(EventKind::TraceWrite, 0, 40));
        let snap = rec.snapshot().expect("enabled");
        let bytes = snap.to_report().encode();
        let back = JournalSnapshot::from_report(&Value::decode(&bytes).expect("json"))
            .expect("decode journal");
        assert_eq!(back.to_report().encode(), bytes);
        assert_eq!(back.ops, 1);
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].span.kind, EventKind::FlashProgram);
    }

    #[test]
    fn registry_snapshot_round_trips_every_instrument_kind() {
        // Satellite: ToReport/FromReport over all four instrument kinds,
        // byte-stable like the checked-in results files.
        let mut h = Histogram::new();
        h.record(1);
        h.record(100);
        h.record(10_000);
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_nanos(500), 3.0);
        tw.set(SimTime::from_nanos(900), 1.0);
        let mut reg = MetricsRegistry::new();
        reg.counter("storage.gc_runs", 17);
        reg.gauge("storage.write_amplification", 1.25);
        reg.histogram("machine.op_latency", h);
        reg.time_weighted("storage.buffer_occupancy", tw);

        let bytes = reg.to_report().encode();
        let back = MetricsRegistry::from_report(&Value::decode(&bytes).expect("json"))
            .expect("decode registry");
        assert_eq!(back.to_report().encode(), bytes);
        assert_eq!(back.len(), 4);
        assert_eq!(back.counter_value("storage.gc_runs"), Some(17));
        assert_eq!(back.gauge_value("storage.write_amplification"), Some(1.25));
        assert!(matches!(
            back.get("machine.op_latency"),
            Some(Instrument::Histogram(_))
        ));
        assert!(matches!(
            back.get("storage.buffer_occupancy"),
            Some(Instrument::TimeWeighted(_))
        ));
        // Entries serialize in name order regardless of insertion order.
        let mut reversed = MetricsRegistry::new();
        reversed.time_weighted(
            "storage.buffer_occupancy",
            match back.get("storage.buffer_occupancy") {
                Some(Instrument::TimeWeighted(t)) => t.clone(),
                _ => unreachable!(),
            },
        );
        reversed.histogram(
            "machine.op_latency",
            match back.get("machine.op_latency") {
                Some(Instrument::Histogram(h)) => h.clone(),
                _ => unreachable!(),
            },
        );
        reversed.gauge("storage.write_amplification", 1.25);
        reversed.counter("storage.gc_runs", 17);
        assert_eq!(reversed.to_report().encode(), bytes);
    }

    #[test]
    fn registry_rejects_unknown_variants() {
        let v = Value::decode("{\"x\":{\"Dial\":3}}").expect("json");
        assert!(MetricsRegistry::from_report(&v).is_err());
    }
}
