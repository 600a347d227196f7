//! Discrete-event simulation kernel for the `ssmc` workspace.
//!
//! Everything in the solid-state mobile computer reproduction is measured in
//! *simulated* time and energy: device models charge latency to a [`Clock`]
//! and energy to an [`EnergyLedger`], so experiments are deterministic given
//! a seed and independent of host speed.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution instants and spans.
//! * [`Clock`] — a shareable simulation clock.
//! * [`EventQueue`] — a classic discrete-event priority queue.
//! * [`SimRng`] — a seeded RNG with the distributions the workload
//!   generators need (exponential, log-normal, Pareto, Zipf).
//! * [`stats`] — histograms and time-weighted averages.
//! * [`EnergyLedger`] — named per-component energy accounting.
//! * [`series`] — result tables and their text rendering, used by the
//!   experiment harness.
//! * [`report`] — in-tree JSON value model and the [`ToReport`] /
//!   [`FromReport`] serialization traits (no external crates).
//! * [`par`] — deterministic order-preserving parallel sweep runner.
//! * [`obs`] — deterministic cross-layer span journal and metrics registry.
//! * [`timeline`] — sim-time flight recorder and the `.tl` columnar
//!   container for time-resolved telemetry.

#![forbid(unsafe_code)]

pub mod clock;
pub mod energy;
pub mod events;
pub mod obs;
pub mod par;
pub mod report;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod timeline;

pub use clock::{Clock, SharedClock};
pub use energy::{Energy, EnergyLedger, Power};
pub use events::EventQueue;
pub use obs::{
    EventKind, Instrument, JournalSnapshot, Layer, MetricSink, MetricsRegistry, Recorder, Span,
    DEFAULT_JOURNAL_CAPACITY,
};
pub use par::{parallel_sweep, set_threads, threads};
pub use report::{field, FromReport, ReportError, ToReport, Value};
pub use rng::SimRng;
pub use series::{Cell, Table};
pub use stats::{Histogram, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use timeline::{
    Channel, ChannelKind, SampleBuf, Schema, SeekWrite, Timeline, TimelineSink, TimelineSummary,
    TimelineWriter,
};
