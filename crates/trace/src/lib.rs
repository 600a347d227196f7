//! Workload traces for the solid-state mobile computer experiments.
//!
//! The paper's quantitative claims lean on two trace studies: Ousterhout's
//! BSD measurements \[8\] and Baker's Sprite measurements \[3\], from which it
//! takes the facts that most files are small, most new data dies young
//! (deleted or overwritten within seconds to minutes), access is mostly
//! whole-file and sequential, and a small DRAM write buffer therefore
//! absorbs 40–50 % of write traffic \[1\]. We cannot replay the original
//! traces, so this crate provides *calibrated synthetic generators* that
//! reproduce those published distributional findings as first-class,
//! sweepable parameters ([`Workload`]):
//!
//! * `bsd` — general time-sharing workload (Ousterhout-like); drives the
//!   headline write-buffer experiment F2.
//! * `office` — PIM/PDA record keeping (Wizard/Newton class).
//! * `software_dev` — edit/compile cycles with short-lived object files.
//! * `database` — random in-place record updates; the wear stress case
//!   for F4.
//! * `mail_spool` — create/stat/rename/unlink churn over small messages.
//!
//! Traces persist in one format, the `.ops` container of [`io`]. The
//! [`replay()`] driver runs any trace against anything implementing
//! [`TraceTarget`] — both the solid-state and the disk-based
//! organisations — and reports per-operation latency statistics.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod generator;
pub mod io;
pub mod lifetime;
pub mod oracle;
pub mod record;
pub mod replay;

pub use analyze::TraceAnalysis;
pub use generator::{GeneratorConfig, Workload};
pub use io::{kind_code, OpStreamFileReader, OpStreamWriter, StreamHeader, StreamSummary};
pub use lifetime::LifetimeModel;
pub use oracle::{pages_allocated, project, OracleConfig, PageOp, PageOpKind};
pub use record::{FileId, FileOp, OpKind, Trace, TraceRecord, TraceStats};
pub use replay::{replay, ReplayReport, TraceTarget};
