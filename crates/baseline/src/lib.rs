//! The conventional disk-based organisation — the comparator.
//!
//! Every claim in the paper of the form "the solid-state organisation can
//! discard X" is measured against this crate, which keeps X:
//!
//! * [`cache`] — an LRU buffer cache with delayed write-back (the
//!   30-second `update` daemon of 4.2 BSD);
//! * [`ffs`] — a Fast-File-System-like layout: cylinder-group clustering,
//!   an inode with direct blocks plus single and double indirect blocks,
//!   synchronous metadata writes;
//! * [`elevator`] — C-SCAN ordering of write-back batches;
//! * [`power`] — mobile-disk spin-down management (idle disks stop to
//!   save battery and pay a spin-up on the next access).
//!
//! [`ffs::DiskFs`] implements [`ssmc_trace::TraceTarget`], so the same
//! traces drive it and the memory-resident file system (experiment T2).

#![forbid(unsafe_code)]

pub mod cache;
pub mod elevator;
pub mod ffs;
pub mod power;

pub use cache::BufferCache;
pub use ffs::{BaselineConfig, DiskFs, FfsError};
pub use power::DiskPowerManager;
