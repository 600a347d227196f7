//! The virtual memory system (§3.2 of the paper).
//!
//! In the solid-state organisation, virtual memory exists "primarily to
//! provide protection across multiple address spaces, rather than to
//! expand capacity". This crate models exactly that:
//!
//! * a 64-bit single-level address space per protection domain, backed by
//!   a multi-level radix page table ([`page_table`]);
//! * page faults that resolve against either DRAM frames or logical
//!   storage pages ([`vm`]);
//! * **execute-in-place** ([`xip`]): code mapped straight out of flash
//!   with no load-time copy and no duplicate DRAM footprint — experiment
//!   F6's subject — versus conventional demand loading into a fixed pool
//!   of DRAM frames.
//!
//! Mappings are read-execute program text only. There is no anonymous
//! memory, no copy-on-write and no pager: running out of frames is
//! [`VmError::OutOfMemory`], not a swap, because capacity expansion is
//! the mode the paper expects to become unnecessary.
//!
//! The VM layer is a *timing and accounting* model: data contents flow
//! through the file system and storage manager; here we track mappings,
//! residency, and charge the device costs of every fault, copy and
//! fetch.

#![forbid(unsafe_code)]

pub mod error;
pub mod page_table;
pub mod space;
pub mod vm;
pub mod xip;

pub use error::VmError;
pub use page_table::{Backing, PageTable};
pub use space::{AddressSpace, Mapping};
pub use vm::{Vm, VmConfig, VmMetrics};
pub use xip::{launch, run_code, LaunchStats};

/// Result alias for VM operations.
pub type Result<T> = core::result::Result<T, VmError>;
