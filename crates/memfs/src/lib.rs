//! The memory-resident file system (§3.1 of the paper).
//!
//! Everything the paper says a solid-state file system can discard, this
//! one discards:
//!
//! * **No buffer cache.** All data and metadata are directly addressable;
//!   reads go straight to the DRAM write buffer or to flash.
//! * **No clustering.** There are no seeks to optimise for.
//! * **No indirect blocks.** Files live in a 64-bit single-level page
//!   space: file `ino`'s page `i` is logical page `(ino << 32) | i`, so
//!   byte offsets translate to pages arithmetically. The sparse page map
//!   in the storage manager plays the role the paper assigns to the
//!   single-level store.
//! * **Copy-on-write.** Files resident in flash are read (and mapped) in
//!   place; only the pages an application actually writes are copied to
//!   DRAM (experiment F8 measures this against copy-on-open).
//!
//! Metadata — a superblock, a flat inode table, and directories holding
//! fixed-size entries — is stored in the same logical page space through
//! the same storage manager, so it enjoys the same write buffering and
//! survives the same crashes. After a battery failure, [`MemFs::recover`]
//! runs the storage-level recovery and then a small fsck that drops
//! dangling directory entries and frees orphaned inodes.

#![forbid(unsafe_code)]

pub mod error;
pub mod fs;
pub mod layout;

pub use error::FsError;
pub use fs::{FileMap, FsMetrics, FsckReport, MemFs, OpenMode, Stat, WritePolicy};
pub use layout::{DirEntry, Ino, Inode, InodeKind, ROOT_INO};

/// Result alias for file-system operations.
pub type Result<T> = core::result::Result<T, FsError>;
