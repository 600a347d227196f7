//! An FFS-like disk file system.
//!
//! Keeps everything the memory-resident design deletes: block allocation
//! out of cylinder-group bitmaps (clustering data near its inode), an
//! inode with 12 direct pointers plus single and double indirect blocks,
//! synchronous writes for structural metadata, asynchronous data writes
//! through the buffer cache, and a periodic sync pass ordered by the
//! elevator.
//!
//! Data *contents* are modelled by the device (zero-filled); what matters
//! for the experiments is the timing, seek pattern, energy, and cache
//! behaviour of every operation.

use crate::cache::{BufferCache, CachePolicy};
use crate::elevator::cscan_order;
use crate::power::DiskPowerManager;
use core::fmt;
use ssmc_device::{Disk, DiskSpec, DramSpec};
use ssmc_sim::{Energy, SharedClock, SimDuration, SimTime};
use ssmc_trace::{FileOp, TraceTarget};
use std::collections::{BTreeMap, BTreeSet};

/// Direct block pointers per inode.
const NDIRECT: u64 = 12;
/// Bytes per encoded inode.
const INODE_BYTES: u64 = 128;
/// Bytes per directory entry.
const DIRENT_BYTES: u64 = 32;

/// Configuration of the conventional organisation.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// File-system block size.
    pub block_size: u64,
    /// Buffer-cache size in bytes.
    pub cache_bytes: u64,
    /// DRAM timing model for the cache.
    pub cache_dram: DramSpec,
    /// Delay of the periodic sync daemon.
    pub sync_interval: SimDuration,
    /// The disk drive.
    pub disk: DiskSpec,
    /// Spin the disk down after this idle time (`None`: always spinning).
    pub spin_down: Option<SimDuration>,
    /// Cylinder groups for allocation clustering.
    pub cylinder_groups: u32,
    /// Write structural metadata synchronously (classic FFS behaviour).
    pub sync_metadata: bool,
    /// Buffer-cache replacement policy (plain LRU by default; LRU-K so
    /// the comparator isn't a strawman under scan-heavy traffic).
    pub cache_policy: CachePolicy,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            block_size: 4096,
            cache_bytes: 1 << 20,
            cache_dram: DramSpec::default(),
            sync_interval: SimDuration::from_secs(30),
            disk: DiskSpec::default(),
            spin_down: Some(SimDuration::from_secs(5)),
            cylinder_groups: 8,
            sync_metadata: true,
            cache_policy: CachePolicy::Lru,
        }
    }
}

/// Errors from the disk file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FfsError {
    /// No free data blocks.
    NoSpace,
    /// Inode table exhausted.
    NoInodes,
    /// Operation on a file id that was never created (or already deleted).
    UnknownFile(u64),
    /// File id already exists.
    Exists(u64),
}

impl fmt::Display for FfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FfsError::NoSpace => write!(f, "no free blocks"),
            FfsError::NoInodes => write!(f, "no free inodes"),
            FfsError::UnknownFile(id) => write!(f, "unknown file {id}"),
            FfsError::Exists(id) => write!(f, "file {id} exists"),
        }
    }
}

impl std::error::Error for FfsError {}

#[derive(Debug, Default)]
struct FInode {
    size: u64,
    group: u32,
    /// File block index → physical block.
    blocks: BTreeMap<u64, u32>,
    /// Indirect-block chunk key → physical metadata block.
    indirect: BTreeMap<u64, u32>,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FfsStats {
    /// Synchronous metadata writes issued.
    pub meta_sync_writes: u64,
    /// Periodic sync passes.
    pub sync_passes: u64,
    /// Blocks written by sync passes.
    pub sync_blocks: u64,
}

/// The conventional disk-based file system.
#[derive(Debug)]
pub struct DiskFs {
    cfg: BaselineConfig,
    clock: SharedClock,
    disk: Disk,
    cache: BufferCache,
    pm: DiskPowerManager,
    inodes: BTreeMap<u32, FInode>,
    files: BTreeMap<u64, u32>,
    free_inos: Vec<u32>,
    next_ino: u32,
    max_inodes: u32,
    /// Free map of data blocks, indexed by physical block − data_start.
    free_blocks: Vec<bool>,
    data_start: u64,
    blocks_per_group: u64,
    last_sync: SimTime,
    stats: FfsStats,
    scratch: Vec<u8>,
}

impl DiskFs {
    /// Creates a freshly formatted file system.
    pub fn new(cfg: BaselineConfig, clock: SharedClock) -> Self {
        let disk = Disk::new(cfg.disk.clone(), clock.clone());
        let total_blocks = cfg.disk.capacity / cfg.block_size;
        let max_inodes = ((total_blocks / 4).clamp(64, 8192)) as u32;
        let inode_blocks = (max_inodes as u64 * INODE_BYTES).div_ceil(cfg.block_size);
        let data_start = 1 + inode_blocks; // block 0: superblock
        let data_blocks = total_blocks - data_start;
        let blocks_per_group = (data_blocks / cfg.cylinder_groups as u64).max(1);
        let cache_blocks = (cfg.cache_bytes / cfg.block_size).max(1) as usize;
        DiskFs {
            cache: BufferCache::with_policy(
                cache_blocks,
                cfg.block_size,
                cfg.cache_dram.clone(),
                clock.clone(),
                cfg.cache_policy,
            ),
            pm: DiskPowerManager::new(cfg.spin_down, clock.now()),
            inodes: BTreeMap::new(),
            files: BTreeMap::new(),
            free_inos: Vec::new(),
            next_ino: 1,
            max_inodes,
            free_blocks: vec![true; data_blocks as usize],
            data_start,
            blocks_per_group,
            last_sync: clock.now(),
            stats: FfsStats::default(),
            scratch: vec![0u8; cfg.block_size as usize],
            cfg,
            clock,
            disk,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BaselineConfig {
        &self.cfg
    }

    /// Disk device (counters, energy).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Installs an observability recorder on the disk (seek spans).
    pub fn set_recorder(&mut self, recorder: ssmc_sim::obs::Recorder) {
        self.disk.set_recorder(recorder);
    }

    /// Folds the baseline's counters into the unified registry.
    pub fn publish_metrics(&self, reg: &mut ssmc_sim::obs::MetricsRegistry) {
        reg.counter("ffs.meta_sync_writes", self.stats.meta_sync_writes);
        reg.counter("ffs.sync_passes", self.stats.sync_passes);
        reg.counter("ffs.sync_blocks", self.stats.sync_blocks);
        let cs = self.cache.stats();
        reg.counter("cache.hits", cs.hits);
        reg.counter("cache.misses", cs.misses);
        reg.counter("cache.write_backs", cs.write_backs);
        reg.counter("cache.write_cancels", cs.write_cancels);
        reg.gauge("cache.hit_rate", cs.hit_rate());
        self.disk.publish_metrics(reg);
        for (component, e) in self.cache.dram().energy().iter() {
            // lint: allow(H2): disk-comparator registry names; only name-based
            // resolution of `publish_metrics` links the sampler here, and the
            // machine holds no DiskFs.
            reg.counter(&format!("energy.cache_{component}_nj"), e.as_nanojoules());
        }
    }

    /// Buffer cache (stats, energy).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// File-system counters.
    pub fn stats(&self) -> FfsStats {
        self.stats
    }

    /// Combined energy of disk and cache DRAM.
    pub fn total_energy(&self) -> Energy {
        self.disk.energy().total() + self.cache.dram().energy().total()
    }

    // ------------------------------------------------------------------
    // Disk and cache plumbing
    // ------------------------------------------------------------------

    fn disk_io(&mut self, block: u64, write: bool) {
        let now = self.clock.now();
        self.pm.before_access(&mut self.disk, now);
        let addr = block * self.cfg.block_size;
        if write {
            self.disk
                // lint: allow(H2): the 1993 disk-stack comparator is modelled
                // for contrast, outside the zero-allocation replay contract.
                .write(addr, &self.scratch.clone())
                .expect("in range");
        } else {
            let mut buf = core::mem::take(&mut self.scratch);
            self.disk.read(addr, &mut buf).expect("in range");
            self.scratch = buf;
        }
        self.pm.after_access(self.clock.now());
    }

    /// Reads a block through the cache.
    fn cache_read(&mut self, block: u64) {
        if self.cache.lookup(block) {
            return;
        }
        self.disk_io(block, false);
        if let Some(victim) = self.cache.insert(block, false) {
            self.disk_io(victim, true);
        }
    }

    /// Writes a block through the cache (delayed write-back).
    fn cache_write(&mut self, block: u64) {
        if self.cache.lookup(block) {
            self.cache.mark_dirty(block);
            return;
        }
        if let Some(victim) = self.cache.insert(block, true) {
            self.disk_io(victim, true);
        }
    }

    /// Writes a structural metadata block: synchronously when configured
    /// (classic FFS), otherwise through the cache.
    fn meta_write(&mut self, block: u64) {
        if self.cfg.sync_metadata {
            self.stats.meta_sync_writes += 1;
            self.disk_io(block, true);
            // A cached copy, if any, is now durable.
            self.cache.clean(block);
        } else {
            self.cache_write(block);
        }
    }

    /// Periodic sync daemon: flush all dirty blocks in elevator order.
    fn sync_check(&mut self) {
        if self.clock.now().since(self.last_sync) >= self.cfg.sync_interval {
            self.flush_all();
        }
    }

    /// Flushes every dirty cache block, C-SCAN ordered.
    pub fn flush_all(&mut self) {
        let dirty = self.cache.take_dirty();
        if !dirty.is_empty() {
            self.stats.sync_passes += 1;
            self.stats.sync_blocks += dirty.len() as u64;
            let reqs: Vec<(u32, u64)> = dirty
                .into_iter()
                .map(|b| (self.cfg.disk.cylinder_of(b * self.cfg.block_size), b))
                // lint: allow(H2): the 1993 disk-stack comparator is modelled
                // for contrast, outside the zero-allocation replay contract.
                .collect();
            for (_, block) in cscan_order(self.disk.head_cylinder(), reqs) {
                self.disk_io(block, true);
            }
        }
        self.last_sync = self.clock.now();
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    fn group_of_block(&self, phys: u32) -> u32 {
        ((phys as u64 - self.data_start) / self.blocks_per_group)
            .min(self.cfg.cylinder_groups as u64 - 1) as u32
    }

    fn bitmap_block_of(&self, phys: u32) -> u64 {
        // Each group's bitmap lives in its first block.
        self.data_start + self.group_of_block(phys) as u64 * self.blocks_per_group
    }

    /// Allocates a data block, preferring `group` (clustering), returning
    /// the physical block number.
    fn alloc_block(&mut self, group: u32) -> Result<u32, FfsError> {
        let groups = self.cfg.cylinder_groups;
        for delta in 0..groups {
            let g = (group + delta) % groups;
            let start = g as u64 * self.blocks_per_group;
            let end = ((g as u64 + 1) * self.blocks_per_group).min(self.free_blocks.len() as u64);
            // Index 0 of each group is its bitmap block: skip it.
            for idx in start + 1..end {
                if self.free_blocks[idx as usize] {
                    self.free_blocks[idx as usize] = false;
                    return Ok((self.data_start + idx) as u32);
                }
            }
        }
        Err(FfsError::NoSpace)
    }

    fn free_block(&mut self, phys: u32) {
        let idx = (phys as u64 - self.data_start) as usize;
        self.free_blocks[idx] = true;
    }

    fn inode_block_of(&self, ino: u32) -> u64 {
        1 + ino as u64 * INODE_BYTES / self.cfg.block_size
    }

    fn dir_block_of_slot(&self, slot: u32) -> u64 {
        // Root directory entries live in the first blocks of group 0,
        // right after its bitmap.
        let per_block = self.cfg.block_size / DIRENT_BYTES;
        self.data_start + 1 + slot as u64 / per_block
    }

    // ------------------------------------------------------------------
    // Block mapping with indirect blocks
    // ------------------------------------------------------------------

    /// Touches the indirect chain needed to reach file block `i`,
    /// allocating metadata blocks if `alloc` is set. Charges the cache /
    /// disk accesses real FFS would make.
    fn walk_indirect(&mut self, ino: u32, i: u64, alloc: bool) -> Result<(), FfsError> {
        let per = self.cfg.block_size / 4;
        // lint: allow(H2): the 1993 disk-stack comparator is modelled for
        // contrast, outside the zero-allocation replay contract.
        let mut chunks: Vec<u64> = Vec::new();
        if i < NDIRECT {
            return Ok(());
        }
        let i1 = i - NDIRECT;
        if i1 < per {
            chunks.push(1 << 32); // single indirect block
        } else {
            let i2 = i1 - per;
            chunks.push(2 << 32); // double-indirect top block
            chunks.push((1 << 32) | (1 + i2 / per)); // its leaf
        }
        for key in chunks {
            let group = self.inodes[&ino].group;
            let existing = self.inodes[&ino].indirect.get(&key).copied();
            let phys = match existing {
                Some(p) => p,
                None => {
                    if !alloc {
                        continue;
                    }
                    let p = self.alloc_block(group)?;
                    self.inodes
                        .get_mut(&ino)
                        .expect("live")
                        .indirect
                        .insert(key, p);
                    let bitmap = self.bitmap_block_of(p);
                    self.meta_write(bitmap);
                    p
                }
            };
            if alloc && existing.is_none() {
                self.cache_write(phys as u64);
            } else {
                self.cache_read(phys as u64);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Public file API (trace-file-id keyed)
    // ------------------------------------------------------------------

    /// Creates a file bound to trace id `file`.
    ///
    /// # Errors
    ///
    /// [`FfsError::Exists`] / [`FfsError::NoInodes`].
    pub fn create(&mut self, file: u64) -> Result<(), FfsError> {
        self.sync_check();
        if self.files.contains_key(&file) {
            return Err(FfsError::Exists(file));
        }
        let ino = match self.free_inos.pop() {
            Some(i) => i,
            None => {
                if self.next_ino >= self.max_inodes {
                    return Err(FfsError::NoInodes);
                }
                let i = self.next_ino;
                self.next_ino += 1;
                i
            }
        };
        // Spread files across groups like FFS spreads directories.
        let group = ino % self.cfg.cylinder_groups;
        self.inodes.insert(
            ino,
            FInode {
                group,
                ..FInode::default()
            },
        );
        self.files.insert(file, ino);
        // Inode initialisation and directory entry: structural metadata.
        let iblock = self.inode_block_of(ino);
        self.meta_write(iblock);
        let dblock = self.dir_block_of_slot(ino);
        self.meta_write(dblock);
        Ok(())
    }

    /// Writes `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`] / [`FfsError::NoSpace`].
    pub fn write(&mut self, file: u64, offset: u64, len: u64) -> Result<(), FfsError> {
        self.sync_check();
        let ino = *self.files.get(&file).ok_or(FfsError::UnknownFile(file))?;
        if len == 0 {
            return Ok(());
        }
        let bs = self.cfg.block_size;
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        let mut metas: BTreeSet<u64> = BTreeSet::new();
        for i in first..=last {
            let covered_from = if i == first { offset % bs } else { 0 };
            let covered_to = if i == last {
                (offset + len - 1) % bs + 1
            } else {
                bs
            };
            let partial = covered_from != 0 || covered_to != bs;
            let group = self.inodes[&ino].group;
            let existing = self.inodes[&ino].blocks.get(&i).copied();
            let phys = match existing {
                Some(p) => p,
                None => {
                    self.walk_indirect(ino, i, true)?;
                    let p = self.alloc_block(group)?;
                    self.inodes.get_mut(&ino).expect("live").blocks.insert(i, p);
                    metas.insert(self.bitmap_block_of(p));
                    metas.insert(self.inode_block_of(ino));
                    p
                }
            };
            if partial && existing.is_some() {
                // Read-modify-write of a partial block.
                self.cache_read(phys as u64);
            }
            self.cache_write(phys as u64);
        }
        for m in metas {
            self.meta_write(m);
        }
        let inode = self.inodes.get_mut(&ino).expect("live");
        inode.size = inode.size.max(offset + len);
        // Size/mtime updates flow through the cache asynchronously.
        let iblock = self.inode_block_of(ino);
        self.cache_write(iblock);
        Ok(())
    }

    /// Reads `len` bytes at `offset` (holes are free).
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`].
    pub fn read(&mut self, file: u64, offset: u64, len: u64) -> Result<(), FfsError> {
        self.sync_check();
        let ino = *self.files.get(&file).ok_or(FfsError::UnknownFile(file))?;
        if len == 0 {
            return Ok(());
        }
        let bs = self.cfg.block_size;
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        for i in first..=last {
            self.walk_indirect(ino, i, false)?;
            if let Some(phys) = self.inodes[&ino].blocks.get(&i).copied() {
                self.cache_read(phys as u64);
            }
        }
        Ok(())
    }

    /// Truncates the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`].
    pub fn truncate(&mut self, file: u64, len: u64) -> Result<(), FfsError> {
        self.sync_check();
        let ino = *self.files.get(&file).ok_or(FfsError::UnknownFile(file))?;
        let bs = self.cfg.block_size;
        let keep = len.div_ceil(bs);
        let doomed: Vec<(u64, u32)> = self.inodes[&ino]
            .blocks
            .iter()
            .filter(|(i, _)| **i >= keep)
            .map(|(i, p)| (*i, *p))
            .collect();
        let mut metas: BTreeSet<u64> = BTreeSet::new();
        for (i, phys) in doomed {
            self.inodes.get_mut(&ino).expect("live").blocks.remove(&i);
            self.free_block(phys);
            self.cache.discard(phys as u64);
            metas.insert(self.bitmap_block_of(phys));
        }
        metas.insert(self.inode_block_of(ino));
        for m in metas {
            self.meta_write(m);
        }
        self.inodes.get_mut(&ino).expect("live").size = len;
        Ok(())
    }

    /// Deletes the file, cancelling its pending cached writes.
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`].
    pub fn delete(&mut self, file: u64) -> Result<(), FfsError> {
        self.sync_check();
        let ino = self
            .files
            .remove(&file)
            .ok_or(FfsError::UnknownFile(file))?;
        let inode = self.inodes.remove(&ino).expect("live");
        let mut metas: BTreeSet<u64> = BTreeSet::new();
        for (_, phys) in inode.blocks {
            self.free_block(phys);
            self.cache.discard(phys as u64);
            metas.insert(self.bitmap_block_of(phys));
        }
        for (_, phys) in inode.indirect {
            self.free_block(phys);
            self.cache.discard(phys as u64);
            metas.insert(self.bitmap_block_of(phys));
        }
        metas.insert(self.inode_block_of(ino));
        metas.insert(self.dir_block_of_slot(ino));
        for m in metas {
            self.meta_write(m);
        }
        self.free_inos.push(ino);
        Ok(())
    }

    /// Reads the file's attributes: an inode-block read through the
    /// cache (the disk spins up if the block is cold).
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`].
    pub fn stat(&mut self, file: u64) -> Result<(), FfsError> {
        self.sync_check();
        let ino = *self.files.get(&file).ok_or(FfsError::UnknownFile(file))?;
        let iblock = self.inode_block_of(ino);
        self.cache_read(iblock);
        Ok(())
    }

    /// Renames trace id `file` to `to`: a directory-entry rewrite plus
    /// the inode's ctime update — structural metadata, so classic FFS
    /// writes it synchronously.
    ///
    /// # Errors
    ///
    /// [`FfsError::UnknownFile`] / [`FfsError::Exists`].
    pub fn rename(&mut self, file: u64, to: u64) -> Result<(), FfsError> {
        self.sync_check();
        if self.files.contains_key(&to) {
            return Err(FfsError::Exists(to));
        }
        let ino = self
            .files
            .remove(&file)
            .ok_or(FfsError::UnknownFile(file))?;
        self.files.insert(to, ino);
        let mut metas: BTreeSet<u64> = BTreeSet::new();
        metas.insert(self.dir_block_of_slot(ino));
        metas.insert(self.inode_block_of(ino));
        for m in metas {
            self.meta_write(m);
        }
        Ok(())
    }

    /// Live file count.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Size of a file.
    pub fn size_of(&self, file: u64) -> Option<u64> {
        self.files.get(&file).map(|ino| self.inodes[ino].size)
    }
}

impl TraceTarget for DiskFs {
    fn apply(&mut self, op: &FileOp) -> Result<(), Box<dyn std::error::Error>> {
        match *op {
            FileOp::Create { file } => self.create(file)?,
            FileOp::Write { file, offset, len } => self.write(file, offset, len)?,
            FileOp::Read { file, offset, len } => self.read(file, offset, len)?,
            FileOp::Delete { file } => self.delete(file)?,
            FileOp::Truncate { file, len } => self.truncate(file, len)?,
            FileOp::Stat { file } => self.stat(file)?,
            FileOp::Rename { file, to } => self.rename(file, to)?,
            FileOp::Sync => self.flush_all(),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::Clock;

    fn fs() -> (DiskFs, SharedClock) {
        let clock = Clock::shared();
        let cfg = BaselineConfig {
            disk: DiskSpec::default().with_capacity(20 << 20),
            spin_down: None,
            ..BaselineConfig::default()
        };
        (DiskFs::new(cfg, clock.clone()), clock)
    }

    #[test]
    fn create_write_read_delete_cycle() {
        let (mut f, _) = fs();
        f.create(1).expect("create");
        f.write(1, 0, 10_000).expect("write");
        assert_eq!(f.size_of(1), Some(10_000));
        f.read(1, 0, 10_000).expect("read");
        f.delete(1).expect("delete");
        assert_eq!(f.size_of(1), None);
        assert!(matches!(f.read(1, 0, 1), Err(FfsError::UnknownFile(1))));
        assert!(matches!(f.create(1), Ok(())), "id reusable after delete");
    }

    #[test]
    fn duplicate_create_rejected() {
        let (mut f, _) = fs();
        f.create(7).expect("create");
        assert!(matches!(f.create(7), Err(FfsError::Exists(7))));
    }

    #[test]
    fn cached_reads_are_much_faster_than_cold() {
        let (mut f, clock) = fs();
        f.create(1).expect("create");
        f.write(1, 0, 4096).expect("write");
        f.flush_all();
        // Drop the block from cache by filling it with other data.
        for id in 2..600u64 {
            f.create(id).expect("create");
            f.write(id, 0, 4096).expect("write");
        }
        let t0 = clock.now();
        f.read(1, 0, 4096).expect("cold read");
        let cold = clock.now().since(t0);
        let t1 = clock.now();
        f.read(1, 0, 4096).expect("warm read");
        let warm = clock.now().since(t1);
        assert!(
            cold > warm * 10,
            "cold {cold} should dwarf warm {warm} (seek + rotation)"
        );
    }

    #[test]
    fn metadata_writes_are_synchronous_by_default() {
        let (mut f, _) = fs();
        let before = f.disk().counters().writes;
        f.create(1).expect("create");
        let after = f.disk().counters().writes;
        assert!(after > before, "create must hit the disk synchronously");
    }

    #[test]
    fn async_data_writes_wait_for_sync() {
        let (mut f, clock) = fs();
        f.create(1).expect("create");
        let before = f.disk().counters().writes;
        f.write(1, 0, 4096).expect("write");
        f.write(1, 0, 4096).expect("overwrite");
        // Data write is delayed; only metadata hit the disk.
        let mid = f.disk().counters().writes;
        f.flush_all();
        let after = f.disk().counters().writes;
        assert!(after > mid, "sync flushed the data block");
        let _ = before;
        // Overwrite absorbed: one dirty block despite two writes.
        assert_eq!(f.stats().sync_blocks, 2, "data + inode block");
        let _ = clock;
    }

    #[test]
    fn large_files_pay_indirect_accesses() {
        let (mut f, clock) = fs();
        f.create(1).expect("create");
        f.create(2).expect("create");
        // Small file: direct blocks only.
        let t0 = clock.now();
        f.write(1, 0, 4096).expect("small write");
        let small = clock.now().since(t0);
        // Block 20 of a file requires the single-indirect chain.
        let t1 = clock.now();
        f.write(2, 20 * 4096, 4096).expect("indirect write");
        let large = clock.now().since(t1);
        assert!(large > small, "indirect chain costs extra IO");
    }

    #[test]
    fn deleting_dirty_file_cancels_writes() {
        let (mut f, _) = fs();
        f.create(1).expect("create");
        f.write(1, 0, 8192).expect("write");
        f.delete(1).expect("delete");
        assert!(f.cache().stats().write_cancels >= 2);
        f.flush_all();
        assert_eq!(f.stats().sync_blocks, 0, "nothing left to flush");
    }

    #[test]
    fn periodic_sync_fires_on_interval() {
        let (mut f, clock) = fs();
        f.create(1).expect("create");
        f.write(1, 0, 4096).expect("write");
        clock.advance(SimDuration::from_secs(31));
        // Any subsequent op triggers the update daemon.
        f.read(1, 0, 1).expect("read");
        assert_eq!(f.stats().sync_passes, 1);
    }

    #[test]
    fn trace_target_handles_all_ops() {
        use ssmc_trace::{replay, GeneratorConfig, Workload};
        let (mut f, clock) = fs();
        let trace = GeneratorConfig::new(Workload::Office)
            .with_ops(2_000)
            .with_max_live_bytes(4 << 20)
            .generate();
        let report = replay(&trace, &mut f, &clock);
        assert_eq!(report.errors, 0, "baseline must replay office cleanly");
        assert!(report.mean_data_latency() > SimDuration::from_micros(10));
    }

    #[test]
    fn no_space_is_reported() {
        let clock = Clock::shared();
        let cfg = BaselineConfig {
            disk: DiskSpec::default().with_capacity(2 << 20),
            spin_down: None,
            ..BaselineConfig::default()
        };
        let mut f = DiskFs::new(cfg, clock);
        f.create(1).expect("create");
        let mut wrote = 0u64;
        loop {
            match f.write(1, wrote, 64 * 1024) {
                Ok(()) => wrote += 64 * 1024,
                Err(FfsError::NoSpace) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(wrote < 4 << 20, "NoSpace never reported");
        }
    }
}
