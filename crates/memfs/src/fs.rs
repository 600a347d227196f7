//! The memory-resident file system proper.

use crate::error::FsError;
use crate::layout::{
    check_path, file_page, window, DirEntry, Ino, Inode, InodeKind, Superblock, DIRENT_BYTES,
    INODE_BYTES, ROOT_INO,
};
use crate::Result;
use ssmc_sim::obs::{EventKind, MetricSink, Recorder, Span};
use ssmc_sim::Energy;
use ssmc_storage::{PageId, RecoveryReport, StorageManager};
// lint: allow(D2): the fsck maps/sets below are keyed-access or
// membership-only; the per-site directives argue each use.
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// DRAM-resident index of one directory: an ordered map name →
/// (slot, ino), plus the freed dirent slots available for reuse (LIFO,
/// matching the slot-scan order the pre-index implementation produced).
#[derive(Debug, Default)]
struct DirIndex {
    names: BTreeMap<Box<str>, (u64, Ino)>,
    free_slots: Vec<u64>,
    /// How many index entries claim each slot. Normally 0 or 1, but a
    /// stale entry (e.g. left behind when an error path gave a live slot
    /// back to `free_slots`) can alias a reused slot. Zeroing a slot must
    /// then drop *every* claimant — the original `HashMap::retain` by
    /// slot did exactly that, and replayed results depend on it — so this
    /// counter tells `remove_slot_entries` when the rare healing scan is
    /// needed without an O(n) walk per delete.
    slot_rc: Vec<u32>,
}

impl DirIndex {
    fn bump_slot(&mut self, slot: u64) {
        let i = slot as usize;
        if self.slot_rc.len() <= i {
            self.slot_rc.resize(i + 1, 0);
        }
        self.slot_rc[i] += 1;
    }

    fn drop_slot(&mut self, slot: u64) {
        self.slot_rc[slot as usize] -= 1;
    }

    fn slot_claims(&self, slot: u64) -> u32 {
        self.slot_rc.get(slot as usize).copied().unwrap_or(0)
    }

    /// Records `name → (slot, ino)`, keeping the claim counts exact when
    /// the insert overwrites an entry pointing at another slot. The name
    /// becomes the key as it is: a `String` sized to its text converts
    /// without a copy.
    fn insert(&mut self, name: String, slot: u64, ino: Ino) {
        if let Some((old_slot, _)) = self.names.insert(name.into_boxed_str(), (slot, ino)) {
            self.drop_slot(old_slot);
        }
        self.bump_slot(slot);
    }

    /// Removes every index entry claiming `slot` — the exact semantics of
    /// the historical `names.retain(|_, (s, _)| *s != slot)`, which kept
    /// the index self-healing when a stale alias pointed at a reused
    /// slot. `name_hint` (the caller's lookup result or the on-flash
    /// entry name) covers the common single-claimant case in O(log n);
    /// only genuine aliases pay the full scan.
    fn remove_slot_entries(&mut self, slot: u64, name_hint: &str) {
        if self.names.get(name_hint).is_some_and(|&(s, _)| s == slot) {
            self.names.remove(name_hint);
            self.drop_slot(slot);
        }
        if self.slot_claims(slot) > 0 {
            self.names.retain(|_, &mut (s, _)| s != slot);
            self.slot_rc[slot as usize] = 0;
        }
    }
}

/// How a descriptor was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Reads only.
    Read,
    /// Reads and writes.
    Write,
}

/// What happens when a flash-resident file is opened for writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// §3.1's recommendation: leave the file in flash and copy *only the
    /// pages actually written* into DRAM.
    CopyOnWrite,
    /// The conventional alternative F8 compares against: copy the whole
    /// file into primary storage when it is opened writable.
    CopyOnOpen,
}

/// Result of `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File or directory.
    pub kind: InodeKind,
    /// Size in bytes.
    pub size: u64,
    /// Last modification, nanoseconds of simulated time.
    pub mtime_ns: u64,
}

/// Mapping handle for the VM layer: the file's logical pages in order.
#[derive(Debug, Clone)]
pub struct FileMap {
    /// The mapped inode.
    pub ino: Ino,
    /// File size in bytes.
    pub size: u64,
    /// Logical page ids covering the file.
    pub pages: Vec<PageId>,
}

/// File-system level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsMetrics {
    /// Files and directories created.
    pub creates: u64,
    /// Files and directories removed.
    pub deletes: u64,
    /// Read calls served.
    pub reads: u64,
    /// Write calls served.
    pub writes: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
    /// Bytes copied into DRAM by the copy-on-open policy.
    pub copy_on_open_bytes: u64,
}

/// Outcome of the post-recovery consistency pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Directory entries dropped because their inode did not survive.
    pub dangling_entries: u64,
    /// Allocated inodes unreachable from the root, freed.
    pub orphans_freed: u64,
    /// File link counts corrected to match surviving references.
    pub nlinks_repaired: u64,
    /// Whether the root directory had to be recreated.
    pub root_rebuilt: bool,
}

/// The memory-resident file system over a [`StorageManager`].
///
/// # Examples
///
/// ```
/// use ssmc_memfs::{MemFs, OpenMode, WritePolicy};
/// use ssmc_sim::Clock;
/// use ssmc_storage::{StorageConfig, StorageManager};
///
/// let sm = StorageManager::new(StorageConfig::default(), Clock::shared());
/// let mut fs = MemFs::new(sm, WritePolicy::CopyOnWrite).unwrap();
/// fs.mkdir("/docs").unwrap();
/// let fd = fs.create("/docs/hello").unwrap();
/// fs.write(fd, 0, b"single-level store").unwrap();
/// let mut buf = [0u8; 18];
/// fs.read(fd, 0, &mut buf).unwrap();
/// assert_eq!(&buf, b"single-level store");
/// ```
#[derive(Debug)]
pub struct MemFs {
    sm: StorageManager,
    policy: WritePolicy,
    next_fd: u64,
    /// Descriptor table, indexed directly by fd (descriptors are issued
    /// sequentially, so the table is dense).
    fds: Vec<Option<(Ino, OpenMode)>>,
    /// Open descriptors per inode, slab-indexed by ino (inos are issued
    /// sequentially and recycled, so the slab stays population-sized).
    /// Kept exactly in sync with `fds` so [`Self::remove_inode`] can
    /// invalidate a dead inode's descriptors without scanning the whole
    /// descriptor table — that scan is O(descriptors ever issued) and
    /// turns long replays quadratic in their delete count. The inner
    /// vectors keep their capacity across inode recycling.
    ino_fds: Vec<Vec<u64>>,
    free_inos: Vec<Ino>,
    next_ino: Ino,
    metrics: FsMetrics,
    /// DRAM-resident directory index, slab-indexed by the directory's ino
    /// (inos are issued sequentially). The paper's single-level store makes
    /// directories memory-resident; this is the in-memory structure a real
    /// implementation would use instead of a buffer cache, maintained
    /// incrementally and rebuilt at mount and by fsck from the durable
    /// slot layout. Each directory's index is a `BTreeMap` probed by
    /// `&str`, so path resolution allocates nothing and stays O(log n).
    dirs: Vec<Option<DirIndex>>,
    /// Recycled page-sized scratch buffer for sub-page reads and RMW.
    scratch: Vec<u8>,
    recorder: Recorder,
}

impl MemFs {
    /// Mounts an existing file system or formats a fresh one.
    ///
    /// # Errors
    ///
    /// Propagates storage errors during format/mount.
    pub fn new(sm: StorageManager, policy: WritePolicy) -> Result<MemFs> {
        let mut fs = MemFs {
            sm,
            policy,
            next_fd: 3,
            fds: Vec::new(),
            ino_fds: Vec::new(),
            free_inos: Vec::new(),
            next_ino: ROOT_INO + 1,
            metrics: FsMetrics::default(),
            dirs: Vec::new(),
            scratch: Vec::new(),
            recorder: Recorder::disabled(),
        };
        match fs.read_superblock()? {
            Some(sb) => {
                fs.next_ino = sb.next_ino;
                fs.rebuild_free_list()?;
                fs.rebuild_dindex()?;
            }
            None => fs.format()?,
        }
        Ok(fs)
    }

    /// The storage manager underneath (metrics, wear, energy).
    pub fn storage(&self) -> &StorageManager {
        &self.sm
    }

    /// Mutable access to the storage manager (policy experiments).
    pub fn storage_mut(&mut self) -> &mut StorageManager {
        &mut self.sm
    }

    /// File-system counters.
    pub fn metrics(&self) -> FsMetrics {
        self.metrics
    }

    /// Installs an observability recorder here and in the storage stack
    /// below (storage manager and flash device).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.sm.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Publishes the file-system counters and everything below them.
    pub fn publish_metrics<S: MetricSink>(&self, sink: &mut S) {
        sink.counter("fs.creates", self.metrics.creates);
        sink.counter("fs.deletes", self.metrics.deletes);
        sink.counter("fs.reads", self.metrics.reads);
        sink.counter("fs.writes", self.metrics.writes);
        sink.counter("fs.bytes_read", self.metrics.bytes_read);
        sink.counter("fs.bytes_written", self.metrics.bytes_written);
        sink.counter("fs.copy_on_open_bytes", self.metrics.copy_on_open_bytes);
        self.sm.publish_metrics(sink);
    }

    fn page_size(&self) -> u64 {
        self.sm.page_size()
    }

    fn now_ns(&self) -> u64 {
        self.sm.now().as_nanos()
    }

    // ------------------------------------------------------------------
    // Low-level page helpers
    // ------------------------------------------------------------------

    /// Reads a page into the recycled scratch buffer and hands it over.
    /// Callers return it with [`MemFs::put_buf`] when done; `read_page`
    /// overwrites every byte, so stale contents never leak through.
    // lint: hot-path
    fn read_page_buf(&mut self, page: PageId) -> Result<Vec<u8>> {
        let mut buf = std::mem::take(&mut self.scratch);
        let ps = self.page_size() as usize;
        if buf.len() != ps {
            buf.clear();
            buf.resize(ps, 0);
        }
        self.sm.read_page(page, &mut buf)?;
        Ok(buf)
    }

    /// Returns a buffer from [`MemFs::read_page_buf`] for reuse.
    fn put_buf(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Read-modify-write of a sub-page byte range.
    // lint: hot-path
    fn rmw(&mut self, page: PageId, offset: usize, bytes: &[u8]) -> Result<()> {
        // Buffer-resident pages (hot inode/dirent pages, recently written
        // data) update in place: same simulated full-page RMW charge,
        // none of the two page-sized staging copies.
        if self.sm.modify_page_in_place(page, offset as u64, bytes)? {
            return Ok(());
        }
        let mut buf = self.read_page_buf(page)?;
        buf[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.sm.write_page(page, &buf)?;
        self.put_buf(buf);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Metadata: superblock and inode table
    // ------------------------------------------------------------------

    fn read_superblock(&mut self) -> Result<Option<Superblock>> {
        if !self.sm.contains(window(0)) {
            return Ok(None);
        }
        match self.sm.read_page_ref(window(0))? {
            Some(page) => Ok(Superblock::decode(page)),
            None => Ok(None),
        }
    }

    fn write_superblock(&mut self) -> Result<()> {
        // lint: allow(H2): the superblock is rewritten on inode allocation
        // (namespace mutation), not per read/write op.
        let mut page = vec![0u8; self.page_size() as usize];
        Superblock {
            magic: crate::layout::MAGIC,
            next_ino: self.next_ino,
        }
        .encode_into(&mut page);
        self.sm.write_page(window(0), &page)?;
        Ok(())
    }

    fn inodes_per_page(&self) -> u64 {
        self.page_size() / INODE_BYTES as u64
    }

    fn inode_loc(&self, ino: Ino) -> (PageId, usize) {
        let per = self.inodes_per_page();
        let page = window(0) + 1 + ino as u64 / per;
        let offset = (ino as u64 % per) as usize * INODE_BYTES;
        (page, offset)
    }

    // lint: hot-path
    fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        let (page, offset) = self.inode_loc(ino);
        // Decode straight from the storage borrow: same simulated charge
        // as a full page read, none of the page-sized memcpy.
        match self.sm.read_page_ref(page)? {
            Some(buf) => Ok(Inode::decode(&buf[offset..offset + INODE_BYTES])),
            None => Ok(Inode::decode(&[0u8; INODE_BYTES])),
        }
    }

    fn write_inode(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let (page, offset) = self.inode_loc(ino);
        self.rmw(page, offset, &inode.encode())
    }

    fn alloc_ino(&mut self) -> Result<Ino> {
        if let Some(ino) = self.free_inos.pop() {
            return Ok(ino);
        }
        if self.next_ino == Ino::MAX {
            return Err(FsError::TooManyFiles);
        }
        let ino = self.next_ino;
        self.next_ino += 1;
        self.write_superblock()?;
        Ok(ino)
    }

    fn format(&mut self) -> Result<()> {
        self.next_ino = ROOT_INO + 1;
        self.free_inos.clear();
        self.write_superblock()?;
        let root = Inode::new(InodeKind::Dir, self.now_ns());
        self.write_inode(ROOT_INO, &root)?;
        Ok(())
    }

    fn rebuild_free_list(&mut self) -> Result<()> {
        self.free_inos.clear();
        for ino in (ROOT_INO + 1)..self.next_ino {
            if self.read_inode(ino)?.kind == InodeKind::Free {
                self.free_inos.push(ino);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    fn dir_slots(&self, dir_size: u64) -> u64 {
        dir_size / DIRENT_BYTES as u64
    }

    fn dirent_loc(&self, dir: Ino, slot: u64) -> (PageId, usize) {
        let per_page = self.page_size() / DIRENT_BYTES as u64;
        (
            file_page(dir, slot / per_page),
            (slot % per_page) as usize * DIRENT_BYTES,
        )
    }

    fn read_dirent(&mut self, dir: Ino, slot: u64) -> Result<Option<DirEntry>> {
        let (page, offset) = self.dirent_loc(dir, slot);
        match self.sm.read_page_ref(page)? {
            Some(buf) => Ok(DirEntry::decode(&buf[offset..offset + DIRENT_BYTES])),
            None => Ok(DirEntry::decode(&[0u8; DIRENT_BYTES])),
        }
    }

    fn write_dirent_slot(&mut self, dir: Ino, slot: u64, bytes: &[u8; DIRENT_BYTES]) -> Result<()> {
        let (page, offset) = self.dirent_loc(dir, slot);
        self.rmw(page, offset, bytes)
    }

    /// All live entries of a directory.
    fn dir_entries(&mut self, dir: Ino, dir_size: u64) -> Result<Vec<(u64, DirEntry)>> {
        let mut out = Vec::new();
        for slot in 0..self.dir_slots(dir_size) {
            if let Some(e) = self.read_dirent(dir, slot)? {
                out.push((slot, e));
            }
        }
        Ok(out)
    }

    /// The directory's DRAM index, created on first use.
    fn dir_index_mut(&mut self, dir: Ino) -> &mut DirIndex {
        let idx = dir as usize;
        if self.dirs.len() <= idx {
            self.dirs.resize_with(idx + 1, || None);
        }
        self.dirs[idx].get_or_insert_with(DirIndex::default)
    }

    // lint: hot-path
    fn dir_lookup(&mut self, dir: Ino, _dir_size: u64, name: &str) -> Result<Option<(u64, Ino)>> {
        Ok(self
            .dirs
            .get(dir as usize)
            .and_then(|d| d.as_ref())
            .and_then(|d| d.names.get(name).copied()))
    }

    /// Rebuilds the DRAM directory index and free-slot lists by scanning
    /// the durable slot layout (mount and post-recovery path; charges the
    /// page reads a real scan would).
    fn rebuild_dindex(&mut self) -> Result<()> {
        self.dirs.clear();
        let mut queue: VecDeque<Ino> = VecDeque::new();
        queue.push_back(ROOT_INO);
        // lint: allow(D2): membership test only; traversal order comes
        // from the BFS queue, which is seeded and extended in dirent
        // slot order.
        let mut seen: HashSet<Ino> = HashSet::new();
        seen.insert(ROOT_INO);
        while let Some(dir) = queue.pop_front() {
            let size = self.read_inode(dir)?.size;
            for slot in 0..self.dir_slots(size) {
                match self.read_dirent(dir, slot)? {
                    Some(e) => {
                        let target = self.read_inode(e.ino)?;
                        if target.kind == InodeKind::Dir && seen.insert(e.ino) {
                            queue.push_back(e.ino);
                        }
                        self.dir_index_mut(dir).insert(e.name, slot, e.ino);
                    }
                    None => {
                        self.dir_index_mut(dir).free_slots.push(slot);
                    }
                }
            }
        }
        Ok(())
    }

    // lint: hot-path
    fn dir_add(&mut self, dir: Ino, entry: DirEntry) -> Result<()> {
        // Reuse a freed slot if one exists, else append.
        let reused = self.dir_index_mut(dir).free_slots.pop();
        let slot = match reused {
            Some(slot) => {
                self.write_dirent_slot(dir, slot, &entry.encode())?;
                slot
            }
            None => {
                let mut inode = self.read_inode(dir)?;
                let slot = self.dir_slots(inode.size);
                self.write_dirent_slot(dir, slot, &entry.encode())?;
                inode.size += DIRENT_BYTES as u64;
                inode.mtime_ns = self.now_ns();
                self.write_inode(dir, &inode)?;
                slot
            }
        };
        self.dir_index_mut(dir).insert(entry.name, slot, entry.ino);
        Ok(())
    }

    fn dir_remove_slot(&mut self, dir: Ino, slot: u64, name: &str) -> Result<()> {
        self.write_dirent_slot(dir, slot, &[0u8; DIRENT_BYTES])?;
        let d = self.dir_index_mut(dir);
        d.remove_slot_entries(slot, name);
        d.free_slots.push(slot);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// Resolves a path to its inode.
    fn resolve(&mut self, path: &str) -> Result<Ino> {
        let rel = check_path(path).ok_or(FsError::BadPath)?;
        self.walk(rel)
    }

    /// Resolves a path to `(parent_dir, leaf_name)`.
    fn resolve_parent<'p>(&mut self, path: &'p str) -> Result<(Ino, &'p str)> {
        let rel = check_path(path).ok_or(FsError::BadPath)?;
        if rel.is_empty() {
            // The root has no parent.
            return Err(FsError::BadPath);
        }
        let (dirs, leaf) = rel.rsplit_once('/').unwrap_or(("", rel));
        let dir = self.walk(dirs)?;
        if self.read_inode(dir)?.kind != InodeKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok((dir, leaf))
    }

    /// Walks `rel`, a path [`check_path`] accepted, down from the root;
    /// `""` is the root itself.
    fn walk(&mut self, rel: &str) -> Result<Ino> {
        let mut cur = ROOT_INO;
        if rel.is_empty() {
            return Ok(cur);
        }
        for part in rel.split('/') {
            let inode = self.read_inode(cur)?;
            if inode.kind != InodeKind::Dir {
                return Err(FsError::NotDir);
            }
            let Some((_, next)) = self.dir_lookup(cur, inode.size, part)? else {
                return Err(FsError::NotFound);
            };
            cur = next;
        }
        Ok(cur)
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Whether `path` exists.
    pub fn exists(&mut self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Creates a file and opens it writable, returning its descriptor.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the path exists, plus path/storage errors.
    pub fn create(&mut self, path: &str) -> Result<u64> {
        let (dir, name) = self.resolve_parent(path)?;
        let dir_size = self.read_inode(dir)?.size;
        if self.dir_lookup(dir, dir_size, name)?.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_ino()?;
        let inode = Inode::new(InodeKind::File, self.now_ns());
        self.write_inode(ino, &inode)?;
        self.dir_add(
            dir,
            DirEntry {
                ino,
                // lint: allow(H2): a new directory entry owns its name;
                // namespace growth by design.
                name: name.to_owned(),
            },
        )?;
        self.metrics.creates += 1;
        Ok(self.alloc_fd(ino, OpenMode::Write))
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the path exists, plus path/storage errors.
    pub fn mkdir(&mut self, path: &str) -> Result<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let dir_size = self.read_inode(dir)?.size;
        if self.dir_lookup(dir, dir_size, name)?.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_ino()?;
        let inode = Inode::new(InodeKind::Dir, self.now_ns());
        self.write_inode(ino, &inode)?;
        self.dir_add(
            dir,
            DirEntry {
                ino,
                name: name.to_owned(),
            },
        )?;
        self.metrics.creates += 1;
        Ok(())
    }

    /// Opens an existing file.
    ///
    /// Under [`WritePolicy::CopyOnOpen`], opening writable copies the whole
    /// file into DRAM immediately; under copy-on-write, nothing is copied
    /// until pages are written.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::IsDir`], plus storage errors.
    pub fn open(&mut self, path: &str, mode: OpenMode) -> Result<u64> {
        let start = self.sm.now();
        let ino = self.resolve(path)?;
        let inode = self.read_inode(ino)?;
        if inode.kind == InodeKind::Dir {
            return Err(FsError::IsDir);
        }
        let mut copied = 0u64;
        if mode == OpenMode::Write && self.policy == WritePolicy::CopyOnOpen {
            let ps = self.page_size();
            let pages = inode.size.div_ceil(ps);
            for i in 0..pages {
                let page = file_page(ino, i);
                let buf = self.read_page_buf(page)?;
                self.sm.write_page(page, &buf)?;
                self.put_buf(buf);
                self.metrics.copy_on_open_bytes += ps;
                copied += 1;
            }
        }
        self.recorder.emit(|| Span {
            kind: EventKind::FsOpen,
            start,
            end: self.sm.now(),
            energy: Energy::ZERO,
            pages: copied,
            bytes: copied * self.page_size(),
        });
        Ok(self.alloc_fd(ino, mode))
    }

    /// Issues the next descriptor and records it in the dense fd table.
    fn alloc_fd(&mut self, ino: Ino, mode: OpenMode) -> u64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        if self.fds.len() <= fd as usize {
            self.fds.resize(fd as usize + 1, None);
        }
        self.fds[fd as usize] = Some((ino, mode));
        if self.ino_fds.len() <= ino as usize {
            // lint: allow(H2): the per-inode fd table grows once per new inode
            // number.
            self.ino_fds.resize_with(ino as usize + 1, Vec::new);
        }
        self.ino_fds[ino as usize].push(fd);
        fd
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] if the descriptor is unknown.
    pub fn close(&mut self, fd: u64) -> Result<()> {
        match self.fds.get_mut(fd as usize) {
            Some(slot @ Some(_)) => {
                let (ino, _) = slot.take().expect("matched Some");
                if let Some(open) = self.ino_fds.get_mut(ino as usize) {
                    if let Some(pos) = open.iter().position(|&f| f == fd) {
                        open.swap_remove(pos);
                    }
                }
                Ok(())
            }
            _ => Err(FsError::BadFd),
        }
    }

    fn fd_ino(&self, fd: u64, need_write: bool) -> Result<Ino> {
        let (ino, mode) = self
            .fds
            .get(fd as usize)
            .copied()
            .flatten()
            .ok_or(FsError::BadFd)?;
        if need_write && mode != OpenMode::Write {
            return Err(FsError::ReadOnly);
        }
        Ok(ino)
    }

    /// Writes `data` at byte `offset` of the open file, extending it as
    /// needed. Only touched pages are copied to DRAM (copy-on-write).
    ///
    /// # Errors
    ///
    /// Descriptor and storage errors; short writes do not occur.
    // lint: hot-path
    pub fn write(&mut self, fd: u64, offset: u64, data: &[u8]) -> Result<()> {
        let start = self.sm.now();
        let ino = self.fd_ino(fd, true)?;
        self.write_ino(ino, offset, data)?;
        self.recorder.emit(|| Span {
            kind: EventKind::FsWrite,
            start,
            end: self.sm.now(),
            energy: Energy::ZERO,
            pages: (data.len() as u64).div_ceil(self.page_size().max(1)),
            bytes: data.len() as u64,
        });
        Ok(())
    }

    // lint: hot-path
    fn write_ino(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let ps = self.page_size();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / ps;
            let within = (abs % ps) as usize;
            let chunk = ((ps as usize) - within).min(data.len() - pos);
            let page = file_page(ino, page_idx);
            if within == 0 && chunk == ps as usize {
                self.sm.write_page(page, &data[pos..pos + chunk])?;
            } else {
                self.rmw(page, within, &data[pos..pos + chunk])?;
            }
            pos += chunk;
        }
        let mut inode = self.read_inode(ino)?;
        inode.size = inode.size.max(offset + data.len() as u64);
        inode.mtime_ns = self.now_ns();
        self.write_inode(ino, &inode)?;
        self.metrics.writes += 1;
        self.metrics.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns the bytes read
    /// (short at end of file).
    ///
    /// # Errors
    ///
    /// Descriptor and storage errors.
    // lint: hot-path
    pub fn read(&mut self, fd: u64, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let start = self.sm.now();
        let ino = self.fd_ino(fd, false)?;
        let inode = self.read_inode(ino)?;
        if offset >= inode.size {
            return Ok(0);
        }
        let ps = self.page_size();
        let want = (buf.len() as u64).min(inode.size - offset) as usize;
        let mut pos = 0usize;
        while pos < want {
            let abs = offset + pos as u64;
            let page_idx = abs / ps;
            let within = (abs % ps) as usize;
            let chunk = ((ps as usize) - within).min(want - pos);
            if within == 0 && chunk == ps as usize {
                // Whole-page chunk: land it straight in the caller's
                // buffer — same storage read, no staging copy.
                self.sm
                    .read_page(file_page(ino, page_idx), &mut buf[pos..pos + chunk])?;
            } else {
                match self.sm.read_page_ref(file_page(ino, page_idx))? {
                    Some(page_buf) => {
                        buf[pos..pos + chunk].copy_from_slice(&page_buf[within..within + chunk]);
                    }
                    None => buf[pos..pos + chunk].fill(0),
                }
            }
            pos += chunk;
        }
        self.metrics.reads += 1;
        self.metrics.bytes_read += want as u64;
        self.recorder.emit(|| Span {
            kind: EventKind::FsRead,
            start,
            end: self.sm.now(),
            energy: Energy::ZERO,
            pages: (want as u64).div_ceil(self.page_size().max(1)),
            bytes: want as u64,
        });
        Ok(want)
    }

    /// Reads up to `len` bytes at `offset` without delivering them:
    /// charges exactly what [`Self::read`] into a `len`-byte buffer
    /// charges — same page reads, counters, and span — but never copies a
    /// byte. Trace replay drives reads whose contents nobody inspects;
    /// this is that path, minus the wasted memcpy per page.
    ///
    /// # Errors
    ///
    /// Descriptor and storage errors.
    // lint: hot-path
    pub fn read_discard(&mut self, fd: u64, offset: u64, len: u64) -> Result<usize> {
        let start = self.sm.now();
        let ino = self.fd_ino(fd, false)?;
        let inode = self.read_inode(ino)?;
        if offset >= inode.size {
            return Ok(0);
        }
        let ps = self.page_size();
        let want = len.min(inode.size - offset) as usize;
        if want > 0 {
            // Both the whole-page and sub-page chunks of `read` charge one
            // full-page storage read; the batched storage entry point
            // charges the same page sequence with one call.
            let first_idx = offset / ps;
            let last_idx = (offset + want as u64 - 1) / ps;
            self.sm
                .read_pages_discard(file_page(ino, first_idx), last_idx - first_idx + 1)?;
        }
        self.metrics.reads += 1;
        self.metrics.bytes_read += want as u64;
        self.recorder.emit(|| Span {
            kind: EventKind::FsRead,
            start,
            end: self.sm.now(),
            energy: Energy::ZERO,
            pages: (want as u64).div_ceil(self.page_size().max(1)),
            bytes: want as u64,
        });
        Ok(want)
    }

    /// Appends `data` at the end of the open file, returning the offset
    /// it was written at.
    ///
    /// # Errors
    ///
    /// Descriptor and storage errors.
    pub fn append(&mut self, fd: u64, data: &[u8]) -> Result<u64> {
        let ino = self.fd_ino(fd, true)?;
        let offset = self.read_inode(ino)?.size;
        self.write_ino(ino, offset, data)?;
        Ok(offset)
    }

    /// Truncates the open file to `len` bytes, freeing whole pages beyond
    /// the new end.
    ///
    /// # Errors
    ///
    /// Descriptor and storage errors.
    pub fn ftruncate(&mut self, fd: u64, len: u64) -> Result<()> {
        let ino = self.fd_ino(fd, true)?;
        let mut inode = self.read_inode(ino)?;
        if len < inode.size {
            let ps = self.page_size();
            let first_dead = len.div_ceil(ps);
            let last = inode.size.div_ceil(ps);
            for i in first_dead..last {
                self.sm.free_page(file_page(ino, i))?;
            }
            // Zero the tail of the boundary page so a later extension
            // reads zeros past the truncation point, not stale bytes.
            let within = (len % ps) as usize;
            if within != 0 {
                let page = file_page(ino, len / ps);
                // lint: allow(H2): a truncate ending mid-page zero-fills the
                // tail once; truncate is metadata churn, not read/write replay.
                let zeros = vec![0u8; ps as usize - within];
                self.rmw(page, within, &zeros)?;
            }
        }
        inode.size = len;
        inode.mtime_ns = self.now_ns();
        self.write_inode(ino, &inode)
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`FsError::IsDir`] for directories, plus path/storage errors.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let dir_size = self.read_inode(dir)?.size;
        let Some((slot, ino)) = self.dir_lookup(dir, dir_size, name)? else {
            return Err(FsError::NotFound);
        };
        let mut inode = self.read_inode(ino)?;
        if inode.kind == InodeKind::Dir {
            return Err(FsError::IsDir);
        }
        if inode.nlink > 1 {
            // Other names still reference the data.
            inode.nlink -= 1;
            self.write_inode(ino, &inode)?;
        } else {
            self.remove_inode(ino, inode.size)?;
        }
        self.dir_remove_slot(dir, slot, name)?;
        self.metrics.deletes += 1;
        Ok(())
    }

    fn remove_inode(&mut self, ino: Ino, size: u64) -> Result<()> {
        let ps = self.page_size();
        for i in 0..size.div_ceil(ps) {
            self.sm.free_page(file_page(ino, i))?;
        }
        self.write_inode(ino, &Inode::decode(&[0u8; INODE_BYTES]))?;
        self.free_inos.push(ino);
        // Any descriptor pointing at the dead inode becomes invalid. The
        // per-ino list makes this O(open descriptors of this inode); the
        // drained vector keeps its capacity for the ino's next tenant.
        if let Some(open) = self.ino_fds.get_mut(ino as usize) {
            for fd in open.drain(..) {
                if let Some(slot) = self.fds.get_mut(fd as usize) {
                    *slot = None;
                }
            }
        }
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirNotEmpty`] when entries remain, plus path/storage
    /// errors.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let dir_size = self.read_inode(dir)?.size;
        let Some((slot, ino)) = self.dir_lookup(dir, dir_size, name)? else {
            return Err(FsError::NotFound);
        };
        let inode = self.read_inode(ino)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotDir);
        }
        if !self.dir_entries(ino, inode.size)?.is_empty() {
            return Err(FsError::DirNotEmpty);
        }
        self.remove_inode(ino, inode.size)?;
        self.dir_remove_slot(dir, slot, name)?;
        self.metrics.deletes += 1;
        Ok(())
    }

    /// Renames `old` to `new` (both absolute paths). Overwrites nothing.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the destination exists, plus path/storage
    /// errors.
    pub fn rename(&mut self, old: &str, new: &str) -> Result<()> {
        let (old_dir, old_name) = self.resolve_parent(old)?;
        let old_size = self.read_inode(old_dir)?.size;
        let Some((old_slot, ino)) = self.dir_lookup(old_dir, old_size, old_name)? else {
            return Err(FsError::NotFound);
        };
        let (new_dir, new_name) = self.resolve_parent(new)?;
        let new_size = self.read_inode(new_dir)?.size;
        if self.dir_lookup(new_dir, new_size, new_name)?.is_some() {
            return Err(FsError::Exists);
        }
        self.dir_add(
            new_dir,
            DirEntry {
                ino,
                // lint: allow(H2): a renamed entry owns its new name; namespace
                // mutation by design.
                name: new_name.to_owned(),
            },
        )?;
        self.dir_remove_slot(old_dir, old_slot, old_name)?;
        Ok(())
    }

    /// Returns a path's metadata.
    ///
    /// # Errors
    ///
    /// Path and storage errors.
    pub fn stat(&mut self, path: &str) -> Result<Stat> {
        let ino = self.resolve(path)?;
        let inode = self.read_inode(ino)?;
        Ok(Stat {
            kind: inode.kind,
            size: inode.size,
            mtime_ns: inode.mtime_ns,
        })
    }

    /// Lists a directory's entries.
    ///
    /// # Errors
    ///
    /// [`FsError::NotDir`] for files, plus path/storage errors.
    pub fn list_dir(&mut self, path: &str) -> Result<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        let inode = self.read_inode(ino)?;
        if inode.kind != InodeKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(self
            .dir_entries(ino, inode.size)?
            .into_iter()
            .map(|(_, e)| e)
            .collect())
    }

    /// Maps a file for direct access (the VM layer's entry point for
    /// memory-mapped files and execute-in-place).
    ///
    /// # Errors
    ///
    /// Path and storage errors.
    pub fn map_file(&mut self, path: &str) -> Result<FileMap> {
        let ino = self.resolve(path)?;
        let inode = self.read_inode(ino)?;
        if inode.kind == InodeKind::Dir {
            return Err(FsError::IsDir);
        }
        let ps = self.page_size();
        let pages = (0..inode.size.div_ceil(ps))
            .map(|i| file_page(ino, i))
            .collect();
        Ok(FileMap {
            ino,
            size: inode.size,
            pages,
        })
    }

    /// Forces all dirty data and metadata to flash.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn sync(&mut self) -> Result<()> {
        self.sm.sync()?;
        Ok(())
    }

    /// Periodic maintenance passthrough.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn tick(&mut self) -> Result<()> {
        self.sm.tick()?;
        Ok(())
    }

    /// Simulates battery death.
    pub fn crash(&mut self) {
        self.fds.clear();
        self.ino_fds.clear();
        self.dirs.clear();
        self.sm.crash();
    }

    /// Recovers from battery death: storage-level recovery followed by a
    /// consistency pass (fsck) that repairs the namespace.
    ///
    /// # Errors
    ///
    /// Storage errors during recovery.
    pub fn recover(&mut self) -> Result<(RecoveryReport, FsckReport)> {
        let storage_report = self.sm.recover()?;
        let fsck = self.fsck()?;
        Ok((storage_report, fsck))
    }

    /// Post-recovery consistency pass. Public so tests and experiments can
    /// run it on demand.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn fsck(&mut self) -> Result<FsckReport> {
        let mut report = FsckReport::default();

        // Recover the allocation watermark: the superblock may have
        // reverted, but inode-table pages that exist bound the range.
        let per = self.inodes_per_page();
        let mut max_page = 0u64;
        while self.sm.contains(window(0) + 1 + max_page) {
            max_page += 1;
        }
        let scan_limit = (max_page * per).min(Ino::MAX as u64) as Ino;
        let sb_next = match self.read_superblock()? {
            Some(sb) => sb.next_ino,
            None => ROOT_INO + 1,
        };
        self.next_ino = sb_next.max(scan_limit.max(ROOT_INO + 1));

        // Root must exist.
        if self.read_inode(ROOT_INO)?.kind != InodeKind::Dir {
            let root = Inode::new(InodeKind::Dir, self.now_ns());
            self.write_inode(ROOT_INO, &root)?;
            report.root_rebuilt = true;
        }

        // Walk the namespace from the root, dropping dangling entries and
        // counting surviving references per file (hard links).
        // lint: allow(D2): membership test only; the repair loop below
        // iterates inode numbers in ascending order, not this set.
        let mut reachable: HashSet<Ino> = HashSet::new();
        // lint: allow(D2): keyed count lookup only; consumed via
        // `get(&ino)` inside the ascending inode scan.
        let mut file_refs: HashMap<Ino, u16> = HashMap::new();
        reachable.insert(ROOT_INO);
        let mut queue: VecDeque<Ino> = VecDeque::new();
        queue.push_back(ROOT_INO);
        while let Some(dir) = queue.pop_front() {
            let size = self.read_inode(dir)?.size;
            for (slot, entry) in self.dir_entries(dir, size)? {
                let target = if entry.ino >= self.next_ino {
                    InodeKind::Free
                } else {
                    self.read_inode(entry.ino)?.kind
                };
                match target {
                    InodeKind::Free => {
                        self.dir_remove_slot(dir, slot, &entry.name)?;
                        report.dangling_entries += 1;
                    }
                    InodeKind::Dir => {
                        if reachable.insert(entry.ino) {
                            queue.push_back(entry.ino);
                        } else {
                            // Second link to a directory: drop it.
                            self.dir_remove_slot(dir, slot, &entry.name)?;
                            report.dangling_entries += 1;
                        }
                    }
                    InodeKind::File => {
                        reachable.insert(entry.ino);
                        *file_refs.entry(entry.ino).or_insert(0) += 1;
                    }
                }
            }
        }

        // Free unreachable inodes, repair link counts, and rebuild the
        // free list.
        self.free_inos.clear();
        for ino in (ROOT_INO + 1)..self.next_ino {
            let mut inode = self.read_inode(ino)?;
            if inode.kind == InodeKind::Free {
                self.free_inos.push(ino);
            } else if !reachable.contains(&ino) {
                self.remove_inode(ino, inode.size)?;
                report.orphans_freed += 1;
            } else if inode.kind == InodeKind::File {
                let refs = file_refs.get(&ino).copied().unwrap_or(1).max(1);
                if inode.nlink != refs {
                    inode.nlink = refs;
                    self.write_inode(ino, &inode)?;
                    report.nlinks_repaired += 1;
                }
            }
        }
        self.write_superblock()?;
        self.rebuild_dindex()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::{Clock, SimDuration};
    use ssmc_storage::StorageConfig;

    fn fs_with(policy: WritePolicy) -> MemFs {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            page_size: 512,
            dram_buffer_bytes: 64 * 512,
            flash: FlashSpec {
                banks: 2,
                blocks_per_bank: 24,
                block_bytes: 4096,
                write_unit: 512,
                ..FlashSpec::default()
            },
            ..StorageConfig::default()
        };
        let sm = StorageManager::new(cfg, clock);
        MemFs::new(sm, policy).expect("mount")
    }

    fn fs() -> MemFs {
        fs_with(WritePolicy::CopyOnWrite)
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut f = fs();
        let fd = f.create("/hello.txt").expect("create");
        f.write(fd, 0, b"hello, flash world").expect("write");
        let mut buf = [0u8; 64];
        let n = f.read(fd, 0, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"hello, flash world");
        let st = f.stat("/hello.txt").expect("stat");
        assert_eq!(st.size, 18);
        assert_eq!(st.kind, InodeKind::File);
    }

    #[test]
    fn offsets_and_partial_pages() {
        let mut f = fs();
        let fd = f.create("/f").expect("create");
        // Write across a page boundary at an odd offset.
        let data: Vec<u8> = (0..1500u32).map(|i| (i % 251) as u8).collect();
        f.write(fd, 300, &data).expect("write");
        let mut buf = vec![0u8; 1500];
        let n = f.read(fd, 300, &mut buf).expect("read");
        assert_eq!(n, 1500);
        assert_eq!(buf, data);
        // The hole before offset 300 reads as zeros.
        let mut head = vec![9u8; 300];
        f.read(fd, 0, &mut head).expect("read head");
        assert!(head.iter().all(|&b| b == 0));
        assert_eq!(f.stat("/f").expect("stat").size, 1800);
    }

    #[test]
    fn directories_nest_and_list() {
        let mut f = fs();
        f.mkdir("/docs").expect("mkdir");
        f.mkdir("/docs/work").expect("mkdir nested");
        let fd = f.create("/docs/work/todo.txt").expect("create");
        f.write(fd, 0, b"ship it").expect("write");
        let entries = f.list_dir("/docs").expect("list");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "work");
        let entries = f.list_dir("/docs/work").expect("list");
        assert_eq!(entries[0].name, "todo.txt");
        assert!(f.exists("/docs/work/todo.txt"));
        assert!(!f.exists("/docs/play"));
    }

    #[test]
    fn create_errors() {
        let mut f = fs();
        f.create("/a").expect("create");
        assert_eq!(f.create("/a"), Err(FsError::Exists));
        assert_eq!(f.create("/no/dir/file"), Err(FsError::NotFound));
        assert_eq!(f.create("relative"), Err(FsError::BadPath));
        assert_eq!(f.open("/missing", OpenMode::Read), Err(FsError::NotFound));
        // A file used as a directory component.
        assert_eq!(f.create("/a/b"), Err(FsError::NotDir));
        // The whole path is checked before any component is looked up,
        // so a bad path wins over NotDir, NotFound and Exists.
        assert_eq!(f.create("/a/b/.."), Err(FsError::BadPath));
        assert_eq!(f.create("/no/dir//file"), Err(FsError::BadPath));
        assert_eq!(f.create("/a/"), Err(FsError::BadPath));
        assert_eq!(f.stat("/no/.."), Err(FsError::BadPath));
    }

    #[test]
    fn unlink_frees_space_and_name() {
        let mut f = fs();
        let fd = f.create("/big").expect("create");
        f.write(fd, 0, &vec![7u8; 8192]).expect("write");
        let live_before = f.storage().pages_live();
        f.unlink("/big").expect("unlink");
        assert!(f.storage().pages_live() < live_before);
        assert!(!f.exists("/big"));
        // Descriptor died with the file.
        assert_eq!(f.write(fd, 0, b"x"), Err(FsError::BadFd));
        // Name is reusable.
        f.create("/big").expect("recreate");
    }

    #[test]
    fn freed_dirent_slots_are_reused_lifo() {
        // The free-slot list is load-bearing for the on-flash layout:
        // recreates must fill the most recently freed slot first, so the
        // listing (which scans slots in order) — and therefore `results/`
        // — is pinned by this exact order.
        let mut f = fs();
        for name in ["/a", "/b", "/c", "/d"] {
            f.create(name).expect("create");
        }
        f.unlink("/b").expect("unlink slot 1");
        f.unlink("/c").expect("unlink slot 2");
        // LIFO: /e takes slot 2 (freed last), /f takes slot 1, /g appends.
        for name in ["/e", "/f", "/g"] {
            f.create(name).expect("recreate");
        }
        let order: Vec<String> = f
            .list_dir("/")
            .expect("list")
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(order, ["a", "f", "e", "d", "g"], "slot layout changed");
    }

    #[test]
    fn zeroing_a_slot_drops_every_aliased_index_entry() {
        // A stale index entry can alias a reused slot (historically: an
        // error path handed a live slot back to `free_slots`). The
        // original per-directory HashMap removed entries by slot
        // (`retain`), so zeroing the slot healed every claimant at once —
        // and long replays pin that behaviour. Reproduce the alias
        // directly and check the claim counter heals the same way.
        let mut f = fs();
        f.create("/a").expect("create"); // slot 0
        f.create("/b").expect("create"); // slot 1

        // Simulate the historical double-free: slot 0 is live but listed
        // as free.
        f.dirs[ROOT_INO as usize]
            .as_mut()
            .expect("root index")
            .free_slots
            .push(0);
        // /c reuses slot 0, overwriting /a's dirent; the index now holds
        // two claimants for slot 0.
        f.create("/c").expect("create");
        assert!(f.stat("/a").is_ok(), "stale alias still resolves");
        // Zeroing the slot must drop BOTH entries, as retain-by-slot did.
        f.unlink("/c").expect("unlink");
        assert_eq!(f.stat("/a").unwrap_err(), FsError::NotFound);
        assert_eq!(f.stat("/c").unwrap_err(), FsError::NotFound);
        assert!(f.stat("/b").is_ok(), "unrelated entry survives");
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut f = fs();
        f.mkdir("/d").expect("mkdir");
        f.create("/d/f").expect("create");
        assert_eq!(f.rmdir("/d"), Err(FsError::DirNotEmpty));
        f.unlink("/d/f").expect("unlink");
        f.rmdir("/d").expect("rmdir");
        assert!(!f.exists("/d"));
        assert_eq!(f.rmdir("/d"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_between_directories() {
        let mut f = fs();
        f.mkdir("/a").expect("mkdir");
        f.mkdir("/b").expect("mkdir");
        let fd = f.create("/a/file").expect("create");
        f.write(fd, 0, b"payload").expect("write");
        f.rename("/a/file", "/b/moved").expect("rename");
        assert!(!f.exists("/a/file"));
        let fd2 = f.open("/b/moved", OpenMode::Read).expect("open");
        let mut buf = [0u8; 7];
        f.read(fd2, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"payload");
        // Destination collision is refused.
        f.create("/b/taken").expect("create");
        assert_eq!(f.rename("/b/moved", "/b/taken"), Err(FsError::Exists));
    }

    #[test]
    fn truncate_frees_tail_pages() {
        let mut f = fs();
        let fd = f.create("/t").expect("create");
        f.write(fd, 0, &vec![1u8; 4096]).expect("write");
        let live_before = f.storage().pages_live();
        f.ftruncate(fd, 512).expect("truncate");
        assert!(f.storage().pages_live() < live_before);
        assert_eq!(f.stat("/t").expect("stat").size, 512);
        // Extending again reads zeros in the reopened range.
        let mut buf = vec![9u8; 1024];
        let n = f.read(fd, 0, &mut buf).expect("read");
        assert_eq!(n, 512);
    }

    #[test]
    fn read_only_descriptor_rejects_writes() {
        let mut f = fs();
        let fd = f.create("/r").expect("create");
        f.write(fd, 0, b"x").expect("write");
        f.close(fd).expect("close");
        let ro = f.open("/r", OpenMode::Read).expect("open ro");
        assert_eq!(f.write(ro, 0, b"y"), Err(FsError::ReadOnly));
        assert_eq!(f.close(99), Err(FsError::BadFd));
    }

    #[test]
    fn map_file_exposes_page_run() {
        let mut f = fs();
        let fd = f.create("/m").expect("create");
        f.write(fd, 0, &vec![3u8; 1500]).expect("write");
        let map = f.map_file("/m").expect("map");
        assert_eq!(map.size, 1500);
        assert_eq!(map.pages.len(), 3);
        // Pages are consecutive in the ino window: the "no indirect
        // blocks" property.
        assert_eq!(map.pages[1], map.pages[0] + 1);
        assert_eq!(map.pages[2], map.pages[0] + 2);
    }

    #[test]
    fn data_survives_sync_crash_recover() {
        let mut f = fs();
        let fd = f.create("/durable").expect("create");
        f.write(fd, 0, b"must survive").expect("write");
        f.sync().expect("sync");
        f.crash();
        let (storage_report, fsck) = f.recover().expect("recover");
        assert_eq!(storage_report.lost_pages, 0);
        assert_eq!(fsck.dangling_entries, 0);
        let fd = f.open("/durable", OpenMode::Read).expect("open");
        let mut buf = [0u8; 12];
        f.read(fd, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"must survive");
    }

    #[test]
    fn unsynced_create_is_cleaned_by_fsck() {
        let mut f = fs();
        // Make the namespace durable first.
        let fd = f.create("/old").expect("create");
        f.write(fd, 0, b"old data").expect("write");
        f.sync().expect("sync");
        // New file exists only in DRAM.
        let fd2 = f.create("/fresh").expect("create");
        f.write(fd2, 0, &vec![5u8; 2048]).expect("write");
        f.crash();
        let (_, fsck) = f.recover().expect("recover");
        // Either the dirent or the inode (or both) died; fsck must leave a
        // consistent namespace with /old intact.
        assert!(f.exists("/old"), "durable file survived");
        let _ = fsck;
        let names: Vec<String> = f
            .list_dir("/")
            .expect("list")
            .into_iter()
            .map(|e| e.name)
            .collect();
        // No phantom entries pointing at dead inodes.
        for name in names {
            assert!(f.stat(&format!("/{name}")).is_ok());
        }
    }

    #[test]
    fn copy_on_open_copies_copy_on_write_does_not() {
        for (policy, expect_copy) in [
            (WritePolicy::CopyOnOpen, true),
            (WritePolicy::CopyOnWrite, false),
        ] {
            let mut f = fs_with(policy);
            let fd = f.create("/doc").expect("create");
            f.write(fd, 0, &vec![1u8; 8 * 512]).expect("write");
            f.close(fd).expect("close");
            f.sync().expect("sync");
            let before = f.storage().metrics().pages_written;
            let fd = f.open("/doc", OpenMode::Write).expect("open rw");
            let copied = f.storage().metrics().pages_written - before;
            if expect_copy {
                assert_eq!(copied, 8, "copy-on-open copies every page");
                assert_eq!(f.metrics().copy_on_open_bytes, 8 * 512);
            } else {
                assert_eq!(copied, 0, "copy-on-write copies nothing at open");
            }
            // One small write: COW dirties exactly one page (plus inode).
            let before = f.storage().metrics().pages_written;
            f.write(fd, 0, b"tweak").expect("write");
            let dirtied = f.storage().metrics().pages_written - before;
            assert!(dirtied <= 2, "small write touched {dirtied} pages");
        }
    }

    #[test]
    fn metadata_updates_are_absorbed_by_the_buffer() {
        let mut f = fs();
        let fd = f.create("/hot").expect("create");
        for i in 0..50u64 {
            f.write(fd, i * 8, &[i as u8; 8]).expect("write");
        }
        // 50 writes to the same data page + 50 inode updates: nearly all
        // absorbed in DRAM, not flash.
        let m = f.storage().metrics();
        assert!(
            m.overwrites_absorbed > 80,
            "absorbed {} of {}",
            m.overwrites_absorbed,
            m.pages_written
        );
    }

    #[test]
    fn large_file_spans_many_pages() {
        let mut f = fs();
        let fd = f.create("/large").expect("create");
        let data: Vec<u8> = (0..30_000u32).map(|i| (i * 7 % 256) as u8).collect();
        f.write(fd, 0, &data).expect("write");
        f.sync().expect("sync");
        let mut buf = vec![0u8; 30_000];
        let n = f.read(fd, 0, &mut buf).expect("read");
        assert_eq!(n, 30_000);
        assert_eq!(buf, data);
    }

    #[test]
    fn mtime_advances_with_simulated_time() {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            flash: FlashSpec {
                banks: 1,
                blocks_per_bank: 32,
                block_bytes: 4096,
                write_unit: 512,
                ..FlashSpec::default()
            },
            ..StorageConfig::default()
        };
        let sm = StorageManager::new(cfg, clock.clone());
        let mut f = MemFs::new(sm, WritePolicy::CopyOnWrite).expect("mount");
        let fd = f.create("/clock").expect("create");
        f.write(fd, 0, b"a").expect("write");
        let t1 = f.stat("/clock").expect("stat").mtime_ns;
        clock.advance(SimDuration::from_secs(5));
        f.write(fd, 0, b"b").expect("write");
        let t2 = f.stat("/clock").expect("stat").mtime_ns;
        assert!(t2 >= t1 + 5_000_000_000);
    }
}

#[cfg(test)]
mod link_tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    fn fs() -> MemFs {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            page_size: 512,
            dram_buffer_bytes: 64 * 512,
            flash: FlashSpec {
                banks: 2,
                blocks_per_bank: 24,
                block_bytes: 4096,
                write_unit: 512,
                ..FlashSpec::default()
            },
            ..StorageConfig::default()
        };
        MemFs::new(StorageManager::new(cfg, clock), WritePolicy::CopyOnWrite).expect("mount")
    }

    #[test]
    fn fsck_counts_both_names_a_torn_rename_leaves() {
        // A crash between rename's `dir_add` and `dir_remove_slot` leaves
        // two names on one inode whose nlink is still 1.
        let mut f = fs();
        let fd = f.create("/old").expect("create");
        f.write(fd, 0, b"shared bytes").expect("write");
        let ino = f.resolve("/old").expect("resolve");
        let entry = DirEntry {
            ino,
            name: "new".to_owned(),
        };
        f.dir_add(ROOT_INO, entry).expect("dir_add");
        f.sync().expect("sync");
        f.crash();
        let (_, fsck) = f.recover().expect("recover");
        assert_eq!(fsck.nlinks_repaired, 1, "nlink must count both names");
        // Unlinking one name keeps the data alive.
        let live_before = f.storage().pages_live();
        f.unlink("/old").expect("unlink old");
        assert_eq!(f.storage().pages_live(), live_before, "no pages freed yet");
        let mut buf = [0u8; 12];
        let fd = f
            .open("/new", OpenMode::Read)
            .expect("second name survives");
        f.read(fd, 0, &mut buf).expect("read");
        assert_eq!(&buf, b"shared bytes");
        // Unlinking the last name frees the pages, leaving no orphan.
        f.unlink("/new").expect("unlink new");
        assert!(f.storage().pages_live() < live_before);
        assert_eq!(f.fsck().expect("fsck").orphans_freed, 0);
    }
}

#[cfg(test)]
mod convenience_tests {
    use super::*;
    use ssmc_device::FlashSpec;
    use ssmc_sim::Clock;
    use ssmc_storage::StorageConfig;

    fn fs() -> MemFs {
        let clock = Clock::shared();
        let cfg = StorageConfig {
            flash: FlashSpec {
                banks: 1,
                blocks_per_bank: 32,
                block_bytes: 4096,
                write_unit: 512,
                ..FlashSpec::default()
            },
            ..StorageConfig::default()
        };
        MemFs::new(StorageManager::new(cfg, clock), WritePolicy::CopyOnWrite).expect("mount")
    }

    #[test]
    fn append_extends_and_returns_offsets() {
        let mut f = fs();
        let fd = f.create("/log").expect("create");
        assert_eq!(f.append(fd, b"first").expect("append"), 0);
        assert_eq!(f.append(fd, b" second").expect("append"), 5);
        let mut buf = [0u8; 16];
        assert_eq!(f.read(fd, 0, &mut buf).expect("read"), 12);
        assert_eq!(&buf[..12], b"first second");
    }

    #[test]
    fn append_respects_read_only_descriptors() {
        let mut f = fs();
        let fd = f.create("/x").expect("create");
        f.close(fd).expect("close");
        let ro = f.open("/x", OpenMode::Read).expect("open");
        assert_eq!(f.append(ro, b"nope"), Err(FsError::ReadOnly));
    }
}
