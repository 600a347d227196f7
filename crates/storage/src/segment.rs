//! Flash segment table for the log-structured layout.
//!
//! Each segment is one erase block, divided into page-sized slots. Every
//! data slot carries a small header (logical page id + global write
//! sequence) programmed together with the data, the way JFFS-style flash
//! file systems make every node self-describing — that is what makes
//! recovery after battery death possible without any central table.
//! Deletions are made durable by *tombstone slots*: page-sized log entries
//! batching (page, seq) deletion records, so a deleted file cannot
//! resurrect from a stale copy during recovery.
//!
//! One liveness rule decides what an erase must keep. A data slot is live
//! while it holds a page's current copy (or the stale copy a dirty rewrite
//! still shields). A tombstone record is *needed* while it is its page's
//! winning record at recovery over a data copy still on flash: no newer
//! copy of the page is on flash and a stale copy survives. At most one
//! record per page is needed, and a tombstone slot that holds one counts
//! as live, so victim choice prices it and relocation moves it like data.
//!
//! Blocks that exceed their erase endurance are *retired*: the segment
//! drops out of rotation and capacity shrinks, mirroring how the device
//! model fails the block.

use crate::dense::DenseIndex;
use crate::map::PageId;
use ssmc_sim::SimTime;
use std::collections::BTreeMap;

/// Header programmed with each data slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotMeta {
    /// The logical page stored in the slot.
    pub page: PageId,
    /// Global write sequence at the time of the program; recovery keeps
    /// the highest sequence per page.
    pub seq: u64,
    /// CRC-32 of the page bytes programmed with this header. Recovery
    /// recomputes it from the flash array; a mismatch means the program
    /// was torn by power loss and the slot must be discarded.
    pub crc: u32,
}

/// A slot's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// Never programmed since the last erase.
    Empty,
    /// Holds the current copy of a page.
    Live(SlotMeta),
    /// Holds a stale copy (page rewritten or deleted); reclaimed by GC.
    Dead(SlotMeta),
    /// Holds batched deletion records; `needed` of them are their page's
    /// needed record (see the module docs), and the slot is live while
    /// any is.
    Tomb {
        /// The (page, seq) records, in the order they were programmed.
        records: Vec<(PageId, u64)>,
        /// How many records the table's needed index points at.
        needed: u32,
    },
}

/// Bytes per (page, seq) record in tombstone slots (and checkpoints).
pub const RECORD_BYTES: u64 = 16;

/// A segment's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegState {
    /// Erased and ready to open.
    Free,
    /// Accepting appends.
    Open,
    /// Full (or closed early); GC candidate.
    Closed,
    /// Being erased; unusable until the erase completes.
    ErasePending,
    /// Block worn out; permanently out of rotation.
    Retired,
}

/// Per-segment bookkeeping.
#[derive(Debug)]
pub struct Segment {
    /// Lifecycle state.
    pub state: SegState,
    /// One entry per slot.
    pub slots: Vec<Slot>,
    /// Next slot to append into.
    pub next_slot: usize,
    /// Slots an erase must keep: live data slots plus tombstone slots
    /// that hold a needed record.
    pub live: usize,
    /// Most recent append instant (the "age" input to cost-benefit GC).
    pub youngest_write: SimTime,
}

impl Segment {
    fn new(slots: usize) -> Self {
        Segment {
            state: SegState::Free,
            slots: vec![Slot::Empty; slots],
            next_slot: 0,
            live: 0,
            youngest_write: SimTime::ZERO,
        }
    }

    /// Whether every slot has been programmed.
    pub fn is_full(&self) -> bool {
        self.next_slot >= self.slots.len()
    }

    /// Fraction of slots an erase must keep.
    pub fn utilization(&self) -> f64 {
        if self.slots.is_empty() {
            0.0
        } else {
            self.live as f64 / self.slots.len() as f64
        }
    }

    /// Appends the live slot metas (with their slot indices) to `out`.
    /// The GC copy loop calls this once per victim with a recycled
    /// scratch vector, so cleaning allocates nothing in steady state.
    // lint: hot-path
    pub fn live_slots_into(&self, out: &mut Vec<(usize, SlotMeta)>) {
        for (i, s) in self.slots.iter().enumerate() {
            if let Slot::Live(m) = s {
                out.push((i, *m));
            }
        }
    }
}

/// The table of all log segments plus free/erase bookkeeping.
#[derive(Debug)]
pub struct SegmentTable {
    segments: Vec<Segment>,
    /// Byte address of segment 0's erase block.
    base_addr: u64,
    block_bytes: u64,
    page_size: u64,
    /// Slots in every segment; fixed at construction, so usable capacity
    /// follows from the retired count alone.
    slots_per_segment: usize,
    /// Erases in flight: (completion instant, segment index).
    pending_erase: Vec<(SimTime, usize)>,
    /// Stale (dead) copies per page, used to decide when a tombstone can
    /// finally be dropped. Dense-indexed: `kill_at` runs on every
    /// overwrite of a flash-backed page.
    dead_copies: DenseIndex<u32>,
    /// Per page, the number of its needed tombstone record (see the
    /// module docs and [`SegmentTable::first_record`]). Sparse: only pages
    /// with a stale copy and no newer copy on flash have an entry.
    needed: DenseIndex<u32>,
    /// Free segments, maintained on every state transition so the GC
    /// trigger check is O(1) per operation.
    free_count: usize,
    /// Retired segments, maintained by [`SegmentTable::retire`] and
    /// [`SegmentTable::retire_free`]; part of the wear-spread cache key in
    /// the manager, and the only varying input of
    /// [`SegmentTable::usable_slots`].
    retired_count: usize,
    /// Recycled backing stores for tombstone slots. A `Slot::Tomb` owns a
    /// `Vec` of deletion records; when its segment is erased and reaped,
    /// the vector returns here with its capacity intact so the next
    /// tombstone flush needs no allocation. Bounded by the maximum number
    /// of tombstone slots ever simultaneously on flash.
    tomb_pool: Vec<Vec<(PageId, u64)>>,
}

impl SegmentTable {
    /// Creates a table of `count` segments of `slots_per_segment` slots
    /// each, starting at flash byte `base_addr`.
    pub fn new(
        count: usize,
        slots_per_segment: usize,
        base_addr: u64,
        block_bytes: u64,
        page_size: u64,
    ) -> Self {
        assert!(
            slots_per_segment as u64 * page_size <= block_bytes,
            "slots exceed the erase block"
        );
        assert!(
            count as u64 * block_bytes / RECORD_BYTES <= u32::MAX as u64,
            "tombstone records must be numbered in 32 bits"
        );
        SegmentTable {
            segments: (0..count)
                .map(|_| Segment::new(slots_per_segment))
                .collect(),
            base_addr,
            block_bytes,
            page_size,
            slots_per_segment,
            // Sized up front so steady-state GC/erase churn never grows
            // them: every segment can have at most one pending erase, and
            // the tombstone pool is stocked with ready batches (a batch
            // carries at most one record per victim slot).
            pending_erase: Vec::with_capacity(count),
            dead_copies: DenseIndex::new(crate::map::DEFAULT_DENSE_PAGES),
            needed: DenseIndex::new(crate::map::DEFAULT_DENSE_PAGES),
            free_count: count,
            retired_count: 0,
            // A tombstone slot holds page_size / RECORD_BYTES records,
            // which bounds any batch drained into it.
            tomb_pool: (0..2)
                .map(|_| Vec::with_capacity((page_size / RECORD_BYTES).max(16) as usize))
                .collect(),
        }
    }

    /// Number of segments (including retired ones).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the table has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Immutable access to a segment.
    pub fn seg(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    /// Free segments, O(1): the count is maintained on every state
    /// transition; debug builds reconcile it against a full scan.
    pub fn free_count(&self) -> usize {
        debug_assert_eq!(
            self.free_count,
            self.segments
                .iter()
                .filter(|s| s.state == SegState::Free)
                .count(),
            "maintained free-segment counter diverged from a full scan"
        );
        self.free_count
    }

    /// Iterates indices of segments in `state` without allocating.
    pub fn segments_in(&self, state: SegState) -> impl Iterator<Item = usize> + '_ {
        self.segments
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.state == state)
            .map(|(i, _)| i)
    }

    /// Retired segments, O(1); debug builds reconcile against a scan.
    pub fn retired_count(&self) -> usize {
        debug_assert_eq!(
            self.retired_count,
            self.segments
                .iter()
                .filter(|s| s.state == SegState::Retired)
                .count(),
            "maintained retired-segment counter diverged from a full scan"
        );
        self.retired_count
    }

    /// Total slot capacity across non-retired segments, O(1): every
    /// segment has the same slot count, so only the retired count varies.
    /// The manager's capacity check runs this on every write of a page
    /// not yet mapped; debug builds reconcile it against a full scan.
    pub fn usable_slots(&self) -> usize {
        let usable = (self.segments.len() - self.retired_count) * self.slots_per_segment;
        debug_assert_eq!(
            usable,
            self.segments
                .iter()
                .filter(|s| s.state != SegState::Retired)
                .map(|s| s.slots.len())
                .sum::<usize>(),
            "usable slots diverged from a full scan"
        );
        usable
    }

    /// The erase-block byte address of a segment.
    pub fn block_addr(&self, seg: usize) -> u64 {
        self.base_addr + seg as u64 * self.block_bytes
    }

    /// Flash byte address of a slot.
    pub fn slot_addr(&self, seg: usize, slot: usize) -> u64 {
        self.block_addr(seg) + slot as u64 * self.page_size
    }

    /// The number of the first record of tombstone slot `slot` in `seg`,
    /// counting records from the start of the segment area. The needed
    /// index holds these numbers: a `u32` entry is as small as a
    /// `dead_copies` one.
    fn first_record(&self, seg: usize, slot: usize) -> u32 {
        ((self.slot_addr(seg, slot) - self.base_addr) / RECORD_BYTES) as u32
    }

    /// The segment and slot holding record number `rec`.
    fn record_slot(&self, rec: u32) -> (usize, usize) {
        self.locate(self.base_addr + rec as u64 * RECORD_BYTES)
    }

    /// Inverse of [`SegmentTable::slot_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` lies below the segment area.
    pub fn locate(&self, addr: u64) -> (usize, usize) {
        assert!(addr >= self.base_addr, "address below segment area");
        let rel = addr - self.base_addr;
        let seg = (rel / self.block_bytes) as usize;
        let slot = (rel % self.block_bytes / self.page_size) as usize;
        (seg, slot)
    }

    /// Opens a free segment for appends.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn open(&mut self, seg: usize) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Free,
            "open of non-free segment"
        );
        self.free_count -= 1;
        let s = &mut self.segments[seg];
        s.state = SegState::Open;
        s.next_slot = 0;
        s.live = 0;
        for slot in &mut s.slots {
            *slot = Slot::Empty;
        }
    }

    /// Appends a page to an open segment, returning the slot index used.
    /// The copy is newer than any record of its page, so the page's
    /// needed tombstone record (if any) is released.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    pub fn append(&mut self, seg: usize, meta: SlotMeta, now: SimTime) -> usize {
        let slot = self.push_slot(seg, Slot::Live(meta), now);
        self.segments[seg].live += 1;
        if let Some(rec) = self.needed.remove(meta.page) {
            self.release_record(rec);
        }
        slot
    }

    /// Programs `slot` into the next free position of open segment `seg`.
    fn push_slot(&mut self, seg: usize, slot: Slot, now: SimTime) -> usize {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "append to non-open segment");
        assert!(!s.is_full(), "append to full segment");
        let at = s.next_slot;
        s.slots[at] = slot;
        s.next_slot += 1;
        s.youngest_write = now;
        at
    }

    /// Collects `records` (one slot's worth) into a batch whose backing
    /// store comes from the reuse pool, so a steady-state tombstone flush
    /// performs no allocation once the pool is warm. Hand the batch to
    /// [`SegmentTable::append_tomb`].
    // lint: hot-path
    pub fn tomb_batch(
        &mut self,
        records: impl IntoIterator<Item = (PageId, u64)>,
    ) -> Vec<(PageId, u64)> {
        let mut batch = self.tomb_pool.pop().unwrap_or_default();
        batch.clear();
        batch.extend(records);
        batch
    }

    /// Appends a tombstone slot carrying `records`, returning the slot
    /// index used. Records must arrive in sequence order per page. Each
    /// record whose page has a stale copy on flash, and no newer copy
    /// (`has_flash_copy` reports the page's current or shielded copy),
    /// becomes the page's needed record and releases the older one.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    // lint: hot-path
    pub fn append_tomb(
        &mut self,
        seg: usize,
        records: Vec<(PageId, u64)>,
        now: SimTime,
        has_flash_copy: impl Fn(PageId) -> bool,
    ) -> usize {
        let base = self.first_record(seg, self.segments[seg].next_slot);
        let mut needed = 0;
        for (i, &(page, _)) in records.iter().enumerate() {
            if !self.has_dead_copies(page) || has_flash_copy(page) {
                continue;
            }
            let rec = base + i as u32;
            match self.needed.insert(page, rec) {
                // An earlier record of this batch hands its place over.
                Some(old) if (base..rec).contains(&old) => {}
                Some(old) => {
                    self.release_record(old);
                    needed += 1;
                }
                None => needed += 1,
            }
        }
        let slot = self.push_slot(seg, Slot::Tomb { records, needed }, now);
        if needed > 0 {
            self.segments[seg].live += 1;
        }
        slot
    }

    /// Counts one more needed record in the tombstone slot holding
    /// record `rec`; the slot turns live with its first.
    fn hold_record(&mut self, rec: u32) {
        let (seg, slot) = self.record_slot(rec);
        let s = &mut self.segments[seg];
        let Slot::Tomb { needed, .. } = &mut s.slots[slot] else {
            panic!("needed record {rec} outside a tombstone slot")
        };
        *needed += 1;
        if *needed == 1 {
            s.live += 1;
        }
    }

    /// Counts one needed record less in the tombstone slot holding
    /// record `rec`; the slot turns dead with its last.
    fn release_record(&mut self, rec: u32) {
        let (seg, slot) = self.record_slot(rec);
        let s = &mut self.segments[seg];
        let Slot::Tomb { needed, .. } = &mut s.slots[slot] else {
            panic!("needed record {rec} outside a tombstone slot")
        };
        *needed -= 1;
        if *needed == 0 {
            s.live -= 1;
        }
    }

    /// Takes a pooled batch of up to `max` of `seg`'s needed records, in
    /// slot order. Appending the batch elsewhere re-points the records,
    /// so the next call returns the ones after them.
    // lint: hot-path
    pub fn needed_batch(&mut self, seg: usize, max: usize) -> Vec<(PageId, u64)> {
        let mut batch = self.tomb_batch(core::iter::empty());
        for (slot, s) in self.segments[seg].slots.iter().enumerate() {
            let Slot::Tomb { records, needed } = s else {
                continue;
            };
            if *needed == 0 {
                continue;
            }
            let base = self.first_record(seg, slot);
            for (i, &(page, seq)) in records.iter().enumerate() {
                if batch.len() == max {
                    return batch;
                }
                if self.needed.get(page) == Some(base + i as u32) {
                    batch.push((page, seq));
                }
            }
        }
        batch
    }

    /// Whether `seg` holds a stale copy that one of `records` supersedes
    /// (a record of the same page with a newer sequence).
    pub fn holds_copy_superseded_by(&self, seg: usize, records: &[(PageId, u64)]) -> bool {
        self.segments[seg].slots.iter().any(|slot| {
            matches!(slot, Slot::Dead(m)
                if records.iter().any(|&(page, seq)| page == m.page && seq > m.seq))
        })
    }

    /// Discards a slot whose on-flash payload failed its CRC check: the
    /// program was torn by power loss, so the record never happened.
    /// Recovery-only — liveness, dead-copy and needed-record accounting
    /// are left to the [`SegmentTable::recover_liveness`] rebuild that
    /// follows, which recomputes all three from scratch and skips `Empty`
    /// slots.
    pub fn invalidate_slot(&mut self, seg: usize, slot: usize) {
        if let Slot::Tomb { mut records, .. } =
            core::mem::replace(&mut self.segments[seg].slots[slot], Slot::Empty)
        {
            records.clear();
            self.tomb_pool.push(records);
        }
    }

    /// Permanently retires a *free* segment whose block wore out during a
    /// post-recovery scrub erase. Unlike [`SegmentTable::retire`]
    /// there is no metadata to release: the segment holds nothing.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn retire_free(&mut self, seg: usize) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Free,
            "retire_free of non-free segment"
        );
        self.free_count -= 1;
        self.segments[seg].state = SegState::Retired;
        self.retired_count += 1;
    }

    /// Moves a *free* segment back to erase-pending for a scrub re-erase:
    /// recovery found its block partially programmed (a torn erase), so
    /// it must be erased again before slots can be placed on it. There
    /// is no metadata to release — the segment was already free.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not free.
    pub fn scrub_erase(&mut self, seg: usize, completes: SimTime) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Free,
            "scrub erase of non-free segment"
        );
        self.free_count -= 1;
        self.segments[seg].state = SegState::ErasePending;
        self.pending_erase.push((completes, seg));
    }

    /// Marks the slot at `addr` dead (its page was rewritten or deleted).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live.
    pub fn kill_at(&mut self, addr: u64) {
        let (seg, slot) = self.locate(addr);
        let s = &mut self.segments[seg];
        match s.slots[slot] {
            Slot::Live(m) => {
                s.slots[slot] = Slot::Dead(m);
                s.live -= 1;
                let n = self.dead_copies.get(m.page).unwrap_or(0);
                self.dead_copies.insert(m.page, n + 1);
            }
            _ => panic!("kill of non-live slot {seg}/{slot}"),
        }
    }

    /// Whether any stale copy of `page` survives on flash (a tombstone for
    /// it must then survive too).
    pub fn has_dead_copies(&self, page: PageId) -> bool {
        self.dead_copies.get(page).is_some_and(|n| n > 0)
    }

    /// Closes an open segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open.
    pub fn close(&mut self, seg: usize) {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "close of non-open segment");
        s.state = SegState::Closed;
    }

    /// Common bookkeeping for removing a closed segment that holds nothing
    /// an erase must keep: forgets its stale copies, and with a page's
    /// last stale copy that page's needed record (nothing is left for it
    /// to beat at recovery).
    // lint: hot-path
    fn release_metadata(&mut self, seg: usize) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Closed,
            "release of non-closed segment"
        );
        assert_eq!(
            self.segments[seg].live, 0,
            "release of segment with live slots"
        );
        // Dead-copy accounting by index: `dead_copies` and `segments` are
        // both fields of self, so iterating one while mutating the other
        // needs the loop split rather than an intermediate list.
        for i in 0..self.segments[seg].slots.len() {
            let page = match &self.segments[seg].slots[i] {
                Slot::Dead(m) => m.page,
                _ => continue,
            };
            match self.dead_copies.get(page) {
                Some(n) if n > 1 => {
                    self.dead_copies.insert(page, n - 1);
                }
                Some(_) => {
                    self.dead_copies.remove(page);
                    if let Some(rec) = self.needed.remove(page) {
                        self.release_record(rec);
                    }
                }
                None => {}
            }
        }
    }

    /// Begins erasing a closed segment; it becomes usable again once
    /// [`SegmentTable::reap_erased`] is called past `completes`.
    // lint: hot-path
    pub fn begin_erase(&mut self, seg: usize, completes: SimTime) {
        self.release_metadata(seg);
        self.segments[seg].state = SegState::ErasePending;
        self.pending_erase.push((completes, seg));
    }

    /// Permanently retires a worn-out closed segment.
    pub fn retire(&mut self, seg: usize) {
        self.release_metadata(seg);
        self.segments[seg].state = SegState::Retired;
        self.retired_count += 1;
    }

    /// Moves segments whose erase has completed by `now` back to the free
    /// state, returning how many were reaped. Runs on every tick and on
    /// every segment allocation, so it must not build a result list; the
    /// in-flight set is unordered (completions are reaped by deadline, not
    /// position), which makes the `swap_remove` compaction safe.
    // lint: hot-path
    pub fn reap_erased(&mut self, now: SimTime) -> usize {
        let mut reaped = 0;
        let mut i = 0;
        while i < self.pending_erase.len() {
            let (at, seg) = self.pending_erase[i];
            if at > now {
                i += 1;
                continue;
            }
            self.pending_erase.swap_remove(i);
            let s = &mut self.segments[seg];
            s.state = SegState::Free;
            s.next_slot = 0;
            s.live = 0;
            for slot in &mut s.slots {
                // Recycle tombstone backing stores instead of dropping
                // them: tomb_batch draws from the pool.
                if let Slot::Tomb { records, .. } = slot {
                    let mut v = core::mem::take(records);
                    v.clear();
                    self.tomb_pool.push(v);
                }
                *slot = Slot::Empty;
            }
            self.free_count += 1;
            reaped += 1;
        }
        reaped
    }

    /// Rebuilds liveness from the on-flash headers after a battery death.
    ///
    /// For every page the highest-sequence record wins, whether it is a
    /// data slot or a deletion tombstone. Data slots that lose become
    /// `Dead`; winning data slots become `Live`; a winning tombstone
    /// record that beats a surviving stale copy becomes the page's needed
    /// record. Segments that were mid-erase at the crash are treated as
    /// erased. Returns the map of live pages to their flash slot
    /// addresses — in ascending page order, so the rebuild is
    /// deterministic — plus the highest sequence seen (to restore the
    /// global write sequence).
    pub fn recover_liveness(&mut self) -> (BTreeMap<PageId, u64>, u64) {
        // Interrupted erases complete conceptually at recovery time: the
        // block contents are indeterminate, so treat them as erased.
        let pending: Vec<usize> = self.pending_erase.drain(..).map(|(_, s)| s).collect();
        for seg in pending {
            let s = &mut self.segments[seg];
            s.state = SegState::Free;
            s.next_slot = 0;
            s.live = 0;
            for slot in &mut s.slots {
                *slot = Slot::Empty;
            }
            self.free_count += 1;
        }

        // The write heads died with the power: half-filled open segments
        // are closed so GC can reclaim them. (Recovery has no trustworthy
        // append position to resume, and a segment left `Open` forever is
        // invisible to victim selection — a capacity leak.)
        for s in &mut self.segments {
            if s.state == SegState::Open {
                s.state = SegState::Closed;
            }
        }

        // Pass 1: find the winning record per page — a data slot, or a
        // tombstone record by its number.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Winner {
            Data(usize, usize),
            Tomb(u32),
        }
        let mut winners: BTreeMap<PageId, (u64, Winner)> = BTreeMap::new();
        let mut max_seq = 0u64;
        let mut offer = |page: PageId, seq: u64, at: Winner| {
            max_seq = max_seq.max(seq);
            let w = winners.entry(page).or_insert((seq, at));
            if seq >= w.0 {
                *w = (seq, at);
            }
        };
        for (si, s) in self.segments.iter().enumerate() {
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter().enumerate() {
                match slot {
                    Slot::Live(m) | Slot::Dead(m) => offer(m.page, m.seq, Winner::Data(si, wi)),
                    Slot::Tomb { records, .. } => {
                        let base = self.first_record(si, wi);
                        for (i, &(page, seq)) in records.iter().enumerate() {
                            offer(page, seq, Winner::Tomb(base + i as u32));
                        }
                    }
                    Slot::Empty => {}
                }
            }
        }

        // Pass 2: rewrite liveness and dead-copy accounting to match.
        self.dead_copies.clear();
        self.needed.clear();
        for (si, s) in self.segments.iter_mut().enumerate() {
            s.live = 0;
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter_mut().enumerate() {
                let meta = match slot {
                    Slot::Live(m) | Slot::Dead(m) => *m,
                    Slot::Tomb { needed, .. } => {
                        *needed = 0;
                        continue;
                    }
                    Slot::Empty => continue,
                };
                if winners.get(&meta.page).map(|w| w.1) == Some(Winner::Data(si, wi)) {
                    *slot = Slot::Live(meta);
                    s.live += 1;
                } else {
                    *slot = Slot::Dead(meta);
                    let n = self.dead_copies.get(meta.page).unwrap_or(0);
                    self.dead_copies.insert(meta.page, n + 1);
                }
            }
        }

        // Pass 3: winning data slots map their pages; a winning record
        // over a surviving stale copy is needed.
        let mut live_map = BTreeMap::new();
        for (page, (_, at)) in winners {
            match at {
                Winner::Data(si, wi) => {
                    live_map.insert(page, self.slot_addr(si, wi));
                }
                Winner::Tomb(rec) if self.has_dead_copies(page) => {
                    self.needed.insert(page, rec);
                    self.hold_record(rec);
                }
                Winner::Tomb(_) => {}
            }
        }
        (live_map, max_seq)
    }

    /// Earliest pending-erase completion, if any.
    pub fn next_erase_completion(&self) -> Option<SimTime> {
        self.pending_erase.iter().map(|&(t, _)| t).min()
    }

    /// Number of erases in flight.
    pub fn pending_erases(&self) -> usize {
        self.pending_erase.len()
    }

    /// Checks the table's bookkeeping against a full scan: the free and
    /// retired counts, the stale copies per page, each segment's `live`
    /// (its live data slots plus its tombstone slots that hold a needed
    /// record), and that every needed record is a tombstone record of its
    /// page, in a segment that is still written or closed, with a stale
    /// copy still on flash. Returns the live data slots, for the caller
    /// to balance against the page map.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch found.
    pub fn check_invariants(&self) -> Result<usize, String> {
        let count = |state| self.segments.iter().filter(|s| s.state == state).count();
        if count(SegState::Free) != self.free_count {
            return Err(format!(
                "free count {} disagrees with the table",
                self.free_count
            ));
        }
        if count(SegState::Retired) != self.retired_count {
            return Err(format!(
                "retired count {} disagrees with the table",
                self.retired_count
            ));
        }
        let mut dead: BTreeMap<PageId, u32> = BTreeMap::new();
        let mut live_data = 0;
        for (si, s) in self.segments.iter().enumerate() {
            let mut live = 0;
            for (wi, slot) in s.slots.iter().enumerate() {
                match slot {
                    Slot::Live(_) => {
                        live += 1;
                        live_data += 1;
                    }
                    Slot::Dead(m) if matches!(s.state, SegState::Open | SegState::Closed) => {
                        *dead.entry(m.page).or_default() += 1;
                    }
                    Slot::Tomb { records, needed } => {
                        let base = self.first_record(si, wi);
                        let held = (0..records.len())
                            .filter(|&i| self.needed.get(records[i].0) == Some(base + i as u32))
                            .count();
                        if held != *needed as usize {
                            return Err(format!(
                                "slot {si}/{wi} counts {needed} needed records, the index {held}"
                            ));
                        }
                        live += usize::from(held > 0);
                    }
                    _ => {}
                }
            }
            if live != s.live {
                return Err(format!(
                    "segment {si} ({:?}) has live {} but {live} slots to keep",
                    s.state, s.live
                ));
            }
        }
        if dead != self.dead_copies.iter().collect() {
            return Err("stale-copy counts disagree with the dead slots".to_string());
        }
        for (page, rec) in self.needed.iter() {
            let (seg, slot) = self.record_slot(rec);
            let i = (rec - self.first_record(seg, slot)) as usize;
            let s = &self.segments[seg];
            let holds = matches!(&s.slots[slot], Slot::Tomb { records, .. }
                if records.get(i).is_some_and(|r| r.0 == page));
            if !holds || !matches!(s.state, SegState::Open | SegState::Closed) {
                return Err(format!(
                    "page {page}: needed record {rec} is not one of its tombstone records"
                ));
            }
            if !self.has_dead_copies(page) {
                return Err(format!("page {page}: needed record with no stale copy"));
            }
        }
        Ok(live_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn sm(page: PageId, seq: u64) -> SlotMeta {
        SlotMeta { page, seq, crc: 0 }
    }

    fn table() -> SegmentTable {
        // 4 segments, 8 slots, blocks of 4 KiB with 512-byte pages,
        // starting at address 8192.
        SegmentTable::new(4, 8, 8192, 4096, 512)
    }

    #[test]
    fn addresses_round_trip() {
        let tb = table();
        for seg in 0..4 {
            for slot in 0..8 {
                let addr = tb.slot_addr(seg, slot);
                assert_eq!(tb.locate(addr), (seg, slot));
            }
        }
        assert_eq!(tb.slot_addr(0, 0), 8192);
        assert_eq!(tb.slot_addr(1, 2), 8192 + 4096 + 1024);
    }

    #[test]
    fn open_append_close_lifecycle() {
        let mut tb = table();
        assert_eq!(
            tb.segments_in(SegState::Free).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        tb.open(0);
        let slot = tb.append(0, sm(42, 1), t(1));
        assert_eq!(slot, 0);
        assert_eq!(tb.seg(0).live, 1);
        assert_eq!(tb.seg(0).youngest_write, t(1));
        for i in 1..8u64 {
            tb.append(0, sm(100 + i, 1 + i), t(2));
        }
        assert!(tb.seg(0).is_full());
        tb.close(0);
        assert_eq!(tb.segments_in(SegState::Closed).collect::<Vec<_>>(), [0]);
        assert_eq!(tb.seg(0).live, 8);
    }

    #[test]
    fn kill_marks_dead_and_tracks_copies() {
        let mut tb = table();
        tb.open(0);
        let slot = tb.append(0, sm(7, 1), t(0));
        let addr = tb.slot_addr(0, slot);
        assert!(!tb.has_dead_copies(7));
        tb.kill_at(addr);
        assert_eq!(tb.seg(0).live, 0);
        assert!(tb.has_dead_copies(7));
    }

    /// A tombstone slot whose records beat no stale copy takes space but
    /// nothing an erase must keep.
    #[test]
    fn tomb_slots_without_needed_records_are_not_live() {
        let mut tb = table();
        tb.open(0);
        let slot = tb.append_tomb(0, vec![(9, 5), (10, 6)], t(1), |_| false);
        assert_eq!(slot, 0);
        assert_eq!(tb.seg(0).live, 0);
        assert_eq!(tb.seg(0).next_slot, 1);
        assert_eq!(
            tb.seg(0).slots[0],
            Slot::Tomb {
                records: vec![(9, 5), (10, 6)],
                needed: 0
            }
        );
        assert_eq!(tb.check_invariants(), Ok(0));
    }

    #[test]
    fn erase_lifecycle_reaps_on_time() {
        let mut tb = table();
        tb.open(0);
        let s = tb.append(0, sm(1, 1), t(0));
        tb.kill_at(tb.slot_addr(0, s));
        tb.close(0);
        tb.begin_erase(0, t(5));
        assert_eq!(tb.pending_erases(), 1);
        assert_eq!(tb.reap_erased(t(4)), 0);
        assert_eq!(tb.reap_erased(t(5)), 1);
        assert_eq!(tb.seg(0).state, SegState::Free);
        assert!(!tb.has_dead_copies(1));
    }

    #[test]
    fn retire_shrinks_usable_capacity() {
        let mut tb = table();
        let before = tb.usable_slots();
        tb.open(0);
        tb.close(0);
        tb.retire(0);
        assert_eq!(tb.segments_in(SegState::Retired).collect::<Vec<_>>(), [0]);
        assert_eq!(tb.usable_slots(), before - 8);
        // Retired segments never return to the free list.
        assert_eq!(
            tb.segments_in(SegState::Free).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn retire_free_shrinks_usable_capacity() {
        let mut tb = table();
        let before = tb.usable_slots();
        tb.retire_free(2);
        assert_eq!(tb.retired_count(), 1);
        assert_eq!(tb.free_count(), 3);
        assert_eq!(tb.usable_slots(), before - 8);
        // Both retirement paths feed the same count.
        tb.open(0);
        tb.close(0);
        tb.retire(0);
        assert_eq!(
            tb.segments_in(SegState::Retired).collect::<Vec<_>>(),
            [0, 2]
        );
        assert_eq!(tb.usable_slots(), before - 16);
    }

    /// A record is needed while it beats a stale copy on flash: it keeps
    /// its slot live until a newer record of its page takes over, a newer
    /// data copy is programmed, or the page's last stale copy is erased.
    #[test]
    fn needed_records_follow_the_newest_record_of_a_page() {
        let mut tb = table();
        // Page 9's stale copy lives in segment 1.
        tb.open(1);
        let s = tb.append(1, sm(9, 1), t(0));
        tb.kill_at(tb.slot_addr(1, s));
        tb.open(0);
        tb.append_tomb(0, vec![(9, 2)], t(1), |_| false);
        assert_eq!(tb.seg(0).live, 1, "the record beats the stale copy");
        // A record for a page with a current copy on flash beats nothing.
        tb.append_tomb(0, vec![(9, 3)], t(1), |_| true);
        assert_eq!(tb.seg(0).live, 1);
        // A newer record hands the need over, within a batch too.
        tb.append_tomb(0, vec![(9, 4), (9, 5)], t(1), |_| false);
        assert_eq!(tb.seg(0).live, 1);
        assert_eq!(
            tb.seg(0).slots[2],
            Slot::Tomb {
                records: vec![(9, 4), (9, 5)],
                needed: 1
            }
        );
        assert_eq!(tb.check_invariants(), Ok(0));
        // Packing returns the needed record only, then nothing once it
        // has moved on.
        let batch = tb.needed_batch(0, 32);
        assert_eq!(batch, [(9, 5)]);
        tb.open(2);
        tb.append_tomb(2, batch, t(2), |_| false);
        assert_eq!((tb.seg(0).live, tb.seg(2).live), (0, 1));
        assert!(tb.needed_batch(0, 32).is_empty());
        // Erasing the last stale copy releases the record.
        tb.close(1);
        tb.begin_erase(1, t(3));
        assert_eq!(tb.seg(2).live, 0);
        assert_eq!(tb.check_invariants(), Ok(0));
    }

    /// A newer data copy of the page releases its needed record.
    #[test]
    fn data_copy_releases_the_needed_record() {
        let mut tb = table();
        tb.open(1);
        let s = tb.append(1, sm(7, 1), t(0));
        tb.kill_at(tb.slot_addr(1, s));
        tb.append_tomb(1, vec![(7, 2)], t(0), |_| false);
        assert_eq!(tb.seg(1).live, 1);
        tb.append(1, sm(7, 3), t(0));
        assert_eq!(tb.seg(1).live, 1, "only the new data slot is live");
        assert_eq!(tb.check_invariants(), Ok(1));
    }

    /// Recovery makes the winning record of each page with a surviving
    /// stale copy needed; a torn tombstone slot it invalidated takes part
    /// in nothing, so the stale copies it would have beaten win.
    #[test]
    fn recovery_rebuilds_needed_records() {
        let mut tb = table();
        // Pages 1..=4 keep stale copies in segment 1.
        tb.open(1);
        for page in 1..=4 {
            let s = tb.append(1, sm(page, page), t(0));
            tb.kill_at(tb.slot_addr(1, s));
        }
        tb.open(0);
        tb.append_tomb(0, vec![(1, 10), (2, 11)], t(1), |_| false);
        tb.append_tomb(0, vec![(4, 12), (3, 13)], t(1), |_| false);
        tb.close(0);
        tb.invalidate_slot(0, 0);
        let (live, max_seq) = tb.recover_liveness();
        assert_eq!(live.keys().copied().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(max_seq, 13);
        assert_eq!(tb.seg(0).live, 1, "the surviving slot's records win");
        assert_eq!(
            tb.seg(0).slots[1],
            Slot::Tomb {
                records: vec![(4, 12), (3, 13)],
                needed: 2
            }
        );
        assert_eq!(tb.check_invariants(), Ok(2));
    }

    #[test]
    #[should_panic(expected = "live slots")]
    fn erasing_live_segment_panics() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        tb.close(0);
        tb.begin_erase(0, t(1));
    }

    #[test]
    fn live_slots_lists_only_live() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        let s2 = tb.append(0, sm(2, 2), t(0));
        tb.kill_at(tb.slot_addr(0, s2));
        tb.append_tomb(0, vec![(2, 3)], t(0), |_| false);
        let mut live = Vec::new();
        tb.seg(0).live_slots_into(&mut live);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.page, 1);
    }

    #[test]
    fn next_erase_completion_is_min() {
        let mut tb = table();
        for seg in [0, 1] {
            tb.open(seg);
            tb.close(seg);
        }
        tb.begin_erase(1, t(10));
        tb.begin_erase(0, t(3));
        assert_eq!(tb.next_erase_completion(), Some(t(3)));
    }
}
