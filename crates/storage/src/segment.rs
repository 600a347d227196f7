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
    /// Holds batched deletion tombstones.
    Tomb(Vec<(PageId, u64)>),
}

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
    /// Live slot count (tombstone slots are never "live").
    pub live: usize,
    /// Most recent append instant (the "age" input to cost-benefit GC).
    pub youngest_write: SimTime,
    /// Deletion tombstones durably recorded in this segment.
    pub tombstones: Vec<(PageId, u64)>,
}

impl Segment {
    fn new(slots: usize) -> Self {
        Segment {
            state: SegState::Free,
            slots: vec![Slot::Empty; slots],
            next_slot: 0,
            live: 0,
            youngest_write: SimTime::ZERO,
            tombstones: Vec::new(),
        }
    }

    /// Whether every slot has been programmed.
    pub fn is_full(&self) -> bool {
        self.next_slot >= self.slots.len()
    }

    /// Slots still available for appends.
    pub fn slots_free(&self) -> usize {
        self.slots.len() - self.next_slot
    }

    /// Fraction of slots holding live pages.
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
    /// Free segments, maintained on every state transition so the GC
    /// trigger check is O(1) per operation.
    free_count: usize,
    /// Retired segments, maintained by [`SegmentTable::retire_into`] and
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
            free_count: count,
            retired_count: 0,
            // A tombstone slot holds page_size / 16 records (RECORD_BYTES
            // in the manager), which bounds any batch drained into it.
            tomb_pool: (0..2)
                .map(|_| Vec::with_capacity((page_size / 16).max(16) as usize))
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

    /// Total live pages across all segments.
    pub fn live_pages(&self) -> usize {
        self.segments.iter().map(|s| s.live).sum()
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
        s.tombstones.clear();
        for slot in &mut s.slots {
            *slot = Slot::Empty;
        }
    }

    /// Appends a page to an open segment, returning the slot index used.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    pub fn append(&mut self, seg: usize, meta: SlotMeta, now: SimTime) -> usize {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "append to non-open segment");
        assert!(!s.is_full(), "append to full segment");
        let slot = s.next_slot;
        s.slots[slot] = Slot::Live(meta);
        s.next_slot += 1;
        s.live += 1;
        s.youngest_write = now;
        slot
    }

    /// Collects `records` (one slot's worth) into a batch whose backing
    /// store comes from the reuse pool, so a steady-state tombstone flush
    /// performs no allocation once the pool is warm. Hand the batch to
    /// [`SegmentTable::append_tomb`], or return it via
    /// [`SegmentTable::recycle_tomb_batch`] if no segment can be opened.
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

    /// Returns an unused batch's backing store to the reuse pool. Its
    /// entries are discarded, not re-queued: a batch that found no open
    /// segment is lost with the failed flush.
    // lint: hot-path
    pub fn recycle_tomb_batch(&mut self, mut batch: Vec<(PageId, u64)>) {
        batch.clear();
        self.tomb_pool.push(batch);
    }

    /// Appends a tombstone slot carrying deletion `entries`, returning the
    /// slot index used. Tombstone slots never count as live.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not open or is full.
    // lint: hot-path
    pub fn append_tomb(&mut self, seg: usize, entries: Vec<(PageId, u64)>, now: SimTime) -> usize {
        let s = &mut self.segments[seg];
        assert_eq!(s.state, SegState::Open, "append to non-open segment");
        assert!(!s.is_full(), "append to full segment");
        let slot = s.next_slot;
        s.tombstones.extend(entries.iter().copied());
        s.slots[slot] = Slot::Tomb(entries);
        s.next_slot += 1;
        s.youngest_write = now;
        slot
    }

    /// Discards a slot whose on-flash payload failed its CRC check: the
    /// program was torn by power loss, so the record never happened.
    /// Recovery-only — liveness and dead-copy accounting are left to the
    /// [`SegmentTable::recover_liveness`] rebuild that follows, which
    /// recomputes both from scratch and skips `Empty` slots. A discarded
    /// tombstone slot also drops its records from the segment's carried
    /// set (they were never durable).
    pub fn invalidate_slot(&mut self, seg: usize, slot: usize) {
        let s = &mut self.segments[seg];
        if let Slot::Tomb(v) = core::mem::replace(&mut s.slots[slot], Slot::Empty) {
            let mut v = v;
            v.clear();
            self.tomb_pool.push(v);
            let s = &mut self.segments[seg];
            s.tombstones.clear();
            // Rebuild the aggregate from the tombstone slots that survive.
            for sl in 0..s.slots.len() {
                if let Slot::Tomb(entries) = &s.slots[sl] {
                    s.tombstones.extend(entries.iter().copied());
                }
            }
        }
    }

    /// Permanently retires a *free* segment whose block wore out during a
    /// post-recovery scrub erase. Unlike [`SegmentTable::retire_into`]
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

    /// Common bookkeeping for removing a closed, fully dead segment from
    /// circulation: forgets its stale copies and appends to `carried` the
    /// tombstones that must be re-logged because stale copies of their
    /// pages still exist elsewhere. With `carried` `None` (the caller
    /// already re-logged them) the tombstones are dropped unfiltered.
    // lint: hot-path
    fn release_metadata_into(&mut self, seg: usize, carried: Option<&mut Vec<(PageId, u64)>>) {
        assert_eq!(
            self.segments[seg].state,
            SegState::Closed,
            "release of non-closed segment"
        );
        assert_eq!(
            self.segments[seg].live, 0,
            "release of segment with live pages"
        );
        // Dead-copy accounting by index: `dead_copies` and `segments` are
        // both fields of self, so iterating one while mutating the other
        // needs the loop split rather than an intermediate list.
        for i in 0..self.segments[seg].slots.len() {
            let page = match &self.segments[seg].slots[i] {
                Slot::Dead(m) => m.page,
                _ => continue,
            };
            if let Some(n) = self.dead_copies.get(page) {
                if n <= 1 {
                    self.dead_copies.remove(page);
                } else {
                    self.dead_copies.insert(page, n - 1);
                }
            }
        }
        let Some(carried) = carried else {
            self.segments[seg].tombstones.clear();
            return;
        };
        let mut tombs = core::mem::take(&mut self.segments[seg].tombstones);
        carried.extend(
            tombs
                .drain(..)
                .filter(|(p, _)| self.dead_copies.get(*p).is_some_and(|n| n > 0)),
        );
        // Hand the (drained) vector back so its capacity is reused the
        // next time this segment accumulates tombstones.
        self.segments[seg].tombstones = tombs;
    }

    /// Appends to `out` the tombstones in `seg` whose loss could
    /// resurrect a page: every record whose page still has a stale
    /// (dead) copy on flash — *including* copies inside `seg` itself.
    /// The erase path logs these durably *before* issuing the erase.
    ///
    /// This is deliberately broader than the filter in
    /// `SegmentTable::release_metadata_into` (which skips tombstones
    /// whose only stale copies die with the segment): a *torn* erase can
    /// wipe the half of the block holding the tombstone slot while the
    /// half holding the stale data copy survives, and recovery would
    /// then pick the stale copy as the page's winner — a synced delete
    /// coming back from the dead.
    // lint: hot-path
    pub fn peek_carried_into(&self, seg: usize, out: &mut Vec<(PageId, u64)>) {
        let s = &self.segments[seg];
        for &(page, seq) in &s.tombstones {
            if self.dead_copies.get(page).is_some_and(|n| n > 0) {
                out.push((page, seq));
            }
        }
    }

    /// Begins erasing a closed segment; it becomes usable again once
    /// [`SegmentTable::reap_erased`] is called past `completes`.
    /// Tombstones to carry forward are appended to `carried`, or dropped
    /// if it is `None`.
    // lint: hot-path
    pub fn begin_erase_into(
        &mut self,
        seg: usize,
        completes: SimTime,
        carried: Option<&mut Vec<(PageId, u64)>>,
    ) {
        self.release_metadata_into(seg, carried);
        self.segments[seg].state = SegState::ErasePending;
        self.pending_erase.push((completes, seg));
    }

    /// Permanently retires a worn-out closed segment. Tombstones to carry
    /// forward are appended to `carried`, or dropped if it is `None`.
    pub fn retire_into(&mut self, seg: usize, carried: Option<&mut Vec<(PageId, u64)>>) {
        self.release_metadata_into(seg, carried);
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
                if let Slot::Tomb(v) = slot {
                    let mut v = core::mem::take(v);
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
    /// `Dead`; winning data slots become `Live`. Segments that were mid-
    /// erase at the crash are treated as erased. Returns the map of live
    /// pages to their flash slot addresses — in ascending page order, so
    /// the rebuild is deterministic — plus the highest sequence seen (to
    /// restore the global write sequence).
    pub fn recover_liveness(&mut self) -> (BTreeMap<PageId, u64>, u64) {
        // Interrupted erases complete conceptually at recovery time: the
        // block contents are indeterminate, so treat them as erased.
        let pending: Vec<usize> = self.pending_erase.drain(..).map(|(_, s)| s).collect();
        for seg in pending {
            let s = &mut self.segments[seg];
            s.state = SegState::Free;
            s.next_slot = 0;
            s.live = 0;
            s.tombstones.clear();
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

        // Pass 1: find the winning sequence per page.
        #[derive(Clone, Copy)]
        struct Winner {
            seq: u64,
            slot: Option<(usize, usize)>,
        }
        let mut winners: BTreeMap<PageId, Winner> = BTreeMap::new();
        let mut max_seq = 0u64;
        for (si, s) in self.segments.iter().enumerate() {
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter().enumerate() {
                match slot {
                    Slot::Live(m) | Slot::Dead(m) => {
                        max_seq = max_seq.max(m.seq);
                        let w = winners.entry(m.page).or_insert(Winner {
                            seq: m.seq,
                            slot: Some((si, wi)),
                        });
                        if m.seq >= w.seq {
                            *w = Winner {
                                seq: m.seq,
                                slot: Some((si, wi)),
                            };
                        }
                    }
                    Slot::Tomb(entries) => {
                        for &(page, seq) in entries {
                            max_seq = max_seq.max(seq);
                            let w = winners.entry(page).or_insert(Winner { seq, slot: None });
                            if seq >= w.seq {
                                *w = Winner { seq, slot: None };
                            }
                        }
                    }
                    Slot::Empty => {}
                }
            }
        }

        // Pass 2: rewrite liveness and dead-copy accounting to match.
        self.dead_copies.clear();
        let mut live_map = BTreeMap::new();
        for (si, s) in self.segments.iter_mut().enumerate() {
            s.live = 0;
            if matches!(s.state, SegState::Free | SegState::Retired) {
                continue;
            }
            for (wi, slot) in s.slots.iter_mut().enumerate() {
                let meta = match slot {
                    Slot::Live(m) | Slot::Dead(m) => *m,
                    _ => continue,
                };
                let is_winner = winners
                    .get(&meta.page)
                    .is_some_and(|w| w.slot == Some((si, wi)));
                if is_winner {
                    *slot = Slot::Live(meta);
                    s.live += 1;
                } else {
                    *slot = Slot::Dead(meta);
                    let n = self.dead_copies.get(meta.page).unwrap_or(0);
                    self.dead_copies.insert(meta.page, n + 1);
                }
            }
        }
        for (page, w) in &winners {
            if let Some((si, wi)) = w.slot {
                live_map.insert(*page, self.slot_addr(si, wi));
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
        assert_eq!(tb.seg(0).slots_free(), 0);
        tb.close(0);
        assert_eq!(tb.segments_in(SegState::Closed).collect::<Vec<_>>(), [0]);
        assert_eq!(tb.live_pages(), 8);
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

    #[test]
    fn tomb_slots_consume_space_but_not_liveness() {
        let mut tb = table();
        tb.open(0);
        let slot = tb.append_tomb(0, vec![(9, 5), (10, 6)], t(1));
        assert_eq!(slot, 0);
        assert_eq!(tb.seg(0).live, 0);
        assert_eq!(tb.seg(0).next_slot, 1);
        assert_eq!(tb.seg(0).tombstones, vec![(9, 5), (10, 6)]);
    }

    #[test]
    fn erase_lifecycle_reaps_on_time() {
        let mut tb = table();
        tb.open(0);
        let s = tb.append(0, sm(1, 1), t(0));
        tb.kill_at(tb.slot_addr(0, s));
        tb.close(0);
        let mut carried = Vec::new();
        tb.begin_erase_into(0, t(5), Some(&mut carried));
        assert!(carried.is_empty());
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
        tb.retire_into(0, None);
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
        tb.retire_into(0, None);
        assert_eq!(
            tb.segments_in(SegState::Retired).collect::<Vec<_>>(),
            [0, 2]
        );
        assert_eq!(tb.usable_slots(), before - 16);
    }

    #[test]
    fn tombstones_carried_only_while_stale_copies_remain() {
        let mut tb = table();
        // Page 9's stale copy lives in segment 1; its tombstone was logged
        // in segment 0.
        tb.open(1);
        let s = tb.append(1, sm(9, 1), t(0));
        tb.kill_at(tb.slot_addr(1, s));
        tb.open(0);
        tb.append_tomb(0, vec![(9, 2)], t(1));
        tb.close(0);
        let mut carried = Vec::new();
        tb.begin_erase_into(0, t(1), Some(&mut carried));
        assert_eq!(carried, [(9, 2)]);

        // Once segment 1 (the stale copy) is erased too, a fresh tombstone
        // can be dropped with its segment.
        tb.close(1);
        tb.begin_erase_into(1, t(2), None);
        tb.reap_erased(t(3));
        tb.open(2);
        tb.append_tomb(2, vec![(9, 3)], t(4));
        tb.close(2);
        carried.clear();
        tb.begin_erase_into(2, t(4), Some(&mut carried));
        assert!(carried.is_empty());
    }

    #[test]
    #[should_panic(expected = "live pages")]
    fn erasing_live_segment_panics() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        tb.close(0);
        tb.begin_erase_into(0, t(1), None);
    }

    #[test]
    fn live_slots_lists_only_live() {
        let mut tb = table();
        tb.open(0);
        tb.append(0, sm(1, 1), t(0));
        let s2 = tb.append(0, sm(2, 2), t(0));
        tb.kill_at(tb.slot_addr(0, s2));
        tb.append_tomb(0, vec![(2, 3)], t(0));
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
        tb.begin_erase_into(1, t(10), None);
        tb.begin_erase_into(0, t(3), None);
        assert_eq!(tb.next_erase_completion(), Some(t(3)));
    }
}
