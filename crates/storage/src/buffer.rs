//! The DRAM write buffer.
//!
//! Dirty pages live here until the flush policy writes them to flash. Two
//! things make the buffer earn its keep (and produce F2's 40–50 % traffic
//! reduction): *overwrite absorption* — rewriting a buffered page costs no
//! flash traffic — and *death absorption* — deleting a file whose pages are
//! still buffered cancels their writes entirely.
//!
//! Pages are indexed by last-write time so the flush policy can write back
//! exactly the pages that have gone cold, keeping write-hot data in DRAM as
//! §3.3 prescribes.
//!
//! Bookkeeping is slab-style: frame metadata lives in a flat array indexed
//! by frame number, and the page→frame lookup goes through the shared
//! [`DenseIndex`], so the per-write hot path (insert/touch/remove) does no
//! hashing and no allocation. The LRW order is an intrusive doubly-linked
//! list threaded through the frame slab (coldest at the head): because the
//! simulated clock is monotonic, appending every insert/touch at the tail
//! keeps the list sorted by last-write time with O(1) updates and zero
//! allocation — the previous `BTreeSet` index allocated tree nodes on the
//! per-write path, which the alloc-guard bench now forbids.

use crate::dense::DenseIndex;
use crate::map::PageId;

use ssmc_sim::SimTime;

/// Null link in the intrusive LRW list.
const NIL: usize = usize::MAX;

/// Bookkeeping for one occupied page frame.
#[derive(Debug, Clone, Copy)]
struct FrameMeta {
    page: PageId,
    /// Instant of the most recent write (LRW ordering key).
    last_write: SimTime,
    /// Instant the page first became dirty (data-at-risk age).
    dirty_since: SimTime,
    /// Previous (colder) frame in the LRW list, or [`NIL`].
    prev: usize,
    /// Next (hotter) frame in the LRW list, or [`NIL`].
    next: usize,
    /// Flash address of the page's stale-but-durable copy, shielded from
    /// GC while the newer version sits dirty in this frame. A shadow
    /// exists only while its page is buffered, so it lives in the frame
    /// slab rather than a side map: per-write upkeep stays allocation-free.
    shadow: Option<u64>,
}

/// A fixed-capacity pool of page frames holding dirty pages.
#[derive(Debug)]
pub struct WriteBuffer {
    capacity: usize,
    free: Vec<usize>,
    /// Frame slab: metadata for each occupied frame, by frame number.
    frames: Vec<Option<FrameMeta>>,
    /// Page → frame number.
    index: DenseIndex<usize>,
    /// Coldest frame (head of the LRW list), or [`NIL`].
    head: usize,
    /// Hottest frame (tail of the LRW list), or [`NIL`].
    tail: usize,
}

impl WriteBuffer {
    /// Creates a buffer with `frames` page frames.
    pub fn new(frames: usize) -> Self {
        WriteBuffer {
            capacity: frames,
            free: (0..frames).rev().collect(),
            frames: vec![None; frames],
            index: DenseIndex::new(crate::map::DEFAULT_DENSE_PAGES),
            head: NIL,
            tail: NIL,
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dirty pages currently buffered.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no pages are buffered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether every frame is occupied.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Occupancy as a fraction of capacity.
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.index.len() as f64 / self.capacity as f64
        }
    }

    /// Whether `page` is buffered.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains(page)
    }

    /// Frame index of a buffered page.
    pub fn frame_of(&self, page: PageId) -> Option<usize> {
        self.index.get(page)
    }

    /// Instant `page` first became dirty.
    pub fn dirty_since(&self, page: PageId) -> Option<SimTime> {
        self.index
            .get(page)
            .and_then(|f| self.frames[f])
            .map(|m| m.dirty_since)
    }

    /// Records the flash address of `frame`'s page's shielded stale copy.
    ///
    /// # Panics
    ///
    /// Panics if the frame is unoccupied.
    // lint: hot-path
    pub fn shadow_set(&mut self, frame: usize, addr: u64) {
        self.frames[frame]
            .as_mut()
            .expect("shadow_set on free frame")
            .shadow = Some(addr);
    }

    /// The shielded stale copy recorded for `frame`, if any.
    // lint: hot-path
    pub fn shadow_get(&self, frame: usize) -> Option<u64> {
        self.frames[frame].and_then(|m| m.shadow)
    }

    /// Takes (and clears) the shielded stale copy recorded for `frame`.
    /// Callers must take the shadow *before* releasing the frame with
    /// [`Self::remove`], which discards the metadata.
    // lint: hot-path
    pub fn shadow_take(&mut self, frame: usize) -> Option<u64> {
        self.frames[frame].as_mut().and_then(|m| m.shadow.take())
    }

    /// Appends `frame` at the (hottest) tail of the LRW list. The caller
    /// must have stamped `last_write` with a clock reading at or after
    /// every other frame's — the monotonic simulated clock guarantees it.
    fn link_tail(&mut self, frame: usize) {
        let old_tail = self.tail;
        if let Some(m) = self.frames[frame].as_mut() {
            m.prev = old_tail;
            m.next = NIL;
        }
        match old_tail {
            NIL => self.head = frame,
            t => {
                debug_assert!(
                    self.frames[t].map(|m| m.last_write).unwrap_or(SimTime::ZERO)
                        <= self.frames[frame].map(|m| m.last_write).unwrap_or(SimTime::ZERO),
                    "LRW append out of time order — clock went backwards?"
                );
                if let Some(m) = self.frames[t].as_mut() {
                    m.next = frame;
                }
            }
        }
        self.tail = frame;
    }

    /// Unlinks `frame` from the LRW list.
    fn unlink(&mut self, frame: usize) {
        let (prev, next) = match &self.frames[frame] {
            Some(m) => (m.prev, m.next),
            None => return,
        };
        match prev {
            NIL => self.head = next,
            p => {
                if let Some(m) = self.frames[p].as_mut() {
                    m.next = next;
                }
            }
        }
        match next {
            NIL => self.tail = prev,
            n => {
                if let Some(m) = self.frames[n].as_mut() {
                    m.prev = prev;
                }
            }
        }
    }

    /// Inserts a new dirty page, returning its frame, or `None` if the
    /// buffer is full (caller must flush first).
    // lint: hot-path
    pub fn insert(&mut self, page: PageId, now: SimTime) -> Option<usize> {
        debug_assert!(!self.index.contains(page), "page already buffered");
        let frame = self.free.pop()?;
        self.frames[frame] = Some(FrameMeta {
            page,
            last_write: now,
            dirty_since: now,
            prev: NIL,
            next: NIL,
            shadow: None,
        });
        self.index.insert(page, frame);
        self.link_tail(frame);
        Some(frame)
    }

    /// Records an overwrite of an already-buffered page (absorption),
    /// refreshing its LRW position. Returns the frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is not buffered.
    // lint: hot-path
    pub fn touch(&mut self, page: PageId, now: SimTime) -> usize {
        let frame = self.index.get(page).expect("touch of unbuffered page");
        self.unlink(frame);
        let meta = self.frames[frame].as_mut().expect("frame slab out of sync");
        meta.last_write = now;
        self.link_tail(frame);
        frame
    }

    /// Removes a page (flushed or cancelled), returning its frame to the
    /// free pool.
    // lint: hot-path
    pub fn remove(&mut self, page: PageId) -> Option<usize> {
        let frame = self.index.remove(page)?;
        self.unlink(frame);
        let meta = self.frames[frame].take().expect("frame slab out of sync");
        debug_assert_eq!(meta.page, page);
        // An untaken shadow here would leak a Live slot the table can
        // never reclaim: callers must `shadow_take` (and kill the slot)
        // before releasing the frame.
        debug_assert!(meta.shadow.is_none(), "frame released with live shadow");
        self.free.push(frame);
        Some(frame)
    }

    /// The coldest page (least recently written), if any.
    pub fn coldest(&self) -> Option<PageId> {
        match self.head {
            NIL => None,
            h => self.frames[h].map(|m| m.page),
        }
    }

    /// Walks the LRW list coldest-first, appending up to `limit` pages
    /// with `last_write <= cutoff` (`SimTime::MAX` disables the cutoff)
    /// to `out`. The workhorse behind every flush-candidate query; does
    /// not allocate beyond `out`'s existing capacity.
    // lint: hot-path
    pub fn colder_than_into(&self, cutoff: SimTime, limit: usize, out: &mut Vec<PageId>) {
        let mut cur = self.head;
        while cur != NIL && out.len() < limit {
            let Some(m) = self.frames[cur] else { break };
            if m.last_write > cutoff {
                break;
            }
            out.push(m.page);
            cur = m.next;
        }
    }

    /// Appends up to `k` coldest pages (regardless of age) to `out`.
    // lint: hot-path
    pub fn coldest_k_into(&self, k: usize, out: &mut Vec<PageId>) {
        self.colder_than_into(SimTime::MAX, k, out);
    }

    /// Appends every buffered page, coldest first, to `out`.
    ///
    /// Walks the LRW list rather than the frame slab so the order is
    /// deterministic: sync-time flushes land on flash in the same order
    /// on every run, which fixed-seed reproducibility depends on.
    // lint: hot-path
    pub fn pages_into(&self, out: &mut Vec<PageId>) {
        self.colder_than_into(SimTime::MAX, usize::MAX, out);
    }

    /// Drops every entry without returning frames individually (battery
    /// death: the data is gone anyway). The buffer is reusable afterwards.
    pub fn clear(&mut self) {
        self.index.clear();
        self.frames.fill(None);
        self.head = NIL;
        self.tail = NIL;
        self.free.clear();
        self.free.extend((0..self.capacity).rev());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmc_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Every buffered page, coldest first.
    fn pages(b: &WriteBuffer) -> Vec<PageId> {
        let mut out = Vec::new();
        b.pages_into(&mut out);
        out
    }

    #[test]
    fn insert_fills_frames_until_full() {
        let mut b = WriteBuffer::new(2);
        assert!(b.insert(1, t(0)).is_some());
        assert!(b.insert(2, t(1)).is_some());
        assert!(b.is_full());
        assert!(b.insert(3, t(2)).is_none());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn remove_recycles_frames() {
        let mut b = WriteBuffer::new(1);
        let f1 = b.insert(1, t(0)).expect("fits");
        assert_eq!(b.remove(1), Some(f1));
        let f2 = b.insert(2, t(1)).expect("fits after remove");
        assert_eq!(f1, f2);
        assert!(b.remove(99).is_none());
    }

    #[test]
    fn lrw_order_tracks_touches() {
        let mut b = WriteBuffer::new(3);
        b.insert(1, t(0));
        b.insert(2, t(1));
        b.insert(3, t(2));
        assert_eq!(b.coldest(), Some(1));
        // Rewriting page 1 makes page 2 the coldest.
        b.touch(1, t(3));
        assert_eq!(b.coldest(), Some(2));
        let mut out = Vec::new();
        b.coldest_k_into(2, &mut out);
        assert_eq!(out, [2, 3]);
    }

    #[test]
    fn colder_than_respects_cutoff_and_limit() {
        let mut b = WriteBuffer::new(4);
        for (p, s) in [(1, 0), (2, 10), (3, 20), (4, 30)] {
            b.insert(p, t(s));
        }
        let mut out = Vec::new();
        b.colder_than_into(t(20), 10, &mut out);
        assert_eq!(out, [1, 2, 3]);
        out.clear();
        b.colder_than_into(t(20), 2, &mut out);
        assert_eq!(out, [1, 2]);
        out.clear();
        b.colder_than_into(SimTime::ZERO, 10, &mut out);
        assert!(out.len() <= 1);
    }

    #[test]
    fn dirty_since_survives_touches() {
        let mut b = WriteBuffer::new(2);
        b.insert(5, t(1));
        b.touch(5, t(9));
        assert_eq!(b.dirty_since(5), Some(t(1)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = WriteBuffer::new(2);
        b.insert(1, t(0));
        b.insert(2, t(0));
        b.clear();
        assert!(b.is_empty());
        assert!(!b.is_full());
        assert!(b.insert(3, t(1)).is_some());
    }

    #[test]
    fn fill_fraction_is_sane() {
        let mut b = WriteBuffer::new(4);
        assert_eq!(b.fill_fraction(), 0.0);
        b.insert(1, t(0));
        assert!((b.fill_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn frame_assignment_order_matches_a_fresh_stack() {
        // Frames hand out lowest-first from a fresh buffer and LIFO after
        // removals — the exact order the pre-slab implementation used,
        // which DRAM addresses (and so the flash image) depend on.
        let mut b = WriteBuffer::new(3);
        assert_eq!(b.insert(10, t(0)), Some(0));
        assert_eq!(b.insert(11, t(0)), Some(1));
        b.remove(10);
        assert_eq!(b.insert(12, t(1)), Some(0));
        assert_eq!(b.insert(13, t(1)), Some(2));
    }

    #[test]
    fn into_variants_append_without_reordering() {
        let mut b = WriteBuffer::new(4);
        for (p, s) in [(7, 0), (8, 5), (9, 9)] {
            b.insert(p, t(s));
        }
        let mut out = vec![999];
        b.pages_into(&mut out);
        assert_eq!(out, vec![999, 7, 8, 9]);
        out.clear();
        b.coldest_k_into(2, &mut out);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn lrw_list_survives_mid_list_removal() {
        let mut b = WriteBuffer::new(4);
        b.insert(1, t(0));
        b.insert(2, t(1));
        b.insert(3, t(2));
        b.remove(2);
        assert_eq!(pages(&b), [1, 3]);
        b.remove(1);
        assert_eq!(pages(&b), [3]);
        b.remove(3);
        assert!(pages(&b).is_empty());
        assert_eq!(b.coldest(), None);
    }

    #[test]
    fn shadow_lives_and_dies_with_its_frame() {
        let mut b = WriteBuffer::new(2);
        let f = b.insert(1, t(0)).expect("fits");
        assert_eq!(b.shadow_get(f), None);
        b.shadow_set(f, 0x1000);
        assert_eq!(b.shadow_get(f), Some(0x1000));
        // Relocation (GC re-home) overwrites in place.
        b.shadow_set(f, 0x2000);
        assert_eq!(b.shadow_take(f), Some(0x2000));
        assert_eq!(b.shadow_get(f), None);
        // A recycled frame starts with no shadow.
        b.shadow_set(f, 0x3000);
        assert_eq!(b.shadow_take(f), Some(0x3000));
        b.remove(1);
        let f2 = b.insert(2, t(1)).expect("fits");
        assert_eq!(f, f2);
        assert_eq!(b.shadow_get(f2), None);
        // clear() drops shadows with everything else.
        b.shadow_set(f2, 0x4000);
        b.clear();
        let f3 = b.insert(3, t(2)).expect("fits");
        assert_eq!(b.shadow_get(f3), None);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        // Ties cannot occur on the live path (every write advances the
        // DRAM clock between buffer operations), but the list's tie
        // behaviour — stable insertion order — is pinned here anyway.
        let mut b = WriteBuffer::new(3);
        b.insert(5, t(1));
        b.insert(3, t(1));
        b.insert(4, t(1));
        assert_eq!(pages(&b), [5, 3, 4]);
    }
}
