//! A pool of reusable page-sized byte buffers.
//!
//! The storage manager's flush, GC-copy, wear-leveling, checkpoint, and
//! recovery paths all need a scratch buffer of exactly one page. Before
//! the dense hot-path rework each use allocated a fresh `Vec<u8>`; the
//! pool keeps retired buffers and hands them back, so steady-state
//! operation allocates nothing.
//!
//! Buffers from [`PagePool::take`] carry whatever bytes the previous user
//! left — callers must fully overwrite them (every device `read` does).
//! Paths that rely on zeroed payloads (tombstone slots, checkpoint
//! records) use [`PagePool::take_zeroed`].

/// A free list of page-sized `Vec<u8>` buffers.
#[derive(Debug)]
pub struct PagePool {
    page_size: usize,
    bufs: Vec<Vec<u8>>,
}

impl PagePool {
    /// Creates an empty pool handing out `page_size`-byte buffers.
    pub fn new(page_size: usize) -> Self {
        PagePool {
            page_size,
            bufs: Vec::new(),
        }
    }

    /// Buffer size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Takes a page buffer with unspecified contents. The caller must
    /// overwrite it before reading from it.
    pub fn take(&mut self) -> Vec<u8> {
        // lint: allow(H2): refills only when the free list drains during
        // warm-up; steady-state churn recycles.
        self.bufs.pop().unwrap_or_else(|| vec![0u8; self.page_size])
    }

    /// Takes a zero-filled page buffer.
    pub fn take_zeroed(&mut self) -> Vec<u8> {
        match self.bufs.pop() {
            Some(mut b) => {
                b.fill(0);
                b
            }
            // lint: allow(H2): refills only when the free list drains during
            // warm-up; steady-state churn recycles.
            None => vec![0u8; self.page_size],
        }
    }

    /// Stocks the pool with `n` fresh buffers up front, so the first
    /// taker on a hot path (first flush, first GC pass) recycles instead
    /// of allocating.
    pub fn prewarm(&mut self, n: usize) {
        while self.bufs.len() < n {
            self.bufs.push(vec![0u8; self.page_size]);
        }
    }

    /// Returns a buffer to the pool. Buffers of the wrong size (callers
    /// that truncated or extended) are dropped rather than recycled.
    pub fn put(&mut self, buf: Vec<u8>) {
        if buf.len() == self.page_size {
            self.bufs.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles() {
        let mut p = PagePool::new(512);
        let mut a = p.take();
        assert_eq!(a.len(), 512);
        a[0] = 0xAA;
        p.put(a);
        assert_eq!(p.bufs.len(), 1);
        let b = p.take();
        assert_eq!(p.bufs.len(), 0);
        // Contents are unspecified for `take`; zeroed for `take_zeroed`.
        p.put(b);
        let c = p.take_zeroed();
        assert!(c.iter().all(|&x| x == 0));
    }

    #[test]
    fn wrong_sized_buffers_are_dropped() {
        let mut p = PagePool::new(512);
        p.put(vec![0u8; 100]);
        assert_eq!(p.bufs.len(), 0);
    }
}
