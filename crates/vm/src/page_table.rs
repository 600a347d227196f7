//! A multi-level radix page table over a 64-bit virtual space.
//!
//! The table maps virtual page numbers to [`Pte`]s through 9-bit radix
//! levels (512 entries per node), the x86-64 shape. Interior nodes are
//! allocated lazily, so a sparse 64-bit space costs memory proportional
//! to what is mapped; the node count is exposed so experiments can report
//! the table's own DRAM overhead.

use ssmc_storage::PageId;

/// What a present page is backed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// A DRAM frame (index into the VM's frame pool).
    Frame(u64),
    /// A logical storage page, accessed in place (flash direct mapping or
    /// swap slot).
    Storage(PageId),
}

/// A page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Whether writes are currently allowed without a fault.
    pub writable: bool,
    /// Whether the page is copy-on-write: the first write copies it into
    /// a DRAM frame.
    pub cow: bool,
    /// Dirty since the backing was last synchronised.
    pub dirty: bool,
    /// Where the page lives.
    pub backing: Backing,
}

const RADIX_BITS: u32 = 9;
const FANOUT: usize = 1 << RADIX_BITS;

enum Node {
    Interior(Box<[Option<Node>; FANOUT]>),
    Leaf(Box<[Option<Pte>; FANOUT]>),
}

impl Node {
    fn new_interior() -> Node {
        // lint: allow(H2): the table grows once per newly touched region,
        // bounded by the address space.
        Node::Interior(Box::new([const { None }; FANOUT]))
    }

    fn new_leaf() -> Node {
        // lint: allow(H2): the table grows once per newly touched region,
        // bounded by the address space.
        Node::Leaf(Box::new([const { None }; FANOUT]))
    }
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Node::Interior(_) => write!(f, "Interior"),
            Node::Leaf(_) => write!(f, "Leaf"),
        }
    }
}

/// A lazily allocated radix page table keyed by virtual page number.
///
/// # Examples
///
/// ```
/// use ssmc_vm::{Backing, PageTable, Pte};
///
/// let mut table = PageTable::new(55);
/// table.map(42, Pte {
///     writable: true,
///     cow: false,
///     dirty: false,
///     backing: Backing::Frame(7),
/// });
/// assert_eq!(table.get(42).unwrap().backing, Backing::Frame(7));
/// assert!(table.get(43).is_none());
/// ```
#[derive(Debug)]
pub struct PageTable {
    root: Node,
    levels: u32,
    nodes: u64,
    mapped: u64,
}

impl PageTable {
    /// Creates a table covering `vpn_bits` bits of virtual page number
    /// (e.g. 55 for a 64-bit space with 512-byte pages).
    pub fn new(vpn_bits: u32) -> Self {
        let levels = vpn_bits.div_ceil(RADIX_BITS).max(1);
        let root = if levels == 1 {
            Node::new_leaf()
        } else {
            Node::new_interior()
        };
        PageTable {
            root,
            levels,
            nodes: 1,
            mapped: 0,
        }
    }

    /// Number of radix levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Allocated table nodes (each one "page-table page" of overhead).
    pub fn node_count(&self) -> u64 {
        self.nodes
    }

    /// Mapped (present) pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped
    }

    fn index(&self, vpn: u64, level: u32) -> usize {
        ((vpn >> (RADIX_BITS * (self.levels - 1 - level))) & (FANOUT as u64 - 1)) as usize
    }

    /// Installs (or replaces) a mapping. Returns the previous entry.
    pub fn map(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        let levels = self.levels;
        let mut created = 0u64;
        let mut node = &mut self.root;
        for level in 0..levels - 1 {
            let idx = ((vpn >> (RADIX_BITS * (levels - 1 - level))) & (FANOUT as u64 - 1)) as usize;
            let Node::Interior(children) = node else {
                unreachable!("interior level holds interior nodes");
            };
            if children[idx].is_none() {
                let child = if level + 2 == levels {
                    Node::new_leaf()
                } else {
                    Node::new_interior()
                };
                children[idx] = Some(child);
                created += 1;
            }
            node = children[idx].as_mut().expect("just ensured");
        }
        let idx = (vpn & (FANOUT as u64 - 1)) as usize;
        let Node::Leaf(entries) = node else {
            unreachable!("last level is a leaf");
        };
        let old = entries[idx].replace(pte);
        self.nodes += created;
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Looks up a mapping.
    pub fn get(&self, vpn: u64) -> Option<Pte> {
        let mut node = &self.root;
        for level in 0..self.levels - 1 {
            let idx = self.index(vpn, level);
            let Node::Interior(children) = node else {
                unreachable!();
            };
            node = children[idx].as_ref()?;
        }
        let idx = (vpn & (FANOUT as u64 - 1)) as usize;
        let Node::Leaf(entries) = node else {
            unreachable!();
        };
        entries[idx]
    }

    /// Mutable access to a present entry.
    pub fn get_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        let levels = self.levels;
        let mut node = &mut self.root;
        for level in 0..levels - 1 {
            let idx = ((vpn >> (RADIX_BITS * (levels - 1 - level))) & (FANOUT as u64 - 1)) as usize;
            let Node::Interior(children) = node else {
                unreachable!();
            };
            node = children[idx].as_mut()?;
        }
        let idx = (vpn & (FANOUT as u64 - 1)) as usize;
        let Node::Leaf(entries) = node else {
            unreachable!();
        };
        entries[idx].as_mut()
    }

    /// Removes a mapping, returning it.
    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        let levels = self.levels;
        let mut node = &mut self.root;
        for level in 0..levels - 1 {
            let idx = ((vpn >> (RADIX_BITS * (levels - 1 - level))) & (FANOUT as u64 - 1)) as usize;
            let Node::Interior(children) = node else {
                unreachable!();
            };
            node = children[idx].as_mut()?;
        }
        let idx = (vpn & (FANOUT as u64 - 1)) as usize;
        let Node::Leaf(entries) = node else {
            unreachable!();
        };
        let old = entries[idx].take();
        if old.is_some() {
            self.mapped -= 1;
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(frame: u64) -> Pte {
        Pte {
            writable: true,
            cow: false,
            dirty: false,
            backing: Backing::Frame(frame),
        }
    }

    #[test]
    fn map_get_unmap_round_trip() {
        let mut t = PageTable::new(55);
        assert_eq!(t.levels(), 7); // ceil(55 / 9)
        assert!(t.get(42).is_none());
        t.map(42, pte(7));
        assert_eq!(t.get(42).expect("mapped").backing, Backing::Frame(7));
        assert_eq!(t.mapped_count(), 1);
        let old = t.unmap(42).expect("was mapped");
        assert_eq!(old.backing, Backing::Frame(7));
        assert!(t.get(42).is_none());
        assert_eq!(t.mapped_count(), 0);
    }

    #[test]
    fn distant_vpns_do_not_collide() {
        let mut t = PageTable::new(55);
        let a = 0u64;
        let b = 1 << 54; // far corner of the space
        let c = (1 << 32) | 5; // a file window address
        t.map(a, pte(1));
        t.map(b, pte(2));
        t.map(c, pte(3));
        assert_eq!(t.get(a).expect("a").backing, Backing::Frame(1));
        assert_eq!(t.get(b).expect("b").backing, Backing::Frame(2));
        assert_eq!(t.get(c).expect("c").backing, Backing::Frame(3));
    }

    #[test]
    fn lazy_allocation_scales_with_use() {
        let mut t = PageTable::new(55);
        let empty_nodes = t.node_count();
        // 512 consecutive pages share one leaf chain.
        for vpn in 0..512 {
            t.map(vpn, pte(vpn));
        }
        let dense = t.node_count() - empty_nodes;
        let mut t2 = PageTable::new(55);
        // 8 scattered pages allocate a chain each.
        for i in 0..8u64 {
            t2.map(i << 45, pte(i));
        }
        let sparse = t2.node_count() - empty_nodes;
        assert!(dense < sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn remap_returns_previous() {
        let mut t = PageTable::new(30);
        t.map(5, pte(1));
        let old = t.map(5, pte(2)).expect("previous mapping");
        assert_eq!(old.backing, Backing::Frame(1));
        assert_eq!(t.mapped_count(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = PageTable::new(30);
        t.map(9, pte(1));
        t.get_mut(9).expect("present").dirty = true;
        assert!(t.get(9).expect("present").dirty);
    }

    #[test]
    fn single_level_table_works() {
        let mut t = PageTable::new(9);
        assert_eq!(t.levels(), 1);
        t.map(3, pte(1));
        assert!(t.get(3).is_some());
        assert!(t.unmap(3).is_some());
    }
}
