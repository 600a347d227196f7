//! A multi-level radix page table over a 64-bit virtual space.
//!
//! The table maps virtual page numbers to [`Backing`]s through 9-bit radix
//! levels (512 entries per node), the x86-64 shape. Interior nodes are
//! allocated lazily, so a sparse 64-bit space costs memory proportional
//! to what is mapped.

use ssmc_storage::PageId;

/// What a present page is backed by: the table's entry type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// A DRAM frame (index into the VM's frame pool).
    Frame(u64),
    /// A logical storage page, accessed in place (flash direct mapping).
    Storage(PageId),
}

const RADIX_BITS: u32 = 9;
const FANOUT: usize = 1 << RADIX_BITS;

enum Node {
    Interior(Box<[Option<Node>; FANOUT]>),
    Leaf(Box<[Option<Backing>; FANOUT]>),
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
/// use ssmc_vm::{Backing, PageTable};
///
/// let mut table = PageTable::new(55);
/// table.map(42, Backing::Frame(7));
/// assert_eq!(table.get(42), Some(Backing::Frame(7)));
/// assert!(table.get(43).is_none());
/// ```
#[derive(Debug)]
pub struct PageTable {
    root: Node,
    levels: u32,
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
            mapped: 0,
        }
    }

    /// Mapped (present) pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped
    }

    /// Slot of `vpn` in a node at `level` (0 = root) of a `levels`-deep
    /// table.
    fn index(levels: u32, vpn: u64, level: u32) -> usize {
        ((vpn >> (RADIX_BITS * (levels - 1 - level))) & (FANOUT as u64 - 1)) as usize
    }

    /// Installs (or replaces) a mapping. Returns the previous entry.
    pub fn map(&mut self, vpn: u64, backing: Backing) -> Option<Backing> {
        let levels = self.levels;
        let mut node = &mut self.root;
        for level in 0..levels - 1 {
            let idx = Self::index(levels, vpn, level);
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
            }
            node = children[idx].as_mut().expect("just ensured");
        }
        let idx = (vpn & (FANOUT as u64 - 1)) as usize;
        let Node::Leaf(entries) = node else {
            unreachable!("last level is a leaf");
        };
        let old = entries[idx].replace(backing);
        if old.is_none() {
            self.mapped += 1;
        }
        old
    }

    /// Looks up a mapping.
    pub fn get(&self, vpn: u64) -> Option<Backing> {
        let mut node = &self.root;
        for level in 0..self.levels - 1 {
            let idx = Self::index(self.levels, vpn, level);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(f: u64) -> Backing {
        Backing::Frame(f)
    }

    /// Allocated nodes under `n`, itself included.
    fn nodes(n: &Node) -> u64 {
        match n {
            Node::Interior(children) => 1 + children.iter().flatten().map(nodes).sum::<u64>(),
            Node::Leaf(_) => 1,
        }
    }

    #[test]
    fn map_get_round_trip() {
        let mut t = PageTable::new(55);
        assert_eq!(t.levels, 7); // ceil(55 / 9)
        assert!(t.get(42).is_none());
        t.map(42, frame(7));
        assert_eq!(t.get(42), Some(frame(7)));
        assert_eq!(t.mapped_count(), 1);
        assert!(t.get(43).is_none());
    }

    #[test]
    fn distant_vpns_do_not_collide() {
        let mut t = PageTable::new(55);
        let a = 0u64;
        let b = 1 << 54; // far corner of the space
        let c = (1 << 32) | 5; // a file window address
        t.map(a, frame(1));
        t.map(b, frame(2));
        t.map(c, Backing::Storage(3));
        assert_eq!(t.get(a), Some(frame(1)));
        assert_eq!(t.get(b), Some(frame(2)));
        assert_eq!(t.get(c), Some(Backing::Storage(3)));
    }

    #[test]
    fn lazy_allocation_scales_with_use() {
        let mut t = PageTable::new(55);
        let empty_nodes = nodes(&t.root);
        // 512 consecutive pages share one leaf chain.
        for vpn in 0..512 {
            t.map(vpn, frame(vpn));
        }
        let dense = nodes(&t.root) - empty_nodes;
        let mut t2 = PageTable::new(55);
        // 8 scattered pages allocate a chain each.
        for i in 0..8u64 {
            t2.map(i << 45, frame(i));
        }
        let sparse = nodes(&t2.root) - empty_nodes;
        assert!(dense < sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn remap_returns_previous() {
        let mut t = PageTable::new(30);
        t.map(5, frame(1));
        let old = t.map(5, frame(2)).expect("previous mapping");
        assert_eq!(old, frame(1));
        assert_eq!(t.mapped_count(), 1);
    }

    #[test]
    fn single_level_table_works() {
        let mut t = PageTable::new(9);
        assert_eq!(t.levels, 1);
        t.map(3, frame(1));
        assert!(t.get(3).is_some());
    }
}
