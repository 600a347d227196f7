//! Address spaces and code mappings.
//!
//! Each protection domain owns an [`AddressSpace`]: a page table plus the
//! list of code regions faults resolve against. Regions are placed by a
//! simple bump allocator in the 64-bit space — with single-level storage
//! there is no reason to be clever about layout.

use ssmc_storage::PageId;
use std::collections::BTreeMap;

/// What a present page is backed by: the page table's entry type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// A DRAM frame (index into the VM's frame pool).
    Frame(u64),
    /// A logical storage page, accessed in place (flash direct mapping).
    Storage(PageId),
}

/// One mapped, read-execute code region: a program's text, in file order.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// First virtual page number.
    pub base_vpn: u64,
    /// The file's logical pages, in order; the region is this many pages
    /// long.
    pub pages: Vec<PageId>,
    /// Execute in place: faults map the storage page directly, copying
    /// nothing (§3.2). Otherwise the text is demand-loaded the
    /// conventional way, each fault copying its page into a DRAM frame.
    pub xip: bool,
}

impl Mapping {
    /// The storage page backing `vpn`, or `None` outside the region.
    pub fn storage_page(&self, vpn: u64) -> Option<PageId> {
        let idx = vpn.checked_sub(self.base_vpn)? as usize;
        self.pages.get(idx).copied()
    }
}

/// A protection domain: page table plus regions.
#[derive(Debug)]
pub struct AddressSpace {
    /// The page table: virtual page number → backing of each present
    /// page. The fault path charges a constant walk for it, whatever its
    /// shape.
    pub(crate) table: BTreeMap<u64, Backing>,
    regions: Vec<Mapping>,
    bump_vpn: u64,
}

impl AddressSpace {
    /// Creates an empty space.
    pub(crate) fn new() -> Self {
        AddressSpace {
            table: BTreeMap::new(),
            regions: Vec::new(),
            // Leave page 0 unmapped so null dereferences fault.
            bump_vpn: 1,
        }
    }

    /// Maps `pages` as a code region, returning its base VPN.
    pub fn map_region(&mut self, pages: Vec<PageId>, xip: bool) -> u64 {
        let base = self.bump_vpn;
        self.bump_vpn += (pages.len() as u64).max(1);
        self.regions.push(Mapping {
            base_vpn: base,
            pages,
            xip,
        });
        base
    }

    /// Finds the region covering `vpn`.
    pub fn region_of(&self, vpn: u64) -> Option<&Mapping> {
        self.regions.iter().find(|r| r.storage_page(vpn).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut s = AddressSpace::new();
        let a = s.map_region((100..110).collect(), true);
        let b = s.map_region((200..205).collect(), false);
        assert!(a + 10 <= b);
        assert!(s.region_of(a).is_some());
        assert!(s.region_of(a + 9).is_some());
        assert!(s.region_of(b + 4).is_some());
        assert!(s.region_of(b + 5).is_none());
    }

    #[test]
    fn page_zero_stays_unmapped() {
        let mut s = AddressSpace::new();
        let a = s.map_region(vec![7; 4], true);
        assert!(a >= 1);
        assert!(s.region_of(0).is_none());
    }

    #[test]
    fn storage_page_lookup() {
        let mut s = AddressSpace::new();
        let base = s.map_region(vec![100, 101, 102], true);
        let r = s.region_of(base + 1).expect("mapped");
        assert_eq!(r.storage_page(base + 1), Some(101));
        assert_eq!(r.storage_page(base + 3), None);
        assert_eq!(r.storage_page(base - 1), None);
    }
}
