//! On-flash layout: page-space geometry, inode and directory-entry
//! encodings, and the superblock.
//!
//! The 64-bit logical page space is carved arithmetically — no allocation
//! maps, no indirect blocks:
//!
//! ```text
//! page id = (ino as u64) << 32 | page_index
//!
//! ino 0 window (metadata):
//!   page 0            superblock
//!   page 1..          inode table, page_size/64 inodes per page
//! ino 1..             root directory and all files/directories
//! ```
//!
//! Encodings are explicit little-endian byte layouts (not serde): this is
//! the persistent format a real implementation would burn into flash, and
//! it must be stable under recovery.

/// Inode number.
pub type Ino = u32;

/// The root directory's inode.
pub const ROOT_INO: Ino = 1;

/// Bytes per encoded inode.
pub const INODE_BYTES: usize = 64;

/// Bytes per encoded directory entry.
pub const DIRENT_BYTES: usize = 32;

/// Maximum file-name length in bytes.
pub const NAME_MAX: usize = 26;

/// Superblock magic.
pub const MAGIC: u64 = 0x5353_4D43_4653_0001; // "SSMCFS01"

/// The logical page window of an inode: its pages start here.
pub fn window(ino: Ino) -> u64 {
    (ino as u64) << 32
}

/// Logical page id of byte-page `index` within file `ino`.
pub fn file_page(ino: Ino, index: u64) -> u64 {
    debug_assert!(index < 1 << 32, "file too large for its window");
    window(ino) | index
}

/// What an inode currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeKind {
    /// Unallocated.
    Free,
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

impl InodeKind {
    fn to_byte(self) -> u8 {
        match self {
            InodeKind::Free => 0,
            InodeKind::File => 1,
            InodeKind::Dir => 2,
        }
    }

    fn from_byte(b: u8) -> InodeKind {
        match b {
            1 => InodeKind::File,
            2 => InodeKind::Dir,
            _ => InodeKind::Free,
        }
    }
}

/// An inode: fixed 64-byte record in the inode table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    /// File, directory, or free.
    pub kind: InodeKind,
    /// Size in bytes.
    pub size: u64,
    /// Link count (1 for ordinary files; directories don't self-link in
    /// this design).
    pub nlink: u16,
    /// Last-modification instant, nanoseconds of simulated time.
    pub mtime_ns: u64,
    /// Creation instant, nanoseconds of simulated time.
    pub ctime_ns: u64,
}

impl Inode {
    /// A fresh inode of `kind` stamped at `now_ns`.
    pub fn new(kind: InodeKind, now_ns: u64) -> Self {
        Inode {
            kind,
            size: 0,
            nlink: 1,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
        }
    }

    /// Encodes into exactly [`INODE_BYTES`] bytes.
    pub fn encode(&self) -> [u8; INODE_BYTES] {
        let mut out = [0u8; INODE_BYTES];
        out[0] = self.kind.to_byte();
        out[8..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..18].copy_from_slice(&self.nlink.to_le_bytes());
        out[24..32].copy_from_slice(&self.mtime_ns.to_le_bytes());
        out[32..40].copy_from_slice(&self.ctime_ns.to_le_bytes());
        out
    }

    /// Decodes from a [`INODE_BYTES`]-byte record.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`INODE_BYTES`].
    pub fn decode(buf: &[u8]) -> Inode {
        Inode {
            kind: InodeKind::from_byte(buf[0]),
            size: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            nlink: u16::from_le_bytes(buf[16..18].try_into().expect("2 bytes")),
            mtime_ns: u64::from_le_bytes(buf[24..32].try_into().expect("8 bytes")),
            ctime_ns: u64::from_le_bytes(buf[32..40].try_into().expect("8 bytes")),
        }
    }
}

/// A directory entry: fixed 32-byte slot (`ino == 0` means the slot is
/// empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Target inode.
    pub ino: Ino,
    /// Entry name (≤ [`NAME_MAX`] bytes).
    pub name: String,
}

impl DirEntry {
    /// Encodes into exactly [`DIRENT_BYTES`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds [`NAME_MAX`] bytes (validated earlier by
    /// path handling).
    pub fn encode(&self) -> [u8; DIRENT_BYTES] {
        let name = self.name.as_bytes();
        assert!(name.len() <= NAME_MAX, "name too long for dirent");
        let mut out = [0u8; DIRENT_BYTES];
        out[0..4].copy_from_slice(&self.ino.to_le_bytes());
        out[4] = name.len() as u8;
        out[5..5 + name.len()].copy_from_slice(name);
        out
    }

    /// Decodes a slot; `None` if the slot is empty.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`DIRENT_BYTES`].
    pub fn decode(buf: &[u8]) -> Option<DirEntry> {
        let ino = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
        if ino == 0 {
            return None;
        }
        let len = (buf[4] as usize).min(NAME_MAX);
        let name = String::from_utf8_lossy(&buf[5..5 + len]).into_owned();
        Some(DirEntry { ino, name })
    }
}

/// The superblock (page 0 of the metadata window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Must equal [`MAGIC`].
    pub magic: u64,
    /// Next never-used inode number (allocation watermark).
    pub next_ino: Ino,
}

impl Superblock {
    /// A fresh superblock for an empty file system.
    pub fn fresh() -> Self {
        Superblock {
            magic: MAGIC,
            next_ino: ROOT_INO + 1,
        }
    }

    /// Encodes into the front of a page buffer.
    pub fn encode_into(&self, page: &mut [u8]) {
        page[0..8].copy_from_slice(&self.magic.to_le_bytes());
        page[8..12].copy_from_slice(&self.next_ino.to_le_bytes());
    }

    /// Decodes from a page buffer; `None` if the magic is absent.
    pub fn decode(page: &[u8]) -> Option<Superblock> {
        let magic = u64::from_le_bytes(page[0..8].try_into().expect("8 bytes"));
        if magic != MAGIC {
            return None;
        }
        Some(Superblock {
            magic,
            next_ino: u32::from_le_bytes(page[8..12].try_into().expect("4 bytes")),
        })
    }
}

/// Validates one path component.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.len() <= NAME_MAX && !name.contains('/') && name != "." && name != ".."
}

/// Splits an absolute path into components.
///
/// Returns `None` for relative paths or paths with empty components
/// (`"//"`), over-long names, or `"."`/`".."`.
pub fn split_path(path: &str) -> Option<Vec<&str>> {
    let rest = path.strip_prefix('/')?;
    if rest.is_empty() {
        // lint: allow(H2): `Vec::new()` for the root path allocates nothing.
        return Some(Vec::new());
    }
    // lint: allow(H2): path lookup splits a path once per namespace call;
    // read/write replay goes through open fds (alloc-guard pinned).
    let parts: Vec<&str> = rest.split('/').collect();
    if parts.iter().all(|p| valid_name(p)) {
        Some(parts)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_do_not_overlap() {
        assert_eq!(window(0), 0);
        assert_eq!(window(1), 1 << 32);
        assert!(file_page(1, u32::MAX as u64) < window(2));
    }

    #[test]
    fn inode_encode_decode_round_trip() {
        let i = Inode {
            kind: InodeKind::Dir,
            size: 123_456_789_012,
            nlink: 7,
            mtime_ns: 42,
            ctime_ns: 43,
        };
        assert_eq!(Inode::decode(&i.encode()), i);
    }

    #[test]
    fn zeroed_bytes_decode_as_free_inode() {
        let i = Inode::decode(&[0u8; INODE_BYTES]);
        assert_eq!(i.kind, InodeKind::Free);
        assert_eq!(i.size, 0);
    }

    #[test]
    fn dirent_round_trip_and_empty_slot() {
        let d = DirEntry {
            ino: 9,
            name: "notes.txt".to_owned(),
        };
        assert_eq!(DirEntry::decode(&d.encode()), Some(d));
        assert_eq!(DirEntry::decode(&[0u8; DIRENT_BYTES]), None);
    }

    #[test]
    fn dirent_name_max_fits() {
        let d = DirEntry {
            ino: 1,
            name: "a".repeat(NAME_MAX),
        };
        assert_eq!(DirEntry::decode(&d.encode()), Some(d));
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn oversize_name_panics() {
        let d = DirEntry {
            ino: 1,
            name: "a".repeat(NAME_MAX + 1),
        };
        let _ = d.encode();
    }

    #[test]
    fn superblock_round_trip() {
        let mut page = vec![0u8; 512];
        let sb = Superblock::fresh();
        sb.encode_into(&mut page);
        assert_eq!(Superblock::decode(&page), Some(sb));
        assert_eq!(Superblock::decode(&vec![0u8; 512]), None);
    }

    #[test]
    fn path_splitting() {
        assert_eq!(split_path("/"), Some(vec![]));
        assert_eq!(split_path("/a/b"), Some(vec!["a", "b"]));
        assert_eq!(split_path("a/b"), None);
        assert_eq!(split_path("/a//b"), None);
        assert_eq!(split_path("/a/../b"), None);
        assert!(split_path(&format!("/{}", "x".repeat(NAME_MAX + 1))).is_none());
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("hello.txt"));
        assert!(!valid_name(""));
        assert!(!valid_name("."));
        assert!(!valid_name(".."));
        assert!(!valid_name("a/b"));
    }
}
