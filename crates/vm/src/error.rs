//! Virtual-memory error type.

use core::fmt;
use ssmc_storage::StorageError;

/// Errors surfaced by the VM layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Access to an address no mapping covers.
    SegFault {
        /// Faulting virtual address.
        addr: u64,
    },
    /// A demand load needed a DRAM frame and the pool was empty. There is
    /// no pager: §3.2 expects virtual memory on a solid-state machine to
    /// protect, not to expand capacity.
    OutOfMemory,
    /// Unknown address-space identifier.
    BadAsid(u32),
    /// The backing store failed.
    Storage(StorageError),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::SegFault { addr } => write!(f, "segmentation fault at {addr:#x}"),
            VmError::OutOfMemory => write!(f, "out of DRAM frames"),
            VmError::BadAsid(asid) => write!(f, "unknown address space {asid}"),
            VmError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for VmError {
    fn from(e: StorageError) -> Self {
        VmError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_addresses() {
        let e = VmError::SegFault { addr: 0x1000 };
        assert!(e.to_string().contains("0x1000"));
    }

    #[test]
    fn wraps_storage() {
        let e: VmError = StorageError::NoSpace.into();
        assert!(matches!(e, VmError::Storage(_)));
    }
}
