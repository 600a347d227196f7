//! Storage-manager error type.

use core::fmt;
use ssmc_device::DeviceError;

/// Why the cleaner could not supply a segment to write into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// No segment is free or erasing, and no closed segment has a slot
    /// to reclaim: the write head has nowhere to go.
    NothingToReclaim,
    /// A victim's live slots (or the pending tombstones its erase must
    /// write first) have no segment to move into.
    NoRoomForSurvivors,
}

/// Errors surfaced by the storage manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The live data set would exceed capacity (the configured maximum
    /// utilisation of the usable log, or the device in in-place mode).
    NoSpace,
    /// Live data fits, but the cleaner cannot free a segment; the cause
    /// says why.
    CleanerStalled(Stall),
    /// The machine is in the crashed state (battery died) and has not been
    /// recovered yet.
    Crashed,
    /// An underlying device rejected an operation. Seeing this escape the
    /// manager means a policy bug — the manager exists to hide these.
    Device(DeviceError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSpace => write!(f, "flash is full (live data exceeds capacity)"),
            StorageError::CleanerStalled(Stall::NothingToReclaim) => write!(
                f,
                "cleaner stalled: no segment is free or erasing and none has a slot to reclaim"
            ),
            StorageError::CleanerStalled(Stall::NoRoomForSurvivors) => write!(
                f,
                "cleaner stalled: no segment to move a victim's live slots into"
            ),
            StorageError::Crashed => write!(f, "storage manager is crashed; recover first"),
            StorageError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for StorageError {
    fn from(e: DeviceError) -> Self {
        StorageError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_device_errors() {
        let e: StorageError = DeviceError::ContentsLost.into();
        assert!(matches!(e, StorageError::Device(_)));
        assert!(e.to_string().contains("device error"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let e: StorageError = DeviceError::ContentsLost.into();
        assert!(e.source().is_some());
        assert!(StorageError::NoSpace.source().is_none());
    }
}
