use crate::types::{AruId, BlockId, ListId};
use ld_disk::DiskError;
use std::fmt;

/// Errors reported by the logical disk.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LldError {
    /// An error from the underlying block device.
    Disk(DiskError),
    /// The named block is not allocated in the state visible to the
    /// operation.
    BlockNotAllocated(BlockId),
    /// The named list is not allocated in the state visible to the
    /// operation.
    ListNotAllocated(ListId),
    /// The named ARU is not active (never began, already ended, or
    /// already aborted).
    UnknownAru(AruId),
    /// `BeginARU` was called while another ARU is active on a logical
    /// disk configured without concurrent-ARU support (the paper's "old"
    /// version).
    ConcurrencyUnsupported {
        /// The ARU that is already active.
        active: AruId,
    },
    /// The block is already on a list (a block belongs to at most one
    /// list; it must be deleted, not moved).
    AlreadyOnList {
        /// The block being inserted.
        block: BlockId,
        /// The list it already belongs to.
        list: ListId,
    },
    /// The block named as an insertion predecessor is not on the list.
    PredecessorNotOnList {
        /// The list being inserted into.
        list: ListId,
        /// The claimed predecessor.
        pred: BlockId,
    },
    /// A write buffer was not exactly one block long.
    WrongBlockLength {
        /// Bytes supplied.
        got: usize,
        /// The configured block size.
        expected: usize,
    },
    /// Committing the ARU failed because a logged list operation no
    /// longer applies to the committed state (a concurrent operation
    /// changed it). ARUs provide failure atomicity only; clients must
    /// provide their own concurrency control.
    CommitConflict {
        /// The ARU whose commit failed; it has been aborted.
        aru: AruId,
        /// Human-readable description of the conflicting operation.
        detail: String,
    },
    /// The device is out of free segments (even after cleaning) or the
    /// allocation limits set at format time were reached.
    DiskFull,
    /// The operation requires that no ARUs are active (e.g. the
    /// orphan-reclaiming consistency check).
    ArusActive {
        /// Number of currently active ARUs.
        count: usize,
    },
    /// `AbortARU` was called on a logical disk configured without
    /// concurrent-ARU support: sequential ARUs apply their operations
    /// directly to the committed state and cannot be rolled back at run
    /// time (only a failure un-does them, at recovery).
    AbortUnsupported,
    /// The device does not contain a valid logical disk, or its on-disk
    /// structures are corrupt beyond the torn-tail case recovery handles.
    Corrupt(String),
    /// An invalid configuration was supplied.
    Config(String),
    /// A tagged commit or lookup named a write id below its client's
    /// floor: it was applied, its outcome superseded (docs/PROTOCOL.md).
    WriteIdSuperseded {
        /// The write id named.
        write_id: u64,
        /// The highest write id applied under the client's generation.
        floor: u64,
    },
    /// A tagged commit or lookup named a write id past its client's
    /// floor + 1: not applied, and refused until every id before it is.
    WriteIdOutOfSequence {
        /// The write id named.
        write_id: u64,
        /// The highest write id applied under the client's generation.
        floor: u64,
    },
    /// A new client was refused: [`MAX_CLIENTS`](crate::MAX_CLIENTS)
    /// clients have a row.
    TooManyClients,
}

impl fmt::Display for LldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LldError::Disk(e) => write!(f, "device error: {e}"),
            LldError::BlockNotAllocated(b) => write!(f, "block {b} is not allocated"),
            LldError::ListNotAllocated(l) => write!(f, "list {l} is not allocated"),
            LldError::UnknownAru(a) => write!(f, "{a} is not an active atomic recovery unit"),
            LldError::ConcurrencyUnsupported { active } => write!(
                f,
                "concurrent ARUs are not supported by this configuration ({active} is active)"
            ),
            LldError::AlreadyOnList { block, list } => {
                write!(f, "block {block} is already on list {list}")
            }
            LldError::PredecessorNotOnList { list, pred } => {
                write!(f, "predecessor {pred} is not on list {list}")
            }
            LldError::WrongBlockLength { got, expected } => {
                write!(f, "write of {got} bytes, expected exactly {expected}")
            }
            LldError::CommitConflict { aru, detail } => {
                write!(
                    f,
                    "commit of {aru} conflicts with committed state: {detail}"
                )
            }
            LldError::DiskFull => write!(f, "logical disk is full"),
            LldError::ArusActive { count } => {
                write!(f, "operation requires no active ARUs ({count} active)")
            }
            LldError::AbortUnsupported => {
                write!(f, "sequential ARUs cannot be aborted at run time")
            }
            LldError::Corrupt(msg) => write!(f, "on-disk structures are corrupt: {msg}"),
            LldError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            LldError::WriteIdSuperseded { write_id, floor } => {
                write!(f, "write id {write_id} is below the floor {floor}: applied")
            }
            LldError::WriteIdOutOfSequence { write_id, floor } => {
                write!(
                    f,
                    "write id {write_id} is out of sequence: the floor is {floor}"
                )
            }
            LldError::TooManyClients => write!(f, "a new client is refused: the table is full"),
        }
    }
}

impl std::error::Error for LldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LldError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DiskError> for LldError {
    fn from(e: DiskError) -> Self {
        LldError::Disk(e)
    }
}

/// Result alias for logical-disk operations.
pub type Result<T> = std::result::Result<T, LldError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = LldError::BlockNotAllocated(BlockId::new(3));
        assert_eq!(e.to_string(), "block b3 is not allocated");
        let e = LldError::CommitConflict {
            aru: AruId::new(2),
            detail: "delete of b9".into(),
        };
        assert!(e.to_string().contains("aru2"));
        assert!(e.to_string().contains("b9"));
    }

    #[test]
    fn disk_error_is_source() {
        use std::error::Error;
        let e = LldError::from(DiskError::Crashed);
        assert!(e.source().is_some());
        assert!(LldError::DiskFull.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LldError>();
    }
}
