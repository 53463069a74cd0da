//! Per-ARU shadow state: alternative records, buffered block data, and
//! the list-operation log.

use crate::obs::ActiveSpan;
use crate::state::StateOverlay;
use crate::types::{AruId, BlockId, ListId, Timestamp};
use std::collections::BTreeMap;

/// One logged list operation (§4 of the paper: "a log entry of the form
/// insert-block-after-predecessor is added to the log of list operations
/// for the specific ARU").
///
/// List operations inside an ARU execute in the shadow state without
/// generating segment-summary entries; at commit the log is re-executed
/// in the committed state, generating the real entries. This is what
/// makes merging different shadow versions of the same list possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ListOp {
    /// Insert `block` into `list` after `pred` (`None` = at the front).
    Insert {
        list: ListId,
        block: BlockId,
        pred: Option<BlockId>,
    },
    /// Remove `block` from its list and deallocate it.
    DeleteBlock { block: BlockId },
    /// Deallocate `list` together with any blocks still on it.
    DeleteList { list: ListId },
}

/// The in-memory state of one active atomic recovery unit.
#[derive(Debug)]
pub(crate) struct Aru {
    pub(crate) id: AruId,
    /// Alternative block/list records local to this ARU (the shadow
    /// state). Isolated from all other ARUs under the paper's option-3
    /// read visibility.
    pub(crate) shadow: StateOverlay,
    /// Data written inside this ARU, buffered until commit (at commit
    /// each block enters the segment stream and gets a physical
    /// address). Keyed and flushed in block order for determinism; one
    /// buffered version per block (the most recent write wins), held as
    /// its [`extent`](crate::segment::extent): the block reads as it,
    /// zero-filled.
    pub(crate) shadow_data: BTreeMap<BlockId, Vec<u8>>,
    /// The list-operation log, replayed in order at commit.
    pub(crate) link_log: Vec<ListOp>,
    /// When the ARU began, and its lifecycle counters
    /// (docs/OBSERVABILITY.md): kept here, under the slot lock every
    /// operation of the ARU takes anyway.
    pub(crate) span: ActiveSpan,
    /// Identifiers deallocated by this ARU's operations; released for
    /// reuse only when the commit record has been emitted (so recovery
    /// can never observe a reallocation that precedes the deallocating
    /// ARU's commit in the log).
    pub(crate) pending_free_blocks: Vec<BlockId>,
    pub(crate) pending_free_lists: Vec<ListId>,
    /// The `(client, generation, write_id)` idempotency tag of a
    /// networked commit, set by `end_aru_tagged` just before the commit
    /// runs. When present, commit journals a `Record::WriteId` inside
    /// the ARU and records the outcome in the dedup cache.
    pub(crate) write_tag: Option<WriteTag>,
}

/// The idempotency tag a networked commit carries (see `dedup.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteTag {
    pub(crate) client: u64,
    pub(crate) generation: u64,
    pub(crate) write_id: u64,
}

impl Aru {
    pub(crate) fn new(id: AruId, span: ActiveSpan) -> Self {
        Aru {
            id,
            shadow: StateOverlay::default(),
            shadow_data: BTreeMap::new(),
            link_log: Vec::new(),
            span,
            pending_free_blocks: Vec::new(),
            pending_free_lists: Vec::new(),
            write_tag: None,
        }
    }

    /// The logical time at which the ARU began.
    pub(crate) fn started(&self) -> Timestamp {
        Timestamp::new(self.span.begin_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_aru_is_empty() {
        let span = ActiveSpan {
            begin_ts: 5,
            ..ActiveSpan::default()
        };
        let a = Aru::new(AruId::new(1), span);
        assert!(a.shadow.is_empty());
        assert!(a.shadow_data.is_empty());
        assert!(a.link_log.is_empty());
        assert_eq!(a.started(), Timestamp::new(5));
        assert_eq!(a.id, AruId::new(1));
    }

    #[test]
    fn shadow_data_keeps_latest_write_per_block() {
        let mut a = Aru::new(AruId::new(1), ActiveSpan::default());
        a.shadow_data.insert(BlockId::new(3), vec![1, 2]);
        a.shadow_data.insert(BlockId::new(3), vec![9, 9]);
        assert_eq!(a.shadow_data.len(), 1);
        assert_eq!(a.shadow_data[&BlockId::new(3)], vec![9, 9]);
    }
}
