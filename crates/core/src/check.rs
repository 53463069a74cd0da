//! The disk consistency check that reclaims orphaned allocations.
//!
//! Blocks are always allocated in the committed state, even inside an
//! ARU; if the ARU never commits, the allocation survives recovery while
//! the insertion into a list does not. The paper: "a disk consistency
//! check during recovery should free such blocks (which adds very little
//! overhead to a log-based recovery procedure)".

use crate::error::{LldError, Result};
use crate::lld::LldInner;
use crate::state::BlockRecord;
use crate::types::{BlockId, Ctx};
use ld_disk::BlockDevice;

/// What the consistency check found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Allocated blocks that belonged to no list and were freed.
    pub orphan_blocks_freed: Vec<BlockId>,
}

impl<D: BlockDevice> LldInner<D> {
    /// Frees every allocated block that belongs to no list.
    ///
    /// Run automatically at the end of [`recover`](crate::Lld::recover) (unless
    /// disabled in the configuration); it may also be run manually on a
    /// quiescent disk — the orphan scan and the deletions are not one
    /// atomic step, so concurrent mutators could allocate blocks the
    /// check then frees.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::ArusActive`] if any ARU is active: an active
    /// ARU legitimately owns allocated-but-unlinked blocks, and freeing
    /// them would corrupt its commit.
    pub fn check(&self) -> Result<CheckReport> {
        let orphans = {
            let all = self.maps.all_set();
            let view = self.read_view(all, all);
            let active = view.held_aru_count();
            if active > 0 {
                return Err(LldError::ArusActive { count: active });
            }
            // The committed view, a shard at a time: an alternative
            // record stands in front of the persistent one (both are in
            // the shard the identifier hashes to).
            let orphan = |r: &BlockRecord| r.allocated && r.list.is_none();
            let mut orphans: Vec<BlockId> = Vec::new();
            for sh in view.shards_held() {
                let newer = &sh.committed.blocks;
                orphans.extend(newer.iter().filter(|(_, r)| orphan(r)).map(|(&id, _)| id));
                orphans.extend(
                    (sh.persistent.iter::<BlockId>())
                        .filter(|(id, r)| orphan(r) && !newer.contains_key(id))
                        .map(|(id, _)| id),
                );
            }
            orphans.sort_unstable();
            orphans
        };
        for &b in &orphans {
            self.delete_block(Ctx::Simple, b)?;
        }
        Ok(CheckReport {
            orphan_blocks_freed: orphans,
        })
    }
}
