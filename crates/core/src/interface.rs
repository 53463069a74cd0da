//! The LD interface as a trait, so disk-system clients (file systems,
//! transaction systems) can be written against any logical-disk
//! implementation — one of LD's design goals: "LD implementations can be
//! exchanged transparently, without changing applications".

use crate::error::Result;
use crate::lld::{Lld, LldInner};
use crate::obs::ObsSnapshot;
use crate::types::{AruId, BlockId, Ctx, ListId, Position};
use ld_disk::BlockDevice;
use std::sync::Arc;

/// The Logical Disk interface with atomic recovery units.
///
/// All operations take a [`Ctx`]: [`Ctx::Simple`] for a simple (self-
/// atomic) operation, or [`Ctx::Aru`] to execute within an atomic
/// recovery unit.
///
/// Every operation takes `&self`: implementations synchronize
/// internally, so one logical disk can be shared across threads by
/// reference or as an `Arc` (both of which implement this trait too,
/// via blanket impls).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ld_core::LldError> {
/// use ld_core::{Ctx, LogicalDisk, Lld, LldConfig, Position};
/// use ld_disk::MemDisk;
///
/// fn create_object<L: LogicalDisk>(ld: &L, payload: &[u8]) -> Result<ld_core::ListId, ld_core::LldError> {
///     let aru = ld.begin_aru()?;
///     let list = ld.new_list(Ctx::Aru(aru))?;
///     let block = ld.new_block(Ctx::Aru(aru), list, Position::First)?;
///     ld.write(Ctx::Aru(aru), block, payload)?;
///     ld.end_aru(aru)?;
///     Ok(list)
/// }
///
/// let ld = Lld::format(MemDisk::new(4 << 20), &LldConfig {
///     block_size: 512,
///     segment_bytes: 8 * 512,
///     ..LldConfig::default()
/// })?;
/// let list = create_object(&ld, &[1u8; 512])?;
/// assert_eq!(ld.list_blocks(Ctx::Simple, list)?.len(), 1);
/// # Ok(())
/// # }
/// ```
pub trait LogicalDisk {
    /// Begins an atomic recovery unit.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see [`Lld::begin_aru`].
    fn begin_aru(&self) -> Result<AruId>;

    /// Commits an atomic recovery unit (lazy durability: the unit
    /// survives a crash once its commit record reaches disk).
    ///
    /// # Errors
    ///
    /// Implementation-specific; see [`Lld::end_aru`]. `Ok` promises no
    /// durability, as for [`write`](LogicalDisk::write).
    fn end_aru(&self, aru: AruId) -> Result<()>;

    /// Aborts an atomic recovery unit (extension).
    ///
    /// # Errors
    ///
    /// Implementation-specific; see [`Lld::abort_aru`].
    fn abort_aru(&self, aru: AruId) -> Result<()>;

    /// Allocates a new list.
    ///
    /// # Errors
    ///
    /// See [`Lld::new_list`].
    fn new_list(&self, ctx: Ctx) -> Result<ListId>;

    /// Deletes a list and any blocks still on it.
    ///
    /// # Errors
    ///
    /// See [`Lld::delete_list`].
    fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()>;

    /// Allocates a new block on `list` at `pos`.
    ///
    /// # Errors
    ///
    /// See [`Lld::new_block`].
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId>;

    /// Removes a block from its list and deallocates it.
    ///
    /// # Errors
    ///
    /// See [`Lld::delete_block`].
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()>;

    /// Writes exactly one block of data.
    ///
    /// # Errors
    ///
    /// See [`Lld::write`]. `Ok` promises no durability: a segment write
    /// that fails later is [`flush`](LogicalDisk::flush)'s to report.
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()>;

    /// Reads exactly one block of data.
    ///
    /// # Errors
    ///
    /// See [`Lld::read`].
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()>;

    /// Returns the blocks of `list` in order.
    ///
    /// # Errors
    ///
    /// See [`Lld::list_blocks`].
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>>;

    /// Ensures all committed data and meta-data are persistent.
    ///
    /// # Errors
    ///
    /// See [`Lld::flush`]. A segment write that failed, whether or not
    /// the operation that sealed the segment had returned `Ok` by then,
    /// stays on record (on either writer): this call and every later
    /// one, [`Lld::checkpoint`](crate::LldInner::checkpoint) included, report it.
    fn flush(&self) -> Result<()>;

    /// Commits an atomic recovery unit and makes it durable before
    /// returning. The default is `end_aru` followed by `flush`;
    /// implementations with a group-commit stage (like [`Lld`]) batch
    /// the flushes of concurrent callers.
    ///
    /// # Errors
    ///
    /// Those of [`end_aru`](LogicalDisk::end_aru) and
    /// [`flush`](LogicalDisk::flush).
    fn end_aru_sync(&self, aru: AruId) -> Result<()> {
        self.end_aru(aru)?;
        self.flush()
    }

    /// The block size in bytes.
    fn block_size(&self) -> usize;

    /// A bundle of everything observable about the disk, when the
    /// implementation collects observability data (see
    /// [`Lld::obs_snapshot`]). The default returns `None` so trait
    /// implementors without instrumentation need no code.
    fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        None
    }
}

impl<D: BlockDevice> LogicalDisk for Lld<D> {
    fn begin_aru(&self) -> Result<AruId> {
        LldInner::begin_aru(self)
    }
    fn end_aru(&self, aru: AruId) -> Result<()> {
        LldInner::end_aru(self, aru)
    }
    fn abort_aru(&self, aru: AruId) -> Result<()> {
        LldInner::abort_aru(self, aru)
    }
    fn new_list(&self, ctx: Ctx) -> Result<ListId> {
        LldInner::new_list(self, ctx)
    }
    fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
        LldInner::delete_list(self, ctx, list)
    }
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        LldInner::new_block(self, ctx, list, pos)
    }
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
        LldInner::delete_block(self, ctx, block)
    }
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        LldInner::write(self, ctx, block, data)
    }
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
        LldInner::read(self, ctx, block, buf)
    }
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
        LldInner::list_blocks(self, ctx, list)
    }
    fn flush(&self) -> Result<()> {
        LldInner::flush(self)
    }
    fn end_aru_sync(&self, aru: AruId) -> Result<()> {
        LldInner::end_aru_sync(self, aru)
    }
    fn block_size(&self) -> usize {
        LldInner::block_size(self)
    }
    fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        Some(LldInner::obs_snapshot(self))
    }
}

macro_rules! forward_logical_disk {
    ($ty:ty) => {
        impl<L: LogicalDisk + ?Sized> LogicalDisk for $ty {
            fn begin_aru(&self) -> Result<AruId> {
                (**self).begin_aru()
            }
            fn end_aru(&self, aru: AruId) -> Result<()> {
                (**self).end_aru(aru)
            }
            fn abort_aru(&self, aru: AruId) -> Result<()> {
                (**self).abort_aru(aru)
            }
            fn new_list(&self, ctx: Ctx) -> Result<ListId> {
                (**self).new_list(ctx)
            }
            fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
                (**self).delete_list(ctx, list)
            }
            fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
                (**self).new_block(ctx, list, pos)
            }
            fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
                (**self).delete_block(ctx, block)
            }
            fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
                (**self).write(ctx, block, data)
            }
            fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
                (**self).read(ctx, block, buf)
            }
            fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
                (**self).list_blocks(ctx, list)
            }
            fn flush(&self) -> Result<()> {
                (**self).flush()
            }
            fn end_aru_sync(&self, aru: AruId) -> Result<()> {
                (**self).end_aru_sync(aru)
            }
            fn block_size(&self) -> usize {
                (**self).block_size()
            }
            fn obs_snapshot(&self) -> Option<ObsSnapshot> {
                (**self).obs_snapshot()
            }
        }
    };
}

forward_logical_disk!(&L);
forward_logical_disk!(Arc<L>);
