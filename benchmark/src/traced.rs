//! `TracedLd<L>`: a span around every `LogicalDisk` call.
//!
//! The workloads reach the core only through this wrapper, so one
//! code path serves the untraced and the traced run: with tracing off
//! each call costs one relaxed load before it is forwarded.

use crate::trace::span;
use ld_core::{AruId, BlockId, Ctx, ListId, LogicalDisk, ObsSnapshot, Position, Result};

#[derive(Debug)]
pub struct TracedLd<L>(pub L);

impl<L> TracedLd<L> {
    pub fn inner(&self) -> &L {
        &self.0
    }

    pub fn into_inner(self) -> L {
        self.0
    }
}

impl<L: LogicalDisk> LogicalDisk for TracedLd<L> {
    fn begin_aru(&self) -> Result<AruId> {
        let _s = span("ops.begin_aru");
        self.0.begin_aru()
    }
    fn end_aru(&self, aru: AruId) -> Result<()> {
        let _s = span("commit.end_aru");
        self.0.end_aru(aru)
    }
    fn abort_aru(&self, aru: AruId) -> Result<()> {
        let _s = span("commit.abort_aru");
        self.0.abort_aru(aru)
    }
    fn new_list(&self, ctx: Ctx) -> Result<ListId> {
        let _s = span("ops.new_list");
        self.0.new_list(ctx)
    }
    fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
        let _s = span("ops.delete_list");
        self.0.delete_list(ctx, list)
    }
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        let _s = span("ops.new_block");
        self.0.new_block(ctx, list, pos)
    }
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
        let _s = span("ops.delete_block");
        self.0.delete_block(ctx, block)
    }
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        let _s = span("ops.write");
        self.0.write(ctx, block, data)
    }
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
        let _s = span("ops.read");
        self.0.read(ctx, block, buf)
    }
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
        let _s = span("ops.list_blocks");
        self.0.list_blocks(ctx, list)
    }
    fn flush(&self) -> Result<()> {
        let _s = span("commit.flush");
        self.0.flush()
    }
    fn end_aru_sync(&self, aru: AruId) -> Result<()> {
        let _s = span("commit.end_aru_sync");
        self.0.end_aru_sync(aru)
    }
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        self.0.obs_snapshot()
    }
}
