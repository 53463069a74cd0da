//! The public LD operations: `Read`, `Write`, `NewBlock`, `DeleteBlock`,
//! `NewList`, `DeleteList`, and `BeginARU` (`Flush` lives in the
//! group-commit stage, [`crate::gc`]).
//!
//! Figure 2 of the paper summarises which operation affects which state;
//! this module implements exactly that table:
//!
//! * simple operations affect the merged (committed) stream;
//! * `Read`/`Write`/`DeleteBlock`/`DeleteList` inside an ARU affect that
//!   ARU's shadow state;
//! * `NewBlock`/`NewList` *always* allocate in the committed state (the
//!   allocation exception), with only the list insertion in the shadow
//!   state.
//!
//! Each operation locks only what it touches: reads take shared access
//! to the one shard their block hashes to (escalating to all shards
//! only when a list walk crosses a shard boundary), and the hot
//! mutations — `Write`, `NewBlock`, `NewList` — run in *scoped*
//! sessions over their identifiers' shards, so operations on disjoint
//! shards proceed fully in parallel. The deletions walk and unlink
//! across arbitrary identifiers and therefore run in full sessions, as
//! does any operation when free segments are scarce (only a full
//! session may run the cleaner inline).

use crate::aru::ListOp;
use crate::config::{ConcurrencyMode, ReadVisibility};
use crate::error::{LldError, Result};
use crate::lld::{LldInner, Mutation, StateRef};
use crate::segment::{extent, zero_past_extent, SECTOR};
use crate::shard::{MapView, WalkOutcome};
use crate::summary::Record;
use crate::types::{AruId, BlockId, Ctx, ListId, PhysAddr, Position, Timestamp};
use ld_disk::BlockDevice;
use std::sync::atomic::Ordering;

/// How an operation's context maps onto the version states, given the
/// configured concurrency mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// Apply directly to the merged (committed) stream; records tagged
    /// with the ARU id when the op is inside a *sequential* ARU.
    Merged(Option<AruId>),
    /// Apply to the shadow state of a concurrent ARU.
    Shadow(AruId),
}

/// Where a read resolved its data.
enum DataSource {
    /// Buffered shadow data of an ARU.
    ShadowBuf(AruId),
    /// A physical address (committed or persistent data).
    Addr(PhysAddr),
    /// Allocated but never written: reads as zeroes.
    Zeros,
}

impl<D: BlockDevice> LldInner<D> {
    /// Classifies an operation's context, counting it in its ARU's span.
    fn stream_of(&self, map: &mut MapView<'_>, ctx: Ctx) -> Result<Stream> {
        match ctx {
            Ctx::Simple => Ok(Stream::Merged(None)),
            Ctx::Aru(id) => {
                let aru = map.aru_mut(id.get()).ok_or(LldError::UnknownAru(id))?;
                aru.span.ops += 1;
                match self.concurrency {
                    ConcurrencyMode::Sequential => Ok(Stream::Merged(Some(id))),
                    ConcurrencyMode::Concurrent => Ok(Stream::Shadow(id)),
                }
            }
        }
    }

    /// The ARU-slot set a context needs: the slot its ARU hashes to,
    /// or none for simple operations.
    pub(crate) fn ctx_aru_set(&self, ctx: Ctx) -> u64 {
        match ctx {
            Ctx::Simple => 0,
            Ctx::Aru(id) => self.maps.bit_of(id.get()),
        }
    }

    /// Begins a new atomic recovery unit and returns its identifier.
    ///
    /// # Errors
    ///
    /// In [`ConcurrencyMode::Sequential`] (the paper's "old" version),
    /// returns [`LldError::ConcurrencyUnsupported`] if an ARU is already
    /// active.
    pub fn begin_aru(&self) -> Result<AruId> {
        let id = match self.concurrency {
            ConcurrencyMode::Sequential => {
                // The single-ARU invariant spans every slot.
                let mut slots = self.maps.lock_arus(self.maps.all_set());
                if let Some(raw) = slots.iter().flat_map(|m| m.ids()).next() {
                    return Err(LldError::ConcurrencyUnsupported {
                        active: AruId::new(raw),
                    });
                }
                let ts = self.tick();
                let id = AruId::new(self.maps.next_aru_raw.fetch_add(1, Ordering::Relaxed));
                let span = self.obs.aru_begin(id.get(), ts.get());
                let slot = slots.get_mut(self.maps.shard_of(id.get()));
                slot.expect("all slots held").begin(id, span);
                id
            }
            ConcurrencyMode::Concurrent => {
                let ts = self.tick();
                let id = AruId::new(self.maps.next_aru_raw.fetch_add(1, Ordering::Relaxed));
                let span = self.obs.aru_begin(id.get(), ts.get());
                self.maps.lock_aru(id.get()).begin(id, span);
                id
            }
        };
        self.stats.arus_begun.inc();
        Ok(id)
    }

    /// Allocates a new list.
    ///
    /// Allocation always happens in the committed state, even inside an
    /// ARU, so concurrent ARUs can never receive the same identifier.
    /// The owning shard is chosen round-robin, spreading independent
    /// lists (and the blocks later allocated on them, which share the
    /// list's shard) across the mapping-layer partitions.
    ///
    /// # Errors
    ///
    /// [`LldError::UnknownAru`] for a dead context;
    /// [`LldError::DiskFull`] at the allocation limit.
    pub fn new_list(&self, ctx: Ctx) -> Result<ListId> {
        self.cleaner_gate();
        let shard = self.maps.pick_list_shard();
        if self.scoped_ok() {
            let res = self.with_mutation_at(self.ctx_aru_set(ctx), 1u64 << shard, |m| {
                m.new_list_op(ctx, shard)
            });
            self.after_session(res.is_ok());
            res
        } else {
            self.with_mutation(|m| m.new_list_op(ctx, shard))
        }
    }

    /// Deletes `list` together with any blocks still on it.
    ///
    /// Deleting the list directly — rather than first deallocating every
    /// block — avoids the per-block predecessor searches; this is the
    /// improved deletion policy of the paper's "new, delete"
    /// configuration. The walk can reach blocks on any shard, so the
    /// operation runs in a full session.
    ///
    /// # Errors
    ///
    /// [`LldError::ListNotAllocated`] if the list is not visible in the
    /// operation's state.
    pub fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
        self.with_mutation(|m| m.delete_list_op(ctx, list))
    }

    /// Allocates a new block on `list` at `pos`.
    ///
    /// The identifier allocation is committed immediately (even inside
    /// an ARU); the insertion into the list belongs to the operation's
    /// stream. Other streams therefore see the block as allocated but on
    /// no list until the ARU commits (§3.3). The block id is allocated
    /// from the *list's* shard, so building a list stays a single-shard
    /// operation.
    ///
    /// # Errors
    ///
    /// [`LldError::ListNotAllocated`] /
    /// [`LldError::PredecessorNotOnList`] if the insertion target is
    /// invalid in the operation's state; [`LldError::DiskFull`] at the
    /// allocation limit.
    pub fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        self.cleaner_gate();
        if self.scoped_ok() {
            let mut set = self.maps.bit_of(list.get());
            if let Position::After(p) = pos {
                set |= self.maps.bit_of(p.get());
            }
            let res = self.with_mutation_at(self.ctx_aru_set(ctx), set, |m| {
                m.new_block_op(ctx, list, pos)
            });
            self.after_session(res.is_ok());
            res
        } else {
            self.with_mutation(|m| m.new_block_op(ctx, list, pos))
        }
    }

    /// Removes `block` from its list and deallocates it.
    ///
    /// The predecessor search walks the whole list, which can reach any
    /// shard, so the operation runs in a full session.
    ///
    /// # Errors
    ///
    /// [`LldError::BlockNotAllocated`] if the block is not visible in
    /// the operation's state.
    pub fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
        self.with_mutation(|m| m.delete_block_op(ctx, block))
    }

    /// Writes one block of data.
    ///
    /// Inside a concurrent ARU the data is buffered in the ARU's shadow
    /// state and enters the segment stream at commit; otherwise it is
    /// appended to the current segment immediately. Either way the
    /// operation touches only the block's shard (plus the ARU's slot),
    /// so writers on disjoint shards proceed in parallel.
    ///
    /// # Errors
    ///
    /// [`LldError::WrongBlockLength`] if `data` is not exactly one
    /// block; [`LldError::BlockNotAllocated`] if the block is not
    /// visible in the operation's state.
    pub fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        if data.len() != self.layout.block_size {
            return Err(LldError::WrongBlockLength {
                got: data.len(),
                expected: self.layout.block_size,
            });
        }
        self.cleaner_gate();
        let timer = self.obs.timer();
        let res = if self.scoped_ok() {
            let r =
                self.with_mutation_at(self.ctx_aru_set(ctx), self.maps.bit_of(block.get()), |m| {
                    m.write_op(ctx, block, data)
                });
            self.after_session(r.is_ok());
            r
        } else {
            self.with_mutation(|m| m.write_op(ctx, block, data))
        };
        if res.is_ok() {
            self.obs.write_done(timer);
        }
        res
    }

    /// Reads one block of data into `buf`.
    ///
    /// What the read sees is governed by the configured
    /// [`ReadVisibility`]; under the default option 3 a read inside an
    /// ARU sees that ARU's shadow state and nothing of other ARUs.
    /// A block that was allocated but never written reads as zeroes.
    ///
    /// Reads hold shared access to the one shard the block hashes to
    /// (plus the context ARU's slot), so reads of blocks on different
    /// shards never touch the same lock.
    ///
    /// # Errors
    ///
    /// [`LldError::WrongBlockLength`] if `buf` is not exactly one block;
    /// [`LldError::BlockNotAllocated`] if the block is not visible.
    pub fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.layout.block_size {
            return Err(LldError::WrongBlockLength {
                got: buf.len(),
                expected: self.layout.block_size,
            });
        }
        // Validate the context (and classify the stream) first.
        let timer = self.obs.timer();
        let aru_set = if self.visibility == ReadVisibility::AnyShadow {
            // Option 1 scans every shadow state.
            self.maps.all_set()
        } else {
            self.ctx_aru_set(ctx)
        };
        let mut view = self.read_view(aru_set, self.maps.bit_of(block.get()));
        let stream = self.stream_of(&mut view, ctx)?;
        self.tick();
        self.stats.reads.inc();

        let source = self.resolve_read(&view, stream, block)?;
        let res = match source {
            DataSource::ShadowBuf(aru) => {
                let data = &view.aru(aru.get()).expect("resolved above").shadow_data[&block];
                let sectors = (data.len() / SECTOR) as u32;
                zero_past_extent(buf, sectors).copy_from_slice(data);
                Ok(())
            }
            DataSource::Addr(addr) => self.read_block_data(addr, buf),
            DataSource::Zeros => {
                buf.fill(0);
                Ok(())
            }
        };
        if res.is_ok() {
            self.obs.read_done(timer);
        }
        res
    }

    fn resolve_read(
        &self,
        map: &MapView<'_>,
        stream: Stream,
        block: BlockId,
    ) -> Result<DataSource> {
        match self.visibility {
            ReadVisibility::OwnShadow => match stream {
                Stream::Shadow(aru) => self.resolve_shadow_chain(map, aru, block),
                Stream::Merged(_) => Self::resolve_committed(map, block),
            },
            ReadVisibility::Committed => Self::resolve_committed(map, block),
            ReadVisibility::AnyShadow => {
                // Most recent version across every shadow state and the
                // committed state (the view holds every ARU slot here).
                let mut best: Option<(Timestamp, DataSource, bool)> = None;
                for a in map.arus_held() {
                    if let Some(rec) = a.shadow.blocks.get(&block) {
                        let src = if a.shadow_data.contains_key(&block) {
                            DataSource::ShadowBuf(a.id)
                        } else {
                            match map.committed_view(block).and_then(|r| r.addr) {
                                Some(addr) => DataSource::Addr(addr),
                                None => DataSource::Zeros,
                            }
                        };
                        if best.as_ref().is_none_or(|(ts, _, _)| rec.ts > *ts) {
                            best = Some((rec.ts, src, rec.allocated));
                        }
                    }
                }
                if let Some(rec) = map.committed_view(block) {
                    if best.as_ref().is_none_or(|(ts, _, _)| rec.ts > *ts) {
                        let src = match rec.addr {
                            Some(addr) => DataSource::Addr(addr),
                            None => DataSource::Zeros,
                        };
                        best = Some((rec.ts, src, rec.allocated));
                    }
                }
                match best {
                    Some((_, src, true)) => Ok(src),
                    _ => Err(LldError::BlockNotAllocated(block)),
                }
            }
        }
    }

    fn resolve_shadow_chain(
        &self,
        map: &MapView<'_>,
        aru: AruId,
        block: BlockId,
    ) -> Result<DataSource> {
        let a = map.aru(aru.get()).expect("stream checked");
        if let Some(rec) = a.shadow.blocks.get(&block) {
            if !rec.allocated {
                return Err(LldError::BlockNotAllocated(block));
            }
            if a.shadow_data.contains_key(&block) {
                return Ok(DataSource::ShadowBuf(aru));
            }
            // The ARU touched the block's links but not its data: fall
            // through to the committed data.
            return match map.committed_view(block).and_then(|r| r.addr) {
                Some(addr) => Ok(DataSource::Addr(addr)),
                None => Ok(DataSource::Zeros),
            };
        }
        Self::resolve_committed(map, block)
    }

    fn resolve_committed(map: &MapView<'_>, block: BlockId) -> Result<DataSource> {
        let rec = map
            .committed_view(block)
            .filter(|r| r.allocated)
            .ok_or(LldError::BlockNotAllocated(block))?;
        Ok(match rec.addr {
            Some(addr) => DataSource::Addr(addr),
            None => DataSource::Zeros,
        })
    }

    /// Returns the blocks of `list` in order, as visible to `ctx` under
    /// the configured read visibility.
    ///
    /// Like [`read`](LldInner::read), holds only shared access — initially
    /// to the list's own shard. If the walk reaches a block on another
    /// shard, the view is dropped and re-acquired over all shards (one
    /// escalation at most, counted in `walk_escalations`).
    ///
    /// # Errors
    ///
    /// [`LldError::ListNotAllocated`] if the list is not visible.
    pub fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
        let any_shadow = self.visibility == ReadVisibility::AnyShadow;
        let aru_set = if any_shadow {
            self.maps.all_set()
        } else {
            self.ctx_aru_set(ctx)
        };
        let mut shard_set = if any_shadow {
            self.maps.all_set()
        } else {
            self.maps.bit_of(list.get())
        };
        loop {
            let mut view = self.read_view(aru_set, shard_set);
            let stream = self.stream_of(&mut view, ctx)?;
            let st = match (self.visibility, stream) {
                (ReadVisibility::OwnShadow, Stream::Shadow(aru)) => StateRef::Shadow(aru),
                (ReadVisibility::AnyShadow, _) => {
                    // Walk with most-recent-shadow resolution: approximate by
                    // preferring the shadow of whichever ARU most recently
                    // touched the list record.
                    let best = view
                        .arus_held()
                        .filter_map(|a| a.shadow.lists.get(&list).map(|r| (r.ts, a.id)))
                        .max_by_key(|(ts, _)| *ts);
                    match (best, view.committed_view(list)) {
                        (Some((sts, aru)), Some(c)) if sts > c.ts => StateRef::Shadow(aru),
                        (Some((_, _)), Some(_)) => StateRef::Committed,
                        (Some((_, aru)), None) => StateRef::Shadow(aru),
                        _ => StateRef::Committed,
                    }
                }
                _ => StateRef::Committed,
            };
            match view.walk_list(st, list, self.layout.max_blocks)? {
                WalkOutcome::Done { members, steps } => {
                    self.stats.list_walk_steps.add(steps);
                    return Ok(members);
                }
                WalkOutcome::NeedShard(_) => {
                    // The list crosses shards: re-acquire over all of
                    // them. A second escalation is impossible.
                    drop(view);
                    self.stats.walk_escalations.inc();
                    shard_set = self.maps.all_set();
                }
            }
        }
    }
}

impl<D: BlockDevice> Mutation<'_, D> {
    fn stream(&mut self, ctx: Ctx) -> Result<Stream> {
        self.lld.stream_of(&mut self.map, ctx)
    }

    fn new_list_op(&mut self, ctx: Ctx, shard: u32) -> Result<ListId> {
        self.stream(ctx)?;
        let ts = self.tick();
        let id = self.alloc(shard, ts)?;
        self.lld.stats.new_lists.inc();
        Ok(id)
    }

    fn delete_list_op(&mut self, ctx: Ctx, list: ListId) -> Result<()> {
        let stream = self.stream(ctx)?;
        let ts = self.tick();
        self.lld.stats.delete_lists.inc();
        match stream {
            Stream::Merged(tag) => {
                let members = self.walk_list(StateRef::Committed, list)?;
                // Room for the record first: a `DiskFull` on the roll
                // must find the tables as the log has them.
                let rec = Record::DeleteList { list, ts, aru: tag };
                self.ensure_room(rec.encoded_len(), 0)?;
                for &b in &members {
                    self.dealloc_block(StateRef::Committed, b, ts)?;
                }
                self.dealloc(StateRef::Committed, list, ts)?;
                self.emit_reserve(rec, 0)?;
                match tag {
                    None => {
                        self.release_ids(members);
                        self.release_ids([list]);
                    }
                    Some(aru) => {
                        let a = self.map.aru_mut(aru.get()).expect("stream checked");
                        a.pending_free_blocks.extend(members);
                        a.pending_free_lists.push(list);
                    }
                }
            }
            Stream::Shadow(aru) => {
                let st = StateRef::Shadow(aru);
                let members = self.walk_list(st, list)?;
                for &b in &members {
                    self.dealloc_block(st, b, ts)?;
                    self.map
                        .aru_mut(aru.get())
                        .expect("stream checked")
                        .shadow_data
                        .remove(&b);
                }
                self.dealloc(st, list, ts)?;
                self.map
                    .aru_mut(aru.get())
                    .expect("stream checked")
                    .link_log
                    .push(ListOp::DeleteList { list });
            }
        }
        Ok(())
    }

    fn new_block_op(&mut self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        let stream = self.stream(ctx)?;
        // Validate the insertion before allocating anything, so a failed
        // call leaves no trace.
        let target = match stream {
            Stream::Merged(_) => StateRef::Committed,
            Stream::Shadow(aru) => StateRef::Shadow(aru),
        };
        self.validate_insert(target, list, pos)?;

        let ts = self.tick();
        // The block id comes from the list's shard: the session already
        // holds it, and the list's members stay single-shard.
        let id = self.alloc(self.map.shard_of(list.get()), ts)?;
        self.lld.stats.new_blocks.inc();

        match stream {
            Stream::Merged(tag) => {
                self.insert_into_list(StateRef::Committed, list, id, pos, ts)?;
                self.emit(Record::Link {
                    list,
                    block: id,
                    pred: match pos {
                        Position::First => None,
                        Position::After(p) => Some(p),
                    },
                    ts,
                    aru: tag,
                })?;
            }
            Stream::Shadow(aru) => {
                self.insert_into_list(StateRef::Shadow(aru), list, id, pos, ts)?;
                self.map
                    .aru_mut(aru.get())
                    .expect("stream checked")
                    .link_log
                    .push(ListOp::Insert {
                        list,
                        block: id,
                        pred: match pos {
                            Position::First => None,
                            Position::After(p) => Some(p),
                        },
                    });
            }
        }
        Ok(id)
    }

    fn delete_block_op(&mut self, ctx: Ctx, block: BlockId) -> Result<()> {
        let stream = self.stream(ctx)?;
        let ts = self.tick();
        self.lld.stats.delete_blocks.inc();
        match stream {
            Stream::Merged(tag) => {
                self.map
                    .view(StateRef::Committed, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                // Room for the record first, as in `delete_list_op`.
                let rec = Record::DeleteBlock {
                    block,
                    ts,
                    aru: tag,
                };
                self.ensure_room(rec.encoded_len(), 0)?;
                self.unlink_block(StateRef::Committed, block, ts)?;
                self.dealloc_block(StateRef::Committed, block, ts)?;
                self.emit_reserve(rec, 0)?;
                match tag {
                    None => {
                        self.release_ids([block]);
                    }
                    Some(aru) => self
                        .map
                        .aru_mut(aru.get())
                        .expect("stream checked")
                        .pending_free_blocks
                        .push(block),
                }
            }
            Stream::Shadow(aru) => {
                let st = StateRef::Shadow(aru);
                self.map
                    .view(st, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                self.unlink_block(st, block, ts)?;
                self.dealloc_block(st, block, ts)?;
                let a = self.map.aru_mut(aru.get()).expect("stream checked");
                a.shadow_data.remove(&block);
                a.link_log.push(ListOp::DeleteBlock { block });
            }
        }
        Ok(())
    }

    fn write_op(&mut self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        let stream = self.stream(ctx)?;
        let ts = self.tick();
        self.lld.stats.writes.inc();
        match stream {
            Stream::Merged(tag) => {
                self.map
                    .view(StateRef::Committed, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                self.place_block_data(block, extent(data), ts, tag, 1)?;
            }
            Stream::Shadow(aru) => {
                let st = StateRef::Shadow(aru);
                self.map
                    .view(st, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                {
                    let bm = self.rec_mut(st, block)?;
                    bm.ts = ts;
                }
                // Buffered as its extent, in the buffer of the version it
                // replaces if there is one.
                let stored = extent(data);
                let a = self.map.aru_mut(aru.get()).expect("stream checked");
                let buffered = a.shadow_data.entry(block).or_default();
                buffered.clear();
                buffered.extend_from_slice(stored);
            }
        }
        Ok(())
    }
}
