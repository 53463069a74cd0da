//! `EndARU` and `AbortARU`: the shadow → committed transition.
//!
//! Committing a concurrent ARU (§4 of the paper) proceeds in three
//! steps: the buffered data blocks enter the segment stream (tagged with
//! the ARU), the list-operation log is re-executed in the committed
//! state generating the real segment-summary entries, and finally the
//! commit record is emitted. A crash anywhere before the commit record
//! reaches disk recovers to "nothing happened".
//!
//! Because ARUs provide failure atomicity but *not* concurrency control,
//! a logged operation can fail to re-apply if a concurrent stream
//! changed the committed state underneath (e.g. deleted the insertion
//! predecessor). `EndARU` therefore validates the whole log against a
//! scratch shadow state first and reports
//! [`LldError::CommitConflict`] — aborting the ARU — without touching
//! the committed state.
//!
//! A commit locks only the shards its ARU touched: `EndARU` first
//! inspects the ARU under its slot lock, computes the shard set of every
//! buffered write and logged insertion, and — when the log is
//! insert-only and free segments are plentiful — commits in a *scoped*
//! session over exactly those shards. ARUs on disjoint shards therefore
//! commit fully in parallel. Logs containing deletions (whose unlink
//! walks may reach any shard) and commits under space pressure (which
//! may need the reserve pass) fall back to a full session.

use crate::aru::{Aru, ListOp, WriteTag};
use crate::config::ConcurrencyMode;
use crate::dedup::{Reservation, TaggedCommit, WriteIdOutcome};
use crate::error::{LldError, Result};
use crate::lld::{LldInner, Mutation, StateRef};
use crate::obs::{ActiveSpan, TraceEvent};
use crate::shard::SCRATCH_ARU_RAW;
use crate::state::MapId;
use crate::summary::{Record, WRITE_REC_LEN};
use crate::types::{AruId, BlockId, ListId, Position, Timestamp};
use ld_disk::BlockDevice;
use std::sync::atomic::Ordering;

impl<D: BlockDevice> LldInner<D> {
    /// Commits an atomic recovery unit: all its operations become part
    /// of the committed state atomically, and will become persistent
    /// together (the commit record serializes the ARU at this point in
    /// the merged stream).
    ///
    /// Durability remains lazy: the unit survives a crash once the
    /// segment holding its commit record reaches disk (next
    /// [`flush`](LldInner::flush) / segment roll). Use
    /// [`end_aru_sync`](LldInner::end_aru_sync) to commit *and* wait for
    /// durability.
    ///
    /// # Errors
    ///
    /// * [`LldError::UnknownAru`] — the ARU is not active.
    /// * [`LldError::CommitConflict`] — a logged operation no longer
    ///   applies to the committed state (concurrent interference); the
    ///   ARU has been aborted and the committed state is untouched.
    /// * Device errors / [`LldError::DiskFull`] — if these interrupt a
    ///   commit, the in-memory committed state may hold part of the
    ///   ARU's effects, but the on-disk log can never commit partially
    ///   (no commit record was written); flush-and-recover yields a
    ///   consistent state.
    pub fn end_aru(&self, id: AruId) -> Result<()> {
        let timer = self.obs.timer();
        let raw = id.get();
        let (ts, span) = match self.concurrency {
            ConcurrencyMode::Sequential => self.with_mutation(|m| {
                // "Old" LLD: operations already applied to the committed
                // state (tagged); only the commit record is needed.
                let Some(mut aru) = m.map.aru_remove(raw) else {
                    return Err(LldError::UnknownAru(id));
                };
                let ts = m.tick();
                m.emit(Record::Commit { aru: id, ts })?;
                m.release_ids(std::mem::take(&mut aru.pending_free_blocks));
                m.release_ids(std::mem::take(&mut aru.pending_free_lists));
                m.lld.stats.arus_committed.inc();
                let span = aru.span;
                m.map.retire(aru);
                Ok((ts.get(), span))
            })?,
            ConcurrencyMode::Concurrent => self.end_aru_concurrent(id)?,
        };
        self.obs.aru_commit(raw, &span, ts, timer);
        Ok(())
    }

    /// Commits a concurrent ARU: its commit time and its counters.
    fn end_aru_concurrent(&self, id: AruId) -> Result<(u64, ActiveSpan)> {
        let raw = id.get();
        // Plan the session under the ARU's slot lock alone: which shards
        // does the commit touch, and is it insert-only? A scoped commit
        // keeps the slot for its session.
        let slot = self.maps.lock_arus(self.maps.bit_of(raw));
        let Some(aru) = slot.get(self.maps.shard_of(raw)).and_then(|m| m.get(raw)) else {
            return Err(LldError::UnknownAru(id));
        };
        let plan = self
            .scoped_commit_shards(aru)
            .filter(|_| self.commit_headroom_ok(aru.shadow_data.len() as u64));
        let res = match plan {
            Some(shards) => {
                let r = self.with_mutation_over(slot, shards, |m| m.commit_concurrent(id));
                self.after_session(r.is_ok());
                r
            }
            None => {
                drop(slot);
                self.stats.commit_full_fallbacks.inc();
                self.with_mutation(|m| {
                    // The slot lock was dropped between planning and the
                    // session: the ARU may have been ended elsewhere.
                    if !m.map.aru_contains(raw) {
                        return Err(LldError::UnknownAru(id));
                    }
                    m.commit_concurrent(id)
                })
            }
        };
        res.map(|span| (self.now(), span))
    }

    /// The shard set a scoped commit of `aru` needs, or `None` if the
    /// log contains deletions (whose unlink walks can reach any shard)
    /// and must run in a full session.
    fn scoped_commit_shards(&self, aru: &Aru) -> Option<u64> {
        let mut set = 0u64;
        for op in &aru.link_log {
            match *op {
                ListOp::Insert { list, block, pred } => {
                    set |= self.maps.bit_of(list.get()) | self.maps.bit_of(block.get());
                    if let Some(p) = pred {
                        set |= self.maps.bit_of(p.get());
                    }
                }
                ListOp::DeleteBlock { .. } | ListOp::DeleteList { .. } => return None,
            }
        }
        for b in aru.shadow_data.keys() {
            set |= self.maps.bit_of(b.get());
        }
        for b in aru.shadow.blocks.keys() {
            set |= self.maps.bit_of(b.get());
        }
        for l in aru.shadow.lists.keys() {
            set |= self.maps.bit_of(l.get());
        }
        Some(set)
    }

    /// Whether a scoped commit that will stream `buffered` data blocks
    /// has enough free segments to proceed without the reserve pass
    /// (which only a full session may run).
    fn commit_headroom_ok(&self, buffered: u64) -> bool {
        if !self.cleaner_cfg.enabled {
            return true;
        }
        let slots = u64::from(self.layout.slots_per_segment()).max(1);
        let needed = buffered / slots + 1;
        self.free_slots_hint.load(Ordering::Relaxed)
            > u64::from(self.cleaner_cfg.min_free_segments) + needed
    }

    /// Commits an ARU tagged with a `(client, generation, write_id)`
    /// idempotency key: the networked exactly-once commit (see
    /// docs/PROTOCOL.md).
    ///
    /// If the key already has a recorded outcome — this is a retry of a
    /// commit that succeeded before a timeout or crash — the presented
    /// ARU is aborted and the recorded outcome is returned with
    /// `deduped = true`; nothing re-executes. If another session is
    /// committing the same key right now, this call waits for its
    /// outcome. Otherwise the ARU commits normally with a
    /// [`Record::WriteId`] journaled inside it, so recovery rebuilds
    /// the dedup entry if and only if the commit survived.
    ///
    /// Durability remains lazy, exactly as for
    /// [`end_aru`](LldInner::end_aru); callers wanting a durable
    /// exactly-once acknowledgement follow with
    /// [`flush`](LldInner::flush).
    ///
    /// # Errors
    ///
    /// * [`LldError::Config`] — zero `client`/`write_id`, or the disk
    ///   is in sequential-ARU mode (a dedup hit must abort the
    ///   presented retry ARU, which sequential mode cannot do).
    /// * Everything [`end_aru`](LldInner::end_aru) can return. After an
    ///   error the key is unreserved, so a retry re-executes.
    pub fn end_aru_tagged(
        &self,
        id: AruId,
        client: u64,
        generation: u64,
        write_id: u64,
    ) -> Result<TaggedCommit> {
        if client == 0 || write_id == 0 {
            return Err(LldError::Config(
                "client and write_id must be non-zero".into(),
            ));
        }
        if self.concurrency == ConcurrencyMode::Sequential {
            return Err(LldError::Config(
                "write-id tagged commits require concurrent ARU mode".into(),
            ));
        }
        loop {
            let mut cache = self.dedup.lock();
            match cache.reserve(client, write_id, generation) {
                Reservation::Duplicate(outcome) => {
                    drop(cache);
                    match self.abort_aru(id) {
                        Ok(()) | Err(LldError::UnknownAru(_)) => {}
                        Err(e) => return Err(e),
                    }
                    self.stats.writeids_deduped.inc();
                    return Ok(TaggedCommit {
                        outcome,
                        deduped: true,
                    });
                }
                Reservation::InFlight => {
                    drop(self.dedup_cv.wait(cache));
                }
                Reservation::Execute => break,
            }
        }
        // The key is reserved: tag the ARU so the commit journals the
        // write-id record and records the outcome, then commit.
        {
            let mut slot = self.maps.lock_aru(id.get());
            match slot.get_mut(id.get()) {
                Some(aru) => {
                    aru.write_tag = Some(WriteTag {
                        client,
                        generation,
                        write_id,
                    });
                }
                None => {
                    drop(slot);
                    self.dedup.lock().release(client, write_id);
                    self.dedup_cv.notify_all();
                    return Err(LldError::UnknownAru(id));
                }
            }
        }
        match self.end_aru(id) {
            Ok(()) => {
                let outcome = self.dedup.lock().lookup(client, write_id);
                self.dedup_cv.notify_all();
                let outcome = outcome.ok_or_else(|| {
                    LldError::Corrupt("tagged commit recorded no dedup outcome".into())
                })?;
                Ok(TaggedCommit {
                    outcome,
                    deduped: false,
                })
            }
            Err(e) => {
                self.dedup.lock().release(client, write_id);
                self.dedup_cv.notify_all();
                Err(e)
            }
        }
    }

    /// Handles a network client's `Hello`: records the client
    /// incarnation and evicts dedup outcomes of its older generations
    /// (the client promises no retry from them is outstanding).
    /// Returns the number of entries evicted.
    ///
    /// # Errors
    ///
    /// [`LldError::Config`] for a zero client id or a generation
    /// regression (a stale client instance).
    pub fn client_hello(&self, client: u64, generation: u64) -> Result<usize> {
        if client == 0 {
            return Err(LldError::Config("client id must be non-zero".into()));
        }
        self.dedup.lock().observe_generation(client, generation)
    }

    /// Looks up the recorded outcome of a tagged commit, if any. A
    /// reconnecting client calls this before replaying a transaction
    /// whose acknowledgement it may have missed.
    pub fn write_id_lookup(&self, client: u64, write_id: u64) -> Option<WriteIdOutcome> {
        self.dedup.lock().lookup(client, write_id)
    }

    /// Number of recorded write-id outcomes currently in the dedup
    /// cache (bounded by [`LldConfig::dedup_capacity`]).
    ///
    /// [`LldConfig::dedup_capacity`]: crate::LldConfig::dedup_capacity
    pub fn write_id_count(&self) -> usize {
        self.dedup.lock().len()
    }

    /// The configured bound on recorded write-id outcomes (see
    /// [`LldConfig::dedup_capacity`]).
    ///
    /// [`LldConfig::dedup_capacity`]: crate::LldConfig::dedup_capacity
    pub fn write_id_capacity(&self) -> usize {
        self.dedup.lock().capacity()
    }

    /// Aborts an atomic recovery unit, discarding its shadow state.
    ///
    /// This is an extension beyond the paper (whose ARUs are only undone
    /// implicitly, by failure); it falls out of the shadow-state design
    /// for free. Touches nothing but the ARU's own slot.
    ///
    /// # Errors
    ///
    /// [`LldError::UnknownAru`] for a dead ARU, and
    /// [`LldError::AbortUnsupported`] in sequential mode, where
    /// operations apply directly to the committed state and cannot be
    /// rolled back at run time.
    pub fn abort_aru(&self, id: AruId) -> Result<()> {
        let mut slot = self.maps.lock_aru(id.get());
        if slot.get(id.get()).is_none() {
            return Err(LldError::UnknownAru(id));
        }
        if self.concurrency == ConcurrencyMode::Sequential {
            return Err(LldError::AbortUnsupported);
        }
        let aru = slot.remove(id.get()).expect("checked above");
        self.stats.arus_aborted.inc();
        (self.obs).event(self.now(), TraceEvent::AruAbort { aru: id.get() });
        slot.retire(aru);
        Ok(())
    }
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// Returns `ids` to their stripes' free sets: they become reusable.
    pub(crate) fn release_ids<I: MapId>(&mut self, ids: impl IntoIterator<Item = I>) {
        for id in ids {
            I::stripe(self.map.owner_mut(id)).free.insert(id.raw());
        }
    }

    /// Commits concurrent ARU `id` in this session, returning its
    /// counters; a conflict aborts it and records that here.
    fn commit_concurrent(&mut self, id: AruId) -> Result<ActiveSpan> {
        let raw = id.get();

        // ---- Validation pass -------------------------------------------------
        // (a) every buffered data block must still be allocated in the
        //     committed state;
        // (b) the list-operation log must re-apply cleanly, checked
        //     against a scratch shadow state so the committed state is
        //     untouched on failure. The scratch ARU lives outside the
        //     slot table (sentinel id, a spare descriptor of the held
        //     slot), so validation needs no extra locks. The log leaves
        //     the ARU for the check and returns; an empty one is not
        //     checked.
        let mut conflict: Option<String> = None;
        let aru = self.map.aru(raw).expect("caller checked");
        for b in aru.shadow_data.keys() {
            if self.map.committed_view(*b).is_none_or(|r| !r.allocated) {
                conflict = Some(format!(
                    "buffered write to {b}, which is no longer allocated"
                ));
                break;
            }
        }
        if conflict.is_none() && !aru.link_log.is_empty() {
            let aru = self.map.aru_mut(raw).expect("caller checked");
            let ops = std::mem::take(&mut aru.link_log);
            let scratch = AruId::new(SCRATCH_ARU_RAW);
            self.map.begin_scratch(raw);
            let mut fb = Vec::new();
            let mut fl = Vec::new();
            for op in &ops {
                if let Err(e) = self.apply_list_op(
                    StateRef::Shadow(scratch),
                    op,
                    Timestamp::ZERO,
                    &mut fb,
                    &mut fl,
                ) {
                    conflict = Some(e.to_string());
                    break;
                }
            }
            self.map.end_scratch(raw);
            self.map.aru_mut(raw).expect("caller checked").link_log = ops;
        }
        if let Some(detail) = conflict {
            let aru = self.map.aru_remove(raw).expect("caller checked");
            (self.lld.obs).event(self.lld.now(), TraceEvent::AruConflict { aru: raw });
            self.map.retire(aru);
            self.lld.stats.commit_conflicts.inc();
            self.lld.stats.arus_aborted.inc();
            return Err(LldError::CommitConflict { aru: id, detail });
        }

        // ---- Real pass --------------------------------------------------------
        let mut aru = self.map.aru_remove(raw).expect("validated above");
        let commit_ts = self.tick();

        // Shard-spread observability: how many mapping shards did this
        // unit's effects touch?
        let mut touched = 0u64;
        for b in aru.shadow_data.keys() {
            touched |= self.lld.maps.bit_of(b.get());
        }
        for op in &aru.link_log {
            match *op {
                ListOp::Insert { list, block, pred } => {
                    touched |= self.lld.maps.bit_of(list.get()) | self.lld.maps.bit_of(block.get());
                    if let Some(p) = pred {
                        touched |= self.lld.maps.bit_of(p.get());
                    }
                }
                ListOp::DeleteBlock { block } => touched |= self.lld.maps.bit_of(block.get()),
                ListOp::DeleteList { list } => touched |= self.lld.maps.bit_of(list.get()),
            }
        }
        let spread = u64::from(touched.count_ones());
        if spread > 1 {
            self.lld.stats.cross_shard_commits.inc();
        } else {
            self.lld.stats.single_shard_commits.inc();
        }
        self.lld.obs.shard_spread(spread);

        // I5 (docs/INVARIANTS.md): the unit's writes may take the place,
        // or free the sectors, of versions still in the open segment only
        // if its commit record lands there too. Checked once, for the
        // whole unit and to the byte, as if every write appended; a unit
        // that does not fit appends and rolls where it will.
        let commit = Record::Commit {
            aru: id,
            ts: commit_ts,
        };
        let links = aru.link_log.iter().map(|op| op_record(op, id, commit_ts));
        let write_id = aru.write_tag.map(|tag| write_id_record(tag, id, commit_ts));
        let writes = (aru.shadow_data.values())
            .map(|stored| stored.len() + WRITE_REC_LEN)
            .sum::<usize>();
        let bytes = writes
            + links
                .chain(write_id)
                .map(|r| r.encoded_len())
                .sum::<usize>()
            + commit.encoded_len();
        let open = self.log().builder.as_ref();
        self.unit_ends_in = open.filter(|b| b.fits(bytes)).map(|b| b.seq());
        let mut freed_blocks = Vec::new();
        let mut freed_lists = Vec::new();
        let logged = self.log_unit(&aru, commit_ts, &mut freed_blocks, &mut freed_lists);
        let ends_in = self.unit_ends_in.take();
        logged?;
        debug_assert!(
            ends_in.is_none() || self.log().builder.as_ref().map(|b| b.seq()) == ends_in,
            "a roll between an absorbed write and its commit record"
        );

        // Identifiers deallocated by the ARU become reusable only now,
        // after the commit record precedes any reallocation in the log.
        // (Scoped commits are insert-only and free nothing, so the
        // per-shard inserts below never reach an un-held shard.)
        self.release_ids(freed_blocks);
        self.release_ids(freed_lists);
        self.release_ids(std::mem::take(&mut aru.pending_free_blocks));
        self.release_ids(std::mem::take(&mut aru.pending_free_lists));
        self.lld.stats.arus_committed.inc();

        // Record the outcome while the session is still held: a
        // concurrent checkpoint (which takes a full session) can never
        // observe the journaled write-id without its cache entry.
        if let Some(tag) = aru.write_tag {
            self.lld
                .dedup
                .lock()
                .complete(tag.client, tag.write_id, tag.generation, commit_ts);
            self.lld.stats.writeids_recorded.inc();
        }
        let span = aru.span;
        self.map.retire(aru);
        Ok(span)
    }

    /// The real pass's three steps: the unit's records enter the log,
    /// its commit record last, and its effects the committed state.
    fn log_unit(
        &mut self,
        aru: &Aru,
        commit_ts: Timestamp,
        freed_blocks: &mut Vec<BlockId>,
        freed_lists: &mut Vec<ListId>,
    ) -> Result<()> {
        let id = aru.id;
        // 1. Buffered block data enters the segment stream, tagged.
        for (b, stored) in &aru.shadow_data {
            self.place_block_data(*b, stored, commit_ts, Some(id), 1)?;
            self.lld.stats.shadow_records_merged.inc();
        }

        // 2. Re-execute the list-operation log in the committed state,
        //    generating the real summary entries.
        for op in &aru.link_log {
            self.apply_list_op(
                StateRef::Committed,
                op,
                commit_ts,
                freed_blocks,
                freed_lists,
            )
            .map_err(|e| LldError::Corrupt(format!("validated commit failed to apply: {e}")))?;
            self.emit(op_record(op, id, commit_ts))?;
            self.lld.stats.shadow_records_merged.inc();
        }

        // 2b. A networked commit journals its idempotency key inside
        //     the unit: the dedup entry becomes recoverable exactly
        //     when the unit's effects do.
        if let Some(tag) = aru.write_tag {
            self.emit(write_id_record(tag, id, commit_ts))?;
        }

        // 3. The commit record makes the whole unit recoverable.
        self.emit(Record::Commit {
            aru: id,
            ts: commit_ts,
        })
    }

    /// Applies one logged list operation to state `st`, collecting
    /// identifiers this made free. Used for commit validation (scratch
    /// shadow state), commit replay (committed state), and recovery
    /// replay (committed state, through
    /// [`replay_record`](Self::replay_record)).
    pub(crate) fn apply_list_op(
        &mut self,
        st: StateRef,
        op: &ListOp,
        ts: Timestamp,
        freed_blocks: &mut Vec<BlockId>,
        freed_lists: &mut Vec<ListId>,
    ) -> Result<()> {
        match *op {
            ListOp::Insert { list, block, pred } => {
                let rec = self
                    .map
                    .view(st, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                if let Some(on) = rec.list {
                    return Err(LldError::AlreadyOnList { block, list: on });
                }
                let pos = match pred {
                    None => Position::First,
                    Some(p) => Position::After(p),
                };
                self.insert_into_list(st, list, block, pos, ts)
            }
            ListOp::DeleteBlock { block } => {
                self.map
                    .view(st, block)
                    .filter(|r| r.allocated)
                    .ok_or(LldError::BlockNotAllocated(block))?;
                self.unlink_block(st, block, ts)?;
                self.dealloc_block(st, block, ts)?;
                freed_blocks.push(block);
                Ok(())
            }
            ListOp::DeleteList { list } => {
                let members = self.walk_list(st, list)?;
                for &b in &members {
                    self.dealloc_block(st, b, ts)?;
                }
                self.dealloc(st, list, ts)?;
                freed_blocks.extend(members);
                freed_lists.push(list);
                Ok(())
            }
        }
    }
}

/// The summary record of one logged list operation of unit `aru`.
fn op_record(op: &ListOp, aru: AruId, ts: Timestamp) -> Record {
    let aru = Some(aru);
    match *op {
        ListOp::Insert { list, block, pred } => Record::Link {
            list,
            block,
            pred,
            ts,
            aru,
        },
        ListOp::DeleteBlock { block } => Record::DeleteBlock { block, ts, aru },
        ListOp::DeleteList { list } => Record::DeleteList { list, ts, aru },
    }
}

fn write_id_record(tag: WriteTag, aru: AruId, ts: Timestamp) -> Record {
    Record::WriteId {
        aru,
        client: tag.client,
        generation: tag.generation,
        write_id: tag.write_id,
        ts,
    }
}
