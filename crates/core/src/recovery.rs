//! Crash recovery: rebuild the tables from checkpoint + log suffix.
//!
//! Recovery is always to the most recent *persistent* state (§3.1): the
//! newest valid checkpoint is loaded, the segments sealed after it are
//! replayed in log order, and records tagged with an ARU take effect
//! only at that ARU's commit record — ARUs whose commit record never
//! reached disk are discarded wholesale, and blocks they allocated
//! (allocation is always committed) are reclaimed by the consistency
//! check.
//!
//! The shard count is a runtime knob, not an on-disk property: the
//! checkpoint stores global allocator floors, and
//! [`Maps::from_tables`] redistributes the recovered records and
//! re-stripes the allocators for whatever shard count this process
//! runs with.
//!
//! # The pipeline
//!
//! Recovery is one straight line on the calling thread, in four phases,
//! each a traced stage (`recovery_snapshot_load` / `recovery_scan` /
//! `recovery_replay` / `recovery_finalize`) with its wall time in the
//! [`RecoveryReport`]:
//!
//! 1. **Snapshot load** — the newest valid checkpoint's per-shard
//!    slabs are CRC-checked, decoded and inserted into one
//!    [`ReplayState`].
//! 2. **Scan** — the log's chain is walked from the checkpoint's
//!    [`ChainHead`] (block 0 of slot 0, link 0 without one): a segment
//!    is accepted iff header CRC, sequence number and `prev_link` fit,
//!    and the first miss ends the log. A hop inside a slot costs one
//!    read (the summary's read brings the next header with it), a hop
//!    to another slot two, whatever the device size; only a [`NO_SLOT`]
//!    hop probes every slot.
//! 3. **Replay** — [`drive_chain`] walks the chain in log order,
//!    resolves ARU commit points, and each effective record is applied
//!    to the replay state.
//! 4. **Finalize** — the replay state is drained into one table,
//!    live-segment accounting is computed from the final block
//!    addresses (slots the checkpoint covers are never read), and the
//!    maps are re-sharded for this process's shard count.

use crate::checkpoint::{self, CkptHeaderInfo, CkptSlots};
use crate::cleanerd::Cleanerd;
use crate::config::{LldConfig, MAX_MAP_SHARDS};
use crate::error::{LldError, Result};
use crate::gc::GroupCommit;
use crate::layout::Layout;
use crate::lld::{Lld, LldInner, LogState};
use crate::obs::{recovery_trace, Obs, Stage};
use crate::segment::{
    parse_header, read_header, read_summary, valid_base, ChainHead, SegmentHeader, NO_SLOT,
};
use crate::shard::Maps;
use crate::state::{BlockRecord, ListRecord, StateOverlay, Tables};
use crate::summary::Record;
use crate::types::{BlockId, ListId, PhysAddr, Position, SegmentId, Timestamp};
use ld_disk::{BlockDevice, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::time::Instant;

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from (0 =
    /// none; the whole log was replayed).
    pub checkpoint_seq: u64,
    /// Positions (block 0 of a slot, or the block behind a segment)
    /// whose header the scan phase examined.
    pub segments_scanned: u32,
    /// Valid segments replayed (sequence numbers above the checkpoint).
    pub segments_replayed: u32,
    /// 1 if the log ends at a header that links on but whose summary
    /// fails its checksum: a segment write torn by the crash, treated
    /// as never written.
    pub torn_tails_detected: u32,
    /// Summary records applied (committed effects).
    pub records_applied: u64,
    /// ARUs whose commit record was found (their records were applied).
    pub committed_arus: u64,
    /// ARUs discarded because their commit record never reached disk.
    pub discarded_arus: u64,
    /// Records belonging to discarded ARUs.
    pub discarded_records: u64,
    /// Orphaned blocks freed by the post-recovery consistency check.
    pub orphan_blocks_freed: usize,
    /// Snapshot slabs loaded from the chosen checkpoint (0 = no
    /// checkpoint; the shard count the image was checkpointed at).
    pub snap_shards: u32,
    /// Threads recovery ran on: always 1 (the caller's).
    pub threads_used: u32,
    /// Wall time of the snapshot-load phase.
    pub snapshot_load_ns: u64,
    /// Wall time of the segment-scan phase.
    pub scan_ns: u64,
    /// Wall time of the suffix-replay phase.
    pub replay_ns: u64,
    /// Wall time of the finalize phase (re-shard, consistency check).
    pub finalize_ns: u64,
}

// ----------------------------------------------------------------------
// Replay state
// ----------------------------------------------------------------------

/// Identifiers finally freed by replay (deletions not later
/// re-allocated); the allocator free sets are rebuilt from these at
/// finalize.
#[derive(Debug, Default)]
struct FreedSets {
    blocks: BTreeSet<u64>,
    lists: BTreeSet<u64>,
}

impl FreedSets {
    /// Folds one emitted record (and, for `DeleteList`, the member
    /// blocks its application freed) into the freed sets, in replay
    /// order.
    fn note(&mut self, rec: &Record, freed_members: Vec<u64>) {
        match *rec {
            Record::NewBlock { block, .. } => {
                self.blocks.remove(&block.get());
            }
            Record::NewList { list, .. } => {
                self.lists.remove(&list.get());
            }
            Record::DeleteBlock { block, .. } => {
                self.blocks.insert(block.get());
            }
            Record::DeleteList { list, .. } => {
                self.blocks.extend(freed_members);
                self.lists.insert(list.get());
            }
            _ => {}
        }
    }
}

/// The state recovery rebuilds: the checkpoint snapshot as the
/// persistent level, replayed records in the committed overlay above
/// it. Records apply with the exact semantics of the mutation-session
/// helpers (`block_mut` COW, `insert_into_list`, `unlink_block`,
/// `dealloc_*`) — minus the live-segment and allocator bookkeeping,
/// which finalize reconstructs from the final state in one pass.
#[derive(Debug, Default)]
struct ReplayState {
    persistent: Tables,
    committed: StateOverlay,
    /// List-walk steps taken during replay (charged to
    /// `list_walk_steps` at finalize).
    walk_steps: u64,
    max_blocks: u64,
}

impl ReplayState {
    fn view_block(&self, id: BlockId) -> Option<&BlockRecord> {
        self.committed
            .blocks
            .get(&id)
            .or_else(|| self.persistent.blocks.get(&id))
    }

    fn view_list(&self, id: ListId) -> Option<&ListRecord> {
        self.committed
            .lists
            .get(&id)
            .or_else(|| self.persistent.lists.get(&id))
    }

    /// Copy-on-write access to a block record in the committed state
    /// (see `Mutation::block_mut`).
    fn block_mut(&mut self, id: BlockId) -> Result<&mut BlockRecord> {
        if !self.committed.blocks.contains_key(&id) {
            let base = self
                .persistent
                .blocks
                .get(&id)
                .cloned()
                .ok_or(LldError::BlockNotAllocated(id))?;
            self.committed.blocks.insert(id, base);
        }
        Ok(self.committed.blocks.get_mut(&id).expect("just inserted"))
    }

    fn list_mut(&mut self, id: ListId) -> Result<&mut ListRecord> {
        if !self.committed.lists.contains_key(&id) {
            let base = self
                .persistent
                .lists
                .get(&id)
                .cloned()
                .ok_or(LldError::ListNotAllocated(id))?;
            self.committed.lists.insert(id, base);
        }
        Ok(self.committed.lists.get_mut(&id).expect("just inserted"))
    }

    fn validate_insert(&self, list: ListId, pos: Position) -> Result<()> {
        self.view_list(list)
            .filter(|r| r.allocated)
            .ok_or(LldError::ListNotAllocated(list))?;
        if let Position::After(pred) = pos {
            let p = self
                .view_block(pred)
                .filter(|r| r.allocated)
                .ok_or(LldError::BlockNotAllocated(pred))?;
            if p.list != Some(list) {
                return Err(LldError::PredecessorNotOnList { list, pred });
            }
        }
        Ok(())
    }

    fn insert_into_list(
        &mut self,
        list: ListId,
        block: BlockId,
        pos: Position,
        ts: Timestamp,
    ) -> Result<()> {
        self.validate_insert(list, pos)?;
        match pos {
            Position::First => {
                let old_first = {
                    let lr = self.list_mut(list)?;
                    let old = lr.first;
                    lr.first = Some(block);
                    if lr.last.is_none() {
                        lr.last = Some(block);
                    }
                    lr.ts = ts;
                    old
                };
                let br = self.block_mut(block)?;
                br.successor = old_first;
                br.list = Some(list);
                br.ts = ts;
            }
            Position::After(pred) => {
                let pred_succ = {
                    let pm = self.block_mut(pred)?;
                    let old = pm.successor;
                    pm.successor = Some(block);
                    pm.ts = ts;
                    old
                };
                {
                    let bm = self.block_mut(block)?;
                    bm.successor = pred_succ;
                    bm.list = Some(list);
                    bm.ts = ts;
                }
                let lr = self.list_mut(list)?;
                if lr.last == Some(pred) {
                    lr.last = Some(block);
                }
                lr.ts = ts;
            }
        }
        Ok(())
    }

    fn walk_list(&mut self, list: ListId) -> Result<Vec<BlockId>> {
        let rec = self
            .view_list(list)
            .filter(|r| r.allocated)
            .ok_or(LldError::ListNotAllocated(list))?;
        let mut out = Vec::new();
        let mut cur = rec.first;
        let bound = self.max_blocks + 1;
        let mut steps = 0u64;
        while let Some(b) = cur {
            steps += 1;
            if steps > bound {
                return Err(LldError::Corrupt(format!("cycle while walking {list}")));
            }
            let brec = self.view_block(b).filter(|r| r.allocated).ok_or_else(|| {
                LldError::Corrupt(format!("list {list} references missing block {b}"))
            })?;
            out.push(b);
            cur = brec.successor;
        }
        self.walk_steps += steps;
        Ok(out)
    }

    fn unlink_block(&mut self, block: BlockId, ts: Timestamp) -> Result<()> {
        let rec = self
            .view_block(block)
            .filter(|r| r.allocated)
            .ok_or(LldError::BlockNotAllocated(block))?;
        let Some(list) = rec.list else {
            return Ok(());
        };
        let successor = rec.successor;

        // Predecessor search: walk from the head of the list.
        let lrec = self
            .view_list(list)
            .filter(|r| r.allocated)
            .ok_or(LldError::ListNotAllocated(list))?;
        let mut pred: Option<BlockId> = None;
        let mut cur = lrec.first;
        let bound = self.max_blocks + 1;
        let mut steps = 0u64;
        while let Some(b) = cur {
            if b == block {
                break;
            }
            steps += 1;
            if steps > bound {
                return Err(LldError::Corrupt(format!("cycle while walking {list}")));
            }
            pred = Some(b);
            cur = self.view_block(b).and_then(|r| r.successor);
            if cur.is_none() {
                return Err(LldError::Corrupt(format!(
                    "{block} claims membership of {list} but is not on it"
                )));
            }
        }
        self.walk_steps += steps;

        match pred {
            None => {
                let lr = self.list_mut(list)?;
                lr.first = successor;
                if lr.last == Some(block) {
                    lr.last = None;
                }
                lr.ts = ts;
            }
            Some(p) => {
                {
                    let pm = self.block_mut(p)?;
                    pm.successor = successor;
                    pm.ts = ts;
                }
                let lr = self.list_mut(list)?;
                if lr.last == Some(block) {
                    lr.last = Some(p);
                }
                lr.ts = ts;
            }
        }
        let bm = self.block_mut(block)?;
        bm.list = None;
        bm.successor = None;
        bm.ts = ts;
        Ok(())
    }

    fn dealloc_block(&mut self, block: BlockId, ts: Timestamp) -> Result<()> {
        let bm = self.block_mut(block)?;
        bm.allocated = false;
        bm.addr = None;
        bm.list = None;
        bm.successor = None;
        bm.ts = ts;
        Ok(())
    }

    fn dealloc_list(&mut self, list: ListId, ts: Timestamp) -> Result<()> {
        let lm = self.list_mut(list)?;
        lm.allocated = false;
        lm.first = None;
        lm.last = None;
        lm.ts = ts;
        Ok(())
    }

    fn delete_block(&mut self, block: BlockId, ts: Timestamp) -> Result<()> {
        self.view_block(block)
            .filter(|r| r.allocated)
            .ok_or(LldError::BlockNotAllocated(block))?;
        self.unlink_block(block, ts)?;
        self.dealloc_block(block, ts)
    }

    /// Deletes a list and every block on it; returns the freed member
    /// identifiers (the caller folds them into [`FreedSets`]).
    fn delete_list(&mut self, list: ListId, ts: Timestamp) -> Result<Vec<u64>> {
        let members = self.walk_list(list)?;
        for &b in &members {
            self.dealloc_block(b, ts)?;
        }
        self.dealloc_list(list, ts)?;
        Ok(members.into_iter().map(|b| b.get()).collect())
    }

    /// Applies one summary record to the committed state during
    /// recovery. `commit_ts` overrides the record timestamp for records
    /// applied at their ARU's commit point (EndARU serialization).
    /// Returns the member blocks freed by a `DeleteList` (empty for
    /// every other record).
    fn apply(
        &mut self,
        seg: SegmentId,
        rec: &Record,
        commit_ts: Option<Timestamp>,
    ) -> Result<Vec<u64>> {
        let corrupt = |msg: String| LldError::Corrupt(format!("replaying {seg}: {msg}"));
        match *rec {
            Record::NewBlock { block, ts } => {
                self.committed.blocks.insert(block, BlockRecord::fresh(ts));
                Ok(Vec::new())
            }
            Record::NewList { list, ts } => {
                self.committed.lists.insert(list, ListRecord::fresh(ts));
                Ok(Vec::new())
            }
            Record::Write {
                block, slot, ts, ..
            } => {
                let ts = commit_ts.unwrap_or(ts);
                let addr = PhysAddr { segment: seg, slot };
                if self.view_block(block).is_none_or(|r| !r.allocated) {
                    return Err(corrupt(format!("write to unallocated {block}")));
                }
                let r = self.block_mut(block)?;
                r.addr = Some(addr);
                r.ts = ts;
                Ok(Vec::new())
            }
            Record::Link {
                list,
                block,
                pred,
                ts,
                ..
            } => {
                let ts = commit_ts.unwrap_or(ts);
                let pos = match pred {
                    None => Position::First,
                    Some(p) => Position::After(p),
                };
                self.insert_into_list(list, block, pos, ts)
                    .map_err(|e| corrupt(e.to_string()))?;
                Ok(Vec::new())
            }
            Record::DeleteBlock { block, ts, .. } => {
                let ts = commit_ts.unwrap_or(ts);
                self.delete_block(block, ts)
                    .map_err(|e| corrupt(e.to_string()))?;
                Ok(Vec::new())
            }
            Record::DeleteList { list, ts, .. } => {
                let ts = commit_ts.unwrap_or(ts);
                self.delete_list(list, ts)
                    .map_err(|e| corrupt(e.to_string()))
            }
            Record::Commit { .. } => Err(corrupt("nested commit record".into())),
            // Write-id notes are peeled off by the replay loop (they
            // rebuild the dedup cache, not the maps).
            Record::WriteId { .. } => Err(corrupt(
                "write-id record escaped commit interception".into(),
            )),
        }
    }
}

// ----------------------------------------------------------------------
// Replay driver
// ----------------------------------------------------------------------

/// Replays the suffix chain in log order, resolving ARU commit points,
/// and hands each effective batch to `emit`: a committed ARU's records
/// with its commit timestamp, or a single directly-applied record with
/// `None`.
fn drive_chain(
    chain: &[(SegmentId, Vec<Record>)],
    report: &mut RecoveryReport,
    ts_max: &mut u64,
    mut emit: impl FnMut(&[(SegmentId, Record)], Option<Timestamp>) -> Result<()>,
) -> Result<()> {
    let mut pending: BTreeMap<u64, Vec<(SegmentId, Record)>> = BTreeMap::new();
    let mut single: Vec<(SegmentId, Record)> = Vec::with_capacity(1);
    for (slot, records) in chain {
        report.segments_replayed += 1;
        for rec in records {
            *ts_max = (*ts_max).max(rec.ts().get());
            match rec.aru_tag() {
                Some(aru) => {
                    pending
                        .entry(aru.get())
                        .or_default()
                        .push((*slot, rec.clone()));
                }
                None => {
                    if let Record::Commit { aru, ts } = rec {
                        let actions = pending.remove(&aru.get()).unwrap_or_default();
                        report.committed_arus += 1;
                        report.records_applied += actions.len() as u64;
                        emit(&actions, Some(*ts))?;
                    } else {
                        single.clear();
                        single.push((*slot, rec.clone()));
                        emit(&single, None)?;
                        report.records_applied += 1;
                    }
                }
            }
        }
    }
    // Whatever is still pending belongs to ARUs that never committed:
    // discard (§3.3 — "the disk system undoes their operations").
    report.discarded_arus = pending.len() as u64;
    report.discarded_records = pending.values().map(|v| v.len() as u64).sum();
    Ok(())
}

/// Decodes every slab of `hdr`. `None` if any slab fails its CRC (the
/// whole area is then invalid and the caller falls back to the other
/// one).
fn load_slabs<D: BlockDevice>(
    device: &D,
    hdr: &CkptHeaderInfo,
    obs: &Obs,
) -> Result<Option<Vec<checkpoint::SlabData>>> {
    let mut out = Vec::with_capacity(hdr.slabs.len());
    for s in &hdr.slabs {
        let timer = obs.timer();
        match checkpoint::decode_slab(device, s)? {
            Some(sd) => {
                obs.recovery_slab_load(timer);
                out.push(sd);
            }
            None => return Ok(None),
        }
    }
    Ok(Some(out))
}

// ----------------------------------------------------------------------
// Recovery proper
// ----------------------------------------------------------------------

impl<D: BlockDevice + 'static> Lld<D> {
    /// Recovers a logical disk from `device`, using the semantic modes
    /// stored in its superblock and default runtime options.
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] if the device holds no valid superblock or
    /// the log is internally inconsistent; device errors.
    pub fn recover(device: D) -> Result<(Self, RecoveryReport)> {
        let (layout, concurrency, visibility) = LldInner::read_superblock(&device)?;
        let config = LldConfig {
            block_size: layout.block_size,
            segment_bytes: layout.segment_bytes,
            concurrency,
            visibility,
            ..LldConfig::default()
        };
        Self::recover_inner(device, layout, config)
    }

    /// Recovers with explicit runtime options (concurrency mode, read
    /// visibility, cleaner tuning, shard count, `check_on_recovery`).
    /// Structural parameters (block size, segment size, limits) always
    /// come from the superblock.
    ///
    /// # Errors
    ///
    /// As for [`Lld::recover`].
    pub fn recover_with(device: D, config: &LldConfig) -> Result<(Self, RecoveryReport)> {
        let (layout, _, _) = LldInner::read_superblock(&device)?;
        Self::recover_inner(device, layout, config.clone())
    }

    fn recover_inner(
        device: D,
        layout: Layout,
        config: LldConfig,
    ) -> Result<(Self, RecoveryReport)> {
        if !config.map_shards.is_power_of_two() || config.map_shards > MAX_MAP_SHARDS {
            return Err(LldError::Config(format!(
                "map_shards {} must be a power of two in 1..={MAX_MAP_SHARDS}",
                config.map_shards
            )));
        }
        let n = layout.n_segments as usize;
        let obs = Obs::new(config.obs);
        let trace = recovery_trace(1);
        let mut report = RecoveryReport {
            threads_used: 1,
            ..RecoveryReport::default()
        };

        // ---- Phase 1: load the newest valid checkpoint's slabs -------
        let t_snap = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoverySnapshotLoad);
        let mut cands: Vec<(CkptHeaderInfo, bool)> = Vec::new();
        if let Some(h) = checkpoint::read_header_dir(&device, &layout, layout.ckpt_a)? {
            cands.push((h, true));
        }
        if let Some(h) = checkpoint::read_header_dir(&device, &layout, layout.ckpt_b)? {
            cands.push((h, false));
        }
        // Newest first; area A wins a sequence tie (stable sort).
        cands.sort_by_key(|(h, _)| std::cmp::Reverse(h.seq));

        let mut state = ReplayState {
            max_blocks: layout.max_blocks,
            ..ReplayState::default()
        };
        let mut ckpt_seq = 0u64;
        // Without a checkpoint: where `LogState::fresh` starts the log.
        let mut head = ChainHead {
            slot: 0,
            base: 0,
            link: 0,
        };
        let mut ts_floor = 0u64;
        let mut block_floor = 1u64;
        let mut list_floor = 1u64;
        let mut use_b_next = false;
        let mut dedup_seed: Vec<u8> = Vec::new();
        for (hdr, is_a) in cands {
            let Some(slabs) = load_slabs(&device, &hdr, &obs)? else {
                continue; // torn slab: the whole area is invalid
            };
            let Some(seed) = checkpoint::read_dedup_slab(&device, &hdr)? else {
                continue; // torn dedup slab: the whole area is invalid
            };
            dedup_seed = seed;
            ckpt_seq = hdr.seq;
            head = hdr.head;
            ts_floor = hdr.ts_counter;
            block_floor = hdr.block_floor;
            list_floor = hdr.list_floor;
            use_b_next = is_a;
            report.snap_shards = hdr.slabs.len() as u32;
            for sd in slabs {
                for (id, rec) in sd.blocks {
                    // Finalize indexes per-segment tables by this
                    // address; a CRC-valid slab can still name a
                    // segment or slot the device does not have.
                    if let Some(a) = rec.addr.filter(|a| {
                        a.segment.get() >= layout.n_segments || a.slot >= layout.slots_per_segment()
                    }) {
                        return Err(LldError::Corrupt(format!(
                            "checkpoint places {id} at {a}, outside the device"
                        )));
                    }
                    ts_floor = ts_floor.max(rec.ts.get());
                    state.persistent.blocks.insert(id, rec);
                }
                for (id, rec) in sd.lists {
                    ts_floor = ts_floor.max(rec.ts.get());
                    state.persistent.lists.insert(id, rec);
                }
            }
            break;
        }
        // A head where no writer starts a segment would open one that
        // can take nothing.
        let blocks_per_slot = layout.blocks_per_slot();
        if head.slot != NO_SLOT && !valid_base(blocks_per_slot, head.base) {
            return Err(LldError::Corrupt(format!(
                "checkpoint's log head is block {} of a {blocks_per_slot}-block slot",
                head.base
            )));
        }
        report.checkpoint_seq = ckpt_seq;
        report.snapshot_load_ns = t_snap.elapsed().as_nanos() as u64;
        obs.stage_end(
            0,
            trace,
            Stage::RecoverySnapshotLoad,
            report.snapshot_load_ns,
        );

        // ---- Phase 2: walk the chain from the checkpoint's head -----
        let t_scan = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoveryScan);
        let mut chain: Vec<(SegmentId, Vec<Record>)> = Vec::new();
        let mut slot_seq = vec![0u64; n];
        // The bytes at `head`'s position, when the read of the summary
        // in front of it brought them along.
        let mut fetched = None;
        // Each accepted hop raises the expected sequence number and a
        // position holds one header: hostile pointers cannot make a
        // loop, and the device has this many positions. (Not
        // `n_segments`: the writer bounds the suffix there, but a failed
        // checkpoint must not cut a valid log short.)
        let max_links = n as u64 * u64::from(blocks_per_slot);
        while (chain.len() as u64) < max_links {
            let seq = ckpt_seq + 1 + chain.len() as u64;
            let links_on = |h: &SegmentHeader| h.seq == seq && h.prev_link == head.link;
            let found = match head.slot {
                // Sealed while nothing was free: the log went on at
                // block 0 of whatever slot came up.
                NO_SLOT => {
                    let mut found = None;
                    for slot in (0..layout.n_segments).map(SegmentId::new) {
                        report.segments_scanned += 1;
                        found = read_header(&device, &layout, slot, 0)?.filter(links_on);
                        if found.is_some() {
                            break;
                        }
                    }
                    found
                }
                // A slot the device lacks; finalize rejects it.
                s if s >= layout.n_segments => None,
                s => {
                    report.segments_scanned += 1;
                    let slot = SegmentId::new(s);
                    match fetched.take() {
                        Some(bytes) => parse_header(&bytes, &layout, slot, head.base),
                        None => read_header(&device, &layout, slot, head.base)?,
                    }
                    .filter(links_on)
                }
            };
            let Some(h) = found else { break };
            let Some(read) = read_summary(&device, &layout, &h)? else {
                report.torn_tails_detected += 1;
                break;
            };
            chain.push((h.slot, read.records));
            slot_seq[h.slot.get() as usize] = seq;
            head = h.next;
            fetched = read.successor;
        }
        report.scan_ns = t_scan.elapsed().as_nanos() as u64;
        obs.stage_end(0, trace, Stage::RecoveryScan, report.scan_ns);

        // ---- Phase 3: replay the chain above the checkpoint ----------
        let t_replay = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoveryReplay);
        let mut ts_max = 0u64;
        // Rebuild the write-id dedup cache: seed from the checkpoint
        // slab, then re-record every committed ARU's `WriteId` record
        // during replay (they carry no mapping effects); `complete` is
        // idempotent, so a slab entry replayed again is harmless.
        let mut dedup_rebuilt =
            crate::dedup::DedupCache::decode(config.dedup_capacity, &dedup_seed)?;
        let mut freed = FreedSets::default();
        let timer = obs.timer();
        drive_chain(&chain, &mut report, &mut ts_max, |recs, cts| {
            for (seg, rec) in recs {
                if let Record::WriteId {
                    client,
                    generation,
                    write_id,
                    ts,
                    ..
                } = *rec
                {
                    dedup_rebuilt.complete(client, write_id, generation, cts.unwrap_or(ts));
                    continue;
                }
                let members = state.apply(*seg, rec, cts)?;
                freed.note(rec, members);
            }
            Ok(())
        })?;
        obs.recovery_replay_batch(timer);
        drop(chain);
        report.replay_ns = t_replay.elapsed().as_nanos() as u64;
        obs.stage_end(0, trace, Stage::RecoveryReplay, report.replay_ns);

        // ---- Phase 4: re-shard and bring the disk up -----------------
        let t_fin = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoveryFinalize);

        // Everything replayed is persistent.
        let ReplayState {
            persistent: mut merged,
            mut committed,
            walk_steps,
            ..
        } = state;
        committed.drain_into(&mut merged);

        // Live-segment accounting is a pure function of the final
        // block addresses — one pass, no per-record adjustments.
        let mut live_count = vec![0u32; n];
        let mut residents: Vec<HashSet<BlockId>> = vec![HashSet::new(); n];
        for (&id, r) in &merged.blocks {
            if let Some(a) = r.addr {
                let s = a.segment.get() as usize;
                live_count[s] += 1;
                residents[s].insert(id);
            }
        }

        // Re-stripe for this process's shard count, then rebuild the
        // free-identifier sets from what replay finally freed (a freed
        // id re-allocated later was removed from the freed set by its
        // NewBlock/NewList record).
        let maps = Maps::from_tables(config.map_shards, merged, block_floor, list_floor);
        maps.inject_freed(freed.blocks, freed.lists);

        let mut log = LogState::fresh(n);
        log.checkpoint_seq = ckpt_seq;
        log.next_seq = ckpt_seq + 1 + u64::from(report.segments_replayed);
        log.tail = head;
        // A head inside a slot: the segment in front of it is in that
        // slot too, so the slot is in use whatever else it holds — if
        // the walk did not pass through it, as the checkpoint's last
        // covered segment.
        if let Some(s) = log.open_slot() {
            let seq = slot_seq.get_mut(s as usize).ok_or_else(|| {
                LldError::Corrupt(format!("log tail points into slot {s}, off the device"))
            })?;
            *seq = (*seq).max(ckpt_seq);
            log.free_slots.remove(&s);
        }
        // A slot stays in use if it is part of the replayed chain or
        // still holds live blocks — then the checkpoint covers it, and
        // it goes by the checkpoint's sequence number. The rest is free.
        for (slot, seq) in slot_seq.iter_mut().enumerate() {
            if *seq == 0 && live_count[slot] > 0 {
                *seq = ckpt_seq;
            }
            if *seq != 0 || live_count[slot] > 0 {
                log.free_slots.remove(&(slot as u32));
            }
        }
        log.slot_seq = slot_seq;
        log.live_count = live_count;
        log.residents = residents;
        // The tail's pointer is on disk, so the next segment must go
        // there; no crash leaves it at the start of a slot in use or
        // off the device.
        if head.slot != NO_SLOT && !head.in_slot() && !log.free_slots.contains(&head.slot) {
            return Err(LldError::Corrupt(format!(
                "log tail points at slot {}, which is not free",
                head.slot
            )));
        }

        let ld = Lld::from_inner(LldInner {
            device: crate::lld::DevicePath::new(device, config.pipeline),
            layout,
            concurrency: config.concurrency,
            visibility: config.visibility,
            cleaner_cfg: config.cleaner,
            maps,
            log: Mutex::new(log),
            cache: Mutex::new(crate::cache::BlockCache::new(config.read_cache_blocks)),
            gc: GroupCommit::new(),
            ckpt_io: Mutex::new(CkptSlots {
                use_b: use_b_next,
                gen: 0,
            }),
            dedup: Mutex::new(dedup_rebuilt),
            dedup_cv: ld_disk::Condvar::new(),
            ts_counter: AtomicU64::new(ts_floor.max(ts_max)),
            free_slots_hint: AtomicU64::new(0),
            needs_clean: AtomicBool::new(false),
            needs_checkpoint: AtomicBool::new(false),
            stats: Default::default(),
            obs,
            cleanerd: Cleanerd::new(),
            sampler: crate::sampler::Sampler::new(),
            flight: config
                .flight_dir
                .clone()
                .map(crate::flight::FlightRecorder::new),
        });
        ld.install_pipe_observer();
        ld.stats.list_walk_steps.add(walk_steps);
        // A crash can leave every slot in use; the disk must still come
        // up, for the deletions that make room again.
        ld.with_mutation(|m| {
            m.sync_free_hint();
            m.open_segment_if_free(0)
        })?;

        if config.check_on_recovery {
            let check = ld.check()?;
            report.orphan_blocks_freed = check.orphan_blocks_freed.len();
        }
        report.finalize_ns = t_fin.elapsed().as_nanos() as u64;
        ld.obs
            .stage_end(0, trace, Stage::RecoveryFinalize, report.finalize_ns);
        ld.obs.recovery_done(ld.now(), &report);
        crate::cleanerd::spawn_if_configured(&ld);
        crate::sampler::spawn_if_configured(&ld, config.metrics_hz);
        Ok((ld, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v)
    }

    #[test]
    fn parts_view_applies_with_mutation_semantics() {
        let mut freed = FreedSets::default();
        let mut view = ReplayState {
            max_blocks: 1024,
            ..ReplayState::default()
        };
        let seg = SegmentId::new(0);
        let list = ListId::new(1);
        let (b1, b2) = (BlockId::new(2), BlockId::new(3));
        view.apply(seg, &Record::NewList { list, ts: ts(1) }, None)
            .unwrap();
        for b in [b1, b2] {
            view.apply(
                seg,
                &Record::NewBlock {
                    block: b,
                    ts: ts(2),
                },
                None,
            )
            .unwrap();
        }
        view.apply(
            seg,
            &Record::Link {
                list,
                block: b1,
                pred: None,
                ts: ts(3),
                aru: None,
            },
            None,
        )
        .unwrap();
        view.apply(
            seg,
            &Record::Link {
                list,
                block: b2,
                pred: Some(b1),
                ts: ts(4),
                aru: None,
            },
            None,
        )
        .unwrap();
        assert_eq!(view.walk_list(list).unwrap(), vec![b1, b2]);

        // A write to an unallocated block is corruption.
        let err = view
            .apply(
                seg,
                &Record::Write {
                    block: BlockId::new(99),
                    slot: 0,
                    ts: ts(5),
                    aru: None,
                },
                None,
            )
            .unwrap_err();
        assert!(err.to_string().contains("write to unallocated"));

        // Deleting the list reports its freed members; the freed sets
        // track them until a re-allocation takes the id back out.
        let del = Record::DeleteList {
            list,
            ts: ts(6),
            aru: None,
        };
        let members = view.apply(seg, &del, None).unwrap();
        assert_eq!(members, vec![2, 3]);
        freed.note(&del, members);
        assert!(freed.blocks.contains(&2) && freed.blocks.contains(&3));
        assert!(freed.lists.contains(&1));
        let renew = Record::NewBlock {
            block: b1,
            ts: ts(7),
        };
        view.apply(seg, &renew, None).unwrap();
        freed.note(&renew, Vec::new());
        assert!(!freed.blocks.contains(&2));
        assert!(freed.blocks.contains(&3));
    }
}
