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
//! checkpoint stores global allocator floors, and every snapshot entry
//! and replayed record goes to the shard its identifier hashes to under
//! whatever shard count this process runs with.
//!
//! # The pipeline
//!
//! Recovery is one straight line on the calling thread, in four phases,
//! each a traced stage (`recovery_snapshot_load` / `recovery_scan` /
//! `recovery_replay` / `recovery_finalize`) with its wall time in the
//! [`RecoveryReport`]. It starts from the state of an empty disk
//! ([`LldInner::new`]) and fills it inside one full mutation session:
//!
//! 1. **Snapshot load** — the newest valid checkpoint's per-shard
//!    slabs are CRC-checked, and each row is decoded straight into its
//!    shard's persistent table, sized once from the directory's counts
//!    (allocator raised past it, its address entered in its slot's
//!    `residents`).
//! 2. **Scan** — the log's chain is walked from the checkpoint's
//!    [`ChainHead`] (sector 0 of slot 0, link 0 without one): a segment
//!    is accepted iff header CRC, sequence number and `prev_link` fit,
//!    and the first miss ends the log. A hop inside a slot costs one
//!    read (the summary's read brings the next header with it), a hop
//!    to another slot two, whatever the device size; only a [`NO_SLOT`]
//!    hop probes every slot.
//! 3. **Replay** — [`drive_chain`] walks the chain in log order,
//!    resolves ARU commit points, and hands each effective record to
//!    [`Mutation::replay_record`], which applies it with the helpers
//!    the operation that logged it ran: the record state machine
//!    exists once.
//! 4. **Finalize** — the committed overlay drains (a replayed record
//!    older than the checkpoint's version of what it changes would
//!    lose to it there, and is `Corrupt`), the log state is
//!    set up behind the chain's last segment, a slot is free iff it is
//!    off the replayed chain, not the one the tail points into and has
//!    no resident (slots the checkpoint covers are never read), and
//!    the consistency check runs.

use crate::aru::ListOp;
use crate::checkpoint::{self, CkptHeaderInfo, CkptSlots, SlabReader};
use crate::config::{LldConfig, MAX_MAP_SHARDS};
use crate::dedup::DedupCache;
use crate::error::{LldError, Result};
use crate::layout::Layout;
use crate::lld::{Lld, LldInner, Mutation, StateRef};
use crate::obs::{recovery_trace, Stage};
use crate::record::flat_record;
use crate::segment::{
    parse_header, read_header, read_summary, valid_base, ChainHead, SegmentHeader, NO_SLOT,
};
use crate::shard::striped_ceil;
use crate::state::{BlockRecord, ListRecord};
use crate::summary::Record;
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp, MAX_RAW_ID};
use ld_disk::BlockDevice;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

flat_record! {
    /// What recovery found and did.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    #[non_exhaustive]
    pub struct RecoveryReport {
        /// Sequence number of the checkpoint recovery started from (0 =
        /// none; the whole log was replayed).
        checkpoint_seq: u64,
        /// Positions (sector 0 of a slot, or the sector behind a segment)
        /// whose header the scan phase examined.
        segments_scanned: u32,
        /// Valid segments replayed (sequence numbers above the checkpoint).
        segments_replayed: u32,
        /// 1 if the log ends at a header that links on but whose summary
        /// fails its checksum: a segment write torn by the crash, treated
        /// as never written.
        torn_tails_detected: u32,
        /// Summary records applied (committed effects).
        records_applied: u64,
        /// ARUs whose commit record was found (their records were applied).
        committed_arus: u64,
        /// ARUs discarded because their commit record never reached disk.
        discarded_arus: u64,
        /// Records belonging to discarded ARUs.
        discarded_records: u64,
        /// Orphaned blocks freed by the post-recovery consistency check.
        orphan_blocks_freed: usize,
        /// Snapshot slabs loaded from the chosen checkpoint (0 = no
        /// checkpoint; the shard count the image was checkpointed at).
        snap_shards: u32,
        /// Threads recovery ran on: always 1 (the caller's).
        threads_used: u32,
        /// Bytes of the checkpoint the snapshot-load phase loaded: header,
        /// directory, slabs and dedup slab (0 = no checkpoint).
        snapshot_bytes: u64,
        /// Wall time of the snapshot-load phase.
        snapshot_load_ns: u64,
        /// Wall time of the segment-scan phase.
        scan_ns: u64,
        /// Wall time of the suffix-replay phase.
        replay_ns: u64,
        /// Wall time of the finalize phase (log state, consistency check).
        finalize_ns: u64,
    }
}

// ----------------------------------------------------------------------
// Replay driver
// ----------------------------------------------------------------------

/// One segment of the chain the scan accepted.
struct ChainSegment {
    slot: SegmentId,
    /// The sectors of its data area in the slot (from its header): what
    /// its `Write` records may name.
    data_sectors: Range<u32>,
    records: Vec<Record>,
}

/// Replays the suffix chain in log order, resolving ARU commit points,
/// and hands each effective batch to `emit`: a committed ARU's records
/// with its commit timestamp, or a single directly-applied record with
/// `None`. A `Write` record's extent must lie in its segment's data
/// area and take at most `block_sectors`.
fn drive_chain(
    chain: &[ChainSegment],
    block_sectors: u32,
    report: &mut RecoveryReport,
    ts_max: &mut u64,
    mut emit: impl FnMut(&[(SegmentId, Record)], Option<Timestamp>) -> Result<()>,
) -> Result<()> {
    let mut pending: BTreeMap<u64, Vec<(SegmentId, Record)>> = BTreeMap::new();
    let mut single: Vec<(SegmentId, Record)> = Vec::with_capacity(1);
    for seg in chain {
        let slot = seg.slot;
        report.segments_replayed += 1;
        for rec in &seg.records {
            *ts_max = (*ts_max).max(rec.ts().get());
            // A segment only ever places extents of at most a block
            // between its own header and summary; a CRC-valid record can
            // still say otherwise.
            if let Record::Write {
                block, slot: at, ..
            } = *rec
            {
                let a = PhysAddr::from_extent(slot, at);
                let area = &seg.data_sectors;
                if a.sectors > block_sectors
                    || a.sector < area.start
                    || a.sector + a.sectors > area.end
                {
                    return Err(LldError::Corrupt(format!(
                        "replaying {slot}: write record places {block} at {a}, \
                         outside the segment's sectors {area:?} or past a block"
                    )));
                }
            }
            match rec.aru_tag() {
                Some(aru) => {
                    pending
                        .entry(aru.get())
                        .or_default()
                        .push((slot, rec.clone()));
                }
                None => {
                    if let Record::Commit { aru, ts } = rec {
                        let actions = pending.remove(&aru.get()).unwrap_or_default();
                        report.committed_arus += 1;
                        report.records_applied += actions.len() as u64;
                        emit(&actions, Some(*ts))?;
                    } else {
                        single.clear();
                        single.push((slot, rec.clone()));
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

// ----------------------------------------------------------------------
// Recovery proper
// ----------------------------------------------------------------------

impl<D: BlockDevice> Mutation<'_, D> {
    /// Applies one summary record to the committed state with the
    /// helpers the operation that logged it ran — minus what that
    /// operation did for the log, the cache and the device. `commit_ts`
    /// overrides the record timestamp for records applied at their
    /// ARU's commit point (EndARU serialization).
    pub(crate) fn replay_record(
        &mut self,
        seg: SegmentId,
        rec: &Record,
        commit_ts: Option<Timestamp>,
    ) -> Result<()> {
        let corrupt = |msg: String| LldError::Corrupt(format!("replaying {seg}: {msg}"));
        let ts = commit_ts.unwrap_or(rec.ts());
        let stripe = u64::from(self.lld.maps.nshards());
        // No cap on the reservations: the writer checked it, and a
        // sequential ARU's deletions replay later than they ran (at its
        // commit record), so the count may pass the cap on the way.
        let op = match *rec {
            Record::NewBlock { block, .. } => {
                if block.get() > MAX_RAW_ID {
                    return Err(corrupt(format!("allocation of {block}, past the bound")));
                }
                if self
                    .map
                    .committed_view_block(block)
                    .is_some_and(|r| r.allocated)
                {
                    return Err(corrupt(format!("allocation of {block}, already allocated")));
                }
                self.lld.maps.try_reserve_block(u64::MAX)?;
                let sh = self.map.block_shard_mut(block);
                sh.note_block_id(block.get(), stripe);
                sh.committed.blocks.insert(block, BlockRecord::fresh(ts));
                return Ok(());
            }
            Record::NewList { list, .. } => {
                if list.get() > MAX_RAW_ID {
                    return Err(corrupt(format!("allocation of {list}, past the bound")));
                }
                if self
                    .map
                    .committed_view_list(list)
                    .is_some_and(|r| r.allocated)
                {
                    return Err(corrupt(format!("allocation of {list}, already allocated")));
                }
                self.lld.maps.try_reserve_list(u64::MAX)?;
                let sh = self.map.list_shard_mut(list);
                sh.note_list_id(list.get(), stripe);
                sh.committed.lists.insert(list, ListRecord::fresh(ts));
                return Ok(());
            }
            Record::Write { block, slot, .. } => {
                let addr = PhysAddr::from_extent(seg, slot);
                let r = (self.block_mut(StateRef::Committed, block).ok())
                    .filter(|r| r.allocated)
                    .ok_or_else(|| corrupt(format!("write to unallocated {block}")))?;
                let old = r.addr.replace(addr);
                r.ts = ts;
                self.adjust_addr(block, old, Some(addr));
                return Ok(());
            }
            Record::Link {
                list, block, pred, ..
            } => ListOp::Insert { list, block, pred },
            Record::DeleteBlock { block, .. } => ListOp::DeleteBlock { block },
            Record::DeleteList { list, .. } => ListOp::DeleteList { list },
            Record::Commit { .. } => return Err(corrupt("nested commit record".into())),
            // Write-id notes are peeled off by the replay loop (they
            // rebuild the dedup cache, not the maps).
            Record::WriteId { .. } => {
                return Err(corrupt(
                    "write-id record escaped commit interception".into(),
                ))
            }
        };
        let (mut blocks, mut lists) = (Vec::new(), Vec::new());
        self.apply_list_op(StateRef::Committed, &op, ts, &mut blocks, &mut lists)
            .map_err(|e| corrupt(e.to_string()))?;
        self.release_ids(blocks, lists);
        Ok(())
    }

    /// Phases 1–3 and the log state of phase 4, in the full session
    /// over an empty disk's state that [`Lld::recover`] opens. Returns
    /// when the finalize phase began.
    fn rebuild(
        &mut self,
        config: &LldConfig,
        trace: u64,
        report: &mut RecoveryReport,
    ) -> Result<Instant> {
        let lld = self.lld;
        let (device, layout, obs) = (&lld.device, &lld.layout, &lld.obs);
        let n = layout.n_segments as usize;
        let nshards = lld.maps.nshards();
        let stripe = u64::from(nshards);

        // ---- Phase 1: load the newest valid checkpoint's slabs -------
        let t_snap = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoverySnapshotLoad);
        let mut cands: Vec<(CkptHeaderInfo, bool)> = Vec::new();
        if let Some(h) = checkpoint::read_header_dir(device, layout, layout.ckpt_a)? {
            cands.push((h, true));
        }
        if let Some(h) = checkpoint::read_header_dir(device, layout, layout.ckpt_b)? {
            cands.push((h, false));
        }
        // Newest first; area A wins a sequence tie (stable sort).
        cands.sort_by_key(|(h, _)| std::cmp::Reverse(h.seq));

        let mut ckpt_seq = 0u64;
        // Without a checkpoint: where `LogState::fresh` starts the log.
        let mut head = ChainHead {
            slot: 0,
            base: 0,
            link: 0,
        };
        let mut ts_floor = 0u64;
        let mut dedup_seed: Vec<u8> = Vec::new();
        for (hdr, is_a) in cands {
            // Slabs and dedup slab lie back to back: one device read.
            let body = hdr.read_body(device)?;
            // Every checksum and descriptor before a row is entered: a
            // torn area leaves the tables empty for the other one.
            let (Some(slabs), Some(seed)) = (hdr.slabs(&body), hdr.dedup_slab(&body)) else {
                continue;
            };
            // The allocators count on from the floors and from every
            // identifier entered.
            if hdr.block_floor.max(hdr.list_floor) > MAX_RAW_ID {
                return Err(LldError::Corrupt(format!(
                    "checkpoint's allocator floors ({}, {}) pass the largest identifier",
                    hdr.block_floor, hdr.list_floor
                )));
            }
            dedup_seed = seed.to_vec();
            ckpt_seq = hdr.seq;
            head = hdr.head;
            ts_floor = hdr.ts_counter;
            *lld.ckpt_io.lock() = CkptSlots {
                use_b: is_a,
                gen: 0,
            };
            report.snap_shards = slabs.len() as u32;
            report.snapshot_bytes = hdr.bytes();
            // The floors are global; each shard starts at its first
            // identifier at or above them. Its tables are sized once: by
            // its own slab where the image was checkpointed at this shard
            // count, else by an even share; never past the format's caps,
            // whatever a directory says.
            let rows = |n: fn(&SlabReader<'_>) -> u64, cap: u64, i: u32| {
                let rows = if slabs.len() == nshards as usize {
                    n(&slabs[i as usize])
                } else {
                    let total = slabs.iter().map(n).fold(0, u64::saturating_add);
                    total.div_ceil(stripe)
                };
                rows.min(cap) as usize
            };
            for i in 0..nshards {
                let sh = self.map.shard_mut(i);
                sh.next_block_raw = striped_ceil(hdr.block_floor, i, stripe);
                sh.next_list_raw = striped_ceil(hdr.list_floor, i, stripe);
                let tables = &mut sh.persistent;
                (tables.blocks).reserve(rows(|s| s.n_blocks, layout.max_blocks, i));
                (tables.lists).reserve(rows(|s| s.n_lists, layout.max_lists, i));
            }
            // A slot's `residents` is sized once, for every row the slabs
            // place in it, and filled after the last slab.
            let mut placed: Vec<(BlockId, PhysAddr)> = Vec::new();
            let mut per_slot = vec![0usize; layout.n_segments as usize];
            for slab in &slabs {
                let timer = obs.timer();
                let maps = &lld.maps;
                (maps.allocated_blocks).fetch_add(slab.n_blocks, Ordering::Relaxed);
                (maps.allocated_lists).fetch_add(slab.n_lists, Ordering::Relaxed);
                for entry in slab.blocks() {
                    let (id, rec) = entry?;
                    if let Some(a) = rec.addr {
                        // `residents` is indexed by this address, and a
                        // read transfers its extent; a CRC-valid slab can
                        // still name a segment, sectors or a count the
                        // device does not have.
                        let end = u64::from(a.sector) + u64::from(a.sectors);
                        if a.segment.get() >= layout.n_segments
                            || a.sectors > layout.sectors_per_block()
                            || end > u64::from(layout.sectors_per_slot())
                        {
                            return Err(LldError::Corrupt(format!(
                                "checkpoint places {id} at {a}, outside the device"
                            )));
                        }
                        per_slot[a.segment.get() as usize] += 1;
                        placed.push((id, a));
                    }
                    ts_floor = ts_floor.max(rec.ts.get());
                    let sh = self.map.block_shard_mut(id);
                    sh.note_block_id(id.get(), stripe);
                    if sh.persistent.blocks.insert(id, rec).is_some() {
                        return Err(LldError::Corrupt(format!("checkpoint holds {id} twice")));
                    }
                }
                for entry in slab.lists() {
                    let (id, rec) = entry?;
                    ts_floor = ts_floor.max(rec.ts.get());
                    let sh = self.map.list_shard_mut(id);
                    sh.note_list_id(id.get(), stripe);
                    if sh.persistent.lists.insert(id, rec).is_some() {
                        return Err(LldError::Corrupt(format!("checkpoint holds {id} twice")));
                    }
                }
                obs.recovery_slab_load(timer);
            }
            let log = self.log();
            for (set, n) in log.residents.iter_mut().zip(per_slot) {
                set.reserve(n);
            }
            for (id, a) in placed {
                log.add_resident(id, a);
            }
            break;
        }
        // A head where no writer starts a segment would open one that
        // can take nothing.
        let slot_sectors = layout.sectors_per_slot();
        if head.slot != NO_SLOT && !valid_base(slot_sectors, layout.sectors_per_block(), head.base)
        {
            return Err(LldError::Corrupt(format!(
                "checkpoint's log head is sector {} of a {slot_sectors}-sector slot",
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
        let mut chain: Vec<ChainSegment> = Vec::new();
        let mut slot_seq = vec![0u64; n];
        let mut suffix_summary = 0u64;
        // The bytes at `head`'s position, when the read of the summary
        // in front of it brought them along.
        let mut fetched = None;
        // Each accepted hop raises the expected sequence number and a
        // position holds one header: hostile pointers cannot make a
        // loop, and the device has this many positions. (Not
        // `n_segments`: the writer bounds the suffix there, but a failed
        // checkpoint must not cut a valid log short.)
        let max_links = n as u64 * u64::from(slot_sectors);
        while (chain.len() as u64) < max_links {
            let seq = ckpt_seq + 1 + chain.len() as u64;
            let links_on = |h: &SegmentHeader| h.seq == seq && h.prev_link == head.link;
            let found = match head.slot {
                // Sealed while nothing was free: the log went on at
                // sector 0 of whatever slot came up.
                NO_SLOT => {
                    let mut found = None;
                    for slot in (0..layout.n_segments).map(SegmentId::new) {
                        report.segments_scanned += 1;
                        found = read_header(device, layout, slot, 0)?.filter(links_on);
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
                        Some(bytes) => parse_header(&bytes, layout, slot, head.base),
                        None => read_header(device, layout, slot, head.base)?,
                    }
                    .filter(links_on)
                }
            };
            let Some(h) = found else { break };
            let Some(read) = read_summary(device, layout, &h)? else {
                report.torn_tails_detected += 1;
                break;
            };
            suffix_summary += read.records.iter().map(Record::suffix_weight).sum::<u64>();
            chain.push(ChainSegment {
                slot: h.slot,
                data_sectors: h.data_sectors(),
                records: read.records,
            });
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
        let mut dedup = DedupCache::decode(config.dedup_capacity, &dedup_seed)?;
        let timer = obs.timer();
        let block_sectors = layout.sectors_per_block();
        drive_chain(&chain, block_sectors, report, &mut ts_max, |recs, cts| {
            for (seg, rec) in recs {
                if let Record::WriteId {
                    client,
                    generation,
                    write_id,
                    ts,
                    ..
                } = *rec
                {
                    dedup.complete(client, write_id, generation, cts.unwrap_or(ts));
                    continue;
                }
                self.replay_record(*seg, rec, cts)?;
            }
            Ok(())
        })?;
        obs.recovery_replay_batch(timer);
        drop(chain);
        *lld.dedup.lock() = dedup;
        lld.ts_counter
            .store(ts_floor.max(ts_max), Ordering::Relaxed);
        report.replay_ns = t_replay.elapsed().as_nanos() as u64;
        obs.stage_end(0, trace, Stage::RecoveryReplay, report.replay_ns);

        // ---- Phase 4: the log behind the chain -----------------------
        let t_fin = Instant::now();
        obs.stage_begin(0, trace, Stage::RecoveryFinalize);
        // Everything replayed is persistent. The drain keeps the newer
        // of two versions: the replayed one, in every log a writer
        // produced. A timestamp that runs backwards would have it keep
        // half of an operation (a list that still points at a block the
        // other half removed).
        for sh in self.map.shards_held() {
            let (new, old) = (&sh.committed, &sh.persistent);
            let block =
                |(id, r): (&BlockId, &BlockRecord)| old.blocks.get(id).is_some_and(|p| r.ts < p.ts);
            let list =
                |(id, r): (&ListId, &ListRecord)| old.lists.get(id).is_some_and(|p| r.ts < p.ts);
            if new.blocks.iter().any(block) || new.lists.iter().any(list) {
                return Err(LldError::Corrupt(
                    "a replayed record is older than the checkpoint's version of what it changes"
                        .into(),
                ));
            }
        }
        self.map.drain_committed();
        let log = self.log();
        log.checkpoint_seq = ckpt_seq;
        // The suffix just replayed is still the suffix, in both units.
        log.summary_sealed = suffix_summary;
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
            let live = !log.residents[slot].is_empty();
            if *seq == 0 && live {
                *seq = ckpt_seq;
            }
            if *seq != 0 || live {
                log.free_slots.remove(&(slot as u32));
            }
        }
        log.slot_seq = slot_seq;
        // The tail's pointer is on disk, so the next segment must go
        // there; no crash leaves it at the start of a slot in use or
        // off the device.
        if head.slot != NO_SLOT && !head.in_slot() && !log.free_slots.contains(&head.slot) {
            return Err(LldError::Corrupt(format!(
                "log tail points at slot {}, which is not free",
                head.slot
            )));
        }
        // A crash can leave every slot in use; the disk must still come
        // up, for the deletions that make room again.
        self.sync_free_hint();
        self.open_segment_if_free(0)?;
        Ok(t_fin)
    }
}

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
        let ld = Lld::from_inner(LldInner::new(device, layout, &config));
        let trace = recovery_trace(1);
        let mut report = RecoveryReport {
            threads_used: 1,
            ..RecoveryReport::default()
        };
        let t_fin = ld.with_mutation(|m| m.rebuild(&config, trace, &mut report))?;

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
    use crate::types::{AruId, Ctx, Position};
    use ld_disk::MemDisk;
    use std::collections::{BTreeMap, BTreeSet};

    const BS: usize = 512;
    const DEVICE: u64 = 1 << 20;

    fn config(map_shards: usize) -> LldConfig {
        let mut cfg = LldConfig {
            block_size: BS,
            segment_bytes: 16 * BS,
            max_blocks: Some(1024),
            max_lists: Some(256),
            map_shards,
            // The orphans of ARUs that never ended stay, on both sides.
            check_on_recovery: false,
            ..LldConfig::default()
        };
        // The pass in the middle of the history has work to do: the one
        // `run_cleaner` call, on the inline cleaner (no thread writes a
        // checkpoint behind the history's back).
        let slots = Layout::compute(DEVICE, &cfg).unwrap().n_segments;
        cfg.cleaner.target_free_segments = slots - 8;
        cfg.cleaner.background = false;
        cfg
    }

    /// What the differential test compares: the committed view and the
    /// accounting that follows from it.
    #[derive(Debug, PartialEq)]
    struct View {
        blocks: BTreeMap<BlockId, BlockRecord>,
        lists: BTreeMap<ListId, ListRecord>,
        residents: Vec<BTreeSet<BlockId>>,
        allocated: (u64, u64),
    }

    fn view(ld: &Lld<MemDisk>) -> View {
        let all = ld.maps.all_set();
        let map = ld.read_view(0, all);
        let (mut blocks, mut lists) = (BTreeMap::new(), BTreeMap::new());
        for sh in map.shards_held() {
            for &id in (sh.persistent.blocks.keys()).chain(sh.committed.blocks.keys()) {
                if let Some(r) = map.committed_view_block(id).filter(|r| r.allocated) {
                    blocks.insert(id, r.clone());
                }
            }
            for &id in (sh.persistent.lists.keys()).chain(sh.committed.lists.keys()) {
                if let Some(r) = map.committed_view_list(id).filter(|r| r.allocated) {
                    lists.insert(id, r.clone());
                }
            }
        }
        let residents = (ld.log.lock().residents.iter())
            .map(|s| s.iter().copied().collect())
            .collect();
        View {
            blocks,
            lists,
            residents,
            allocated: (ld.allocated_block_count(), ld.allocated_list_count()),
        }
    }

    /// A seeded history of simple operations and of committed, aborted
    /// and never-ended ARUs, and what it expects of the allocators.
    struct History<'a> {
        ld: &'a Lld<MemDisk>,
        rng: u64,
        /// Lists allocated in the committed state.
        lists: Vec<ListId>,
        /// Freed by a committed deletion since the last checkpoint and
        /// not handed out again since.
        freed_blocks: BTreeSet<u64>,
        freed_lists: BTreeSet<u64>,
        never_ended: Vec<AruId>,
        /// How often each thing the test is about happened.
        seen: BTreeMap<&'static str, u32>,
    }

    impl History<'_> {
        fn below(&mut self, n: u64) -> u64 {
            // xorshift64*
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }

        fn saw(&mut self, what: &'static str) {
            *self.seen.entry(what).or_default() += 1;
        }

        /// A list and its members as `ctx` sees them.
        fn pick_list(&mut self, ctx: Ctx) -> Option<(ListId, Vec<BlockId>)> {
            if self.lists.is_empty() {
                return None;
            }
            let at = self.below(self.lists.len() as u64) as usize;
            let list = self.lists[at];
            let members = self.ld.list_blocks(ctx, list).ok()?;
            Some((list, members))
        }

        /// One operation; what it freed (if it commits) goes to `freed`.
        /// Inside an ARU an operation may find its target gone from the
        /// shadow state: that is an error return and nothing else.
        fn op(&mut self, ctx: Ctx, freed: &mut (Vec<BlockId>, Vec<ListId>)) {
            let kind = self.below(10);
            if kind == 0 || self.lists.is_empty() {
                let list = self.ld.new_list(ctx).unwrap();
                if self.freed_lists.remove(&list.get()) {
                    self.saw("list id reused");
                }
                self.lists.push(list);
                return;
            }
            let Some((list, members)) = self.pick_list(ctx) else {
                return;
            };
            let member =
                (!members.is_empty()).then(|| members[self.below(members.len() as u64) as usize]);
            let data = [self.below(256) as u8; BS];
            match (kind, member) {
                (1..=5, _) => {
                    let pos = match member {
                        Some(pred) if self.below(2) == 0 => Position::After(pred),
                        _ => Position::First,
                    };
                    if let Ok(b) = self.ld.new_block(ctx, list, pos) {
                        if self.freed_blocks.remove(&b.get()) {
                            self.saw("block id reused");
                        }
                        self.saw(match pos {
                            Position::First => "link at the front",
                            Position::After(_) => "link after a predecessor",
                        });
                        self.ld.write(ctx, b, &data).unwrap();
                    }
                }
                (6, Some(b)) if self.ld.write(ctx, b, &data).is_ok() => self.saw("overwrite"),
                (7..=8, Some(b)) if self.ld.delete_block(ctx, b).is_ok() => freed.0.push(b),
                (9, _) if members.len() < 4 && self.ld.delete_list(ctx, list).is_ok() => {
                    freed.0.extend(members);
                    freed.1.push(list);
                }
                _ => {}
            }
        }

        /// The deletions in `freed` are committed.
        fn settle(&mut self, freed: &mut (Vec<BlockId>, Vec<ListId>)) {
            for b in freed.0.drain(..) {
                self.saw("block deleted");
                self.freed_blocks.insert(b.get());
            }
            for l in freed.1.drain(..) {
                self.saw("list deleted");
                self.freed_lists.insert(l.get());
                self.lists.retain(|&x| x != l);
            }
        }

        /// A few operations: simple ones, or one ARU and its fate.
        fn unit(&mut self) {
            let fate = self.below(10);
            let aru = (fate >= 4).then(|| self.ld.begin_aru().unwrap());
            let ctx = aru.map_or(Ctx::Simple, Ctx::Aru);
            let mut freed = (Vec::new(), Vec::new());
            for _ in 0..1 + self.below(4) {
                self.op(ctx, &mut freed);
                if aru.is_none() {
                    self.settle(&mut freed);
                }
            }
            match (aru, fate) {
                (None, _) => {}
                (Some(aru), 4..=7) => {
                    self.saw("committed ARU");
                    if self.ld.end_aru(aru).is_ok() {
                        self.settle(&mut freed);
                    }
                }
                (Some(aru), 8) => {
                    self.saw("aborted ARU");
                    self.ld.abort_aru(aru).unwrap();
                }
                (Some(aru), _) => self.never_ended.push(aru),
            }
            if self.below(6) == 0 {
                self.ld.flush().unwrap(); // a partial segment
            }
        }
    }

    /// Replay of the log is the live application of the same records:
    /// the disk recovered from a flushed image is the disk that was
    /// flushed, at any shard count (docs/INVARIANTS.md).
    #[test]
    fn recovered_disk_equals_the_flushed_disk() {
        for seed in 1..=3u64 {
            let ld = Lld::format(MemDisk::new(DEVICE), &config(4)).unwrap();
            let mut h = History {
                ld: &ld,
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                lists: Vec::new(),
                freed_blocks: BTreeSet::new(),
                freed_lists: BTreeSet::new(),
                never_ended: Vec::new(),
                seen: BTreeMap::new(),
            };
            for _ in 0..150 {
                h.unit();
            }
            ld.checkpoint().unwrap();
            ld.run_cleaner().unwrap();
            assert!(ld.stats().blocks_relocated > 0, "the pass found nothing");
            let ckpt = ld.checkpoint_seq();
            // The format keeps allocator floors only: an identifier
            // freed before the checkpoint and not handed out again is
            // in no record behind it, and is not expected back.
            h.freed_blocks.clear();
            h.freed_lists.clear();
            for _ in 0..150 {
                h.unit();
            }
            ld.flush().unwrap();
            assert_eq!(ld.checkpoint_seq(), ckpt, "a checkpoint `freed_*` missed");
            assert!(!h.never_ended.is_empty());
            for what in [
                "committed ARU",
                "aborted ARU",
                "link at the front",
                "link after a predecessor",
                "overwrite",
                "block deleted",
                "list deleted",
                "block id reused",
                "list id reused",
            ] {
                assert!(h.seen.contains_key(what), "seed {seed}: no {what}");
            }

            let image = ld.device().snapshot();
            let live = view(&ld);
            assert!(live.blocks.len() > 20 && live.lists.len() > 2);
            assert!(
                live.blocks.values().any(|r| r.list.is_none()),
                "no orphan of an ARU that did not commit"
            );
            // The parent's rule for a free slot, on the live disk's
            // state: off the replayed chain, not the slot the tail
            // points into, no resident. (The live disk's own free set is
            // smaller: it waits for a cleaner pass to release a covered
            // slot that emptied.)
            let free_by_rule: BTreeSet<u32> = {
                let log = ld.log.lock();
                (0..ld.n_segments())
                    .filter(|&s| {
                        log.slot_seq[s as usize] <= ckpt
                            && log.residents[s as usize].is_empty()
                            && log.open_slot() != Some(s)
                    })
                    .collect()
            };

            for shards in [1usize, 8, 16] {
                let at = format!("seed {seed}, {shards} shards");
                let (rec, report) =
                    Lld::recover_with(MemDisk::from_image(image.clone()), &config(shards)).unwrap();
                assert_eq!(report.checkpoint_seq, ckpt, "{at}");
                assert_eq!(view(&rec), live, "{at}");
                assert_eq!(rec.log.lock().free_slots, free_by_rule, "{at}");

                let map = rec.read_view(0, rec.maps.all_set());
                for (i, sh) in map.shards_held().enumerate() {
                    assert!(sh.committed.is_empty(), "{at}: everything is persistent");
                    // Records land in their owning shard, and its
                    // allocators end past every identifier present.
                    for id in sh.persistent.blocks.keys().map(|b| b.get()) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: b{id}");
                        assert!(sh.next_block_raw > id, "{at}: b{id}");
                        assert!(!sh.free_blocks.contains(&id), "{at}: b{id} is allocated");
                    }
                    for id in sh.persistent.lists.keys().map(|l| l.get()) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: l{id}");
                        assert!(sh.next_list_raw > id, "{at}: l{id}");
                        assert!(!sh.free_lists.contains(&id), "{at}: l{id} is allocated");
                    }
                    for &id in sh.free_blocks.iter().chain(&sh.free_lists) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: free {id}");
                    }
                }
                for &id in &h.freed_blocks {
                    let sh = map.shard(rec.maps.shard_of(id));
                    assert!(sh.free_blocks.contains(&id), "{at}: b{id} was freed");
                    assert!(sh.next_block_raw > id, "{at}: b{id}");
                }
                for &id in &h.freed_lists {
                    let sh = map.shard(rec.maps.shard_of(id));
                    assert!(sh.free_lists.contains(&id), "{at}: l{id} was freed");
                    assert!(sh.next_list_raw > id, "{at}: l{id}");
                }
            }
        }
    }

    /// What the unit test of the deleted second state machine pinned,
    /// at the seam that replaced it.
    #[test]
    fn replay_record_keeps_the_free_sets() {
        let ld = Lld::format(MemDisk::new(DEVICE), &config(4)).unwrap();
        let ts = Timestamp::new;
        let seg = SegmentId::new(0);
        let list = ListId::new(1);
        let (b1, b2) = (BlockId::new(2), BlockId::new(3));
        let free_blocks = |m: &Mutation<'_, MemDisk>| -> Vec<u64> {
            let mut all: Vec<u64> = (m.map.shards_held())
                .flat_map(|s| s.free_blocks.iter().copied())
                .collect();
            all.sort_unstable();
            all
        };
        ld.with_mutation(|m| {
            m.replay_record(seg, &Record::NewList { list, ts: ts(1) }, None)?;
            for block in [b1, b2] {
                m.replay_record(seg, &Record::NewBlock { block, ts: ts(2) }, None)?;
            }
            for (block, pred) in [(b1, None), (b2, Some(b1))] {
                let link = Record::Link {
                    list,
                    block,
                    pred,
                    ts: ts(3),
                    aru: None,
                };
                m.replay_record(seg, &link, None)?;
            }
            assert_eq!(m.walk_list(StateRef::Committed, list)?, [b1, b2]);

            // A write to an unallocated block is corruption.
            let stray = Record::Write {
                block: BlockId::new(99),
                slot: 0,
                ts: ts(5),
                aru: None,
            };
            match m.replay_record(seg, &stray, None) {
                Err(LldError::Corrupt(msg)) => assert!(msg.contains("write to unallocated")),
                other => panic!("{other:?}"),
            }

            // So is an allocation the allocators cannot count on from
            // (`raw + shards`): the bound a checkpoint's rows keep.
            let past = [
                Record::NewBlock {
                    block: BlockId::new(u64::MAX - 1),
                    ts: ts(5),
                },
                Record::NewList {
                    list: ListId::new(MAX_RAW_ID + 1),
                    ts: ts(5),
                },
            ];
            for rec in &past {
                match m.replay_record(seg, rec, None) {
                    Err(LldError::Corrupt(msg)) => assert!(msg.contains("past the bound")),
                    other => panic!("{other:?}"),
                }
            }

            // Deleting the list frees its members' identifiers, until a
            // re-allocation takes one back out.
            let delete = Record::DeleteList {
                list,
                ts: ts(6),
                aru: None,
            };
            m.replay_record(seg, &delete, None)?;
            assert_eq!(free_blocks(m), [2, 3]);
            assert!(m.map.list_shard_mut(list).free_lists.contains(&1));
            m.replay_record(
                seg,
                &Record::NewBlock {
                    block: b1,
                    ts: ts(7),
                },
                None,
            )?;
            assert_eq!(free_blocks(m), [3]);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            (ld.allocated_block_count(), ld.allocated_list_count()),
            (1, 0)
        );
    }
}
