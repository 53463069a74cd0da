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
//! 1. **Snapshot load** — the newest valid checkpoint's body is read
//!    in one read and its per-shard slabs are CRC-checked; each row is
//!    unpacked and handed to a closure that enters it straight into its
//!    slot of its shard's persistent array, in one pass, and then every
//!    address into its slot's `residents`. A slab's rows come in
//!    identifier order, so the writes are sequential. No floor may pass
//!    [`MapId::bound`] and no row its floor: the arrays are sized by
//!    identifiers. The report splits the phase's time into the read,
//!    the checks, the rows and `residents`.
//! 2. **Scan** — the log's chain is walked from the checkpoint's
//!    [`ChainHead`] (the ends of slot 0, link 0 without one): a segment
//!    is accepted iff header CRC, sequence number and `prev_link` fit,
//!    and the first miss ends the log. A slot's headers and summaries
//!    sit in one run at its back ([`MetaRun`]): the walk probes one
//!    sector at the head, then reads the rest of the slot's run in one
//!    read sized from the first record's footprint, and parses every
//!    record from memory; a hop to another slot reads as much of its
//!    run as the slot before took. Whatever the device size; only a
//!    [`NO_SLOT`] hop probes every slot. Then the *unverified tail*:
//!    the segments above every watermark the accepted headers record
//!    are the only ones whose meta record may be on the device without
//!    their body, and each one's trailer is read, in log order; the
//!    first that does not hold its header's CRC ends the log there.
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
//!    each stripe of identifiers is what its array leaves
//!    ([`Tables::stripe`](crate::state::Tables::stripe)): the holes
//!    below its last identifier are free, and the next is the one past
//!    it. Then the consistency check runs.

use crate::aru::ListOp;
use crate::checkpoint::{self, CkptBody, CkptHeaderInfo, CkptSlots};
use crate::config::{LldConfig, MAX_MAP_SHARDS};
use crate::dedup::{ClientRows, MAX_CLIENTS};
use crate::error::{LldError, Result};
use crate::layout::Layout;
use crate::lld::{Lld, LldInner, Mutation, StateRef};
use crate::obs::{recovery_trace, Obs, Stage, StageGuard};
use crate::record::flat_record;
use crate::segment::{body_landed, valid_head, ChainHead, MetaRun, SegmentHeader, NO_SLOT};
use crate::state::{BlockRecord, ListRecord, MapId};
use crate::summary::Record;
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp};
use ld_disk::BlockDevice;
use std::collections::BTreeMap;
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
        /// Positions (the back of a slot, or the sector below a meta
        /// record) whose header the scan phase examined.
        segments_scanned: u32,
        /// Device reads of the scan phase: metadata runs and trailers.
        scan_reads: u32,
        /// Valid segments replayed (sequence numbers above the checkpoint).
        segments_replayed: u32,
        /// 1 if the log ends at a header that links on but whose summary
        /// fails its checksum, or whose body's trailer does not hold its
        /// CRC: a seal torn by the crash, treated as never written.
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
        /// directory, slabs and dedup table (0 = no checkpoint).
        snapshot_bytes: u64,
        /// Wall time of the snapshot-load phase.
        snapshot_load_ns: u64,
        /// Of that, the device reads of checkpoint bodies.
        snapshot_read_ns: u64,
        /// Of that, the checks of the bodies read: directory, slab and
        /// dedup-table CRCs and column descriptors.
        snapshot_check_ns: u64,
        /// Of that, the rows decoded into the tables: the client rows,
        /// the arrays sized and every slab row entered.
        snapshot_rows_ns: u64,
        /// Of that, the blocks entered in their slots' `residents`.
        snapshot_residents_ns: u64,
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
    records: Vec<Record>,
    /// Its header — the slot, and the sectors of its data area, which
    /// are what its `Write` records may name — and where the walk found
    /// it.
    header: SegmentHeader,
    at: ChainHead,
    /// Whether its body landed, where a read of metadata held its
    /// trailer.
    landed: Option<bool>,
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
        let slot = seg.header.slot;
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
                let area = &seg.header.data_sectors();
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

/// Sectors a read of metadata takes along, below the data frontier, to
/// hold the trailer of the segment in front of it: a read's access time
/// (100 µs on the modelled device) buys about ten sectors of transfer.
const TRAILER_REACH: u32 = 8;

/// What the scan has read of the slot it is in, and how many reads it
/// took.
struct RunReader<'a, D> {
    device: &'a D,
    layout: &'a Layout,
    run: Option<MetaRun>,
    reads: u32,
}

impl<D: BlockDevice> RunReader<'_, D> {
    /// Makes the run hold sectors `need` of `slot` with one device
    /// read, if it does not: it extends what it holds of the slot down,
    /// else reads anew up to `need`'s end. The read reaches down to
    /// `want` if that is lower — the rest of the slot's run, as the walk
    /// guesses it — and an extension to twice what is held at least,
    /// but never below `floor`, the data frontier: except to the
    /// trailer's sector right below it, where that costs less transfer
    /// than a read of its own would take.
    fn fetch(&mut self, slot: u32, need: (u32, u32), want: u32, floor: u32) -> Result<&MetaRun> {
        let (device, layout) = (self.device, self.layout);
        let low = |lo: u32| match lo - floor < TRAILER_REACH {
            true => floor.saturating_sub(1),
            false => lo,
        };
        match &mut self.run {
            Some(r) if r.holds(slot, need) => {}
            Some(r) if r.reaches(slot, need.1) => {
                let (lo, hi) = r.sectors();
                let doubled = hi.saturating_sub(2 * (hi - lo));
                let lo = need.0.min(want).min(doubled).max(floor);
                r.extend_down(device, layout, low(lo))?;
                self.reads += 1;
            }
            run => {
                let lo = need.0.min(want).max(floor);
                *run = Some(MetaRun::read(device, layout, slot, (low(lo), need.1))?);
                self.reads += 1;
            }
        }
        Ok(self.run.as_ref().expect("fetched"))
    }
}

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
        let op = match *rec {
            Record::NewBlock { block, .. } => return self.replay_alloc(block, ts, corrupt),
            Record::NewList { list, .. } => return self.replay_alloc(list, ts, corrupt),
            Record::Write { block, slot, .. } => {
                let addr = PhysAddr::from_extent(seg, slot);
                let r = (self.rec_mut(StateRef::Committed, block).ok())
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
            // rebuild the client rows, not the maps).
            Record::WriteId { .. } => {
                return Err(corrupt(
                    "write-id record escaped commit interception".into(),
                ))
            }
        };
        let (mut blocks, mut lists) = (Vec::new(), Vec::new());
        self.apply_list_op(StateRef::Committed, &op, ts, &mut blocks, &mut lists)
            .map_err(|e| corrupt(e.to_string()))?;
        self.release_ids(blocks);
        self.release_ids(lists);
        Ok(())
    }

    /// A replayed allocation: the identifier the log names leaves its
    /// stripe, and the live path's fresh committed record is entered.
    fn replay_alloc<I: MapId>(
        &mut self,
        id: I,
        ts: Timestamp,
        corrupt: impl Fn(String) -> LldError,
    ) -> Result<()> {
        if id.raw() >= I::bound(&self.lld.layout) {
            return Err(corrupt(format!("allocation of {id}, past the bound")));
        }
        if self.map.committed_view(id).is_some_and(I::allocated) {
            return Err(corrupt(format!("allocation of {id}, already allocated")));
        }
        // No cap on the reservations: the writer checked it, and a
        // sequential ARU's deletions replay later than they ran (at its
        // commit record), so the count may pass the cap on the way.
        self.lld.maps.try_reserve::<I>(u64::MAX)?;
        let stripe = u64::from(self.lld.maps.nshards());
        I::stripe(self.map.owner_mut(id)).note(id.raw(), stripe);
        self.enter_fresh(id, ts);
        Ok(())
    }

    /// Phases 1–3 and the log state of phase 4, in the full session
    /// over an empty disk's state that [`Lld::recover`] opens. Each
    /// phase is a stage of `trace` on the disk's `obs`; the finalize
    /// stage is left open in `finalize`, for the caller to end after
    /// the post-recovery check.
    fn rebuild<'o>(
        &mut self,
        front: &[u8],
        obs: &'o Obs,
        trace: u64,
        report: &mut RecoveryReport,
        finalize: &mut Option<StageGuard<'o>>,
    ) -> Result<()> {
        let lld = self.lld;
        let (device, layout) = (&lld.device, &lld.layout);
        let n = layout.n_segments as usize;
        let nshards = lld.maps.nshards();

        // ---- Phase 1: load the newest valid checkpoint's slabs -------
        let load = obs.stage(0, trace, Stage::RecoverySnapshotLoad);
        // Both headers came with the superblock, in one read.
        let mut cands: Vec<(CkptHeaderInfo, bool)> =
            [(layout.ckpt_a, true), (layout.ckpt_b, false)]
                .into_iter()
                .filter_map(|(area, is_a)| {
                    Some((checkpoint::parse_header(front, layout, area)?, is_a))
                })
                .collect();
        // Newest first; area A wins a sequence tie (stable sort).
        cands.sort_by_key(|(h, _)| std::cmp::Reverse(h.seq));

        let mut ckpt_seq = 0u64;
        // Without a checkpoint: where `LogState::fresh` starts the log.
        let mut head = ChainHead {
            slot: 0,
            base: 0,
            top: layout.sectors_per_slot(),
            link: 0,
        };
        let mut ts_floor = 0u64;
        let mut dedup = None;
        // Each part of the load adds its wall time to its field.
        let mut lap = Instant::now();
        let mut part = |field: &mut u64| {
            let now = Instant::now();
            *field += now.saturating_duration_since(lap).as_nanos() as u64;
            lap = now;
        };
        for (hdr, is_a) in cands {
            // Directory, slabs and dedup table lie back to back: one
            // device read.
            let body = hdr.read_body(device)?;
            part(&mut report.snapshot_read_ns);
            // Every checksum and descriptor before a row is entered: a
            // torn area leaves the tables empty for the other one.
            let opened = hdr.open(&body, layout);
            part(&mut report.snapshot_check_ns);
            let Some(CkptBody { slabs, dedup: seed }) = opened else {
                continue;
            };
            // Each table is an array indexed by identifier: every row
            // lies below its floor, and no floor past what an allocator
            // hands out.
            let (floors, bounds) = (
                (hdr.block_floor, hdr.list_floor),
                (BlockId::bound(layout), ListId::bound(layout)),
            );
            if floors.0 > bounds.0 || floors.1 > bounds.1 {
                return Err(LldError::Corrupt(format!(
                    "checkpoint's allocator floors {floors:?} pass the bounds {bounds:?}"
                )));
            }
            dedup = Some(ClientRows::decode(&seed)?);
            ckpt_seq = hdr.seq;
            head = hdr.head;
            ts_floor = hdr.ts_counter;
            *lld.ckpt_io.lock() = CkptSlots { use_b: is_a };
            report.snap_shards = slabs.len() as u32;
            report.snapshot_bytes = hdr.bytes();
            for i in 0..nshards {
                let tables = &mut self.map.shard_mut(i).persistent;
                tables.reserve::<BlockId>(floors.0);
                tables.reserve::<ListId>(floors.1);
            }
            // A row at or past its floor, or in a slot already full.
            let refuse = |id: &dyn std::fmt::Display, floor: u64| {
                LldError::Corrupt(format!(
                    "checkpoint holds {id} twice, or at its floor {floor}"
                ))
            };
            // A slot's `residents` is sized once, for every row the slabs
            // place in it, and filled after the last slab; the directory
            // counts the rows (at most the layout's cap).
            let n_blocks = slabs.iter().map(|s| s.n_blocks).sum::<u64>();
            let mut placed: Vec<(BlockId, PhysAddr)> = Vec::with_capacity(n_blocks as usize);
            let mut per_slot = vec![0usize; layout.n_segments as usize];
            let (maps, map) = (&lld.maps, &mut self.map);
            for slab in &slabs {
                (maps.allocated_blocks).fetch_add(slab.n_blocks, Ordering::Relaxed);
                (maps.allocated_lists).fetch_add(slab.n_lists, Ordering::Relaxed);
                slab.each_block(|id, rec| {
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
                    let tables = &mut map.owner_mut(id).persistent;
                    if id.get() >= floors.0 || tables.insert(id, rec).is_some() {
                        return Err(refuse(&id, floors.0));
                    }
                    Ok(())
                })?;
                slab.each_list(|id, rec| {
                    ts_floor = ts_floor.max(rec.ts.get());
                    let tables = &mut map.owner_mut(id).persistent;
                    if id.get() >= floors.1 || tables.insert(id, rec).is_some() {
                        return Err(refuse(&id, floors.1));
                    }
                    Ok(())
                })?;
            }
            part(&mut report.snapshot_rows_ns);
            let log = self.log();
            for (set, n) in log.residents.iter_mut().zip(per_slot) {
                set.reserve(n);
            }
            for (id, a) in placed {
                log.add_resident(id, a);
            }
            part(&mut report.snapshot_residents_ns);
            break;
        }
        // A head where no writer starts a segment would open one that
        // can take nothing.
        let slot_sectors = layout.sectors_per_slot();
        let block_sectors = layout.sectors_per_block();
        if head.slot != NO_SLOT
            && (head.top > slot_sectors || !valid_head(block_sectors, head.base, head.top))
        {
            return Err(LldError::Corrupt(format!(
                "checkpoint's log head is sectors {}..{} of a {slot_sectors}-sector slot",
                head.base, head.top
            )));
        }
        report.checkpoint_seq = ckpt_seq;
        report.snapshot_load_ns = load.end();

        // ---- Phase 2: walk the chain from the checkpoint's head -----
        let scan = obs.stage(0, trace, Stage::RecoveryScan);
        let mut chain: Vec<ChainSegment> = Vec::new();
        let mut reader = RunReader {
            device,
            layout,
            run: None,
            reads: 0,
        };
        // The first read in a slot: one sector at the checkpoint's head,
        // as much as the slot before took behind a hop.
        let mut first_read = 1u32;
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
                // Sealed while nothing was free: the log went on at the
                // back of whatever slot came up.
                NO_SLOT => {
                    let mut found = None;
                    let at = (0, slot_sectors);
                    for slot in 0..layout.n_segments {
                        report.segments_scanned += 1;
                        let probe = reader.fetch(slot, (at.1 - 1, at.1), at.1, 0)?;
                        found = probe.header(layout, at).filter(links_on);
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
                    let want = match chain.last() {
                        Some(prev) if prev.header.slot.get() == s => prev.header.run_estimate(),
                        _ => head.top.saturating_sub(first_read),
                    };
                    let need = (head.top - 1, head.top);
                    let run = reader.fetch(s, need, want, head.base)?;
                    if let Some(prev) = chain.last_mut() {
                        prev.landed = prev.landed.or(run.body_landed(&prev.header));
                    }
                    run.header(layout, (head.base, head.top)).filter(links_on)
                }
            };
            let Some(h) = found else { break };
            let s = h.slot.get();
            // The records below it, and the rest of the slot's run with
            // them if it is like this segment.
            let floor = h.data_sectors().end + 1;
            let run = reader.fetch(s, h.meta_range(), h.run_estimate(), floor)?;
            let Some(records) = run.records(&h)? else {
                report.torn_tails_detected += 1;
                break;
            };
            let landed = run.body_landed(&h);
            if h.next.slot != s {
                // The slot's whole run: what the next slot's first read
                // takes.
                first_read = slot_sectors - h.meta_range().0;
            }
            chain.push(ChainSegment {
                records,
                header: h,
                at: head,
                landed,
            });
            head = h.next;
        }
        report.scan_reads = reader.reads;
        // The unverified tail: a segment no accepted header's watermark
        // covers may have its meta record on the device without its
        // body. Its trailer says; the first that does not ends the log.
        let covered = (chain.iter().map(|c| c.header.covered)).fold(ckpt_seq, u64::max);
        let unverified = chain.iter().position(|c| c.header.seq > covered);
        for i in unverified.into_iter().flat_map(|i| i..chain.len()) {
            let landed = match chain[i].landed {
                Some(landed) => landed,
                None => {
                    report.scan_reads += 1;
                    body_landed(device, layout, &chain[i].header)?
                }
            };
            if !landed {
                report.torn_tails_detected += 1;
                head = chain[i].at;
                chain.truncate(i);
                break;
            }
        }
        let mut slot_seq = vec![0u64; n];
        let mut suffix_summary = 0u64;
        for c in &chain {
            suffix_summary += c.records.iter().map(Record::suffix_weight).sum::<u64>();
            slot_seq[c.header.slot.get() as usize] = c.header.seq;
        }
        report.scan_ns = scan.end();

        // ---- Phase 3: replay the chain above the checkpoint ----------
        let replay = obs.stage(0, trace, Stage::RecoveryReplay);
        let mut ts_max = 0u64;
        // Rebuild the client rows: seeded from the checkpoint's dedup
        // table, then moved by every committed ARU's `WriteId` record
        // during replay (they carry no mapping effects). A row only
        // moves forward, so a record the table already holds is
        // harmless.
        let mut dedup = dedup.unwrap_or_default();
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
                    dedup.complete(client, generation, write_id, cts.unwrap_or(ts));
                    continue;
                }
                self.replay_record(*seg, rec, cts)?;
            }
            Ok(())
        })?;
        drop(chain);
        // No writer makes a row for a client past the bound.
        if dedup.len() > MAX_CLIENTS {
            return Err(LldError::Corrupt(
                "write-id records of too many clients".into(),
            ));
        }
        *lld.dedup.lock() = dedup;
        lld.ts_counter
            .store(ts_floor.max(ts_max), Ordering::Relaxed);
        report.replay_ns = replay.end();

        // ---- Phase 4: the log behind the chain -----------------------
        *finalize = Some(obs.stage(0, trace, Stage::RecoveryFinalize));
        // Everything replayed is persistent. The drain keeps the newer
        // of two versions: the replayed one, in every log a writer
        // produced. A timestamp that runs backwards would have it keep
        // half of an operation (a list that still points at a block the
        // other half removed).
        for sh in self.map.shards_held() {
            let (new, old) = (&sh.committed, &sh.persistent);
            let block =
                |(&id, r): (&BlockId, &BlockRecord)| old.get(id).is_some_and(|p| r.ts < p.ts);
            let list = |(&id, r): (&ListId, &ListRecord)| old.get(id).is_some_and(|p| r.ts < p.ts);
            if new.blocks.iter().any(block) || new.lists.iter().any(list) {
                return Err(LldError::Corrupt(
                    "a replayed record is older than the checkpoint's version of what it changes"
                        .into(),
                ));
            }
        }
        self.map.drain_committed();
        for i in 0..nshards {
            let sh = self.map.shard_mut(i);
            sh.block_ids = sh.persistent.stripe::<BlockId>();
            sh.list_ids = sh.persistent.stripe::<ListId>();
        }
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
        self.open_segment_if_free(0)
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
        let ((layout, concurrency, visibility), front) = LldInner::read_front(&device)?;
        let config = LldConfig {
            block_size: layout.block_size,
            segment_bytes: layout.segment_bytes,
            concurrency,
            visibility,
            ..LldConfig::default()
        };
        Self::recover_inner(device, layout, config, &front)
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
        let ((layout, _, _), front) = LldInner::read_front(&device)?;
        Self::recover_inner(device, layout, config.clone(), &front)
    }

    /// `front` is what [`LldInner::read_front`] read: the superblock and
    /// both checkpoint headers.
    fn recover_inner(
        device: D,
        layout: Layout,
        config: LldConfig,
        front: &[u8],
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
        let mut finalize = None;
        let obs = &ld.obs;
        ld.with_mutation(|m| m.rebuild(front, obs, trace, &mut report, &mut finalize))?;

        if config.check_on_recovery {
            let check = ld.check()?;
            report.orphan_blocks_freed = check.orphan_blocks_freed.len();
        }
        report.finalize_ns = finalize.map_or(0, StageGuard::end);
        ld.obs.recovery_done(ld.now(), &report);
        crate::cleanerd::spawn_if_configured(&ld);
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
        // `run_cleaner` call, on the caller's thread (no thread writes a
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
            let held = sh.persistent.iter::<BlockId>().map(|(id, _)| id);
            for id in held.chain(sh.committed.blocks.keys().copied()) {
                if let Some(r) = map.committed_view(id).filter(|r| r.allocated) {
                    blocks.insert(id, r.clone());
                }
            }
            let held = sh.persistent.iter::<ListId>().map(|(id, _)| id);
            for id in held.chain(sh.committed.lists.keys().copied()) {
                if let Some(r) = map.committed_view(id).filter(|r| r.allocated) {
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
            for _ in 0..150 {
                h.unit();
            }
            ld.flush().unwrap();
            assert_eq!(
                ld.checkpoint_seq(),
                ckpt,
                "a checkpoint the history did not take"
            );
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
                    for id in sh.persistent.iter::<BlockId>().map(|(b, _)| b.get()) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: b{id}");
                        assert!(sh.block_ids.next_raw > id, "{at}: b{id}");
                        assert!(!sh.block_ids.free.contains(&id), "{at}: b{id} is allocated");
                    }
                    for id in sh.persistent.iter::<ListId>().map(|(l, _)| l.get()) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: l{id}");
                        assert!(sh.list_ids.next_raw > id, "{at}: l{id}");
                        assert!(!sh.list_ids.free.contains(&id), "{at}: l{id} is allocated");
                    }
                    for &id in sh.block_ids.free.iter().chain(&sh.list_ids.free) {
                        assert_eq!(rec.maps.shard_of(id) as usize, i, "{at}: free {id}");
                    }
                }
                // Every identifier freed, before the checkpoint or
                // after it, comes back: it is free, or past the last one
                // held and so next in its stripe or behind the next.
                for &id in &h.freed_blocks {
                    let sh = map.try_shard(rec.maps.shard_of(id)).unwrap();
                    let back = sh.block_ids.free.contains(&id) || sh.block_ids.next_raw <= id;
                    assert!(back, "{at}: b{id} was freed");
                }
                for &id in &h.freed_lists {
                    let sh = map.try_shard(rec.maps.shard_of(id)).unwrap();
                    let back = sh.list_ids.free.contains(&id) || sh.list_ids.next_raw <= id;
                    assert!(back, "{at}: l{id} was freed");
                }
            }
        }
    }

    /// The snapshot load says where its time went: its four parts — the
    /// body's read, its checks, the rows into the tables, the
    /// `residents` index — are disjoint stretches of it, so they add up
    /// to no more than the load, and they cover at least nine tenths of
    /// it (the header parse and the floor and head checks are the rest).
    /// The best of five restarts is held to the cover, so that the test
    /// runner's threads preempting one does not fail it.
    #[test]
    fn the_snapshot_load_is_itemised() {
        let cfg = LldConfig {
            max_blocks: None,
            max_lists: None,
            ..config(8)
        };
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
        for _ in 0..200 {
            let list = ld.new_list(Ctx::Simple).unwrap();
            for _ in 0..10 {
                let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
                ld.write(Ctx::Simple, b, &[1; BS]).unwrap();
            }
        }
        ld.checkpoint().unwrap();
        ld.flush().unwrap();
        let image = ld.device().snapshot();
        let cover = (0..5).map(|_| {
            let disk = MemDisk::from_image(image.clone());
            let (_, r) = Lld::recover_with(disk, &cfg).unwrap();
            assert_eq!(r.snap_shards, 8);
            let parts = [
                r.snapshot_read_ns,
                r.snapshot_check_ns,
                r.snapshot_rows_ns,
                r.snapshot_residents_ns,
            ];
            assert!(parts.iter().all(|&ns| ns > 0), "{r:?}");
            let sum: u64 = parts.iter().sum();
            assert!(sum <= r.snapshot_load_ns, "{r:?}");
            sum as f64 / r.snapshot_load_ns as f64
        });
        let best = cover.fold(0.0, f64::max);
        assert!(best >= 0.9, "the parts cover {best:.3} of the load");
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
                .flat_map(|s| s.block_ids.free.iter().copied())
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

            // So is an allocation at or past the bound no allocator
            // passes, which sizes the arrays; and one of an identifier
            // that is live, of either kind.
            let bad = [
                (
                    Record::NewBlock {
                        block: BlockId::new(u64::MAX - 1),
                        ts: ts(5),
                    },
                    "past the bound",
                ),
                (
                    Record::NewList {
                        list: ListId::new(ListId::bound(&ld.layout)),
                        ts: ts(5),
                    },
                    "past the bound",
                ),
                (
                    Record::NewBlock {
                        block: b2,
                        ts: ts(5),
                    },
                    "already allocated",
                ),
                (Record::NewList { list, ts: ts(5) }, "already allocated"),
            ];
            for (rec, why) in &bad {
                match m.replay_record(seg, rec, None) {
                    Err(LldError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
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
            assert!(m.map.owner_mut(list).list_ids.free.contains(&1));
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
