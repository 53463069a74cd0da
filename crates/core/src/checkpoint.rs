//! Checkpoints: bounded-time recovery and the cleaner's enabler.
//!
//! The paper's prototype reconstructs its tables purely by scanning
//! segment summaries. That works until the log wraps: once the cleaner
//! reuses a segment slot, the records that used to live there are gone,
//! so a pure scan no longer reconstructs the state. A checkpoint —
//! a snapshot of the block-number-map and list-table as of a log
//! sequence number — closes the gap: recovery loads the newest valid
//! checkpoint and replays only segments with larger sequence numbers,
//! and the cleaner only reuses slots whose sequence number the latest
//! checkpoint covers.
//!
//! # On-disk format (sharded; header as of format version 3)
//!
//! Each of the two alternating areas (A/B) holds one checkpoint as
//! *per-shard snapshot slabs* behind a header and a slab directory:
//!
//! ```text
//! area+0    header (64 B): magic u32, head link u32, covered seq, ts,
//!           floors, snap_shards, dir crc, n_dedup, dedup crc,
//!           head slot u32, header crc
//! area+64   directory (24 B per slab, space reserved for 64):
//!           n_blocks, n_lists, slab crc
//! area+64+1536  slab 0 | slab 1 | … (block entries then list entries)
//!               | dedup slab (32 B per write-id outcome)
//! ```
//!
//! Slab `i` holds the records of map shard `i` at checkpoint time (the
//! shard count is a runtime knob: recovery redistributes entries by id,
//! so an image checkpointed at 8 shards recovers at any count). Every
//! slab carries its own CRC, so recovery can load and verify slabs
//! independently.
//!
//! The header also records where the log continues past the covered
//! sequence number — the [`ChainHead`]: the slot segment `seq + 1` is
//! (or will be) in and the header CRC of segment `seq` — which is where
//! recovery starts its walk of the suffix (see `segment.rs`).
//!
//! Torn-write safety is header-last + A/B alternation: slabs are
//! written first, then the directory, then the header (all CRC'd), then
//! one flush. A crash anywhere mid-write leaves the header invalid (or
//! stale-but-consistent), and the *other* area still holds the previous
//! checkpoint.
//!
//! # Writers
//!
//! Two code paths write checkpoints, serialized by the [`CkptSlots`]
//! generation counter behind the `ckpt_io` leaf mutex:
//!
//! - [`Mutation::checkpoint_inner`] — the foreground full checkpoint:
//!   one full session, all slabs written in one critical section.
//! - [`LldInner::checkpoint_incremental`] — the background cleaner's
//!   path: a short full session chooses the covered sequence number and
//!   marks every shard `snap_pending`, then each slab is encoded under
//!   only *its* shard's write lock and written with no mapping-layer
//!   locks held. Foreground commits that would advance a pending
//!   shard's persistent tables first preserve them in `snap_copy`
//!   (copy-on-advance, see [`MapShard`](crate::shard::MapShard)), so
//!   every slab reflects exactly the covered point even though the
//!   shard kept moving. A full checkpoint completing mid-flight bumps
//!   the generation and the incremental writer aborts harmlessly.

use crate::error::{LldError, Result};
use crate::layout::{
    Layout, CKPT_BLOCK_ENTRY, CKPT_DEDUP_ENTRY, CKPT_DIR_ENTRY, CKPT_DIR_RESERVE, CKPT_HEADER,
    CKPT_LIST_ENTRY, MAX_SNAP_SHARDS,
};
use crate::lld::{LldInner, Mutation};
use crate::segment::ChainHead;
use crate::state::{BlockRecord, ListRecord, Tables};
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp};
use ld_disk::{crc32, BlockDevice};

const CKPT_MAGIC: u32 = 0x4C43_4B33; // "LCK3"

/// Checkpoint-area I/O state, behind the `ckpt_io` leaf mutex: the A/B
/// cursor and the generation counter serializing concurrent checkpoint
/// writers (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct CkptSlots {
    /// Write the next checkpoint to area B (the areas alternate).
    pub(crate) use_b: bool,
    /// Bumped once per *completed* checkpoint; an incremental writer
    /// snapshots it at begin and aborts if it moved.
    pub(crate) gen: u64,
}

/// Directory entry for one snapshot slab, with its absolute device
/// offset resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabInfo {
    /// Absolute device offset of the slab.
    pub(crate) offset: u64,
    /// Payload length in bytes, checked to lie inside the area.
    pub(crate) len: u64,
    pub(crate) n_blocks: u64,
    pub(crate) n_lists: u64,
    pub(crate) crc: u32,
}

/// A decoded checkpoint header + slab directory (slabs not yet read).
#[derive(Debug, Clone)]
pub(crate) struct CkptHeaderInfo {
    /// Highest segment sequence number whose effects are included.
    pub(crate) seq: u64,
    pub(crate) ts_counter: u64,
    pub(crate) block_floor: u64,
    pub(crate) list_floor: u64,
    /// Where the log continues past `seq`.
    pub(crate) head: ChainHead,
    pub(crate) slabs: Vec<SlabInfo>,
    /// Absolute device offset of the write-id dedup slab (directly
    /// after the last snapshot slab).
    pub(crate) dedup_off: u64,
    /// Number of 32-byte dedup entries.
    pub(crate) n_dedup: u64,
    pub(crate) dedup_crc: u32,
}

/// One decoded snapshot slab.
#[derive(Debug, Default)]
pub(crate) struct SlabData {
    pub(crate) blocks: Vec<(BlockId, BlockRecord)>,
    pub(crate) lists: Vec<(ListId, ListRecord)>,
}

#[allow(clippy::too_many_arguments)] // mirrors the fixed header layout field-for-field
fn encode_header(
    seq: u64,
    head: ChainHead,
    ts: u64,
    block_floor: u64,
    list_floor: u64,
    snap_shards: u32,
    dir_crc: u32,
    n_dedup: u32,
    dedup_crc: u32,
) -> [u8; CKPT_HEADER as usize] {
    let mut h = Vec::with_capacity(CKPT_HEADER as usize);
    h.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    h.extend_from_slice(&head.link.to_le_bytes());
    h.extend_from_slice(&seq.to_le_bytes());
    h.extend_from_slice(&ts.to_le_bytes());
    h.extend_from_slice(&block_floor.to_le_bytes());
    h.extend_from_slice(&list_floor.to_le_bytes());
    h.extend_from_slice(&snap_shards.to_le_bytes());
    h.extend_from_slice(&dir_crc.to_le_bytes());
    h.extend_from_slice(&n_dedup.to_le_bytes());
    h.extend_from_slice(&dedup_crc.to_le_bytes());
    h.extend_from_slice(&head.slot.to_le_bytes());
    let crc = crc32(&h);
    h.extend_from_slice(&crc.to_le_bytes());
    h.try_into().expect("header is CKPT_HEADER bytes")
}

/// Encodes one shard's persistent tables as a snapshot slab: every
/// block record (40 B each) then every list record (32 B each). Entry
/// order within a slab is unspecified (hash-map iteration); decoding
/// keys every entry by its identifier, so order never matters.
fn encode_slab(tables: &Tables) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        (tables.blocks.len() as u64 * CKPT_BLOCK_ENTRY
            + tables.lists.len() as u64 * CKPT_LIST_ENTRY) as usize,
    );
    for (id, r) in &tables.blocks {
        payload.extend_from_slice(&id.get().to_le_bytes());
        match r.addr {
            Some(a) => {
                payload.extend_from_slice(&a.segment.get().to_le_bytes());
                payload.extend_from_slice(&a.slot.to_le_bytes());
            }
            None => {
                payload.extend_from_slice(&u32::MAX.to_le_bytes());
                payload.extend_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        payload.extend_from_slice(&BlockId::encode_opt(r.successor).to_le_bytes());
        payload.extend_from_slice(&ListId::encode_opt(r.list).to_le_bytes());
        payload.extend_from_slice(&r.ts.get().to_le_bytes());
    }
    for (id, r) in &tables.lists {
        payload.extend_from_slice(&id.get().to_le_bytes());
        payload.extend_from_slice(&BlockId::encode_opt(r.first).to_le_bytes());
        payload.extend_from_slice(&BlockId::encode_opt(r.last).to_le_bytes());
        payload.extend_from_slice(&r.ts.get().to_le_bytes());
    }
    payload
}

fn encode_dir(dir: &[(u64, u64, u32)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(dir.len() * CKPT_DIR_ENTRY as usize);
    for &(nb, nl, crc) in dir {
        buf.extend_from_slice(&nb.to_le_bytes());
        buf.extend_from_slice(&nl.to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // padding
    }
    buf
}

impl<D: BlockDevice> LldInner<D> {
    /// Writes a checkpoint of the persistent state.
    ///
    /// Seals the current segment first (so the committed state becomes
    /// persistent and is included), then snapshots the tables into the
    /// alternate checkpoint area.
    ///
    /// # Errors
    ///
    /// Device errors; [`LldError::DiskFull`] if no segment slot is free
    /// for the next segment.
    pub fn checkpoint(&self) -> Result<()> {
        self.with_mutation(|m| m.checkpoint_inner())
    }
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// See [`LldInner::checkpoint`]; also called by the inline cleaner
    /// when its candidate segments are not yet covered.
    pub(crate) fn checkpoint_inner(&mut self) -> Result<()> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.seal_current()? && !self.log().free_slots.is_empty() {
            self.open_segment(0)?;
        }
        // A log-only seal (the flush leader) may have left committed
        // records undrained; every record in the overlay now belongs to
        // a sealed-or-current segment the checkpoint covers, so drain
        // them all before snapshotting the persistent tables.
        self.map.drain_committed();
        let (covered, head) = self.log().covered_point();

        // This full checkpoint supersedes any in-flight incremental
        // one: clear its per-shard snapshot state (the generation bump
        // below makes it abort before writing anything stale).
        let nshards = self.lld.maps.nshards();
        for i in 0..nshards {
            let sh = self.map.shard_mut(i);
            sh.snap_pending = false;
            sh.snap_copy = None;
        }

        // Encode one snapshot slab per shard, in shard order.
        let mut slabs: Vec<Vec<u8>> = Vec::with_capacity(nshards as usize);
        let mut dir: Vec<(u64, u64, u32)> = Vec::with_capacity(nshards as usize);
        let mut total = 0u64;
        for i in 0..nshards {
            let sh = self.map.shard(i);
            let slab = encode_slab(&sh.persistent);
            dir.push((
                sh.persistent.blocks.len() as u64,
                sh.persistent.lists.len() as u64,
                crc32(&slab),
            ));
            total += slab.len() as u64;
            slabs.push(slab);
        }
        // Snapshot the write-id dedup cache so a retried networked
        // commit still finds its recorded outcome after recovery from
        // this checkpoint. Lock order: full session (ARU slots, shards,
        // log) → dedup → ckpt_io leaf. The cache encoder truncates
        // oldest-first if the area budget is ever tight.
        let dedup_budget =
            self.lld
                .layout
                .ckpt_area_size
                .saturating_sub(CKPT_HEADER + CKPT_DIR_RESERVE + total) as usize;
        let dedup_bytes = self.lld.dedup.lock().encode(dedup_budget);
        let n_dedup = (dedup_bytes.len() as u64 / CKPT_DEDUP_ENTRY) as u32;
        let dedup_crc = crc32(&dedup_bytes);
        if CKPT_HEADER + CKPT_DIR_RESERVE + total + dedup_bytes.len() as u64
            > self.lld.layout.ckpt_area_size
        {
            return Err(LldError::Corrupt(
                "checkpoint exceeds its reserved area".into(),
            ));
        }
        // The stored allocator floors are global: the max over shards.
        // Recovery re-stripes them per shard with `striped_ceil` (the
        // shard count is a runtime knob, not persisted).
        let block_floor = self
            .map
            .shards_held()
            .map(|s| s.next_block_raw)
            .max()
            .unwrap_or(1);
        let list_floor = self
            .map
            .shards_held()
            .map(|s| s.next_list_raw)
            .max()
            .unwrap_or(1);
        let dir_bytes = encode_dir(&dir);
        let header = encode_header(
            covered,
            head,
            self.lld.now(),
            block_floor,
            list_floor,
            nshards,
            crc32(&dir_bytes),
            n_dedup,
            dedup_crc,
        );
        // Lock order: the log mutex is already held (taken above for
        // `covered`); `ckpt_io` is a leaf after it. Hold it across all
        // area writes so the incremental writer can never interleave.
        {
            let mut io = self.lld.ckpt_io.lock();
            let area = if io.use_b {
                self.lld.layout.ckpt_b
            } else {
                self.lld.layout.ckpt_a
            };
            let mut off = area + CKPT_HEADER + CKPT_DIR_RESERVE;
            for slab in &slabs {
                self.lld.device.write_at(off, slab)?;
                off += slab.len() as u64;
            }
            if !dedup_bytes.is_empty() {
                self.lld.device.write_at(off, &dedup_bytes)?;
            }
            self.lld.device.write_at(area + CKPT_HEADER, &dir_bytes)?;
            self.lld.device.write_at(area, &header)?;
            self.lld.device.flush()?;
            io.use_b = !io.use_b;
            io.gen += 1;
        }
        self.log().checkpoint_seq = covered;
        self.lld.stats.checkpoints.inc();
        self.lld.obs.event(
            self.lld.now(),
            crate::obs::TraceEvent::Checkpoint {
                covered_seq: covered,
                bytes: CKPT_HEADER + CKPT_DIR_RESERVE + total + dedup_bytes.len() as u64,
            },
        );
        Ok(())
    }
}

/// The in-flight state of one incremental (cleanerd) checkpoint.
struct IncrementalCkpt {
    covered: u64,
    head: ChainHead,
    ts: u64,
    block_floor: u64,
    list_floor: u64,
    /// Generation snapshotted at begin; any completed checkpoint bumps
    /// it, aborting this one.
    my_gen: u64,
    /// Absolute offset of the target area.
    area: u64,
    /// Next slab write offset, relative to the slab region.
    next_off: u64,
    dir: Vec<(u64, u64, u32)>,
}

impl<D: BlockDevice + 'static> LldInner<D> {
    /// Writes a checkpoint incrementally: the covered point is chosen
    /// in one short full session, then each shard's snapshot slab is
    /// encoded under only that shard's write lock and written with no
    /// mapping-layer locks held. Returns `false` if another checkpoint
    /// completed mid-flight and this one aborted (harmless: the other
    /// checkpoint is at least as fresh).
    ///
    /// Called by the background cleaner (`cleanerd`) so covering
    /// checkpoints stop being stop-the-world table dumps.
    pub(crate) fn checkpoint_incremental(&self) -> Result<bool> {
        let mut inc = match self.ckpt_inc_begin()? {
            Some(inc) => inc,
            None => return Ok(false),
        };
        for i in 0..self.maps.nshards() {
            match self.ckpt_inc_slab(&mut inc, i) {
                Ok(true) => {}
                Ok(false) => {
                    self.ckpt_inc_cleanup();
                    return Ok(false);
                }
                Err(e) => {
                    self.ckpt_inc_cleanup();
                    return Err(e);
                }
            }
        }
        match self.ckpt_inc_commit(&inc) {
            Ok(done) => Ok(done),
            Err(e) => {
                self.ckpt_inc_cleanup();
                Err(e)
            }
        }
    }

    /// Chooses the covered sequence number, floors, and target area,
    /// and marks every shard `snap_pending` (one full session).
    fn ckpt_inc_begin(&self) -> Result<Option<IncrementalCkpt>> {
        self.with_mutation(|m| {
            if m.seal_current()? && !m.log().free_slots.is_empty() {
                m.open_segment(0)?;
            }
            m.map.drain_committed();
            let (covered, head) = m.log().covered_point();
            let block_floor = m
                .map
                .shards_held()
                .map(|s| s.next_block_raw)
                .max()
                .unwrap_or(1);
            let list_floor = m
                .map
                .shards_held()
                .map(|s| s.next_list_raw)
                .max()
                .unwrap_or(1);
            for i in 0..self.maps.nshards() {
                let sh = m.map.shard_mut(i);
                sh.snap_pending = true;
                sh.snap_copy = None;
            }
            let ts = self.now();
            // Log mutex is held: `ckpt_io` is its leaf.
            let io = self.ckpt_io.lock();
            Ok(Some(IncrementalCkpt {
                covered,
                head,
                ts,
                block_floor,
                list_floor,
                my_gen: io.gen,
                area: if io.use_b {
                    self.layout.ckpt_b
                } else {
                    self.layout.ckpt_a
                },
                next_off: 0,
                dir: Vec::with_capacity(self.maps.nshards() as usize),
            }))
        })
    }

    /// Encodes and writes shard `i`'s snapshot slab. Returns `false` on
    /// a generation race (another checkpoint completed; abort).
    fn ckpt_inc_slab(&self, inc: &mut IncrementalCkpt, i: u32) -> Result<bool> {
        // Encode under only this shard's write lock: `snap_copy` (the
        // persistent tables as of the covered point, preserved by
        // copy-on-advance) when a drain has advanced the shard, the
        // live persistent tables otherwise.
        let (slab, nb, nl) = self.with_mutation_at(0, 1u64 << i, |m| {
            let sh = m.map.shard_mut(i);
            let snap = sh.snap_copy.take();
            sh.snap_pending = false;
            let tables = snap.as_ref().unwrap_or(&sh.persistent);
            (
                encode_slab(tables),
                tables.blocks.len() as u64,
                tables.lists.len() as u64,
            )
        });
        if CKPT_HEADER + CKPT_DIR_RESERVE + inc.next_off + slab.len() as u64
            > self.layout.ckpt_area_size
        {
            return Err(LldError::Corrupt(
                "checkpoint exceeds its reserved area".into(),
            ));
        }
        // No mapping-layer or log locks are held here; `ckpt_io` alone
        // serializes area access. Check the generation *under* it so a
        // completed full checkpoint can never be scribbled over.
        let io = self.ckpt_io.lock();
        if io.gen != inc.my_gen {
            return Ok(false);
        }
        self.device.write_at(
            inc.area + CKPT_HEADER + CKPT_DIR_RESERVE + inc.next_off,
            &slab,
        )?;
        drop(io);
        inc.dir.push((nb, nl, crc32(&slab)));
        inc.next_off += slab.len() as u64;
        Ok(true)
    }

    /// Writes the directory and header (header last), flushes, and
    /// publishes the new checkpoint. Returns `false` on a generation
    /// race.
    fn ckpt_inc_commit(&self, inc: &IncrementalCkpt) -> Result<bool> {
        let dir_bytes = encode_dir(&inc.dir);
        // Snapshot the dedup cache at commit time. Entries recorded
        // since `ckpt_inc_begin` belong to segments past the covered
        // point; recovery replays those segments and re-records the
        // same outcomes (idempotent), so a fresher slab is harmless.
        // Lock order: log → dedup → ckpt_io leaf.
        let dedup_budget =
            self.layout
                .ckpt_area_size
                .saturating_sub(CKPT_HEADER + CKPT_DIR_RESERVE + inc.next_off) as usize;
        let dedup_bytes = self.dedup.lock().encode(dedup_budget);
        let n_dedup = (dedup_bytes.len() as u64 / CKPT_DEDUP_ENTRY) as u32;
        let header = encode_header(
            inc.covered,
            inc.head,
            inc.ts,
            inc.block_floor,
            inc.list_floor,
            inc.dir.len() as u32,
            crc32(&dir_bytes),
            n_dedup,
            crc32(&dedup_bytes),
        );
        // Lock order: log before its `ckpt_io` leaf.
        let mut log = self.log.lock();
        let mut io = self.ckpt_io.lock();
        if io.gen != inc.my_gen {
            return Ok(false);
        }
        if !dedup_bytes.is_empty() {
            self.device.write_at(
                inc.area + CKPT_HEADER + CKPT_DIR_RESERVE + inc.next_off,
                &dedup_bytes,
            )?;
        }
        self.device.write_at(inc.area + CKPT_HEADER, &dir_bytes)?;
        self.device.write_at(inc.area, &header)?;
        self.device.flush()?;
        io.use_b = inc.area == self.layout.ckpt_a;
        io.gen += 1;
        drop(io);
        log.checkpoint_seq = inc.covered;
        drop(log);
        self.stats.checkpoints.inc();
        self.obs.event(
            self.now(),
            crate::obs::TraceEvent::Checkpoint {
                covered_seq: inc.covered,
                bytes: CKPT_HEADER + CKPT_DIR_RESERVE + inc.next_off,
            },
        );
        Ok(true)
    }

    /// Clears any leftover per-shard snapshot state after an abort or
    /// error (idempotent; one short scoped session per shard).
    fn ckpt_inc_cleanup(&self) {
        for i in 0..self.maps.nshards() {
            self.with_mutation_at(0, 1u64 << i, |m| {
                let sh = m.map.shard_mut(i);
                sh.snap_pending = false;
                sh.snap_copy = None;
            });
        }
    }
}

/// Reads and validates one area's header and slab directory, resolving
/// each slab's absolute offset. `None` if the area holds no valid
/// checkpoint (bad magic, CRC, or geometry).
pub(crate) fn read_header_dir<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    area: u64,
) -> Result<Option<CkptHeaderInfo>> {
    let mut header = [0u8; CKPT_HEADER as usize];
    device.read_at(area, &mut header)?;
    let stored = u32::from_le_bytes(header[60..64].try_into().expect("4 bytes"));
    if crc32(&header[..60]) != stored {
        return Ok(None);
    }
    let u32at = |p: usize| u32::from_le_bytes(header[p..p + 4].try_into().expect("4 bytes"));
    if u32at(0) != CKPT_MAGIC {
        return Ok(None);
    }
    let head = ChainHead {
        slot: u32at(56),
        link: u32at(4),
    };
    let seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let ts_counter = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let block_floor = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    let list_floor = u64::from_le_bytes(header[32..40].try_into().expect("8 bytes"));
    let snap_shards = u32at(40);
    let dir_crc = u32at(44);
    let n_dedup = u64::from(u32at(48));
    let dedup_crc = u32at(52);
    if snap_shards == 0 || u64::from(snap_shards) > MAX_SNAP_SHARDS {
        return Ok(None);
    }
    let mut dir_bytes = vec![0u8; snap_shards as usize * CKPT_DIR_ENTRY as usize];
    device.read_at(area + CKPT_HEADER, &mut dir_bytes)?;
    if crc32(&dir_bytes) != dir_crc {
        return Ok(None);
    }
    let mut slabs = Vec::with_capacity(snap_shards as usize);
    let mut off = area + CKPT_HEADER + CKPT_DIR_RESERVE;
    let end = area + layout.ckpt_area_size;
    for e in 0..snap_shards as usize {
        let p = e * CKPT_DIR_ENTRY as usize;
        let n_blocks = u64::from_le_bytes(dir_bytes[p..p + 8].try_into().expect("8 bytes"));
        let n_lists = u64::from_le_bytes(dir_bytes[p + 8..p + 16].try_into().expect("8 bytes"));
        let Some(len) = n_blocks
            .checked_mul(CKPT_BLOCK_ENTRY)
            .and_then(|b| b.checked_add(n_lists.checked_mul(CKPT_LIST_ENTRY)?))
        else {
            return Ok(None);
        };
        let Some(next) = off.checked_add(len) else {
            return Ok(None);
        };
        if next > end {
            return Ok(None);
        }
        slabs.push(SlabInfo {
            offset: off,
            len,
            n_blocks,
            n_lists,
            crc: u32::from_le_bytes(dir_bytes[p + 16..p + 20].try_into().expect("4 bytes")),
        });
        off = next;
    }
    let Some(dedup_end) = off.checked_add(n_dedup * CKPT_DEDUP_ENTRY) else {
        return Ok(None);
    };
    if dedup_end > end {
        return Ok(None);
    }
    Ok(Some(CkptHeaderInfo {
        seq,
        ts_counter,
        block_floor,
        list_floor,
        head,
        slabs,
        dedup_off: off,
        n_dedup,
        dedup_crc,
    }))
}

/// Reads and verifies the write-id dedup slab of a checkpoint whose
/// header was already validated. Returns the raw slab bytes (empty if
/// the checkpoint carries none); `None` on a CRC mismatch (the whole
/// area must then be considered invalid).
pub(crate) fn read_dedup_slab<D: BlockDevice>(
    device: &D,
    hdr: &CkptHeaderInfo,
) -> Result<Option<Vec<u8>>> {
    if hdr.n_dedup == 0 {
        return Ok(Some(Vec::new()));
    }
    let mut payload = vec![0u8; (hdr.n_dedup * CKPT_DEDUP_ENTRY) as usize];
    device.read_at(hdr.dedup_off, &mut payload)?;
    if crc32(&payload) != hdr.dedup_crc {
        return Ok(None);
    }
    Ok(Some(payload))
}

/// Reads and decodes one snapshot slab. `None` on a CRC mismatch (the
/// whole area must then be considered invalid).
///
/// # Errors
///
/// [`LldError::Corrupt`] on a zero identifier (a CRC-valid slab can
/// never contain one), or device errors.
pub(crate) fn decode_slab<D: BlockDevice + ?Sized>(
    device: &D,
    slab: &SlabInfo,
) -> Result<Option<SlabData>> {
    let mut payload = vec![0u8; slab.len as usize];
    device.read_at(slab.offset, &mut payload)?;
    if crc32(&payload) != slab.crc {
        return Ok(None);
    }
    let mut out = SlabData {
        blocks: Vec::with_capacity(slab.n_blocks as usize),
        lists: Vec::with_capacity(slab.n_lists as usize),
    };
    let mut pos = 0usize;
    let u64at =
        |buf: &[u8], p: usize| u64::from_le_bytes(buf[p..p + 8].try_into().expect("8 bytes"));
    let u32at =
        |buf: &[u8], p: usize| u32::from_le_bytes(buf[p..p + 4].try_into().expect("4 bytes"));
    for _ in 0..slab.n_blocks {
        let id = u64at(&payload, pos);
        let seg = u32at(&payload, pos + 8);
        let slot = u32at(&payload, pos + 12);
        let succ = u64at(&payload, pos + 16);
        let list = u64at(&payload, pos + 24);
        let ts = u64at(&payload, pos + 32);
        pos += CKPT_BLOCK_ENTRY as usize;
        if id == 0 {
            return Err(LldError::Corrupt("zero block id in checkpoint".into()));
        }
        out.blocks.push((
            BlockId::new(id),
            BlockRecord {
                allocated: true,
                addr: (seg != u32::MAX).then(|| PhysAddr {
                    segment: SegmentId::new(seg),
                    slot,
                }),
                successor: BlockId::decode_opt(succ),
                list: ListId::decode_opt(list),
                ts: Timestamp::new(ts),
            },
        ));
    }
    for _ in 0..slab.n_lists {
        let id = u64at(&payload, pos);
        let first = u64at(&payload, pos + 8);
        let last = u64at(&payload, pos + 16);
        let ts = u64at(&payload, pos + 24);
        pos += CKPT_LIST_ENTRY as usize;
        if id == 0 {
            return Err(LldError::Corrupt("zero list id in checkpoint".into()));
        }
        out.lists.push((
            ListId::new(id),
            ListRecord {
                allocated: true,
                first: BlockId::decode_opt(first),
                last: BlockId::decode_opt(last),
                ts: Timestamp::new(ts),
            },
        ));
    }
    Ok(Some(out))
}
