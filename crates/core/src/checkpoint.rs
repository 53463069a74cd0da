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
//! # On-disk format (sharded; header as of format version 4)
//!
//! Each of the two alternating areas (A/B) holds one checkpoint as
//! *per-shard snapshot slabs* behind a header and a slab directory:
//!
//! ```text
//! area+0    header (68 B): magic u32, head link u32, covered seq, ts,
//!           floors, snap_shards, dir crc, n_dedup, dedup crc,
//!           head slot u32, head base u32, header crc
//! area+68   directory (24 B per slab, space reserved for 64):
//!           n_blocks, n_lists, slab crc
//! area+68+1536  slab 0 | slab 1 | … (block entries then list entries)
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
//! sequence number — the [`ChainHead`]: the slot and the block in it
//! where segment `seq + 1` is (or will be), and the header CRC of
//! segment `seq` — which is where recovery starts its walk of the
//! suffix (see `segment.rs`).
//!
//! Torn-write safety is header-last + A/B alternation: slabs are
//! written first, then the directory, then the header (all CRC'd), then
//! one flush. A crash anywhere mid-write leaves the header invalid (or
//! stale-but-consistent), and the *other* area still holds the previous
//! checkpoint.
//!
//! # The writer
//!
//! One writer, in three steps; `ckpt_io` (a leaf mutex) guards the A/B
//! cursor and a generation counter that says who owns the inactive
//! area:
//!
//! 1. *begin* ([`Mutation::ckpt_begin`], in a full session) pins what
//!    the checkpoint covers, marks every shard `snap_pending` and bumps
//!    the generation: the latest beginner owns the area, and any other
//!    writer aborts at its next step.
//! 2. *slab*, once per shard: [`Mutation::snapshot_slab`] encodes the
//!    shard's tables as of the covered point under that shard's write
//!    lock, [`LldInner::ckpt_slab`] writes them.
//! 3. *commit* ([`LldInner::ckpt_commit`], holding the log mutex):
//!    dedup slab, directory, header last, one flush, publish.
//!
//! The foreground checkpoint ([`Mutation::checkpoint_inner`]) runs every
//! step inside the caller's full session. The background cleaner's
//! ([`LldInner::checkpoint_incremental`]) holds a full session only for
//! *begin*; each slab is then encoded under only *its* shard's lock and
//! written with no mapping-layer lock held. Foreground commits that
//! would advance a pending shard's persistent tables first preserve
//! them in `snap_copy` (copy-on-advance, see
//! [`MapShard`](crate::shard::MapShard)), so every slab reflects
//! exactly the covered point even though the shard kept moving.

use crate::error::{LldError, Result};
use crate::layout::{
    u32_at, u64_at, Layout, CKPT_BLOCK_ENTRY, CKPT_DEDUP_ENTRY, CKPT_DIR_ENTRY, CKPT_DIR_RESERVE,
    CKPT_HEADER, CKPT_LIST_ENTRY, MAX_SNAP_SHARDS,
};
use crate::lld::{LldInner, LogState, Mutation};
use crate::segment::ChainHead;
use crate::state::{BlockRecord, ListRecord, Tables};
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp};
use ld_disk::{crc32, BlockDevice};
use std::sync::atomic::Ordering;

const CKPT_MAGIC: u32 = 0x4C43_4B34; // "LCK4"

/// Checkpoint-area I/O state, behind the `ckpt_io` leaf mutex (see the
/// module docs).
#[derive(Debug, Default)]
pub(crate) struct CkptSlots {
    /// Write the next checkpoint to area B (the areas alternate).
    pub(crate) use_b: bool,
    /// Bumped by every writer's *begin*; a writer whose generation is
    /// no longer current aborts before it writes anything more.
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

/// One checkpoint being written: what *begin* pinned, and what the slab
/// steps have put into the area so far.
struct CkptWrite {
    covered: u64,
    /// [`LogState::summary_sealed`] at the covered point.
    covered_summary: u64,
    head: ChainHead,
    ts: u64,
    /// Global allocator floors (the max over shards); recovery
    /// re-stripes them per shard with `striped_ceil`, since the shard
    /// count is not persisted.
    block_floor: u64,
    list_floor: u64,
    /// The generation this writer's *begin* set.
    gen: u64,
    /// Absolute offset of the target area.
    area: u64,
    /// Offset of the next slab, relative to the area.
    end: u64,
    /// The directory so far: per slab written its block count, list
    /// count, CRC and 4 bytes of padding.
    dir: Vec<u8>,
}

impl CkptWrite {
    fn encode_header(&self, n_dedup: u32, dedup_crc: u32) -> Vec<u8> {
        let mut h = Vec::with_capacity(CKPT_HEADER as usize);
        h.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        h.extend_from_slice(&self.head.link.to_le_bytes());
        h.extend_from_slice(&self.covered.to_le_bytes());
        h.extend_from_slice(&self.ts.to_le_bytes());
        h.extend_from_slice(&self.block_floor.to_le_bytes());
        h.extend_from_slice(&self.list_floor.to_le_bytes());
        h.extend_from_slice(&((self.dir.len() as u64 / CKPT_DIR_ENTRY) as u32).to_le_bytes());
        h.extend_from_slice(&crc32(&self.dir).to_le_bytes());
        h.extend_from_slice(&n_dedup.to_le_bytes());
        h.extend_from_slice(&dedup_crc.to_le_bytes());
        h.extend_from_slice(&self.head.slot.to_le_bytes());
        h.extend_from_slice(&self.head.base.to_le_bytes());
        let crc = crc32(&h);
        h.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(h.len() as u64, CKPT_HEADER);
        h
    }
}

/// One shard's tables as of the covered point, encoded: every block
/// record (40 B each) then every list record (32 B each). Entry order
/// within a slab is unspecified (hash-map iteration); decoding keys
/// every entry by its identifier, so order never matters.
struct Slab {
    bytes: Vec<u8>,
    n_blocks: u64,
    n_lists: u64,
}

fn encode_slab(tables: &Tables) -> Slab {
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
    Slab {
        bytes: payload,
        n_blocks: tables.blocks.len() as u64,
        n_lists: tables.lists.len() as u64,
    }
}

fn area_overflow() -> LldError {
    LldError::Corrupt("checkpoint exceeds its reserved area".into())
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// Writes a checkpoint with every step inside this full session;
    /// see [`LldInner::checkpoint`]. Also called by the inline cleaner
    /// when its candidate segments are not yet covered.
    pub(crate) fn checkpoint_inner(&mut self) -> Result<()> {
        let lld = self.lld;
        let mut w = self.ckpt_begin()?;
        // Every slab is taken before one is written, so an error below
        // leaves no shard pending. Nobody else can begin while this
        // session holds every shard, so no step can find the generation
        // moved.
        let slabs: Vec<Slab> = (0..lld.maps.nshards())
            .map(|i| self.snapshot_slab(i))
            .collect();
        for slab in slabs {
            lld.ckpt_slab(&mut w, slab)?;
        }
        lld.ckpt_commit(&w, self.log())?;
        Ok(())
    }

    /// Step 1, *begin*: seals the current segment (so the committed
    /// state becomes persistent and is included), pins what the
    /// checkpoint covers, and takes the inactive area. Needs a full
    /// session. If the next segment needs a fresh slot, it is opened
    /// only if that leaves the last one free (else by whoever appends
    /// next, under its own reserve; the cleaners' relocation has none).
    fn ckpt_begin(&mut self) -> Result<CkptWrite> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.seal_current()? && self.log().builder.is_none() {
            self.open_segment_if_free(1)?;
        }
        // This checkpoint covers the seal that asked for one, its own
        // included.
        self.lld.needs_checkpoint.store(false, Ordering::Relaxed);
        // A log-only seal (the flush leader) may have left committed
        // records undrained; every record in the overlay now belongs to
        // a sealed-or-current segment the checkpoint covers, so drain
        // them all before the persistent tables are snapshotted.
        self.map.drain_committed();
        // W2: a flush leader holds no shard and may still be writing its
        // seal; what a checkpoint covers is on the device, for recovery
        // and for the cleaners, which read covered victims from there.
        let lld = self.lld;
        lld.wait_written(&mut self.log_guard, |log| log.inflight.is_empty())?;
        let (covered, head) = self.log().covered_point();
        let covered_summary = self.log().summary_sealed;
        let floor = |next: fn(&crate::shard::MapShard) -> u64| {
            self.map.shards_held().map(next).max().unwrap_or(1)
        };
        let block_floor = floor(|s| s.next_block_raw);
        let list_floor = floor(|s| s.next_list_raw);
        // Supersedes whatever an earlier writer left pending: its
        // copies are of an older covered point.
        for i in 0..self.lld.maps.nshards() {
            let sh = self.map.shard_mut(i);
            sh.snap_pending = true;
            sh.snap_copy = None;
        }
        // The log mutex is held (taken above for the covered point);
        // `ckpt_io` is its leaf.
        let mut io = lld.ckpt_io.lock();
        io.gen += 1;
        Ok(CkptWrite {
            covered,
            covered_summary,
            head,
            ts: lld.now(),
            block_floor,
            list_floor,
            gen: io.gen,
            area: if io.use_b {
                lld.layout.ckpt_b
            } else {
                lld.layout.ckpt_a
            },
            end: CKPT_HEADER + CKPT_DIR_RESERVE,
            dir: Vec::new(),
        })
    }

    /// Step 2, first half: encodes shard `i`'s tables as of the covered
    /// point — `snap_copy` when a drain has advanced the shard since
    /// *begin*, the live persistent tables otherwise. The session must
    /// hold shard `i` exclusively.
    fn snapshot_slab(&mut self, i: u32) -> Slab {
        let sh = self.map.shard_mut(i);
        sh.snap_pending = false;
        let snap = sh.snap_copy.take();
        encode_slab(snap.as_ref().unwrap_or(&sh.persistent))
    }
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

    /// Writes a checkpoint holding a full session only for *begin*:
    /// each slab is encoded under its shard's write lock alone and
    /// written with no mapping-layer lock held. Returns `false` if
    /// another checkpoint began mid-flight and this one aborted
    /// (harmless: the other one is at least as fresh).
    ///
    /// Called by the background cleaner (`cleanerd`), so its covering
    /// checkpoints are not stop-the-world table dumps.
    pub(crate) fn checkpoint_incremental(&self) -> Result<bool> {
        let mut w = self.with_mutation(|m| m.ckpt_begin())?;
        let mut steps = || -> Result<bool> {
            for i in 0..self.maps.nshards() {
                let slab = self.with_mutation_at(0, 1u64 << i, |m| m.snapshot_slab(i));
                if !self.ckpt_slab(&mut w, slab)? {
                    return Ok(false);
                }
            }
            self.ckpt_commit(&w, &mut self.log.lock())
        };
        let done = steps();
        if !matches!(done, Ok(true)) {
            // Whatever this writer left pending (idempotent).
            self.with_mutation(|m| {
                for i in 0..self.maps.nshards() {
                    let sh = m.map.shard_mut(i);
                    sh.snap_pending = false;
                    sh.snap_copy = None;
                }
                Ok(())
            })?;
        }
        done
    }

    /// Step 2, second half: writes one encoded slab behind the ones
    /// already in the area. Returns `false` if this writer no longer
    /// owns the area.
    fn ckpt_slab(&self, w: &mut CkptWrite, slab: Slab) -> Result<bool> {
        if w.end + slab.bytes.len() as u64 > self.layout.ckpt_area_size {
            return Err(area_overflow());
        }
        // Check the generation *under* `ckpt_io`, and write under it
        // too: a later beginner waits for this write, and this writer
        // never writes once a later one has begun.
        let io = self.ckpt_io.lock();
        if io.gen != w.gen {
            return Ok(false);
        }
        self.device.write_at(w.area + w.end, &slab.bytes)?;
        drop(io);
        w.dir.extend_from_slice(&slab.n_blocks.to_le_bytes());
        w.dir.extend_from_slice(&slab.n_lists.to_le_bytes());
        w.dir.extend_from_slice(&crc32(&slab.bytes).to_le_bytes());
        w.dir.extend_from_slice(&[0u8; 4]); // padding
        w.end += slab.bytes.len() as u64;
        Ok(true)
    }

    /// Step 3, *commit*: dedup slab, directory, header last, flush,
    /// publish. `log` is the caller's hold on the log mutex (lock
    /// order: log → dedup → `ckpt_io`). Returns `false` if this writer
    /// no longer owns the area.
    fn ckpt_commit(&self, w: &CkptWrite, log: &mut LogState) -> Result<bool> {
        // Snapshot the write-id dedup cache so a retried networked
        // commit still finds its recorded outcome after recovery from
        // this checkpoint. Entries recorded since *begin* belong to
        // segments past the covered point; recovery replays those and
        // re-records the same outcomes, so a fresher slab is harmless.
        // The encoder truncates oldest-first to the room that is left.
        let room = self.layout.ckpt_area_size.saturating_sub(w.end);
        let dedup = self.dedup.lock().encode(room as usize);
        let bytes = w.end + dedup.len() as u64;
        if bytes > self.layout.ckpt_area_size {
            return Err(area_overflow());
        }
        let header = w.encode_header(
            (dedup.len() as u64 / CKPT_DEDUP_ENTRY) as u32,
            crc32(&dedup),
        );
        let mut io = self.ckpt_io.lock();
        if io.gen != w.gen {
            return Ok(false);
        }
        if !dedup.is_empty() {
            self.device.write_at(w.area + w.end, &dedup)?;
        }
        self.device.write_at(w.area + CKPT_HEADER, &w.dir)?;
        self.device.write_at(w.area, &header)?;
        self.device.flush()?;
        io.use_b = w.area == self.layout.ckpt_a;
        drop(io);
        log.checkpoint_seq = w.covered;
        log.checkpoint_summary = w.covered_summary;
        self.stats.checkpoints.inc();
        self.obs.event(
            self.now(),
            crate::obs::TraceEvent::Checkpoint {
                covered_seq: w.covered,
                bytes,
            },
        );
        Ok(true)
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
    const BODY: usize = CKPT_HEADER as usize - 4;
    let mut header = [0u8; CKPT_HEADER as usize];
    device.read_at(area, &mut header)?;
    if crc32(&header[..BODY]) != u32_at(&header, BODY) {
        return Ok(None);
    }
    let u32at = |p: usize| u32_at(&header, p);
    if u32at(0) != CKPT_MAGIC {
        return Ok(None);
    }
    let head = ChainHead {
        slot: u32at(56),
        base: u32at(60),
        link: u32at(4),
    };
    let seq = u64_at(&header, 8);
    let ts_counter = u64_at(&header, 16);
    let block_floor = u64_at(&header, 24);
    let list_floor = u64_at(&header, 32);
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
        let n_blocks = u64_at(&dir_bytes, p);
        let n_lists = u64_at(&dir_bytes, p + 8);
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
            crc: u32_at(&dir_bytes, p + 16),
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

impl CkptHeaderInfo {
    /// Reads the snapshot slabs and the dedup slab of a checkpoint
    /// whose header was validated — they lie back to back — with one
    /// device read.
    pub(crate) fn read_body<D: BlockDevice + ?Sized>(&self, device: &D) -> Result<Vec<u8>> {
        let start = self.slabs[0].offset;
        let end = self.dedup_off + self.n_dedup * CKPT_DEDUP_ENTRY;
        let mut body = vec![0u8; (end - start) as usize];
        device.read_at(start, &mut body)?;
        Ok(body)
    }

    fn slice<'a>(&self, body: &'a [u8], offset: u64, len: u64) -> &'a [u8] {
        &body[(offset - self.slabs[0].offset) as usize..][..len as usize]
    }

    /// The write-id dedup slab in `body` (empty if the checkpoint
    /// carries none); `None` on a CRC mismatch (the whole area must
    /// then be considered invalid).
    pub(crate) fn dedup_slab<'a>(&self, body: &'a [u8]) -> Option<&'a [u8]> {
        let payload = self.slice(body, self.dedup_off, self.n_dedup * CKPT_DEDUP_ENTRY);
        (payload.is_empty() || crc32(payload) == self.dedup_crc).then_some(payload)
    }

    /// Decodes snapshot slab `i` out of `body`. `None` on a CRC
    /// mismatch (the whole area must then be considered invalid).
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] on a zero identifier (a CRC-valid slab can
    /// never contain one).
    pub(crate) fn decode_slab(&self, body: &[u8], i: usize) -> Result<Option<SlabData>> {
        let slab = &self.slabs[i];
        let payload = self.slice(body, slab.offset, slab.len);
        if crc32(payload) != slab.crc {
            return Ok(None);
        }
        decode_entries(payload, slab).map(Some)
    }
}

fn decode_entries(payload: &[u8], slab: &SlabInfo) -> Result<SlabData> {
    let mut out = SlabData {
        blocks: Vec::with_capacity(slab.n_blocks as usize),
        lists: Vec::with_capacity(slab.n_lists as usize),
    };
    let mut pos = 0usize;
    for _ in 0..slab.n_blocks {
        let id = u64_at(payload, pos);
        let seg = u32_at(payload, pos + 8);
        let slot = u32_at(payload, pos + 12);
        let succ = u64_at(payload, pos + 16);
        let list = u64_at(payload, pos + 24);
        let ts = u64_at(payload, pos + 32);
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
        let id = u64_at(payload, pos);
        let first = u64_at(payload, pos + 8);
        let last = u64_at(payload, pos + 16);
        let ts = u64_at(payload, pos + 24);
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceEvent;
    use crate::{CleanerConfig, Ctx, Lld, LldConfig, Position};
    use ld_disk::{DiskModel, MemDisk, SimDisk};

    /// The paper's single-threaded cleaner: no `cleanerd` to write a
    /// checkpoint of its own where a test counts them.
    fn inline_cleaner() -> CleanerConfig {
        CleanerConfig {
            background: false,
            ..CleanerConfig::default()
        }
    }

    /// Everything recovery would load from one area, in a comparable
    /// order, plus the byte count the area occupies.
    fn load(ld: &Lld<MemDisk>, area: u64) -> (Vec<SlabData>, Vec<u8>, u64) {
        let hdr = read_header_dir(ld.device(), &ld.layout, area)
            .unwrap()
            .expect("a valid checkpoint");
        let body = hdr.read_body(ld.device()).unwrap();
        let slabs = (0..hdr.slabs.len())
            .map(|i| {
                let mut d = hdr.decode_slab(&body, i).unwrap().expect("slab CRC");
                d.blocks.sort_by_key(|(id, _)| id.get());
                d.lists.sort_by_key(|(id, _)| id.get());
                d
            })
            .collect();
        let dedup = hdr.dedup_slab(&body).expect("CRC").to_vec();
        let end = hdr.dedup_off + dedup.len() as u64 - area;
        (slabs, dedup, end)
    }

    /// The foreground and the cleanerd checkpoint of one state are the
    /// same checkpoint: same tables, same dedup cache, same size — and
    /// the size each reports in its trace event is the size on disk.
    #[test]
    fn both_drivers_write_the_same_checkpoint() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
        let list = ld.new_list(Ctx::Simple).unwrap();
        for wid in 1..=20u64 {
            let aru = ld.begin_aru().unwrap();
            let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
            ld.write(Ctx::Aru(aru), b, &[wid as u8; 512]).unwrap();
            ld.end_aru_tagged(aru, 7, 1, wid).unwrap();
        }
        ld.checkpoint().unwrap(); // area A
        assert!(ld.checkpoint_incremental().unwrap()); // area B

        let (a, b) = (load(&ld, ld.layout.ckpt_a), load(&ld, ld.layout.ckpt_b));
        assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0), "tables");
        assert_eq!(a.1.len() as u64, 20 * CKPT_DEDUP_ENTRY);
        assert_eq!(a.1, b.1, "dedup cache");
        assert_eq!(a.2, b.2);
        let reported: Vec<u64> = (ld.obs().ring().entries().iter())
            .filter_map(|e| match e.event {
                TraceEvent::Checkpoint { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(reported, [a.2, b.2]);
    }

    /// The checkpoint a seal found due is written by a full session
    /// that succeeds, not by one whose operation failed (its tables may
    /// be ahead of the log); one that cannot be written is counted.
    #[test]
    fn due_checkpoint_waits_for_a_session_that_succeeds() {
        use std::sync::atomic::Ordering::Relaxed;
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            cleaner: inline_cleaner(),
            ..LldConfig::default()
        };
        let device = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
        let ld = Lld::format(device, &cfg).unwrap();
        ld.needs_checkpoint.store(true, Relaxed);
        let failed: Result<()> = ld.with_mutation(|_| Err(LldError::DiskFull));
        assert!(matches!(failed, Err(LldError::DiskFull)));
        assert!(ld.needs_checkpoint.load(Relaxed), "still due");
        assert_eq!(ld.stats().checkpoints, 0);

        ld.with_mutation(|_| Ok(())).unwrap();
        assert!(!ld.needs_checkpoint.load(Relaxed));
        let stats = ld.stats();
        assert_eq!((stats.checkpoints, stats.checkpoint_failures), (1, 0));

        // The device dies: the session's own work (none) succeeds, the
        // checkpoint does not.
        ld.device().force_crash();
        ld.needs_checkpoint.store(true, Relaxed);
        ld.with_mutation(|_| Ok(())).unwrap();
        let stats = ld.stats();
        assert_eq!((stats.checkpoints, stats.checkpoint_failures), (1, 1));
        ld.needs_checkpoint.store(true, Relaxed);
        ld.after_scoped();
        assert_eq!(ld.stats().checkpoint_failures, 2);
    }

    /// The byte-counted suffix bound (`seal_current`): a seal asks for a
    /// checkpoint once the summary bytes past the last one reach the
    /// encoded size of the tables, and never below 64 KiB; the
    /// checkpoint's commit starts the count again.
    #[test]
    fn a_suffix_as_long_as_the_tables_asks_for_a_checkpoint() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 128 * 512,
            max_blocks: Some(4096),
            cleaner: inline_cleaner(),
            ..LldConfig::default()
        };
        // 256 slots: the seal-count rule stays out of the way.
        let ld = Lld::format(MemDisk::new(16 << 20), &cfg).unwrap();
        let suffix = || {
            let log = ld.log.lock();
            log.summary_sealed - log.checkpoint_summary
        };
        // `n` empty units, a 17-byte commit record each, then sealed.
        let log_units = |n: u64| {
            for _ in 0..n {
                ld.end_aru(ld.begin_aru().unwrap()).unwrap();
            }
            ld.flush().unwrap();
        };

        // A nearly empty disk: the tables are smaller than any flush,
        // and the floor speaks.
        log_units(3000);
        assert_eq!((suffix(), ld.stats().checkpoints), (3000 * 17, 0));
        log_units(1000);
        assert_eq!((suffix(), ld.stats().checkpoints), (0, 1), "68,000 B");

        // 2,000 blocks on a list: 80,032 bytes of tables.
        let list = ld.new_list(Ctx::Simple).unwrap();
        for _ in 0..2000 {
            ld.new_block(Ctx::Simple, list, Position::First).unwrap();
        }
        ld.checkpoint().unwrap();
        let before = ld.stats().checkpoints;
        log_units(4500);
        assert_eq!((suffix(), ld.stats().checkpoints), (4500 * 17, before));
        log_units(300);
        assert_eq!((suffix(), ld.stats().checkpoints), (0, before + 1));
    }

    /// On a full disk the cleaner's checkpoint seals the open segment
    /// but leaves the last free slot to deletions.
    #[test]
    fn cleaner_checkpoint_leaves_the_last_slot() {
        let mut cfg = LldConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            ..LldConfig::default()
        };
        cfg.cleaner.enabled = false;
        let ld = Lld::format(MemDisk::new(512 + 2 * 64 * 1024 + 6 * 8 * 512), &cfg).unwrap();
        let list = ld.new_list(Ctx::Simple).unwrap();
        while let Ok(b) = ld.new_block(Ctx::Simple, list, Position::First) {
            if ld.write(Ctx::Simple, b, &[1; 512]).is_err() {
                break;
            }
        }
        assert_eq!(ld.free_segments(), 1);
        assert!(ld.checkpoint_incremental().unwrap());
        assert_eq!(ld.free_segments(), 1);
        ld.delete_list(Ctx::Simple, list).unwrap();
    }
}
