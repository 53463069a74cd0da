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
//! # On-disk format (format version 9; the checkpoint is as in 8)
//!
//! Each of the two alternating areas (A/B) holds one checkpoint as
//! *per-shard snapshot slabs* behind a header and a slab directory:
//!
//! ```text
//! area+0    header (68 B): magic u32 "LCK5", head link u32, covered
//!           seq, ts, floors, snap_shards, dir crc, n_dedup, dedup crc,
//!           head slot u32, head base u32, header crc
//! area+68   directory (24 B per slab, space reserved for 64):
//!           n_blocks u64, n_lists u64, slab crc u32, slab length u32
//! area+68+1536  slab 0 | slab 1 | … | dedup slab (32 B per write-id
//!               outcome)
//! ```
//!
//! Slab `i` holds the records of map shard `i` at checkpoint time (the
//! shard count is a runtime knob: recovery redistributes entries by id,
//! so an image checkpointed at 8 shards recovers at any count). Every
//! slab carries its own CRC, so recovery can verify slabs
//! independently.
//!
//! A slab is *column-packed*: its rows are sorted by identifier, and
//! every value is stored as its distance from a *predictor*, something
//! the reader has already decoded:
//!
//! ```text
//! slab+0    11 column descriptors (10 B each): minimum u64, width in
//!           bits u8 (0..=64), shift u8 (0..=63) — block id, segment,
//!           sector, sectors, successor, list, ts; list id, first, last,
//!           ts
//! slab+110  n_blocks rows, then n_lists rows, each table bit-packed
//!           from its first byte: per row and column, least significant
//!           bit first, `(coded − minimum) >> shift` in `width` bits; a
//!           table takes ⌈n × Σ widths / 8⌉ bytes, its last byte padded
//!           with zeros
//! ```
//!
//! A column's *coded* value is, for the identifier, the plain
//! difference from the previous row's (rows are sorted, and the first
//! row's predecessor is 0); for a block's segment, sector, list and
//! timestamp and a list's first and timestamp, the zigzag of the
//! wrapping difference from the previous row's value; for a block's
//! successor and a list's last, the zigzag of the difference from the
//! row's own identifier and first; a block's sector count is stored as
//! it is. The zigzag of a wrapping difference is a bijection on u64, so
//! a small step either way is a small number and every value has a code.
//!
//! A column whose coded values are all equal takes no bits in a row: the
//! sector count of an address is the constant 8 on a disk of full 4 KiB
//! blocks. The shift drops the low bits every coded value of a column
//! shares with the others. "None" never costs a column its width: an absent successor,
//! list, first or last is 0 (identifiers are not), an absent address is
//! segment 0 with a present one stored as `segment + 1`, and the sector
//! and count beside it are 0 and a full block's. A slab is a function of
//! its tables: the same entries give the same bytes, whatever the order
//! they were inserted in or the capacity of the map.
//!
//! **The bound.** A row is never wider than 40 B (a block) or 32 B (a
//! list), which is what `Layout::compute` sizes the area by. A column's
//! width is that of its largest `coded − minimum`, so at most that of its
//! largest coded value: an identifier delta is below 2⁶³ (identifiers
//! are at most [`MAX_RAW_ID`]), 63 bits; a stored segment is at most
//! `u32::MAX` (a segment is below `n_segments`, itself a u32), so the
//! zigzag of a difference of two is below 2³³, 33 bits; a sector is
//! below 2²³ (a slot of at most 4 GiB), 24 bits; a count is at most 128
//! (a block of at most 64 KiB), 8 bits; successor, list and timestamp
//! are any u64, 64 bits each. 63 + 33 + 24 + 8 + 64 + 64 + 64 = 320 bits
//! = 40 B. A list row is at most 63 + 64 + 64 + 64 = 255 bits, under
//! 32 B. A variable-length code (format 5's rejected delta-varint) spends
//! a continuation bit a byte and takes up to 50 B a block; a column's
//! fixed width in bits does not.
//!
//! What a reader refuses. The *area* is invalid, and recovery falls back
//! to the other one, on: a bad magic or header CRC, a slab count outside
//! 1..=64, a directory CRC mismatch, a directory that counts more blocks
//! or lists than the layout's `max_blocks` or `max_lists` (a table whose
//! widths are all 0 takes no bytes for any count, and its identifiers
//! step by the minimum, so only the caps bound it), a slab or dedup slab
//! that ends outside the area or fails its CRC, a descriptor width above 64, a
//! shift above 63 or `width + shift` above 64, and a table whose rows are
//! not ⌈n × Σ widths / 8⌉ bytes (checked arithmetic). The *image* is
//! [`LldError::Corrupt`] when a slab that passed all of that holds a row
//! recovery cannot take at its word: `minimum + (delta << shift)` past
//! `u64::MAX`, an identifier of zero or above [`MAX_RAW_ID`] (the
//! allocators count on from it, and an identifier delta that carries
//! past it is this case), a segment, sector or sector count the device
//! does not have (checked by recovery against the layout), an identifier
//! twice (an identifier delta of 0); so is an allocator floor above
//! `MAX_RAW_ID` in the header of the area chosen.
//!
//! The header also records where the log continues past the covered
//! sequence number — the [`ChainHead`]: the slot and the sector in it
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
//! One writer, [`LldInner::checkpoint`], run only between sessions —
//! never inside one, where an operation may have put part of an ARU
//! into the tables (docs/INVARIANTS.md I6) — by the housekeeping step
//! after a session ([`LldInner::after_session`]) and by `cleanerd`. It
//! holds `ckpt_io`, which keeps the A/B cursor, from its first step to
//! its last, so writers take turns; a writer is first in the lock
//! order, which is sound because no session ever waits for one. Three
//! steps:
//!
//! 1. *begin* ([`Mutation::ckpt_begin`], in one short full session)
//!    pins what the checkpoint covers and marks every shard
//!    `snap_pending`. In `Sequential` mode it defers while an ARU is
//!    open.
//! 2. *slab*, once per shard: [`Mutation::snapshot_slab`] encodes the
//!    shard's tables as of the covered point under that shard's write
//!    lock alone, [`LldInner::ckpt_slab`] writes them with no
//!    mapping-layer lock held.
//! 3. *commit* ([`LldInner::ckpt_commit`], holding the log mutex):
//!    dedup slab, directory, header last, one flush, publish.
//!
//! Foreground commits that would advance a pending shard's persistent
//! tables first preserve them in `snap_copy` (copy-on-advance, see
//! [`MapShard`](crate::shard::MapShard)), so every slab reflects
//! exactly the covered point even though the shard kept moving.

use crate::config::ConcurrencyMode;
use crate::error::{LldError, Result};
use crate::layout::{
    u32_at, u64_at, Layout, CKPT_COL_DESC, CKPT_COL_SHIFT, CKPT_COL_WIDTH, CKPT_DEDUP_ENTRY,
    CKPT_DIR_ENTRY, CKPT_DIR_RESERVE, CKPT_HEADER, CKPT_SLAB_DESC, MAX_SNAP_SHARDS,
};
use crate::lld::{LldInner, Mutation};
use crate::segment::ChainHead;
use crate::state::{BlockRecord, ListRecord, Tables};
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp, MAX_RAW_ID};
use ld_disk::{crc32, BlockDevice};
use std::sync::atomic::Ordering;

const CKPT_MAGIC: u32 = 0x4C43_4B35; // "LCK5"

/// Checkpoint-area I/O state, behind the `ckpt_io` mutex, which the
/// writer holds from *begin* to *commit* (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct CkptSlots {
    /// Write the next checkpoint to area B (the areas alternate).
    pub(crate) use_b: bool,
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
    /// Absolute device offset of the area.
    area: u64,
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

/// One checkpoint being written: what *begin* pinned, and what the slab
/// steps have put into the area so far.
struct CkptWrite {
    covered: u64,
    /// [`LogState::summary_sealed`](crate::lld::LogState::summary_sealed)
    /// at the covered point.
    covered_summary: u64,
    head: ChainHead,
    ts: u64,
    /// Global allocator floors (the max over shards); recovery
    /// re-stripes them per shard with `striped_ceil`, since the shard
    /// count is not persisted.
    block_floor: u64,
    list_floor: u64,
    /// Absolute offset of the target area.
    area: u64,
    /// Offset of the next slab, relative to the area.
    end: u64,
    /// The directory so far: per slab written its block count, list
    /// count, CRC and byte length.
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

const COL_DESC: usize = CKPT_COL_DESC;
const BLOCK_COLS: usize = 7;
const LIST_COLS: usize = 4;
const _: () = assert!(((BLOCK_COLS + LIST_COLS) * COL_DESC) as u64 == CKPT_SLAB_DESC);

/// The zigzag of `v − pred`, wrapping: a small step either way is a
/// small number, and every u64 is the code of exactly one value.
fn zigzag(v: u64, pred: u64) -> u64 {
    let d = v.wrapping_sub(pred);
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// The value whose [`zigzag`] from `pred` is `z`.
fn unzigzag(z: u64, pred: u64) -> u64 {
    pred.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// A block row's coded values, given the previous row (all zero before
/// the first): the identifier's plain difference (rows are sorted), the
/// successor from the row's own identifier, the sector count as it is,
/// everything else from the previous row.
fn code_block(prev: &[u64; BLOCK_COLS], row: &[u64; BLOCK_COLS]) -> [u64; BLOCK_COLS] {
    let [id, segment, sector, sectors, successor, list, ts] = *row;
    [
        id - prev[0],
        zigzag(segment, prev[1]),
        zigzag(sector, prev[2]),
        sectors,
        zigzag(successor, id),
        zigzag(list, prev[5]),
        zigzag(ts, prev[6]),
    ]
}

/// Inverts [`code_block`]; `None` if the identifier passes `u64::MAX`.
fn decode_block(prev: &[u64; BLOCK_COLS], c: [u64; BLOCK_COLS]) -> Option<[u64; BLOCK_COLS]> {
    let id = prev[0].checked_add(c[0])?;
    Some([
        id,
        unzigzag(c[1], prev[1]),
        unzigzag(c[2], prev[2]),
        c[3],
        unzigzag(c[4], id),
        unzigzag(c[5], prev[5]),
        unzigzag(c[6], prev[6]),
    ])
}

/// A list row's coded values: `last` from the row's own `first`, the
/// rest from the previous row.
fn code_list(prev: &[u64; LIST_COLS], row: &[u64; LIST_COLS]) -> [u64; LIST_COLS] {
    let [id, first, last, ts] = *row;
    [
        id - prev[0],
        zigzag(first, prev[1]),
        zigzag(last, first),
        zigzag(ts, prev[3]),
    ]
}

/// Inverts [`code_list`].
fn decode_list(prev: &[u64; LIST_COLS], c: [u64; LIST_COLS]) -> Option<[u64; LIST_COLS]> {
    let (id, first) = (prev[0].checked_add(c[0])?, unzigzag(c[1], prev[1]));
    Some([id, first, unzigzag(c[2], first), unzigzag(c[3], prev[3])])
}

/// Sorts `rows` by identifier and codes each in place from its
/// predecessor.
fn code_rows<const N: usize>(rows: &mut [[u64; N]], code: fn(&[u64; N], &[u64; N]) -> [u64; N]) {
    rows.sort_unstable_by_key(|row| row[0]);
    for i in (0..rows.len()).rev() {
        let prev = i.checked_sub(1).map_or([0; N], |p| rows[p]);
        rows[i] = code(&prev, &rows[i]);
    }
}

/// How the coded rows of one table are packed: per column the smallest
/// value, stored once, the low bits every `value − min` has zero, and
/// the bits the largest `(value − min) >> shift` needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Columns<const N: usize> {
    min: [u64; N],
    width: [u8; N],
    shift: [u8; N],
}

impl<const N: usize> Columns<N> {
    /// The narrowest packing of `rows`; all zero for none.
    fn fit(rows: &[[u64; N]]) -> Self {
        let (mut min, mut max) = ([u64::MAX; N], [0u64; N]);
        // The bits in which some value differs from the first row's:
        // every `value − min` is a multiple of 2^(their trailing zeros).
        let first = rows.first().copied().unwrap_or([0; N]);
        let mut differ = [0u64; N];
        for row in rows {
            for (c, &v) in row.iter().enumerate() {
                min[c] = min[c].min(v);
                max[c] = max[c].max(v);
                differ[c] |= v ^ first[c];
            }
        }
        // No row: `min` is still above `max`.
        let min: [u64; N] = std::array::from_fn(|c| min[c].min(max[c]));
        // A column of one value has nothing to shift.
        let shift: [u8; N] = std::array::from_fn(|c| match differ[c] {
            0 => 0,
            bits => bits.trailing_zeros() as u8,
        });
        // `(max − min) >> shift` is below 2^(64 − shift): `width + shift`
        // is at most 64.
        let width = std::array::from_fn(|c| {
            let span = (max[c] - min[c]) >> shift[c];
            (u64::BITS - span.leading_zeros()) as u8
        });
        Columns { min, width, shift }
    }

    /// Bits one row takes.
    fn row_bits(&self) -> u64 {
        self.width.iter().map(|&w| u64::from(w)).sum()
    }

    /// Bytes `n` rows take; `None` past `u64::MAX`.
    fn table_bytes(&self, n: u64) -> Option<u64> {
        Some(n.checked_mul(self.row_bits())?.div_ceil(8))
    }

    fn put_desc(&self, out: &mut Vec<u8>) {
        for c in 0..N {
            out.extend_from_slice(&self.min[c].to_le_bytes());
            out.extend_from_slice(&[self.width[c], self.shift[c]]);
        }
    }

    /// Bit-packs the coded `rows`, least significant bit first, and pads
    /// the last byte with zeros.
    fn put_rows(&self, rows: &[[u64; N]], out: &mut Vec<u8>) {
        let (mut acc, mut bits) = (0u128, 0u32);
        for row in rows {
            for (c, &v) in row.iter().enumerate() {
                acc |= u128::from((v - self.min[c]) >> self.shift[c]) << bits;
                bits += u32::from(self.width[c]);
                if bits >= 64 {
                    out.extend_from_slice(&(acc as u64).to_le_bytes());
                    acc >>= 64;
                    bits -= 64;
                }
            }
        }
        out.extend_from_slice(&(acc as u64).to_le_bytes()[..bits.div_ceil(8) as usize]);
    }

    /// Reads `N` descriptors; `None` on a width above 64, a shift above
    /// 63 or the two above 64 together, so that no row's
    /// `delta << shift` loses a bit.
    fn parse(desc: &[u8]) -> Option<Self> {
        let min = std::array::from_fn(|c| u64_at(desc, c * COL_DESC));
        let width: [u8; N] = std::array::from_fn(|c| desc[c * COL_DESC + CKPT_COL_WIDTH]);
        let shift: [u8; N] = std::array::from_fn(|c| desc[c * COL_DESC + CKPT_COL_SHIFT]);
        (0..N)
            .all(|c| shift[c] < 64 && u32::from(width[c]) + u32::from(shift[c]) <= 64)
            .then_some(Columns { min, width, shift })
    }
}

/// Hands out the coded rows of one table, a word of the packed bytes at
/// a time.
#[derive(Debug)]
struct BitRows<'a, const N: usize> {
    cols: Columns<N>,
    /// Per column, its low `width` bits set.
    mask: [u64; N],
    bytes: &'a [u8],
    /// The next byte to load into `acc`.
    at: usize,
    /// Loaded bits not yet handed out, the next one lowest.
    acc: u128,
    bits: u32,
}

impl<'a, const N: usize> BitRows<'a, N> {
    fn new(cols: Columns<N>, bytes: &'a [u8]) -> Self {
        let mask = cols.width.map(|w| ((1u128 << w) - 1) as u64);
        BitRows {
            cols,
            mask,
            bytes,
            at: 0,
            acc: 0,
            bits: 0,
        }
    }

    /// Loads the next 8 bytes above the bits held (zeros past the end).
    fn refill(&mut self) {
        let word = match self.bytes.get(self.at..self.at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            None => {
                let tail = &self.bytes[self.at.min(self.bytes.len())..];
                let mut le = [0u8; 8];
                le[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(le)
            }
        };
        self.acc |= u128::from(word) << self.bits;
        self.bits += 64;
        self.at += 8;
    }

    /// The next row's coded values, `min + (delta << shift)`; `None` if
    /// one passes `u64::MAX`. [`Columns::parse`] checked every `width +
    /// shift`, so no shift here loses a bit.
    #[inline]
    fn next_row(&mut self) -> Option<[u64; N]> {
        let mut out = [0u64; N];
        for (c, v) in out.iter_mut().enumerate() {
            if self.bits < 64 {
                self.refill();
            }
            let delta = self.acc as u64 & self.mask[c];
            self.acc >>= self.cols.width[c];
            self.bits -= u32::from(self.cols.width[c]);
            *v = self.cols.min[c].checked_add(delta << self.cols.shift[c])?;
        }
        Some(out)
    }
}

/// `full`: a full block's sector count, what an absent address stores
/// as its count, so that a table of full blocks has one value there.
fn block_row(id: BlockId, r: &BlockRecord, full: u64) -> [u64; BLOCK_COLS] {
    let (segment, sector, sectors) = r.addr.map_or((0, 0, full), |a| {
        let segment = u64::from(a.segment.get()) + 1;
        (segment, u64::from(a.sector), u64::from(a.sectors))
    });
    [
        id.get(),
        segment,
        sector,
        sectors,
        BlockId::encode_opt(r.successor),
        ListId::encode_opt(r.list),
        r.ts.get(),
    ]
}

fn list_row(id: ListId, r: &ListRecord) -> [u64; LIST_COLS] {
    [
        id.get(),
        BlockId::encode_opt(r.first),
        BlockId::encode_opt(r.last),
        r.ts.get(),
    ]
}

/// One shard's tables as of the covered point, encoded (see the module
/// docs).
struct Slab {
    bytes: Vec<u8>,
    n_blocks: u64,
    n_lists: u64,
}

/// Encodes `tables` on a disk whose blocks take `full` sectors.
fn encode_slab(tables: &Tables, full: u64) -> Slab {
    let mut blocks: Vec<_> = (tables.blocks.iter())
        .map(|(&id, r)| block_row(id, r, full))
        .collect();
    let mut lists: Vec<_> = (tables.lists.iter())
        .map(|(&id, r)| list_row(id, r))
        .collect();
    code_rows(&mut blocks, code_block);
    code_rows(&mut lists, code_list);
    let (block_cols, list_cols) = (Columns::fit(&blocks), Columns::fit(&lists));
    let (n_blocks, n_lists) = (blocks.len() as u64, lists.len() as u64);
    let len = CKPT_SLAB_DESC
        + block_cols.table_bytes(n_blocks).expect("a table in memory")
        + list_cols.table_bytes(n_lists).expect("a table in memory");
    let mut bytes = Vec::with_capacity(len as usize);
    block_cols.put_desc(&mut bytes);
    list_cols.put_desc(&mut bytes);
    block_cols.put_rows(&blocks, &mut bytes);
    list_cols.put_rows(&lists, &mut bytes);
    debug_assert_eq!(bytes.len() as u64, len);
    Slab {
        bytes,
        n_blocks,
        n_lists,
    }
}

fn area_overflow() -> LldError {
    LldError::Corrupt("checkpoint exceeds its reserved area".into())
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// Step 1, *begin*: seals the current segment (so the committed
    /// state becomes persistent and is included), pins what the
    /// checkpoint covers, and takes the inactive area. Needs a full
    /// session. If the next segment needs a fresh slot, it is opened
    /// only if that leaves the last one free (else by whoever appends
    /// next, under its own reserve; the cleaners' relocation has none).
    /// `None`, with the checkpoint left due, while a sequential ARU is
    /// open: its operations are in the committed tables already.
    fn ckpt_begin(&mut self, io: &CkptSlots) -> Result<Option<CkptWrite>> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.lld.concurrency == ConcurrencyMode::Sequential && self.map.held_aru_count() > 0 {
            self.lld.needs_checkpoint.store(true, Ordering::Relaxed);
            return Ok(None);
        }
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
        let block_floor = floor(|s| s.block_ids.next_raw);
        let list_floor = floor(|s| s.list_ids.next_raw);
        for i in 0..self.lld.maps.nshards() {
            self.map.shard_mut(i).snap_pending = true;
        }
        Ok(Some(CkptWrite {
            covered,
            covered_summary,
            head,
            ts: lld.now(),
            block_floor,
            list_floor,
            area: if io.use_b {
                lld.layout.ckpt_b
            } else {
                lld.layout.ckpt_a
            },
            end: CKPT_HEADER + CKPT_DIR_RESERVE,
            dir: Vec::new(),
        }))
    }

    /// Step 2, first half: encodes shard `i`'s tables as of the covered
    /// point — `snap_copy` when a drain has advanced the shard since
    /// *begin*, the live persistent tables otherwise. The session must
    /// hold shard `i` exclusively.
    fn snapshot_slab(&mut self, i: u32) -> Slab {
        let full = u64::from(self.lld.layout.sectors_per_block());
        let sh = self.map.shard_mut(i);
        sh.snap_pending = false;
        let snap = sh.snap_copy.take();
        encode_slab(snap.as_ref().unwrap_or(&sh.persistent), full)
    }
}

impl<D: BlockDevice> LldInner<D> {
    /// Writes a checkpoint of the persistent state, between sessions:
    /// *begin* seals the current segment (so the committed state
    /// becomes persistent and is included) in one short full session;
    /// each shard's slab is then encoded under that shard's write lock
    /// alone and written with no mapping-layer lock held; the commit
    /// writes the header last. One writer at a time: a second waits.
    ///
    /// In [`ConcurrencyMode::Sequential`], while an ARU is open, it
    /// writes nothing and leaves the checkpoint due: the ARU's
    /// operations are in the tables already, and the session that ends
    /// the ARU writes it. No checkpoint holds part of an ARU
    /// (docs/INVARIANTS.md I6).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn checkpoint(&self) -> Result<()> {
        // Held across every step: taken before any session's lock,
        // which is sound because no session ever waits for a writer.
        let mut io = self.ckpt_io.lock();
        let Some(mut w) = self.full_session(|m| m.ckpt_begin(&io))? else {
            return Ok(());
        };
        let written = (0..self.maps.nshards())
            .try_for_each(|i| {
                let slab = self.with_mutation_at(0, 1u64 << i, |m| m.snapshot_slab(i));
                self.ckpt_slab(&mut w, slab)
            })
            .and_then(|()| self.ckpt_commit(&w, &mut io));
        if written.is_err() {
            // The shards still pending, and their copies.
            self.full_session(|m| {
                for i in 0..self.maps.nshards() {
                    let sh = m.map.shard_mut(i);
                    sh.snap_pending = false;
                    sh.snap_copy = None;
                }
                Ok(())
            })?;
        }
        written
    }

    /// Step 2, second half: writes one encoded slab behind the ones
    /// already in the area.
    fn ckpt_slab(&self, w: &mut CkptWrite, slab: Slab) -> Result<()> {
        if w.end + slab.bytes.len() as u64 > self.layout.ckpt_area_size {
            return Err(area_overflow());
        }
        let len = u32::try_from(slab.bytes.len()).map_err(|_| {
            LldError::Config("a checkpoint slab holds at most 4 GiB: raise map_shards".into())
        })?;
        self.device.write_at(w.area + w.end, &slab.bytes)?;
        w.dir.extend_from_slice(&slab.n_blocks.to_le_bytes());
        w.dir.extend_from_slice(&slab.n_lists.to_le_bytes());
        w.dir.extend_from_slice(&crc32(&slab.bytes).to_le_bytes());
        w.dir.extend_from_slice(&len.to_le_bytes());
        w.end += u64::from(len);
        Ok(())
    }

    /// Step 3, *commit*: dedup slab, directory, header last, flush,
    /// publish, holding the log mutex (lock order: `ckpt_io` → log →
    /// dedup).
    fn ckpt_commit(&self, w: &CkptWrite, io: &mut CkptSlots) -> Result<()> {
        let mut log = self.log.lock();
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
        if !dedup.is_empty() {
            self.device.write_at(w.area + w.end, &dedup)?;
        }
        self.device.write_at(w.area + CKPT_HEADER, &w.dir)?;
        // What the header vouches for is durable before the header is
        // written: the slabs, the directory, and every segment it
        // covers, the seal *begin* made included (docs/INVARIANTS.md
        // I4, "Across a barrier").
        self.device.flush()?;
        self.barrier_covers.fetch_max(w.covered, Ordering::Relaxed);
        self.device.write_at(w.area, &header)?;
        self.device.flush()?;
        io.use_b = w.area == self.layout.ckpt_a;
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
        Ok(())
    }
}

/// Reads and validates one area's header and slab directory (one device
/// read for both), resolving each slab's absolute offset. `None` if the
/// area holds no valid checkpoint (bad magic, CRC, or geometry).
pub(crate) fn read_header_dir<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    area: u64,
) -> Result<Option<CkptHeaderInfo>> {
    const BODY: usize = CKPT_HEADER as usize - 4;
    let mut buf = [0u8; (CKPT_HEADER + CKPT_DIR_RESERVE) as usize];
    device.read_at(area, &mut buf)?;
    let (header, dir) = buf.split_at(CKPT_HEADER as usize);
    if crc32(&header[..BODY]) != u32_at(header, BODY) {
        return Ok(None);
    }
    let u32at = |p: usize| u32_at(header, p);
    if u32at(0) != CKPT_MAGIC {
        return Ok(None);
    }
    let head = ChainHead {
        slot: u32at(56),
        base: u32at(60),
        link: u32at(4),
    };
    let seq = u64_at(header, 8);
    let ts_counter = u64_at(header, 16);
    let block_floor = u64_at(header, 24);
    let list_floor = u64_at(header, 32);
    let snap_shards = u32at(40);
    let dir_crc = u32at(44);
    let n_dedup = u64::from(u32at(48));
    let dedup_crc = u32at(52);
    if snap_shards == 0 || u64::from(snap_shards) > MAX_SNAP_SHARDS {
        return Ok(None);
    }
    let dir = &dir[..snap_shards as usize * CKPT_DIR_ENTRY as usize];
    if crc32(dir) != dir_crc {
        return Ok(None);
    }
    let mut slabs = Vec::with_capacity(snap_shards as usize);
    let mut off = area + CKPT_HEADER + CKPT_DIR_RESERVE;
    let end = area + layout.ckpt_area_size;
    for entry in dir.chunks_exact(CKPT_DIR_ENTRY as usize) {
        let len = u64::from(u32_at(entry, 20));
        let Some(next) = off.checked_add(len).filter(|&next| next <= end) else {
            return Ok(None);
        };
        slabs.push(SlabInfo {
            offset: off,
            len,
            n_blocks: u64_at(entry, 0),
            n_lists: u64_at(entry, 8),
            crc: u32_at(entry, 16),
        });
        off = next;
    }
    if (off.checked_add(n_dedup * CKPT_DEDUP_ENTRY)).is_none_or(|dedup_end| dedup_end > end) {
        return Ok(None);
    }
    // No writer holds more rows than the allocators hand out, and a
    // table whose columns all take 0 bits would count on for free.
    let total = |n: fn(&SlabInfo) -> u64| slabs.iter().map(n).fold(0, u64::saturating_add);
    if total(|s| s.n_blocks) > layout.max_blocks || total(|s| s.n_lists) > layout.max_lists {
        return Ok(None);
    }
    Ok(Some(CkptHeaderInfo {
        area,
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
    /// Bytes the checkpoint takes in its area: header, directory
    /// reserve, slabs, dedup slab.
    pub(crate) fn bytes(&self) -> u64 {
        self.dedup_off + self.n_dedup * CKPT_DEDUP_ENTRY - self.area
    }

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

    /// Opens every snapshot slab in `body` ([`SlabInfo::open`]). `None`
    /// if any slab fails (the whole area must then be considered
    /// invalid); no row has been looked at.
    pub(crate) fn slabs<'a>(&self, body: &'a [u8]) -> Option<Vec<SlabReader<'a>>> {
        (self.slabs.iter())
            .map(|info| info.open(self.slice(body, info.offset, info.len)))
            .collect()
    }
}

impl SlabInfo {
    /// Checks the slab in `payload`: its CRC, its descriptors, and that
    /// each table's rows take what they and its count add up to.
    fn open<'a>(&self, payload: &'a [u8]) -> Option<SlabReader<'a>> {
        if crc32(payload) != self.crc {
            return None;
        }
        let (desc, rows) = payload.split_at_checked(CKPT_SLAB_DESC as usize)?;
        let blocks = Columns::parse(desc)?;
        let lists = Columns::parse(&desc[BLOCK_COLS * COL_DESC..])?;
        let block_bytes = blocks.table_bytes(self.n_blocks)?;
        let list_bytes = lists.table_bytes(self.n_lists)?;
        if block_bytes.checked_add(list_bytes)? != rows.len() as u64 {
            return None;
        }
        let (block_rows, list_rows) = rows.split_at(block_bytes as usize);
        Some(SlabReader {
            n_blocks: self.n_blocks,
            n_lists: self.n_lists,
            blocks,
            lists,
            block_rows,
            list_rows,
        })
    }
}

/// One snapshot slab whose checksum and descriptors hold, ready to hand
/// out its rows, in identifier order. Recovery enters them straight
/// into the shard tables.
#[derive(Debug)]
pub(crate) struct SlabReader<'a> {
    pub(crate) n_blocks: u64,
    pub(crate) n_lists: u64,
    blocks: Columns<BLOCK_COLS>,
    lists: Columns<LIST_COLS>,
    block_rows: &'a [u8],
    list_rows: &'a [u8],
}

fn checked_id(raw: u64, what: &str) -> Result<u64> {
    if raw == 0 || raw > MAX_RAW_ID {
        return Err(LldError::Corrupt(format!(
            "{what} identifier {raw} in checkpoint"
        )));
    }
    Ok(raw)
}

fn row_overflow() -> LldError {
    LldError::Corrupt("a checkpoint row's value passes u64::MAX".into())
}

/// The rows of one table, each decoded from its coded values and the
/// row before it; `Err` where a value passes `u64::MAX`.
fn decoded<'a, const N: usize>(
    cols: Columns<N>,
    bytes: &'a [u8],
    n: u64,
    decode: impl Fn(&[u64; N], [u64; N]) -> Option<[u64; N]> + 'a,
) -> impl Iterator<Item = Result<[u64; N]>> + 'a {
    let mut rows = BitRows::new(cols, bytes);
    let mut prev = [0u64; N];
    (0..n).map(move |_| {
        let row = rows.next_row().and_then(|coded| decode(&prev, coded));
        prev = row.ok_or_else(row_overflow)?;
        Ok(prev)
    })
}

impl SlabReader<'_> {
    /// The block-number-map rows.
    ///
    /// # Errors
    ///
    /// Each item is [`LldError::Corrupt`] for a row that no writer
    /// produces (see the module docs); a CRC-valid slab can hold one.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Result<(BlockId, BlockRecord)>> + '_ {
        let rows = decoded(self.blocks, self.block_rows, self.n_blocks, decode_block);
        rows.map(|row| {
            let [id, segment, sector, sectors, successor, list, ts] = row?;
            let id = BlockId::new(checked_id(id, "block")?);
            let addr = match segment.checked_sub(1) {
                None => None,
                Some(at) => {
                    let fields = (u32::try_from(at), u32::try_from(sector));
                    let (Ok(at), Ok(sector), Ok(sectors)) =
                        (fields.0, fields.1, sectors.try_into())
                    else {
                        return Err(LldError::Corrupt(format!(
                            "checkpoint places {id} at slot {at}, sector {sector} + {sectors}"
                        )));
                    };
                    Some(PhysAddr {
                        segment: SegmentId::new(at),
                        sector,
                        sectors,
                    })
                }
            };
            let rec = BlockRecord {
                allocated: true,
                addr,
                successor: BlockId::decode_opt(successor),
                list: ListId::decode_opt(list),
                ts: Timestamp::new(ts),
            };
            Ok((id, rec))
        })
    }

    /// The list-table rows.
    ///
    /// # Errors
    ///
    /// As for [`blocks`](Self::blocks).
    pub(crate) fn lists(&self) -> impl Iterator<Item = Result<(ListId, ListRecord)>> + '_ {
        let rows = decoded(self.lists, self.list_rows, self.n_lists, decode_list);
        rows.map(|row| {
            let [id, first, last, ts] = row?;
            let rec = ListRecord {
                allocated: true,
                first: BlockId::decode_opt(first),
                last: BlockId::decode_opt(last),
                ts: Timestamp::new(ts),
            };
            Ok((ListId::new(checked_id(id, "list")?), rec))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{CKPT_BLOCK_ROW_MAX, CKPT_LIST_ROW_MAX};
    use crate::obs::TraceEvent;
    use crate::{CleanerConfig, Ctx, Lld, LldConfig, Position};
    use ld_disk::{DiskModel, MemDisk, SimDisk, SmallRng};

    /// The paper's single-threaded cleaner: no `cleanerd` to write a
    /// checkpoint of its own where a test counts them.
    fn inline_cleaner() -> CleanerConfig {
        CleanerConfig {
            background: false,
            ..CleanerConfig::default()
        }
    }

    type SlabRows = (Vec<(BlockId, BlockRecord)>, Vec<(ListId, ListRecord)>);

    /// The rows of one slab, as the reader hands them out.
    fn rows(slab: &SlabReader<'_>) -> SlabRows {
        let blocks: Vec<_> = slab.blocks().collect::<Result<_>>().unwrap();
        let lists: Vec<_> = slab.lists().collect::<Result<_>>().unwrap();
        assert!(blocks.is_sorted_by_key(|(id, _)| id.get()));
        assert!(lists.is_sorted_by_key(|(id, _)| id.get()));
        (blocks, lists)
    }

    /// Everything recovery would load from one area: the rows of every
    /// slab, the slabs' bytes, the dedup slab, and the byte count the
    /// area occupies.
    fn load(ld: &Lld<MemDisk>, area: u64) -> (Vec<SlabRows>, Vec<u8>, Vec<u8>, u64) {
        let hdr = read_header_dir(ld.device(), &ld.layout, area)
            .unwrap()
            .expect("a valid checkpoint");
        let body = hdr.read_body(ld.device()).unwrap();
        let slabs = hdr.slabs(&body).expect("slab CRCs and descriptors");
        let slab_bytes = body[..(hdr.dedup_off - hdr.slabs[0].offset) as usize].to_vec();
        let dedup = hdr.dedup_slab(&body).expect("CRC").to_vec();
        let rows = slabs.iter().map(rows).collect();
        (rows, slab_bytes, dedup, hdr.bytes())
    }

    /// Two checkpoints of one state, one in each area, are the same
    /// checkpoint: the same slab bytes, so the same tables, the same
    /// dedup cache, the same size — and the size each reports in its
    /// trace event is the size on disk, which is what recovery reports
    /// having loaded.
    #[test]
    fn two_checkpoints_of_one_state_are_the_same() {
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
        ld.checkpoint().unwrap(); // area B

        let (a, b) = (load(&ld, ld.layout.ckpt_a), load(&ld, ld.layout.ckpt_b));
        assert_eq!(a.1, b.1, "slab bytes");
        assert_eq!(a.0, b.0, "tables");
        assert_eq!(
            a.0.iter().map(|(blocks, _)| blocks.len()).sum::<usize>(),
            20
        );
        assert_eq!(a.2.len() as u64, 20 * CKPT_DEDUP_ENTRY);
        assert_eq!(a.2, b.2, "dedup cache");
        assert_eq!(a.3, b.3);
        let reported: Vec<u64> = (ld.obs().ring().entries().iter())
            .filter_map(|e| match e.event {
                TraceEvent::Checkpoint { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(reported, [a.3, b.3]);
        let (_, report) = Lld::recover_with(ld.into_device(), &cfg).unwrap();
        assert_eq!((report.snap_shards, report.snapshot_bytes), (8, b.3));
    }

    /// What a reader makes of `slab` alone: `None` where it refuses the
    /// slab, else the tables its rows give, or the first row's error —
    /// an identifier twice included, as recovery enters rows.
    fn reopen(slab: &Slab) -> Option<Result<Tables>> {
        let info = SlabInfo {
            offset: 0,
            len: slab.bytes.len() as u64,
            n_blocks: slab.n_blocks,
            n_lists: slab.n_lists,
            crc: crc32(&slab.bytes),
        };
        let reader = info.open(&slab.bytes)?;
        let twice = |id: &dyn std::fmt::Display| LldError::Corrupt(format!("{id} twice"));
        Some((|| {
            let mut t = Tables::default();
            for entry in reader.blocks() {
                let (id, rec) = entry?;
                if t.blocks.insert(id, rec).is_some() {
                    return Err(twice(&id));
                }
            }
            for entry in reader.lists() {
                let (id, rec) = entry?;
                if t.lists.insert(id, rec).is_some() {
                    return Err(twice(&id));
                }
            }
            Ok(t)
        })())
    }

    /// Column `col`'s descriptor fields in `slab`.
    fn width(slab: &Slab, col: usize) -> u8 {
        slab.bytes[col * COL_DESC + CKPT_COL_WIDTH]
    }

    fn shift(slab: &Slab, col: usize) -> u8 {
        slab.bytes[col * COL_DESC + CKPT_COL_SHIFT]
    }

    /// Bits a block row and a list row take in `slab`.
    fn row_bits(slab: &Slab) -> (u32, u32) {
        let sum = |cols: std::ops::Range<usize>| cols.map(|c| u32::from(width(slab, c))).sum();
        (sum(0..BLOCK_COLS), sum(BLOCK_COLS..BLOCK_COLS + LIST_COLS))
    }

    /// One column of a seeded table: values in `1..=max`, spread over as
    /// many bits as chance had it.
    struct Col {
        base: u64,
        span: u64,
    }

    impl Col {
        fn new(rng: &mut SmallRng, max: u64) -> Col {
            let span = match rng.next_u64() % 65 {
                64 => u64::MAX,
                bits => (1 << bits) - 1,
            }
            .min(max - 1);
            Col {
                base: 1 + rng.next_u64() % (max - span),
                span,
            }
        }

        fn value(&self, rng: &mut SmallRng) -> u64 {
            self.base + rng.next_u64() % (self.span + 1)
        }

        /// A third of the optional fields are absent.
        fn opt(&self, rng: &mut SmallRng) -> Option<u64> {
            let v = self.value(rng);
            (!rng.next_u64().is_multiple_of(3)).then_some(v)
        }
    }

    /// Seeded tables of up to `n` blocks and `n / 2` lists.
    fn tables(rng: &mut SmallRng, n: u64) -> Tables {
        let mut t = Tables::default();
        let [id, successor, list, first, last, ts] =
            [MAX_RAW_ID, u64::MAX, u64::MAX, u64::MAX, u64::MAX, u64::MAX]
                .map(|max| Col::new(rng, max));
        // A segment below `n_segments`, itself a u32; a sector of a
        // slot of at most 4 GiB; a count of a block of at most 64 KiB.
        let segment = Col::new(rng, u64::from(u32::MAX) - 1);
        let sector = Col::new(rng, 1 << 23);
        let sectors = Col::new(rng, 128);
        for _ in 0..rng.next_u64() % (n + 1) {
            let rec = BlockRecord {
                allocated: true,
                addr: segment.opt(rng).map(|segment| PhysAddr {
                    segment: SegmentId::new(segment as u32),
                    sector: sector.value(rng) as u32,
                    sectors: sectors.value(rng) as u32,
                }),
                successor: successor.opt(rng).map(BlockId::new),
                list: list.opt(rng).map(ListId::new),
                ts: Timestamp::new(ts.value(rng)),
            };
            t.blocks.insert(BlockId::new(id.value(rng)), rec);
        }
        let id = Col::new(rng, MAX_RAW_ID);
        for _ in 0..rng.next_u64() % (n / 2 + 1) {
            let rec = ListRecord {
                allocated: true,
                first: first.opt(rng).map(BlockId::new),
                last: last.opt(rng).map(BlockId::new),
                ts: Timestamp::new(ts.value(rng)),
            };
            t.lists.insert(ListId::new(id.value(rng)), rec);
        }
        t
    }

    /// What format 4 took for the same tables.
    fn fixed_width(t: &Tables) -> u64 {
        t.blocks.len() as u64 * CKPT_BLOCK_ROW_MAX + t.lists.len() as u64 * CKPT_LIST_ROW_MAX
    }

    /// A table of full blocks pays nothing for the sector count: the
    /// column holds one value, a block's 8 sectors, also where a block
    /// has no address. One short block gives it bits in every row.
    #[test]
    fn full_blocks_pay_nothing_for_the_count_column() {
        let mut t = Tables::default();
        for id in 1..=100u64 {
            let addr = (id % 10 != 0).then(|| PhysAddr {
                segment: SegmentId::new((id / 30) as u32),
                sector: 8 * (id % 30) as u32 + 8,
                sectors: 8,
            });
            let rec = BlockRecord {
                addr,
                ..BlockRecord::fresh(Timestamp::new(id))
            };
            t.blocks.insert(BlockId::new(id), rec);
        }
        let full = encode_slab(&t, 8);
        assert_eq!(width(&full, 3), 0);
        assert_eq!(reopen(&full).unwrap().unwrap(), t);
        let short = t.blocks.get_mut(&BlockId::new(7)).unwrap();
        short.addr.as_mut().unwrap().sectors = 2;
        let mixed = encode_slab(&t, 8);
        // 2 and 8 share their low bit: the count column is stored as
        // `(count − 2) >> 1`, 2 bits, 25 bytes over 100 rows.
        assert_eq!((width(&mixed, 3), shift(&mixed, 3)), (2, 1));
        assert_eq!(mixed.bytes.len(), full.bytes.len() + 25);
        assert_eq!(reopen(&mixed).unwrap().unwrap(), t);
    }

    /// Seeded tables of every shape come back as they went in, and never
    /// take more than the descriptors over format 4's fixed-width rows:
    /// the bound `Layout::compute` sizes the area by. Every width a
    /// descriptor holds is exercised, and rows built by hand to take
    /// every column's widest reach that bound exactly.
    #[test]
    fn slabs_round_trip_within_the_fixed_width_bound() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0005);
        let mut widths = std::collections::BTreeSet::new();
        for case in 0..400 {
            let tables = tables(&mut rng, [0, 1, 2, 40][case % 4]);
            let slab = encode_slab(&tables, 8);
            assert!(
                slab.bytes.len() as u64 <= CKPT_SLAB_DESC + fixed_width(&tables),
                "case {case}: {} bytes",
                slab.bytes.len()
            );
            let (block_bits, list_bits) = row_bits(&slab);
            assert!(block_bits <= 320 && list_bits <= 255, "case {case}");
            assert_eq!(reopen(&slab).unwrap().unwrap(), tables, "case {case}");
            widths.extend((0..BLOCK_COLS + LIST_COLS).map(|c| width(&slab, c)));
        }
        // And every width from 1 by hand: list timestamps coded 0, 1
        // and 2^w − 1, the zigzags of 0, −1 and −2^(w−1).
        for w in 1..=64u32 {
            let t1 = u64::MAX;
            let t2 = t1.wrapping_sub(1 << (w - 1));
            let mut t = Tables::default();
            for (id, ts) in [(1, 0), (2, t1), (3, t2)] {
                t.lists
                    .insert(ListId::new(id), ListRecord::fresh(Timestamp::new(ts)));
            }
            let slab = encode_slab(&t, 8);
            assert_eq!(u32::from(width(&slab, 10)), w);
            assert_eq!(reopen(&slab).unwrap().unwrap(), t, "width {w}");
            widths.insert(width(&slab, 10));
        }
        assert_eq!(widths, (0..=64).collect(), "every width was exercised");

        // Each column's coded values span its widest, from 0 (or 1) to
        // the top, with an odd step so that nothing shifts.
        let top = 1u64 << 63;
        let at = |segment: u32, sector: u32, sectors: u32| PhysAddr {
            segment: SegmentId::new(segment),
            sector,
            sectors,
        };
        let worst = [
            (1, at(0, 0, 1), 0, 0, 0),
            (3, at(u32::MAX - 1, (1 << 23) - 1, 128), top + 3, top, top),
            (MAX_RAW_ID, at(u32::MAX - 2, 0, 0), MAX_RAW_ID, top, top),
        ];
        let mut t = Tables::default();
        for (id, addr, successor, list, ts) in worst {
            let rec = BlockRecord {
                allocated: true,
                addr: Some(addr),
                successor: BlockId::decode_opt(successor),
                list: ListId::decode_opt(list),
                ts: Timestamp::new(ts),
            };
            t.blocks.insert(BlockId::new(id), rec);
        }
        for (id, first, last, ts) in [(1, 0, 0, 0), (3, top, 0, top), (MAX_RAW_ID, top, top, top)] {
            let rec = ListRecord {
                allocated: true,
                first: BlockId::decode_opt(first),
                last: BlockId::decode_opt(last),
                ts: Timestamp::new(ts),
            };
            t.lists.insert(ListId::new(id), rec);
        }
        let slab = encode_slab(&t, 8);
        let block_widths: Vec<u8> = (0..BLOCK_COLS).map(|c| width(&slab, c)).collect();
        assert_eq!(block_widths, [63, 33, 24, 8, 64, 64, 64]);
        assert_eq!(row_bits(&slab), (320, 255));
        assert_eq!(
            slab.bytes.len() as u64,
            CKPT_SLAB_DESC + 3 * CKPT_BLOCK_ROW_MAX + (3 * 255u64).div_ceil(8)
        );
        assert!((3 * 255u64).div_ceil(8) <= 3 * CKPT_LIST_ROW_MAX);
        assert_eq!(reopen(&slab).unwrap().unwrap(), t);
    }

    /// A slab is a function of its tables: rows are sorted, so the same
    /// entries encode to the same bytes whatever order they were
    /// inserted in and whatever the maps' capacity.
    #[test]
    fn a_slab_is_a_function_of_its_tables() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0008);
        for case in 0..50 {
            let t = tables(&mut rng, 60);
            let mut blocks: Vec<_> = t.blocks.iter().map(|(&id, r)| (id, r.clone())).collect();
            let mut lists: Vec<_> = t.lists.iter().map(|(&id, r)| (id, r.clone())).collect();
            blocks.sort_by_key(|(id, _)| std::cmp::Reverse(id.get()));
            lists.sort_by_key(|(id, _)| std::cmp::Reverse(id.get()));
            let mut other = Tables::default();
            other.blocks.reserve(4096);
            other.lists.reserve(4096);
            other.blocks.extend(blocks);
            other.lists.extend(lists);
            assert_eq!(
                encode_slab(&t, 8).bytes,
                encode_slab(&other, 8).bytes,
                "case {case}"
            );
        }
    }

    fn block(id: u64, rec: BlockRecord) -> Tables {
        Tables {
            blocks: [(BlockId::new(id), rec)].into_iter().collect(),
            ..Tables::default()
        }
    }

    /// The corners by hand: nothing, one entry, columns of one value,
    /// columns that span every u64, identifiers at the bound.
    #[test]
    fn slab_corners_round_trip() {
        let empty = encode_slab(&Tables::default(), 8);
        assert_eq!(empty.bytes, [0u8; CKPT_SLAB_DESC as usize]);
        assert_eq!(reopen(&empty).unwrap().unwrap(), Tables::default());

        // One entry: every column is its own minimum, no row bytes.
        let mut one = block(
            MAX_RAW_ID,
            BlockRecord {
                addr: Some(PhysAddr {
                    segment: SegmentId::new(u32::MAX - 1),
                    sector: (1 << 23) - 1,
                    sectors: 128,
                }),
                successor: Some(BlockId::new(u64::MAX)),
                list: Some(ListId::new(u64::MAX)),
                ..BlockRecord::fresh(Timestamp::new(u64::MAX))
            },
        );
        let slab = encode_slab(&one, 8);
        assert_eq!(slab.bytes.len() as u64, CKPT_SLAB_DESC);
        assert_eq!(reopen(&slab).unwrap().unwrap(), one);

        // A second, at the other end of every column.
        one.blocks
            .insert(BlockId::new(1), BlockRecord::fresh(Timestamp::ZERO));
        one.lists
            .insert(ListId::new(1), ListRecord::fresh(Timestamp::ZERO));
        one.lists.insert(
            ListId::new(MAX_RAW_ID),
            ListRecord {
                first: Some(BlockId::new(u64::MAX)),
                last: Some(BlockId::new(u64::MAX)),
                ..ListRecord::fresh(Timestamp::new(u64::MAX))
            },
        );
        let slab = encode_slab(&one, 8);
        assert!(slab.bytes.len() as u64 <= CKPT_SLAB_DESC + fixed_width(&one));
        assert_eq!(reopen(&slab).unwrap().unwrap(), one);

        // Many rows that differ in their identifier only: after the
        // first row's 1,000 the identifier steps by 1, and an absent
        // successor is coded from its row's identifier.
        let mut same = Tables::default();
        for id in 1000..1256 {
            same.blocks
                .insert(BlockId::new(id), BlockRecord::fresh(Timestamp::new(7)));
        }
        let slab = encode_slab(&same, 8);
        let widths: Vec<u8> = (0..BLOCK_COLS).map(|c| width(&slab, c)).collect();
        assert_eq!(widths, [10, 0, 0, 0, 8, 0, 3]);
        assert_eq!(slab.bytes.len() as u64, CKPT_SLAB_DESC + 256 * 21 / 8);
        assert_eq!(reopen(&slab).unwrap().unwrap(), same);
    }

    /// One shard's stripe of `local_append`'s tables (two-block lists,
    /// dense identifiers, blocks laid out in allocation order) packs to
    /// under a tenth of its fixed-width size (10,086 of 103,936 bytes).
    #[test]
    fn dense_tables_pack_to_under_a_tenth() {
        let (shard, stripe) = (3u64, 8u64);
        let mut t = Tables::default();
        for n in 0..928u64 {
            let list = ListId::new(n * stripe + shard);
            let ids = [
                BlockId::new(2 * n * stripe + shard),
                BlockId::new((2 * n + 1) * stripe + shard),
            ];
            for (k, id) in ids.into_iter().enumerate() {
                let at = 2 * n + k as u64;
                let rec = BlockRecord {
                    allocated: true,
                    addr: Some(PhysAddr {
                        segment: SegmentId::new((at / 127) as u32),
                        sector: 8 * (1 + (at % 127) as u32),
                        sectors: 8,
                    }),
                    successor: (k == 0).then_some(ids[1]),
                    list: Some(list),
                    ts: Timestamp::new(10 * n + k as u64),
                };
                t.blocks.insert(id, rec);
            }
            let rec = ListRecord {
                allocated: true,
                first: Some(ids[0]),
                last: Some(ids[1]),
                ts: Timestamp::new(10 * n + 3),
            };
            t.lists.insert(list, rec);
        }
        let slab = encode_slab(&t, 8);
        assert_eq!(reopen(&slab).unwrap().unwrap(), t);
        let (packed, fixed) = (slab.bytes.len() as u64, fixed_width(&t));
        assert!(10 * packed <= fixed, "{packed} of {fixed} bytes");
    }

    /// A slab that passes its CRC is still not taken at its word: no
    /// descriptors, a width or shift no u64 has, rows other than what
    /// counts and widths add up to, counts whose product overflows — the
    /// reader refuses the slab; a row whose value passes `u64::MAX`,
    /// whose identifier is zero, past the bound or a repeat, whose
    /// address no u32 holds — the row is an error.
    #[test]
    fn hostile_slabs_are_refused_or_typed_errors() {
        // Block identifiers 5, 300: coded 5 and 295, stored from 5 by a
        // shift of 1, 0 and 145 in 8 bits. Lists 9, 10: coded 9 and 1,
        // stored from 1 by a shift of 3, 1 and 0 in 1 bit.
        let mut t = block(5, BlockRecord::fresh(Timestamp::new(1)));
        t.blocks
            .insert(BlockId::new(300), BlockRecord::fresh(Timestamp::new(2)));
        t.lists
            .insert(ListId::new(9), ListRecord::fresh(Timestamp::new(3)));
        t.lists
            .insert(ListId::new(10), ListRecord::fresh(Timestamp::new(4)));
        let good = encode_slab(&t, 8);
        assert_eq!(reopen(&good).unwrap().unwrap(), t);
        assert_eq!(
            (u64_at(&good.bytes, 0), width(&good, 0), shift(&good, 0)),
            (5, 8, 1)
        );
        assert_eq!(
            (
                u64_at(&good.bytes, 7 * COL_DESC),
                width(&good, 7),
                shift(&good, 7)
            ),
            (1, 1, 3)
        );
        let edit = |f: &dyn Fn(&mut Slab)| {
            let mut slab = encode_slab(&t, 8);
            f(&mut slab);
            reopen(&slab)
        };
        let min = |col: usize| col * COL_DESC;
        let width = |col: usize| col * COL_DESC + CKPT_COL_WIDTH;
        let shift = |col: usize| col * COL_DESC + CKPT_COL_SHIFT;

        // Refused whole.
        assert!(edit(&|s| s.bytes.truncate(CKPT_SLAB_DESC as usize - 1)).is_none());
        assert!(edit(&|s| s.bytes[width(0)] = 65).is_none(), "a width of 65");
        assert!(edit(&|s| s.bytes[width(9)] = 200).is_none());
        assert!(
            edit(&|s| s.bytes[shift(0)] = 57).is_none(),
            "width + shift of 65"
        );
        assert!(edit(&|s| s.bytes[shift(3)] = 64).is_none(), "a shift of 64");
        assert!(
            edit(&|s| s.bytes.truncate(s.bytes.len() - 1)).is_none(),
            "a byte short"
        );
        assert!(edit(&|s| s.bytes.push(0)).is_none(), "a byte long");
        assert!(
            edit(&|s| s.bytes[width(5)] += 4).is_none(),
            "rows a byte wider"
        );
        assert!(edit(&|s| s.n_blocks += 1).is_none());
        assert!(edit(&|s| s.n_lists = 0).is_none());
        assert!(
            edit(&|s| s.n_blocks = u64::MAX / 2 + 2).is_none(),
            "product overflows"
        );
        assert!(
            edit(&|s| s.n_lists = u64::MAX - 1).is_none(),
            "sum overflows"
        );
        // `width + shift` of 64 is taken: a shift of 56 carries the
        // second block identifier past the bound.
        assert!(matches!(
            edit(&|s| s.bytes[shift(0)] = 56),
            Some(Err(LldError::Corrupt(_)))
        ));

        // Row errors.
        let corrupt = |got: Option<Result<Tables>>| matches!(got, Some(Err(LldError::Corrupt(_))));
        let put =
            |s: &mut Slab, at: usize, v: u64| s.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        assert!(
            corrupt(edit(&|s| put(s, min(0), u64::MAX - 200))),
            "block id overflows"
        );
        assert!(
            corrupt(edit(&|s| put(s, min(0), MAX_RAW_ID + 1))),
            "block id past the bound"
        );
        assert!(corrupt(edit(&|s| put(s, min(0), 0))), "block id zero");
        // The first identifier is in bounds, the second the first plus
        // a delta that carries it past the bound, or past u64::MAX.
        assert!(
            corrupt(edit(&|s| put(s, min(0), MAX_RAW_ID / 2 + 1))),
            "block id delta past the bound"
        );
        assert!(
            corrupt(edit(&|s| put(s, min(0), MAX_RAW_ID))),
            "block id delta wraps"
        );
        // Lists 8 and 8: a delta of 0 is the same identifier twice.
        assert!(corrupt(edit(&|s| put(s, min(7), 0))), "a repeated list id");
        assert!(
            corrupt(edit(&|s| put(s, min(7), u64::MAX))),
            "list id overflows"
        );
        assert!(
            corrupt(edit(&|s| put(s, min(7), MAX_RAW_ID + 1))),
            "list id past the bound"
        );
        assert!(
            corrupt(edit(&|s| put(s, min(4), u64::MAX))),
            "a successor's minimum + delta overflows"
        );
        assert!(
            corrupt(edit(&|s| put(s, min(1), zigzag((1 << 32) + 1, 0)))),
            "segment past u32"
        );
        assert!(
            corrupt(edit(&|s| {
                put(s, min(1), zigzag(1, 0));
                put(s, min(2), zigzag(1 << 32, 0));
            })),
            "sector past u32"
        );
        assert!(
            corrupt(edit(&|s| {
                put(s, min(1), zigzag(1, 0));
                put(s, min(3), 1 << 32);
            })),
            "sector count past u32"
        );
        // At the bound: the first identifier `m`, the second `m + m +
        // 145` with the shift gone.
        let at_bound = edit(&|s| {
            put(s, min(0), (MAX_RAW_ID - 145) / 2);
            s.bytes[shift(0)] = 0;
        });
        assert!(at_bound
            .unwrap()
            .unwrap()
            .blocks
            .contains_key(&BlockId::new(MAX_RAW_ID)));
        // A shift that carries a delta past `u64::MAX`, at a width the
        // rows keep: the timestamps of rows 7 and 8 are coded 1 and 2.
        let mut wide = encode_slab(
            &Tables {
                blocks: [
                    (
                        BlockId::new(7),
                        BlockRecord::fresh(Timestamp::new(u64::MAX)),
                    ),
                    (BlockId::new(8), BlockRecord::fresh(Timestamp::ZERO)),
                ]
                .into_iter()
                .collect(),
                ..Tables::default()
            },
            8,
        );
        assert_eq!(wide.bytes[width(6)], 1, "the timestamps are a step apart");
        wide.bytes[min(6)..min(6) + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        wide.bytes[shift(6)] = 63;
        assert!(corrupt(reopen(&wide)), "shifted delta overflows");
        // An absent address, whatever its sector and count say.
        let no_addr = edit(&|s| {
            put(s, min(2), 1 << 40);
            put(s, min(3), 1 << 40);
        });
        assert_eq!(no_addr.unwrap().unwrap(), t);

        // A table whose widths are all 0 takes no bytes for any count,
        // and its identifiers step by the minimum, 1, 2, 3, …: only the
        // layout's caps bound the rows a directory may count.
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            map_shards: 1,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
        ld.checkpoint().unwrap(); // area A: one slab, no rows
        let (layout, device) = (&ld.layout, ld.device());
        let (area, dir) = (layout.ckpt_a, layout.ckpt_a + CKPT_HEADER);
        let at = dir + CKPT_DIR_RESERVE;
        let mut zero = vec![0u8; CKPT_SLAB_DESC as usize];
        device.read_at(at, &mut zero).unwrap();
        assert_eq!(zero, encode_slab(&Tables::default(), 1).bytes);
        zero[min(0)] = 1;
        zero[min(7)] = 1;
        let counted = |n_blocks: u64, n_lists: u64| {
            let mut entry = Vec::new();
            entry.extend_from_slice(&n_blocks.to_le_bytes());
            entry.extend_from_slice(&n_lists.to_le_bytes());
            entry.extend_from_slice(&crc32(&zero).to_le_bytes());
            entry.extend_from_slice(&(zero.len() as u32).to_le_bytes());
            let mut header = [0u8; CKPT_HEADER as usize];
            device.read_at(area, &mut header).unwrap();
            header[44..48].copy_from_slice(&crc32(&entry).to_le_bytes());
            let crc = crc32(&header[..CKPT_HEADER as usize - 4]);
            header[CKPT_HEADER as usize - 4..].copy_from_slice(&crc.to_le_bytes());
            device.write_at(at, &zero).unwrap();
            device.write_at(dir, &entry).unwrap();
            device.write_at(area, &header).unwrap();
            read_header_dir(device, layout, area).unwrap()
        };
        let at_caps = counted(layout.max_blocks, layout.max_lists).expect("counts at the caps");
        let body = at_caps.read_body(device).unwrap();
        let slab = &at_caps.slabs(&body).expect("descriptors")[0];
        let ids = slab.blocks().map(|row| row.unwrap().0.get());
        assert!(ids.eq(1..=layout.max_blocks));
        assert!(slab
            .lists()
            .map(|row| row.unwrap().0.get())
            .eq(1..=layout.max_lists));
        assert!(
            counted(layout.max_blocks + 1, 0).is_none(),
            "a block past the cap"
        );
        assert!(
            counted(0, layout.max_lists + 1).is_none(),
            "a list past the cap"
        );
        assert!(counted(1 << 40, 0).is_none(), "2^40 rows of no bytes");
        assert!(counted(u64::MAX, u64::MAX).is_none());
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
        ld.after_session(true);
        assert_eq!(ld.stats().checkpoint_failures, 2);
    }

    /// The record-counted suffix bound (`seal_current`): a seal asks for
    /// a checkpoint once the summary records past the last one, each at
    /// its format-8 width, reach the weight of the tables (40 a block,
    /// 32 a list), and never below 64 Ki; the checkpoint's commit starts
    /// the count again.
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
        // `n` empty units, a commit record each (weight 17, whatever
        // it encodes to), then sealed.
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
        assert_eq!((suffix(), ld.stats().checkpoints), (0, 1), "68,000");

        // 2,000 blocks on a list weigh 80,032.
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
        ld.checkpoint().unwrap();
        assert_eq!(ld.free_segments(), 1);
        ld.delete_list(Ctx::Simple, list).unwrap();
    }
}
