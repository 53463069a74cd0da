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
//! # On-disk format (format version 11)
//!
//! Each of the two alternating areas (A/B) holds one checkpoint as
//! *per-shard snapshot slabs* and a *dedup table* behind a slab
//! directory; its header is not in the area but next to the superblock,
//! alone in its sector (sector 1 for A, 2 for B:
//! [`CKPT_HEADER_AT`](crate::layout::CKPT_HEADER_AT)), so a restart
//! reads the superblock and both headers in one read. The header, a
//! directory entry, a column descriptor and the columns of each table
//! are declared in `layout.rs` ([`CHECKPOINT_HEADER`](crate::layout::CHECKPOINT_HEADER)
//! and the like); docs/FORMAT.md gives them all.
//!
//! Slab `i` holds the records of map shard `i` at checkpoint time (the
//! shard count is a runtime knob: recovery redistributes entries by id,
//! so an image checkpointed at 8 shards recovers at any count). Every
//! slab carries its own CRC, so recovery can verify slabs
//! independently.
//!
//! A slab is *column-packed*: its rows are in identifier order, and
//! every value is stored as its distance from a *predictor*, something
//! the reader has already decoded. Its column descriptors come first,
//! then its block rows and its list rows, each table bit-packed from its
//! first byte: per row and column, least significant bit first,
//! `(coded − minimum) >> shift` in `width` bits; a table takes
//! ⌈n × Σ widths / 8⌉ bytes, its last byte padded with zeros.
//!
//! A column's *coded* value is, for the identifier, the plain
//! difference from the previous row's (rows are sorted, and the first
//! row's predecessor is 0); for a block's segment, sector and timestamp
//! and a list's timestamp, the zigzag of the wrapping difference from
//! the previous row's value; a block's sector count is stored as it is.
//! The zigzag of a wrapping difference is a bijection on u64, so a small
//! step either way is a small number and every value has a code. The
//! four identifier references — a block's successor and list, a list's
//! first and last — code an absent one as 0 and a present one as the
//! zigzag of its difference from its predictor plus one: for the
//! successor the row's own identifier, for last the row's own first, for
//! list and first the previous row's value.
//!
//! A column whose coded values are all equal takes no bits in a row: the
//! sector count of an address is the constant 8 on a disk of full 4 KiB
//! blocks. The shift drops the low bits every coded value of a column
//! shares with the others. "None" never costs a column its width: an
//! absent reference codes as 0, so a list's tail pays nothing for its
//! successor; an absent address is segment 0 with a present one stored
//! as `segment + 1`, and the sector and count beside it are 0 and a full
//! block's. A slab is a function of its tables: the same entries give
//! the same bytes, whatever the order they were entered in or the
//! length of the arrays.
//!
//! The *dedup table* is the codec's third table: one row a client
//! (client, floor, generation, the floor's commit timestamp; `dedup.rs`)
//! in client order. No row, no byte; else four descriptors as a slab's,
//! row 0's values as four u64, and rows 1.. bit-packed, each column the
//! zigzag of its difference from the row before. Row 0 is stored in
//! full so that its absolute values — a client identifier is any u64 —
//! set no column's width.
//!
//! **The bound.** A row is never wider than 40 B (a block) or 32 B (a
//! list), which is what `Layout::compute` sizes the area by. A column's
//! width is that of its largest `coded − minimum`, so at most that of its
//! largest coded value: an identifier delta is below 2⁶³ (identifiers
//! are at most [`MAX_RAW_ID`]), 63 bits; a stored segment is at most
//! `u32::MAX` (a segment is below `n_segments`, itself a u32), so the
//! zigzag of a difference of two is below 2³³, 33 bits; a sector is
//! below 2²³ (a slot of at most 4 GiB), 24 bits; a count is at most 128
//! (a block of at most 64 KiB), 8 bits; a timestamp is any u64, 64 bits;
//! a present reference and its predictor are both at most
//! [`MAX_RAW_ID`], so their difference is below 2⁶³ either way, its
//! zigzag at most 2⁶⁴ − 2 and the code at most `u64::MAX`, 64 bits.
//! 63 + 33 + 24 + 8 + 64 + 64 + 64 = 320 bits = 40 B. A list row is at
//! most 63 + 64 + 64 + 64 = 255 bits, under 32 B. A dedup row is at most
//! four columns of 64 bits, 32 B, so `n` rows take at most 40 + 32 n
//! bytes. A variable-length code (format 5's rejected
//! delta-varint) spends a continuation bit a byte and takes up to 50 B a
//! block; a column's fixed width in bits does not.
//!
//! What a reader refuses. The *area* is invalid, and recovery falls back
//! to the other one, on: a bad magic or header CRC, a slab count outside
//! 1..=64, a body length shorter than the directory or past the area,
//! more dedup rows than the table holds ([`MAX_CLIENTS`]), a
//! directory CRC mismatch, a directory that counts more blocks or lists
//! than the layout's `max_blocks` or `max_lists` (a table whose widths
//! are all 0 takes no bytes for any count, and its identifiers step by
//! the minimum, so only the caps bound it), a slab that ends past the
//! body, a slab or dedup table that fails its CRC, a descriptor width
//! above 64, a shift above 63 or `width + shift` above 64, a table whose
//! rows are not ⌈n × Σ widths / 8⌉ bytes (checked arithmetic), and a
//! dedup table that is not empty for no outcome or not its descriptors,
//! row 0 and the rest for `n`. The *image* is [`LldError::Corrupt`] when
//! a slab that passed all of that holds a row recovery cannot take at
//! its word: `minimum + (delta << shift)` past `u64::MAX`, an identifier
//! of zero or above [`MAX_RAW_ID`] (the allocators count on from it, and
//! an identifier delta that carries past it is this case), a present
//! reference that decodes to zero or past [`MAX_RAW_ID`], a segment,
//! sector or sector count the device does not have (checked by recovery
//! against the layout), an identifier twice (an identifier delta of 0)
//! or at or past its allocator floor; so is a floor past
//! [`MapId::bound`](crate::state::MapId::bound) in the header of the
//! area chosen: recovery's tables are arrays indexed by identifier.
//!
//! The header also records where the log continues past the covered
//! sequence number — the [`ChainHead`]: the slot, the sector in it
//! where segment `seq + 1`'s data starts and the one its meta record
//! ends at (is or will be), and the header CRC of segment `seq` — which
//! is where recovery starts its walk of the suffix (see `segment.rs`).
//!
//! Torn-write safety is header-last + A/B alternation: the body —
//! directory, slabs and dedup table, back to back — is one write, then
//! a barrier, then the header (all CRC'd), then one more. A crash anywhere
//! mid-write leaves the header invalid (or stale-but-consistent), and the
//! *other* area still holds the previous checkpoint. A header write
//! touches its own sector only: not the superblock, which nothing
//! rewrites after format, nor the other header.
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
//!    lock alone, and the writer keeps the bytes behind the ones
//!    before, its directory entry in front.
//! 3. *commit* ([`LldInner::ckpt_commit`]): the dedup table *begin*
//!    encoded behind the slabs and the body in one device write, with no
//!    mapping-layer lock held; then, holding the log mutex, barrier,
//!    header last, barrier, publish.
//!
//! Foreground commits that would advance a pending shard's persistent
//! tables first preserve them in `snap_copy` (copy-on-advance, see
//! [`MapShard`](crate::shard::MapShard)), so every slab reflects
//! exactly the covered point even though the shard kept moving.

use crate::config::ConcurrencyMode;
use crate::dedup::MAX_CLIENTS;
use crate::error::{LldError, Result};
use crate::layout::{
    CkptField, ColField, DirField, Layout, BLOCK_COLUMNS, CKPT_DEDUP_DESC, CKPT_HEADER_LEN,
    CKPT_SLAB_DESC, COLUMN_DESC_LEN, DEDUP_COLUMNS, DIR_ENTRY_LEN, LIST_COLUMNS, MAX_SNAP_SHARDS,
};
use crate::lld::{LldInner, Mutation};
use crate::segment::ChainHead;
use crate::state::{BlockRecord, ListRecord};
use crate::types::{BlockId, ListId, PhysAddr, SegmentId, Timestamp, MAX_RAW_ID};
use ld_disk::{crc32, BlockDevice};
use std::sync::atomic::Ordering;

const CKPT_MAGIC: u32 = 0x4C43_4B36; // "LCK6"

/// Checkpoint-area I/O state, behind the `ckpt_io` mutex, which the
/// writer holds from *begin* to *commit* (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct CkptSlots {
    /// Write the next checkpoint to area B (the areas alternate).
    pub(crate) use_b: bool,
}

/// Directory entry for one snapshot slab: what its payload must hold.
#[derive(Debug, Clone, Copy)]
struct SlabInfo {
    n_blocks: u64,
    n_lists: u64,
    crc: u32,
}

/// A decoded checkpoint header (its body not yet read).
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
    snap_shards: u32,
    dir_crc: u32,
    /// Write-id outcomes in the dedup table.
    n_dedup: u64,
    dedup_crc: u32,
    /// Bytes of the body at the area's start: directory, slabs, dedup
    /// table.
    body_len: u64,
}

/// One checkpoint being written: what *begin* pinned, and the body the
/// slab steps have encoded so far.
struct CkptWrite {
    covered: u64,
    /// [`LogState::summary_sealed`](crate::lld::LogState::summary_sealed)
    /// at the covered point.
    covered_summary: u64,
    head: ChainHead,
    ts: u64,
    /// Global allocator floors (the max over shards): every row lies
    /// below its kind's, and recovery sizes its arrays by them.
    block_floor: u64,
    list_floor: u64,
    /// Absolute offset of the target area.
    area: u64,
    /// Slabs in the body so far.
    slabs: usize,
    /// The body so far, as it goes into the area: the directory, one
    /// entry a shard (per slab its block count, list count, CRC and
    /// byte length; zeros for the slabs still to come), then the slabs.
    body: Vec<u8>,
    /// The dedup table as of the covered point, and its row count.
    dedup: (Vec<u8>, usize),
}

impl CkptWrite {
    /// The directory: the body's first entries, one a shard.
    fn dir(&self) -> &[u8] {
        &self.body[..self.slabs * DIR_ENTRY_LEN]
    }

    /// Puts `slab` behind the ones in the body, and its entry in the
    /// directory.
    fn add_slab(&mut self, slab: Slab, area_size: u64) -> Result<()> {
        if (self.body.len() + slab.bytes.len()) as u64 > area_size {
            return Err(area_overflow());
        }
        let len = u32::try_from(slab.bytes.len()).map_err(|_| {
            LldError::Config("a checkpoint slab holds at most 4 GiB: raise map_shards".into())
        })?;
        let entry = DirField::encode(&[
            (DirField::NBlocks, slab.n_blocks),
            (DirField::NLists, slab.n_lists),
            (DirField::SlabCrc, crc32(&slab.bytes).into()),
            (DirField::SlabLen, len.into()),
        ]);
        self.body[self.slabs * DIR_ENTRY_LEN..][..DIR_ENTRY_LEN].copy_from_slice(&entry);
        self.body.extend_from_slice(&slab.bytes);
        self.slabs += 1;
        Ok(())
    }

    fn encode_header(&self, n_dedup: u32, dedup_crc: u32, body_len: u64) -> [u8; CKPT_HEADER_LEN] {
        let mut h = CkptField::encode(&[
            (CkptField::Magic, CKPT_MAGIC.into()),
            (CkptField::HeadLink, self.head.link.into()),
            (CkptField::Seq, self.covered),
            (CkptField::Ts, self.ts),
            (CkptField::BlockFloor, self.block_floor),
            (CkptField::ListFloor, self.list_floor),
            (CkptField::SnapShards, self.slabs as u64),
            (CkptField::DirCrc, crc32(self.dir()).into()),
            (CkptField::NDedup, n_dedup.into()),
            (CkptField::DedupCrc, dedup_crc.into()),
            (CkptField::HeadSlot, self.head.slot.into()),
            (CkptField::HeadBase, self.head.base.into()),
            (CkptField::HeadTop, self.head.top.into()),
            (CkptField::BodyLen, body_len),
        ]);
        CkptField::Crc.seal(&mut h);
        h
    }
}

const BLOCK_COLS: usize = BLOCK_COLUMNS.len();
const LIST_COLS: usize = LIST_COLUMNS.len();

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

/// The code of an optional identifier (`v`, 0 for none) from `pred`:
/// 0 for none, else the zigzag of the difference plus one. Both are at
/// most [`MAX_RAW_ID`], so the difference is below 2⁶³ either way and
/// the code fits a u64.
fn code_ref(v: u64, pred: u64) -> u64 {
    match v {
        0 => 0,
        v => zigzag(v, pred) + 1,
    }
}

/// Inverts [`code_ref`]; `None` for a present identifier no allocator
/// hands out (0 or past [`MAX_RAW_ID`]).
fn decode_ref(c: u64, pred: u64) -> Option<u64> {
    match c.checked_sub(1) {
        None => Some(0),
        Some(z) => Some(unzigzag(z, pred)).filter(|v| (1..=MAX_RAW_ID).contains(v)),
    }
}

/// A block row's coded values, given the previous row (all zero before
/// the first): the identifier's plain difference (rows are sorted), the
/// successor from the row's own identifier, the sector count as it is,
/// everything else from the previous row; successor and list as
/// [`code_ref`].
fn code_block(prev: &[u64; BLOCK_COLS], row: &[u64; BLOCK_COLS]) -> [u64; BLOCK_COLS] {
    let [id, segment, sector, sectors, successor, list, ts] = *row;
    [
        id - prev[0],
        zigzag(segment, prev[1]),
        zigzag(sector, prev[2]),
        sectors,
        code_ref(successor, id),
        code_ref(list, prev[5]),
        zigzag(ts, prev[6]),
    ]
}

/// Inverts [`code_block`]; `None` if the identifier passes `u64::MAX`
/// or a present successor or list is no identifier. Always inlined:
/// left to the compiler it stayed a call in [`Columns::unpack`]'s
/// loop, and restart's rows took 1.4 ms where they take 0.8 (33,000
/// rows, a scratch probe).
#[inline(always)]
fn decode_block(prev: &[u64; BLOCK_COLS], c: [u64; BLOCK_COLS]) -> Option<[u64; BLOCK_COLS]> {
    let id = prev[0].checked_add(c[0])?;
    Some([
        id,
        unzigzag(c[1], prev[1]),
        unzigzag(c[2], prev[2]),
        c[3],
        decode_ref(c[4], id)?,
        decode_ref(c[5], prev[5])?,
        unzigzag(c[6], prev[6]),
    ])
}

/// A list row's coded values: `last` from the row's own `first`, the
/// rest from the previous row; `first` and `last` as [`code_ref`].
fn code_list(prev: &[u64; LIST_COLS], row: &[u64; LIST_COLS]) -> [u64; LIST_COLS] {
    let [id, first, last, ts] = *row;
    [
        id - prev[0],
        code_ref(first, prev[1]),
        code_ref(last, first),
        zigzag(ts, prev[3]),
    ]
}

/// Inverts [`code_list`]; inlined as [`decode_block`] is.
#[inline(always)]
fn decode_list(prev: &[u64; LIST_COLS], c: [u64; LIST_COLS]) -> Option<[u64; LIST_COLS]> {
    let (id, first) = (prev[0].checked_add(c[0])?, decode_ref(c[1], prev[1])?);
    Some([id, first, decode_ref(c[2], first)?, unzigzag(c[3], prev[3])])
}

/// Codes each of `rows`, in identifier order, in place from its
/// predecessor.
fn code_rows<const N: usize>(rows: &mut [[u64; N]], code: fn(&[u64; N], &[u64; N]) -> [u64; N]) {
    debug_assert!(
        rows.windows(2).all(|w| w[0][0] < w[1][0]),
        "rows out of order"
    );
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
            out.extend_from_slice(&ColField::encode(&[
                (ColField::Min, self.min[c]),
                (ColField::Width, self.width[c].into()),
                (ColField::Shift, self.shift[c].into()),
            ]));
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
        let field = |c: usize, f: ColField| f.get(&desc[c * COLUMN_DESC_LEN..]);
        let min = std::array::from_fn(|c| field(c, ColField::Min));
        let width: [u8; N] = std::array::from_fn(|c| field(c, ColField::Width) as u8);
        let shift: [u8; N] = std::array::from_fn(|c| field(c, ColField::Shift) as u8);
        (0..N)
            .all(|c| shift[c] < 64 && u32::from(width[c]) + u32::from(shift[c]) <= 64)
            .then_some(Columns { min, width, shift })
    }

    /// Hands `row` each of the `n` rows packed in `bytes`, in order,
    /// decoded by `decode` from its coded values `min + (delta << shift)`
    /// and the row before it (`prev` before the first), and stops at the
    /// first error. Each column is read at its bit position with one
    /// unaligned 16-byte load, zeros past the table's end.
    /// [`Columns::parse`] checked every `width + shift`, so no shift here
    /// loses a bit.
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] for a coded value past `u64::MAX` or a row
    /// `decode` refuses; whatever `row` returns.
    fn unpack(
        &self,
        bytes: &[u8],
        n: u64,
        mut prev: [u64; N],
        decode: impl Fn(&[u64; N], [u64; N]) -> Option<[u64; N]>,
        mut row: impl FnMut(&[u64; N]) -> Result<()>,
    ) -> Result<()> {
        let mask = self.width.map(|w| ((1u128 << w) - 1) as u64);
        // The bit the next column starts at.
        let mut at = 0u64;
        for _ in 0..n {
            let mut coded = [0u64; N];
            for (c, v) in coded.iter_mut().enumerate() {
                let delta = (load16(bytes, (at >> 3) as usize) >> (at & 7)) as u64 & mask[c];
                at += u64::from(self.width[c]);
                *v = (self.min[c].checked_add(delta << self.shift[c])).ok_or_else(row_overflow)?;
            }
            prev = decode(&prev, coded).ok_or_else(row_overflow)?;
            row(&prev)?;
        }
        Ok(())
    }
}

/// The 16 bytes of `bytes` from `at`, little-endian, zeros past its end:
/// every bit of a column of at most 64 bits that starts in byte `at`.
#[inline]
fn load16(bytes: &[u8], at: usize) -> u128 {
    match bytes.get(at..at + 16) {
        Some(word) => u128::from_le_bytes(word.try_into().expect("16 bytes")),
        None => {
            let tail = &bytes[at.min(bytes.len())..];
            let mut le = [0u8; 16];
            le[..tail.len()].copy_from_slice(tail);
            u128::from_le_bytes(le)
        }
    }
}

/// A block's row, in [`BLOCK_COLUMNS`] order. `full`: a full block's
/// sector count, what an absent address stores as its count, so that a
/// table of full blocks has one value there.
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

/// A list's row, in [`LIST_COLUMNS`] order.
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

/// Encodes one shard's rows, each table's in identifier order (what
/// [`Tables::iter`](crate::state::Tables::iter) hands out), on a disk
/// whose blocks take `full` sectors.
fn encode_slab<'a>(
    blocks: impl Iterator<Item = (BlockId, &'a BlockRecord)>,
    lists: impl Iterator<Item = (ListId, &'a ListRecord)>,
    full: u64,
) -> Slab {
    let mut blocks: Vec<_> = blocks.map(|(id, r)| block_row(id, r, full)).collect();
    let mut lists: Vec<_> = lists.map(|(id, r)| list_row(id, r)).collect();
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

/// The dedup table's columns ([`DEDUP_COLUMNS`]): client, write id,
/// generation, commit timestamp.
pub(crate) const DEDUP_COLS: usize = DEDUP_COLUMNS.len();

/// The bytes of the dedup table of `rows`, one a client in client
/// order: none for no row; else the descriptors, the first row's values
/// in full and the rest bit-packed, each column the zigzag of its
/// difference from the row before. Row 0 is stored in full, so its
/// absolute values set no column's width.
pub(crate) fn dedup_table(rows: &[[u64; DEDUP_COLS]]) -> Vec<u8> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let coded: Vec<[u64; DEDUP_COLS]> = (rows.windows(2))
        .map(|w| std::array::from_fn(|c| zigzag(w[1][c], w[0][c])))
        .collect();
    let cols = Columns::fit(&coded);
    let mut out = Vec::new();
    cols.put_desc(&mut out);
    for v in first {
        out.extend_from_slice(&v.to_le_bytes());
    }
    cols.put_rows(&coded, &mut out);
    out
}

/// A dedup table whose descriptors and length hold, ready to hand out
/// its rows.
#[derive(Debug)]
pub(crate) struct DedupTable<'a> {
    n: u64,
    first: [u64; DEDUP_COLS],
    cols: Columns<DEDUP_COLS>,
    rows: &'a [u8],
}

impl<'a> DedupTable<'a> {
    /// Checks the table of `n` rows in `bytes`: no bytes for no row,
    /// else its descriptors, its first row, and that the rest take what
    /// they and `n` add up to. `None` if not.
    pub(crate) fn open(bytes: &'a [u8], n: u64) -> Option<Self> {
        if n == 0 {
            return bytes.is_empty().then(|| DedupTable {
                n,
                first: [0; DEDUP_COLS],
                cols: Columns::fit(&[]),
                rows: bytes,
            });
        }
        let (desc, rest) = bytes.split_at_checked(CKPT_DEDUP_DESC as usize)?;
        let cols = Columns::parse(desc)?;
        let (first, rows) = rest.split_at_checked(8 * DEDUP_COLS)?;
        (cols.table_bytes(n - 1)? == rows.len() as u64).then(|| DedupTable {
            n,
            first: std::array::from_fn(|c| {
                u64::from_le_bytes(first[8 * c..][..8].try_into().expect("8 bytes"))
            }),
            cols,
            rows,
        })
    }

    /// Hands `enter` each row, in order: client, floor, generation,
    /// commit timestamp.
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] for a value past `u64::MAX`, after the rows
    /// before it.
    pub(crate) fn each_row(&self, mut enter: impl FnMut([u64; DEDUP_COLS])) -> Result<()> {
        if self.n == 0 {
            return Ok(());
        }
        enter(self.first);
        let decode = |prev: &[u64; DEDUP_COLS], c: [u64; DEDUP_COLS]| {
            Some(std::array::from_fn(|i| unzigzag(c[i], prev[i])))
        };
        (self.cols).unpack(self.rows, self.n - 1, self.first, decode, |row| {
            enter(*row);
            Ok(())
        })
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
            slabs: 0,
            body: vec![0; lld.maps.nshards() as usize * DIR_ENTRY_LEN],
            dedup: lld.dedup.lock().encode(),
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
        let tables = snap.as_ref().unwrap_or(&sh.persistent);
        encode_slab(tables.iter(), tables.iter(), full)
    }
}

impl<D: BlockDevice> LldInner<D> {
    /// Writes a checkpoint of the persistent state, between sessions:
    /// *begin* seals the current segment (so the committed state
    /// becomes persistent and is included) in one short full session;
    /// each shard's slab is then encoded under that shard's write lock
    /// alone and kept; the commit writes the body in one device write
    /// and the header last. One writer at a time: a second waits.
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
                w.add_slab(slab, self.layout.ckpt_area_size)
            })
            .and_then(|()| self.ckpt_commit(&mut w, &mut io));
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

    /// Step 3, *commit*: the dedup table behind the slabs and the body
    /// in one device write, with no lock but `ckpt_io` held, so that
    /// sessions go on while it lands; then, holding the log mutex (lock
    /// order: `ckpt_io` → log → dedup), a barrier, the header last,
    /// another barrier, and publish.
    fn ckpt_commit(&self, w: &mut CkptWrite, io: &mut CkptSlots) -> Result<()> {
        // The rows as of the covered point: a commit since moved its
        // row in a segment past it, which recovery replays (or does
        // not, if it never landed).
        let (dedup, n_dedup) = std::mem::take(&mut w.dedup);
        w.body.extend_from_slice(&dedup);
        let body_len = w.body.len() as u64;
        if body_len > self.layout.ckpt_area_size {
            return Err(area_overflow());
        }
        let header = w.encode_header(n_dedup as u32, crc32(&dedup), body_len);
        // Directory, slabs and dedup table, back to back: one write.
        self.device.write_at(w.area, &w.body)?;
        let mut log = self.log.lock();
        // What the header vouches for is durable before the header is
        // written: the body, and every segment it covers, the seal
        // *begin* made included (docs/INVARIANTS.md I4, "Across a
        // barrier").
        self.device.flush()?;
        self.barrier_covers.fetch_max(w.covered, Ordering::Relaxed);
        self.device
            .write_at(self.layout.ckpt_header_at(w.area), &header)?;
        self.device.flush()?;
        io.use_b = w.area == self.layout.ckpt_a;
        log.checkpoint_seq = w.covered;
        log.checkpoint_summary = w.covered_summary;
        self.stats.checkpoints.inc();
        self.obs.event(
            self.now(),
            crate::obs::TraceEvent::Checkpoint {
                covered_seq: w.covered,
                bytes: CKPT_HEADER_LEN as u64 + body_len,
            },
        );
        Ok(())
    }
}

/// Validates the header of the area at `area` in `front`, the
/// superblock's region as a restart reads it (at least its first three
/// sectors). `None` if the area holds no valid checkpoint: a bad magic
/// or CRC, a slab count outside 1..=64, a body that is shorter than its
/// directory or longer than the area, or more write-id outcomes than a
/// cache holds.
pub(crate) fn parse_header(front: &[u8], layout: &Layout, area: u64) -> Option<CkptHeaderInfo> {
    let at = layout.ckpt_header_at(area) as usize;
    let header = front.get(at..at + CKPT_HEADER_LEN)?;
    if !CkptField::Crc.sealed(header) || CkptField::Magic.get(header) != CKPT_MAGIC.into() {
        return None;
    }
    let field = |f: CkptField| f.get(header);
    let small = |f: CkptField| f.get(header) as u32;
    let snap_shards = small(CkptField::SnapShards);
    let body_len = field(CkptField::BodyLen);
    let least = u64::from(snap_shards) * DIR_ENTRY_LEN as u64;
    // No table holds more rows than `MAX_CLIENTS`, and a table whose
    // widths are all 0 would count on for free.
    if snap_shards == 0
        || u64::from(snap_shards) > MAX_SNAP_SHARDS
        || !(least..=layout.ckpt_area_size).contains(&body_len)
        || field(CkptField::NDedup) > MAX_CLIENTS as u64
    {
        return None;
    }
    Some(CkptHeaderInfo {
        area,
        seq: field(CkptField::Seq),
        ts_counter: field(CkptField::Ts),
        block_floor: field(CkptField::BlockFloor),
        list_floor: field(CkptField::ListFloor),
        head: ChainHead {
            slot: small(CkptField::HeadSlot),
            base: small(CkptField::HeadBase),
            top: small(CkptField::HeadTop),
            link: small(CkptField::HeadLink),
        },
        snap_shards,
        dir_crc: small(CkptField::DirCrc),
        n_dedup: field(CkptField::NDedup),
        dedup_crc: small(CkptField::DedupCrc),
        body_len,
    })
}

/// What one area's body holds, every checksum and descriptor checked:
/// the snapshot slabs and the dedup table.
#[derive(Debug)]
pub(crate) struct CkptBody<'a> {
    pub(crate) slabs: Vec<SlabReader<'a>>,
    pub(crate) dedup: DedupTable<'a>,
}

impl CkptHeaderInfo {
    /// Bytes the checkpoint takes: its header and its body.
    pub(crate) fn bytes(&self) -> u64 {
        CKPT_HEADER_LEN as u64 + self.body_len
    }

    /// Reads the body — directory, slabs and dedup table, back to back
    /// from the area's start — with one device read.
    pub(crate) fn read_body<D: BlockDevice + ?Sized>(&self, device: &D) -> Result<Vec<u8>> {
        let mut body = vec![0u8; self.body_len as usize];
        device.read_at(self.area, &mut body)?;
        Ok(body)
    }

    /// Checks `body` and opens its slabs ([`SlabInfo::open`]) and its
    /// dedup table ([`DedupTable::open`]). `None` if any of it fails
    /// (the whole area must then be considered invalid): a directory
    /// CRC mismatch, a slab that ends past the body, more blocks or
    /// lists than the layout's caps (a table whose widths are all 0
    /// takes no bytes for any count), a slab or dedup table that fails
    /// its CRC or its descriptors. No row has been looked at.
    pub(crate) fn open<'a>(&self, body: &'a [u8], layout: &Layout) -> Option<CkptBody<'a>> {
        let (dir, _) = body.split_at_checked(self.snap_shards as usize * DIR_ENTRY_LEN)?;
        if crc32(dir) != self.dir_crc {
            return None;
        }
        let mut slabs = Vec::with_capacity(self.snap_shards as usize);
        let mut rest = &body[dir.len()..];
        for entry in dir.chunks_exact(DIR_ENTRY_LEN) {
            let (payload, behind) = rest.split_at_checked(DirField::SlabLen.get(entry) as usize)?;
            let info = SlabInfo {
                n_blocks: DirField::NBlocks.get(entry),
                n_lists: DirField::NLists.get(entry),
                crc: DirField::SlabCrc.get(entry) as u32,
            };
            slabs.push(info.open(payload)?);
            rest = behind;
        }
        // No writer holds more rows than the allocators hand out, and a
        // table whose columns all take 0 bits would count on for free.
        let total =
            |n: fn(&SlabReader<'_>) -> u64| slabs.iter().map(n).fold(0, u64::saturating_add);
        if total(|s| s.n_blocks) > layout.max_blocks || total(|s| s.n_lists) > layout.max_lists {
            return None;
        }
        if crc32(rest) != self.dedup_crc {
            return None;
        }
        Some(CkptBody {
            slabs,
            dedup: DedupTable::open(rest, self.n_dedup)?,
        })
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
        let lists = Columns::parse(&desc[BLOCK_COLS * COLUMN_DESC_LEN..])?;
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
    LldError::Corrupt(
        "a checkpoint row's value passes u64::MAX, or names an identifier no allocator hands out"
            .into(),
    )
}

impl SlabReader<'_> {
    /// Hands `enter` each block-number-map row, in identifier order, and
    /// stops at the first error.
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] for a row that no writer produces (see the
    /// module docs; a CRC-valid slab can hold one); whatever `enter`
    /// returns.
    pub(crate) fn each_block(
        &self,
        mut enter: impl FnMut(BlockId, BlockRecord) -> Result<()>,
    ) -> Result<()> {
        let (cols, rows, n) = (&self.blocks, self.block_rows, self.n_blocks);
        cols.unpack(rows, n, [0; BLOCK_COLS], decode_block, |&row| {
            let [id, segment, sector, sectors, successor, list, ts] = row;
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
            enter(id, rec)
        })
    }

    /// Hands `enter` each list-table row, in identifier order.
    ///
    /// # Errors
    ///
    /// As for [`each_block`](Self::each_block).
    pub(crate) fn each_list(
        &self,
        mut enter: impl FnMut(ListId, ListRecord) -> Result<()>,
    ) -> Result<()> {
        let row = |&[id, first, last, ts]: &[u64; LIST_COLS]| {
            let rec = ListRecord {
                allocated: true,
                first: BlockId::decode_opt(first),
                last: BlockId::decode_opt(last),
                ts: Timestamp::new(ts),
            };
            enter(ListId::new(checked_id(id, "list")?), rec)
        };
        let (cols, rows, n) = (&self.lists, self.list_rows, self.n_lists);
        cols.unpack(rows, n, [0; LIST_COLS], decode_list, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{CKPT_BLOCK_ROW_MAX, CKPT_DEDUP_ROW_MAX, CKPT_LIST_ROW_MAX};
    use crate::obs::TraceEvent;
    use crate::state::Tables;
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

    /// One shard's rows by hand, in identifier order: a codec test's
    /// identifiers reach [`MAX_RAW_ID`], past what an array indexes.
    #[derive(Debug, Default, PartialEq)]
    struct Rows {
        blocks: std::collections::BTreeMap<BlockId, BlockRecord>,
        lists: std::collections::BTreeMap<ListId, ListRecord>,
    }

    fn encode(t: &Rows, full: u64) -> Slab {
        let blocks = t.blocks.iter().map(|(&id, r)| (id, r));
        encode_slab(blocks, t.lists.iter().map(|(&id, r)| (id, r)), full)
    }

    /// What `each` hands its closure, in order, and the error it stops
    /// at, if it does.
    fn collected<T>(
        each: impl FnOnce(&mut dyn FnMut(T)) -> Result<()>,
    ) -> std::vec::IntoIter<Result<T>> {
        let mut out = Vec::new();
        if let Err(e) = each(&mut |row| out.push(Ok(row))) {
            out.push(Err(e));
        }
        out.into_iter()
    }

    /// The rows the closures hand out, collected, for the tests that
    /// compare them.
    impl SlabReader<'_> {
        fn blocks(&self) -> std::vec::IntoIter<Result<(BlockId, BlockRecord)>> {
            collected(|push| {
                self.each_block(|id, r| {
                    push((id, r));
                    Ok(())
                })
            })
        }

        fn lists(&self) -> std::vec::IntoIter<Result<(ListId, ListRecord)>> {
            collected(|push| {
                self.each_list(|id, r| {
                    push((id, r));
                    Ok(())
                })
            })
        }
    }

    impl DedupTable<'_> {
        fn rows(&self) -> std::vec::IntoIter<Result<[u64; DEDUP_COLS]>> {
            collected(|push| self.each_row(push))
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

    /// The header of the area at `area`, read the way a restart reads
    /// it: with the superblock.
    fn header(device: &MemDisk, layout: &Layout, area: u64) -> Option<CkptHeaderInfo> {
        let mut front = [0u8; crate::layout::FRONT_LEN];
        device.read_at(0, &mut front).unwrap();
        parse_header(&front, layout, area)
    }

    /// Everything recovery would load from one area: the rows of every
    /// slab, the body's bytes, the dedup table's rows, and the byte
    /// count the checkpoint occupies.
    fn load(ld: &Lld<MemDisk>, area: u64) -> (Vec<SlabRows>, Vec<u8>, Vec<[u64; 4]>, u64) {
        let hdr = header(ld.device(), &ld.layout, area).expect("a valid checkpoint");
        let body = hdr.read_body(ld.device()).unwrap();
        let opened = hdr.open(&body, &ld.layout).expect("CRCs and descriptors");
        let dedup = opened.dedup.rows().collect::<Result<_>>().unwrap();
        let rows = opened.slabs.iter().map(rows).collect();
        (rows, body.clone(), dedup, hdr.bytes())
    }

    /// Two checkpoints of one state, one in each area, are the same
    /// checkpoint: the same slab bytes, so the same tables, the same
    /// dedup table, the same size — and the size each reports in its
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
        assert_eq!(a.1, b.1, "directory, slabs and dedup table");
        assert_eq!(a.0, b.0, "tables");
        assert_eq!(
            a.0.iter().map(|(blocks, _)| blocks.len()).sum::<usize>(),
            20
        );
        assert_eq!(a.2, [[7, 20, 1, a.2[0][3]]], "one client's row");
        assert_eq!(a.2, b.2, "dedup table");
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
    fn reopen(slab: &Slab) -> Option<Result<Rows>> {
        let info = SlabInfo {
            n_blocks: slab.n_blocks,
            n_lists: slab.n_lists,
            crc: crc32(&slab.bytes),
        };
        let reader = info.open(&slab.bytes)?;
        let twice = |id: &dyn std::fmt::Display| LldError::Corrupt(format!("{id} twice"));
        let mut t = Rows::default();
        let entered = reader
            .each_block(|id, rec| match t.blocks.insert(id, rec) {
                Some(_) => Err(twice(&id)),
                None => Ok(()),
            })
            .and_then(|()| {
                reader.each_list(|id, rec| match t.lists.insert(id, rec) {
                    Some(_) => Err(twice(&id)),
                    None => Ok(()),
                })
            });
        Some(entered.map(|()| t))
    }

    /// Field `f` of column `col`'s descriptor in `slab`.
    fn desc(slab: &Slab, col: usize, f: ColField) -> u64 {
        f.get(&slab.bytes[col * COLUMN_DESC_LEN..])
    }

    fn width(slab: &Slab, col: usize) -> u8 {
        desc(slab, col, ColField::Width) as u8
    }

    fn shift(slab: &Slab, col: usize) -> u8 {
        desc(slab, col, ColField::Shift) as u8
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
    fn tables(rng: &mut SmallRng, n: u64) -> Rows {
        let mut t = Rows::default();
        // Identifiers, present or referred to, are at most the bound.
        let [id, successor, list, first, last, ts] = [
            MAX_RAW_ID,
            MAX_RAW_ID,
            MAX_RAW_ID,
            MAX_RAW_ID,
            MAX_RAW_ID,
            u64::MAX,
        ]
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
    fn fixed_width(t: &Rows) -> u64 {
        t.blocks.len() as u64 * CKPT_BLOCK_ROW_MAX + t.lists.len() as u64 * CKPT_LIST_ROW_MAX
    }

    /// A table of full blocks pays nothing for the sector count: the
    /// column holds one value, a block's 8 sectors, also where a block
    /// has no address. One short block gives it bits in every row.
    #[test]
    fn full_blocks_pay_nothing_for_the_count_column() {
        let mut t = Rows::default();
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
        let full = encode(&t, 8);
        assert_eq!(width(&full, 3), 0);
        assert_eq!(reopen(&full).unwrap().unwrap(), t);
        let short = t.blocks.get_mut(&BlockId::new(7)).unwrap();
        short.addr.as_mut().unwrap().sectors = 2;
        let mixed = encode(&t, 8);
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
            let slab = encode(&tables, 8);
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
            let mut t = Rows::default();
            for (id, ts) in [(1, 0), (2, t1), (3, t2)] {
                t.lists
                    .insert(ListId::new(id), ListRecord::fresh(Timestamp::new(ts)));
            }
            let slab = encode(&t, 8);
            assert_eq!(u32::from(width(&slab, 10)), w);
            assert_eq!(reopen(&slab).unwrap().unwrap(), t, "width {w}");
            widths.insert(width(&slab, 10));
        }
        assert_eq!(widths, (0..=64).collect(), "every width was exercised");

        // Each column's coded values span its widest, from 0 (or 1) to
        // the top, with an odd step so that nothing shifts: an absent
        // reference codes as 0, one a whole identifier range away from
        // its predictor as nearly 2^64.
        let (top, id_max) = (1u64 << 63, MAX_RAW_ID);
        let at = |segment: u32, sector: u32, sectors: u32| PhysAddr {
            segment: SegmentId::new(segment),
            sector,
            sectors,
        };
        let worst = [
            (1, at(0, 0, 1), 0, 0, 0),
            (3, at(u32::MAX - 1, (1 << 23) - 1, 128), id_max, id_max, top),
            (MAX_RAW_ID, at(u32::MAX - 2, 0, 0), id_max, id_max, top),
        ];
        let mut t = Rows::default();
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
        let lists = [
            (1, 0, 0, 0),
            (3, id_max, id_max, top),
            (MAX_RAW_ID, 1, id_max, top),
        ];
        for (id, first, last, ts) in lists {
            let rec = ListRecord {
                allocated: true,
                first: BlockId::decode_opt(first),
                last: BlockId::decode_opt(last),
                ts: Timestamp::new(ts),
            };
            t.lists.insert(ListId::new(id), rec);
        }
        let slab = encode(&t, 8);
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

    /// A slab is a function of its tables: an array hands out its
    /// records in identifier order, so the same entries encode to the
    /// same bytes whatever order they were entered in and however long
    /// the array grew, and to the bytes of the same rows by hand.
    #[test]
    fn a_slab_is_a_function_of_its_tables() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0008);
        for case in 0..50 {
            let (idx, n) = (case % 4, 4);
            let mut rows = Rows::default();
            for _ in 0..rng.next_u64() % 60 {
                let raw = u64::from(idx) + n * (1 + rng.next_u64() % 200);
                let ts = Timestamp::new(rng.next_u64());
                rows.blocks
                    .insert(BlockId::new(raw), BlockRecord::fresh(ts));
                rows.lists.insert(ListId::new(raw), ListRecord::fresh(ts));
            }
            let (mut forward, mut backward) = (Tables::new(idx, 4), Tables::new(idx, 4));
            for (&id, r) in &rows.blocks {
                forward.insert(id, r.clone());
            }
            for (&id, r) in &rows.lists {
                forward.insert(id, r.clone());
            }
            // Grown past every row, then emptied again.
            let far = BlockId::new(u64::from(idx) + n * 4096);
            backward.insert(far, BlockRecord::fresh(Timestamp::ZERO));
            backward.remove(far);
            for (&id, r) in rows.blocks.iter().rev() {
                backward.insert(id, r.clone());
            }
            for (&id, r) in rows.lists.iter().rev() {
                backward.insert(id, r.clone());
            }
            let slab = |t: &Tables| encode_slab(t.iter(), t.iter(), 8).bytes;
            assert_eq!(slab(&forward), encode(&rows, 8).bytes, "case {case}");
            assert_eq!(slab(&backward), encode(&rows, 8).bytes, "case {case}");
        }
    }

    fn block(id: u64, rec: BlockRecord) -> Rows {
        Rows {
            blocks: [(BlockId::new(id), rec)].into_iter().collect(),
            ..Rows::default()
        }
    }

    /// The corners by hand: nothing, one entry, columns of one value,
    /// columns that span every u64, identifiers at the bound.
    #[test]
    fn slab_corners_round_trip() {
        let empty = encode(&Rows::default(), 8);
        assert_eq!(empty.bytes, [0u8; CKPT_SLAB_DESC as usize]);
        assert_eq!(reopen(&empty).unwrap().unwrap(), Rows::default());

        // One entry: every column is its own minimum, no row bytes.
        let mut one = block(
            MAX_RAW_ID,
            BlockRecord {
                addr: Some(PhysAddr {
                    segment: SegmentId::new(u32::MAX - 1),
                    sector: (1 << 23) - 1,
                    sectors: 128,
                }),
                successor: Some(BlockId::new(MAX_RAW_ID)),
                list: Some(ListId::new(MAX_RAW_ID)),
                ..BlockRecord::fresh(Timestamp::new(u64::MAX))
            },
        );
        let slab = encode(&one, 8);
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
                first: Some(BlockId::new(MAX_RAW_ID)),
                last: Some(BlockId::new(MAX_RAW_ID)),
                ..ListRecord::fresh(Timestamp::new(u64::MAX))
            },
        );
        let slab = encode(&one, 8);
        assert!(slab.bytes.len() as u64 <= CKPT_SLAB_DESC + fixed_width(&one));
        assert_eq!(reopen(&slab).unwrap().unwrap(), one);

        // Many rows that differ in their identifier only: after the
        // first row's 1,000 the identifier steps by 1, and an absent
        // successor or list codes as 0 in every row: no bits.
        let mut same = Rows::default();
        for id in 1000..1256 {
            same.blocks
                .insert(BlockId::new(id), BlockRecord::fresh(Timestamp::new(7)));
        }
        let slab = encode(&same, 8);
        let widths: Vec<u8> = (0..BLOCK_COLS).map(|c| width(&slab, c)).collect();
        assert_eq!(widths, [10, 0, 0, 0, 0, 0, 3]);
        assert_eq!(slab.bytes.len() as u64, CKPT_SLAB_DESC + 256 * 13 / 8);
        assert_eq!(reopen(&slab).unwrap().unwrap(), same);
    }

    /// One shard's stripe of `local_append`'s tables (two-block lists,
    /// dense identifiers, blocks laid out in allocation order) packs to
    /// under a tenth of its fixed-width size (10,086 of 103,936 bytes).
    #[test]
    fn dense_tables_pack_to_under_a_tenth() {
        let (shard, stripe) = (3u64, 8u64);
        let mut t = Rows::default();
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
        let slab = encode(&t, 8);
        assert_eq!(reopen(&slab).unwrap().unwrap(), t);
        let (packed, fixed) = (slab.bytes.len() as u64, fixed_width(&t));
        assert!(10 * packed <= fixed, "{packed} of {fixed} bytes");
    }

    /// An absent reference codes as 0 and a present one as its zigzag
    /// plus one: in two-block lists on a stripe of 8, every head's
    /// successor is 8 ahead (`zigzag(8) + 1` = 17) and every tail has
    /// none, so the column takes 5 bits, not the 15 that `0 − id` cost
    /// when an absent successor was coded from the row's identifier.
    #[test]
    fn absent_identifiers_code_as_zero() {
        let mut t = Rows::default();
        for n in 0..500u64 {
            let list = ListId::new(8 * n + 3);
            let (head, tail) = (BlockId::new(16 * n + 3), BlockId::new(16 * n + 11));
            for (id, successor) in [(head, Some(tail)), (tail, None)] {
                let rec = BlockRecord {
                    successor,
                    list: Some(list),
                    ..BlockRecord::fresh(Timestamp::new(n))
                };
                t.blocks.insert(id, rec);
            }
            let rec = ListRecord {
                first: Some(head),
                last: Some(tail),
                ..ListRecord::fresh(Timestamp::new(n))
            };
            t.lists.insert(list, rec);
        }
        // And one empty list: no first, no last.
        (t.lists).insert(
            ListId::new(8 * 500 + 3),
            ListRecord::fresh(Timestamp::new(9)),
        );
        let slab = encode(&t, 8);
        assert_eq!(reopen(&slab).unwrap().unwrap(), t);
        assert_eq!((width(&slab, 4), shift(&slab, 4)), (5, 0), "successor");
        // A list's last is its first's successor: `zigzag(8) + 1` in
        // every row, 0 in the empty list's.
        assert_eq!(width(&slab, 9), 5, "last");
        assert_eq!((code_ref(0, 77), decode_ref(0, 77)), (0, Some(0)));
        for (v, pred) in [(1, MAX_RAW_ID), (MAX_RAW_ID, 0), (MAX_RAW_ID, 1), (5, 5)] {
            let c = code_ref(v, pred);
            assert!(c > 0 && decode_ref(c, pred) == Some(v), "{v} from {pred}");
        }
        assert_eq!(code_ref(MAX_RAW_ID, 0), u64::MAX, "the widest code fits");
    }

    /// The unpacker reads every width a descriptor allows, 0 to 64, at
    /// every shift that leaves no bit out (`width + shift` at most 64),
    /// behind a 1-bit column so that no column starts on a byte: each
    /// column's smallest and largest delta, on a minimum of 0 and on the
    /// one that puts the largest value at `u64::MAX`. Eight rows end in
    /// the table's last byte, so the last column's 16-byte load runs
    /// past the end of the slice, which a guard of ones follows in
    /// memory: the loads read zeros there, not the guard.
    #[test]
    fn every_width_and_shift_unpacks_to_the_tables_last_byte() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0038);
        let mut cases = 0;
        for width in 0..=64u8 {
            for shift in 0..=64 - width {
                if shift == 64 {
                    continue; // `parse` refuses a shift of 64
                }
                let top = ((1u128 << width) - 1) as u64;
                for min in [0, u64::MAX - (top << shift)] {
                    let cols = Columns::<3> {
                        min: [0, min, 5],
                        width: [1, width, 3],
                        shift: [0, shift, 1],
                    };
                    let rows: Vec<[u64; 3]> = (0..8u64)
                        .map(|i| {
                            let delta = match i {
                                0 => 0,
                                1 => top,
                                _ => rng.next_u64() & top,
                            };
                            [i % 2, min + (delta << shift), 5 + ((i % 8) << 1)]
                        })
                        .collect();
                    let mut packed = Vec::new();
                    cols.put_rows(&rows, &mut packed);
                    assert_eq!(packed.len() as u64, cols.table_bytes(8).unwrap());
                    assert_eq!(packed.len() * 8, 8 * (1 + usize::from(width) + 3));
                    let len = packed.len();
                    packed.extend([0xFF; 32]);
                    let mut back = Vec::new();
                    let keep = |_: &[u64; 3], row: [u64; 3]| Some(row);
                    (cols.unpack(&packed[..len], 8, [0; 3], keep, |row| {
                        back.push(*row);
                        Ok(())
                    }))
                    .unwrap();
                    assert_eq!(back, rows, "width {width}, shift {shift}, min {min}");
                    cases += 1;
                }
            }
        }
        // Σ (65 − w) shifts below 64 over the widths, twice.
        assert_eq!(cases, 2 * (65 * 66 / 2 - 1));
    }

    /// A dedup table of one row is its descriptors and that row in full,
    /// no packed byte, and it comes back.
    #[test]
    fn a_dedup_table_of_one_row_round_trips() {
        let row = [[u64::MAX, 1, 0, 1 << 63]];
        let bytes = dedup_table(&row);
        assert_eq!(bytes.len() as u64, CKPT_DEDUP_DESC + 32);
        let table = DedupTable::open(&bytes, 1).expect("a table the encoder wrote");
        assert_eq!(table.rows().collect::<Result<Vec<_>>>().unwrap(), row);
    }

    /// A checkpoint is one body write and one header write, each behind
    /// a barrier of its own, at eight shards too: what the two writes
    /// put on the device is the size its trace event reports, header
    /// and body, dedup table included, and a restart loads eight slabs.
    #[test]
    fn a_checkpoint_is_one_body_write_and_one_header_write() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            map_shards: 8,
            cleaner: inline_cleaner(),
            ..LldConfig::default()
        };
        let device = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
        let ld = Lld::format(device, &cfg).unwrap();
        let list = ld.new_list(Ctx::Simple).unwrap();
        for wid in 1..=20u64 {
            let aru = ld.begin_aru().unwrap();
            let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
            ld.write(Ctx::Aru(aru), b, &[wid as u8; 512]).unwrap();
            ld.end_aru_tagged(aru, 7, 1, wid).unwrap();
        }
        // The open segment sealed: *begin* seals nothing.
        ld.flush().unwrap();
        let before = ld.device().stats_snapshot().unwrap();
        ld.checkpoint().unwrap();
        let after = ld.device().stats_snapshot().unwrap();
        let bytes = (ld.obs().ring().entries().iter())
            .find_map(|e| match e.event {
                TraceEvent::Checkpoint { bytes, .. } => Some(bytes),
                _ => None,
            })
            .expect("a checkpoint event");
        assert_eq!(
            (
                after.writes - before.writes,
                after.flushes - before.flushes,
                after.bytes_written - before.bytes_written
            ),
            (2, 2, bytes)
        );
        let (_, report) = Lld::recover_with(ld.into_device(), &cfg).unwrap();
        assert_eq!((report.snap_shards, report.snapshot_bytes), (8, bytes));
    }

    /// Seeded dedup rows come back in their order from a dedup
    /// table never longer than its descriptors and 32 bytes a row, and
    /// rows whose every step takes 64 bits reach that bound exactly.
    /// Row 0 is stored in full: clients in order cost a few bits a row,
    /// wherever their identifiers start.
    #[test]
    fn dedup_tables_round_trip_within_their_bound() {
        let decode = |bytes: &[u8], n: usize| -> Vec<[u64; DEDUP_COLS]> {
            let table = DedupTable::open(bytes, n as u64).expect("a table the encoder wrote");
            table.rows().collect::<Result<_>>().unwrap()
        };
        let mut rng = SmallRng::seed_from_u64(0x5EED_000A);
        for case in 0..300 {
            let n = [0, 1, 2, 50][case % 4];
            let cols: Vec<Col> = (0..DEDUP_COLS)
                .map(|_| Col::new(&mut rng, u64::MAX))
                .collect();
            let rows: Vec<[u64; DEDUP_COLS]> = (0..n)
                .map(|_| std::array::from_fn(|c| cols[c].value(&mut rng)))
                .collect();
            let bytes = dedup_table(&rows);
            let bound = CKPT_DEDUP_DESC + n as u64 * CKPT_DEDUP_ROW_MAX;
            assert!(bytes.len() as u64 <= bound, "case {case}");
            assert_eq!(decode(&bytes, n), rows, "case {case}");
        }
        // Every column steps by 2^63 and by 0 in turn, coded u64::MAX
        // and 0: 64 bits a column.
        let worst: Vec<[u64; DEDUP_COLS]> = (0..9u64)
            .map(|i| [0, 5, u64::MAX, 7].map(|v| v.wrapping_add((i.div_ceil(2) % 2) << 63)))
            .collect();
        let bytes = dedup_table(&worst);
        assert_eq!(
            bytes.len() as u64,
            CKPT_DEDUP_DESC + 9 * CKPT_DEDUP_ROW_MAX,
            "the widest rows"
        );
        assert_eq!(decode(&bytes, 9), worst);
        // `MAX_CLIENTS` clients far from 0, in order, their floors and
        // timestamps a few steps apart: a few bits a row.
        let far = 0x9E37_79B9_7F4A_7C15u64;
        let all: Vec<[u64; DEDUP_COLS]> = (0..MAX_CLIENTS as u64)
            .map(|i| [far + 2 * i, 1 + i % 5, 1, (1 << 40) + (i * 3) % 11])
            .collect();
        let bytes = dedup_table(&all);
        assert!(bytes.len() < MAX_CLIENTS, "{} bytes", bytes.len());
        assert_eq!(decode(&bytes, MAX_CLIENTS), all);
        assert!(DedupTable::open(&[], 0).is_some());
        assert!(
            DedupTable::open(&[0; 40], 0).is_none(),
            "descriptors of no row"
        );
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
        // shift of 1, 0 and 145 in 8 bits; 5's successor is 300, coded
        // `zigzag(295) + 1` = 591, and 300 has none, coded 0. Lists 9,
        // 10: coded 9 and 1, stored from 1 by a shift of 3, 1 and 0 in
        // 1 bit.
        let mut t = block(
            5,
            BlockRecord {
                successor: Some(BlockId::new(300)),
                ..BlockRecord::fresh(Timestamp::new(1))
            },
        );
        t.blocks
            .insert(BlockId::new(300), BlockRecord::fresh(Timestamp::new(2)));
        t.lists
            .insert(ListId::new(9), ListRecord::fresh(Timestamp::new(3)));
        t.lists
            .insert(ListId::new(10), ListRecord::fresh(Timestamp::new(4)));
        let good = encode(&t, 8);
        assert_eq!(reopen(&good).unwrap().unwrap(), t);
        assert_eq!(
            (
                desc(&good, 0, ColField::Min),
                width(&good, 0),
                shift(&good, 0)
            ),
            (5, 8, 1)
        );
        assert_eq!(
            (
                desc(&good, 7, ColField::Min),
                width(&good, 7),
                shift(&good, 7)
            ),
            (1, 1, 3)
        );
        let edit = |f: &dyn Fn(&mut Slab)| {
            let mut slab = encode(&t, 8);
            f(&mut slab);
            reopen(&slab)
        };
        let min = |col: usize| col * COLUMN_DESC_LEN;
        let width = |col: usize| col * COLUMN_DESC_LEN + ColField::Width.at;
        let shift = |col: usize| col * COLUMN_DESC_LEN + ColField::Shift.at;

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
        let corrupt = |got: Option<Result<Rows>>| matches!(got, Some(Err(LldError::Corrupt(_))));
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
        // 300's successor coded 600, `zigzag(−300) + 1`: present, and 0.
        assert!(
            corrupt(edit(&|s| put(s, min(4), 600))),
            "a present successor of 0"
        );
        // 5's successor coded `u64::MAX`: 5 + (2^63 − 1), past the bound.
        assert!(
            corrupt(edit(&|s| put(s, min(4), u64::MAX - 591))),
            "a successor past the bound"
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
        let mut wide = encode(
            &Rows {
                blocks: [
                    (
                        BlockId::new(7),
                        BlockRecord::fresh(Timestamp::new(u64::MAX)),
                    ),
                    (BlockId::new(8), BlockRecord::fresh(Timestamp::ZERO)),
                ]
                .into_iter()
                .collect(),
                ..Rows::default()
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
        // The directory's one entry, then the slab.
        let (area, dir) = (layout.ckpt_a, layout.ckpt_a);
        let at = dir + DIR_ENTRY_LEN as u64;
        let header_at = layout.ckpt_header_at(area);
        let mut zero = vec![0u8; CKPT_SLAB_DESC as usize];
        device.read_at(at, &mut zero).unwrap();
        assert_eq!(zero, encode(&Rows::default(), 1).bytes);
        zero[min(0)] = 1;
        zero[min(7)] = 1;
        // The body as it reads with the directory counting that many
        // rows, if the reader takes it.
        let counted = |n_blocks: u64, n_lists: u64| {
            let entry = DirField::encode(&[
                (DirField::NBlocks, n_blocks),
                (DirField::NLists, n_lists),
                (DirField::SlabCrc, crc32(&zero).into()),
                (DirField::SlabLen, zero.len() as u64),
            ]);
            let mut sealed = [0u8; CKPT_HEADER_LEN];
            device.read_at(header_at, &mut sealed).unwrap();
            CkptField::DirCrc.put(&mut sealed, crc32(&entry).into());
            CkptField::Crc.seal(&mut sealed);
            device.write_at(at, &zero).unwrap();
            device.write_at(dir, &entry).unwrap();
            device.write_at(header_at, &sealed).unwrap();
            let hdr = header(device, layout, area).expect("a resealed header");
            let body = hdr.read_body(device).unwrap();
            hdr.open(&body, layout).is_some().then_some((hdr, body))
        };
        let (at_caps, body) =
            counted(layout.max_blocks, layout.max_lists).expect("counts at the caps");
        let slab = &at_caps.open(&body, layout).expect("descriptors").slabs[0];
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

    /// A header that counts more dedup rows than `MAX_CLIENTS` is no
    /// checkpoint: a dedup table of 0-bit rows takes any count in no
    /// bytes, and a restart would enter the rows one by one.
    #[test]
    fn more_outcomes_than_a_cache_holds_are_refused() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
        ld.checkpoint().unwrap(); // area A
        let (layout, device) = (&ld.layout, ld.device());
        let at = layout.ckpt_header_at(layout.ckpt_a);
        let most = MAX_CLIENTS as u64;
        for (n, taken) in [(most, true), (most + 1, false), (1 << 31, false)] {
            let mut h = [0u8; CKPT_HEADER_LEN];
            device.read_at(at, &mut h).unwrap();
            CkptField::NDedup.put(&mut h, n);
            CkptField::Crc.seal(&mut h);
            device.write_at(at, &h).unwrap();
            assert_eq!(
                header(device, layout, layout.ckpt_a).is_some(),
                taken,
                "{n}"
            );
        }
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
        let ld = Lld::format(MemDisk::new(1536 + 2 * 64 * 1024 + 6 * 8 * 512), &cfg).unwrap();
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
