//! In-memory segment construction and on-disk segment encoding.
//!
//! A segment is filled in main memory and written to disk in two device
//! writes (§2 of the paper has one). Data grows up from a slot's first
//! sector; a segment's *meta record* — its summary (encoded [`Record`]s)
//! and its header — grows down from the slot's last sector, directly
//! below the meta record of the segment in front of it. So all the
//! metadata of a slot sits in one contiguous run at its back, and a
//! restart reads a whole slot's summaries with one or two reads:
//!
//! ```text
//! slot: | data.. |T| data.. |T| .. free .. | summary hdr | summary hdr |
//!         ^ base 0  ^ base'                  meta of seq+1 ^ meta of seq ^ top
//! ```
//!
//! The first write, the *body*, is the data area and behind it a 4-byte
//! trailer `T` in the first bytes of the next sector: the header's CRC,
//! which binds the body to this segment instance. The second, the meta
//! record, is the records and then the header, ending at the run's
//! current bottom (`top`), in ⌈(header + summary_len) / 512⌉ sectors.
//! The header is the last thing either write puts down, so a write torn
//! anywhere leaves no new header, and a body whose trailer landed landed
//! whole.
//!
//! A data block is stored as its *extent* ([`extent`]): its bytes up to
//! the last non-zero one, rounded up to a 512-byte sector; an all-zero
//! block takes no sector. Its address ([`PhysAddr`]) names the extent's
//! first sector in the slot and its sector count, and every read
//! transfers the extent and zero-fills the rest of the caller's block
//! ([`zero_past_extent`]). On 512-byte blocks a sector is a block.
//!
//! Until the seal nothing of the segment is on the device, and the
//! buffer is not append-only: a write to a block whose last version is
//! still in it takes that version's place when its extent fits there
//! ([`SegmentBuilder::rewrite_extent`]) and only the summary grows.
//! When it does not fit, the write places its extent like any other and
//! the superseded version's sectors become a *free run*
//! ([`SegmentBuilder::free_extent`]), which the next extent that fits
//! fills before the data area grows ([`SegmentBuilder::push_extent`]).
//! The rule for both is docs/INVARIANTS.md I5. So two `Write` records of
//! one summary may name overlapping sectors; replay in record order
//! makes the later one win.
//!
//! A flush seals whatever the segment holds, so a segment may be far
//! smaller than its slot. The next one then starts in the same slot,
//! its data at the sector behind the trailer (its *base*) and its meta
//! record below this one's (its *top*); only a slot with no room left
//! between the two for one block, a trailer sector and a sector of
//! metadata ([`valid_head`]) hands on to a fresh one.
//!
//! The 44-byte header, declared once in `layout.rs`
//! ([`SEGMENT_HEADER`](crate::layout::SEGMENT_HEADER); docs/FORMAT.md
//! gives its fields), threads the segments into one log, so recovery
//! follows pointers from the checkpoint's [`ChainHead`] instead of
//! probing every slot (docs/RECOVERY.md). `prev_link` is the header CRC
//! of segment `seq − 1`, `epoch` a per-mount salt, `covered` the
//! distance back from `seq` to the last segment a barrier vouched for,
//! and `crc` covers the 40 bytes in front of it.
//!
//! `n_sectors` is the data area's size in sectors. `next_slot` is chosen
//! at seal time. The segment's own slot means "right behind my data and
//! below my meta record": the successor's base and top follow from
//! `n_sectors` and `summary_len`, so no field can aim the walk at an
//! arbitrary sector. Another slot means that slot's ends, and
//! [`NO_SLOT`] that nothing was free. `prev_link` makes the pointers a
//! hash chain: a CRC-valid header with the right sequence number, left
//! where the walk looks by an earlier use of the slot or by a timeline
//! recovery has since abandoned, does not link and ends the walk — also
//! when both timelines logged the same operations, because `epoch`
//! differs per mount. The summary CRC exposes a stale header over new
//! records. `covered` is the *watermark*: the last segment a completed
//! barrier vouched for when this one was sealed, as a distance back from
//! `seq` (`u32::MAX`: none). Only a segment above every watermark the
//! walk found may have its meta record on the device without its body;
//! recovery reads the trailers of those, and of no others.

use crate::error::{LldError, Result};
use crate::layout::{Layout, SegField, SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use crate::summary::Record;
use crate::types::{PhysAddr, SegmentId};
use ld_disk::{crc32, BlockDevice};
use std::ops::Range;

pub(crate) const HEADER_LEN: usize = SEGMENT_HEADER_LEN;
/// The trailer behind a data area: the header's CRC.
pub(crate) const TRAILER_LEN: usize = 4;
/// The unit a segment's data area is packed in: an extent is whole
/// sectors, and an address counts them.
pub(crate) const SECTOR: usize = 512;
/// The largest block size: an extent's sector count is the low byte of
/// a `Write` record's 32-bit extent field ([`PhysAddr::extent`]).
pub(crate) const MAX_BLOCK_SIZE: usize = 128 * SECTOR;
/// Written over the start of the header at the back of a slot to
/// invalidate it (a zero magic never validates). Format punches every
/// slot's, where the log of a fresh disk starts.
pub(crate) const HEADER_PUNCH: [u8; 32] = [0; 32];
/// `next_slot` of a segment sealed while no slot was free: its
/// successor is found by probing the last sector of every slot.
pub(crate) const NO_SLOT: u32 = u32::MAX;
/// `covered` of a header that claims no segment a barrier vouched for.
const COVERS_NOTHING: u64 = u32::MAX as u64;

/// What a segment stores of `block`: its bytes up to the last non-zero
/// one, rounded up to a [`SECTOR`] — nothing for an all-zero block.
pub(crate) fn extent(block: &[u8]) -> &[u8] {
    let sectors = block
        .chunks(SECTOR)
        .rposition(|s| s.iter().fold(0, |any, &b| any | b) != 0)
        .map_or(0, |last| last + 1);
    &block[..sectors * SECTOR]
}

/// Zero-fills `block` past its first `sectors` sectors and returns
/// those, for the caller to fill with a stored extent: every read of a
/// block — open segment, in-flight seal, cache, device — goes through
/// here.
pub(crate) fn zero_past_extent(block: &mut [u8], sectors: u32) -> &mut [u8] {
    let (front, rest) = block.split_at_mut(sectors as usize * SECTOR);
    rest.fill(0);
    front
}

/// Sectors the meta record of a summary of `summary_len` bytes takes:
/// the records and the header behind them.
fn meta_sectors(summary_len: u64) -> u64 {
    (HEADER_LEN as u64 + summary_len).div_ceil(SECTOR as u64)
}

/// Whether a segment may start with its data at sector `base` and its
/// meta record ending at sector `top` of a slot, on blocks of
/// `block_sectors`: a writer starts one only where one block, its
/// trailer's sector and a sector of metadata fit between the two, and a
/// reader accepts a pointer or a checkpointed head nowhere else.
pub(crate) fn valid_head(block_sectors: u32, base: u32, top: u32) -> bool {
    u64::from(base) + u64::from(block_sectors) + 2 <= u64::from(top)
}

/// Where the log continues: the slot, the sector its next segment's
/// data starts at and the sector its meta record ends at, and the
/// header CRC of the segment before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainHead {
    pub(crate) slot: u32,
    pub(crate) base: u32,
    pub(crate) top: u32,
    pub(crate) link: u32,
}

impl ChainHead {
    /// Whether the log continues in the slot of the segment before it
    /// (a segment's body is never empty — its trailer takes a sector —
    /// so its successor's base is not 0).
    pub(crate) fn in_slot(&self) -> bool {
        self.slot != NO_SLOT && self.base > 0
    }
}

/// The link a successor stores for the segment sealed under `header`.
pub(crate) fn header_link(header: &[u8; HEADER_LEN]) -> u32 {
    SegField::Crc.get(header) as u32
}

/// A segment being filled in memory.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    slot: SegmentId,
    /// Sector of the slot its data area starts at.
    base: u32,
    /// Sector of the slot its meta record ends at (exclusive).
    top: u32,
    seq: u64,
    prev_link: u32,
    epoch: u32,
    block_size: usize,
    /// The first write, at the base: the data area and, once sealed,
    /// the trailer.
    body: Vec<u8>,
    /// Sectors of the data area.
    n_sectors: u32,
    /// Runs of the data area that hold no live version, as (first
    /// sector, sectors), sorted and never adjacent.
    free_runs: Vec<(u32, u32)>,
    /// First sectors of extents whose records are not effective yet
    /// ([`pin_extent`](Self::pin_extent)): never freed in this segment.
    pinned: Vec<u32>,
    /// Extents placed (for the seal's trace event).
    n_blocks: u32,
    /// The second write, ending at `top`: the records so far and, once
    /// sealed, the header behind them.
    meta: Vec<u8>,
    /// The records' [`suffix_weight`](Record::suffix_weight)s, summed.
    summary_weight: u64,
}

impl SegmentBuilder {
    /// Starts an empty segment of physical slot `slot`, its data at
    /// sector `base` and its meta record ending at sector `top`, with
    /// log sequence number `seq`, after the segment whose header CRC is
    /// `prev_link`.
    pub(crate) fn new(
        slot: SegmentId,
        (base, top): (u32, u32),
        seq: u64,
        prev_link: u32,
        epoch: u32,
        block_size: usize,
    ) -> Self {
        SegmentBuilder {
            slot,
            base,
            top,
            seq,
            prev_link,
            epoch,
            block_size,
            body: Vec::new(),
            n_sectors: 0,
            free_runs: Vec::new(),
            pinned: Vec::new(),
            n_blocks: 0,
            meta: Vec::new(),
            summary_weight: 0,
        }
    }

    pub(crate) fn slot(&self) -> SegmentId {
        self.slot
    }

    /// The first sector of the data area, counted from the slot's start.
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    pub(crate) fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Bytes of the data area.
    pub(crate) fn data_bytes(&self) -> u64 {
        u64::from(self.n_sectors) * SECTOR as u64
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.body.is_empty() && self.meta.is_empty()
    }

    /// Whether `extra` more bytes — extents and summary records — still
    /// fit between this segment's base and its top, beside the trailer's
    /// sector and the header.
    pub(crate) fn fits(&self, extra: usize) -> bool {
        self.base as usize * SECTOR + self.encoded_len() + extra <= self.top as usize * SECTOR
    }

    /// Places one block's [`extent`] in the data area and returns its
    /// address: in the smallest free run it fits (the run keeps what it
    /// does not take), else appended. An all-zero extent takes no run.
    ///
    /// # Panics
    ///
    /// Panics if `extent` is not whole sectors of at most one block, or
    /// does not fit; callers check [`fits`](Self::fits) first, as if it
    /// appended.
    pub(crate) fn push_extent(&mut self, extent: &[u8]) -> PhysAddr {
        assert!(
            extent.len() <= self.block_size && extent.len().is_multiple_of(SECTOR),
            "an extent is whole sectors of one block"
        );
        assert!(self.fits(extent.len()), "segment overflow");
        let sectors = (extent.len() / SECTOR) as u32;
        self.n_blocks += 1;
        let best = (self.free_runs.iter().enumerate())
            .filter(|(_, &(_, len))| sectors > 0 && len >= sectors)
            .min_by_key(|(_, &(_, len))| len)
            .map(|(i, _)| i);
        let sector = match best {
            Some(i) => {
                let (start, len) = self.free_runs[i];
                if len == sectors {
                    self.free_runs.remove(i);
                } else {
                    self.free_runs[i] = (start + sectors, len - sectors);
                }
                let at = (start - self.base) as usize * SECTOR;
                self.body[at..at + extent.len()].copy_from_slice(extent);
                start
            }
            None => {
                self.body.extend_from_slice(extent);
                self.n_sectors += sectors;
                self.base + self.n_sectors - sectors
            }
        };
        PhysAddr {
            segment: self.slot,
            sector,
            sectors,
        }
    }
    /// Makes the sectors of the extent at `addr` a free run, merged with
    /// the runs beside it: what a version this segment holds leaves
    /// behind when a record that is effective in the same segment
    /// supersedes it (docs/INVARIANTS.md I5). `false`: `addr` is not in
    /// this segment's data area, is pinned, or takes no sector, and
    /// nothing changed.
    pub(crate) fn free_extent(&mut self, addr: PhysAddr) -> bool {
        if addr.sectors == 0
            || self.extent_range(addr).is_none()
            || self.pinned.contains(&addr.sector)
        {
            return false;
        }
        self.free_runs.push((addr.sector, addr.sectors));
        self.free_runs.sort_unstable();
        self.free_runs.dedup_by(|next, run| {
            let adjacent = run.0 + run.1 == next.0;
            if adjacent {
                run.1 += next.1;
            }
            adjacent
        });
        debug_assert!(
            (self.free_runs.windows(2)).all(|w| w[0].0 + w[0].1 < w[1].0),
            "a freed extent overlaps a free run"
        );
        true
    }

    /// Keeps the extent at `addr` out of [`free_extent`](Self::free_extent)
    /// for the rest of this segment: its record is tagged with a unit
    /// whose commit record may come later in the log, so replay may make
    /// it effective after whatever supersedes it here.
    pub(crate) fn pin_extent(&mut self, addr: PhysAddr) {
        if addr.sectors > 0 {
            self.pinned.push(addr.sector);
        }
    }

    /// Appends one summary record and returns the bytes it took.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit: callers reserve room for it
    /// first ([`fits`](Self::fits)), a `Write` record at its widest.
    pub(crate) fn push_record(&mut self, rec: &Record) -> usize {
        let before = self.meta.len();
        rec.encode(&mut self.meta);
        assert!(self.fits(0), "summary overflow: the reservation was short");
        self.summary_weight += rec.suffix_weight();
        self.meta.len() - before
    }

    /// What the records pushed so far weigh in the suffix bound.
    pub(crate) fn summary_weight(&self) -> u64 {
        self.summary_weight
    }

    /// Where in [`body`](Self::body) the extent at `addr` sits, if it is
    /// one of this segment's.
    fn extent_range(&self, addr: PhysAddr) -> Option<Range<usize>> {
        if addr.segment != self.slot {
            return None;
        }
        let start = addr.sector.checked_sub(self.base)?;
        let end = start.checked_add(addr.sectors)?;
        (end <= self.n_sectors).then(|| start as usize * SECTOR..end as usize * SECTOR)
    }

    /// Replaces the extent at `held`, placed in this segment while it is
    /// still open, with `extent` zero-padded to `held`'s sectors: nothing
    /// of it has been handed to the device, so the version it held never
    /// existed there. Whether the caller may is docs/INVARIANTS.md I5.
    /// `false`: `held` is not this segment's, or `extent` is longer than
    /// it, and nothing changed.
    pub(crate) fn rewrite_extent(&mut self, held: PhysAddr, extent: &[u8]) -> bool {
        if extent.len() > held.sectors as usize * SECTOR {
            return false;
        }
        let Some(at) = self.extent_range(held) else {
            return false;
        };
        let sectors = (extent.len() / SECTOR) as u32;
        zero_past_extent(&mut self.body[at], sectors).copy_from_slice(extent);
        true
    }

    /// Reads back the block at `addr` placed in this segment (open or
    /// sealed) into `block`, zero-filled past its extent. `false`: the
    /// address belongs to another segment, or to nothing yet.
    pub(crate) fn read_block(&self, addr: PhysAddr, block: &mut [u8]) -> bool {
        let Some(at) = self.extent_range(addr) else {
            return false;
        };
        zero_past_extent(block, addr.sectors).copy_from_slice(&self.body[at]);
        true
    }

    /// Where the log goes on in this slot once the segment as it stands
    /// is sealed: its successor's base (behind the data area and the
    /// trailer's sector) and top (below the meta record), if a seal now
    /// leaves room for one between them. Asked before the seal.
    pub(crate) fn successor(&self) -> Option<(u32, u32)> {
        let base = self.base + self.n_sectors + 1;
        let top = self.top - meta_sectors(self.meta.len() as u64) as u32;
        let block = (self.block_size / SECTOR) as u32;
        valid_head(block, base, top).then_some((base, top))
    }

    /// Seals the segment: encodes the header, pointing at `next_slot`
    /// and recording `covered` — the last segment a completed barrier
    /// vouched for — puts its CRC behind the data area as the trailer
    /// and the header itself behind the records, and returns it. A
    /// position holds a valid segment exactly when the meta record is
    /// on disk, and its body exactly when the trailer is.
    pub(crate) fn header_bytes(&mut self, next_slot: u32, covered: u64) -> [u8; HEADER_LEN] {
        debug_assert!(covered < self.seq);
        let delta = (self.seq.checked_sub(covered))
            .filter(|&d| d > 0 && d < COVERS_NOTHING)
            .unwrap_or(COVERS_NOTHING);
        let mut header = SegField::encode(&[
            (SegField::Magic, SEGMENT_MAGIC),
            (SegField::Seq, self.seq),
            (SegField::NSectors, u64::from(self.n_sectors)),
            (SegField::SummaryLen, self.meta.len() as u64),
            (SegField::SummaryCrc, u64::from(crc32(&self.meta))),
            (SegField::NextSlot, u64::from(next_slot)),
            (SegField::PrevLink, u64::from(self.prev_link)),
            (SegField::Epoch, u64::from(self.epoch)),
            (SegField::Covered, delta),
        ]);
        let crc = SegField::Crc.seal(&mut header);
        self.body
            .extend_from_slice(&crc.to_le_bytes()[..TRAILER_LEN]);
        self.meta.extend_from_slice(&header);
        header
    }

    /// What the segment takes of the room between its base and its top
    /// as it stands: data area, the trailer's sector, summary and
    /// header.
    pub(crate) fn encoded_len(&self) -> usize {
        self.body.len() + SECTOR + self.meta.len() + HEADER_LEN
    }

    /// The sealed segment's data area and trailer: the first write, at
    /// its base.
    pub(crate) fn body(&self) -> &[u8] {
        &self.body
    }

    /// The sealed segment's records and header: the second write, at
    /// [`meta_at`](Self::meta_at).
    pub(crate) fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Byte offset in the slot of the sealed segment's meta record: it
    /// ends at the top.
    pub(crate) fn meta_at(&self) -> u64 {
        u64::from(self.top) * SECTOR as u64 - self.meta.len() as u64
    }
}

/// A sealed segment's header as read back from disk: CRC and magic
/// verified, and its data area, trailer and meta record fit between the
/// position's base and top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    pub(crate) seq: u64,
    /// Where it was read from.
    pub(crate) slot: SegmentId,
    base: u32,
    top: u32,
    n_sectors: u32,
    summary_len: u32,
    summary_crc: u32,
    /// Header CRC of segment `seq - 1`.
    pub(crate) prev_link: u32,
    /// The last segment a barrier had vouched for when this one was
    /// sealed: every segment up to it is on the device whole (0: none
    /// claimed).
    pub(crate) covered: u64,
    /// Where the log goes on — behind this segment in its slot, at
    /// another slot's ends, or at [`NO_SLOT`] — and this header's own
    /// CRC.
    pub(crate) next: ChainHead,
}

impl SegmentHeader {
    /// The sectors of its data area, counted from the slot's start: the
    /// only ones its `Write` records name
    /// ([`SegmentBuilder::push_extent`]).
    pub(crate) fn data_sectors(&self) -> Range<u32> {
        self.base..self.base + self.n_sectors
    }

    /// The first sector of its meta record.
    fn meta_start(&self) -> u32 {
        self.top - meta_sectors(u64::from(self.summary_len)) as u32
    }

    /// The sectors of its meta record: summary and header.
    pub(crate) fn meta_range(&self) -> (u32, u32) {
        (self.meta_start(), self.top)
    }

    /// How far down the metadata run of its slot reaches if the
    /// segments behind it there are as large as it is: the sector the
    /// scan reads down to, never below the data frontier.
    pub(crate) fn run_estimate(&self) -> u32 {
        let (start, data_end) = (self.meta_start(), self.base + self.n_sectors + 1);
        let meta = self.top - start;
        let more = (start - data_end) / (data_end - self.base + meta);
        start
            .saturating_sub(more.saturating_mul(meta))
            .max(data_end)
    }

    /// Byte offset in the slot of its trailer.
    fn trailer_at(&self) -> u64 {
        u64::from(self.base + self.n_sectors) * SECTOR as u64
    }
}

/// Validates the header that ends at sector `top` of `slot` for a
/// segment whose data starts at sector `base`. `None`: no sealed segment
/// there — the header never landed, was punched, is stale garbage or
/// user data, claims a barrier vouched for itself, or describes a
/// segment whose meta record reaches into its data area or trailer (or
/// an in-slot successor with no room), which no writer produces. The
/// caller keeps `top` inside the slot.
pub(crate) fn parse_header(
    header: &[u8],
    layout: &Layout,
    slot: SegmentId,
    (base, top): (u32, u32),
) -> Option<SegmentHeader> {
    if !SegField::Crc.sealed(header) || SegField::Magic.get(header) != SEGMENT_MAGIC {
        return None;
    }
    let link = SegField::Crc.get(header) as u32;
    let field = |f: SegField| f.get(header) as u32;
    let (seq, delta) = (SegField::Seq.get(header), SegField::Covered.get(header));
    let (n_sectors, summary_len) = (field(SegField::NSectors), field(SegField::SummaryLen));
    let meta_start = u64::from(top).checked_sub(meta_sectors(u64::from(summary_len)))?;
    if delta == 0 || u64::from(base) + u64::from(n_sectors) + 1 > meta_start {
        return None;
    }
    let next_slot = field(SegField::NextSlot);
    let next = if next_slot == slot.get() {
        // Both fit in a `u32`: they lie between `base` and `top`.
        let (base, top) = (base + n_sectors + 1, meta_start as u32);
        if !valid_head(layout.sectors_per_block(), base, top) {
            return None;
        }
        ChainHead {
            slot: next_slot,
            base,
            top,
            link,
        }
    } else {
        ChainHead {
            slot: next_slot,
            base: 0,
            top: layout.sectors_per_slot(),
            link,
        }
    };
    Some(SegmentHeader {
        seq,
        slot,
        base,
        top,
        n_sectors,
        summary_len,
        summary_crc: field(SegField::SummaryCrc),
        prev_link: field(SegField::PrevLink),
        covered: if delta == COVERS_NOTHING {
            0
        } else {
            seq.saturating_sub(delta)
        },
        next,
    })
}

/// Sectors `[lo, hi)` of one slot as read from the device: the part of
/// the slot's metadata run the scan has fetched. Each fetch is one
/// device read.
#[derive(Debug)]
pub(crate) struct MetaRun {
    slot: u32,
    lo: u32,
    hi: u32,
    bytes: Vec<u8>,
}

impl MetaRun {
    /// Reads sectors `[lo, hi)` of `slot`.
    pub(crate) fn read<D: BlockDevice>(
        device: &D,
        layout: &Layout,
        slot: u32,
        (lo, hi): (u32, u32),
    ) -> Result<Self> {
        let mut bytes = vec![0u8; (hi - lo) as usize * SECTOR];
        device.read_at(sector_offset(layout, slot, lo), &mut bytes)?;
        Ok(MetaRun {
            slot,
            lo,
            hi,
            bytes,
        })
    }

    /// Reads sectors `[lo, self.lo)`, the ones in front of what it
    /// holds, in one read.
    pub(crate) fn extend_down<D: BlockDevice>(
        &mut self,
        device: &D,
        layout: &Layout,
        lo: u32,
    ) -> Result<()> {
        let front = MetaRun::read(device, layout, self.slot, (lo, self.lo))?;
        let mut bytes = front.bytes;
        bytes.extend_from_slice(&self.bytes);
        (self.bytes, self.lo) = (bytes, lo);
        Ok(())
    }

    /// Whether it holds sectors `[lo, hi)` of `slot`.
    pub(crate) fn holds(&self, slot: u32, (lo, hi): (u32, u32)) -> bool {
        self.slot == slot && self.lo <= lo && hi <= self.hi
    }

    /// Whether it holds the sectors of `slot` from `hi` up, to extend.
    pub(crate) fn reaches(&self, slot: u32, hi: u32) -> bool {
        self.slot == slot && self.lo <= hi && hi <= self.hi
    }

    /// Sectors held.
    pub(crate) fn sectors(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Bytes `at..at + len` of the slot, which it holds.
    fn slice(&self, at: u64, len: usize) -> &[u8] {
        let from = (at - u64::from(self.lo) * SECTOR as u64) as usize;
        &self.bytes[from..from + len]
    }

    /// The header that ends at sector `top`, which it holds, parsed for
    /// a segment whose data starts at `base` ([`parse_header`]).
    pub(crate) fn header(&self, layout: &Layout, (base, top): (u32, u32)) -> Option<SegmentHeader> {
        let at = u64::from(top) * SECTOR as u64 - HEADER_LEN as u64;
        let slot = SegmentId::new(self.slot);
        parse_header(self.slice(at, HEADER_LEN), layout, slot, (base, top))
    }

    /// Whether the body of the segment `header` describes is on the
    /// device — its trailer holds the header's CRC — if it holds the
    /// trailer's sector.
    pub(crate) fn body_landed(&self, header: &SegmentHeader) -> Option<bool> {
        let sector = header.base + header.n_sectors;
        let held = self.slot == header.slot.get() && (self.lo..self.hi).contains(&sector);
        let trailer = header.next.link.to_le_bytes();
        held.then(|| self.slice(header.trailer_at(), TRAILER_LEN) == trailer)
    }

    /// Decodes the records `header` vouches for, from its meta record,
    /// which it holds. `None`: they fail their checksum — a stale header
    /// over records it does not describe.
    pub(crate) fn records(&self, header: &SegmentHeader) -> Result<Option<Vec<Record>>> {
        let len = header.summary_len as usize;
        let at = u64::from(header.top) * SECTOR as u64 - (HEADER_LEN + len) as u64;
        let summary = self.slice(at, len);
        if crc32(summary) != header.summary_crc {
            return Ok(None);
        }
        let (slot, seq) = (header.slot, header.seq);
        Record::decode_all(summary).map(Some).map_err(|e| match e {
            LldError::Corrupt(msg) => LldError::Corrupt(format!("segment {slot} seq {seq}: {msg}")),
            other => other,
        })
    }
}

/// Byte offset of sector `sector` of slot `slot`.
pub(crate) fn sector_offset(layout: &Layout, slot: u32, sector: u32) -> u64 {
    layout.segment_offset(slot) + u64::from(sector) * SECTOR as u64
}

/// Whether the body of the segment `header` describes is on the device:
/// its trailer holds the header's CRC. One read of [`TRAILER_LEN`]
/// bytes.
pub(crate) fn body_landed<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    header: &SegmentHeader,
) -> Result<bool> {
    let mut trailer = [0u8; TRAILER_LEN];
    let at = layout.segment_offset(header.slot.get()) + header.trailer_at();
    device.read_at(at, &mut trailer)?;
    Ok(u32::from_le_bytes(trailer) == header.next.link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LldConfig;
    use crate::types::{BlockId, Ctx, Position, Timestamp};
    use crate::Lld;
    use ld_disk::MemDisk;

    /// Slots of eight 512-byte sectors.
    fn layout() -> Layout {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            max_blocks: Some(64),
            max_lists: Some(16),
            ..LldConfig::default()
        };
        Layout::compute(1 << 20, &cfg).unwrap()
    }

    fn builder_at(slot: u32, at: (u32, u32), seq: u64) -> SegmentBuilder {
        SegmentBuilder::new(SegmentId::new(slot), at, seq, 0, 7, 512)
    }

    /// The first segment of an 8-sector slot.
    fn builder(slot: u32, seq: u64) -> SegmentBuilder {
        builder_at(slot, (0, 8), seq)
    }

    /// Writes the segment as `LldInner::write_sealed` does: the body at
    /// its base, then the meta record ending at its top.
    fn write_seal(device: &MemDisk, layout: &Layout, b: &SegmentBuilder) {
        let slot = b.slot().get();
        device
            .write_at(sector_offset(layout, slot, b.base()), b.body())
            .unwrap();
        let at = layout.segment_offset(slot) + b.meta_at();
        device.write_at(at, b.meta()).unwrap();
    }

    /// Seals `b` with no successor and writes it.
    fn seal_and_write(device: &MemDisk, layout: &Layout, b: &mut SegmentBuilder) {
        b.header_bytes(NO_SLOT, 0);
        write_seal(device, layout, b);
    }

    /// The whole of `slot` as a metadata run.
    fn whole(device: &MemDisk, layout: &Layout, slot: u32) -> MetaRun {
        MetaRun::read(device, layout, slot, (0, layout.sectors_per_slot())).unwrap()
    }

    /// Sequence number and records of the segment at `at` of `slot`, if
    /// its header, summary and trailer all verify.
    fn read_segment_at(
        device: &MemDisk,
        layout: &Layout,
        slot: u32,
        at: (u32, u32),
    ) -> Option<(u64, Vec<Record>)> {
        let h = whole(device, layout, slot).header(layout, at)?;
        let records = whole(device, layout, slot).records(&h).unwrap()?;
        body_landed(device, layout, &h)
            .unwrap()
            .then_some((h.seq, records))
    }

    fn read_segment(device: &MemDisk, layout: &Layout, slot: u32) -> Option<(u64, Vec<Record>)> {
        read_segment_at(device, layout, slot, (0, 8))
    }

    fn sample_record(n: u64) -> Record {
        Record::NewBlock {
            block: BlockId::new(n),
            ts: Timestamp::new(n),
        }
    }

    /// `header` with `field` set to `v` and its CRC made good again.
    fn forged(header: &[u8; HEADER_LEN], field: SegField, v: u64) -> [u8; HEADER_LEN] {
        let mut h = *header;
        field.put(&mut h, v);
        SegField::Crc.seal(&mut h);
        h
    }

    /// A `block_size`-byte block whose last non-zero byte is at `last`
    /// (`None`: all zeros).
    fn block_to(block_size: usize, last: Option<usize>) -> Vec<u8> {
        let mut b = vec![0u8; block_size];
        if let Some(last) = last {
            b[..=last].fill(0x5A);
        }
        b
    }

    #[test]
    fn extent_ends_at_the_last_non_zero_sector() {
        for bs in [512usize, 4096] {
            assert!(extent(&block_to(bs, None)).is_empty(), "{bs}: all zeros");
            assert_eq!(extent(&block_to(bs, Some(0))).len(), 512, "{bs}");
            assert_eq!(extent(&block_to(bs, Some(511))).len(), 512, "{bs}");
            assert_eq!(extent(&block_to(bs, Some(bs - 1))).len(), bs, "{bs}: full");
            // A non-zero byte alone in the last sector keeps them all.
            let mut lone = vec![0u8; bs];
            lone[bs - 1] = 1;
            assert_eq!(extent(&lone).len(), bs, "{bs}");
        }
        // The paper's 1 KB file in a 4 KiB block: two sectors.
        assert_eq!(extent(&block_to(4096, Some(1023))).len(), 1024);
        assert_eq!(extent(&block_to(4096, Some(1024))).len(), 1536);

        // A read zero-fills what the extent leaves.
        let mut buf = vec![0xEEu8; 4096];
        zero_past_extent(&mut buf, 2).fill(7);
        assert!(buf[..1024].iter().all(|&b| b == 7));
        assert!(buf[1024..].iter().all(|&b| b == 0));
    }

    #[test]
    fn builder_tracks_capacity() {
        let b = builder(0, 1);
        assert!(b.is_empty());
        // The trailer takes a sector and the header 44 bytes of another:
        // 6 data blocks and 468 bytes of records fit.
        assert!(b.fits(6 * 512 + 468));
        assert!(!b.fits(6 * 512 + 469));
        // Between sectors 3 and 6: a block and 468 bytes.
        let b = builder_at(0, (3, 6), 2);
        assert!(b.fits(512 + 468));
        assert!(!b.fits(512 + 469));
        // A position leaves room for a block, the trailer's sector and a
        // sector of metadata: 3 sectors of 512-byte blocks, 10 of 4 KiB
        // ones.
        assert!(valid_head(1, 5, 8) && !valid_head(1, 6, 8));
        assert!(valid_head(8, 118, 128) && !valid_head(8, 119, 128));
        assert!(!valid_head(8, u32::MAX, 128));
    }

    #[test]
    fn push_and_read_back() {
        let mut b = builder(2, 9);
        let block = vec![0xABu8; 512];
        let a0 = b.push_extent(&block);
        // The data area starts at the slot's first sector.
        assert_eq!((a0.sector, a0.sectors), (0, 1));
        let a1 = b.push_extent(&[0xCDu8; 512]);
        assert_eq!((a1.sector, a1.sectors), (1, 1));
        let zero = b.push_extent(&[]);
        assert_eq!((zero.sector, zero.sectors), (2, 0), "an all-zero block");
        let mut buf = vec![0xEEu8; 512];
        assert!(b.read_block(a0, &mut buf));
        assert_eq!(buf, block);
        assert!(b.read_block(zero, &mut buf));
        assert_eq!(buf, [0u8; 512]);
        let elsewhere = PhysAddr {
            segment: SegmentId::new(3),
            ..a0
        };
        assert!(!b.read_block(elsewhere, &mut buf));
        let past = PhysAddr { sector: 2, ..a0 };
        assert!(!b.read_block(past, &mut buf));
        // A rewrite takes the place; the segment grows by nothing.
        assert!(b.rewrite_extent(a0, &[0xEFu8; 512]));
        assert!(!b.rewrite_extent(past, &block), "not this segment's");
        assert!(b.read_block(a0, &mut buf));
        assert_eq!(buf[0], 0xEF);
        assert!(b.read_block(a1, &mut buf));
        assert_eq!(buf[0], 0xCD);
        b.push_record(&sample_record(1));
        assert_eq!(b.n_blocks(), 3);
        assert_eq!(b.data_bytes(), 2 * 512);
        assert!(!b.is_empty());
    }

    /// I5's placement half: a rewrite takes a version's place only when
    /// the new extent fits inside it, zero-padded; a longer one is
    /// refused (the caller appends).
    #[test]
    fn absorb_fits_or_appends() {
        let mut b = SegmentBuilder::new(SegmentId::new(1), (0, 128), 1, 0, 7, 4096);
        let short = b.push_extent(extent(&block_to(4096, Some(1500))));
        assert_eq!((short.sector, short.sectors), (0, 3));
        let next = b.push_extent(extent(&block_to(4096, Some(4095))));
        assert_eq!((next.sector, next.sectors), (3, 8));
        let before = b.encoded_len();

        // Shorter: fits, and the sectors it no longer needs read as zeros.
        assert!(b.rewrite_extent(short, extent(&block_to(4096, Some(100)))));
        let mut buf = vec![0xEEu8; 4096];
        assert!(b.read_block(short, &mut buf));
        assert_eq!(buf, block_to(4096, Some(100)));
        // Equal: fits. All zeros: fits anything.
        assert!(b.rewrite_extent(short, extent(&block_to(4096, Some(1535)))));
        assert!(b.rewrite_extent(short, extent(&block_to(4096, None))));
        assert!(b.read_block(short, &mut buf));
        assert_eq!(buf, [0u8; 4096]);
        // Longer: refused, nothing changed; the neighbour is intact.
        assert!(!b.rewrite_extent(short, extent(&block_to(4096, Some(1536)))));
        assert!(b.read_block(next, &mut buf));
        assert_eq!(buf, block_to(4096, Some(4095)));
        assert_eq!(b.encoded_len(), before);
        // An all-zero version has no room for anything but zeros.
        let zero = b.push_extent(&[]);
        assert!(b.rewrite_extent(zero, &[]));
        assert!(!b.rewrite_extent(zero, &[1u8; 512]));
    }

    /// A builder of 4 KiB blocks and extents of `sectors` sectors of
    /// `byte` pushed into it in turn.
    fn pushed(sectors: &[(u32, u8)]) -> (SegmentBuilder, Vec<PhysAddr>) {
        let mut b = SegmentBuilder::new(SegmentId::new(1), (0, 128), 1, 0, 7, 4096);
        let addrs = (sectors.iter())
            .map(|&(n, byte)| b.push_extent(&vec![byte; n as usize * SECTOR]))
            .collect();
        (b, addrs)
    }

    fn at(a: PhysAddr) -> (u32, u32) {
        (a.sector, a.sectors)
    }

    /// I5 for sector runs, the builder's half: a freed extent's sectors
    /// go to the smallest run that holds the next extent, which keeps
    /// what it does not take; only an extent that fits no run grows the
    /// data area.
    #[test]
    fn free_runs_are_filled_best_fit() {
        // Three versions to free, with a live one behind each.
        let (mut b, a) = pushed(&[(1, 1), (1, 9), (3, 2), (1, 9), (2, 3), (1, 9)]);
        assert_eq!(at(a[4]), (6, 2));
        for i in [0, 2, 4] {
            assert!(b.free_extent(a[i]));
        }
        let area = b.data_bytes();
        let put = |b: &mut SegmentBuilder, n: u32| at(b.push_extent(&vec![7; n as usize * SECTOR]));
        assert_eq!(put(&mut b, 2), (6, 2), "the run of exactly two");
        assert_eq!(put(&mut b, 1), (0, 1), "the run of exactly one");
        assert_eq!(put(&mut b, 2), (2, 2), "the run of three, split");
        assert_eq!(put(&mut b, 1), (4, 1), "its remainder");
        assert_eq!(b.data_bytes(), area, "no run grew the data area");
        assert_eq!(put(&mut b, 1), (9, 1), "no run left: appended");
        assert_eq!(b.n_blocks(), 11);
    }

    /// Freed extents beside each other, or beside a run, make one run.
    #[test]
    fn free_runs_merge() {
        let (mut b, a) = pushed(&[(1, 1), (1, 2), (2, 3), (1, 9)]);
        b.free_extent(a[1]);
        b.free_extent(a[0]);
        b.free_extent(a[2]);
        let four = b.push_extent(&[0x44; 4 * SECTOR]);
        assert_eq!(at(four), (0, 4), "one run of the three versions");
        assert_eq!(at(b.push_extent(&[0x55; SECTOR])), (5, 1));
    }

    /// What never takes or makes a run: an all-zero extent, an address
    /// outside the open data area (another slot, a segment in front of
    /// this one in its slot, past the area's end), and a pinned extent.
    #[test]
    fn free_runs_ignore_what_is_not_this_areas() {
        let mut b = SegmentBuilder::new(SegmentId::new(1), (3, 128), 1, 0, 7, 4096);
        let a = b.push_extent(&[1; 2 * SECTOR]);
        let live = b.push_extent(&[2; SECTOR]);
        assert_eq!(at(a), (3, 2));
        let elsewhere = [
            PhysAddr {
                segment: SegmentId::new(2),
                ..a
            },
            PhysAddr { sector: 1, ..a },
            PhysAddr { sector: 5, ..a },
            PhysAddr { sectors: 0, ..a },
        ];
        for addr in elsewhere {
            assert!(!b.free_extent(addr), "{addr}");
        }
        assert_eq!(at(b.push_extent(&[3; SECTOR])), (6, 1), "no run was made");
        b.pin_extent(a);
        assert!(!b.free_extent(a), "pinned");
        assert!(b.free_extent(live));
        let zero = b.push_extent(&[]);
        assert_eq!(at(zero), (7, 0), "an all-zero extent takes no run");
        assert_eq!(at(b.push_extent(&[4; SECTOR])), (5, 1));
    }

    /// A filled run reads back as the extent placed in it, zero-filled
    /// past it — not the bytes of the version that was freed there.
    #[test]
    fn a_filled_run_reads_back_zero_filled() {
        let (mut b, a) = pushed(&[(3, 0x5A), (1, 9)]);
        b.free_extent(a[0]);
        let filled = b.push_extent(&[0x11; SECTOR]);
        assert_eq!(at(filled), (0, 1));
        let mut buf = vec![0xEEu8; 4096];
        assert!(b.read_block(filled, &mut buf));
        assert!(buf[..SECTOR].iter().all(|&v| v == 0x11));
        assert!(buf[SECTOR..].iter().all(|&v| v == 0));
        assert!(b.read_block(a[1], &mut buf));
        assert_eq!(&buf[..SECTOR], &[9; SECTOR]);
    }

    #[test]
    fn seal_and_read_round_trip() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(1, 42);
        b.push_extent(&[7u8; 512]);
        b.push_record(&sample_record(1));
        b.push_record(&sample_record(2));
        seal_and_write(&device, &layout, &mut b);

        let (seq, records) = read_segment(&device, &layout, 1).expect("valid segment");
        assert_eq!(seq, 42);
        assert_eq!(records, vec![sample_record(1), sample_record(2)]);

        // Unwritten slots read as "no segment".
        assert_eq!(read_segment(&device, &layout, 2), None);
    }

    #[test]
    fn segments_sit_back_to_back_in_a_slot() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let slot = SegmentId::new(2);
        let mut first = builder(2, 5);
        assert_eq!(first.push_extent(&[1u8; 512]).sector, 0);
        first.push_record(&sample_record(1));
        // Data and trailer below sector 2, the meta record above 7.
        assert_eq!(first.successor(), Some((2, 7)));
        let h1 = first.header_bytes(2, 4);
        write_seal(&device, &layout, &first);

        let mut second = SegmentBuilder::new(slot, (2, 7), 6, header_link(&h1), 7, 512);
        // Addresses count from the slot's start, so `Layout::block_offset`
        // finds the block without knowing which segment holds it.
        let a = second.push_extent(&[2u8; 512]);
        let b = second.push_extent(&[3u8; 512]);
        assert_eq!((a.sector, b.sector), (2, 3));
        let mut buf = [0u8; 512];
        assert!(second.read_block(b, &mut buf));
        assert_eq!(buf[0], 3);
        let first_block = PhysAddr {
            segment: slot,
            sector: 0,
            sectors: 1,
        };
        assert!(
            !second.read_block(first_block, &mut buf),
            "the first segment's block"
        );
        second.push_record(&sample_record(2));
        // Its trailer takes sector 4 and its meta record sector 6: no
        // room is left between them.
        assert_eq!(second.successor(), None);
        second.header_bytes(NO_SLOT, 4);
        write_seal(&device, &layout, &second);
        device.read_at(layout.block_offset(b), &mut buf).unwrap();
        assert_eq!(buf[0], 3);

        // One read of the slot's last two sectors holds both records.
        let run = MetaRun::read(&device, &layout, 2, (6, 8)).unwrap();
        let h = run.header(&layout, (0, 8)).unwrap();
        assert_eq!((h.next.slot, h.next.base, h.next.top), (2, 2, 7));
        assert_eq!(h.covered, 4);
        assert_eq!(run.records(&h).unwrap().unwrap(), vec![sample_record(1)]);
        let h2 = run.header(&layout, (2, 7)).unwrap();
        assert_eq!((h2.seq, h2.prev_link), (6, h.next.link));
        assert_eq!(h2.next.slot, NO_SLOT);
        assert_eq!(h2.data_sectors(), 2..4);
        assert_eq!(h2.covered, 4);
        assert_eq!(run.records(&h2).unwrap().unwrap(), vec![sample_record(2)]);
        assert!(body_landed(&device, &layout, &h).unwrap());
        assert!(body_landed(&device, &layout, &h2).unwrap());
    }

    /// Short extents pack the data area by sectors: it starts at the
    /// base, the trailer takes the sector behind its last one, and the
    /// successor's base is the sector behind that — none of them at a
    /// block boundary. The meta records sit back to back below the top.
    #[test]
    fn short_extents_pack_by_sectors() {
        let cfg = LldConfig {
            block_size: 4096,
            segment_bytes: 16 * 4096,
            ..LldConfig::default()
        };
        let layout = Layout::compute(4 << 20, &cfg).unwrap();
        let device = MemDisk::new(4 << 20);
        let slot = SegmentId::new(1);
        let mut b = SegmentBuilder::new(slot, (0, 128), 1, 0, 7, 4096);
        let blocks = [
            block_to(4096, None),
            block_to(4096, Some(1000)),
            block_to(4096, Some(4095)),
            block_to(4096, Some(10)),
        ];
        let addrs: Vec<PhysAddr> = blocks.iter().map(|d| b.push_extent(extent(d))).collect();
        let at: Vec<(u32, u32)> = addrs.iter().map(|a| (a.sector, a.sectors)).collect();
        assert_eq!(at, [(0, 0), (0, 2), (2, 8), (10, 1)]);
        b.push_record(&sample_record(1));
        // 11 sectors of data, the trailer's, and one of metadata.
        assert_eq!(b.successor(), Some((12, 127)));
        let h1 = b.header_bytes(1, 0);
        write_seal(&device, &layout, &b);

        // A successor in the middle of a block.
        let mut next = SegmentBuilder::new(slot, (12, 127), 2, header_link(&h1), 7, 4096);
        let full = next.push_extent(extent(&blocks[2]));
        assert_eq!((full.sector, full.sectors), (12, 8));
        next.push_record(&sample_record(2));
        next.header_bytes(NO_SLOT, 1);
        write_seal(&device, &layout, &next);
        let run = MetaRun::read(&device, &layout, 1, (126, 128)).unwrap();
        let h = run.header(&layout, (0, 128)).unwrap();
        assert_eq!(h.data_sectors(), 0..11);
        assert_eq!((h.next.slot, h.next.base, h.next.top), (1, 12, 127));
        assert_eq!(h.covered, 0, "no barrier yet");
        // Segments like it fill the slot's run down to sector 119.
        assert_eq!(h.run_estimate(), 127 - 8);
        assert_eq!(run.records(&h).unwrap().unwrap(), vec![sample_record(1)]);
        let h2 = run.header(&layout, (12, 127)).unwrap();
        assert_eq!((h2.seq, h2.prev_link, h2.covered), (2, h.next.link, 1));
        assert_eq!(h2.data_sectors(), 12..20);
        assert_eq!(run.records(&h2).unwrap().unwrap(), vec![sample_record(2)]);
        // Each extent reads back where its address says, zero-filled.
        for (addr, want) in addrs.iter().zip(&blocks) {
            let mut buf = vec![0xEEu8; 4096];
            let front = zero_past_extent(&mut buf, addr.sectors);
            device.read_at(layout.block_offset(*addr), front).unwrap();
            assert_eq!(&buf, want, "{addr}");
        }
    }

    #[test]
    fn header_that_overruns_its_slot_is_no_segment() {
        // A CRC-valid header may sit anywhere a slot held user data; one
        // whose meta record reaches into its data area or trailer, or
        // whose in-slot successor would have no room, is not a segment.
        let layout = layout();
        let slot = SegmentId::new(1);
        let mut b = builder_at(1, (4, 8), 9);
        b.push_extent(&[1u8; 512]);
        b.push_record(&sample_record(1));
        let fits = b.header_bytes(NO_SLOT, 0); // data 4, trailer 5, meta 7
        assert!(parse_header(&fits, &layout, slot, (4, 8)).is_some());
        assert!(parse_header(&fits, &layout, slot, (5, 8)).is_some());
        assert!(parse_header(&fits, &layout, slot, (6, 8)).is_none());
        assert!(parse_header(&fits, &layout, slot, (4, 7)).is_some());
        assert!(parse_header(&fits, &layout, slot, (4, 6)).is_none());
        // Going on behind itself leaves sectors 6 to 7: too few.
        let hostile = forged(&fits, SegField::NextSlot, 1);
        assert!(parse_header(&hostile, &layout, slot, (4, 8)).is_none());
        assert!(parse_header(&hostile, &layout, slot, (2, 8)).is_some());
        // A watermark at the segment itself is no writer's.
        let own = forged(&fits, SegField::Covered, 0);
        assert!(parse_header(&own, &layout, slot, (4, 8)).is_none());
        let none = forged(&fits, SegField::Covered, COVERS_NOTHING);
        assert_eq!(
            parse_header(&none, &layout, slot, (4, 8)).unwrap().covered,
            0
        );
        // Field values near the integer limits do not wrap.
        let huge = forged(&fits, SegField::NSectors, u64::from(u32::MAX));
        let huge = forged(&huge, SegField::SummaryLen, u64::from(u32::MAX));
        assert!(parse_header(&huge, &layout, slot, (u32::MAX, 8)).is_none());
        assert!(parse_header(&huge, &layout, slot, (0, 8)).is_none());
    }

    /// A meta record torn anywhere leaves no new header: the header is
    /// its last bytes. A stale header over records it does not describe
    /// fails the summary CRC.
    #[test]
    fn torn_summary_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        b.push_extent(&[1u8; 512]);
        b.push_record(&sample_record(1));
        b.header_bytes(NO_SLOT, 0);
        device.write_at(layout.segment_offset(0), b.body()).unwrap();
        let at = layout.segment_offset(0) + b.meta_at();
        device
            .write_at(at, &b.meta()[..b.meta().len() - 9])
            .unwrap();
        assert_eq!(read_segment(&device, &layout, 0), None, "torn");
        device.write_at(at, b.meta()).unwrap();
        assert!(read_segment(&device, &layout, 0).is_some());
        device.write_at(at, &[0xEE]).unwrap();
        let h = whole(&device, &layout, 0).header(&layout, (0, 8)).unwrap();
        assert_eq!(whole(&device, &layout, 0).records(&h).unwrap(), None);
    }

    /// The trailer says whether the body landed: a meta record alone is
    /// not a segment, and neither is it over the body of another
    /// instance at the same place.
    #[test]
    fn meta_without_its_body_is_no_segment() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        b.push_extent(&[1u8; 512]);
        b.push_record(&sample_record(1));
        b.header_bytes(NO_SLOT, 0);
        let at = layout.segment_offset(0) + b.meta_at();
        device.write_at(at, b.meta()).unwrap();
        let h = whole(&device, &layout, 0).header(&layout, (0, 8)).unwrap();
        assert!(!body_landed(&device, &layout, &h).unwrap(), "meta alone");
        let mut other = SegmentBuilder::new(SegmentId::new(0), (0, 8), 7, 0, 8, 512);
        other.push_extent(&[1u8; 512]);
        other.push_record(&sample_record(1));
        other.header_bytes(NO_SLOT, 0);
        device
            .write_at(layout.segment_offset(0), other.body())
            .unwrap();
        assert!(
            !body_landed(&device, &layout, &h).unwrap(),
            "another epoch's"
        );
        device.write_at(layout.segment_offset(0), b.body()).unwrap();
        assert!(body_landed(&device, &layout, &h).unwrap());
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        seal_and_write(&device, &layout, &mut b);
        assert!(read_segment(&device, &layout, 0).is_some());
        let seq_at = layout.segment_offset(1) - HEADER_LEN as u64 + SegField::Seq.at as u64;
        device.write_at(seq_at + 1, &[0x10]).unwrap(); // seq 7 → 4103
        assert_eq!(read_segment(&device, &layout, 0), None);
    }

    #[test]
    fn punched_header_kills_a_stale_segment() {
        // Format starts a new log at the back of slot 0 with sequence
        // number 1 and no predecessor — exactly what the first segment
        // of the previous log there says of itself. The punch is what
        // keeps it out.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut old = builder(0, 1);
        old.push_extent(&[1u8; 512]);
        old.push_record(&sample_record(1));
        seal_and_write(&device, &layout, &mut old);
        assert!(read_segment(&device, &layout, 0).is_some());
        let end = layout.segment_offset(1);
        device
            .write_at(end - HEADER_LEN as u64, &HEADER_PUNCH)
            .unwrap();
        assert_eq!(
            read_segment(&device, &layout, 0),
            None,
            "a punched header must not validate"
        );
    }

    #[test]
    fn data_block_offsets_match_layout() {
        // The extent at an address must land where
        // Layout::block_offset says it is.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(3, 1);
        b.push_extent(&[0x11u8; 512]);
        let addr = b.push_extent(&[0x22u8; 512]);
        seal_and_write(&device, &layout, &mut b);
        let mut buf = [0u8; 512];
        device.read_at(layout.block_offset(addr), &mut buf).unwrap();
        assert_eq!(buf[0], 0x22);
    }

    /// A disk of 4 KiB blocks holding two: `short` (1,000 bytes) and a
    /// full one behind it in the data area, so a read that took a whole
    /// block at `short`'s address would return the other's bytes in its
    /// tail. No `cleanerd`: a scoped session's epilogue writes its own
    /// seal.
    fn two_block_disk() -> (Lld<MemDisk>, BlockId, Vec<u8>) {
        let mut cfg = LldConfig {
            block_size: 4096,
            segment_bytes: 16 * 4096,
            ..LldConfig::default()
        };
        cfg.cleaner.background = false;
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
        let list = ld.new_list(Ctx::Simple).unwrap();
        let short = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
        let next = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
        let data = block_to(4096, Some(999));
        ld.write(Ctx::Simple, short, &data).unwrap();
        ld.write(Ctx::Simple, next, &[0xCD; 4096]).unwrap();
        (ld, short, data)
    }

    /// The block at `addr` as `read_block_data` returns it, into a
    /// buffer of stale bytes.
    fn read_at(ld: &crate::lld::LldInner<MemDisk>, addr: PhysAddr) -> Vec<u8> {
        let mut buf = vec![0xEEu8; 4096];
        ld.read_block_data(addr, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_short_block_reads_back_zero_filled_from_everywhere() {
        let (ld, short, data) = two_block_disk();
        let addr = ld.block_info(short).unwrap().addr.unwrap();
        assert_eq!(addr.sectors, 2);

        // The open segment.
        assert_eq!(read_at(&ld, addr), data, "open segment");

        // An in-flight seal: sealed by a scoped session, whose epilogue
        // writes it only once the session is over.
        ld.with_mutation_at(0, 0, |m| {
            assert!(m.seal_current().unwrap());
            assert_eq!(m.log().inflight.len(), 1);
            m.log_guard = None;
            assert_eq!(read_at(m.lld, addr), data, "in-flight seal");
        });
        assert!(ld.log.lock().inflight.is_empty());

        // The cache, which the write filled.
        let before = ld.stats();
        assert_eq!(read_at(&ld, addr), data, "cache");
        assert_eq!(ld.stats().cache_hits, before.cache_hits + 1);

        // The device.
        ld.cache.lock().invalidate_segment(addr.segment);
        let before = ld.stats();
        assert_eq!(read_at(&ld, addr), data, "device");
        assert_eq!(ld.stats().cache_misses, before.cache_misses + 1);
        let mut buf = vec![0u8; 4096];
        ld.read(Ctx::Simple, short, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    /// I5's placement half on the live disk: an overwrite whose extent
    /// fits the version still in the open segment is absorbed and keeps
    /// its address; a longer one appends.
    #[test]
    fn absorb_fits_against_absorb_appends() {
        let (ld, short, _) = two_block_disk();
        let held = ld.block_info(short).unwrap().addr.unwrap();
        let before = ld.stats();
        let shorter = block_to(4096, Some(10));
        ld.write(Ctx::Simple, short, &shorter).unwrap();
        let s = ld.stats();
        assert_eq!(s.blocks_absorbed, before.blocks_absorbed + 1);
        assert_eq!(s.data_blocks_written, before.data_blocks_written);
        assert_eq!(ld.block_info(short).unwrap().addr, Some(held));
        assert_eq!(read_at(&ld, held), shorter);

        let longer = block_to(4096, Some(1024));
        ld.write(Ctx::Simple, short, &longer).unwrap();
        let s = ld.stats();
        assert_eq!(s.blocks_absorbed, before.blocks_absorbed + 1);
        assert_eq!(s.data_blocks_written, before.data_blocks_written + 1);
        let moved = ld.block_info(short).unwrap().addr.unwrap();
        assert_eq!((moved.sector, moved.sectors), (held.sector + 10, 3));
        ld.flush().unwrap();
        assert_eq!(ld.stats().data_bytes_written, (2 + 8 + 3) * 512);
        let mut buf = vec![0u8; 4096];
        ld.read(Ctx::Simple, short, &mut buf).unwrap();
        assert_eq!(buf, longer);
    }
}
