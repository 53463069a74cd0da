//! In-memory segment construction and on-disk segment encoding.
//!
//! A segment is filled in main memory and written to disk in two device
//! writes, the header and then the body (§2 of the paper has one). Its
//! first [`SECTOR`] is a header; the data area follows; the segment
//! summary (encoded [`Record`]s) sits right behind the data area's last
//! sector:
//!
//! ```text
//! +--------+---------+---------+-----+---------+----------------+
//! | header | data[0] | data[1] | ... | data[k] | summary records|
//! +--------+---------+---------+-----+---------+----------------+
//!  ^ base   ^ base + 1: a base, an address and a length count sectors
//! ```
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
//! smaller than its slot. The next one then starts in the same slot, at
//! the sector after the summary (its *base*); only a slot with no room
//! left for a header sector, one block and a sector of summary
//! ([`valid_base`]) hands on to a fresh one:
//!
//! ```text
//! slot: | hdr | data.. | summary | hdr | data.. | summary | .. unused |
//!         ^ base 0                 ^ base + 1 + n_sectors + ⌈summary_len / 512⌉
//! ```
//!
//! The 44-byte header threads the segments into one log, so recovery
//! follows pointers from the checkpoint's [`ChainHead`] instead of
//! probing every slot (docs/RECOVERY.md):
//!
//! ```text
//!  0 magic u64         24 summary_crc u32
//!  8 seq u64           28 next_slot u32   slot of segment seq+1
//! 16 n_sectors u32     32 prev_link u32   header CRC of segment seq-1
//! 20 summary_len u32   36 epoch u32       per-mount salt
//!                      40 header_crc u32  over bytes 0..40
//! ```
//!
//! `n_sectors` is the data area's size in sectors: the summary starts
//! that many sectors behind the header's. `next_slot` is chosen at
//! seal time. The segment's own slot means "right behind my summary":
//! the successor's base follows from `n_sectors` and `summary_len`, so
//! no field can aim the walk at an arbitrary sector. Another slot means
//! its sector 0, and [`NO_SLOT`] that nothing was free. `prev_link` makes
//! the pointers a hash chain: a CRC-valid header with the right sequence
//! number, left where the walk looks by an earlier use of the slot or by
//! a timeline recovery has since abandoned, does not link and ends the
//! walk — also when both timelines logged the same operations, because
//! `epoch` differs per mount. The summary CRC exposes a torn segment
//! write, which recovery treats as never written.
//!
//! The header keeps its whole sector in the slot, but only its 44 bytes
//! are written: the rest of the sector holds whatever it held, and no
//! reader looks there. The header goes first and the body (data area,
//! then summary) from the next sector, so a prefix of the two writes is
//! a prefix of the segment; docs/RECOVERY.md has the argument for any
//! subset of them. Nothing but the summary separates a header from the
//! one in front of it, so the scan's read of a summary that brings the
//! successor's header along (`read_summary`) transfers no padding.

use crate::error::{LldError, Result};
use crate::layout::{u32_at, u64_at, Layout};
use crate::summary::Record;
use crate::types::{PhysAddr, SegmentId};
use ld_disk::{crc32, BlockDevice};
use std::ops::Range;

const SEGMENT_MAGIC: u64 = 0x4C44_5345_4739_3936; // "LDSEG996"
pub(crate) const HEADER_LEN: usize = 44;
/// The unit a segment's data area is packed in: an extent is whole
/// sectors, and an address counts them.
pub(crate) const SECTOR: usize = 512;
/// The largest block size: an extent's sector count is the low byte of
/// a `Write` record's 32-bit extent field ([`PhysAddr::extent`]).
pub(crate) const MAX_BLOCK_SIZE: usize = 128 * SECTOR;
/// Written over the start of a header to invalidate it (a zero magic
/// never validates). Format punches sector 0 of every slot, where the
/// log of a fresh disk starts.
pub(crate) const HEADER_PUNCH: [u8; 32] = [0; 32];
/// `next_slot` of a segment sealed while no slot was free: its
/// successor is found by probing sector 0 of every slot.
pub(crate) const NO_SLOT: u32 = u32::MAX;

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

/// Whether a segment may start at sector `base` of a slot of
/// `slot_sectors` sectors, on blocks of `block_sectors`: a writer starts
/// one only where a header sector, one block and a sector of summary
/// are left, and a reader accepts a pointer or a checkpointed head
/// nowhere else.
pub(crate) fn valid_base(slot_sectors: u32, block_sectors: u32, base: u32) -> bool {
    let least = 1 + u64::from(block_sectors) + 1;
    u64::from(base) + least <= u64::from(slot_sectors)
}

/// Byte offset of sector `base` of slot `slot`, where a segment's header
/// goes.
pub(crate) fn header_offset(layout: &Layout, slot: u32, base: u32) -> u64 {
    layout.segment_offset(slot) + u64::from(base) * SECTOR as u64
}

/// Where the log continues: the slot and sector the next segment's
/// header is (or will be) written to, and the header CRC of the segment
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainHead {
    pub(crate) slot: u32,
    pub(crate) base: u32,
    pub(crate) link: u32,
}

impl ChainHead {
    /// Whether the log continues in the slot of the segment before it
    /// (a segment is never empty, so its successor's base is not 0).
    pub(crate) fn in_slot(&self) -> bool {
        self.slot != NO_SLOT && self.base > 0
    }
}

/// The link a successor stores for the segment sealed under `header`.
pub(crate) fn header_link(header: &[u8; HEADER_LEN]) -> u32 {
    u32_at(header, HEADER_LEN - 4)
}

/// A segment being filled in memory.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    slot: SegmentId,
    /// Sector of the slot this segment's header goes to.
    base: u32,
    seq: u64,
    prev_link: u32,
    epoch: u32,
    block_size: usize,
    /// Size of the whole slot in bytes.
    capacity: usize,
    /// Zero until [`header_bytes`](Self::header_bytes) seals the segment.
    header: [u8; HEADER_LEN],
    /// As it goes to the device behind the header sector: the data
    /// area and, once sealed, the summary.
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
    /// The records so far; the seal moves them behind the data.
    summary: Vec<u8>,
    /// The records' [`suffix_weight`](Record::suffix_weight)s, summed.
    summary_weight: u64,
}

impl SegmentBuilder {
    /// Starts an empty segment at sector `base` of physical slot `slot`
    /// with log sequence number `seq`, after the segment whose header
    /// CRC is `prev_link`.
    pub(crate) fn new(
        slot: SegmentId,
        base: u32,
        seq: u64,
        prev_link: u32,
        epoch: u32,
        block_size: usize,
        capacity: usize,
    ) -> Self {
        SegmentBuilder {
            slot,
            base,
            seq,
            prev_link,
            epoch,
            block_size,
            capacity,
            header: [0; HEADER_LEN],
            body: Vec::new(),
            n_sectors: 0,
            free_runs: Vec::new(),
            pinned: Vec::new(),
            n_blocks: 0,
            summary: Vec::new(),
            summary_weight: 0,
        }
    }

    pub(crate) fn slot(&self) -> SegmentId {
        self.slot
    }

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
        self.body.is_empty() && self.summary.is_empty()
    }

    /// Whether `extra` more bytes — extents and summary records — still
    /// fit between this segment's base and the slot's end.
    pub(crate) fn fits(&self, extra: usize) -> bool {
        self.base as usize * SECTOR + self.encoded_len() + extra <= self.capacity
    }

    /// The first sector of the data area, counted from the slot's start:
    /// the one behind the header's.
    pub(crate) fn data_start(&self) -> u32 {
        self.base + 1
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
                let at = (start - self.data_start()) as usize * SECTOR;
                self.body[at..at + extent.len()].copy_from_slice(extent);
                start
            }
            None => {
                self.body.extend_from_slice(extent);
                self.n_sectors += sectors;
                self.data_start() + self.n_sectors - sectors
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
        let before = self.summary.len();
        rec.encode(&mut self.summary);
        assert!(self.fits(0), "summary overflow: the reservation was short");
        self.summary_weight += rec.suffix_weight();
        self.summary.len() - before
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
        let start = addr.sector.checked_sub(self.data_start())?;
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

    /// The sector of the slot right behind this segment as it stands:
    /// header, data area, summary rounded up to a sector.
    fn end(&self) -> u32 {
        self.base + self.encoded_len().div_ceil(SECTOR) as u32
    }

    /// The base of a successor in the same slot, if a seal now leaves
    /// room for one.
    pub(crate) fn successor_base(&self) -> Option<u32> {
        let end = self.end();
        let (slot, block) = (self.capacity / SECTOR, self.block_size / SECTOR);
        valid_base(slot as u32, block as u32, end).then_some(end)
    }

    /// Seals the segment: moves the summary behind the data, encodes
    /// the header, pointing at `next_slot`, into [`header`](Self::header),
    /// and returns it. A position holds a valid segment exactly when
    /// these bytes (with their CRC) are on disk.
    pub(crate) fn header_bytes(&mut self, next_slot: u32) -> [u8; HEADER_LEN] {
        let summary = std::mem::take(&mut self.summary);
        self.body.extend_from_slice(&summary);
        let summary = self.summary_bytes();
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        header[8..16].copy_from_slice(&self.seq.to_le_bytes());
        header[16..20].copy_from_slice(&self.n_sectors.to_le_bytes());
        header[20..24].copy_from_slice(&(summary.len() as u32).to_le_bytes());
        header[24..28].copy_from_slice(&crc32(summary).to_le_bytes());
        header[28..32].copy_from_slice(&next_slot.to_le_bytes());
        header[32..36].copy_from_slice(&self.prev_link.to_le_bytes());
        header[36..40].copy_from_slice(&self.epoch.to_le_bytes());
        let header_crc = crc32(&header[..HEADER_LEN - 4]);
        header[HEADER_LEN - 4..].copy_from_slice(&header_crc.to_le_bytes());
        self.header = header;
        header
    }

    /// The summary of a sealed segment, where it sits on disk:
    /// immediately after the data area's last sector.
    pub(crate) fn summary_bytes(&self) -> &[u8] {
        &self.body[self.n_sectors as usize * SECTOR..]
    }

    /// Total on-media size of the segment as it stands: header sector +
    /// data area + summary.
    pub(crate) fn encoded_len(&self) -> usize {
        SECTOR + self.body.len() + self.summary.len()
    }

    /// The sealed segment's header, the first write, at its base.
    pub(crate) fn header(&self) -> &[u8; HEADER_LEN] {
        &self.header
    }

    /// The sealed segment's data area and summary, the second write,
    /// one sector behind its base.
    pub(crate) fn body(&self) -> &[u8] {
        &self.body
    }
}

/// A sealed segment's header as read back from disk: CRC and magic
/// verified, and the segment it describes ends inside its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    pub(crate) seq: u64,
    /// Where it was read from.
    pub(crate) slot: SegmentId,
    base: u32,
    n_sectors: u32,
    summary_len: u32,
    summary_crc: u32,
    /// Header CRC of segment `seq - 1`.
    pub(crate) prev_link: u32,
    /// Where the log goes on — behind this segment's summary, at sector
    /// 0 of another slot, or at [`NO_SLOT`] — and this header's own
    /// CRC.
    pub(crate) next: ChainHead,
}

impl SegmentHeader {
    /// The sectors of its data area, counted from the slot's start: the
    /// only ones its `Write` records name
    /// ([`SegmentBuilder::push_extent`]). [`parse_header`] checked that
    /// they end inside the slot.
    pub(crate) fn data_sectors(&self) -> Range<u32> {
        let start = self.base + 1;
        start..start + self.n_sectors
    }

    /// Byte offset in the slot of the summary: right behind the data
    /// area.
    fn summary_at(&self) -> u64 {
        (u64::from(self.base) + 1 + u64::from(self.n_sectors)) * SECTOR as u64
    }
}

/// Validates the header bytes found at sector `base` of `slot`. `None`:
/// no sealed segment there — the header never landed, was punched, is
/// stale garbage or user data, or describes a segment (or an in-slot
/// successor) that does not fit between `base` and the end of the slot,
/// which no writer produces.
pub(crate) fn parse_header(
    header: &[u8; HEADER_LEN],
    layout: &Layout,
    slot: SegmentId,
    base: u32,
) -> Option<SegmentHeader> {
    let link = header_link(header);
    if crc32(&header[..HEADER_LEN - 4]) != link || u64_at(header, 0) != SEGMENT_MAGIC {
        return None;
    }
    let (n_sectors, summary_len) = (u32_at(header, 16), u32_at(header, 20));
    let end =
        u64::from(base) + 1 + u64::from(n_sectors) + u64::from(summary_len).div_ceil(SECTOR as u64);
    let slot_sectors = layout.sectors_per_slot();
    if end > u64::from(slot_sectors) {
        return None;
    }
    let end = end as u32; // at most `slot_sectors`
    let next_slot = u32_at(header, 28);
    let next_base = if next_slot == slot.get() {
        if !valid_base(slot_sectors, layout.sectors_per_block(), end) {
            return None;
        }
        end
    } else {
        0
    };
    Some(SegmentHeader {
        seq: u64_at(header, 8),
        slot,
        base,
        n_sectors,
        summary_len,
        summary_crc: u32_at(header, 24),
        prev_link: u32_at(header, 32),
        next: ChainHead {
            slot: next_slot,
            base: next_base,
            link,
        },
    })
}

/// Probes the header at sector `base` of physical slot `slot` (see
/// [`parse_header`]).
pub(crate) fn read_header<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    slot: SegmentId,
    base: u32,
) -> Result<Option<SegmentHeader>> {
    let mut header = [0u8; HEADER_LEN];
    device.read_at(header_offset(layout, slot.get(), base), &mut header)?;
    Ok(parse_header(&header, layout, slot, base))
}

/// What the read of a sealed segment's summary returns.
#[derive(Debug)]
pub(crate) struct SummaryRead {
    pub(crate) records: Vec<Record>,
    /// The bytes at the successor's header position, when the log goes
    /// on right behind this summary.
    pub(crate) successor: Option<[u8; HEADER_LEN]>,
}

/// Reads and decodes the summary `header` vouches for. When the log
/// goes on right behind it, the same read fetches the bytes at the
/// successor's header position too (one device access per link instead
/// of two). `None`: the summary fails its checksum — a segment write
/// torn by a crash, treated as never written but reported separately.
pub(crate) fn read_summary<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    header: &SegmentHeader,
) -> Result<Option<SummaryRead>> {
    let slot = header.slot;
    let summary_len = header.summary_len as usize;
    let start = header.summary_at();
    let adjacent = header.next.slot == slot.get();
    let mut buf = if adjacent {
        // `parse_header` checked that this ends inside the slot.
        let next_at = u64::from(header.next.base) * SECTOR as u64;
        vec![0u8; (next_at - start) as usize + HEADER_LEN]
    } else {
        vec![0u8; summary_len]
    };
    device.read_at(layout.segment_offset(slot.get()) + start, &mut buf)?;
    let summary = &buf[..summary_len];
    if crc32(summary) != header.summary_crc {
        return Ok(None);
    }
    let seq = header.seq;
    let records = Record::decode_all(summary).map_err(|e| match e {
        LldError::Corrupt(msg) => LldError::Corrupt(format!("segment {slot} seq {seq}: {msg}")),
        other => other,
    })?;
    let successor = adjacent.then(|| {
        let mut next = [0u8; HEADER_LEN];
        next.copy_from_slice(&buf[buf.len() - HEADER_LEN..]);
        next
    });
    Ok(Some(SummaryRead { records, successor }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LldConfig;
    use crate::types::{BlockId, Ctx, Position, Timestamp};
    use crate::Lld;
    use ld_disk::MemDisk;

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

    fn builder_at(slot: u32, base: u32, seq: u64) -> SegmentBuilder {
        SegmentBuilder::new(SegmentId::new(slot), base, seq, 0, 7, 512, 8 * 512)
    }

    fn builder(slot: u32, seq: u64) -> SegmentBuilder {
        builder_at(slot, 0, seq)
    }

    /// Writes the segment as `LldInner::write_sealed` does: the header
    /// at its base, then the body from the sector behind it.
    fn write_seal(device: &MemDisk, layout: &Layout, b: &SegmentBuilder) {
        let at = header_offset(layout, b.slot().get(), b.base());
        device.write_at(at, b.header()).unwrap();
        device.write_at(at + SECTOR as u64, b.body()).unwrap();
    }

    /// Seals `b` with no successor and writes it.
    fn seal_and_write(device: &MemDisk, layout: &Layout, b: &mut SegmentBuilder) {
        b.header_bytes(NO_SLOT);
        write_seal(device, layout, b);
    }

    /// Sequence number and records of the segment at sector `base` of
    /// `slot`, if its header and summary both verify.
    fn read_segment_at(
        device: &MemDisk,
        layout: &Layout,
        slot: SegmentId,
        base: u32,
    ) -> Result<Option<(u64, Vec<Record>)>> {
        let Some(h) = read_header(device, layout, slot, base)? else {
            return Ok(None);
        };
        Ok(read_summary(device, layout, &h)?.map(|read| (h.seq, read.records)))
    }

    fn read_segment(
        device: &MemDisk,
        layout: &Layout,
        slot: SegmentId,
    ) -> Result<Option<(u64, Vec<Record>)>> {
        read_segment_at(device, layout, slot, 0)
    }

    fn sample_record(n: u64) -> Record {
        Record::NewBlock {
            block: BlockId::new(n),
            ts: Timestamp::new(n),
        }
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
        // Header takes one block, so 7 data blocks fit with no summary.
        assert!(b.fits(7 * 512));
        assert!(!b.fits(7 * 512 + 1));
        // From block 3 on, the header and 4 more blocks are left.
        let b = builder_at(0, 3, 2);
        assert!(b.fits(4 * 512));
        assert!(!b.fits(4 * 512 + 1));
        // A base leaves room for a header sector, a block and a sector of
        // summary: 3 sectors of 512-byte blocks, 10 of 4 KiB ones.
        assert!(valid_base(8, 1, 5) && !valid_base(8, 1, 6));
        assert!(valid_base(128, 8, 118) && !valid_base(128, 8, 119));
        assert!(!valid_base(128, 8, u32::MAX));
    }

    #[test]
    fn push_and_read_back() {
        let mut b = builder(2, 9);
        let block = vec![0xABu8; 512];
        let a0 = b.push_extent(&block);
        // The data area starts at the block behind the header.
        assert_eq!((a0.sector, a0.sectors), (1, 1));
        let a1 = b.push_extent(&[0xCDu8; 512]);
        assert_eq!((a1.sector, a1.sectors), (2, 1));
        let zero = b.push_extent(&[]);
        assert_eq!((zero.sector, zero.sectors), (3, 0), "an all-zero block");
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
        let past = PhysAddr { sector: 3, ..a0 };
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
        let mut b = SegmentBuilder::new(SegmentId::new(1), 0, 1, 0, 7, 4096, 16 * 4096);
        let short = b.push_extent(extent(&block_to(4096, Some(1500))));
        assert_eq!((short.sector, short.sectors), (1, 3));
        let next = b.push_extent(extent(&block_to(4096, Some(4095))));
        assert_eq!((next.sector, next.sectors), (4, 8));
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
        let mut b = SegmentBuilder::new(SegmentId::new(1), 0, 1, 0, 7, 4096, 16 * 4096);
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
        assert_eq!(at(a[4]), (7, 2));
        for i in [0, 2, 4] {
            assert!(b.free_extent(a[i]));
        }
        let area = b.data_bytes();
        let put = |b: &mut SegmentBuilder, n: u32| at(b.push_extent(&vec![7; n as usize * SECTOR]));
        assert_eq!(put(&mut b, 2), (7, 2), "the run of exactly two");
        assert_eq!(put(&mut b, 1), (1, 1), "the run of exactly one");
        assert_eq!(put(&mut b, 2), (3, 2), "the run of three, split");
        assert_eq!(put(&mut b, 1), (5, 1), "its remainder");
        assert_eq!(b.data_bytes(), area, "no run grew the data area");
        assert_eq!(put(&mut b, 1), (10, 1), "no run left: appended");
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
        assert_eq!(at(four), (1, 4), "one run of the three versions");
        assert_eq!(at(b.push_extent(&[0x55; SECTOR])), (6, 1));
    }

    /// What never takes or makes a run: an all-zero extent, an address
    /// outside the open data area (another slot, a segment in front of
    /// this one in its slot, past the area's end), and a pinned extent.
    #[test]
    fn free_runs_ignore_what_is_not_this_areas() {
        let mut b = SegmentBuilder::new(SegmentId::new(1), 3, 1, 0, 7, 4096, 16 * 4096);
        let a = b.push_extent(&[1; 2 * SECTOR]);
        let live = b.push_extent(&[2; SECTOR]);
        assert_eq!(at(a), (4, 2));
        let elsewhere = [
            PhysAddr {
                segment: SegmentId::new(2),
                ..a
            },
            PhysAddr { sector: 1, ..a },
            PhysAddr { sector: 6, ..a },
            PhysAddr { sectors: 0, ..a },
        ];
        for addr in elsewhere {
            assert!(!b.free_extent(addr), "{addr}");
        }
        assert_eq!(at(b.push_extent(&[3; SECTOR])), (7, 1), "no run was made");
        b.pin_extent(a);
        assert!(!b.free_extent(a), "pinned");
        assert!(b.free_extent(live));
        let zero = b.push_extent(&[]);
        assert_eq!(at(zero), (8, 0), "an all-zero extent takes no run");
        assert_eq!(at(b.push_extent(&[4; SECTOR])), (6, 1));
    }

    /// A filled run reads back as the extent placed in it, zero-filled
    /// past it — not the bytes of the version that was freed there.
    #[test]
    fn a_filled_run_reads_back_zero_filled() {
        let (mut b, a) = pushed(&[(3, 0x5A), (1, 9)]);
        b.free_extent(a[0]);
        let filled = b.push_extent(&[0x11; SECTOR]);
        assert_eq!(at(filled), (1, 1));
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

        let (seq, records) = read_segment(&device, &layout, SegmentId::new(1))
            .unwrap()
            .expect("valid segment");
        assert_eq!(seq, 42);
        assert_eq!(records, vec![sample_record(1), sample_record(2)]);

        // Unwritten slots read as "no segment".
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(2)).unwrap(),
            None
        );
    }

    #[test]
    fn segments_sit_back_to_back_in_a_slot() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let slot = SegmentId::new(2);
        let mut first = builder(2, 5);
        assert_eq!(first.push_extent(&[1u8; 512]).sector, 1);
        first.push_record(&sample_record(1));
        // Header, one data block, one block of summary: three blocks.
        assert_eq!(first.successor_base(), Some(3));
        let h1 = first.header_bytes(2);
        write_seal(&device, &layout, &first);

        let mut second = SegmentBuilder::new(slot, 3, 6, header_link(&h1), 7, 512, 8 * 512);
        // Addresses count from the slot's start, so `Layout::block_offset`
        // finds the block without knowing which segment holds it.
        let a = second.push_extent(&[2u8; 512]);
        let b = second.push_extent(&[3u8; 512]);
        assert_eq!((a.sector, b.sector), (4, 5));
        let mut buf = [0u8; 512];
        assert!(second.read_block(b, &mut buf));
        assert_eq!(buf[0], 3);
        let first_block = PhysAddr {
            segment: slot,
            sector: 1,
            sectors: 1,
        };
        assert!(
            !second.read_block(first_block, &mut buf),
            "the first segment's block"
        );
        second.push_record(&sample_record(2));
        // It ends at block 7 of 8: the slot is closed.
        assert_eq!(second.successor_base(), None);
        seal_and_write(&device, &layout, &mut second);
        device.read_at(layout.block_offset(b), &mut buf).unwrap();
        assert_eq!(buf[0], 3);

        // The first summary's read brings the second header with it.
        let h = read_header(&device, &layout, slot, 0).unwrap().unwrap();
        assert_eq!((h.next.slot, h.next.base), (2, 3));
        let read = read_summary(&device, &layout, &h).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(1)]);
        let h2 = parse_header(&read.successor.expect("adjacent"), &layout, slot, 3).unwrap();
        assert_eq!((h2.seq, h2.prev_link), (6, h.next.link));
        assert_eq!(h2.next.slot, NO_SLOT);
        assert_eq!(h2.data_sectors(), 4..6);
        let read = read_summary(&device, &layout, &h2).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(2)]);
        assert_eq!(read.successor, None, "the log goes on elsewhere");
    }

    /// Short extents pack the data area by sectors: it starts at the
    /// sector behind the header, the summary starts behind its last one,
    /// and the successor's base is the sector behind the summary — none
    /// of them at a block boundary.
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
        let mut b = SegmentBuilder::new(slot, 0, 1, 0, 7, 4096, 16 * 4096);
        let blocks = [
            block_to(4096, None),
            block_to(4096, Some(1000)),
            block_to(4096, Some(4095)),
            block_to(4096, Some(10)),
        ];
        let addrs: Vec<PhysAddr> = blocks.iter().map(|d| b.push_extent(extent(d))).collect();
        let at: Vec<(u32, u32)> = addrs.iter().map(|a| (a.sector, a.sectors)).collect();
        assert_eq!(at, [(1, 0), (1, 2), (3, 8), (11, 1)]);
        b.push_record(&sample_record(1));
        // 512 + 11 × 512 + 3 bytes: thirteen sectors.
        assert_eq!(b.successor_base(), Some(13));
        let h1 = b.header_bytes(1);
        write_seal(&device, &layout, &b);
        let h = read_header(&device, &layout, slot, 0).unwrap().unwrap();
        assert_eq!(h.data_sectors(), 1..12);
        assert_eq!((h.next.slot, h.next.base), (1, 13));
        let read = read_summary(&device, &layout, &h).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(1)]);

        // A successor in the middle of a block: its header, data area and
        // summary follow sector for sector.
        let mut next = SegmentBuilder::new(slot, 13, 2, header_link(&h1), 7, 4096, 16 * 4096);
        let full = next.push_extent(extent(&blocks[2]));
        assert_eq!((full.sector, full.sectors), (14, 8));
        next.push_record(&sample_record(2));
        next.header_bytes(NO_SLOT);
        write_seal(&device, &layout, &next);
        // The first summary's read, 3 bytes and the next header behind
        // them, brings it along.
        let read = read_summary(&device, &layout, &h).unwrap().unwrap();
        let h2 = parse_header(&read.successor.expect("adjacent"), &layout, slot, 13).unwrap();
        assert_eq!((h2.seq, h2.prev_link), (2, h.next.link));
        assert_eq!(h2.data_sectors(), 14..22);
        let read = read_summary(&device, &layout, &h2).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(2)]);
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
        // Positions past sector 0 used to hold user data, so a CRC-valid
        // header may sit anywhere; one whose segment (or whose in-slot
        // successor) would not fit behind it is not a segment.
        let layout = layout();
        let slot = SegmentId::new(1);
        let mut b = builder_at(1, 4, 9);
        b.push_extent(&[1u8; 512]);
        b.push_record(&sample_record(1));
        let fits = b.header_bytes(NO_SLOT); // blocks 4, 5, 6 of 8
        assert!(parse_header(&fits, &layout, slot, 4).is_some());
        assert!(parse_header(&fits, &layout, slot, 5).is_some());
        assert!(parse_header(&fits, &layout, slot, 6).is_none());
        // Two blocks are left behind it: no room for a successor.
        let hostile = b.header_bytes(1);
        assert!(parse_header(&hostile, &layout, slot, 4).is_none());
        assert!(parse_header(&hostile, &layout, slot, 2).is_some());
        // Field values near the integer limits do not wrap.
        let mut huge = fits;
        huge[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&huge[..HEADER_LEN - 4]);
        huge[HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(parse_header(&huge, &layout, slot, u32::MAX).is_none());
    }

    #[test]
    fn torn_summary_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        b.push_extent(&[1u8; 512]);
        b.push_record(&sample_record(1));
        b.header_bytes(NO_SLOT);
        // Simulate a torn body write: the tail of the summary never
        // lands and the medium holds stale bytes there instead.
        let at = layout.segment_offset(0);
        device.write_at(at, &vec![0xEEu8; 8 * 512]).unwrap();
        device.write_at(at, b.header()).unwrap();
        let body = b.body();
        device.write_at(at + 512, &body[..body.len() - 9]).unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
            None
        );
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        seal_and_write(&device, &layout, &mut b);
        let mut header = *b.header();
        header[9] ^= 0x10; // flip a bit in seq
        device.write_at(layout.segment_offset(0), &header).unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
            None
        );
    }

    #[test]
    fn punched_header_kills_a_stale_segment() {
        // Format starts a new log at sector 0 of slot 0 with sequence
        // number 1 and no predecessor — exactly what the first segment
        // of the previous log there says of itself. The punch is what
        // keeps it out.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut old = builder(0, 1);
        old.push_extent(&[1u8; 512]);
        old.push_record(&sample_record(1));
        let off = layout.segment_offset(0);
        seal_and_write(&device, &layout, &mut old);
        assert!(read_segment(&device, &layout, SegmentId::new(0))
            .unwrap()
            .is_some());
        device.write_at(off, &HEADER_PUNCH).unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
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
