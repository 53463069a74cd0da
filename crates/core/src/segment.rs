//! In-memory segment construction and on-disk segment encoding.
//!
//! A segment is filled in main memory and written to disk in two device
//! writes, the header and then the body (§2 of the paper has one). Its
//! first block is a header; data blocks follow; the segment summary
//! (encoded [`Record`]s) sits after the last data block:
//!
//! ```text
//! +--------+---------+---------+-----+----------------+
//! | header | data[0] | data[1] | ... | summary records|
//! +--------+---------+---------+-----+----------------+
//! ```
//!
//! Until the seal nothing of the segment is on the device, and the
//! buffer is not append-only: a write to a block whose last version is
//! still in it takes that version's slot
//! ([`SegmentBuilder::rewrite_block`]; the rule is docs/INVARIANTS.md
//! I5) and only the summary grows.
//!
//! A flush seals whatever the segment holds, so a segment may be far
//! smaller than its slot. The next one then starts in the same slot, at
//! the block after the summary (its *base*); only a slot with fewer than
//! [`MIN_SEGMENT_BLOCKS`] blocks left hands on to a fresh one:
//!
//! ```text
//! slot: | hdr | data.. | summary | hdr | data.. | summary | .. unused |
//!         ^ base 0                 ^ base = 1 + n_blocks + ⌈summary / block⌉
//! ```
//!
//! The 44-byte header threads the segments into one log, so recovery
//! follows pointers from the checkpoint's [`ChainHead`] instead of
//! probing every slot (docs/RECOVERY.md):
//!
//! ```text
//!  0 magic u64         24 summary_crc u32
//!  8 seq u64           28 next_slot u32   slot of segment seq+1
//! 16 n_blocks u32      32 prev_link u32   header CRC of segment seq-1
//! 20 summary_len u32   36 epoch u32       per-mount salt
//!                      40 header_crc u32  over bytes 0..40
//! ```
//!
//! `next_slot` is chosen at seal time. The segment's own slot means
//! "right behind my summary": the successor's base follows from
//! `n_blocks` and `summary_len`, so no field can aim the walk at an
//! arbitrary block. Another slot means its block 0, and [`NO_SLOT`] that
//! nothing was free. `prev_link` makes the pointers a hash chain: a
//! CRC-valid header with the right sequence number, left where the walk
//! looks by an earlier use of the slot or by a timeline recovery has
//! since abandoned, does not link and ends the walk — also when both
//! timelines logged the same operations, because `epoch` differs per
//! mount. The summary CRC exposes a torn segment write, which recovery
//! treats as never written.
//!
//! The header keeps its whole block in the slot, but only its 44 bytes
//! are written: the rest of the block holds whatever it held, and no
//! reader looks there. The header goes first and the body (data blocks,
//! then summary) from the next block, so a prefix of the two writes is
//! a prefix of the segment; docs/RECOVERY.md has the argument for any
//! subset of them.

use crate::error::{LldError, Result};
use crate::layout::{u32_at, u64_at, Layout};
use crate::summary::Record;
use crate::types::SegmentId;
use ld_disk::{crc32, BlockDevice};

const SEGMENT_MAGIC: u64 = 0x4C44_5345_4739_3936; // "LDSEG996"
pub(crate) const HEADER_LEN: usize = 44;
/// Written over the start of a header to invalidate it (a zero magic
/// never validates). Format punches block 0 of every slot, where the
/// log of a fresh disk starts.
pub(crate) const HEADER_PUNCH: [u8; 32] = [0; 32];
/// `next_slot` of a segment sealed while no slot was free: its
/// successor is found by probing block 0 of every slot.
pub(crate) const NO_SLOT: u32 = u32::MAX;
/// The fewest blocks a segment takes: header, one data block, one block
/// of summary. A seal that leaves fewer closes the slot.
const MIN_SEGMENT_BLOCKS: u32 = 3;

/// Whether a segment may start at block `base` of a slot of
/// `blocks_per_slot` blocks: a writer starts one only where
/// [`MIN_SEGMENT_BLOCKS`] are left, and a reader accepts a pointer or a
/// checkpointed head nowhere else.
pub(crate) fn valid_base(blocks_per_slot: u32, base: u32) -> bool {
    base.checked_add(MIN_SEGMENT_BLOCKS)
        .is_some_and(|end| end <= blocks_per_slot)
}

/// Where the log continues: the slot and block the next segment's
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
    /// Block of the slot this segment's header goes to.
    base: u32,
    seq: u64,
    prev_link: u32,
    epoch: u32,
    block_size: usize,
    /// Size of the whole slot in bytes.
    capacity: usize,
    /// Zero until [`header_bytes`](Self::header_bytes) seals the segment.
    header: [u8; HEADER_LEN],
    /// As it goes to the device behind the header block: the data
    /// blocks and, once sealed, the summary.
    body: Vec<u8>,
    n_blocks: u32,
    /// The records so far; the seal moves them behind the data.
    summary: Vec<u8>,
}

impl SegmentBuilder {
    /// Starts an empty segment at block `base` of physical slot `slot`
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
            n_blocks: 0,
            summary: Vec::new(),
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

    pub(crate) fn is_empty(&self) -> bool {
        self.body.is_empty() && self.summary.is_empty()
    }

    /// Whether `extra_blocks` data blocks plus `extra_summary` summary
    /// bytes still fit between this segment's base and the slot's end.
    pub(crate) fn fits(&self, extra_blocks: usize, extra_summary: usize) -> bool {
        let used = self.base as usize * self.block_size
            + self.encoded_len()
            + extra_blocks * self.block_size
            + extra_summary;
        used <= self.capacity
    }

    /// Appends one data block and returns its index in the slot (the
    /// `slot` of its [`PhysAddr`](crate::types::PhysAddr)).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block or the block does not
    /// fit; callers check [`fits`](Self::fits) first.
    pub(crate) fn push_block(&mut self, data: &[u8]) -> u32 {
        assert_eq!(data.len(), self.block_size, "data must be one block");
        assert!(self.fits(1, 0), "segment overflow");
        let idx = self.base + self.n_blocks;
        self.body.extend_from_slice(data);
        self.n_blocks += 1;
        idx
    }

    /// Appends one summary record.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit; callers check
    /// [`fits`](Self::fits) first.
    pub(crate) fn push_record(&mut self, rec: &Record) {
        assert!(self.fits(0, rec.encoded_len()), "summary overflow");
        rec.encode(&mut self.summary);
    }

    /// Where in [`body`](Self::body) the data block with index `idx` in
    /// the slot sits, if it is one of this segment's.
    fn block_range(&self, idx: u32) -> Option<std::ops::Range<usize>> {
        let i = idx.checked_sub(self.base).filter(|&i| i < self.n_blocks)?;
        let start = i as usize * self.block_size;
        Some(start..start + self.block_size)
    }

    /// Replaces the data of a block placed in this segment, while it is
    /// still open: nothing of it has been handed to the device, so the
    /// version it held never existed there. Whether the caller may is
    /// docs/INVARIANTS.md I5. `false`: `idx` is not a block of this
    /// segment, and nothing changed.
    pub(crate) fn rewrite_block(&mut self, idx: u32, data: &[u8]) -> bool {
        assert_eq!(data.len(), self.block_size, "data must be one block");
        let Some(at) = self.block_range(idx) else {
            return false;
        };
        self.body[at].copy_from_slice(data);
        true
    }

    /// Reads back a data block placed in this segment (open or sealed),
    /// by its index in the slot. `None`: the index belongs to another
    /// segment of the slot, or to nothing yet.
    pub(crate) fn read_block(&self, idx: u32) -> Option<&[u8]> {
        self.block_range(idx).map(|at| &self.body[at])
    }

    /// The block of the slot right behind this segment as it stands:
    /// header, data blocks, summary rounded up to a block.
    fn end(&self) -> u32 {
        self.base + (self.encoded_len().div_ceil(self.block_size)) as u32
    }

    /// The base of a successor in the same slot, if a seal now leaves
    /// room for one.
    pub(crate) fn successor_base(&self) -> Option<u32> {
        let end = self.end();
        valid_base((self.capacity / self.block_size) as u32, end).then_some(end)
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
        header[16..20].copy_from_slice(&self.n_blocks.to_le_bytes());
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
    /// immediately after the last data block.
    pub(crate) fn summary_bytes(&self) -> &[u8] {
        &self.body[self.n_blocks as usize * self.block_size..]
    }

    /// Total on-media size of the segment as it stands: header block +
    /// data blocks + summary.
    pub(crate) fn encoded_len(&self) -> usize {
        self.block_size + self.body.len() + self.summary.len()
    }

    /// The sealed segment's header, the first write, at its base.
    pub(crate) fn header(&self) -> &[u8; HEADER_LEN] {
        &self.header
    }

    /// The sealed segment's data blocks and summary, the second write,
    /// one block behind its base.
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
    n_blocks: u32,
    summary_len: u32,
    summary_crc: u32,
    /// Header CRC of segment `seq - 1`.
    pub(crate) prev_link: u32,
    /// Where the log goes on — behind this segment's summary, at block
    /// 0 of another slot, or at [`NO_SLOT`] — and this header's own
    /// CRC.
    pub(crate) next: ChainHead,
}

impl SegmentHeader {
    /// The slot indices of its data blocks, the only ones its `Write`
    /// records name ([`SegmentBuilder::push_block`]). [`parse_header`]
    /// checked that they end inside the slot.
    pub(crate) fn data_blocks(&self) -> std::ops::Range<u32> {
        self.base..self.base + self.n_blocks
    }

    pub(crate) fn summary_len(&self) -> u32 {
        self.summary_len
    }
}

/// Validates the header bytes found at block `base` of `slot`. `None`:
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
    let (n_blocks, summary_len) = (u32_at(header, 16), u32_at(header, 20));
    let summary_blocks = u64::from(summary_len).div_ceil(layout.block_size as u64);
    let end = u64::from(base) + 1 + u64::from(n_blocks) + summary_blocks;
    let blocks_per_slot = layout.blocks_per_slot();
    if end > u64::from(blocks_per_slot) {
        return None;
    }
    let end = end as u32; // at most `blocks_per_slot`
    let next_slot = u32_at(header, 28);
    let next_base = if next_slot == slot.get() {
        if !valid_base(blocks_per_slot, end) {
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
        n_blocks,
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

/// Probes the header at block `base` of physical slot `slot` (see
/// [`parse_header`]).
pub(crate) fn read_header<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    slot: SegmentId,
    base: u32,
) -> Result<Option<SegmentHeader>> {
    let mut header = [0u8; HEADER_LEN];
    device.read_at(layout.block_at(slot.get(), base), &mut header)?;
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
    let start = header.base + 1 + header.n_blocks;
    let adjacent = header.next.slot == slot.get();
    let mut buf = if adjacent {
        // `parse_header` checked that this ends inside the slot.
        vec![0u8; (header.next.base - start) as usize * layout.block_size + HEADER_LEN]
    } else {
        vec![0u8; summary_len]
    };
    device.read_at(layout.block_at(slot.get(), start), &mut buf)?;
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
    use crate::types::{BlockId, Timestamp};
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
    /// at its base, then the body from the block behind it.
    fn write_seal(device: &MemDisk, layout: &Layout, b: &SegmentBuilder) {
        let at = layout.block_at(b.slot().get(), b.base());
        device.write_at(at, b.header()).unwrap();
        device
            .write_at(at + layout.block_size as u64, b.body())
            .unwrap();
    }

    /// Seals `b` with no successor and writes it.
    fn seal_and_write(device: &MemDisk, layout: &Layout, b: &mut SegmentBuilder) {
        b.header_bytes(NO_SLOT);
        write_seal(device, layout, b);
    }

    /// Sequence number and records of the segment at block `base` of
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

    #[test]
    fn builder_tracks_capacity() {
        let b = builder(0, 1);
        assert!(b.is_empty());
        // Header takes one block, so 7 data blocks fit with no summary.
        assert!(b.fits(7, 0));
        assert!(!b.fits(7, 1));
        assert!(!b.fits(8, 0));
        // From block 3 on, the header and 4 more blocks are left.
        let b = builder_at(0, 3, 2);
        assert!(b.fits(4, 0));
        assert!(!b.fits(4, 1));
    }

    #[test]
    fn push_and_read_back() {
        let mut b = builder(2, 9);
        let block = vec![0xABu8; 512];
        let idx = b.push_block(&block);
        assert_eq!(idx, 0);
        assert_eq!(b.push_block(&vec![0xCDu8; 512]), 1);
        assert_eq!(b.read_block(0), Some(&block[..]));
        assert_eq!(b.read_block(1).unwrap()[0], 0xCD);
        assert_eq!(b.read_block(2), None);
        // A rewrite takes the slot; the segment grows by nothing.
        assert!(b.rewrite_block(0, &vec![0xEFu8; 512]));
        assert!(!b.rewrite_block(2, &block), "not this segment's");
        assert_eq!(b.read_block(0).unwrap()[0], 0xEF);
        assert_eq!(b.read_block(1).unwrap()[0], 0xCD);
        b.push_record(&sample_record(1));
        assert_eq!(b.n_blocks(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn seal_and_read_round_trip() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(1, 42);
        b.push_block(&vec![7u8; 512]);
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
        assert_eq!(first.push_block(&vec![1u8; 512]), 0);
        first.push_record(&sample_record(1));
        // Header, one data block, one block of summary: three blocks.
        assert_eq!(first.successor_base(), Some(3));
        let h1 = first.header_bytes(2);
        write_seal(&device, &layout, &first);

        let mut second = SegmentBuilder::new(slot, 3, 6, header_link(&h1), 7, 512, 8 * 512);
        // Addresses count from the slot's start, so `Layout::block_offset`
        // finds the block without knowing which segment holds it.
        assert_eq!(second.push_block(&vec![2u8; 512]), 3);
        assert_eq!(second.push_block(&vec![3u8; 512]), 4);
        assert_eq!(second.read_block(4).unwrap()[0], 3);
        assert_eq!(second.read_block(0), None, "the first segment's block");
        second.push_record(&sample_record(2));
        // It ends at block 7 of 8: the slot is closed.
        assert_eq!(second.successor_base(), None);
        seal_and_write(&device, &layout, &mut second);
        let addr = crate::types::PhysAddr {
            segment: slot,
            slot: 4,
        };
        let mut buf = [0u8; 512];
        device.read_at(layout.block_offset(addr), &mut buf).unwrap();
        assert_eq!(buf[0], 3);

        // The first summary's read brings the second header with it.
        let h = read_header(&device, &layout, slot, 0).unwrap().unwrap();
        assert_eq!((h.next.slot, h.next.base), (2, 3));
        let read = read_summary(&device, &layout, &h).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(1)]);
        let h2 = parse_header(&read.successor.expect("adjacent"), &layout, slot, 3).unwrap();
        assert_eq!((h2.seq, h2.prev_link), (6, h.next.link));
        assert_eq!(h2.next.slot, NO_SLOT);
        let read = read_summary(&device, &layout, &h2).unwrap().unwrap();
        assert_eq!(read.records, vec![sample_record(2)]);
        assert_eq!(read.successor, None, "the log goes on elsewhere");
    }

    #[test]
    fn header_that_overruns_its_slot_is_no_segment() {
        // Positions past block 0 used to hold user data, so a CRC-valid
        // header may sit anywhere; one whose segment (or whose in-slot
        // successor) would not fit behind it is not a segment.
        let layout = layout();
        let slot = SegmentId::new(1);
        let mut b = builder_at(1, 4, 9);
        b.push_block(&vec![1u8; 512]);
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
        b.push_block(&vec![1u8; 512]);
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
        // Format starts a new log at block 0 of slot 0 with sequence
        // number 1 and no predecessor — exactly what the first segment
        // of the previous log there says of itself. The punch is what
        // keeps it out.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut old = builder(0, 1);
        old.push_block(&vec![1u8; 512]);
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
        // Block index i of the builder must land where
        // Layout::block_offset says it is.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(3, 1);
        b.push_block(&vec![0x11u8; 512]);
        b.push_block(&vec![0x22u8; 512]);
        seal_and_write(&device, &layout, &mut b);
        let addr = crate::types::PhysAddr {
            segment: SegmentId::new(3),
            slot: 1,
        };
        let mut buf = [0u8; 512];
        device.read_at(layout.block_offset(addr), &mut buf).unwrap();
        assert_eq!(buf[0], 0x22);
    }
}
