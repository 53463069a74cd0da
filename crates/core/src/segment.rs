//! In-memory segment construction and on-disk segment encoding.
//!
//! A segment is filled in main memory and written to disk in a single
//! device write (§2 of the paper). Its first block is a header; data
//! blocks follow; the segment summary (encoded [`Record`]s) sits after
//! the last data block:
//!
//! ```text
//! +--------+---------+---------+-----+----------------+
//! | header | data[0] | data[1] | ... | summary records|
//! +--------+---------+---------+-----+----------------+
//! ```
//!
//! The 44-byte header (format version 3) threads the segments into one
//! log, so recovery follows pointers from the checkpoint's
//! [`ChainHead`] instead of probing every slot (docs/RECOVERY.md):
//!
//! ```text
//!  0 magic u64         24 summary_crc u32
//!  8 seq u64           28 next_slot u32   slot of segment seq+1
//! 16 n_blocks u32      32 prev_link u32   header CRC of segment seq-1
//! 20 summary_len u32   36 epoch u32       per-mount salt
//!                      40 header_crc u32  over bytes 0..40
//! ```
//!
//! `next_slot` is chosen at seal time ([`NO_SLOT`] if nothing was
//! free). `prev_link` makes the pointers a hash chain: a CRC-valid
//! header with the right sequence number, left by a timeline recovery
//! has since abandoned, does not link and ends the walk — also when
//! both timelines logged the same operations, because `epoch` differs
//! per mount. The summary CRC exposes a torn segment write, which
//! recovery treats as never written.

use crate::error::{LldError, Result};
use crate::layout::Layout;
use crate::summary::Record;
use crate::types::SegmentId;
use ld_disk::{crc32, BlockDevice};

const SEGMENT_MAGIC: u64 = 0x4C44_5345_4739_3936; // "LDSEG996"
pub(crate) const HEADER_LEN: usize = 44;
/// Written over the start of a header to invalidate it (a zero magic
/// never validates); as long as the unchained header was, so format
/// and punch write what they always wrote.
pub(crate) const HEADER_PUNCH: [u8; 32] = [0; 32];
/// `next_slot` of a segment sealed while no slot was free: its
/// successor is found by probing every slot.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Where the log continues: the slot the next segment is (or will be)
/// written to, and the header CRC of the segment before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainHead {
    pub(crate) slot: u32,
    pub(crate) link: u32,
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

/// The link a successor stores for the segment sealed under `header`.
pub(crate) fn header_link(header: &[u8; HEADER_LEN]) -> u32 {
    u32_at(header, HEADER_LEN - 4)
}

/// A segment being filled in memory.
#[derive(Debug)]
pub(crate) struct SegmentBuilder {
    slot: SegmentId,
    seq: u64,
    prev_link: u32,
    epoch: u32,
    block_size: usize,
    capacity: usize,
    data: Vec<u8>,
    summary: Vec<u8>,
}

impl SegmentBuilder {
    /// Starts an empty segment in physical slot `slot` with log sequence
    /// number `seq`, after the segment whose header CRC is `prev_link`.
    pub(crate) fn new(
        slot: SegmentId,
        seq: u64,
        prev_link: u32,
        epoch: u32,
        block_size: usize,
        capacity: usize,
    ) -> Self {
        SegmentBuilder {
            slot,
            seq,
            prev_link,
            epoch,
            block_size,
            capacity,
            data: Vec::new(),
            summary: Vec::new(),
        }
    }

    pub(crate) fn slot(&self) -> SegmentId {
        self.slot
    }

    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    pub(crate) fn n_blocks(&self) -> u32 {
        (self.data.len() / self.block_size) as u32
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty() && self.summary.is_empty()
    }

    /// Whether `extra_blocks` data blocks plus `extra_summary` summary
    /// bytes still fit.
    pub(crate) fn fits(&self, extra_blocks: usize, extra_summary: usize) -> bool {
        let used = self.block_size // header block
            + self.data.len()
            + extra_blocks * self.block_size
            + self.summary.len()
            + extra_summary;
        used <= self.capacity
    }

    /// Appends one data block and returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block or the block does not
    /// fit; callers check [`fits`](Self::fits) first.
    pub(crate) fn push_block(&mut self, data: &[u8]) -> u32 {
        assert_eq!(data.len(), self.block_size, "data must be one block");
        assert!(self.fits(1, 0), "segment overflow");
        let idx = self.n_blocks();
        self.data.extend_from_slice(data);
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

    /// Reads back a data block already placed in this (unsealed)
    /// segment.
    pub(crate) fn read_block(&self, slot: u32) -> &[u8] {
        let start = slot as usize * self.block_size;
        &self.data[start..start + self.block_size]
    }

    /// Encodes the sealed-segment header alone, pointing at `next_slot`.
    /// A slot holds a valid segment exactly when these bytes (with their
    /// CRC) are on disk, which is what lets a streaming writer place
    /// data blocks and summary first and commit the segment with the
    /// header *last*.
    pub(crate) fn header_bytes(&self, next_slot: u32) -> [u8; HEADER_LEN] {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
        header.extend_from_slice(&self.seq.to_le_bytes());
        header.extend_from_slice(&self.n_blocks().to_le_bytes());
        header.extend_from_slice(&(self.summary.len() as u32).to_le_bytes());
        header.extend_from_slice(&crc32(&self.summary).to_le_bytes());
        header.extend_from_slice(&next_slot.to_le_bytes());
        header.extend_from_slice(&self.prev_link.to_le_bytes());
        header.extend_from_slice(&self.epoch.to_le_bytes());
        let header_crc = crc32(&header);
        header.extend_from_slice(&header_crc.to_le_bytes());
        header.try_into().expect("header is HEADER_LEN bytes")
    }

    /// The encoded summary records accumulated so far. On disk they sit
    /// immediately after the last data block.
    pub(crate) fn summary_bytes(&self) -> &[u8] {
        &self.summary
    }

    /// Total on-media size of the sealed segment: header block + data
    /// blocks + summary.
    pub(crate) fn encoded_len(&self) -> usize {
        self.block_size + self.data.len() + self.summary.len()
    }

    /// Encodes the segment under `header` for a single device write.
    /// Returns the bytes to write at the segment's offset.
    pub(crate) fn seal(&self, header: &[u8; HEADER_LEN]) -> Vec<u8> {
        let mut buf = vec![0u8; self.encoded_len()];
        buf[..HEADER_LEN].copy_from_slice(header);
        buf[self.block_size..self.block_size + self.data.len()].copy_from_slice(&self.data);
        buf[self.block_size + self.data.len()..].copy_from_slice(&self.summary);
        buf
    }
}

/// A sealed segment's header as read back from disk, CRC and magic
/// already verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    pub(crate) seq: u64,
    n_blocks: u32,
    summary_len: u32,
    summary_crc: u32,
    /// Header CRC of segment `seq - 1`.
    pub(crate) prev_link: u32,
    /// Where the log goes on: `next_slot` ([`NO_SLOT`]: nowhere was
    /// free) and this header's own CRC.
    pub(crate) next: ChainHead,
}

/// Probes the header in physical slot `slot`. `None`: no sealed segment
/// — the header never landed, was punched, or is stale garbage.
pub(crate) fn read_header<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    slot: SegmentId,
) -> Result<Option<SegmentHeader>> {
    let mut header = [0u8; HEADER_LEN];
    device.read_at(layout.segment_offset(slot.get()), &mut header)?;
    let link = header_link(&header);
    if crc32(&header[..HEADER_LEN - 4]) != link
        || u64::from_le_bytes(header[0..8].try_into().expect("8 bytes")) != SEGMENT_MAGIC
    {
        return Ok(None);
    }
    Ok(Some(SegmentHeader {
        seq: u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")),
        n_blocks: u32_at(&header, 16),
        summary_len: u32_at(&header, 20),
        summary_crc: u32_at(&header, 24),
        prev_link: u32_at(&header, 32),
        next: ChainHead {
            slot: u32_at(&header, 28),
            link,
        },
    }))
}

/// Reads and decodes the summary `header` vouches for. `None`: the
/// summary fails its checksum — a segment write torn by a crash,
/// treated as never written but reported separately.
pub(crate) fn read_summary<D: BlockDevice>(
    device: &D,
    layout: &Layout,
    slot: SegmentId,
    header: &SegmentHeader,
) -> Result<Option<Vec<Record>>> {
    let data_bytes = (1 + header.n_blocks as usize) * layout.block_size;
    let summary_len = header.summary_len as usize;
    if data_bytes + summary_len > layout.segment_bytes {
        return Ok(None);
    }
    let mut summary = vec![0u8; summary_len];
    device.read_at(
        layout.segment_offset(slot.get()) + data_bytes as u64,
        &mut summary,
    )?;
    if crc32(&summary) != header.summary_crc {
        return Ok(None);
    }
    let seq = header.seq;
    Record::decode_all(&summary).map(Some).map_err(|e| match e {
        LldError::Corrupt(msg) => LldError::Corrupt(format!("segment {slot} seq {seq}: {msg}")),
        other => other,
    })
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

    fn builder(slot: u32, seq: u64) -> SegmentBuilder {
        SegmentBuilder::new(SegmentId::new(slot), seq, 0, 7, 512, 8 * 512)
    }

    fn sealed(b: &SegmentBuilder) -> Vec<u8> {
        b.seal(&b.header_bytes(NO_SLOT))
    }

    /// Sequence number and records of the segment in `slot`, if its
    /// header and summary both verify.
    fn read_segment(
        device: &MemDisk,
        layout: &Layout,
        slot: SegmentId,
    ) -> Result<Option<(u64, Vec<Record>)>> {
        let Some(h) = read_header(device, layout, slot)? else {
            return Ok(None);
        };
        Ok(read_summary(device, layout, slot, &h)?.map(|records| (h.seq, records)))
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
    }

    #[test]
    fn push_and_read_back() {
        let mut b = builder(2, 9);
        let block = vec![0xABu8; 512];
        let idx = b.push_block(&block);
        assert_eq!(idx, 0);
        assert_eq!(b.push_block(&vec![0xCDu8; 512]), 1);
        assert_eq!(b.read_block(0), &block[..]);
        assert_eq!(b.read_block(1)[0], 0xCD);
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
        let bytes = sealed(&b);
        device.write_at(layout.segment_offset(1), &bytes).unwrap();

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
    fn torn_summary_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(0, 7);
        b.push_block(&vec![1u8; 512]);
        b.push_record(&sample_record(1));
        let bytes = sealed(&b);
        // Simulate a torn write: the tail of the summary never lands and
        // the medium holds stale bytes there instead.
        device
            .write_at(layout.segment_offset(0), &vec![0xEEu8; 8 * 512])
            .unwrap();
        device
            .write_at(layout.segment_offset(0), &bytes[..bytes.len() - 9])
            .unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
            None
        );
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let b = builder(0, 7);
        let mut bytes = sealed(&b);
        bytes[9] ^= 0x10; // flip a bit in seq
        device.write_at(layout.segment_offset(0), &bytes).unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
            None
        );
    }

    #[test]
    fn streamed_writes_equal_single_seal_write() {
        // The pipelined path streams data blocks first, then the
        // summary, then the header last — in separate writes. The
        // resulting image must scan identically to the single-write
        // seal, and every prefix of that write order must scan as "no
        // segment" (all-or-nothing without a big atomic write).
        let layout = layout();
        let mut b = builder(1, 42);
        b.push_block(&vec![7u8; 512]);
        b.push_block(&vec![9u8; 512]);
        b.push_record(&sample_record(1));
        let off = layout.segment_offset(1);

        let streamed = MemDisk::new(1 << 20);
        let id = SegmentId::new(1);
        // Prefix 0: nothing written yet.
        assert_eq!(read_segment(&streamed, &layout, id).unwrap(), None);
        for (i, block) in [&b.data[..512], &b.data[512..]].into_iter().enumerate() {
            streamed
                .write_at(off + (1 + i as u64) * 512, block)
                .unwrap();
            assert_eq!(read_segment(&streamed, &layout, id).unwrap(), None);
        }
        streamed.write_at(off + 3 * 512, b.summary_bytes()).unwrap();
        assert_eq!(read_segment(&streamed, &layout, id).unwrap(), None);
        streamed.write_at(off, &b.header_bytes(NO_SLOT)).unwrap();

        let single = MemDisk::new(1 << 20);
        single.write_at(off, &sealed(&b)).unwrap();
        assert_eq!(
            read_segment(&streamed, &layout, id).unwrap(),
            read_segment(&single, &layout, id).unwrap()
        );
        assert!(read_segment(&streamed, &layout, id).unwrap().is_some());
    }

    #[test]
    fn punched_header_kills_a_stale_segment() {
        // Reusing a slot for streaming: the old sealed segment's header
        // must be invalidated before new data lands, or a crash
        // mid-stream would resurrect the old segment over new bytes.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut old = builder(0, 3);
        old.push_block(&vec![1u8; 512]);
        old.push_record(&sample_record(1));
        let off = layout.segment_offset(0);
        device.write_at(off, &sealed(&old)).unwrap();
        assert!(read_segment(&device, &layout, SegmentId::new(0))
            .unwrap()
            .is_some());
        // Punch, then stream one new data block and crash.
        device.write_at(off, &HEADER_PUNCH).unwrap();
        device.write_at(off + 512, &vec![0xFFu8; 512]).unwrap();
        assert_eq!(
            read_segment(&device, &layout, SegmentId::new(0)).unwrap(),
            None,
            "stale header must not validate over mixed data"
        );
    }

    #[test]
    fn data_block_offsets_match_layout() {
        // Block slot i of the builder must land where
        // Layout::block_offset says it is.
        let layout = layout();
        let device = MemDisk::new(1 << 20);
        let mut b = builder(3, 1);
        b.push_block(&vec![0x11u8; 512]);
        b.push_block(&vec![0x22u8; 512]);
        device
            .write_at(layout.segment_offset(3), &sealed(&b))
            .unwrap();
        let addr = crate::types::PhysAddr {
            segment: SegmentId::new(3),
            slot: 1,
        };
        let mut buf = [0u8; 512];
        device.read_at(layout.block_offset(addr), &mut buf).unwrap();
        assert_eq!(buf[0], 0x22);
    }
}
