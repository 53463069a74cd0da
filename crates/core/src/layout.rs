//! On-disk geometry: the superblock and the derived device layout.
//!
//! ```text
//! byte 0                                                    capacity
//! +--------------------+----------+----------+--------------------+
//! | sb | hdr A | hdr B | ckpt A   | ckpt B   | segment 0 | seg 1 |..|
//! +--------------------+----------+----------+--------------------+
//! ```
//!
//! The superblock records everything needed to reopen the disk without
//! external configuration. It shares its region — three sectors, rounded
//! up to a whole block — with the headers of the two checkpoint areas,
//! one a sector, so a restart reads all three in one read. Two
//! checkpoint areas alternate so that a crash during checkpointing
//! always leaves one valid checkpoint (or none, in which case recovery
//! scans the whole log as in the paper).

use crate::config::{ConcurrencyMode, LldConfig, ReadVisibility};
use crate::error::{LldError, Result};
use crate::segment::{MAX_BLOCK_SIZE, SECTOR};
use crate::types::PhysAddr;
use ld_disk::crc32;

/// Size of the fixed-length superblock encoding.
pub(crate) const SUPERBLOCK_LEN: usize = 64;
const SUPERBLOCK_MAGIC: u64 = 0x4C44_4152_5539_3936; // "LDARU996"
/// 11: a segment's header and summary sit at the back of its slot, in a
/// metadata run that grows down from the slot's last sector while data
/// grows up from its first, the data area ends in a trailer holding the
/// header's CRC, a header records the last segment a barrier vouched
/// for, and the checkpoint's chain head names the run's position beside
/// the data base (see `segment.rs`); since 10 both checkpoint headers
/// sit next to the superblock, each in its own sector and naming its
/// body's length, the write-id outcomes are
/// the slab codec's third table, and an absent identifier codes as 0
/// (see `checkpoint.rs`); since 9 a segment-summary record is its tag byte and its fields as
/// unsigned LEB128 varints (see `summary.rs`); since 8 a checkpoint
/// slab stores its rows sorted by identifier, each column as the zigzag
/// of its difference from a predictor, bit-packed at the column's width
/// in bits (see `checkpoint.rs`); since 7 a segment's
/// base counts sectors, not blocks — its header takes one sector and its
/// body starts at the next, and the checkpoint's chain head names a
/// sector inside a slot (see `segment.rs`); since 6 a data block is
/// stored as its extent and a segment's data area is packed by sectors,
/// so an address names a sector offset and count, and a slab has a
/// sector-count column and a shift per column; since 5 checkpoint slabs
/// are column-packed; since 4 a slot holds several segments back to
/// back. Other versions are refused, not converted.
const FORMAT_VERSION: u32 = 11;

/// The widest a row of a checkpoint slab gets (see `checkpoint.rs`):
/// every column of a block or of a list at its full width. What the
/// area is sized by; a slab's rows are as wide as its values need.
pub(crate) const CKPT_BLOCK_ROW_MAX: u64 = 40;
pub(crate) const CKPT_LIST_ROW_MAX: u64 = 32;
/// The widest a write-id outcome gets in the dedup table: four columns
/// of 64 bits, row 0's absolute values included.
pub(crate) const CKPT_DEDUP_ROW_MAX: u64 = 32;
/// A checkpoint header's length. It sits alone in its sector of the
/// superblock's region ([`CKPT_HEADER_AT`]).
pub(crate) const CKPT_HEADER: u64 = 80;

/// A field of a segment header (see `segment.rs`), in the order of
/// [`SEGMENT_HEADER`], its declaration. The codec reads and writes every
/// field through it, and so do the tests that forge a header inside an
/// image.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegField {
    /// [`SEGMENT_MAGIC`].
    Magic,
    /// The segment's log sequence number.
    Seq,
    /// Sectors of its data area.
    NSectors,
    /// Bytes of its summary records.
    SummaryLen,
    /// CRC of its summary records.
    SummaryCrc,
    /// The slot of segment `seq + 1`.
    NextSlot,
    /// Header CRC of segment `seq - 1`.
    PrevLink,
    /// Per-mount salt.
    Epoch,
    /// `seq` less the last segment a completed barrier vouched for when
    /// this one was sealed (at least 1; `u32::MAX`: none).
    Covered,
    /// CRC over every field in front of it.
    Crc,
}

/// The segment header, declared once: each field's name, byte offset
/// and width, back to back in [`SegField`] order.
#[doc(hidden)]
pub const SEGMENT_HEADER: [(SegField, &str, usize, usize); 10] = [
    (SegField::Magic, "magic", 0, 4),
    (SegField::Seq, "seq", 4, 8),
    (SegField::NSectors, "n_sectors", 12, 4),
    (SegField::SummaryLen, "summary_len", 16, 4),
    (SegField::SummaryCrc, "summary_crc", 20, 4),
    (SegField::NextSlot, "next_slot", 24, 4),
    (SegField::PrevLink, "prev_link", 28, 4),
    (SegField::Epoch, "epoch", 32, 4),
    (SegField::Covered, "covered", 36, 4),
    (SegField::Crc, "header_crc", 40, 4),
];

/// A segment header's length: its last field's end.
#[doc(hidden)]
pub const SEGMENT_HEADER_LEN: usize = SegField::Crc.at() + SegField::Crc.width();

/// What a segment header's first field holds ("LDSG").
#[doc(hidden)]
pub const SEGMENT_MAGIC: u64 = 0x4753_444C;

// The table is in `SegField` order, and its fields are back to back.
const _: () = {
    let mut i = 0;
    let mut end = 0;
    while i < SEGMENT_HEADER.len() {
        let (field, _, at, width) = SEGMENT_HEADER[i];
        assert!(field as usize == i && at == end && (width == 4 || width == 8));
        end = at + width;
        i += 1;
    }
};

impl SegField {
    /// The field's byte offset in the header.
    pub const fn at(self) -> usize {
        SEGMENT_HEADER[self as usize].2
    }

    /// The field's width in bytes: 4 or 8.
    pub const fn width(self) -> usize {
        SEGMENT_HEADER[self as usize].3
    }

    /// The field's value in `header`, little-endian.
    pub fn get(self, header: &[u8]) -> u64 {
        match self.width() {
            8 => u64_at(header, self.at()),
            _ => u64::from(u32_at(header, self.at())),
        }
    }

    /// Puts `v`, cut to the field's width, into `header`.
    pub fn put(self, header: &mut [u8], v: u64) {
        let (at, width) = (self.at(), self.width());
        header[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
    }
}
/// Where the headers of areas A and B are: sectors 1 and 2 of the
/// superblock's region. Exported for the tests that edit a header
/// inside an image.
#[doc(hidden)]
pub const CKPT_HEADER_AT: [u64; 2] = [SECTOR as u64, 2 * SECTOR as u64];
/// The superblock and both checkpoint headers: what a restart reads
/// first, in one device read.
pub(crate) const FRONT_LEN: usize = 3 * SECTOR;
/// One column descriptor of a checkpoint table: the minimum (u64 at 0),
/// the width in bits (u8 at [`CKPT_COL_WIDTH`], 0..=64) and the shift
/// (u8 at [`CKPT_COL_SHIFT`], 0..=63). Exported for the tests that edit
/// a slab inside an image.
#[doc(hidden)]
pub const CKPT_COL_DESC: usize = 10;
/// Where a column descriptor holds its width in bits.
#[doc(hidden)]
pub const CKPT_COL_WIDTH: usize = 8;
/// Where a column descriptor holds its shift.
#[doc(hidden)]
pub const CKPT_COL_SHIFT: usize = 9;
/// The column descriptors at the start of every slab, one for each of
/// the seven block and four list columns.
pub(crate) const CKPT_SLAB_DESC: u64 = 11 * CKPT_COL_DESC as u64;
/// The column descriptors at the start of the dedup table, one for each
/// of its four columns.
pub(crate) const CKPT_DEDUP_DESC: u64 = 4 * CKPT_COL_DESC as u64;

/// Per-slab directory entry: `n_blocks` u64, `n_lists` u64, slab crc32,
/// slab length u32.
pub(crate) const CKPT_DIR_ENTRY: u64 = 24;
/// Slab-count ceiling a checkpoint area can describe (one slab per map
/// shard; shard counts are capped at `MAX_MAP_SHARDS = 64`). The
/// directory space is reserved for the ceiling so the area size does
/// not depend on the runtime shard knob.
pub(crate) const MAX_SNAP_SHARDS: u64 = 64;
/// Bytes reserved for the slab directory in every checkpoint area.
pub(crate) const CKPT_DIR_RESERVE: u64 = MAX_SNAP_SHARDS * CKPT_DIR_ENTRY;

/// The physical layout of a formatted device, derived from its capacity
/// and the [`LldConfig`] at format time and persisted in the superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Block size in bytes.
    pub block_size: usize,
    /// Size of one segment slot in bytes. A full segment (header sector,
    /// data blocks, summary) takes all of it; segments sealed early by
    /// a flush share it.
    pub segment_bytes: usize,
    /// Number of segment slots.
    pub n_segments: u32,
    /// Byte offset of segment slot 0.
    pub data_start: u64,
    /// Size in bytes of one checkpoint area.
    pub ckpt_area_size: u64,
    /// Byte offset of checkpoint area A.
    pub ckpt_a: u64,
    /// Byte offset of checkpoint area B.
    pub ckpt_b: u64,
    /// Maximum simultaneously allocated blocks (sizes the checkpoint).
    pub max_blocks: u64,
    /// Maximum simultaneously allocated lists (sizes the checkpoint).
    pub max_lists: u64,
}

fn round_up(v: u64, to: u64) -> u64 {
    v.div_ceil(to) * to
}

/// Bytes in front of checkpoint area A: the superblock's region, three
/// sectors rounded up to a whole block (block 0 at 2 KiB and up).
fn front_region(block_size: u64) -> u64 {
    round_up(FRONT_LEN as u64, block_size)
}

// Little-endian field readers for the fixed-layout headers (segment,
// checkpoint). Callers index buffers they sized (or length-checked)
// themselves, so the range is in bounds, and a range of N bytes always
// fills an N-byte array.
pub(crate) fn u32_at(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

pub(crate) fn u64_at(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

impl Layout {
    /// Computes the layout for a device of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Config`] if the device is too small to hold
    /// the superblock, both checkpoint areas, and at least four segments.
    pub fn compute(capacity: u64, config: &LldConfig) -> Result<Layout> {
        config.validate()?;
        let bs = config.block_size as u64;
        let seg = config.segment_bytes as u64;
        let slots_per_seg = u64::from(config.max_slots_per_segment());

        // max_blocks defaults to the number of data slots the device can
        // hold, estimated before checkpoint space is carved out (slightly
        // generous, which is harmless).
        let est_segments = capacity.saturating_sub(bs) / seg;
        let max_blocks = config
            .max_blocks
            .unwrap_or(est_segments * slots_per_seg)
            .max(16);
        let max_lists = config.max_lists.unwrap_or(max_blocks).max(16);

        // Every slab fits whatever its tables hold: a row is never
        // wider than its maximum, and the descriptors of as many slabs as
        // a directory describes come out of the room of the dedup table,
        // which takes what is left (`ckpt_commit`): the write-id cache
        // gives up at most its oldest 220 outcomes before a table entry
        // is left out, and the area is no larger than format 4's unless
        // the cache is smaller than that. The headers live in the
        // superblock's region, not in the area.
        let ckpt_area_size = round_up(
            CKPT_DIR_RESERVE
                + max_blocks * CKPT_BLOCK_ROW_MAX
                + max_lists * CKPT_LIST_ROW_MAX
                + CKPT_DEDUP_DESC
                + (config.dedup_capacity as u64 * CKPT_DEDUP_ROW_MAX)
                    .max(MAX_SNAP_SHARDS * CKPT_SLAB_DESC),
            bs,
        );
        let front = front_region(bs);
        let data_start = front + 2 * ckpt_area_size;
        let n_segments = capacity.saturating_sub(data_start) / seg;
        if n_segments < 4 {
            return Err(LldError::Config(format!(
                "device of {capacity} bytes holds only {n_segments} segments; at least 4 required"
            )));
        }
        Ok(Layout {
            block_size: config.block_size,
            segment_bytes: config.segment_bytes,
            n_segments: u32::try_from(n_segments)
                .map_err(|_| LldError::Config("too many segments".into()))?,
            data_start,
            ckpt_area_size,
            ckpt_a: front,
            ckpt_b: front + ckpt_area_size,
            max_blocks,
            max_lists,
        })
    }

    /// Byte offset of the header of the checkpoint area at `area` (area
    /// A's or B's offset): [`CKPT_HEADER_AT`].
    pub(crate) fn ckpt_header_at(&self, area: u64) -> u64 {
        CKPT_HEADER_AT[usize::from(area != self.ckpt_a)]
    }

    /// Byte offset of segment slot `slot`.
    pub fn segment_offset(&self, slot: u32) -> u64 {
        self.data_start + u64::from(slot) * self.segment_bytes as u64
    }

    /// Byte offset of the extent at `addr` (its sector counts from the
    /// slot's start).
    pub fn block_offset(&self, addr: PhysAddr) -> u64 {
        self.segment_offset(addr.segment.get()) + u64::from(addr.sector) * SECTOR as u64
    }

    /// Blocks in one segment slot, headers and summaries included.
    pub fn blocks_per_slot(&self) -> u32 {
        (self.segment_bytes / self.block_size) as u32
    }

    /// Sectors a full block's extent takes.
    pub fn sectors_per_block(&self) -> u32 {
        (self.block_size / SECTOR) as u32
    }

    /// Sectors in one segment slot.
    pub fn sectors_per_slot(&self) -> u32 {
        (self.segment_bytes / SECTOR) as u32
    }

    /// Sectors of a slot behind its first header: the most live data a
    /// slot holds, and what one output segment of a cleaner pass packs.
    pub fn data_sectors_per_slot(&self) -> u32 {
        self.sectors_per_slot() - self.sectors_per_block()
    }

    /// The most full data blocks one segment slot holds: its header
    /// sector and its summary need room, so one block fewer than it has.
    pub fn slots_per_segment(&self) -> u32 {
        self.blocks_per_slot() - 1
    }

    /// Encodes the superblock (layout plus semantic modes).
    pub fn encode_superblock(
        &self,
        concurrency: ConcurrencyMode,
        visibility: ReadVisibility,
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SUPERBLOCK_LEN);
        buf.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        buf.extend_from_slice(&(self.segment_bytes as u32).to_le_bytes());
        buf.extend_from_slice(&self.n_segments.to_le_bytes());
        buf.extend_from_slice(&self.data_start.to_le_bytes());
        buf.extend_from_slice(&self.ckpt_area_size.to_le_bytes());
        buf.extend_from_slice(&self.max_blocks.to_le_bytes());
        buf.extend_from_slice(&self.max_lists.to_le_bytes());
        buf.push(match concurrency {
            ConcurrencyMode::Sequential => 0,
            ConcurrencyMode::Concurrent => 1,
        });
        buf.push(match visibility {
            ReadVisibility::AnyShadow => 0,
            ReadVisibility::Committed => 1,
            ReadVisibility::OwnShadow => 2,
        });
        buf.extend_from_slice(&[0u8; 2]); // padding
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(buf.len(), SUPERBLOCK_LEN);
        buf
    }

    /// Decodes and validates a superblock.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Corrupt`] on a bad magic, version, checksum
    /// or geometry.
    pub fn decode_superblock(buf: &[u8]) -> Result<(Layout, ConcurrencyMode, ReadVisibility)> {
        if buf.len() < SUPERBLOCK_LEN {
            return Err(LldError::Corrupt("superblock too short".into()));
        }
        let body = &buf[..SUPERBLOCK_LEN - 4];
        let stored_crc = u32::from_le_bytes(
            buf[SUPERBLOCK_LEN - 4..SUPERBLOCK_LEN]
                .try_into()
                .expect("4 bytes"),
        );
        if crc32(body) != stored_crc {
            return Err(LldError::Corrupt("superblock checksum mismatch".into()));
        }
        let mut pos = 0usize;
        let u64f = |p: &mut usize| {
            let v = u64::from_le_bytes(buf[*p..*p + 8].try_into().expect("8 bytes"));
            *p += 8;
            v
        };
        let magic = u64f(&mut pos);
        if magic != SUPERBLOCK_MAGIC {
            return Err(LldError::Corrupt("not a logical-disk superblock".into()));
        }
        let u32f = |p: &mut usize| {
            let v = u32::from_le_bytes(buf[*p..*p + 4].try_into().expect("4 bytes"));
            *p += 4;
            v
        };
        let version = u32f(&mut pos);
        if version != FORMAT_VERSION {
            return Err(LldError::Corrupt(format!(
                "unsupported format version {version}"
            )));
        }
        let block_size = u32f(&mut pos) as usize;
        let segment_bytes = u32f(&mut pos) as usize;
        let n_segments = u32f(&mut pos);
        // What `LldConfig::validate` asks at format time. Everything
        // that places a block or a header inside a slot divides by
        // these.
        if !block_size.is_power_of_two()
            || !(512..=MAX_BLOCK_SIZE).contains(&block_size)
            || !segment_bytes.is_multiple_of(block_size)
            || segment_bytes / block_size < 4
        {
            return Err(LldError::Corrupt(format!(
                "superblock geometry: {segment_bytes}-byte segments of {block_size}-byte blocks"
            )));
        }
        let u64g = |p: &mut usize| {
            let v = u64::from_le_bytes(buf[*p..*p + 8].try_into().expect("8 bytes"));
            *p += 8;
            v
        };
        let data_start = u64g(&mut pos);
        let ckpt_area_size = u64g(&mut pos);
        let max_blocks = u64g(&mut pos);
        let max_lists = u64g(&mut pos);
        let concurrency = match buf[pos] {
            0 => ConcurrencyMode::Sequential,
            1 => ConcurrencyMode::Concurrent,
            other => {
                return Err(LldError::Corrupt(format!(
                    "unknown concurrency mode {other}"
                )))
            }
        };
        let visibility = match buf[pos + 1] {
            0 => ReadVisibility::AnyShadow,
            1 => ReadVisibility::Committed,
            2 => ReadVisibility::OwnShadow,
            other => {
                return Err(LldError::Corrupt(format!(
                    "unknown read visibility {other}"
                )))
            }
        };
        let front = front_region(block_size as u64);
        // The two checkpoint areas lie between the superblock's region
        // and slot 0, each sized as `compute` sizes it for the tables:
        // room for a full directory and for a full row of every block
        // and list it may hold.
        let needed = (max_blocks.checked_mul(CKPT_BLOCK_ROW_MAX))
            .zip(max_lists.checked_mul(CKPT_LIST_ROW_MAX))
            .and_then(|(blocks, lists)| blocks.checked_add(lists))
            .and_then(|rows| rows.checked_add(CKPT_DIR_RESERVE));
        let areas_end = (ckpt_area_size.checked_mul(2)).and_then(|both| both.checked_add(front));
        if needed.is_none_or(|needed| needed > ckpt_area_size)
            || areas_end.is_none_or(|end| end > data_start)
        {
            return Err(LldError::Corrupt(format!(
                "superblock geometry: checkpoint areas of {ckpt_area_size} bytes \
                 for {max_blocks} blocks and {max_lists} lists, slot 0 at byte {data_start}"
            )));
        }
        Ok((
            Layout {
                block_size,
                segment_bytes,
                n_segments,
                data_start,
                ckpt_area_size,
                ckpt_a: front,
                ckpt_b: front + ckpt_area_size,
                max_blocks,
                max_lists,
            },
            concurrency,
            visibility,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SegmentId;

    fn small_config() -> LldConfig {
        LldConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            max_blocks: Some(100),
            max_lists: Some(50),
            ..LldConfig::default()
        }
    }

    #[test]
    fn compute_small_device() {
        let cfg = small_config();
        let layout = Layout::compute(1 << 20, &cfg).unwrap();
        assert_eq!(layout.slots_per_segment(), 7);
        assert!(layout.n_segments >= 4);
        // The superblock and the two headers take three 512-byte blocks.
        assert_eq!(layout.ckpt_a, 1536);
        assert_eq!(layout.ckpt_b, 1536 + layout.ckpt_area_size);
        assert_eq!(layout.data_start, 1536 + 2 * layout.ckpt_area_size);
        assert_eq!(
            [layout.ckpt_a, layout.ckpt_b].map(|area| layout.ckpt_header_at(area)),
            [512, 1024]
        );
        // Checkpoint area holds directory + entries, block-rounded.
        assert_eq!(layout.ckpt_area_size % 512, 0);
        assert!(
            layout.ckpt_area_size
                >= CKPT_DIR_RESERVE
                    + MAX_SNAP_SHARDS * CKPT_SLAB_DESC
                    + CKPT_DEDUP_DESC
                    + 100 * CKPT_BLOCK_ROW_MAX
                    + 50 * CKPT_LIST_ROW_MAX
        );
    }

    /// Formats 5 to 8 pack the slabs and leave the areas where they
    /// were: the geometry of the benchmark's four devices (default
    /// configuration) is format 4's, recorded from PR 22's tree, so its
    /// cleaner sees the same slots. Only a write-id cache too small to
    /// lend the descriptors their room grows the area.
    #[test]
    fn geometry_is_format_4s() {
        let pinned = [
            (32u64, 61, 1_232_896, 614_400, 8_001),
            (64, 123, 2_396_160, 1_196_032, 16_129),
            (128, 246, 4_739_072, 2_367_488, 32_385),
            (256, 494, 9_424_896, 4_710_400, 64_897),
        ];
        for (mib, n_segments, data_start, ckpt_area_size, max_blocks) in pinned {
            let l = Layout::compute(mib << 20, &LldConfig::default()).unwrap();
            assert_eq!(
                (l.n_segments, l.data_start, l.ckpt_area_size, l.max_blocks),
                (n_segments, data_start, ckpt_area_size, max_blocks),
                "{mib} MiB"
            );
            assert_eq!(l.max_lists, max_blocks);
        }
        // 16 write-ids are 512 B: not the room of 64 slabs' descriptors.
        let small_cache = LldConfig {
            dedup_capacity: 16,
            ..small_config()
        };
        let l = Layout::compute(1 << 20, &small_cache).unwrap();
        let slabs = MAX_SNAP_SHARDS * CKPT_SLAB_DESC + 100 * 40 + 50 * 32;
        assert!(l.ckpt_area_size >= CKPT_HEADER + CKPT_DIR_RESERVE + slabs);
    }

    #[test]
    fn too_small_device_rejected() {
        let cfg = small_config();
        assert!(matches!(
            Layout::compute(4096, &cfg),
            Err(LldError::Config(_))
        ));
    }

    #[test]
    fn offsets_are_consistent() {
        let layout = Layout::compute(1 << 20, &small_config()).unwrap();
        let s1 = layout.segment_offset(1);
        assert_eq!(s1 - layout.segment_offset(0), layout.segment_bytes as u64);
        let addr = PhysAddr {
            segment: SegmentId::new(1),
            sector: 4,
            sectors: 1,
        };
        // Sector 4 counts from the slot's start (its header included).
        assert_eq!(layout.block_offset(addr), s1 + 4 * 512);
        assert_eq!(
            (layout.sectors_per_block(), layout.sectors_per_slot()),
            (1, 8)
        );
    }

    #[test]
    fn superblock_round_trip() {
        let layout = Layout::compute(1 << 20, &small_config()).unwrap();
        let buf = layout.encode_superblock(ConcurrencyMode::Sequential, ReadVisibility::Committed);
        assert_eq!(buf.len(), SUPERBLOCK_LEN);
        let (decoded, conc, vis) = Layout::decode_superblock(&buf).unwrap();
        assert_eq!(decoded, layout);
        assert_eq!(conc, ConcurrencyMode::Sequential);
        assert_eq!(vis, ReadVisibility::Committed);
    }

    #[test]
    fn corrupt_superblock_detected() {
        let layout = Layout::compute(1 << 20, &small_config()).unwrap();
        let mut buf =
            layout.encode_superblock(ConcurrencyMode::Concurrent, ReadVisibility::OwnShadow);
        buf[9] ^= 0xFF;
        assert!(matches!(
            Layout::decode_superblock(&buf),
            Err(LldError::Corrupt(_))
        ));
        assert!(Layout::decode_superblock(&buf[..10]).is_err());
        // All-zero block: checksum of zeros won't match either.
        assert!(Layout::decode_superblock(&[0u8; SUPERBLOCK_LEN]).is_err());
    }

    #[test]
    fn superblock_geometry_is_checked() {
        // Under a valid CRC: a block size of zero or not a power of
        // two, a segment that is not whole blocks, or too few of them.
        let good = Layout::compute(1 << 20, &small_config()).unwrap();
        for (block_size, segment_bytes) in [
            (0, 4096),
            (768, 4608),
            (512, 4000),
            (512, 1536),
            (1 << 17, 1 << 20),
        ] {
            let layout = Layout {
                block_size,
                segment_bytes,
                ..good.clone()
            };
            let buf =
                layout.encode_superblock(ConcurrencyMode::Concurrent, ReadVisibility::OwnShadow);
            assert!(
                matches!(Layout::decode_superblock(&buf), Err(LldError::Corrupt(_))),
                "{block_size} / {segment_bytes}"
            );
        }
    }

    #[test]
    fn hostile_checkpoint_geometry_is_corrupt() {
        // Under a valid CRC: areas whose end overflows or passes slot 0,
        // areas too small for a directory, or for the tables the
        // superblock says they hold.
        let good = Layout::compute(1 << 20, &small_config()).unwrap();
        let min = CKPT_DIR_RESERVE;
        let (area, start) = (good.ckpt_area_size, good.data_start);
        let (blocks, lists) = (good.max_blocks, good.max_lists);
        let hostile = [
            (u64::MAX, start, blocks, lists),
            (u64::MAX / 2, u64::MAX, blocks, lists),
            (area, start - 1, blocks, lists),
            (0, start, 0, 0),
            (min - 1, start, 0, 0),
            (area, start, u64::MAX, lists),
            (area, start, blocks, u64::MAX / 16),
            (area, start, area / CKPT_BLOCK_ROW_MAX, 0),
        ];
        for (ckpt_area_size, data_start, max_blocks, max_lists) in hostile {
            let layout = Layout {
                ckpt_area_size,
                data_start,
                max_blocks,
                max_lists,
                ..good.clone()
            };
            let buf =
                layout.encode_superblock(ConcurrencyMode::Concurrent, ReadVisibility::Committed);
            assert!(
                matches!(Layout::decode_superblock(&buf), Err(LldError::Corrupt(_))),
                "{layout:?}"
            );
        }
        // The smallest areas a superblock may name still decode.
        let tight = Layout {
            ckpt_area_size: min,
            data_start: 1536 + 2 * min,
            max_blocks: 0,
            max_lists: 0,
            ..good.clone()
        };
        let buf = tight.encode_superblock(ConcurrencyMode::Concurrent, ReadVisibility::Committed);
        let (decoded, _, _) = Layout::decode_superblock(&buf).unwrap();
        assert_eq!(
            (decoded.ckpt_b, decoded.data_start),
            (1536 + min, 1536 + 2 * min)
        );
    }

    #[test]
    fn default_max_blocks_scales_with_device() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            ..LldConfig::default()
        };
        let small = Layout::compute(1 << 20, &cfg).unwrap();
        let large = Layout::compute(1 << 22, &cfg).unwrap();
        assert!(large.max_blocks > small.max_blocks);
    }
}
