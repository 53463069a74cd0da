//! On-disk geometry: the superblock, the derived device layout, and the
//! one declaration of each fixed-layout on-disk structure ([`on_disk!`];
//! docs/FORMAT.md gives them all).
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
use crate::dedup::MAX_CLIENTS;
use crate::error::{LldError, Result};
use crate::segment::{MAX_BLOCK_SIZE, SECTOR};
use crate::types::PhysAddr;
use ld_disk::crc32;

const SUPERBLOCK_MAGIC: u64 = 0x4C44_4152_5539_3936; // "LDARU996"
/// The on-disk format this build reads and writes: docs/FORMAT.md gives
/// it, and docs/RECOVERY.md tells what each version changed. Other
/// versions are refused, not converted.
const FORMAT_VERSION: u32 = 12;

/// The widest a row of a checkpoint slab gets (see `checkpoint.rs`):
/// every column of a block or of a list at its full width. What the
/// area is sized by; a slab's rows are as wide as its values need.
pub(crate) const CKPT_BLOCK_ROW_MAX: u64 = 40;
pub(crate) const CKPT_LIST_ROW_MAX: u64 = 32;
/// The widest a client's row gets in the dedup table: four columns of
/// 64 bits, row 0's absolute values included.
pub(crate) const CKPT_DEDUP_ROW_MAX: u64 = 32;

/// One field of a fixed-layout on-disk structure, a row of its
/// declaration ([`on_disk!`]): little-endian, 1, 2, 4 or 8 bytes wide.
/// Every codec of such a structure reads and writes through it, and so
/// do the tests that forge one inside an image.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Its name in docs/FORMAT.md.
    pub name: &'static str,
    /// Its byte offset in the structure.
    pub at: usize,
    /// Its width in bytes.
    pub width: usize,
    /// What it holds.
    pub doc: &'static str,
}

impl Field {
    /// The field's value in `buf`, the structure's bytes.
    pub fn get(self, buf: &[u8]) -> u64 {
        let mut le = [0u8; 8];
        le[..self.width].copy_from_slice(&buf[self.at..self.at + self.width]);
        u64::from_le_bytes(le)
    }

    /// Puts `v`, cut to the field's width, into `buf`.
    pub fn put(self, buf: &mut [u8], v: u64) {
        buf[self.at..self.at + self.width].copy_from_slice(&v.to_le_bytes()[..self.width]);
    }

    /// The largest value the field holds.
    pub const fn max(self) -> u64 {
        u64::MAX >> (64 - 8 * self.width)
    }

    /// Puts the CRC of the bytes of `buf` in front of the field into it,
    /// and returns it.
    pub fn seal(self, buf: &mut [u8]) -> u32 {
        let crc = crc32(&buf[..self.at]);
        self.put(buf, u64::from(crc));
        crc
    }

    /// Whether the field holds the CRC of the bytes of `buf` in front
    /// of it.
    pub fn sealed(self, buf: &[u8]) -> bool {
        u64::from(crc32(&buf[..self.at])) == self.get(buf)
    }
}

/// The length of a structure of `fields`, which lie back to back from
/// byte 0, each 1, 2, 4 or 8 bytes wide; checked at compile time.
const fn back_to_back(fields: &[Field]) -> usize {
    let (mut i, mut end) = (0, 0);
    while i < fields.len() {
        let f = fields[i];
        assert!(f.at == end && matches!(f.width, 1 | 2 | 4 | 8));
        end += f.width;
        i += 1;
    }
    end
}

/// Declares an on-disk structure once. The fixed-layout form takes a
/// row per field (its name in docs/FORMAT.md, offset, width and doc) and
/// gives the table of them, the structure's length and an enum of the
/// fields, each of which dereferences to its row; the column form takes
/// a row per column of a checkpoint table (name and coding) and gives
/// the table and an enum whose discriminant is the column's place.
macro_rules! on_disk {
    (
        $(#[$meta:meta])*
        $name:ident in $table:ident, $len:ident {
            $( $field:ident = ($fname:literal, $at:literal, $width:literal, $doc:literal), )*
        }
    ) => {
        $(#[$meta])*
        #[doc(hidden)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( #[doc = $doc] $field, )*
        }

        #[doc(hidden)]
        pub const $table: &[Field] = &[
            $( Field { name: $fname, at: $at, width: $width, doc: $doc }, )*
        ];

        #[doc(hidden)]
        pub const $len: usize = back_to_back($table);

        /// A field is its row of the declaration, with [`Field`]'s
        /// accessors.
        impl std::ops::Deref for $name {
            type Target = Field;

            fn deref(&self) -> &Field {
                &$table[*self as usize]
            }
        }

        impl $name {
            /// The structure with `values` in their fields, zeros
            /// elsewhere.
            pub fn encode(values: &[($name, u64)]) -> [u8; $len] {
                let mut buf = [0u8; $len];
                for &(field, v) in values {
                    field.put(&mut buf, v);
                }
                buf
            }
        }
    };
    (
        $(#[$meta:meta])*
        $name:ident in $table:ident {
            $( $col:ident = ($cname:literal, $doc:literal), )*
        }
    ) => {
        $(#[$meta])*
        #[doc(hidden)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( #[doc = $doc] $col, )*
        }

        #[doc(hidden)]
        pub const $table: &[(&str, &str)] = &[ $( ($cname, $doc), )* ];
    };
}

on_disk! {
    /// A field of the superblock, at byte 0 of the device.
    SbField in SUPERBLOCK, SUPERBLOCK_LEN {
        Magic = ("magic", 0, 8, "\"LDARU996\""),
        Version = ("version", 8, 4, "the format version"),
        BlockSize = ("block_size", 12, 4, "bytes of a block: a power of two, 512 to 65,536"),
        SegmentBytes = ("segment_bytes", 16, 4, "bytes of a segment slot: four blocks or more"),
        NSegments = ("n_segments", 20, 4, "segment slots"),
        DataStart = ("data_start", 24, 8, "byte offset of slot 0"),
        CkptAreaSize = ("ckpt_area_size", 32, 8, "bytes of one checkpoint area"),
        MaxBlocks = ("max_blocks", 40, 8, "the most blocks allocated at once"),
        MaxLists = ("max_lists", 48, 8, "the most lists allocated at once"),
        Concurrency = ("concurrency", 56, 1, "0 sequential, 1 concurrent"),
        Visibility = ("visibility", 57, 1, "0 any shadow, 1 committed, 2 own shadow"),
        Padding = ("padding", 58, 2, "zero"),
        Crc = ("crc", 60, 4, "CRC32 of the bytes in front of it"),
    }
}

on_disk! {
    /// A field of a segment header, the last bytes of its meta record
    /// (see `segment.rs`).
    SegField in SEGMENT_HEADER, SEGMENT_HEADER_LEN {
        Magic = ("magic", 0, 4, "\"LDSG\""),
        Seq = ("seq", 4, 8, "the segment's log sequence number"),
        NSectors = ("n_sectors", 12, 4, "sectors of its data area"),
        SummaryLen = ("summary_len", 16, 4, "bytes of its summary records"),
        SummaryCrc = ("summary_crc", 20, 4, "CRC32 of its summary records"),
        NextSlot = ("next_slot", 24, 4, "the slot of segment `seq + 1`: its own for the room behind its data and below its meta record"),
        PrevLink = ("prev_link", 28, 4, "the header CRC of segment `seq - 1`"),
        Epoch = ("epoch", 32, 4, "a per-mount salt"),
        Covered = ("covered", 36, 4, "`seq` less the last segment a completed barrier vouched for at the seal: at least 1, `u32::MAX` for none"),
        Crc = ("crc", 40, 4, "CRC32 of the bytes in front of it; the trailer behind the data area holds it too"),
    }
}

on_disk! {
    /// A field of a checkpoint header, alone in its sector of the
    /// superblock's region ([`CKPT_HEADER_AT`]; see `checkpoint.rs`).
    CkptField in CHECKPOINT_HEADER, CKPT_HEADER_LEN {
        Magic = ("magic", 0, 4, "\"LCK6\""),
        HeadLink = ("head_link", 4, 4, "the header CRC of segment `seq`"),
        Seq = ("seq", 8, 8, "the highest segment sequence number the checkpoint covers"),
        Ts = ("ts", 16, 8, "the logical clock"),
        BlockFloor = ("block_floor", 24, 8, "the block allocator's floor, at most `64 × (max_blocks + 1)`"),
        ListFloor = ("list_floor", 32, 8, "the list allocator's floor, at most `64 × (max_lists + 1)`"),
        SnapShards = ("snap_shards", 40, 4, "slabs in the directory, 1 to 64"),
        DirCrc = ("dir_crc", 44, 4, "CRC32 of the directory"),
        NDedup = ("n_dedup", 48, 4, "rows in the dedup table, one a client, at most 1,024"),
        DedupCrc = ("dedup_crc", 52, 4, "CRC32 of the dedup table"),
        HeadSlot = ("head_slot", 56, 4, "the slot of segment `seq + 1`"),
        HeadBase = ("head_base", 60, 4, "the sector its data starts at"),
        HeadTop = ("head_top", 64, 4, "the sector its meta record ends at"),
        BodyLen = ("body_len", 68, 8, "bytes of the body from the area's start: directory, slabs, dedup table"),
        Crc = ("crc", 76, 4, "CRC32 of the bytes in front of it"),
    }
}

on_disk! {
    /// A field of a directory entry of a checkpoint area, one a slab.
    DirField in DIR_ENTRY, DIR_ENTRY_LEN {
        NBlocks = ("n_blocks", 0, 8, "rows of the slab's block table"),
        NLists = ("n_lists", 8, 8, "rows of its list table"),
        SlabCrc = ("slab_crc", 16, 4, "CRC32 of the slab"),
        SlabLen = ("slab_len", 20, 4, "bytes of the slab"),
    }
}

on_disk! {
    /// A field of a column descriptor of a checkpoint table.
    ColField in COLUMN_DESC, COLUMN_DESC_LEN {
        Min = ("min", 0, 8, "the column's smallest coded value"),
        Width = ("width", 8, 1, "bits a row stores, 0 to 64"),
        Shift = ("shift", 9, 1, "low bits every `coded - min` has zero, 0 to 63; `width + shift` is at most 64"),
    }
}

on_disk! {
    /// A column of a slab's block table, in the order of its
    /// descriptors and of a row's values.
    BlockCol in BLOCK_COLUMNS {
        Id = ("id", "the difference from the previous row's identifier (the first row's from 0)"),
        Segment = ("segment", "slot + 1, 0 for no address: the zigzag of its difference from the previous row's"),
        Sector = ("sector", "the zigzag of its difference from the previous row's"),
        Sectors = ("sectors", "as it is; a full block's for no address"),
        Successor = ("successor", "0 for none, else the zigzag of its difference from the row's identifier, plus one"),
        List = ("list", "0 for none, else the zigzag of its difference from the previous row's, plus one"),
        Ts = ("ts", "the zigzag of its difference from the previous row's"),
    }
}

on_disk! {
    /// A column of a slab's list table.
    ListCol in LIST_COLUMNS {
        Id = ("id", "the difference from the previous row's identifier (the first row's from 0)"),
        First = ("first", "0 for none, else the zigzag of its difference from the previous row's, plus one"),
        Last = ("last", "0 for none, else the zigzag of its difference from the row's first, plus one"),
        Ts = ("ts", "the zigzag of its difference from the previous row's"),
    }
}

on_disk! {
    /// A column of the dedup table: one client a row, in client order.
    DedupCol in DEDUP_COLUMNS {
        Client = ("client", "the zigzag of its difference from the previous row's"),
        WriteId = ("write_id", "the floor, the highest write id applied under the generation: the zigzag of its difference from the previous row's"),
        Generation = ("generation", "the zigzag of its difference from the previous row's"),
        Ts = ("ts", "the floor's commit timestamp: the zigzag of its difference from the previous row's"),
    }
}

/// What a segment header's first field holds ("LDSG").
#[doc(hidden)]
pub const SEGMENT_MAGIC: u64 = 0x4753_444C;

/// Where the headers of areas A and B are: sectors 1 and 2 of the
/// superblock's region. Exported for the tests that edit a header
/// inside an image.
#[doc(hidden)]
pub const CKPT_HEADER_AT: [u64; 2] = [SECTOR as u64, 2 * SECTOR as u64];
/// The superblock and both checkpoint headers: what a restart reads
/// first, in one device read.
pub(crate) const FRONT_LEN: usize = 3 * SECTOR;
/// The column descriptors at the start of every slab, one for each of
/// the block and list columns.
pub(crate) const CKPT_SLAB_DESC: u64 =
    ((BLOCK_COLUMNS.len() + LIST_COLUMNS.len()) * COLUMN_DESC_LEN) as u64;
/// The column descriptors at the start of the dedup table.
pub(crate) const CKPT_DEDUP_DESC: u64 = (DEDUP_COLUMNS.len() * COLUMN_DESC_LEN) as u64;

/// Slab-count ceiling a checkpoint area can describe (one slab per map
/// shard; shard counts are capped at `MAX_MAP_SHARDS = 64`). The
/// directory space is reserved for the ceiling so the area size does
/// not depend on the runtime shard knob.
pub(crate) const MAX_SNAP_SHARDS: u64 = 64;
/// Bytes reserved for the slab directory in every checkpoint area.
pub(crate) const CKPT_DIR_RESERVE: u64 = MAX_SNAP_SHARDS * DIR_ENTRY_LEN as u64;

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
        // wider than its maximum, and the descriptors of 64 slabs come out
        // of the room of `MAX_CLIENTS` dedup rows at their widest (so a
        // checkpoint of both at their widest is refused, not cut). The
        // headers live in the superblock's region, not in the area.
        let ckpt_area_size = round_up(
            CKPT_DIR_RESERVE
                + max_blocks * CKPT_BLOCK_ROW_MAX
                + max_lists * CKPT_LIST_ROW_MAX
                + CKPT_DEDUP_DESC
                + (MAX_CLIENTS as u64 * CKPT_DEDUP_ROW_MAX).max(MAX_SNAP_SHARDS * CKPT_SLAB_DESC),
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
        let mut buf = SbField::encode(&[
            (SbField::Magic, SUPERBLOCK_MAGIC),
            (SbField::Version, FORMAT_VERSION.into()),
            (SbField::BlockSize, self.block_size as u64),
            (SbField::SegmentBytes, self.segment_bytes as u64),
            (SbField::NSegments, self.n_segments.into()),
            (SbField::DataStart, self.data_start),
            (SbField::CkptAreaSize, self.ckpt_area_size),
            (SbField::MaxBlocks, self.max_blocks),
            (SbField::MaxLists, self.max_lists),
            (
                SbField::Concurrency,
                match concurrency {
                    ConcurrencyMode::Sequential => 0,
                    ConcurrencyMode::Concurrent => 1,
                },
            ),
            (
                SbField::Visibility,
                match visibility {
                    ReadVisibility::AnyShadow => 0,
                    ReadVisibility::Committed => 1,
                    ReadVisibility::OwnShadow => 2,
                },
            ),
        ]);
        SbField::Crc.seal(&mut buf);
        buf.to_vec()
    }

    /// Decodes and validates a superblock.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Corrupt`] on a bad magic, version, checksum
    /// or geometry.
    pub fn decode_superblock(buf: &[u8]) -> Result<(Layout, ConcurrencyMode, ReadVisibility)> {
        let Some(sb) = buf.get(..SUPERBLOCK_LEN) else {
            return Err(LldError::Corrupt("superblock too short".into()));
        };
        if !SbField::Crc.sealed(sb) {
            return Err(LldError::Corrupt("superblock checksum mismatch".into()));
        }
        let field = |f: SbField| f.get(sb);
        if field(SbField::Magic) != SUPERBLOCK_MAGIC {
            return Err(LldError::Corrupt("not a logical-disk superblock".into()));
        }
        let version = field(SbField::Version);
        if version != u64::from(FORMAT_VERSION) {
            return Err(LldError::Corrupt(format!(
                "unsupported format version {version}"
            )));
        }
        let block_size = field(SbField::BlockSize) as usize;
        let segment_bytes = field(SbField::SegmentBytes) as usize;
        let n_segments = field(SbField::NSegments) as u32;
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
        let data_start = field(SbField::DataStart);
        let ckpt_area_size = field(SbField::CkptAreaSize);
        let max_blocks = field(SbField::MaxBlocks);
        let max_lists = field(SbField::MaxLists);
        let concurrency = match field(SbField::Concurrency) {
            0 => ConcurrencyMode::Sequential,
            1 => ConcurrencyMode::Concurrent,
            other => {
                return Err(LldError::Corrupt(format!(
                    "unknown concurrency mode {other}"
                )))
            }
        };
        let visibility = match field(SbField::Visibility) {
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
    /// cleaner sees the same slots.
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
        let l = Layout::compute(1 << 20, &small_config()).unwrap();
        let slabs = MAX_SNAP_SHARDS * CKPT_SLAB_DESC + 100 * 40 + 50 * 32;
        assert!(l.ckpt_area_size >= CKPT_HEADER_LEN as u64 + CKPT_DIR_RESERVE + slabs);
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

    /// docs/FORMAT.md gives every declaration as it is: each
    /// structure's table and each checkpoint table's columns, row for
    /// row, under the format's version.
    #[test]
    fn format_md_matches_the_declarations() {
        let doc = include_str!("../../../docs/FORMAT.md");
        assert!(doc.starts_with(&format!(
            "# FORMAT — the on-disk format, version {FORMAT_VERSION}\n"
        )));
        for fields in [
            SUPERBLOCK,
            SEGMENT_HEADER,
            CHECKPOINT_HEADER,
            DIR_ENTRY,
            COLUMN_DESC,
        ] {
            let rows: String = (fields.iter())
                .map(|f| format!("| {} | {} | {} | {} |\n", f.name, f.at, f.width, f.doc))
                .collect();
            let table =
                format!("| field | offset | width | holds |\n|---|---:|---:|---|\n{rows}\n");
            assert!(doc.contains(&table), "docs/FORMAT.md lacks\n{table}");
        }
        for columns in [BLOCK_COLUMNS, LIST_COLUMNS, DEDUP_COLUMNS] {
            let rows: String = (columns.iter().enumerate())
                .map(|(i, (name, doc))| format!("| {i} | {name} | {doc} |\n"))
                .collect();
            let table = format!("| column | name | coded as |\n|---:|---|---|\n{rows}");
            assert!(doc.contains(&table), "docs/FORMAT.md lacks\n{table}");
        }
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
