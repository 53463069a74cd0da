//! Identifier and address newtypes for the logical disk.
//!
//! All identifiers are non-zero; zero is reserved so that `Option<id>` can
//! be encoded as a bare integer in on-disk records, and takes no more
//! room than the identifier in memory.

use std::fmt;
use std::num::NonZeroU64;

/// A logical block number.
///
/// Blocks are the smallest unit of disk storage in LD. Clients address
/// data exclusively through logical block numbers; the mapping to physical
/// locations is private to the logical disk (the block-number-map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(NonZeroU64);

/// A logical block-list identifier.
///
/// Ordered lists express the logical relationship between blocks and guide
/// physical allocation; a file system typically uses one list per file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ListId(NonZeroU64);

/// The largest raw block or list identifier the checkpoint codec takes:
/// half the space, so that the difference of two identifiers is below
/// 2⁶³ either way (`checkpoint.rs`). What recovery takes is far less:
/// a persistent table is an array indexed by identifier, so an
/// identifier of kind `I` must lie below `MapId::bound`,
/// `MAX_MAP_SHARDS × (cap + 1)` for the kind's cap in the superblock,
/// which no allocator passes (`state.rs`).
pub(crate) const MAX_RAW_ID: u64 = u64::MAX >> 1;

/// An atomic-recovery-unit identifier, returned by
/// [`Lld::begin_aru`](crate::Lld::begin_aru).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AruId(NonZeroU64);

/// A logical timestamp.
///
/// The paper orders the stream of operations "by the time of an
/// operation"; this implementation uses a per-instance monotonic counter,
/// which gives the same total order deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A physical segment slot index on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(u32);

/// A physical block address: where in a segment slot the block's stored
/// *extent* sits — its bytes up to the last non-zero one, in whole
/// 512-byte sectors (see `segment.rs`). A read zero-fills the rest of
/// the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// The segment slot holding the block.
    pub segment: SegmentId,
    /// First sector of the extent, counted from the slot's start (whose
    /// first block is always a header). A slot holds several segments
    /// back to back; the offset does not say which of them the block
    /// belongs to.
    pub sector: u32,
    /// Sectors the extent takes: at most a block's, 0 for an all-zero
    /// block.
    pub sectors: u32,
}

/// The stream an operation executes in: the merged stream (a *simple*
/// operation, an ARU by itself) or the concurrent stream of one ARU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ctx {
    /// A simple operation: atomic by itself, applied directly to the
    /// committed state.
    #[default]
    Simple,
    /// An operation inside the given atomic recovery unit, applied to
    /// that ARU's shadow state.
    Aru(AruId),
}

/// Where to insert a newly allocated block within its list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Position {
    /// At the beginning of the list.
    #[default]
    First,
    /// Immediately after the given block, which must be on the list.
    After(BlockId),
}

macro_rules! id_impl {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Wraps a raw identifier.
            ///
            /// # Panics
            ///
            /// Panics if `raw` is zero (zero is the reserved "none"
            /// encoding).
            pub const fn new(raw: u64) -> Self {
                match NonZeroU64::new(raw) {
                    Some(raw) => $ty(raw),
                    None => panic!("identifier zero is reserved"),
                }
            }

            /// The raw non-zero value.
            pub const fn get(self) -> u64 {
                self.0.get()
            }

            /// Encodes an optional id as a raw integer (0 for `None`).
            pub(crate) fn encode_opt(opt: Option<Self>) -> u64 {
                opt.map_or(0, Self::get)
            }

            /// Decodes a raw integer into an optional id (0 is `None`).
            pub(crate) fn decode_opt(raw: u64) -> Option<Self> {
                NonZeroU64::new(raw).map($ty)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_impl!(BlockId, "b");
id_impl!(ListId, "l");
id_impl!(AruId, "aru");

impl Timestamp {
    /// The zero timestamp (before any operation).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Wraps a raw counter value.
    pub const fn new(raw: u64) -> Self {
        Timestamp(raw)
    }

    /// The raw counter value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl SegmentId {
    /// Wraps a raw segment slot index.
    pub const fn new(raw: u32) -> Self {
        SegmentId(raw)
    }

    /// The raw slot index.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl PhysAddr {
    /// The extent as a `Write` record carries it in its 4-byte field:
    /// the sector in the high 24 bits (a slot of at most 4 GiB has
    /// fewer than 2²³), the count in the low 8 (a block of at most
    /// 64 KiB has at most 128).
    pub(crate) fn extent(self) -> u32 {
        debug_assert!(self.sector < 1 << 24 && self.sectors < 1 << 8);
        self.sector << 8 | self.sectors
    }

    /// The address in `segment` of a `Write` record's extent.
    pub(crate) fn from_extent(segment: SegmentId, extent: u32) -> PhysAddr {
        PhysAddr {
            segment,
            sector: extent >> 8,
            sectors: extent & 0xFF,
        }
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}:{}", self.segment, self.sector, self.sectors)
    }
}

impl Ctx {
    /// The ARU this context belongs to, if any.
    pub fn aru(self) -> Option<AruId> {
        match self {
            Ctx::Simple => None,
            Ctx::Aru(id) => Some(id),
        }
    }

    /// Whether this is a simple (non-ARU) operation.
    pub fn is_simple(self) -> bool {
        matches!(self, Ctx::Simple)
    }
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ctx::Simple => write!(f, "simple"),
            Ctx::Aru(id) => write!(f, "{id}"),
        }
    }
}

impl From<AruId> for Ctx {
    fn from(id: AruId) -> Self {
        Ctx::Aru(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(BlockId::new(42).to_string(), "b42");
        assert_eq!(ListId::new(7).to_string(), "l7");
        assert_eq!(AruId::new(3).to_string(), "aru3");
        assert_eq!(Timestamp::new(9).to_string(), "t9");
        assert_eq!(
            PhysAddr {
                segment: SegmentId::new(2),
                sector: 40,
                sectors: 8
            }
            .to_string(),
            "s2+40:8"
        );
        assert_eq!(Ctx::Simple.to_string(), "simple");
        assert_eq!(Ctx::Aru(AruId::new(1)).to_string(), "aru1");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_id_rejected() {
        let _ = BlockId::new(0);
    }

    #[test]
    fn optional_encoding_round_trips() {
        assert_eq!(BlockId::encode_opt(None), 0);
        assert_eq!(BlockId::encode_opt(Some(BlockId::new(9))), 9);
        assert_eq!(BlockId::decode_opt(0), None);
        assert_eq!(BlockId::decode_opt(9), Some(BlockId::new(9)));
    }

    #[test]
    fn ctx_helpers() {
        assert!(Ctx::Simple.is_simple());
        assert_eq!(Ctx::Simple.aru(), None);
        let ctx: Ctx = AruId::new(4).into();
        assert_eq!(ctx.aru(), Some(AruId::new(4)));
        assert_eq!(Ctx::default(), Ctx::Simple);
    }

    #[test]
    fn extent_packs_sector_and_count() {
        let seg = SegmentId::new(3);
        for (sector, sectors) in [(0, 0), (8, 2), ((1 << 23) - 1, 128), (1 << 23, 255)] {
            let addr = PhysAddr {
                segment: seg,
                sector,
                sectors,
            };
            assert_eq!(PhysAddr::from_extent(seg, addr.extent()), addr);
        }
        // What a 4 KiB block at sector 16 packs to.
        let full = PhysAddr::from_extent(seg, 16 << 8 | 8);
        assert_eq!((full.sector, full.sectors), (16, 8));
    }

    #[test]
    fn timestamps_order() {
        assert!(Timestamp::ZERO < Timestamp::new(1));
        assert_eq!(Timestamp::new(5).get(), 5);
    }
}
