//! Block and list records, the persistent tables, and state overlays.
//!
//! The paper (§4) keeps the persistent state in two tables — the
//! *block-number-map* and the *list-table* — and augments them with
//! in-memory lists of *alternative records* describing blocks and lists in
//! the committed and shadow states, meshed so both lookup-by-identifier
//! and iteration-by-state are efficient.
//!
//! This implementation keeps the same three-level structure with the same
//! asymptotics: [`Tables`] is the persistent state, and each committed or
//! shadow state is a [`StateOverlay`] — a map from identifier to
//! alternative record. Lookup by identifier is the paper's "standardised
//! search" (shadow → committed → persistent); iteration by state is
//! iteration over one overlay; the whole-state transitions (shadow →
//! committed at `EndARU`, committed → persistent at segment write) drain
//! one overlay into the level below.
//!
//! The paper states these rules once "per block/list", and so does this
//! crate: the two tables differ only in their record type, and
//! [`MapId`], implemented by [`BlockId`] and [`ListId`], carries what
//! differs. The standardised search (`MapView::view`), copy-on-write
//! (`Mutation::rec_mut`), the allocation exception (`Mutation::alloc`,
//! replayed by `replay_alloc`) and the drain are each written once for
//! both tables, generic over it.
//!
//! The persistent tables hash nothing. LD hands out the identifiers
//! itself, dense in each shard's stripe, so a shard's table is an array
//! indexed by identifier ([`Tables`]): a lookup is an index, a
//! checkpoint iterates it in identifier order, and recovery fills it in
//! that order. Its empty slots are the shard's free identifiers. What a
//! crafted image could do to an array is bound by [`MapId::bound`], not
//! by a hash. The overlays, a segment's `residents` and the block cache
//! are small and sparse, and stay maps: they hash with [`IdBuild`], a
//! keyed folded multiply: two 64×64→128-bit products per identifier
//! where std's SipHash runs its rounds. Its key is drawn once per
//! process, so an overlay's iteration order is per process.

use crate::config::MAX_MAP_SHARDS;
use crate::error::LldError;
use crate::layout::Layout;
use crate::shard::{IdStripe, MapShard, Maps};
use crate::summary::Record;
use crate::types::{BlockId, ListId, PhysAddr, Timestamp};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// A map keyed by block or list identifier (or by physical address,
/// in the block cache).
pub(crate) type IdMap<K, V> = HashMap<K, V, IdBuild>;
/// A set of block or list identifiers.
pub(crate) type IdSet<K> = HashSet<K, IdBuild>;

/// Builds [`IdHasher`]s under the process's key `(k0, k1)`, drawn once
/// from std's [`RandomState`]. The key is not optional: an unkeyed
/// multiply is invertible, so a CRC-valid checkpoint slab could choose
/// identifiers that all land in one bucket and make recovery quadratic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IdBuild {
    k0: u64,
    k1: u64,
}

impl Default for IdBuild {
    fn default() -> Self {
        static KEY: OnceLock<IdBuild> = OnceLock::new();
        *KEY.get_or_init(|| {
            let s = RandomState::new();
            IdBuild {
                k0: s.hash_one(0u64),
                k1: s.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for IdBuild {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            h: self.k0,
            key: *self,
        }
    }
}

/// Folds each word in with `h = fold(h ^ x, k1)`, starting from
/// `h = k0`, and `finish` folds `k0` in once more: an identifier is one
/// `write_u64`, so two multiplies. One alone leaves the low bits of
/// identifiers that differ only in their high bits to `hi(r)`: on half
/// of all keys the low 16 bits of 32,768 such identifiers then take
/// under 24,000 values, as few as 2,000 (EXPERIMENTS.md "Study 13").
#[derive(Debug)]
pub(crate) struct IdHasher {
    h: u64,
    key: IdBuild,
}

/// `lo(r) ^ hi(r)` of the 128-bit product `r = a · b`.
fn fold(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, x: u64) {
        self.h = fold(self.h ^ x, self.key.k1);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        fold(self.h ^ self.key.k0, self.key.k1)
    }
}

/// One version of a logical block's meta-data: the block-number-map
/// entry of the paper (physical address, allocation state, position
/// within its list, and the time of the last operation on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Whether the block is allocated in this version.
    pub allocated: bool,
    /// Physical location of the block's data, if it has ever been
    /// written.
    pub addr: Option<PhysAddr>,
    /// The next block on the same list.
    pub successor: Option<BlockId>,
    /// The list this block belongs to. `None` for a block that was
    /// allocated inside a still-uncommitted ARU (allocation is always
    /// committed; insertion into the list is shadow state).
    pub list: Option<ListId>,
    /// Time of the last operation that produced this version.
    pub ts: Timestamp,
}

impl BlockRecord {
    /// A freshly allocated block: no data, not on any list.
    pub fn fresh(ts: Timestamp) -> Self {
        BlockRecord {
            allocated: true,
            addr: None,
            successor: None,
            list: None,
            ts,
        }
    }
}

/// One version of a list's meta-data: the list-table entry of the paper
/// (first and last block of the list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListRecord {
    /// Whether the list is allocated in this version.
    pub allocated: bool,
    /// The first block on the list.
    pub first: Option<BlockId>,
    /// The last block on the list.
    pub last: Option<BlockId>,
    /// Time of the last operation that produced this version.
    pub ts: Timestamp,
}

impl ListRecord {
    /// A freshly allocated, empty list.
    pub fn fresh(ts: Timestamp) -> Self {
        ListRecord {
            allocated: true,
            first: None,
            last: None,
            ts,
        }
    }
}

/// One shard's block-number-map and list-table as persistent state: an
/// array per table, slot `raw >> shift` holding identifier `raw`'s
/// record. The shard owns the identifiers congruent to `idx` modulo
/// `1 << shift`, so no two of them share a slot. Only allocated blocks
/// and lists have a record (deallocation empties the slot), and a slot
/// past the array's end is empty.
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    blocks: Vec<Option<BlockRecord>>,
    lists: Vec<Option<ListRecord>>,
    shift: u32,
    idx: u64,
}

impl Tables {
    /// The empty tables of shard `idx` of `nshards` (a power of two).
    pub(crate) fn new(idx: u32, nshards: u32) -> Self {
        Tables {
            blocks: Vec::new(),
            lists: Vec::new(),
            shift: nshards.trailing_zeros(),
            idx: u64::from(idx),
        }
    }

    fn slot(&self, raw: u64) -> usize {
        debug_assert_eq!(
            raw & ((1 << self.shift) - 1),
            self.idx,
            "{raw} is another shard's"
        );
        (raw >> self.shift) as usize
    }

    fn raw(&self, slot: usize) -> u64 {
        (slot as u64) << self.shift | self.idx
    }

    /// `id`'s record, if it has one.
    pub(crate) fn get<I: MapId>(&self, id: I) -> Option<&I::Rec> {
        I::slots(self).get(self.slot(id.raw()))?.as_ref()
    }

    /// Enters `rec` as `id`'s record, and returns the one it replaces.
    pub(crate) fn insert<I: MapId>(&mut self, id: I, rec: I::Rec) -> Option<I::Rec> {
        let slot = self.slot(id.raw());
        let slots = I::slots_mut(self);
        if slot >= slots.len() {
            slots.resize_with(slot + 1, || None);
        }
        slots[slot].replace(rec)
    }

    /// Empties `id`'s slot.
    pub(crate) fn remove<I: MapId>(&mut self, id: I) {
        let slot = self.slot(id.raw());
        if let Some(rec) = I::slots_mut(self).get_mut(slot) {
            *rec = None;
        }
    }

    /// Makes room for every identifier of kind `I` below `floor`.
    pub(crate) fn reserve<I: MapId>(&mut self, floor: u64) {
        let want = (floor >> self.shift) as usize + 1;
        let slots = I::slots_mut(self);
        slots.reserve(want.saturating_sub(slots.len()));
    }

    /// The records of kind `I`, in identifier order.
    pub(crate) fn iter<I: MapId>(&self) -> impl Iterator<Item = (I, &I::Rec)> {
        (I::slots(self).iter().enumerate()).filter_map(|(slot, rec)| {
            let rec = rec.as_ref()?;
            Some((I::from_raw(self.raw(slot)), rec))
        })
    }

    /// The stripe of kind `I` these tables leave: an identifier below
    /// the last one held is free unless a record holds it, and the
    /// stripe grows from the one past the last.
    pub(crate) fn stripe<I: MapId>(&self) -> IdStripe {
        // Identifier 0 is reserved: shard 0's first slot stays empty.
        let first = usize::from(self.idx == 0);
        let slots = I::slots(self);
        let end = (slots.iter().rposition(Option::is_some)).map_or(first, |last| last + 1);
        IdStripe {
            next_raw: self.raw(end),
            free: (first..end)
                .filter(|&slot| slots[slot].is_none())
                .map(|slot| self.raw(slot))
                .collect(),
        }
    }
}

/// A set of alternative records layered over the state below it
/// (committed over persistent; shadow over committed): the two tables as
/// maps, where an entry is present only if the record *differs* from
/// the state below — including deallocations, which are represented as
/// records with `allocated == false`.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateOverlay {
    /// Alternative block-number-map entries.
    pub(crate) blocks: IdMap<BlockId, BlockRecord>,
    /// Alternative list-table entries.
    pub(crate) lists: IdMap<ListId, ListRecord>,
}

impl StateOverlay {
    /// Whether both tables are empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.lists.is_empty()
    }

    /// Number of records (blocks + lists).
    pub(crate) fn len(&self) -> usize {
        self.blocks.len() + self.lists.len()
    }

    /// Drains every alternative record into `tables` (the transition of
    /// a whole state into the level below). Allocated records replace
    /// the entry below if they are more recent (they always are under
    /// the monotonic clock; the guard mirrors the paper's "replaces the
    /// current version if more recent, otherwise it is discarded");
    /// deallocated records remove the entry.
    pub(crate) fn drain_into(&mut self, tables: &mut Tables) {
        fn drain<I: MapId>(from: &mut StateOverlay, to: &mut Tables) {
            for (id, rec) in I::overlay_mut(from).drain() {
                if !I::allocated(&rec) {
                    to.remove(id);
                } else if to.get(id).is_none_or(|b| I::ts(b) <= I::ts(&rec)) {
                    to.insert(id, rec);
                }
            }
        }
        drain::<BlockId>(self, tables);
        drain::<ListId>(self, tables);
    }
}

/// An identifier kind of the map layer: what the rules the paper states
/// once "per block/list" (§3–4) — the standardised search, copy-on-write
/// into the first state that lacks a version, the allocation exception,
/// the whole-state drain — need to know about [`BlockId`] and
/// [`ListId`]. Each rule is written once, generic over this trait, and
/// the identifier's type picks the table.
pub(crate) trait MapId: Copy + Eq + Hash + fmt::Display + 'static {
    /// The block-number-map entry or the list-table entry.
    type Rec: Clone + 'static;
    fn raw(self) -> u64;
    fn from_raw(raw: u64) -> Self;
    /// The table of an overlay that holds this kind.
    fn overlay(o: &StateOverlay) -> &IdMap<Self, Self::Rec>;
    fn overlay_mut(o: &mut StateOverlay) -> &mut IdMap<Self, Self::Rec>;
    /// The array of persistent tables that holds this kind.
    fn slots(t: &Tables) -> &Vec<Option<Self::Rec>>;
    fn slots_mut(t: &mut Tables) -> &mut Vec<Option<Self::Rec>>;
    /// The shard's stripe of this kind's identifiers.
    fn stripe(sh: &mut MapShard) -> &mut IdStripe;
    /// The global count of allocations of this kind, and its cap.
    fn reserved(maps: &Maps) -> &AtomicU64;
    fn cap(layout: &Layout) -> u64;
    /// One past the largest identifier of this kind on `layout`: no
    /// allocator hands out one as large, and recovery refuses an image
    /// that holds one. An allocator reuses its stripe's free
    /// identifiers first, so its stripe grows only when every identifier
    /// below the stripe's end is taken, at most `cap` at a time, in
    /// steps of the shard count, at most `MAX_MAP_SHARDS`. The arrays of
    /// every shard together take at most this many slots.
    fn bound(layout: &Layout) -> u64 {
        (MAX_MAP_SHARDS as u64).saturating_mul(Self::cap(layout).saturating_add(1))
    }
    /// The error for an identifier that has no version at all.
    fn not_allocated(self) -> LldError;
    /// The summary record that logs this identifier's allocation.
    fn logged(self, ts: Timestamp) -> Record;
    /// A version with no data and no links: a fresh allocation, or what
    /// a deallocation leaves.
    fn unlinked(allocated: bool, ts: Timestamp) -> Self::Rec;
    fn allocated(rec: &Self::Rec) -> bool;
    fn ts(rec: &Self::Rec) -> Timestamp;
}

macro_rules! map_id {
    ($id:ident: $rec:ident in $table:ident, stripe $stripe:ident,
     count $count:ident <= $cap:ident, missing $missing:ident,
     logged $new:ident { $field:ident }) => {
        impl MapId for $id {
            type Rec = $rec;
            fn raw(self) -> u64 {
                self.get()
            }
            fn from_raw(raw: u64) -> Self {
                $id::new(raw)
            }
            fn overlay(o: &StateOverlay) -> &IdMap<Self, $rec> {
                &o.$table
            }
            fn overlay_mut(o: &mut StateOverlay) -> &mut IdMap<Self, $rec> {
                &mut o.$table
            }
            fn slots(t: &Tables) -> &Vec<Option<$rec>> {
                &t.$table
            }
            fn slots_mut(t: &mut Tables) -> &mut Vec<Option<$rec>> {
                &mut t.$table
            }
            fn stripe(sh: &mut MapShard) -> &mut IdStripe {
                &mut sh.$stripe
            }
            fn reserved(maps: &Maps) -> &AtomicU64 {
                &maps.$count
            }
            fn cap(layout: &Layout) -> u64 {
                layout.$cap
            }
            fn not_allocated(self) -> LldError {
                LldError::$missing(self)
            }
            fn logged(self, ts: Timestamp) -> Record {
                Record::$new { $field: self, ts }
            }
            fn unlinked(allocated: bool, ts: Timestamp) -> $rec {
                $rec {
                    allocated,
                    ..$rec::fresh(ts)
                }
            }
            fn allocated(rec: &$rec) -> bool {
                rec.allocated
            }
            fn ts(rec: &$rec) -> Timestamp {
                rec.ts
            }
        }
    };
}

map_id! {
    BlockId: BlockRecord in blocks, stripe block_ids, count allocated_blocks <= max_blocks,
    missing BlockNotAllocated, logged NewBlock { block }
}
map_id! {
    ListId: ListRecord in lists, stripe list_ids, count allocated_lists <= max_lists,
    missing ListNotAllocated, logged NewList { list }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SegmentId;

    fn addr(seg: u32, sector: u32) -> PhysAddr {
        PhysAddr {
            segment: SegmentId::new(seg),
            sector,
            sectors: 8,
        }
    }

    #[test]
    fn fresh_records() {
        let b = BlockRecord::fresh(Timestamp::new(3));
        assert!(b.allocated);
        assert_eq!(b.addr, None);
        assert_eq!(b.list, None);
        let l = ListRecord::fresh(Timestamp::new(4));
        assert!(l.allocated && l.first.is_none() && l.last.is_none());
    }

    #[test]
    fn drain_inserts_updates_and_removes() {
        let mut tables = Tables::new(0, 1);
        tables.insert(
            BlockId::new(1),
            BlockRecord {
                addr: Some(addr(0, 0)),
                ..BlockRecord::fresh(Timestamp::new(1))
            },
        );
        tables.insert(ListId::new(1), ListRecord::fresh(Timestamp::new(1)));

        let mut overlay = StateOverlay::default();
        // Update block 1 with a newer version.
        overlay.blocks.insert(
            BlockId::new(1),
            BlockRecord {
                addr: Some(addr(2, 5)),
                ..BlockRecord::fresh(Timestamp::new(9))
            },
        );
        // Insert a brand-new block 2.
        overlay
            .blocks
            .insert(BlockId::new(2), BlockRecord::fresh(Timestamp::new(10)));
        // Deallocate list 1.
        overlay.lists.insert(
            ListId::new(1),
            ListRecord {
                allocated: false,
                ..ListRecord::fresh(Timestamp::new(11))
            },
        );

        overlay.drain_into(&mut tables);
        assert!(overlay.is_empty());
        assert_eq!(tables.get(BlockId::new(1)).unwrap().addr, Some(addr(2, 5)));
        assert!(tables.get(BlockId::new(2)).is_some());
        assert!(tables.get(ListId::new(1)).is_none());
    }

    #[test]
    fn drain_discards_stale_versions() {
        // The "otherwise it is discarded" branch: an overlay record older
        // than the table entry does not replace it.
        let mut tables = Tables::new(0, 1);
        tables.insert(BlockId::new(1), BlockRecord::fresh(Timestamp::new(20)));
        let mut overlay = StateOverlay::default();
        overlay
            .blocks
            .insert(BlockId::new(1), BlockRecord::fresh(Timestamp::new(5)));
        overlay.drain_into(&mut tables);
        assert_eq!(tables.get(BlockId::new(1)).unwrap().ts, Timestamp::new(20));
    }

    /// Identifier `raw` of shard `raw % n` sits in slot `raw / n`: the
    /// records come back in identifier order, and the empty slots below
    /// the last full one are the stripe's free identifiers.
    #[test]
    fn an_array_is_indexed_by_identifier_and_its_holes_are_free() {
        for (idx, n) in [(0u32, 1u32), (0, 4), (3, 4), (5, 64)] {
            let mut t = Tables::new(idx, n);
            let step = u64::from(n);
            let id = |k: u64| BlockId::new(u64::from(idx) + k * step);
            let empty = t.stripe::<BlockId>();
            assert_eq!(empty.next_raw, id(u64::from(idx == 0)).get());
            assert!(empty.free.is_empty());
            for k in [7, 2, 9, 3] {
                assert!(t
                    .insert(id(k), BlockRecord::fresh(Timestamp::new(k)))
                    .is_none());
            }
            assert!(t
                .insert(id(3), BlockRecord::fresh(Timestamp::ZERO))
                .is_some());
            t.remove(id(9));
            t.remove(id(40)); // past the end: nothing to empty
            let held: Vec<u64> = t.iter::<BlockId>().map(|(b, _)| b.get()).collect();
            assert_eq!(held, [id(2), id(3), id(7)].map(BlockId::get));
            let stripe = t.stripe::<BlockId>();
            assert_eq!(stripe.next_raw, id(8).get(), "one past the last held");
            // Slot 0 of shard 0 would be identifier 0.
            let holes: Vec<u64> = [0, 1, 4, 5, 6]
                .into_iter()
                .filter(|&k| idx != 0 || k != 0)
                .map(|k| u64::from(idx) + k * step)
                .collect();
            assert_eq!(stripe.free.into_iter().collect::<Vec<_>>(), holes);
            assert!(t.stripe::<ListId>().free.is_empty());
        }
    }

    /// Zero is no identifier, so an absent one takes no room: a block's
    /// record is 48 bytes and a list's 32, and an empty slot of either
    /// array costs nothing over a full one.
    #[test]
    fn records_pack_their_optional_identifiers() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<BlockId>>(), 8);
        assert_eq!(size_of::<BlockRecord>(), 48);
        assert_eq!(size_of::<ListRecord>(), 32);
        assert_eq!(size_of::<Option<BlockRecord>>(), 48);
        assert_eq!(size_of::<Option<ListRecord>>(), 32);
    }

    /// 32,768 identifiers at the spacings the allocators hand out (one
    /// shard, 8 and 64 shards) and at two a crafted slab could choose:
    /// the low 16 bits (the bucket of a 65,536-bucket table) and the top
    /// 7 (hashbrown's tag) spread as a random function's would.
    #[test]
    fn the_identifier_hash_spreads_low_and_top_bits() {
        let build = IdBuild::default();
        assert_eq!(build, IdBuild::default(), "one key per process");
        for spacing in [1u64, 8, 64, 1 << 32, 1 << 40] {
            let hashes: Vec<u64> = (1..=32_768u64)
                .map(|i| build.hash_one(BlockId::new(i * spacing)))
                .collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 0xFFFF).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            // A random function gives ≈ 25,786 and 128.
            assert!(low.len() >= 24_000, "spacing {spacing}: {} low", low.len());
            assert!(top.len() >= 120, "spacing {spacing}: {} top", top.len());
        }
    }

    #[test]
    fn overlay_len_counts_both_kinds() {
        let mut o = StateOverlay::default();
        assert!(o.is_empty());
        o.blocks
            .insert(BlockId::new(1), BlockRecord::fresh(Timestamp::ZERO));
        o.lists
            .insert(ListId::new(1), ListRecord::fresh(Timestamp::ZERO));
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
    }
}
