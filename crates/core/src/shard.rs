//! The sharded mapping layer: hash-partitioned shards of the
//! block-number-map and list-table, the ARU descriptor table, and the
//! lock-set machinery mutation sessions use to acquire them in a
//! deadlock-free order.
//!
//! Identifiers hash to a shard by `id & (nshards - 1)` (`nshards` is a
//! power of two, at most 64 so a shard set fits a `u64` bitmask). Each
//! shard owns the persistent and committed records of its identifiers
//! *and* a stripe of the identifier allocators: shard `s` hands out ids
//! congruent to `s` modulo `nshards`, so allocation never crosses a
//! shard boundary. ARU descriptors live in a parallel table of mutex
//! slots, keyed by `aru_id & (nshards - 1)`.
//!
//! The id stripe ([`IdStripe`]), the reservation against the global cap
//! ([`Maps::try_reserve`]) and the standardised search
//! ([`MapView::view`]) are each written once for blocks and lists,
//! generic over the identifier kind ([`MapId`]): the identifier's type
//! picks the table.
//!
//! Lock hierarchy (see docs/CONCURRENCY.md): ARU slots in ascending
//! index order, then map shards in ascending index order, then the log
//! mutex. [`Maps::lock_arus`] / [`Maps::lock_read`] /
//! [`Maps::lock_write`] each iterate a bitmask ascending, and callers
//! always take ARU slots before shards, so any two sessions acquire
//! their common locks in the same global order.

use crate::aru::Aru;
use crate::error::{LldError, Result};
use crate::obs::ActiveSpan;
use crate::record::{flat_record, Counter};
use crate::state::{MapId, StateOverlay, Tables};
use crate::types::{AruId, BlockId, ListId, Position};
use ld_disk::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Raw id of the scratch ARU used to validate a commit's list-operation
/// log without touching any real state. Never allocated to a client
/// (the allocator counts up from 1), and resolved by [`MapView::aru`]
/// before any table lookup, so a scratch session needs no ARU slot.
pub(crate) const SCRATCH_ARU_RAW: u64 = u64::MAX;

/// Which version state an internal operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StateRef {
    /// The merged stream's committed state.
    Committed,
    /// The shadow state of one ARU (resolution falls through to the
    /// committed state, which falls through to the persistent state —
    /// the paper's standardised search).
    Shadow(AruId),
}

/// One hash partition of the mapping layer.
#[derive(Debug)]
pub(crate) struct MapShard {
    /// Persistent state: this shard's stripe of the block-number-map
    /// and list-table.
    pub(crate) persistent: Tables,
    /// Committed-but-not-yet-persistent alternative records.
    pub(crate) committed: StateOverlay,
    /// This shard's stripes of the block and list identifiers.
    pub(crate) block_ids: IdStripe,
    pub(crate) list_ids: IdStripe,
    /// A checkpoint has begun and covers this shard's log prefix, but
    /// has not yet taken its snapshot slab: the next committed-state
    /// drain must preserve the persistent tables as of the covered
    /// point (see [`snap_copy`](Self::snap_copy)).
    pub(crate) snap_pending: bool,
    /// Copy-on-advance snapshot: the persistent tables as they stood
    /// when the in-flight checkpoint chose its covered sequence
    /// number, cloned lazily by the first drain that would
    /// advance a pending shard past that point.
    pub(crate) snap_copy: Option<Tables>,
}

/// The identifiers of one kind that one shard hands out.
#[derive(Debug)]
pub(crate) struct IdStripe {
    /// Next never-used identifier (congruent to the shard index modulo
    /// the shard count).
    pub(crate) next_raw: u64,
    /// Released identifiers, reused first.
    pub(crate) free: BTreeSet<u64>,
}

impl IdStripe {
    /// A free identifier, else the next one, below `bound`
    /// ([`MapId::bound`]); `None` if there is none.
    pub(crate) fn alloc(&mut self, n: u64, bound: u64) -> Option<u64> {
        self.free.pop_first().or_else(|| {
            let raw = self.next_raw;
            (raw < bound).then(|| {
                self.next_raw = raw + n;
                raw
            })
        })
    }

    /// Records that `raw` is in use (a replayed allocation): it leaves
    /// the free set and the allocator is raised past it.
    pub(crate) fn note(&mut self, raw: u64, n: u64) {
        self.free.remove(&raw);
        self.next_raw = self.next_raw.max(raw + n);
    }
}

impl MapShard {
    fn fresh(idx: u32, n: u32) -> Self {
        let persistent = Tables::new(idx, n);
        MapShard {
            block_ids: persistent.stripe::<BlockId>(),
            list_ids: persistent.stripe::<ListId>(),
            persistent,
            committed: StateOverlay::default(),
            snap_pending: false,
            snap_copy: None,
        }
    }
}

flat_record! {
    /// Per-shard lock-acquisition counters, surfaced through
    /// [`ObsSnapshot`](crate::obs::ObsSnapshot) and `ldctl stats`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShardLockStats {
        /// Shard index.
        shard: u32,
        /// Shared (read) acquisitions of this shard's lock.
        read_locks: u64,
        /// Exclusive (write) acquisitions of this shard's lock.
        write_locks: u64,
    }
}

#[derive(Debug)]
struct ShardSlot {
    lock: RwLock<MapShard>,
    read_locks: Counter,
    write_locks: Counter,
}

/// The sharded mapping layer of one logical disk: all map shards, the
/// ARU descriptor table, and the lock-free allocator state shared
/// between shards.
#[derive(Debug)]
pub(crate) struct Maps {
    shards: Vec<ShardSlot>,
    arus: Vec<Mutex<AruSlot>>,
    pub(crate) next_aru_raw: AtomicU64,
    /// Round-robin cursor choosing the owning shard of the next new
    /// list, so independent lists spread across shards.
    list_rr: AtomicU64,
    pub(crate) allocated_blocks: AtomicU64,
    pub(crate) allocated_lists: AtomicU64,
}

impl Maps {
    pub(crate) fn fresh(nshards: usize) -> Self {
        debug_assert!(nshards.is_power_of_two() && nshards <= 64);
        let n = nshards as u64;
        Maps {
            shards: (0..nshards as u32)
                .map(|i| ShardSlot {
                    lock: RwLock::new(MapShard::fresh(i, nshards as u32)),
                    read_locks: Counter::default(),
                    write_locks: Counter::default(),
                })
                .collect(),
            arus: (0..nshards)
                .map(|_| Mutex::new(AruSlot::default()))
                .collect(),
            next_aru_raw: AtomicU64::new(1),
            // Start at the shard owning raw id 1, so the first list on a
            // fresh disk gets id 1 under every shard count (clients pin
            // well-known metadata to it).
            list_rr: AtomicU64::new(1 % n),
            allocated_blocks: AtomicU64::new(0),
            allocated_lists: AtomicU64::new(0),
        }
    }

    pub(crate) fn nshards(&self) -> u32 {
        self.shards.len() as u32
    }

    pub(crate) fn mask(&self) -> u64 {
        self.shards.len() as u64 - 1
    }

    pub(crate) fn shard_of(&self, raw: u64) -> u32 {
        (raw & self.mask()) as u32
    }

    /// The bitmask selecting every shard (and every ARU slot).
    pub(crate) fn all_set(&self) -> u64 {
        if self.shards.len() == 64 {
            u64::MAX
        } else {
            (1u64 << self.shards.len()) - 1
        }
    }

    pub(crate) fn bit_of(&self, raw: u64) -> u64 {
        1u64 << self.shard_of(raw)
    }

    /// The shard that will own the next new list (advances the
    /// round-robin cursor).
    pub(crate) fn pick_list_shard(&self) -> u32 {
        (self.list_rr.fetch_add(1, Ordering::Relaxed) & self.mask()) as u32
    }

    /// Reserves one allocation of kind `I` against `max`, atomically.
    pub(crate) fn try_reserve<I: MapId>(&self, max: u64) -> Result<()> {
        I::reserved(self)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max).then_some(n + 1)
            })
            .map(|_| ())
            .map_err(|_| LldError::DiskFull)
    }

    pub(crate) fn unreserve<I: MapId>(&self) {
        let _ = I::reserved(self).fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_sub(1))
        });
    }

    /// Locks the ARU slots in `set`, ascending.
    pub(crate) fn lock_arus(&self, set: u64) -> GuardSet<AruSlotGuard<'_>> {
        GuardSet::lock(set, |i| self.arus[i as usize].lock())
    }

    /// Locks the one ARU slot that `raw` hashes to.
    pub(crate) fn lock_aru(&self, raw: u64) -> AruSlotGuard<'_> {
        self.arus[self.shard_of(raw) as usize].lock()
    }

    /// Read-locks the shards in `set`, ascending.
    pub(crate) fn lock_read(&self, set: u64) -> GuardSet<ShardGuard<'_>> {
        GuardSet::lock(set, |i| {
            let slot = &self.shards[i as usize];
            slot.read_locks.inc();
            ShardGuard::Read(slot.lock.read())
        })
    }

    /// Write-locks the shards in `set`, ascending.
    pub(crate) fn lock_write(&self, set: u64) -> GuardSet<ShardGuard<'_>> {
        GuardSet::lock(set, |i| {
            let slot = &self.shards[i as usize];
            slot.write_locks.inc();
            ShardGuard::Write(slot.lock.write())
        })
    }

    /// Per-shard lock-acquisition counters.
    pub(crate) fn shard_stats(&self) -> Vec<ShardLockStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardLockStats {
                shard: i as u32,
                read_locks: s.read_locks.get(),
                write_locks: s.write_locks.get(),
            })
            .collect()
    }
}

/// Ended ARUs' descriptors an ARU slot keeps for the next to begin.
const SPARE_ARUS: usize = 4;

/// One ARU slot: the active ARUs whose ids hash to it, each boxed, and
/// the emptied descriptors of a few that ended, kept for the next ones
/// to begin. Beginning and ending an ARU allocates nothing once the
/// slot is warm, and moving one in or out of the slot moves a pointer.
#[derive(Debug, Default)]
pub(crate) struct AruSlot {
    active: BTreeMap<u64, Box<Aru>>,
    // Boxed: a descriptor moves between the two as a pointer.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Aru>>,
}

impl AruSlot {
    /// A descriptor for a new ARU `id`: a spare one if there is one.
    fn descriptor(&mut self, id: AruId, span: ActiveSpan) -> Box<Aru> {
        match self.spare.pop() {
            Some(mut aru) => {
                (aru.id, aru.span) = (id, span);
                aru
            }
            None => Box::new(Aru::new(id, span)),
        }
    }

    /// Begins ARU `id` in this slot.
    pub(crate) fn begin(&mut self, id: AruId, span: ActiveSpan) {
        let aru = self.descriptor(id, span);
        self.active.insert(id.get(), aru);
    }

    /// Keeps the descriptor of an ARU that has ended, emptied, for the
    /// next one to begin (while the slot keeps fewer than
    /// [`SPARE_ARUS`]).
    pub(crate) fn retire(&mut self, mut aru: Box<Aru>) {
        if self.spare.len() < SPARE_ARUS {
            *aru = Aru::new(aru.id, ActiveSpan::default());
            self.spare.push(aru);
        }
    }

    pub(crate) fn get(&self, raw: u64) -> Option<&Aru> {
        self.active.get(&raw).map(|a| &**a)
    }

    pub(crate) fn get_mut(&mut self, raw: u64) -> Option<&mut Aru> {
        self.active.get_mut(&raw).map(|a| &mut **a)
    }

    /// Ends ARU `raw` in this slot: its descriptor, for
    /// [`retire`](Self::retire) once the caller is done with it.
    pub(crate) fn remove(&mut self, raw: u64) -> Option<Box<Aru>> {
        self.active.remove(&raw)
    }

    /// The active ARUs' ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.active.keys().copied()
    }

    /// The active ARUs, by id.
    pub(crate) fn arus(&self) -> impl Iterator<Item = &Aru> {
        self.active.values().map(|a| &**a)
    }

    pub(crate) fn len(&self) -> usize {
        self.active.len()
    }
}

/// A held ARU slot.
pub(crate) type AruSlotGuard<'a> = MutexGuard<'a, AruSlot>;

/// How many guards a [`GuardSet`] holds without a heap allocation: the
/// default shard count, so that no session of a default disk, full ones
/// included, allocates for its locks.
const INLINE_GUARDS: usize = 8;

/// The guards of a set of shards (or ARU slots), in ascending index
/// order: the first [`INLINE_GUARDS`] inline, any further ones (a disk
/// with more shards) on the heap. `bits` names the held indexes, so a
/// guard's position is the number of held indexes below its own.
pub(crate) struct GuardSet<G> {
    bits: u64,
    inline: [Option<G>; INLINE_GUARDS],
    spill: Vec<G>,
}

impl<G> GuardSet<G> {
    /// Acquires `acquire(i)` for each set bit `i` of `set`, ascending.
    fn lock(set: u64, mut acquire: impl FnMut(u32) -> G) -> Self {
        let mut guards = GuardSet {
            bits: set,
            inline: Default::default(),
            spill: Vec::new(),
        };
        let (mut rest, mut pos) = (set, 0);
        while rest != 0 {
            let g = acquire(rest.trailing_zeros());
            rest &= rest - 1;
            match guards.inline.get_mut(pos) {
                Some(slot) => *slot = Some(g),
                None => guards.spill.push(g),
            }
            pos += 1;
        }
        guards
    }

    /// The position of index `idx`'s guard, if it is held.
    fn pos(&self, idx: u32) -> Option<usize> {
        let below = (1u64 << idx) - 1;
        (self.bits >> idx & 1 == 1).then(|| (self.bits & below).count_ones() as usize)
    }

    /// The guard of index `idx`, if held.
    pub(crate) fn get(&self, idx: u32) -> Option<&G> {
        let p = self.pos(idx)?;
        match self.inline.get(p) {
            Some(g) => g.as_ref(),
            None => self.spill.get(p - INLINE_GUARDS),
        }
    }

    /// The guard of index `idx`, if held, for writing.
    pub(crate) fn get_mut(&mut self, idx: u32) -> Option<&mut G> {
        let p = self.pos(idx)?;
        match self.inline.get_mut(p) {
            Some(g) => g.as_mut(),
            None => self.spill.get_mut(p - INLINE_GUARDS),
        }
    }

    /// How many guards are held.
    pub(crate) fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The held guards, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &G> {
        self.inline.iter().flatten().chain(&self.spill)
    }

    /// The held guards, ascending, for writing.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut G> {
        self.inline.iter_mut().flatten().chain(&mut self.spill)
    }
}

/// A held shard guard: shared for the read path, exclusive for
/// mutation sessions.
#[derive(Debug)]
pub(crate) enum ShardGuard<'a> {
    Read(RwLockReadGuard<'a, MapShard>),
    Write(RwLockWriteGuard<'a, MapShard>),
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = MapShard;
    fn deref(&self) -> &MapShard {
        match self {
            ShardGuard::Read(g) => g,
            ShardGuard::Write(g) => g,
        }
    }
}

/// How a view-level list walk ended.
#[derive(Debug)]
pub(crate) enum WalkOutcome {
    /// The whole list was reachable through the held shards.
    Done { members: Vec<BlockId>, steps: u64 },
    /// The walk reached an identifier whose shard is not held; the
    /// caller escalates (read path) or has a shard-plan bug (mutation).
    NeedShard(u32),
}

/// A set of held mapping-layer locks: some ARU slots and some shards,
/// each sorted ascending. Both the concurrent read path (shared shard
/// guards) and mutation sessions (exclusive guards) query the version
/// states through this one type, so the standardised search
/// (shadow → committed → persistent) is written once.
pub(crate) struct MapView<'a> {
    nshards: u32,
    shards: GuardSet<ShardGuard<'a>>,
    arus: GuardSet<AruSlotGuard<'a>>,
    /// The commit-validation scratch ARU (id [`SCRATCH_ARU_RAW`]),
    /// resolved ahead of the slot table by [`aru`](Self::aru).
    scratch: Option<Box<Aru>>,
}

impl<'a> MapView<'a> {
    pub(crate) fn new(
        nshards: u32,
        arus: GuardSet<AruSlotGuard<'a>>,
        shards: GuardSet<ShardGuard<'a>>,
    ) -> Self {
        MapView {
            nshards,
            shards,
            arus,
            scratch: None,
        }
    }

    pub(crate) fn shard_of(&self, raw: u64) -> u32 {
        (raw & (u64::from(self.nshards) - 1)) as u32
    }

    pub(crate) fn holds_all_shards_write(&self) -> bool {
        self.shards.len() == self.nshards as usize
            && self
                .shards
                .iter()
                .all(|g| matches!(g, ShardGuard::Write(_)))
    }

    pub(crate) fn try_shard(&self, idx: u32) -> Option<&MapShard> {
        self.shards.get(idx).map(|g| &**g)
    }

    pub(crate) fn shard_mut(&mut self, idx: u32) -> &mut MapShard {
        let g = self
            .shards
            .get_mut(idx)
            .unwrap_or_else(|| panic!("session does not hold map shard {idx}"));
        match g {
            ShardGuard::Write(g) => g,
            ShardGuard::Read(_) => panic!("session holds map shard {idx} only for reading"),
        }
    }

    /// The held shard that owns `id`, for writing.
    pub(crate) fn owner_mut<I: MapId>(&mut self, id: I) -> &mut MapShard {
        self.shard_mut(self.shard_of(id.raw()))
    }

    // ------------------------------------------------------------------
    // ARU descriptor access
    // ------------------------------------------------------------------

    fn aru_slot(&self, raw: u64) -> &AruSlot {
        let idx = self.shard_of(raw);
        (self.arus.get(idx)).unwrap_or_else(|| panic!("session does not hold ARU slot {idx}"))
    }

    fn aru_slot_mut(&mut self, raw: u64) -> &mut AruSlot {
        let idx = self.shard_of(raw);
        (self.arus.get_mut(idx)).unwrap_or_else(|| panic!("session does not hold ARU slot {idx}"))
    }

    pub(crate) fn aru(&self, raw: u64) -> Option<&Aru> {
        if raw == SCRATCH_ARU_RAW {
            return self.scratch.as_deref();
        }
        self.aru_slot(raw).get(raw)
    }

    pub(crate) fn aru_mut(&mut self, raw: u64) -> Option<&mut Aru> {
        if raw == SCRATCH_ARU_RAW {
            return self.scratch.as_deref_mut();
        }
        self.aru_slot_mut(raw).get_mut(raw)
    }

    pub(crate) fn aru_contains(&self, raw: u64) -> bool {
        self.aru(raw).is_some()
    }

    /// Ends ARU `raw`: its descriptor, which the caller hands back to
    /// [`retire`](Self::retire) once done with it.
    pub(crate) fn aru_remove(&mut self, raw: u64) -> Option<Box<Aru>> {
        self.aru_slot_mut(raw).remove(raw)
    }

    /// Keeps the descriptor of an ARU that has ended for the next one
    /// to begin in its slot.
    pub(crate) fn retire(&mut self, aru: Box<Aru>) {
        self.aru_slot_mut(aru.id.get()).retire(aru);
    }

    /// Begins the commit-validation scratch ARU in a descriptor of the
    /// held slot of ARU `raw`.
    pub(crate) fn begin_scratch(&mut self, raw: u64) {
        let id = AruId::new(SCRATCH_ARU_RAW);
        self.scratch = Some(self.aru_slot_mut(raw).descriptor(id, ActiveSpan::default()));
    }

    /// Ends the scratch ARU, its descriptor back to the slot of `raw`.
    pub(crate) fn end_scratch(&mut self, raw: u64) {
        if let Some(aru) = self.scratch.take() {
            self.aru_slot_mut(raw).retire(aru);
        }
    }

    /// Iterates the ARUs in every *held* slot (callers that need all
    /// ARUs hold every slot).
    pub(crate) fn arus_held(&self) -> impl Iterator<Item = &Aru> {
        self.arus.iter().flat_map(|m| m.arus())
    }

    pub(crate) fn held_aru_count(&self) -> usize {
        self.arus.iter().map(|m| m.len()).sum()
    }

    // ------------------------------------------------------------------
    // Version-state access (the standardised search)
    // ------------------------------------------------------------------

    /// Resolves a record in the given state (shadow → committed →
    /// persistent) through shards that may not all be held: `Err`
    /// carries the missing shard index. May return a deallocated record.
    fn try_view<I: MapId>(&self, st: StateRef, id: I) -> std::result::Result<Option<&I::Rec>, u32> {
        if let StateRef::Shadow(aru) = st {
            if let Some(rec) = self
                .aru(aru.get())
                .and_then(|a| I::overlay(&a.shadow).get(&id))
            {
                return Ok(Some(rec));
            }
        }
        let idx = self.shard_of(id.raw());
        let sh = self.try_shard(idx).ok_or(idx)?;
        Ok(I::overlay(&sh.committed)
            .get(&id)
            .or_else(|| sh.persistent.get(id)))
    }

    /// Resolves a record in the given state, as
    /// [`try_view`](Self::try_view) does.
    ///
    /// # Panics
    ///
    /// Panics if the identifier's shard is not held — mutation shard
    /// plans cover every identifier they touch, and the read path uses
    /// [`walk_list`](Self::walk_list) (which escalates) instead.
    pub(crate) fn view<I: MapId>(&self, st: StateRef, id: I) -> Option<&I::Rec> {
        self.try_view(st, id)
            .unwrap_or_else(|idx| panic!("session does not hold map shard {idx}"))
    }

    /// The committed view of a record: committed overlay, falling
    /// through to the persistent table.
    pub(crate) fn committed_view<I: MapId>(&self, id: I) -> Option<&I::Rec> {
        self.view(StateRef::Committed, id)
    }

    /// Walks `list` in state `st` through the held shards, returning
    /// the member blocks in order plus the number of steps taken, or
    /// the shard index the walk would need next.
    ///
    /// # Errors
    ///
    /// [`LldError::ListNotAllocated`] if the list does not exist in the
    /// state; [`LldError::Corrupt`] on a cycle or dangling successor.
    pub(crate) fn walk_list(
        &self,
        st: StateRef,
        list: ListId,
        max_blocks: u64,
    ) -> Result<WalkOutcome> {
        let rec = match self.try_view(st, list) {
            Err(s) => return Ok(WalkOutcome::NeedShard(s)),
            Ok(r) => r
                .filter(|r| r.allocated)
                .ok_or(LldError::ListNotAllocated(list))?,
        };
        let mut out = Vec::new();
        let mut cur = rec.first;
        let bound = max_blocks + 1;
        let mut steps = 0u64;
        while let Some(b) = cur {
            steps += 1;
            if steps > bound {
                return Err(LldError::Corrupt(format!("cycle while walking {list}")));
            }
            let brec = match self.try_view(st, b) {
                Err(s) => return Ok(WalkOutcome::NeedShard(s)),
                Ok(r) => r.filter(|r| r.allocated).ok_or_else(|| {
                    LldError::Corrupt(format!("list {list} references missing block {b}"))
                })?,
            };
            out.push(b);
            cur = brec.successor;
        }
        Ok(WalkOutcome::Done {
            members: out,
            steps,
        })
    }

    /// Validates that an insertion of a block into `list` at `pos` is
    /// possible in state `st` (list allocated; predecessor allocated and
    /// on the list).
    pub(crate) fn validate_insert(&self, st: StateRef, list: ListId, pos: Position) -> Result<()> {
        self.view(st, list)
            .filter(|r| r.allocated)
            .ok_or(LldError::ListNotAllocated(list))?;
        if let Position::After(pred) = pos {
            let p = self
                .view(st, pred)
                .filter(|r| r.allocated)
                .ok_or(LldError::BlockNotAllocated(pred))?;
            if p.list != Some(list) {
                return Err(LldError::PredecessorNotOnList { list, pred });
            }
        }
        Ok(())
    }

    /// Iterates every held shard (full sessions hold all of them).
    pub(crate) fn shards_held(&self) -> impl Iterator<Item = &MapShard> {
        self.shards.iter().map(|g| &**g)
    }

    /// Drains the committed overlay of every held (write-locked) shard
    /// into its persistent tables, returning the number of records
    /// drained. Scoped sessions drain only their own shards; the full
    /// drain happens under full sessions (checkpoint, recovery).
    pub(crate) fn drain_committed(&mut self) -> u64 {
        let mut n = 0u64;
        for g in self.shards.iter_mut() {
            if let ShardGuard::Write(sh) = g {
                n += sh.committed.len() as u64;
                let sh = &mut **sh;
                // Copy-on-advance: a checkpoint has chosen its covered
                // point but not yet snapshotted this shard —
                // preserve the persistent tables as of that point before
                // draining newer committed records into them.
                if sh.snap_pending && !sh.committed.is_empty() && sh.snap_copy.is_none() {
                    sh.snap_copy = Some(sh.persistent.clone());
                }
                sh.committed.drain_into(&mut sh.persistent);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_shards_stripe_the_id_space() {
        fn stripes<I: MapId>() {
            let maps = Maps::fresh(4);
            let mut seen = BTreeSet::new();
            let mut guards = maps.lock_write(maps.all_set());
            for (i, g) in guards.iter_mut().enumerate() {
                let sh = match g {
                    ShardGuard::Write(g) => &mut **g,
                    ShardGuard::Read(_) => unreachable!(),
                };
                for _ in 0..3 {
                    let raw = I::stripe(sh).alloc(4, u64::MAX).unwrap();
                    assert_eq!(raw % 4, i as u64 % 4);
                    assert_ne!(raw, 0);
                    assert!(seen.insert(raw), "duplicate id {raw}");
                }
            }
        }
        stripes::<BlockId>();
        stripes::<ListId>();
    }

    /// A stripe hands out its free identifiers first, and grows only
    /// below the bound.
    #[test]
    fn a_stripe_grows_only_below_its_bound() {
        let mut stripe = IdStripe {
            next_raw: 12,
            free: BTreeSet::from([4]),
        };
        assert_eq!(stripe.alloc(4, 16), Some(4));
        assert_eq!(stripe.alloc(4, 16), Some(12));
        assert_eq!(stripe.alloc(4, 16), None);
        assert_eq!(stripe.next_raw, 16);
    }

    #[test]
    fn reserve_respects_limit() {
        fn reserve<I: MapId>() {
            let maps = Maps::fresh(2);
            assert!(maps.try_reserve::<I>(2).is_ok());
            assert!(maps.try_reserve::<I>(2).is_ok());
            assert!(matches!(maps.try_reserve::<I>(2), Err(LldError::DiskFull)));
            maps.unreserve::<I>();
            assert!(maps.try_reserve::<I>(2).is_ok());
            assert_eq!(I::reserved(&maps).load(Ordering::Relaxed), 2);
        }
        reserve::<BlockId>();
        reserve::<ListId>();
    }
}
