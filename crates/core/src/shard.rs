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
    pub(crate) fn alloc(&mut self, n: u64) -> u64 {
        self.free.pop_first().unwrap_or_else(|| {
            let raw = self.next_raw;
            self.next_raw += n;
            raw
        })
    }

    /// Records that `raw` is in use (recovery: a snapshot entry or a
    /// replayed allocation): it leaves the free set and the allocator is
    /// raised past it.
    pub(crate) fn note(&mut self, raw: u64, n: u64) {
        self.free.remove(&raw);
        self.next_raw = self.next_raw.max(raw + n);
    }
}

/// Smallest valid identifier owned by shard `idx` that is `>= floor`
/// (identifier 0 is reserved, so shard 0's stripe starts at `n`).
pub(crate) fn striped_ceil(floor: u64, idx: u32, n: u64) -> u64 {
    let floor = floor.max(1);
    let r = floor % n;
    floor + ((u64::from(idx) + n - r) % n)
}

impl MapShard {
    fn fresh(idx: u32, n: u64) -> Self {
        let stripe = || IdStripe {
            next_raw: striped_ceil(1, idx, n),
            free: BTreeSet::new(),
        };
        MapShard {
            persistent: Tables::default(),
            committed: StateOverlay::default(),
            block_ids: stripe(),
            list_ids: stripe(),
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
    arus: Vec<Mutex<BTreeMap<u64, Aru>>>,
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
                    lock: RwLock::new(MapShard::fresh(i, n)),
                    read_locks: Counter::default(),
                    write_locks: Counter::default(),
                })
                .collect(),
            arus: (0..nshards).map(|_| Mutex::new(BTreeMap::new())).collect(),
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

    fn bits(&self, set: u64) -> impl Iterator<Item = u32> + '_ {
        (0..self.nshards()).filter(move |i| set & (1u64 << i) != 0)
    }

    /// Locks the ARU slots in `set`, ascending.
    pub(crate) fn lock_arus(&self, set: u64) -> Vec<(u32, MutexGuard<'_, BTreeMap<u64, Aru>>)> {
        self.bits(set)
            .map(|i| (i, self.arus[i as usize].lock()))
            .collect()
    }

    /// Read-locks the shards in `set`, ascending.
    pub(crate) fn lock_read(&self, set: u64) -> Vec<(u32, ShardGuard<'_>)> {
        self.bits(set)
            .map(|i| {
                let slot = &self.shards[i as usize];
                slot.read_locks.inc();
                (i, ShardGuard::Read(slot.lock.read()))
            })
            .collect()
    }

    /// Write-locks the shards in `set`, ascending.
    pub(crate) fn lock_write(&self, set: u64) -> Vec<(u32, ShardGuard<'_>)> {
        self.bits(set)
            .map(|i| {
                let slot = &self.shards[i as usize];
                slot.write_locks.inc();
                (i, ShardGuard::Write(slot.lock.write()))
            })
            .collect()
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
    shards: Vec<(u32, ShardGuard<'a>)>,
    arus: Vec<(u32, MutexGuard<'a, BTreeMap<u64, Aru>>)>,
    /// The commit-validation scratch ARU (id [`SCRATCH_ARU_RAW`]),
    /// resolved ahead of the slot table by [`aru`](Self::aru).
    pub(crate) scratch: Option<Aru>,
}

impl<'a> MapView<'a> {
    pub(crate) fn new(
        nshards: u32,
        arus: Vec<(u32, MutexGuard<'a, BTreeMap<u64, Aru>>)>,
        shards: Vec<(u32, ShardGuard<'a>)>,
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
                .all(|(_, g)| matches!(g, ShardGuard::Write(_)))
    }

    fn shard_pos(&self, idx: u32) -> Option<usize> {
        self.shards.binary_search_by_key(&idx, |(i, _)| *i).ok()
    }

    pub(crate) fn try_shard(&self, idx: u32) -> Option<&MapShard> {
        self.shard_pos(idx).map(|p| &*self.shards[p].1)
    }

    pub(crate) fn shard_mut(&mut self, idx: u32) -> &mut MapShard {
        let p = self
            .shard_pos(idx)
            .unwrap_or_else(|| panic!("session does not hold map shard {idx}"));
        match &mut self.shards[p].1 {
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

    fn aru_slot(&self, raw: u64) -> &BTreeMap<u64, Aru> {
        let idx = self.shard_of(raw);
        let p = self
            .arus
            .binary_search_by_key(&idx, |(i, _)| *i)
            .unwrap_or_else(|_| panic!("session does not hold ARU slot {idx}"));
        &self.arus[p].1
    }

    fn aru_slot_mut(&mut self, raw: u64) -> &mut BTreeMap<u64, Aru> {
        let idx = self.shard_of(raw);
        let p = self
            .arus
            .binary_search_by_key(&idx, |(i, _)| *i)
            .unwrap_or_else(|_| panic!("session does not hold ARU slot {idx}"));
        &mut self.arus[p].1
    }

    pub(crate) fn aru(&self, raw: u64) -> Option<&Aru> {
        if raw == SCRATCH_ARU_RAW {
            return self.scratch.as_ref();
        }
        self.aru_slot(raw).get(&raw)
    }

    pub(crate) fn aru_mut(&mut self, raw: u64) -> Option<&mut Aru> {
        if raw == SCRATCH_ARU_RAW {
            return self.scratch.as_mut();
        }
        self.aru_slot_mut(raw).get_mut(&raw)
    }

    pub(crate) fn aru_contains(&self, raw: u64) -> bool {
        self.aru(raw).is_some()
    }

    pub(crate) fn aru_remove(&mut self, raw: u64) -> Option<Aru> {
        if raw == SCRATCH_ARU_RAW {
            return self.scratch.take();
        }
        self.aru_slot_mut(raw).remove(&raw)
    }

    /// Iterates the ARUs in every *held* slot (callers that need all
    /// ARUs hold every slot).
    pub(crate) fn arus_held(&self) -> impl Iterator<Item = &Aru> {
        self.arus.iter().flat_map(|(_, m)| m.values())
    }

    pub(crate) fn held_aru_count(&self) -> usize {
        self.arus.iter().map(|(_, m)| m.len()).sum()
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
                .and_then(|a| I::table(&a.shadow).get(&id))
            {
                return Ok(Some(rec));
            }
        }
        let idx = self.shard_of(id.raw());
        let sh = self.try_shard(idx).ok_or(idx)?;
        Ok(I::table(&sh.committed)
            .get(&id)
            .or_else(|| I::table(&sh.persistent).get(&id)))
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
        self.shards.iter().map(|(_, g)| &**g)
    }

    /// Drains the committed overlay of every held (write-locked) shard
    /// into its persistent tables, returning the number of records
    /// drained. Scoped sessions drain only their own shards; the full
    /// drain happens under full sessions (checkpoint, recovery).
    pub(crate) fn drain_committed(&mut self) -> u64 {
        let mut n = 0u64;
        for (_, g) in &mut self.shards {
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
    fn striped_ceil_respects_congruence_and_floor() {
        for n in [1u64, 2, 4, 8, 64] {
            for idx in 0..n as u32 {
                for floor in [0u64, 1, 2, 7, 8, 9, 100] {
                    let v = striped_ceil(floor, idx, n);
                    assert_eq!(v % n, u64::from(idx) % n, "n={n} idx={idx} floor={floor}");
                    assert!(v >= floor.max(1), "n={n} idx={idx} floor={floor} v={v}");
                    assert!(v < floor.max(1) + n);
                    assert_ne!(v, 0);
                }
            }
        }
    }

    #[test]
    fn fresh_shards_stripe_the_id_space() {
        fn stripes<I: MapId>() {
            let maps = Maps::fresh(4);
            let mut seen = BTreeSet::new();
            let mut guards = maps.lock_write(maps.all_set());
            for (i, g) in &mut guards {
                let sh = match g {
                    ShardGuard::Write(g) => &mut **g,
                    ShardGuard::Read(_) => unreachable!(),
                };
                for _ in 0..3 {
                    let raw = I::stripe(sh).alloc(4);
                    assert_eq!(raw % 4, u64::from(*i) % 4);
                    assert_ne!(raw, 0);
                    assert!(seen.insert(raw), "duplicate id {raw}");
                }
            }
        }
        stripes::<BlockId>();
        stripes::<ListId>();
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
