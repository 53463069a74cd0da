//! The logical disk proper: the layered state (sharded mapping layer,
//! log state behind an append mutex), struct definition, formatting,
//! segment plumbing, and the version-state access helpers shared by all
//! operations.
//!
//! The mapping layer is hash-partitioned into shards (see
//! [`crate::shard`]): operations lock only the ARU slots and map shards
//! they touch, so disjoint-ARU writers proceed in parallel, while
//! multi-shard operations (cross-shard commits, the cleaner, the
//! checkpointer) acquire their locks in ascending index order through
//! the same [`Mutation`] session type.
//!
//! See `docs/CONCURRENCY.md` for the lock hierarchy and the invariants
//! each lock protects.

use crate::aru::Aru;
use crate::cache::BlockCache;
use crate::cleanerd::Cleanerd;
use crate::config::{CleanerConfig, ConcurrencyMode, LldConfig, ReadVisibility};
use crate::error::{LldError, Result};
use crate::flight::FlightRecorder;
use crate::gc::GroupCommit;
use crate::layout::{Layout, FRONT_LEN, SUPERBLOCK_LEN};
use crate::obs::{Obs, ObsSnapshot, Stage, TraceEvent};
use crate::segment::{
    extent, header_link, sector_offset, zero_past_extent, ChainHead, SegmentBuilder, HEADER_LEN,
    HEADER_PUNCH, NO_SLOT,
};
use crate::shard::{AruSlotGuard, GuardSet, MapView, Maps, WalkOutcome};
use crate::state::{BlockRecord, IdSet, ListRecord, MapId};
use crate::stats::{LldStats, StatsCell};
use crate::summary::{Record, WRITE_REC_LEN};
use crate::types::{AruId, BlockId, ListId, PhysAddr, Position, SegmentId, Timestamp};
use ld_disk::BlockDevice;
use ld_disk::Mutex;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

pub(crate) use crate::shard::{ShardLockStats, StateRef};

/// What an allocated block and an allocated list weigh in the suffix
/// bound (`seal_current`): a seal asks for a checkpoint once the summary
/// records past the last one, each at its
/// [`suffix_weight`](Record::suffix_weight) (its format 8 width in
/// bytes), reach the weight of the tables. A rule of thumb for what
/// replaying a suffix costs against loading a snapshot, not the
/// snapshot's size: these were format 4's entry sizes, and a format 8
/// slab is about a tenth of that (docs/RECOVERY.md "The suffix bound").
const SUFFIX_WEIGHT_BLOCK: u64 = 40;
const SUFFIX_WEIGHT_LIST: u64 = 32;

/// The least record weight past a checkpoint that asks for the next
/// one: a nearly empty disk's tables are smaller than any one flush.
const MIN_SUFFIX_WEIGHT: u64 = 64 << 10;

/// The log state: the open segment builder and the slot / sequence /
/// free-slot / live-block accounting behind it, plus the cleaner and
/// checkpoint cursors. Serialized by a single append mutex.
#[derive(Debug)]
pub(crate) struct LogState {
    /// The segment currently being filled in memory. `None` only
    /// transiently (mid-roll) or when the disk is full.
    pub(crate) builder: Option<SegmentBuilder>,
    /// Per physical slot: log sequence number of the newest sealed
    /// segment it holds (0 = none/invalid). A checkpoint that covers it
    /// covers every segment in the slot.
    pub(crate) slot_seq: Vec<u64>,
    /// Physical slots available for new segments.
    pub(crate) free_slots: BTreeSet<u32>,
    /// Per physical slot: the blocks whose current address is in it
    /// (the cleaner's work list).
    pub(crate) residents: Vec<IdSet<BlockId>>,
    /// Per physical slot: the sectors its residents' extents take (its
    /// live count). `add_resident` / `remove_resident` keep the two.
    pub(crate) live_sectors: Vec<u64>,
    pub(crate) next_seq: u64,
    /// Where the log goes on behind the last sealed segment, and that
    /// segment's header CRC (`link`, 0 before the first: the `prev_link`
    /// of the next one). With a builder open, its position. Without
    /// one, what the last sealed header points at until
    /// [`open_segment`](Mutation::open_segment) takes it: behind that
    /// segment in its own slot, the ends of a fresh slot, which stays in
    /// `free_slots` meanwhile, or [`NO_SLOT`].
    pub(crate) tail: ChainHead,
    /// Salt for the segment headers this mount writes (see
    /// `segment.rs`): drawn per format or recovery from the standard
    /// library's per-process random source.
    pub(crate) epoch: u32,
    /// Highest segment sequence number covered by an on-disk checkpoint.
    pub(crate) checkpoint_seq: u64,
    /// Summary records sealed so far, each at its
    /// [`suffix_weight`](Record::suffix_weight), and the count at the
    /// covered point of the last checkpoint: the suffix in the unit a
    /// restart pays for replaying it (see
    /// [`seal_current`](Mutation::seal_current)).
    pub(crate) summary_sealed: u64,
    pub(crate) checkpoint_summary: u64,
    /// A reserve pass is running ([`Mutation::compact`]).
    pub(crate) cleaning: bool,
    /// Sealed segments whose device write has not returned, oldest
    /// first; the waiters of [`LldInner::written`] watch the lowest
    /// sequence number here (docs/INVARIANTS.md I4, W1–W4).
    pub(crate) inflight: VecDeque<Arc<SegmentBuilder>>,
    /// Per slot: the last segment sealed when the cleaner released it.
    /// The slot is not written while that one or an older is in flight.
    pub(crate) reuse_after: Vec<u64>,
    /// The first segment write that failed. Sticky: every later flush
    /// and checkpoint reports it.
    pub(crate) write_error: Option<LldError>,
}

impl LogState {
    pub(crate) fn fresh(n_segments: usize) -> Self {
        LogState {
            builder: None,
            slot_seq: vec![0; n_segments],
            free_slots: (0..n_segments as u32).collect(),
            residents: vec![IdSet::default(); n_segments],
            live_sectors: vec![0; n_segments],
            next_seq: 1,
            tail: ChainHead {
                slot: NO_SLOT,
                base: 0,
                top: 0,
                link: 0,
            },
            epoch: RandomState::new().build_hasher().finish() as u32,
            checkpoint_seq: 0,
            summary_sealed: 0,
            checkpoint_summary: 0,
            cleaning: false,
            inflight: VecDeque::new(),
            reuse_after: vec![0; n_segments],
            write_error: None,
        }
    }

    /// The written watermark: every segment below it is on the device.
    pub(crate) fn watermark(&self) -> u64 {
        self.inflight.front().map_or(u64::MAX, |s| s.seq())
    }

    /// Enters `id` as a resident of the slot `addr` names.
    pub(crate) fn add_resident(&mut self, id: BlockId, addr: PhysAddr) {
        let slot = addr.segment.get() as usize;
        if self.residents[slot].insert(id) {
            self.live_sectors[slot] += u64::from(addr.sectors);
        }
    }

    /// Takes `id`, whose address was `addr`, out of its slot's residents.
    fn remove_resident(&mut self, id: BlockId, addr: PhysAddr) {
        let slot = addr.segment.get() as usize;
        if self.residents[slot].remove(&id) {
            self.live_sectors[slot] -= u64::from(addr.sectors);
        }
    }

    /// Hands `slot` back for reuse: behind everything sealed so far and
    /// the open segment, which may hold the records that emptied it.
    pub(crate) fn release_slot(&mut self, slot: u32) {
        self.slot_seq[slot as usize] = 0;
        self.reuse_after[slot as usize] = self.next_seq - 1;
        self.free_slots.insert(slot);
    }

    /// What a checkpoint taken now covers and records: the sequence
    /// number of the last sealed segment, and where the log continues.
    pub(crate) fn covered_point(&self) -> (u64, ChainHead) {
        let covered = match &self.builder {
            Some(b) => b.seq() - 1,
            None => self.next_seq - 1,
        };
        (covered, self.tail)
    }

    /// The slot the log is being written into: the builder's, or the one
    /// the last sealed segment continues in. It holds sealed segments
    /// and is not in `free_slots`, but it is not the cleaner's yet.
    pub(crate) fn open_slot(&self) -> Option<u32> {
        match &self.builder {
            Some(b) => Some(b.slot().get()),
            None => self.tail.in_slot().then_some(self.tail.slot),
        }
    }
}

/// The log-structured Logical Disk with atomic recovery units.
///
/// `Lld` implements the LD interface — `Read`, `Write`, `NewBlock`,
/// `DeleteBlock`, `NewList`, `DeleteList`, `Flush` — extended with
/// `BeginARU` / `EndARU` ([`begin_aru`](LldInner::begin_aru),
/// [`end_aru`](LldInner::end_aru)). All operations bracketed by an ARU become
/// persistent atomically: after a crash, recovery
/// ([`Lld::recover`]) restores either all or none of them.
///
/// Every operation takes `&self`: the disk locks internally (a sharded
/// readers-writer mapping layer, a mutex over the log state, and a
/// group-commit stage batching concurrent flushes), so one `Lld` can be
/// shared between OS threads directly — e.g. as an `Arc<Lld<D>>`, or by
/// reference from scoped threads — with reads proceeding concurrently
/// and writers in disjoint ARUs touching disjoint shard locks.
/// Concurrency of *ARUs* is independent of threads: each thread (or
/// interleaved logical stream) brackets its own operations with its own
/// ARU.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ld_core::LldError> {
/// use ld_core::{Ctx, Lld, LldConfig, Position};
/// use ld_disk::MemDisk;
///
/// let ld = Lld::format(MemDisk::new(4 << 20), &LldConfig {
///     block_size: 512,
///     segment_bytes: 16 * 512,
///     ..LldConfig::default()
/// })?;
///
/// // Create a file's metadata and data atomically.
/// let aru = ld.begin_aru()?;
/// let list = ld.new_list(Ctx::Aru(aru))?;
/// let block = ld.new_block(Ctx::Aru(aru), list, Position::First)?;
/// ld.write(Ctx::Aru(aru), block, &[7u8; 512])?;
/// ld.end_aru(aru)?;
///
/// let mut buf = [0u8; 512];
/// ld.read(Ctx::Simple, block, &mut buf)?;
/// assert_eq!(buf[0], 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lld<D> {
    /// Shared with the background cleaner thread (when enabled); `None`
    /// only after [`into_device`](Lld::into_device) took the state out.
    inner: Option<Arc<LldInner<D>>>,
}

impl<D> std::ops::Deref for Lld<D> {
    type Target = LldInner<D>;
    fn deref(&self) -> &LldInner<D> {
        self.inner.as_ref().expect("logical disk already consumed")
    }
}

impl<D> Drop for Lld<D> {
    /// Stops and joins the background cleaner thread, if running.
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.cleanerd.shutdown_and_join();
        }
    }
}

impl<D> Lld<D> {
    /// Wraps freshly built shared state (format / recovery).
    pub(crate) fn from_inner(inner: LldInner<D>) -> Self {
        Lld {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Clones the shared-state handle (the background cleaner thread
    /// holds one of these).
    pub(crate) fn arc_inner(&self) -> Arc<LldInner<D>> {
        self.inner
            .as_ref()
            .expect("logical disk already consumed")
            .clone()
    }

    /// Consumes the logical disk and returns the device. Un-flushed
    /// committed state is *not* written; this models a crash. The
    /// background cleaner thread, if running, is stopped and joined
    /// first.
    pub fn into_device(mut self) -> D {
        let inner = self.inner.take().expect("logical disk already consumed");
        inner.cleanerd.shutdown_and_join();
        Arc::into_inner(inner)
            .expect("only the cleaner thread shares the state, and it is joined")
            .device
    }
}

/// The shared state and implementation behind [`Lld`].
///
/// Every public handle (`Lld`) dereferences to one of these; the
/// background cleaner thread holds its own `Arc` to the same state. All
/// operations documented on [`Lld`] live here and are reached through
/// auto-deref.
#[derive(Debug)]
pub struct LldInner<D> {
    pub(crate) device: D,
    pub(crate) layout: Layout,
    pub(crate) concurrency: ConcurrencyMode,
    pub(crate) visibility: ReadVisibility,
    pub(crate) cleaner_cfg: CleanerConfig,

    /// The sharded mapping layer (see [`crate::shard`]). Lock order:
    /// ARU slots ascending, then map shards ascending, then `log`.
    pub(crate) maps: Maps,
    /// The log state (see [`LogState`]).
    pub(crate) log: Mutex<LogState>,
    /// Paired with `log`: notified when a segment leaves
    /// [`LogState::inflight`]. Its waiters hold nothing the writer
    /// needs: retiring takes `log` alone.
    pub(crate) written: ld_disk::Condvar,
    /// Data-block read cache (leaf lock, held only across one probe or
    /// insert).
    pub(crate) cache: Mutex<BlockCache>,
    /// The group-commit stage batching concurrent flushes.
    pub(crate) gc: GroupCommit,
    /// Checkpoint-area I/O state: which A/B area the next checkpoint
    /// writes (see `checkpoint.rs`). The checkpoint writer holds it
    /// from *begin* to *commit*, so writers take turns. The first lock
    /// in the order, taken only between sessions: no session ever
    /// waits for a checkpoint writer.
    pub(crate) ckpt_io: Mutex<crate::checkpoint::CkptSlots>,
    /// The write-id dedup cache for exactly-once networked commits (see
    /// `dedup.rs` and docs/PROTOCOL.md). In the lock order it sits
    /// after `log` and before `ckpt_io`: the commit path records
    /// outcomes while holding its session so a concurrent checkpoint
    /// can never observe a journaled write-id without its cache entry,
    /// and the checkpoint writer snapshots it before touching
    /// `ckpt_io`.
    pub(crate) dedup: Mutex<crate::dedup::DedupCache>,
    /// Wakes sessions waiting for an in-flight tagged commit of the
    /// same write-id to resolve.
    pub(crate) dedup_cv: ld_disk::Condvar,

    /// The logical operation clock.
    pub(crate) ts_counter: AtomicU64,
    /// Lock-free mirror of `log.free_slots.len()`: scoped sessions
    /// cannot run the reserve pass (it touches every shard), so
    /// operations consult this hint and route through a full session
    /// when free segments are scarce enough that a roll may find no
    /// slot.
    pub(crate) free_slots_hint: AtomicU64,
    /// Set by a roll that left free slots below the emergency level
    /// where no thread took the work; drained by
    /// [`after_session`](LldInner::after_session), which runs the round.
    pub(crate) needs_clean: AtomicBool,
    /// Set by a seal that leaves `n_segments` or more segments past the
    /// last checkpoint, summary records that weigh as much as the
    /// tables, or free slots at the emergency level with the emptiest
    /// slot uncovered (see [`checkpoint_due`](LldInner::checkpoint_due));
    /// the session that finds it sees to one when it ends
    /// ([`after_session`](LldInner::after_session)).
    pub(crate) needs_checkpoint: AtomicBool,
    /// The last segment a barrier that returned `Ok` vouches for
    /// (docs/INVARIANTS.md I4, "Across a barrier"). `Relaxed`: it
    /// publishes no memory, and a stale read costs one more barrier.
    pub(crate) barrier_covers: AtomicU64,
    pub(crate) stats: StatsCell,
    pub(crate) obs: Obs,
    /// Coordination state of the background cleaner thread (a leaf
    /// lock: never held while acquiring any mapping-layer or log lock).
    pub(crate) cleanerd: Cleanerd,
    /// The crash flight recorder, when a dump directory is configured
    /// ([`LldConfig::flight_dir`] / `LD_ARU_FLIGHT_DIR`).
    pub(crate) flight: Option<FlightRecorder>,
}

/// An exclusive mutation session: a set of ARU slots and map shards
/// locked exclusively (in the canonical ascending order), plus the log
/// mutex, acquired lazily on first use.
///
/// Every operation that changes the mapping or the log runs inside one
/// of these — a *full* session ([`LldInner::with_mutation`]) holding
/// every slot and shard, or a *scoped* one
/// ([`LldInner::with_mutation_at`]) holding only the shards its
/// identifiers hash to. The helpers below are the single-threaded core
/// of the disk, unchanged in spirit from the paper's prototype — the
/// session simply makes the exclusivity explicit.
pub(crate) struct Mutation<'a, D> {
    pub(crate) lld: &'a LldInner<D>,
    pub(crate) map: MapView<'a>,
    pub(crate) log_guard: Option<MutexGuard<'a, LogState>>,
    /// The segment this session sealed and has not written (see
    /// [`seal_current`](Self::seal_current)).
    pending: Option<Arc<SegmentBuilder>>,
    /// The session's caller waits for its seal to be on the device (the
    /// flush leader, W1): the epilogue writes it and offers it to nobody.
    seal_awaited: bool,
    /// Sequence number of the open segment, while this session logs a
    /// unit that it has checked ends there, commit record and all: the
    /// unit's tagged writes may absorb, or free the sectors of what they
    /// supersede (docs/INVARIANTS.md I5). Set and
    /// cleared by `commit_concurrent`.
    pub(crate) unit_ends_in: Option<u64>,
}

impl<D: BlockDevice + 'static> Lld<D> {
    /// Formats `device` as a fresh, empty logical disk.
    ///
    /// Existing segment headers and checkpoints on the device are
    /// invalidated so that recovery can never resurrect state from a
    /// previous format.
    ///
    /// When `config.cleaner.background` is set the background cleaner
    /// thread is started (see docs/CLEANER.md).
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Config`] for an invalid configuration or a
    /// device too small for four segments, and device errors.
    pub fn format(device: D, config: &LldConfig) -> Result<Self> {
        config.validate()?;
        let layout = Layout::compute(device.capacity(), config)?;

        // Write the superblock and, in the same write, invalidate both
        // checkpoint headers behind it; then the header at the back of
        // every slot. Segments of the previous log further inside a
        // slot stay on the medium: the new log starts at the back of
        // slot 0 under a new epoch, and none of them links to it.
        let mut front = [0u8; FRONT_LEN];
        front[..SUPERBLOCK_LEN]
            .copy_from_slice(&layout.encode_superblock(config.concurrency, config.visibility));
        device.write_at(0, &front)?;
        for slot in 0..layout.n_segments {
            let end = sector_offset(&layout, slot, layout.sectors_per_slot());
            device.write_at(end - HEADER_LEN as u64, &HEADER_PUNCH)?;
        }
        device.flush()?;

        let ld = Lld::from_inner(LldInner::new(device, layout, config));
        ld.with_mutation(|m| m.open_segment(0))?;
        crate::cleanerd::spawn_if_configured(&ld);
        Ok(ld)
    }
}

impl<D: BlockDevice + 'static> LldInner<D> {
    /// The state of an empty disk on `device`: no record in any shard,
    /// every slot free, no segment open. [`Lld::format`] opens the
    /// first segment in it; recovery fills it from the checkpoint and
    /// the log first.
    pub(crate) fn new(device: D, layout: Layout, config: &LldConfig) -> Self {
        let n = layout.n_segments as usize;
        LldInner {
            device,
            layout,
            concurrency: config.concurrency,
            visibility: config.visibility,
            cleaner_cfg: config.cleaner,
            maps: Maps::fresh(config.map_shards),
            log: Mutex::new(LogState::fresh(n)),
            written: ld_disk::Condvar::new(),
            cache: Mutex::new(BlockCache::new(config.read_cache_blocks)),
            gc: GroupCommit::new(),
            ckpt_io: Mutex::new(crate::checkpoint::CkptSlots::default()),
            dedup: Mutex::new(crate::dedup::DedupCache::new(config.dedup_capacity)),
            dedup_cv: ld_disk::Condvar::new(),
            ts_counter: AtomicU64::new(0),
            free_slots_hint: AtomicU64::new(n as u64),
            needs_clean: AtomicBool::new(false),
            needs_checkpoint: AtomicBool::new(false),
            barrier_covers: AtomicU64::new(0),
            stats: StatsCell::default(),
            obs: Obs::new(config.obs),
            cleanerd: Cleanerd::new(),
            flight: config.flight_dir.clone().map(FlightRecorder::new),
        }
    }
}

impl<D: BlockDevice> LldInner<D> {
    /// Runs `f` in a *full* mutation session: every ARU slot and every
    /// map shard locked exclusively, in the canonical order; then, with
    /// every lock let go, the housekeeping step
    /// ([`after_session`](Self::after_session)).
    pub(crate) fn with_mutation<T>(
        &self,
        f: impl FnOnce(&mut Mutation<'_, D>) -> Result<T>,
    ) -> Result<T> {
        let out = self.full_session(f);
        self.after_session(out.is_ok());
        out
    }

    /// [`with_mutation`](Self::with_mutation) without the housekeeping
    /// step: for the steps of the checkpoint, which the housekeeping
    /// itself writes and which must not start another.
    pub(crate) fn full_session<T>(
        &self,
        f: impl FnOnce(&mut Mutation<'_, D>) -> Result<T>,
    ) -> Result<T> {
        self.stats.full_mutations.inc();
        let all = self.maps.all_set();
        f(&mut self.session(self.maps.lock_arus(all), all))
    }

    /// A session over the held ARU slots `arus` and the map shards in
    /// `shard_set`, which it locks ascending (shards come after slots in
    /// the lock order).
    fn session<'a>(&'a self, arus: GuardSet<AruSlotGuard<'a>>, shard_set: u64) -> Mutation<'a, D> {
        let shards = self.maps.lock_write(shard_set);
        Mutation {
            lld: self,
            map: MapView::new(self.maps.nshards(), arus, shards),
            log_guard: None,
            pending: None,
            seal_awaited: false,
            unit_ends_in: None,
        }
    }

    /// Whether the log's suffix, from the last checkpoint to the last
    /// sealed segment, is `times` its bound long or longer, in either of
    /// restart's units: segment headers (the device's slot count) or
    /// summary records weighted by kind (the weight of the tables). Once
    /// is due a checkpoint, twice is overdue (docs/RECOVERY.md "The
    /// suffix bound").
    pub(crate) fn suffix_past(&self, log: &LogState, times: u64) -> bool {
        let table_weight = (self.allocated_block_count() * SUFFIX_WEIGHT_BLOCK
            + self.allocated_list_count() * SUFFIX_WEIGHT_LIST)
            .max(MIN_SUFFIX_WEIGHT);
        let (sealed, _) = log.covered_point();
        sealed - log.checkpoint_seq >= times * u64::from(self.layout.n_segments)
            || log.summary_sealed - log.checkpoint_summary >= times * table_weight
    }

    /// Whether a checkpoint is due: the suffix is past its bound, or
    /// free slots are down to the emergency level and the last
    /// checkpoint does not cover the emptiest sealed slot. The reserve
    /// pass of a session that finds no slot takes covered victims only
    /// (docs/CLEANER.md "The reserve pass").
    pub(crate) fn checkpoint_due(&self, log: &LogState) -> bool {
        let cfg = &self.cleaner_cfg;
        self.suffix_past(log, 1)
            || cfg.enabled
                && log.free_slots.len() as u32 <= cfg.min_free_segments
                && !log.covers_the_emptiest_slot()
    }

    /// Runs `f` in a *scoped* mutation session holding only the ARU
    /// slots in `aru_set` and the map shards in `shard_set` (bitmasks;
    /// both acquired ascending, slots before shards). The caller is
    /// responsible for covering every identifier the operation touches
    /// and for calling [`after_session`](LldInner::after_session) once
    /// the session's locks are released.
    pub(crate) fn with_mutation_at<T>(
        &self,
        aru_set: u64,
        shard_set: u64,
        f: impl FnOnce(&mut Mutation<'_, D>) -> T,
    ) -> T {
        self.with_mutation_over(self.maps.lock_arus(aru_set), shard_set, f)
    }

    /// [`with_mutation_at`](Self::with_mutation_at) for a caller that
    /// already holds the session's ARU slots.
    pub(crate) fn with_mutation_over<'a, T>(
        &'a self,
        arus: GuardSet<AruSlotGuard<'a>>,
        shard_set: u64,
        f: impl FnOnce(&mut Mutation<'a, D>) -> T,
    ) -> T {
        self.stats.scoped_mutations.inc();
        let mut m = self.session(arus, shard_set);
        let out = f(&mut m);
        // The epilogue: a segment the session sealed goes to the device
        // now, with every lock let go — nobody waits out the transfer,
        // and a lazy operation not even its own: it offers the segment
        // to the parked `cleanerd` and writes only what that refuses.
        // An error has nobody to go to: it stays on record.
        let (pending, awaited) = (m.pending.take(), m.seal_awaited);
        drop(m);
        if let Some(seg) = pending {
            if !awaited && self.cleanerd.offer_seal(&seg) {
                self.stats.seals_handed_off.inc();
            } else {
                let _ = self.write_sealed(&seg, &mut None);
            }
        }
        out
    }

    /// Waits on [`written`](Self::written) until `ready` holds; `Err`
    /// if a segment write has failed by then. `held` is the caller's
    /// hold on the log, if any: let go of for the wait, held afterwards.
    pub(crate) fn wait_written<'a>(
        &'a self,
        held: &mut Option<MutexGuard<'a, LogState>>,
        ready: impl Fn(&LogState) -> bool,
    ) -> Result<()> {
        let mut log = held.take().unwrap_or_else(|| self.log.lock());
        while !ready(&log) {
            log = self.written.wait(log);
        }
        let failed = log.write_error.clone();
        *held = Some(log);
        failed.map_or(Ok(()), Err)
    }

    /// Writes the sealed `seg` once its slot may be overwritten (W3)
    /// and takes it out of `inflight`, latching a failure. A caller
    /// that holds the log (`held`) keeps it across the write.
    ///
    /// Two device writes: the body — data area and trailer — at the
    /// segment's base, then the meta record — summary and header —
    /// ending at its top. A device may persist either without the other
    /// (docs/RECOVERY.md, "Segment metadata at the back of the slot").
    /// Into a slot released behind a segment no barrier has vouched for
    /// yet, a barrier goes first: the device could otherwise keep this
    /// segment and lose the records that emptied the slot.
    pub(crate) fn write_sealed<'a>(
        &'a self,
        seg: &SegmentBuilder,
        held: &mut Option<MutexGuard<'a, LogState>>,
    ) -> Result<()> {
        let (slot, in_place) = (seg.slot().get(), held.is_some());
        let _ = self.wait_written(held, |log| log.watermark() > log.reuse_after[slot as usize]);
        let released_behind = held
            .as_ref()
            .map_or(0, |log| log.reuse_after[slot as usize]);
        if !in_place {
            *held = None;
        }
        let at = sector_offset(&self.layout, slot, seg.base());
        let meta_at = self.layout.segment_offset(slot) + seg.meta_at();
        // The span lands on the thread that writes: the sealer's own,
        // or `ld-cleanerd` for a seal it was handed.
        let media = (self.obs).stage(self.now(), ld_disk::current_trace(), Stage::MediaWrite);
        let barrier = if self.barrier_covers.load(Ordering::Relaxed) < released_behind {
            let flushed = self.device.flush();
            if flushed.is_ok() {
                self.barrier_covers
                    .fetch_max(released_behind, Ordering::Relaxed);
            }
            flushed
        } else {
            Ok(())
        };
        let written = (barrier.and_then(|()| self.device.write_at(at, seg.body())))
            .and_then(|()| self.device.write_at(meta_at, seg.meta()));
        media.end();
        let res = written.map_err(LldError::from);
        let log = held.get_or_insert_with(|| self.log.lock());
        log.inflight.retain(|s| s.seq() != seg.seq());
        if let Err(e) = &res {
            log.write_error.get_or_insert_with(|| e.clone());
        }
        self.written.notify_all();
        res
    }

    /// Acquires a read-only view of the ARU slots in `aru_set` and the
    /// map shards in `shard_set` (shared access; same canonical order).
    pub(crate) fn read_view(&self, aru_set: u64, shard_set: u64) -> MapView<'_> {
        let arus = self.maps.lock_arus(aru_set);
        let shards = self.maps.lock_read(shard_set);
        MapView::new(self.maps.nshards(), arus, shards)
    }

    /// Whether a scoped session may run right now: when free segments
    /// are scarce the operation routes through a full session instead,
    /// so the reserve pass can rescue it mid-operation.
    pub(crate) fn scoped_ok(&self) -> bool {
        !self.cleaner_cfg.enabled
            || self.free_slots_hint.load(Ordering::Relaxed)
                > u64::from(self.cleaner_cfg.min_free_segments)
    }

    /// The housekeeping step after a session that succeeded (`ok`),
    /// once its locks are let go (docs/CONCURRENCY.md "Housekeeping"):
    /// the checkpoint a seal found due, never written inside a session,
    /// where an operation may have put part of an ARU into the tables
    /// (docs/INVARIANTS.md I6), nor after an error, when the tables may
    /// be ahead of the log; then the round a roll asked for where no
    /// thread took it, on this thread, behind the round the cleaner
    /// thread or another caller is in — unless this session was a
    /// relocation window of this thread's own round, which so starts no
    /// nested pass ([`crate::cleanerd`]). Reads two flags and no lock
    /// while neither is up.
    pub(crate) fn after_session(&self, ok: bool) {
        if !ok {
            return;
        }
        // Whoever takes the flag sees to it. `cleanerd` writes it,
        // behind any seal it holds, unless the thread refuses, the
        // suffix is past twice its bound (the bound's hard edge), or a
        // round is asked for below, whose pass and the reserve pass want
        // covered victims now. A failure is counted; the next seal asks
        // again.
        if self.needs_checkpoint.load(Ordering::Relaxed)
            && self.needs_checkpoint.swap(false, Ordering::Relaxed)
        {
            let handed_off = !self.needs_clean.load(Ordering::Relaxed)
                && !self.suffix_past(&self.log.lock(), 2)
                && self.cleanerd.offer_checkpoint();
            if !handed_off && self.checkpoint().is_err() {
                self.stats.checkpoint_failures.inc();
            }
        }
        if self.needs_clean.load(Ordering::Relaxed)
            && self.needs_clean.swap(false, Ordering::Relaxed)
        {
            // An error here resurfaces on the next operation that needs
            // space.
            let _ = crate::cleanerd::round(self);
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The block size in bytes.
    pub fn block_size(&self) -> usize {
        self.layout.block_size
    }

    /// The segment size in bytes.
    pub fn segment_bytes(&self) -> usize {
        self.layout.segment_bytes
    }

    /// Number of segment slots on the device.
    pub fn n_segments(&self) -> u32 {
        self.layout.n_segments
    }

    /// Number of currently free segment slots.
    pub fn free_segments(&self) -> u32 {
        self.log.lock().free_slots.len() as u32
    }

    /// The concurrency mode ("old" sequential vs "new" concurrent).
    pub fn concurrency(&self) -> ConcurrencyMode {
        self.concurrency
    }

    /// The read-visibility semantics in effect.
    pub fn visibility(&self) -> ReadVisibility {
        self.visibility
    }

    /// Number of hash partitions of the mapping layer.
    pub fn map_shards(&self) -> usize {
        self.maps.nshards() as usize
    }

    /// Per-shard lock-acquisition counters (shared and exclusive
    /// acquisitions of each shard's readers-writer lock).
    pub fn shard_stats(&self) -> Vec<ShardLockStats> {
        self.maps.shard_stats()
    }

    /// A snapshot of the operation counters.
    pub fn stats(&self) -> LldStats {
        let mut s = self.stats.snapshot();
        s.trace_events_dropped = self.obs.ring().dropped();
        s
    }

    /// The observability bundle: trace events, latency histograms, the
    /// recovery report.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Counters and service-time histograms of the underlying device,
    /// when it collects them (a [`SimDisk`](ld_disk::SimDisk) does;
    /// plain [`MemDisk`](ld_disk::MemDisk) / `FileDisk` return `None`).
    pub fn device_stats(&self) -> Option<ld_disk::DiskStatsSnapshot> {
        self.device.stats_snapshot()
    }

    /// Captures everything observable about this disk in one bundle:
    /// LLD counters, device counters, [`Obs::histograms`] (plus
    /// `disk_read` / `disk_write` when the device provides them),
    /// per-shard lock counters, recent trace events, and the recovery
    /// report if this disk was recovered. `fs_ops` is left empty for a
    /// file-system caller to fill.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let disk = self.device.stats_snapshot();
        let mut histograms = self.obs.histograms();
        if let Some(d) = &disk {
            histograms.push(("disk_read".to_string(), d.read_hist));
            histograms.push(("disk_write".to_string(), d.write_hist));
        }
        ObsSnapshot {
            lld: self.stats(),
            disk,
            histograms,
            shards: self.maps.shard_stats(),
            events: self.obs.ring().entries(),
            dropped_events: self.obs.ring().dropped(),
            recovery: self.obs.recovery_report(),
            fs_ops: Vec::new(),
            server: Default::default(),
        }
    }

    /// Resets the operation counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Writes a flight dump (reason + detail + a full
    /// [`ObsSnapshot`]) into the configured flight directory, returning
    /// the file path. `None` when no directory is configured
    /// ([`LldConfig::flight_dir`]) or the write fails; never errors.
    /// Called automatically on background-thread failures (cleaner
    /// pass error, cleaner panic); public so embedders
    /// can dump on their own triggers too.
    pub fn flight_dump(&self, reason: &str, detail: &str) -> Option<std::path::PathBuf> {
        self.flight
            .as_ref()?
            .dump(reason, detail, &self.obs_snapshot())
    }

    /// Identifiers of the currently active ARUs.
    pub fn active_arus(&self) -> Vec<AruId> {
        let slots = self.maps.lock_arus(self.maps.all_set());
        let mut raws: Vec<u64> = slots.iter().flat_map(|m| m.ids()).collect();
        raws.sort_unstable();
        raws.into_iter().map(AruId::new).collect()
    }

    /// The logical time at which an active ARU began, if it is active.
    pub fn aru_started(&self, aru: AruId) -> Option<Timestamp> {
        self.maps
            .lock_aru(aru.get())
            .get(aru.get())
            .map(Aru::started)
    }

    /// Number of blocks allocated in the committed state.
    pub fn allocated_block_count(&self) -> u64 {
        self.maps.allocated_blocks.load(Ordering::Relaxed)
    }

    /// Number of lists allocated in the committed state.
    pub fn allocated_list_count(&self) -> u64 {
        self.maps.allocated_lists.load(Ordering::Relaxed)
    }

    /// The highest segment sequence number covered by an on-disk
    /// checkpoint (0 = no checkpoint; recovery scans the whole log).
    pub fn checkpoint_seq(&self) -> u64 {
        self.log.lock().checkpoint_seq
    }

    /// Borrows the underlying device (e.g. to inspect simulator
    /// statistics).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Always `false`; stays only because `benchmark/` reads it (ROADMAP B0).
    pub fn pipelined(&self) -> bool {
        false
    }

    /// A copy of the committed-state record of `block`, if allocated.
    pub fn block_info(&self, block: BlockId) -> Option<BlockRecord> {
        let view = self.read_view(0, self.maps.bit_of(block.get()));
        view.committed_view(block).filter(|r| r.allocated).cloned()
    }

    /// A copy of the committed-state record of `list`, if allocated.
    pub fn list_info(&self, list: ListId) -> Option<ListRecord> {
        let view = self.read_view(0, self.maps.bit_of(list.get()));
        view.committed_view(list).filter(|r| r.allocated).cloned()
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advances the logical clock and returns the new timestamp.
    pub(crate) fn tick(&self) -> Timestamp {
        Timestamp::new(self.ts_counter.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The current logical time (for event records).
    pub(crate) fn now(&self) -> u64 {
        self.ts_counter.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Shared read plumbing
    // ------------------------------------------------------------------

    /// Reads the data of a block at `addr` into `buf`, zero-filled past
    /// its extent: from memory if the address is in the open segment or
    /// in a sealed one not yet written (W4), from the cache or device
    /// otherwise — which includes the written segments in front of the
    /// open one in its slot. An all-zero block reads nothing.
    ///
    /// Callers must hold at least shared access to the shard mapping
    /// `addr`'s block, so the cleaner cannot relocate `addr` mid-read.
    pub(crate) fn read_block_data(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        if addr.sectors == 0 {
            buf.fill(0);
            return Ok(());
        }
        {
            let log = self.log.lock();
            let mut in_memory = log.inflight.iter().map(Arc::as_ref).chain(&log.builder);
            if in_memory.any(|b| b.read_block(addr, buf)) {
                return Ok(());
            }
            let open = log.builder.as_ref();
            if open.is_some_and(|b| b.slot() == addr.segment && addr.sector >= b.base()) {
                return Err(LldError::Corrupt(format!(
                    "address {addr} beyond open segment contents"
                )));
            }
        }
        if self.cache.lock().get(addr, buf) {
            self.stats.cache_hits.inc();
            return Ok(());
        }
        self.stats.cache_misses.inc();
        self.read_extent(addr, buf)?;
        self.cache.lock().insert(addr, buf);
        Ok(())
    }

    /// Reads the extent at `addr` from the device into `block`,
    /// zero-filled past it: the device half of every block read (the
    /// cache fill, the cleaners' copies).
    pub(crate) fn read_extent(&self, addr: PhysAddr, block: &mut [u8]) -> Result<()> {
        let extent = zero_past_extent(block, addr.sectors);
        if !extent.is_empty() {
            self.device
                .read_at(self.layout.block_offset(addr), extent)?;
        }
        Ok(())
    }

    /// Reads the superblock of a formatted device, and with it both
    /// checkpoint headers: one read of the first three sectors. Returns
    /// the decoded superblock and the bytes read.
    pub(crate) fn read_front(
        device: &D,
    ) -> Result<((Layout, ConcurrencyMode, ReadVisibility), Vec<u8>)> {
        let len = (FRONT_LEN as u64).min(device.capacity()) as usize;
        let mut front = vec![0u8; len];
        device.read_at(0, &mut front)?;
        let decoded = Layout::decode_superblock(&front)?;
        // Recovery sizes per-slot tables by `n_segments`: the slots exist.
        let l = &decoded.0;
        let slots = u64::from(l.n_segments).checked_mul(l.segment_bytes as u64);
        let end = slots.and_then(|bytes| bytes.checked_add(l.data_start));
        if end.is_none_or(|end| end > device.capacity()) {
            let msg = format!("superblock: {} slots do not fit the device", l.n_segments);
            return Err(LldError::Corrupt(msg));
        }
        Ok((decoded, front))
    }

    /// Whether this disk runs the background cleaner thread: never in
    /// sequential mode (the paper's `old` LLD is one process). Without
    /// it the callers run the cleaning pass themselves.
    pub fn cleaner_background(&self) -> bool {
        let cfg = &self.cleaner_cfg;
        cfg.enabled && cfg.background && self.concurrency() == ConcurrencyMode::Concurrent
    }
}

impl<D: BlockDevice> Lld<D> {
    /// Probes a formatted device without recovering it: returns the
    /// layout and the semantic modes stored in the superblock.
    ///
    /// # Errors
    ///
    /// [`LldError::Corrupt`] if the device holds no valid superblock;
    /// device errors.
    pub fn probe(device: &D) -> Result<(Layout, ConcurrencyMode, ReadVisibility)> {
        LldInner::read_front(device).map(|(superblock, _)| superblock)
    }
}

impl<'a, D: BlockDevice> Mutation<'a, D> {
    // ------------------------------------------------------------------
    // Session conveniences
    // ------------------------------------------------------------------

    pub(crate) fn tick(&self) -> Timestamp {
        self.lld.tick()
    }

    /// The log state, locked lazily on first use (the canonical
    /// order puts `log` after every mapping-layer lock, all of which
    /// this session acquired at construction).
    pub(crate) fn log(&mut self) -> &mut LogState {
        let lld = self.lld;
        self.log_guard.get_or_insert_with(|| lld.log.lock())
    }

    /// Mirrors the free-slot count into the lock-free routing hint.
    pub(crate) fn sync_free_hint(&mut self) {
        let n = self.log().free_slots.len() as u64;
        self.lld.free_slots_hint.store(n, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Identifiers
    // ------------------------------------------------------------------

    /// The allocation exception (§4): allocates an identifier from
    /// `shard`'s stripe, logs it, and enters a fresh record in the
    /// committed state whatever stream the operation runs in. The
    /// reservation against the global cap is released if the record
    /// cannot be logged.
    pub(crate) fn alloc<I: MapId>(&mut self, shard: u32, ts: Timestamp) -> Result<I> {
        let (maps, layout) = (&self.lld.maps, &self.lld.layout);
        maps.try_reserve::<I>(I::cap(layout))?;
        let n = u64::from(maps.nshards());
        let raw = I::stripe(self.map.shard_mut(shard)).alloc(n, I::bound(layout));
        let logged = raw.ok_or(LldError::DiskFull).and_then(|raw| {
            let id = I::from_raw(raw);
            self.emit(id.logged(ts)).map(|()| id)
        });
        let id = logged.inspect_err(|_| maps.unreserve::<I>())?;
        self.enter_fresh(id, ts);
        Ok(id)
    }

    /// Enters the fresh committed record of a newly allocated `id`: the
    /// half of an allocation that replay shares.
    pub(crate) fn enter_fresh<I: MapId>(&mut self, id: I, ts: Timestamp) {
        I::overlay_mut(&mut self.map.owner_mut(id).committed).insert(id, I::unlinked(true, ts));
    }

    // ------------------------------------------------------------------
    // Copy-on-write record access
    // ------------------------------------------------------------------

    /// Copy-on-write access to a record in the given state: if the
    /// state has no alternative record yet, the version below is copied
    /// in (the paper: "the disk system applies modifications to a copy of
    /// the committed version ... which then becomes the new shadow
    /// version").
    ///
    /// # Errors
    ///
    /// [`LldError::BlockNotAllocated`] / [`LldError::ListNotAllocated`]
    /// if no version of the identifier exists at all.
    pub(crate) fn rec_mut<I: MapId>(&mut self, st: StateRef, id: I) -> Result<&mut I::Rec> {
        match st {
            StateRef::Committed => {
                let sh = self.map.owner_mut(id);
                match I::overlay_mut(&mut sh.committed).entry(id) {
                    Entry::Occupied(e) => Ok(e.into_mut()),
                    Entry::Vacant(e) => {
                        let base = sh.persistent.get(id);
                        Ok(e.insert(base.cloned().ok_or_else(|| id.not_allocated())?))
                    }
                }
            }
            StateRef::Shadow(aru) => {
                let raw = aru.get();
                let shadow = &self.map.aru(raw).ok_or(LldError::UnknownAru(aru))?.shadow;
                if !I::overlay(shadow).contains_key(&id) {
                    let base = self.map.committed_view(id).cloned();
                    let base = base.ok_or_else(|| id.not_allocated())?;
                    self.lld.stats.shadow_cow_records.inc();
                    let aru = self.map.aru_mut(raw).expect("checked above");
                    aru.span.cow_records += 1;
                    I::overlay_mut(&mut aru.shadow).insert(id, base);
                }
                let shadow = &mut self.map.aru_mut(raw).expect("checked above").shadow;
                Ok(I::overlay_mut(shadow).get_mut(&id).expect("just inserted"))
            }
        }
    }

    /// Adjusts the per-segment live-block accounting when the committed
    /// address of `id` changes.
    pub(crate) fn adjust_addr(
        &mut self,
        id: BlockId,
        old: Option<PhysAddr>,
        new: Option<PhysAddr>,
    ) {
        if old == new {
            return;
        }
        let log = self.log();
        if let Some(a) = old {
            log.remove_resident(id, a);
        }
        if let Some(a) = new {
            log.add_resident(id, a);
        }
    }

    // ------------------------------------------------------------------
    // List structure manipulation (shared by ops, commit replay, and
    // recovery replay)
    // ------------------------------------------------------------------

    /// Walks `list` in state `st`, returning the member blocks in order
    /// and charging the steps to the stats.
    pub(crate) fn walk_list(&mut self, st: StateRef, list: ListId) -> Result<Vec<BlockId>> {
        match self.map.walk_list(st, list, self.lld.layout.max_blocks)? {
            WalkOutcome::Done { members, steps } => {
                self.lld.stats.list_walk_steps.add(steps);
                Ok(members)
            }
            // Mutation shard plans cover every identifier they walk;
            // operations that can reach arbitrary identifiers (the
            // deletions) run under full sessions.
            WalkOutcome::NeedShard(s) => Err(LldError::Corrupt(format!(
                "internal: mutation session is missing map shard {s} walking {list}"
            ))),
        }
    }

    /// See [`MapView::validate_insert`].
    pub(crate) fn validate_insert(&self, st: StateRef, list: ListId, pos: Position) -> Result<()> {
        self.map.validate_insert(st, list, pos)
    }

    /// Inserts `block` (which must exist, allocated, and not on a list,
    /// in state `st`) into `list` at `pos`. Callers run
    /// [`validate_insert`](Self::validate_insert) first.
    pub(crate) fn insert_into_list(
        &mut self,
        st: StateRef,
        list: ListId,
        block: BlockId,
        pos: Position,
        ts: Timestamp,
    ) -> Result<()> {
        self.validate_insert(st, list, pos)?;
        match pos {
            Position::First => {
                let old_first = {
                    let lr = self.rec_mut(st, list)?;
                    let old = lr.first;
                    lr.first = Some(block);
                    if lr.last.is_none() {
                        lr.last = Some(block);
                    }
                    lr.ts = ts;
                    old
                };
                let br = self.rec_mut(st, block)?;
                br.successor = old_first;
                br.list = Some(list);
                br.ts = ts;
            }
            Position::After(pred) => {
                let pred_succ = {
                    let pm = self.rec_mut(st, pred)?;
                    let old = pm.successor;
                    pm.successor = Some(block);
                    pm.ts = ts;
                    old
                };
                {
                    let bm = self.rec_mut(st, block)?;
                    bm.successor = pred_succ;
                    bm.list = Some(list);
                    bm.ts = ts;
                }
                let lr = self.rec_mut(st, list)?;
                if lr.last == Some(pred) {
                    lr.last = Some(block);
                }
                lr.ts = ts;
            }
        }
        Ok(())
    }

    /// Removes `block` from its list (if any) in state `st`, running the
    /// predecessor search the paper identifies as the dominant deletion
    /// cost.
    pub(crate) fn unlink_block(
        &mut self,
        st: StateRef,
        block: BlockId,
        ts: Timestamp,
    ) -> Result<()> {
        let rec = self
            .map
            .view(st, block)
            .filter(|r| r.allocated)
            .ok_or(LldError::BlockNotAllocated(block))?;
        let Some(list) = rec.list else {
            return Ok(());
        };
        let successor = rec.successor;

        // Predecessor search: walk from the head of the list.
        let lrec = self
            .map
            .view(st, list)
            .filter(|r| r.allocated)
            .ok_or(LldError::ListNotAllocated(list))?;
        let mut pred: Option<BlockId> = None;
        let mut cur = lrec.first;
        let bound = self.lld.layout.max_blocks + 1;
        let mut steps = 0u64;
        while let Some(b) = cur {
            if b == block {
                break;
            }
            steps += 1;
            if steps > bound {
                return Err(LldError::Corrupt(format!("cycle while walking {list}")));
            }
            pred = Some(b);
            cur = self.map.view(st, b).and_then(|r| r.successor);
            if cur.is_none() {
                return Err(LldError::Corrupt(format!(
                    "{block} claims membership of {list} but is not on it"
                )));
            }
        }
        self.lld.stats.list_walk_steps.add(steps);

        match pred {
            None => {
                let lr = self.rec_mut(st, list)?;
                lr.first = successor;
                if lr.last == Some(block) {
                    lr.last = None;
                }
                lr.ts = ts;
            }
            Some(p) => {
                {
                    let pm = self.rec_mut(st, p)?;
                    pm.successor = successor;
                    pm.ts = ts;
                }
                let lr = self.rec_mut(st, list)?;
                if lr.last == Some(block) {
                    lr.last = Some(p);
                }
                lr.ts = ts;
            }
        }
        let bm = self.rec_mut(st, block)?;
        bm.list = None;
        bm.successor = None;
        bm.ts = ts;
        Ok(())
    }

    /// Marks `block` deallocated in state `st`, releasing its physical
    /// address in the committed state.
    pub(crate) fn dealloc_block(
        &mut self,
        st: StateRef,
        block: BlockId,
        ts: Timestamp,
    ) -> Result<()> {
        if st == StateRef::Committed {
            let old = self.map.committed_view(block).and_then(|r| r.addr);
            self.adjust_addr(block, old, None);
        }
        self.dealloc(st, block, ts)
    }

    /// Marks `id` deallocated in state `st`. In the committed state this
    /// also decrements the allocation count; identifier reuse is the
    /// caller's decision.
    pub(crate) fn dealloc<I: MapId>(&mut self, st: StateRef, id: I, ts: Timestamp) -> Result<()> {
        if st == StateRef::Committed {
            self.lld.maps.unreserve::<I>();
        }
        *self.rec_mut(st, id)? = I::unlinked(false, ts);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Segment plumbing
    // ------------------------------------------------------------------

    /// Ensures the current segment can take `bytes` more — extents and
    /// summary records — rolling to a new segment if needed.
    ///
    /// `reserve` is the number of free segment slots that must remain
    /// after a roll: space-*consuming* operations pass 1 so the last
    /// slot stays available for deletions and cleaning (otherwise a
    /// full log could never be emptied again); space-*reclaiming*
    /// operations pass 0.
    pub(crate) fn ensure_room(&mut self, bytes: usize, reserve: usize) -> Result<()> {
        let fits = match &self.log().builder {
            Some(b) => b.fits(bytes),
            None => false,
        };
        if fits {
            return Ok(());
        }
        self.roll_segment(reserve)?;
        match &self.log().builder {
            Some(b) if b.fits(bytes) => Ok(()),
            Some(_) => Err(LldError::Config(
                "request does not fit in an empty segment".into(),
            )),
            None => Err(LldError::DiskFull),
        }
    }

    /// Seals and writes the current segment (if it has content) and
    /// opens a new one. It cleans nothing itself, one rule per
    /// watermark: below the low watermark it wakes the background
    /// cleaner thread, and below the emergency level it asks the
    /// session's caller to run a round once the session is over
    /// ([`LldInner::after_session`]), behind any round that is running.
    pub(crate) fn roll_segment(&mut self, reserve: usize) -> Result<()> {
        let rolled = self.seal_current()?;
        self.open_under(reserve)?;
        let cfg = self.lld.cleaner_cfg;
        if rolled && cfg.enabled {
            let free = self.log().free_slots.len() as u32;
            if free < cfg.target_free_segments {
                self.lld.cleanerd.kick();
            }
            if free < cfg.min_free_segments {
                self.lld.needs_clean.store(true, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// [`roll_segment`](Self::roll_segment) for the flush leader, with no
    /// reserve. Returns the sequence number of the last segment sealed,
    /// by this roll or by another caller's a moment earlier: what the
    /// leader's barrier has to cover (W1).
    pub(crate) fn roll_for_flush(&mut self) -> Result<u64> {
        self.seal_awaited = true;
        self.roll_segment(0)?;
        Ok(self.log().covered_point().0)
    }

    /// Opens a segment unless one is open. A full session that finds no
    /// slot runs the reserve pass ([`compact`](Self::compact)) before it
    /// reports `DiskFull`: the last round may be long past, and a
    /// running one holds what it relocated into until it releases.
    pub(crate) fn open_under(&mut self, reserve: usize) -> Result<()> {
        if self.log().builder.is_some() {
            return Ok(());
        }
        let may_compact = self.lld.cleaner_cfg.enabled
            && self.map.holds_all_shards_write()
            && !self.log().cleaning;
        match self.open_segment(reserve) {
            Err(LldError::DiskFull) if may_compact => {}
            opened => return opened,
        }
        self.compact(reserve + 1)?;
        if self.seal_current()? || self.log().builder.is_none() {
            self.open_segment(reserve)?;
        }
        Ok(())
    }

    /// Seals the current segment. Returns `true` if one was sealed (the
    /// builder is then `None`); an empty builder is left in place and
    /// `false` returned.
    ///
    /// The segment stays in [`LogState::inflight`] as the session's
    /// pending seal, for [`LldInner::with_mutation_at`]'s epilogue —
    /// unless the session holds every shard or rolls a second time:
    /// then it is written here, under the session's locks
    /// (docs/CONCURRENCY.md, "Seal writes").
    pub(crate) fn seal_current(&mut self) -> Result<bool> {
        let lld = self.lld;
        match self.log().builder.take() {
            None => Ok(false),
            Some(b) if b.is_empty() => {
                self.log().builder = Some(b);
                Ok(false)
            }
            Some(mut b) => {
                let earlier = self.pending.take();
                let seal_seq = b.seq();
                let seal_blocks = b.n_blocks();
                let seal_data = b.data_bytes();
                let seal_bytes = b.encoded_len() as u64;
                let slot = b.slot().get();
                // The successor's position goes into this header, so it
                // is chosen now: behind this segment while the slot has
                // room, else the ends of a free slot, which stays in
                // `free_slots` until `open_segment` takes it.
                let (next_slot, (next_base, next_top)) = match b.successor() {
                    Some(at) => (slot, at),
                    None => {
                        let free = self.log().free_slots.first().copied();
                        (free.unwrap_or(NO_SLOT), (0, lld.layout.sectors_per_slot()))
                    }
                };
                // The watermark: what a completed barrier vouches for is
                // on the device whole, and a restart checks the trailers
                // of the segments above it only.
                let covered = lld.barrier_covers.load(Ordering::Relaxed);
                let header = b.header_bytes(next_slot, covered);
                let seal_summary = b.summary_weight();
                let b = Arc::new(b);
                self.log().inflight.push_back(Arc::clone(&b));
                let unwritten = self.log().inflight.len() as u64;
                lld.stats.inflight_segments.record_max(unwritten);
                self.pending = Some(b);
                let log = self.log();
                log.slot_seq[slot as usize] = seal_seq;
                log.tail = ChainHead {
                    slot: next_slot,
                    base: next_base,
                    top: next_top,
                    link: header_link(&header),
                };
                // While every seal took a slot, the cleaner had to
                // checkpoint before the log could wrap, so a restart
                // never crossed more than `n_segments` headers. Now a
                // slot holds many: keep that bound by asking for a
                // checkpoint once the suffix is that long. It is what
                // bounds a log of small flushes. A log of full segments is
                // bounded in restart's other unit, the summary records it
                // replays, weighted by kind: once they reach the weight of
                // the tables (`SUFFIX_WEIGHT_*`), loading a snapshot is the
                // cheaper restart. A disk near full asks for one too,
                // once no sealed slot is left that a pass may take
                // (`checkpoint_due`).
                log.summary_sealed += seal_summary;
                if lld.checkpoint_due(log) {
                    self.lld.needs_checkpoint.store(true, Ordering::Relaxed);
                }
                self.lld.stats.segments_sealed.inc();
                self.lld.stats.data_bytes_written.add(seal_data);
                self.lld.obs.event(
                    self.lld.now(),
                    TraceEvent::SegmentSeal {
                        segment: slot,
                        seq: seal_seq,
                        blocks: seal_blocks,
                        bytes: seal_bytes,
                    },
                );
                // Committed → persistent transition for every shard this
                // session holds exclusively: their alternative records'
                // summary entries are sealed, and on disk before anything
                // vouches for them (W1, W2). Records of shards this
                // session does not hold drain at a later seal that does
                // (the overlay keeps every view correct meanwhile, and
                // the checkpointer runs under a full session, so its
                // encode always sees fully drained tables).
                let drained = self.map.drain_committed();
                self.lld.stats.committed_records_drained.add(drained);
                // In place: the earlier seal of a session that rolls again,
                // and this one if the session holds every shard. Either
                // may wait (W3), letting go of a log that is in order.
                let full = self.map.holds_all_shards_write();
                for seg in earlier.into_iter().chain(self.pending.take_if(|_| full)) {
                    lld.write_sealed(&seg, &mut self.log_guard)?;
                }
                Ok(true)
            }
        }
    }

    /// Opens a new segment where the last sealed header points — behind
    /// that segment in its slot, or in a fresh slot — else in the lowest
    /// free slot. Taking a fresh slot is refused if it would leave fewer
    /// than `reserve` slots free.
    pub(crate) fn open_segment(&mut self, reserve: usize) -> Result<()> {
        debug_assert!(self.log().builder.is_none());
        let slot_sectors = self.lld.layout.sectors_per_slot();
        let log = self.log();
        if !log.tail.in_slot() {
            if log.free_slots.len() <= reserve {
                return Err(LldError::DiskFull);
            }
            let slot = match log.tail.slot {
                NO_SLOT => log.free_slots.pop_first().ok_or(LldError::DiskFull)?,
                slot if log.free_slots.remove(&slot) => slot,
                slot => {
                    return Err(LldError::Corrupt(format!(
                        "internal: slot {slot}, which the log's tail points at, was taken"
                    )))
                }
            };
            log.tail.slot = slot;
            log.tail.base = 0;
            log.tail.top = slot_sectors;
            self.sync_free_hint();
            // The slot may hold a cleaned segment whose blocks are
            // cached; new data written here must never be shadowed by
            // stale entries.
            self.lld
                .cache
                .lock()
                .invalidate_segment(SegmentId::new(slot));
        }
        let layout = &self.lld.layout;
        let log = self.log();
        let ChainHead {
            slot,
            base,
            top,
            link,
        } = log.tail;
        let builder = SegmentBuilder::new(
            SegmentId::new(slot),
            (base, top),
            log.next_seq,
            link,
            log.epoch,
            layout.block_size,
        );
        log.next_seq += 1;
        log.builder = Some(builder);
        Ok(())
    }

    /// [`open_segment`](Self::open_segment), except that a disk with no
    /// slot to spare stays without an open segment: whoever appends next
    /// opens one, under its own reserve.
    pub(crate) fn open_segment_if_free(&mut self, reserve: usize) -> Result<()> {
        match self.open_segment(reserve) {
            Ok(()) | Err(LldError::DiskFull) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Emits a (non-`Write`) summary record into the current segment.
    pub(crate) fn emit(&mut self, rec: Record) -> Result<()> {
        self.emit_reserve(rec, 1)
    }

    /// Emits a record with an explicit slot reserve (0 for
    /// space-reclaiming records such as deletions).
    pub(crate) fn emit_reserve(&mut self, rec: Record, reserve: usize) -> Result<()> {
        self.ensure_room(rec.encoded_len(), reserve)?;
        let len = self
            .log()
            .builder
            .as_mut()
            .expect("ensure_room leaves a builder")
            .push_record(&rec);
        self.lld.stats.records_emitted.inc();
        self.lld.stats.summary_bytes.add(len as u64);
        Ok(())
    }

    /// Enters one data block into the segment stream — `stored`, its
    /// [`extent`] — with its `Write` record (reserved together so they
    /// land in the same segment) and updates the committed state.
    /// Shared by simple writes, ARU commit, and cleaner relocation. The
    /// block reaches the device with its segment; until then reads find
    /// it in memory.
    ///
    /// A write that could not [absorb](Self::absorb_block) frees the
    /// sectors of the version it supersedes, if the open segment holds
    /// it and the write [commits there](Self::commits_in_open): the next
    /// extent that fits takes them (docs/INVARIANTS.md I5). No reader
    /// holds that address: every read resolves and reads it under the
    /// block's shard lock, which this session holds for writing.
    pub(crate) fn place_block_data(
        &mut self,
        id: BlockId,
        stored: &[u8],
        ts: Timestamp,
        tag: Option<AruId>,
        reserve: usize,
    ) -> Result<PhysAddr> {
        debug_assert_eq!(extent(stored), stored, "a block's extent");
        let (addr, len, frees) = match self.absorb_block(id, stored, ts, tag) {
            Some((addr, len)) => (addr, len, false),
            None => {
                self.ensure_room(stored.len() + WRITE_REC_LEN, reserve)?;
                let here = self.commits_in_open(tag);
                let b = self
                    .log()
                    .builder
                    .as_mut()
                    .expect("ensure_room leaves a builder");
                let area = b.data_bytes();
                let addr = b.push_extent(stored);
                let reused = b.data_bytes() == area;
                if !here {
                    b.pin_extent(addr);
                }
                let len = b.push_record(&Record::Write {
                    block: id,
                    slot: addr.extent(),
                    ts,
                    aru: tag,
                });
                if reused {
                    self.lld.stats.sectors_reused.add(u64::from(addr.sectors));
                }
                self.lld.stats.data_blocks_written.inc();
                (addr, len, here)
            }
        };
        self.lld.stats.records_emitted.inc();
        self.lld.stats.summary_bytes.add(len as u64);

        // Read here: a roll above may have had the cleaner move the block.
        let old = self.map.committed_view(id).and_then(|r| r.addr);
        let freed = match old {
            Some(old) if frees => (self.log().builder.as_mut())
                .is_some_and(|b| b.free_extent(old))
                .then_some(old),
            _ => None,
        };
        let mut cache = self.lld.cache.lock();
        if let Some(freed) = freed {
            cache.remove(freed);
        }
        cache.insert(addr, stored);
        drop(cache);
        self.adjust_addr(id, old, Some(addr));
        let r = self.rec_mut(StateRef::Committed, id)?;
        r.addr = Some(addr);
        r.ts = ts;
        Ok(addr)
    }

    /// *Absorbs* a write to a block whose committed version still sits
    /// in the open segment: the new extent takes that version's place,
    /// zero-padded to it, and only the record is appended, so a version
    /// superseded before its segment seals never reaches the device (the
    /// paper's §3: a committed version has to become persistent only if
    /// it is still the committed one then). Returns the address, which
    /// the block keeps, and the bytes of the record; `None` if the write
    /// has to append — also when `stored` is longer than the version's
    /// extent.
    ///
    /// Allowed only to a write whose commit point lands in this same
    /// segment (docs/INVARIANTS.md I5): an untagged write, or a tagged
    /// one of the unit [`unit_ends_in`](Self::unit_ends_in) names.
    fn absorb_block(
        &mut self,
        id: BlockId,
        stored: &[u8],
        ts: Timestamp,
        tag: Option<AruId>,
    ) -> Option<(PhysAddr, usize)> {
        let held = self.map.committed_view(id)?.addr?;
        if !self.commits_in_open(tag) {
            return None;
        }
        let b = self.log().builder.as_mut()?;
        if !(b.slot() == held.segment && b.fits(WRITE_REC_LEN)) {
            return None;
        }
        if !b.rewrite_extent(held, stored) {
            return None;
        }
        let len = b.push_record(&Record::Write {
            block: id,
            slot: held.extent(),
            ts,
            aru: tag,
        });
        self.lld.stats.blocks_absorbed.inc();
        Some((held, len))
    }

    /// Whether a write tagged `tag` has its commit point — the record
    /// that makes it effective at recovery — in the open segment, behind
    /// its own `Write` record: an untagged write, or a tagged one of the
    /// unit [`unit_ends_in`](Self::unit_ends_in) names. The one condition
    /// under which a write may take the place of a version the open
    /// segment holds, or free its sectors (docs/INVARIANTS.md I5).
    fn commits_in_open(&mut self, tag: Option<AruId>) -> bool {
        let unit = self.unit_ends_in;
        tag.is_none()
            || unit.is_some_and(|seq| self.log().builder.as_ref().is_some_and(|b| b.seq() == seq))
    }
}
