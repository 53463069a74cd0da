//! The cleaning pass, and the background thread that runs it by
//! default ("cleanerd").
//!
//! There is one cleaning pass, [`run_pass`], and it runs between
//! sessions. Passes run in *rounds*: back to back while free slots are
//! below the low watermark and each pass gains room net of what its
//! relocations took. A round is run by whoever is free: the `cleanerd`
//! thread where the disk has one; the caller's thread, in the
//! housekeeping step after its session ([`LldInner::after_session`]),
//! where a roll left fewer free slots than the emergency level, with
//! or without a thread; and the caller of [`LldInner::run_cleaner`].
//! At most one round runs at a time on a disk, whoever runs it, so at
//! most one pass does ([`RoundClaim`]).
//! A pass:
//!
//! 1. **snapshots** the victims (`LogState::pick_victims`:
//!    checkpoint-covered slots first) and their live-block sets under
//!    the log mutex alone,
//! 2. **prefilters** the sets under shard *read* locks, and then, a
//!    victim at a time,
//! 3. **prefetches** the victim's blocks from the device with no lock
//!    held at all — a sealed victim's bytes are immutable until its
//!    slot is freed, and a slot freed-and-reused mid-read is caught by
//!    the re-validation below, so slow media reads never extend any
//!    lock hold time,
//! 4. **relocates** them in short *scoped* write-lock windows,
//!    re-validating each block's mapping at relocation time and
//!    skipping blocks mutated since the snapshot, and **releases** the
//!    victim — covered and now empty — in one short full session, so a
//!    slot comes back when it is empty and not when the pass ends.
//! 5. Only a pass whose victims were *not* covered (none was) writes
//!    the **covering checkpoint** itself, between sessions, with the
//!    one writer (`LldInner::checkpoint`: the covered point is pinned in
//!    one short full session, then each shard's slab is encoded under
//!    only that shard's write lock and written with no mapping-layer
//!    locks held), and then runs the release sweep.
//!
//! Foreground operations in disjoint shards keep committing while
//! phases 1–4 run; no phase of a pass dumps the whole map under a
//! stop-the-world session (the release sweep's full session only walks
//! per-slot counters).
//!
//! Between rounds the thread takes two jobs off operations that need
//! not wait for them, one at a time: a sealed segment a lazy operation
//! hands over ([`Cleanerd::offer_seal`]), and the checkpoint a seal
//! found due once the log's suffix is past its bound
//! ([`Cleanerd::offer_checkpoint`]), which it writes behind any segment
//! it holds, with the same incremental writer. While it checkpoints it
//! refuses seals, as in a round: the checkpoint's *begin* waits for
//! every unwritten segment. Where it refuses a checkpoint — absent,
//! `futile` or stopping — or the suffix is past twice its bound, the
//! session that found it due writes it itself (docs/CLEANER.md "The
//! thread's other jobs").
//!
//! Lifecycle is watermark-driven, one rule per watermark: a segment
//! roll that leaves fewer free slots than the *low watermark*
//! (`cleaner.target_free_segments`) kicks the thread, and one that
//! leaves fewer than the *emergency level* (`min_free_segments`) raises
//! `needs_clean`, thread or no thread: the session's caller runs a
//! round once the session is over, behind the one the thread may be
//! in. Nobody stalls for the thread. Inside a session the only
//! cleaning is the reserve pass of a roll that finds no slot to open
//! (`Mutation::compact`, `cleaner.rs`).
//!
//! Lock order (see docs/CLEANER.md for the full proof): the
//! coordination state below is a leaf lock, never held while acquiring
//! any mapping-layer or log lock, and the pass itself only ever uses
//! the ordinary session types, so a pass obeys the canonical
//! ARU-slots → shards → log hierarchy by construction, on whichever
//! thread it runs.

use crate::cleaner::cleaning_gains;
use crate::error::Result;
use crate::lld::{Lld, LldInner};
use crate::obs::{cleaner_trace, Stage};
use crate::segment::{extent, SegmentBuilder};
use crate::types::{BlockId, PhysAddr, SegmentId};
use ld_disk::{BlockDevice, Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::Duration;

/// How long the thread sleeps between watermark polls when nobody
/// kicks it (also the retry cadence after a futile pass).
const POLL: Duration = Duration::from_millis(100);

/// Most victims one pass will snapshot (bounds the memory and the
/// relocation work of a single pass; further victims wait for the next
/// pass).
const MAX_VICTIMS_PER_PASS: usize = 64;

/// Live blocks relocated per scoped write window: small enough that a
/// window never holds its shard locks for long, large enough to
/// amortize the session setup.
const RELOC_BATCH: usize = 16;

/// Coordination state of the background cleaner thread. A leaf lock:
/// never held while acquiring any mapping-layer or log lock.
#[derive(Debug, Default)]
pub(crate) struct Cleanerd {
    state: Mutex<CleanerdState>,
    /// Foreground → cleanerd: free segments fell below a watermark.
    wake: Condvar,
    /// A round ended: a caller waiting to run one re-checks its claim.
    eased: Condvar,
}

/// What the thread is doing. One job at a time, set under the state
/// lock by whoever gives the thread the job.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// No thread: none was configured, or it has exited.
    #[default]
    Absent,
    /// In its wait at the loop head, or on its way there.
    Idle,
    /// Handed a sealed segment ([`offer_seal`](Cleanerd::offer_seal)),
    /// from the offer until the write has returned.
    Writing,
    /// In a cleaning round.
    Round,
    /// Writing a checkpoint a seal found due
    /// ([`offer_checkpoint`](Cleanerd::offer_checkpoint)).
    Checkpoint,
}

#[derive(Debug, Default)]
struct CleanerdState {
    job: Job,
    /// Shutdown requested; the thread exits at the next loop head.
    stop: bool,
    /// Pending wake-ups (coalesced; cleared when the thread starts a
    /// round).
    kicks: u64,
    /// The last round freed nothing: the disk is genuinely near-full of
    /// live data, so kicks, seals and checkpoints are refused until the
    /// periodic poll observes progress again.
    futile: bool,
    /// The thread running a round, the cleaner thread or a caller's:
    /// the one round a disk runs at a time ([`RoundClaim`]).
    cleaning: Option<ThreadId>,
    /// The segment of a `Writing` job until the thread picks it up; it
    /// writes it before anything else, also on its way out.
    seal: Option<Arc<SegmentBuilder>>,
    /// A seal found the log's suffix past its bound: the thread writes a
    /// checkpoint next, behind the seal it holds, if the suffix still is
    /// by then.
    checkpoint: bool,
    handle: Option<JoinHandle<()>>,
}

impl CleanerdState {
    /// A thread that takes kicks: alive, not stopping, and its last
    /// round got somewhere.
    fn healthy(&self) -> bool {
        self.job != Job::Absent && !self.stop && !self.futile
    }
}

impl Cleanerd {
    pub(crate) fn new() -> Self {
        Cleanerd::default()
    }

    /// Wakes the cleaner thread, if there is a healthy one (running,
    /// not stopping, not futile).
    pub(crate) fn kick(&self) {
        let mut st = self.state.lock();
        if st.healthy() {
            st.kicks += 1;
            self.wake.notify_one();
        }
    }

    /// Offers the thread a sealed segment to write. It takes one only
    /// while it is idle with nothing asked of it: a caller that finds
    /// it in a round or a checkpoint, about to start a round (a pending
    /// kick: the roll that finds free slots below the low watermark
    /// kicks before its session ends), writing an earlier seal, futile,
    /// stopping or absent gets `false` and writes the segment itself. Nobody ever
    /// waits for the thread. One job at a time is what was measured
    /// (docs/CLEANER.md) and what keeps a round live: its covering
    /// checkpoint waits for every unwritten segment (W2), and one queued
    /// behind the round would be waiting for the round.
    pub(crate) fn offer_seal(&self, seg: &Arc<SegmentBuilder>) -> bool {
        let mut st = self.state.lock();
        if st.job != Job::Idle || st.kicks > 0 || st.stop || st.futile {
            return false;
        }
        st.job = Job::Writing;
        st.seal = Some(Arc::clone(seg));
        self.wake.notify_one();
        true
    }

    /// Offers the thread the checkpoint a seal found due. It takes it
    /// whatever its job, as the next one: behind the seal it was handed,
    /// behind the round it is in, before a round it was kicked for.
    /// Offers coalesce, and one made while it checkpoints asks for a
    /// second checkpoint that the thread writes only if the suffix is
    /// still past its bound once the first has committed. A thread that
    /// is futile, stopping or absent refuses (`false`), and the caller
    /// writes the checkpoint itself. While the thread checkpoints, its
    /// job is not `Idle`, so it refuses seals: its *begin* waits for
    /// every unwritten segment (W2).
    pub(crate) fn offer_checkpoint(&self) -> bool {
        let mut st = self.state.lock();
        if !st.healthy() {
            return false;
        }
        st.checkpoint = true;
        self.wake.notify_one();
        true
    }

    /// Keeps the spawned thread's handle. Where the OS refused the
    /// thread the disk carries on without one (`Absent`): it is offered
    /// nothing, and callers run the rounds, as with `background: false`.
    fn adopt(&self, spawned: std::io::Result<JoinHandle<()>>) {
        let mut st = self.state.lock();
        match spawned {
            Ok(handle) => st.handle = Some(handle),
            Err(_) => st.job = Job::Absent,
        }
    }

    /// Requests shutdown and joins the thread. Idempotent; called from
    /// `Lld::into_device` and `Drop for Lld`.
    pub(crate) fn shutdown_and_join(&self) {
        let handle = {
            let mut st = self.state.lock();
            st.stop = true;
            self.wake.notify_all();
            st.handle.take()
        };
        if let Some(h) = handle {
            // A panic on the cleaner thread has already poisoned the
            // state it held; surfacing it here would only mask the
            // original panic location.
            let _ = h.join();
        }
    }
}

/// Starts the cleaner thread when the configuration asks for one.
pub(crate) fn spawn_if_configured<D: BlockDevice + 'static>(ld: &Lld<D>) {
    if !ld.cleaner_background() {
        return;
    }
    // Idle before the spawn, so a kick or a seal arriving between the
    // two is accepted: the thread looks for both before its first wait.
    ld.cleanerd.state.lock().job = Job::Idle;
    let inner = ld.arc_inner();
    let spawned = std::thread::Builder::new()
        .name("ld-cleanerd".into())
        .spawn(move || cleanerd_main(&inner));
    ld.cleanerd.adopt(spawned);
}

/// One victim chosen by the snapshot phase.
struct Victim {
    slot: u32,
    /// Log sequence number the slot held at snapshot time; relocation
    /// windows and the release re-verify it, so a victim freed and
    /// reused in the meantime (a deletion emptied it, or a reserve pass
    /// took it) is simply dropped.
    seq: u64,
    /// Resident blocks at snapshot time (prefiltered under shard read
    /// locks to those still mapped into this victim), with their data
    /// prefetched lock-free before the write windows.
    blocks: Vec<(BlockId, PhysAddr, Vec<u8>)>,
    /// The victim changed under us (re-sealed or freed); skip it.
    lost: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct PassOutcome {
    freed: u32,
    relocated: u64,
    /// The sectors the relocated blocks take.
    moved: u64,
    stale: u64,
}

/// Unwind guard for the cleaner thread: a panic anywhere in a pass
/// leaves poisoned locks behind that take the next foreground session
/// down with no record of what the cleaner was doing — so dump a
/// flight file on the way out. The dump itself runs under
/// `catch_unwind` (it may hit the very locks the panic poisoned) so a
/// failed dump can never escalate an unwinding thread into an abort.
struct PanicFlight<'a, D: BlockDevice>(&'a LldInner<D>);

impl<D: BlockDevice> Drop for PanicFlight<'_, D> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let ld = self.0;
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ld.flight_dump("cleaner_panic", "panic on the cleaner thread");
            }));
        }
    }
}

fn cleanerd_main<D: BlockDevice + 'static>(ld: &LldInner<D>) {
    ld_disk::register_thread_name("ld-cleanerd");
    let _panic_guard = PanicFlight(ld);
    let low_watermark = u64::from(ld.cleaner_cfg.target_free_segments);
    let mut st = ld.cleanerd.state.lock();
    loop {
        // A handed-over seal first, and before leaving: nobody else
        // writes it. The thread holds nothing meanwhile; a failure is
        // latched for the next flush (docs/INVARIANTS.md I4).
        if let Some(seg) = st.seal.take() {
            drop(st);
            let _ = ld.write_sealed(&seg, &mut None);
            st = ld.cleanerd.state.lock();
            st.job = Job::Idle;
            continue;
        }
        if st.stop {
            break;
        }
        // Then a checkpoint a seal found due, unless somebody else's has
        // shortened the suffix since. A failure is counted; the next
        // seal asks again.
        if std::mem::take(&mut st.checkpoint) {
            st.job = Job::Checkpoint;
            drop(st);
            let due = ld.checkpoint_due(&ld.log.lock());
            if due {
                match ld.checkpoint() {
                    Ok(()) => ld.stats.checkpoints_handed_off.inc(),
                    Err(_) => ld.stats.checkpoint_failures.inc(),
                }
            }
            st = ld.cleanerd.state.lock();
            st.job = Job::Idle;
            continue;
        }
        if st.kicks == 0 {
            let (g, _timed_out) = ld.cleanerd.wake.wait_timeout(st, POLL);
            st = g;
            if st.stop || st.seal.is_some() || st.checkpoint {
                continue;
            }
        }
        st.kicks = 0;
        if ld.free_slots_hint.load(Ordering::Relaxed) >= low_watermark {
            // Nothing to clean — a poll, or a kick that foreground
            // deletions or a caller's round overtook: stay idle, and
            // accept kicks again.
            st.futile = false;
            continue;
        }
        st.job = Job::Round;
        drop(st);
        // A failed pass is recorded by `round`; the thread goes futile.
        let gained = round(ld).unwrap_or(Some(false));
        st = ld.cleanerd.state.lock();
        st.job = Job::Idle;
        if let Some(gained) = gained {
            st.futile = !gained;
        }
    }
    st.job = Job::Absent;
}

/// The round a disk runs at a time, claimed by the thread that runs it
/// and let go on every exit path. Its two rules: at most one pass runs
/// at a time on a disk, whether the cleaner thread or a caller runs it;
/// and a pass started from the housekeeping step starts no nested pass
/// through its own relocation windows' housekeeping steps (they run on
/// the thread that holds the claim, and leave the work to its round).
/// Everyone else waits for the round to end, the cleaner thread too.
struct RoundClaim<'a>(&'a Cleanerd);

impl<'a> RoundClaim<'a> {
    /// Claims the round, once the one another thread runs has ended:
    /// a caller at the emergency level does not outrun the cleaner
    /// thread. `None` where this thread runs one already.
    fn take(cleanerd: &'a Cleanerd) -> Option<Self> {
        let me = std::thread::current().id();
        let mut st = cleanerd.state.lock();
        while st.cleaning.is_some_and(|t| t != me) {
            st = cleanerd.eased.wait(st);
        }
        if st.cleaning.is_some() {
            return None;
        }
        st.cleaning = Some(me);
        Some(RoundClaim(cleanerd))
    }
}

impl Drop for RoundClaim<'_> {
    fn drop(&mut self) {
        self.0.state.lock().cleaning = None;
        self.0.eased.notify_all();
    }
}

/// A round, on the calling thread: passes back to back while free
/// slots are below the low watermark, until one gains no room net of
/// what its relocations took or fails. Behind the round another
/// thread runs, and nothing where this one runs one already (see
/// [`RoundClaim`]). Whether a pass gained room; `None` if none ran.
pub(crate) fn round<D: BlockDevice>(ld: &LldInner<D>) -> Result<Option<bool>> {
    let mut gained = None;
    let Some(_claim) = RoundClaim::take(&ld.cleanerd) else {
        return Ok(gained);
    };
    let low_watermark = u64::from(ld.cleaner_cfg.target_free_segments);
    while ld.free_slots_hint.load(Ordering::Relaxed) < low_watermark {
        if ld.cleanerd.state.lock().stop {
            break;
        }
        if gained.is_none() {
            ld.obs
                .cleaner_wake(ld.now(), ld.free_slots_hint.load(Ordering::Relaxed) as u32);
        }
        match run_pass(ld) {
            // Progress is net: on a disk full of live data a pass fills
            // a slot with the blocks of the one it frees, and counted as
            // progress such passes would go on, a checkpoint every few,
            // while a caller waits behind the round.
            Ok(o) if o.freed > 0 && cleaning_gains(&ld.layout, o.freed.into(), o.moved) => {
                gained = Some(true);
            }
            // No progress (nothing to reclaim): the round ends here.
            Ok(_) => {
                gained.get_or_insert(false);
                break;
            }
            // A failed pass may have nobody to report to (the thread, a
            // housekeeping step): record what the system looked like
            // when it happened.
            Err(e) => {
                let _ = ld.flight_dump("cleaner_pass_error", &e.to_string());
                return Err(e);
            }
        }
    }
    Ok(gained)
}

impl<D: BlockDevice> LldInner<D> {
    /// Runs the cleaner on the calling thread: hands back every covered
    /// slot that holds no live block, then runs a round — passes until
    /// `target_free_segments` slots are free or a pass gains no room
    /// net of what it took — behind any round that is running.
    ///
    /// # Errors
    ///
    /// Device errors; [`LldError::DiskFull`](crate::LldError::DiskFull)
    /// if relocation itself runs out of space (the device is genuinely
    /// full).
    pub fn run_cleaner(&self) -> Result<()> {
        release_sweep(self)?;
        round(self).map(|_| ())
    }
}

/// The cleaning pass, on whichever thread runs the round: snapshot,
/// then relocate → release a victim at a time (→ checkpoint → release
/// where none was covered).
fn run_pass<D: BlockDevice>(ld: &LldInner<D>) -> Result<PassOutcome> {
    ld.stats.cleaner_runs.inc();
    ld.stats.cleaner_passes.inc();
    // One trace per pass (the pass ordinal), stamped into the
    // thread-local context so the segment writes the pass issues are
    // attributed to it.
    let trace = cleaner_trace(ld.stats.cleaner_passes.get());
    let _trace_ctx = ld_disk::trace_scope(trace);
    let mut out = PassOutcome::default();

    // Phase 1: victim snapshot under the log mutex alone. Victims are
    // the policy's (`LogState::pick_victims`: covered slots first,
    // emptiest first, one output segment's worth) and no more of
    // them than the low watermark is short of: the round goes on while
    // it is, and a victim left for later has fewer live blocks by then.
    // A `covered` pass writes no checkpoint and hands each victim back
    // as soon as it is empty.
    let pack_cap = ld.layout.data_sectors_per_slot();
    let phase = ld.obs.stage(ld.now(), trace, Stage::CleanerSnapshot);
    let (mut victims, covered): (Vec<Victim>, bool) = {
        let log = ld.log.lock();
        let short = (ld.cleaner_cfg.target_free_segments as usize)
            .saturating_sub(log.free_slots.len())
            .clamp(1, MAX_VICTIMS_PER_PASS);
        let (picked, covered) = log.pick_victims(pack_cap, short);
        let victims = picked
            .into_iter()
            .map(|(slot, seq)| Victim {
                slot,
                seq,
                blocks: log.residents[slot as usize]
                    .iter()
                    .map(|&id| {
                        // Placeholder address; phase 2 fills in the real
                        // committed address under the shard read locks.
                        (
                            id,
                            PhysAddr {
                                segment: SegmentId::new(slot),
                                sector: 0,
                                sectors: 0,
                            },
                            Vec::new(),
                        )
                    })
                    .collect(),
                lost: false,
            })
            .collect();
        (victims, covered)
    };
    phase.end();
    if victims.is_empty() {
        return Ok(out);
    }

    // Phase 2: prefilter each victim's resident set under shard *read*
    // locks — record the committed address of every block still mapped
    // into the victim, drop the rest. Foreground writers stay
    // unblocked; anything that moves after this is caught by the
    // re-validation inside the write windows.
    let phase = ld.obs.stage(ld.now(), trace, Stage::CleanerPrefilter);
    for v in &mut victims {
        if v.blocks.is_empty() {
            continue;
        }
        let mut bits = 0u64;
        for (id, _, _) in &v.blocks {
            bits |= ld.maps.bit_of(id.get());
        }
        let view = ld.read_view(0, bits);
        v.blocks.retain_mut(|(id, addr, _)| {
            match view
                .committed_view(*id)
                .filter(|r| r.allocated)
                .and_then(|r| r.addr)
            {
                Some(a) if a.segment.get() == v.slot => {
                    *addr = a;
                    true
                }
                _ => {
                    out.stale += 1;
                    false
                }
            }
        });
        v.blocks.sort_unstable_by_key(|(id, _, _)| id.get());
    }
    phase.end();

    // Phases 3 and 4, a victim at a time, so that the first slot comes
    // back after one victim's reads and not after all of them.
    let mut aborted = false;
    for v in &mut victims {
        // Phase 3: prefetch the victim's blocks with *no* lock held.
        // Safe because a sealed slot's bytes never change while the slot
        // is allocated; the only way they can change is the slot being
        // freed and reused, which bumps `slot_seq` — and the write
        // windows below re-verify the sequence number (and each block's
        // committed address) before any prefetched byte is placed, so a
        // torn or stale read is discarded, never relocated. Keeping
        // media reads — the slow half of relocation on a real device —
        // outside the windows is what makes them short.
        let phase = ld.obs.stage(ld.now(), trace, Stage::CleanerPrefetch);
        // Once a window has failed (device error or out of room) nothing
        // more is relocated; what was completed before is still released.
        v.lost = aborted
            || v.blocks.iter_mut().any(|(_, addr, data)| {
                data.resize(ld.layout.block_size, 0);
                ld.read_extent(*addr, data).is_err()
            });
        phase.end();
        if v.lost {
            continue;
        }

        // Phase 4: relocate in short scoped write windows. Each window
        // first re-verifies (under the log mutex, which then stays held
        // for the rest of the window) that the victim still holds the
        // snapshotted sealed segment, then re-validates every block's
        // committed address before copying it forward. Unlike the
        // reserve pass, relocation keeps one slot in reserve (`reserve =
        // 1`): until a victim is released the pass is a space *consumer*
        // and must never take the last slot — that slot stays available
        // for deletions and the reserve pass.
        let phase = ld.obs.stage(ld.now(), trace, Stage::CleanerRelocate);
        for chunk in v.blocks.chunks(RELOC_BATCH) {
            let mut bits = 0u64;
            for (id, _, _) in chunk {
                bits |= ld.maps.bit_of(id.get());
            }
            let window = ld.with_mutation_at(0, bits, |m| -> Result<bool> {
                {
                    let log = m.log();
                    let s = v.slot as usize;
                    if log.slot_seq[s] != v.seq || log.free_slots.contains(&v.slot) {
                        return Ok(false);
                    }
                }
                for (id, addr, data) in chunk {
                    let ts = match m
                        .map
                        .committed_view(*id)
                        .filter(|r| r.allocated && r.addr == Some(*addr))
                    {
                        Some(r) => r.ts,
                        None => {
                            out.stale += 1;
                            continue;
                        }
                    };
                    // Still mapped at the prefetched address, and the
                    // victim still holds the snapshotted segment: the
                    // prefetched bytes are the committed version.
                    m.place_block_data(*id, extent(data), ts, None, 1)?;
                    out.relocated += 1;
                    out.moved += u64::from(addr.sectors);
                    m.lld.stats.blocks_relocated.inc();
                    m.lld.stats.cleaner_blocks_relocated.inc();
                }
                Ok(true)
            });
            ld.after_session(window.is_ok());
            if !matches!(window, Ok(true)) {
                v.lost = true;
                aborted = window.is_err();
                break;
            }
        }
        v.blocks = Vec::new();
        phase.end();
        // A covered victim comes back right behind its last window,
        // before the segment holding the relocation records is sealed:
        // the release stamp (W3) orders the slot's reuse behind it.
        if covered && !v.lost {
            out.freed += release_sweep(ld)?;
        }
    }

    // Phase 5, for victims the checkpoint did not cover when they were
    // picked: the covering checkpoint — unless somebody else's has
    // covered them by now — which seals the segment holding the
    // relocation records, and the release sweep.
    if !covered && victims.iter().any(|v| !v.lost) {
        // Written a shard at a time — each slab under only its shard's
        // write lock — instead of as a stop-the-world table dump, and
        // between sessions, as every checkpoint is. The sweep keys off
        // `checkpoint_seq`, not off who wrote it.
        let checkpoint_seq = ld.log.lock().checkpoint_seq;
        if victims.iter().any(|v| !v.lost && v.seq > checkpoint_seq) {
            ld.checkpoint()?;
        }
        out.freed += release_sweep(ld)?;
    }

    ld.stats.cleaner_stale_skips.add(out.stale);
    ld.obs.cleaner_pass_done(
        ld.now(),
        ld.free_slots_hint.load(Ordering::Relaxed) as u32,
        out.relocated,
    );
    Ok(out)
}

/// The release sweep, in one short full session: frees *every* sealed
/// slot that is covered by the checkpoint and empty of live blocks —
/// provably reclaimable whatever happened since the snapshot — which
/// both releases the pass's victims and picks up any other slot
/// foreground deletions emptied.
fn release_sweep<D: BlockDevice>(ld: &LldInner<D>) -> Result<u32> {
    let release = (ld.obs).stage(ld.now(), ld_disk::current_trace(), Stage::CleanerRelease);
    let freed = ld.with_mutation(|m| {
        let freed = m.log().release_covered_empty();
        m.sync_free_hint();
        Ok(freed)
    })?;
    release.end();
    Ok(freed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, LldConfig, Position};
    use ld_disk::MemDisk;

    /// A thread the OS refuses leaves a disk that cleans on its callers'
    /// threads: nothing is handed to the missing thread, and an
    /// overwrite churn that wraps the log goes on.
    #[test]
    fn a_refused_cleaner_thread_leaves_the_rounds_to_callers() {
        let cfg = LldConfig {
            block_size: 512,
            segment_bytes: 4096,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(1 << 20), &cfg).unwrap();
        assert!(ld.cleaner_background());
        // Back to the moment before the spawn, and the spawn refused.
        ld.cleanerd.shutdown_and_join();
        *ld.cleanerd.state.lock() = CleanerdState {
            job: Job::Idle,
            ..CleanerdState::default()
        };
        ld.cleanerd.adopt(Err(std::io::Error::other("no thread")));
        assert_eq!(ld.cleanerd.state.lock().job, Job::Absent);

        let l = ld.new_list(Ctx::Simple).unwrap();
        let mut hot = Vec::new();
        for _ in 0..8 {
            let pos = hot.last().map_or(Position::First, |&p| Position::After(p));
            hot.push(ld.new_block(Ctx::Simple, l, pos).unwrap());
        }
        for i in 0..16 * ld.n_segments() as usize {
            ld.write(Ctx::Simple, hot[i % 8], &[i as u8; 512]).unwrap();
            let s = ld.stats();
            assert_eq!((s.seals_handed_off, s.checkpoints_handed_off), (0, 0));
        }
        ld.flush().unwrap();
        assert!(ld.stats().cleaner_passes > 0, "no round ran");
        ld.check().unwrap();
    }
}
