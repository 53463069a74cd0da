//! The background cleaner thread ("cleanerd").
//!
//! The inline cleaner (see `cleaner.rs`) runs inside a *full* mutation
//! session — every shard write-locked — so cleaning stalls all ARU
//! traffic for the whole pass. `cleanerd` moves that work to a
//! dedicated thread that:
//!
//! 1. **snapshots** victim candidates and their live-block sets under
//!    the log mutex alone (and prefilters the sets under shard *read*
//!    locks),
//! 2. **prefetches** every victim block's data from the device with no
//!    lock held at all — a sealed victim's bytes are immutable until
//!    its slot is freed, and a slot freed-and-reused mid-read is caught
//!    by the re-validation below, so slow media reads never extend any
//!    lock hold time,
//! 3. **relocates** the prefetched blocks in short *scoped* write-lock
//!    windows, re-validating each block's mapping at relocation time
//!    and skipping blocks mutated since the snapshot,
//! 4. writes the **covering checkpoint** itself — *incrementally*
//!    (`checkpoint_incremental`): the covered point is pinned in one
//!    short full session, then each shard's snapshot slab is encoded
//!    under only that shard's write lock and written with no
//!    mapping-layer locks held — and only then
//! 5. **releases** victim slots (after re-validating, under a full
//!    session, that each slot is sealed, covered, and empty of live
//!    blocks).
//!
//! Foreground operations in disjoint shards keep committing while
//! phases 1–4 run; no phase of a background pass dumps the whole map
//! under a stop-the-world session anymore (the release sweep's full
//! session only walks per-slot counters).
//!
//! Lifecycle is watermark-driven: segment rolls kick the thread when
//! free segments drop below the *low watermark*
//! (`cleaner.target_free_segments`), and space-consuming foreground
//! operations briefly stall at the *high watermark*
//! (`cleaner.backpressure_free_segments`) to let the thread catch up.
//! The inline full-session cleaner remains the emergency fallback: a
//! full session under `min_free_segments` still cleans inline, and a
//! scoped roll that cannot kick a healthy cleanerd sets the
//! `needs_clean` flag as before.
//!
//! Lock order (see docs/CLEANER.md for the full proof): the
//! coordination state below is a leaf lock, never held while acquiring
//! any mapping-layer or log lock, and the pass itself only ever uses
//! the ordinary session types, so cleanerd obeys the canonical
//! ARU-slots → shards → log hierarchy by construction.

use crate::error::Result;
use crate::lld::{Lld, LldInner};
use crate::obs::{cleaner_trace, Obs, Stage};
use crate::types::{BlockId, PhysAddr, SegmentId};
use ld_disk::{BlockDevice, Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the thread sleeps between watermark polls when nobody
/// kicks it (also the retry cadence after a futile pass).
const POLL: Duration = Duration::from_millis(100);

/// Upper bound on one foreground stall at the backpressure gate.
const STALL_MAX: Duration = Duration::from_millis(50);

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
    /// Cleanerd → foreground: a pass freed slots (or the thread died);
    /// backpressure stalls re-check their predicate.
    eased: Condvar,
}

#[derive(Debug, Default)]
struct CleanerdState {
    /// The thread is alive and accepting kicks.
    running: bool,
    /// Shutdown requested; the thread exits at the next loop head.
    stop: bool,
    /// Pending wake-ups (coalesced; cleared when the thread starts a
    /// round).
    kicks: u64,
    /// The last pass freed nothing: the disk is genuinely near-full of
    /// live data, so kicks and stalls are pointless until the periodic
    /// poll observes progress again. The inline fallback takes over.
    futile: bool,
    handle: Option<JoinHandle<()>>,
}

impl Cleanerd {
    pub(crate) fn new() -> Self {
        Cleanerd::default()
    }

    /// Wakes the cleaner thread. Returns `false` when there is no
    /// healthy thread to wake (not running, stopping, or known-futile),
    /// in which case the caller falls back to inline cleaning.
    pub(crate) fn kick(&self) -> bool {
        let mut st = self.state.lock();
        if !st.running || st.stop || st.futile {
            return false;
        }
        st.kicks += 1;
        self.wake.notify_one();
        true
    }

    /// Requests shutdown and joins the thread. Idempotent; called from
    /// `Lld::into_device` and `Drop for Lld`.
    pub(crate) fn shutdown_and_join(&self) {
        let handle = {
            let mut st = self.state.lock();
            st.stop = true;
            self.wake.notify_all();
            self.eased.notify_all();
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
    if !ld.cleaner_cfg.enabled || !ld.cleaner_cfg.background {
        return;
    }
    // Mark running before the spawn so a kick arriving between the two
    // is accepted rather than falling back to inline cleaning.
    ld.cleanerd.state.lock().running = true;
    let inner = ld.arc_inner();
    let handle = std::thread::Builder::new()
        .name("ld-cleanerd".into())
        .spawn(move || cleanerd_main(&inner))
        .expect("spawning the cleanerd thread failed");
    ld.cleanerd.state.lock().handle = Some(handle);
}

/// One victim chosen by the snapshot phase.
struct Victim {
    slot: u32,
    /// Log sequence number the slot held at snapshot time; relocation
    /// windows and the release re-verify it, so a victim freed and
    /// reused by the inline cleaner in the meantime is simply dropped.
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
        if st.stop {
            break;
        }
        if st.kicks == 0 {
            let (g, _timed_out) = ld.cleanerd.wake.wait_timeout(st, POLL);
            st = g;
            if st.stop {
                break;
            }
        }
        st.kicks = 0;
        drop(st);

        let mut attempted = false;
        let mut freed_any = false;
        while ld.free_slots_hint.load(Ordering::Relaxed) < low_watermark {
            if ld.cleanerd.state.lock().stop {
                break;
            }
            if !attempted {
                attempted = true;
                ld.obs
                    .cleaner_wake(ld.now(), ld.free_slots_hint.load(Ordering::Relaxed) as u32);
            }
            let outcome = run_pass(ld);
            // Waiters re-check their predicate whether or not the pass
            // made progress (a dead end must not strand them for the
            // full stall bound).
            ld.cleanerd.eased.notify_all();
            match outcome {
                Ok(o) if o.freed > 0 => freed_any = true,
                // A failed pass is invisible to every foreground
                // caller — record what the system looked like when it
                // happened.
                Err(e) => {
                    let _ = ld.flight_dump("cleaner_pass_error", &e.to_string());
                    break;
                }
                // No progress (nothing to reclaim): stop this round and
                // let the periodic poll retry.
                _ => break,
            }
        }

        st = ld.cleanerd.state.lock();
        if attempted {
            st.futile = !freed_any;
        } else if ld.free_slots_hint.load(Ordering::Relaxed) >= low_watermark {
            // Headroom restored by foreground deletions / inline
            // cleaning: accept kicks again.
            st.futile = false;
        }
    }
    st.running = false;
    drop(st);
    ld.cleanerd.eased.notify_all();
}

/// One background cleaning pass: snapshot → relocate → checkpoint →
/// release.
fn run_pass<D: BlockDevice + 'static>(ld: &LldInner<D>) -> Result<PassOutcome> {
    let timer = ld.obs.timer();
    ld.stats.cleaner_runs.inc();
    ld.stats.cleaner_passes.inc();
    // One trace per pass (the pass ordinal), stamped into the
    // thread-local context so the relocation writes the pass issues are
    // attributed to it by the pipelined device.
    let trace = cleaner_trace(ld.stats.cleaner_passes.get());
    let _trace_ctx = ld_disk::trace_scope(trace);
    let mut out = PassOutcome::default();

    // Phase 1: victim snapshot under the log mutex alone. Victims are
    // sealed, non-free slots below the written watermark (phase 3 reads
    // them from the device), packed greedily by ascending live count
    // so that several mostly-empty segments compact into (at most) one
    // output segment's worth of relocated blocks.
    let slots_cap = ld.layout.slots_per_segment();
    let phase_timer = ld.obs.timer();
    ld.obs.stage_begin(ld.now(), trace, Stage::CleanerSnapshot);
    let mut victims: Vec<Victim> = {
        let log = ld.log.lock();
        log.pack_victims(log.watermark() - 1, slots_cap, MAX_VICTIMS_PER_PASS)
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
                                slot: 0,
                            },
                            Vec::new(),
                        )
                    })
                    .collect(),
                lost: false,
            })
            .collect()
    };
    ld.obs.stage_end(
        ld.now(),
        trace,
        Stage::CleanerSnapshot,
        Obs::elapsed(phase_timer),
    );
    if victims.is_empty() {
        return Ok(out);
    }

    // Phase 2: prefilter each victim's resident set under shard *read*
    // locks — record the committed address of every block still mapped
    // into the victim, drop the rest. Foreground writers stay
    // unblocked; anything that moves after this is caught by the
    // re-validation inside the write windows.
    let phase_timer = ld.obs.timer();
    ld.obs.stage_begin(ld.now(), trace, Stage::CleanerPrefilter);
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
                .committed_view_block(*id)
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
    ld.obs.stage_end(
        ld.now(),
        trace,
        Stage::CleanerPrefilter,
        Obs::elapsed(phase_timer),
    );

    // Phase 3: prefetch every victim block's data with *no* lock held.
    // Safe because a sealed slot's bytes never change while the slot is
    // allocated; the only way they can change is the slot being freed
    // and reused, which bumps `slot_seq` — and the write windows below
    // re-verify the sequence number (and each block's committed
    // address) before any prefetched byte is placed, so a torn or stale
    // read is discarded, never relocated. Keeping media reads — the
    // slow half of relocation on a real device — outside the windows is
    // what makes them short.
    let phase_timer = ld.obs.timer();
    ld.obs.stage_begin(ld.now(), trace, Stage::CleanerPrefetch);
    for v in &mut victims {
        for (_, addr, data) in &mut v.blocks {
            data.resize(ld.layout.block_size, 0);
            if ld
                .device
                .read_at(ld.layout.block_offset(*addr), data)
                .is_err()
            {
                v.lost = true;
                break;
            }
        }
    }
    ld.obs.stage_end(
        ld.now(),
        trace,
        Stage::CleanerPrefetch,
        Obs::elapsed(phase_timer),
    );

    // Phase 4: relocate in short scoped write windows. Each window
    // first re-verifies (under the log mutex, which then stays held for
    // the rest of the window) that the victim still holds the
    // snapshotted sealed segment, then re-validates every block's
    // committed address before copying it forward. Unlike the inline
    // cleaner, relocation keeps one slot in reserve (`reserve = 1`):
    // the victims are released only in the final phase, so until then
    // the pass is a space *consumer* and must never take the last slot
    // — that slot stays available for deletions and the inline
    // fallback.
    let mut aborted = false;
    let phase_timer = ld.obs.timer();
    ld.obs.stage_begin(ld.now(), trace, Stage::CleanerRelocate);
    for v in &mut victims {
        if aborted || v.lost {
            // An earlier window failed (device error or out of room),
            // or this victim's prefetch failed: stop relocating, but
            // still release any victims completed before the failure.
            v.lost = true;
            continue;
        }
        let mut lost = false;
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
                        .committed_view_block(*id)
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
                    m.place_block_data(*id, data, ts, None, 1)?;
                    out.relocated += 1;
                    m.lld.stats.blocks_relocated.inc();
                    m.lld.stats.cleaner_blocks_relocated.inc();
                }
                Ok(true)
            });
            ld.after_scoped();
            match window {
                Ok(true) => {}
                Ok(false) => {
                    lost = true;
                    break;
                }
                Err(_) => {
                    lost = true;
                    aborted = true;
                    break;
                }
            }
        }
        v.lost = lost;
    }
    ld.obs.stage_end(
        ld.now(),
        trace,
        Stage::CleanerRelocate,
        Obs::elapsed(phase_timer),
    );

    // Final phases under one full session: the covering checkpoint
    // (which seals the segment holding the relocation records, so they
    // are on disk before any victim can be reused) and the release
    // sweep. The sweep frees *every* sealed slot that is covered by the
    // checkpoint and empty of live blocks — provably reclaimable
    // whatever happened since the snapshot — which both releases our
    // victims and picks up any other segment foreground deletions
    // emptied.
    if victims.iter().all(|v| v.lost) {
        // Nothing to release; the relocation records (if any) seal with
        // the normal segment stream.
        ld.obs.cleaner_pass_done(
            ld.now(),
            ld.free_slots_hint.load(Ordering::Relaxed) as u32,
            out.relocated,
            timer,
        );
        return Ok(out);
    }
    let phase_timer = ld.obs.timer();
    ld.obs.stage_begin(ld.now(), trace, Stage::CleanerRelease);
    // The covering checkpoint is written a shard at a time — each
    // slab under only its shard's write lock — instead of as a
    // stop-the-world table dump. An abort (another checkpoint began
    // mid-flight) is fine: `checkpoint_seq` is then at least as fresh,
    // and the sweep below keys off it, not off who wrote it.
    ld.checkpoint_incremental()?;
    out.freed = ld.with_mutation(|m| {
        let freed = m.log().release_covered_empty();
        m.sync_free_hint();
        Ok(freed)
    })?;
    ld.obs.stage_end(
        ld.now(),
        trace,
        Stage::CleanerRelease,
        Obs::elapsed(phase_timer),
    );

    ld.stats.cleaner_stale_skips.add(out.stale);
    ld.obs.cleaner_pass_done(
        ld.now(),
        ld.free_slots_hint.load(Ordering::Relaxed) as u32,
        out.relocated,
        timer,
    );
    Ok(out)
}

impl<D: BlockDevice> LldInner<D> {
    /// High-watermark backpressure gate: called by space-consuming
    /// public operations *before they take any locks*. When free
    /// segments are at or below `cleaner.backpressure_free_segments`
    /// and a healthy cleanerd is running, the caller kicks it and waits
    /// (bounded) for a pass to free slots, so the operation proceeds
    /// scoped instead of degrading to a full session with inline
    /// cleaning.
    pub(crate) fn cleaner_gate(&self) {
        let cfg = &self.cleaner_cfg;
        if !cfg.enabled || !cfg.background {
            return;
        }
        let stall_at = u64::from(cfg.backpressure_free_segments);
        if self.free_slots_hint.load(Ordering::Relaxed) > stall_at {
            return;
        }
        let deadline = Instant::now() + STALL_MAX;
        let mut st = self.cleanerd.state.lock();
        if !st.running || st.stop || st.futile {
            return;
        }
        st.kicks += 1;
        self.cleanerd.wake.notify_one();
        self.stats.backpressure_stalls.inc();
        // The stall is charged to whatever trace the caller is inside
        // (usually none — the gate runs before any commit machinery);
        // its duration feeds the `backpressure_stall_ns` histogram.
        let trace = ld_disk::current_trace();
        let stall_timer = self.obs.timer();
        self.obs.stage_begin(self.now(), trace, Stage::CleanerGate);
        while self.free_slots_hint.load(Ordering::Relaxed) <= stall_at
            && st.running
            && !st.stop
            && !st.futile
        {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self.cleanerd.eased.wait_timeout(st, deadline - now);
            st = g;
        }
        drop(st);
        self.obs.stage_end(
            self.now(),
            trace,
            Stage::CleanerGate,
            Obs::elapsed(stall_timer),
        );
    }
}
