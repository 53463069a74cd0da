//! The group-commit stage.
//!
//! Concurrent durability requests (`flush`, `end_aru_sync`) enqueue
//! here: each caller takes a ticket, one caller becomes the *leader*,
//! seals the open segment (under the log lock), writes it and issues a
//! single device barrier covering every ticket taken before the seal.
//! Followers block on the batch outcome instead of issuing their own
//! barriers — the classic group commit the paper's lazy `EndARU`
//! durability invites. The leader lets go of leadership between its
//! seal and its barrier, so the next batch's seal write overlaps this
//! batch's barrier (docs/CONCURRENCY.md, "Group commit").

use crate::error::{LldError, Result};
use crate::lld::LldInner;
use crate::obs::{flush_trace, Stage};
use crate::types::AruId;
use ld_disk::BlockDevice;
use ld_disk::{Condvar, Mutex};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// A leader may claim while fewer than this many batches are released
/// but unretired: one in its barrier and one behind it, plain double
/// buffering. Callers arriving while both are out pile into the next
/// batch instead of each leading a batch of one, and after a power cut
/// at most one batch's writes have run ahead of a pending barrier.
const MAX_INFLIGHT_BATCHES: u64 = 2;

#[derive(Debug, Default)]
struct GcState {
    /// Tickets issued to durability callers.
    started: u64,
    /// Highest ticket claimed into some leader's batch. Batch size is
    /// computed against this under the state lock, so a caller arriving
    /// while a batch is still in its barrier is never counted twice and
    /// never lost: it is above `claimed`, so it belongs to the next
    /// leader's batch.
    claimed: u64,
    /// Highest `covering` of a batch whose barrier succeeded: every
    /// caller with `ticket < done` is durable. Barriers retire out of
    /// order and a later one covers every earlier seal, so `done` only
    /// moves forward.
    done: u64,
    /// Highest `covering` of a batch that failed, and its error: what a
    /// caller with `done <= ticket < failed.0` reports. Forward-only too.
    failed: Option<(u64, LldError)>,
    /// A leader is sealing. It lets go before its barrier, so the next
    /// batch seals while this one's barrier is in the device.
    leader_active: bool,
    /// Batches released but not yet retired (the claim gate).
    inflight: u64,
    /// When the previous leader released leadership; the next claim
    /// turns the gap into the `gc_leader_handoff_ns` histogram. `None`
    /// while a leader is active or when instrumentation is off.
    handoff_at: Option<Instant>,
}

/// The shared queue state of the group-commit stage. Near the bottom of
/// the lock hierarchy: never hold it while acquiring the map or log
/// locks, and nothing is acquired under it but the trace ring's leaf
/// mutex.
#[derive(Debug, Default)]
pub(crate) struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
}

impl GroupCommit {
    pub(crate) fn new() -> Self {
        GroupCommit::default()
    }
}

impl<D: BlockDevice> LldInner<D> {
    /// Makes all completed operations durable: seals the current
    /// segment (writing its summary) and barriers the device.
    ///
    /// Concurrent callers are batched: one leader performs the seal and
    /// the barrier for the whole batch while the others wait on its
    /// outcome, so `k` concurrent flushes cost one segment write and
    /// one barrier, not `k`.
    ///
    /// # Errors
    ///
    /// Device errors from the barrier and from any segment write so
    /// far (sticky: [`LogicalDisk::flush`](crate::LogicalDisk::flush)).
    pub fn flush(&self) -> Result<()> {
        let mut st = self.gc.state.lock();
        let ticket = st.started;
        st.started += 1;
        // Every durability caller is one trace: a `commit` span
        // wrapping its queue wait and (for the leader) the seal and
        // barrier stages; it ends when `flush` returns. The ring's
        // mutex is a leaf, so emitting under the gc state lock is safe.
        let trace = flush_trace(ticket);
        let _commit = self.obs.stage(self.now(), trace, Stage::Commit);
        let queue_wait = self.obs.stage(self.now(), trace, Stage::QueueWait);
        loop {
            // A follower reports the batch that covered it: `Ok` once
            // any barrier issued after its seal succeeded, else the
            // error of a failed batch that covered it (also, early, of
            // a later one that failed while its own barrier was still
            // out: the safe direction), else it waits.
            let covered = if st.done > ticket {
                Some(Ok(()))
            } else {
                let failed = st.failed.as_ref().filter(|(to, _)| *to > ticket);
                failed.map(|(_, e)| Err(e.clone()))
            };
            if let Some(res) = covered {
                drop(st);
                queue_wait.end();
                return res;
            }
            // A caller some leader has claimed only waits for that
            // batch (it is woken when the batch retires); an unclaimed
            // one leads as soon as leadership is free and the gate is
            // open. Waiters are woken by every release and retirement,
            // which is when any of this can change.
            if ticket >= st.claimed && !st.leader_active && st.inflight < MAX_INFLIGHT_BATCHES {
                break;
            }
            st = self.gc.cv.wait(st);
        }

        // Leader: everything started up to here is in the batch. Batch
        // accounting (including `flush_batch_max`) is recorded *before*
        // the state lock drops: any caller that arrives between here
        // and the seal took a ticket above `covering`, so it is part of
        // the next batch and cannot make this one undercount.
        st.leader_active = true;
        if let Some(released) = st.handoff_at.take() {
            self.obs.leader_handoff(released);
        }
        let covering = st.started;
        let batch = covering - st.claimed;
        let first_trace = flush_trace(st.claimed);
        st.claimed = covering;
        self.stats.flush_batches.inc();
        self.stats.flush_batch_callers.add(batch);
        self.stats.flush_batch_max.record_max(batch);
        drop(st);
        queue_wait.end();
        self.obs.group_commit(self.now(), batch, trace, first_trace);

        // Stamp the leader's flush trace into the thread-local context
        // for the rest of the batch: the seal's media write reads it.
        let _trace_ctx = ld_disk::trace_scope(trace);

        // Seal under the log lock alone (a log-only scoped session: the
        // seal touches no mapping shard) and write under no lock at all,
        // in the session's epilogue. The housekeeping step runs with
        // leadership still held, so a due checkpoint or the caller's
        // round of cleaning is written ahead of the barrier that covers
        // it.
        let sealing = self.obs.stage(self.now(), trace, Stage::Seal);
        let seal = self.with_mutation_at(0, 0, |m| m.roll_for_flush());
        self.after_session(seal.is_ok());
        sealing.end();

        // Let go of leadership, then barrier with no lock held: the next
        // leader's seal write overlaps this barrier. A barrier vouches
        // for the writes the device had acknowledged when it was issued:
        // this batch's seal write has returned, and the leader first
        // waits out every earlier segment still on its way from the
        // thread that sealed it (W1), so nothing the next leader does
        // can uncover them. A seal or write that fails does not hand
        // off: leadership goes in the critical section that records the
        // error below, before anyone can claim.
        let written = seal.and_then(|sealed| {
            self.wait_written(&mut None, |log| log.watermark() > sealed)
                .map(|()| sealed)
        });
        let released = written.is_ok();
        let res = written.and_then(|sealed| {
            let gate_open = {
                let mut st = self.gc.state.lock();
                st.leader_active = false;
                st.inflight += 1;
                self.stats.inflight_barriers.record_max(st.inflight);
                st.handoff_at = self.obs.timer();
                st.inflight < MAX_INFLIGHT_BATCHES
            };
            // With the gate shut nobody can lead before a retirement,
            // and that wakes everyone itself.
            if gate_open {
                self.gc.cv.notify_all();
            }
            let barrier_wait = self.obs.stage(self.now(), trace, Stage::BarrierWait);
            let res = self.device.flush().map_err(LldError::from);
            if res.is_ok() {
                self.barrier_covers.fetch_max(sealed, Ordering::Relaxed);
            }
            barrier_wait.end();
            res
        });

        let mut st = self.gc.state.lock();
        if released {
            st.inflight -= 1;
        } else {
            st.leader_active = false;
            st.handoff_at = self.obs.timer();
        }
        match &res {
            Ok(()) => st.done = st.done.max(covering),
            Err(e) if st.failed.as_ref().is_none_or(|(to, _)| covering > *to) => {
                st.failed = Some((covering, e.clone()));
            }
            Err(_) => {}
        }
        drop(st);
        // Followers of this batch, and callers the gate held back.
        self.gc.cv.notify_all();
        res
    }

    /// [`end_aru`](LldInner::end_aru) followed by a group-committed
    /// [`flush`](LldInner::flush): on success the ARU's effects are durable,
    /// not merely committed. Concurrent callers share one barrier.
    ///
    /// # Errors
    ///
    /// Those of `end_aru` (the ARU is then gone) plus those of `flush`.
    pub fn end_aru_sync(&self, aru: AruId) -> Result<()> {
        self.end_aru(aru)?;
        self.flush()
    }
}
