//! The group-commit stage.
//!
//! Concurrent durability requests (`flush`, `end_aru_sync`) enqueue
//! here: each caller takes a ticket, one caller becomes the *leader*,
//! seals the open segment (under the mapping and log locks) and issues
//! a single device barrier covering every ticket taken before the seal.
//! Followers block on the batch outcome instead of issuing their own
//! barriers — the classic group commit the paper's lazy `EndARU`
//! durability invites.

use crate::error::{LldError, Result};
use crate::lld::LldInner;
use crate::obs::{flush_trace, Obs, Stage};
use crate::types::AruId;
use ld_disk::BlockDevice;
use ld_disk::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug, Default)]
struct GcState {
    /// Tickets issued to durability callers.
    started: u64,
    /// Highest ticket claimed into some leader's batch. Batch size is
    /// computed against this (not `done`) under the state lock, so a
    /// caller arriving while a pipelined batch is still in its barrier
    /// wait is never counted twice and never lost: it is above
    /// `claimed`, so it belongs to the next leader's batch.
    claimed: u64,
    /// Highest ticket covered by a completed batch: every caller with
    /// `ticket < done` has had its work sealed and barriered.
    done: u64,
    /// A leader is currently sealing (and, on the synchronous device
    /// path, barriering). On the pipelined path leadership is handed
    /// off before the barrier wait, so the next batch seals while the
    /// previous barrier is in flight.
    leader_active: bool,
    /// Outcome of the most recent batch (`None` = success). Followers
    /// covered by a batch report its outcome; a follower that sleeps
    /// through several batches reports the latest one — conservative,
    /// since a device that fails a barrier keeps failing (and a later
    /// successful barrier also covers earlier writes).
    last_error: Option<LldError>,
    /// When the previous leader released leadership (handed off on the
    /// pipelined path, or completed its batch) — the next claim turns
    /// the gap into the `gc_leader_handoff_ns` histogram. `None` while
    /// a leader is active or when instrumentation is off.
    handoff_at: Option<Instant>,
}

/// The shared queue state of the group-commit stage. Near the bottom of
/// the lock hierarchy: never hold it while acquiring the map or log
/// locks. The one lock that sits *below* it is the pipelined device's
/// queue mutex — the leadership gate reads the in-flight barrier gauge
/// while holding the gc state lock (and the pipeline never takes gc
/// locks), so that order is acyclic.
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
    /// Device errors from the segment write or the barrier.
    pub fn flush(&self) -> Result<()> {
        let timer = self.obs.timer();
        let mut st = self.gc.state.lock();
        let ticket = st.started;
        st.started += 1;
        // Every durability caller is one trace: a `commit` span
        // wrapping its queue wait and (for the leader) the seal and
        // barrier stages. The ring's mutex is a leaf, so emitting under
        // the gc state lock is safe.
        let trace = flush_trace(ticket);
        self.obs.stage_begin(self.now(), trace, Stage::Commit);
        let q_timer = self.obs.timer();
        self.obs.stage_begin(self.now(), trace, Stage::QueueWait);
        loop {
            if st.done > ticket {
                // A batch sealed after our ticket was taken: our work is
                // covered by its outcome.
                let res = match &st.last_error {
                    Some(e) => Err(e.clone()),
                    None => Ok(()),
                };
                drop(st);
                self.obs
                    .stage_end(self.now(), trace, Stage::QueueWait, Obs::elapsed(q_timer));
                if res.is_ok() {
                    self.obs
                        .flush_done(self.now(), self.stats.segments_sealed.get(), timer);
                }
                self.obs
                    .stage_end(self.now(), trace, Stage::Commit, Obs::elapsed(timer));
                return res;
            }
            // Claim leadership only when the device can absorb another
            // barrier-producing batch. On the pipelined path the
            // previous leader hands off while its barrier is still in
            // flight; gating the claim on a free barrier slot (at most
            // one batch flushing + one staged) keeps batches *large* —
            // callers arriving while both slots are busy accumulate
            // into the next batch instead of each leading a batch of
            // one — and bounds how far write submission runs ahead of a
            // pending barrier after a power cut. Waiters are woken by
            // every batch completion (which is also when a slot frees).
            if !st.leader_active && self.device.barrier_slot_free() {
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
        if let Some(h) = st.handoff_at.take() {
            self.obs.leader_handoff(Obs::elapsed(Some(h)));
        }
        let covering = st.started;
        let batch = covering - st.claimed;
        let first_trace = flush_trace(st.claimed);
        st.claimed = covering;
        self.stats.flush_batches.inc();
        self.stats.flush_batch_callers.add(batch);
        self.stats.flush_batch_max.record_max(batch);
        drop(st);
        self.obs
            .stage_end(self.now(), trace, Stage::QueueWait, Obs::elapsed(q_timer));
        self.obs.group_commit(self.now(), batch, trace, first_trace);

        // Stamp the leader's flush trace into the thread-local context
        // for the rest of the batch: the pipelined device reads it at
        // `write_at` (attributing the seal's media writes, which land on
        // the I/O thread, back to this batch) and at the barrier ack.
        let _trace_ctx = ld_disk::trace_scope(trace);

        // Seal under the log lock alone (a log-only scoped session: the
        // seal touches no mapping shard, so readers and shard-scoped
        // writers proceed during the seal), then barrier without any
        // lock so the whole stack proceeds during the device wait —
        // correct because the batch's writes were issued before this
        // point and the barrier orders against issued writes.
        let mut handed_off = false;
        let res = if let Some(pipe) = self.device.as_pipelined() {
            // Pipelined device: seal, *submit* the barrier, hand
            // leadership off, then wait. The barrier's cover must be
            // captured before the handoff — otherwise the next leader's
            // seal writes would land inside this barrier's cover and a
            // fault felling them would take this (already complete)
            // batch down with it. Submitting also takes the barrier
            // slot the claim gate checks, so the next leader seals only
            // while the device is within its double-buffer bound. The
            // wait runs this batch's inner flush on this thread while
            // the I/O thread streams the next batch's seal writes to
            // the device — the write/barrier overlap the pipeline
            // exists for.
            let seal_timer = self.obs.timer();
            self.obs.stage_begin(self.now(), trace, Stage::Seal);
            let seal = self.with_mutation_at(0, 0, |m| m.roll_for_flush());
            self.after_scoped();
            self.obs
                .stage_end(self.now(), trace, Stage::Seal, Obs::elapsed(seal_timer));
            match seal.and_then(|()| pipe.submit_barrier().map_err(LldError::from)) {
                Err(e) => Err(e),
                Ok(barrier) => {
                    {
                        let mut st = self.gc.state.lock();
                        st.leader_active = false;
                        st.handoff_at = self.obs.timer();
                    }
                    handed_off = true;
                    self.gc.cv.notify_all();
                    let wait_timer = self.obs.timer();
                    self.obs.stage_begin(self.now(), trace, Stage::BarrierWait);
                    let res = pipe.wait_barrier(barrier).map_err(LldError::from);
                    self.obs.stage_end(
                        self.now(),
                        trace,
                        Stage::BarrierWait,
                        Obs::elapsed(wait_timer),
                    );
                    res
                }
            }
        } else {
            let seal_timer = self.obs.timer();
            self.obs.stage_begin(self.now(), trace, Stage::Seal);
            let seal = self.with_mutation_at(0, 0, |m| m.roll_for_flush());
            self.after_scoped();
            self.obs
                .stage_end(self.now(), trace, Stage::Seal, Obs::elapsed(seal_timer));
            let wait_timer = self.obs.timer();
            self.obs.stage_begin(self.now(), trace, Stage::BarrierWait);
            let res = seal.and_then(|()| self.device.flush().map_err(LldError::from));
            self.obs.stage_end(
                self.now(),
                trace,
                Stage::BarrierWait,
                Obs::elapsed(wait_timer),
            );
            res
        };

        let mut st = self.gc.state.lock();
        // Barriers can complete out of submission order on the
        // pipelined path (a later leader's barrier may retire first;
        // it covers this batch's earlier writes), so `done` only moves
        // forward.
        st.done = st.done.max(covering);
        if !handed_off {
            // After a handoff the flag belongs to the next leader.
            st.leader_active = false;
            st.handoff_at = self.obs.timer();
        }
        st.last_error = res.as_ref().err().cloned();
        drop(st);
        self.gc.cv.notify_all();

        if res.is_ok() {
            self.obs
                .flush_done(self.now(), self.stats.segments_sealed.get(), timer);
        }
        self.obs
            .stage_end(self.now(), trace, Stage::Commit, Obs::elapsed(timer));
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
