//! Operation counters for the logical disk.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of logical-disk activity since creation (or the last
/// [`Lld::reset_stats`](crate::Lld::reset_stats)).
///
/// These make the costs the paper discusses directly observable:
/// `list_walk_steps` counts predecessor-search steps (the cost the
/// improved deletion policy avoids), `shadow_records_merged` counts the
/// shadow→committed transition work at `EndARU`, and
/// `committed_records_drained` counts the committed→persistent
/// transition work at segment writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct LldStats {
    /// `Read` operations.
    pub reads: u64,
    /// `Write` operations.
    pub writes: u64,
    /// `NewBlock` operations.
    pub new_blocks: u64,
    /// `DeleteBlock` operations.
    pub delete_blocks: u64,
    /// `NewList` operations.
    pub new_lists: u64,
    /// `DeleteList` operations.
    pub delete_lists: u64,
    /// `BeginARU` operations.
    pub arus_begun: u64,
    /// Successfully committed ARUs.
    pub arus_committed: u64,
    /// Explicitly aborted ARUs.
    pub arus_aborted: u64,
    /// `EndARU` calls that failed validation against the committed
    /// state (the ARU was aborted).
    pub commit_conflicts: u64,
    /// Segments sealed and written to the device.
    pub segments_sealed: u64,
    /// Of those, the seals a lazy operation handed to the parked
    /// `cleanerd` thread instead of writing itself
    /// (docs/CONCURRENCY.md, "Seal writes").
    pub seals_handed_off: u64,
    /// Summary records emitted.
    pub records_emitted: u64,
    /// Summary bytes emitted: what the records encoded to.
    pub summary_bytes: u64,
    /// Data blocks entered into the segment stream (includes relocations).
    pub data_blocks_written: u64,
    /// Bytes of the data areas of sealed segments: what their blocks'
    /// extents take, each up to its last non-zero 512-byte sector. At
    /// most `data_blocks_written × block_size`; the gap is the zeros a
    /// seal did not write.
    pub data_bytes_written: u64,
    /// Writes that took the place of the block's previous version in the
    /// open segment instead of appending a copy (docs/INVARIANTS.md I5):
    /// a version superseded before its segment seals costs no device
    /// bytes. Not counted in `data_blocks_written`.
    pub blocks_absorbed: u64,
    /// Blocks copied forward by the segment cleaner.
    pub blocks_relocated: u64,
    /// Cleaner invocations: inline full-session runs plus background
    /// cleaner (`cleanerd`) passes.
    pub cleaner_runs: u64,
    /// Background cleaner (`cleanerd`) passes only.
    pub cleaner_passes: u64,
    /// Blocks copied forward by background cleaner passes (a subset of
    /// `blocks_relocated`).
    pub cleaner_blocks_relocated: u64,
    /// Snapshot candidates the background cleaner skipped because their
    /// mapping changed between the victim snapshot and the relocation
    /// window (the revalidation rule; see docs/CLEANER.md).
    pub cleaner_stale_skips: u64,
    /// Foreground operations that briefly stalled at the high-watermark
    /// backpressure gate to let the background cleaner free slots.
    pub backpressure_stalls: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Of those, the checkpoints the `cleanerd` thread wrote for a seal
    /// that found the log's suffix past its bound and handed the
    /// checkpoint off instead of writing it (docs/RECOVERY.md, "The
    /// suffix bound").
    pub checkpoints_handed_off: u64,
    /// Checkpoints the log's suffix bound asked for that failed (the
    /// operation that found one due had succeeded, so the error went to
    /// no caller). The next seal asks again: a count that keeps rising
    /// means restarts replay more than `n_segments` segments.
    pub checkpoint_failures: u64,
    /// Steps taken walking lists to find predecessors or members.
    pub list_walk_steps: u64,
    /// Alternative records created by copy-on-write into a shadow state.
    pub shadow_cow_records: u64,
    /// Shadow records merged into the committed state at `EndARU`
    /// (buffered data blocks plus replayed list operations).
    pub shadow_records_merged: u64,
    /// Committed records drained into the persistent tables at segment
    /// writes.
    pub committed_records_drained: u64,
    /// Data-block reads served from the block cache.
    pub cache_hits: u64,
    /// Data-block reads that went to the device.
    pub cache_misses: u64,
    /// Group-commit batches: leader flushes, each of which seals the
    /// segment and issues one device barrier for every caller in the
    /// batch.
    pub flush_batches: u64,
    /// Total `flush` callers served by group-commit batches (the sum of
    /// all batch sizes; equals `flush_batches` when no batching
    /// occurred).
    pub flush_batch_callers: u64,
    /// Largest group-commit batch observed.
    pub flush_batch_max: u64,
    /// Mutation sessions that locked every map shard (deletions,
    /// cross-shard commits, cleaner, checkpoint, recovery, or any
    /// operation under space pressure).
    pub full_mutations: u64,
    /// Mutation sessions scoped to the shards their identifiers hash to.
    pub scoped_mutations: u64,
    /// Concurrent-ARU commits whose effects touched a single map shard.
    pub single_shard_commits: u64,
    /// Concurrent-ARU commits whose effects spanned several map shards.
    pub cross_shard_commits: u64,
    /// `EndARU` calls that fell back to a full session (deletion in the
    /// log, or free segments too scarce for a scoped commit).
    pub commit_full_fallbacks: u64,
    /// Read-path list walks that crossed a shard boundary and re-ran
    /// holding every shard.
    pub walk_escalations: u64,
    /// Always 0; stays only because `benchmark/` reads it (ROADMAP B0).
    pub pipeline_stalls: u64,
    /// Most group-commit batches ever in their device barrier at once:
    /// a leader lets go of leadership before its barrier, and the claim
    /// gate holds this at 2 or below.
    pub inflight_barriers: u64,
    /// Most sealed segments ever awaiting their device write at once.
    pub inflight_segments: u64,
    /// Trace events evicted from the bounded [`TraceRing`]
    /// (crate::obs::TraceRing) by wraparound — non-zero means the trace
    /// in `ObsSnapshot::events` is truncated at the front.
    pub trace_events_dropped: u64,
    /// Write-id outcomes recorded in the exactly-once dedup cache
    /// (tagged commits that executed).
    pub writeids_recorded: u64,
    /// Tagged commits answered from the dedup cache instead of
    /// re-executing (a networked retry that was deduplicated).
    pub writeids_deduped: u64,
}

impl LldStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = LldStats::default();
    }
}

/// One atomically updated counter (relaxed ordering: counters are
/// diagnostics, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub(crate) fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn clear(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// The live, shareable counterpart of [`LldStats`]: every field an
/// atomic, updated from any thread without locking, snapshotted into
/// the plain struct on demand.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub(crate) reads: Counter,
    pub(crate) writes: Counter,
    pub(crate) new_blocks: Counter,
    pub(crate) delete_blocks: Counter,
    pub(crate) new_lists: Counter,
    pub(crate) delete_lists: Counter,
    pub(crate) arus_begun: Counter,
    pub(crate) arus_committed: Counter,
    pub(crate) arus_aborted: Counter,
    pub(crate) commit_conflicts: Counter,
    pub(crate) segments_sealed: Counter,
    pub(crate) seals_handed_off: Counter,
    pub(crate) records_emitted: Counter,
    pub(crate) summary_bytes: Counter,
    pub(crate) data_blocks_written: Counter,
    pub(crate) data_bytes_written: Counter,
    pub(crate) blocks_absorbed: Counter,
    pub(crate) blocks_relocated: Counter,
    pub(crate) cleaner_runs: Counter,
    pub(crate) cleaner_passes: Counter,
    pub(crate) cleaner_blocks_relocated: Counter,
    pub(crate) cleaner_stale_skips: Counter,
    pub(crate) backpressure_stalls: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) checkpoints_handed_off: Counter,
    pub(crate) checkpoint_failures: Counter,
    pub(crate) list_walk_steps: Counter,
    pub(crate) shadow_cow_records: Counter,
    pub(crate) shadow_records_merged: Counter,
    pub(crate) committed_records_drained: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) flush_batches: Counter,
    pub(crate) flush_batch_callers: Counter,
    pub(crate) flush_batch_max: Counter,
    pub(crate) inflight_barriers: Counter,
    pub(crate) inflight_segments: Counter,
    pub(crate) full_mutations: Counter,
    pub(crate) scoped_mutations: Counter,
    pub(crate) single_shard_commits: Counter,
    pub(crate) cross_shard_commits: Counter,
    pub(crate) commit_full_fallbacks: Counter,
    pub(crate) walk_escalations: Counter,
    pub(crate) writeids_recorded: Counter,
    pub(crate) writeids_deduped: Counter,
}

impl StatsCell {
    pub(crate) fn snapshot(&self) -> LldStats {
        LldStats {
            reads: self.reads.get(),
            writes: self.writes.get(),
            new_blocks: self.new_blocks.get(),
            delete_blocks: self.delete_blocks.get(),
            new_lists: self.new_lists.get(),
            delete_lists: self.delete_lists.get(),
            arus_begun: self.arus_begun.get(),
            arus_committed: self.arus_committed.get(),
            arus_aborted: self.arus_aborted.get(),
            commit_conflicts: self.commit_conflicts.get(),
            segments_sealed: self.segments_sealed.get(),
            seals_handed_off: self.seals_handed_off.get(),
            records_emitted: self.records_emitted.get(),
            summary_bytes: self.summary_bytes.get(),
            data_blocks_written: self.data_blocks_written.get(),
            data_bytes_written: self.data_bytes_written.get(),
            blocks_absorbed: self.blocks_absorbed.get(),
            blocks_relocated: self.blocks_relocated.get(),
            cleaner_runs: self.cleaner_runs.get(),
            cleaner_passes: self.cleaner_passes.get(),
            cleaner_blocks_relocated: self.cleaner_blocks_relocated.get(),
            cleaner_stale_skips: self.cleaner_stale_skips.get(),
            backpressure_stalls: self.backpressure_stalls.get(),
            checkpoints: self.checkpoints.get(),
            checkpoints_handed_off: self.checkpoints_handed_off.get(),
            checkpoint_failures: self.checkpoint_failures.get(),
            list_walk_steps: self.list_walk_steps.get(),
            shadow_cow_records: self.shadow_cow_records.get(),
            shadow_records_merged: self.shadow_records_merged.get(),
            committed_records_drained: self.committed_records_drained.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            flush_batches: self.flush_batches.get(),
            flush_batch_callers: self.flush_batch_callers.get(),
            flush_batch_max: self.flush_batch_max.get(),
            inflight_barriers: self.inflight_barriers.get(),
            inflight_segments: self.inflight_segments.get(),
            full_mutations: self.full_mutations.get(),
            scoped_mutations: self.scoped_mutations.get(),
            single_shard_commits: self.single_shard_commits.get(),
            cross_shard_commits: self.cross_shard_commits.get(),
            commit_full_fallbacks: self.commit_full_fallbacks.get(),
            walk_escalations: self.walk_escalations.get(),
            writeids_recorded: self.writeids_recorded.get(),
            writeids_deduped: self.writeids_deduped.get(),
            // `trace_events_dropped` is filled from the trace ring by
            // `Lld::stats`; the cell itself never counts it.
            pipeline_stalls: 0,
            trace_events_dropped: 0,
        }
    }

    pub(crate) fn reset(&self) {
        let StatsCell {
            reads,
            writes,
            new_blocks,
            delete_blocks,
            new_lists,
            delete_lists,
            arus_begun,
            arus_committed,
            arus_aborted,
            commit_conflicts,
            segments_sealed,
            seals_handed_off,
            records_emitted,
            summary_bytes,
            data_blocks_written,
            data_bytes_written,
            blocks_absorbed,
            blocks_relocated,
            cleaner_runs,
            cleaner_passes,
            cleaner_blocks_relocated,
            cleaner_stale_skips,
            backpressure_stalls,
            checkpoints,
            checkpoints_handed_off,
            checkpoint_failures,
            list_walk_steps,
            shadow_cow_records,
            shadow_records_merged,
            committed_records_drained,
            cache_hits,
            cache_misses,
            flush_batches,
            flush_batch_callers,
            flush_batch_max,
            inflight_barriers,
            inflight_segments,
            full_mutations,
            scoped_mutations,
            single_shard_commits,
            cross_shard_commits,
            commit_full_fallbacks,
            walk_escalations,
            writeids_recorded,
            writeids_deduped,
        } = self;
        for c in [
            reads,
            writes,
            new_blocks,
            delete_blocks,
            new_lists,
            delete_lists,
            arus_begun,
            arus_committed,
            arus_aborted,
            commit_conflicts,
            segments_sealed,
            seals_handed_off,
            records_emitted,
            summary_bytes,
            data_blocks_written,
            data_bytes_written,
            blocks_absorbed,
            blocks_relocated,
            cleaner_runs,
            cleaner_passes,
            cleaner_blocks_relocated,
            cleaner_stale_skips,
            backpressure_stalls,
            checkpoints,
            checkpoints_handed_off,
            checkpoint_failures,
            list_walk_steps,
            shadow_cow_records,
            shadow_records_merged,
            committed_records_drained,
            cache_hits,
            cache_misses,
            flush_batches,
            flush_batch_callers,
            flush_batch_max,
            inflight_barriers,
            inflight_segments,
            full_mutations,
            scoped_mutations,
            single_shard_commits,
            cross_shard_commits,
            commit_full_fallbacks,
            walk_escalations,
            writeids_recorded,
            writeids_deduped,
        ] {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero_and_reset_works() {
        let mut s = LldStats::default();
        assert_eq!(s.reads, 0);
        s.reads = 5;
        s.list_walk_steps = 7;
        s.reset();
        assert_eq!(s, LldStats::default());
    }

    #[test]
    fn cell_snapshot_and_reset() {
        let c = StatsCell::default();
        c.reads.inc();
        c.summary_bytes.add(10);
        c.flush_batch_max.record_max(3);
        c.flush_batch_max.record_max(2);
        let s = c.snapshot();
        assert_eq!(s.reads, 1);
        assert_eq!(s.summary_bytes, 10);
        assert_eq!(s.flush_batch_max, 3);
        c.reset();
        assert_eq!(c.snapshot(), LldStats::default());
    }
}
