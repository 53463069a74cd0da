//! Operation counters for the logical disk.

use crate::record::flat_record;

flat_record! {
    /// Counters of logical-disk activity since creation (or the last
    /// [`Lld::reset_stats`](crate::LldInner::reset_stats)).
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
        reads: u64,
        /// `Write` operations.
        writes: u64,
        /// `NewBlock` operations.
        new_blocks: u64,
        /// `DeleteBlock` operations.
        delete_blocks: u64,
        /// `NewList` operations.
        new_lists: u64,
        /// `DeleteList` operations.
        delete_lists: u64,
        /// `BeginARU` operations.
        arus_begun: u64,
        /// Successfully committed ARUs.
        arus_committed: u64,
        /// Explicitly aborted ARUs.
        arus_aborted: u64,
        /// `EndARU` calls that failed validation against the committed
        /// state (the ARU was aborted).
        commit_conflicts: u64,
        /// Segments sealed and written to the device.
        segments_sealed: u64,
        /// Of those, the seals a lazy operation handed to the parked
        /// `cleanerd` thread instead of writing itself
        /// (docs/CONCURRENCY.md, "Seal writes").
        seals_handed_off: u64,
        /// Summary records emitted.
        records_emitted: u64,
        /// Summary bytes emitted: what the records encoded to.
        summary_bytes: u64,
        /// Data blocks entered into the segment stream (includes relocations).
        data_blocks_written: u64,
        /// Bytes of the data areas of sealed segments: what their blocks'
        /// extents take, each up to its last non-zero 512-byte sector. At
        /// most `data_blocks_written × block_size`; the gap is the zeros a
        /// seal did not write.
        data_bytes_written: u64,
        /// Writes that took the place of the block's previous version in the
        /// open segment instead of appending a copy (docs/INVARIANTS.md I5):
        /// a version superseded before its segment seals costs no device
        /// bytes. Not counted in `data_blocks_written`.
        blocks_absorbed: u64,
        /// Sectors that extents took in runs the open segment had freed —
        /// a superseded version's, when the write that superseded it did
        /// not fit in its place (docs/INVARIANTS.md I5) — instead of
        /// growing its data area.
        sectors_reused: u64,
        /// Blocks copied forward by the segment cleaner.
        blocks_relocated: u64,
        /// Cleaner invocations: the cleaning passes plus the reserve
        /// passes of rolls that found no slot (`cleaner_runs −
        /// cleaner_passes` is the reserve passes).
        cleaner_runs: u64,
        /// Cleaning passes, whoever ran them: the `cleanerd` thread or a
        /// caller's thread.
        cleaner_passes: u64,
        /// Blocks copied forward by cleaning passes (a subset of
        /// `blocks_relocated`; the rest are the reserve passes').
        cleaner_blocks_relocated: u64,
        /// Snapshot candidates a cleaning pass skipped because their
        /// mapping changed between the victim snapshot and the relocation
        /// window (the revalidation rule; see docs/CLEANER.md).
        cleaner_stale_skips: u64,
        /// Always 0; stays only because `benchmark/` reads it (ROADMAP B0).
        backpressure_stalls: u64 = snapshot_only,
        /// Checkpoints written.
        checkpoints: u64,
        /// Of those, the checkpoints the `cleanerd` thread wrote for a seal
        /// that found the log's suffix past its bound and handed the
        /// checkpoint off instead of writing it (docs/RECOVERY.md, "The
        /// suffix bound").
        checkpoints_handed_off: u64,
        /// Checkpoints the log's suffix bound asked for that failed (the
        /// operation that found one due had succeeded, so the error went to
        /// no caller). The next seal asks again: a count that keeps rising
        /// means restarts replay more than `n_segments` segments.
        checkpoint_failures: u64,
        /// Steps taken walking lists to find predecessors or members.
        list_walk_steps: u64,
        /// Alternative records created by copy-on-write into a shadow state.
        shadow_cow_records: u64,
        /// Shadow records merged into the committed state at `EndARU`
        /// (buffered data blocks plus replayed list operations).
        shadow_records_merged: u64,
        /// Committed records drained into the persistent tables at segment
        /// writes.
        committed_records_drained: u64,
        /// Data-block reads served from the block cache.
        cache_hits: u64,
        /// Data-block reads that went to the device.
        cache_misses: u64,
        /// Group-commit batches: leader flushes, each of which seals the
        /// segment and issues one device barrier for every caller in the
        /// batch.
        flush_batches: u64,
        /// Total `flush` callers served by group-commit batches (the sum of
        /// all batch sizes; equals `flush_batches` when no batching
        /// occurred).
        flush_batch_callers: u64,
        /// Largest group-commit batch observed.
        flush_batch_max: u64,
        /// Mutation sessions that locked every map shard (deletions,
        /// cross-shard commits, cleaner, checkpoint, recovery, or any
        /// operation under space pressure).
        full_mutations: u64,
        /// Mutation sessions scoped to the shards their identifiers hash to.
        scoped_mutations: u64,
        /// Concurrent-ARU commits whose effects touched a single map shard.
        single_shard_commits: u64,
        /// Concurrent-ARU commits whose effects spanned several map shards.
        cross_shard_commits: u64,
        /// `EndARU` calls that fell back to a full session (deletion in the
        /// log, or free segments too scarce for a scoped commit).
        commit_full_fallbacks: u64,
        /// Read-path list walks that crossed a shard boundary and re-ran
        /// holding every shard.
        walk_escalations: u64,
        /// Always 0; stays only because `benchmark/` reads it (ROADMAP B0).
        pipeline_stalls: u64 = snapshot_only,
        /// Most group-commit batches ever in their device barrier at once:
        /// a leader lets go of leadership before its barrier, and the claim
        /// gate holds this at 2 or below.
        inflight_barriers: u64,
        /// Most sealed segments ever awaiting their device write at once.
        inflight_segments: u64,
        /// Trace events evicted from the bounded
        /// [`TraceRing`](crate::obs::TraceRing) by wraparound — non-zero means the trace
        /// in `ObsSnapshot::events` is truncated at the front.
        // Filled from the ring by `Lld::stats`.
        trace_events_dropped: u64 = snapshot_only,
        /// Write-id outcomes recorded in the exactly-once dedup cache
        /// (tagged commits that executed).
        writeids_recorded: u64,
        /// Tagged commits answered from the dedup cache instead of
        /// re-executing (a networked retry that was deduplicated).
        writeids_deduped: u64,
    }

    /// The live, shareable counterpart of [`LldStats`]: every counted
    /// field an atomic, updated from any thread without locking,
    /// snapshotted into the plain struct on demand.
    pub(crate) struct StatsCell;
}

impl LldStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = LldStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FlatRecord;

    #[test]
    fn default_is_zero_and_reset_works() {
        let mut s = LldStats::default();
        assert_eq!(s.reads, 0);
        s.reads = 5;
        s.list_walk_steps = 7;
        s.reset();
        assert_eq!(s, LldStats::default());
    }

    /// docs/OBSERVABILITY.md's counter list names every declared counter.
    #[test]
    fn every_counter_is_documented() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("## Counters (`LldStats`)")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("docs/OBSERVABILITY.md has a counters section");
        for (name, _) in LldStats::default().fields() {
            assert!(
                section.contains(&format!("`{name}`")),
                "`{name}` is missing from docs/OBSERVABILITY.md's counter list"
            );
        }
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
