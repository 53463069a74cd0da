//! Observability: structured event tracing, latency histograms, and
//! the [`ObsSnapshot`] stats surface.
//!
//! The paper's evaluation is entirely about making LLD costs visible —
//! segment writes, commit-record flushes, list-walk overhead. This
//! module is the measurement substrate: every [`Lld`](crate::Lld)
//! carries an [`Obs`] that records
//!
//! * typed **trace events** ([`TraceEvent`]) in a bounded ring buffer
//!   ([`TraceRing`]) — ARU begin/commit/abort/conflict, segment seal,
//!   group commit, cleaner pass, checkpoint, recovery scan — each
//!   stamped with a monotonic sequence number, the logical timestamp
//!   and the wall clock;
//! * **timed stages** ([`Stage`]): one guard per interval
//!   (`Obs::stage`) records its `stage_begin` / `stage_end` pair and
//!   feeds the stage's own `<stage>_ns` histogram, so each interval is
//!   timed once;
//! * **latency histograms** ([`LatencyHistogram`], 64 log₂ buckets)
//!   for the hot LLD paths (`read`, `write`, `end_aru`) — the device
//!   layer keeps its own in [`ld_disk::DiskStatsSnapshot`] (modeled
//!   service time).
//!
//! Everything is bundled by [`Lld::obs_snapshot`](crate::LldInner::obs_snapshot)
//! into an [`ObsSnapshot`] that renders as a human table (`Display`)
//! or JSON ([`ObsSnapshot::to_json`] — hand-rolled, the workspace has
//! no serde). Instrumentation is on by default and can be disabled at
//! format time with [`ObsConfig::disabled()`]; disabled, every hook is
//! a single branch, and a stage only reads the clock for its caller.

use crate::record::{flat_record, FlatRecord};
use crate::recovery::RecoveryReport;
use crate::shard::ShardLockStats;
use crate::stats::LldStats;
use ld_disk::{thread_tag, DiskStatsSnapshot, HistogramSnapshot, LatencyHistogram, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Trace ids
// ----------------------------------------------------------------------

/// Namespace bit for group-commit flush traces (the low bits hold the
/// gc ticket number). Keeps flush traces from colliding with ARU
/// commit traces, which use the raw ARU id directly.
pub const TRACE_FLUSH_BASE: u64 = 1 << 32;

/// Namespace bit for cleaner-pass traces (the low bits hold the pass
/// ordinal).
pub const TRACE_CLEANER_BASE: u64 = 2 << 32;

/// Namespace bit for restart-recovery traces (the low bits hold the
/// recovery attempt ordinal — in practice always 1, since a process
/// recovers once).
pub const TRACE_RECOVERY_BASE: u64 = 3 << 32;

/// The trace id of an ARU commit: the raw ARU id itself.
#[inline]
pub fn aru_trace(aru: u64) -> u64 {
    aru
}

/// The trace id of one group-commit flush batch, from its gc ticket.
#[inline]
pub fn flush_trace(ticket: u64) -> u64 {
    TRACE_FLUSH_BASE | ticket
}

/// The trace id of one background cleaner pass, from its ordinal.
#[inline]
pub fn cleaner_trace(pass: u64) -> u64 {
    TRACE_CLEANER_BASE | pass
}

/// The trace id of one restart recovery, from its attempt ordinal.
#[inline]
pub fn recovery_trace(attempt: u64) -> u64 {
    TRACE_RECOVERY_BASE | attempt
}

// ----------------------------------------------------------------------
// Configuration
// ----------------------------------------------------------------------

/// Observability configuration, fixed when the logical disk is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. Off, every instrumentation hook reduces to one
    /// branch and the snapshot contains only the plain counters.
    pub enabled: bool,
    /// Capacity of the trace-event ring buffer; older events are
    /// dropped (and counted) once it is full.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            ring_capacity: 1024,
        }
    }
}

impl ObsConfig {
    /// Instrumentation fully off (counters in [`LldStats`] still run).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }
}

// ----------------------------------------------------------------------
// Trace events
// ----------------------------------------------------------------------

/// Declares a fieldless enum whose variants each carry a stable name:
/// `Variant = "name"`. Emits `ALL`, `as_str` and its inverse `from_str`.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $str:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// Stable snake_case name (used by JSON output and exporters).
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $str,)*
                }
            }

            /// Parses the name produced by `as_str`.
            #[allow(clippy::should_implement_trait)] // fallible, Option-returning
            pub fn from_str(s: &str) -> Option<$name> {
                match s {
                    $($str => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

/// Declares [`TraceEvent`]: each variant with its JSON `type` name and
/// its payload fields, each field under its own name as JSON key or
/// under `field as "key"`. Emits `kind`, the payload writer and reader.
macro_rules! trace_events {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$fmeta:meta])* $field:ident $(as $key:literal)?: $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// Stable snake_case name of the event type (used by JSON output).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind,)*
                }
            }

            /// Writes the payload fields under their JSON keys.
            fn write_payload(&self, o: &mut json::Obj) {
                match *self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $( Payload::put($field, o, trace_events!(@key $field $($key)?)); )*
                    })*
                }
            }

            /// Rebuilds an event of type `kind` from its payload keys in
            /// `v` (`None` for an unknown type or stage name).
            fn read_payload(kind: &str, v: &json::Value) -> Option<TraceEvent> {
                Some(match kind {
                    $($kind => TraceEvent::$variant {
                        $( $field: Payload::take(v.get(trace_events!(@key $field $($key)?)))?, )*
                    },)*
                    _ => return None,
                })
            }
        }
    };
}

/// A trace-event payload field's JSON form. A missing or non-numeric
/// number reads 0; a stage must name one.
trait Payload: Sized {
    fn put(self, o: &mut json::Obj, key: &str);
    fn take(v: Option<&json::Value>) -> Option<Self>;
}

impl Payload for u64 {
    fn put(self, o: &mut json::Obj, key: &str) {
        o.u64(key, self);
    }

    fn take(v: Option<&json::Value>) -> Option<u64> {
        Some(v.and_then(json::Value::as_u64).unwrap_or(0))
    }
}

impl Payload for u32 {
    fn put(self, o: &mut json::Obj, key: &str) {
        o.u64(key, u64::from(self));
    }

    fn take(v: Option<&json::Value>) -> Option<u32> {
        u64::take(v).map(|n| n as u32)
    }
}

impl Payload for Stage {
    fn put(self, o: &mut json::Obj, key: &str) {
        o.str(key, self.as_str());
    }

    fn take(v: Option<&json::Value>) -> Option<Stage> {
        Stage::from_str(v?.as_str()?)
    }
}

named_enum! {
    /// One stage of a traced operation's cross-thread timeline. Stage
    /// begin/end events carry the operation's trace id, so a commit's full
    /// path — caller queue wait, leader seal, barrier wait on the leader's
    /// thread, segment writes on the thread that issued them — reassembles
    /// from the ring. Each stage has one histogram, `<stage>_ns`, fed by
    /// its guard (`Obs::stage`) and nothing else.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Stage {
        /// The whole durability call (`flush`/`end_aru_sync`'s flush) on
        /// the caller's thread; every other gc stage nests inside it.
        Commit = "commit",
        /// From taking a gc ticket to being covered by a batch (follower)
        /// or claiming leadership (leader).
        QueueWait = "queue_wait",
        /// The leader sealing the open segment (summary + header writes).
        Seal = "seal",
        /// The leader waiting for its batch's barrier (`device.flush()`).
        BarrierWait = "barrier_wait",
        /// One sealed segment's device write, on the thread that issues it:
        /// the sealing session's or `ld-cleanerd`.
        MediaWrite = "media_write",
        /// Cleaner pass phase 1: victim snapshot under the log lock.
        CleanerSnapshot = "cleaner_snapshot",
        /// Cleaner pass phase 2: liveness prefilter under shard read locks.
        CleanerPrefilter = "cleaner_prefilter",
        /// Cleaner pass phase 3: block prefetch with no locks held.
        CleanerPrefetch = "cleaner_prefetch",
        /// Cleaner pass phase 4: relocation in short scoped-write windows.
        CleanerRelocate = "cleaner_relocate",
        /// Cleaner pass final phase: checkpoint and segment release.
        CleanerRelease = "cleaner_release",
        /// Recovery phase 1: locating and decoding per-shard checkpoint
        /// snapshot slabs.
        RecoverySnapshotLoad = "recovery_snapshot_load",
        /// Recovery phase 2: scanning segment summaries for the suffix.
        RecoveryScan = "recovery_scan",
        /// Recovery phase 3: replaying suffix records into the map.
        RecoveryReplay = "recovery_replay",
        /// Recovery phase 4: merging shards, rebuilding allocator and log
        /// state, and running the post-recovery check.
        RecoveryFinalize = "recovery_finalize",
    }
}

trace_events! {
    /// One structured trace event. Identifiers are raw (`u64`/`u32`) so the
    /// payload stays `Copy` and serialization stays trivial.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum TraceEvent {
        /// `BeginARU` returned a new ARU.
        AruBegin = "aru_begin" {
            /// Raw ARU id.
            aru: u64,
        },
        /// `EndARU` committed the ARU.
        AruCommit = "aru_commit" {
            /// Raw ARU id.
            aru: u64,
            /// Operations executed inside the ARU.
            ops: u64,
            /// Shadow copy-on-write records the ARU accumulated.
            cow_records: u64,
        },
        /// `AbortARU` discarded the ARU's shadow state.
        AruAbort = "aru_abort" {
            /// Raw ARU id.
            aru: u64,
        },
        /// `EndARU` failed with a commit conflict; the ARU was aborted.
        AruConflict = "aru_conflict" {
            /// Raw ARU id.
            aru: u64,
        },
        /// A filled segment was sealed and written to the device.
        SegmentSeal = "segment_seal" {
            /// Physical segment slot.
            segment: u32,
            /// Log sequence number of the sealed segment.
            seq as "segment_seq": u64,
            /// Data blocks in the segment.
            blocks: u32,
            /// Total bytes written (header + data + summary).
            bytes: u64,
        },
        /// A group-commit leader sealed and barriered for a batch of
        /// concurrent durability callers.
        GroupCommit = "group_commit" {
            /// Number of `flush`/`end_aru_sync` callers served by the one
            /// seal + barrier.
            batch: u64,
            /// Trace id of the leader's own flush.
            trace: u64,
            /// Trace id of the first flush covered by this batch; the batch
            /// covers traces `first_trace .. first_trace + batch`.
            first_trace: u64,
        },
        /// A traced operation entered a stage (on the recording thread).
        StageBegin = "stage_begin" {
            /// Trace id of the operation (0 = untraced).
            trace: u64,
            /// The stage being entered.
            stage: Stage,
        },
        /// A traced operation left a stage (on the recording thread).
        StageEnd = "stage_end" {
            /// Trace id of the operation (0 = untraced).
            trace: u64,
            /// The stage being left.
            stage: Stage,
            /// Wall-clock nanoseconds spent in the stage.
            nanos: u64,
        },
        /// A round of cleaning passes started (on `cleanerd` or a
        /// caller's thread): free segments were below the low watermark.
        CleanerWake = "cleaner_wake" {
            /// Free segment slots at wake-up.
            free_segments: u32,
        },
        /// The cleaner finished a pass.
        CleanerPass = "cleaner_pass" {
            /// Free segment slots after the pass.
            free_segments: u32,
            /// Cumulative blocks relocated (after the pass).
            blocks_relocated: u64,
        },
        /// A checkpoint was written.
        Checkpoint = "checkpoint" {
            /// Highest segment sequence number the checkpoint covers.
            covered_seq: u64,
            /// Payload bytes written.
            bytes: u64,
        },
        /// Recovery finished its log scan.
        RecoveryScan = "recovery_scan" {
            /// Segment slots examined.
            segments_scanned: u32,
            /// Valid segments replayed.
            segments_replayed: u32,
            /// Summary records applied.
            records_applied: u64,
        },
    }
}

/// A trace event with its ring metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Monotonic sequence number (never reused, survives wraparound).
    pub seq: u64,
    /// Logical timestamp (the LLD operation clock) when recorded.
    pub ts: u64,
    /// Tag of the recording thread (see [`ld_disk::thread_tag`]); 0
    /// only in entries deserialized from external data.
    pub tid: u64,
    /// Microseconds since the ring was created (one wall clock shared
    /// by every recording thread, so cross-thread timelines line up).
    pub wall_us: u64,
    /// The event itself.
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct RingInner {
    entries: VecDeque<TraceEntry>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`TraceEntry`] values.
///
/// Recording takes a short mutex critical section (push + counter);
/// when full, the oldest entry is dropped and counted. Entries come
/// back in sequence order.
///
/// # Example
///
/// ```
/// use ld_core::obs::{TraceEvent, TraceRing};
///
/// let ring = TraceRing::new(2);
/// ring.record(1, TraceEvent::AruBegin { aru: 1 });
/// ring.record(2, TraceEvent::AruBegin { aru: 2 });
/// ring.record(3, TraceEvent::AruAbort { aru: 1 }); // evicts seq 0
/// let entries = ring.entries();
/// assert_eq!(entries.len(), 2);
/// assert_eq!(entries[0].seq, 1);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    /// Wall-clock origin for every entry's `wall_us` stamp.
    epoch: Instant,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            inner: Mutex::new(RingInner::default()),
        }
    }

    /// Appends an event, evicting the oldest entry when full. The entry
    /// is stamped with the recording thread's tag and the shared wall
    /// clock.
    pub fn record(&self, ts: u64, event: TraceEvent) {
        self.record_at(ts, event, Instant::now());
    }

    /// [`record`](Self::record), stamped with a clock reading the
    /// caller already took.
    fn record_at(&self, ts: u64, event: TraceEvent, now: Instant) {
        let tid = thread_tag();
        let wall_us = (now.saturating_duration_since(self.epoch).as_micros())
            .min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(TraceEntry {
            seq,
            ts,
            tid,
            wall_us,
            event,
        });
    }

    /// The retained entries, oldest first (ascending `seq`).
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.inner.lock().entries.iter().copied().collect()
    }

    /// Number of entries evicted by wraparound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

// ----------------------------------------------------------------------
// ARU counters
// ----------------------------------------------------------------------

/// The counters of a running ARU, kept in its descriptor (`aru.rs`): an
/// operation in the ARU's context counts under the ARU's own slot lock,
/// and the `aru_commit` event carries them out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActiveSpan {
    /// Logical timestamp at `BeginARU`.
    pub(crate) begin_ts: u64,
    /// LD operations executed in the ARU's context.
    pub(crate) ops: u64,
    /// Shadow copy-on-write records created for the ARU.
    pub(crate) cow_records: u64,
}

// ----------------------------------------------------------------------
// Obs: the per-Lld instrumentation bundle
// ----------------------------------------------------------------------

/// The instrumentation attached to one logical disk: trace ring, LLD
/// latency histograms, one histogram per [`Stage`], and the last
/// recovery report.
///
/// All methods take `&self` (interior mutability), so hooks can run
/// while the `Lld` itself is mutably borrowed. Every hook first checks
/// the enabled flag.
#[derive(Debug)]
pub struct Obs {
    cfg: ObsConfig,
    ring: Arc<TraceRing>,
    lld_read: LatencyHistogram,
    lld_write: LatencyHistogram,
    end_aru: LatencyHistogram,
    group_commit_batch: LatencyHistogram,
    aru_shard_spread: LatencyHistogram,
    gc_leader_handoff: LatencyHistogram,
    /// `<stage>_ns`, indexed by [`Stage`]: fed only by [`StageGuard`].
    stages: [LatencyHistogram; Stage::ALL.len()],
    recovery: Mutex<Option<RecoveryReport>>,
}

/// One timed [`Stage`] of a traced operation, from [`Obs::stage`] to
/// [`end`](StageGuard::end) or drop: a stage left early, by `?` or an
/// unwinding panic, is closed too. One clock read at each end stamps the ring
/// entry and times the stage's histogram sample.
#[must_use = "a stage ends when its guard is dropped"]
pub(crate) struct StageGuard<'a> {
    obs: &'a Obs,
    ts: u64,
    trace: u64,
    stage: Stage,
    /// When the stage began; `None` once it has ended.
    start: Option<Instant>,
}

impl StageGuard<'_> {
    /// Ends the stage: records its `stage_end` entry and its histogram
    /// sample, and returns its wall-clock nanoseconds (measured with
    /// instrumentation off too: recovery's report reads them).
    pub(crate) fn end(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        let now = Instant::now();
        let nanos = now.saturating_duration_since(start).as_nanos() as u64;
        let (obs, trace, stage) = (self.obs, self.trace, self.stage);
        if obs.cfg.enabled {
            obs.stages[stage as usize].record(nanos);
            let event = TraceEvent::StageEnd {
                trace,
                stage,
                nanos,
            };
            obs.ring.record_at(self.ts, event, now);
        }
        nanos
    }
}

impl Drop for StageGuard<'_> {
    /// Cannot panic: nothing panics while holding the ring's lock, so it
    /// is never poisoned.
    fn drop(&mut self) {
        self.close();
    }
}

impl Obs {
    /// Builds the instrumentation bundle for one logical disk.
    pub fn new(cfg: ObsConfig) -> Self {
        Obs {
            ring: Arc::new(TraceRing::new(cfg.ring_capacity)),
            cfg,
            lld_read: LatencyHistogram::new(),
            lld_write: LatencyHistogram::new(),
            end_aru: LatencyHistogram::new(),
            group_commit_batch: LatencyHistogram::new(),
            aru_shard_spread: LatencyHistogram::new(),
            gc_leader_handoff: LatencyHistogram::new(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            recovery: Mutex::new(None),
        }
    }

    /// Whether instrumentation is recording.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The trace-event ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Starts a wall-clock timer for a hot-path operation (`None` when
    /// disabled, making the whole measurement free).
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.cfg.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn elapsed_nanos(timer: Option<Instant>) -> Option<u64> {
        timer.map(|t| t.elapsed().as_nanos() as u64)
    }

    /// Records a raw event (gated on the enabled flag).
    #[inline]
    pub fn event(&self, ts: u64, event: TraceEvent) {
        if self.cfg.enabled {
            self.ring.record(ts, event);
        }
    }

    /// Enters `stage` of the traced operation `trace` on the calling
    /// thread, at logical time `ts` (which stamps both of its ring
    /// entries). The guard's one clock read stamps the `stage_begin`
    /// entry and starts the stage's timer.
    pub(crate) fn stage(&self, ts: u64, trace: u64, stage: Stage) -> StageGuard<'_> {
        let start = Instant::now();
        if self.cfg.enabled {
            (self.ring).record_at(ts, TraceEvent::StageBegin { trace, stage }, start);
        }
        StageGuard {
            obs: self,
            ts,
            trace,
            stage,
            start: Some(start),
        }
    }

    // ---- hot-path hooks ----------------------------------------------

    /// Completes a timed `read` operation.
    #[inline]
    pub(crate) fn read_done(&self, timer: Option<Instant>) {
        if let Some(n) = Self::elapsed_nanos(timer) {
            self.lld_read.record(n);
        }
    }

    /// Completes a timed `write` operation.
    #[inline]
    pub(crate) fn write_done(&self, timer: Option<Instant>) {
        if let Some(n) = Self::elapsed_nanos(timer) {
            self.lld_write.record(n);
        }
    }

    /// A group-commit leader finished a batch of `batch` durability
    /// callers: records the batch size (into the `group_commit_batch`
    /// histogram — size distribution, not latency) and the event.
    /// `trace` is the leader's own flush trace id and `first_trace` the
    /// lowest flush trace covered, so the batch event ties the covered
    /// commit spans (`first_trace .. first_trace + batch`) together.
    pub(crate) fn group_commit(&self, ts: u64, batch: u64, trace: u64, first_trace: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.group_commit_batch.record(batch);
        self.ring.record(
            ts,
            TraceEvent::GroupCommit {
                batch,
                trace,
                first_trace,
            },
        );
    }

    /// Records the gap since a leader released leadership (before its
    /// barrier) at `released`, as the next leader claims it (histogram
    /// only: the two sides run on different threads, so a begin/end
    /// pair would break per-thread span nesting).
    #[inline]
    pub(crate) fn leader_handoff(&self, released: Instant) {
        if self.cfg.enabled {
            (self.gc_leader_handoff).record(released.elapsed().as_nanos() as u64);
        }
    }

    /// A concurrent-ARU commit touched `n` map shards: records the
    /// spread (into the `aru_shard_spread` histogram — shard counts,
    /// not times).
    #[inline]
    pub(crate) fn shard_spread(&self, n: u64) {
        if self.cfg.enabled {
            self.aru_shard_spread.record(n);
        }
    }

    /// A round of cleaning passes started below the low watermark.
    pub(crate) fn cleaner_wake(&self, ts: u64, free_segments: u32) {
        self.event(ts, TraceEvent::CleanerWake { free_segments });
    }

    /// A cleaning pass finished (its phases are stages of their own).
    pub(crate) fn cleaner_pass_done(&self, ts: u64, free_segments: u32, blocks_relocated: u64) {
        let event = TraceEvent::CleanerPass {
            free_segments,
            blocks_relocated,
        };
        self.event(ts, event);
    }

    // ---- ARU lifecycle -----------------------------------------------

    /// `BeginARU`: records the event and returns the ARU's counters,
    /// which the ARU carries until it ends.
    pub(crate) fn aru_begin(&self, aru: u64, ts: u64) -> ActiveSpan {
        self.event(ts, TraceEvent::AruBegin { aru });
        ActiveSpan {
            begin_ts: ts,
            ..ActiveSpan::default()
        }
    }

    /// `EndARU` success: records commit latency and the commit event,
    /// with the ARU's counters, at one clock read.
    pub(crate) fn aru_commit(&self, aru: u64, span: &ActiveSpan, ts: u64, timer: Option<Instant>) {
        let Some(t) = timer.filter(|_| self.cfg.enabled) else {
            return;
        };
        let now = Instant::now();
        self.end_aru.record((now - t).as_nanos() as u64);
        let event = TraceEvent::AruCommit {
            aru,
            ops: span.ops,
            cow_records: span.cow_records,
        };
        self.ring.record_at(ts, event, now);
    }

    // ---- recovery report ---------------------------------------------

    /// Stores the report of the recovery that produced this disk and
    /// records the scan event.
    pub(crate) fn recovery_done(&self, ts: u64, report: &RecoveryReport) {
        if self.cfg.enabled {
            self.ring.record(
                ts,
                TraceEvent::RecoveryScan {
                    segments_scanned: report.segments_scanned,
                    segments_replayed: report.segments_replayed,
                    records_applied: report.records_applied,
                },
            );
        }
        *self.recovery.lock() = Some(report.clone());
    }

    /// The report of the recovery that produced this disk, if any.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery.lock().clone()
    }

    // ---- snapshot accessors ------------------------------------------

    /// Snapshot of the LLD-layer histograms as `(name, snapshot)`
    /// pairs: `lld_read`, `lld_write`, `end_aru` (latencies in
    /// nanoseconds), `group_commit_batch` (batch sizes, not times),
    /// `aru_shard_spread` (map shards touched per concurrent commit),
    /// `gc_leader_handoff_ns`, and one `<stage>_ns` per [`Stage`], in
    /// declaration order (`commit_ns` … `recovery_finalize_ns`).
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let named = [
            ("lld_read", &self.lld_read),
            ("lld_write", &self.lld_write),
            ("end_aru", &self.end_aru),
            ("group_commit_batch", &self.group_commit_batch),
            ("aru_shard_spread", &self.aru_shard_spread),
            ("gc_leader_handoff_ns", &self.gc_leader_handoff),
        ];
        let named = named.into_iter().map(|(n, h)| (n.to_string(), h));
        let stages =
            (Stage::ALL.iter()).map(|s| (format!("{}_ns", s.as_str()), &self.stages[*s as usize]));
        named
            .chain(stages)
            .map(|(n, h)| (n, h.snapshot()))
            .collect()
    }
}

// ----------------------------------------------------------------------
// ObsSnapshot
// ----------------------------------------------------------------------

/// A self-contained bundle of everything observable about one logical
/// disk at one instant: operation counters, device counters, latency
/// histograms, recent trace events, the last recovery report, and
/// (optionally) file-system syscall counters.
///
/// Produced by [`Lld::obs_snapshot`](crate::LldInner::obs_snapshot); renders
/// as a human table via `Display` and as JSON via
/// [`ObsSnapshot::to_json`].
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// LLD operation counters.
    pub lld: LldStats,
    /// Device counters and service-time histograms, when the device
    /// collects them (a [`SimDisk`](ld_disk::SimDisk) does).
    pub disk: Option<DiskStatsSnapshot>,
    /// Named histograms: those of [`Obs::histograms`] (the hot paths,
    /// batch sizes, shard spread, leader hand-off, and one `<stage>_ns`
    /// per [`Stage`]), plus `disk_read` / `disk_write` (modeled service
    /// time) when the device provides them.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Recent trace events, in sequence order.
    pub events: Vec<TraceEntry>,
    /// Events evicted from the ring by wraparound.
    pub dropped_events: u64,
    /// Per-map-shard lock acquisition counters, one entry per shard.
    pub shards: Vec<ShardLockStats>,
    /// The report of the recovery that produced this disk, if it was
    /// recovered rather than formatted.
    pub recovery: Option<RecoveryReport>,
    /// Optional per-syscall counters of a file system mounted on this
    /// disk, as `(name, count)` pairs (filled by the caller that owns
    /// the file system — the core crate does not know about clients).
    pub fs_ops: Vec<(String, u64)>,
    /// Network-server counters (filled by the caller that owns the
    /// server — the core crate does not know about the network layer).
    /// Always emitted, all-zero when no server fronts this disk.
    pub server: ServerCounters,
}

flat_record! {
    /// Counters of a network server fronting a logical disk (see the
    /// `ld-server` crate). A plain value struct: the server counts in its
    /// [`ServerStats`] and copies them in before snapshotting.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ServerCounters {
        /// Connections accepted.
        sessions_opened: u64,
        /// Connections closed (gracefully or by error/disconnect).
        sessions_closed: u64,
        /// Tagged commits answered from the dedup cache instead of
        /// re-executing (client retries after a lost acknowledgement).
        retries_deduped: u64,
        /// Connections dropped on an I/O or protocol error.
        conn_errors: u64,
        /// Requests served (all opcodes, success or error response).
        ops_served: u64,
        /// Request payload bytes received.
        bytes_in: u64,
        /// Response payload bytes sent.
        bytes_out: u64,
    }

    /// Live server counters, shared across all of a server's connection
    /// threads; [`ServerStats::snapshot`] copies them into the
    /// [`ServerCounters`] every stats surface uses.
    pub struct ServerStats;
}

impl ObsSnapshot {
    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serializes the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.raw("lld", &record_json(&self.lld));
        match &self.disk {
            Some(d) => o.raw("disk", &disk_stats_json(d)),
            None => o.null("disk"),
        };
        let mut hists = json::Obj::new();
        for (name, h) in &self.histograms {
            hists.raw(name, &histogram_json(h));
        }
        o.raw("histograms", &hists.finish());
        let mut events = json::Arr::new();
        for e in &self.events {
            events.push_raw(&trace_entry_json(e));
        }
        o.raw("events", &events.finish());
        o.u64("dropped_events", self.dropped_events);
        let mut shards = json::Arr::new();
        for s in &self.shards {
            shards.push_raw(&record_json(s));
        }
        o.raw("shards", &shards.finish());
        match &self.recovery {
            Some(r) => o.raw("recovery", &record_json(r)),
            None => o.null("recovery"),
        };
        let mut fs = json::Obj::new();
        for (name, v) in &self.fs_ops {
            fs.u64(name, *v);
        }
        o.raw("fs_ops", &fs.finish());
        // Appended last so the golden-schema diff stays append-only.
        o.raw("server", &record_json(&self.server));
        o.finish()
    }

    /// Parses a snapshot previously serialized by
    /// [`ObsSnapshot::to_json`]. Unknown fields and event types are
    /// skipped, so newer writers stay readable.
    pub fn from_json(s: &str) -> Result<ObsSnapshot, String> {
        Self::from_value(&json::parse(s)?)
    }

    /// Rebuilds a snapshot from an already-parsed JSON value (the
    /// object [`ObsSnapshot::to_json`] emits).
    pub fn from_value(v: &json::Value) -> Result<ObsSnapshot, String> {
        v.as_obj().ok_or("snapshot is not a JSON object")?;
        let mut snap = ObsSnapshot {
            lld: v.get("lld").map(record_from).unwrap_or_default(),
            dropped_events: get_u64(v, "dropped_events"),
            recovery: v
                .get("recovery")
                .filter(|r| r.as_obj().is_some())
                .map(record_from),
            server: v.get("server").map(record_from).unwrap_or_default(),
            ..ObsSnapshot::default()
        };
        if let Some(d) = v.get("disk") {
            if d.as_obj().is_some() {
                snap.disk = Some(disk_stats_from(d));
            }
        }
        if let Some(pairs) = v.get("histograms").and_then(json::Value::as_obj) {
            for (name, h) in pairs {
                snap.histograms.push((name.clone(), histogram_from(h)));
            }
        }
        if let Some(items) = v.get("events").and_then(json::Value::as_arr) {
            snap.events = items.iter().filter_map(trace_entry_from).collect();
        }
        if let Some(items) = v.get("shards").and_then(json::Value::as_arr) {
            snap.shards = items.iter().map(record_from).collect();
        }
        if let Some(pairs) = v.get("fs_ops").and_then(json::Value::as_obj) {
            for (name, n) in pairs {
                snap.fs_ops.push((name.clone(), n.as_u64().unwrap_or(0)));
            }
        }
        Ok(snap)
    }

    /// Renders the trace ring as a Chrome Trace Event Format document
    /// (loadable in `chrome://tracing` / Perfetto): one row per thread,
    /// stage begin/end pairs matched into complete (`"X"`) duration
    /// events nested per commit, every other event as an instant.
    ///
    /// A span runs from its begin entry's `wall_us` stamp to its end
    /// entry's: both are taken on the span's own thread in program
    /// order, so spans on one thread nest exactly. They are the same two
    /// clock reads that time the stage's `nanos`.
    ///
    /// Thread rows are labeled from
    /// [`ld_disk::thread_names`] when the snapshot was taken in this
    /// process; otherwise they fall back to `thread-<tid>`.
    pub fn to_chrome_trace(&self) -> String {
        use std::collections::HashMap;
        let names = ld_disk::thread_names();
        let mut events = json::Arr::new();
        let mut tids: Vec<u64> = Vec::new();
        let mut open: HashMap<(u64, u64, Stage), Vec<u64>> = HashMap::new();
        let mut unmatched_ends = 0u64;
        for e in &self.events {
            if !tids.contains(&e.tid) {
                tids.push(e.tid);
            }
            match e.event {
                TraceEvent::StageBegin { trace, stage } => {
                    open.entry((e.tid, trace, stage))
                        .or_default()
                        .push(e.wall_us);
                }
                TraceEvent::StageEnd { trace, stage, .. } => {
                    let begin = open.get_mut(&(e.tid, trace, stage)).and_then(Vec::pop);
                    let Some(begin_us) = begin else {
                        // The begin was evicted from the ring; the span
                        // cannot be placed, so it is dropped (counted in
                        // otherData).
                        unmatched_ends += 1;
                        continue;
                    };
                    let mut o = json::Obj::new();
                    o.str("name", stage.as_str());
                    o.str("cat", "lld");
                    o.str("ph", "X");
                    o.u64("pid", 1);
                    o.u64("tid", e.tid);
                    o.u64("ts", begin_us);
                    o.u64("dur", e.wall_us.saturating_sub(begin_us));
                    let mut args = json::Obj::new();
                    args.u64("trace", trace);
                    args.u64("seq", e.seq);
                    o.raw("args", &args.finish());
                    events.push_raw(&o.finish());
                }
                other => {
                    let mut o = json::Obj::new();
                    o.str("name", other.kind());
                    o.str("cat", "lld");
                    o.str("ph", "i");
                    o.str("s", "t");
                    o.u64("pid", 1);
                    o.u64("tid", e.tid);
                    o.u64("ts", e.wall_us);
                    let mut args = json::Obj::new();
                    args.u64("seq", e.seq);
                    match other {
                        TraceEvent::GroupCommit { .. } => other.write_payload(&mut args),
                        TraceEvent::AruBegin { aru }
                        | TraceEvent::AruAbort { aru }
                        | TraceEvent::AruConflict { aru }
                        | TraceEvent::AruCommit { aru, .. } => {
                            args.u64("trace", aru_trace(aru));
                        }
                        _ => {}
                    }
                    o.raw("args", &args.finish());
                    events.push_raw(&o.finish());
                }
            }
        }
        for tid in tids {
            let fallback = format!("thread-{tid}");
            let label = names.get(&tid).map(String::as_str).unwrap_or(&fallback);
            let mut o = json::Obj::new();
            o.str("name", "thread_name");
            o.str("ph", "M");
            o.u64("pid", 1);
            o.u64("tid", tid);
            let mut args = json::Obj::new();
            args.str("name", label);
            o.raw("args", &args.finish());
            events.push_raw(&o.finish());
        }
        let mut top = json::Obj::new();
        top.raw("traceEvents", &events.finish());
        top.str("displayTimeUnit", "ms");
        let mut other = json::Obj::new();
        other.u64("dropped_events", self.dropped_events);
        other.u64("unmatched_stage_ends", unmatched_ends);
        top.raw("otherData", &other.finish());
        top.finish()
    }
}

fn get_u64(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(json::Value::as_u64).unwrap_or(0)
}

/// Rebuilds a flat record from the object [`record_json`] wrote. Keys
/// the record does not declare are skipped; missing ones read 0.
fn record_from<R: FlatRecord>(v: &json::Value) -> R {
    let mut r = R::default();
    for (k, val) in v.as_obj().unwrap_or_default() {
        r.set(k, val.as_u64().unwrap_or(0));
    }
    r
}

fn disk_stats_from(v: &json::Value) -> DiskStatsSnapshot {
    DiskStatsSnapshot {
        reads: get_u64(v, "reads"),
        writes: get_u64(v, "writes"),
        bytes_read: get_u64(v, "bytes_read"),
        bytes_written: get_u64(v, "bytes_written"),
        flushes: get_u64(v, "flushes"),
        sequential_writes: get_u64(v, "sequential_writes"),
        sequential_reads: get_u64(v, "sequential_reads"),
        busy: std::time::Duration::from_nanos(get_u64(v, "busy_nanos")),
        ..DiskStatsSnapshot::default()
    }
}

fn histogram_from(v: &json::Value) -> HistogramSnapshot {
    let mut h = HistogramSnapshot {
        count: get_u64(v, "count"),
        sum: get_u64(v, "sum"),
        max: get_u64(v, "max"),
        ..HistogramSnapshot::default()
    };
    if let Some(pairs) = v.get("buckets").and_then(json::Value::as_arr) {
        for pair in pairs {
            if let Some(p) = pair.as_arr() {
                if let (Some(i), Some(n)) = (
                    p.first().and_then(json::Value::as_u64),
                    p.get(1).and_then(json::Value::as_u64),
                ) {
                    if let Some(slot) = h.buckets.get_mut(i as usize) {
                        *slot = n;
                    }
                }
            }
        }
    }
    h
}

fn trace_entry_from(v: &json::Value) -> Option<TraceEntry> {
    let event = TraceEvent::read_payload(v.get("type")?.as_str()?, v)?;
    Some(TraceEntry {
        seq: get_u64(v, "seq"),
        ts: get_u64(v, "ts"),
        tid: get_u64(v, "tid"),
        wall_us: get_u64(v, "wall_us"),
        event,
    })
}

/// A flat record as a JSON object, its fields in declaration order.
fn record_json(r: &impl FlatRecord) -> String {
    let mut o = json::Obj::new();
    for (name, v) in r.fields() {
        o.u64(name, v);
    }
    o.finish()
}

fn disk_stats_json(d: &DiskStatsSnapshot) -> String {
    let mut o = json::Obj::new();
    o.u64("reads", d.reads);
    o.u64("writes", d.writes);
    o.u64("bytes_read", d.bytes_read);
    o.u64("bytes_written", d.bytes_written);
    o.u64("flushes", d.flushes);
    o.u64("sequential_writes", d.sequential_writes);
    o.u64("sequential_reads", d.sequential_reads);
    o.u64("busy_nanos", d.busy.as_nanos() as u64);
    o.finish()
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut o = json::Obj::new();
    o.u64("count", h.count);
    o.u64("sum", h.sum);
    o.u64("max", h.max);
    o.u64("mean", h.mean());
    o.u64("p50", h.p50());
    o.u64("p90", h.p90());
    o.u64("p99", h.p99());
    let mut buckets = json::Arr::new();
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            buckets.push_raw(&format!("[{i},{n}]"));
        }
    }
    o.raw("buckets", &buckets.finish());
    o.finish()
}

fn trace_entry_json(e: &TraceEntry) -> String {
    let mut o = json::Obj::new();
    o.u64("seq", e.seq);
    o.u64("ts", e.ts);
    o.u64("tid", e.tid);
    o.u64("wall_us", e.wall_us);
    o.str("type", e.event.kind());
    e.event.write_payload(&mut o);
    o.finish()
}

/// A flat record as a titled block of the human table.
fn write_record(f: &mut fmt::Formatter<'_>, title: &str, r: &impl FlatRecord) -> fmt::Result {
    writeln!(f, "{title}")?;
    for (name, v) in r.fields() {
        writeln!(f, "  {name:<28} {v}")?;
    }
    Ok(())
}

impl fmt::Display for ObsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_record(f, "LLD counters", &self.lld)?;
        if !self.shards.is_empty() {
            writeln!(f, "Map shards")?;
            writeln!(
                f,
                "  {:>6} {:>12} {:>12}",
                "shard", "read_locks", "write_locks"
            )?;
            for s in &self.shards {
                writeln!(
                    f,
                    "  {:>6} {:>12} {:>12}",
                    s.shard, s.read_locks, s.write_locks
                )?;
            }
        }
        if let Some(d) = &self.disk {
            writeln!(f, "Disk")?;
            writeln!(f, "  {:<28} {}", "reads", d.reads)?;
            writeln!(f, "  {:<28} {}", "writes", d.writes)?;
            writeln!(f, "  {:<28} {}", "bytes_read", d.bytes_read)?;
            writeln!(f, "  {:<28} {}", "bytes_written", d.bytes_written)?;
            writeln!(f, "  {:<28} {}", "flushes", d.flushes)?;
            writeln!(f, "  {:<28} {}", "sequential_writes", d.sequential_writes)?;
            writeln!(f, "  {:<28} {}", "sequential_reads", d.sequential_reads)?;
            writeln!(f, "  {:<28} {:?}", "busy", d.busy)?;
        }
        writeln!(f, "Latency histograms (ns)")?;
        writeln!(
            f,
            "  {:<25} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "mean", "p50", "p90", "p99", "max"
        )?;
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "  {:<25} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            )?;
        }
        if let Some(r) = &self.recovery {
            write_record(f, "Recovery", r)?;
        }
        if !self.fs_ops.is_empty() {
            writeln!(f, "File system")?;
            for (name, v) in &self.fs_ops {
                writeln!(f, "  {name:<28} {v}")?;
            }
        }
        if self.server != ServerCounters::default() {
            write_record(f, "Server", &self.server)?;
        }
        if !self.events.is_empty() {
            writeln!(f, "Trace events ({} dropped)", self.dropped_events)?;
            for e in &self.events {
                writeln!(f, "  #{:<6} ts={:<8} {:?}", e.seq, e.ts, e.event)?;
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Minimal JSON emission (the workspace has no serde)
// ----------------------------------------------------------------------

/// Tiny JSON writers: enough to emit objects and arrays of numbers,
/// strings, and pre-rendered values. Keys and strings are escaped per
/// RFC 8259.
pub mod json {
    /// Escapes `s` for inclusion in a JSON string literal (without the
    /// surrounding quotes).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// An incremental JSON object writer.
    #[derive(Debug, Default)]
    pub struct Obj {
        buf: String,
    }

    impl Obj {
        /// Starts an empty object.
        pub fn new() -> Self {
            Obj::default()
        }

        fn key(&mut self, k: &str) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(&escape(k));
            self.buf.push_str("\":");
        }

        /// Adds an unsigned integer field.
        pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
            self.key(k);
            self.buf.push_str(&v.to_string());
            self
        }

        /// Adds a finite float field (`null` for NaN/infinity).
        pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
            self.key(k);
            if v.is_finite() {
                self.buf.push_str(&format!("{v}"));
            } else {
                self.buf.push_str("null");
            }
            self
        }

        /// Adds a boolean field.
        pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
            self.key(k);
            self.buf.push_str(if v { "true" } else { "false" });
            self
        }

        /// Adds a string field.
        pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
            self.key(k);
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
            self
        }

        /// Adds a `null` field.
        pub fn null(&mut self, k: &str) -> &mut Self {
            self.key(k);
            self.buf.push_str("null");
            self
        }

        /// Adds a pre-rendered JSON value.
        pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
            self.key(k);
            self.buf.push_str(v);
            self
        }

        /// Closes the object and returns the JSON text.
        pub fn finish(&self) -> String {
            format!("{{{}}}", self.buf)
        }
    }

    /// An incremental JSON array writer.
    #[derive(Debug, Default)]
    pub struct Arr {
        buf: String,
    }

    impl Arr {
        /// Starts an empty array.
        pub fn new() -> Self {
            Arr::default()
        }

        fn sep(&mut self) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
        }

        /// Appends an unsigned integer element.
        pub fn push_u64(&mut self, v: u64) -> &mut Self {
            self.sep();
            self.buf.push_str(&v.to_string());
            self
        }

        /// Appends a string element.
        pub fn push_str(&mut self, v: &str) -> &mut Self {
            self.sep();
            self.buf.push('"');
            self.buf.push_str(&escape(v));
            self.buf.push('"');
            self
        }

        /// Appends a pre-rendered JSON value.
        pub fn push_raw(&mut self, v: &str) -> &mut Self {
            self.sep();
            self.buf.push_str(v);
            self
        }

        /// Closes the array and returns the JSON text.
        pub fn finish(&self) -> String {
            format!("[{}]", self.buf)
        }
    }

    // ------------------------------------------------------------------
    // Reader (counterpart of the writers above)
    // ------------------------------------------------------------------

    /// A parsed JSON value. Numbers keep their source text so integer
    /// values beyond `f64`'s exact range survive a round trip.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number, as its literal text.
        Num(String),
        /// A string (unescaped).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks up `key` in an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as an unsigned integer, when it is one.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(raw) => raw
                    .parse::<u64>()
                    .ok()
                    .or_else(|| raw.parse::<f64>().ok().map(|f| f as u64)),
                _ => None,
            }
        }

        /// The value as a float, when it is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The value as a string slice, when it is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a bool, when it is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value's elements, when it is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The value's key/value pairs, when it is an object.
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (RFC 8259 subset: no depth limit games,
    /// numbers kept as text). Trailing whitespace is allowed; trailing
    /// garbage is an error.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                _ => Err(format!("unexpected byte at {}", self.pos)),
            }
        }

        fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "non-utf8 number".to_string())?;
            raw.parse::<f64>()
                .map_err(|_| format!("bad number at byte {start}"))?;
            Ok(Value::Num(raw.to_string()))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let cp = self.hex4()?;
                                // Combine surrogate pairs when present.
                                let c = if (0xd800..0xdc00).contains(&cp) {
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let lo = self.hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xd800) << 10)
                                            + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(c.unwrap_or('\u{fffd}'));
                                continue;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar value.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "non-utf8 string".to_string())?;
                        let c = rest.chars().next().expect("peeked non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            if self.pos + 4 > self.bytes.len() {
                return Err("truncated \\u escape".into());
            }
            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| "non-utf8 escape".to_string())?;
            let cp =
                u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u at {}", self.pos))?;
            self.pos += 4;
            Ok(cp)
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                pairs.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_keeps_newest() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(i, TraceEvent::AruBegin { aru: i });
        }
        let entries = ring.entries();
        assert_eq!(entries.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // Sequence numbers stay attached to their event.
        for e in &entries {
            assert_eq!(e.event, TraceEvent::AruBegin { aru: e.seq });
        }
    }

    #[test]
    fn ring_concurrent_writers() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        ring.record(i, TraceEvent::AruBegin { aru: t });
                    }
                });
            }
        });
        let entries = ring.entries();
        assert_eq!(entries.len(), 64);
        assert_eq!(ring.dropped(), 400 - 64);
        // Entries come back in strictly increasing, contiguous order.
        for w in entries.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(entries.last().unwrap().seq, 399);
    }

    /// One guard per interval: its begin and end entries bracket the
    /// histogram sample it feeds, `end()` returns the sample, and a
    /// guard dropped without `end()` (a stage left by `?`) still closes.
    #[test]
    fn a_stage_guard_records_each_interval_once() {
        let obs = Obs::new(ObsConfig::default());
        let nanos = obs.stage(4, 9, Stage::Seal).end();
        drop(obs.stage(5, 9, Stage::Seal));
        let seal = |obs: &Obs| {
            let hists = obs.histograms();
            hists.into_iter().find(|(n, _)| n == "seal_ns").unwrap().1
        };
        assert_eq!(seal(&obs).count, 2);
        assert!(seal(&obs).max >= nanos);
        let entries = obs.ring().entries();
        let kinds: Vec<_> = entries.iter().map(|e| (e.ts, e.event.kind())).collect();
        assert_eq!(
            kinds,
            [
                (4, "stage_begin"),
                (4, "stage_end"),
                (5, "stage_begin"),
                (5, "stage_end")
            ]
        );
        match entries[1].event {
            TraceEvent::StageEnd {
                trace,
                stage,
                nanos: n,
            } => {
                assert_eq!((trace, stage, n), (9, Stage::Seal, nanos));
            }
            e => panic!("expected the stage's end, got {e:?}"),
        }
        let others = obs.histograms().into_iter().filter(|(n, _)| n != "seal_ns");
        assert!(others.into_iter().all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::new(ObsConfig::disabled());
        assert!(obs.timer().is_none());
        let mut span = obs.aru_begin(1, 1);
        span.ops += 1;
        obs.aru_commit(1, &span, 2, None);
        obs.event(3, TraceEvent::AruAbort { aru: 1 });
        // A stage still times itself: the recovery report reads it.
        let guard = obs.stage(4, 1, Stage::RecoveryScan);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(guard.end() >= 1_000_000);
        assert!(obs.ring().entries().is_empty());
        for (_, h) in obs.histograms() {
            assert!(h.is_empty());
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
        let mut o = json::Obj::new();
        o.str("k\"ey", "v\nal");
        o.u64("n", 3);
        o.bool("b", true);
        o.null("z");
        assert_eq!(
            o.finish(),
            "{\"k\\\"ey\":\"v\\nal\",\"n\":3,\"b\":true,\"z\":null}"
        );
        let mut a = json::Arr::new();
        a.push_u64(1).push_str("x").push_raw("{}");
        assert_eq!(a.finish(), "[1,\"x\",{}]");
    }

    /// `ldctl stats` prints the `Display` table: every declared counter
    /// has exactly one row in its "LLD counters" block, and exactly one
    /// key under `lld` in the JSON, each with the counter's value.
    #[test]
    fn every_lld_counter_is_displayed_and_serialized_once() {
        let mut snap = ObsSnapshot::default();
        let names: Vec<&str> = snap.lld.fields().into_iter().map(|(n, _)| n).collect();
        for (i, name) in names.iter().enumerate() {
            snap.lld.set(name, 1000 + i as u64);
        }
        let text = snap.to_string();
        let block: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "LLD counters")
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect();
        let lld = json::parse(&snap.to_json()).unwrap();
        let lld = lld.get("lld").and_then(json::Value::as_obj).unwrap();
        for (i, name) in names.iter().enumerate() {
            let row = format!("  {name:<28} {}", 1000 + i);
            assert_eq!(
                block.iter().filter(|l| **l == row).count(),
                1,
                "{name} in the table"
            );
            let keys: Vec<_> = lld.iter().filter(|(k, _)| k == name).collect();
            assert_eq!(keys.len(), 1, "{name} under lld");
            assert_eq!(keys[0].1.as_u64(), Some(1000 + i as u64));
        }
        assert_eq!(block.len(), names.len());
        assert_eq!(lld.len(), names.len());
    }

    #[test]
    fn snapshot_json_shape() {
        let obs = Obs::new(ObsConfig::default());
        let span = obs.aru_begin(1, 10);
        obs.aru_commit(1, &span, 12, obs.timer());
        let snap = ObsSnapshot {
            lld: LldStats::default(),
            disk: None,
            histograms: obs.histograms(),
            events: obs.ring().entries(),
            dropped_events: obs.ring().dropped(),
            shards: vec![ShardLockStats {
                shard: 0,
                read_locks: 3,
                write_locks: 1,
            }],
            recovery: None,
            fs_ops: vec![("files_created".into(), 2)],
            server: ServerCounters {
                sessions_opened: 4,
                retries_deduped: 1,
                ..ServerCounters::default()
            },
        };
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"lld\":{"));
        assert!(j.contains("\"disk\":null"));
        assert!(j.contains("\"end_aru\":{"));
        assert!(j.contains("\"type\":\"aru_begin\""));
        assert!(j.contains("\"type\":\"aru_commit\""));
        assert!(j.contains("\"ops\":0"));
        assert!(j.contains("\"shards\":[{\"shard\":0,\"read_locks\":3,\"write_locks\":1}]"));
        assert!(j.contains("\"files_created\":2"));
        // Display renders without panicking and mentions the sections.
        let text = snap.to_string();
        assert!(text.contains("LLD counters"));
        assert!(text.contains("Latency histograms"));
    }
}
