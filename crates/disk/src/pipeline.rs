//! A pipelined device layer: an async segment writer with
//! sequence-numbered barriers.
//!
//! [`PipelinedDisk`] wraps any [`BlockDevice`] and moves its writes onto
//! a dedicated I/O thread behind a bounded submission queue. `write_at`
//! becomes an enqueue (cheap, returns as soon as the request is
//! queued); `flush` becomes "wait until every write my barrier covers
//! has been applied, then barrier the inner device". A segment's
//! writes no longer occupy the thread that placed or sealed them, and
//! the layer above (the logical disk's group-commit leader, which lets
//! the next batch seal during its barrier on any device) gets
//! double-buffered segment staging: the write work of batch *k+1*
//! overlaps the barrier wait of batch *k*.
//!
//! # Queue protocol
//!
//! Every write is assigned a monotonically increasing *sequence number*
//! at enqueue time; the I/O thread applies writes strictly in FIFO
//! order, so the applied watermark is contiguous. A barrier
//! ([`submit_barrier`](PipelinedDisk::submit_barrier)) captures the
//! submission sequence at its call as its *cover*;
//! [`wait_barrier`](PipelinedDisk::wait_barrier) blocks until the cover
//! has been applied and then issues the inner `flush` **on the waiting
//! caller's thread** — the I/O thread never blocks on a barrier, so it
//! keeps applying the next batch's writes during the device's barrier
//! latency. That overlap is the pipeline's whole win: on a device
//! whose write and barrier costs are `W` and `F`, back-to-back batches
//! cost `max(W, F)` each instead of `W + F`.
//!
//! A flush snapshots the applied watermark on entry and, on success,
//! retires every barrier whose cover it reached. Waiters whose cover an
//! in-flight flush's snapshot already reaches ride that flush instead
//! of issuing their own — they *coalesce* (and a barrier that covers no
//! writes beyond the durable watermark retires without touching the
//! device at all). Waiters an in-flight flush does *not* cover issue
//! their own inner flush concurrently: overlapping cache flushes queue
//! in the device, and serializing them here would put a full barrier
//! latency between back-to-back batches.
//!
//! Issuing the flush concurrently with later writes gives up one
//! property of the synchronous path: a *later* batch's write can reach
//! the device — and, under fault injection, exhaust the byte budget —
//! between a barrier's cover being applied and its inner flush
//! entering the device. The layer above bounds that window: the
//! logical disk's group-commit stage lets a leader claim only while
//! fewer than two released batches are unretired (its own count, the
//! same for both device paths), so at most one trailing batch's writes
//! can race a pending barrier. After a power cut at most one batch
//! fewer is acknowledged than a leader that held on through its barrier
//! would have acknowledged — never one more.
//!
//! # Durability and failure semantics
//!
//! * **Ordering** — one FIFO queue drained by one thread: the inner
//!   device observes writes in exact submission order (so per-offset
//!   write order is trivially preserved, and the byte budget of a
//!   [`SimDisk`](crate::SimDisk) fault plan — which only writes consume
//!   — is spent in submission order, exactly as on the unpipelined
//!   path).
//! * **Queue drained before barrier ack** — a `flush` returns `Ok` only
//!   after every covered write reached the inner device *and* an inner
//!   barrier issued after that point returned `Ok`.
//! * **Sticky errors** — the first inner error (e.g. a simulated crash)
//!   is latched; every queued and future request fails with it, and the
//!   remaining queue is discarded *without touching the device*, so a
//!   crashed [`SimDisk`](crate::SimDisk) image is exactly the prefix
//!   the fault plan permitted.
//! * **Reads** — `read_at` first waits until every write submitted
//!   before it has been applied (read-your-writes, and program order is
//!   preserved for a single-threaded caller), then reads the inner
//!   device directly on the caller's thread. Reads never wait for
//!   barriers, so they proceed while a flush is in flight.
//! * **Shutdown** — dropping the disk (or calling
//!   [`into_inner`](PipelinedDisk::into_inner)) drains the queue and
//!   joins the I/O thread. Unflushed writes are applied, matching the
//!   unpipelined device where `write_at` data is in the image even
//!   without a barrier; after a sticky error the queue is discarded
//!   instead, preserving the crash image.
//!
//! See `docs/PIPELINE.md` in the repository root for the ordering
//! proof and the lock-hierarchy position of the queue mutex.

use crate::sync::{Condvar, Mutex};
use crate::trace::{current_trace, register_thread_name, PipeObserver, PipeStage};
use crate::{BlockDevice, DiskError, HistogramSnapshot, LatencyHistogram, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bound on bytes held in the submission queue (~ a few of the
/// paper's 0.5 MB segments, so a burst of seals can double-buffer
/// without letting memory grow unboundedly).
const DEFAULT_MAX_QUEUED_BYTES: usize = 8 << 20;

/// Default bound on queued requests.
const DEFAULT_MAX_QUEUED_REQUESTS: usize = 1024;

/// Upper bound on the size of a coalesced write. The I/O thread merges
/// queued writes that are *contiguous on the device* (each starting
/// exactly where the previous one ends) into a single inner call —
/// streamed segment blocks and the trailing summary are contiguous by
/// construction, so a batch's payload reaches the device as one large
/// sequential write instead of a call per block. The cap bounds the
/// memcpy and keeps one merge from holding the applied watermark back
/// for too long.
const MAX_MERGED_BYTES: usize = 1 << 20;

/// A positioned write on the submission queue, tagged with its sequence
/// number, enqueue time (for the submission-latency histogram), and the
/// submitting thread's trace id (so the I/O thread can attribute the
/// media write back to the commit that produced it).
#[derive(Debug)]
struct QueuedWrite {
    offset: u64,
    data: Vec<u8>,
    seq: u64,
    enqueued: Instant,
    trace: u64,
}

/// Holder for the optional [`PipeObserver`]; a newtype so [`Shared`]
/// can keep deriving `Debug` around the non-`Debug` trait object.
struct ObserverSlot(Mutex<Option<Arc<dyn PipeObserver>>>);

impl ObserverSlot {
    fn get(&self) -> Option<Arc<dyn PipeObserver>> {
        self.0.lock().clone()
    }
}

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSlot")
            .field("installed", &self.0.lock().is_some())
            .finish()
    }
}

/// Mutable queue state, guarded by [`Shared::state`].
#[derive(Debug)]
struct PipeState {
    queue: VecDeque<QueuedWrite>,
    /// Bytes of write payload currently queued (backpressure bound).
    queued_bytes: usize,
    /// Sequence number of the most recently *submitted* write.
    submitted: u64,
    /// Sequence number of the most recently *applied* write (writes are
    /// applied in FIFO order, so this is a contiguous high-water mark).
    applied: u64,
    /// Highest write sequence covered by a successful inner flush:
    /// every barrier with a cover at or below this is durable.
    durable: u64,
    /// Barrier waiters currently inside the inner `flush` call. Flushes
    /// run concurrently (the inner device is `&self`-safe, and on real
    /// hardware overlapping cache flushes queue in the device, not in
    /// this layer); a waiter only rides an in-flight flush instead of
    /// issuing its own when that flush's snapshot already covers it.
    flushes_inflight: u64,
    /// Highest applied-snapshot among the in-flight flushes (meaningful
    /// only while `flushes_inflight > 0`).
    flush_cover: u64,
    /// First inner-device error, latched; fails all queued and future
    /// requests.
    error: Option<DiskError>,
    /// Shutdown requested: the I/O thread exits once the queue is empty.
    stop: bool,
    /// The I/O thread's handle, taken once by whoever joins it.
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Monotonic counters, sampled by [`PipelinedDisk::pipeline_stats`].
#[derive(Debug, Default)]
struct PipeCounters {
    submitted_writes: AtomicU64,
    submitted_bytes: AtomicU64,
    barriers_submitted: AtomicU64,
    inner_flushes: AtomicU64,
    barriers_coalesced: AtomicU64,
    writes_merged: AtomicU64,
    stalls: AtomicU64,
}

#[derive(Debug)]
struct Shared<D> {
    inner: D,
    state: Mutex<PipeState>,
    /// Wakes the I/O thread: work was queued (or stop requested).
    work: Condvar,
    /// Wakes submitters and waiters: a write applied, a flush finished,
    /// queue space freed, or an error latched.
    done: Condvar,
    max_queued_bytes: usize,
    max_queued_requests: usize,
    counters: PipeCounters,
    queue_depth: LatencyHistogram,
    submit_ns: LatencyHistogram,
    /// Inner `write_at` duration per (possibly coalesced) applied write.
    media_write_ns: LatencyHistogram,
    /// Inner `flush` duration per barrier ack issued to the device.
    barrier_ack_ns: LatencyHistogram,
    observer: ObserverSlot,
}

/// A [`BlockDevice`] wrapper that pipelines writes through a dedicated
/// I/O thread and runs barriers on the waiting caller's thread (see the
/// [module docs](self)).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ld_disk::DiskError> {
/// use ld_disk::{BlockDevice, MemDisk, PipelinedDisk};
///
/// let disk = PipelinedDisk::new(MemDisk::new(1 << 20));
/// disk.write_at(0, b"segment zero")?; // enqueued, applied async
/// disk.flush()?; // returns once the write is applied and barriered
/// let mut buf = [0u8; 12];
/// disk.read_at(0, &mut buf)?;
/// assert_eq!(&buf, b"segment zero");
/// let _inner: MemDisk = disk.into_inner(); // drains and joins
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelinedDisk<D> {
    shared: Arc<Shared<D>>,
}

/// A point-in-time copy of a pipeline's counters and histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct PipelineStatsSnapshot {
    /// Writes accepted onto the queue.
    pub submitted_writes: u64,
    /// Payload bytes accepted onto the queue.
    pub submitted_bytes: u64,
    /// Barrier tickets issued (`flush` calls that reached the queue).
    pub barriers_submitted: u64,
    /// Barriers issued to the inner device (`inner.flush` calls).
    pub inner_flushes: u64,
    /// Barrier tickets retired by an inner flush they shared with
    /// another ticket (i.e. `barriers_submitted - inner_flushes` on an
    /// error-free run).
    pub barriers_coalesced: u64,
    /// Queued writes absorbed into a device-contiguous predecessor: the
    /// inner device saw `submitted_writes - writes_merged` calls.
    pub writes_merged: u64,
    /// Times a submitter blocked because the queue was at its byte or
    /// request bound.
    pub stalls: u64,
    /// Queue depth sampled at each enqueue.
    pub queue_depth: HistogramSnapshot,
    /// Nanoseconds from enqueue to applied-on-inner-device, per write.
    pub submit_ns: HistogramSnapshot,
    /// Nanoseconds the inner `write_at` took, per (possibly coalesced)
    /// applied write — the media-write stage of the commit pipeline.
    pub media_write_ns: HistogramSnapshot,
    /// Nanoseconds the inner `flush` took, per barrier ack actually
    /// issued to the device (coalesced barriers record nothing).
    pub barrier_ack_ns: HistogramSnapshot,
}

impl<D: BlockDevice + 'static> PipelinedDisk<D> {
    /// Wraps `inner`, spawning the I/O thread, with default queue
    /// bounds (8 MiB / 1024 requests).
    pub fn new(inner: D) -> Self {
        Self::with_limits(inner, DEFAULT_MAX_QUEUED_BYTES, DEFAULT_MAX_QUEUED_REQUESTS)
    }

    /// Wraps `inner` with explicit submission-queue bounds. A single
    /// oversized request is always admitted when the queue is empty, so
    /// no bound can deadlock a writer.
    pub fn with_limits(inner: D, max_queued_bytes: usize, max_queued_requests: usize) -> Self {
        let shared = Arc::new(Shared {
            inner,
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                queued_bytes: 0,
                submitted: 0,
                applied: 0,
                durable: 0,
                flushes_inflight: 0,
                flush_cover: 0,
                error: None,
                stop: false,
                handle: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            max_queued_bytes: max_queued_bytes.max(1),
            max_queued_requests: max_queued_requests.max(1),
            counters: PipeCounters::default(),
            queue_depth: LatencyHistogram::new(),
            submit_ns: LatencyHistogram::new(),
            media_write_ns: LatencyHistogram::new(),
            barrier_ack_ns: LatencyHistogram::new(),
            observer: ObserverSlot(Mutex::new(None)),
        });
        let io = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ld-pipeline".into())
            .spawn(move || io.io_loop())
            .expect("spawn pipeline I/O thread");
        shared.state.lock().handle = Some(handle);
        PipelinedDisk { shared }
    }
}

impl<D> PipelinedDisk<D> {
    /// Drains the queue (applying pending writes unless a sticky error
    /// is latched) and joins the I/O thread. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown_and_join(&self) {
        let handle = {
            let mut st = self.shared.state.lock();
            st.stop = true;
            st.handle.take()
        };
        self.shared.work.notify_all();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Drains and joins the I/O thread, then returns the inner device.
    pub fn into_inner(self) -> D {
        self.shutdown_and_join();
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop's shutdown_and_join is an idempotent no-op now.
        match Arc::try_unwrap(shared) {
            Ok(sh) => sh.inner,
            Err(_) => unreachable!("I/O thread joined; no other references remain"),
        }
    }

    /// The wrapped device. Direct access bypasses the queue: only
    /// meaningful when the queue is quiescent (e.g. after a `flush`) or
    /// when the access is deliberately racy (arming fault injection).
    pub fn inner(&self) -> &D {
        &self.shared.inner
    }

    /// Snapshots the pipeline's counters and histograms.
    pub fn pipeline_stats(&self) -> PipelineStatsSnapshot {
        let c = &self.shared.counters;
        PipelineStatsSnapshot {
            submitted_writes: c.submitted_writes.load(Ordering::Relaxed),
            submitted_bytes: c.submitted_bytes.load(Ordering::Relaxed),
            barriers_submitted: c.barriers_submitted.load(Ordering::Relaxed),
            inner_flushes: c.inner_flushes.load(Ordering::Relaxed),
            barriers_coalesced: c.barriers_coalesced.load(Ordering::Relaxed),
            writes_merged: c.writes_merged.load(Ordering::Relaxed),
            stalls: c.stalls.load(Ordering::Relaxed),
            queue_depth: self.shared.queue_depth.snapshot(),
            submit_ns: self.shared.submit_ns.snapshot(),
            media_write_ns: self.shared.media_write_ns.snapshot(),
            barrier_ack_ns: self.shared.barrier_ack_ns.snapshot(),
        }
    }

    /// Resets the pipeline's counters and histograms to zero.
    pub fn reset_pipeline_stats(&self) {
        let c = &self.shared.counters;
        c.submitted_writes.store(0, Ordering::Relaxed);
        c.submitted_bytes.store(0, Ordering::Relaxed);
        c.barriers_submitted.store(0, Ordering::Relaxed);
        c.inner_flushes.store(0, Ordering::Relaxed);
        c.barriers_coalesced.store(0, Ordering::Relaxed);
        c.writes_merged.store(0, Ordering::Relaxed);
        c.stalls.store(0, Ordering::Relaxed);
        self.shared.queue_depth.reset();
        self.shared.submit_ns.reset();
        self.shared.media_write_ns.reset();
        self.shared.barrier_ack_ns.reset();
    }

    /// Installs (or replaces) the [`PipeObserver`] that receives
    /// media-write and barrier-ack stage callbacks and the sticky-error
    /// fault hook. The fault hook completes before the sticky error is
    /// latched, so no caller observes the error ahead of the hook (a
    /// flight-recorder dump exists by the time an `Err` surfaces).
    /// Pass-through cost when none is installed is one mutex probe per
    /// applied write.
    pub fn set_observer(&self, observer: Arc<dyn PipeObserver>) {
        *self.shared.observer.0.lock() = Some(observer);
    }
}

impl<D: BlockDevice> PipelinedDisk<D> {
    /// Takes a barrier ticket *without waiting* for it to retire. The
    /// returned cover is the sequence number of the last write
    /// submitted before this call; pass it to
    /// [`wait_barrier`](Self::wait_barrier) to block until a covering
    /// inner flush completes.
    ///
    /// This is the pipelining hook for layers that overlap barrier
    /// latency with new work: the logical disk's group-commit leader
    /// submits its barrier, hands leadership to the next batch, *then*
    /// waits, so the next batch's seal writes flow to the device during
    /// this batch's barrier. `flush` is exactly
    /// `wait_barrier(submit_barrier()?)`.
    ///
    /// # Errors
    ///
    /// The latched sticky error, if any (no ticket is then taken).
    pub fn submit_barrier(&self) -> Result<u64> {
        let st = self.shared.state.lock();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        let cover = st.submitted;
        self.shared
            .counters
            .barriers_submitted
            .fetch_add(1, Ordering::Relaxed);
        Ok(cover)
    }

    /// Blocks until the barrier taken by
    /// [`submit_barrier`](Self::submit_barrier) has retired: every
    /// write submitted before the ticket was taken has been applied to
    /// the inner device and an inner flush issued after that point
    /// returned `Ok`.
    ///
    /// The inner flush runs on *this* thread. A waiter whose cover an
    /// in-flight flush's snapshot reaches rides that flush (coalescing);
    /// one it does not cover issues its own inner flush concurrently. A
    /// waiter whose cover is already durable returns without touching
    /// the device.
    ///
    /// # Errors
    ///
    /// The sticky error if it latches before the ticket retires.
    pub fn wait_barrier(&self, cover: u64) -> Result<()> {
        let c = &self.shared.counters;
        let mut flushed = false;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.durable >= cover {
                if !flushed {
                    c.barriers_coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            let ride = st.flushes_inflight > 0 && st.flush_cover >= cover;
            if st.applied >= cover && !ride {
                // Issue a flush of our own. Flushes run concurrently —
                // the only reason to *wait* instead is an in-flight
                // flush whose snapshot already covers us, which will
                // retire us when it lands. The snapshot is taken before
                // the lock drops: a write applied *during* the inner
                // flush is not known durable by it (the device may
                // reorder a concurrent write past its own barrier).
                let snap = st.applied;
                st.flush_cover = if st.flushes_inflight == 0 {
                    snap
                } else {
                    st.flush_cover.max(snap)
                };
                st.flushes_inflight += 1;
                drop(st);
                let trace = current_trace();
                let obs = self.shared.observer.get();
                if let Some(o) = &obs {
                    o.stage_begin(trace, PipeStage::BarrierAck);
                }
                let ack_start = Instant::now();
                let r = self.shared.inner.flush();
                let ack_ns = ack_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.shared.barrier_ack_ns.record(ack_ns);
                if let Some(o) = &obs {
                    o.stage_end(trace, PipeStage::BarrierAck, ack_ns);
                }
                if let (Err(e), Some(o)) = (&r, &obs) {
                    // As in `apply_write`: the fault hook completes
                    // before the sticky error is latched, so no caller
                    // observes the error ahead of the hook.
                    o.fault(e);
                }
                st = self.shared.state.lock();
                st.flushes_inflight -= 1;
                match r {
                    Ok(()) => {
                        flushed = true;
                        st.durable = st.durable.max(snap);
                        c.inner_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => st.error = Some(e),
                }
                self.shared.done.notify_all();
                continue;
            }
            st = self.shared.done.wait(st);
        }
    }
}

impl<D> Drop for PipelinedDisk<D> {
    fn drop(&mut self) {
        let handle = {
            let mut st = self.shared.state.lock();
            st.stop = true;
            st.handle.take()
        };
        self.shared.work.notify_all();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl<D: BlockDevice> Shared<D> {
    /// The I/O thread body: pop writes in FIFO order and apply them to
    /// the inner device until `stop` is set and the queue is empty.
    /// Barriers never pass through here — they run on their waiters'
    /// threads, which is what lets this thread keep applying the next
    /// batch's writes during a barrier.
    fn io_loop(&self) {
        register_thread_name("ld-pipeline");
        let mut st = self.state.lock();
        loop {
            if st.error.is_some() && !st.queue.is_empty() {
                st.queue.clear();
                st.queued_bytes = 0;
                self.done.notify_all();
            }
            if st.queue.is_empty() {
                if st.stop {
                    return;
                }
                st = self.work.wait(st);
                continue;
            }
            let mut w = st.queue.pop_front().expect("queue checked non-empty");
            // Coalesce device-contiguous successors into one inner
            // call (see [`MAX_MERGED_BYTES`]). Sequence numbers stay
            // contiguous — the merged write's seq is the last
            // component's — so the applied watermark is unaffected,
            // and the inner device sees the same bytes at the same
            // offsets in the same order, just in fewer calls.
            let mut merged = 0u64;
            while let Some(next) = st.queue.front() {
                if next.offset != w.offset + w.data.len() as u64
                    || w.data.len() + next.data.len() > MAX_MERGED_BYTES
                {
                    break;
                }
                let next = st.queue.pop_front().expect("front checked");
                w.data.extend_from_slice(&next.data);
                w.seq = next.seq;
                if w.trace == 0 {
                    w.trace = next.trace;
                }
                merged += 1;
            }
            if merged > 0 {
                self.counters
                    .writes_merged
                    .fetch_add(merged, Ordering::Relaxed);
            }
            st = self.apply_write(st, w);
        }
    }

    /// Applies one write to the inner device, releasing the queue lock
    /// for the duration of the device call.
    fn apply_write<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, PipeState>,
        w: QueuedWrite,
    ) -> std::sync::MutexGuard<'a, PipeState> {
        st.queued_bytes -= w.data.len();
        drop(st);
        self.done.notify_all(); // queue space freed
        let obs = self.observer.get();
        if let Some(o) = &obs {
            o.stage_begin(w.trace, PipeStage::MediaWrite);
        }
        let write_start = Instant::now();
        let res = self.inner.write_at(w.offset, &w.data);
        let write_ns = write_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.media_write_ns.record(write_ns);
        if let Some(o) = &obs {
            o.stage_end(w.trace, PipeStage::MediaWrite, write_ns);
        }
        if let (Err(e), Some(o)) = (&res, &obs) {
            // Fire the fault hook *before* latching the error: once a
            // caller can observe the sticky error, the hook (e.g. a
            // flight-recorder dump) has already completed. No lock is
            // held here — a flight recorder snapshots pipeline stats,
            // which takes the queue lock.
            o.fault(e);
        }
        let mut st = self.state.lock();
        match res {
            Ok(()) => {
                st.applied = w.seq;
                self.submit_ns
                    .record(w.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
            Err(e) => st.error = Some(e),
        }
        self.done.notify_all();
        st
    }
}

impl<D: BlockDevice> BlockDevice for PipelinedDisk<D> {
    fn capacity(&self) -> u64 {
        self.shared.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        {
            let mut st = self.shared.state.lock();
            // Wait until every write submitted before this read has
            // been applied: read-your-writes, and the inner device sees
            // a single-threaded caller's operations in program order.
            // Barriers are not waited for.
            let target = st.submitted;
            loop {
                if let Some(e) = &st.error {
                    return Err(e.clone());
                }
                if st.applied >= target {
                    break;
                }
                st = self.shared.done.wait(st);
            }
        }
        self.shared.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let mut st = self.shared.state.lock();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        // Backpressure: block while the queue is at a bound. An
        // oversized request is admitted once the queue is empty.
        let over = |st: &PipeState| {
            !st.queue.is_empty()
                && (st.queued_bytes + buf.len() > self.shared.max_queued_bytes
                    || st.queue.len() >= self.shared.max_queued_requests)
        };
        if over(&st) {
            self.shared.counters.stalls.fetch_add(1, Ordering::Relaxed);
            while over(&st) {
                st = self.shared.done.wait(st);
                if let Some(e) = &st.error {
                    return Err(e.clone());
                }
            }
        }
        st.submitted += 1;
        let seq = st.submitted;
        st.queued_bytes += buf.len();
        st.queue.push_back(QueuedWrite {
            offset,
            data: buf.to_vec(),
            seq,
            enqueued: Instant::now(),
            trace: current_trace(),
        });
        self.shared.queue_depth.record(st.queue.len() as u64);
        self.shared
            .counters
            .submitted_writes
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .counters
            .submitted_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        drop(st);
        self.shared.work.notify_one();
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.wait_barrier(self.submit_barrier()?)
    }

    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        self.shared.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, FaultPlan, LatencyDisk, MemDisk, SimDisk};
    use std::time::Duration;

    #[test]
    fn write_read_flush_roundtrip() {
        let d = PipelinedDisk::new(MemDisk::new(4096));
        d.write_at(0, b"alpha").unwrap();
        d.write_at(512, b"beta").unwrap();
        d.flush().unwrap();
        let mut buf = [0u8; 5];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"alpha");
        let s = d.pipeline_stats();
        assert_eq!(s.submitted_writes, 2);
        assert_eq!(s.submitted_bytes, 9);
        assert_eq!(s.barriers_submitted, 1);
        assert_eq!(s.inner_flushes, 1);
        assert_eq!(s.submit_ns.count, 2);
        assert!(s.queue_depth.count >= 2);
    }

    #[test]
    fn bounds_errors_are_synchronous() {
        let d = PipelinedDisk::new(MemDisk::new(128));
        assert!(matches!(
            d.write_at(120, &[0u8; 16]),
            Err(DiskError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 16];
        assert!(d.read_at(120, &mut buf).is_err());
        assert_eq!(d.pipeline_stats().submitted_writes, 0);
    }

    #[test]
    fn flush_drains_queue_before_ack() {
        let d = PipelinedDisk::new(MemDisk::new(1 << 16));
        for i in 0..50u64 {
            d.write_at(i * 512, &[i as u8; 512]).unwrap();
        }
        d.flush().unwrap();
        // Inner device must hold every write once flush returns.
        for i in 0..50u64 {
            let mut buf = [0u8; 512];
            d.inner().read_at(i * 512, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 512], "write {i} not applied at ack");
        }
    }

    #[test]
    fn barrier_covering_nothing_new_skips_the_device() {
        let d = PipelinedDisk::new(MemDisk::new(4096));
        // Nothing submitted: the cover is already durable.
        d.flush().unwrap();
        d.write_at(0, b"x").unwrap();
        d.flush().unwrap();
        // Nothing new since the last flush: retired without a device
        // barrier, but still counted as a ticket.
        d.flush().unwrap();
        let s = d.pipeline_stats();
        assert_eq!(s.barriers_submitted, 3);
        assert_eq!(s.inner_flushes, 1);
        assert_eq!(s.barriers_coalesced, 2);
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_inner_call() {
        // Stall the I/O thread behind a slow first write so the
        // contiguous followers queue up, then verify they reached the
        // inner device in fewer calls than were submitted.
        let sim = SimDisk::new(MemDisk::new(1 << 20), DiskModel::default());
        let d = PipelinedDisk::new(
            LatencyDisk::new(sim, Duration::ZERO).with_write_delay(Duration::from_millis(2)),
        );
        d.write_at(8192, &[9u8; 512]).unwrap(); // slow head, not contiguous
        for i in 0..8u64 {
            d.write_at(i * 512, &[i as u8; 512]).unwrap();
        }
        d.flush().unwrap();
        let s = d.pipeline_stats();
        assert_eq!(s.submitted_writes, 9);
        assert!(s.writes_merged > 0, "contiguous run must coalesce");
        let inner_writes = d.inner().inner().stats().snapshot().writes;
        assert_eq!(inner_writes, s.submitted_writes - s.writes_merged);
        // The bytes landed correctly despite the merge.
        for i in 0..8u64 {
            let mut buf = [0u8; 512];
            d.read_at(i * 512, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 512], "block {i}");
        }
    }

    #[test]
    fn reads_see_queued_writes() {
        let d = PipelinedDisk::new(MemDisk::new(4096));
        for round in 0..100u8 {
            d.write_at(0, &[round; 64]).unwrap();
            let mut buf = [0u8; 64];
            d.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, [round; 64]);
        }
    }

    #[test]
    fn into_inner_drains_unflushed_writes() {
        let d = PipelinedDisk::new(MemDisk::new(4096));
        d.write_at(100, b"persisted").unwrap();
        // No flush: shutdown still applies queued writes, matching the
        // unpipelined device where write_at data is in the image.
        let inner = d.into_inner();
        let mut buf = [0u8; 9];
        inner.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"persisted");
    }

    #[test]
    fn backpressure_stalls_and_recovers() {
        // A slow inner device guarantees the queue backs up no matter
        // how the scheduler interleaves submitter and I/O thread; the
        // gaps between the writes keep them from coalescing, so the
        // tiny request bound is actually exercised.
        let slow = LatencyDisk::new(MemDisk::new(1 << 20), Duration::ZERO)
            .with_write_delay(Duration::from_millis(1));
        let d = PipelinedDisk::with_limits(slow, 1024, 2);
        for i in 0..16u64 {
            d.write_at(i * 8192, &[1u8; 4096]).unwrap();
        }
        d.flush().unwrap();
        let s = d.pipeline_stats();
        assert!(s.stalls > 0, "tiny queue bound must have stalled");
        assert_eq!(s.submitted_writes, 16);
    }

    #[test]
    fn sticky_error_propagates_and_discards_queue() {
        let sim = SimDisk::new(MemDisk::new(1 << 20), DiskModel::default());
        sim.set_faults(FaultPlan::new().crash_after_bytes(1024));
        let d = PipelinedDisk::new(sim);
        // More than 1024 bytes of writes: the crash fires mid-stream.
        let mut saw_err = false;
        for i in 0..16u64 {
            if d.write_at(i * 512, &[7u8; 512]).is_err() {
                saw_err = true;
                break;
            }
        }
        // The flush must surface the crash even if every enqueue won.
        let flush_res = d.flush();
        assert!(saw_err || flush_res.is_err());
        assert!(matches!(flush_res, Err(DiskError::Crashed)) || saw_err);
        // All subsequent operations fail with the latched error.
        assert!(d.write_at(0, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(d.read_at(0, &mut buf).is_err());
        assert!(d.flush().is_err());
        // The crash image holds exactly the permitted prefix: the torn
        // write and everything after were not applied beyond the budget.
        let sim = d.into_inner();
        let image = sim.into_inner().into_image();
        let written: u64 = image.iter().filter(|&&b| b == 7).count() as u64;
        assert!(written <= 1024, "crash image exceeds fault budget");
    }

    #[test]
    fn barriers_coalesce_under_concurrency() {
        let d = Arc::new(PipelinedDisk::new(MemDisk::new(1 << 20)));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    for i in 0..50u64 {
                        d.write_at((t * 50 + i) * 512, &[t as u8; 512]).unwrap();
                        d.flush().unwrap();
                    }
                });
            }
        });
        let s = d.pipeline_stats();
        assert_eq!(s.barriers_submitted, 400);
        assert_eq!(
            s.inner_flushes + s.barriers_coalesced,
            400,
            "every ticket retires exactly once"
        );
    }

    #[test]
    fn writes_apply_while_a_barrier_is_in_flight() {
        // The whole point of the pipeline: the I/O thread applies the
        // next batch's writes during an in-flight barrier. Hold a slow
        // barrier (5 ms) on one thread, submit a write from another,
        // and require it to be applied to the inner device before the
        // barrier completes.
        let d = Arc::new(PipelinedDisk::new(LatencyDisk::new(
            MemDisk::new(4096),
            Duration::from_millis(5),
        )));
        d.write_at(0, b"first").unwrap();
        std::thread::scope(|s| {
            let flusher = {
                let d = Arc::clone(&d);
                s.spawn(move || d.flush().unwrap())
            };
            // Wait for the flusher to enter the inner barrier.
            let overlapped = {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    while d.pipeline_stats().barriers_submitted == 0 {
                        std::thread::yield_now();
                    }
                    d.write_at(512, b"overlap").unwrap();
                    // The write must become readable on the inner
                    // device without waiting for the barrier: poll
                    // `applied` via read_at's read-your-writes wait.
                    let mut buf = [0u8; 7];
                    d.read_at(512, &mut buf).unwrap();
                    assert_eq!(&buf, b"overlap");
                })
            };
            overlapped.join().unwrap();
            flusher.join().unwrap();
        });
        let s = d.pipeline_stats();
        assert_eq!(s.submitted_writes, 2);
        assert!(s.inner_flushes >= 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_joins() {
        let d = PipelinedDisk::new(MemDisk::new(4096));
        d.write_at(0, b"x").unwrap();
        d.shutdown_and_join();
        d.shutdown_and_join();
        // Writes after shutdown enqueue but nobody drains them; the
        // contract is that shutdown is terminal. Drop must still not
        // hang.
        drop(d);
    }

    #[test]
    fn observer_sees_stages_and_faults() {
        use std::sync::atomic::AtomicU64;

        #[derive(Default)]
        struct Rec {
            begins: Mutex<Vec<(u64, PipeStage)>>,
            ends: Mutex<Vec<(u64, PipeStage)>>,
            faults: AtomicU64,
        }
        impl PipeObserver for Rec {
            fn stage_begin(&self, trace: u64, stage: PipeStage) {
                self.begins.lock().push((trace, stage));
            }
            fn stage_end(&self, trace: u64, stage: PipeStage, _nanos: u64) {
                self.ends.lock().push((trace, stage));
            }
            fn fault(&self, _error: &DiskError) {
                self.faults.fetch_add(1, Ordering::Relaxed);
            }
        }

        let d = PipelinedDisk::new(MemDisk::new(4096));
        let rec = Arc::new(Rec::default());
        d.set_observer(rec.clone());
        {
            let _scope = crate::trace_scope(42);
            d.write_at(0, b"traced").unwrap();
            d.flush().unwrap();
        }
        let begins = rec.begins.lock().clone();
        let ends = rec.ends.lock().clone();
        assert!(begins.contains(&(42, PipeStage::MediaWrite)));
        assert!(begins.contains(&(42, PipeStage::BarrierAck)));
        assert_eq!(begins, ends, "every begin pairs with an end");
        assert_eq!(rec.faults.load(Ordering::Relaxed), 0);
        let s = d.pipeline_stats();
        assert_eq!(s.media_write_ns.count, 1);
        assert_eq!(s.barrier_ack_ns.count, 1);

        // A device error latched on the I/O thread fires the fault hook.
        let sim = SimDisk::new(MemDisk::new(1 << 20), DiskModel::default());
        sim.set_faults(FaultPlan::new().crash_after_bytes(256));
        let d = PipelinedDisk::new(sim);
        let rec = Arc::new(Rec::default());
        d.set_observer(rec.clone());
        for i in 0..4u64 {
            let _ = d.write_at(i * 512, &[7u8; 512]);
        }
        let _ = d.flush();
        assert!(rec.faults.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn stats_snapshot_plumbs_through() {
        let sim = SimDisk::new(MemDisk::new(1 << 20), DiskModel::default());
        let d = PipelinedDisk::new(sim);
        d.write_at(0, &[1u8; 512]).unwrap();
        d.flush().unwrap();
        let snap = d.stats_snapshot().expect("SimDisk collects stats");
        assert!(snap.writes >= 1);
        assert!(d.pipeline_stats().inner_flushes >= 1);
        d.reset_pipeline_stats();
        assert_eq!(d.pipeline_stats(), PipelineStatsSnapshot::default());
    }
}
