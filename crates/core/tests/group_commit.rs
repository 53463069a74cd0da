//! The group-commit protocol under barriers that overlap in real time.
//!
//! A flush leader lets go of leadership before its barrier, so the
//! next leader's seal runs while the previous barrier is in the device.
//! `SimDisk`'s virtual clock never overlaps two barriers in real time;
//! the devices here do. Three properties:
//!
//! 1. **Crash safety** — on a device whose barrier makes durable exactly
//!    the writes that had returned when it was entered, every commit
//!    acknowledged before a power cut survives and every ARU is all or
//!    nothing.
//! 2. **The gate** — at most two batches are in their barrier at once,
//!    so arrivals pile into the next batch; one caller never waits.
//! 3. **A follower reports the batch that covered it**, not the latest
//!    batch's outcome.
//! 4. **Acknowledged, not issued** (docs/INVARIANTS.md I4) — the default
//!    writer's seal write happens after its session let go of every
//!    lock, so a later segment can reach the device first. What waits
//!    for the earlier write instead: a barrier (W1), a checkpoint (W2),
//!    a write into a slot the cleaner handed back (W3); a read is served
//!    from memory meanwhile (W4); a write that fails stays on record.
//! 5. **Written behind its caller** — a lazy operation that fills a
//!    segment hands it to the parked `cleanerd` thread and returns; the
//!    waits of 4 hold all the same, a busy thread is offered nothing,
//!    and shutting down drains what it was handed.
//!
//! The crash tests run at 8 and 1 map shards.

use ld_core::obs::TraceEvent;
use ld_core::{BlockId, Ctx, ListId, Lld, LldConfig, LldError, Position, Stage};
use ld_disk::{BlockDevice, Condvar, DiskError, MemDisk, Mutex, SmallRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{ParkDisk, ParkState, ReleaseOnDrop, PATIENCE};

const BS: usize = 512;
const CAPACITY: u64 = 4 << 20;

/// The map shards of a point of the mode matrix. No log here wraps, so
/// no cleaner runs.
type Mode = usize;

fn config(shards: Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(1024),
        map_shards: shards,
        flight_dir: None,
        ..LldConfig::default()
    }
}

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for shards in [8, 1] {
        eprintln!("shards = {shards}");
        test(shards);
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

// ---------------------------------------------------------------------
// A device with a volatile cache and a barrier that takes real time
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct LagState {
    /// Every write that has returned.
    cache: Vec<u8>,
    /// The writes a completed barrier covered: the image a power cut
    /// leaves.
    media: Vec<u8>,
    /// Returned and not yet on the media, in the order they returned
    /// (`returned` counts every write that ever was).
    pending: std::collections::VecDeque<(u64, Vec<u8>)>,
    returned: u64,
    /// Device events so far (write returns, barrier entries and exits)
    /// and the one the power is cut at (0: not armed).
    events: u64,
    cut_at: u64,
    /// The media at the cut and the commits acknowledged before it.
    cut: Option<Vec<u8>>,
    acked: Vec<usize>,
    inside_flush: u32,
    max_inside_flush: u32,
}

impl LagState {
    fn tick(&mut self) {
        self.events += 1;
        if self.events == self.cut_at {
            self.cut_now();
        }
    }

    fn cut_now(&mut self) {
        if self.cut.is_none() {
            self.cut = Some(self.media.clone());
        }
    }
}

/// `write_at` returns after `write_lag`; `flush` takes `flush_lag` and
/// moves to the media exactly the writes that had *returned* when it
/// was *entered* — what a device promises, and no more (a write that
/// returns during the barrier stays in the cache).
#[derive(Debug)]
struct LagDisk {
    state: Mutex<LagState>,
    write_lag: Duration,
    flush_lag: Duration,
}

impl LagDisk {
    fn new(write_lag: Duration, flush_lag: Duration) -> Self {
        let state = LagState {
            cache: vec![0; CAPACITY as usize],
            media: vec![0; CAPACITY as usize],
            ..LagState::default()
        };
        LagDisk {
            state: Mutex::new(state),
            write_lag,
            flush_lag,
        }
    }

    /// Cuts the power `after` device events from now.
    fn arm(&self, after: u64) {
        let mut st = self.state.lock();
        st.cut_at = st.events + after;
    }

    /// Records a commit as acknowledged, unless the power is already
    /// cut. Under the device's lock, so an acknowledgment on record
    /// precedes the cut and its barrier's exit precedes both.
    fn ack(&self, commit: usize) -> bool {
        let mut st = self.state.lock();
        let live = st.cut.is_none();
        if live {
            st.acked.push(commit);
        }
        live
    }

    /// The media at the cut (now, if the run ended before its event)
    /// and the commits acknowledged before it.
    fn into_cut(self) -> (Vec<u8>, Vec<usize>) {
        let mut st = self.state.into_inner();
        st.cut_now();
        (st.cut.take().expect("just cut"), st.acked)
    }
}

impl BlockDevice for LagDisk {
    fn capacity(&self) -> u64 {
        CAPACITY
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.check_bounds(offset, buf.len())?;
        let at = offset as usize;
        buf.copy_from_slice(&self.state.lock().cache[at..at + buf.len()]);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.check_bounds(offset, buf.len())?;
        std::thread::sleep(self.write_lag);
        let mut st = self.state.lock();
        let at = offset as usize;
        st.cache[at..at + buf.len()].copy_from_slice(buf);
        st.pending.push_back((offset, buf.to_vec()));
        st.returned += 1;
        st.tick();
        Ok(())
    }

    fn flush(&self) -> ld_disk::Result<()> {
        let covers = {
            let mut st = self.state.lock();
            st.inside_flush += 1;
            st.max_inside_flush = st.max_inside_flush.max(st.inside_flush);
            st.tick();
            st.returned
        };
        std::thread::sleep(self.flush_lag);
        let mut st = self.state.lock();
        while st.returned - (st.pending.len() as u64) < covers {
            let (offset, data) = st.pending.pop_front().expect("covers <= returned");
            let at = offset as usize;
            st.media[at..at + data.len()].copy_from_slice(&data);
        }
        st.inside_flush -= 1;
        st.tick();
        Ok(())
    }
}

/// Block `k` of commit `id`: distinct and never zero for the crash
/// test's 64 commits.
fn pattern(id: usize, k: usize) -> Vec<u8> {
    block((3 * id + k + 1) as u8)
}

/// One ARU: a new list of three patterned blocks, committed with
/// `end_aru_sync`. `None` if the disk refused the commit.
fn commit_list(ld: &Lld<LagDisk>, id: usize) -> Option<(ListId, Vec<BlockId>)> {
    let aru = ld.begin_aru().unwrap();
    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
    let mut blocks = Vec::new();
    for k in 0..3 {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Aru(aru), list, pos).unwrap();
        ld.write(Ctx::Aru(aru), b, &pattern(id, k)).unwrap();
        blocks.push(b);
    }
    ld.end_aru_sync(aru).ok().map(|()| (list, blocks))
}

// ---------------------------------------------------------------------
// 1. Crash safety under overlapping barriers
// ---------------------------------------------------------------------

/// Repro of one seed: `GC_SEED=<seed> cargo test -p ld-core --test group_commit power_cut`.
#[test]
fn power_cut_under_overlapping_barriers_keeps_every_acknowledged_commit() {
    each_mode(power_cut_at);
}

fn power_cut_at(shards: Mode) {
    const THREADS: usize = 4;
    const COMMITS: usize = 16;
    let seeds: Vec<u64> = match std::env::var("GC_SEED") {
        Ok(s) => vec![s.parse().expect("GC_SEED is a number")],
        Err(_) => (1..=6).collect(),
    };
    let cfg = config(shards);
    for seed in seeds {
        let at = format!("shards {shards} GC_SEED={seed}");
        let device = LagDisk::new(Duration::from_micros(100), Duration::from_millis(1));
        let ld = Arc::new(Lld::format(device, &cfg).unwrap());
        // A commit is about three device events; the cut falls anywhere
        // from the first commit to past the last.
        let cut_after = SmallRng::seed_from_u64(seed).gen_range(1, 3 * (THREADS * COMMITS) as u64);
        ld.device().arm(cut_after);
        let commits: Vec<_> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let ld = Arc::clone(&ld);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..COMMITS {
                            let id = t * COMMITS + i;
                            let Some((list, blocks)) = commit_list(&ld, id) else {
                                break;
                            };
                            mine.push((id, list, blocks));
                            if !ld.device().ack(id) {
                                break;
                            }
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let stats = ld.stats();
        let ld = Arc::try_unwrap(ld).expect("workers joined");
        let (image, acked) = ld.into_device().into_cut();

        let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg)
            .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
        let mut buf = block(0);
        for (id, list, blocks) in &commits {
            let survived = ld2.list_blocks(Ctx::Simple, *list).unwrap_or_default();
            if acked.contains(id) {
                assert_eq!(
                    &survived, blocks,
                    "{at}: commit {id}, acknowledged before the cut, must survive \
                     (cut after {cut_after} events, {} batches)",
                    stats.flush_batches
                );
            }
            if survived.is_empty() {
                continue; // the "nothing" outcome
            }
            assert_eq!(&survived, blocks, "{at}: commit {id} survived partially");
            for (k, &b) in survived.iter().enumerate() {
                ld2.read(Ctx::Simple, b, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    pattern(*id, k),
                    "{at}: block {k} of commit {id} corrupted"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. The gate
// ---------------------------------------------------------------------

#[test]
fn at_most_two_batches_are_in_their_barrier_and_arrivals_batch() {
    const THREADS: usize = 8;
    const COMMITS: usize = 12;
    let device = LagDisk::new(Duration::ZERO, Duration::from_millis(2));
    let ld = Arc::new(Lld::format(device, &config(8)).unwrap());
    ld.reset_stats();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..COMMITS {
                    commit_list(&ld, t * COMMITS + i).expect("no fault armed");
                }
            });
        }
    });
    let stats = ld.stats();
    let inside = ld.device().state.lock().max_inside_flush;
    assert!(
        inside <= 2,
        "{inside} callers inside the device's flush at once"
    );
    assert!(stats.inflight_barriers <= 2, "{stats:?}");
    assert_eq!(stats.flush_batch_callers, (THREADS * COMMITS) as u64);
    // Without the gate every arrival finds leadership free and
    // leads a batch of one; with it, eight callers behind two 2 ms
    // barriers make batches of two to three.
    assert!(
        2 * stats.flush_batch_callers >= 3 * stats.flush_batches,
        "{} callers in {} batches",
        stats.flush_batch_callers,
        stats.flush_batches
    );
}

/// The leader records its batch (`flush_batches`, `flush_batch_callers`,
/// `flush_batch_max`) under the state lock *before* releasing it for
/// the seal, so a caller arriving between that release and the seal
/// belongs to the next batch: batches form while a barrier is still in
/// the device, and every ticket is counted exactly once.
#[test]
fn group_commit_batches_count_every_caller_exactly_once() {
    const THREADS: usize = 4;
    const COMMITS: usize = 25;
    let device = LagDisk::new(Duration::ZERO, Duration::from_micros(200));
    let ld = Arc::new(Lld::format(device, &config(8)).unwrap());
    ld.reset_stats();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..COMMITS {
                    commit_list(&ld, t * COMMITS + i).expect("no fault armed");
                }
            });
        }
    });
    let stats = ld.stats();
    let total = (THREADS * COMMITS) as u64;
    assert_eq!(stats.flush_batch_callers, total, "{stats:?}");
    assert!((1..=total).contains(&stats.flush_batches), "{stats:?}");
    assert!(
        (1..=THREADS as u64).contains(&stats.flush_batch_max),
        "a batch covers at most one ticket per thread: {stats:?}"
    );
}

#[test]
fn one_caller_leads_every_batch_and_never_waits_for_a_wake_up() {
    let device = LagDisk::new(Duration::ZERO, Duration::from_micros(200));
    let ld = Lld::format(device, &config(8)).unwrap();
    ld.reset_stats();
    for i in 0..20 {
        commit_list(&ld, i).expect("no fault armed");
    }
    let stats = ld.stats();
    assert_eq!(stats.flush_batches, 20);
    assert_eq!(stats.flush_batch_callers, 20);
    assert_eq!(stats.inflight_barriers, 1);
}

// ---------------------------------------------------------------------
// 3. A follower reports the batch that covered it
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    armed: bool,
    /// Barriers that have entered the device since it was armed.
    entered: usize,
    /// The test's verdict on barrier `i`: `Some(true)` lets it succeed.
    verdicts: Vec<Option<bool>>,
}

/// A device whose every barrier, once armed, waits inside `flush` for
/// the test's verdict: the test decides the order barriers retire in
/// and which one fails.
#[derive(Debug)]
struct GateDisk {
    inner: MemDisk,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl GateDisk {
    fn set_armed(&self, armed: bool) {
        self.state.lock().armed = armed;
        self.cv.notify_all();
    }

    fn wait_entered(&self, n: usize) {
        let mut st = self.state.lock();
        while st.entered < n {
            let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
            if timed_out {
                drop(guard); // a guard dropped by the panic would poison the gate
                panic!("barrier {n} never entered the device");
            }
            st = guard;
        }
    }

    fn release(&self, barrier: usize, ok: bool) {
        let mut st = self.state.lock();
        if st.verdicts.len() <= barrier {
            st.verdicts.resize(barrier + 1, None);
        }
        st.verdicts[barrier] = Some(ok);
        self.cv.notify_all();
    }
}

/// Opens the gate when the test ends, also by a failed assertion:
/// callers still inside `flush` return and the scope can join them.
struct OpenOnDrop<'a>(&'a GateDisk);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_armed(false);
    }
}

impl BlockDevice for GateDisk {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.inner.write_at(offset, buf)
    }
    fn flush(&self) -> ld_disk::Result<()> {
        let mut st = self.state.lock();
        if !st.armed {
            return Ok(());
        }
        let me = st.entered;
        st.entered += 1;
        self.cv.notify_all();
        loop {
            match st.verdicts.get(me).copied().flatten() {
                Some(true) => return Ok(()),
                Some(false) => return Err(DiskError::Io(format!("barrier {me} failed"))),
                None if !st.armed => return Ok(()),
                None => {
                    let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
                    if timed_out {
                        return Err(DiskError::Io(format!("barrier {me}: no verdict")));
                    }
                    st = guard;
                }
            }
        }
    }
}

/// Durability callers that have taken a ticket so far (each opens its
/// `queue_wait` span under the same lock).
fn tickets(ld: &Lld<GateDisk>) -> usize {
    let begins = |e: &&ld_core::TraceEntry| {
        matches!(
            e.event,
            TraceEvent::StageBegin {
                stage: Stage::QueueWait,
                ..
            }
        )
    };
    ld.obs().ring().entries().iter().filter(begins).count()
}

fn wait_tickets(ld: &Lld<GateDisk>, n: usize) {
    let deadline = Instant::now() + PATIENCE;
    while tickets(ld) < n {
        assert!(Instant::now() < deadline, "waiting for ticket {n}");
        std::thread::yield_now();
    }
}

#[test]
fn a_follower_reports_the_batch_that_covered_it() {
    let device = GateDisk {
        inner: MemDisk::new(CAPACITY),
        state: Mutex::default(),
        cv: Condvar::new(),
    };
    let ld = Arc::new(Lld::format(device, &config(8)).unwrap());
    let list = ld.new_list(Ctx::Simple).unwrap();
    let blocks: Vec<_> = (0..7)
        .map(|_| ld.new_block(Ctx::Simple, list, Position::First).unwrap())
        .collect();
    ld.flush().unwrap();
    ld.reset_stats();
    let base = tickets(&ld);
    ld.device().set_armed(true);

    // Caller `i` writes its own block and flushes; a flush with
    // nothing to seal would ride an earlier barrier.
    std::thread::scope(|s| {
        let caller = |i: usize| {
            let ld = Arc::clone(&ld);
            let b = blocks[i];
            s.spawn(move || {
                ld.write(Ctx::Simple, b, &block(i as u8 + 1)).unwrap();
                ld.flush()
            })
        };
        let dev = ld.device();
        let _open = OpenOnDrop(dev);

        // Batches 0 and 1, one caller each, both in their barrier:
        // the gate is shut.
        let t0 = caller(0);
        dev.wait_entered(1);
        let t1 = caller(1);
        dev.wait_entered(2);
        // Batch 2 forms behind the gate: a leader and a follower.
        let t2 = caller(2);
        let t3 = caller(3);
        wait_tickets(&ld, base + 4);
        dev.release(0, true);
        assert!(t0.join().unwrap().is_ok());
        dev.wait_entered(3);
        // Batch 3, the one that fails, likewise.
        let t4 = caller(4);
        let t5 = caller(5);
        wait_tickets(&ld, base + 6);
        dev.release(1, true);
        assert!(t1.join().unwrap().is_ok());
        dev.wait_entered(4);
        // Batch 4 can only start once batch 2 has retired, so its
        // barrier's entry says batch 2's success is on record
        // before batch 3's failure.
        let t6 = caller(6);
        wait_tickets(&ld, base + 7);
        dev.release(2, true);
        dev.wait_entered(5);
        dev.release(3, false);
        let failed = |r: ld_core::Result<()>| match r {
            Err(LldError::Disk(DiskError::Io(m))) => m == "barrier 3 failed",
            _ => false,
        };
        assert!(failed(t4.join().unwrap()), "batch 3");
        assert!(failed(t5.join().unwrap()), "batch 3");
        // Batch 2's follower, even if it only wakes now, with the
        // later failure on record, reports its own batch.
        assert!(t2.join().unwrap().is_ok(), "batch 2");
        assert!(t3.join().unwrap().is_ok(), "batch 2");
        dev.release(4, true);
        assert!(t6.join().unwrap().is_ok(), "batch 4");
    });
    let stats = ld.stats();
    assert_eq!((stats.flush_batches, stats.flush_batch_callers), (5, 7));
    assert_eq!(stats.inflight_barriers, 2);
}

// ---------------------------------------------------------------------
// 4. Acknowledged, not issued
// ---------------------------------------------------------------------

/// The bytes of segment slot `slot`.
fn slot_range(ld: &Lld<impl BlockDevice>, slot: u32) -> Range<u64> {
    let (layout, _, _) = Lld::probe(ld.device()).unwrap();
    layout.segment_offset(slot)..layout.segment_offset(slot + 1)
}

/// As many blocks as a slot has, allocated and not yet written: writes
/// that go round them each append (see [`common::churn_ring`]).
fn new_ring(ld: &Lld<impl BlockDevice>) -> Vec<BlockId> {
    common::churn_ring(ld, ld.new_list(Ctx::Simple).unwrap(), None)
}

/// A list of `n` blocks, each allocated and not yet written.
fn new_blocks(ld: &Lld<ParkDisk>, n: usize) -> Vec<BlockId> {
    let list = ld.new_list(Ctx::Simple).unwrap();
    (0..n)
        .map(|_| ld.new_block(Ctx::Simple, list, Position::First).unwrap())
        .collect()
}

/// The byte block `b` is filled with.
fn read(ld: &Lld<impl BlockDevice>, b: BlockId) -> u8 {
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(buf[0]), "a torn block");
    buf[0]
}

/// The thread each segment write so far was issued on, in the order
/// their `media_write` spans began: its registered name, or `caller`.
fn media_write_threads(ld: &Lld<impl BlockDevice>) -> Vec<String> {
    let names = ld_disk::thread_names();
    let begins = ld.obs().ring().entries().into_iter().filter(|e| {
        matches!(
            e.event,
            TraceEvent::StageBegin {
                stage: Stage::MediaWrite,
                ..
            }
        )
    });
    begins
        .map(|e| {
            names
                .get(&e.tid)
                .map_or("caller", String::as_str)
                .to_string()
        })
        .collect()
}

/// (a) W1. A's roll seals a segment whose write stays on its way; B's
/// commit lands in the next segment, and B's flush leads. No barrier
/// goes out, and B is not acknowledged, before A's write has returned:
/// a cut there leaves B's segment on the medium behind a hole, and
/// recovery ends the log at the hole.
#[test]
fn a_barrier_waits_for_every_earlier_segment() {
    each_mode(a_barrier_waits_at);
}

fn a_barrier_waits_at(shards: Mode) {
    let cfg = config(shards);
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
    let dev = ld.device();
    let kept = new_blocks(ld, 1)[0];
    let a = new_ring(ld);
    ld.write(Ctx::Simple, kept, &block(9)).unwrap();
    ld.flush().unwrap(); // acknowledged: survives whatever follows
    dev.park(slot_range(ld, 0), None);
    let _release = ReleaseOnDrop(dev);
    let flushes = dev.state.lock().flushes;

    std::thread::scope(|s| {
        // A fills slot 0. The write that rolls parks: in its epilogue,
        // holding nothing, at 8 shards; under its locks at 1 shard.
        let ta =
            s.spawn(|| (0..16).try_for_each(|i| ld.write(Ctx::Simple, a[i % a.len()], &block(1))));
        dev.wait_for("A's write parks", |st| st.parked == 1);
        let (ids_tx, ids_rx) = std::sync::mpsc::channel();
        let tb = s.spawn(move || {
            let aru = ld.begin_aru()?;
            let list = ld.new_list(Ctx::Aru(aru))?;
            let b = ld.new_block(Ctx::Aru(aru), list, Position::First)?;
            ld.write(Ctx::Aru(aru), b, &block(2))?;
            ld.end_aru(aru)?;
            ids_tx.send((list, b)).unwrap();
            ld.flush()
        });
        let overtaken = shards == 8;
        if overtaken {
            let next = slot_range(ld, 1);
            dev.wait_for("B's segment reaches the device", |st| st.wrote_into(&next));
        }
        assert!(
            dev.stays(|st| st.flushes == flushes),
            "a barrier went out while an earlier segment was on its way"
        );
        assert!(!tb.is_finished(), "B was acknowledged");

        let (ld2, report) = Lld::recover_with(dev.cut(), &cfg).unwrap();
        assert_eq!(
            report.segments_replayed, 1,
            "the log ends before A's segment"
        );
        assert_eq!(read(&ld2, kept), 9);
        if let Ok((list, _)) = ids_rx.try_recv() {
            let survived = ld2.list_blocks(Ctx::Simple, list).unwrap_or_default();
            assert!(survived.is_empty(), "B's unit is behind the hole");
        } else {
            assert!(!overtaken, "B committed while A held nothing");
        }

        dev.release(true);
        ta.join().unwrap().unwrap();
        tb.join().unwrap().unwrap();
    });
    assert!(dev.state.lock().flushes > flushes);
    assert_eq!(read(ld, a[1]), 1);
}

/// (b) W4 and (c) W2, on the default writer. A flush leader's seal is
/// on its way (the leader holds no shard, so this is the same at 8
/// shards and at 1). A read of a block in it, with no cache to find it
/// in, is served from memory; a checkpoint does not publish before the
/// write has returned, since it would cover a segment that is not on
/// the device.
#[test]
fn an_unwritten_segment_is_read_from_memory_and_holds_back_a_checkpoint() {
    for shards in [8, 1] {
        let cfg = LldConfig {
            read_cache_blocks: 0,
            ..config(shards)
        };
        let ld = Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
        let dev = ld.device();
        let x = new_blocks(&ld, 1)[0];
        ld.write(Ctx::Simple, x, &block(1)).unwrap();
        ld.flush().unwrap();
        let first_slot = slot_range(&ld, 0);
        dev.park(first_slot.clone(), None);
        let _release = ReleaseOnDrop(dev);
        let covered = ld.checkpoint_seq();

        ld.write(Ctx::Simple, x, &block(2)).unwrap();
        std::thread::scope(|s| {
            let leader = s.spawn(|| ld.flush());
            dev.wait_for("the leader's seal parks", |st| st.parked == 1);
            assert_eq!(ld.stats().inflight_segments, 1);
            assert_eq!(read(&ld, x), 2, "shards={shards}");

            let checkpoint = s.spawn(|| ld.checkpoint());
            assert!(
                dev.stays(|st| st.writes.iter().all(|(at, _)| first_slot.contains(at))),
                "shards={shards}: a write into a checkpoint area"
            );
            assert!(!checkpoint.is_finished());
            assert_eq!(ld.checkpoint_seq(), covered, "shards={shards}");

            dev.release(true);
            leader.join().unwrap().unwrap();
            checkpoint.join().unwrap().unwrap();
        });
        assert!(ld.checkpoint_seq() > covered);
        assert_eq!(read(&ld, x), 2);
    }
}

/// (d) W3. The overwrites that empty slot 0 sit in a segment on its
/// way; the cleaner hands slot 0 back; the log comes round to it. The
/// segment sealed into it reaches the device only behind the one that
/// emptied it: a cut before that finds the old contents of every block
/// that lived there.
#[test]
fn a_released_slot_is_overwritten_only_behind_what_emptied_it() {
    for shards in [8, 1] {
        let mut cfg = LldConfig {
            segment_bytes: 8 * BS,
            ..config(shards)
        };
        cfg.cleaner.background = false; // no thread: `run_cleaner` below runs the pass
        let ld = Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
        let dev = ld.device();
        let (old, other) = (new_blocks(&ld, 4), new_ring(&ld));
        for (i, &b) in old.iter().enumerate() {
            ld.write(Ctx::Simple, b, &block(10 + i as u8)).unwrap();
        }
        ld.checkpoint().unwrap();
        let lives_in = |b: BlockId| ld.block_info(b).unwrap().addr.unwrap().segment.get();
        assert!(old.iter().all(|&b| lives_in(b) == 0));
        let slot0 = slot_range(&ld, 0);
        let written_to_slot0 = |st: &ParkState| st.wrote_into(&slot0);
        dev.park(slot_range(&ld, 1), None);
        let _release = ReleaseOnDrop(dev);

        for (i, &b) in old.iter().enumerate() {
            ld.write(Ctx::Simple, b, &block(20 + i as u8)).unwrap();
        }
        assert!(old.iter().all(|&b| lives_in(b) == 1));
        std::thread::scope(|s| {
            let leader = s.spawn(|| ld.flush());
            dev.wait_for("the leader's seal parks", |st| st.parked == 1);
            let free = ld.free_segments();
            ld.run_cleaner().unwrap();
            assert_eq!(ld.free_segments(), free + 1, "slot 0 is handed back");
            // Two slots' worth of writes: the first fills slot 2, where
            // the log went on, the second slot 0.
            let writer = s.spawn(|| {
                (0..14).try_for_each(|i| ld.write(Ctx::Simple, other[i % other.len()], &block(3)))
            });
            assert!(
                dev.stays(|st| !written_to_slot0(st)),
                "shards={shards}: slot 0 overwritten ahead of what emptied it"
            );
            assert!(!writer.is_finished());

            let (ld2, _) = Lld::recover_with(dev.cut(), &cfg).unwrap();
            for (i, &b) in old.iter().enumerate() {
                assert_eq!(read(&ld2, b), 10 + i as u8, "shards={shards}");
            }

            dev.release(true);
            leader.join().unwrap().unwrap();
            writer.join().unwrap().unwrap();
        });
        assert!(written_to_slot0(&dev.state.lock()));
        assert_eq!(read(&ld, old[3]), 23);
    }
}

/// (d'), the same with `cleanerd`, which hands a covered victim back
/// with no checkpoint and no seal of its own: the thread relocates what
/// lives in slot 0 into the open segment and releases the slot at once;
/// the write of that segment — the relocation records — stays on its
/// way; the log's next segment goes to slot 0. It reaches the device
/// only behind the parked one: a cut before that finds every block
/// where the checkpoint says it is, with its contents.
#[test]
fn a_slot_cleanerd_released_is_overwritten_only_behind_what_emptied_it() {
    for shards in [8, 1] {
        let mut cfg = LldConfig {
            segment_bytes: 8 * BS,
            ..config(shards)
        };
        assert!(cfg.cleaner.background, "the default cleaner is the thread");
        // The thread wants every slot but the log's own free: it cleans
        // as soon as there is a victim.
        let slots = Lld::format(ParkDisk::new(CAPACITY), &cfg)
            .unwrap()
            .n_segments();
        cfg.cleaner.target_free_segments = slots - 1;
        let ld = Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
        let dev = ld.device();
        let (old, other) = (new_blocks(&ld, 4), new_ring(&ld));
        for (i, &b) in old.iter().enumerate() {
            ld.write(Ctx::Simple, b, &block(10 + i as u8)).unwrap();
        }
        let lives_in = |b: BlockId| ld.block_info(b).unwrap().addr.unwrap().segment.get();
        let slot0 = slot_range(&ld, 0);
        let written_to_slot0 = |st: &ParkState| st.wrote_into(&slot0);
        // Slot 0 is sealed and covered, the log goes on in slot 1, and
        // one slot fewer than the thread wants is free.
        ld.checkpoint().unwrap();
        let checkpoints = ld.stats().checkpoints;
        let deadline = Instant::now() + PATIENCE;
        while ld.free_segments() < slots - 1 {
            assert!(Instant::now() < deadline, "cleanerd never released slot 0");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(old.iter().all(|&b| lives_in(b) == 1));
        assert_eq!(ld.stats().cleaner_blocks_relocated, 4);
        assert_eq!(
            ld.stats().checkpoints,
            checkpoints,
            "released with no checkpoint"
        );
        assert_eq!(
            ld.stats().segments_sealed,
            1,
            "and no seal: the records are in memory"
        );
        dev.park(slot_range(&ld, 1), None);
        let _release = ReleaseOnDrop(dev);

        std::thread::scope(|s| {
            let leader = s.spawn(|| ld.flush());
            dev.wait_for("the leader's seal parks", |st| st.parked == 1);
            // A slot's worth of writes: the log went on in slot 0.
            let writer = s.spawn(|| {
                (0..7).try_for_each(|i| ld.write(Ctx::Simple, other[i % other.len()], &block(3)))
            });
            assert!(
                dev.stays(|st| !written_to_slot0(st)),
                "shards={shards}: slot 0 overwritten ahead of the relocation records"
            );
            assert!(!writer.is_finished());

            let (ld2, _) = Lld::recover_with(dev.cut(), &cfg).unwrap();
            for (i, &b) in old.iter().enumerate() {
                assert_eq!(read(&ld2, b), 10 + i as u8, "shards={shards}");
            }

            dev.release(true);
            leader.join().unwrap().unwrap();
            writer.join().unwrap().unwrap();
        });
        assert!(written_to_slot0(&dev.state.lock()));
        assert_eq!(read(&ld, old[3]), 13);
    }
}

/// (e) The error contract. A segment write that fails behind an
/// operation that has returned stays on record, and every later flush
/// reports that error. The operation whose roll sealed the segment has
/// returned `Ok` where the write is not its own: at 8 shards, where the
/// failing write is issued by `ld-cleanerd`, which the operation handed
/// the segment to. (At 1 shard it writes under its locks and reports
/// the error itself.)
#[test]
fn a_failed_segment_write_fails_every_later_flush() {
    each_mode(|shards| {
        let ld = Lld::format(ParkDisk::new(CAPACITY), &config(shards)).unwrap();
        let a = new_ring(&ld);
        ld.device().park(slot_range(&ld, 0), Some(false));
        let ops: Vec<_> = (0..16)
            .map(|i| ld.write(Ctx::Simple, a[i % a.len()], &block(1)))
            .collect();
        assert!(ld.stats().segments_sealed > 0, "no write rolled");
        if shards == 8 {
            assert!(ops.iter().all(|r| r.is_ok()), "{ops:?}");
            assert_eq!(ld.stats().seals_handed_off, 1, "the thread was parked");
        }
        for nth in ["the next flush", "and the one after it"] {
            match ld.flush() {
                Err(LldError::Disk(DiskError::Io(m))) if m.ends_with("failed") => {}
                got => panic!("{nth}: {got:?}"),
            }
        }
        if shards == 8 {
            // The flushes waited for it (W1), so its span is closed; the
            // others are the leaders' own seals.
            let on_thread = |t: &&String| *t == "ld-cleanerd";
            let writers = media_write_threads(&ld);
            assert_eq!(writers.iter().filter(on_thread).count(), 1, "{writers:?}");
        }
    });
}

// ---------------------------------------------------------------------
// 5. Written behind its caller
// ---------------------------------------------------------------------

/// Lazy two-block ARUs over `blocks`, from the front, until one seals a
/// segment. Returns the blocks committed and the byte each holds.
fn commit_until_a_seal(ld: &Lld<impl BlockDevice>, blocks: &[BlockId]) -> Vec<(BlockId, u8)> {
    let sealed = ld.stats().segments_sealed;
    let mut done = Vec::new();
    for pair in blocks.chunks(2) {
        let byte = done.len() as u8 + 1;
        let aru = ld.begin_aru().unwrap();
        for &b in pair {
            ld.write(Ctx::Aru(aru), b, &block(byte)).unwrap();
        }
        ld.end_aru(aru).unwrap();
        done.extend(pair.iter().map(|&b| (b, byte)));
        if ld.stats().segments_sealed > sealed {
            return done;
        }
    }
    panic!("{} blocks sealed no segment", blocks.len());
}

/// (a) The hand-off, and W4 behind it. At 8 shards the `end_aru` that
/// fills slot 0 returns while the segment's write is parked — on
/// `ld-cleanerd`, which it was handed to — and every block committed so
/// far reads back, from memory: there is no cache and the device has
/// none of it. At 1 shard the session holds every shard and writes
/// under its locks (docs/CONCURRENCY.md, "Seal writes"): nothing is
/// offered and the call does not return, which is also what the 8-shard
/// call did before there was a hand-off.
#[test]
fn a_lazy_commit_returns_while_its_segment_is_parked() {
    for shards in [8, 1] {
        let cfg = LldConfig {
            read_cache_blocks: 0,
            ..config(shards)
        };
        let ld = &Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
        let dev = ld.device();
        let blocks = [new_ring(ld), new_ring(ld)].concat();
        let slot0 = slot_range(ld, 0);
        dev.park(slot0.clone(), None);
        let _release = ReleaseOnDrop(dev);

        std::thread::scope(|s| {
            let committer = s.spawn(|| commit_until_a_seal(ld, &blocks));
            dev.wait_for("the seal's write parks", |st| st.parked == 1);
            if shards == 1 {
                assert!(dev.stays(|st| st.parked == 1));
                assert!(!committer.is_finished(), "written under its locks");
                assert_eq!(ld.stats().seals_handed_off, 0);
                eprintln!("shards=1: segment 1 parked in its own session; end_aru waits");
                dev.release(true);
                committer.join().unwrap();
                return;
            }
            // A call that wrote its own segment would sit in the device
            // until its patience ran out, and find nothing parked then.
            let done = committer.join().unwrap();
            let st = dev.state.lock();
            assert_eq!(st.parked, 1, "end_aru waited out its segment's write");
            assert!(!st.wrote_into(&slot0));
            drop(st);
            assert_eq!(ld.stats().seals_handed_off, 1);
            assert_eq!(ld.stats().inflight_segments, 1);
            for &(b, byte) in &done {
                assert_eq!(read(ld, b), byte, "a committed block, from memory");
            }
            eprintln!(
                "shards=8: segment 1 parked on ld-cleanerd; end_aru returned, \
                 {} blocks read back from memory",
                done.len()
            );
            dev.release(true);
        });
        ld.flush().unwrap();
        assert!(dev.state.lock().wrote_into(&slot0));
        let writer = if shards == 8 { "ld-cleanerd" } else { "caller" };
        assert_eq!(media_write_threads(ld)[0], writer, "shards={shards}");
    }
}

/// (b) W1 and W2 with the segment on the thread, its operation long
/// returned: a flush sends no barrier and a checkpoint publishes
/// nothing until the parked write is let go, and a cut meanwhile ends
/// the log in front of it.
#[test]
fn a_handed_off_segment_holds_back_a_barrier_and_a_checkpoint() {
    let cfg = config(8);
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
    let dev = ld.device();
    let blocks = [new_ring(ld), new_ring(ld)].concat();
    let log_start = slot_range(ld, 0).start;
    dev.park(slot_range(ld, 0), None);
    let _release = ReleaseOnDrop(dev);
    commit_until_a_seal(ld, &blocks);
    dev.wait_for("the thread's write parks", |st| st.parked == 1);
    assert_eq!(ld.stats().seals_handed_off, 1);
    let (flushes, covered) = (dev.state.lock().flushes, ld.checkpoint_seq());
    eprintln!("segment 1 parked on ld-cleanerd; a flush and a checkpoint arrive");

    std::thread::scope(|s| {
        let flusher = s.spawn(|| ld.flush());
        assert!(
            dev.stays(|st| st.flushes == flushes),
            "a barrier went out while the thread held an earlier segment"
        );
        assert!(!flusher.is_finished());
        let checkpointer = s.spawn(|| ld.checkpoint());
        assert!(
            dev.stays(|st| st.writes.iter().all(|&(at, _)| at >= log_start)),
            "a write into a checkpoint area"
        );
        assert!(!checkpointer.is_finished());
        assert_eq!(ld.checkpoint_seq(), covered);

        let (_, report) = Lld::recover_with(dev.cut(), &cfg).unwrap();
        assert_eq!(report.segments_replayed, 0, "the log ends before segment 1");

        dev.release(true);
        flusher.join().unwrap().unwrap();
        checkpointer.join().unwrap().unwrap();
    });
    assert!(dev.state.lock().flushes > flushes);
    assert!(ld.checkpoint_seq() > covered);
}

/// (c) One segment at a time. While the thread sits in the write it was
/// handed, the seals that follow are offered to nobody: each is written
/// by the operation that made it, reaches the device ahead of the
/// parked one, and no more segments are ever unwritten than the load's
/// one thread plus one.
#[test]
fn a_busy_thread_is_offered_nothing_and_the_caller_writes() {
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &config(8)).unwrap();
    let dev = ld.device();
    let blocks: Vec<BlockId> = (0..6).flat_map(|_| new_ring(ld)).collect();
    dev.park(slot_range(ld, 0), None);
    let _release = ReleaseOnDrop(dev);
    let mut at = commit_until_a_seal(ld, &blocks).len();
    dev.wait_for("the thread's write parks", |st| st.parked == 1);
    for slot in [1, 2] {
        at += commit_until_a_seal(ld, &blocks[at..]).len();
        let st = dev.state.lock();
        assert!(
            st.wrote_into(&slot_range(ld, slot)),
            "slot {slot}: its caller wrote it before it returned"
        );
        assert_eq!(st.parked, 1);
    }
    let stats = ld.stats();
    assert_eq!((stats.segments_sealed, stats.seals_handed_off), (3, 1));
    assert_eq!(stats.inflight_segments, 2, "one load thread, plus one");
    eprintln!("segment 1 parked on ld-cleanerd; segments 2 and 3 written by their callers");
    dev.release(true);
    ld.flush().unwrap();
    let writers = media_write_threads(ld);
    assert_eq!(writers[..3], ["ld-cleanerd", "caller", "caller"]);
}

/// (d) One job at a time. The thread is inside a round — its relocation
/// window filled a segment, and that segment's write, the window's own
/// epilogue, is parked — and free slots are below the low watermark.
/// A seal made meanwhile is not handed to it: its caller writes it.
#[test]
fn a_cleaner_in_a_round_is_offered_no_seal() {
    let mut cfg = LldConfig {
        segment_bytes: 8 * BS,
        ..config(8)
    };
    // The thread wants every slot but the log's own free: the first
    // roll leaves it one short.
    let slots = Lld::format(ParkDisk::new(CAPACITY), &cfg)
        .unwrap()
        .n_segments();
    cfg.cleaner.target_free_segments = slots - 1;
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
    let dev = ld.device();
    let (ring, other) = (new_ring(ld), new_ring(ld));
    dev.park(slot_range(ld, 1), None);
    let _release = ReleaseOnDrop(dev);

    // Seven writes fill slot 0; the eighth rolls, kicks the thread and
    // lands in slot 1. The round finds slot 0's seven blocks one too
    // many for the open segment: the window that moves them rolls.
    for &b in &ring {
        ld.write(Ctx::Simple, b, &block(1)).unwrap();
    }
    dev.wait_for("the round's seal parks", |st| st.parked == 1);
    // (A pass that came before slot 0's own write had returned found
    // no victim; the next poll's did.)
    let stats = ld.stats();
    assert!(stats.cleaner_passes >= 1, "{stats:?}");
    assert!(ld.free_segments() < slots - 1);
    let sealed = stats.segments_sealed;

    for &b in &other {
        ld.write(Ctx::Simple, b, &block(2)).unwrap();
    }
    let stats = ld.stats();
    assert!(stats.segments_sealed > sealed, "the writes rolled");
    assert_eq!(stats.seals_handed_off, 0, "{stats:?}");
    assert_eq!(dev.state.lock().parked, 1);
    eprintln!(
        "segment 2 parked in the cleaner's round; {} seals since, each written by its caller",
        stats.segments_sealed - sealed
    );
    dev.release(true);
    ld.flush().unwrap();
    assert_eq!(read(ld, ring[0]), 1);
    assert_eq!(read(ld, other[0]), 2);
}

/// (e) Shutting down. `into_device` and `drop` join the thread, and the
/// thread writes what it was handed before it leaves: neither returns
/// while the write is parked, and the segment is on the device when
/// they do.
#[test]
fn shutting_down_drains_a_handed_off_segment() {
    for consume in [true, false] {
        let cfg = config(8);
        let dev = Arc::new(ParkDisk::new(CAPACITY));
        let ld = Lld::format(Arc::clone(&dev), &cfg).unwrap();
        let blocks = [new_ring(&ld), new_ring(&ld)].concat();
        let slot0 = slot_range(&ld, 0);
        dev.park(slot0.clone(), None);
        let _release = ReleaseOnDrop(&dev);
        let done = commit_until_a_seal(&ld, &blocks);
        dev.wait_for("the thread's write parks", |st| st.parked == 1);
        assert_eq!(ld.stats().seals_handed_off, 1);

        std::thread::scope(|s| {
            let closer = s.spawn(move || match consume {
                true => drop(ld.into_device()),
                false => drop(ld),
            });
            assert!(dev.stays(|st| st.parked == 1));
            assert!(!closer.is_finished(), "consume={consume}");
            eprintln!("segment 1 parked on ld-cleanerd; consume={consume} waits for it");
            dev.release(true);
            closer.join().unwrap();
        });
        assert!(dev.state.lock().wrote_into(&slot0));
        let (ld2, report) = Lld::recover_with(dev.cut(), &cfg).unwrap();
        assert_eq!(report.segments_replayed, 1, "consume={consume}");
        // The unit that spans the seal is not complete in segment 1.
        for &(b, byte) in &done[..done.len() - 2] {
            assert_eq!(read(&ld2, b), byte, "consume={consume}");
        }
    }
}

/// The offset and length of each write a fixed single-threaded load
/// issues, in the order the device saw them, and what the disk counted.
fn write_order(
    background: bool,
    concurrency: ld_core::ConcurrencyMode,
) -> (Vec<(u64, usize)>, ld_core::LldStats) {
    let mut cfg = LldConfig {
        concurrency,
        ..config(8)
    };
    cfg.cleaner.background = background;
    let ld = Lld::format(ParkDisk::new(CAPACITY), &cfg).unwrap();
    let blocks = [new_ring(&ld), new_ring(&ld)].concat();
    ld.device().park(0..0, None); // forget the format's writes
    for (i, pair) in blocks.chunks(2).cycle().take(60).enumerate() {
        let aru = ld.begin_aru().unwrap();
        for &b in pair {
            ld.write(Ctx::Aru(aru), b, &block(i as u8)).unwrap();
        }
        ld.end_aru(aru).unwrap();
        ld.write(Ctx::Simple, blocks[(7 * i) % blocks.len()], &block(i as u8))
            .unwrap();
        match i % 20 {
            9 => ld.flush().unwrap(),
            19 => ld.checkpoint().unwrap(),
            _ => {}
        }
    }
    ld.flush().unwrap();
    let writes = ld.device().state.lock().writes.clone();
    (writes, ld.stats())
}

/// A seal's two writes as one, at its base: every body (data sectors
/// and the 4-byte trailer, so a write of 4 bytes past whole sectors)
/// must be followed at once by its meta record, which ends on a sector
/// boundary, and only the body's offset is kept. The other writes'
/// offsets are kept as they are.
fn one_write_per_seal(writes: &[(u64, usize)]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut it = writes.iter();
    while let Some(&(at, len)) = it.next() {
        if len % common::SECTOR == common::TRAILER_LEN {
            let meta_end = it
                .next()
                .map(|&(meta_at, len)| (meta_at + len as u64) % BS as u64);
            assert_eq!(meta_end, Some(0), "the seal at {at}: {writes:?}");
        }
        out.push(at);
    }
    out
}

/// (f) No thread, no hand-off. Without the thread — which is all
/// `Sequential` shards and the paper's bins ever run — every segment is
/// written by whoever sealed it, and the device sees the seals and
/// checkpoint writes PR 23's tree issues for the same load, in the same
/// order (the constants are that tree's, from this function, when a
/// seal was one write — re-derived for format 6, where two things move:
/// the load's first unit writes `block(0)`, all zeros, which takes no
/// sector now, so every seal offset behind it moves; and each slab of a
/// checkpoint starts with 9 more bytes of descriptors, for the sector
/// count column. With `extent` storing whole blocks, every seal write
/// lands where format 5 put it. Re-derived for format 8, where only
/// checkpoint-area writes moved: a slab's descriptors are 11 bytes
/// longer and its bit-packed rows shorter, so the slab writes behind
/// the first of an area start elsewhere. Re-derived for format 9, whose
/// varint records shrink every summary: a segment ends sooner behind
/// its data, the seals land elsewhere, and the load takes fewer device
/// writes: 43 in `Concurrent` mode and 46 in `Sequential`, not 48 in
/// both). Re-derived for format 10, whose superblock region takes three
/// 512-byte blocks, so every slot starts 1,024 bytes further on, and
/// whose checkpoint headers are written to sectors 1 and 2, not to the
/// start of their areas: the same writes, in the same order, at other
/// offsets. Re-derived for format 11, whose seals are a body at the base
/// and a meta record at the back of the slot: the body's offset stands
/// for the pair, and a slot's first segment starts at its sector 0.
/// Re-derived when a checkpoint's body became one write: each of the
/// load's three checkpoints is two writes (body and header), not ten
/// (a slab each of eight, the directory, the header), so 19 writes in
/// `Concurrent` mode and 22 in `Sequential`; the seals are where they
/// were. With the thread the same
/// writes reach the device, some of them from `ld-cleanerd` and out of
/// turn.
#[test]
fn without_the_thread_the_device_sees_the_same_writes_in_the_same_order() {
    use ld_core::ConcurrencyMode::{Concurrent, Sequential};
    let digest = |writes: &[(u64, usize)]| {
        let seals = one_write_per_seal(writes);
        let bytes: Vec<u8> = seals.iter().flat_map(|at| at.to_le_bytes()).collect();
        (seals.len(), ld_disk::crc32(&bytes))
    };
    let (mut inline, stats) = write_order(false, Concurrent);
    assert_eq!(stats.seals_handed_off, 0);
    assert_eq!(digest(&inline), (19, 223_292_342), "{inline:?}");
    let (sequential, stats) = write_order(false, Sequential);
    assert_eq!(stats.seals_handed_off, 0);
    assert_eq!(digest(&sequential), (22, 619_505_950), "{sequential:?}");

    let (mut handed, stats) = write_order(true, Concurrent);
    assert!(stats.seals_handed_off > 0, "{stats:?}");
    eprintln!(
        "{} of {} seals written by ld-cleanerd",
        stats.seals_handed_off, stats.segments_sealed
    );
    inline.sort_unstable();
    handed.sort_unstable();
    assert_eq!(inline, handed);
}

/// Simple writes and flushes, a flush seal each, until `segments_sealed`
/// reaches `count`.
fn flush_until_sealed(ld: &Lld<impl BlockDevice>, b: BlockId, count: u64) {
    let mut byte = 0u8;
    while ld.stats().segments_sealed < count {
        byte = byte.wrapping_add(1);
        ld.write(Ctx::Simple, b, &block(byte)).unwrap();
        ld.flush().unwrap();
    }
    assert_eq!(ld.stats().segments_sealed, count);
}

/// Waits for `done`, at most half of [`PATIENCE`]: a call held up by a
/// parked write fails here, before the device gives the write up.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE / 2;
    while !done() {
        assert!(Instant::now() < deadline, "{what}: never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// (g) The checkpoint's hand-off. A lazy `end_aru` seals the segment
/// that makes the suffix `n_segments` long, and hands both the segment
/// and the checkpoint that seal asks for to the thread, whose write of
/// the segment is parked. The call returns meanwhile, and nothing is
/// checkpointed. Let go, the thread writes the segment and then a
/// checkpoint that covers it. (Before the hand-off, the call wrote the
/// checkpoint itself, and its *begin* waited for the parked segment,
/// W2: `end_aru` did not return until the write was let go.)
#[test]
fn a_lazy_commit_hands_off_the_checkpoint_its_seal_asks_for() {
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &config(8)).unwrap();
    let dev = ld.device();
    let n = u64::from(ld.n_segments());
    let blocks = [new_ring(ld), new_ring(ld)].concat();
    let one = new_blocks(ld, 1)[0];
    flush_until_sealed(ld, one, n - 1);
    assert_eq!((ld.checkpoint_seq(), ld.stats().checkpoints), (0, 0));
    dev.park_on("ld-cleanerd", slot_range(ld, 0).start..u64::MAX);
    let _release = ReleaseOnDrop(dev);

    std::thread::scope(|s| {
        let committer = s.spawn(|| commit_until_a_seal(ld, &blocks));
        dev.wait_for("the thread's write parks", |st| st.parked == 1);
        eventually("end_aru returns", || committer.is_finished());
        let done = committer.join().unwrap();
        assert!(dev.stays(|st| st.parked == 1));
        let stats = ld.stats();
        assert_eq!((stats.segments_sealed, stats.seals_handed_off), (n, 1));
        assert_eq!((ld.checkpoint_seq(), stats.checkpoints), (0, 0));
        eprintln!(
            "segment {n} parked on ld-cleanerd with the checkpoint it asked for; \
             end_aru returned after {} blocks",
            done.len()
        );
        dev.release(true);
    });
    eventually("the checkpoint lands", || ld.stats().checkpoints == 1);
    assert!(ld.checkpoint_seq() >= n);
    let stats = ld.stats();
    assert_eq!(stats.checkpoints_handed_off, 1);
    assert_eq!(stats.checkpoint_failures, 0);
}

/// (h) The bound's hard edge. The thread's checkpoint is parked in its
/// body write, and sync commits go on sealing: each seal finds the
/// suffix past its bound and is offered to the thread. The one that
/// finds it twice `n_segments` long writes the checkpoint itself, so
/// its commit does not return while the thread's write is parked, and
/// when it does the suffix is short again.
#[test]
fn a_suffix_twice_its_bound_is_checkpointed_by_the_caller() {
    let ld = &Lld::format(ParkDisk::new(CAPACITY), &config(8)).unwrap();
    let dev = ld.device();
    let n = u64::from(ld.n_segments());
    let one = new_blocks(ld, 1)[0];
    dev.park_on("ld-cleanerd", 0..slot_range(ld, 0).start);
    let _release = ReleaseOnDrop(dev);
    flush_until_sealed(ld, one, n);
    dev.wait_for("the thread's checkpoint parks", |st| st.parked == 1);
    flush_until_sealed(ld, one, 2 * n - 1);
    assert_eq!(ld.checkpoint_seq(), 0);

    std::thread::scope(|s| {
        let committer = s.spawn(|| flush_until_sealed(ld, one, 2 * n));
        assert!(dev.stays(|st| st.parked == 1));
        assert!(!committer.is_finished(), "the checkpoint was handed off");
        // (Not `checkpoint_seq`: the waiting checkpoint holds the log.)
        assert_eq!(ld.stats().checkpoints, 0);
        eprintln!("the thread's checkpoint parked; the seal at 2 x {n} waits to write one");
        dev.release(true);
        committer.join().unwrap();
    });
    assert_eq!(ld.checkpoint_seq(), 2 * n);
    assert_eq!(ld.stats().checkpoint_failures, 0);
}
