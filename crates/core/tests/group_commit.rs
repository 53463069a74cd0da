//! The group-commit protocol under barriers that overlap in real time.
//!
//! A flush leader lets go of leadership before its barrier on both
//! writers, so the next leader's seal runs while the previous barrier
//! is in the device. `SimDisk`'s virtual clock never overlaps two
//! barriers in real time; the devices here do. Three properties:
//!
//! 1. **Crash safety** — on a device whose barrier makes durable exactly
//!    the writes that had returned when it was entered, every commit
//!    acknowledged before a power cut survives and every ARU is all or
//!    nothing.
//! 2. **The gate** — at most two batches are in their barrier at once,
//!    so arrivals pile into the next batch; one caller never waits.
//! 3. **A follower reports the batch that covered it**, not the latest
//!    batch's outcome.
//!
//! Each runs on both writers ({sync, pipelined}); the crash test also
//! at 8 and 1 map shards.

use ld_core::obs::TraceEvent;
use ld_core::{BlockId, Ctx, ListId, Lld, LldConfig, LldError, Position, Stage};
use ld_disk::{BlockDevice, Condvar, DiskError, MemDisk, Mutex, SmallRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BS: usize = 512;
const CAPACITY: u64 = 4 << 20;

/// A point of the mode matrix: pipelined writer, map shards. No log
/// here wraps, so no cleaner runs.
type Mode = (bool, usize);

fn config((pipeline, shards): Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(1024),
        pipeline,
        map_shards: shards,
        flight_dir: None,
        ..LldConfig::default()
    }
}

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for mode in [(false, 8), (false, 1), (true, 8), (true, 1)] {
        eprintln!("(pipelined, shards) = {mode:?}");
        test(mode);
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

fn power_cut_at(mode: Mode) {
    const THREADS: usize = 4;
    const COMMITS: usize = 16;
    let seeds: Vec<u64> = match std::env::var("GC_SEED") {
        Ok(s) => vec![s.parse().expect("GC_SEED is a number")],
        Err(_) => (1..=6).collect(),
    };
    let cfg = config(mode);
    for seed in seeds {
        let at = format!("{mode:?} GC_SEED={seed}");
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
    for pipeline in [false, true] {
        let device = LagDisk::new(Duration::ZERO, Duration::from_millis(2));
        let ld = Arc::new(Lld::format(device, &config((pipeline, 8))).unwrap());
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
            "pipeline={pipeline}: {inside} callers inside the device's flush at once"
        );
        assert!(
            stats.inflight_barriers <= 2,
            "pipeline={pipeline}: {stats:?}"
        );
        assert_eq!(stats.flush_batch_callers, (THREADS * COMMITS) as u64);
        // Without the gate every arrival finds leadership free and
        // leads a batch of one; with it, eight callers behind two 2 ms
        // barriers make batches of two to three.
        assert!(
            2 * stats.flush_batch_callers >= 3 * stats.flush_batches,
            "pipeline={pipeline}: {} callers in {} batches",
            stats.flush_batch_callers,
            stats.flush_batches
        );
    }
}

#[test]
fn one_caller_leads_every_batch_and_never_waits_for_a_wake_up() {
    for pipeline in [false, true] {
        let device = LagDisk::new(Duration::ZERO, Duration::from_micros(200));
        let ld = Lld::format(device, &config((pipeline, 8))).unwrap();
        ld.reset_stats();
        for i in 0..20 {
            commit_list(&ld, i).expect("no fault armed");
        }
        let stats = ld.stats();
        assert_eq!(stats.flush_batches, 20, "pipeline={pipeline}");
        assert_eq!(stats.flush_batch_callers, 20, "pipeline={pipeline}");
        assert_eq!(stats.inflight_barriers, 1, "pipeline={pipeline}");
    }
}

// ---------------------------------------------------------------------
// 3. A follower reports the batch that covered it
// ---------------------------------------------------------------------

/// How long the choreography waits for a step before it calls the
/// test failed (a broken protocol shows as a step that never comes).
const PATIENCE: Duration = Duration::from_secs(20);

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
    for pipeline in [false, true] {
        let device = GateDisk {
            inner: MemDisk::new(CAPACITY),
            state: Mutex::default(),
            cv: Condvar::new(),
        };
        let ld = Arc::new(Lld::format(device, &config((pipeline, 8))).unwrap());
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
            assert!(failed(t4.join().unwrap()), "pipeline={pipeline}: batch 3");
            assert!(failed(t5.join().unwrap()), "pipeline={pipeline}: batch 3");
            // Batch 2's follower, even if it only wakes now, with the
            // later failure on record, reports its own batch.
            assert!(t2.join().unwrap().is_ok(), "pipeline={pipeline}: batch 2");
            assert!(t3.join().unwrap().is_ok(), "pipeline={pipeline}: batch 2");
            dev.release(4, true);
            let next = t6.join().unwrap();
            if pipeline {
                // The pipelined device latches its first error.
                assert!(failed(next), "pipeline={pipeline}: batch 4");
            } else {
                assert!(next.is_ok(), "pipeline={pipeline}: batch 4");
            }
        });
        let stats = ld.stats();
        assert_eq!((stats.flush_batches, stats.flush_batch_callers), (5, 7));
        assert_eq!(stats.inflight_barriers, 2);
    }
}
