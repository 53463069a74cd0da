//! Segment-cleaner behaviour: reclaiming space when the log wraps,
//! preserving data across relocation, and recoverability afterwards —
//! at every point of the mode matrix ([`each_mode`]): both runners of
//! the pass (the caller, `cleanerd`),
//! one and eight map shards.

use ld_core::{CleanerConfig, Ctx, Lld, LldConfig, LldError, Position};
use ld_disk::{BlockDevice, Condvar, DiskError, MemDisk, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::{capacity_for, churn_ring};

const BS: usize = 512;

/// One point of the mode matrix: background cleaner, map shards.
type Mode = (bool, usize);

const MODES: [Mode; 4] = [(false, 8), (false, 1), (true, 8), (true, 1)];

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for mode in MODES {
        eprintln!("(cleanerd, shards) = {mode:?}");
        test(mode);
    }
}

fn with_mode((cleanerd, shards): Mode, base: LldConfig) -> LldConfig {
    LldConfig {
        map_shards: shards,
        cleaner: CleanerConfig {
            background: cleanerd,
            ..base.cleaner
        },
        ..base
    }
}

fn config(mode: Mode) -> LldConfig {
    with_mode(
        mode,
        LldConfig {
            block_size: BS,
            segment_bytes: 8 * BS,
            max_blocks: Some(512),
            max_lists: Some(64),
            ..LldConfig::default()
        },
    )
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// A device of 28 segment slots.
fn small_disk(mode: Mode) -> Lld<MemDisk> {
    let cap = capacity_for(&config(mode), 28);
    Lld::format(MemDisk::new(cap), &config(mode)).unwrap()
}

#[test]
fn overwrite_churn_triggers_cleaning_not_disk_full() {
    each_mode(overwrite_churn_triggers_cleaning_not_disk_full_at);
}

fn overwrite_churn_triggers_cleaning_not_disk_full_at(mode: Mode) {
    let ld = small_disk(mode);
    let l = ld.new_list(Ctx::Simple).unwrap();
    let hot = churn_ring(&ld, l, None);
    // Each overwrite consumes a data slot; ~7 slots per segment and ~24
    // segments means >1000 overwrites guarantee several log wraps.
    for i in 0..1200usize {
        let b = hot[i % hot.len()];
        ld.write(Ctx::Simple, b, &block((i % 251) as u8)).unwrap();
    }
    assert!(ld.stats().cleaner_runs > 0, "cleaner must have run");
    assert!(ld.stats().checkpoints > 0, "cleaning forces checkpoints");
    let mut buf = block(0);
    ld.read(Ctx::Simple, hot[1199 % hot.len()], &mut buf)
        .unwrap();
    assert_eq!(buf, block((1199 % 251) as u8));
}

#[test]
fn live_data_survives_relocation() {
    each_mode(live_data_survives_relocation_at);
}

fn live_data_survives_relocation_at(mode: Mode) {
    let ld = small_disk(mode);
    let l = ld.new_list(Ctx::Simple).unwrap();
    // A handful of long-lived blocks...
    let mut keep = Vec::new();
    let mut prev = None;
    for i in 0..10u8 {
        let pos = match prev {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        ld.write(Ctx::Simple, b, &block(0xC0 + i)).unwrap();
        keep.push(b);
        prev = Some(b);
    }
    // ...plus heavy churn on a few hot blocks to wrap the log.
    let hot = churn_ring(&ld, l, prev);
    for i in 0..1200usize {
        let b = hot[i % hot.len()];
        ld.write(Ctx::Simple, b, &block((i % 250) as u8)).unwrap();
    }
    assert!(
        ld.stats().blocks_relocated > 0,
        "cold blocks were relocated"
    );
    for (i, &b) in keep.iter().enumerate() {
        let mut buf = block(0);
        ld.read(Ctx::Simple, b, &mut buf).unwrap();
        assert_eq!(buf, block(0xC0 + i as u8), "block {i} corrupted");
    }
}

#[test]
fn recovery_after_cleaning_sees_current_state() {
    each_mode(recovery_after_cleaning_sees_current_state_at);
}

fn recovery_after_cleaning_sees_current_state_at(mode: Mode) {
    let ld = small_disk(mode);
    let l = ld.new_list(Ctx::Simple).unwrap();
    let stable = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, stable, &block(0x55)).unwrap();
    let hot = churn_ring(&ld, l, Some(stable));
    for i in 0..1500usize {
        let b = hot[i % hot.len()];
        ld.write(Ctx::Simple, b, &block((i % 13) as u8)).unwrap();
    }
    assert!(ld.stats().cleaner_runs > 0);
    ld.flush().unwrap();

    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    assert!(report.checkpoint_seq > 0, "cleaning left a checkpoint");
    let mut buf = block(0);
    ld2.read(Ctx::Simple, stable, &mut buf).unwrap();
    assert_eq!(buf, block(0x55));
    ld2.read(Ctx::Simple, hot[1499 % hot.len()], &mut buf)
        .unwrap();
    assert_eq!(buf, block((1499 % 13) as u8));
    let members = [&[stable][..], &hot[..]].concat();
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), members);
}

#[test]
fn genuinely_full_disk_reports_disk_full() {
    each_mode(genuinely_full_disk_reports_disk_full_at);
}

fn genuinely_full_disk_reports_disk_full_at(mode: Mode) {
    let ld = small_disk(mode);
    let l = ld.new_list(Ctx::Simple).unwrap();
    // Fill with *live* blocks until the device cannot take more.
    let mut prev = None;
    let mut wrote = 0u32;
    loop {
        let pos = match prev {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = match ld.new_block(Ctx::Simple, l, pos) {
            Ok(b) => b,
            Err(LldError::DiskFull) => break,
            Err(e) => panic!("unexpected: {e}"),
        };
        match ld.write(Ctx::Simple, b, &block(1)) {
            Ok(()) => {
                wrote += 1;
                prev = Some(b);
            }
            Err(LldError::DiskFull) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
        assert!(wrote < 10_000, "disk-full never reported");
    }
    // A decent fraction of the slots took data before filling up.
    assert!(wrote > 50, "only {wrote} blocks written");
    // Deleting frees space again: without the thread at once, since the
    // caller runs the pass before its call returns; with the background
    // cleaner once the pass in flight (it holds what it relocated into
    // until its release sweep) has finished.
    ld.delete_list(Ctx::Simple, l).unwrap();
    let (l2, b) = if mode.0 {
        let l2 = when_space_returns(|| ld.new_list(Ctx::Simple));
        let b = when_space_returns(|| ld.new_block(Ctx::Simple, l2, Position::First));
        when_space_returns(|| ld.write(Ctx::Simple, b, &block(2)));
        (l2, b)
    } else {
        let l2 = ld.new_list(Ctx::Simple).unwrap();
        let b = ld.new_block(Ctx::Simple, l2, Position::First).unwrap();
        ld.write(Ctx::Simple, b, &block(2)).unwrap();
        (l2, b)
    };
    assert_eq!(ld.list_blocks(Ctx::Simple, l2).unwrap(), vec![b]);
}

/// Retries a space-consuming operation for as long as it reports
/// `DiskFull` (a failed one leaves no trace), up to five seconds.
fn when_space_returns<T>(mut op: impl FnMut() -> Result<T, LldError>) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match op() {
            Err(LldError::DiskFull) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            done => return done.unwrap(),
        }
    }
}

#[test]
fn explicit_cleaner_run_is_safe_when_idle() {
    each_mode(explicit_cleaner_run_is_safe_when_idle_at);
}

fn explicit_cleaner_run_is_safe_when_idle_at(mode: Mode) {
    let ld = small_disk(mode);
    let free_before = ld.free_segments();
    ld.run_cleaner().unwrap();
    assert!(ld.free_segments() >= free_before.min(ld.n_segments() - 1));
}

#[test]
fn manual_checkpoint_then_clean_reuses_dead_segments() {
    each_mode(manual_checkpoint_then_clean_reuses_dead_segments_at);
}

fn manual_checkpoint_then_clean_reuses_dead_segments_at(mode: Mode) {
    let ld = small_disk(mode);
    let l = ld.new_list(Ctx::Simple).unwrap();
    let hot = churn_ring(&ld, l, None);
    // Burn through several segments of overwrites (all dead but the
    // last two), without reaching the cleaner trigger.
    for i in 0..40u8 {
        let b = hot[usize::from(i) % hot.len()];
        ld.write(Ctx::Simple, b, &block(i)).unwrap();
    }
    assert!(ld.stats().segments_sealed >= 5, "several segments");
    let free_before = ld.free_segments();
    ld.checkpoint().unwrap();
    ld.run_cleaner().unwrap();
    assert!(
        ld.free_segments() >= free_before,
        "cleaning dead segments cannot lose space"
    );
    let mut buf = block(0);
    ld.read(Ctx::Simple, hot[39 % hot.len()], &mut buf).unwrap();
    assert_eq!(buf, block(39));
}

/// A durability-heavy workload at the paper's scale: a sync commit of
/// two 4 KB blocks per list, most lists deleted again soon after. The
/// commits sit back to back in their 0.5 MB slots, so it is the
/// deletions that leave every slot sparse — a few live blocks each
/// after a log wrap — and the cleaner has to compact many such victims
/// into one output segment, again and again, without the disk ever
/// reporting `DiskFull` and without losing a surviving block.
#[test]
fn sync_commit_storm_compacts_without_disk_full() {
    each_mode(sync_commit_storm_compacts_without_disk_full_at);
}

fn sync_commit_storm_compacts_without_disk_full_at(mode: Mode) {
    let cfg = with_mode(
        mode,
        LldConfig {
            block_size: 4096,
            segment_bytes: 512 * 1024,
            max_blocks: Some(4096),
            max_lists: Some(2048),
            ..LldConfig::default()
        },
    );
    // 18 MB: superblock + checkpoint areas + 35 paper-scale segments.
    // A commit takes four blocks of its slot, so 2400 of them are two
    // trips round the device.
    let ld = Lld::format(MemDisk::new(18 << 20), &cfg).unwrap();
    let mut lists = Vec::new();
    for i in 0..2400u32 {
        let aru = ld.begin_aru().unwrap();
        let l = ld.new_list(Ctx::Aru(aru)).unwrap();
        let b0 = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        let b1 = ld.new_block(Ctx::Aru(aru), l, Position::After(b0)).unwrap();
        let byte = (i % 251) as u8;
        ld.write(Ctx::Aru(aru), b0, &vec![byte; 4096]).unwrap();
        ld.write(Ctx::Aru(aru), b1, &vec![byte; 4096]).unwrap();
        ld.end_aru_sync(aru)
            .unwrap_or_else(|e| panic!("sync commit {i} failed: {e}"));
        if i % 16 == 0 {
            lists.push((l, b0, b1, byte));
        } else {
            ld.delete_list(Ctx::Simple, l)
                .unwrap_or_else(|e| panic!("deletion {i} failed: {e}"));
        }
    }
    let stats = ld.stats();
    assert!(stats.cleaner_runs > 0, "cleaner never ran");
    assert!(stats.blocks_relocated > 0, "nothing was relocated");
    assert!(
        stats.segments_sealed > 8 * u64::from(ld.n_segments()),
        "commits did not share slots"
    );
    // The survivors went through several relocations and must still
    // read back intact.
    for &(l, b0, b1, byte) in &lists {
        assert_eq!(ld.list_blocks(Ctx::Simple, l).unwrap(), vec![b0, b1]);
        let mut buf = vec![0u8; 4096];
        ld.read(Ctx::Simple, b0, &mut buf).unwrap();
        assert_eq!(buf, vec![byte; 4096]);
        ld.read(Ctx::Simple, b1, &mut buf).unwrap();
        assert_eq!(buf, vec![byte; 4096]);
    }
}

#[test]
fn crash_during_cleaning_era_recovers_current_state() {
    each_mode(crash_during_cleaning_era_recovers_current_state_at);
}

fn crash_during_cleaning_era_recovers_current_state_at(mode: Mode) {
    // Sweep crash points through a workload that keeps the cleaner
    // busy. Whatever instant the power fails — mid-relocation,
    // mid-checkpoint, mid-segment-write — recovery must reproduce the
    // last flushed state of the stable blocks. The points are 350 KB
    // apart: the workload writes ≈ 1.4–1.7 MB, so four of them fire.
    use ld_disk::{DiskModel, FaultPlan, SimDisk};

    let mut crash_at = 300_000u64;
    let mut crashes_seen = 0;
    while crash_at < 4_000_000 {
        let cap = capacity_for(&config(mode), 28);
        let sim = SimDisk::new(MemDisk::new(cap), DiskModel::hp_c3010())
            .with_faults(FaultPlan::new().crash_after_bytes(crash_at));
        let ld = Lld::format(sim, &config(mode)).unwrap();

        // Stable blocks, flushed before the churn.
        let l = ld.new_list(Ctx::Simple).unwrap();
        let mut stable = Vec::new();
        let mut prev = None;
        for i in 0..6u8 {
            let pos = match prev {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
            ld.write(Ctx::Simple, b, &block(0xD0 + i)).unwrap();
            stable.push(b);
            prev = Some(b);
        }
        ld.flush().unwrap();

        // Churn until the crash point fires (or the workload ends).
        let hot = churn_ring(&ld, l, prev);
        let mut crashed = false;
        for i in 0..3000usize {
            let b = hot[i % hot.len()];
            if ld.write(Ctx::Simple, b, &block((i % 199) as u8)).is_err() {
                crashed = true;
                break;
            }
        }
        // A segment write that fails after its session let go (in the
        // epilogue, or on `ld-cleanerd`) is latched, not returned to the
        // writer; a durability probe surfaces it.
        if !crashed {
            crashed = ld.flush().is_err();
        }
        if crashed {
            crashes_seen += 1;
        }

        let image = ld.into_device().into_inner().into_image();
        let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
        for (i, &b) in stable.iter().enumerate() {
            let mut buf = block(0);
            ld2.read(Ctx::Simple, b, &mut buf)
                .unwrap_or_else(|e| panic!("crash at {crash_at}: stable block {i} lost: {e}"));
            assert_eq!(buf, block(0xD0 + i as u8), "crash at {crash_at}: block {i}");
        }
        // The disk remains fully usable after recovery.
        let nb = ld2.new_block(Ctx::Simple, l, Position::First).unwrap();
        ld2.write(Ctx::Simple, nb, &block(0x11)).unwrap();
        ld2.flush().unwrap();

        crash_at += 350_000;
    }
    assert!(crashes_seen >= 4, "only {crashes_seen} crash points fired");
}

/// The clean-pressure study's device (EXPERIMENTS.md "Clean
/// pressure"): 20 slots of 8 blocks, cleaner asked for 8 free slots.
/// `live` blocks are allocated and written once, flushed, and then 200
/// ARUs rewrite the last eight of them two at a time, every fourth one
/// flushed. `cfg` is one of [`config`]'s, which the device's settings
/// override.
fn churn_on_eight_block_slots(
    live: usize,
    mut cfg: LldConfig,
) -> Result<ld_core::LldStats, LldError> {
    cfg.cleaner.target_free_segments = 8;
    cfg.cleaner.backpressure_free_segments = 1;
    let cap = capacity_for(&cfg, 20);
    let ld = Lld::format(MemDisk::new(cap), &cfg)?;
    assert_eq!(ld.n_segments(), 20);
    let l = ld.new_list(Ctx::Simple)?;
    let mut blocks = Vec::new();
    for _ in 0..live {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Simple, l, pos)?;
        ld.write(Ctx::Simple, b, &block(0xCD))?;
        blocks.push(b);
    }
    ld.flush()?;
    let hot = &blocks[live - 8..];
    for i in 0..200usize {
        let aru = ld.begin_aru()?;
        for k in 0..2 {
            ld.write(Ctx::Aru(aru), hot[(2 * i + k) % 8], &block(i as u8))?;
        }
        ld.end_aru(aru)?;
        if i % 4 == 3 {
            ld.flush()?;
        }
    }
    Ok(ld.stats())
}

/// The losing regime of partial segments (EXPERIMENTS.md "Clean
/// pressure"): where a slot is 8 blocks, the header and summary block
/// of every partial segment are a quarter of it and up to two blocks at
/// its end stay unused. This churn ran out of room above 96 live blocks
/// while every seal took a slot, above 86 from format 4 to format 8,
/// first at 85 in format 9 while the inline pass wrote its covering
/// checkpoint inside the session, and first at 97 once that pass took
/// covered victims only. Since the caller runs the one cleaning pass
/// between sessions, a victim or two at a time, with the reserve pass
/// of a roll that finds no slot behind it, it runs out first at 103.
/// Past the edge the count does not fall off evenly (105 and 106 hold,
/// 103, 104 and 107 on run out), so the pin is the first count that
/// runs out and the one below it. It keeps that loss from growing
/// unnoticed; a change that moves it either way moves the record with
/// it. Without the thread the churn repeats exactly
/// ([`the_pass_runs_on_the_callers_thread_and_repeats_exactly`]).
/// With `cleanerd` it is not repeatable: the thread's relocations share
/// the open segment with the hot writes, and this device sets its gate
/// (1) below the emergency level (3). What holds 84 there, twenty times
/// over, is the reserve pass of a roll that finds no slot
/// (`Mutation::compact`), with the checkpoint a disk at the emergency
/// level asks for once the last one no longer covers its emptiest slot
/// (`LldInner::checkpoint_due`): without that request two runs in a
/// hundred reported `DiskFull` at 84, and without the reserve pass a
/// third of the runs did at 86 in format 8.
#[test]
fn churn_capacity_on_eight_block_slots_is_102_live_blocks() {
    let held = churn_on_eight_block_slots(102, config((false, 8))).expect("102 live blocks fit");
    assert!(held.blocks_relocated > 0, "the log wrapped");
    assert!(matches!(
        churn_on_eight_block_slots(103, config((false, 8))),
        Err(LldError::DiskFull)
    ));
    for round in 0..20 {
        let held = churn_on_eight_block_slots(84, config((true, 8)))
            .unwrap_or_else(|e| panic!("84 live blocks fit with cleanerd, round {round}: {e}"));
        assert!(held.blocks_relocated > 0, "the log wrapped");
    }
}

/// Without the thread the caller runs the one cleaning pass once its
/// session is over, so the same churn repeats to the count: twice on
/// the clean-pressure device, with `background: false` and in
/// `Sequential` mode. (While a disk without the thread cleaned inline,
/// `cleaner_passes` read 0 there.)
#[test]
fn the_pass_runs_on_the_callers_thread_and_repeats_exactly() {
    let sequential = LldConfig {
        concurrency: ld_core::ConcurrencyMode::Sequential,
        ..config((false, 8))
    };
    for cfg in [config((false, 8)), sequential] {
        let counts = || {
            let s = churn_on_eight_block_slots(96, cfg.clone()).expect("96 live blocks fit");
            [
                s.cleaner_runs,
                s.cleaner_passes,
                s.blocks_relocated,
                s.checkpoints,
                s.segments_sealed,
                s.data_bytes_written,
            ]
        };
        let first = counts();
        assert!(
            first[1] > 0,
            "{:?}: no pass on the caller's thread",
            cfg.concurrency
        );
        assert_eq!(first, counts(), "{:?}", cfg.concurrency);
    }
}

/// A device that parks the `nth` block read into a byte range until
/// the test lets it go.
#[derive(Debug)]
struct ParkReads {
    inner: MemDisk,
    range: std::ops::Range<u64>,
    /// Block reads into `range` to go before one parks, whether one is
    /// parked, and whether it may go on.
    state: Mutex<(usize, bool, bool)>,
    cv: Condvar,
}

const PATIENCE: Duration = Duration::from_secs(20);

impl ParkReads {
    fn new(inner: MemDisk, range: std::ops::Range<u64>, nth: usize) -> Self {
        ParkReads {
            inner,
            range,
            state: Mutex::new((nth, false, false)),
            cv: Condvar::new(),
        }
    }

    fn wait_for_parked(&self) {
        let mut st = self.state.lock();
        while !st.1 {
            let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
            assert!(!timed_out, "no read parked");
            st = guard;
        }
    }

    fn release(&self) {
        self.state.lock().2 = true;
        self.cv.notify_all();
    }
}

impl BlockDevice for ParkReads {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        let mut st = self.state.lock();
        if buf.len() == BS && st.0 > 0 && self.range.contains(&offset) {
            st.0 -= 1;
            if st.0 == 0 {
                st.1 = true;
                self.cv.notify_all();
                while !st.2 {
                    let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
                    if timed_out {
                        return Err(DiskError::Io(format!("read at {offset}: never let go")));
                    }
                    st = guard;
                }
            }
        }
        drop(st);
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.inner.write_at(offset, buf)
    }
    fn flush(&self) -> ld_disk::Result<()> {
        self.inner.flush()
    }
}

/// Lets a parked read go when the test ends, also by a failed assertion.
struct LetGoOnDrop<'a>(&'a ParkReads);

impl Drop for LetGoOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Polls until `done`, which has to come.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        assert!(Instant::now() < deadline, "{what}: never happened");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A slot comes back when it is empty, not when the pass ends: in a
/// pass over three covered victims of two live blocks each, the first
/// slot is free again while the read of the third victim's first block
/// is still in the device. (A pass that releases its victims together
/// at its end has freed nothing by then.)
#[test]
fn cleanerd_hands_a_covered_victim_back_before_it_reads_the_next() {
    let inline = config((false, 8));
    let cap = capacity_for(&inline, 44);
    let ld = Lld::format(MemDisk::new(cap), &inline).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    for i in 0..18u8 {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        ld.write(Ctx::Simple, b, &block(i)).unwrap();
        blocks.push(b);
    }
    ld.flush().unwrap();
    // The three lowest slots keep two live blocks each; what else lived
    // there is rewritten, further on in the log.
    let slot_of = |b| ld.block_info(b).unwrap().addr.unwrap().segment.get();
    let mut kept = std::collections::BTreeMap::<u32, u32>::new();
    for (i, &b) in blocks.iter().enumerate() {
        let seen = kept.entry(slot_of(b)).or_default();
        *seen += 1;
        if *seen > 2 {
            ld.write(Ctx::Simple, b, &block(i as u8)).unwrap();
        }
    }
    let sparse: Vec<u32> = kept.keys().copied().take(3).collect();
    let live_in = |slot| blocks.iter().filter(|&&b| slot_of(b) == slot).count();
    assert!(sparse.iter().all(|&s| live_in(s) == 2), "{kept:?}");
    ld.checkpoint().unwrap();
    let image = ld.into_device().into_image();

    // Three slots fewer free than the thread wants: its first pass
    // takes the three sparsest. The fifth block it reads out of them is
    // the third victim's first (recovery reads nothing there: the
    // checkpoint covers them).
    let (probe, _) = Lld::recover_with(MemDisk::from_image(image), &inline).unwrap();
    let free = probe.free_segments();
    let (layout, _, _) = Lld::probe(probe.device()).unwrap();
    let victims = layout.segment_offset(sparse[0])..layout.segment_offset(sparse[2] + 1);
    let mut cfg = config((true, 8));
    cfg.cleaner.target_free_segments = free + 3;
    let device = ParkReads::new(probe.into_device(), victims, 5);
    let (ld, _) = Lld::recover_with(device, &cfg).unwrap();
    let _let_go = LetGoOnDrop(ld.device());
    ld.device().wait_for_parked();
    // Two slots back, less the one the relocated blocks may have taken.
    assert!(
        ld.free_segments() > free,
        "nothing released while the third victim is being read"
    );
    let stats = ld.stats();
    assert_eq!(stats.cleaner_passes, 1, "one pass took all three");
    assert_eq!(stats.checkpoints, 0, "covered victims: no checkpoint");
    ld.device().release();
    wait_until("the third victim is relocated", || {
        ld.stats().cleaner_blocks_relocated >= 6
    });
    for (i, &b) in blocks.iter().enumerate() {
        let mut buf = block(0);
        ld.read(Ctx::Simple, b, &mut buf).unwrap();
        assert_eq!(buf, block(i as u8));
    }
}

/// With a healthy thread the caller cleans nothing: a disk recovered
/// with as few slots free as `backpressure_free_segments` commits its
/// first ARU without relocating a block on the caller's thread. The
/// caller waits at the gate, the thread cleans.
#[test]
fn first_commit_after_recovery_leaves_cleaning_to_cleanerd() {
    // With no thread and asked for three free slots, the callers'
    // rounds leave the disk at the default emergency level.
    let mut tight = config((false, 8));
    tight.cleaner.target_free_segments = tight.cleaner.min_free_segments;
    let cap = capacity_for(&tight, 28);
    let ld = Lld::format(MemDisk::new(cap), &tight).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let ring = churn_ring(&ld, l, None);
    let cfg = config((true, 8));
    let at_level = cfg.cleaner.backpressure_free_segments;
    // A cut after a flush, where recovery finds that many slots free
    // (it does not count the slot of a segment that was never sealed).
    let mut cuts = (0..2000).filter_map(|i| {
        ld.write(Ctx::Simple, ring[i % ring.len()], &block(i as u8))
            .unwrap();
        if i < 200 || i % 4 != 3 {
            return None;
        }
        ld.flush().unwrap();
        let image = ld.device().snapshot();
        let (probe, _) = Lld::recover_with(MemDisk::from_image(image.clone()), &tight).unwrap();
        (probe.free_segments() == at_level).then_some(image)
    });
    let image = cuts
        .next()
        .expect("the churn never left that few slots free");
    drop(cuts);
    drop(ld);

    let (ld, _) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert_eq!(ld.free_segments(), at_level);
    let on_caller = |s: &ld_core::LldStats| s.blocks_relocated - s.cleaner_blocks_relocated;
    let before = on_caller(&ld.stats());
    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), ring[0], &block(0x77)).unwrap();
    ld.end_aru_sync(aru).unwrap();
    let stats = ld.stats();
    assert_eq!(on_caller(&stats), before, "the caller cleaned inline");
    assert!(
        stats.backpressure_stalls >= 1,
        "the caller did not wait at the gate"
    );
    wait_until("cleanerd frees a slot", || ld.free_segments() > at_level);
}

/// A device that keeps, while armed, the image a power cut would leave
/// right after each checkpoint's header is flushed: a write of the
/// header's length at the start of a checkpoint area, then a barrier.
#[derive(Debug)]
struct CheckpointCuts {
    inner: MemDisk,
    state: Mutex<Cuts>,
}

#[derive(Debug, Default)]
struct Cuts {
    /// The offsets of the two areas' headers, while armed.
    headers: Vec<u64>,
    /// A header written since the last barrier.
    header: bool,
    images: Vec<Vec<u8>>,
}

impl CheckpointCuts {
    fn arm(&self, headers: Vec<u64>) {
        self.state.lock().headers = headers;
    }

    /// Disarms the device and hands over the images it kept.
    fn take(&self) -> Vec<Vec<u8>> {
        let mut st = self.state.lock();
        st.headers.clear();
        std::mem::take(&mut st.images)
    }
}

impl BlockDevice for CheckpointCuts {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        let mut st = self.state.lock();
        self.inner.write_at(offset, buf)?;
        st.header |= buf.len() == common::CKPT_HEADER_LEN && st.headers.contains(&offset);
        Ok(())
    }
    fn flush(&self) -> ld_disk::Result<()> {
        let mut st = self.state.lock();
        self.inner.flush()?;
        if std::mem::take(&mut st.header) {
            let image = self.inner.snapshot();
            st.images.push(image);
        }
        Ok(())
    }
}

/// No checkpoint holds part of an ARU (docs/INVARIANTS.md I6). A nearly
/// full disk with no checkpoint yet, so no victim of the reserve pass
/// is covered, and one
/// ARU of 14 rewrites, whose commit rolls the log twice and finds free
/// slots below the emergency level. Cut when `end_aru` returns, and
/// right after the header of every checkpoint written meanwhile is
/// flushed: each image recovers all 14 rewrites or none.
#[test]
fn no_checkpoint_holds_part_of_an_aru() {
    each_mode(|mode| no_checkpoint_holds_part_of_an_aru_at(config(mode)));
    eprintln!("sequential");
    no_checkpoint_holds_part_of_an_aru_at(LldConfig {
        concurrency: ld_core::ConcurrencyMode::Sequential,
        ..config((false, 8))
    });
}

fn no_checkpoint_holds_part_of_an_aru_at(cfg: LldConfig) {
    let cap = capacity_for(&cfg, 28);
    let device = CheckpointCuts {
        inner: MemDisk::new(cap),
        state: Mutex::default(),
    };
    let ld = Lld::format(device, &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks: Vec<ld_core::BlockId> = Vec::new();
    while ld.free_segments() > 4 {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        ld.write(Ctx::Simple, b, &block(0xA0)).unwrap();
        blocks.push(b);
    }
    ld.flush().unwrap();
    // (`cleanerd` cleans, and checkpoints, as the disk fills.)
    if !cfg.cleaner.background {
        assert_eq!(ld.checkpoint_seq(), 0, "a victim is covered");
    }
    ld.device().arm(ld_core::CKPT_HEADER_AT.to_vec());

    let rewritten = &blocks[..14];
    let aru = ld.begin_aru().unwrap();
    for &b in rewritten {
        ld.write(Ctx::Aru(aru), b, &block(0xB1)).unwrap();
    }
    ld.end_aru(aru).unwrap();
    let mut cuts = vec![ld.device().inner.snapshot()];
    cuts.extend(ld.device().take());
    for (i, image) in cuts.into_iter().enumerate() {
        let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
        let new = (rewritten.iter())
            .filter(|&&b| {
                let mut buf = block(0);
                ld2.read(Ctx::Simple, b, &mut buf).unwrap();
                assert!(buf == block(0xA0) || buf == block(0xB1), "cut {i}");
                buf == block(0xB1)
            })
            .count();
        assert!(
            new == 0 || new == rewritten.len(),
            "cut {i}: {new} of {} rewrites recovered",
            rewritten.len()
        );
    }
}

/// A `cleanerd` round on a disk full of live data takes victims as
/// full as a segment gets and fills a slot with their blocks to free
/// one. That is not progress, and the round ends there. Counted as
/// progress (a slot freed), it went on for as long as free slots were
/// below the low watermark, a checkpoint every few passes: about 4,000
/// while one commit waited at the gate. The device: 24 slots filled
/// with live blocks with no thread until 3 are free, recovered
/// with the thread. The thread writes at most a checkpoint a round.
/// The commit itself may not fit: no checkpoint may be written inside
/// its session, and the disk is full of live data.
#[test]
fn cleanerd_writes_a_checkpoint_a_round_at_most_on_a_disk_of_live_data() {
    let inline = config((false, 8));
    let cap = capacity_for(&inline, 28);
    let ld = Lld::format(MemDisk::new(cap), &inline).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks: Vec<ld_core::BlockId> = Vec::new();
    while ld.free_segments() > 3 {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        ld.write(Ctx::Simple, b, &block(0xA0)).unwrap();
        blocks.push(b);
    }
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    let me = ld_disk::thread_tag();
    for shards in [8, 1] {
        eprintln!("shards = {shards}");
        let cfg = config((true, shards));
        let (ld, _) = Lld::recover_with(MemDisk::from_image(image.clone()), &cfg).unwrap();
        let aru = ld.begin_aru().unwrap();
        for &b in &blocks[..14] {
            ld.write(Ctx::Aru(aru), b, &block(0xB1)).unwrap();
        }
        let committed = ld.end_aru(aru);
        assert!(matches!(committed, Ok(()) | Err(LldError::DiskFull)));
        // Counted in the trace ring, which a storm overflows: its
        // rounds' wake-ups are gone by then.
        let entries = ld.obs().ring().entries();
        let on_thread = |e: &&ld_core::TraceEntry| e.tid != me;
        let rounds = (entries.iter().filter(on_thread))
            .filter(|e| matches!(e.event, ld_core::TraceEvent::CleanerWake { .. }))
            .count();
        let checkpoints = (entries.iter().filter(on_thread))
            .filter(|e| matches!(e.event, ld_core::TraceEvent::Checkpoint { .. }))
            .count();
        assert!(
            checkpoints <= rounds,
            "{checkpoints} checkpoints in {rounds} rounds"
        );
    }
}
