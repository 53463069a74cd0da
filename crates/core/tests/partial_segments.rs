//! A flush seals what the open segment holds and the next segment
//! starts behind it in the same slot: how slots fill, where reads of
//! the open slot are served from, and the checkpoint that bounds the
//! log suffix now that a wrapping log no longer does.

use ld_core::{
    CleanerConfig, ConcurrencyMode, Ctx, Lld, LldConfig, Position, SegField, SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC,
};
use ld_disk::{BlockDevice, MemDisk, SmallRng};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

const BS: usize = 512;
/// Blocks per segment slot.
const BPS: usize = 16;

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

fn config((cleanerd, shards): Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: BPS * BS,
        max_blocks: Some(512),
        max_lists: Some(64),
        map_shards: shards,
        cleaner: CleanerConfig {
            background: cleanerd,
            ..CleanerConfig::default()
        },
        ..LldConfig::default()
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// Capacity of a device with exactly `slots` segment slots.
fn device_bytes(slots: u64) -> u64 {
    let layout = ld_core::Layout::compute(1 << 20, &config(MODES[0])).unwrap();
    layout.data_start + slots * (BPS * BS) as u64
}

fn slots_in_use(ld: &Lld<MemDisk>) -> u32 {
    ld.n_segments() - ld.free_segments()
}

/// Ten flushes of two blocks each: a segment is a header, two data
/// blocks and a block of summary, so four fill a slot and the ten take
/// three slots — not ten.
#[test]
fn flushes_fill_slots_before_taking_new_ones() {
    each_mode(flushes_fill_slots_before_taking_new_ones_at);
}

fn flushes_fill_slots_before_taking_new_ones_at(mode: Mode) {
    let ld = Lld::format(MemDisk::new(device_bytes(32)), &config(mode)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let b1 = ld.new_block(Ctx::Simple, l, Position::After(b0)).unwrap();
    for byte in 1..=10u8 {
        let aru = ld.begin_aru().unwrap();
        ld.write(Ctx::Aru(aru), b0, &block(byte)).unwrap();
        ld.write(Ctx::Aru(aru), b1, &block(byte)).unwrap();
        ld.end_aru_sync(aru).unwrap();
    }
    assert_eq!(ld.stats().segments_sealed, 10);
    assert_eq!(slots_in_use(&ld), 10u32.div_ceil(4));
    // The last overwrite sits at blocks 3 and 4 of the third slot,
    // behind the first segment's two and its trailer (sectors, counted
    // from the slot's start, on 512-byte blocks).
    let addr = ld.block_info(b1).unwrap().addr.unwrap();
    assert_eq!((addr.segment.get(), addr.sector, addr.sectors), (2, 4, 1));

    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    assert_eq!(report.segments_replayed, 10);
    assert_eq!(slots_in_use(&ld2), 3);
    let mut buf = block(0);
    for b in [b0, b1] {
        ld2.read(Ctx::Simple, b, &mut buf).unwrap();
        assert_eq!(buf, block(10));
    }
}

/// The open slot holds sealed segments in front of the open one. A
/// block in one of those is read from the cache or the device like any
/// other sealed block; only the open segment's own blocks come from its
/// buffer.
#[test]
fn sealed_blocks_of_the_open_slot_are_not_read_from_the_builder() {
    each_mode(sealed_blocks_of_the_open_slot_are_not_read_from_the_builder_at);
}

fn sealed_blocks_of_the_open_slot_are_not_read_from_the_builder_at(mode: Mode) {
    for read_cache_blocks in [64, 0] {
        let cfg = LldConfig {
            read_cache_blocks,
            ..config(mode)
        };
        let ld = Lld::format(MemDisk::new(device_bytes(32)), &cfg).unwrap();
        let l = ld.new_list(Ctx::Simple).unwrap();
        let sealed = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
        let open = ld
            .new_block(Ctx::Simple, l, Position::After(sealed))
            .unwrap();
        ld.write(Ctx::Simple, sealed, &block(0x5E)).unwrap();
        ld.flush().unwrap();
        ld.write(Ctx::Simple, open, &block(0x09)).unwrap();
        let at = |b| ld.block_info(b).unwrap().addr.unwrap();
        assert_eq!(at(sealed).segment, at(open).segment, "one slot");
        assert!(at(sealed).sector < at(open).sector);

        let lookups = || {
            let s = ld.stats();
            (s.cache_hits + s.cache_misses, s.cache_misses)
        };
        let mut buf = block(0);
        let before = lookups();
        ld.read(Ctx::Simple, open, &mut buf).unwrap();
        assert_eq!(buf, block(0x09));
        assert_eq!(lookups(), before, "the open segment's block: no lookup");
        ld.read(Ctx::Simple, sealed, &mut buf).unwrap();
        assert_eq!(buf, block(0x5E));
        let after = lookups();
        assert_eq!(after.0, before.0 + 1, "the sealed block: one lookup");
        if read_cache_blocks == 0 {
            assert_eq!(after.1, before.1 + 1, "and, uncached, a device read");
        }
    }
}

/// Sync commits on a device far too large for them to wrap the log: no
/// cleaner pass ever runs, so no cleaner writes a checkpoint. The seal
/// that makes the suffix `n_segments` long asks for one, and a restart
/// never replays more links than that.
///
/// Without `cleanerd` the operation whose seal asked writes the
/// checkpoint before it returns, so the bound holds after every commit.
/// With it the operation hands the checkpoint to the thread and returns:
/// what holds after every commit is the bound's hard edge, twice
/// `n_segments`, where a seal writes the checkpoint itself; and the
/// handed-off checkpoint lands soon after.
#[test]
fn suffix_bound_checkpoints_a_log_that_never_wraps() {
    each_mode(suffix_bound_checkpoints_a_log_that_never_wraps_at);
}

fn suffix_bound_checkpoints_a_log_that_never_wraps_at(mode: Mode) {
    let (cleanerd, _) = mode;
    let ld = Lld::format(MemDisk::new(device_bytes(64)), &config(mode)).unwrap();
    let n = u64::from(ld.n_segments());
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let bound = if cleanerd { 2 * n } else { n };
    let within_bound = |when: &str| {
        // The checkpoint first: the thread's may seal between the reads.
        let covered = ld.checkpoint_seq();
        let sealed = ld.stats().segments_sealed;
        assert!(
            sealed - covered <= bound,
            "{when}: {sealed} sealed, checkpoint at {covered}"
        );
    };
    let checkpoints_land = |count: u64| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while cleanerd && ld.stats().checkpoints < count && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = ld.stats();
        assert_eq!(stats.checkpoints, count);
        assert_eq!(stats.checkpoint_failures, 0);
        let handed_off = if cleanerd { count } else { 0 };
        assert_eq!(stats.checkpoints_handed_off, handed_off);
    };
    // Three blocks a commit, five commits a slot: 125 commits take 25
    // of the 64 slots, and the 64th seal is due a checkpoint. The flush
    // leader's seal runs in a scoped session.
    for i in 0..125u32 {
        let aru = ld.begin_aru().unwrap();
        ld.write(Ctx::Aru(aru), b, &block(i as u8)).unwrap();
        ld.end_aru_sync(aru).unwrap();
        within_bound("sync commit");
        // Before the next commit seals again: the thread's checkpoint
        // then covers what the inline one does.
        checkpoints_land(u64::from(ld.stats().segments_sealed >= n));
    }
    assert_eq!(ld.checkpoint_seq(), n);

    // Lazy commits now, each with a deletion in its log, which commits
    // in a full session: the seals come from slots running full inside
    // those, and the 128th is due the next checkpoint.
    let mut last = b;
    for i in 0..60u32 {
        let aru = ld.begin_aru().unwrap();
        let nb = ld
            .new_block(Ctx::Aru(aru), l, Position::After(last))
            .unwrap();
        ld.write(Ctx::Aru(aru), nb, &block(i as u8)).unwrap();
        ld.delete_block(Ctx::Aru(aru), last).unwrap();
        ld.end_aru(aru).unwrap();
        last = nb;
        within_bound("lazy commit");
    }
    let stats = ld.stats();
    assert!(stats.commit_full_fallbacks >= 60);
    assert!(
        stats.segments_sealed >= 2 * n,
        "the second phase sealed too"
    );
    checkpoints_land(2);
    assert_eq!(stats.cleaner_runs, 0, "the log never came near wrapping");
    assert!(slots_in_use(&ld) <= 32);
    ld.flush().unwrap();
    let covered = ld.checkpoint_seq();

    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    assert_eq!(report.checkpoint_seq, covered);
    assert!(
        u64::from(report.segments_replayed) <= n,
        "{} links replayed",
        report.segments_replayed
    );
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![last]);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, last, &mut buf).unwrap();
    assert_eq!(buf, block(59));
}

/// Overwrite churn on a device of 32 slots holding `live` blocks, a
/// flush every fourth commit, with no cleaner thread. Returns the
/// cleaning passes, and the commits (each with its flush, if any)
/// during which a round of them ran on the caller's thread: one at
/// most, since a round ends at `target_free_segments` or at a pass that
/// gains no room, and the next starts only below `min_free_segments`.
fn churn_counting_rounds(live: usize, commits: usize) -> (u64, u64) {
    let ld = Lld::format(MemDisk::new(device_bytes(32)), &config(MODES[0])).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    for _ in 0..live {
        let pos = blocks
            .last()
            .map_or(Position::First, |&p| Position::After(p));
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        ld.write(Ctx::Simple, b, &block(0xEE)).unwrap();
        blocks.push(b);
    }
    ld.flush().unwrap();
    let mut rounds = 0;
    for i in 0..commits {
        let before = ld.stats().cleaner_passes;
        let aru = ld.begin_aru().unwrap();
        for k in 0..2 {
            let b = blocks[(7 * i + 3 * k) % live];
            ld.write(Ctx::Aru(aru), b, &block(i as u8)).unwrap();
        }
        ld.end_aru(aru).unwrap();
        if i % 4 == 3 {
            ld.flush().unwrap();
        }
        rounds += u64::from(ld.stats().cleaner_passes > before);
    }
    (ld.stats().cleaner_passes, rounds)
}

/// Rounds stay well under one a flush on a disk nearly full of live
/// data. The inline pass once ran on every roll there, 102 times in
/// 100 flushes (C2), and while a flush asked for it a slot early it
/// needed a rule not to be asked at every flush (at most 60 passes; 44
/// measured, which relocated 22,004 blocks). A round is bounded by what
/// it gains: 20 rounds of 156 one-victim passes, 1,625 blocks.
#[test]
fn a_nearly_full_disk_runs_a_bounded_number_of_rounds() {
    let (passes, rounds) = churn_counting_rounds(328, 400);
    assert!(passes >= 10, "{passes} passes: the log wrapped");
    assert!(
        rounds <= 60,
        "{rounds} rounds of {passes} passes in the 100 flushes' commits"
    );
}

/// A device that adds up the `summary_len` of every segment header
/// written to it: a seal's header ends its meta record, its second
/// write.
struct SummaryTally {
    inner: MemDisk,
    bytes: AtomicU64,
}

impl BlockDevice for SummaryTally {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        let header = &buf[buf.len().saturating_sub(SEGMENT_HEADER_LEN)..];
        if header.len() == SEGMENT_HEADER_LEN && SegField::Magic.get(header) == SEGMENT_MAGIC {
            let len = SegField::SummaryLen.get(header);
            assert_eq!(buf.len() as u64, len + SEGMENT_HEADER_LEN as u64);
            self.bytes.fetch_add(len, Relaxed);
        }
        self.inner.write_at(offset, buf)
    }
    fn flush(&self) -> ld_disk::Result<()> {
        self.inner.flush()
    }
}

/// `LldStats::summary_bytes` counts the bytes the records encoded to,
/// so after a flush it is what the sealed headers say their summaries
/// hold — over a seeded history of simple and ARU writes (absorbed and
/// appended, all-zero and not), allocations, deletions, tagged commits,
/// checkpoints and the inline cleaner's relocations.
#[test]
fn summary_bytes_are_what_the_seals_hold() {
    let cfg = config((false, 8));
    let device = SummaryTally {
        inner: MemDisk::new(device_bytes(24)),
        bytes: AtomicU64::new(0),
    };
    let ld = Lld::format(device, &cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5EED_0009);
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut live = Vec::new();
    let mut write_id = 0;
    let content = |rng: &mut SmallRng| block([0, 1 + rng.gen_index(255) as u8][rng.gen_index(2)]);
    for _ in 0..3000 {
        let r = rng.gen_index(100);
        if r < 30 && !live.is_empty() {
            let b = live[rng.gen_index(live.len())];
            ld.write(Ctx::Simple, b, &content(&mut rng)).unwrap();
        } else if r < 45 && live.len() < 150 {
            let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
            live.push(b);
        } else if r < 55 && live.len() > 8 {
            let b = live.swap_remove(rng.gen_index(live.len()));
            ld.delete_block(Ctx::Simple, b).unwrap();
        } else if r < 80 && !live.is_empty() {
            let aru = ld.begin_aru().unwrap();
            for _ in 0..1 + rng.gen_index(3) {
                let b = live[rng.gen_index(live.len())];
                ld.write(Ctx::Aru(aru), b, &content(&mut rng)).unwrap();
            }
            if rng.gen_bool(0.3) {
                write_id += 1;
                ld.end_aru_tagged(aru, 7, 1, write_id).unwrap();
            } else {
                ld.end_aru(aru).unwrap();
            }
        } else if r < 97 {
            ld.flush().unwrap();
        } else {
            ld.checkpoint().unwrap();
        }
    }
    ld.flush().unwrap();
    let stats = ld.stats();
    assert!(
        stats.blocks_absorbed > 0 && stats.blocks_relocated > 0,
        "{stats:?}"
    );
    assert_eq!(stats.summary_bytes, ld.device().bytes.load(Relaxed));
}

/// A disk of 4 KiB blocks, where a block's extent is one to eight
/// sectors.
fn config_4k(mode: Mode, concurrency: ConcurrencyMode) -> LldConfig {
    LldConfig {
        block_size: 4096,
        segment_bytes: 16 * 4096,
        max_blocks: Some(64),
        max_lists: Some(8),
        concurrency,
        ..config(mode)
    }
}

/// A 4 KiB block of `sectors` sectors of `byte`, zeros behind them.
fn short(byte: u8, sectors: usize) -> Vec<u8> {
    let mut b = vec![0u8; 4096];
    b[..sectors * 512].fill(byte);
    b
}

/// X written with a one-sector extent into the open segment, and Y
/// allocated beside it.
fn grow_disk(cfg: &LldConfig) -> (Lld<MemDisk>, ld_core::BlockId, ld_core::BlockId) {
    let ld = Lld::format(MemDisk::new(1 << 22), cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let x = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let y = ld.new_block(Ctx::Simple, l, Position::After(x)).unwrap();
    assert!(x < y, "a unit places its blocks by identifier");
    ld.write(Ctx::Simple, x, &short(1, 1)).unwrap();
    (ld, x, y)
}

/// Recovers the image of `ld` and reads `blocks` back.
fn recovered(ld: Lld<MemDisk>, cfg: &LldConfig, blocks: &[ld_core::BlockId]) -> Vec<Vec<u8>> {
    let image = ld.into_device().into_image();
    let (ld, _) = Lld::recover_with(MemDisk::from_image(image), cfg).unwrap();
    (blocks.iter())
        .map(|&b| {
            let mut buf = vec![0xEEu8; 4096];
            ld.read(Ctx::Simple, b, &mut buf).unwrap();
            buf
        })
        .collect()
}

/// docs/INVARIANTS.md I5 for sector runs: X grows from one sector to
/// two in the open segment, and the sector its first version took is
/// free for the next extent. Y, one sector, takes it: the seal writes
/// three sectors of data, not four.
#[test]
fn a_version_superseded_in_the_open_segment_frees_its_sectors() {
    each_mode(a_version_superseded_in_the_open_segment_frees_its_sectors_at);
}

fn a_version_superseded_in_the_open_segment_frees_its_sectors_at(mode: Mode) {
    let cfg = config_4k(mode, ConcurrencyMode::Concurrent);
    let (ld, x, y) = grow_disk(&cfg);
    let first = ld.block_info(x).unwrap().addr.unwrap();
    ld.write(Ctx::Simple, x, &short(2, 2)).unwrap();
    ld.write(Ctx::Simple, y, &short(3, 1)).unwrap();
    let at = ld.block_info(y).unwrap().addr.unwrap();
    assert_eq!(
        (at.segment, at.sector, at.sectors),
        (first.segment, first.sector, 1)
    );
    ld.flush().unwrap();
    let stats = ld.stats();
    assert_eq!(stats.data_bytes_written, 3 * 512);
    assert_eq!(stats.sectors_reused, 1);
    let mut buf = vec![0u8; 4096];
    ld.read(Ctx::Simple, y, &mut buf).unwrap();
    assert_eq!(buf, short(3, 1));
    assert_eq!(recovered(ld, &cfg, &[x, y]), [short(2, 2), short(3, 1)]);
}

/// The same inside one Concurrent unit that commits in the open
/// segment: X's growing write frees the sector, and Y, of the same
/// unit, takes it.
#[test]
fn a_unit_fills_the_sectors_its_own_write_freed() {
    each_mode(a_unit_fills_the_sectors_its_own_write_freed_at);
}

fn a_unit_fills_the_sectors_its_own_write_freed_at(mode: Mode) {
    let cfg = config_4k(mode, ConcurrencyMode::Concurrent);
    let (ld, x, y) = grow_disk(&cfg);
    let first = ld.block_info(x).unwrap().addr.unwrap();
    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), x, &short(2, 2)).unwrap();
    ld.write(Ctx::Aru(aru), y, &short(3, 1)).unwrap();
    ld.end_aru(aru).unwrap();
    let at = ld.block_info(y).unwrap().addr.unwrap();
    assert_eq!((at.segment, at.sector), (first.segment, first.sector));
    ld.flush().unwrap();
    assert_eq!(ld.stats().data_bytes_written, 3 * 512);
    assert_eq!(recovered(ld, &cfg, &[x, y]), [short(2, 2), short(3, 1)]);
}

/// In `Sequential` mode the ARU's write is tagged, and its commit
/// record may come after the seal: the version it supersedes is the
/// one a crash before `end_aru` brings back, so its sector is not
/// freed, and a simple write behind it appends.
#[test]
fn a_sequential_unit_frees_no_sectors_before_its_commit() {
    let cfg = config_4k((false, 8), ConcurrencyMode::Sequential);
    let (ld, x, y) = grow_disk(&cfg);
    let first = ld.block_info(x).unwrap().addr.unwrap();
    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), x, &short(2, 2)).unwrap();
    ld.write(Ctx::Simple, y, &short(3, 1)).unwrap();
    let y_at = ld.block_info(y).unwrap().addr.unwrap();
    ld.flush().unwrap();
    let stats = ld.stats();
    // Cut before `end_aru`.
    assert_eq!(recovered(ld, &cfg, &[x, y]), [short(1, 1), short(3, 1)]);
    assert_ne!(y_at.sector, first.sector);
    assert_eq!(
        (stats.data_bytes_written, stats.sectors_reused),
        (4 * 512, 0)
    );
}

/// A simple write that supersedes a `Sequential` ARU's tagged version
/// frees nothing either: replay applies the ARU's record at its commit,
/// after the simple one, so the tagged version's sectors must keep it.
#[test]
fn a_tagged_version_pending_its_commit_keeps_its_sectors() {
    let cfg = config_4k((false, 8), ConcurrencyMode::Sequential);
    let (ld, x, y) = grow_disk(&cfg);
    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), x, &short(2, 1)).unwrap();
    let tagged = ld.block_info(x).unwrap().addr.unwrap();
    ld.write(Ctx::Simple, x, &short(4, 2)).unwrap();
    ld.write(Ctx::Simple, y, &short(3, 1)).unwrap();
    let y_at = ld.block_info(y).unwrap().addr.unwrap();
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();
    let reused = ld.stats().sectors_reused;
    // Replay ends on the ARU's version (its records apply at its commit
    // record, docs/INVARIANTS.md I1 "Not reached"), intact.
    assert_eq!(recovered(ld, &cfg, &[x, y]), [short(2, 1), short(3, 1)]);
    assert_ne!(y_at.sector, tagged.sector);
    assert_eq!(reused, 0);
}
