//! Crash-consistency of the file system: with ARUs, a crash at any point
//! leaves the file system consistent (all-or-nothing file creation and
//! deletion — no fsck needed). Without ARUs (the "old" MinixLLD), a
//! crash can strand partial meta-data, which the verifier detects.

use ld_core::{
    AruId, BlockId, Ctx, ListId, Lld, LldConfig, LogicalDisk, Position, Result as LldResult,
};
use ld_disk::{DiskModel, FaultPlan, MemDisk, SimDisk};
use ld_minixfs::{FsConfig, FsError, Ino, MinixFs};

const BS: usize = 512;

/// The map shards of a point of the mode matrix. (No log here wraps,
/// so no cleaner runs.)
type Mode = usize;

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for mode in [8, 1] {
        eprintln!("shards = {mode}");
        test(mode);
    }
}

fn ld_config(shards: Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(512),
        map_shards: shards,
        ..LldConfig::default()
    }
}

fn fs_config() -> FsConfig {
    FsConfig {
        inode_count: 64,
        ..FsConfig::default()
    }
}

type SimFs = MinixFs<Lld<SimDisk<MemDisk>>>;

fn sim_fs(mode: Mode) -> SimFs {
    let sim = SimDisk::new(MemDisk::new(8 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &ld_config(mode)).unwrap();
    MinixFs::format(ld, fs_config()).unwrap()
}

/// Cut the simulated machine's power and remount, under `cfg`, from
/// whatever the cut kept. The cut (its seed and the writes it kept) is
/// in the test's captured output.
fn crash_and_remount(fs: SimFs, cfg: &LldConfig) -> MinixFs<Lld<MemDisk>> {
    let (image, cut) = fs.into_ld().into_device().crash_image();
    eprintln!("{cut}");
    let (ld, _) =
        Lld::recover_with(MemDisk::from_image(image), cfg).unwrap_or_else(|e| panic!("{cut}: {e}"));
    MinixFs::mount(ld, FsConfig::default()).unwrap()
}

#[test]
fn flushed_files_survive_with_full_consistency() {
    each_mode(flushed_files_survive_with_full_consistency_at);
}

fn flushed_files_survive_with_full_consistency_at(mode: Mode) {
    let mut fs = sim_fs(mode);
    fs.mkdir("/d").unwrap();
    for i in 0..10 {
        let ino = fs.create(&format!("/d/f{i}")).unwrap();
        fs.write_at(ino, 0, &vec![i as u8; 700]).unwrap();
    }
    fs.flush().unwrap();
    let mut fs2 = crash_and_remount(fs, &ld_config(mode));
    let report = fs2.verify().unwrap();
    assert!(report.is_consistent(), "problems: {:?}", report.problems);
    assert_eq!(report.files, 10);
    for i in 0..10 {
        let ino = fs2.lookup(&format!("/d/f{i}")).unwrap();
        let mut buf = vec![0u8; 700];
        assert_eq!(fs2.read_at(ino, 0, &mut buf).unwrap(), 700);
        assert_eq!(buf, vec![i as u8; 700]);
    }
}

#[test]
fn unflushed_creation_vanishes_atomically() {
    each_mode(unflushed_creation_vanishes_atomically_at);
}

fn unflushed_creation_vanishes_atomically_at(mode: Mode) {
    let mut fs = sim_fs(mode);
    fs.create("/durable").unwrap();
    fs.flush().unwrap();
    // Created but never flushed: must disappear wholesale.
    fs.create("/ghost").unwrap();
    let mut fs2 = crash_and_remount(fs, &ld_config(mode));
    assert!(fs2.lookup("/durable").is_ok());
    assert!(matches!(fs2.lookup("/ghost"), Err(FsError::NotFound(_))));
    let report = fs2.verify().unwrap();
    assert!(report.is_consistent(), "problems: {:?}", report.problems);
    // The inode must have been reclaimed — creating again works.
    fs2.create("/ghost").unwrap();
}

#[test]
fn unflushed_deletion_vanishes_atomically() {
    each_mode(unflushed_deletion_vanishes_atomically_at);
}

fn unflushed_deletion_vanishes_atomically_at(mode: Mode) {
    let mut fs = sim_fs(mode);
    let ino = fs.create("/victim").unwrap();
    fs.write_at(ino, 0, &vec![9u8; 600]).unwrap();
    fs.flush().unwrap();
    fs.unlink("/victim").unwrap(); // not flushed
    let mut fs2 = crash_and_remount(fs, &ld_config(mode));
    // The deletion never became persistent: the file is intact.
    let ino2 = fs2.lookup("/victim").unwrap();
    let mut buf = vec![0u8; 600];
    assert_eq!(fs2.read_at(ino2, 0, &mut buf).unwrap(), 600);
    assert_eq!(buf, vec![9u8; 600]);
    let report = fs2.verify().unwrap();
    assert!(report.is_consistent(), "problems: {:?}", report.problems);
}

#[test]
fn consistency_at_every_crash_point_with_arus() {
    each_mode(consistency_at_every_crash_point_with_arus_at);
}

fn consistency_at_every_crash_point_with_arus_at(mode: Mode) {
    // Sweep crash points through a create/write/delete workload; after
    // every crash the file system must verify clean, and every file
    // must be either fully present (correct size and content) or
    // completely absent. The points are 5,000 bytes apart: the workload
    // writes ≈ 24–29 KB, so the sweep tests five.
    let mut crash_at = 4000u64;
    let mut tested = 0;
    let mut in_slot_seals = 0;
    // `CRASH_SEED=<crash point>` runs one cut alone.
    let one = std::env::var("CRASH_SEED").map(|s| s.parse().expect("CRASH_SEED is a number"));
    loop {
        if let Ok(seed) = one {
            crash_at = seed;
        }
        let mut fs = sim_fs(mode);
        fs.ld()
            .device()
            .set_faults(FaultPlan::new().crash_after_bytes(crash_at));
        let mut created: Vec<String> = Vec::new();
        let result = (|| -> Result<(), FsError> {
            fs.mkdir("/w")?;
            for i in 0..12 {
                let path = format!("/w/f{i}");
                let ino = fs.create(&path)?;
                fs.write_at(ino, 0, &vec![i as u8 + 1; 900])?;
                created.push(path);
                if i % 3 == 2 {
                    fs.flush()?;
                }
            }
            for i in 0..6 {
                fs.unlink(&format!("/w/f{i}"))?;
                if i % 2 == 1 {
                    fs.flush()?;
                }
            }
            Ok(())
        })();
        let crashed = result.is_err();
        // Seals that took no new slot since format (one slot in use):
        // the next segment started behind them. The log never wraps.
        let ld = fs.ld();
        in_slot_seals +=
            ld.stats().segments_sealed - u64::from(ld.n_segments() - ld.free_segments() - 1);

        let mut fs2 = crash_and_remount(fs, &ld_config(mode));
        let report = fs2.verify().unwrap();
        assert!(
            report.is_consistent(),
            "CRASH_SEED={crash_at}: {:?}",
            report.problems
        );
        // All-or-nothing per file's *meta-data* (the ARU covers
        // creation; data writes are separate simple operations, as in
        // the paper). A present file may have any persisted prefix of
        // its data, but never garbage: content[0..size] must match.
        for (i, path) in created.iter().enumerate() {
            match fs2.lookup(path) {
                Ok(ino) => {
                    let st = fs2.stat(ino).unwrap();
                    assert!(st.size <= 900, "CRASH_SEED={crash_at}: {path} oversized");
                    let mut buf = vec![0u8; st.size as usize];
                    assert_eq!(fs2.read_at(ino, 0, &mut buf).unwrap(), st.size as usize);
                    assert_eq!(
                        buf,
                        vec![i as u8 + 1; st.size as usize],
                        "CRASH_SEED={crash_at}: {path} has garbage content"
                    );
                }
                Err(FsError::NotFound(_)) => {}
                Err(e) => panic!("CRASH_SEED={crash_at}: {path}: {e}"),
            }
        }
        tested += 1;
        if !crashed || one.is_ok() {
            break; // crash point beyond the workload: done sweeping
        }
        crash_at += 5000;
    }
    assert!(tested >= 5, "sweep covered only {tested} crash points");
    assert!(in_slot_seals > 0, "every seal took a slot");
}

#[test]
fn old_minixlld_can_be_left_inconsistent() {
    each_mode(old_minixlld_can_be_left_inconsistent_at);
}

fn old_minixlld_can_be_left_inconsistent_at(mode: Mode) {
    // Without ARUs, metadata updates are individual operations; a crash
    // between them strands partial state. We crash between the inode
    // write and the directory update by flushing only the first half of
    // a creation. (This is engineered, but it is exactly the window the
    // paper's fsck discussion is about.)
    let sim = SimDisk::new(MemDisk::new(8 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &ld_config(mode)).unwrap();
    let mut fs = MinixFs::format(
        ld,
        FsConfig {
            use_arus: false,
            inode_count: 64,
            ..FsConfig::default()
        },
    )
    .unwrap();
    fs.create("/ok").unwrap();
    fs.flush().unwrap();

    // Start a creation and crash partway: with use_arus=false the
    // individual simple operations become persistent one by one, so we
    // let a few reach the disk and cut power mid-stream.
    let device_written = fs.ld().device().stats().snapshot().bytes_written;
    let _ = device_written;
    fs.ld()
        .device()
        .set_faults(FaultPlan::new().crash_after_bytes(2 * BS as u64));
    let _ = fs.create("/partial"); // may or may not error, depending on buffering
    let _ = fs.flush(); // pushes whatever fits before the crash point

    let (image, cut) = fs.into_ld().into_device().crash_image();
    eprintln!("{cut}");
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &ld_config(mode)).unwrap();
    let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
    // The file system still mounts (the logical disk itself is always
    // consistent) — but the tree may be inconsistent. We do not assert
    // inconsistency (the crash point may fall between files), only that
    // the verifier runs and the flushed file is intact.
    let _report = fs2.verify().unwrap();
    assert!(fs2.lookup("/ok").is_ok());
}

#[test]
fn consistency_with_sequential_old_lld_and_arus() {
    each_mode(consistency_with_sequential_old_lld_and_arus_at);
}

fn consistency_with_sequential_old_lld_and_arus_at(mode: Mode) {
    // The "old" LLD (sequential ARUs) + ARU-bracketing FS: crash
    // atomicity still holds, demonstrating that the old prototype's
    // single-ARU support is sound.
    let sim = SimDisk::new(MemDisk::new(8 << 20), DiskModel::hp_c3010());
    let cfg = LldConfig {
        concurrency: ld_core::ConcurrencyMode::Sequential,
        ..ld_config(mode)
    };
    let ld = Lld::format(sim, &cfg).unwrap();
    let mut fs = MinixFs::format(ld, fs_config()).unwrap();
    let ino = fs.create("/seq").unwrap();
    fs.write_at(ino, 0, b"sequential").unwrap();
    fs.flush().unwrap();
    fs.create("/never-flushed").unwrap();
    let mut fs2 = crash_and_remount(fs, &cfg);
    assert!(fs2.lookup("/seq").is_ok());
    assert!(matches!(
        fs2.lookup("/never-flushed"),
        Err(FsError::NotFound(_))
    ));
    let report = fs2.verify().unwrap();
    assert!(report.is_consistent(), "problems: {:?}", report.problems);
}

/// A logical disk that flushes after every operation, so that a power
/// cut can fall between any two of them and not only between the file
/// system's flushes.
struct FlushEach<L>(L);

impl<L: LogicalDisk> FlushEach<L> {
    fn flushed<T>(&self, r: LldResult<T>) -> LldResult<T> {
        let v = r?;
        self.0.flush()?;
        Ok(v)
    }
}

impl<L: LogicalDisk> LogicalDisk for FlushEach<L> {
    fn begin_aru(&self) -> LldResult<AruId> {
        self.0.begin_aru()
    }
    fn end_aru(&self, aru: AruId) -> LldResult<()> {
        self.flushed(self.0.end_aru(aru))
    }
    fn abort_aru(&self, aru: AruId) -> LldResult<()> {
        self.0.abort_aru(aru)
    }
    fn new_list(&self, ctx: Ctx) -> LldResult<ListId> {
        self.flushed(self.0.new_list(ctx))
    }
    fn delete_list(&self, ctx: Ctx, list: ListId) -> LldResult<()> {
        self.flushed(self.0.delete_list(ctx, list))
    }
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> LldResult<BlockId> {
        self.flushed(self.0.new_block(ctx, list, pos))
    }
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> LldResult<()> {
        self.flushed(self.0.delete_block(ctx, block))
    }
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> LldResult<()> {
        self.flushed(self.0.write(ctx, block, data))
    }
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> LldResult<()> {
        self.0.read(ctx, block, buf)
    }
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> LldResult<Vec<BlockId>> {
        self.0.list_blocks(ctx, list)
    }
    fn flush(&self) -> LldResult<()> {
        self.0.flush()
    }
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
}

/// Per inode-table block: its bit in the superblock (set: it may hold
/// a free inode) and whether it holds a free inode, read from the
/// table. The superblock's layout is the crate's "On-disk format".
fn bits_and_free<L: LogicalDisk>(fs: &mut MinixFs<L>) -> Vec<(bool, bool)> {
    let mut sb = vec![0u8; BS];
    let ld = fs.ld();
    let sb_block = ld.list_blocks(Ctx::Simple, ListId::new(1)).unwrap()[0];
    ld.read(Ctx::Simple, sb_block, &mut sb).unwrap();
    let per_block = (BS / 32) as u32;
    let blocks = fs_config().inode_count / per_block;
    assert_eq!(u32::from_le_bytes(sb[24..28].try_into().unwrap()), blocks);
    (0..blocks)
        .map(|bi| {
            let bit = sb[28 + bi as usize / 8] & (1 << (bi % 8)) != 0;
            let free = (bi * per_block + 1..=(bi + 1) * per_block)
                .any(|raw| matches!(fs.stat(Ino::new(raw)), Err(FsError::BadInode(_))));
            (bit, free)
        })
        .collect()
}

#[test]
fn the_free_inode_bits_survive_every_crash_point() {
    each_mode(|mode| {
        the_free_inode_bits_survive_every_crash_point_at(mode, true);
        the_free_inode_bits_survive_every_crash_point_at(mode, false);
    });
}

/// Sweeps a power cut, one device write at a time, across the two
/// operations that flip a bit of the superblock: the create that takes
/// inode-table block 0's last free inode (the bit clears, written after
/// the inode) and the unlink that frees a slot in it again (the bit
/// sets, written before the inode is freed). Every logical-disk
/// operation is flushed on its own, so a cut can fall between any two.
/// With ARUs the tree verifies clean and the bits equal the table at
/// every cut; without them no clear bit covers a free inode, and the
/// only stale bit is a set one over a full block.
fn the_free_inode_bits_survive_every_crash_point_at(mode: Mode, use_arus: bool) {
    eprintln!("use_arus = {use_arus}");
    let fs_cfg = FsConfig {
        use_arus,
        ..fs_config()
    };
    let (mut cut_at, mut stale, mut block_0_full) = (0u64, 0, 0);
    loop {
        let sim = SimDisk::new(MemDisk::new(8 << 20), DiskModel::hp_c3010());
        let ld = FlushEach(Lld::format(sim, &ld_config(mode)).unwrap());
        let mut fs = MinixFs::format(ld, fs_cfg).unwrap();
        // The root and 14 files leave block 0 (inodes 1..=16) one slot.
        for i in 0..14 {
            fs.create(&format!("/f{i}")).unwrap();
        }
        fs.flush().unwrap();
        fs.ld()
            .0
            .device()
            .set_faults(FaultPlan::new().crash_after_bytes(cut_at));
        let done = fs.create("/last").is_ok() && fs.unlink("/f0").is_ok() && fs.flush().is_ok();
        let (image, cut) = fs.into_ld().0.into_device().crash_image();
        let at = format!("use_arus {use_arus}, {cut}");
        let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &ld_config(mode))
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
        let report = fs2.verify().unwrap();
        let blocks = bits_and_free(&mut fs2);
        assert!(
            blocks.iter().all(|&(bit, free)| bit || !free),
            "{at}: a clear bit covers a free inode: {blocks:?}"
        );
        if use_arus {
            assert!(report.is_consistent(), "{at}: {:?}", report.problems);
            assert!(
                blocks.iter().all(|&(bit, free)| bit == free),
                "{at}: the bits differ from the table: {blocks:?}"
            );
        } else {
            assert!(
                !report.problems.iter().any(|p| p.contains("marked full")),
                "{at}: {:?}",
                report.problems
            );
        }
        stale += blocks.iter().filter(|&&(bit, free)| bit && !free).count();
        block_0_full += !blocks[0].1 as usize;
        if done {
            break;
        }
        cut_at += 128;
    }
    eprintln!(
        "{} cuts, {stale} stale bits, block 0 full at {block_0_full}",
        cut_at / 128 + 1
    );
    assert!(
        block_0_full > 0,
        "no cut kept the create and not the unlink"
    );
    // Without ARUs the sweep must reach the windows the write order
    // exists for: the inode written and the bit not yet cleared, or
    // the bit set and the inode not yet freed.
    assert_eq!(stale > 0, !use_arus, "{stale} stale bits at the cuts");
}
