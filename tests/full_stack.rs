//! Whole-stack integration: simulated disk → logical disk → file system
//! → workloads, across crash/recovery cycles.

use ld_aru::core::{ConcurrencyMode, Lld, LldConfig};
use ld_aru::disk::{DiskModel, MemDisk, SimDisk};
use ld_aru::minixfs::{DeletePolicy, FsConfig, MinixFs};
use ld_aru::workload::{
    AruLatencyWorkload, LargeFilePhase, LargeFileWorkload, MixedWorkload, SmallFileWorkload,
};

fn ld_config() -> LldConfig {
    LldConfig {
        block_size: 4096,
        segment_bytes: 64 * 1024,
        ..LldConfig::default()
    }
}

fn fs_config() -> FsConfig {
    FsConfig {
        inode_count: 512,
        ..FsConfig::default()
    }
}

type SimFs = MinixFs<Lld<SimDisk<MemDisk>>>;

fn build(capacity: u64, lc: &LldConfig, fc: FsConfig) -> SimFs {
    let sim = SimDisk::new(MemDisk::new(capacity), DiskModel::hp_c3010());
    let ld = Lld::format(sim, lc).unwrap();
    MinixFs::format(ld, fc).unwrap()
}

fn crash_remount(fs: SimFs) -> SimFs {
    let image = fs.into_ld().into_device().into_inner().into_image();
    let sim = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
    let (ld, _) = Lld::recover(sim).unwrap();
    MinixFs::mount(ld, FsConfig::default()).unwrap()
}

#[test]
fn small_file_workload_survives_crash_between_phases() {
    let wl = SmallFileWorkload::tiny(60, 2000);
    let mut fs = build(64 << 20, &ld_config(), fs_config());
    wl.create_and_write(&mut fs).unwrap();
    // create_and_write flushes, so a crash here must preserve all files.
    let mut fs = crash_remount(fs);
    wl.read_all(&mut fs).unwrap();
    wl.delete_all(&mut fs).unwrap();
    let mut fs = crash_remount(fs);
    assert!(fs.verify().unwrap().is_consistent());
    assert_eq!(fs.readdir("/").unwrap(), Vec::new());
}

#[test]
fn large_file_workload_survives_crash() {
    let wl = LargeFileWorkload::tiny(400_000, 4096);
    let mut fs = build(64 << 20, &ld_config(), fs_config());
    let ino = wl.setup(&mut fs).unwrap();
    wl.run_phase(&mut fs, ino, LargeFilePhase::Write1).unwrap();
    wl.run_phase(&mut fs, ino, LargeFilePhase::Write2).unwrap();
    let mut fs = crash_remount(fs);
    // Both write phases flushed; the random-order rewrite must verify.
    wl.run_phase(&mut fs, ino, LargeFilePhase::Read2).unwrap();
    wl.run_phase(&mut fs, ino, LargeFilePhase::Read3).unwrap();
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn mixed_workload_with_cleaner_pressure_and_recovery() {
    let wl = MixedWorkload {
        population: 24,
        ops: 1200,
        max_file_size: 12_000,
        seed: 20260705,
    };
    // Small disk: the cleaner will have to work (a file's last block
    // is stored up to its last non-zero sector, so 8 MiB no longer
    // fills).
    let mut fs = build(4 << 20, &ld_config(), fs_config());
    wl.run(&mut fs).unwrap();
    let cleaner_runs = fs.ld().stats().cleaner_runs;
    fs.flush().unwrap();
    let expected: Vec<(String, u64)> = {
        let mut v = Vec::new();
        for e in fs.readdir("/").unwrap() {
            let st = fs.stat(e.ino).unwrap();
            v.push((e.name, st.size));
        }
        v.sort();
        v
    };
    let mut fs = crash_remount(fs);
    assert!(fs.verify().unwrap().is_consistent());
    let mut actual: Vec<(String, u64)> = fs
        .readdir("/")
        .unwrap()
        .into_iter()
        .map(|e| {
            let size = fs.stat(e.ino).unwrap().size;
            (e.name, size)
        })
        .collect();
    actual.sort();
    assert_eq!(expected, actual);
    // The workload was sized to wrap the log.
    assert!(cleaner_runs > 0, "cleaner never ran; enlarge the workload");
}

#[test]
fn all_three_table1_versions_run_the_same_workload() {
    let wl = SmallFileWorkload::tiny(40, 3000);
    for (conc, use_arus, policy) in [
        (ConcurrencyMode::Sequential, false, DeletePolicy::PerBlock),
        (ConcurrencyMode::Concurrent, true, DeletePolicy::PerBlock),
        (ConcurrencyMode::Concurrent, true, DeletePolicy::WholeList),
    ] {
        let lc = LldConfig {
            concurrency: conc,
            ..ld_config()
        };
        let fc = FsConfig {
            use_arus,
            delete_policy: policy,
            ..fs_config()
        };
        let mut fs = build(64 << 20, &lc, fc);
        wl.create_and_write(&mut fs).unwrap();
        wl.read_all(&mut fs).unwrap();
        wl.delete_all(&mut fs).unwrap();
        assert!(fs.verify().unwrap().is_consistent());
    }
}

#[test]
fn aru_latency_workload_recovers() {
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let mut cfg = ld_config();
    cfg.cleaner.background = false; // the checkpoint count below is the log's own
    let ld = Lld::format(sim, &cfg).unwrap();
    // A commit record each, weighing 17 in the suffix bound: short of
    // the 64 Ki at which the log of a nearly empty disk asks for a
    // checkpoint, so recovery finds every unit in the log.
    AruLatencyWorkload { count: 3000 }.run(&ld).unwrap();
    assert_eq!(ld.stats().arus_committed, 3000);
    assert_eq!(ld.stats().checkpoints, 0);
    let image = ld.into_device().into_inner().into_image();
    let (_, report) = Lld::recover(MemDisk::from_image(image)).unwrap();
    assert_eq!(report.committed_arus, 3000);
    assert_eq!(report.discarded_arus, 0);
}

#[test]
fn umbrella_reexports_compose() {
    // The umbrella crate's re-exports are usable together without
    // importing the member crates directly.
    let device = ld_aru::disk::MemDisk::new(8 << 20);
    let ld = ld_aru::core::Lld::format(device, &ld_config()).unwrap();
    let mut fs =
        ld_aru::minixfs::MinixFs::format(ld, ld_aru::minixfs::FsConfig::default()).unwrap();
    let ino = fs.create("/x").unwrap();
    fs.write_at(ino, 0, b"composed").unwrap();
    let mut buf = [0u8; 8];
    fs.read_at(ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"composed");
}
