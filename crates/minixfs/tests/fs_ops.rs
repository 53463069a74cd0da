//! File-system operation tests: namespace, I/O, policies, mount.

use ld_core::{Ctx, ListId, Lld, LldConfig, LogicalDisk};
use ld_disk::MemDisk;
use ld_minixfs::{DeletePolicy, FileKind, FsConfig, FsError, Ino, MinixFs};

const BS: usize = 512;

fn ld_config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(512),
        ..LldConfig::default()
    }
}

fn fs_config() -> FsConfig {
    FsConfig {
        inode_count: 64,
        ..FsConfig::default()
    }
}

fn fresh() -> MinixFs<Lld<MemDisk>> {
    let ld = Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap();
    MinixFs::format(ld, fs_config()).unwrap()
}

#[test]
fn format_gives_empty_root() {
    let mut fs = fresh();
    assert_eq!(fs.readdir("/").unwrap(), Vec::new());
    assert_eq!(fs.lookup("/").unwrap(), Ino::ROOT);
    let st = fs.stat(Ino::ROOT).unwrap();
    assert_eq!(st.kind, FileKind::Dir);
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn create_write_read() {
    let mut fs = fresh();
    let ino = fs.create("/a.txt").unwrap();
    fs.write_at(ino, 0, b"hello world").unwrap();
    let mut buf = [0u8; 11];
    assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), 11);
    assert_eq!(&buf, b"hello world");
    // Partial read at offset.
    let mut buf = [0u8; 5];
    assert_eq!(fs.read_at(ino, 6, &mut buf).unwrap(), 5);
    assert_eq!(&buf, b"world");
    // Read past EOF.
    assert_eq!(fs.read_at(ino, 100, &mut buf).unwrap(), 0);
    let st = fs.stat(ino).unwrap();
    assert_eq!(st.size, 11);
    assert_eq!(st.blocks, 1);
}

#[test]
fn multi_block_files() {
    let mut fs = fresh();
    let ino = fs.create("/big").unwrap();
    let data: Vec<u8> = (0..BS as u32 * 3 + 100).map(|i| (i % 251) as u8).collect();
    fs.write_at(ino, 0, &data).unwrap();
    let st = fs.stat(ino).unwrap();
    assert_eq!(st.size, data.len() as u64);
    assert_eq!(st.blocks, 4);
    let mut buf = vec![0u8; data.len()];
    assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), data.len());
    assert_eq!(buf, data);
    // Cross-block read.
    let mut buf = vec![0u8; 700];
    assert_eq!(fs.read_at(ino, BS as u64 - 350, &mut buf).unwrap(), 700);
    assert_eq!(buf, data[BS - 350..BS - 350 + 700]);
}

#[test]
fn sparse_offsets_read_zeroes() {
    let mut fs = fresh();
    let ino = fs.create("/sparse").unwrap();
    fs.write_at(ino, BS as u64 * 2, b"tail").unwrap();
    let mut buf = vec![0xFFu8; BS];
    assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), BS);
    assert_eq!(buf, vec![0u8; BS]);
}

#[test]
fn overwrite_in_place() {
    let mut fs = fresh();
    let ino = fs.create("/f").unwrap();
    fs.write_at(ino, 0, &vec![b'a'; 1000]).unwrap();
    fs.write_at(ino, 500, b"XYZ").unwrap();
    let mut buf = vec![0u8; 1000];
    fs.read_at(ino, 0, &mut buf).unwrap();
    assert_eq!(&buf[498..505], b"aaXYZaa");
    assert_eq!(fs.stat(ino).unwrap().size, 1000);
}

#[test]
fn directories_nest() {
    let mut fs = fresh();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mkdir("/a/b/c").unwrap();
    let f = fs.create("/a/b/c/deep.txt").unwrap();
    fs.write_at(f, 0, b"x").unwrap();
    assert_eq!(fs.lookup("/a/b/c/deep.txt").unwrap(), f);
    let names: Vec<String> = fs
        .readdir("/a/b")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["c"]);
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn namespace_errors() {
    let mut fs = fresh();
    fs.mkdir("/d").unwrap();
    let f = fs.create("/d/f").unwrap();
    assert!(matches!(fs.create("/d/f"), Err(FsError::AlreadyExists(_))));
    assert!(matches!(fs.lookup("/nope"), Err(FsError::NotFound(_))));
    assert!(matches!(
        fs.lookup("relative"),
        Err(FsError::InvalidPath(_))
    ));
    assert!(matches!(
        fs.create("/d/f/x"),
        Err(FsError::NotADirectory(_))
    ));
    assert!(matches!(fs.unlink("/d"), Err(FsError::IsADirectory(_))));
    assert!(matches!(fs.rmdir("/d"), Err(FsError::DirectoryNotEmpty(_))));
    assert!(matches!(fs.rmdir("/d/f"), Err(FsError::NotADirectory(_))));
    assert!(matches!(fs.readdir("/d/f"), Err(FsError::NotADirectory(_))));
    let long = format!("/{}", "n".repeat(200));
    assert!(matches!(fs.create(&long), Err(FsError::NameTooLong(_))));
    let _ = f;
}

#[test]
fn unlink_frees_resources() {
    let mut fs = fresh();
    // Warm up the root directory (its entry block persists after the
    // unlink, which is correct, not a leak).
    let warm = fs.create("/warm").unwrap();
    let _ = warm;
    fs.unlink("/warm").unwrap();
    let before_blocks = fs.ld().allocated_block_count();
    let before_inodes = fs.free_inode_count().unwrap();
    let ino = fs.create("/tmp.bin").unwrap();
    fs.write_at(ino, 0, &vec![7u8; BS * 5]).unwrap();
    assert!(fs.ld().allocated_block_count() > before_blocks);
    fs.unlink("/tmp.bin").unwrap();
    assert_eq!(fs.ld().allocated_block_count(), before_blocks);
    assert_eq!(fs.free_inode_count().unwrap(), before_inodes);
    assert!(matches!(fs.lookup("/tmp.bin"), Err(FsError::NotFound(_))));
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn both_delete_policies_reclaim_identically() {
    for policy in [DeletePolicy::PerBlock, DeletePolicy::WholeList] {
        let ld = Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap();
        let mut fs = MinixFs::format(
            ld,
            FsConfig {
                delete_policy: policy,
                ..fs_config()
            },
        )
        .unwrap();
        // Warm the root directory so its entry blocks are not counted
        // as a leak.
        for i in 0..10 {
            fs.create(&format!("/w{i}")).unwrap();
        }
        for i in 0..10 {
            fs.unlink(&format!("/w{i}")).unwrap();
        }
        let baseline = fs.ld().allocated_block_count();
        for i in 0..10 {
            let ino = fs.create(&format!("/f{i}")).unwrap();
            fs.write_at(ino, 0, &vec![i as u8; BS * 3]).unwrap();
        }
        for i in 0..10 {
            fs.unlink(&format!("/f{i}")).unwrap();
        }
        assert_eq!(
            fs.ld().allocated_block_count(),
            baseline,
            "policy {policy:?} leaked blocks"
        );
        assert!(fs.verify().unwrap().is_consistent());
    }
}

#[test]
fn per_block_policy_walks_more() {
    // The predecessor searches of the original deletion policy are
    // directly observable in the logical-disk statistics.
    let run = |policy: DeletePolicy| -> u64 {
        let ld = Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap();
        let mut fs = MinixFs::format(
            ld,
            FsConfig {
                delete_policy: policy,
                ..fs_config()
            },
        )
        .unwrap();
        let ino = fs.create("/f").unwrap();
        fs.write_at(ino, 0, &vec![1u8; BS * 10]).unwrap();
        let before = fs.ld().stats().list_walk_steps;
        fs.unlink("/f").unwrap();
        fs.ld().stats().list_walk_steps - before
    };
    let per_block = run(DeletePolicy::PerBlock);
    let whole_list = run(DeletePolicy::WholeList);
    assert!(
        per_block > whole_list,
        "per-block {per_block} should exceed whole-list {whole_list}"
    );
}

#[test]
fn rename_moves_entries() {
    let mut fs = fresh();
    fs.mkdir("/src").unwrap();
    fs.mkdir("/dst").unwrap();
    let ino = fs.create("/src/file").unwrap();
    fs.write_at(ino, 0, b"payload").unwrap();
    fs.rename("/src/file", "/dst/renamed").unwrap();
    assert!(matches!(fs.lookup("/src/file"), Err(FsError::NotFound(_))));
    assert_eq!(fs.lookup("/dst/renamed").unwrap(), ino);
    let mut buf = [0u8; 7];
    fs.read_at(ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"payload");
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn rmdir_empty_dir() {
    let mut fs = fresh();
    fs.mkdir("/gone").unwrap();
    fs.rmdir("/gone").unwrap();
    assert!(matches!(fs.lookup("/gone"), Err(FsError::NotFound(_))));
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn directory_grows_beyond_one_block() {
    let mut fs = fresh();
    // 512-byte blocks hold 16 dirents; create more than that.
    let n = 40;
    for i in 0..n {
        fs.create(&format!("/file{i:03}")).unwrap();
    }
    let entries = fs.readdir("/").unwrap();
    assert_eq!(entries.len(), n);
    // Delete a few and ensure slots are reused.
    fs.unlink("/file010").unwrap();
    fs.unlink("/file020").unwrap();
    fs.create("/replacement").unwrap();
    assert_eq!(fs.readdir("/").unwrap().len(), n - 1);
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn inode_exhaustion() {
    let ld = Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap();
    let mut fs = MinixFs::format(
        ld,
        FsConfig {
            inode_count: 4,
            ..fs_config()
        },
    )
    .unwrap();
    // Root takes one inode; three remain.
    fs.create("/a").unwrap();
    fs.create("/b").unwrap();
    fs.create("/c").unwrap();
    assert!(matches!(fs.create("/d"), Err(FsError::NoInodes)));
    fs.unlink("/b").unwrap();
    fs.create("/d").unwrap();
}

#[test]
fn mount_after_clean_flush() {
    let mut fs = fresh();
    fs.mkdir("/docs").unwrap();
    let ino = fs.create("/docs/x").unwrap();
    fs.write_at(ino, 0, b"persist me").unwrap();
    fs.flush().unwrap();
    let free = fs.free_inode_count().unwrap();

    let image = fs.into_ld().into_device().into_image();
    let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
    let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
    assert_eq!(fs2.free_inode_count().unwrap(), free);
    let ino2 = fs2.lookup("/docs/x").unwrap();
    assert_eq!(ino2, ino);
    let mut buf = [0u8; 10];
    fs2.read_at(ino2, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"persist me");
    assert!(fs2.verify().unwrap().is_consistent());
}

/// Rewrites the superblock (the meta list's one block) through the
/// logical disk; `edit` gets its bytes, laid out as the crate's
/// "On-disk format" documents.
fn edit_superblock(ld: &impl LogicalDisk, edit: impl FnOnce(&mut [u8])) {
    let sb = ld.list_blocks(Ctx::Simple, ListId::new(1)).unwrap()[0];
    let mut buf = vec![0u8; ld.block_size()];
    ld.read(Ctx::Simple, sb, &mut buf).unwrap();
    edit(&mut buf);
    ld.write(Ctx::Simple, sb, &buf).unwrap();
}

/// Takes every free inode: directories of up to 64 entries under the
/// root.
fn fill_inode_table<L: LogicalDisk>(fs: &mut MinixFs<L>) {
    let mut left = fs.free_inode_count().unwrap();
    for d in 0.. {
        if left == 0 {
            break;
        }
        fs.mkdir(&format!("/d{d}")).unwrap();
        left -= 1;
        let n = left.min(63);
        for i in 0..n {
            fs.create(&format!("/d{d}/f{i}")).unwrap();
        }
        left -= n;
    }
    assert!(matches!(fs.create("/one_more"), Err(FsError::NoInodes)));
}

/// Mount reads the superblock and nothing else, however large the
/// inode table and however full: the table is read a block at a time
/// as allocation (or a count) reaches it.
#[test]
fn mount_reads_the_superblock_only() {
    for (cfg, inodes) in [(ld_config(), 64), (LldConfig::default(), 4096)] {
        for full in [false, true] {
            let ld = Lld::format(MemDisk::new(32 << 20), &cfg).unwrap();
            let fs_cfg = FsConfig {
                inode_count: inodes,
                ..fs_config()
            };
            let mut fs = MinixFs::format(ld, fs_cfg).unwrap();
            fs.create("/a").unwrap();
            fs.mkdir("/d").unwrap();
            if full {
                fill_inode_table(&mut fs);
            }
            fs.flush().unwrap();
            let free = fs.free_inode_count().unwrap();
            assert_eq!(free == 0, full);

            let image = fs.into_ld().into_device().into_image();
            let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
            let meta_blocks = ld2.list_blocks(Ctx::Simple, ListId::new(1)).unwrap().len() as u64;
            assert_eq!(meta_blocks, 1);
            let before = ld2.stats().reads;
            let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
            let reads = fs2.ld().stats().reads - before;
            assert_eq!(
                reads, meta_blocks,
                "mount made {reads} reads at {inodes} inodes (full: {full})"
            );
            assert_eq!(fs2.free_inode_count().unwrap(), free);
            assert!(fs2.verify().unwrap().is_consistent());
        }
    }
}

/// Allocation hands out the lowest free inode number, across holes in
/// full table blocks and across a remount that has read no table block.
#[test]
fn allocation_takes_the_lowest_free_inode_across_remounts() {
    // 16 inodes a block: f0..f39 take inodes 2..=41, so blocks 0 and 1
    // fill and block 2 holds 33..=41.
    let mut fs = fresh();
    for i in 0..40 {
        assert_eq!(fs.create(&format!("/f{i}")).unwrap().get(), i + 2);
    }
    // Holes in both full blocks and in the partial one.
    for i in [3, 18, 35] {
        fs.unlink(&format!("/f{i}")).unwrap();
    }
    fs.flush().unwrap();
    let expect = [5, 20, 37, 42];

    let image = fs.ld().device().snapshot();
    let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
    let remounted = MinixFs::mount(ld2, FsConfig::default()).unwrap();
    for mut fs in [fs, remounted] {
        let got: Vec<u32> = (0..4)
            .map(|i| fs.create(&format!("/g{i}")).unwrap().get())
            .collect();
        assert_eq!(got, expect);
        assert_eq!(fs.free_inode_count().unwrap(), 64 - 1 - 41);
        assert!(fs.verify().unwrap().is_consistent());
    }
}

/// A superblock of the previous format, which had no bitmap, is
/// refused by its version; nothing falls back to scanning the table.
#[test]
fn a_version_one_superblock_is_refused() {
    let mut fs = fresh();
    fs.flush().unwrap();
    let ld = fs.into_ld();
    edit_superblock(&ld, |sb| sb[8..12].copy_from_slice(&1u32.to_le_bytes()));
    assert_eq!(
        MinixFs::mount(ld, FsConfig::default()).err(),
        Some(FsError::Corrupt(
            "unsupported file-system version 1".to_string()
        ))
    );
}

/// Hostile superblock fields are `Corrupt`, not panics.
#[test]
fn a_corrupt_superblock_is_refused_not_a_panic() {
    type Edit = fn(&mut [u8]);
    let edits: [(&str, Edit); 4] = [
        ("a million inodes", |sb| {
            sb[12..16].copy_from_slice(&1_000_000u32.to_le_bytes())
        }),
        ("inode list 0", |sb| sb[16..24].fill(0)),
        ("a bitmap one block short", |sb| sb[24] -= 1),
        ("a bitmap past the block", |sb| sb[24..28].fill(0xFF)),
    ];
    for (what, edit) in edits {
        // The default format: 4,096 inodes in 32 blocks of 4 KiB.
        let ld = Lld::format(MemDisk::new(8 << 20), &LldConfig::default()).unwrap();
        let mut fs = MinixFs::format(ld, FsConfig::default()).unwrap();
        fs.create("/a").unwrap();
        fs.flush().unwrap();
        let ld = fs.into_ld();
        edit_superblock(&ld, edit);
        match MinixFs::mount(ld, FsConfig::default()) {
            Err(FsError::Corrupt(msg)) => eprintln!("{what}: {msg}"),
            other => panic!("{what}: {:?}", other.map(|_| ())),
        }
    }
}

/// Rewrites the on-disk inode of `ino` (its 32 bytes in the inode
/// table, whose list the superblock names at bytes 16..24).
fn edit_inode(ld: &impl LogicalDisk, ino: Ino, edit: impl FnOnce(&mut [u8])) {
    let mut table = None;
    edit_superblock(ld, |sb| {
        table = Some(ListId::new(u64::from_le_bytes(
            sb[16..24].try_into().unwrap(),
        )))
    });
    let per_block = ld.block_size() / 32;
    let i = (ino.get() - 1) as usize;
    let b = ld.list_blocks(Ctx::Simple, table.unwrap()).unwrap()[i / per_block];
    let mut buf = vec![0u8; ld.block_size()];
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    edit(&mut buf[i % per_block * 32..][..32]);
    ld.write(Ctx::Simple, b, &buf).unwrap();
}

/// An inode whose size runs past the blocks on its list is `Corrupt`
/// for `read_at`, not an index out of bounds.
#[test]
fn a_size_past_the_files_blocks_is_refused_not_a_panic() {
    let mut fs = fresh();
    let ino = fs.create("/a").unwrap();
    fs.write_at(ino, 0, &[7; 100]).unwrap();
    fs.flush().unwrap();
    let ld = fs.into_ld();
    edit_inode(&ld, ino, |raw| {
        raw[4..12].copy_from_slice(&12_293u64.to_le_bytes())
    });
    let mut fs = MinixFs::mount(ld, fs_config()).unwrap();
    assert_eq!(fs.stat(ino).unwrap().size, 12_293);
    let mut buf = vec![0u8; 16_384];
    match fs.read_at(ino, 0, &mut buf) {
        Err(FsError::Corrupt(msg)) => eprintln!("{msg}"),
        other => panic!("{other:?}"),
    }
}

/// The verifier reads the bitmap: a clear bit over a table block with
/// a free slot is reported (the negative control of the crash sweeps).
#[test]
fn verify_reports_a_clear_bit_over_a_free_inode() {
    let mut fs = fresh();
    fs.create("/a").unwrap();
    fs.flush().unwrap();
    assert!(fs.verify().unwrap().is_consistent());
    // Block 1 (inodes 17..=32) is empty; mark it full.
    edit_superblock(fs.ld(), |sb| sb[28] &= !0b10);
    let report = fs.verify().unwrap();
    assert_eq!(
        report.problems,
        vec!["inode-table block 1 is marked full but ino17 is free".to_string()]
    );
}

#[test]
fn stats_track_activity() {
    let mut fs = fresh();
    let ino = fs.create("/s").unwrap();
    fs.mkdir("/d").unwrap();
    fs.write_at(ino, 0, &[1, 2, 3]).unwrap();
    let mut buf = [0u8; 2];
    fs.read_at(ino, 0, &mut buf).unwrap();
    fs.unlink("/s").unwrap();
    fs.rmdir("/d").unwrap();
    let s = fs.stats();
    assert_eq!(s.files_created, 1);
    assert_eq!(s.dirs_created, 1);
    assert_eq!(s.files_deleted, 1);
    assert_eq!(s.dirs_removed, 1);
    assert_eq!(s.bytes_written, 3);
    assert_eq!(s.bytes_read, 2);
}

#[test]
fn works_without_arus_old_minixlld() {
    // The "old" configuration: no ARU bracketing at all.
    let ld = Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap();
    let mut fs = MinixFs::format(
        ld,
        FsConfig {
            use_arus: false,
            ..fs_config()
        },
    )
    .unwrap();
    let ino = fs.create("/plain").unwrap();
    fs.write_at(ino, 0, b"old world").unwrap();
    fs.unlink("/plain").unwrap();
    assert!(fs.verify().unwrap().is_consistent());
    assert_eq!(fs.ld().stats().arus_begun, 0);
}

#[test]
fn rename_into_own_subtree_is_refused() {
    let mut fs = fresh();
    let a = fs.mkdir("/a").unwrap();
    fs.mkdir("/a/c").unwrap();
    let arus = fs.ld().stats().arus_begun;
    for to in ["/a/b", "/a/c/d", "//a/b/"] {
        assert_eq!(
            fs.rename("/a", to),
            Err(FsError::IntoOwnSubtree(to.to_string()))
        );
    }
    assert_eq!(fs.ld().stats().arus_begun, arus, "an ARU opened");
    assert_eq!(fs.lookup("/a").unwrap(), a);
    assert!(fs.lookup("/a/c").is_ok());
    // A sibling whose name starts the same is not inside.
    fs.rename("/a", "/ab").unwrap();
    assert!(fs.lookup("/ab/c").is_ok());
    let report = fs.verify().unwrap();
    assert!(report.is_consistent(), "{:?}", report.problems);
    assert_eq!(report.dirs, 3);
}
