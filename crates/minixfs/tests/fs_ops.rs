//! File-system operation tests: namespace, I/O, policies, mount.

use ld_core::{Ctx, ListId, Lld, LldConfig};
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
    let before_inodes = fs.free_inode_count();
    let ino = fs.create("/tmp.bin").unwrap();
    fs.write_at(ino, 0, &vec![7u8; BS * 5]).unwrap();
    assert!(fs.ld().allocated_block_count() > before_blocks);
    fs.unlink("/tmp.bin").unwrap();
    assert_eq!(fs.ld().allocated_block_count(), before_blocks);
    assert_eq!(fs.free_inode_count(), before_inodes);
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
    let free = fs.free_inode_count();

    let image = fs.into_ld().into_device().into_image();
    let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
    let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
    assert_eq!(fs2.free_inode_count(), free);
    let ino2 = fs2.lookup("/docs/x").unwrap();
    assert_eq!(ino2, ino);
    let mut buf = [0u8; 10];
    fs2.read_at(ino2, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"persist me");
    assert!(fs2.verify().unwrap().is_consistent());
}

/// Mount reads each inode-table block once and decodes all its slots
/// from that one read: at most the table's blocks plus the meta list's.
#[test]
fn mount_reads_each_inode_block_once() {
    let mut fs = fresh();
    fs.create("/a").unwrap();
    fs.mkdir("/d").unwrap();
    fs.flush().unwrap();
    let free = fs.free_inode_count();

    let image = fs.into_ld().into_device().into_image();
    let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
    let meta_blocks = ld2.list_blocks(Ctx::Simple, ListId::new(1)).unwrap().len() as u64;
    let inodes_per_block = (BS / 32) as u64;
    let table_blocks = u64::from(fs_config().inode_count).div_ceil(inodes_per_block);
    let before = ld2.stats().reads;
    let fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
    let reads = fs2.ld().stats().reads - before;
    assert!(
        reads <= table_blocks + meta_blocks,
        "mount made {reads} reads for {table_blocks} table and {meta_blocks} meta blocks"
    );
    assert_eq!(fs2.free_inode_count(), free);
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
