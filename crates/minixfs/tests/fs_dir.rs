//! Directory tests: one scan per operation, where new entries go, what
//! a damaged entry does, and the logical-disk calls each operation makes.

use ld_core::{AruId, BlockId, Ctx, ListId, Lld, LldConfig, LogicalDisk, Position, Result};
use ld_disk::MemDisk;
use ld_minixfs::{FsConfig, FsError, Ino, MinixFs};
use std::cell::Cell;

const BS: usize = 512;
/// 32-byte entries in a 512-byte block.
const SLOTS: usize = BS / 32;

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

fn names<L: LogicalDisk>(fs: &mut MinixFs<L>, dir: &str) -> Vec<String> {
    fs.readdir(dir)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect()
}

#[test]
fn create_fills_the_first_free_slot_in_scan_order() {
    let mut fs = fresh();
    for i in 0..2 * SLOTS {
        fs.create(&format!("/f{i:02}")).unwrap();
    }
    // Holes in both blocks, the later one made first.
    fs.unlink(&format!("/f{:02}", SLOTS + 5)).unwrap();
    fs.unlink("/f09").unwrap();
    fs.create("/n1").unwrap();
    assert_eq!(names(&mut fs, "/")[9], "n1");
    fs.create("/n2").unwrap();
    assert_eq!(names(&mut fs, "/")[SLOTS + 5], "n2");
    // Both blocks full again: the next entry opens a third block.
    fs.create("/n3").unwrap();
    let all = names(&mut fs, "/");
    assert_eq!(all.len(), 2 * SLOTS + 1);
    assert_eq!(all.last().unwrap(), "n3");
    assert_eq!(fs.stat(Ino::ROOT).unwrap().blocks, 3);
    assert!(fs.verify().unwrap().is_consistent());
}

#[test]
fn rename_in_one_directory_reuses_the_freed_slot() {
    let mut fs = fresh();
    for name in ["a", "b", "c"] {
        fs.create(&format!("/{name}")).unwrap();
    }
    fs.unlink("/b").unwrap();
    // The freed entry of `a` comes before the hole `b` left.
    fs.rename("/a", "/z").unwrap();
    assert_eq!(names(&mut fs, "/"), ["z", "c"]);
    fs.rename("/c", "/y").unwrap();
    assert_eq!(names(&mut fs, "/"), ["z", "y"]);
    assert!(fs.verify().unwrap().is_consistent());
}

/// The first block of the root directory, found through the on-disk
/// inode table: root is inode 1, slot 0 of the table's first block, and
/// an inode names its data list at bytes 12..20.
fn root_dir_block(fs: &MinixFs<Lld<MemDisk>>) -> BlockId {
    let ld = fs.ld();
    let table = ld.list_blocks(Ctx::Simple, fs.inode_table_list()).unwrap();
    let mut buf = vec![0u8; BS];
    ld.read(Ctx::Simple, table[0], &mut buf).unwrap();
    let list = ListId::new(u64::from_le_bytes(buf[12..20].try_into().unwrap()));
    ld.list_blocks(Ctx::Simple, list).unwrap()[0]
}

#[test]
fn a_damaged_entry_is_reported_corrupt() {
    // (what, byte of the entry, value): an entry is the inode number in
    // bytes 0..4, the name's length in byte 4, the name from byte 5.
    let damage = [
        ("a zero name length", 4, 0),
        ("a name length past the limit", 4, 28),
        ("a name that is not utf-8", 5, 0xFF),
    ];
    for (what, at, value) in damage {
        let mut fs = fresh();
        fs.create("/x").unwrap();
        fs.create("/a").unwrap();
        let b = root_dir_block(&fs);
        let mut buf = vec![0u8; BS];
        fs.ld().read(Ctx::Simple, b, &mut buf).unwrap();
        // Slot 0 holds `/x`, before every entry the calls below want.
        buf[at] = value;
        fs.ld().write(Ctx::Simple, b, &buf).unwrap();
        let arus = fs.ld().stats().arus_begun;
        let corrupt = |r: std::result::Result<(), FsError>| matches!(r, Err(FsError::Corrupt(_)));
        assert!(corrupt(fs.lookup("/a").map(|_| ())), "lookup, {what}");
        assert!(corrupt(fs.create("/b").map(|_| ())), "create, {what}");
        assert!(corrupt(fs.unlink("/a")), "unlink, {what}");
        assert!(corrupt(fs.readdir("/").map(|_| ())), "readdir, {what}");
        // The scan runs before the ARU would open.
        assert_eq!(fs.ld().stats().arus_begun, arus, "{what}");
    }
}

/// A logical disk that counts the calls made to it.
#[derive(Debug, Default)]
struct Counts {
    begin_aru: Cell<u64>,
    end_aru: Cell<u64>,
    new_list: Cell<u64>,
    delete_list: Cell<u64>,
    new_block: Cell<u64>,
    delete_block: Cell<u64>,
    write: Cell<u64>,
    read: Cell<u64>,
    list_blocks: Cell<u64>,
}

#[derive(Debug)]
struct Counting<L> {
    inner: L,
    counts: Counts,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl<L: LogicalDisk> LogicalDisk for Counting<L> {
    fn begin_aru(&self) -> Result<AruId> {
        bump(&self.counts.begin_aru);
        self.inner.begin_aru()
    }
    fn end_aru(&self, aru: AruId) -> Result<()> {
        bump(&self.counts.end_aru);
        self.inner.end_aru(aru)
    }
    fn abort_aru(&self, aru: AruId) -> Result<()> {
        self.inner.abort_aru(aru)
    }
    fn new_list(&self, ctx: Ctx) -> Result<ListId> {
        bump(&self.counts.new_list);
        self.inner.new_list(ctx)
    }
    fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
        bump(&self.counts.delete_list);
        self.inner.delete_list(ctx, list)
    }
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        bump(&self.counts.new_block);
        self.inner.new_block(ctx, list, pos)
    }
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
        bump(&self.counts.delete_block);
        self.inner.delete_block(ctx, block)
    }
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        bump(&self.counts.write);
        self.inner.write(ctx, block, data)
    }
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
        bump(&self.counts.read);
        self.inner.read(ctx, block, buf)
    }
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
        bump(&self.counts.list_blocks);
        self.inner.list_blocks(ctx, list)
    }
    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
}

/// The calls `op` makes, as `(name, count)` for every non-zero count.
fn calls<L: LogicalDisk>(
    fs: &mut MinixFs<Counting<L>>,
    op: impl FnOnce(&mut MinixFs<Counting<L>>),
) -> Vec<(&'static str, u64)> {
    let snap = |c: &Counts| {
        [
            ("begin_aru", c.begin_aru.get()),
            ("end_aru", c.end_aru.get()),
            ("new_list", c.new_list.get()),
            ("delete_list", c.delete_list.get()),
            ("new_block", c.new_block.get()),
            ("delete_block", c.delete_block.get()),
            ("write", c.write.get()),
            ("read", c.read.get()),
            ("list_blocks", c.list_blocks.get()),
        ]
    };
    let before = snap(&fs.ld().counts);
    op(fs);
    let after = snap(&fs.ld().counts);
    (after.iter().zip(before))
        .map(|(&(name, a), (_, b))| (name, a - b))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// The mutations of a create and an unlink are the paper's ARUs, each
/// made once; the directory is scanned once, before the ARU, and not
/// listed again inside it.
#[test]
fn create_and_unlink_make_their_calls_once() {
    let ld = Counting {
        inner: Lld::format(MemDisk::new(8 << 20), &ld_config()).unwrap(),
        counts: Counts::default(),
    };
    let mut fs = MinixFs::format(ld, fs_config()).unwrap();
    fs.mkdir("/d").unwrap();
    for i in 0..SLOTS + 3 {
        fs.create(&format!("/d/w{i}")).unwrap();
    }
    fs.unlink("/d/w1").unwrap();

    // Reads: on the walk, the root's inode, its one block and the inode
    // of `/d`; the two blocks of `/d` the scan reads; then the inode
    // block and the directory block each write changes. `f` takes
    // `w1`'s inode, the last free one of inode-table block 0, so the
    // create also writes the superblock (clearing the block's bit), and
    // the unlink writes it again (setting the bit); neither reads it.
    let create = calls(&mut fs, |fs| {
        fs.create("/d/f").unwrap();
    });
    assert_eq!(
        create,
        [
            ("begin_aru", 1),
            ("end_aru", 1),
            ("new_list", 1),
            ("write", 3),
            ("read", 7),
        ]
    );
    // The scan stops at the entry, in the first block of `/d` (`f` took
    // its hole); the file's inode is read to see it is not a directory.
    let unlink = calls(&mut fs, |fs| fs.unlink("/d/f").unwrap());
    assert_eq!(
        unlink,
        [
            ("begin_aru", 1),
            ("end_aru", 1),
            ("delete_list", 1),
            ("write", 3),
            ("read", 7),
        ]
    );
    assert!(fs.verify().unwrap().is_consistent());
}
