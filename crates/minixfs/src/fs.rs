//! The file system proper: MinixLLD.
//!
//! Because the Logical Disk owns allocation and physical layout, this
//! file system carries no block bitmaps, zones, or block pointers — an
//! inode simply names one LD list that holds the file's data blocks in
//! order. Directory and file creation and deletion are bracketed by
//! `BeginARU`/`EndARU` (when [`FsConfig::use_arus`] is set, the paper's
//! "new" MinixLLD): after a failure either all or none of the meta-data
//! describing a file is persistent, so no fsck-style repair is ever
//! needed. Not at mount either: the superblock keeps one bit per
//! inode-table block, written in the ARU that fills or opens up the
//! block, so mount reads the superblock and not the inode table
//! (`superblock.rs` has the layout and the write order).

use crate::config::{DeletePolicy, FsConfig};
use crate::dir::{self, DIRENT_SIZE};
use crate::error::{FsError, Result};
use crate::inode::{Inode, INODE_SIZE};
use crate::superblock::Superblock;
use crate::types::{DirEntry, FileKind, Ino, Stat};
use ld_core::{BlockId, Ctx, ListId, LogicalDisk, Position};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;

/// The list holding the file-system superblock (the first list a fresh
/// logical disk hands out).
const META_LIST_RAW: u64 = 1;

/// Counters of file-system activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FsStats {
    /// Files created.
    pub files_created: u64,
    /// Files deleted.
    pub files_deleted: u64,
    /// Directories created.
    pub dirs_created: u64,
    /// Directories removed.
    pub dirs_removed: u64,
    /// Payload bytes written through [`MinixFs::write_at`].
    pub bytes_written: u64,
    /// Payload bytes read through [`MinixFs::read_at`].
    pub bytes_read: u64,
}

impl FsStats {
    /// The counters as `(name, value)` pairs, in declaration order —
    /// the shape [`ObsSnapshot::fs_ops`](ld_core::ObsSnapshot) expects,
    /// so a caller can surface file-system activity alongside the LLD
    /// and device layers.
    pub fn as_named_counters(&self) -> Vec<(String, u64)> {
        vec![
            ("files_created".to_string(), self.files_created),
            ("files_deleted".to_string(), self.files_deleted),
            ("dirs_created".to_string(), self.dirs_created),
            ("dirs_removed".to_string(), self.dirs_removed),
            ("bytes_written".to_string(), self.bytes_written),
            ("bytes_read".to_string(), self.bytes_read),
        ]
    }
}

/// Where a directory entry lives: the index of its block in the
/// directory's list and its slot in that block, ordered as a scan meets
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DirSlot {
    block: usize,
    slot: usize,
}

/// What one scan of a directory found for a name.
#[derive(Debug, Default)]
struct Probe {
    /// The entry with the name, and where it is.
    hit: Option<(Ino, DirSlot)>,
    /// The first free slot the scan passed: where a new entry goes when
    /// there is no hit; `None` when the directory is full.
    free: Option<DirSlot>,
}

/// Where a block appended to a list of `blocks` goes.
fn append_pos(blocks: &[BlockId]) -> Position {
    match blocks.last() {
        None => Position::First,
        Some(&p) => Position::After(p),
    }
}

/// A Minix-like file system on a Logical Disk.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ld_core::{Lld, LldConfig};
/// use ld_disk::MemDisk;
/// use ld_minixfs::{FsConfig, MinixFs};
///
/// let ld = Lld::format(MemDisk::new(8 << 20), &LldConfig::default())?;
/// let mut fs = MinixFs::format(ld, FsConfig::default())?;
/// fs.mkdir("/docs")?;
/// let ino = fs.create("/docs/readme.txt")?;
/// fs.write_at(ino, 0, b"atomic recovery units")?;
/// let mut buf = [0u8; 21];
/// fs.read_at(ino, 0, &mut buf)?;
/// assert_eq!(&buf, b"atomic recovery units");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MinixFs<L> {
    ld: L,
    cfg: FsConfig,
    block_size: usize,
    /// The superblock's block and its value as last written (but for
    /// set bits the allocator found stale and cleared).
    sb_block: BlockId,
    sb: Superblock,
    inode_blocks: Vec<BlockId>,
    inodes_per_block: u32,
    /// Per inode-table block, its free inode numbers, read from the
    /// table the first time allocation or a count reaches the block.
    free_slots: Vec<Option<BTreeSet<u32>>>,
    /// Cached data-block lists per inode (rebuilt lazily after mount).
    blocks_cache: HashMap<u32, Vec<BlockId>>,
    /// Inodes whose latest committed value has not been written back to
    /// the logical disk yet (the Minix buffer-cache delayed write for
    /// size updates; flushed by [`MinixFs::flush`] and before any
    /// direct write of the same inode-table block). Ordered, so the
    /// updates one table block holds are one range.
    dirty_inodes: BTreeMap<u32, Inode>,
    /// The one block buffer every read-modify-write and scan reuses.
    buf: Vec<u8>,
    stats: FsStats,
}

impl<L: LogicalDisk> MinixFs<L> {
    // ------------------------------------------------------------------
    // Format and mount
    // ------------------------------------------------------------------

    /// Creates a fresh file system on an *empty*, freshly formatted
    /// logical disk.
    ///
    /// # Errors
    ///
    /// Logical-disk errors, or [`FsError::Corrupt`] if the disk is not
    /// fresh (the superblock convention requires the first allocated
    /// list).
    pub fn format(ld: L, cfg: FsConfig) -> Result<Self> {
        let block_size = ld.block_size();
        let inodes_per_block = (block_size / INODE_SIZE) as u32;
        let inode_count = cfg.inode_count.max(2);
        let n_blocks = inode_count.div_ceil(inodes_per_block);
        if !Superblock::fits(n_blocks as usize, block_size) {
            return Err(FsError::Corrupt(format!(
                "{inode_count} inodes take {n_blocks} table blocks, more than the superblock's bitmap covers"
            )));
        }

        // Meta list: holds the superblock block.
        let meta = ld.new_list(Ctx::Simple)?;
        if meta.get() != META_LIST_RAW {
            return Err(FsError::Corrupt(
                "file system must be formatted on a fresh logical disk".into(),
            ));
        }
        let sb_block = ld.new_block(Ctx::Simple, meta, Position::First)?;

        // Inode table.
        let inode_list = ld.new_list(Ctx::Simple)?;
        let mut inode_blocks = Vec::with_capacity(n_blocks as usize);
        for _ in 0..n_blocks {
            let b = ld.new_block(Ctx::Simple, inode_list, append_pos(&inode_blocks))?;
            inode_blocks.push(b);
        }

        // Every inode is free but the root's (inode 1), which leaves
        // block 0 a free slot: a block holds at least 16 inodes.
        let free_slots: Vec<_> = (0..n_blocks)
            .map(|bi| {
                let first = bi * inodes_per_block + 1;
                let last = (first + inodes_per_block - 1).min(inode_count);
                Some(
                    (first..=last)
                        .filter(|&raw| raw != Ino::ROOT.get())
                        .collect(),
                )
            })
            .collect();
        let mut fs = MinixFs {
            ld,
            cfg: FsConfig { inode_count, ..cfg },
            block_size,
            sb_block,
            sb: Superblock {
                inode_count,
                inode_list,
                has_free: vec![true; n_blocks as usize],
            },
            inode_blocks,
            inodes_per_block,
            free_slots,
            blocks_cache: HashMap::new(),
            dirty_inodes: BTreeMap::new(),
            buf: vec![0; block_size],
            stats: FsStats::default(),
        };
        fs.write_superblock(Ctx::Simple, &fs.sb.clone())?;

        // Root directory (inode 1).
        let root_list = fs.ld.new_list(Ctx::Simple)?;
        fs.write_inode(
            Ctx::Simple,
            Ino::ROOT,
            Some(&Inode {
                kind: FileKind::Dir,
                nlinks: 1,
                size: 0,
                data_list: Some(root_list),
            }),
        )?;
        fs.ld.flush()?;
        Ok(fs)
    }

    /// Mounts an existing file system (e.g. after crash recovery of the
    /// logical disk). It reads the superblock and nothing else: the
    /// inode table is read a block at a time as allocation reaches it.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] if no valid version-2 superblock is found,
    /// or if its inode count or bitmap does not match the inode table.
    pub fn mount(ld: L, cfg: FsConfig) -> Result<Self> {
        let block_size = ld.block_size();
        let meta = ListId::new(META_LIST_RAW);
        let meta_blocks = ld
            .list_blocks(Ctx::Simple, meta)
            .map_err(|_| FsError::Corrupt("no file-system meta list".into()))?;
        let &sb_block = meta_blocks
            .first()
            .ok_or_else(|| FsError::Corrupt("empty meta list".into()))?;
        let mut buf = vec![0u8; block_size];
        ld.read(Ctx::Simple, sb_block, &mut buf)?;
        let sb = Superblock::decode(&buf)?;
        let inode_blocks = ld.list_blocks(Ctx::Simple, sb.inode_list)?;
        let inodes_per_block = (block_size / INODE_SIZE) as u32;
        if sb.has_free.len() != inode_blocks.len() {
            return Err(FsError::Corrupt(format!(
                "superblock bitmap covers {} inode-table blocks, the table has {}",
                sb.has_free.len(),
                inode_blocks.len()
            )));
        }
        if u64::from(sb.inode_count) > inode_blocks.len() as u64 * u64::from(inodes_per_block) {
            return Err(FsError::Corrupt(format!(
                "{} inodes do not fit {} inode-table blocks",
                sb.inode_count,
                inode_blocks.len()
            )));
        }
        Ok(MinixFs {
            ld,
            cfg: FsConfig {
                inode_count: sb.inode_count,
                ..cfg
            },
            block_size,
            sb_block,
            free_slots: vec![None; inode_blocks.len()],
            sb,
            inode_blocks,
            inodes_per_block,
            blocks_cache: HashMap::new(),
            dirty_inodes: BTreeMap::new(),
            buf,
            stats: FsStats::default(),
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying logical disk. Every logical-disk operation takes
    /// `&self`, so this is enough for statistics, explicit flushes or
    /// checkpoints, and fault injection; do not mutate file-system
    /// state through it.
    pub fn ld(&self) -> &L {
        &self.ld
    }

    /// Consumes the file system, returning the logical disk. Nothing is
    /// flushed; combined with a crash test this models power failure.
    pub fn into_ld(self) -> L {
        self.ld
    }

    /// File-system operation counters.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// The file-system block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of free inodes. Reads each table block whose bit is set
    /// and that allocation has not reached yet, one LD read a block.
    ///
    /// # Errors
    ///
    /// Logical-disk errors; [`FsError::Corrupt`] for an undecodable
    /// inode.
    pub fn free_inode_count(&mut self) -> Result<u32> {
        let mut n = 0;
        for bi in 0..self.inode_blocks.len() {
            if self.sb.has_free[bi] {
                n += self.free_in(bi)?.len() as u32;
            }
        }
        Ok(n)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// The LD list holding the inode table.
    pub fn inode_table_list(&self) -> ListId {
        self.sb.inode_list
    }

    /// Flushes all committed state to persistent storage.
    ///
    /// # Errors
    ///
    /// Logical-disk errors.
    pub fn flush(&mut self) -> Result<()> {
        self.write_back_dirty_inodes()?;
        self.ld.flush()?;
        Ok(())
    }

    /// Writes every delayed inode update into its table block, in table
    /// order.
    fn write_back_dirty_inodes(&mut self) -> Result<()> {
        // write_inode merges (and clears) every dirty inode that shares
        // the block, so each pass takes a whole block's worth.
        while let Some((&raw, inode)) = self.dirty_inodes.first_key_value() {
            let inode = inode.clone();
            self.write_inode(Ctx::Simple, Ino::new(raw), Some(&inode))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Inode helpers
    // ------------------------------------------------------------------

    pub(crate) fn inode_slot(&self, ino: Ino) -> (usize, usize) {
        let idx = (ino.get() - 1) as usize;
        (
            idx / self.inodes_per_block as usize,
            idx % self.inodes_per_block as usize,
        )
    }

    fn read_inode(&mut self, ctx: Ctx, ino: Ino) -> Result<Inode> {
        if ino.get() > self.cfg.inode_count {
            return Err(FsError::BadInode(ino));
        }
        if let Some(inode) = self.dirty_inodes.get(&ino.get()) {
            return Ok(inode.clone());
        }
        let (bi, slot) = self.inode_slot(ino);
        self.ld.read(ctx, self.inode_blocks[bi], &mut self.buf)?;
        Inode::decode(&self.buf, slot)?.ok_or(FsError::BadInode(ino))
    }

    /// Writes (or frees, with `None`) an inode slot. Any delayed inode
    /// updates sharing the same table block are folded into the write
    /// (they are durable afterwards, so their dirty entries clear).
    fn write_inode(&mut self, ctx: Ctx, ino: Ino, inode: Option<&Inode>) -> Result<()> {
        let (bi, slot) = self.inode_slot(ino);
        self.ld.read(ctx, self.inode_blocks[bi], &mut self.buf)?;
        let first_raw = bi as u32 * self.inodes_per_block + 1;
        let block_inodes = first_raw..first_raw + self.inodes_per_block;
        while let Some((&other, _)) = self.dirty_inodes.range(block_inodes.clone()).next() {
            let d = self.dirty_inodes.remove(&other).expect("a key just seen");
            if other != ino.get() {
                d.encode(&mut self.buf, (other - first_raw) as usize);
            }
        }
        match inode {
            Some(inode) => inode.encode(&mut self.buf, slot),
            None => Inode::encode_free(&mut self.buf, slot),
        }
        self.ld.write(ctx, self.inode_blocks[bi], &self.buf)?;
        Ok(())
    }

    /// The superblock as stored.
    pub(crate) fn stored_superblock(&mut self) -> Result<Superblock> {
        self.ld.read(Ctx::Simple, self.sb_block, &mut self.buf)?;
        Superblock::decode(&self.buf)
    }

    fn write_superblock(&mut self, ctx: Ctx, sb: &Superblock) -> Result<()> {
        sb.encode(&mut self.buf);
        self.ld.write(ctx, self.sb_block, &self.buf)?;
        Ok(())
    }

    /// The free inodes of table block `bi`, read from the table the
    /// first time they are needed.
    fn free_in(&mut self, bi: usize) -> Result<&mut BTreeSet<u32>> {
        if self.free_slots[bi].is_none() {
            self.ld
                .read(Ctx::Simple, self.inode_blocks[bi], &mut self.buf)?;
            let first = bi as u32 * self.inodes_per_block + 1;
            let last = (first + self.inodes_per_block - 1).min(self.cfg.inode_count);
            let mut free = BTreeSet::new();
            for raw in first..=last {
                if Inode::decode(&self.buf, (raw - first) as usize)?.is_none() {
                    free.insert(raw);
                }
            }
            self.free_slots[bi] = Some(free);
        }
        Ok(self.free_slots[bi].as_mut().expect("just read"))
    }

    /// The lowest free inode: the lowest free slot of the lowest block
    /// whose bit is set (a clear bit means a full block). A set bit
    /// over a full block, which only a crash without ARUs leaves, is
    /// cleared on the way.
    fn lowest_free(&mut self) -> Result<Ino> {
        while let Some(bi) = self.sb.has_free.iter().position(|&f| f) {
            if let Some(&raw) = self.free_in(bi)?.first() {
                return Ok(Ino::new(raw));
            }
            self.sb.has_free[bi] = false;
        }
        Err(FsError::NoInodes)
    }

    /// The superblock that an operation freeing `ino` writes before the
    /// inode: `ino`'s block is full, so its bit sets. `None` when the
    /// bit is set already.
    fn freeing(&self, ino: Ino) -> Option<Superblock> {
        let (bi, _) = self.inode_slot(ino);
        (!self.sb.has_free[bi]).then(|| self.sb.with(bi, true))
    }

    /// Frees `ino` inside `ctx`: the superblock from
    /// [`freeing`](Self::freeing) first, then the inode.
    fn free_inode(&mut self, ctx: Ctx, ino: Ino, sb: Option<&Superblock>) -> Result<()> {
        if let Some(sb) = sb {
            self.write_superblock(ctx, sb)?;
        }
        self.write_inode(ctx, ino, None)
    }

    /// Brings the in-memory state up to an operation that freed `ino`
    /// and committed the superblock `sb`.
    fn freed(&mut self, ino: Ino, sb: Option<Superblock>) {
        let (bi, _) = self.inode_slot(ino);
        if let Some(free) = &mut self.free_slots[bi] {
            free.insert(ino.get());
        }
        if let Some(sb) = sb {
            self.sb = sb;
        }
        self.blocks_cache.remove(&ino.get());
    }

    /// Makes sure `blocks_cache` holds the data blocks of `ino`.
    fn cache_blocks(&mut self, ino: Ino) -> Result<()> {
        if !self.blocks_cache.contains_key(&ino.get()) {
            let blocks = match self.read_inode(Ctx::Simple, ino)?.data_list {
                Some(list) => self.ld.list_blocks(Ctx::Simple, list)?,
                None => Vec::new(),
            };
            self.blocks_cache.insert(ino.get(), blocks);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Path and directory helpers
    // ------------------------------------------------------------------

    /// The components of an absolute path, each checked against the
    /// name limit before any is looked up.
    fn components(path: &str) -> Result<impl Iterator<Item = &str> + Clone> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath(path.to_string()));
        }
        let comps = path.split('/').filter(|c| !c.is_empty());
        if let Some(c) = comps.clone().find(|c| c.len() > dir::MAX_NAME) {
            return Err(FsError::NameTooLong(c.to_string()));
        }
        Ok(comps)
    }

    /// Resolves a path to its inode.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`] along the way.
    pub fn lookup(&mut self, path: &str) -> Result<Ino> {
        let mut cur = Ino::ROOT;
        for comp in Self::components(path)? {
            cur = self.step(cur, comp, path)?;
        }
        Ok(cur)
    }

    /// The inode `name` names in `dir`, one step along `path`.
    fn step(&mut self, dir: Ino, name: &str, path: &str) -> Result<Ino> {
        if self.read_inode(Ctx::Simple, dir)?.kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        let (ino, _) =
            (self.probe(dir, name)?.hit).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(ino)
    }

    /// Resolves a path to `(parent_dir, file_name)`.
    fn resolve_parent<'p>(&mut self, path: &'p str) -> Result<(Ino, &'p str)> {
        let mut comps = Self::components(path)?;
        let mut name = comps
            .next()
            .ok_or_else(|| FsError::InvalidPath(path.to_string()))?;
        let mut cur = Ino::ROOT;
        for next in comps {
            cur = self.step(cur, name, path)?;
            name = next;
        }
        if self.read_inode(Ctx::Simple, cur)?.kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        Ok((cur, name))
    }

    /// The one directory scan: hands `visit` every slot of `dir` in
    /// scan order, with its entry (the name borrowed from the block) or
    /// `None` for a free slot, until `visit` breaks. It runs outside
    /// any ARU, before one opens.
    fn scan_dir(
        &mut self,
        dir: Ino,
        mut visit: impl FnMut(DirSlot, Option<(Ino, &str)>) -> ControlFlow<()>,
    ) -> Result<()> {
        self.cache_blocks(dir)?;
        let slots = self.block_size / DIRENT_SIZE;
        for (block, &b) in self.blocks_cache[&dir.get()].iter().enumerate() {
            self.ld.read(Ctx::Simple, b, &mut self.buf)?;
            for slot in 0..slots {
                if visit(DirSlot { block, slot }, dir::decode(&self.buf, slot)?).is_break() {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Scans `dir` for `name` up to its entry, noting the first free
    /// slot on the way.
    fn probe(&mut self, dir: Ino, name: &str) -> Result<Probe> {
        let mut found = Probe::default();
        self.scan_dir(dir, |at, entry| match entry {
            Some((ino, n)) if n == name => {
                found.hit = Some((ino, at));
                ControlFlow::Break(())
            }
            Some(_) => ControlFlow::Continue(()),
            None => {
                found.free.get_or_insert(at);
                ControlFlow::Continue(())
            }
        })?;
        Ok(found)
    }

    /// The entries of directory `dir`, in scan order.
    pub(crate) fn entries(&mut self, dir: Ino) -> Result<Vec<DirEntry>> {
        let mut out = Vec::new();
        self.scan_dir(dir, |_, entry| {
            if let Some((ino, name)) = entry {
                out.push(DirEntry {
                    name: name.to_string(),
                    ino,
                });
            }
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Sets the slot `at` of `dir`, which a probe found, to `entry`
    /// (`None` frees it).
    fn dir_set(
        &mut self,
        ctx: Ctx,
        dir: Ino,
        at: DirSlot,
        entry: Option<(Ino, &str)>,
    ) -> Result<()> {
        self.cache_blocks(dir)?;
        let b = self.blocks_cache[&dir.get()][at.block];
        self.ld.read(ctx, b, &mut self.buf)?;
        match entry {
            Some((ino, name)) => dir::encode(&mut self.buf, at.slot, ino, name)?,
            None => dir::encode_free(&mut self.buf, at.slot),
        }
        self.ld.write(ctx, b, &self.buf)?;
        Ok(())
    }

    /// Enters `name` for `ino` in `dir`: at `free`, the first free slot
    /// a probe found, or, when it found none, in a block appended to the
    /// directory.
    fn dir_add(
        &mut self,
        ctx: Ctx,
        dir: Ino,
        free: Option<DirSlot>,
        name: &str,
        ino: Ino,
    ) -> Result<()> {
        if let Some(at) = free {
            return self.dir_set(ctx, dir, at, Some((ino, name)));
        }
        self.cache_blocks(dir)?;
        let pos = append_pos(&self.blocks_cache[&dir.get()]);
        let mut inode = self.read_inode(ctx, dir)?;
        let list = inode
            .data_list
            .ok_or_else(|| FsError::Corrupt(format!("directory {dir} has no data list")))?;
        let nb = self.ld.new_block(ctx, list, pos)?;
        self.buf.fill(0);
        dir::encode(&mut self.buf, 0, ino, name)?;
        self.ld.write(ctx, nb, &self.buf)?;
        inode.size += self.block_size as u64;
        self.write_inode(ctx, dir, Some(&inode))?;
        if ctx.is_simple() {
            self.blocks_cache.entry(dir.get()).or_default().push(nb);
        } else {
            self.blocks_cache.remove(&dir.get());
        }
        Ok(())
    }

    /// Lists the entries of the directory at `path`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotADirectory`] if the path names a file.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>> {
        let ino = self.lookup(path)?;
        if self.read_inode(Ctx::Simple, ino)?.kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        self.entries(ino)
    }

    // ------------------------------------------------------------------
    // ARU bracketing
    // ------------------------------------------------------------------

    /// Runs `f` inside an ARU when configured, as a plain operation
    /// sequence otherwise.
    fn bracketed<T>(&mut self, f: impl FnOnce(&mut Self, Ctx) -> Result<T>) -> Result<T> {
        if self.cfg.use_arus {
            let aru = self.ld.begin_aru()?;
            match f(self, Ctx::Aru(aru)) {
                Ok(v) => {
                    self.ld.end_aru(aru)?;
                    Ok(v)
                }
                Err(e) => {
                    // Best-effort rollback; sequential-mode disks cannot
                    // abort, in which case the partial operations remain
                    // committed (exactly the "old" behaviour).
                    let _ = self.ld.abort_aru(aru);
                    Err(e)
                }
            }
        } else {
            f(self, Ctx::Simple)
        }
    }

    // ------------------------------------------------------------------
    // Public mutating operations
    // ------------------------------------------------------------------

    /// Creates an empty regular file.
    ///
    /// With ARUs enabled, the inode write, the directory update, and the
    /// data-list creation are one atomic recovery unit.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NoInodes`], path errors,
    /// and logical-disk errors.
    pub fn create(&mut self, path: &str) -> Result<Ino> {
        let ino = self.make(path, FileKind::File)?;
        self.stats.files_created += 1;
        Ok(ino)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// As for [`create`](MinixFs::create).
    pub fn mkdir(&mut self, path: &str) -> Result<Ino> {
        let ino = self.make(path, FileKind::Dir)?;
        self.stats.dirs_created += 1;
        Ok(ino)
    }

    /// `create` and `mkdir`: a fresh inode of `kind` with an empty data
    /// list, entered in its parent.
    fn make(&mut self, path: &str, kind: FileKind) -> Result<Ino> {
        let (parent, name) = self.resolve_parent(path)?;
        let probe = self.probe(parent, name)?;
        if probe.hit.is_some() {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.lowest_free()?;
        let (bi, _) = self.inode_slot(ino);
        // Taking the block's last free slot clears its bit, after the
        // inode is written.
        let fills = self.free_slots[bi].as_ref().is_some_and(|f| f.len() == 1);
        let sb = fills.then(|| self.sb.with(bi, false));
        self.bracketed(|fs, ctx| {
            let data_list = fs.ld.new_list(ctx)?;
            fs.write_inode(
                ctx,
                ino,
                Some(&Inode {
                    kind,
                    nlinks: 1,
                    size: 0,
                    data_list: Some(data_list),
                }),
            )?;
            if let Some(sb) = &sb {
                fs.write_superblock(ctx, sb)?;
            }
            fs.dir_add(ctx, parent, probe.free, name, ino)
        })?;
        if let Some(free) = &mut self.free_slots[bi] {
            free.remove(&ino.get());
        }
        if let Some(sb) = sb {
            self.sb = sb;
        }
        self.blocks_cache.insert(ino.get(), Vec::new());
        Ok(ino)
    }

    /// Deletes a regular file: its data blocks, its inode, and its
    /// directory entry — atomically, when ARUs are enabled.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] on a directory; path errors.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let (ino, at) =
            (self.probe(parent, name)?.hit).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let mut inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        if inode.nlinks > 1 {
            // Hard-linked elsewhere: drop this entry and the link count;
            // the data stays.
            inode.nlinks -= 1;
            self.dirty_inodes.remove(&ino.get());
            return self.bracketed(|fs, ctx| {
                fs.write_inode(ctx, ino, Some(&inode))?;
                fs.dir_set(ctx, parent, at, None)
            });
        }
        let policy = self.cfg.delete_policy;
        let sb = self.freeing(ino);
        self.bracketed(|fs, ctx| {
            if let Some(list) = inode.data_list {
                match policy {
                    DeletePolicy::PerBlock => {
                        // The paper's original deletion: deallocate each
                        // block, truncate-style from the tail, so every
                        // DeleteBlock runs a predecessor search in the
                        // logical disk ("longer lists cause longer
                        // predecessor searches"), then delete the
                        // emptied list.
                        let blocks = fs.ld.list_blocks(ctx, list)?;
                        for b in blocks.into_iter().rev() {
                            fs.ld.delete_block(ctx, b)?;
                        }
                        fs.ld.delete_list(ctx, list)?;
                    }
                    DeletePolicy::WholeList => {
                        // The improved deletion: one DeleteList, blocks
                        // dropped from the head.
                        fs.ld.delete_list(ctx, list)?;
                    }
                }
            }
            fs.free_inode(ctx, ino, sb.as_ref())?;
            fs.dir_set(ctx, parent, at, None)
        })?;
        self.freed(ino, sb);
        self.stats.files_deleted += 1;
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirectoryNotEmpty`] if it still has entries;
    /// [`FsError::NotADirectory`] on a file.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let (ino, at) =
            (self.probe(parent, name)?.hit).ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind != FileKind::Dir {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        let mut live = false;
        self.scan_dir(ino, |_, entry| {
            live = entry.is_some();
            if live {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        if live {
            return Err(FsError::DirectoryNotEmpty(path.to_string()));
        }
        let sb = self.freeing(ino);
        self.bracketed(|fs, ctx| {
            if let Some(list) = inode.data_list {
                fs.ld.delete_list(ctx, list)?;
            }
            fs.free_inode(ctx, ino, sb.as_ref())?;
            fs.dir_set(ctx, parent, at, None)
        })?;
        self.freed(ino, sb);
        self.stats.dirs_removed += 1;
        Ok(())
    }

    /// Creates a hard link: a second directory entry for an existing
    /// regular file (extension beyond the paper's workload). The link
    /// count update and the directory update form one ARU.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] when linking a directory;
    /// [`FsError::TooManyLinks`] when the file already has `u16::MAX`
    /// links, the most an inode records;
    /// [`FsError::AlreadyExists`] if the target name is taken.
    pub fn link(&mut self, existing: &str, new: &str) -> Result<()> {
        let ino = self.lookup(existing)?;
        let mut inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(existing.to_string()));
        }
        if inode.nlinks >= u32::from(u16::MAX) {
            return Err(FsError::TooManyLinks(existing.to_string()));
        }
        let (parent, name) = self.resolve_parent(new)?;
        let probe = self.probe(parent, name)?;
        if probe.hit.is_some() {
            return Err(FsError::AlreadyExists(new.to_string()));
        }
        inode.nlinks += 1;
        self.bracketed(|fs, ctx| {
            fs.write_inode(ctx, ino, Some(&inode))?;
            fs.dir_add(ctx, parent, probe.free, name, ino)
        })
    }

    /// Truncates (or extends, sparsely zero-filled) a regular file to
    /// `new_size` bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] on a directory; logical-disk errors.
    pub fn truncate(&mut self, ino: Ino, new_size: u64) -> Result<()> {
        let mut inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(ino.to_string()));
        }
        if new_size == inode.size {
            return Ok(());
        }
        let list = inode
            .data_list
            .ok_or_else(|| FsError::Corrupt(format!("file {ino} has no data list")))?;
        let needed = new_size.div_ceil(self.block_size as u64) as usize;
        self.cache_blocks(ino)?;
        let blocks = self.blocks_cache.get_mut(&ino.get()).expect("cached");
        // Shrink: drop blocks from the tail (freeing from the end keeps
        // each predecessor search one step).
        while blocks.len() > needed {
            let &b = blocks.last().expect("longer than needed");
            self.ld.delete_block(Ctx::Simple, b)?;
            blocks.pop();
        }
        // Extend sparsely: allocate zero blocks up to the new end.
        while blocks.len() < needed {
            let b = self.ld.new_block(Ctx::Simple, list, append_pos(blocks))?;
            blocks.push(b);
        }
        inode.size = new_size;
        self.dirty_inodes.insert(ino.get(), inode);
        Ok(())
    }

    /// Renames a file or directory within the tree, atomically when
    /// ARUs are enabled (extension beyond the paper's workload).
    ///
    /// # Errors
    ///
    /// Path errors; [`FsError::AlreadyExists`] if the target exists;
    /// [`FsError::IntoOwnSubtree`] if `to` lies inside the directory
    /// `from`.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        let (ino, from_at) = (self.probe(from_parent, from_name)?.hit)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        let target = self.probe(to_parent, to_name)?;
        if target.hit.is_some() {
            return Err(FsError::AlreadyExists(to.to_string()));
        }
        // `to` resolved, so every component of it but the last is a
        // directory: `from` is a prefix of it only when `from` is a
        // directory that would be left unreachable, below itself.
        let mut to_comps = Self::components(to)?;
        if Self::components(from)?.all(|c| to_comps.next() == Some(c)) {
            return Err(FsError::IntoOwnSubtree(to.to_string()));
        }
        // Within one directory the freed entry may come first; the new
        // one then takes it, as a scan after the removal would.
        let free = match target.free {
            Some(f) if from_parent == to_parent => Some(f.min(from_at)),
            None if from_parent == to_parent => Some(from_at),
            free => free,
        };
        self.bracketed(|fs, ctx| {
            fs.dir_set(ctx, from_parent, from_at, None)?;
            fs.dir_add(ctx, to_parent, free, to_name, ino)
        })
    }

    /// Writes `data` at byte `offset`, extending the file as needed.
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] on a directory; logical-disk errors.
    pub fn write_at(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        let mut inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(ino.to_string()));
        }
        let list = inode
            .data_list
            .ok_or_else(|| FsError::Corrupt(format!("file {ino} has no data list")))?;
        let bs = self.block_size;
        self.cache_blocks(ino)?;
        let blocks = self.blocks_cache.get_mut(&ino.get()).expect("cached");

        // Extend so every touched block exists.
        let end = offset + data.len() as u64;
        let needed = end.div_ceil(bs as u64) as usize;
        while blocks.len() < needed {
            let b = self.ld.new_block(Ctx::Simple, list, append_pos(blocks))?;
            blocks.push(b);
        }

        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let b = blocks[(pos / bs as u64) as usize];
            let in_block = (pos % bs as u64) as usize;
            let n = (bs - in_block).min(data.len() - written);
            if n == bs {
                self.ld.write(Ctx::Simple, b, &data[written..written + n])?;
            } else {
                // Partial block: read-modify-write.
                self.ld.read(Ctx::Simple, b, &mut self.buf)?;
                self.buf[in_block..in_block + n].copy_from_slice(&data[written..written + n]);
                self.ld.write(Ctx::Simple, b, &self.buf)?;
            }
            written += n;
        }
        if end > inode.size {
            inode.size = end;
            self.dirty_inodes.insert(ino.get(), inode);
        }
        self.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns the number of
    /// bytes read (short at end of file).
    ///
    /// # Errors
    ///
    /// [`FsError::IsADirectory`] on a directory; [`FsError::Corrupt`]
    /// if the inode's size runs past the blocks on its list;
    /// logical-disk errors.
    pub fn read_at(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let inode = self.read_inode(Ctx::Simple, ino)?;
        if inode.kind != FileKind::File {
            return Err(FsError::IsADirectory(ino.to_string()));
        }
        if offset >= inode.size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(inode.size - offset) as usize;
        let bs = self.block_size;
        self.cache_blocks(ino)?;
        let blocks = &self.blocks_cache[&ino.get()];
        if inode.size > blocks.len() as u64 * bs as u64 {
            return Err(FsError::Corrupt(format!(
                "file {ino} is {} bytes, its {} blocks hold {}",
                inode.size,
                blocks.len(),
                blocks.len() * bs
            )));
        }
        let mut read = 0usize;
        while read < want {
            let pos = offset + read as u64;
            let b = blocks[(pos / bs as u64) as usize];
            let in_block = (pos % bs as u64) as usize;
            let n = (bs - in_block).min(want - read);
            self.ld.read(Ctx::Simple, b, &mut self.buf)?;
            buf[read..read + n].copy_from_slice(&self.buf[in_block..in_block + n]);
            read += n;
        }
        self.stats.bytes_read += read as u64;
        Ok(read)
    }

    /// File metadata.
    ///
    /// # Errors
    ///
    /// [`FsError::BadInode`] for a free or out-of-range inode.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        let inode = self.read_inode(Ctx::Simple, ino)?;
        self.cache_blocks(ino)?;
        Ok(Stat {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlinks: inode.nlinks,
            blocks: self.blocks_cache[&ino.get()].len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{Lld, LldConfig};
    use ld_disk::MemDisk;

    #[test]
    fn link_refuses_past_the_on_disk_link_count() {
        let ld = Lld::format(MemDisk::new(4 << 20), &LldConfig::default()).unwrap();
        let mut fs = MinixFs::format(ld, FsConfig::default()).unwrap();
        let ino = fs.create("/f").unwrap();
        let mut inode = fs.read_inode(Ctx::Simple, ino).unwrap();
        inode.nlinks = u32::from(u16::MAX);
        fs.write_inode(Ctx::Simple, ino, Some(&inode)).unwrap();
        let writes = fs.ld().stats().writes;
        assert_eq!(
            fs.link("/f", "/g"),
            Err(FsError::TooManyLinks("/f".to_string()))
        );
        assert_eq!(fs.ld().stats().writes, writes, "a refused link wrote");
        assert!(matches!(fs.lookup("/g"), Err(FsError::NotFound(_))));
        assert_eq!(fs.stat(ino).unwrap().nlinks, u32::from(u16::MAX));
        // One below the limit still links, up to it.
        inode.nlinks -= 1;
        fs.write_inode(Ctx::Simple, ino, Some(&inode)).unwrap();
        fs.link("/f", "/g").unwrap();
        assert_eq!(fs.stat(ino).unwrap().nlinks, u32::from(u16::MAX));
    }
}
