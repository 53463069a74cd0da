//! What the suites share: where the on-disk structures sit and how to
//! make an edit of a field, named by its declaration (`ld_core::SegField`
//! and the like), pass its checksums again (the image-forging suites);
//! the size of a device of N slots; the blocks an overwrite churn
//! rotates over; the crash suites' seed convention; and a device that
//! parks chosen writes (the suites that own a segment write in flight).
//!
//! A crash suite's oracle is not here: the LD-level suites include the
//! reference model beside this file, `model.rs` (docs/INVARIANTS.md I7,
//! I8), with a `#[path]` of their own; the file-system suites use
//! `MinixFs::verify`.

#![allow(dead_code, unused_imports)] // each suite uses its own subset

use ld_core::{BlockId, Ctx, Layout, ListId, Lld, LldConfig, Position, Record};
pub use ld_core::{
    CkptField, ColField, DirField, SbField, SegField, CKPT_HEADER_LEN, COLUMN_DESC_LEN,
    DIR_ENTRY_LEN, SEGMENT_HEADER_LEN as H_LEN, SEGMENT_MAGIC,
};
use ld_disk::{
    crc32, BlockDevice, Condvar, DiskError, DiskModel, MemDisk, Mutex, SimDisk, SmallRng,
};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The blocks an overwrite churn rotates over (`ring[i % ring.len()]`
/// for its `i`th write): as many as a slot has blocks, allocated on
/// `list` in order behind `after` (`None`: from the front). A segment
/// holds fewer, its header taking one, so a write that comes round to a
/// block finds the version it supersedes in a sealed segment and
/// appends: a slot's worth of log for a slot's worth of writes, which is
/// what the suites that want the log to roll, wrap and be cleaned are
/// after. A churn on fewer blocks can stay inside the open segment,
/// where each write takes the place of the last version and the log
/// grows by a record (docs/INVARIANTS.md I5).
pub fn churn_ring<D: BlockDevice>(
    ld: &Lld<D>,
    list: ListId,
    mut after: Option<BlockId>,
) -> Vec<BlockId> {
    (0..ld.segment_bytes() / ld.block_size())
        .map(|_| {
            let pos = after.map_or(Position::First, Position::After);
            let b = ld.new_block(Ctx::Simple, list, pos).unwrap();
            after = Some(b);
            b
        })
        .collect()
}

/// The size of a device on which `cfg` has `n_slots` segment slots and
/// nothing behind them: its superblock's region, both checkpoint areas
/// and the slots, as `Layout::compute` lays them out. `cfg` caps its
/// blocks and lists, so the areas do not grow with the device.
pub fn capacity_for(cfg: &LldConfig, n_slots: u32) -> u64 {
    assert!(cfg.max_blocks.is_some() && cfg.max_lists.is_some());
    let front = Layout::compute(1 << 40, cfg).unwrap().data_start;
    let cap = front + u64::from(n_slots) * cfg.segment_bytes as u64;
    let layout = Layout::compute(cap, cfg).unwrap();
    assert_eq!((layout.data_start, layout.n_segments), (front, n_slots));
    cap
}

// Power cuts: `SimDisk` is the one crash model. A suite's seed is what
// `CRASH_SEED` takes to run its failing case alone: the crash point of a
// byte-budget sweep (the seed the cut was drawn with, `ld_disk::Cut`),
// or the seed of the draws a suite makes itself.

/// The seeds a crash suite runs: the one `CRASH_SEED` names when it is
/// set, else `default`.
pub fn crash_seeds(default: impl IntoIterator<Item = u64>) -> Vec<u64> {
    match std::env::var("CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("CRASH_SEED is a number")],
        Err(_) => default.into_iter().collect(),
    }
}

/// A simulated disk holding `image`, all of it durable.
pub fn sim_disk(image: Vec<u8>) -> SimDisk<MemDisk> {
    SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010())
}

/// The image a cut leaves that keeps each write pending on `dev` as a
/// coin drawn from `rng` says, and the writes it kept.
pub fn random_cut(dev: &SimDisk<MemDisk>, rng: &mut SmallRng) -> (Vec<u8>, Vec<usize>) {
    let mut kept = Vec::new();
    let image = dev.crash_keeping(|i| {
        let keep = rng.gen_index(2) == 0;
        if keep {
            kept.push(i);
        }
        keep
    });
    (image, kept)
}

/// The trailer behind a data area: the header's CRC.
pub const TRAILER_LEN: usize = 4;
/// The unit a segment's base, its data area and its addresses count.
pub const SECTOR: usize = 512;

/// Field `f` of the segment header at `off`.
pub fn seg(image: &[u8], off: usize, f: SegField) -> u64 {
    f.get(&image[off..])
}

/// Field `f` of the header of the checkpoint at `area`.
pub fn ckpt(image: &[u8], area: usize, f: CkptField) -> u64 {
    f.get(&image[ckpt_header(image, area)..])
}

/// Where a segment sits in its slot: the sector its data starts at
/// (`base`) and the one its meta record ends at (`top`, exclusive; its
/// header is that record's last [`H_LEN`] bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegPos {
    pub slot: u32,
    pub base: u32,
    pub top: u32,
}

/// The geometry the image's superblock names.
pub fn layout_of(image: &[u8]) -> ld_core::Layout {
    ld_core::Layout::decode_superblock(image).unwrap().0
}

impl SegPos {
    /// The first segment of a slot: its data at sector 0, its meta
    /// record at the back.
    pub fn first(image: &[u8], slot: u32) -> Self {
        SegPos {
            slot,
            base: 0,
            top: layout_of(image).sectors_per_slot(),
        }
    }

    /// Byte offset of the slot's sector `sector`.
    pub fn sector(&self, image: &[u8], sector: u32) -> usize {
        layout_of(image).segment_offset(self.slot) as usize + sector as usize * SECTOR
    }

    /// Byte offset of the header.
    pub fn header(&self, image: &[u8]) -> usize {
        self.sector(image, self.top) - H_LEN
    }

    /// Byte offset of the data area: the body's write.
    pub fn data(&self, image: &[u8]) -> usize {
        self.sector(image, self.base)
    }

    /// Byte offset of the trailer, behind the data area the header
    /// names.
    pub fn trailer(&self, image: &[u8]) -> usize {
        let n_sectors = seg(image, self.header(image), SegField::NSectors) as u32;
        self.sector(image, self.base + n_sectors)
    }

    /// Sectors of the meta record the header names: its records and
    /// itself.
    pub fn meta_sectors(&self, image: &[u8]) -> u32 {
        let summary = seg(image, self.header(image), SegField::SummaryLen) as usize;
        (H_LEN + summary).div_ceil(SECTOR) as u32
    }

    /// Where the header says the log goes on: behind the data area and
    /// the trailer's sector and below the meta record, or the ends of
    /// another slot.
    pub fn successor(&self, image: &[u8]) -> SegPos {
        let off = self.header(image);
        let next = seg(image, off, SegField::NextSlot) as u32;
        if next != self.slot {
            return SegPos::first(image, next);
        }
        SegPos {
            slot: next,
            base: self.base + seg(image, off, SegField::NSectors) as u32 + 1,
            top: self.top - self.meta_sectors(image),
        }
    }
}

/// The segments a walk from `head` accepts, the way recovery finds
/// them: a valid header with the next sequence number and the link of
/// the one before, up to a hop off the device. (It reads no trailer.)
pub fn walk(image: &[u8], mut head: SegPos, mut link: u32, mut seq: u64) -> Vec<SegPos> {
    let n = layout_of(image).n_segments;
    let mut out = Vec::new();
    while head.slot < n {
        let off = head.header(image);
        if !header_valid(image, off)
            || seg(image, off, SegField::Seq) != seq
            || seg(image, off, SegField::PrevLink) != u64::from(link)
        {
            break;
        }
        out.push(head);
        let crc = seg(image, off, SegField::Crc) as u32;
        (head, link, seq) = (head.successor(image), crc, seq + 1);
    }
    out
}

/// Segments 1, 2, … of a log that starts at the back of slot 0.
pub fn chain(image: &[u8]) -> Vec<SegPos> {
    walk(image, SegPos::first(image, 0), 0, 1)
}

pub fn put_u32(image: &mut [u8], at: usize, v: u32) {
    image[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the CRC of the segment header at `off` alone, so an edit
/// under it passes as a sealed header. Returns the new CRC (the
/// segment's link). The trailer keeps the old one: a segment the
/// watermark does not cover then ends the log ([`reseal`] moves both).
pub fn reseal_header(image: &mut [u8], off: usize) -> u32 {
    SegField::Crc.seal(&mut image[off..])
}

/// Recomputes the CRC of the header of the segment at `pos` and puts it
/// in the trailer too, so an edit under it passes as a sealed segment
/// whose body landed. Returns the new CRC.
pub fn reseal(image: &mut [u8], pos: SegPos) -> u32 {
    let crc = reseal_header(image, pos.header(image));
    let trailer = pos.trailer(image);
    put_u32(image, trailer, crc);
    crc
}

pub fn header_valid(image: &[u8], off: usize) -> bool {
    seg(image, off, SegField::Magic) == SEGMENT_MAGIC && SegField::Crc.sealed(&image[off..])
}

/// Byte range of the summary of the segment at `pos`: right in front of
/// its header.
pub fn summary_range(image: &[u8], pos: SegPos) -> std::ops::Range<usize> {
    let end = pos.header(image);
    end - seg(image, end, SegField::SummaryLen) as usize..end
}

/// Makes an edit of the summary of the segment at `pos` pass:
/// recomputes the summary CRC in the header, then the header's own and
/// the trailer. The header's CRC is the link its successor checks, so
/// the log ends behind this segment.
pub fn reseal_summary(image: &mut [u8], pos: SegPos) {
    let crc = crc32(&image[summary_range(image, pos)]);
    let at = pos.header(image);
    SegField::SummaryCrc.put(&mut image[at..], crc.into());
    reseal(image, pos);
}

/// The records of the summary of the segment at `pos`, each with its
/// byte range in the image: a decode walk. A record has one encoding,
/// so its range is as long as [`Record::encoded_len`] says.
pub fn summary_records(image: &[u8], pos: SegPos) -> Vec<(Range<usize>, Record)> {
    let summary = summary_range(image, pos);
    let mut at = summary.start;
    let records = Record::decode_all(&image[summary.clone()]).unwrap();
    let walk: Vec<_> = (records.into_iter())
        .map(|rec| {
            let range = at..at + rec.encoded_len();
            at = range.end;
            (range, rec)
        })
        .collect();
    assert_eq!(at, summary.end, "the records cover the summary");
    walk
}

/// `rec`'s encoding.
pub fn encode(rec: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    rec.encode(&mut buf);
    buf
}

/// Puts `bytes` in place of `image[range]`, a range inside the summary
/// of the segment at `pos` (or empty at its end), moves the front of
/// the summary along so that it still ends at the header, and makes
/// the edit pass ([`reseal_summary`]). The meta record must not take
/// another sector: the successor's position follows from its length.
pub fn splice_summary(image: &mut [u8], pos: SegPos, range: Range<usize>, bytes: &[u8]) {
    let summary = summary_range(image, pos);
    assert!(summary.start <= range.start && range.end <= summary.end);
    let edited = [
        &image[summary.start..range.start],
        bytes,
        &image[range.end..summary.end],
    ]
    .concat();
    assert!(
        (H_LEN + edited.len()).div_ceil(SECTOR) <= (H_LEN + summary.len()).div_ceil(SECTOR),
        "the meta record at {pos:?} outgrows its sectors"
    );
    image[summary.end - edited.len()..summary.end].copy_from_slice(&edited);
    SegField::SummaryLen.put(&mut image[summary.end..], edited.len() as u64);
    reseal_summary(image, pos);
}

/// Recomputes the CRC of the superblock.
pub fn reseal_superblock(image: &mut [u8]) {
    SbField::Crc.seal(image);
}

/// Where the header of the checkpoint area at `area` is: sector 1 for
/// area A, which starts where the superblock's region ends (slot 0's
/// offset less both areas), sector 2 for area B (`ld_core::CKPT_HEADER_AT`).
pub fn ckpt_header(image: &[u8], area: usize) -> usize {
    let sb = |f: SbField| f.get(image);
    let area_a = sb(SbField::DataStart) - 2 * sb(SbField::CkptAreaSize);
    ld_core::CKPT_HEADER_AT[usize::from(area as u64 != area_a)] as usize
}

/// Byte offset of entry `i` of the directory of the checkpoint at
/// `area`: at the area's start, one a slab.
pub fn dir_entry(area: usize, i: usize) -> usize {
    area + i * DIR_ENTRY_LEN
}

/// The column descriptors a slab starts with: its block columns, then
/// its list columns.
pub const SLAB_COLUMNS: usize = ld_core::BLOCK_COLUMNS.len() + ld_core::LIST_COLUMNS.len();

/// Byte offset of the descriptor of column `col` of the table whose
/// descriptors start at `table` (a slab: its block columns, then its
/// list columns; the dedup table).
pub fn column(table: usize, col: usize) -> usize {
    table + col * COLUMN_DESC_LEN
}

/// Byte ranges of the slabs of the checkpoint at `area`, from its
/// directory (which must be intact).
pub fn slab_ranges(image: &[u8], area: usize) -> Vec<std::ops::Range<usize>> {
    let shards = ckpt(image, area, CkptField::SnapShards) as usize;
    let mut start = dir_entry(area, shards);
    (0..shards)
        .map(|i| {
            let len = DirField::SlabLen.get(&image[dir_entry(area, i)..]) as usize;
            let range = start..start + len;
            start = range.end;
            range
        })
        .collect()
}

/// Makes an edit of slab `i` of the checkpoint at `area` pass:
/// recomputes the slab's CRC in its directory entry, then the
/// directory's and the header's ([`reseal_dir`]).
pub fn reseal_slab(image: &mut [u8], area: usize, i: usize) {
    let slab_crc = crc32(&image[slab_ranges(image, area)[i].clone()]);
    DirField::SlabCrc.put(&mut image[dir_entry(area, i)..], slab_crc.into());
    reseal_dir(image, area);
}

/// Makes an edit of the directory of the checkpoint at `area` pass:
/// recomputes its CRC in the header, then the header's own.
pub fn reseal_dir(image: &mut [u8], area: usize) {
    let shards = ckpt(image, area, CkptField::SnapShards) as usize;
    let dir_crc = crc32(&image[area..dir_entry(area, shards)]);
    let header = ckpt_header(image, area);
    CkptField::DirCrc.put(&mut image[header..], dir_crc.into());
    reseal_checkpoint(image, area);
}

/// Byte range of the dedup table of the checkpoint at `area`: behind
/// its last slab, to the end of the body.
pub fn dedup_range(image: &[u8], area: usize) -> std::ops::Range<usize> {
    let slabs = slab_ranges(image, area);
    let start = slabs.last().expect("a slab or more").end;
    start..area + ckpt(image, area, CkptField::BodyLen) as usize
}

/// Makes an edit of the dedup table of the checkpoint at `area` pass:
/// recomputes its CRC in the header, then the header's own.
pub fn reseal_dedup(image: &mut [u8], area: usize) {
    let crc = crc32(&image[dedup_range(image, area)]);
    let header = ckpt_header(image, area);
    CkptField::DedupCrc.put(&mut image[header..], crc.into());
    reseal_checkpoint(image, area);
}

/// Recomputes the CRC of the header of the checkpoint at `area`.
pub fn reseal_checkpoint(image: &mut [u8], area: usize) {
    let header = ckpt_header(image, area);
    CkptField::Crc.seal(&mut image[header..]);
}

// A device that parks chosen writes (docs/INVARIANTS.md I4).

/// Whether `buf`, a write, is a seal's meta record: it ends in a
/// segment header.
pub fn is_meta_record(buf: &[u8]) -> bool {
    let at = buf.len().wrapping_sub(H_LEN);
    buf.len() >= H_LEN && header_valid(buf, at)
}

/// How long the choreography waits for a step before it calls the
/// test failed (a broken protocol shows as a step that never comes).
pub const PATIENCE: Duration = Duration::from_secs(20);

/// How long the choreography gives something that must not happen to
/// happen. Only a correct run waits it out.
pub const GRACE: Duration = Duration::from_millis(250);

#[derive(Debug, Default)]
pub struct ParkState {
    /// A write that starts in this range waits for the verdict.
    pub range: Option<Range<u64>>,
    /// If set, only a write issued on the thread of this name does.
    pub thread: Option<&'static str>,
    /// `Some(true)` lets it go on, `Some(false)` fails it.
    pub verdict: Option<bool>,
    pub parked: usize,
    /// Offset and length of each write that has returned, the
    /// barriers entered, and the writes that ended in a segment header
    /// (each seal's meta record; docs/RECOVERY.md).
    pub writes: Vec<(u64, usize)>,
    pub flushes: usize,
    pub metas: usize,
}

impl ParkState {
    /// Whether a write into `range` has returned.
    pub fn wrote_into(&self, range: &Range<u64>) -> bool {
        self.writes.iter().any(|(at, _)| range.contains(at))
    }

    /// The seals whose meta record has returned.
    pub fn seals(&self) -> usize {
        self.metas
    }
}

/// A device that parks the writes into a chosen range until the test
/// says how they end. The medium is the writes that returned: a parked
/// one is not on it.
#[derive(Debug)]
pub struct ParkDisk {
    inner: MemDisk,
    pub state: Mutex<ParkState>,
    cv: Condvar,
}

impl ParkDisk {
    pub fn new(capacity: u64) -> Self {
        ParkDisk {
            inner: MemDisk::new(capacity),
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Parks every write into `range` from now on (`verdict` `None`) or
    /// ends it at once, and forgets the writes so far.
    pub fn park(&self, range: Range<u64>, verdict: Option<bool>) {
        let mut st = self.state.lock();
        st.range = Some(range);
        st.thread = None;
        st.verdict = verdict;
        st.writes.clear();
        st.metas = 0;
    }

    /// [`park`](Self::park)s the writes into `range` that are issued on
    /// the thread named `thread`; everybody else's go through.
    pub fn park_on(&self, thread: &'static str, range: Range<u64>) {
        self.park(range, None);
        self.state.lock().thread = Some(thread);
    }

    pub fn release(&self, ok: bool) {
        self.state.lock().verdict = Some(ok);
        self.cv.notify_all();
    }

    /// Waits for `done`, which has to come.
    pub fn wait_for(&self, what: &str, done: impl Fn(&ParkState) -> bool) {
        let mut st = self.state.lock();
        while !done(&st) {
            let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
            if timed_out {
                drop(guard);
                panic!("{what}: never happened");
            }
            st = guard;
        }
    }

    /// Whether `holds` stays true for [`GRACE`].
    pub fn stays(&self, holds: impl Fn(&ParkState) -> bool) -> bool {
        let deadline = Instant::now() + GRACE;
        let mut st = self.state.lock();
        while holds(&st) {
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            st = self.cv.wait_timeout(st, deadline - now).0;
        }
        false
    }

    /// The image a power cut leaves now.
    pub fn cut(&self) -> MemDisk {
        MemDisk::from_image(self.inner.snapshot())
    }
}

/// Lets parked writes go when the test ends, also by a failed assertion.
pub struct ReleaseOnDrop<'a>(pub &'a ParkDisk);

impl Drop for ReleaseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.release(true);
    }
}

impl BlockDevice for ParkDisk {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        let mut st = self.state.lock();
        let mine = st.thread.is_none() || st.thread == std::thread::current().name();
        if mine && st.range.as_ref().is_some_and(|r| r.contains(&offset)) {
            st.parked += 1;
            self.cv.notify_all();
            while st.verdict.is_none() {
                let (guard, timed_out) = self.cv.wait_timeout(st, PATIENCE);
                if timed_out {
                    return Err(DiskError::Io(format!("write at {offset}: no verdict")));
                }
                st = guard;
            }
            st.parked -= 1;
            if st.verdict == Some(false) {
                return Err(DiskError::Io(format!("write at {offset} failed")));
            }
        }
        self.inner.write_at(offset, buf)?;
        st.writes.push((offset, buf.len()));
        st.metas += usize::from(is_meta_record(buf));
        self.cv.notify_all();
        Ok(())
    }
    fn flush(&self) -> ld_disk::Result<()> {
        self.state.lock().flushes += 1;
        self.cv.notify_all();
        Ok(())
    }
}
