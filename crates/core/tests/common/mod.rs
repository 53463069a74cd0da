//! What the suites share: where the on-disk fields sit and how to make
//! an edit under them pass its checksum again (the image-forging
//! suites), the blocks an overwrite churn rotates over, the crash
//! suites' seed convention, and a device that parks chosen writes (the
//! suites that own a segment write in flight).
//!
//! A crash suite's oracle is not here: the LD-level suites include the
//! reference model beside this file, `model.rs` (docs/INVARIANTS.md I7,
//! I8), with a `#[path]` of their own; the file-system suites use
//! `MinixFs::verify`.

#![allow(dead_code)] // each suite uses its own subset

use ld_core::{BlockId, Ctx, ListId, Lld, Position, Record, SegField, SEGMENT_HEADER_LEN};
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

// Segment header fields, from their one declaration
// (`ld_core::SEGMENT_HEADER`, see `segment.rs`).
pub const H_SEQ: usize = SegField::Seq.at();
/// The data area's size in 512-byte sectors.
pub const H_N_SECTORS: usize = SegField::NSectors.at();
pub const H_SUMMARY_LEN: usize = SegField::SummaryLen.at();
pub const H_SUMMARY_CRC: usize = SegField::SummaryCrc.at();
pub const H_NEXT: usize = SegField::NextSlot.at();
pub const H_PREV: usize = SegField::PrevLink.at();
/// `seq` less the last segment a barrier vouched for at the seal.
pub const H_COVERED: usize = SegField::Covered.at();
pub const H_CRC: usize = SegField::Crc.at();
/// The header's length: the last bytes of a seal's meta record, its
/// second write.
pub const H_LEN: usize = SEGMENT_HEADER_LEN;
/// The trailer behind a data area: the header's CRC.
pub const TRAILER_LEN: usize = 4;
/// The unit a segment's base, its data area and its addresses count.
pub const SECTOR: usize = 512;
pub use ld_core::SEGMENT_MAGIC;

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
        let n_sectors = u32_at(image, self.header(image) + H_N_SECTORS);
        self.sector(image, self.base + n_sectors)
    }

    /// Sectors of the meta record the header names: its records and
    /// itself.
    pub fn meta_sectors(&self, image: &[u8]) -> u32 {
        let summary = u32_at(image, self.header(image) + H_SUMMARY_LEN) as usize;
        (H_LEN + summary).div_ceil(SECTOR) as u32
    }

    /// Where the header says the log goes on: behind the data area and
    /// the trailer's sector and below the meta record, or the ends of
    /// another slot.
    pub fn successor(&self, image: &[u8]) -> SegPos {
        let off = self.header(image);
        let next = u32_at(image, off + H_NEXT);
        if next != self.slot {
            return SegPos::first(image, next);
        }
        SegPos {
            slot: next,
            base: self.base + u32_at(image, off + H_N_SECTORS) + 1,
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
            || u64_at(image, off + H_SEQ) != seq
            || u32_at(image, off + H_PREV) != link
        {
            break;
        }
        out.push(head);
        (head, link, seq) = (head.successor(image), u32_at(image, off + H_CRC), seq + 1);
    }
    out
}

/// Segments 1, 2, … of a log that starts at the back of slot 0.
pub fn chain(image: &[u8]) -> Vec<SegPos> {
    walk(image, SegPos::first(image, 0), 0, 1)
}

pub fn u32_at(image: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
}

pub fn u64_at(image: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
}

pub fn put_u32(image: &mut [u8], at: usize, v: u32) {
    image[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the CRC of the segment header at `off` alone, so an edit
/// under it passes as a sealed header. Returns the new CRC (the
/// segment's link). The trailer keeps the old one: a segment the
/// watermark does not cover then ends the log ([`reseal`] moves both).
pub fn reseal_header(image: &mut [u8], off: usize) -> u32 {
    let crc = crc32(&image[off..off + H_CRC]);
    put_u32(image, off + H_CRC, crc);
    crc
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
    u64::from(u32_at(image, off)) == SEGMENT_MAGIC
        && crc32(&image[off..off + H_CRC]) == u32_at(image, off + H_CRC)
}

/// Byte range of the summary of the segment at `pos`: right in front of
/// its header.
pub fn summary_range(image: &[u8], pos: SegPos) -> std::ops::Range<usize> {
    let end = pos.header(image);
    end - u32_at(image, end + H_SUMMARY_LEN) as usize..end
}

/// Makes an edit of the summary of the segment at `pos` pass:
/// recomputes the summary CRC in the header, then the header's own and
/// the trailer. The header's CRC is the link its successor checks, so
/// the log ends behind this segment.
pub fn reseal_summary(image: &mut [u8], pos: SegPos) {
    let crc = crc32(&image[summary_range(image, pos)]);
    put_u32(image, pos.header(image) + H_SUMMARY_CRC, crc);
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
    put_u32(image, summary.end + H_SUMMARY_LEN, edited.len() as u32);
    reseal_summary(image, pos);
}

// Checkpoint header fields (see `checkpoint.rs`). A header sits alone
// in its sector of the superblock's region ([`ckpt_header`]).
pub const C_LINK: usize = 4;
pub const C_SEQ: usize = 8;
pub const C_SNAP_SHARDS: usize = 40;
pub const C_DIR_CRC: usize = 44;
pub const C_N_DEDUP: usize = 48;
pub const C_DEDUP_CRC: usize = 52;
pub const C_HEAD_SLOT: usize = 56;
pub const C_HEAD_BASE: usize = 60;
pub const C_HEAD_TOP: usize = 64;
/// The body's length: directory, slabs and dedup table, from the
/// area's start.
pub const C_BODY_LEN: usize = 68;
pub const C_CRC: usize = 76;
/// The header's length.
pub const C_LEN: usize = 80;
/// A directory entry, one a slab, at the area's start; the slabs follow
/// the directory back to back, and the dedup table the slabs.
pub const C_DIR_ENTRY: usize = 24;
// In a directory entry: the slab's CRC and its length in bytes.
pub const C_DIR_SLAB_CRC: usize = 16;
pub const C_DIR_SLAB_LEN: usize = 20;
/// The dedup table's four column descriptors; its rows follow, the
/// first in full.
pub const C_DEDUP_DESC: usize = 40;

// Superblock: the geometry fields, and the CRC over the bytes in front
// of it (see `layout.rs`).
pub const S_N_SEGMENTS: usize = 20;
pub const S_DATA_START: usize = 24;
pub const S_CKPT_AREA_SIZE: usize = 32;
pub const S_MAX_BLOCKS: usize = 40;
pub const S_MAX_LISTS: usize = 48;
pub const S_CRC: usize = 60;

/// Recomputes the CRC of the superblock.
pub fn reseal_superblock(image: &mut [u8]) {
    let crc = crc32(&image[..S_CRC]);
    put_u32(image, S_CRC, crc);
}

/// Where the header of the checkpoint area at `area` is: sector 1 for
/// area A, which starts where the superblock's region ends (slot 0's
/// offset less both areas), sector 2 for area B (`ld_core::CKPT_HEADER_AT`).
pub fn ckpt_header(image: &[u8], area: usize) -> usize {
    let area_a = u64_at(image, S_DATA_START) - 2 * u64_at(image, S_CKPT_AREA_SIZE);
    ld_core::CKPT_HEADER_AT[usize::from(area as u64 != area_a)] as usize
}

/// Byte ranges of the slabs of the checkpoint at `area`, from its
/// directory (which must be intact).
pub fn slab_ranges(image: &[u8], area: usize) -> Vec<std::ops::Range<usize>> {
    let shards = u32_at(image, ckpt_header(image, area) + C_SNAP_SHARDS) as usize;
    let mut start = area + shards * C_DIR_ENTRY;
    (0..shards)
        .map(|i| {
            let entry = area + i * C_DIR_ENTRY;
            let range = start..start + u32_at(image, entry + C_DIR_SLAB_LEN) as usize;
            start = range.end;
            range
        })
        .collect()
}

/// Makes an edit of slab `i` of the checkpoint at `area` pass:
/// recomputes the slab's CRC in its directory entry, the directory's
/// CRC in the header, then the header's own.
pub fn reseal_slab(image: &mut [u8], area: usize, i: usize) {
    let slab_crc = crc32(&image[slab_ranges(image, area)[i].clone()]);
    put_u32(image, area + i * C_DIR_ENTRY + C_DIR_SLAB_CRC, slab_crc);
    let header = ckpt_header(image, area);
    let shards = u32_at(image, header + C_SNAP_SHARDS) as usize;
    let dir_crc = crc32(&image[area..area + shards * C_DIR_ENTRY]);
    put_u32(image, header + C_DIR_CRC, dir_crc);
    reseal_checkpoint(image, area);
}

/// Byte range of the dedup table of the checkpoint at `area`: behind
/// its last slab, to the end of the body.
pub fn dedup_range(image: &[u8], area: usize) -> std::ops::Range<usize> {
    let slabs = slab_ranges(image, area);
    let start = slabs.last().expect("a slab or more").end;
    start..area + u64_at(image, ckpt_header(image, area) + C_BODY_LEN) as usize
}

/// Makes an edit of the dedup table of the checkpoint at `area` pass:
/// recomputes its CRC in the header, then the header's own.
pub fn reseal_dedup(image: &mut [u8], area: usize) {
    let crc = crc32(&image[dedup_range(image, area)]);
    put_u32(image, ckpt_header(image, area) + C_DEDUP_CRC, crc);
    reseal_checkpoint(image, area);
}

/// Recomputes the CRC of the header of the checkpoint at `area`.
pub fn reseal_checkpoint(image: &mut [u8], area: usize) {
    let header = ckpt_header(image, area);
    let crc = crc32(&image[header..header + C_CRC]);
    put_u32(image, header + C_CRC, crc);
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
