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

use ld_core::{BlockId, Ctx, ListId, Lld, Position, Record};
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

// Segment header fields (see `segment.rs`).
pub const H_SEQ: usize = 8;
/// The data area's size in 512-byte sectors.
pub const H_N_SECTORS: usize = 16;
pub const H_SUMMARY_LEN: usize = 20;
pub const H_SUMMARY_CRC: usize = 24;
pub const H_NEXT: usize = 28;
pub const H_PREV: usize = 32;
pub const H_CRC: usize = 40;
/// The header's length: a seal writes this much at its base, then the
/// body from the next sector.
pub const H_LEN: usize = 44;
/// The unit a segment's base, its data area and its addresses count:
/// the header takes one, and the body starts at the next.
pub const SECTOR: usize = 512;
pub const SEGMENT_MAGIC: u64 = 0x4C44_5345_4739_3936;

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
/// The body's length: directory, slabs and dedup table, from the
/// area's start.
pub const C_BODY_LEN: usize = 64;
pub const C_CRC: usize = 72;
/// The header's length.
pub const C_LEN: usize = 76;
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

pub fn u32_at(image: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
}

pub fn u64_at(image: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
}

pub fn put_u32(image: &mut [u8], at: usize, v: u32) {
    image[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the CRC of the segment header at `off`, so an edit under
/// it passes as a sealed header. Returns the new CRC (the segment's
/// link).
pub fn reseal(image: &mut [u8], off: usize) -> u32 {
    let crc = crc32(&image[off..off + H_CRC]);
    put_u32(image, off + H_CRC, crc);
    crc
}

pub fn header_valid(image: &[u8], off: usize) -> bool {
    u64_at(image, off) == SEGMENT_MAGIC
        && crc32(&image[off..off + H_CRC]) == u32_at(image, off + H_CRC)
}

/// Byte range of the summary of the segment whose header is at `off`:
/// behind the header's sector and the data area's.
pub fn summary_range(image: &[u8], off: usize) -> std::ops::Range<usize> {
    let start = off + (1 + u32_at(image, off + H_N_SECTORS) as usize) * SECTOR;
    start..start + u32_at(image, off + H_SUMMARY_LEN) as usize
}

/// How many sectors the segment whose header is at `off` takes, header
/// and summary included: its in-slot successor's base is its own plus
/// this.
pub fn segment_sectors(image: &[u8], off: usize) -> u32 {
    let summary = u32_at(image, off + H_SUMMARY_LEN).div_ceil(SECTOR as u32);
    1 + u32_at(image, off + H_N_SECTORS) + summary
}

/// Makes an edit of the summary of the segment at `off` pass: recomputes
/// the summary CRC in the header, then the header's own. The header's
/// CRC is the link its successor checks, so the log ends behind this
/// segment.
pub fn reseal_summary(image: &mut [u8], off: usize) {
    let crc = crc32(&image[summary_range(image, off)]);
    put_u32(image, off + H_SUMMARY_CRC, crc);
    reseal(image, off);
}

/// The records of the summary of the segment at `off`, each with its
/// byte range in the image: a decode walk. A record has one encoding,
/// so its range is as long as [`Record::encoded_len`] says.
pub fn summary_records(image: &[u8], off: usize) -> Vec<(Range<usize>, Record)> {
    let summary = summary_range(image, off);
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
/// of the segment at `off` (or empty at its end), moves the rest of the
/// summary along, and makes the edit pass ([`reseal_summary`]). The
/// summary must not take another sector: the successor's position
/// follows from its length.
pub fn splice_summary(image: &mut [u8], off: usize, range: Range<usize>, bytes: &[u8]) {
    let summary = summary_range(image, off);
    assert!(summary.start <= range.start && range.end <= summary.end);
    let edited = [
        &image[summary.start..range.start],
        bytes,
        &image[range.end..summary.end],
    ]
    .concat();
    assert!(
        edited.len().div_ceil(SECTOR) <= summary.len().div_ceil(SECTOR),
        "the summary at {off} outgrows its sectors"
    );
    image[summary.start..summary.start + edited.len()].copy_from_slice(&edited);
    put_u32(image, off + H_SUMMARY_LEN, edited.len() as u32);
    reseal_summary(image, off);
}

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
    /// Offset and length of each write that has returned, and the
    /// barriers entered.
    pub writes: Vec<(u64, usize)>,
    pub flushes: usize,
}

impl ParkState {
    /// Whether a write into `range` has returned.
    pub fn wrote_into(&self, range: &Range<u64>) -> bool {
        self.writes.iter().any(|(at, _)| range.contains(at))
    }

    /// The segment headers that have returned (each seal's first
    /// write; docs/RECOVERY.md).
    pub fn seals(&self) -> usize {
        self.writes.iter().filter(|&&(_, len)| len == H_LEN).count()
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
        self.cv.notify_all();
        Ok(())
    }
    fn flush(&self) -> ld_disk::Result<()> {
        self.state.lock().flushes += 1;
        self.cv.notify_all();
        Ok(())
    }
}
