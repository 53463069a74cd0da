//! The log chain's own failure modes. Recovery finds the suffix by
//! following `next_slot` from the checkpoint's head — to the room behind
//! a segment's data and below its meta record when that names the
//! segment's own slot, to the ends of another slot otherwise — and
//! accepts a segment only if its sequence number and `prev_link` fit and,
//! above every watermark, its trailer holds its header's CRC, so these
//! tests forge, tear and exhaust exactly those fields, inside a slot and
//! across slots.

mod common;

use common::*;
use ld_core::{
    CleanerConfig, Ctx, Lld, LldConfig, LldError, Position, Record, RecoveryReport, Timestamp,
};
use ld_disk::{DiskModel, MemDisk, SimDisk};

const BS: usize = 512;
/// Blocks per segment slot.
const BPS: usize = 16;
const SEG: usize = BPS * BS;

fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: SEG,
        max_blocks: Some(256),
        max_lists: Some(64),
        ..LldConfig::default()
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// Capacity of a device with exactly `slots` segment slots.
fn device_bytes(slots: u64) -> u64 {
    let layout = ld_core::Layout::compute(1 << 20, &config()).unwrap();
    layout.data_start + slots * SEG as u64
}

/// A `Write` record's extent field: first sector (counted from the
/// slot's start) and sector count.
fn extent(sector: u32, sectors: u32) -> u32 {
    sector << 8 | sectors
}

fn recover(image: &[u8]) -> Result<(Lld<MemDisk>, RecoveryReport), LldError> {
    Lld::recover_with(MemDisk::from_image(image.to_vec()), &config())
}

fn read_byte(ld: &Lld<MemDisk>, b: ld_core::BlockId) -> u8 {
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == buf[0]), "block holds mixed bytes");
    buf[0]
}

/// One block overwritten and flushed `n` times: segments 1..=n, each a
/// single `Write` record (the first also the allocation), a data block
/// and its trailer's sector from the front of the slot and a sector of
/// metadata from the back, so five to a slot.
fn image_with_segments(n: u8) -> (Vec<u8>, ld_core::BlockId) {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    for byte in 1..=n {
        ld.write(Ctx::Simple, b, &block(byte)).unwrap();
        ld.flush().unwrap();
    }
    let image = ld.into_device().into_image();
    let at: Vec<SegPos> = (0..u32::from(n))
        .map(|i| SegPos {
            slot: i / 5,
            base: i % 5 * 2,
            top: BPS as u32 - i % 5,
        })
        .collect();
    assert_eq!(chain(&image), at);
    (image, b)
}

/// (a) A CRC-valid header with the right sequence number sits exactly
/// where the tail points, but it was sealed after a different segment:
/// it is not replayed. The same forgery with the right link *is*
/// replayed, so the link is the only thing that kept it out. Once where
/// the tail points behind itself, once where it points at a fresh slot.
#[test]
fn stale_successor_is_not_replayed() {
    for (n, in_slot) in [(2u8, true), (5, false)] {
        let (image, b) = image_with_segments(n);
        let tail = *chain(&image).last().unwrap();
        let at = tail.successor(&image);
        assert_eq!(
            at.slot == tail.slot,
            in_slot,
            "{n} segments: the tail points at {at:?}"
        );
        let (from, to) = (tail.header(&image), at.header(&image));
        let next_seq = u64::from(n) + 1;

        // The tail's meta record, re-labelled as its successor's. Its
        // one record places the block by its sector in the slot, so the
        // copy gets a data block of its own and a record that says so.
        let mut forged = image.clone();
        forged.copy_within(from + H_LEN - BS..from + H_LEN, to + H_LEN - BS);
        let data = at.data(&forged);
        forged[data..data + BS].fill(9);
        let records = summary_records(&forged, at);
        let [(ref record, Record::Write { block, ts, aru, .. })] = records[..] else {
            panic!("one `Write` record: {records:?}");
        };
        let slot = extent(at.base, 1);
        let write = encode(&Record::Write {
            block,
            slot,
            ts,
            aru,
        });
        splice_summary(&mut forged, at, record.clone(), &write);
        SegField::Seq.put(&mut forged[to..], next_seq);
        SegField::NextSlot.put(&mut forged[to..], u64::from(u32::MAX));
        let link_of_tail = SegField::Crc.get(&image[from..]) as u32;

        SegField::PrevLink.put(&mut forged[to..], u64::from(link_of_tail ^ 1));
        reseal(&mut forged, at);
        assert!(header_valid(&forged, to));
        let (ld, report) = recover(&forged).unwrap();
        assert_eq!(report.segments_replayed, u32::from(n));
        assert_eq!(
            report.segments_scanned,
            u32::from(n) + 1,
            "{at:?} was probed"
        );
        assert_eq!(read_byte(&ld, b), n);

        SegField::PrevLink.put(&mut forged[to..], u64::from(link_of_tail));
        reseal(&mut forged, at);
        let (ld, report) = recover(&forged).unwrap();
        assert_eq!(
            report.segments_replayed,
            u32::from(n) + 1,
            "control: the right link is accepted"
        );
        assert_eq!(read_byte(&ld, b), 9);
    }
}

/// (b) The newest checkpoint area is torn: recovery starts from the
/// older area's head, walks the longer suffix and reaches the same
/// state as the untorn image.
#[test]
fn torn_newest_checkpoint_walks_from_the_older_head() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    let mut step = |ld: &Lld<MemDisk>, byte: u8| {
        let aru = ld.begin_aru().unwrap();
        let nb = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        ld.write(Ctx::Aru(aru), nb, &block(byte)).unwrap();
        ld.end_aru(aru).unwrap();
        ld.flush().unwrap();
        blocks.push((nb, byte));
    };
    for byte in 1..=3 {
        step(&ld, byte);
    }
    ld.checkpoint().unwrap(); // area A
    let older = ld.checkpoint_seq();
    for byte in 4..=8 {
        step(&ld, byte);
    }
    ld.checkpoint().unwrap(); // area B
    let newer = ld.checkpoint_seq();
    assert!(newer > older);
    for byte in 9..=10 {
        step(&ld, byte);
    }
    let image = ld.into_device().into_image();

    let (clean, clean_report) = recover(&image).unwrap();
    assert_eq!(clean_report.checkpoint_seq, newer);

    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let mut torn = image.clone();
    let ts = ckpt_header(&image, layout.ckpt_b as usize) + CkptField::Ts.at;
    torn[ts] ^= 0xFF;
    let (fallback, report) = recover(&torn).unwrap();
    assert_eq!(report.checkpoint_seq, older, "older area used");
    assert_eq!(
        u64::from(report.segments_replayed),
        u64::from(clean_report.segments_replayed) + (newer - older)
    );
    assert_eq!(report.segments_scanned, report.segments_replayed + 1);
    assert_eq!(
        fallback.list_blocks(Ctx::Simple, l).unwrap(),
        clean.list_blocks(Ctx::Simple, l).unwrap()
    );
    for &(nb, byte) in &blocks {
        assert_eq!(read_byte(&fallback, nb), byte);
        assert_eq!(read_byte(&clean, nb), byte);
    }
}

/// (c) A segment sealed while no slot was free and its own slot was
/// used up carries no pointer. After space is freed the log goes on in
/// whatever slot comes up, and recovery crosses that hop by probing
/// the back of every slot for the one header that links on.
#[test]
fn log_continues_past_a_segment_sealed_on_a_full_disk() {
    let cfg = LldConfig {
        cleaner: CleanerConfig {
            enabled: false, // cleaning happens where the test says
            min_free_segments: 2,
            target_free_segments: 2,
            ..CleanerConfig::default()
        },
        // More identifiers than the slots hold blocks: the disk fills
        // up, not the block table (a slot holds 14 of these blocks and
        // their records since format 9, 12 before).
        max_blocks: Some(512),
        ..config()
    };
    // Enough slots that the seals below stay under the suffix bound:
    // this test wants no checkpoint but its own.
    let ld = Lld::format(MemDisk::new(device_bytes(24)), &cfg).unwrap();
    let n = ld.n_segments();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    let fill = |ld: &Lld<MemDisk>, blocks: &mut Vec<ld_core::BlockId>| {
        ld.new_block(Ctx::Simple, l, Position::First)
            .and_then(|nb| ld.write(Ctx::Simple, nb, &block(0xA0)).map(|()| nb))
            .map(|nb| blocks.push(nb))
    };
    while ld.free_segments() > 3 {
        fill(&ld, &mut blocks).unwrap();
    }
    // Empty the three oldest slots and cover that with a checkpoint
    // while slots are still free: those three are what the cleaner can
    // hand back later without another checkpoint.
    let (dead, mut kept): (Vec<_>, Vec<_>) = blocks
        .iter()
        .partition(|&&b| ld.block_info(b).unwrap().addr.unwrap().segment.get() < 3);
    for &d in &dead {
        ld.delete_block(Ctx::Simple, d).unwrap();
    }
    ld.checkpoint().unwrap();
    let covered = ld.checkpoint_seq();
    // Fill up. The operation that finds the disk full leaves the last
    // free slot unopened: only a deletion may take it.
    loop {
        match fill(&ld, &mut kept) {
            Ok(()) => {}
            Err(LldError::DiskFull) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(ld.free_segments(), 1);
    let last = kept.pop().unwrap();
    if ld.block_info(last).is_some() {
        ld.delete_block(Ctx::Simple, last).unwrap();
    }
    // Deletions, each flushed: two blocks a segment, through what is
    // left of the open slot and through the last free one, until a seal
    // finds no room behind itself and nowhere else to point.
    let mut deletions = 0;
    loop {
        ld.delete_block(Ctx::Simple, kept.pop().unwrap()).unwrap();
        deletions += 1;
        match ld.flush() {
            Ok(()) => assert!(deletions < 2 * BPS, "the disk never ran full"),
            Err(LldError::DiskFull) => break,
            Err(e) => panic!("{e}"),
        }
    }
    assert_eq!(ld.free_segments(), 0);

    // Free the emptied, covered slots and write on.
    ld.run_cleaner().unwrap();
    assert_eq!(ld.checkpoint_seq(), covered, "no checkpoint since");
    assert!(ld.free_segments() >= 2);
    let nb = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, nb, &block(0xB1)).unwrap();
    ld.flush().unwrap();
    let members = ld.list_blocks(Ctx::Simple, l).unwrap();

    let image = ld.into_device().into_image();
    let pointerless: Vec<u64> = (0..n)
        .flat_map(|slot| (1..=BPS as u32).map(move |top| (slot, top)))
        .map(|(slot, top)| SegPos::first(&image, slot).sector(&image, top) - H_LEN)
        .filter(|&off| {
            header_valid(&image, off)
                && SegField::NextSlot.get(&image[off..]) == u64::from(u32::MAX)
        })
        .map(|off| SegField::Seq.get(&image[off..]))
        .collect();
    assert_eq!(pointerless.len(), 1, "one segment sealed with no slot free");
    assert!(
        pointerless[0] > covered,
        "and the checkpoint does not cover it"
    );

    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert_eq!(report.checkpoint_seq, covered);
    assert_eq!(
        u64::from(report.segments_replayed),
        pointerless[0] - covered + 1,
        "up to the pointerless segment, and its successor"
    );
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), members);
    assert_eq!(read_byte(&ld2, nb), 0xB1);
    for &k in kept.iter().filter(|&&k| k != nb) {
        assert_eq!(read_byte(&ld2, k), 0xA0);
    }
}

/// (d) Pointers recomputed under valid CRCs to lead out of the device,
/// back into the chain or behind a segment where nothing fits: a typed
/// error or a log that ends there, never a panic or a loop. `u32::MAX`
/// is the one value that is not hostile.
#[test]
fn hostile_pointers_are_corrupt_not_fatal() {
    // Slots 0 and 1 hold five segments each, slot 2 the last two.
    let (image, b) = image_with_segments(12);
    let n = recover(&image).unwrap().0.n_segments();
    let at = chain(&image);
    let tail = at[11].header(&image);
    assert_eq!(
        SegField::NextSlot.get(&image[tail..]) as u32,
        2,
        "the tail goes on behind itself"
    );
    for ptr in [n, n + 5, u32::MAX - 1, 0, 1] {
        let mut hostile = image.clone();
        SegField::NextSlot.put(&mut hostile[tail..], u64::from(ptr));
        reseal(&mut hostile, at[11]);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "tail -> {ptr}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    let mut pointerless = image.clone();
    SegField::NextSlot.put(&mut pointerless[tail..], u64::from(u32::MAX));
    reseal(&mut pointerless, at[11]);
    let (ld, report) = recover(&pointerless).unwrap();
    assert_eq!(report.segments_replayed, 12);
    assert_eq!(read_byte(&ld, b), 12);

    // Mid-chain: segment 10, the last of slot 1, points back at slot 0.
    // The walk ends at segment 10 (segment 11 no longer links to the
    // edited header), whose pointer names a slot the chain itself
    // occupies.
    let mid = at[9].header(&image);
    assert_eq!(SegField::NextSlot.get(&image[mid..]), 2);
    let mut hostile = image.clone();
    SegField::NextSlot.put(&mut hostile[mid..], 0);
    reseal(&mut hostile, at[9]);
    assert!(matches!(recover(&hostile), Err(LldError::Corrupt(_))));

    // The same segment claiming that the log goes on behind it, where
    // one block is left: no writer seals that, so it is no segment, and
    // the log ends in front of it.
    let mut hostile = image.clone();
    SegField::NextSlot.put(&mut hostile[mid..], 1);
    reseal(&mut hostile, at[9]);
    let (ld, report) = recover(&hostile).unwrap();
    assert_eq!(report.segments_replayed, 9);
    assert_eq!(read_byte(&ld, b), 9);

    // Records recomputed under valid CRCs, on the tail (a resealed
    // header changes the link its successor checks). Its one record
    // places the block at the segment's one data sector.
    let records = summary_records(&image, at[11]);
    let [(
        ref record,
        Record::Write {
            block,
            slot,
            ts,
            aru,
        },
    )] = records[..]
    else {
        panic!("a `Write`: {records:?}");
    };
    let data = at[11].base;
    assert_eq!(slot, extent(data, 1));
    // One sector past the segment's data area, in front of it, more
    // sectors than a block has, and where `Layout::block_offset` would
    // overflow.
    for slot in [
        extent(data + 1, 1),
        extent(data, 2),
        extent(data - 1, 1),
        extent(data - 1, 2),
        u32::MAX,
    ] {
        let mut hostile = image.clone();
        let write = encode(&Record::Write {
            block,
            slot,
            ts,
            aru,
        });
        splice_summary(&mut hostile, at[11], record.clone(), &write);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "write at block {slot}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    // A second `Link` of the block, which is on its list already: what
    // the live path refuses, replay refuses.
    let link = encode(&Record::Link {
        list: ld.block_info(b).unwrap().list.unwrap(),
        block: b,
        pred: None,
        ts: Timestamp::new(1_000),
        aru: None,
    });
    let mut hostile = image.clone();
    let end = record.end;
    splice_summary(&mut hostile, at[11], end..end, &link);
    match recover(&hostile) {
        Err(LldError::Corrupt(msg)) => assert!(msg.contains("is already on list"), "{msg}"),
        other => panic!("second link: {:?}", other.map(|(_, r)| r)),
    }

    // A superblock that claims slots the device does not have: recovery
    // sizes its per-slot tables by that count.
    for claim in [n + 1, u32::MAX] {
        let mut hostile = image.clone();
        SbField::NSegments.put(&mut hostile, u64::from(claim));
        reseal_superblock(&mut hostile);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "{claim} slots: {:?}",
            got.map(|(_, r)| r)
        );
        let probed = Lld::probe(&MemDisk::from_image(hostile));
        assert!(matches!(probed, Err(LldError::Corrupt(_))), "{claim} slots");
    }
}

/// (e) The scan phase reads a slot's metadata run, not a header per
/// segment, on a small device and on one sixteen times its size.
#[test]
fn scan_reads_follow_the_suffix_not_the_device() {
    let mut seen = Vec::new();
    for slots in [64u64, 1024] {
        let ld = Lld::format(MemDisk::new(device_bytes(slots)), &config()).unwrap();
        assert_eq!(u64::from(ld.n_segments()), slots);
        let l = ld.new_list(Ctx::Simple).unwrap();
        let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
        for byte in 1..=10u8 {
            ld.write(Ctx::Simple, b, &block(byte)).unwrap();
            ld.flush().unwrap();
        }
        let image = ld.into_device().into_image();

        let sim = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
        let (ld2, report) = Lld::recover_with(sim, &config()).unwrap();
        assert_eq!(report.segments_replayed, 10);
        // Outside the scan: one read of the superblock and both
        // (empty) checkpoint headers.
        let scan_reads = ld2.device().stats().snapshot().reads - 1;
        assert_eq!(scan_reads, u64::from(report.scan_reads));
        // Slot 0: a sector at the head, then the rest of its run. Slot
        // 1's run and the empty slot 2's back, one read each. The
        // trailer of segment 10, which no watermark covers.
        assert_eq!(scan_reads, 2 + 1 + 1 + 1, "{slots} slots");
        assert_eq!(report.segments_scanned, report.segments_replayed + 1);
        seen.push(scan_reads);
    }
    assert_eq!(seen[0], seen[1], "reads depend on the device size");
}

/// A device that records the offset and length of every read.
struct CountingDisk {
    inner: MemDisk,
    reads: ld_disk::Mutex<Vec<(u64, usize)>>,
}

impl CountingDisk {
    fn new(image: &[u8]) -> Self {
        CountingDisk {
            inner: MemDisk::from_image(image.to_vec()),
            reads: ld_disk::Mutex::new(Vec::new()),
        }
    }
}

impl ld_disk::BlockDevice for CountingDisk {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.reads.lock().push((offset, buf.len()));
        self.inner.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.inner.write_at(offset, buf)
    }
    fn flush(&self) -> ld_disk::Result<()> {
        self.inner.flush()
    }
}

/// (e') A suffix of 64 sync commits of two full 4 KiB blocks each, the
/// `net_sync` row's, across two slots: the scan reads each slot's run
/// of metadata in one or two reads and one trailer, at most six reads
/// for the 64 segments (format 10 made one a segment, 64 and more). An
/// empty suffix reads one sector, the probe at the head.
#[test]
fn a_slot_s_summaries_are_read_in_one_run() {
    const BIG: usize = 4096;
    let cfg = LldConfig {
        block_size: BIG,
        // 80 blocks: 35 of these segments to a slot, 18 sectors each.
        segment_bytes: 80 * BIG,
        max_blocks: Some(256),
        max_lists: Some(64),
        ..LldConfig::default()
    };
    let ld = Lld::format(MemDisk::new(24 << 20), &cfg).unwrap();
    assert!(ld.n_segments() > 64, "no checkpoint for the suffix bound");
    let l = ld.new_list(Ctx::Simple).unwrap();
    let pair = [(); 2].map(|()| ld.new_block(Ctx::Simple, l, Position::First).unwrap());
    ld.checkpoint().unwrap();
    let empty = ld.device().snapshot();
    for generation in 1..=64u8 {
        let aru = ld.begin_aru().unwrap();
        for b in pair {
            ld.write(Ctx::Aru(aru), b, &[generation; BIG]).unwrap();
        }
        ld.end_aru_sync(aru).unwrap();
    }
    assert_eq!(ld.free_segments(), ld.n_segments() - 2, "two slots");
    let image = ld.into_device().into_image();
    let layout = layout_of(&image);

    // The reads recovery makes at or past slot 0: the scan's.
    let scan = |image: &[u8]| {
        let (ld, report) = Lld::recover_with(CountingDisk::new(image), &cfg).unwrap();
        let reads = ld.device().reads.lock().clone();
        let slots: Vec<(u64, usize)> = (reads.into_iter())
            .filter(|&(at, _)| at >= layout.data_start)
            .collect();
        assert_eq!(slots.len(), report.scan_reads as usize, "{slots:?}");
        (ld, report, slots)
    };
    let (ld2, report, reads) = scan(&image);
    assert_eq!(report.segments_replayed, 64);
    assert!(reads.len() <= 6, "{} scan reads: {reads:?}", reads.len());
    let mut buf = vec![0u8; BIG];
    for b in pair {
        ld2.read(Ctx::Simple, b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 64));
    }

    let (_, report, reads) = scan(&empty);
    assert_eq!(report.segments_replayed, 0);
    assert_eq!(reads.len(), 1, "{reads:?}");
    assert_eq!(reads[0].1, SECTOR, "one sector at the head");
}

/// (e'') What a restart reads in front of the log: the superblock and
/// both checkpoint headers in one read of the first three sectors, then
/// the chosen area's directory, slabs and dedup table in one more, and
/// no byte of the other area. A header torn in its sector is refused
/// from the first read, and the other area's body is the second; a body
/// that fails its checksums costs one read more, the other area's.
#[test]
fn a_restart_reads_its_checkpoint_in_two_reads() {
    let cfg = config();
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    for byte in 1..=6u8 {
        let aru = ld.begin_aru().unwrap();
        let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        ld.write(Ctx::Aru(aru), b, &block(byte)).unwrap();
        ld.end_aru_tagged(aru, 7, 1, u64::from(byte)).unwrap();
        ld.flush().unwrap();
        if byte % 2 == 0 && byte < 6 {
            ld.checkpoint().unwrap(); // area A, then area B
        }
    }
    let image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let (a, b) = (layout.ckpt_a as usize, layout.ckpt_b as usize);
    let body = |image: &[u8], area: usize| {
        let len = ckpt(image, area, CkptField::BodyLen) as usize;
        (area as u64, len)
    };
    // The reads recovery makes in front of its first one at or past
    // slot 0, the checkpoint it loaded and that checkpoint's bytes.
    let front_reads = |image: &[u8]| {
        let (ld2, report) = Lld::recover_with(CountingDisk::new(image), &cfg).unwrap();
        let reads = ld2.device().reads.lock().clone();
        let front: Vec<(u64, usize)> = (reads.into_iter())
            .take_while(|&(at, _)| at < layout.data_start)
            .collect();
        (front, report.checkpoint_seq, report.snapshot_bytes)
    };
    let untouched = |reads: &[(u64, usize)], area: usize| {
        let other = area as u64..area as u64 + layout.ckpt_area_size;
        (reads.iter()).all(|&(at, len)| at + len as u64 <= other.start || at >= other.end)
    };

    let (reads, newer, bytes) = front_reads(&image);
    assert_eq!(reads, [(0, 3 * SECTOR), body(&image, b)]);
    assert!(untouched(&reads, a), "{reads:?}");
    assert_eq!(bytes, (CKPT_HEADER_LEN + body(&image, b).1) as u64);

    let mut torn = image.clone();
    let header_b = ckpt_header(&image, b);
    torn[header_b + 30..header_b + CKPT_HEADER_LEN].fill(0);
    let (reads, older, _) = front_reads(&torn);
    assert!(older > 0 && older < newer, "{older} of {newer}");
    assert_eq!(reads, [(0, 3 * SECTOR), body(&image, a)]);
    assert!(untouched(&reads, b), "{reads:?}");

    let mut torn = image.clone();
    torn[b + 3] ^= 0xFF; // the directory of area B
    let (reads, seq, _) = front_reads(&torn);
    assert_eq!(seq, older);
    assert_eq!(
        reads,
        [(0, 3 * SECTOR), body(&image, b), body(&image, a)],
        "one read more"
    );
}

/// (f) A crash keeps the meta record of the last seal in the middle of
/// a slot but not its body, or loses a seal whole while its in-slot
/// successor lands: the log ends in front of it, and what is flushed
/// after that recovery survives the next crash.
#[test]
fn torn_and_lost_segments_inside_a_slot_end_the_log() {
    let (image, b) = image_with_segments(4);
    let at = chain(&image);
    let (third, fourth) = (at[2], at[3]);
    let meta =
        |image: &[u8], pos: SegPos| pos.sector(image, pos.top - 1)..pos.sector(image, pos.top);

    // Torn: segment 3's meta record landed, its data block and trailer
    // did not, and nothing of segment 4 did. No watermark covers 3.
    let mut torn = image.clone();
    let body = third.data(&image)..third.trailer(&image) + SECTOR;
    torn[body].fill(0xEE);
    torn[meta(&image, fourth)].fill(0);
    // Lost: nothing of segment 3 landed; segment 4 behind it did.
    let mut lost = image.clone();
    lost[meta(&image, third)].fill(0);
    assert!(header_valid(&lost, fourth.header(&lost)));

    for (name, damaged, torn_tails) in [("torn", torn, 1), ("lost", lost, 0)] {
        let (ld, report) = recover(&damaged).unwrap();
        assert_eq!(report.segments_replayed, 2, "{name}");
        assert_eq!(report.torn_tails_detected, torn_tails, "{name}");
        assert_eq!(read_byte(&ld, b), 2, "{name}");
        // Two flushed overwrites. The first refills the damaged
        // position and ends where segment 4 begins, which (lost) has
        // the right sequence number and the wrong link; the second
        // lands on it.
        ld.write(Ctx::Simple, b, &block(7)).unwrap();
        ld.flush().unwrap();
        let (mid, report) = recover(&ld.device().snapshot()).unwrap();
        assert_eq!(report.segments_replayed, 3, "{name}");
        assert_eq!(read_byte(&mid, b), 7, "{name}");
        ld.write(Ctx::Simple, b, &block(8)).unwrap();
        ld.flush().unwrap();
        let again = ld.into_device().into_image();
        assert_eq!(chain(&again), at, "{name}: same positions");
        let (ld, report) = recover(&again).unwrap();
        assert_eq!(report.segments_replayed, 4, "{name}");
        assert_eq!(read_byte(&ld, b), 8, "{name}");
    }
}

/// (g) Format punches the header at the back of every slot and nothing
/// else, so the segments of the previous log further inside the slots
/// stay on the medium. None of them is replayed: not on the empty disk,
/// and not once the new log has written its way up to where they sit.
#[test]
fn reformat_over_in_slot_segments_recovers_empty() {
    let (image, _) = image_with_segments(12);
    let at = chain(&image);
    let ld = Lld::format(MemDisk::from_image(image), &config()).unwrap();
    let image = ld.into_device().into_image();
    let stale = at
        .iter()
        .filter(|&&pos| header_valid(&image, pos.header(&image)));
    assert_eq!(stale.count(), 12 - 3, "all but the three at a slot's back");
    let (ld, report) = recover(&image).unwrap();
    assert_eq!((report.segments_scanned, report.segments_replayed), (1, 0));
    assert_eq!(ld.allocated_block_count(), 0);

    // The same operations again: the new segment 1 ends where the old
    // one did, so the old segment 2 sits exactly where the log goes on,
    // with the right sequence number — and the link of another epoch.
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(0x77)).unwrap();
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    assert_eq!(chain(&image).len(), 1);
    let old = at[1].header(&image);
    assert!(header_valid(&image, old) && SegField::Seq.get(&image[old..]) == 2);
    let (ld, report) = recover(&image).unwrap();
    assert_eq!((report.segments_scanned, report.segments_replayed), (2, 1));
    assert_eq!(read_byte(&ld, b), 0x77);
}

/// (h) The checkpoint's head names a data base and a meta top inside a
/// slot. One that leaves no room for a segment between the two, or
/// whose top is past the slot, is a typed error; one that is in range
/// keeps its slot out of the free set although nothing in the slot is
/// live and nothing in it is replayed.
#[test]
fn checkpoint_head_inside_a_slot() {
    let cfg = config();
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    ld.delete_list(Ctx::Simple, l).unwrap();
    ld.checkpoint().unwrap();
    let free = ld.free_segments();
    let image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let area = layout.ckpt_a as usize;
    let header = ckpt_header(&image, area);
    assert_eq!(CkptField::HeadSlot.get(&image[header..]), 0);
    assert_eq!(
        CkptField::HeadBase.get(&image[header..]),
        2,
        "behind segment 1"
    );
    assert_eq!(
        CkptField::HeadTop.get(&image[header..]) as u32,
        BPS as u32 - 1,
        "below it"
    );

    let (ld, report) = recover(&image).unwrap();
    assert_eq!(report.segments_replayed, 0);
    assert_eq!(ld.allocated_block_count(), 0, "nothing in slot 0 is live");
    assert_eq!(ld.free_segments(), free, "yet slot 0 is not free");
    ld.run_cleaner().unwrap();
    assert_eq!(ld.free_segments(), free, "and not the cleaner's to release");
    // The log goes on behind segment 1.
    let l = ld.new_list(Ctx::Simple).unwrap();
    ld.flush().unwrap();
    let image2 = ld.into_device().into_image();
    assert_eq!(
        chain(&image2),
        [
            SegPos::first(&image2, 0),
            SegPos {
                slot: 0,
                base: 2,
                top: BPS as u32 - 1
            }
        ]
    );
    let (ld, _) = recover(&image2).unwrap();
    assert!(ld.list_blocks(Ctx::Simple, l).unwrap().is_empty());

    let top = BPS as u32 - 1;
    for (base, top) in [
        (top - 2, top),
        (BPS as u32, top),
        (u32::MAX, top),
        (2, 4),
        (2, BPS as u32 + 1),
        (0, u32::MAX),
    ] {
        let mut hostile = image.clone();
        CkptField::HeadBase.put(&mut hostile[header..], u64::from(base));
        CkptField::HeadTop.put(&mut hostile[header..], u64::from(top));
        reseal_checkpoint(&mut hostile, area);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "head {base}..{top}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    // Inside a slot the device does not have.
    let mut hostile = image.clone();
    CkptField::HeadSlot.put(&mut hostile[header..], u64::from(layout.n_segments));
    reseal_checkpoint(&mut hostile, area);
    assert!(matches!(recover(&hostile), Err(LldError::Corrupt(_))));
}

/// (i) A record whose timestamp runs backwards, recomputed under valid
/// CRCs. The seal keeps the newer of two versions of a record, so half
/// of the deletion would lose to the checkpoint — the predecessor would
/// still point at the block the other half removed. A typed error, not
/// a list that no longer walks.
#[test]
fn timestamp_that_runs_backwards_is_corrupt() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let blocks: Vec<_> = (1..=3)
        .map(|byte| {
            let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
            ld.write(Ctx::Simple, b, &block(byte)).unwrap();
            b
        })
        .collect();
    ld.checkpoint().unwrap();
    // The middle one: its predecessor is in the checkpoint and nothing
    // behind the checkpoint touches it again.
    ld.delete_block(Ctx::Simple, blocks[1]).unwrap();
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    let tail = *chain(&image).last().unwrap();
    let records = summary_records(&image, tail);
    let [(ref record, Record::DeleteBlock { block, aru, .. })] = records[..] else {
        panic!("one `DeleteBlock`: {records:?}");
    };

    let (ld, report) = recover(&image).unwrap();
    assert_eq!((report.segments_replayed, report.records_applied), (1, 1));
    assert_eq!(
        ld.list_blocks(Ctx::Simple, l).unwrap(),
        [blocks[2], blocks[0]],
        "control"
    );

    let mut hostile = image.clone();
    let delete = encode(&Record::DeleteBlock {
        block,
        ts: Timestamp::new(1),
        aru,
    });
    splice_summary(&mut hostile, tail, record.clone(), &delete);
    let got = recover(&hostile);
    assert!(
        matches!(got, Err(LldError::Corrupt(_))),
        "{:?}",
        got.map(|(ld, r)| (ld.list_blocks(Ctx::Simple, l), r))
    );
}

/// An image of the previous formats (superblock version 11, 10, 9, 8,
/// 7, 6, 5 or 4, valid CRC) is refused by the version check, and the
/// message names the version: it is not read as if its dedup rows were
/// floors, its segment metadata sat at the back of its slot, its
/// checkpoint headers next to the superblock, its summary records were
/// varints, its checkpoint slabs sorted and bit-packed, its segment
/// bases counted sectors or its segments were packed by sectors. The
/// format-12 image it was patched from mounts.
#[test]
fn older_format_version_is_refused() {
    let (image, b) = image_with_segments(1);
    assert_eq!(SbField::Version.get(&image), 12, "superblock version field");
    let (ld, _) = recover(&image).expect("a format-12 image mounts");
    assert_eq!(read_byte(&ld, b), 1);
    for older in [11, 10, 9, 8, 7, 6, 5, 4] {
        let mut image = image.clone();
        SbField::Version.put(&mut image, older);
        reseal_superblock(&mut image);
        match recover(&image) {
            Err(LldError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("version {older}")), "{msg}")
            }
            other => panic!("{:?}", other.map(|(_, r)| r)),
        }
    }
}
