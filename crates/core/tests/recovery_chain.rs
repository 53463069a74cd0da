//! The log chain's own failure modes. Recovery finds the suffix by
//! following `next_slot` from the checkpoint's head — to the sector
//! behind a segment's summary when that names the segment's own slot,
//! to sector 0 of another slot otherwise — and accepts a segment only if
//! its sequence number and `prev_link` fit, so these tests forge, tear
//! and exhaust exactly those fields, inside a slot and across slots.

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

/// Byte offset of `slot`, in the geometry the image's superblock names.
fn seg_off(image: &[u8], slot: u32) -> usize {
    let (layout, _, _) = ld_core::Layout::decode_superblock(image).unwrap();
    layout.segment_offset(slot) as usize
}

/// Byte offset of sector `base` of `slot` (on 512-byte blocks, block
/// `base`).
fn pos_off(image: &[u8], (slot, base): (u32, u32)) -> usize {
    seg_off(image, slot) + base as usize * SECTOR
}

/// Where the segment whose header is at `pos` says the log goes on:
/// behind its own summary, or at sector 0 of another slot.
fn successor(image: &[u8], pos: (u32, u32)) -> (u32, u32) {
    let off = pos_off(image, pos);
    let next = u32_at(image, off + H_NEXT);
    if next != pos.0 {
        return (next, 0);
    }
    (next, pos.1 + segment_sectors(image, off))
}

/// Positions of segments 1, 2, … of a log that starts at sector 0 of
/// slot 0, found the way recovery finds them.
fn chain(image: &[u8]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut pos, mut link) = ((0, 0), 0);
    while pos.0 != u32::MAX {
        let off = pos_off(image, pos);
        if !header_valid(image, off)
            || u64_at(image, off + H_SEQ) != out.len() as u64 + 1
            || u32_at(image, off + H_PREV) != link
        {
            break;
        }
        out.push(pos);
        (pos, link) = (successor(image, pos), u32_at(image, off + H_CRC));
    }
    out
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
/// single `Write` record (the first also the allocation) and three
/// blocks long, so five to a slot.
fn image_with_segments(n: u8) -> (Vec<u8>, ld_core::BlockId) {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    for byte in 1..=n {
        ld.write(Ctx::Simple, b, &block(byte)).unwrap();
        ld.flush().unwrap();
    }
    let image = ld.into_device().into_image();
    let at: Vec<(u32, u32)> = (0..u32::from(n)).map(|i| (i / 5, i % 5 * 3)).collect();
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
        let at = successor(&image, tail);
        assert_eq!(
            at.0 == tail.0,
            in_slot,
            "{n} segments: the tail points at {at:?}"
        );
        let (from, to) = (pos_off(&image, tail), pos_off(&image, at));
        let next_seq = u64::from(n) + 1;

        // The tail's three blocks, re-labelled as its successor. Its one
        // record places the block by its sector in the slot, so the copy
        // gets a data block of its own and a record that says so.
        let mut forged = image.clone();
        forged.copy_within(from..from + 3 * BS, to);
        forged[to + BS..to + 2 * BS].fill(9);
        let records = summary_records(&forged, to);
        let [(ref record, Record::Write { block, ts, aru, .. })] = records[..] else {
            panic!("one `Write` record: {records:?}");
        };
        let slot = extent(at.1 + 1, 1);
        let write = encode(&Record::Write {
            block,
            slot,
            ts,
            aru,
        });
        splice_summary(&mut forged, to, record.clone(), &write);
        forged[to + H_SEQ..to + H_SEQ + 8].copy_from_slice(&next_seq.to_le_bytes());
        put_u32(&mut forged, to + H_NEXT, u32::MAX);
        let link_of_tail = u32_at(&image, from + H_CRC);

        put_u32(&mut forged, to + H_PREV, link_of_tail ^ 1);
        reseal(&mut forged, to);
        assert!(header_valid(&forged, to));
        let (ld, report) = recover(&forged).unwrap();
        assert_eq!(report.segments_replayed, u32::from(n));
        assert_eq!(
            report.segments_scanned,
            u32::from(n) + 1,
            "{at:?} was probed"
        );
        assert_eq!(read_byte(&ld, b), n);

        put_u32(&mut forged, to + H_PREV, link_of_tail);
        reseal(&mut forged, to);
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
    torn[ckpt_header(&image, layout.ckpt_b as usize) + 20] ^= 0xFF;
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
/// block 0 of every slot for the one header that links on.
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
        .flat_map(|slot| (0..BPS as u32).map(move |base| (slot, base)))
        .map(|pos| pos_off(&image, pos))
        .filter(|&off| header_valid(&image, off) && u32_at(&image, off + H_NEXT) == u32::MAX)
        .map(|off| u64_at(&image, off + H_SEQ))
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
    let tail = pos_off(&image, at[11]);
    assert_eq!(
        u32_at(&image, tail + H_NEXT),
        2,
        "the tail goes on behind itself"
    );
    for ptr in [n, n + 5, u32::MAX - 1, 0, 1] {
        let mut hostile = image.clone();
        put_u32(&mut hostile, tail + H_NEXT, ptr);
        reseal(&mut hostile, tail);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "tail -> {ptr}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    let mut pointerless = image.clone();
    put_u32(&mut pointerless, tail + H_NEXT, u32::MAX);
    reseal(&mut pointerless, tail);
    let (ld, report) = recover(&pointerless).unwrap();
    assert_eq!(report.segments_replayed, 12);
    assert_eq!(read_byte(&ld, b), 12);

    // Mid-chain: segment 10, the last of slot 1, points back at slot 0.
    // The walk ends at segment 10 (segment 11 no longer links to the
    // edited header), whose pointer names a slot the chain itself
    // occupies.
    let mid = pos_off(&image, at[9]);
    assert_eq!(u32_at(&image, mid + H_NEXT), 2);
    let mut hostile = image.clone();
    put_u32(&mut hostile, mid + H_NEXT, 0);
    reseal(&mut hostile, mid);
    assert!(matches!(recover(&hostile), Err(LldError::Corrupt(_))));

    // The same segment claiming that the log goes on behind it, where
    // one block is left: no writer seals that, so it is no segment, and
    // the log ends in front of it.
    let mut hostile = image.clone();
    put_u32(&mut hostile, mid + H_NEXT, 1);
    reseal(&mut hostile, mid);
    let (ld, report) = recover(&hostile).unwrap();
    assert_eq!(report.segments_replayed, 9);
    assert_eq!(read_byte(&ld, b), 9);

    // Records recomputed under valid CRCs, on the tail (a resealed
    // header changes the link its successor checks). Its one record
    // places the block at the segment's one data sector.
    let records = summary_records(&image, tail);
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
    let data = at[11].1 + 1;
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
        splice_summary(&mut hostile, tail, record.clone(), &write);
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
    splice_summary(&mut hostile, tail, end..end, &link);
    match recover(&hostile) {
        Err(LldError::Corrupt(msg)) => assert!(msg.contains("is already on list"), "{msg}"),
        other => panic!("second link: {:?}", other.map(|(_, r)| r)),
    }

    // A superblock that claims slots the device does not have: recovery
    // sizes its per-slot tables by that count.
    for claim in [n + 1, u32::MAX] {
        let mut hostile = image.clone();
        put_u32(&mut hostile, S_N_SEGMENTS, claim);
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

/// (e) The scan phase reads once per hop inside a slot (the summary's
/// read brings the next header along) and twice per hop into another,
/// on a small device and on one sixteen times its size.
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
        // Ten summaries; a header of its own for the start of the log,
        // for slot 1 and for the empty slot 2 where the log ends.
        assert_eq!(scan_reads, 10 + 3, "{slots} slots");
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

/// (e') The same walk in bytes, on 4 KiB blocks, over a log of sync
/// commits of two full blocks each: a hop inside a slot transfers the
/// summary rounded up to a sector and the successor's 44-byte header
/// behind it, not the padding up to a block boundary (a segment's base
/// counts sectors, so most headers sit in the middle of a block).
#[test]
fn an_in_slot_hop_reads_its_summary_and_the_next_header_only() {
    const BIG: usize = 4096;
    let cfg = LldConfig {
        block_size: BIG,
        segment_bytes: 16 * BIG,
        max_blocks: Some(256),
        max_lists: Some(64),
        ..LldConfig::default()
    };
    let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let pair = [(); 2].map(|()| ld.new_block(Ctx::Simple, l, Position::First).unwrap());
    for generation in 1..=12u8 {
        let aru = ld.begin_aru().unwrap();
        for b in pair {
            ld.write(Ctx::Aru(aru), b, &[generation; BIG]).unwrap();
        }
        ld.end_aru(aru).unwrap();
        ld.flush().unwrap();
    }
    let image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();

    // Every header on the medium, by its sequence number.
    let headers: std::collections::HashMap<u64, usize> = (0..layout.n_segments)
        .flat_map(|slot| (0..layout.sectors_per_slot()).map(move |s| (slot, s)))
        .map(|(slot, s)| layout.segment_offset(slot) as usize + s as usize * SECTOR)
        .filter(|&off| header_valid(&image, off))
        .map(|off| (u64_at(&image, off + H_SEQ), off))
        .collect();

    let dev = CountingDisk {
        inner: MemDisk::from_image(image.clone()),
        reads: ld_disk::Mutex::new(Vec::new()),
    };
    let (ld2, report) = Lld::recover_with(dev, &cfg).unwrap();
    assert_eq!(report.segments_replayed, 12);
    let mut buf = vec![0u8; BIG];
    for b in pair {
        ld2.read(Ctx::Simple, b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 12));
    }
    // An in-slot hop is the read that ends with the successor's header.
    let reads = ld2.device().reads.lock().clone();
    let (mut in_slot, mut mid_block) = (0, 0);
    for (at, len) in reads {
        let next = at as usize + len - H_LEN.min(len);
        if len <= H_LEN || at < layout.data_start || !header_valid(&image, next) {
            continue;
        }
        in_slot += 1;
        mid_block += usize::from(!(next - layout.data_start as usize).is_multiple_of(BIG));
        let header = headers[&(u64_at(&image, next + H_SEQ) - 1)];
        let summary_len = u32_at(&image, header + H_SUMMARY_LEN) as usize;
        let bound = summary_len.div_ceil(SECTOR) * SECTOR + H_LEN;
        assert!(
            len <= bound,
            "the hop from the header at {header} reads {len} bytes, past {bound}"
        );
    }
    assert!(in_slot >= 8, "{in_slot} in-slot hops");
    assert!(
        mid_block >= 4,
        "{mid_block} headers in the middle of a block"
    );
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
        let len = u64_at(image, ckpt_header(image, area) + C_BODY_LEN) as usize;
        (area as u64, len)
    };
    // The reads recovery makes in front of its first one at or past
    // slot 0, the checkpoint it loaded and that checkpoint's bytes.
    let front_reads = |image: &[u8]| {
        let dev = CountingDisk {
            inner: MemDisk::from_image(image.to_vec()),
            reads: ld_disk::Mutex::new(Vec::new()),
        };
        let (ld2, report) = Lld::recover_with(dev, &cfg).unwrap();
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
    assert_eq!(bytes, (C_LEN + body(&image, b).1) as u64);

    let mut torn = image.clone();
    let header_b = ckpt_header(&image, b);
    torn[header_b + 30..header_b + C_LEN].fill(0);
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

/// (f) A crash tears a segment write in the middle of a slot, or loses
/// one whole while its in-slot successor lands: the log ends in front
/// of it, and what is flushed after that recovery survives the next
/// crash.
#[test]
fn torn_and_lost_segments_inside_a_slot_end_the_log() {
    let (image, b) = image_with_segments(4);
    let at = chain(&image);
    let third = pos_off(&image, at[2]);

    // Torn: the header and the data block landed, the summary did not.
    let mut torn = image.clone();
    torn[third + 2 * BS..third + 3 * BS].fill(0xEE);
    // Lost: nothing of segment 3 landed; segment 4 behind it did.
    let mut lost = image.clone();
    lost[third..third + 3 * BS].fill(0);
    assert!(header_valid(&lost, pos_off(&lost, at[3])));

    for (name, damaged, torn_tails) in [("torn", torn, 1), ("lost", lost, 0)] {
        let (ld, report) = recover(&damaged).unwrap();
        assert_eq!(report.segments_replayed, 2, "{name}");
        assert_eq!(report.torn_tails_detected, torn_tails, "{name}");
        assert_eq!(read_byte(&ld, b), 2, "{name}");
        // Two flushed overwrites. The first refills the damaged
        // position and ends where the stale segment 4 begins, which
        // has the right sequence number and the wrong link; the second
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

/// (g) Format punches block 0 of every slot and nothing else, so the
/// segments of the previous log further inside the slots stay on the
/// medium. None of them is replayed: not on the empty disk, and not
/// once the new log has written its way up to where they sit.
#[test]
fn reformat_over_in_slot_segments_recovers_empty() {
    let (image, _) = image_with_segments(12);
    let at = chain(&image);
    let ld = Lld::format(MemDisk::from_image(image), &config()).unwrap();
    let image = ld.into_device().into_image();
    let stale = at
        .iter()
        .filter(|&&pos| header_valid(&image, pos_off(&image, pos)));
    assert_eq!(stale.count(), 12 - 3, "all but the three at block 0");
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
    let old = pos_off(&image, at[1]);
    assert!(header_valid(&image, old) && u64_at(&image, old + H_SEQ) == 2);
    let (ld, report) = recover(&image).unwrap();
    assert_eq!((report.segments_scanned, report.segments_replayed), (2, 1));
    assert_eq!(read_byte(&ld, b), 0x77);
}

/// (h) The checkpoint's head names a sector inside a slot. One that
/// leaves no room for a segment is a typed error; one that is in range
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
    assert_eq!(u32_at(&image, header + C_HEAD_SLOT), 0);
    assert_eq!(u32_at(&image, header + C_HEAD_BASE), 3, "behind segment 1");

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
    assert_eq!(chain(&image2), [(0, 0), (0, 3)]);
    let (ld, _) = recover(&image2).unwrap();
    assert!(ld.list_blocks(Ctx::Simple, l).unwrap().is_empty());

    for base in [BPS as u32 - 2, BPS as u32, u32::MAX] {
        let mut hostile = image.clone();
        put_u32(&mut hostile, header + C_HEAD_BASE, base);
        reseal_checkpoint(&mut hostile, area);
        let got = recover(&hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "head base {base}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    // Inside a slot the device does not have.
    let mut hostile = image.clone();
    put_u32(&mut hostile, header + C_HEAD_SLOT, layout.n_segments);
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
    let tail = pos_off(&image, *chain(&image).last().unwrap());
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

/// An image of the previous formats (superblock version 9, 8, 7, 6, 5
/// or 4, valid CRC) is refused by the version check, and the message
/// names the version: it is not read as if its checkpoint headers sat
/// next to the superblock, its summary records were varints, its
/// checkpoint slabs sorted and bit-packed, its segment bases counted
/// sectors or its segments were packed by sectors. The format-10 image
/// it was patched from mounts.
#[test]
fn older_format_version_is_refused() {
    let (image, b) = image_with_segments(1);
    assert_eq!(u32_at(&image, 8), 10, "superblock version field");
    let (ld, _) = recover(&image).expect("a format-10 image mounts");
    assert_eq!(read_byte(&ld, b), 1);
    for older in [9, 8, 7, 6, 5, 4] {
        let mut image = image.clone();
        put_u32(&mut image, 8, older);
        reseal_superblock(&mut image);
        match recover(&image) {
            Err(LldError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("version {older}")), "{msg}")
            }
            other => panic!("{:?}", other.map(|(_, r)| r)),
        }
    }
}

/// A device that keeps two media: one takes the writes as issued, the
/// other each seal as one request, the way the trees before PR 26 wrote
/// it. There a segment header is held back until its body follows a
/// block further on, and the two go down as the header padded with
/// zeros to its block, then the body.
struct OneWriteSeals {
    issued: MemDisk,
    one: MemDisk,
    header: ld_disk::Mutex<Option<(u64, Vec<u8>)>>,
}

impl ld_disk::BlockDevice for OneWriteSeals {
    fn capacity(&self) -> u64 {
        self.issued.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.issued.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.issued.write_at(offset, buf)?;
        let mut held = self.header.lock();
        if let Some((at, mut one)) = held.take() {
            assert_eq!(offset, at + BS as u64, "a header's body follows it");
            one.resize(BS, 0);
            one.extend_from_slice(buf);
            return self.one.write_at(at, &one);
        }
        if buf.len() == H_LEN && u64_at(buf, 0) == SEGMENT_MAGIC {
            *held = Some((offset, buf.to_vec()));
            return Ok(());
        }
        self.one.write_at(offset, buf)
    }
    fn flush(&self) -> ld_disk::Result<()> {
        assert!(self.header.lock().is_none(), "a seal's body never came");
        Ok(())
    }
}

/// (j) Format 5 as the trees before PR 26 wrote it, each seal one write
/// with its header padded with zeros to a block, recovers to the state
/// the two-write seal leaves, on a medium whose header blocks held stale
/// bytes: the images differ only in that padding, which no reader looks
/// at, and the format did not change.
#[test]
fn an_image_of_single_write_seals_recovers_the_same() {
    let mut cfg = config();
    cfg.cleaner = CleanerConfig {
        background: false, // one writer: a header's body follows it
        ..cfg.cleaner
    };
    let stale = vec![0xEE; device_bytes(16) as usize];
    let dev = OneWriteSeals {
        issued: MemDisk::from_image(stale.clone()),
        one: MemDisk::from_image(stale),
        header: ld_disk::Mutex::new(None),
    };
    let ld = Lld::format(dev, &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let ring = churn_ring(&ld, l, None);
    for (i, &b) in ring.iter().cycle().take(40).enumerate() {
        ld.write(Ctx::Simple, b, &block(i as u8)).unwrap();
        match i % 9 {
            4 => ld.flush().unwrap(),
            8 => ld.checkpoint().unwrap(),
            _ => {}
        }
        if i % 5 == 0 {
            let aru = ld.begin_aru().unwrap();
            let nb = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
            ld.write(Ctx::Aru(aru), nb, &block(0xA0 + i as u8)).unwrap();
            ld.end_aru(aru).unwrap();
        }
    }
    ld.flush().unwrap();
    let dev = ld.into_device();
    let (two, one) = (dev.issued.into_image(), dev.one.into_image());

    let headers = chain(&two);
    assert!(headers.len() > 8, "{headers:?}");
    assert_eq!(chain(&one), headers);
    let padding: Vec<_> = (headers.iter())
        .map(|&pos| pos_off(&two, pos))
        .map(|off| off + H_LEN..off + BS)
        .collect();
    let differ: Vec<usize> = (0..two.len()).filter(|&i| two[i] != one[i]).collect();
    assert!(differ.iter().all(|i| padding.iter().any(|p| p.contains(i))));
    assert_eq!(
        differ.len(),
        headers.len() * (BS - H_LEN),
        "stale against zeros"
    );

    let state = |image: &[u8]| {
        let (ld, report) = recover(image).unwrap();
        let blocks = ld.list_blocks(Ctx::Simple, l).unwrap();
        let bytes: Vec<u8> = blocks.iter().map(|&b| read_byte(&ld, b)).collect();
        (
            blocks,
            bytes,
            report.segments_replayed,
            report.checkpoint_seq,
        )
    };
    let got = state(&two);
    assert!(got.2 > 0, "a suffix to replay: {got:?}");
    assert_eq!(state(&one), got);
}
