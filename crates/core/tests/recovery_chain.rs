//! The log chain's own failure modes. Recovery finds the suffix by
//! following `next_slot` from the checkpoint's head and accepts a
//! segment only if its sequence number and `prev_link` fit, so these
//! tests forge, tear and exhaust exactly those fields.
//!
//! Every test runs on both writers ([`both_writers`]).

use ld_core::{CleanerConfig, Ctx, Lld, LldConfig, LldError, Position, RecoveryReport};
use ld_disk::{crc32, DiskModel, MemDisk, SimDisk};

const BS: usize = 512;
const SEG: usize = 16 * BS;

// Segment header fields (see `segment.rs`).
const H_SEQ: usize = 8;
const H_NEXT: usize = 28;
const H_PREV: usize = 32;
const H_CRC: usize = 40;

fn config(pipeline: bool) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: SEG,
        max_blocks: Some(256),
        max_lists: Some(64),
        pipeline,
        ..LldConfig::default()
    }
}

/// Runs `test` on the synchronous and on the pipelined writer; a
/// failure's captured output names the one it was on.
fn both_writers(test: fn(bool)) {
    for pipeline in [false, true] {
        eprintln!("pipeline: {pipeline}");
        test(pipeline);
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// Capacity of a device with exactly `slots` segment slots.
fn device_bytes(slots: u64) -> u64 {
    let layout = ld_core::Layout::compute(1 << 20, &config(false)).unwrap();
    layout.data_start + slots * SEG as u64
}

fn u32_at(image: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
}

fn put_u32(image: &mut [u8], at: usize, v: u32) {
    image[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Recomputes the CRC of the segment header at `off`, so an edit under
/// it passes as a sealed header. Returns the new CRC (the segment's
/// link).
fn reseal(image: &mut [u8], off: usize) -> u32 {
    let crc = crc32(&image[off..off + H_CRC]);
    put_u32(image, off + H_CRC, crc);
    crc
}

fn header_valid(image: &[u8], off: usize) -> bool {
    crc32(&image[off..off + H_CRC]) == u32_at(image, off + H_CRC)
}

fn seg_off(image: &[u8], slot: u32) -> usize {
    let layout = ld_core::Layout::compute(image.len() as u64, &config(false)).unwrap();
    layout.segment_offset(slot) as usize
}

fn recover(image: &[u8], pipeline: bool) -> Result<(Lld<MemDisk>, RecoveryReport), LldError> {
    Lld::recover_with(MemDisk::from_image(image.to_vec()), &config(pipeline))
}

fn read_byte(ld: &Lld<MemDisk>, b: ld_core::BlockId) -> u8 {
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == buf[0]), "block holds mixed bytes");
    buf[0]
}

/// One block overwritten and flushed `n` times: segments 1..=n in slots
/// 0..n, each a single `Write` record (the first also the allocation).
fn image_with_segments(n: u8, pipeline: bool) -> (Vec<u8>, ld_core::BlockId) {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(pipeline)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    for byte in 1..=n {
        ld.write(Ctx::Simple, b, &block(byte)).unwrap();
        ld.flush().unwrap();
    }
    (ld.into_device().into_image(), b)
}

/// (a) A CRC-valid header with the right sequence number sits exactly
/// where the tail points, but it was sealed after a different segment:
/// it is not replayed. The same forgery with the right link *is*
/// replayed, so the link is the only thing that kept it out.
#[test]
fn stale_successor_is_not_replayed() {
    both_writers(stale_successor_is_not_replayed_on);
}

fn stale_successor_is_not_replayed_on(pipeline: bool) {
    let (image, b) = image_with_segments(2, pipeline);
    let (s1, s2) = (seg_off(&image, 1), seg_off(&image, 2));
    assert_eq!(u32_at(&image, s1 + H_NEXT), 2, "the tail points at slot 2");

    // Segment 2's bytes, re-labelled as segment 3, in slot 2. Its one
    // record places the block at data slot 0 of whatever segment holds
    // it, so the forged copy needs its own data block.
    let mut forged = image.clone();
    forged.copy_within(s1..s1 + SEG, s2);
    forged[s2 + BS..s2 + 2 * BS].fill(9);
    forged[s2 + H_SEQ..s2 + H_SEQ + 8].copy_from_slice(&3u64.to_le_bytes());
    put_u32(&mut forged, s2 + H_NEXT, 3);
    let link_of_2 = u32_at(&image, s1 + H_CRC);

    put_u32(&mut forged, s2 + H_PREV, link_of_2 ^ 1);
    reseal(&mut forged, s2);
    assert!(header_valid(&forged, s2));
    let (ld, report) = recover(&forged, pipeline).unwrap();
    assert_eq!(report.segments_replayed, 2);
    assert_eq!(report.segments_scanned, 3, "slot 2 was probed");
    assert_eq!(read_byte(&ld, b), 2);

    put_u32(&mut forged, s2 + H_PREV, link_of_2);
    reseal(&mut forged, s2);
    let (ld, report) = recover(&forged, pipeline).unwrap();
    assert_eq!(
        report.segments_replayed, 3,
        "control: the right link is accepted"
    );
    assert_eq!(read_byte(&ld, b), 9);
}

/// (b) The newest checkpoint area is torn: recovery starts from the
/// older area's head, walks the longer suffix and reaches the same
/// state as the untorn image.
#[test]
fn torn_newest_checkpoint_walks_from_the_older_head() {
    both_writers(torn_newest_checkpoint_walks_from_the_older_head_on);
}

fn torn_newest_checkpoint_walks_from_the_older_head_on(pipeline: bool) {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(pipeline)).unwrap();
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

    let (clean, clean_report) = recover(&image, pipeline).unwrap();
    assert_eq!(clean_report.checkpoint_seq, newer);

    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let mut torn = image.clone();
    torn[layout.ckpt_b as usize + 20] ^= 0xFF;
    let (fallback, report) = recover(&torn, pipeline).unwrap();
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

/// (c) A segment sealed while no slot was free carries no pointer.
/// After space is freed the log goes on in whatever slot comes up, and
/// recovery crosses that hop by probing every slot for the one header
/// that links on.
#[test]
fn log_continues_past_a_segment_sealed_on_a_full_disk() {
    both_writers(log_continues_past_a_segment_sealed_on_a_full_disk_on);
}

fn log_continues_past_a_segment_sealed_on_a_full_disk_on(pipeline: bool) {
    let cfg = LldConfig {
        cleaner: CleanerConfig {
            enabled: false, // cleaning happens where the test says
            min_free_segments: 2,
            target_free_segments: 2,
            ..CleanerConfig::default()
        },
        ..config(pipeline)
    };
    let ld = Lld::format(MemDisk::new(device_bytes(12)), &cfg).unwrap();
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
    // Empty the three oldest segments and cover that with a checkpoint
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
    // Fill up. The operation that finds the disk full seals its segment
    // pointing at the last free slot and leaves that slot unopened: only
    // a deletion may take it.
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
    assert_eq!(ld.free_segments(), 0);
    // Sealing the deletion's segment finds nowhere to point.
    assert!(matches!(ld.flush(), Err(LldError::DiskFull)));

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
        .map(|s| seg_off(&image, s))
        .filter(|&off| header_valid(&image, off) && u32_at(&image, off + H_NEXT) == u32::MAX)
        .map(|off| u64::from_le_bytes(image[off + H_SEQ..off + H_SEQ + 8].try_into().unwrap()))
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
/// back into the chain or at the segment itself: a typed error, never a
/// panic or a loop. `u32::MAX` is the one value that is not hostile.
#[test]
fn hostile_pointers_are_corrupt_not_fatal() {
    both_writers(hostile_pointers_are_corrupt_not_fatal_on);
}

fn hostile_pointers_are_corrupt_not_fatal_on(pipeline: bool) {
    let (image, b) = image_with_segments(3, pipeline);
    let n = recover(&image, pipeline).unwrap().0.n_segments();
    let tail = seg_off(&image, 2);
    for ptr in [n, n + 5, u32::MAX - 1, 0, 1, 2] {
        let mut hostile = image.clone();
        put_u32(&mut hostile, tail + H_NEXT, ptr);
        reseal(&mut hostile, tail);
        let got = recover(&hostile, pipeline);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "tail -> {ptr}: {:?}",
            got.map(|(_, r)| r)
        );
    }
    let mut pointerless = image.clone();
    put_u32(&mut pointerless, tail + H_NEXT, u32::MAX);
    reseal(&mut pointerless, tail);
    let (ld, report) = recover(&pointerless, pipeline).unwrap();
    assert_eq!(report.segments_replayed, 3);
    assert_eq!(read_byte(&ld, b), 3);

    // Mid-chain: segment 2 points back at segment 1. The walk ends at
    // segment 2 (segment 3 no longer links to the edited header), whose
    // pointer names a slot the chain itself occupies.
    let mid = seg_off(&image, 1);
    let mut hostile = image.clone();
    put_u32(&mut hostile, mid + H_NEXT, 0);
    reseal(&mut hostile, mid);
    assert!(matches!(
        recover(&hostile, pipeline),
        Err(LldError::Corrupt(_))
    ));
}

/// (e) The scan phase reads two times the suffix plus one, on a small
/// device and on one sixteen times its size.
#[test]
fn scan_reads_follow_the_suffix_not_the_device() {
    both_writers(scan_reads_follow_the_suffix_not_the_device_on);
}

fn scan_reads_follow_the_suffix_not_the_device_on(pipeline: bool) {
    let mut seen = Vec::new();
    for slots in [64u64, 1024] {
        let ld = Lld::format(MemDisk::new(device_bytes(slots)), &config(pipeline)).unwrap();
        assert_eq!(u64::from(ld.n_segments()), slots);
        let l = ld.new_list(Ctx::Simple).unwrap();
        let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
        for byte in 1..=10u8 {
            ld.write(Ctx::Simple, b, &block(byte)).unwrap();
            ld.flush().unwrap();
        }
        let image = ld.into_device().into_image();

        let sim = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
        let (ld2, report) = Lld::recover_with(sim, &config(pipeline)).unwrap();
        assert_eq!(report.segments_replayed, 10);
        // Outside the scan: the superblock and one header read per
        // (empty) checkpoint area.
        let scan_reads = ld2.device().stats().snapshot().reads - 3;
        assert!(
            scan_reads <= 2 * u64::from(report.segments_replayed) + 2,
            "{slots} slots: {scan_reads} reads"
        );
        assert_eq!(report.segments_scanned, report.segments_replayed + 1);
        seen.push(scan_reads);
    }
    assert_eq!(seen[0], seen[1], "reads depend on the device size");
}

/// An image of the unchained format (superblock version 2, valid CRC)
/// is refused by the version check, not walked as if it had pointers.
#[test]
fn older_format_version_is_refused() {
    both_writers(older_format_version_is_refused_on);
}

fn older_format_version_is_refused_on(pipeline: bool) {
    let (mut image, _) = image_with_segments(1, pipeline);
    assert_eq!(u32_at(&image, 8), 3, "superblock version field");
    put_u32(&mut image, 8, 2);
    let crc = crc32(&image[..60]);
    put_u32(&mut image, 60, crc);
    match recover(&image, pipeline) {
        Err(LldError::Corrupt(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        other => panic!("{:?}", other.map(|(_, r)| r)),
    }
}
