//! Crash-recovery behaviour: all-or-nothing persistence of ARUs,
//! torn-segment handling, checkpoints, and the consistency check.

use ld_core::{
    ConcurrencyMode, Ctx, ListId, Lld, LldConfig, LldError, Position, SegField, TaggedCommit,
    SEGMENT_HEADER_LEN,
};
use ld_disk::{BlockDevice, DiskModel, FaultPlan, MemDisk, SimDisk};

const BS: usize = 512;

fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(256),
        max_lists: Some(64),
        ..LldConfig::default()
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// A simulated disk of `capacity` bytes.
fn sim(capacity: u64) -> SimDisk<MemDisk> {
    SimDisk::new(MemDisk::new(capacity), DiskModel::hp_c3010())
}

/// Cuts the power *without* flushing: what the last barrier vouched
/// for, and a seeded subset of the writes since, is what recovery sees.
/// The cut is in the test's captured output.
fn crash_and_recover(
    ld: Lld<SimDisk<MemDisk>>,
) -> (Lld<SimDisk<MemDisk>>, ld_core::RecoveryReport) {
    let (image, cut) = ld.into_device().crash_image();
    eprintln!("{cut}");
    let device = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
    Lld::recover(device).unwrap_or_else(|e| panic!("{cut}: {e}"))
}

#[test]
fn empty_disk_recovers_empty() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let (ld2, report) = crash_and_recover(ld);
    assert_eq!(ld2.allocated_block_count(), 0);
    assert_eq!(ld2.allocated_list_count(), 0);
    assert_eq!(report.segments_replayed, 0);
}

#[test]
fn flushed_state_survives_crash() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b1 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let b2 = ld.new_block(Ctx::Simple, l, Position::After(b1)).unwrap();
    ld.write(Ctx::Simple, b1, &block(0x11)).unwrap();
    ld.write(Ctx::Simple, b2, &block(0x22)).unwrap();
    ld.flush().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    assert!(report.records_applied >= 5);
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b1, b2]);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b1, &mut buf).unwrap();
    assert_eq!(buf, block(0x11));
    ld2.read(Ctx::Simple, b2, &mut buf).unwrap();
    assert_eq!(buf, block(0x22));
}

#[test]
fn unflushed_committed_state_is_lost() {
    // Committed but never written to disk: recovery is to the most
    // recent *persistent* state.
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    ld.flush().unwrap();
    // Overwrite after the flush; stays in the open segment buffer.
    ld.write(Ctx::Simple, b, &block(2)).unwrap();

    let (ld2, _) = crash_and_recover(ld);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(1));
}

#[test]
fn uncommitted_aru_fully_undone() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b0, &block(1)).unwrap();
    ld.flush().unwrap();

    // An ARU does a mix of operations but never commits.
    let aru = ld.begin_aru().unwrap();
    let nb = ld.new_block(Ctx::Aru(aru), l, Position::After(b0)).unwrap();
    ld.write(Ctx::Aru(aru), nb, &block(9)).unwrap();
    ld.write(Ctx::Aru(aru), b0, &block(8)).unwrap();
    // Push everything that CAN reach disk to disk.
    ld.flush().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    // The ARU's effects are gone...
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b0]);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b0, &mut buf).unwrap();
    assert_eq!(buf, block(1));
    // ...and the committed allocation was reclaimed by the check.
    assert_eq!(report.orphan_blocks_freed, 1);
    assert!(ld2.block_info(nb).is_none());
}

#[test]
fn committed_aru_survives_as_a_unit() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let aru = ld.begin_aru().unwrap();
    let b1 = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
    let b2 = ld.new_block(Ctx::Aru(aru), l, Position::After(b1)).unwrap();
    ld.write(Ctx::Aru(aru), b1, &block(0xA1)).unwrap();
    ld.write(Ctx::Aru(aru), b2, &block(0xA2)).unwrap();
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    assert_eq!(report.committed_arus, 1);
    assert_eq!(report.discarded_arus, 0);
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b1, b2]);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b1, &mut buf).unwrap();
    assert_eq!(buf, block(0xA1));
    ld2.read(Ctx::Simple, b2, &mut buf).unwrap();
    assert_eq!(buf, block(0xA2));
}

#[test]
fn torn_final_segment_is_ignored() {
    // Build a disk image, then crash the device partway through the
    // final segment write: recovery must fall back to the previous
    // persistent state.
    let sim = SimDisk::new(MemDisk::new(2 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    ld.flush().unwrap();
    // Arm a crash point that tears the *next* segment's seal write
    // inside its header block (the plan counts bytes from its own
    // creation): the segment never becomes valid.
    ld.device()
        .set_faults(FaultPlan::new().crash_after_bytes(BS as u64 / 2));

    ld.write(Ctx::Simple, b, &block(2)).unwrap();
    let err = ld.flush().unwrap_err();
    assert!(matches!(err, ld_core::LldError::Disk(_)), "{err}");

    let image = ld.into_device().into_inner().into_image();
    let (ld2, _report) = Lld::recover(MemDisk::from_image(image)).unwrap();
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(1), "torn write rolled back to persistent state");
}

#[test]
fn aru_straddling_flush_is_atomic() {
    // Flush happens while an ARU is active; the ARU commits afterwards
    // but the commit never reaches disk. NOTHING of the ARU may
    // survive.
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b0, &block(1)).unwrap();

    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), b0, &block(7)).unwrap();
    ld.flush().unwrap(); // shadow data stays in memory
    ld.end_aru(aru).unwrap(); // commit record only in the open segment

    let (ld2, _) = crash_and_recover(ld);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b0, &mut buf).unwrap();
    assert_eq!(buf, block(1));
}

#[test]
fn sequential_mode_crash_atomicity() {
    // The "old" prototype still guarantees failure atomicity of its
    // single ARU via tagged records.
    let cfg = LldConfig {
        concurrency: ConcurrencyMode::Sequential,
        ..config()
    };
    let ld = Lld::format(sim(2 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b0, &block(1)).unwrap();
    ld.flush().unwrap();

    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), b0, &block(9)).unwrap();
    let nb = ld.new_block(Ctx::Aru(aru), l, Position::After(b0)).unwrap();
    ld.write(Ctx::Aru(aru), nb, &block(8)).unwrap();
    // Crash before EndARU, with the tagged records flushed.
    ld.flush().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    assert_eq!(report.discarded_arus, 1);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b0, &mut buf).unwrap();
    assert_eq!(buf, block(1), "tagged write without commit undone");
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b0]);
}

#[test]
fn recovery_preserves_id_allocation_monotonicity() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b1 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.flush().unwrap();
    let (ld2, _) = crash_and_recover(ld);
    let b2 = ld2.new_block(Ctx::Simple, l, Position::After(b1)).unwrap();
    assert_ne!(b1, b2);
    let l2 = ld2.new_list(Ctx::Simple).unwrap();
    assert_ne!(l, l2);
}

/// An identifier below its stripe's end that no table holds is free
/// (docs/INVARIANTS.md): after a restart, the blocks and lists deleted
/// before it are handed out again, lowest first, before the stripe
/// grows. Whether the deletions reached the image through a checkpoint
/// (the table has no row for them) or through the log (replay frees
/// them).
#[test]
fn freed_identifiers_are_handed_out_again_after_recovery() {
    let cfg = LldConfig {
        map_shards: 1,
        ..config()
    };
    for via_checkpoint in [true, false] {
        let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
        let lists: Vec<_> = (0..3).map(|_| ld.new_list(Ctx::Simple).unwrap()).collect();
        let l = lists[0];
        let blocks: Vec<_> = (0..10)
            .map(|_| ld.new_block(Ctx::Simple, l, Position::First).unwrap())
            .collect();
        assert!(blocks.iter().map(|b| b.get()).eq(1..=10));
        for &b in &blocks[..5] {
            ld.delete_block(Ctx::Simple, b).unwrap();
        }
        ld.delete_list(Ctx::Simple, lists[1]).unwrap();
        // Before a restart, the lowest freed identifier is next.
        let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
        assert_eq!(b.get(), 1);
        ld.delete_block(Ctx::Simple, b).unwrap();
        if via_checkpoint {
            ld.checkpoint().unwrap();
        } else {
            ld.flush().unwrap();
        }
        let (ld, _) = Lld::recover_with(ld.into_device(), &cfg).unwrap();
        let again: Vec<u64> = (0..6)
            .map(|_| ld.new_block(Ctx::Simple, l, Position::First).unwrap().get())
            .collect();
        assert_eq!(again, [1, 2, 3, 4, 5, 11], "checkpoint: {via_checkpoint}");
        let lists_again = [
            ld.new_list(Ctx::Simple).unwrap(),
            ld.new_list(Ctx::Simple).unwrap(),
        ];
        assert_eq!(
            lists_again.map(|l| l.get()),
            [2, 4],
            "checkpoint: {via_checkpoint}"
        );
    }
}

/// A `Sequential` ARU frees the identifiers it deletes only at its
/// commit, so an ARU that deletes and allocates again takes fresh ones
/// past `max_blocks`. The allocator stops at the bound recovery takes,
/// `64 × (max_blocks + 1)`, with `DiskFull`, and the image recovers.
#[test]
fn a_sequential_aru_that_churns_stops_at_the_bound_recovery_takes() {
    let cfg = LldConfig {
        map_shards: 1,
        max_blocks: Some(16),
        concurrency: ConcurrencyMode::Sequential,
        ..config()
    };
    let bound = 64 * (16 + 1);
    let ld = Lld::format(MemDisk::new(8 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let aru = ld.begin_aru().unwrap();
    let ctx = Ctx::Aru(aru);
    let mut last = 0;
    let refused = loop {
        match ld.new_block(ctx, l, Position::First) {
            Ok(b) => {
                last = b.get();
                ld.delete_block(ctx, b).unwrap();
            }
            Err(e) => break e,
        }
    };
    assert!(matches!(refused, ld_core::LldError::DiskFull), "{refused}");
    assert_eq!(last, bound - 1, "the stripe grew to the bound");
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();
    let (ld, _) = Lld::recover_with(ld.into_device(), &cfg).unwrap();
    assert_eq!(
        ld.new_block(Ctx::Simple, l, Position::First).unwrap().get(),
        1
    );
}

#[test]
fn double_recovery_is_stable() {
    // Recovering, doing nothing, and recovering again must converge.
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    for i in 0..10u8 {
        let aru = ld.begin_aru().unwrap();
        let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        ld.write(Ctx::Aru(aru), b, &block(i)).unwrap();
        ld.end_aru(aru).unwrap();
    }
    ld.flush().unwrap();
    let (ld2, _) = crash_and_recover(ld);
    let count = ld2.allocated_block_count();
    let (ld3, report) = crash_and_recover(ld2);
    assert_eq!(ld3.allocated_block_count(), count);
    assert_eq!(report.orphan_blocks_freed, 0);
    assert_eq!(ld3.list_blocks(Ctx::Simple, l).unwrap().len(), 10);
}

#[test]
fn checkpoint_bounds_replay() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    for i in 0..50u8 {
        ld.write(Ctx::Simple, b, &block(i)).unwrap();
    }
    ld.checkpoint().unwrap();
    assert!(ld.checkpoint_seq() > 0);
    // A little more work after the checkpoint.
    ld.write(Ctx::Simple, b, &block(0xEE)).unwrap();
    ld.flush().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    assert_eq!(report.checkpoint_seq, ld2.checkpoint_seq());
    assert!(report.checkpoint_seq > 0);
    assert!(
        report.segments_replayed <= 2,
        "only post-checkpoint segments replayed, got {}",
        report.segments_replayed
    );
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(0xEE));
}

#[test]
fn checkpoint_alone_recovers_without_segments() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(0x42)).unwrap();
    ld.checkpoint().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    assert_eq!(report.segments_replayed, 0);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(0x42));
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b]);
}

#[test]
fn recovery_report_counts_discards() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    // Two committed ARUs, one uncommitted.
    for _ in 0..2 {
        let aru = ld.begin_aru().unwrap();
        let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        ld.write(Ctx::Aru(aru), b, &block(1)).unwrap();
        ld.end_aru(aru).unwrap();
    }
    let aru = ld.begin_aru().unwrap();
    let _b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
    ld.flush().unwrap();

    let (_, report) = crash_and_recover(ld);
    assert_eq!(report.committed_arus, 2);
    // The uncommitted ARU's records were all in memory (never spilled),
    // so nothing is discarded from the log — but its committed
    // allocation is reclaimed.
    assert_eq!(report.orphan_blocks_freed, 1);
}

#[test]
fn not_a_logical_disk_is_rejected() {
    let device = MemDisk::new(2 << 20);
    device.write_at(0, b"garbage superblock").unwrap();
    assert!(matches!(
        Lld::recover(MemDisk::from_image(device.into_image())),
        Err(ld_core::LldError::Corrupt(_))
    ));
}

#[test]
fn recover_with_overrides_runtime_options() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let _ = l;
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    let cfg = LldConfig {
        concurrency: ConcurrencyMode::Sequential,
        check_on_recovery: false,
        ..config()
    };
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert_eq!(ld2.concurrency(), ConcurrencyMode::Sequential);
}

#[test]
fn state_identical_across_crash_for_mixed_workload() {
    // Drive a mixed workload, flush, snapshot the logical state, crash,
    // recover, and compare the full observable state.
    let ld = Lld::format(sim(4 << 20), &config()).unwrap();
    let mut lists = Vec::new();
    for i in 0..8u8 {
        let aru = ld.begin_aru().unwrap();
        let l = ld.new_list(Ctx::Aru(aru)).unwrap();
        let mut prev = None;
        for j in 0..(i % 4 + 1) {
            let pos = match prev {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let b = ld.new_block(Ctx::Aru(aru), l, pos).unwrap();
            ld.write(Ctx::Aru(aru), b, &block(i * 16 + j)).unwrap();
            prev = Some(b);
        }
        ld.end_aru(aru).unwrap();
        lists.push(l);
    }
    // Delete some, simple-stream.
    ld.delete_list(Ctx::Simple, lists[2]).unwrap();
    ld.delete_list(Ctx::Simple, lists[5]).unwrap();
    ld.flush().unwrap();

    let mut expected = Vec::new();
    for (idx, &l) in lists.iter().enumerate() {
        if idx == 2 || idx == 5 {
            continue;
        }
        let blocks = ld.list_blocks(Ctx::Simple, l).unwrap();
        let mut datas = Vec::new();
        for &b in &blocks {
            let mut buf = block(0);
            ld.read(Ctx::Simple, b, &mut buf).unwrap();
            datas.push(buf);
        }
        expected.push((l, blocks, datas));
    }

    let (ld2, _) = crash_and_recover(ld);
    for (l, blocks, datas) in expected {
        assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), blocks);
        for (b, d) in blocks.iter().zip(datas.iter()) {
            let mut buf = block(0);
            ld2.read(Ctx::Simple, *b, &mut buf).unwrap();
            assert_eq!(&buf, d);
        }
    }
    assert!(ld2.list_blocks(Ctx::Simple, lists[2]).is_err());
    assert!(ld2.list_blocks(Ctx::Simple, lists[5]).is_err());
}

#[test]
fn flushed_commit_after_gap_survives_second_crash() {
    // Two seals with no barrier between them may reach the medium in
    // either order, so a crash can leave segment 3 on disk without
    // segment 2. Recovery stops at the gap; what is written and flushed
    // *after* that recovery must survive the next crash — the gap is
    // refilled, not skipped, and the stale segment 3 behind it does not
    // link to the new segment 2. All of it inside one slot: the three
    // meta records sit back to back at the back of slot 0, a sector
    // each, the header ending each.
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    for byte in 1..=3u8 {
        ld.write(Ctx::Simple, b, &block(byte)).unwrap();
        ld.flush().unwrap(); // seq 1, 2, 3 with meta in sectors 15, 14, 13 of slot 0
    }
    assert_eq!(ld.n_segments() - ld.free_segments(), 1, "one slot in use");
    let mut image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let header =
        |sector: usize| layout.segment_offset(0) as usize + sector * BS - SEGMENT_HEADER_LEN;
    let seq_at = SegField::Seq.at;
    let seq2 = header(15);
    assert_eq!(image[seq2 + seq_at], 2, "segment 2's header ends sector 14");
    image[seq2..seq2 + 32].fill(0);

    let (ld2, report) = Lld::recover(MemDisk::from_image(image)).unwrap();
    assert_eq!(report.segments_replayed, 1, "recovery stops at the gap");

    // No read in between: a read ticks the logical clock, and this
    // overwrite is meant to log the very record the lost segment 2
    // held (same block, address and timestamp), so the new segment 2
    // ends where the old one did and the stale segment 3 sits exactly
    // where the log goes on — the two timelines then differ only in
    // the mount epoch of their headers.
    ld2.write(Ctx::Simple, b, &block(4)).unwrap();
    ld2.flush().unwrap();
    let image = ld2.into_device().into_image();
    let seq3 = header(14);
    assert_eq!(
        image[seq3 + seq_at],
        3,
        "the stale segment 3 is still there"
    );
    let (ld3, report) = Lld::recover(MemDisk::from_image(image)).unwrap();
    assert_eq!(report.segments_replayed, 2, "the gap was refilled");
    let mut buf = block(0);
    ld3.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(4), "a flushed write was lost");
}

// ----------------------------------------------------------------------
// Write-id dedup: exactly-once tagged commits across crashes
// ----------------------------------------------------------------------

/// A tagged commit of one block appended to `list`, holding `byte`.
fn tagged_append<D: BlockDevice>(
    ld: &Lld<D>,
    list: ListId,
    (client, generation, wid): (u64, u64, u64),
    byte: u8,
) -> ld_core::Result<TaggedCommit> {
    let aru = ld.begin_aru().unwrap();
    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &block(byte)).unwrap();
    ld.end_aru_tagged(aru, client, generation, wid)
}

/// No window: a client's floor stays its outcome however many commits
/// other clients make (1,100 here, past the 1,024 outcomes a cache
/// kept), and its retry runs nothing.
#[test]
fn a_retry_is_answered_after_any_number_of_other_commits() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
    let (mine, theirs) = (
        ld.new_list(Ctx::Simple).unwrap(),
        ld.new_list(Ctx::Simple).unwrap(),
    );
    let first = tagged_append(&ld, mine, (1, 1, 1), 1).unwrap();
    let b = ld.new_block(Ctx::Simple, theirs, Position::First).unwrap();
    for wid in 1..=1100u64 {
        let aru = ld.begin_aru().unwrap();
        ld.write(Ctx::Aru(aru), b, &block(wid as u8)).unwrap();
        assert!(!ld.end_aru_tagged(aru, 2, 1, wid).unwrap().deduped);
    }
    let retry = tagged_append(&ld, mine, (1, 1, 1), 2).unwrap();
    assert!(retry.deduped);
    assert_eq!(retry.outcome, first.outcome);
    assert_eq!(ld.list_blocks(Ctx::Simple, mine).unwrap().len(), 1);
    assert_eq!(ld.write_id_floor(2), Some((1, 1100)));
}

/// A raised generation is a row on the disk: after a checkpoint and a
/// clean restart, a `Hello` at the old generation is refused, as it is
/// before.
#[test]
fn a_raised_generation_survives_a_restart() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();
    for wid in 1..=7 {
        tagged_append(&ld, list, (5, 1, wid), wid as u8).unwrap();
    }
    assert_eq!(ld.client_hello(5, 1).unwrap(), 7);
    assert_eq!(ld.client_hello(5, 2).unwrap(), 0, "a raise starts at 0");
    assert!(ld.client_hello(5, 1).is_err());
    ld.checkpoint().unwrap();
    ld.flush().unwrap();
    let (ld2, _) = Lld::recover(MemDisk::from_image(ld.into_device().into_image())).unwrap();
    assert!(
        ld2.client_hello(5, 1).is_err(),
        "generation 1 after a restart"
    );
    assert_eq!(ld2.client_hello(5, 2).unwrap(), 0);
    assert_eq!(ld2.write_id_floor(5), Some((2, 0)));
}

/// Write ids run in sequence: one past the next is refused, typed, and
/// applies nothing; one below the floor is answered applied.
#[test]
fn an_id_out_of_sequence_applies_nothing() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();
    tagged_append(&ld, list, (4, 1, 1), 1).unwrap();
    let stats = ld.stats();
    match tagged_append(&ld, list, (4, 1, 3), 3) {
        Err(LldError::WriteIdOutOfSequence {
            write_id: 3,
            floor: 1,
        }) => {}
        other => panic!("id 3 after floor 1 answered {other:?}"),
    }
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap().len(), 1);
    assert_eq!(ld.stats().arus_committed, stats.arus_committed);
    assert_eq!(ld.write_id_floor(4), Some((1, 1)));
    tagged_append(&ld, list, (4, 1, 2), 2).unwrap();
    assert!(matches!(
        tagged_append(&ld, list, (4, 1, 1), 1),
        Err(LldError::WriteIdSuperseded { floor: 2, .. })
    ));
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap().len(), 2);
}

#[test]
fn tagged_commit_outcome_survives_crash() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    ld.client_hello(7, 1).unwrap();
    let aru = ld.begin_aru().unwrap();
    let l = ld.new_list(Ctx::Aru(aru)).unwrap();
    let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &block(0xAA)).unwrap();
    let first = ld.end_aru_tagged(aru, 7, 1, 1).unwrap();
    assert!(!first.deduped);
    ld.flush().unwrap();

    let (ld2, _) = crash_and_recover(ld);
    // The journaled write-id record rebuilt the client's row.
    let o = ld2.write_id_lookup(7, 1, 1).unwrap();
    assert_eq!(o, Some(first.outcome));

    // A client retrying the same write-id gets the recorded outcome and
    // its retry ARU is aborted, not re-executed.
    ld2.client_hello(7, 1).unwrap();
    let retry = ld2.begin_aru().unwrap();
    let l2 = ld2.new_list(Ctx::Aru(retry)).unwrap();
    let rb = ld2.new_block(Ctx::Aru(retry), l2, Position::First).unwrap();
    ld2.write(Ctx::Aru(retry), rb, &block(0xBB)).unwrap();
    let second = ld2.end_aru_tagged(retry, 7, 1, 1).unwrap();
    assert!(second.deduped);
    assert_eq!(second.outcome, first.outcome);
    // The retry ARU was aborted: its link/write effects are gone (the
    // identifier allocation itself is committed immediately by design,
    // so the leaked list is merely empty).
    assert_eq!(ld2.list_blocks(Ctx::Simple, l2).unwrap(), vec![]);
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), vec![b]);
}

#[test]
fn unflushed_tagged_commit_reexecutes_after_crash() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let aru = ld.begin_aru().unwrap();
    let l = ld.new_list(Ctx::Aru(aru)).unwrap();
    ld.end_aru_tagged(aru, 7, 1, 1).unwrap();
    // No flush: neither the ARU's effects nor the write-id record
    // reached the device.
    let (ld2, _) = crash_and_recover(ld);
    assert_eq!(ld2.write_id_lookup(7, 1, 1), Ok(None));
    assert!(ld2.list_blocks(Ctx::Simple, l).is_err());

    // The retry re-executes for real.
    let retry = ld2.begin_aru().unwrap();
    let l2 = ld2.new_list(Ctx::Aru(retry)).unwrap();
    let r = ld2.end_aru_tagged(retry, 7, 1, 1).unwrap();
    assert!(!r.deduped);
    ld2.flush().unwrap();
    assert!(ld2.list_blocks(Ctx::Simple, l2).is_ok());
}

#[test]
fn checkpoint_carries_dedup_cache() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    let aru = ld.begin_aru().unwrap();
    let l = ld.new_list(Ctx::Aru(aru)).unwrap();
    let first = ld.end_aru_tagged(aru, 3, 2, 1).unwrap();
    ld.flush().unwrap();
    ld.checkpoint().unwrap();

    let (ld2, report) = crash_and_recover(ld);
    // Nothing above the checkpoint to replay: the row must have come
    // from the checkpoint's dedup table, not the log.
    assert_eq!(report.segments_replayed, 0);
    assert_eq!(ld2.write_id_lookup(3, 2, 1), Ok(Some(first.outcome)));
    assert_eq!(ld2.write_id_floor(3), Some((2, 1)));
    assert!(ld2.list_blocks(Ctx::Simple, l).is_ok());
}

#[test]
fn tagged_commit_rejects_sequential_mode_and_zero_ids() {
    let cfg = LldConfig {
        concurrency: ConcurrencyMode::Sequential,
        ..config()
    };
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
    let aru = ld.begin_aru().unwrap();
    assert!(ld.end_aru_tagged(aru, 1, 1, 1).is_err());
    ld.end_aru(aru).unwrap();

    // A zero id is refused, and the presented ARU aborted.
    let ld = Lld::format(MemDisk::new(2 << 20), &config()).unwrap();
    for (client, wid) in [(0, 1), (1, 0)] {
        let aru = ld.begin_aru().unwrap();
        assert!(ld.end_aru_tagged(aru, client, 1, wid).is_err());
        assert_eq!(ld.end_aru(aru), Err(LldError::UnknownAru(aru)));
    }
    assert!(ld.client_hello(0, 1).is_err());
}

#[test]
fn generation_regression_is_rejected_after_recovery() {
    let ld = Lld::format(sim(2 << 20), &config()).unwrap();
    ld.client_hello(9, 5).unwrap();
    let aru = ld.begin_aru().unwrap();
    ld.new_list(Ctx::Aru(aru)).unwrap();
    ld.end_aru_tagged(aru, 9, 5, 1).unwrap();
    ld.flush().unwrap();
    let (ld2, _) = crash_and_recover(ld);
    // The replayed write-id record re-established generation 5.
    assert!(ld2.client_hello(9, 4).is_err());
    assert!(ld2.client_hello(9, 5).is_ok());
}
