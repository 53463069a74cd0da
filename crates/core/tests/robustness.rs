//! Robustness tests: corrupted checkpoints, media failures, visibility
//! of list structures, and assorted edge cases that the main suites do
//! not reach.

use ld_core::{CkptField, Ctx, Lld, LldConfig, LldError, Position, ReadVisibility, CKPT_HEADER_AT};
use ld_disk::{DiskModel, FaultPlan, MemDisk, Mutex, SimDisk};

#[path = "common/model.rs"]
mod model;
use model::Model;

const BS: usize = 512;

/// The map shards of a point of the mode matrix. (No log here wraps,
/// so no cleaner runs.) The tests that crash or corrupt a disk run at
/// every point; the rest at the default one.
type Mode = usize;

const DEFAULT: Mode = 8;

fn config(shards: Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(256),
        max_lists: Some(64),
        map_shards: shards,
        ..LldConfig::default()
    }
}

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for mode in [DEFAULT, 1] {
        eprintln!("shards = {mode}");
        test(mode);
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_older() {
    each_mode(corrupt_newest_checkpoint_falls_back_to_older_at);
}

fn corrupt_newest_checkpoint_falls_back_to_older_at(mode: Mode) {
    // Write two checkpoints (areas alternate), corrupt the newer one on
    // the raw image, and recover: the older checkpoint plus the log
    // replay must still reconstruct the latest state.
    let ld = Lld::format(MemDisk::new(2 << 20), &config(mode)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    ld.checkpoint().unwrap(); // checkpoint #1 (area A)
    ld.write(Ctx::Simple, b, &block(2)).unwrap();
    ld.checkpoint().unwrap(); // checkpoint #2 (area B)
    ld.write(Ctx::Simple, b, &block(3)).unwrap();
    ld.flush().unwrap();

    let mut image = ld.into_device().into_image();
    // The superblock is 64 bytes at offset 0, and the headers of areas
    // A and B sit in the two sectors behind it. Corrupt the header of
    // area B, which holds the NEWER checkpoint (the second checkpoint
    // went to B since A was used first).
    image[CKPT_HEADER_AT[1] as usize + CkptField::HeadLink.at] ^= 0xFF;

    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    // Fell back to checkpoint #1.
    assert!(report.checkpoint_seq > 0);
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(3), "log replay on top of the old checkpoint");
}

#[test]
fn both_checkpoints_corrupt_means_full_scan() {
    each_mode(both_checkpoints_corrupt_means_full_scan_at);
}

fn both_checkpoints_corrupt_means_full_scan_at(mode: Mode) {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(mode)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(7)).unwrap();
    ld.checkpoint().unwrap();
    ld.checkpoint().unwrap();
    ld.flush().unwrap();

    let mut image = ld.into_device().into_image();
    for header in CKPT_HEADER_AT {
        image[header as usize + CkptField::HeadLink.at] ^= 0xFF;
    }

    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    assert_eq!(report.checkpoint_seq, 0, "no checkpoint usable");
    assert!(report.segments_replayed > 0, "full log scan");
    let mut buf = block(0);
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(7));
}

#[test]
fn media_failure_on_read_is_reported() {
    let sim = SimDisk::new(MemDisk::new(2 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config(DEFAULT)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(9)).unwrap();
    ld.flush().unwrap();
    // The block is now on disk; mark its whole device unreadable except
    // nothing — a blanket read-error region over the data area.
    let info = ld.block_info(b).unwrap();
    assert!(info.addr.is_some());
    ld.device()
        .set_faults(FaultPlan::new().read_error_region(0..u64::MAX));
    let buf = block(0);
    // The block cache still holds the block (written through); evict it
    // is not possible from outside, so read a *fresh* instance instead.
    let image = ld.into_device().into_inner().into_image();
    let sim2 = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
    // Recovery itself must fail cleanly when the medium is unreadable.
    let failing = Lld::recover(
        // Region chosen past the superblock so the failure hits the
        // checkpoint/segment scan.
        {
            sim2.set_faults(FaultPlan::new().read_error_region(4096..u64::MAX));
            sim2
        },
    );
    match failing {
        Err(LldError::Disk(ld_disk::DiskError::MediaFailure { .. })) => {}
        other => panic!("expected a media failure, got {other:?}"),
    }
    let _ = buf;
}

#[test]
fn visibility_committed_applies_to_list_walks() {
    let cfg = LldConfig {
        visibility: ReadVisibility::Committed,
        ..config(DEFAULT)
    };
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let aru = ld.begin_aru().unwrap();
    let _b1 = ld.new_block(Ctx::Aru(aru), l, Position::After(b0)).unwrap();
    // Option 2: even inside the ARU, the list walk sees only the
    // committed membership.
    assert_eq!(ld.list_blocks(Ctx::Aru(aru), l).unwrap(), vec![b0]);
    ld.end_aru(aru).unwrap();
    assert_eq!(ld.list_blocks(Ctx::Simple, l).unwrap().len(), 2);
}

#[test]
fn visibility_any_shadow_list_walk_sees_uncommitted_insert() {
    let cfg = LldConfig {
        visibility: ReadVisibility::AnyShadow,
        ..config(DEFAULT)
    };
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b0 = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let aru = ld.begin_aru().unwrap();
    let b1 = ld.new_block(Ctx::Aru(aru), l, Position::After(b0)).unwrap();
    // Option 1: the simple stream sees the uncommitted insertion.
    assert_eq!(ld.list_blocks(Ctx::Simple, l).unwrap(), vec![b0, b1]);
    ld.abort_aru(aru).unwrap();
    assert_eq!(ld.list_blocks(Ctx::Simple, l).unwrap(), vec![b0]);
}

#[test]
fn deleting_twice_within_aru_fails_cleanly() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(DEFAULT)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let aru = ld.begin_aru().unwrap();
    ld.delete_block(Ctx::Aru(aru), b).unwrap();
    assert!(matches!(
        ld.delete_block(Ctx::Aru(aru), b),
        Err(LldError::BlockNotAllocated(_))
    ));
    ld.end_aru(aru).unwrap();
    assert!(ld.block_info(b).is_none());
}

#[test]
fn interleaved_aru_commit_then_reuse_of_freed_ids() {
    each_mode(interleaved_aru_commit_then_reuse_of_freed_ids_at);
}

fn interleaved_aru_commit_then_reuse_of_freed_ids_at(mode: Mode) {
    // An id freed by a committed ARU must be reusable, and its reuse
    // must survive recovery in log order.
    let ld = Lld::format(MemDisk::new(2 << 20), &config(mode)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    let aru = ld.begin_aru().unwrap();
    ld.delete_block(Ctx::Aru(aru), b).unwrap();
    // Not reusable while the ARU is active (committed state still holds
    // the allocation).
    let other = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    assert_ne!(other, b);
    ld.end_aru(aru).unwrap();
    let reused = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    assert_eq!(reused, b, "freed id reused after commit");
    ld.write(Ctx::Simple, reused, &block(0xEE)).unwrap();
    ld.flush().unwrap();

    let image = ld.into_device().into_image();
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    let mut buf = block(0);
    ld2.read(Ctx::Simple, reused, &mut buf).unwrap();
    assert_eq!(buf, block(0xEE));
    assert_eq!(
        ld2.list_blocks(Ctx::Simple, l).unwrap(),
        vec![reused, other]
    );
}

/// A deletion whose record needs a new segment when no slot is free
/// fails with `DiskFull` and leaves no trace: the tables stay as the
/// log has them, so what the disk serves afterwards is what a recovery
/// of its image serves.
#[test]
fn deletion_on_a_full_disk_fails_without_a_trace() {
    each_mode(deletion_on_a_full_disk_fails_without_a_trace_at);
}

fn deletion_on_a_full_disk_fails_without_a_trace_at(mode: Mode) {
    let mut cfg = config(mode);
    cfg.cleaner.enabled = false;
    let layout = ld_core::Layout::compute(1 << 20, &cfg).unwrap();
    let capacity = layout.data_start + 8 * cfg.segment_bytes as u64;
    let ld = Lld::format(MemDisk::new(capacity), &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    // Fill up: the last free slot is kept back for deletions.
    while let Ok(b) = ld.new_block(Ctx::Simple, l, Position::First) {
        if ld.write(Ctx::Simple, b, &block(0xF1)).is_err() {
            break;
        }
        blocks.push(b);
    }
    assert_eq!(ld.free_segments(), 1);
    // Flushed deletions take two blocks each (header, summary): they
    // use up the open slot, then the last free one, until one of them
    // finds no room for its record.
    let refused = loop {
        let b = blocks.pop().expect("the disk never ran full");
        match ld.delete_block(Ctx::Simple, b) {
            Ok(()) => {}
            Err(LldError::DiskFull) => break b,
            Err(e) => panic!("{e}"),
        }
        // Fails once no successor can be opened; the seal is written.
        let _ = ld.flush();
    };
    assert_eq!(ld.free_segments(), 0);
    let members = ld.list_blocks(Ctx::Simple, l).unwrap();
    assert!(members.contains(&refused), "the refused deletion unlinked");
    assert!(ld.block_info(refused).is_some(), "and deallocated");
    assert_eq!(read_byte(&ld, refused), 0xF1);
    assert!(matches!(
        ld.delete_list(Ctx::Simple, l),
        Err(LldError::DiskFull)
    ));
    assert_eq!(ld.list_blocks(Ctx::Simple, l).unwrap(), members);
    assert_eq!(ld.allocated_block_count(), members.len() as u64);

    let image = ld.into_device().into_image();
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert_eq!(ld2.list_blocks(Ctx::Simple, l).unwrap(), members);
}

fn read_byte(ld: &Lld<MemDisk>, b: ld_core::BlockId) -> u8 {
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    buf[0]
}

#[test]
fn read_cache_can_be_disabled() {
    let cfg = LldConfig {
        read_cache_blocks: 0,
        ..config(DEFAULT)
    };
    let sim = SimDisk::new(MemDisk::new(2 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &cfg).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(5)).unwrap();
    ld.flush().unwrap();
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(5));
    assert_eq!(ld.stats().cache_hits, 0);
    assert_eq!(ld.stats().cache_misses, 2);
}

#[test]
fn cache_hits_avoid_disk_time() {
    let sim = SimDisk::new(MemDisk::new(2 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config(DEFAULT)).unwrap();
    let l = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(5)).unwrap();
    ld.flush().unwrap();
    let t0 = ld.device().clock().now();
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(
        ld.device().clock().now(),
        t0,
        "write-through cache absorbs the read"
    );
    assert!(ld.stats().cache_hits >= 1);
}

#[test]
fn probe_reports_superblock_without_recovery() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(DEFAULT)).unwrap();
    let device = ld.into_device();
    let (layout, conc, vis) = Lld::probe(&device).unwrap();
    assert_eq!(layout.block_size, BS);
    assert_eq!(conc, ld_core::ConcurrencyMode::Concurrent);
    assert_eq!(vis, ReadVisibility::OwnShadow);
}

#[test]
fn aru_started_accessor() {
    let ld = Lld::format(MemDisk::new(2 << 20), &config(DEFAULT)).unwrap();
    let aru = ld.begin_aru().unwrap();
    assert!(ld.aru_started(aru).is_some());
    ld.end_aru(aru).unwrap();
    assert!(ld.aru_started(aru).is_none());
}

#[test]
fn mt_power_cut_preserves_per_aru_atomicity() {
    each_mode(mt_power_cut_preserves_per_aru_atomicity_at);
}

fn mt_power_cut_preserves_per_aru_atomicity_at(mode: Mode) {
    // Four threads share one Arc<Lld<SimDisk>> and commit disjoint
    // ARUs (a private list of three patterned blocks each), each
    // followed by a flush, while fault injection cuts power midway
    // through the run. Every call goes through one reference model,
    // held for the call, so the units it records are in the order the
    // disk ran them; a flush is not held (barriers overlap as they do
    // under load), and vouches for the units recorded when it began.
    // The recovered disk is then held to the model: every ARU all or
    // nothing, none that returned `Err`, none flushed lost.
    use std::sync::Arc;

    const THREADS: usize = 4;
    const ARUS_PER_THREAD: usize = 12;
    const BLOCKS_PER_ARU: usize = 3;

    let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010())
        .with_faults(FaultPlan::new().crash_after_bytes(24 * 1024));
    let ld = Arc::new(
        Lld::format(
            sim,
            &LldConfig {
                max_blocks: Some(1024),
                max_lists: Some(256),
                ..config(mode)
            },
        )
        .unwrap(),
    );
    let model = Mutex::new(Model::default());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (ld, model) = (&ld, &model);
            s.spawn(move || {
                'arus: for i in 0..ARUS_PER_THREAD {
                    let tag = (t * 64 + i + 1) as u8;
                    let Ok(aru) = ld.begin_aru() else { break };
                    let ctx = Ctx::Aru(aru);
                    let Ok(list) = model.lock().new_list(ld, ctx) else {
                        break;
                    };
                    let mut pos = Position::First;
                    for k in 0..BLOCKS_PER_ARU {
                        let mut m = model.lock();
                        let Ok(b) = m.new_block(ld, ctx, list, pos) else {
                            break 'arus;
                        };
                        if m.write(ld, ctx, b, &block(tag ^ (k as u8) << 6)).is_err() {
                            break 'arus;
                        }
                        pos = Position::After(b);
                    }
                    if model.lock().end_aru(ld, aru).is_err() {
                        break;
                    }
                    let upto = model.lock().recorded();
                    if ld.flush().is_err() {
                        break; // the power is out; stop this client
                    }
                    model.lock().flushed(upto);
                }
            });
        }
    });

    let model = model.into_inner();
    assert!(
        model.durable() > 0,
        "the crash point must allow some ARUs to become durable first"
    );
    let ld = Arc::try_unwrap(ld).expect("threads are done");
    let image = ld.into_device().into_inner().into_image();
    let (ld2, _report) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();
    model.check(
        &ld2,
        &format!("a power cut under {THREADS} threads, {mode} shards"),
    );
}

/// Digests of the bytes format 12 puts on a device: the image
/// `Lld::format` writes at 512-byte and 4 KiB blocks, and both
/// checkpoint areas after a fixed history on the caller's thread. A
/// refactor of a codec leaves them alone; a format change re-pins them
/// beside its version. (SipHash, not CRC32: a CRC over bytes that end in
/// their own CRC is a constant residue.)
#[test]
fn format_12_bytes_are_pinned() {
    use std::hash::{DefaultHasher, Hasher};
    fn digest(bytes: &[u8]) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(bytes);
        h.finish()
    }
    let cfg = |block_size: usize| LldConfig {
        block_size,
        segment_bytes: 16 * block_size,
        cleaner: ld_core::CleanerConfig {
            background: false,
            ..Default::default()
        },
        ..config(DEFAULT)
    };
    let formatted = [512, 4096].map(|bs| {
        let ld = Lld::format(MemDisk::new(4 << 20), &cfg(bs)).unwrap();
        digest(&ld.into_device().into_image())
    });

    // Both areas, A and B, after tagged and untagged ARUs (the tagged
    // write ids 1, 2, 3 …) and a deleted list.
    let ld = Lld::format(MemDisk::new(2 << 20), &cfg(BS)).unwrap();
    let lists = [
        ld.new_list(Ctx::Simple).unwrap(),
        ld.new_list(Ctx::Simple).unwrap(),
    ];
    for n in 0..24u8 {
        let aru = ld.begin_aru().unwrap();
        let l = lists[usize::from(n < 12 && n % 2 == 1)];
        let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
        ld.write(Ctx::Aru(aru), b, &block(n)).unwrap();
        if n % 3 == 0 {
            ld.end_aru_tagged(aru, 7, 1, u64::from(n / 3) + 1).unwrap();
        } else {
            ld.end_aru(aru).unwrap();
        }
        if n == 11 {
            ld.checkpoint().unwrap();
            ld.delete_list(Ctx::Simple, lists[1]).unwrap();
        }
    }
    ld.checkpoint().unwrap();
    let image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let areas = &image[layout.ckpt_a as usize..layout.data_start as usize];
    assert_eq!(
        (formatted, digest(areas)),
        (
            [15_864_441_197_119_699_135, 5_517_946_512_636_070_197],
            7_084_827_082_665_194_898
        ),
        "format 12's bytes moved"
    );
}
