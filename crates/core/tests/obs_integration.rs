//! Integration tests of the observability layer against a real logical
//! disk: the trace ring must show the lifecycle of a committed ARU
//! (begin → copy-on-write → seal → commit-record flush) and of an
//! aborted ARU (begin → abort, with no flush), in sequence order, and
//! the snapshot must bundle consistent counters and histograms.

use ld_core::obs::{Stage, TraceEvent};
use ld_core::{Ctx, Lld, LldConfig, ObsConfig, Position};
use ld_disk::{DiskModel, MemDisk, SimDisk};

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

#[test]
fn committed_and_aborted_aru_event_sequence() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();

    // One ARU that commits and is flushed...
    let aru1 = ld.begin_aru().unwrap();
    let list = ld.new_list(Ctx::Aru(aru1)).unwrap();
    let b = ld.new_block(Ctx::Aru(aru1), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru1), b, &vec![7u8; BS]).unwrap();
    ld.end_aru(aru1).unwrap();
    ld.flush().unwrap();

    // ...and one that aborts (its shadow state is discarded; nothing
    // reaches the device, so no seal or flush events follow).
    let aru2 = ld.begin_aru().unwrap();
    let b2 = ld
        .new_block(Ctx::Aru(aru2), list, Position::After(b))
        .unwrap();
    ld.write(Ctx::Aru(aru2), b2, &vec![9u8; BS]).unwrap();
    ld.abort_aru(aru2).unwrap();

    let events = ld.obs().ring().entries();
    // Entries come back in strictly increasing sequence order.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "events out of order: {w:?}");
    }

    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().position(|e| pred(&e.event));
    let begin1 = pos(&|e| matches!(e, TraceEvent::AruBegin { aru } if *aru == aru1.get()))
        .expect("aru1 begin");
    let commit1 = pos(&|e| matches!(e, TraceEvent::AruCommit { aru, .. } if *aru == aru1.get()))
        .expect("aru1 commit");
    let seal = pos(&|e| matches!(e, TraceEvent::SegmentSeal { .. })).expect("segment seal");
    // The flush ends where its `commit` stage does.
    let is_flush = |e: &TraceEvent| {
        matches!(
            e,
            TraceEvent::StageEnd {
                stage: Stage::Commit,
                ..
            }
        )
    };
    let flush = pos(&is_flush).expect("flush");
    let begin2 = pos(&|e| matches!(e, TraceEvent::AruBegin { aru } if *aru == aru2.get()))
        .expect("aru2 begin");
    let abort2 = pos(&|e| matches!(e, TraceEvent::AruAbort { aru } if *aru == aru2.get()))
        .expect("aru2 abort");

    // Committed ARU: begin → commit → seal → commit-record flush.
    assert!(begin1 < commit1, "begin before commit");
    assert!(commit1 < seal, "commit buffered, sealed at flush");
    assert!(seal < flush, "seal happens inside the flush");
    // Aborted ARU: begin → abort after the first ARU's flush, and no
    // further seal or flush events follow the abort.
    assert!(flush < begin2, "aru2 begins after aru1's flush");
    assert!(begin2 < abort2, "begin before abort");
    assert!(
        !events[abort2..]
            .iter()
            .any(|e| matches!(e.event, TraceEvent::SegmentSeal { .. }) || is_flush(&e.event)),
        "an aborted ARU must not cause segment or flush activity"
    );

    // The commit event carries the ARU's op and CoW counts.
    match events[commit1].event {
        TraceEvent::AruCommit {
            ops, cow_records, ..
        } => {
            assert!(ops >= 3, "new_list + new_block + write, got {ops}");
            assert!(
                cow_records >= 1,
                "list insert copies records, got {cow_records}"
            );
        }
        ref e => panic!("expected commit event, got {e:?}"),
    }

    // Each ARU's life is its begin and end entries: aru1 committed and
    // aru2 aborted, both stamped on the wall clock, aru2 ending later
    // in logical time.
    let (b1, c1) = (&events[begin1], &events[commit1]);
    let (b2, a2) = (&events[begin2], &events[abort2]);
    assert!(b1.wall_us <= c1.wall_us && b2.wall_us <= a2.wall_us);
    assert!(b1.ts < c1.ts && b2.ts < a2.ts);
    assert!(a2.ts > c1.ts);
}

#[test]
fn snapshot_bundles_disk_and_lld_layers() {
    let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config()).unwrap();

    let aru = ld.begin_aru().unwrap();
    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &vec![1u8; BS]).unwrap();
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();
    let mut buf = vec![0u8; BS];
    ld.read(Ctx::Simple, b, &mut buf).unwrap();

    let snap = ld.obs_snapshot();
    assert!(snap.lld.writes >= 1);
    assert!(snap.lld.arus_committed >= 1);
    let disk = snap.disk.expect("SimDisk reports stats");
    assert!(disk.writes >= 1, "flush reached the device");

    // The acceptance-critical histograms carry samples with sane
    // percentile math.
    let end_aru = snap.histogram("end_aru").expect("end_aru histogram");
    assert!(end_aru.count >= 1);
    assert!(end_aru.p50() <= end_aru.max.max(1));
    let disk_write = snap.histogram("disk_write").expect("disk_write histogram");
    assert!(disk_write.count >= 1);
    assert!(disk_write.p99() >= disk_write.p50());
    let lld_write = snap.histogram("lld_write").expect("lld_write histogram");
    assert_eq!(lld_write.count, snap.lld.writes);

    // JSON output is produced and mentions the required pieces.
    let json = snap.to_json();
    assert!(json.contains("\"end_aru\""));
    assert!(json.contains("\"disk_write\""));
    assert!(json.contains("\"aru_commit\""));
}

#[test]
fn disabled_obs_is_silent_but_counters_survive() {
    let cfg = LldConfig {
        obs: ObsConfig::disabled(),
        ..config()
    };
    let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
    let aru = ld.begin_aru().unwrap();
    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &vec![3u8; BS]).unwrap();
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();

    let snap = ld.obs_snapshot();
    assert!(snap.events.is_empty(), "no events when disabled");
    for (name, h) in &snap.histograms {
        assert!(h.is_empty(), "histogram {name} must stay empty");
    }
    // Plain counters are independent of the obs switch.
    assert_eq!(snap.lld.arus_committed, 1);
    assert!(snap.lld.writes >= 1);
}

#[test]
fn recovery_report_reaches_snapshot() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &vec![5u8; BS]).unwrap();
    ld.flush().unwrap();

    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover(MemDisk::from_image(image)).unwrap();
    assert!(report.segments_replayed >= 1);

    let snap = ld2.obs_snapshot();
    let in_snap = snap.recovery.expect("recovery report in snapshot");
    assert_eq!(in_snap, report);
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::RecoveryScan { .. })),
        "recovery emits a scan event"
    );
}

/// Each recovery phase is timed once, by its stage, and the report's
/// four phase times (the ledger's `recovery.*_ms` rows) are measured
/// with instrumentation off too.
#[test]
fn recovery_phase_times_are_measured_with_obs_off() {
    let cfg = LldConfig {
        obs: ObsConfig::disabled(),
        ..config()
    };
    let ld = Lld::format(MemDisk::new(4 << 20), &cfg).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();
    for i in 0..8u8 {
        let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
        ld.write(Ctx::Simple, b, &vec![i; BS]).unwrap();
        ld.flush().unwrap();
    }
    let image = ld.into_device().into_image();
    let (ld, report) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert!(report.segments_replayed >= 1);
    let phases = [
        report.snapshot_load_ns,
        report.scan_ns,
        report.replay_ns,
        report.finalize_ns,
    ];
    assert!(phases.iter().all(|&ns| ns > 0), "{phases:?}");
    assert!(ld.obs_snapshot().events.is_empty());
}

#[test]
fn mt_group_commit_stress_has_well_formed_aru_lifecycles() {
    // Seeded multi-threaded stress: 4 OS threads share one disk and
    // commit disjoint ARUs synchronously, so the group-commit stage
    // batches their barriers. The trace must still contain one
    // well-formed lifecycle per ARU (begin strictly before commit, no
    // duplicates), and the group-commit accounting must balance: every
    // durability caller is covered by exactly one batch.
    use std::sync::Arc;

    const THREADS: u64 = 4;
    const ARUS_PER_THREAD: u64 = 20;
    let cfg = LldConfig {
        obs: ObsConfig {
            ring_capacity: 1 << 15,
            ..ObsConfig::default()
        },
        max_blocks: Some(1024),
        max_lists: Some(256),
        ..config()
    };
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &cfg).unwrap());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..ARUS_PER_THREAD {
                    let seed = (t * 1000 + i) as u8;
                    let aru = ld.begin_aru().unwrap();
                    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
                    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
                    ld.write(Ctx::Aru(aru), b, &vec![seed; BS]).unwrap();
                    ld.end_aru_sync(aru).unwrap();
                }
            });
        }
    });

    let total_arus = THREADS * ARUS_PER_THREAD;
    let events = ld.obs().ring().entries();
    assert_eq!(ld.obs().ring().dropped(), 0, "ring sized for the run");
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "events out of order: {w:?}");
    }

    // Per-ARU lifecycle: exactly one begin and one commit, in order.
    use std::collections::HashMap;
    let mut begins: HashMap<u64, usize> = HashMap::new();
    let mut commits: HashMap<u64, usize> = HashMap::new();
    for (pos, e) in events.iter().enumerate() {
        match e.event {
            TraceEvent::AruBegin { aru } => {
                assert!(begins.insert(aru, pos).is_none(), "duplicate begin {aru}");
            }
            TraceEvent::AruCommit { aru, .. } => {
                assert!(commits.insert(aru, pos).is_none(), "duplicate commit {aru}");
            }
            TraceEvent::AruAbort { aru } | TraceEvent::AruConflict { aru } => {
                panic!("unexpected abort/conflict for ARU {aru}")
            }
            _ => {}
        }
    }
    assert_eq!(begins.len() as u64, total_arus);
    assert_eq!(commits.len() as u64, total_arus);
    for (aru, b) in &begins {
        let c = commits
            .get(aru)
            .unwrap_or_else(|| panic!("ARU {aru} never committed"));
        assert!(b < c, "ARU {aru} commit before begin");
    }

    // Group-commit accounting balances: every synchronous caller was
    // covered by exactly one batch, and the trace and the histogram
    // agree with the counters.
    let stats = ld.stats();
    assert_eq!(stats.arus_committed, total_arus);
    assert_eq!(stats.flush_batch_callers, total_arus);
    let batches: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::GroupCommit { batch, .. } => Some(batch),
            _ => None,
        })
        .collect();
    assert_eq!(batches.len() as u64, stats.flush_batches);
    assert!(!batches.is_empty(), "at least one group-commit batch");
    assert_eq!(batches.iter().sum::<u64>(), total_arus);
    assert_eq!(
        batches.iter().copied().max().unwrap(),
        stats.flush_batch_max
    );

    let snap = ld.obs_snapshot();
    let h = snap
        .histogram("group_commit_batch")
        .expect("batch-size histogram");
    assert_eq!(h.count, stats.flush_batches);
    assert_eq!(h.max, stats.flush_batch_max);
}
