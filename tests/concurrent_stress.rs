//! Thread-level stress: one logical disk shared by several OS threads
//! running interleaved ARUs (the "multi-threaded file systems or
//! several independent clients" of §3.2).
//!
//! The logical disk synchronizes internally — every operation takes
//! `&self` — so the threads share a plain `Arc<Lld<_>>` with no
//! external lock. What must hold under interleaving is the ARU
//! semantics: isolation of shadow states, atomicity of commits, and
//! unique identifier allocation.

use ld_aru::core::{Ctx, Lld, LldConfig, LogicalDisk, Position};
use ld_aru::disk::MemDisk;
use std::collections::HashSet;
use std::sync::Arc;

/// The points of the mode matrix threads can tell apart: map shards
/// (one lock versus eight). The log never wraps, so no cleaner runs.
const MODES: [usize; 2] = [8, 1];

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(usize)) {
    for shards in MODES {
        eprintln!("shards = {shards}");
        test(shards);
    }
}

fn ld_config(shards: usize) -> LldConfig {
    LldConfig {
        block_size: 512,
        segment_bytes: 16 * 512,
        max_blocks: Some(4096),
        max_lists: Some(512),
        map_shards: shards,
        ..LldConfig::default()
    }
}

#[test]
fn interleaved_arus_from_threads_commit_atomically() {
    each_mode(interleaved_arus);
}

fn interleaved_arus(shards: usize) {
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &ld_config(shards)).unwrap());
    let n_threads = 4;
    let arus_per_thread = 25;

    std::thread::scope(|s| {
        for t in 0..n_threads {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..arus_per_thread {
                    // Each ARU creates a private list of 3 patterned
                    // blocks; ARUs from different threads genuinely
                    // interleave in the operation stream.
                    let tag = (t * 1000 + i) as u8;
                    let aru = ld.begin_aru().unwrap();
                    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
                    let b1 = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
                    ld.write(Ctx::Aru(aru), b1, &vec![tag; 512]).unwrap();
                    let b2 = ld
                        .new_block(Ctx::Aru(aru), list, Position::After(b1))
                        .unwrap();
                    ld.write(Ctx::Aru(aru), b2, &vec![tag ^ 0xFF; 512]).unwrap();
                    ld.end_aru(aru).unwrap();
                }
            });
        }
    });

    let stats = ld.stats();
    assert_eq!(stats.arus_committed, (n_threads * arus_per_thread) as u64);
    assert_eq!(stats.commit_conflicts, 0);

    // Every committed list is complete and correctly patterned, and no
    // block id was handed out twice. List ids are striped across the
    // map shards (shard s owns ids ≡ s mod nshards), so the allocated
    // ids are unique but not dense — scan the whole id space.
    let mut seen_blocks = HashSet::new();
    let mut lists_found = 0;
    let mut buf = vec![0u8; 512];
    for raw in 1..=512u64 {
        let list = ld_aru::core::ListId::new(raw);
        let Ok(blocks) = ld.list_blocks(Ctx::Simple, list) else {
            continue;
        };
        lists_found += 1;
        assert_eq!(blocks.len(), 2, "list {list} incomplete");
        for &b in &blocks {
            assert!(seen_blocks.insert(b), "block {b} appears twice");
        }
        ld.read(Ctx::Simple, blocks[0], &mut buf).unwrap();
        let tag = buf[0];
        assert_eq!(buf, vec![tag; 512]);
        ld.read(Ctx::Simple, blocks[1], &mut buf).unwrap();
        assert_eq!(buf, vec![tag ^ 0xFF; 512]);
    }
    assert_eq!(lists_found, n_threads * arus_per_thread);
}

#[test]
fn threads_with_aborts_and_commits_leave_clean_state() {
    each_mode(aborts_and_commits);
}

fn aborts_and_commits(shards: usize) {
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &ld_config(shards)).unwrap());
    std::thread::scope(|s| {
        for t in 0..4 {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..20 {
                    let aru = ld.begin_aru().unwrap();
                    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
                    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
                    ld.write(Ctx::Aru(aru), b, &vec![t as u8; 512]).unwrap();
                    if i % 2 == 0 {
                        ld.end_aru(aru).unwrap();
                    } else {
                        ld.abort_aru(aru).unwrap();
                    }
                }
            });
        }
    });

    assert_eq!(ld.stats().arus_committed, 40);
    assert_eq!(ld.stats().arus_aborted, 40);
    // Aborted ARUs leave orphaned committed allocations; the check
    // reclaims exactly those (one block per aborted ARU; the lists were
    // allocated too but stay allocated-and-empty, which check() does
    // not touch — they are reachable by id).
    let report = ld.check().unwrap();
    assert_eq!(report.orphan_blocks_freed.len(), 40);
}

#[test]
fn concurrent_durability_callers_share_group_commit_batches() {
    each_mode(durability_callers);
}

fn durability_callers(shards: usize) {
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &ld_config(shards)).unwrap());
    let n_threads = 8;
    let arus_per_thread = 10;

    std::thread::scope(|s| {
        for t in 0..n_threads {
            let ld = Arc::clone(&ld);
            s.spawn(move || {
                for i in 0..arus_per_thread {
                    let aru = ld.begin_aru().unwrap();
                    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
                    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
                    ld.write(Ctx::Aru(aru), b, &vec![(t * 31 + i) as u8; 512])
                        .unwrap();
                    // Synchronous commit: every caller demands
                    // durability, so the group-commit stage gets real
                    // contention.
                    ld.end_aru_sync(aru).unwrap();
                }
            });
        }
    });

    let stats = ld.stats();
    assert_eq!(stats.arus_committed, (n_threads * arus_per_thread) as u64);
    // Every caller was covered by some batch, and no caller was counted
    // twice.
    assert_eq!(
        stats.flush_batch_callers,
        (n_threads * arus_per_thread) as u64
    );
    assert!(stats.flush_batches >= 1);
    assert!(stats.flush_batches <= stats.flush_batch_callers);
    assert!(stats.flush_batch_max >= 1);
}
