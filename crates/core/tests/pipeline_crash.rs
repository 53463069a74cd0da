//! Crash safety of the pipelined device layer.
//!
//! The pipelined path moves writes and barriers onto an I/O thread, so
//! these sweeps re-prove the two properties a crash could newly break:
//!
//! 1. **Queue drained before ack** — an `end_aru_sync`/`flush` that
//!    returned `Ok` means every covered write reached the device
//!    *before* the acknowledgment, so a power cut immediately after an
//!    ack can never lose the acknowledged ARU.
//! 2. **All-or-nothing recovery** — at any crash byte, a recovered list
//!    is either complete and correctly patterned or absent, exactly as
//!    on the synchronous path (the pipeline's single FIFO thread
//!    consumes a fault plan's byte budget in submission order).
//!
//! Both are swept at 1 and 8 mapping shards, since the group-commit
//! leader's seal/handoff interleaving differs with shard count.

use ld_core::{Ctx, Lld, LldConfig, LldError, Position};
use ld_disk::{DiskModel, FaultPlan, LatencyDisk, MemDisk, SimDisk};
use std::sync::Arc;
use std::time::Duration;

const BS: usize = 512;

fn config(shards: usize) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 8 * BS,
        max_blocks: Some(512),
        max_lists: Some(128),
        map_shards: shards,
        pipeline: true,
        ..LldConfig::default()
    }
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// One committed-ARU attempt: its list, blocks, pattern tag, and how
/// far it got before the power cut.
#[derive(Debug)]
struct AruRecord {
    list: ld_core::ListId,
    blocks: Vec<ld_core::BlockId>,
    tag: u8,
    committed: bool,
    durable: bool,
}

/// Runs up to `n` three-block ARUs, each committing with `end_aru`
/// followed by `flush`, stopping at the first device error.
fn run_arus(ld: &Lld<SimDisk<MemDisk>>, n: u8) -> Vec<AruRecord> {
    let mut out = Vec::new();
    'arus: for i in 0..n {
        let tag = i + 1;
        let Ok(aru) = ld.begin_aru() else { break };
        let Ok(list) = ld.new_list(Ctx::Aru(aru)) else {
            break;
        };
        let mut rec = AruRecord {
            list,
            blocks: Vec::new(),
            tag,
            committed: false,
            durable: false,
        };
        let mut prev = None;
        for k in 0..3u8 {
            let pos = match prev {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let Ok(b) = ld.new_block(Ctx::Aru(aru), list, pos) else {
                out.push(rec);
                break 'arus;
            };
            rec.blocks.push(b);
            prev = Some(b);
            if ld.write(Ctx::Aru(aru), b, &block(tag ^ (k << 6))).is_err() {
                out.push(rec);
                break 'arus;
            }
        }
        rec.committed = ld.end_aru(aru).is_ok();
        rec.durable = rec.committed && ld.flush().is_ok();
        let done = !rec.durable;
        out.push(rec);
        if done {
            break;
        }
    }
    out
}

/// Recovers the crash image and checks every record: durable ARUs must
/// be complete, surviving ARUs must be complete and committed, content
/// must match the pattern. Returns how many durable ARUs there were.
fn check_recovered(image: Vec<u8>, cfg: &LldConfig, records: &[AruRecord], label: &str) -> usize {
    let (ld2, _report) = Lld::recover_with(MemDisk::from_image(image), cfg).unwrap_or_else(|e| {
        panic!("{label}: recovery failed: {e}");
    });
    let mut durable = 0;
    let mut buf = block(0);
    for rec in records {
        let survived = ld2.list_blocks(Ctx::Simple, rec.list).unwrap_or_default();
        if rec.durable {
            assert_eq!(
                survived, rec.blocks,
                "{label}: durable ARU (tag {}) must survive completely",
                rec.tag
            );
            durable += 1;
        }
        if survived.is_empty() {
            continue; // the "nothing" outcome
        }
        assert!(
            rec.committed,
            "{label}: ARU (tag {}) survived without committing",
            rec.tag
        );
        assert_eq!(
            survived, rec.blocks,
            "{label}: ARU (tag {}) survived partially",
            rec.tag
        );
        for (k, &b) in survived.iter().enumerate() {
            ld2.read(Ctx::Simple, b, &mut buf).unwrap();
            assert_eq!(
                buf,
                block(rec.tag ^ ((k as u8) << 6)),
                "{label}: block {k} of ARU (tag {}) corrupted",
                rec.tag
            );
        }
    }
    durable
}

/// Seals since format (one slot in use) that took no new slot: each is
/// a segment whose successor was streamed behind it in the same slot.
/// The log of these workloads never wraps.
fn in_slot_seals(ld: &Lld<SimDisk<MemDisk>>) -> u64 {
    ld.stats().segments_sealed - u64::from(ld.n_segments() - ld.free_segments() - 1)
}

/// Sweeps crash bytes across the whole workload: before, during, and
/// after the run's writes. Every point must recover all-or-nothing.
fn power_cut_sweep(shards: usize) {
    let cfg = config(shards);
    let mut in_slot = 0;
    for case in 0..24u64 {
        let crash_after = 2_000 + case * 2_500;
        let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010())
            .with_faults(FaultPlan::new().crash_after_bytes(crash_after));
        let ld = match Lld::format(sim, &cfg) {
            Ok(ld) => ld,
            // The budget can be shorter than format itself.
            Err(LldError::Disk(_)) => continue,
            Err(e) => panic!("shards {shards}, crash {crash_after}: format: {e}"),
        };
        assert!(ld.pipelined(), "config must select the pipelined path");
        let records = run_arus(&ld, 10);
        in_slot += in_slot_seals(&ld);
        // If the budget outlived the workload, cut the power now so
        // recovery always runs against a crashed image.
        ld.device().force_crash();
        let image = ld.into_device().into_inner().into_image();
        check_recovered(
            image,
            &cfg,
            &records,
            &format!("shards {shards}, crash {crash_after}"),
        );
    }
    assert!(in_slot > 0, "shards {shards}: every seal took a slot");
}

#[test]
fn power_cut_sweep_is_all_or_nothing_single_shard() {
    power_cut_sweep(1);
}

#[test]
fn power_cut_sweep_is_all_or_nothing_eight_shards() {
    power_cut_sweep(8);
}

/// The queue-drain-before-ack property in isolation: with no fault
/// armed, sync-commit a batch of ARUs, then cut the power immediately
/// after the last acknowledgment. Anything the pipeline acknowledged
/// without having applied would be lost here.
fn sync_ack_means_drained(shards: usize) {
    let cfg = config(shards);
    let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &cfg).unwrap();
    let records = run_arus(&ld, 10);
    assert!(
        records.iter().all(|r| r.durable),
        "no fault armed: every commit must succeed"
    );
    assert!(in_slot_seals(&ld) > 0, "every seal took a slot");
    ld.device().force_crash();
    let image = ld.into_device().into_inner().into_image();
    let durable = check_recovered(
        image,
        &cfg,
        &records,
        &format!("shards {shards}, ack-drain"),
    );
    assert_eq!(durable, 10, "every acknowledged ARU must survive the cut");
}

#[test]
fn sync_ack_means_queue_drained_single_shard() {
    sync_ack_means_drained(1);
}

#[test]
fn sync_ack_means_queue_drained_eight_shards() {
    sync_ack_means_drained(8);
}

/// Group-commit accounting regression: the leader records its batch
/// (`flush_batches`, `flush_batch_callers`, `flush_batch_max`) under
/// the state lock *before* releasing it for the seal. A caller arriving
/// between that release and the seal therefore belongs to the next
/// batch — with the pipelined handoff, batches form while a barrier is
/// still in flight, and every ticket must still be counted exactly
/// once: the callers total equals the number of flush calls.
#[test]
fn group_commit_batches_count_every_caller_exactly_once() {
    const THREADS: usize = 4;
    const COMMITS: usize = 25;
    for pipeline in [false, true] {
        let cfg = LldConfig {
            block_size: BS,
            segment_bytes: 8 * BS,
            pipeline,
            ..LldConfig::default()
        };
        let device = LatencyDisk::new(MemDisk::new(8 << 20), Duration::from_micros(200));
        let ld = Arc::new(Lld::format(device, &cfg).unwrap());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ld = Arc::clone(&ld);
                s.spawn(move || {
                    for i in 0..COMMITS {
                        let aru = ld.begin_aru().unwrap();
                        let list = ld.new_list(Ctx::Aru(aru)).unwrap();
                        let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
                        ld.write(Ctx::Aru(aru), b, &block((t * COMMITS + i) as u8))
                            .unwrap();
                        ld.end_aru_sync(aru).unwrap();
                    }
                });
            }
        });
        let stats = ld.stats();
        let total = (THREADS * COMMITS) as u64;
        assert_eq!(
            stats.flush_batch_callers, total,
            "pipeline={pipeline}: every flush caller lands in exactly one batch"
        );
        assert!(
            stats.flush_batches >= 1 && stats.flush_batches <= total,
            "pipeline={pipeline}: batches within [1, callers]"
        );
        assert!(
            stats.flush_batch_max >= 1 && stats.flush_batch_max <= THREADS as u64,
            "pipeline={pipeline}: a batch covers at most one ticket per thread, \
             got {}",
            stats.flush_batch_max
        );
    }
}
