//! Cross-shard atomicity: the map-shard count is a runtime tuning knob
//! of the sharded mapping layer, never an observable one.
//!
//! * A seeded property test drives one identical logical workload
//!   against disks configured with 1, 4, and 16 shards and holds each
//!   to the reference model (`common/model.rs`) — live, and after a
//!   crash plus recovery (each image recovered under a *different*
//!   shard count than it was written with, since the knob is not
//!   persisted). Raw ids are striped differently per shard count, so
//!   the workload picks its targets by position, never by raw id.
//! * A multi-threaded power-cut test commits ARUs that each mutate
//!   three lists living in three different shards; recovery must be
//!   all-or-nothing across those shards.

use ld_aru::core::{BlockId, Ctx, ListId, Lld, LldConfig, Position};
use ld_aru::disk::{BlockDevice, DiskModel, FaultPlan, MemDisk, SimDisk, SmallRng};
use ld_aru::workload::{pattern_fill, rng};
use std::collections::HashSet;

#[path = "../crates/core/tests/common/model.rs"]
mod model;
use model::Model;

const BS: usize = 512;

fn config(shards: usize) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(4096),
        max_lists: Some(1024),
        map_shards: shards,
        ..LldConfig::default()
    }
}

/// Handles in creation order, for picking targets: raw ids differ
/// across shard counts (allocation is striped per shard), so the
/// workload picks by position and makes the same choices on every disk.
struct Recorded {
    lists: Vec<ListId>,
    blocks: Vec<BlockId>,
    /// `blocks[i]` has not been deleted.
    live: Vec<bool>,
}

fn pick_live(rec: &Recorded, r: &mut SmallRng) -> Option<usize> {
    let live: Vec<usize> = (0..rec.blocks.len()).filter(|&i| rec.live[i]).collect();
    (!live.is_empty()).then(|| live[(r.next_u64() as usize) % live.len()])
}

/// Runs the seeded workload through `m`: simple allocations, writes,
/// deletes, and multi-list ARUs (committed and aborted). Deterministic
/// given the seed — the operation stream is identical for every shard
/// count.
fn drive<D: BlockDevice>(ld: &Lld<D>, m: &mut Model) -> Recorded {
    let mut r = rng(0x5AD_C0DE);
    let mut rec = Recorded {
        lists: Vec::new(),
        blocks: Vec::new(),
        live: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    // Starter lists so every operation has a target.
    for _ in 0..3 {
        rec.lists.push(m.new_list(ld, Ctx::Simple).unwrap());
    }
    for step in 0..160u64 {
        match r.next_u64() % 100 {
            0..=14 => {
                rec.lists.push(m.new_list(ld, Ctx::Simple).unwrap());
            }
            15..=54 => {
                let l = rec.lists[(r.next_u64() as usize) % rec.lists.len()];
                let b = m.new_block(ld, Ctx::Simple, l, Position::First).unwrap();
                pattern_fill(&mut data, step);
                m.write(ld, Ctx::Simple, b, &data).unwrap();
                rec.blocks.push(b);
                rec.live.push(true);
            }
            55..=74 => {
                if let Some(i) = pick_live(&rec, &mut r) {
                    pattern_fill(&mut data, 0x1_0000 + step);
                    m.write(ld, Ctx::Simple, rec.blocks[i], &data).unwrap();
                }
            }
            75..=84 => {
                if let Some(i) = pick_live(&rec, &mut r) {
                    m.delete_block(ld, Ctx::Simple, rec.blocks[i]).unwrap();
                    rec.live[i] = false;
                }
            }
            _ => {
                // An ARU spanning two fresh lists (round-robin: two
                // different shards for any count > 1) plus, implicitly,
                // the scratch state. Commit three out of four.
                let aru = ld.begin_aru().unwrap();
                let l1 = m.new_list(ld, Ctx::Aru(aru)).unwrap();
                let l2 = m.new_list(ld, Ctx::Aru(aru)).unwrap();
                let b1 = m.new_block(ld, Ctx::Aru(aru), l1, Position::First).unwrap();
                let b2 = m.new_block(ld, Ctx::Aru(aru), l2, Position::First).unwrap();
                pattern_fill(&mut data, 0x2_0000 + step);
                m.write(ld, Ctx::Aru(aru), b1, &data).unwrap();
                pattern_fill(&mut data, 0x3_0000 + step);
                m.write(ld, Ctx::Aru(aru), b2, &data).unwrap();
                if r.next_u64().is_multiple_of(4) {
                    m.abort_aru(ld, aru).unwrap();
                } else {
                    m.end_aru(ld, aru).unwrap();
                    rec.lists.extend([l1, l2]);
                    rec.blocks.extend([b1, b2]);
                    rec.live.extend([true, true]);
                }
            }
        }
    }
    rec
}

/// Runs the workload on a fresh disk with the given shard count and
/// checks the live disk against the model, then crashes with one ARU in
/// flight (a new patterned list plus a delete of a committed block —
/// recovery must discard both halves together).
fn run_and_crash(shards: usize) -> (Model, Vec<u8>) {
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config(shards)).unwrap();
    let mut m = Model::default();
    let rec = drive(&ld, &mut m);
    m.flush(&ld).unwrap();
    let at = format!("shards {shards}, running");
    assert_eq!(m.check(&ld, &at), m.acknowledged(), "{at}");
    let aru = ld.begin_aru().unwrap();
    let l = m.new_list(&ld, Ctx::Aru(aru)).unwrap();
    let b = m.new_block(&ld, Ctx::Aru(aru), l, Position::First).unwrap();
    let mut data = vec![0u8; BS];
    pattern_fill(&mut data, 0xDEAD);
    m.write(&ld, Ctx::Aru(aru), b, &data).unwrap();
    let victim = rec.live.iter().position(|&v| v).expect("a block survives");
    m.delete_block(&ld, Ctx::Aru(aru), rec.blocks[victim])
        .unwrap();
    let (image, cut) = ld.into_device().crash_image();
    assert_eq!(
        cut.pending, 0,
        "shards {shards}: {cut}: the ARU wrote nothing"
    );
    (m, image)
}

/// Every shard count runs the same stream, and each disk is its model:
/// live, and after a crash plus a recovery under a *different* shard
/// count than it was written with (the knob is not persisted). The
/// in-flight ARU is discarded wholesale, its allocations with it: the
/// recovered disk is the flushed one (in particular the in-ARU delete
/// did NOT survive on its own).
#[test]
fn shard_count_is_not_observable() {
    for (written, recovered) in [(1, 16), (4, 1), (16, 4)] {
        let (m, image) = run_and_crash(written);
        let (ld, _) = Lld::recover_with(MemDisk::from_image(image), &config(recovered)).unwrap();
        let at = format!("written at {written} shards, recovered at {recovered}");
        assert_eq!(m.check(&ld, &at), m.durable(), "{at}");
    }
}

#[test]
fn mt_power_cut_aru_spanning_three_shards_is_all_or_nothing() {
    // Each thread owns three lists that provably live in three distinct
    // shards (allocated back-to-back before the fault is armed, so
    // round-robin placement is deterministic). Every ARU then appends
    // one block to each of the three lists — blocks allocate from their
    // list's shard, so each commit spans exactly three shards. No two
    // threads touch one list, so each keeps a model of its own lists,
    // and after the power cut the disk is a prefix of every thread's.
    const THREADS: usize = 4;
    const ARUS_PER_THREAD: usize = 12;
    const LISTS_PER_THREAD: usize = 3;
    const SHARDS: usize = 8;

    let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config(SHARDS)).unwrap();

    // Pre-crash setup: three lists per thread, allocated consecutively,
    // so they land in three consecutive (distinct) shards.
    let mut models: Vec<(Model, Vec<ListId>)> = (0..THREADS)
        .map(|_| {
            let mut m = Model::default();
            let ls: Vec<ListId> = (0..LISTS_PER_THREAD)
                .map(|_| m.new_list(&ld, Ctx::Simple).unwrap())
                .collect();
            let spread: HashSet<u64> = ls.iter().map(|l| l.get() % SHARDS as u64).collect();
            assert_eq!(spread.len(), 3, "the three lists must span three shards");
            (m, ls)
        })
        .collect();
    ld.flush().unwrap();
    models.iter_mut().for_each(|(m, _)| m.synced());
    ld.device()
        .set_faults(FaultPlan::new().crash_after_bytes(24 * 1024));

    std::thread::scope(|s| {
        for (t, (m, mine)) in models.iter_mut().enumerate() {
            let ld = &ld;
            s.spawn(move || {
                for i in 0..ARUS_PER_THREAD {
                    let tag = (t * 64 + i + 1) as u8;
                    let mut unit = || {
                        let aru = ld.begin_aru()?;
                        for (k, &list) in mine.iter().enumerate() {
                            let b = m.new_block(ld, Ctx::Aru(aru), list, Position::First)?;
                            m.write(ld, Ctx::Aru(aru), b, &[tag ^ (k as u8) << 6; BS])?;
                        }
                        m.end_aru(ld, aru)?;
                        m.flush(ld)
                    };
                    if unit().is_err() {
                        break; // the power is out; stop this client
                    }
                }
            });
        }
    });

    assert!(
        ld.stats().cross_shard_commits >= 1,
        "the workload must exercise cross-shard commits"
    );
    let (image, cut) = ld.into_device().crash_image();
    let (ld2, _report) =
        Lld::recover(MemDisk::from_image(image)).unwrap_or_else(|e| panic!("{cut}: {e}"));
    let mut durable_arus = 0;
    for (t, (m, _)) in models.iter().enumerate() {
        m.check(&ld2, &format!("thread {t}, {cut}"));
        // Three lists, then per ARU three allocations and its commit.
        durable_arus += m.durable().saturating_sub(LISTS_PER_THREAD) / 4;
    }
    assert!(
        durable_arus >= 1,
        "{cut}: the crash point must allow some ARUs to become durable first"
    );
}
