//! Cross-shard atomicity: the map-shard count is a runtime tuning knob
//! of the sharded mapping layer, never an observable one.
//!
//! * A seeded property test drives one identical logical workload
//!   against disks configured with 1, 4, and 16 shards and asserts the
//!   observable state is identical — live, and after a crash plus
//!   recovery (each image recovered under a *different* shard count
//!   than it was written with, since the knob is not persisted). Raw
//!   ids are striped differently per shard count, so all comparisons go
//!   through positionally-recorded handles, never raw ids.
//! * A multi-threaded power-cut test commits ARUs that each mutate
//!   three lists living in three different shards; recovery must be
//!   all-or-nothing across those shards.

use ld_aru::core::{BlockId, Ctx, ListId, Lld, LldConfig, Position};
use ld_aru::disk::{DiskModel, FaultPlan, MemDisk, SimDisk, SmallRng};
use ld_aru::workload::{pattern_fill, rng};
use std::collections::{HashMap, HashSet};

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

/// Handles in creation order. Raw ids differ across shard counts
/// (allocation is striped per shard), so cross-disk comparisons address
/// objects by these positions.
struct Recorded {
    lists: Vec<ListId>,
    blocks: Vec<BlockId>,
    /// `blocks[i]` has not been deleted.
    live: Vec<bool>,
}

fn pick_live(rec: &Recorded, r: &mut SmallRng) -> Option<usize> {
    let live: Vec<usize> = (0..rec.blocks.len()).filter(|&i| rec.live[i]).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[(r.next_u64() as usize) % live.len()])
    }
}

/// Runs the seeded workload: simple allocations, writes, deletes, and
/// multi-list ARUs (committed and aborted). Deterministic given the
/// seed — the operation stream is identical for every shard count.
fn drive<D: ld_aru::disk::BlockDevice>(ld: &Lld<D>) -> Recorded {
    let mut r = rng(0x5AD_C0DE);
    let mut rec = Recorded {
        lists: Vec::new(),
        blocks: Vec::new(),
        live: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    // Starter lists so every operation has a target.
    for _ in 0..3 {
        rec.lists.push(ld.new_list(Ctx::Simple).unwrap());
    }
    for step in 0..160u64 {
        match r.next_u64() % 100 {
            0..=14 => {
                rec.lists.push(ld.new_list(Ctx::Simple).unwrap());
            }
            15..=54 => {
                let l = rec.lists[(r.next_u64() as usize) % rec.lists.len()];
                let b = ld.new_block(Ctx::Simple, l, Position::First).unwrap();
                pattern_fill(&mut data, step);
                ld.write(Ctx::Simple, b, &data).unwrap();
                rec.blocks.push(b);
                rec.live.push(true);
            }
            55..=74 => {
                if let Some(i) = pick_live(&rec, &mut r) {
                    pattern_fill(&mut data, 0x1_0000 + step);
                    ld.write(Ctx::Simple, rec.blocks[i], &data).unwrap();
                }
            }
            75..=84 => {
                if let Some(i) = pick_live(&rec, &mut r) {
                    ld.delete_block(Ctx::Simple, rec.blocks[i]).unwrap();
                    rec.live[i] = false;
                }
            }
            _ => {
                // An ARU spanning two fresh lists (round-robin: two
                // different shards for any count > 1) plus, implicitly,
                // the scratch state. Commit three out of four.
                let aru = ld.begin_aru().unwrap();
                let l1 = ld.new_list(Ctx::Aru(aru)).unwrap();
                let l2 = ld.new_list(Ctx::Aru(aru)).unwrap();
                let b1 = ld.new_block(Ctx::Aru(aru), l1, Position::First).unwrap();
                let b2 = ld.new_block(Ctx::Aru(aru), l2, Position::First).unwrap();
                pattern_fill(&mut data, 0x2_0000 + step);
                ld.write(Ctx::Aru(aru), b1, &data).unwrap();
                pattern_fill(&mut data, 0x3_0000 + step);
                ld.write(Ctx::Aru(aru), b2, &data).unwrap();
                if r.next_u64().is_multiple_of(4) {
                    ld.abort_aru(aru).unwrap();
                } else {
                    ld.end_aru(aru).unwrap();
                    rec.lists.push(l1);
                    rec.lists.push(l2);
                    rec.blocks.push(b1);
                    rec.live.push(true);
                    rec.blocks.push(b2);
                    rec.live.push(true);
                }
            }
        }
    }
    rec
}

/// The observable state of the disk, addressed purely through recorded
/// positions: every recorded list's walk (as block positions) and every
/// live recorded block's contents.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    walks: Vec<Vec<usize>>,
    contents: Vec<Option<Vec<u8>>>,
}

fn fingerprint<D: ld_aru::disk::BlockDevice>(ld: &Lld<D>, rec: &Recorded) -> Fingerprint {
    let pos_of: HashMap<BlockId, usize> = rec
        .blocks
        .iter()
        .enumerate()
        .filter(|&(i, _)| rec.live[i])
        .map(|(i, &b)| (b, i))
        .collect();
    let walks = rec
        .lists
        .iter()
        .map(|&l| {
            ld.list_blocks(Ctx::Simple, l)
                .unwrap()
                .iter()
                .map(|b| *pos_of.get(b).expect("walk returned an unrecorded block"))
                .collect()
        })
        .collect();
    let mut contents = Vec::new();
    let mut buf = vec![0u8; BS];
    for (i, &b) in rec.blocks.iter().enumerate() {
        if rec.live[i] {
            ld.read(Ctx::Simple, b, &mut buf).unwrap();
            contents.push(Some(buf.clone()));
        } else {
            contents.push(None);
        }
    }
    Fingerprint { walks, contents }
}

/// Runs the workload on a fresh disk with the given shard count, takes
/// the live fingerprint, then crashes with one ARU in flight (a new
/// patterned list plus a delete of a committed block — recovery must
/// discard both halves together).
fn run_and_crash(shards: usize) -> (Fingerprint, Vec<u8>, Recorded) {
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &config(shards)).unwrap();
    let rec = drive(&ld);
    let live = fingerprint(&ld, &rec);
    ld.flush().unwrap();
    let aru = ld.begin_aru().unwrap();
    let l = ld.new_list(Ctx::Aru(aru)).unwrap();
    let b = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
    let mut data = vec![0u8; BS];
    pattern_fill(&mut data, 0xDEAD);
    ld.write(Ctx::Aru(aru), b, &data).unwrap();
    let victim = rec.live.iter().position(|&v| v).expect("a block survives");
    ld.delete_block(Ctx::Aru(aru), rec.blocks[victim]).unwrap();
    let (image, cut) = ld.into_device().crash_image();
    assert_eq!(
        cut.pending, 0,
        "shards {shards}: {cut}: the ARU wrote nothing"
    );
    (live, image, rec)
}

#[test]
fn shard_count_is_not_observable() {
    let (fp1, img1, rec1) = run_and_crash(1);
    let (fp4, img4, rec4) = run_and_crash(4);
    let (fp16, img16, rec16) = run_and_crash(16);

    // Live: reads and walks identical across shard counts.
    assert_eq!(fp1, fp4, "1 vs 4 shards diverge while running");
    assert_eq!(fp1, fp16, "1 vs 16 shards diverge while running");

    // Post-crash: recover each image under a shard count *different*
    // from the one it was written with — the knob is not persisted —
    // and compare the recovered observable state.
    let rfp = |image: Vec<u8>, rec: &Recorded, shards: usize| {
        let (ld, _) = Lld::recover_with(MemDisk::from_image(image), &config(shards)).unwrap();
        fingerprint(&ld, rec)
    };
    let r1 = rfp(img1, &rec1, 16);
    let r4 = rfp(img4, &rec4, 1);
    let r16 = rfp(img16, &rec16, 4);
    assert_eq!(r1, r4, "1 vs 4 shards diverge after crash recovery");
    assert_eq!(r1, r16, "1 vs 16 shards diverge after crash recovery");

    // The in-flight ARU was discarded wholesale: the recovered state is
    // exactly the flushed pre-crash state (in particular the in-ARU
    // delete did NOT survive on its own).
    assert_eq!(r1, fp1, "crash recovery must restore the flushed state");
}

#[test]
fn mt_power_cut_aru_spanning_three_shards_is_all_or_nothing() {
    // Each thread owns three lists that provably live in three distinct
    // shards (allocated back-to-back before the fault is armed, so
    // round-robin placement is deterministic). Every ARU then appends
    // one block to each of the three lists — blocks allocate from their
    // list's shard, so each commit spans exactly three shards. After
    // the power cut, every ARU must have either all three blocks or
    // none of them.
    use std::sync::Arc;

    const THREADS: usize = 4;
    const ARUS_PER_THREAD: usize = 12;
    const LISTS_PER_THREAD: usize = 3;
    const SHARDS: usize = 8;

    #[derive(Debug)]
    struct AruRecord {
        blocks: Vec<BlockId>,
        tag: u8,
        committed: bool, // end_aru reached and returned Ok
        durable: bool,   // the following flush returned Ok too
    }

    let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
    let ld = Arc::new(Lld::format(sim, &config(SHARDS)).unwrap());

    // Pre-crash setup: three lists per thread, allocated consecutively,
    // so they land in three consecutive (distinct) shards.
    let lists: Vec<Vec<ListId>> = (0..THREADS)
        .map(|_| {
            let ls: Vec<ListId> = (0..LISTS_PER_THREAD)
                .map(|_| ld.new_list(Ctx::Simple).unwrap())
                .collect();
            let spread: HashSet<u64> = ls.iter().map(|l| l.get() % SHARDS as u64).collect();
            assert_eq!(spread.len(), 3, "the three lists must span three shards");
            ls
        })
        .collect();
    ld.flush().unwrap();
    ld.device()
        .set_faults(FaultPlan::new().crash_after_bytes(24 * 1024));

    let records: Vec<Vec<AruRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ld = Arc::clone(&ld);
                let mine = &lists[t];
                s.spawn(move || {
                    let mut out = Vec::new();
                    'arus: for i in 0..ARUS_PER_THREAD {
                        let tag = (t * 64 + i + 1) as u8;
                        let Ok(aru) = ld.begin_aru() else { break };
                        let mut rec = AruRecord {
                            blocks: Vec::new(),
                            tag,
                            committed: false,
                            durable: false,
                        };
                        for (k, &list) in mine.iter().enumerate() {
                            let Ok(b) = ld.new_block(Ctx::Aru(aru), list, Position::First) else {
                                out.push(rec);
                                break 'arus;
                            };
                            rec.blocks.push(b);
                            let data = vec![tag ^ (k as u8) << 6; BS];
                            if ld.write(Ctx::Aru(aru), b, &data).is_err() {
                                out.push(rec);
                                break 'arus;
                            }
                        }
                        rec.committed = ld.end_aru(aru).is_ok();
                        rec.durable = rec.committed && ld.flush().is_ok();
                        let done = !rec.durable;
                        out.push(rec);
                        if done {
                            break; // the power is out; stop this client
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let pre = ld.stats();
    let ld = Arc::try_unwrap(ld).expect("threads are done");
    let (image, cut) = ld.into_device().crash_image();
    let (ld2, _report) =
        Lld::recover(MemDisk::from_image(image)).unwrap_or_else(|e| panic!("{cut}: {e}"));

    // Every commit touched three shards.
    assert!(
        pre.cross_shard_commits >= 1,
        "the workload must exercise cross-shard commits"
    );

    // Survivors: the union of all blocks on the threads' lists.
    let mut surviving: HashSet<BlockId> = HashSet::new();
    for ls in &lists {
        for &l in ls {
            for b in ld2.list_blocks(Ctx::Simple, l).unwrap_or_default() {
                surviving.insert(b);
            }
        }
    }

    let mut durable_arus = 0;
    let mut buf = vec![0u8; BS];
    for rec in records.iter().flatten() {
        let present = rec.blocks.iter().filter(|b| surviving.contains(b)).count();
        if rec.durable {
            assert_eq!(
                present, LISTS_PER_THREAD,
                "{cut}: durable ARU (tag {}) must survive on all three shards",
                rec.tag
            );
            durable_arus += 1;
        }
        // The cross-shard all-or-nothing property: an ARU never
        // survives on a strict subset of the shards it touched.
        assert!(
            present == 0 || present == rec.blocks.len(),
            "{cut}: ARU (tag {}) survived on {present} of {} shards",
            rec.tag,
            rec.blocks.len()
        );
        if present > 0 {
            assert!(
                rec.committed,
                "{cut}: ARU (tag {}) survived without ever committing",
                rec.tag
            );
            for (k, &b) in rec.blocks.iter().enumerate() {
                ld2.read(Ctx::Simple, b, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    vec![rec.tag ^ (k as u8) << 6; BS],
                    "{cut}: block {k} of ARU (tag {}) corrupted",
                    rec.tag
                );
            }
        }
    }
    assert!(
        durable_arus >= 1,
        "{cut}: the crash point must allow some ARUs to become durable first"
    );
}
