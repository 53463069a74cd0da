//! Randomised tests of the core invariants, driven by a seeded PRNG so
//! every run checks the same sample deterministically:
//!
//! 1. log-replay equivalence — recovering from the on-disk log after a
//!    clean flush reproduces exactly the committed state;
//! 2. crash atomicity — at *any* crash point, every ARU recovers
//!    all-or-nothing;
//! 3. isolation — an aborted ARU never affects the committed state.
//!
//! The first three hold the disk to the reference model
//! (`common/model.rs`): the live disk and the recovered one are the
//! model after a prefix of the units the steps made.

use ld_core::{Ctx, Lld, LldConfig, LldError, Position};
use ld_disk::{DiskModel, FaultPlan, MemDisk, SimDisk, SmallRng};

#[path = "common/model.rs"]
mod model;
use model::Model;

const BS: usize = 512;

fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 8 * BS,
        max_blocks: Some(512),
        max_lists: Some(128),
        ..LldConfig::default()
    }
}

fn block_of(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

/// One step of a random workload. Object indices are taken modulo the
/// number of existing objects, so any value is valid.
#[derive(Debug, Clone)]
enum Step {
    NewList,
    NewBlockFirst { list: u8 },
    NewBlockAfterLast { list: u8 },
    Write { pick: u16, byte: u8 },
    DeleteBlock { pick: u16 },
    DeleteList { list: u8 },
    Flush,
}

/// Weighted step choice matching the original distribution
/// (1:4:4:8:2:1:1).
fn random_step(rng: &mut SmallRng) -> Step {
    match rng.gen_index(21) {
        0 => Step::NewList,
        1..=4 => Step::NewBlockFirst {
            list: rng.gen_index(256) as u8,
        },
        5..=8 => Step::NewBlockAfterLast {
            list: rng.gen_index(256) as u8,
        },
        9..=16 => Step::Write {
            pick: rng.gen_index(65536) as u16,
            byte: rng.gen_index(256) as u8,
        },
        17..=18 => Step::DeleteBlock {
            pick: rng.gen_index(65536) as u16,
        },
        19 => Step::DeleteList {
            list: rng.gen_index(256) as u8,
        },
        _ => Step::Flush,
    }
}

fn random_steps(rng: &mut SmallRng, min: usize, max: usize) -> Vec<Step> {
    let n = rng.gen_range(min as u64, max as u64) as usize;
    (0..n).map(|_| random_step(rng)).collect()
}

/// Applies `steps` in `ctx` through the model. A step picks its list or
/// block among the ones the acknowledged steps left, so most are valid;
/// one that fails inside an ARU leaves no trace, and one that fails
/// outside is recorded as having returned `Err`.
fn apply_steps<D: ld_disk::BlockDevice>(
    ld: &Lld<D>,
    m: &mut Model,
    ctx: Ctx,
    steps: &[Step],
) -> Result<(), LldError> {
    for step in steps {
        let (lists, blocks) = m.live();
        let list = |i: u8| lists[i as usize % lists.len()];
        let block = |i: u16| blocks[i as usize % blocks.len()];
        match *step {
            Step::NewList => {
                m.new_list(ld, ctx)?;
            }
            Step::NewBlockFirst { list: i } if !lists.is_empty() => {
                let _ = m.new_block(ld, ctx, list(i), Position::First);
            }
            Step::NewBlockAfterLast { list: i } if !lists.is_empty() => {
                if let Ok(members) = ld.list_blocks(ctx, list(i)) {
                    let pos = members
                        .last()
                        .map_or(Position::First, |&b| Position::After(b));
                    let _ = m.new_block(ld, ctx, list(i), pos);
                }
            }
            Step::Write { pick, byte } if !blocks.is_empty() => {
                let _ = m.write(ld, ctx, block(pick), &block_of(byte));
            }
            Step::DeleteBlock { pick } if !blocks.is_empty() => {
                let _ = m.delete_block(ld, ctx, block(pick));
            }
            Step::DeleteList { list: i } if !lists.is_empty() => {
                let _ = m.delete_list(ld, ctx, list(i));
            }
            Step::Flush if ctx.is_simple() => m.flush(ld)?,
            _ => {}
        }
    }
    Ok(())
}

#[test]
fn log_replay_reproduces_committed_state() {
    let mut rng = SmallRng::seed_from_u64(0x4C445F01);
    for case in 0..32 {
        let steps = random_steps(&mut rng, 1, 120);
        let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
        let mut m = Model::default();
        apply_steps(&ld, &mut m, Ctx::Simple, &steps).unwrap();
        m.flush(&ld).unwrap();
        let at = format!("case {case}");
        assert_eq!(m.check(&ld, &at), m.acknowledged(), "{at}: the live disk");

        let image = ld.into_device().into_image();
        let (ld2, _) = Lld::recover(MemDisk::from_image(image)).unwrap();
        assert_eq!(m.check(&ld2, &at), m.acknowledged(), "{at}");
    }
}

#[test]
fn aborted_aru_leaves_no_trace() {
    let mut rng = SmallRng::seed_from_u64(0x4C445F02);
    for case in 0..32 {
        let setup = random_steps(&mut rng, 1, 40);
        let inside = random_steps(&mut rng, 1, 40);
        let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
        let mut m = Model::default();
        apply_steps(&ld, &mut m, Ctx::Simple, &setup).unwrap();

        // Whatever happens inside the ARU, aborting it leaves the
        // committed state as its allocations, which commit at once,
        // left it.
        let aru = ld.begin_aru().unwrap();
        let _ = apply_steps(&ld, &mut m, Ctx::Aru(aru), &inside);
        m.abort_aru(&ld, aru).unwrap();
        let at = format!("case {case}");
        assert_eq!(m.check(&ld, &at), m.acknowledged(), "{at}");
    }
}

#[test]
fn crash_atomicity_at_any_point() {
    let mut rng = SmallRng::seed_from_u64(0x4C445F03);
    // `CRASH_SEED=<crash point>` runs one case alone: the case is its
    // crash point's.
    let points: Vec<u64> = match std::env::var("CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("CRASH_SEED is a number")],
        Err(_) => (0..32).map(|_| rng.gen_range(1000, 60_000)).collect(),
    };
    for crash_after in points {
        let n_arus = SmallRng::seed_from_u64(crash_after).gen_range(1, 8) as usize;
        // Each ARU creates its own list with 3 blocks of a known
        // pattern, then flushes.
        let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010());
        let ld = Lld::format(sim, &config()).unwrap();
        ld.device()
            .set_faults(FaultPlan::new().crash_after_bytes(crash_after));

        let mut m = Model::default();
        for i in 0..n_arus as u8 {
            let mut run = || -> Result<(), LldError> {
                let aru = ld.begin_aru()?;
                let l = m.new_list(&ld, Ctx::Aru(aru))?;
                let mut pos = Position::First;
                for k in 1..=3 {
                    let b = m.new_block(&ld, Ctx::Aru(aru), l, pos)?;
                    m.write(&ld, Ctx::Aru(aru), b, &block_of(i * 3 + k))?;
                    pos = Position::After(b);
                }
                m.end_aru(&ld, aru)?;
                m.flush(&ld)
            };
            match run() {
                Ok(()) => {}
                Err(LldError::Disk(_)) => break,
                Err(e) => panic!("CRASH_SEED={crash_after}: unexpected: {e}"),
            }
        }
        // A crash point the workload did not reach is cut now.
        let (image, cut) = ld.into_device().crash_image();
        let (ld2, _) =
            Lld::recover(MemDisk::from_image(image)).unwrap_or_else(|e| panic!("{cut}: {e}"));
        m.check(&ld2, &cut.to_string());
    }
}

// ---------------------------------------------------------------------------
// Write-id dedup cache bounds
// ---------------------------------------------------------------------------

/// Runs one tagged commit appending a fresh block (payload = the
/// write-id) to `list`.
fn tagged_append<D: ld_disk::BlockDevice>(
    ld: &Lld<D>,
    list: ld_core::ListId,
    client: u64,
    generation: u64,
    wid: u64,
) -> ld_core::TaggedCommit {
    let aru = ld.begin_aru().unwrap();
    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &block_of(wid as u8)).unwrap();
    ld.end_aru_tagged(aru, client, generation, wid).unwrap()
}

/// The dedup cache is a bounded FIFO window: with capacity C, after any
/// prefix of distinct tagged commits exactly the newest `min(n, C)`
/// write-ids dedup, everything older has been evicted, and the cache
/// never exceeds C — including across random mid-stream retries and a
/// crash-recovery rebuild at the end.
#[test]
fn dedup_window_holds_under_random_traffic() {
    const CLIENT: u64 = 7;
    let cap = 16usize; // MIN_DEDUP_CAPACITY, the tightest legal bound
    let cfg = LldConfig {
        dedup_capacity: cap,
        ..config()
    };
    let mut rng = SmallRng::seed_from_u64(0xDED0_0001);
    let ld = Lld::format(MemDisk::new(8 << 20), &cfg).unwrap();
    assert_eq!(ld.write_id_capacity(), cap);
    let list = ld.new_list(Ctx::Simple).unwrap();

    let mut committed: Vec<u64> = Vec::new(); // completion order
    for wid in 1..=120u64 {
        let out = tagged_append(&ld, list, CLIENT, 1, wid);
        assert!(!out.deduped, "fresh write_id {wid} deduped");
        committed.push(wid);

        // Occasionally retry a random already-committed write-id: if
        // it is inside the window it must dedup (and not re-execute);
        // outside the window it re-executes as a fresh transaction —
        // the documented client contract for an over-aged retry.
        if rng.gen_index(4) == 0 {
            let pick = committed[rng.gen_index(committed.len())];
            let in_window =
                committed.len() - committed.iter().position(|&w| w == pick).unwrap() <= cap;
            let before = ld.list_blocks(Ctx::Simple, list).unwrap().len();
            let retry = tagged_append(&ld, list, CLIENT, 1, pick);
            let after = ld.list_blocks(Ctx::Simple, list).unwrap().len();
            if in_window {
                assert!(retry.deduped, "write_id {pick} inside window re-executed");
                assert_eq!(before, after, "deduped retry mutated the list");
            } else {
                assert!(!retry.deduped, "evicted write_id {pick} claimed deduped");
                assert_eq!(after, before + 1);
                // The re-execution re-enters the window as the newest
                // entry; track it so the oracle stays aligned.
                committed.retain(|&w| w != pick);
                committed.push(pick);
            }
        }

        assert!(ld.write_id_count() <= cap, "cache exceeded its bound");
        let n = committed.len();
        for (i, &w) in committed.iter().enumerate() {
            let hit = ld.write_id_lookup(CLIENT, w).is_some();
            let expect = n - i <= cap;
            assert_eq!(hit, expect, "window oracle mismatch at write_id {w}");
        }
    }

    // The rebuilt cache after crash+recovery honours the same window.
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert!(ld2.write_id_count() <= cap);
    let n = committed.len();
    for (i, &w) in committed.iter().enumerate() {
        assert_eq!(
            ld2.write_id_lookup(CLIENT, w).is_some(),
            n - i <= cap,
            "recovered window oracle mismatch at write_id {w}"
        );
    }
}

/// Generation eviction: bumping a client's generation drops its older
/// entries, and a write-id re-committed under the new generation
/// becomes a normal in-window entry — retrying it dedups rather than
/// re-executing (no duplicate within the current generation).
#[test]
fn generation_bump_evicts_but_never_readmits_duplicates() {
    const CLIENT: u64 = 9;
    let cfg = LldConfig {
        dedup_capacity: 16,
        ..config()
    };
    let ld = Lld::format(MemDisk::new(8 << 20), &cfg).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();

    for wid in 1..=5u64 {
        assert!(!tagged_append(&ld, list, CLIENT, 1, wid).deduped);
    }
    assert!(ld.write_id_lookup(CLIENT, 3).is_some());

    // New incarnation: old outcomes are gone, write-ids are reusable.
    ld.client_hello(CLIENT, 2).unwrap();
    assert!(ld.write_id_lookup(CLIENT, 3).is_none());
    let fresh = tagged_append(&ld, list, CLIENT, 2, 3);
    assert!(!fresh.deduped, "stale-generation outcome leaked into gen 2");

    // Within the current generation the duplicate is still caught.
    let retry = tagged_append(&ld, list, CLIENT, 2, 3);
    assert!(retry.deduped, "current-generation duplicate re-admitted");
    assert_eq!(retry.outcome.commit_ts, fresh.outcome.commit_ts);

    // A regressed generation is refused outright.
    assert!(ld.client_hello(CLIENT, 1).is_err());
}
