//! Randomised tests of the core invariants, driven by a seeded PRNG so
//! every run checks the same sample deterministically:
//!
//! 1. log-replay equivalence — recovering from the on-disk log after a
//!    clean flush reproduces exactly the committed state;
//! 2. isolation — an aborted ARU never affects the committed state.
//!
//! Both hold the disk to the reference model (`common/model.rs`): the
//! live disk and the recovered one are the model after a prefix of the
//! units the steps made. Crash atomicity at every cut is the crash
//! enumerator's (`crash_enumeration.rs`).

use ld_core::{Ctx, Lld, LldConfig, LldError, Position};
use ld_disk::{MemDisk, SmallRng};

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

// ---------------------------------------------------------------------------
// Write ids settle against one row per client
// ---------------------------------------------------------------------------

/// Runs one tagged commit appending a fresh block (payload = the
/// write-id) to `list`.
fn tagged_append<D: ld_disk::BlockDevice>(
    ld: &Lld<D>,
    list: ld_core::ListId,
    client: u64,
    generation: u64,
    wid: u64,
) -> ld_core::Result<ld_core::TaggedCommit> {
    let aru = ld.begin_aru().unwrap();
    let b = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), b, &block_of(wid as u8)).unwrap();
    ld.end_aru_tagged(aru, client, generation, wid)
}

/// How `wid` settles against a floor of `floor`, as the contract says
/// (docs/PROTOCOL.md): `Some(true)` applied with the floor's outcome,
/// `Some(false)` applied with its outcome superseded, `None` refused
/// out of sequence.
fn expected(wid: u64, floor: u64) -> Option<bool> {
    match wid {
        w if w == floor => Some(true),
        w if w < floor => Some(false),
        _ => None,
    }
}

/// There is no window: ids run in sequence, and after any prefix of
/// them, with random retries of any id from 1 to two past the floor
/// (but the next) mixed in, a retry of the floor answers its outcome, one below it
/// answers "applied, outcome superseded", one past the next is refused
/// out of sequence, and none of them runs (the list does not grow) —
/// live, and on the disk recovered from the flushed log.
#[test]
fn dedup_window_holds_under_random_traffic() {
    const CLIENT: u64 = 7;
    let mut rng = SmallRng::seed_from_u64(0xDED0_0001);
    let ld = Lld::format(MemDisk::new(8 << 20), &config()).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();

    // Checks every id from 1 to two past `floor` against `ld`'s answers
    // to a lookup and to a retry.
    let check = |ld: &Lld<MemDisk>, floor: u64, last: Option<ld_core::WriteIdOutcome>| {
        for w in 1..=floor + 2 {
            let looked = ld.write_id_lookup(CLIENT, 1, w);
            match (expected(w, floor), looked) {
                (Some(true), Ok(Some(o))) => assert_eq!(Some(o), last, "write id {w}"),
                (Some(false), Err(LldError::WriteIdSuperseded { floor: f, .. })) => {
                    assert_eq!(f, floor)
                }
                (None, Ok(None)) if w == floor + 1 => {}
                (None, Err(LldError::WriteIdOutOfSequence { floor: f, .. })) if w > floor + 1 => {
                    assert_eq!(f, floor)
                }
                (want, got) => panic!("write id {w}, floor {floor}: {want:?}, looked up {got:?}"),
            }
        }
    };

    let mut last = None;
    for wid in 1..=120u64 {
        let out = tagged_append(&ld, list, CLIENT, 1, wid).unwrap();
        assert!(!out.deduped, "fresh write_id {wid} deduped");
        last = Some(out.outcome);

        if rng.gen_index(4) == 0 {
            // Any id but the next, which is no retry.
            let pick = match 1 + rng.gen_index(wid as usize + 1) as u64 {
                next if next == wid + 1 => wid + 2,
                pick => pick,
            };
            let before = ld.list_blocks(Ctx::Simple, list).unwrap().len();
            let retry = tagged_append(&ld, list, CLIENT, 1, pick);
            match (expected(pick, wid), retry) {
                (Some(true), Ok(r)) => assert!(r.deduped && Some(r.outcome) == last),
                (Some(false), Err(LldError::WriteIdSuperseded { .. })) => {}
                (None, Err(LldError::WriteIdOutOfSequence { .. })) => {}
                (want, got) => panic!("retry of {pick}, floor {wid}: {want:?}, got {got:?}"),
            }
            let after = ld.list_blocks(Ctx::Simple, list).unwrap().len();
            assert_eq!(before, after, "a retry of write id {pick} ran");
        }
        check(&ld, wid, last);
    }
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap().len(), 120);

    // The recovered row answers the same.
    ld.flush().unwrap();
    let image = ld.into_device().into_image();
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &config()).unwrap();
    check(&ld2, 120, last);
}

/// A generation bump starts the client's ids again from 1, and the old
/// generation's are no longer answered: a `Hello` or a commit under it
/// is refused. Within the current generation a retry of the floor is
/// answered, not re-executed.
#[test]
fn generation_bump_evicts_but_never_readmits_duplicates() {
    const CLIENT: u64 = 9;
    let ld = Lld::format(MemDisk::new(8 << 20), &config()).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();

    for wid in 1..=5u64 {
        assert!(!tagged_append(&ld, list, CLIENT, 1, wid).unwrap().deduped);
    }
    assert!(matches!(
        ld.write_id_lookup(CLIENT, 1, 3),
        Err(LldError::WriteIdSuperseded { floor: 5, .. })
    ));

    // New incarnation: its ids start again.
    assert_eq!(ld.client_hello(CLIENT, 2).unwrap(), 0);
    assert!(
        ld.write_id_lookup(CLIENT, 1, 5).is_err(),
        "generation 1 answered"
    );
    assert_eq!(ld.write_id_lookup(CLIENT, 2, 1), Ok(None));
    let fresh = tagged_append(&ld, list, CLIENT, 2, 1).unwrap();
    assert!(!fresh.deduped, "stale-generation outcome leaked into gen 2");

    // Within the current generation the duplicate is still caught.
    let retry = tagged_append(&ld, list, CLIENT, 2, 1).unwrap();
    assert!(retry.deduped, "current-generation duplicate re-admitted");
    assert_eq!(retry.outcome.commit_ts, fresh.outcome.commit_ts);
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap().len(), 6);

    // A regressed generation is refused outright.
    assert!(ld.client_hello(CLIENT, 1).is_err());
    assert!(tagged_append(&ld, list, CLIENT, 1, 6).is_err());
}
