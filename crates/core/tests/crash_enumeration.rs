//! Every cut of a bounded history (`common/enumerate.rs`), recovered and
//! held to the reference model (`common/history.rs`): seeded histories
//! and mixed extents on a wrapping log, with the cleaning pass on the
//! caller's thread, so each repeats. The flushed-commit shapes are
//! `tests/crash_matrix.rs`'s and `tests/recovery_torn_snapshot.rs`'s.

mod common;
#[path = "common/enumerate.rs"]
mod enumerate;
#[path = "common/history.rs"]
mod history;
#[path = "common/model.rs"]
mod model;

use enumerate::{seeds, StopDisk};
use history::{config, Run};
use ld_core::{BlockId, Ctx, Lld, LldStats};
use ld_disk::SmallRng;

const BS: usize = 512;

/// A ring of hot blocks (as many as a slot has) and a list whose blocks
/// come and go on a 12-slot disk, then steps drawn from the seed — among
/// them tagged commits, retries of the newest tagged one and `Hello`s
/// that raise the tagging client's generation; then a cut with a gap in
/// the log, and more on the disk recovered from it.
fn seeded_history(seed: u64) -> (usize, u64, LldStats) {
    let mut rng = SmallRng::seed_from_u64(0xE7A1_0000 ^ seed);
    let mut r = Run::new(seed, config(seed, BS, 8), 12);
    let hot = r.call(|m, ld| m.new_list(ld, Ctx::Simple)).unwrap();
    let ring = r.chain(Ctx::Simple, hot, 8);
    let cold = r.call(|m, ld| m.new_list(ld, Ctx::Simple)).unwrap();
    let mut coming = r.chain(Ctx::Simple, cold, 2);
    for (i, &b) in ring.iter().chain(&coming).enumerate() {
        r.write(Ctx::Simple, b, &vec![1 + i as u8; BS]);
    }
    r.flush();
    let pick = |rng: &mut SmallRng, n: usize| -> Vec<BlockId> {
        (0..n).map(|_| ring[rng.gen_index(ring.len())]).collect()
    };
    let mut straddled = 0;
    for step in 0..48u8 {
        // Zeros take no sector at all.
        let v = if rng.gen_index(6) == 0 { 0 } else { step + 2 };
        match rng.gen_index(26) {
            0..=5 => r.write(Ctx::Simple, pick(&mut rng, 1)[0], &vec![v; BS]),
            6..=11 => {
                let (n, sealed) = (2 + rng.gen_index(3), r.ld.stats().segments_sealed);
                let blocks = pick(&mut rng, n);
                r.aru(&blocks, |k| vec![v.wrapping_add(k as u8); BS], false);
                // Its records are logged at its commit: a seal there
                // leaves some in front of it, the commit record behind.
                straddled += usize::from(r.ld.stats().segments_sealed > sealed);
            }
            12..=14 => r.aru(&pick(&mut rng, 2), |_| vec![v; BS], true),
            15 | 16 if coming.len() < 6 => {
                // An allocation and its first contents in one ARU.
                let aru = r.ld.begin_aru().unwrap();
                let b = r.chain(Ctx::Aru(aru), cold, 1)[0];
                r.write(Ctx::Aru(aru), b, &vec![v; BS]);
                r.commit(aru, false);
                coming.push(b);
            }
            15..=17 if !coming.is_empty() => {
                let b = coming.remove(rng.gen_index(coming.len()));
                r.call(|m, ld| m.delete_block(ld, Ctx::Simple, b)).unwrap();
            }
            18 => r.checkpoint(),
            19 => r.call(|_, ld| ld.run_cleaner()).unwrap(),
            20 if r.tagged.1 > 0 => {
                // A retry, whose program writes what the first did not.
                let aru = r.ld.begin_aru().unwrap();
                r.write(Ctx::Aru(aru), pick(&mut rng, 1)[0], &vec![0xEE; BS]);
                r.retry(aru);
            }
            21 => r.raise(),
            _ => r.flush(),
        }
    }
    // Then two seals or more since the last barrier, and a cut that
    // keeps every pending write but one: a gap with valid segments
    // behind it, as seals no barrier separates may reach the medium in
    // any order. The disk recovered from that goes on over the gap: a
    // recovery that skipped the gap instead of refilling it would lose
    // what is flushed after it.
    while r.ld.device().pending() < 4 {
        r.aru(&pick(&mut rng, 2), |k| vec![0x60 + k as u8; BS], false);
    }
    let stats = r.finish("a seeded history");
    let generation = r.tagged.0;
    let Run { ld, mut m, cfg, .. } = r;
    let dev = ld.into_device();
    let lost = rng.gen_index(dev.pending());
    let at = format!("ENUM_SEED={seed}, the cut without write {lost}");
    let (ld, _) = Lld::recover_with(StopDisk::new(dev.crash_keeping(|i| i != lost)), &cfg)
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    m.restart(m.check(&ld, &at));
    let mut r = Run::on(ld, m, cfg, seed);
    for i in 0..8 {
        r.aru(&pick(&mut rng, 2), |k| vec![0x70 + i + k as u8; BS], false);
        if i % 4 == 2 {
            r.flush();
        }
    }
    r.finish("after a cut with a gap");
    (straddled, generation, stats)
}

#[test]
fn every_cut_of_a_seeded_history_recovers_to_the_model() {
    let runs: Vec<(usize, u64, LldStats)> = seeds(6).map(seeded_history).collect();
    // What the alphabet is for: a log that wraps, checkpoints, ARUs
    // that straddle a seal, retries and raised generations.
    let some = |f: fn(&(usize, u64, LldStats)) -> u64| runs.iter().any(|r| f(r) > 0);
    assert!(some(|r| r.2.blocks_relocated), "the log never wrapped");
    assert!(
        some(|r| r.2.checkpoints) && some(|r| r.0 as u64),
        "{runs:?}"
    );
    assert!(
        some(|r| r.2.writeids_deduped) && some(|r| r.1 - 1),
        "{runs:?}"
    );
}

/// Generation `gen` of block `k` of pair `p` on 2 KiB blocks: its first
/// bytes `gen`, none, two sectors' worth, three or all four, in turn.
/// The two blocks of a pair are never both empty.
fn mix_block(p: usize, k: usize, gen: u8) -> Vec<u8> {
    let mut b = vec![0u8; 2048];
    b[..[0, 700, 1500, 2048][(p + k + gen as usize) % 4]].fill(gen);
    b
}

/// Units that rewrite half of eight pairs of empty, short and full
/// blocks, a flush every two, on a disk so small that the log wraps and
/// a pass that keeps most slots free copies the other half forward.
#[test]
fn every_cut_of_mixed_extents_on_a_wrapping_log() {
    for seed in seeds(2).take(2) {
        let mut cfg = config(seed, 2048, 8);
        cfg.cleaner.target_free_segments = 5;
        let mut r = Run::new(seed, cfg, 7);
        let list = r.call(|m, ld| m.new_list(ld, Ctx::Simple)).unwrap();
        let pairs: Vec<Vec<BlockId>> = (0..8).map(|_| r.chain(Ctx::Simple, list, 2)).collect();
        for (p, k) in (0..8).flat_map(|p| [(p, 0), (p, 1)]) {
            r.write(Ctx::Simple, pairs[p][k], &mix_block(p, k, 1));
        }
        r.flush();
        let mut gens = [1u8; 8];
        for i in 0..24 {
            let p = i * 3 % 4;
            gens[p] += 1;
            r.aru(&pairs[p], |k| mix_block(p, k, gens[p]), false);
            if i % 2 == 1 {
                r.flush();
            }
        }
        let stats = r.finish("mixed extents");
        assert!(stats.blocks_relocated > 0, "ENUM_SEED={seed}: no wrap");
        assert!(stats.data_bytes_written < stats.data_blocks_written * 2048);
    }
}
