//! Crash tests over the whole stack: every cut of flushed commits
//! (`common/history.rs`, the crash enumerator on the caller's cleaning
//! pass), and what the enumerator does not run: the file system
//! at random crash points (`any_crash_point_recovers_consistent`,
//! `double_crash_during_recovery_era_is_safe`, checked by
//! `MinixFs::verify` and every surviving file's content prefix), and the
//! logical disk with `cleanerd` writing seals and running passes on its
//! own time, or at cuts chosen by hand. The logical-disk tests hold the
//! recovered disk to the reference model (`common/model.rs`,
//! docs/INVARIANTS.md I7 and I8), once per point of the mode matrix
//! ([`MODES`]) the workload can tell apart. A sampled cut prints its
//! seed and the writes it kept; `CRASH_SEED=<seed>` runs it alone.

use ld_aru::core::{BlockId, CleanerConfig, Ctx, ListId, Lld, LldConfig, LldError, Position};
use ld_aru::disk::{BlockDevice, DiskModel, FaultPlan, MemDisk, SimDisk, SmallRng};
use ld_aru::minixfs::{FsConfig, FsError, MinixFs};
use ld_aru::workload::pattern_fill;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::{
    capacity_for, crash_seeds, is_meta_record, sim_disk, ParkDisk, ReleaseOnDrop, SegField, H_LEN,
    SECTOR, TRAILER_LEN,
};
#[path = "../crates/core/tests/common/enumerate.rs"]
mod enumerate;
use enumerate::seeds;
#[path = "../crates/core/tests/common/history.rs"]
mod history;
use history::Run;
#[path = "../crates/core/tests/common/model.rs"]
mod model;
use model::Model;

/// One point of the mode matrix: background cleaner, map shards.
type Mode = (bool, usize);

const MODES: [Mode; 4] = [(false, 8), (false, 1), (true, 8), (true, 1)];

/// Where the log never wraps the cleaner has nothing to do, and the
/// modes differ only by shard count.
fn modes_without_cleaning() -> impl Iterator<Item = Mode> {
    MODES.into_iter().filter(|&(cleanerd, _)| !cleanerd)
}

fn with_mode((cleanerd, shards): Mode, base: LldConfig) -> LldConfig {
    LldConfig {
        map_shards: shards,
        cleaner: CleanerConfig {
            background: cleanerd,
            ..base.cleaner
        },
        ..base
    }
}

/// Blocks of `bs` bytes, `per_slot` of them to a slot, at most 512
/// blocks and 64 lists, at point `mode` of the matrix.
fn small_config(mode: Mode, bs: usize, per_slot: usize) -> LldConfig {
    let cfg = LldConfig {
        block_size: bs,
        segment_bytes: per_slot * bs,
        max_blocks: Some(512),
        max_lists: Some(64),
        ..LldConfig::default()
    };
    with_mode(mode, cfg)
}

fn slots_in_use<D: BlockDevice>(ld: &Lld<D>) -> u32 {
    ld.n_segments() - ld.free_segments()
}

/// Seals since this disk was formatted (one slot in use) or recovered
/// (`slots_at_start` in use) that took no new slot. On a log that does
/// not wrap each of them is a segment whose successor started behind it
/// in the same slot.
fn in_slot_seals<D: BlockDevice>(ld: &Lld<D>, slots_at_start: u32) -> u64 {
    ld.stats().segments_sealed - u64::from(slots_in_use(ld) - slots_at_start)
}

/// `n` blocks on `list`, each behind the last, through `m`.
fn chain<D: BlockDevice>(m: &mut Model, ld: &Lld<D>, list: ListId, n: usize) -> Vec<BlockId> {
    let mut pos = Position::First;
    let blocks = (0..n).map(|_| {
        let b = m.new_block(ld, Ctx::Simple, list, pos).unwrap();
        pos = Position::After(b);
        b
    });
    blocks.collect()
}

/// An ARU that writes `data(k)` to the `k`th of `blocks`, through `m`.
fn unit<D: BlockDevice>(
    m: &mut Model,
    ld: &Lld<D>,
    blocks: &[BlockId],
    data: impl Fn(usize) -> Vec<u8>,
) -> Result<(), LldError> {
    let aru = ld.begin_aru()?;
    for (k, &b) in blocks.iter().enumerate() {
        m.write(ld, Ctx::Aru(aru), b, &data(k))?;
    }
    m.end_aru(ld, aru)
}

fn ld_config(mode: Mode) -> LldConfig {
    with_mode(
        mode,
        LldConfig {
            block_size: 4096,
            segment_bytes: 64 * 1024,
            ..LldConfig::default()
        },
    )
}

#[test]
fn any_crash_point_recovers_consistent() {
    modes_without_cleaning().for_each(any_crash_point);
}

fn any_crash_point(mode: Mode) {
    let mut rng = SmallRng::seed_from_u64(0xC4A5_4001);
    let mut in_slot = 0;
    for crash_after in crash_seeds((0..24).map(|_| rng.gen_range(50_000, 4_000_000))) {
        // The case is its crash point's.
        let mut rng = SmallRng::seed_from_u64(crash_after);
        let n_files = 4 + rng.gen_index(20);
        let file_blocks = 1 + rng.gen_index(3);
        let flush_every = 1 + rng.gen_index(5);

        let sim = SimDisk::new(MemDisk::new(48 << 20), DiskModel::hp_c3010())
            .with_faults(FaultPlan::new().crash_after_bytes(crash_after));
        let ld = Lld::format(sim, &ld_config(mode)).unwrap();
        let mut fs = MinixFs::format(
            ld,
            FsConfig {
                inode_count: 128,
                ..FsConfig::default()
            },
        )
        .unwrap();

        let size = file_blocks * 4096;
        let mut data = vec![0u8; size];
        // Create, overwrite, and delete files until the crash (if it
        // comes).
        let _ = (|| -> Result<(), FsError> {
            for i in 0..n_files {
                let path = format!("/f{i}");
                let ino = fs.create(&path)?;
                pattern_fill(&mut data, i as u64);
                fs.write_at(ino, 0, &data)?;
                if i % flush_every == 0 {
                    fs.flush()?;
                }
                if i >= 3 && i % 3 == 0 {
                    fs.unlink(&format!("/f{}", i - 3))?;
                }
            }
            fs.flush()
        })();
        in_slot += in_slot_seals(fs.ld(), 1);

        // Recover from the surviving image.
        let (image, cut) = fs.into_ld().into_device().crash_image();
        let case = format!("{mode:?} {cut}");
        let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &ld_config(mode))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();

        let report = fs2.verify().unwrap();
        assert!(
            report.is_consistent(),
            "{case}: problems: {:?}",
            report.problems
        );

        // Every surviving file's persisted prefix matches its pattern.
        let mut expect = vec![0u8; size];
        for entry in fs2.readdir("/").unwrap() {
            let i: u64 = entry.name[1..].parse().unwrap();
            let st = fs2.stat(entry.ino).unwrap();
            assert!(st.size <= size as u64, "{case}");
            let mut buf = vec![0u8; st.size as usize];
            let got = fs2.read_at(entry.ino, 0, &mut buf).unwrap();
            assert_eq!(got as u64, st.size, "{case}");
            pattern_fill(&mut expect, i);
            assert_eq!(
                &buf[..],
                &expect[..st.size as usize],
                "{case}: file {i} corrupt"
            );
        }
    }
    assert!(in_slot > 0, "{mode:?}: no flush left room in its slot");
}

/// Power cuts while the *background* cleaner (`cleanerd`) is live:
/// sweeping the crash point through a clean-heavy workload lands cuts
/// in every phase of its passes — between the victim snapshot and the
/// relocation windows, inside a relocation window, during the covering
/// checkpoint, and after the release sweep (segment writes, checkpoint
/// writes, and relocation writes from the cleaner thread all advance
/// the same byte budget the fault plan counts). After recovery the
/// disk is the model after a prefix of the history that holds every
/// flushed ARU (so no relocated cold block is lost and no pair of hot
/// blocks is torn), and it stays usable. Exercised at 1 and 8 map
/// shards. The sweep has to contain the ending with no checkpoint: a
/// pass over covered victims, each handed back as it empties.
///
/// The cuts are sampled (with B2 deleted this failed in 2 of 7 runs);
/// B1 and B2 are owned by the directed tests below and the crash
/// enumerator (docs/INVARIANTS.md I4, "The barrier ledger").
#[test]
fn background_clean_crash_points_are_all_or_nothing() {
    for mode in MODES.into_iter().filter(|&(cleanerd, _)| cleanerd) {
        let shards = format!("{mode:?}");
        let cfg = small_config(mode, 512, 8);
        let mut crashes = 0u32;
        let mut background_passes = 0u64;
        let mut released_without_a_checkpoint = 0;
        for crash_at in crash_seeds((150_000..2_600_000).step_by(350_000)) {
            let cap = capacity_for(&cfg, 28);
            let sim = SimDisk::new(MemDisk::new(cap), DiskModel::hp_c3010())
                .with_faults(FaultPlan::new().crash_after_bytes(crash_at));
            let ld = Lld::format(sim, &cfg).unwrap();
            let mut m = Model::default();

            // Cold blocks, flushed before the churn: the cleaner will
            // relocate them many times over.
            let l = m.new_list(&ld, Ctx::Simple).unwrap();
            for (i, b) in chain(&mut m, &ld, l, 6).into_iter().enumerate() {
                m.write(&ld, Ctx::Simple, b, &[0xE0 + i as u8; 512])
                    .unwrap();
            }
            // The hot ring: as many blocks as a slot has
            // (`common::churn_ring`).
            let hot = m.new_list(&ld, Ctx::Simple).unwrap();
            let hot = chain(&mut m, &ld, hot, ld.segment_bytes() / ld.block_size());
            let pairs: Vec<&[_]> = hot.chunks(2).collect();
            m.flush(&ld).unwrap();

            // Hot churn: each ARU overwrites both blocks of a hot pair.
            let mut crashed = false;
            // Free slots, reserve passes and checkpoints as of the
            // ARU before, and the ARU that last saw a checkpoint.
            let mut seen = (ld.free_segments(), 0, ld.stats().checkpoints);
            let mut checkpoint_at = 0;
            for i in 0..2500usize {
                let byte = (i % 251) as u8;
                let pair = pairs[i % pairs.len()];
                let res =
                    unit(&mut m, &ld, pair, |_| vec![byte; 512]).and_then(|()| match i % 16 {
                        0 => m.flush(&ld),
                        _ => Ok(()),
                    });
                if res.is_err() {
                    crashed = true;
                    break;
                }
                // Slots that come back while no reserve pass runs are a
                // pass's release sweep. A pass that writes a
                // checkpoint counts it and sweeps right behind it, so a
                // sweep with no checkpoint by anybody in the eight ARUs
                // before it is that of a pass over covered victims. Free
                // slots are read first: the read that sees a sweep is
                // then followed by one that sees what it came behind.
                let free = ld.free_segments();
                let stats = ld.stats();
                // A pass counts a run and a pass, and a snapshot may
                // fall between the two.
                let now = (
                    free,
                    stats.cleaner_runs.saturating_sub(stats.cleaner_passes),
                    stats.checkpoints,
                );
                if now.2 != seen.2 {
                    checkpoint_at = i;
                }
                if now.0 > seen.0 && now.1 == seen.1 && i > checkpoint_at + 8 {
                    released_without_a_checkpoint += 1;
                }
                seen = now;
            }
            if crashed {
                crashes += 1;
            }
            background_passes += ld.stats().cleaner_passes;

            let (image, cut) = ld.into_device().crash_image();
            let at = format!("{shards}, {cut}");
            let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &cfg)
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            m.check(&ld2, &at);

            // The disk stays fully usable after recovery.
            let nb = ld2.new_block(Ctx::Simple, l, Position::First).unwrap();
            ld2.write(Ctx::Simple, nb, &vec![0x11; 512]).unwrap();
            ld2.flush().unwrap();
        }
        assert!(crashes >= 4, "{shards}: only {crashes} crash points fired");
        assert!(
            background_passes > 0,
            "{shards}: the background cleaner never ran a pass"
        );
        assert!(
            released_without_a_checkpoint > 0,
            "{shards}: no pass handed slots back without writing a checkpoint"
        );
    }
}

/// A power cut with a hand-off in flight (docs/CONCURRENCY.md, "Seal
/// writes"), on the default writer with `cleanerd`. Segment N is with
/// the thread, its write not returned; N+1, written by the operation
/// that sealed it, is on the device; the units committed since are in
/// the open segment. N+1 links to a header that is not there, so
/// recovery ends the log before N: what the last flush acknowledged is
/// there, nothing later is, and no unit is torn. With the write let go
/// and one more flush, everything is there.
///
/// Per case the flushed prefix is longer, and N begins further into its
/// slot.
#[test]
fn a_cut_with_a_hand_off_in_flight_ends_the_log_before_it() {
    const BS: usize = 512;
    let cfg = small_config((true, 8), BS, 16);
    for prefix in 1..=4usize {
        let ld = Lld::format(ParkDisk::new(4 << 20), &cfg).unwrap();
        let dev = ld.device();
        let mut m = Model::default();
        let list = m.new_list(&ld, Ctx::Simple).unwrap();
        let mut blocks = Vec::new();
        for i in 0..24 {
            blocks.push(
                m.new_block(&ld, Ctx::Simple, list, Position::First)
                    .unwrap(),
            );
            if i % 6 == 5 {
                m.flush(&ld).unwrap();
            }
        }
        let pairs: Vec<&[_]> = blocks.chunks(2).collect();
        let mut units = 0..;
        let mut commit_next = |m: &mut Model| {
            let u: usize = units.next().unwrap();
            let (p, gen) = (u % pairs.len(), 1 + (u / pairs.len()) as u8);
            unit(m, &ld, pairs[p], |_| vec![gen; BS]).unwrap();
        };

        // One lap and `prefix` more pairs of units, flushed two at a time.
        for _ in 0..pairs.len() / 2 + prefix {
            commit_next(&mut m);
            commit_next(&mut m);
            m.flush(&ld).unwrap();
        }
        // From here on what the thread is handed parks, so first it
        // finishes whatever it was offered before: a checkpoint waits for
        // every segment on its way (W2) and for one the thread writes
        // (`ckpt_io`), and leaves none due. N is the first seal behind a
        // flush that the thread is handed: one sealed while it was on its
        // way back from the last is written by its caller.
        ld.checkpoint().unwrap();
        m.synced();
        let (layout, _, _) = Lld::probe(dev).unwrap();
        dev.park_on("ld-cleanerd", layout.segment_offset(0)..u64::MAX);
        let _release = ReleaseOnDrop(dev);
        let seals = || ld.stats().segments_sealed;
        loop {
            m.flush(&ld).unwrap();
            let sealed = seals();
            let handed_off = ld.stats().seals_handed_off;
            while seals() == sealed {
                commit_next(&mut m);
            }
            if ld.stats().seals_handed_off > handed_off {
                break;
            }
        }
        dev.wait_for("N's write parks on the thread", |st| st.parked == 1);
        let (sealed, on_device) = (seals(), dev.state.lock().seals());
        while seals() == sealed {
            commit_next(&mut m);
        }
        commit_next(&mut m);
        {
            let st = dev.state.lock();
            assert_eq!(st.seals(), on_device + 1, "prefix {prefix}: N+1");
            assert_eq!(st.parked, 1, "prefix {prefix}: N is still with the thread");
        }

        let recovered = |image: MemDisk, m: &Model, at: &str| {
            let (ld2, _) = Lld::recover_with(image, &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
            let k = m.check(&ld2, at);
            // The recovered disk is usable.
            let nb = ld2.new_block(Ctx::Simple, list, Position::First).unwrap();
            ld2.write(Ctx::Simple, nb, &vec![0x11; BS]).unwrap();
            ld2.flush().unwrap();
            k
        };
        let at = format!("prefix {prefix}, cut with N in flight");
        assert!(m.durable() < m.acknowledged(), "{at}: nothing to lose");
        assert_eq!(recovered(dev.cut(), &m, &at), m.durable(), "{at}");

        dev.release(true);
        m.flush(&ld).unwrap();
        let at = format!("prefix {prefix}, cut after the next flush");
        assert_eq!(recovered(dev.cut(), &m, &at), m.acknowledged(), "{at}");
    }
}

#[test]
fn double_crash_during_recovery_era_is_safe() {
    modes_without_cleaning().for_each(double_crash);
}

fn double_crash(mode: Mode) {
    // Crash once, recover, do a little work, crash again mid-work,
    // recover again: consistency must hold at both steps.
    let mut rng = SmallRng::seed_from_u64(0xC4A5_4002);
    let mut in_slot_after_recovery = 0;
    for crash_after in crash_seeds((0..24).map(|_| rng.gen_range(100_000, 1_000_000))) {
        // The second crash point is the first's.
        let second_crash = SmallRng::seed_from_u64(crash_after).gen_range(10_000, 200_000);

        let sim = SimDisk::new(MemDisk::new(48 << 20), DiskModel::hp_c3010())
            .with_faults(FaultPlan::new().crash_after_bytes(crash_after));
        let ld = Lld::format(sim, &ld_config(mode)).unwrap();
        let mut fs = MinixFs::format(
            ld,
            FsConfig {
                inode_count: 64,
                ..FsConfig::default()
            },
        )
        .unwrap();
        let _ = (|| -> Result<(), FsError> {
            for i in 0..12 {
                let ino = fs.create(&format!("/a{i}"))?;
                fs.write_at(ino, 0, &vec![i as u8; 5000])?;
                fs.flush()?;
            }
            Ok(())
        })();

        let (image, cut) = fs.into_ld().into_device().crash_image();
        let case = format!("{mode:?} {cut}");
        let sim2 = sim_disk(image).with_faults(FaultPlan::new().crash_after_bytes(second_crash));
        let (ld2, _) =
            Lld::recover_with(sim2, &ld_config(mode)).unwrap_or_else(|e| panic!("{case}: {e}"));
        let slots_recovered = slots_in_use(&ld2);
        let mut fs2 = MinixFs::mount(ld2, FsConfig::default()).unwrap();
        assert!(fs2.verify().unwrap().is_consistent(), "{case}");

        let _ = (|| -> Result<(), FsError> {
            for i in 0..12 {
                let ino = fs2.create(&format!("/b{i}"))?;
                fs2.write_at(ino, 0, &vec![i as u8; 5000])?;
                fs2.flush()?;
            }
            Ok(())
        })();
        in_slot_after_recovery += in_slot_seals(fs2.ld(), slots_recovered);

        let (image2, cut2) = fs2.into_ld().into_device().crash_image();
        let case = format!("{case}, then {cut2}");
        let (ld3, _) = Lld::recover_with(MemDisk::from_image(image2), &ld_config(mode))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let mut fs3 = MinixFs::mount(ld3, FsConfig::default()).unwrap();
        let report = fs3.verify().unwrap();
        assert!(
            report.is_consistent(),
            "{case}: problems: {:?}",
            report.problems
        );
    }
    assert!(
        in_slot_after_recovery > 0,
        "{mode:?}: no recovered log went on inside a slot"
    );
}

// ----------------------------------------------------------------------
// Acknowledged commits under every cut (`common/history.rs`)
// ----------------------------------------------------------------------

/// Every cut of ten three-block ARUs, each flushed, at one map shard:
/// each ARU is all there or all gone, and every acknowledged flush
/// survives. An odd seed runs at one shard.
#[test]
fn power_cut_sweep_is_all_or_nothing_single_shard() {
    for seed in seeds(2).filter(|seed| seed % 2 == 1) {
        let mut r = Run::new(seed, history::config(seed, 512, 8), 12);
        for tag in 1..=10 {
            r.three_block_aru(tag, false);
        }
        assert_eq!(r.m.durable(), 50, "ENUM_SEED={seed}");
        r.finish("flushed three-block ARUs");
    }
}

/// Every cut and sector tear of one-block ARUs, each tagged and
/// flushed: a write id has an outcome after recovery exactly where its
/// unit's effects are, the dedup record and the commit behind it
/// together (docs/INVARIANTS.md I8).
#[test]
fn dedup_journal_and_commit_survive_any_cut_together() {
    for seed in seeds(2) {
        let mut r = Run::new(seed, history::config(seed, 512, 8), 12);
        let list = r.call(|m, ld| m.new_list(ld, Ctx::Simple)).unwrap();
        for wid in 1..=16u8 {
            let aru = r.ld.begin_aru().unwrap();
            let b = r.chain(Ctx::Aru(aru), list, 1)[0];
            r.write(Ctx::Aru(aru), b, &[wid; 512]);
            r.commit(aru, Some(wid.into()));
            r.flush();
        }
        // The list, then a block and a commit an ARU.
        assert_eq!(r.m.durable(), 33, "ENUM_SEED={seed}");
        r.finish("tagged one-block ARUs");
    }
}

// ----------------------------------------------------------------------
// Chosen cuts: the writes since the barrier, kept by hand
// ----------------------------------------------------------------------

/// The unflushed seals on `dev` in log order, each as the places in
/// the pending writes of its two: the meta record, which ends in the
/// header, and the body, whose last 4 bytes — the trailer — hold that
/// header's CRC (docs/RECOVERY.md). Every pending write is half of one.
/// With `cleanerd` writing the seals handed to it the device may see
/// segment N after N + 1.
fn seals_in_log_order(dev: &SimDisk<MemDisk>) -> Vec<[usize; 2]> {
    let pending = dev.pending();
    let mut seals: Vec<(u64, [usize; 2])> = (pending.iter().enumerate())
        .filter(|(_, (_, bytes))| is_meta_record(bytes))
        .map(|(meta, (at, bytes))| {
            let header = &bytes[bytes.len() - H_LEN..];
            let crc = &header[SegField::Crc.at..];
            let body = (pending.iter())
                .position(|(_, bytes)| bytes.len() % SECTOR == TRAILER_LEN && bytes.ends_with(crc))
                .unwrap_or_else(|| panic!("the meta record at {at} has no body"));
            (SegField::Seq.get(header), [meta, body])
        })
        .collect();
    assert_eq!(
        2 * seals.len(),
        pending.len(),
        "a pending write is no seal's"
    );
    seals.sort_by_key(|&(seq, _)| seq);
    seals.into_iter().map(|(_, writes)| writes).collect()
}

const SEAL_BS: usize = 512;

/// Two-block units on `pairs` through `m`, from `first` on, generation
/// `gen + i` for the `i`th, until one of them seals a segment. Returns
/// the last unit whose commit record the sealed segment holds: the one
/// before the unit that sealed it, since a seal happens when something
/// does not fit and that unit's commit record goes to the next segment
/// (its first block may stay in the sealed one, or not: where the seal
/// falls depends on the room the segment started with).
fn units_until_a_seal<D: BlockDevice>(
    m: &mut Model,
    ld: &Lld<D>,
    pairs: &[Vec<BlockId>],
    first: usize,
    gen: u8,
) -> usize {
    let sealed = ld.stats().segments_sealed;
    for i in 0..pairs.len() {
        let (before, p, g) = (m.acknowledged(), (first + i) % pairs.len(), gen + i as u8);
        unit(m, ld, &pairs[p], |_| vec![g; SEAL_BS]).unwrap();
        if ld.stats().segments_sealed > sealed {
            return before;
        }
    }
    panic!("{} units sealed no segment", pairs.len());
}

/// A seal is two writes, the body — data area and trailer — at its base
/// and the meta record — summary and header — at the back of its slot
/// (docs/RECOVERY.md, "Segment metadata at the back of the slot"), and a
/// device that reorders may keep either without the other. Per shard
/// count, on the default cleaner: flush a state, then commit two-block
/// units until a segment seals, and cut keeping each subset of that
/// seal's two writes. The seal is above every watermark a header
/// records, so a meta record alone is refused by its trailer. Recovery
/// gives the flushed state, or with both writes that state plus every
/// unit whose commit record the segment holds; never half a unit.
///
/// Below the watermark: a flush, whose barrier vouches for the seals in
/// front of it, then a seal whose header records that: each subset of
/// its writes over seals whose trailers nobody reads.
///
/// Straddling two seals: the unit that sealed N has its blocks in N and
/// its commit record in N + 1, and both seals are unflushed. A cut that
/// keeps N and only the meta record of N + 1 refuses N + 1 by its
/// trailer and so drops that unit whole; one that keeps N + 1 and only
/// N's meta record ends the log in front of N.
///
/// Then the abandoned timeline. Only the meta record landed; the disk
/// recovered from that writes a segment with the same `seq` at the same
/// position, with other contents, and only its body lands. The stale
/// header links where the new one would, and its trailer holds the new
/// header's CRC, not its own: the log ends in front of it.
///
/// The medium is not zeroed first: where a cut looks for what it did
/// not keep it finds stale bytes, as on a disk that has been written.
#[test]
fn a_seal_is_all_or_nothing_under_any_subset_of_its_two_writes() {
    for shards in [8, 1] {
        two_write_seal(shards);
    }
}

/// A disk with twelve two-block pairs written and flushed, and its
/// model.
fn flushed_pairs(cfg: &LldConfig) -> (Lld<SimDisk<MemDisk>>, Model, Vec<Vec<BlockId>>) {
    let ld = Lld::format(sim_disk(vec![0xA5; 4 << 20]), cfg).unwrap();
    let mut m = Model::default();
    let list = m.new_list(&ld, Ctx::Simple).unwrap();
    // More blocks than a segment holds: every unit appends.
    let pairs: Vec<Vec<_>> = (0..12).map(|_| chain(&mut m, &ld, list, 2)).collect();
    for &b in pairs.iter().flatten() {
        m.write(&ld, Ctx::Simple, b, &[1; SEAL_BS]).unwrap();
    }
    m.flush(&ld).unwrap();
    (ld, m, pairs)
}

fn two_write_seal(shards: usize) {
    let cfg = small_config((true, shards), SEAL_BS, 16);
    let recovered = |image: Vec<u8>, m: &Model, at: &str| {
        let (ld2, _) =
            Lld::recover_with(sim_disk(image), &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
        let k = m.check(&ld2, at);
        (ld2, k)
    };
    // Each subset of the one pending seal's writes on `dev`: `before`
    // units without both, `with` with them.
    let subsets = |dev: &SimDisk<MemDisk>, m: &Model, before: usize, with: usize, at: &str| {
        let seals = seals_in_log_order(dev);
        assert_eq!(seals.len(), 1, "{at}: one seal since the flush");
        let [meta, body] = seals[0];
        for (kept, want) in [
            ("neither write", before),
            ("the meta record", before),
            ("the body", before),
            ("both writes", with),
        ] {
            let keep = |i| match kept {
                "the meta record" => i == meta,
                "the body" => i == body,
                "both writes" => true,
                _ => false,
            };
            let at = format!("shards {shards}, {at}, a cut that keeps {kept}");
            assert_eq!(recovered(dev.crash_keeping(keep), m, &at).1, want, "{at}");
        }
        [meta, body]
    };

    // Above the watermark.
    let (ld, mut m, pairs) = flushed_pairs(&cfg);
    let flushed = m.durable();
    let whole = units_until_a_seal(&mut m, &ld, &pairs, 0, 2);
    assert!(
        whole > flushed,
        "shards {shards}: the segment holds no unit"
    );
    let handed_off = ld.stats().seals_handed_off;
    let dev = ld.into_device(); // `cleanerd` writes what it was handed first
    let [meta, _] = subsets(&dev, &m, flushed, whole, "above the watermark");

    // Below it.
    {
        let (ld, mut m, pairs) = flushed_pairs(&cfg);
        units_until_a_seal(&mut m, &ld, &pairs, 0, 2);
        m.flush(&ld).unwrap();
        let flushed = m.durable();
        let whole = units_until_a_seal(&mut m, &ld, &pairs, 3, 20);
        assert!(whole > flushed, "shards {shards}: below");
        subsets(&ld.into_device(), &m, flushed, whole, "below the watermark");
    }

    // Straddling two unflushed seals. One-block units in front of them,
    // each flushed, move where the first seal falls (two-block units
    // alone keep the room a segment starts with odd in sectors), until it
    // falls inside a unit: the cut that keeps that seal alone then
    // discards the unit it holds a part of.
    let straddling = (0..4).find_map(|lead| {
        let (ld, mut m, pairs) = flushed_pairs(&cfg);
        for p in &pairs[..lead] {
            unit(&mut m, &ld, &p[..1], |_| vec![3; SEAL_BS]).unwrap();
            m.flush(&ld).unwrap();
        }
        m.flush(&ld).unwrap();
        let before = m.durable();
        let in_first = units_until_a_seal(&mut m, &ld, &pairs, 0, 4);
        let in_both = units_until_a_seal(&mut m, &ld, &pairs, 5, 30);
        let dev = ld.into_device();
        let seals = seals_in_log_order(&dev);
        assert_eq!(seals.len(), 2, "shards {shards}: two seals since the flush");
        let first = dev.crash_keeping(|i| seals[0].contains(&i));
        let (_, report) = Lld::recover_with(sim_disk(first), &cfg).unwrap();
        (report.discarded_arus > 0).then_some((dev, m, seals, [before, in_first, in_both]))
    });
    let (dev2, m2, seals, [before, in_first, in_both]) =
        straddling.unwrap_or_else(|| panic!("shards {shards}: no seal fell inside a unit"));
    assert!(in_both > in_first, "shards {shards}: the second seal");
    let ([meta1, body1], [meta2, body2]) = (seals[0], seals[1]);
    for (kept, writes, want) in [
        (
            "the first and the second's meta record",
            vec![meta1, body1, meta2],
            in_first,
        ),
        (
            "the second and the first's meta record",
            vec![meta1, meta2, body2],
            before,
        ),
        ("both", vec![meta1, body1, meta2, body2], in_both),
    ] {
        let at = format!("shards {shards}, straddling, a cut that keeps {kept}");
        let image = dev2.crash_keeping(|i| writes.contains(&i));
        assert_eq!(recovered(image, &m2, &at).1, want, "{at}");
    }

    let at = format!("shards {shards}, the abandoned timeline");
    let (ld2, k) = recovered(dev.crash_keeping(|i| i == meta), &m, &at);
    assert_eq!(k, flushed, "{at}");
    m.restart(k);
    // Other pairs, other generations: another summary.
    let again = units_until_a_seal(&mut m, &ld2, &pairs, 6, 40);
    assert!(again > flushed, "{at}: the segment holds no unit");
    let dev3 = ld2.into_device();
    let seals3 = seals_in_log_order(&dev3);
    assert_eq!(seals3.len(), 1, "{at}: one seal since recovery");
    let [meta3, body3] = seals3[0];
    let (old, new) = (&dev.pending()[meta], &dev3.pending()[meta3]);
    let end = |(at, bytes): &(u64, Vec<u8>)| at + bytes.len() as u64;
    assert_eq!(end(old), end(new), "{at}: the same header position");
    let seq = |(_, bytes): &(u64, Vec<u8>)| SegField::Seq.get(&bytes[bytes.len() - H_LEN..]);
    assert_eq!(seq(old), seq(new), "{at}: the same seq");
    assert_ne!(old.1, new.1, "{at}: another meta record");
    assert_eq!(
        recovered(dev3.crash_keeping(|_| true), &m, &at).1,
        again,
        "{at}"
    );
    let only_the_new_body = dev3.crash_keeping(|i| i == body3);
    assert_eq!(recovered(only_the_new_body, &m, &at).1, flushed, "{at}");
    eprintln!("shards {shards}: {handed_off} seals handed off; every subset recovers whole");
}

// ----------------------------------------------------------------------
// Barriers the log needs (docs/INVARIANTS.md I4, "Across a barrier")
// ----------------------------------------------------------------------

const C4_BS: usize = 512;

/// Small slots, at `shards` map shards, with the pass on the caller's
/// thread (`Lld::run_cleaner` runs it where a test wants it).
fn c4_config(shards: usize) -> LldConfig {
    small_config((false, shards), C4_BS, 8)
}

/// A `SimDisk` whose barriers fail once `refuse` is set, leaving every
/// write since the last one that returned pending for a chosen cut.
#[derive(Debug)]
struct RefusedBarriers {
    sim: SimDisk<MemDisk>,
    refuse: std::sync::atomic::AtomicBool,
}

impl BlockDevice for RefusedBarriers {
    fn capacity(&self) -> u64 {
        self.sim.capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_aru::disk::Result<()> {
        self.sim.read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_aru::disk::Result<()> {
        self.sim.write_at(offset, buf)
    }
    fn flush(&self) -> ld_aru::disk::Result<()> {
        if self.refuse.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(ld_aru::disk::DiskError::Io("barrier refused".into()));
        }
        self.sim.flush()
    }
}

/// C4 (a). A checkpoint's header is written only once a barrier vouches
/// for what it covers: its slabs and the seal *begin* made. Per shard
/// count: blocks at version 1, a checkpoint (the older one), version 2
/// flushed, version 3 committed and not flushed; then a checkpoint whose
/// barriers fail, and a cut that keeps every write of it but the seal,
/// the header too if it was written. Recovery comes up on the older
/// checkpoint and replays version 2; with the header written behind no
/// barrier it would come up on the newer one, whose tables name the
/// seal's sectors, and read what the medium held there before.
#[test]
fn a_checkpoint_header_is_written_behind_what_it_covers() {
    for shards in [8, 1] {
        let cfg = c4_config(shards);
        let dev = RefusedBarriers {
            sim: sim_disk(vec![0xA5; 4 << 20]),
            refuse: false.into(),
        };
        let ld = Lld::format(dev, &cfg).unwrap();
        let (layout, _, _) = Lld::probe(ld.device()).unwrap();
        let mut m = Model::default();
        let list = m.new_list(&ld, Ctx::Simple).unwrap();
        let blocks: Vec<_> = (0..6)
            .map(|_| {
                m.new_block(&ld, Ctx::Simple, list, Position::First)
                    .unwrap()
            })
            .collect();
        let put = |m: &mut Model, v: u8| unit(m, &ld, &blocks, |_| vec![v; C4_BS]).unwrap();
        put(&mut m, 1);
        ld.checkpoint().unwrap();
        m.synced();
        let older = ld.checkpoint_seq();
        put(&mut m, 2);
        m.flush(&ld).unwrap();
        put(&mut m, 3);
        ld.device()
            .refuse
            .store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(
            ld.checkpoint().is_err(),
            "shards {shards}: a barrier failed"
        );

        let dev = ld.into_device().sim;
        let pending = dev.pending();
        let seal: Vec<usize> = (pending.iter().enumerate())
            .filter(|(_, (at, _))| *at >= layout.data_start)
            .map(|(i, _)| i)
            .collect();
        assert!(!seal.is_empty(), "shards {shards}: *begin* sealed nothing");
        let at = format!(
            "shards {shards}, a cut that drops writes {seal:?} of {}",
            pending.len()
        );
        let image = dev.crash_keeping(|i| !seal.contains(&i));
        let (ld2, _) =
            Lld::recover_with(sim_disk(image), &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(
            m.check(&ld2, &at),
            m.durable(),
            "{at}: not the flushed disk"
        );
        assert_eq!(
            ld2.checkpoint_seq(),
            older,
            "{at}: not the older checkpoint"
        );
    }
}

/// C4 (b). A slot the pass handed back is overwritten only once a
/// barrier vouches for the relocation records that emptied it. Per
/// shard count: four blocks live in slot 0, which a checkpoint covers;
/// the pass relocates them into the open segment and hands slot 0 back;
/// the log comes round to slot 0 with no flush on the way. A cut that
/// keeps the writes into slot 0 and drops every other write since the
/// last barrier finds every block, relocated or where the checkpoint
/// left it, with its contents: the disk the checkpoint covers, or a
/// prefix of the writes behind it.
#[test]
fn a_released_slot_is_overwritten_behind_a_barrier_over_what_emptied_it() {
    for shards in [8, 1] {
        let mut cfg = c4_config(shards);
        let ld = Lld::format(sim_disk(vec![0xA5; 4 << 20]), &cfg).unwrap();
        // The pass wants every slot but the log's own free: it cleans as
        // soon as there is a victim.
        cfg.cleaner.target_free_segments = ld.n_segments() - 1;
        drop(ld);
        let ld = Lld::format(sim_disk(vec![0xA5; 4 << 20]), &cfg).unwrap();
        let (layout, _, _) = Lld::probe(ld.device()).unwrap();
        let mut m = Model::default();
        let list = m.new_list(&ld, Ctx::Simple).unwrap();
        let old: Vec<_> = (0..4)
            .map(|_| {
                m.new_block(&ld, Ctx::Simple, list, Position::First)
                    .unwrap()
            })
            .collect();
        // The ring `common::churn_ring` allocates.
        let ring = m.new_list(&ld, Ctx::Simple).unwrap();
        let ring = chain(&mut m, &ld, ring, ld.segment_bytes() / ld.block_size());
        for (i, &b) in old.iter().enumerate() {
            m.write(&ld, Ctx::Simple, b, &[10 + i as u8; C4_BS])
                .unwrap();
        }
        let lives_in = |b| ld.block_info(b).unwrap().addr.unwrap().segment.get();
        ld.checkpoint().unwrap();
        m.synced();
        assert!(old.iter().all(|&b| lives_in(b) == 0), "shards {shards}");
        ld.run_cleaner().unwrap();
        assert!(
            old.iter().all(|&b| lives_in(b) != 0) && ld.stats().blocks_relocated >= 4,
            "shards {shards}: slot 0 was not emptied by relocation"
        );
        for i in 0..3 * ring.len() {
            m.write(&ld, Ctx::Simple, ring[i % ring.len()], &[3; C4_BS])
                .unwrap();
        }
        let dev = ld.into_device();
        let pending = dev.pending();
        let slot0 = layout.segment_offset(0)..layout.segment_offset(1);
        let into_slot0: Vec<usize> = (pending.iter().enumerate())
            .filter(|(_, (at, _))| slot0.contains(at))
            .map(|(i, _)| i)
            .collect();
        assert!(
            !into_slot0.is_empty(),
            "shards {shards}: the log never came round to slot 0"
        );
        let at = format!(
            "shards {shards}, a cut that keeps writes {into_slot0:?} of {}",
            pending.len()
        );
        let image = dev.crash_keeping(|i| into_slot0.contains(&i));
        let (ld2, _) =
            Lld::recover_with(sim_disk(image), &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
        m.check(&ld2, &at);
    }
}

// ----------------------------------------------------------------------
// Absorbed writes (docs/INVARIANTS.md I5)
// ----------------------------------------------------------------------

/// Two sectors: a version grows from one to two, and its first sector
/// is then a free run of the open segment.
const ABSORB_BS: usize = 1024;
/// Blocks to a slot.
const ABSORB_SLOT: usize = 32;
/// The units swept: blocks whose last version is in the open segment,
/// and blocks whose last version is in a sealed one. (1, 4) has more of
/// the latter than the sectors the former leave free hold, so some
/// append, and a unit that rolls may do so after others took free
/// sectors.
const ABSORB_UNITS: [(usize, usize); 5] = [(1, 1), (2, 2), (3, 1), (2, 0), (1, 4)];

fn absorb_config(shards: usize, concurrency: ld_aru::core::ConcurrencyMode) -> LldConfig {
    LldConfig {
        concurrency,
        ..small_config((true, shards), ABSORB_BS, ABSORB_SLOT)
    }
}

/// Version `v` of a block: `sectors` sectors of `v`, zeros behind.
fn absorb_block(v: u8, sectors: usize) -> Vec<u8> {
    let mut b = vec![0u8; ABSORB_BS];
    b[..sectors * SECTOR].fill(v);
    b
}

/// One unit logged against an open segment that is `fillers` blocks
/// fuller than it has to be: every seal since the last barrier, the
/// model of the run, and what the unit did.
struct Absorbed {
    dev: SimDisk<MemDisk>,
    cfg: LldConfig,
    m: Model,
    /// The unit, counted in `m`'s units.
    unit: usize,
    /// Whether the segment the overwritten versions sat in was still
    /// the open one when the unit began.
    x_open: bool,
    /// What the unit's commit added to `blocks_absorbed`, and whether it
    /// rolled the segment.
    absorbed: u64,
    rolled: bool,
    /// Sectors that the unit's writes, and the simple writes behind it,
    /// took in runs the open segment had freed (`sectors_reused`).
    filled_by_unit: u64,
    filled_after: u64,
    /// The blocks whose version of the unit went back to the sector
    /// the block held at version 2.
    returned: usize,
    /// Seals `cleanerd` wrote (`LldStats::seals_handed_off`).
    handed_off: u64,
}

/// Version 1 of every `x` and `y`, one sector each, flushed. Then
/// `fillers` other blocks of one sector. Version 2 of every `x`, one
/// sector, each with a block of one sector behind it, and then version
/// 3, two sectors, all untagged, into the open segment: each `x` leaves
/// a free sector behind. Then the unit: version 4 of every `x` and `y`,
/// one sector (the `x` first, by identifier: the ones a unit may absorb
/// come before the ones that take room). Where the unit commits in the
/// open segment the `x` are absorbed and the `y` fill free sectors;
/// where it does not, an `x` may go back to the sector it held at
/// version 2.
/// Then enough other blocks of one sector to roll the segment its
/// commit record is in, the first of which fill what free sectors are
/// left. No barrier after the first.
///
/// The model holds the `x`, the `y` and their list. The other blocks
/// are on a list of their own, written past the model: they only place
/// the unit against the end of its segment.
fn absorb_run(shards: usize, nx: usize, ny: usize, fillers: usize) -> Absorbed {
    let cfg = absorb_config(shards, ld_aru::core::ConcurrencyMode::Concurrent);
    let ld = Lld::format(sim_disk(vec![0u8; 1 << 20]), &cfg).unwrap();
    let mut m = Model::default();
    let list = m.new_list(&ld, Ctx::Simple).unwrap();
    let fresh = |m: &mut Model, list, n: usize| -> Vec<_> {
        (0..n)
            .map(|_| {
                m.new_block(&ld, Ctx::Simple, list, Position::First)
                    .unwrap()
            })
            .collect()
    };
    let (x, y) = (fresh(&mut m, list, nx), fresh(&mut m, list, ny));
    let mut padding = Model::default();
    let other = padding.new_list(&ld, Ctx::Simple).unwrap();
    let spacer = fresh(&mut padding, other, nx);
    let filler = fresh(&mut padding, other, fillers + 2 * ABSORB_SLOT);
    let put = |m: &mut Model, ctx, b, v: u8, sectors| {
        m.write(&ld, ctx, b, &absorb_block(v, sectors)).unwrap()
    };
    let addr = |b| ld.block_info(b).unwrap().addr.unwrap();
    for &b in x.iter().chain(&y) {
        put(&mut m, Ctx::Simple, b, 1, 1);
    }
    m.flush(&ld).unwrap();

    for &b in &filler[..fillers] {
        put(&mut padding, Ctx::Simple, b, 7, 1);
    }
    let sealed = ld.stats().segments_sealed;
    for (&b, &s) in x.iter().zip(&spacer) {
        put(&mut m, Ctx::Simple, b, 2, 1);
        put(&mut padding, Ctx::Simple, s, 7, 1);
    }
    let held: Vec<_> = x.iter().map(|&b| addr(b)).collect();
    for &b in &x {
        put(&mut m, Ctx::Simple, b, 3, 2);
    }
    let x_open = ld.stats().segments_sealed == sealed;

    let aru = ld.begin_aru().unwrap();
    for &b in x.iter().chain(&y) {
        put(&mut m, Ctx::Aru(aru), b, 4, 1);
    }
    let before = ld.stats();
    m.end_aru(&ld, aru).unwrap();
    let unit = m.acknowledged();
    let after = ld.stats();
    let returned = x.iter().zip(&held).filter(|&(&b, &a)| addr(b) == a).count();
    for &b in &filler[fillers..] {
        put(&mut padding, Ctx::Simple, b, 7, 1);
    }
    assert!(ld.stats().segments_sealed > after.segments_sealed);
    let last = ld.stats();
    Absorbed {
        handed_off: last.seals_handed_off,
        filled_by_unit: after.sectors_reused - before.sectors_reused,
        filled_after: last.sectors_reused - after.sectors_reused,
        returned,
        dev: ld.into_device(),
        cfg,
        m,
        unit,
        x_open,
        absorbed: after.blocks_absorbed - before.blocks_absorbed,
        rolled: after.segments_sealed > before.segments_sealed,
    }
}

/// I5 (a). A unit of `nx + ny` blocks against an open segment at every
/// fill level around the one where it stops fitting, and the image after
/// every seal, each recovered and held to the model of the run. Where
/// the unit fits, commit record and all, its writes
/// take the place of the versions in the open segment, and its other
/// writes and the simple ones behind it fill the sectors that versions
/// superseded in that segment left free; where it does not it absorbs
/// nothing, and a cut between the segment and the next, which holds its
/// commit record, finds the untagged versions where they were — also
/// where a write of the unit went back to a sector its block held
/// earlier in the segment. Where the unit found the versions it
/// overwrote in the open segment, each cut that keeps every one of the
/// seals' writes but one recovers all or nothing too: a gap in front of
/// seals that landed. (Every subset of such writes is the crash
/// enumerator's, `crates/core/tests/crash_enumeration.rs`, on the
/// caller's cleaning pass; here `cleanerd` writes some of the seals.)
#[test]
fn an_absorbed_unit_is_all_or_nothing_at_every_seal() {
    for shards in [8, 1] {
        for (nx, ny) in ABSORB_UNITS {
            let (mut fit, mut straddled, mut handed_off) = (0, 0, 0);
            let (mut filled_by_unit, mut filled_after, mut returned) = (0, 0, 0);
            for fillers in 0..2 * ABSORB_SLOT {
                let at = format!("{shards} shards, {nx}+{ny} blocks behind {fillers}");
                let run = absorb_run(shards, nx, ny, fillers);
                handed_off += run.handed_off;
                let recovered = |image: Vec<u8>, at: &str| {
                    let (ld, _) = Lld::recover_with(MemDisk::from_image(image), &run.cfg)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    run.m.check(&ld, at)
                };
                // Prefixes of the log, whoever wrote which seal when.
                let order = seals_in_log_order(&run.dev);
                let seals = order.len();
                let seen: Vec<usize> = (0..=seals)
                    .map(|cut| {
                        let kept = &order[..cut];
                        let image = run
                            .dev
                            .crash_keeping(|i| kept.iter().any(|s| s.contains(&i)));
                        recovered(image, &format!("{at}, {cut} of {seals} seals"))
                    })
                    .collect();
                assert_eq!(seen[0], run.m.durable(), "{at}");
                assert!(seen[seals] >= run.unit, "{at}: {seen:?}");
                assert!(seen.is_sorted(), "{at}: {seen:?}");
                // All of those seals' writes but one.
                let pending = if run.x_open { 2 * seals } else { 0 };
                for lost in 0..pending {
                    let image = run.dev.crash_keeping(|i| i != lost);
                    recovered(image, &format!("{at}, every write but {lost} of {pending}"));
                }
                returned += run.returned;
                // A cut with every untagged version of the run and not
                // the unit.
                let without_the_unit = seen.contains(&(run.unit - 1));
                if run.rolled {
                    assert_eq!(run.absorbed, 0, "{at}: a unit that rolled absorbed");
                    // Part of it sealed without its commit record.
                    assert!(!run.x_open || without_the_unit, "{at}: {seen:?}");
                    straddled += usize::from(run.x_open);
                } else if run.x_open && run.absorbed == 0 {
                    // It did not fit as if every write appended, so it
                    // absorbed nothing; its `x` went back to the sectors
                    // they had left free, and it took no roll after all.
                    assert_eq!(run.returned, nx, "{at}");
                } else if run.x_open {
                    assert_eq!(run.absorbed, nx as u64, "{at}: it fits");
                    assert!(!without_the_unit, "{at}: {seen:?}");
                    assert_eq!(run.returned, 0, "{at}: absorbed in place");
                    fit += 1;
                    filled_by_unit += run.filled_by_unit;
                    filled_after += run.filled_after;
                }
            }
            // A unit of overwrites alone takes no room but its records'.
            assert!(
                fit > 0 && (straddled > 0 || ny == 0),
                "{nx}+{ny}: {fit}, {straddled}"
            );
            // The three ways a free run is filled: by a block of the
            // unit, by a simple write behind it, and by a block going
            // back to where it was.
            assert!(
                (filled_by_unit > 0 || ny == 0) && (filled_after > 0 || ny >= nx),
                "{nx}+{ny}: {filled_by_unit} sectors filled by the unit, {filled_after} after it"
            );
            assert!(returned > 0, "{nx}+{ny}: no block went back");
            eprintln!(
                "{shards} shards, {nx}+{ny}: {filled_by_unit} sectors filled by the unit, \
                 {filled_after} after it, {returned} blocks went back"
            );
            // The default writer: some of those seals were `cleanerd`'s
            // (at one shard every session is a full one and writes its
            // own).
            assert_eq!(
                handed_off > 0,
                shards > 1,
                "{shards} shards, {nx}+{ny}: {handed_off} seals handed off"
            );
        }
    }
}

/// I5 (b). In `Sequential` mode a tagged write goes straight into the
/// committed state and its commit record may land anywhere: it never
/// takes the place of the version it supersedes, which is the one a
/// crash before the commit record brings back.
#[test]
fn a_sequential_tagged_write_never_reuses_a_slot() {
    let cfg = absorb_config(8, ld_aru::core::ConcurrencyMode::Sequential);
    let ld = Lld::format(MemDisk::new(1 << 20), &cfg).unwrap();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let addr = || ld.block_info(b).unwrap().addr.unwrap();
    ld.write(Ctx::Simple, b, &[1; ABSORB_BS]).unwrap();
    let first = addr();
    ld.write(Ctx::Simple, b, &[2; ABSORB_BS]).unwrap();
    assert_eq!((addr(), ld.stats().blocks_absorbed), (first, 1));

    let aru = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(aru), b, &[3; ABSORB_BS]).unwrap();
    let tagged = addr();
    ld.write(Ctx::Aru(aru), b, &[4; ABSORB_BS]).unwrap();
    assert!(first != tagged && tagged != addr());
    assert_eq!(ld.stats().blocks_absorbed, 1);
    ld.flush().unwrap();

    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover_with(MemDisk::from_image(image), &cfg).unwrap();
    assert_eq!(report.discarded_arus, 1);
    let mut buf = vec![0u8; ABSORB_BS];
    ld2.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, [2; ABSORB_BS]);
}

// ----------------------------------------------------------------------
// Mixed extents
// ----------------------------------------------------------------------

const MIX_BS: usize = 4096;
/// What a unit writes to a block, by its length up to the last non-zero
/// byte: nothing (an all-zero block takes no sector), two sectors,
/// three, and a full block of eight.
const MIX_LENS: [usize; 4] = [0, 700, 1500, MIX_BS];
const MIX_PAIRS: usize = 16;
const MIX_SEGMENT: usize = 16 * MIX_BS;

fn mix_config(mode: Mode) -> LldConfig {
    with_mode(
        mode,
        LldConfig {
            block_size: MIX_BS,
            segment_bytes: MIX_SEGMENT,
            max_blocks: Some(256),
            max_lists: Some(16),
            ..LldConfig::default()
        },
    )
}

/// Generation `gen` of block `k` of pair `p`: its first bytes `gen`, as
/// many as the rotation through [`MIX_LENS`] gives it, then zeros. The
/// two blocks of a pair are never both empty, so a pair's contents name
/// its generation.
fn mix_block(p: usize, k: usize, gen: u8) -> Vec<u8> {
    let mut b = vec![0u8; MIX_BS];
    b[..MIX_LENS[(p + k + gen as usize) % MIX_LENS.len()]].fill(gen);
    b
}

/// Units until three segments seal with no flush in between, then a cut
/// keeping each subset of those seals' six writes (header and body
/// each): recovery replays the longest prefix of the log whose seals
/// kept both writes, and gives exactly the units whose commit records
/// those seals hold. The medium is not zeroed first, so a lost body
/// leaves stale bytes where a summary is looked for.
fn mixed_extent_subsets(mode: Mode) {
    let cfg = mix_config(mode);
    let ld = Lld::format(sim_disk(vec![0xA5; 4 << 20]), &cfg).unwrap();
    let mut m = Model::default();
    // Sixteen pairs, each written at generation 1, flushed.
    let list = m.new_list(&ld, Ctx::Simple).unwrap();
    let mut pairs = vec![vec![]; MIX_PAIRS];
    for (p, k) in (0..MIX_PAIRS).flat_map(|p| [(p, 0), (p, 1)]) {
        let b = m
            .new_block(&ld, Ctx::Simple, list, Position::First)
            .unwrap();
        m.write(&ld, Ctx::Simple, b, &mix_block(p, k, 1)).unwrap();
        pairs[p].push(b);
    }
    m.flush(&ld).unwrap();
    let mut gens = [1; MIX_PAIRS];
    // `states[s]`: the last unit on the medium once the first `s` seals
    // are. A unit during which a segment seals has its commit record
    // behind that seal.
    let mut states = vec![m.acknowledged()];
    for i in 0.. {
        let (before, sealed) = (m.acknowledged(), ld.stats().segments_sealed);
        let p = i * 5 % MIX_PAIRS;
        gens[p] += 1;
        unit(&mut m, &ld, &pairs[p], |k| mix_block(p, k, gens[p])).unwrap();
        if ld.stats().segments_sealed > sealed {
            states.push(before);
            if states.len() == 4 {
                break;
            }
        }
    }
    let dev = ld.into_device(); // `cleanerd` writes what it was handed first
    let seals = seals_in_log_order(&dev);
    assert_eq!(seals.len(), 3, "{mode:?}: three seals since the flush");
    let writes: Vec<usize> = seals.iter().flatten().copied().collect();
    for mask in 0..1u32 << writes.len() {
        let kept = |j: usize| mask >> j & 1 == 1;
        let image = dev.crash_keeping(|i| writes.iter().position(|&w| w == i).is_some_and(kept));
        let at = format!("{mode:?}, writes kept {mask:06b}");
        let (ld2, _) =
            Lld::recover_with(sim_disk(image), &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
        let whole = (0..seals.len())
            .take_while(|&s| kept(2 * s) && kept(2 * s + 1))
            .count();
        assert_eq!(m.check(&ld2, &at), states[whole], "{at}");
    }
}

#[test]
fn mixed_extent_seals_are_all_or_nothing_under_any_subset_of_their_writes() {
    for mode in MODES {
        mixed_extent_subsets(mode);
    }
}
