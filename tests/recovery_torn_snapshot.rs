//! Torn and stale checkpoint snapshots.
//!
//! The sharded checkpoint is written slab-by-slab into the inactive A/B
//! area, so a power cut can land mid-slab, between the
//! slab writes and the header, or after the header of a *previous*
//! checkpoint (leaving a stale-but-valid snapshot under a newer log
//! suffix). In every one of those states recovery must reconstruct
//! what a clean recovery of the untorn image produces (checkpoints are
//! an accelerator, never an authority: the log suffix always wins).
//!
//! * Deterministic byte-surgery cases: a mid-slab tear at 1 and at 8
//!   map shards (whole area invalid, fall back), a tear in the newest
//!   area after an A/B switch (fall back to the older area plus a
//!   longer replay), and a stale snapshot under a delete/re-allocate
//!   heavy suffix (no corruption; stresses identifier re-use), each
//!   held to the reference model (`common/model.rs`) of the workload
//!   and to the prefix of it that the untorn image recovers to.
//! * Every cut inside slab writes, directory writes and header
//!   publishes, at whatever offsets the encoder uses, through the crash
//!   enumerator (`common/history.rs`).
//! * Hostile snapshots: CRC-valid areas whose rows name a segment or
//!   slot the device does not have, an allocator floor past what an
//!   allocator hands out, an identifier at or past its floor, or a
//!   value past `u64::MAX`
//!   (typed error); whose directory counts overflow or pass the
//!   layout's caps (a slab of 0-bit rows holds any count), or whose column
//!   descriptors are no descriptors or disagree with the slab's length
//!   (area rejected, fall back) — never a panic.
//! * Shard-count migration: an image checkpointed at 8 map shards
//!   recovered at 1 and at 16 (the snapshot shard count is a property
//!   of the image, the map shard count a property of the process).

use ld_aru::core::BlockCol::{self, Id, Sector, Sectors, Segment, Ts};
use ld_aru::core::{Ctx, Lld, LldConfig, LldError, Position};
use ld_aru::disk::MemDisk;
use ld_aru::workload::pattern_fill;

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::{
    ckpt_header, column, reseal_slab, slab_ranges, CkptField, ColField, DirField, SLAB_COLUMNS,
};
#[path = "../crates/core/tests/common/enumerate.rs"]
mod enumerate;
#[path = "../crates/core/tests/common/history.rs"]
mod history;
#[path = "../crates/core/tests/common/model.rs"]
mod model;
use model::Model;

const BS: usize = 512;

/// A point of the mode matrix these tests can tell apart: map shards
/// (one slab each). The log never wraps, so no cleaner runs.
type Mode = usize;

const MODES: [Mode; 2] = [8, 1];

fn config(shards: Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(256),
        map_shards: shards,
        ..LldConfig::default()
    }
}

/// Recovers a copy of `image` and holds it to `m`: returns the prefix
/// of `m`'s units it is, and the report's checkpoint_seq.
fn recover_to(image: &[u8], mode: Mode, m: &Model, at: &str) -> (usize, u64) {
    let (ld, report) =
        Lld::recover_with(MemDisk::from_image(image.to_vec()), &config(mode)).unwrap();
    (m.check(&ld, at), report.checkpoint_seq)
}

/// Builds the common disk: a few populated lists (flushed), one
/// checkpoint, then a committed suffix of overwrites, deletions, and
/// re-allocations above it. Returns the live disk and its model.
fn build_disk(mode: Mode, suffix_arus: u64) -> (Lld<MemDisk>, Model) {
    let ld = Lld::format(MemDisk::new(4 << 20), &config(mode)).unwrap();
    let mut m = Model::default();
    let (mut lists, mut blocks) = (Vec::new(), Vec::new());
    let mut data = vec![0u8; BS];
    for li in 0..12u64 {
        let l = m.new_list(&ld, Ctx::Simple).unwrap();
        let mut pos = Position::First;
        for bi in 0..6u64 {
            let b = m.new_block(&ld, Ctx::Simple, l, pos).unwrap();
            pattern_fill(&mut data, li * 100 + bi);
            m.write(&ld, Ctx::Simple, b, &data).unwrap();
            blocks.push(b);
            pos = Position::After(b);
        }
        lists.push(l);
    }
    m.flush(&ld).unwrap();
    ld.checkpoint().unwrap();

    // Suffix: committed ARUs overwriting, deleting, and re-allocating
    // — the record mix that exercises identifier re-use.
    let mut live: Vec<usize> = (0..blocks.len()).collect();
    for i in 0..suffix_arus {
        let aru = ld.begin_aru().unwrap();
        let tgt = blocks[live[(i * 7 + 3) as usize % live.len()]];
        pattern_fill(&mut data, 0x5000 + i);
        m.write(&ld, Ctx::Aru(aru), tgt, &data).unwrap();
        m.end_aru(&ld, aru).unwrap();
        if i % 5 == 2 && live.len() > 4 {
            // Delete a block, then allocate a replacement (often the
            // same raw id) into another list inside an ARU.
            let vi = (i * 11) as usize % live.len();
            let victim = blocks[live.swap_remove(vi)];
            m.delete_block(&ld, Ctx::Simple, victim).unwrap();
            let aru = ld.begin_aru().unwrap();
            let l = lists[(i % lists.len() as u64) as usize];
            let nb = m.new_block(&ld, Ctx::Aru(aru), l, Position::First).unwrap();
            pattern_fill(&mut data, 0x9000 + i);
            m.write(&ld, Ctx::Aru(aru), nb, &data).unwrap();
            m.end_aru(&ld, aru).unwrap();
            live.push(blocks.len());
            blocks.push(nb);
        }
    }
    (ld, m)
}

/// The crash image of [`build_disk`] (the open segment's tail is lost).
fn build_image(mode: Mode, suffix_arus: u64) -> (Vec<u8>, Model) {
    let (ld, m) = build_disk(mode, suffix_arus);
    (ld.into_device().into_image(), m)
}

/// A mid-slab tear invalidates the whole area (per-slab CRC): recovery
/// falls back to scanning the full log and still reconstructs the
/// suffix state. Exercised on both writers at 1 and 8 snapshot shards
/// — one big slab versus eight small ones with independent CRCs.
#[test]
fn mid_slab_tear_falls_back_to_full_scan() {
    for mode in MODES {
        let (image, m) = build_image(mode, 40);
        let at = format!("shards {mode}");
        let (clean, clean_seq) = recover_to(&image, mode, &m, &at);
        assert!(clean_seq > 0, "shards {mode}: checkpoint not found clean");

        let probe = MemDisk::from_image(image.clone());
        let (layout, _, _) = Lld::probe(&probe).unwrap();
        let mut torn = image.clone();
        // First checkpoint goes to area A; cut inside the first slab's
        // payload (shard 0 always holds entries here).
        torn[slab_ranges(&image, layout.ckpt_a as usize)[0].start + 8] ^= 0xFF;

        let (k, seq) = recover_to(&torn, mode, &m, &format!("{at}, torn"));
        assert_eq!(seq, 0, "{at}: torn snapshot not rejected");
        assert_eq!(k, clean, "{at}: full-scan fallback diverges");
    }
}

/// A tear in the newest area right after an A/B switch: the older
/// area is still valid, so recovery uses the stale snapshot and
/// replays the longer suffix on top of it.
#[test]
fn torn_ab_switch_falls_back_to_older_area() {
    let mode = MODES[0];
    let ld = Lld::format(MemDisk::new(4 << 20), &config(mode)).unwrap();
    let mut m = Model::default();
    let mut data = vec![0u8; BS];
    let l = m.new_list(&ld, Ctx::Simple).unwrap();
    let mut blocks = Vec::new();
    let mut pos = Position::First;
    for i in 0..24u64 {
        let b = m.new_block(&ld, Ctx::Simple, l, pos).unwrap();
        pattern_fill(&mut data, i);
        m.write(&ld, Ctx::Simple, b, &data).unwrap();
        blocks.push(b);
        pos = Position::After(b);
    }
    m.flush(&ld).unwrap();
    ld.checkpoint().unwrap(); // area A
    for (i, &b) in blocks[..10].iter().enumerate() {
        pattern_fill(&mut data, 0x100 + i as u64);
        m.write(&ld, Ctx::Simple, b, &data).unwrap();
    }
    ld.checkpoint().unwrap(); // area B (newer)
    for (i, &b) in blocks[10..20].iter().enumerate() {
        pattern_fill(&mut data, 0x200 + i as u64);
        m.write(&ld, Ctx::Simple, b, &data).unwrap();
    }
    m.flush(&ld).unwrap();
    let image = ld.into_device().into_image();

    let (clean, clean_seq) = recover_to(&image, mode, &m, "clean");
    assert_eq!(clean, m.acknowledged(), "everything was flushed");
    let probe = MemDisk::from_image(image.clone());
    let (layout, _, _) = Lld::probe(&probe).unwrap();
    let mut torn = image.clone();
    torn[slab_ranges(&image, layout.ckpt_b as usize)[0].start + 8] ^= 0xFF;

    let (k, seq) = recover_to(&torn, mode, &m, "torn area B");
    assert!(seq > 0, "older area not used");
    assert!(seq < clean_seq, "fell back but kept the newer coverage?");
    assert_eq!(k, clean, "fallback state diverges");
}

/// No corruption at all — just a stale snapshot under a suffix heavy
/// with deletions and identifier re-use. Replaying that suffix over
/// the loaded slabs must reproduce the live disk as it stood, fully
/// flushed, when the crash image was taken.
#[test]
fn stale_snapshot_under_reallocating_suffix() {
    for mode in MODES {
        let (ld, mut m) = build_disk(mode, 120);
        m.flush(&ld).unwrap();
        let image = ld.into_device().into_image();
        let at = format!("shards {mode}");
        let (k, seq) = recover_to(&image, mode, &m, &at);
        assert!(seq > 0, "{at}: checkpoint not used");
        assert_eq!(
            k,
            m.acknowledged(),
            "{at}: replay diverges from the live disk"
        );
    }
}

/// What `types.rs` bounds an identifier and an allocator floor by.
const MAX_RAW_ID: u64 = u64::MAX >> 1;

/// The minimum of block column `col` of the slab at `slab`.
fn column_min(image: &[u8], slab: usize, col: BlockCol) -> u64 {
    ColField::Min.get(&image[column(slab, col as usize)..])
}

/// Sets the minimum of block column `col` of the slab at `slab`.
fn put_min(image: &mut [u8], slab: usize, col: BlockCol, v: u64) {
    ColField::Min.put(&mut image[column(slab, col as usize)..], v);
}

/// The crash image of a disk checkpointed once at one map shard (area
/// A, every block written), where area A and its one slab start, and
/// its layout.
fn one_slab_image() -> (Vec<u8>, usize, usize, ld_aru::core::Layout) {
    let (image, _) = build_image(1, 10);
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let area = layout.ckpt_a as usize;
    let slab = slab_ranges(&image, area)[0].start;
    (image, area, slab, layout)
}

fn recover_one_shard(image: Vec<u8>) -> Result<ld_aru::core::RecoveryReport, LldError> {
    Lld::recover_with(MemDisk::from_image(image), &config(1)).map(|(_, r)| r)
}

/// A CRC-valid slab whose block rows name a segment, sectors or a
/// sector count the device does not have is a typed error, not an
/// out-of-bounds index or read. Every block of the image has an
/// address and a full block's sector count, so the count column holds
/// one value, and raising its minimum moves every row. A segment and a
/// sector are coded as the zigzag of their difference from the row
/// before (the first row's from 0): a minimum of `2m` moves the first
/// row's value up by at least `m` where its code was even, and down past
/// zero, out of any u32, where it was odd.
#[test]
fn snapshot_entry_outside_device_is_corrupt() {
    let (image, area, slab, layout) = one_slab_image();
    // Each column lands where its name says.
    let spb = u64::from(layout.sectors_per_block());
    assert_eq!(column_min(&image, slab, Sectors), spb);
    assert_eq!(
        ColField::Width.get(&image[column(slab, Sectors as usize)..]),
        0
    );
    assert!(column_min(&image, slab, Segment) <= 2 * u64::from(layout.n_segments));
    assert!(column_min(&image, slab, Sector) <= 2 * u64::from(layout.sectors_per_slot()));
    for (col, min) in [
        (Segment, 2 * (u64::from(layout.n_segments) + 1)),
        (Sector, 2 * u64::from(layout.sectors_per_slot())),
        (Sectors, spb + 1),
        // No u32 holds it.
        (Segment, 1 << 34),
        (Sector, 1 << 34),
        (Sectors, 1 << 32),
    ] {
        let mut hostile = image.clone();
        put_min(&mut hostile, slab, col, min);
        reseal_slab(&mut hostile, area, 0);
        let got = recover_one_shard(hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "column {col:?} from {min}: {got:?}"
        );
    }
}

/// ROADMAP C8's hole: the allocators counted on from every identifier
/// and floor a checkpoint holds, so one near `u64::MAX` overflowed them.
/// A persistent table is now an array indexed by identifier, so a floor
/// past `MAX_MAP_SHARDS × (cap + 1)` (64 shards at most, `cap` the
/// superblock's `max_blocks` or `max_lists`), and a row at or past its
/// floor, is a typed error, like an identifier past the codec's bound
/// or past `u64::MAX` once its delta is added; floors at the bound are
/// taken.
#[test]
fn identifier_or_floor_near_u64_max_is_corrupt() {
    let (image, area, slab, layout) = one_slab_image();
    // Identifiers are sorted and coded as the difference from the one
    // before: the image's first is 1, and so is its smallest step.
    assert_eq!(column_min(&image, slab, Id), 1);
    let bounds = (64 * (layout.max_blocks + 1), 64 * (layout.max_lists + 1));
    let floor = CkptField::BlockFloor.get(&image[ckpt_header(&image, area)..]);
    assert!(floor > 1);
    type Edit<'a> = &'a dyn Fn(&mut [u8], usize, usize);
    let cases: [(&str, Edit, bool); 8] = [
        (
            "block floor",
            &|i, h, _| CkptField::BlockFloor.put(&mut i[h..], u64::MAX - 3),
            false,
        ),
        (
            "list floor",
            &|i, h, _| CkptField::ListFloor.put(&mut i[h..], MAX_RAW_ID + 1),
            false,
        ),
        (
            "floors at the bound",
            &|i, h, _| {
                CkptField::BlockFloor.put(&mut i[h..], bounds.0);
                CkptField::ListFloor.put(&mut i[h..], bounds.1);
            },
            true,
        ),
        (
            "a block floor past the bound",
            &|i, h, _| CkptField::BlockFloor.put(&mut i[h..], bounds.0 + 1),
            false,
        ),
        (
            "a list floor past the bound",
            &|i, h, _| CkptField::ListFloor.put(&mut i[h..], bounds.1 + 1),
            false,
        ),
        (
            "a row at its floor",
            &|i, _, s| put_min(i, s, Id, floor),
            false,
        ),
        // The first identifier past the bound; or the first at the
        // bound, and the second, itself plus a step of at least the
        // bound, past it or past `u64::MAX`.
        (
            "identifiers past the bound",
            &|i, _, s| put_min(i, s, Id, MAX_RAW_ID + 1),
            false,
        ),
        (
            "a step from the bound",
            &|i, _, s| put_min(i, s, Id, MAX_RAW_ID),
            false,
        ),
    ];
    for (what, edit, taken) in cases {
        let mut hostile = image.clone();
        edit(&mut hostile, ckpt_header(&image, area), slab);
        reseal_slab(&mut hostile, area, 0);
        let got = recover_one_shard(hostile);
        match (&got, taken) {
            (Ok(report), true) => assert!(report.checkpoint_seq > 0, "{what}: {report:?}"),
            (Err(LldError::Corrupt(_)), false) => {}
            _ => panic!("{what}: {got:?}"),
        }
    }
}

/// A slab whose descriptors are no descriptors (a width or shift no
/// u64 has) or do not add up to the slab's length invalidates its area
/// like a bad CRC: nothing of it is entered, and recovery falls back —
/// here to the whole log, which gives the same disk.
#[test]
fn descriptor_that_disagrees_with_its_slab_falls_back() {
    let (image, area, slab, _) = one_slab_image();
    let clean = recover_one_shard(image.clone()).unwrap();
    assert!(clean.checkpoint_seq > 0 && clean.snapshot_bytes > 0);
    let width = |col: BlockCol| column(slab, col as usize) + ColField::Width.at;
    let shift = |col: BlockCol| column(slab, col as usize) + ColField::Shift.at;
    // More than 8 rows, so that a bit a row is more than a byte.
    assert!(DirField::NBlocks.get(&image[area..]) > 8);
    assert!(image[width(Sector)] > 0 && image[width(Segment)] < 64);
    for (what, at, value) in [
        ("a width of 65", width(Id), 65),
        ("a width of 255", width(Ts), 255),
        (
            "a width and shift of 65",
            shift(Sector),
            65 - image[width(Sector)],
        ),
        ("a shift of 64", shift(Sectors), 64),
        (
            "rows a bit narrower than the slab",
            width(Sector),
            image[width(Sector)] - 1,
        ),
        (
            "rows a bit wider than the slab",
            width(Segment),
            image[width(Segment)] + 1,
        ),
    ] {
        let mut hostile = image.clone();
        hostile[at] = value;
        reseal_slab(&mut hostile, area, 0);
        let got = recover_one_shard(hostile).unwrap();
        assert_eq!((got.checkpoint_seq, got.snapshot_bytes), (0, 0), "{what}");
        assert!(got.segments_replayed > clean.segments_replayed, "{what}");
    }
    // A slab cut short of its descriptors.
    let mut hostile = image.clone();
    let short = column(0, SLAB_COLUMNS) - 1;
    DirField::SlabLen.put(&mut hostile[area..], short as u64);
    reseal_slab(&mut hostile, area, 0);
    assert_eq!(recover_one_shard(hostile).unwrap().checkpoint_seq, 0);
}

/// A directory entry whose block count times the row width overflows
/// invalidates its area like any other bad geometry: recovery falls
/// back to the older area and replays the longer suffix.
#[test]
fn overflowing_directory_entry_falls_back_to_older_area() {
    let (ld, mut m) = build_disk(8, 20);
    m.flush(&ld).unwrap();
    ld.checkpoint().unwrap(); // area B (newer)
    let image = ld.into_device().into_image();
    let (clean, clean_seq) = recover_to(&image, 8, &m, "clean");
    assert_eq!(clean, m.acknowledged(), "everything was flushed");
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();

    let mut hostile = image.clone();
    let area = layout.ckpt_b as usize;
    DirField::NBlocks.put(&mut hostile[area..], u64::MAX / 2);
    reseal_slab(&mut hostile, area, 0);
    let (k, seq) = recover_to(&hostile, 8, &m, "an overflowing entry in area B");
    assert!(seq > 0 && seq < clean_seq, "older area not used: {seq}");
    assert_eq!(k, clean, "fallback state diverges");
}

/// A directory may not count more rows than the layout's caps. A slab
/// whose columns all take 0 bits holds any number of rows in no bytes,
/// and identifiers stepping from a minimum of 1 are all valid: without
/// the caps, recovery would enter rows until memory ran out. Past them
/// the area is refused and recovery replays the whole log; at them the
/// same slab is taken.
#[test]
fn zero_width_rows_past_the_caps_fall_back() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config(1)).unwrap();
    ld.checkpoint().unwrap(); // area A: one slab, no rows
    let image = ld.into_device().into_image();
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let area = layout.ckpt_a as usize;
    let (dir, slab) = (area, slab_ranges(&image, area)[0].start);
    let desc = column(0, SLAB_COLUMNS);
    assert_eq!(DirField::SlabLen.get(&image[dir..]) as usize, desc);
    assert!(image[slab..slab + desc].iter().all(|&b| b == 0));
    for (n_blocks, taken) in [
        (3, true),
        (layout.max_blocks, true),
        (layout.max_blocks + 1, false),
        (1 << 40, false),
    ] {
        let mut hostile = image.clone();
        put_min(&mut hostile, slab, Id, 1);
        // Every row below the floor: identifiers up to the cap.
        let header = ckpt_header(&image, area);
        CkptField::BlockFloor.put(&mut hostile[header..], layout.max_blocks + 1);
        DirField::NBlocks.put(&mut hostile[dir..], n_blocks);
        reseal_slab(&mut hostile, area, 0);
        let got = recover_one_shard(hostile).unwrap();
        assert_eq!(got.snapshot_bytes > 0, taken, "{n_blocks} rows: {got:?}");
    }
}

/// An image checkpointed at 8 map shards recovered at 1 and at 16: the
/// snapshot's slab count comes from the image, the recovered map's
/// shard count from the running config, and neither may observe the
/// other.
#[test]
fn snapshot_shard_count_migrates() {
    let (image, m) = build_image(8, 60);
    let (base, base_seq) = recover_to(&image, 8, &m, "shards 8");
    assert!(base_seq > 0);
    for shards in [1, 16] {
        let at = format!("recovered at {shards} shards");
        let (k, seq) = recover_to(&image, shards, &m, &at);
        assert_eq!(seq, base_seq, "{at}");
        assert_eq!(k, base, "{at}: diverges");
    }
}

/// Every cut of twelve three-block ARUs, every other one tagged, each
/// flushed, a checkpoint after every fourth: cuts inside slab, directory
/// and header writes at whatever offsets the encoder uses, acknowledged
/// flushes, and outcomes where their effects are. Once per shard count.
#[test]
fn checkpoint_write_crash_matrix() {
    for seed in enumerate::seeds(2).take(2) {
        let mut r = history::Run::new(seed, history::config(seed, BS, 8), 12);
        for tag in 1..=12u8 {
            r.three_block_aru(tag, tag % 2 == 0);
            if tag % 4 == 0 {
                r.checkpoint();
            }
        }
        assert_eq!(r.m.durable(), 60, "ENUM_SEED={seed}");
        r.finish("flushed commits and checkpoints");
    }
}
