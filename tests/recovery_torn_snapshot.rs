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
//!   heavy suffix (no corruption; stresses identifier re-use), checked
//!   against the live disk's state at the moment of the crash.
//! * A crash-matrix sweep (`SimDisk` byte-budget cuts) through a
//!   workload that checkpoints repeatedly, so cuts land inside slab
//!   writes, directory writes, and header publishes at whatever
//!   offsets the encoder actually uses.
//! * Hostile snapshots: CRC-valid areas whose rows name a segment or
//!   slot the device does not have, an identifier or allocator floor
//!   the allocators cannot count on from, or a value past `u64::MAX`
//!   (typed error); whose directory counts overflow or pass the
//!   layout's caps (a slab of 0-bit rows holds any count), or whose column
//!   descriptors are no descriptors or disagree with the slab's length
//!   (area rejected, fall back) — never a panic.
//! * Shard-count migration: an image checkpointed at 8 map shards
//!   recovered at 1 and at 16 (the snapshot shard count is a property
//!   of the image, the map shard count a property of the process).

use ld_aru::core::{
    Ctx, Lld, LldConfig, LldError, Position, CKPT_COL_DESC, CKPT_COL_SHIFT, CKPT_COL_WIDTH,
};
use ld_aru::disk::{crc32, DiskModel, FaultPlan, MemDisk, SimDisk};
use ld_aru::workload::pattern_fill;

const BS: usize = 512;
/// Mirrors `layout.rs`: checkpoint header, then the reserved directory
/// bytes ahead of the first snapshot slab in an area.
const CKPT_HEADER: usize = 68;
const CKPT_SLAB_START: u64 = CKPT_HEADER as u64 + 64 * 24;

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

/// Raw handles created by the workload. The same config drives every
/// recovery of one image, so raw ids are directly comparable.
struct World {
    lists: Vec<ld_aru::core::ListId>,
    blocks: Vec<ld_aru::core::BlockId>,
}

/// Every observable of the recovered disk the workload touched: each
/// list's walk and each block's content (None where the read fails:
/// a deleted identifier).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    walks: Vec<Option<Vec<u64>>>,
    contents: Vec<Option<Vec<u8>>>,
}

fn fingerprint(ld: &Lld<MemDisk>, world: &World) -> Fingerprint {
    let walks = world
        .lists
        .iter()
        .map(|&l| {
            ld.list_blocks(Ctx::Simple, l)
                .ok()
                .map(|bs| bs.iter().map(|b| b.get()).collect())
        })
        .collect();
    let mut buf = vec![0u8; BS];
    let contents = world
        .blocks
        .iter()
        .map(|&b| ld.read(Ctx::Simple, b, &mut buf).ok().map(|_| buf.clone()))
        .collect();
    Fingerprint { walks, contents }
}

/// Recovers a copy of `image` and fingerprints it. Returns the report's
/// checkpoint_seq alongside.
fn recover_fp(image: &[u8], mode: Mode, world: &World) -> (Fingerprint, u64) {
    let (ld, report) =
        Lld::recover_with(MemDisk::from_image(image.to_vec()), &config(mode)).unwrap();
    (fingerprint(&ld, world), report.checkpoint_seq)
}

/// Builds the common disk: a few populated lists (flushed), one
/// checkpoint, then a committed suffix of overwrites, deletions, and
/// re-allocations above it. Returns the live disk and the handles.
fn build_disk(mode: Mode, suffix_arus: u64) -> (Lld<MemDisk>, World) {
    let ld = Lld::format(MemDisk::new(4 << 20), &config(mode)).unwrap();
    let mut world = World {
        lists: Vec::new(),
        blocks: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    for li in 0..12u64 {
        let l = ld.new_list(Ctx::Simple).unwrap();
        let mut pred = None;
        for bi in 0..6u64 {
            let pos = match pred {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
            pattern_fill(&mut data, li * 100 + bi);
            ld.write(Ctx::Simple, b, &data).unwrap();
            world.blocks.push(b);
            pred = Some(b);
        }
        world.lists.push(l);
    }
    ld.flush().unwrap();
    ld.checkpoint().unwrap();

    // Suffix: committed ARUs overwriting, deleting, and re-allocating
    // — the record mix that exercises identifier re-use.
    let mut live: Vec<usize> = (0..world.blocks.len()).collect();
    for i in 0..suffix_arus {
        let aru = ld.begin_aru().unwrap();
        let tgt = world.blocks[live[(i * 7 + 3) as usize % live.len()]];
        pattern_fill(&mut data, 0x5000 + i);
        ld.write(Ctx::Aru(aru), tgt, &data).unwrap();
        ld.end_aru(aru).unwrap();
        if i % 5 == 2 && live.len() > 4 {
            // Delete a block, then allocate a replacement (often the
            // same raw id) into another list inside an ARU.
            let vi = (i * 11) as usize % live.len();
            let victim = world.blocks[live.swap_remove(vi)];
            ld.delete_block(Ctx::Simple, victim).unwrap();
            let aru = ld.begin_aru().unwrap();
            let l = world.lists[(i % world.lists.len() as u64) as usize];
            let nb = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
            pattern_fill(&mut data, 0x9000 + i);
            ld.write(Ctx::Aru(aru), nb, &data).unwrap();
            ld.end_aru(aru).unwrap();
            live.push(world.blocks.len());
            world.blocks.push(nb);
        }
    }
    (ld, world)
}

/// The crash image of [`build_disk`] (the open segment's tail is lost).
fn build_image(mode: Mode, suffix_arus: u64) -> (Vec<u8>, World) {
    let (ld, world) = build_disk(mode, suffix_arus);
    (ld.into_device().into_image(), world)
}

/// A mid-slab tear invalidates the whole area (per-slab CRC): recovery
/// falls back to scanning the full log and still reconstructs the
/// suffix state. Exercised on both writers at 1 and 8 snapshot shards
/// — one big slab versus eight small ones with independent CRCs.
#[test]
fn mid_slab_tear_falls_back_to_full_scan() {
    for mode in MODES {
        let (image, world) = build_image(mode, 40);
        let (clean_fp, clean_seq) = recover_fp(&image, mode, &world);
        assert!(clean_seq > 0, "shards {mode}: checkpoint not found clean");

        let probe = MemDisk::from_image(image.clone());
        let (layout, _, _) = Lld::probe(&probe).unwrap();
        let mut torn = image.clone();
        // First checkpoint goes to area A; cut inside the first slab's
        // payload (shard 0 always holds entries here).
        torn[(layout.ckpt_a + CKPT_SLAB_START + 8) as usize] ^= 0xFF;

        let (fp, seq) = recover_fp(&torn, mode, &world);
        assert_eq!(seq, 0, "shards {mode}: torn snapshot not rejected");
        assert_eq!(fp, clean_fp, "shards {mode}: full-scan fallback diverges");
    }
}

/// A tear in the newest area right after an A/B switch: the older
/// area is still valid, so recovery uses the stale snapshot and
/// replays the longer suffix on top of it.
#[test]
fn torn_ab_switch_falls_back_to_older_area() {
    let mode = MODES[0];
    let ld = Lld::format(MemDisk::new(4 << 20), &config(mode)).unwrap();
    let mut world = World {
        lists: Vec::new(),
        blocks: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    let l = ld.new_list(Ctx::Simple).unwrap();
    world.lists.push(l);
    let mut pred = None;
    for i in 0..24u64 {
        let pos = match pred {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        pattern_fill(&mut data, i);
        ld.write(Ctx::Simple, b, &data).unwrap();
        world.blocks.push(b);
        pred = Some(b);
    }
    ld.flush().unwrap();
    ld.checkpoint().unwrap(); // area A
    for i in 0..10u64 {
        pattern_fill(&mut data, 0x100 + i);
        ld.write(Ctx::Simple, world.blocks[i as usize], &data)
            .unwrap();
    }
    ld.checkpoint().unwrap(); // area B (newer)
    for i in 0..10u64 {
        pattern_fill(&mut data, 0x200 + i);
        ld.write(Ctx::Simple, world.blocks[10 + i as usize], &data)
            .unwrap();
    }
    ld.flush().unwrap();
    let image = ld.into_device().into_image();

    let (clean_fp, clean_seq) = recover_fp(&image, mode, &world);
    let probe = MemDisk::from_image(image.clone());
    let (layout, _, _) = Lld::probe(&probe).unwrap();
    let mut torn = image.clone();
    torn[(layout.ckpt_b + CKPT_SLAB_START + 8) as usize] ^= 0xFF;

    let (fp, seq) = recover_fp(&torn, mode, &world);
    assert!(seq > 0, "older area not used");
    assert!(seq < clean_seq, "fell back but kept the newer coverage?");
    assert_eq!(fp, clean_fp, "fallback state diverges");
}

/// No corruption at all — just a stale snapshot under a suffix heavy
/// with deletions and identifier re-use. Replaying that suffix over
/// the loaded slabs must reproduce the live disk as it stood, fully
/// flushed, when the crash image was taken.
#[test]
fn stale_snapshot_under_reallocating_suffix() {
    for mode in MODES {
        let (ld, world) = build_disk(mode, 120);
        ld.flush().unwrap();
        let live_fp = fingerprint(&ld, &world);
        let image = ld.into_device().into_image();
        let (fp, seq) = recover_fp(&image, mode, &world);
        assert!(seq > 0, "shards {mode}: checkpoint not used");
        assert_eq!(
            fp, live_fp,
            "shards {mode}: replay diverges from the live disk"
        );
    }
}

/// Byte offsets inside a checkpoint area (mirrors `checkpoint.rs`):
/// the header's allocator floors, directory CRC and own CRC; a directory
/// entry's slab CRC and slab length; and, in the table of column
/// descriptors a slab starts with (`CKPT_COL_DESC` bytes each: minimum
/// u64, width in bits, shift), the columns of a block's identifier,
/// segment, sector and sector count.
const HDR_BLOCK_FLOOR: usize = 24;
const HDR_LIST_FLOOR: usize = 32;
const HDR_DIR_CRC: usize = 44;
const HDR_CRC: usize = CKPT_HEADER - 4;
const DIR_ENTRY: usize = 24;
const DIR_SLAB_CRC: usize = 16;
const DIR_SLAB_LEN: usize = 20;
const COL_BLOCK_ID: usize = 0;
const COL_SEG: usize = 1;
const COL_SECTOR: usize = 2;
const COL_SECTORS: usize = 3;
/// What `types.rs` bounds an identifier and an allocator floor by.
const MAX_RAW_ID: u64 = u64::MAX >> 1;

fn u32_at(image: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(image[off..off + 4].try_into().unwrap())
}

fn put_u32(image: &mut [u8], off: usize, v: u32) {
    image[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(image: &mut [u8], off: usize, v: u64) {
    image[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn u64_at(image: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(image[off..off + 8].try_into().unwrap())
}

/// The minimum of column `col` of the slab at `slab`.
fn column_min(image: &[u8], slab: usize, col: usize) -> u64 {
    u64_at(image, slab + col * CKPT_COL_DESC)
}

/// Recomputes the directory CRC and the header CRC of the checkpoint
/// area at `area`, so edits under them pass as a valid checkpoint.
fn reseal_header(image: &mut [u8], area: usize) {
    let shards = u32_at(image, area + 40) as usize;
    let dir = area + CKPT_HEADER;
    let dir_crc = crc32(&image[dir..dir + shards * DIR_ENTRY]);
    put_u32(image, area + HDR_DIR_CRC, dir_crc);
    let crc = crc32(&image[area..area + HDR_CRC]);
    put_u32(image, area + HDR_CRC, crc);
}

/// Recomputes the CRC of the first slab of the area at `area` and
/// everything above it, so an edit of the slab reaches the decoder.
fn reseal_first_slab(image: &mut [u8], area: usize) {
    let slab = area + CKPT_SLAB_START as usize;
    let dir = area + CKPT_HEADER;
    let len = u32_at(image, dir + DIR_SLAB_LEN) as usize;
    let slab_crc = crc32(&image[slab..slab + len]);
    put_u32(image, dir + DIR_SLAB_CRC, slab_crc);
    reseal_header(image, area);
}

/// The crash image of a disk checkpointed once at one map shard (area
/// A, every block written), where area A and its one slab start, and
/// its layout.
fn one_slab_image() -> (Vec<u8>, usize, usize, ld_aru::core::Layout) {
    let (image, _) = build_image(1, 10);
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let area = layout.ckpt_a as usize;
    (image, area, area + CKPT_SLAB_START as usize, layout)
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
    assert_eq!(column_min(&image, slab, COL_SECTORS), spb);
    assert_eq!(
        image[slab + COL_SECTORS * CKPT_COL_DESC + CKPT_COL_WIDTH],
        0
    );
    assert!(column_min(&image, slab, COL_SEG) <= 2 * u64::from(layout.n_segments));
    assert!(column_min(&image, slab, COL_SECTOR) <= 2 * u64::from(layout.sectors_per_slot()));
    for (col, min) in [
        (COL_SEG, 2 * (u64::from(layout.n_segments) + 1)),
        (COL_SECTOR, 2 * u64::from(layout.sectors_per_slot())),
        (COL_SECTORS, spb + 1),
        // No u32 holds it.
        (COL_SEG, 1 << 34),
        (COL_SECTOR, 1 << 34),
        (COL_SECTORS, 1 << 32),
    ] {
        let mut hostile = image.clone();
        put_u64(&mut hostile, slab + col * CKPT_COL_DESC, min);
        reseal_first_slab(&mut hostile, area);
        let got = recover_one_shard(hostile);
        assert!(
            matches!(got, Err(LldError::Corrupt(_))),
            "column {col} from {min}: {got:?}"
        );
    }
}

/// ROADMAP C8's hole: the allocators count on from every identifier and
/// floor a checkpoint holds (`raw + shards`), so one near `u64::MAX`
/// overflowed them. Past the bound, or past `u64::MAX` once its delta is
/// added, it is a typed error; floors at the bound are taken (and
/// identifiers: `checkpoint.rs`'s round trip).
#[test]
fn identifier_or_floor_near_u64_max_is_corrupt() {
    let (image, area, slab, _) = one_slab_image();
    let id_min = slab + COL_BLOCK_ID * CKPT_COL_DESC;
    // Identifiers are sorted and coded as the difference from the one
    // before: the image's first is 1, and so is its smallest step.
    assert_eq!(column_min(&image, slab, COL_BLOCK_ID), 1);
    type Edit = fn(&mut [u8], usize, usize);
    let cases: [(&str, Edit, bool); 5] = [
        (
            "block floor",
            |i, a, _| put_u64(i, a + HDR_BLOCK_FLOOR, u64::MAX - 3),
            false,
        ),
        (
            "list floor",
            |i, a, _| put_u64(i, a + HDR_LIST_FLOOR, MAX_RAW_ID + 1),
            false,
        ),
        (
            "floors at the bound",
            |i, a, _| {
                put_u64(i, a + HDR_BLOCK_FLOOR, MAX_RAW_ID);
                put_u64(i, a + HDR_LIST_FLOOR, MAX_RAW_ID);
            },
            true,
        ),
        // The first identifier past the bound; or the first at the
        // bound, and the second, itself plus a step of at least the
        // bound, past it or past `u64::MAX`.
        (
            "identifiers past the bound",
            |i, _, m| put_u64(i, m, MAX_RAW_ID + 1),
            false,
        ),
        (
            "a step from the bound",
            |i, _, m| put_u64(i, m, MAX_RAW_ID),
            false,
        ),
    ];
    for (what, edit, taken) in cases {
        let mut hostile = image.clone();
        edit(&mut hostile, area, id_min);
        reseal_first_slab(&mut hostile, area);
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
    let width = |col: usize| slab + col * CKPT_COL_DESC + CKPT_COL_WIDTH;
    let shift = |col: usize| slab + col * CKPT_COL_DESC + CKPT_COL_SHIFT;
    // More than 8 rows, so that a bit a row is more than a byte.
    assert!(u64_at(&image, area + CKPT_HEADER) > 8, "n_blocks");
    assert!(image[width(COL_SECTOR)] > 0 && image[width(COL_SEG)] < 64);
    for (what, at, value) in [
        ("a width of 65", width(COL_BLOCK_ID), 65),
        ("a width of 255", width(9), 255),
        (
            "a width and shift of 65",
            shift(COL_SECTOR),
            65 - image[width(COL_SECTOR)],
        ),
        ("a shift of 64", shift(COL_SECTORS), 64),
        (
            "rows a bit narrower than the slab",
            width(COL_SECTOR),
            image[width(COL_SECTOR)] - 1,
        ),
        (
            "rows a bit wider than the slab",
            width(COL_SEG),
            image[width(COL_SEG)] + 1,
        ),
    ] {
        let mut hostile = image.clone();
        hostile[at] = value;
        reseal_first_slab(&mut hostile, area);
        let got = recover_one_shard(hostile).unwrap();
        assert_eq!((got.checkpoint_seq, got.snapshot_bytes), (0, 0), "{what}");
        assert!(got.segments_replayed > clean.segments_replayed, "{what}");
    }
    // A slab cut short of its descriptors.
    let mut hostile = image.clone();
    let short = 11 * CKPT_COL_DESC as u32 - 1;
    put_u32(&mut hostile, area + CKPT_HEADER + DIR_SLAB_LEN, short);
    reseal_first_slab(&mut hostile, area);
    assert_eq!(recover_one_shard(hostile).unwrap().checkpoint_seq, 0);
}

/// A directory entry whose block count times the row width overflows
/// invalidates its area like any other bad geometry: recovery falls
/// back to the older area and replays the longer suffix.
#[test]
fn overflowing_directory_entry_falls_back_to_older_area() {
    let (ld, world) = build_disk(8, 20);
    ld.flush().unwrap();
    ld.checkpoint().unwrap(); // area B (newer)
    let image = ld.into_device().into_image();
    let (clean_fp, clean_seq) = recover_fp(&image, 8, &world);
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();

    let mut hostile = image.clone();
    let area = layout.ckpt_b as usize;
    hostile[area + CKPT_HEADER..area + CKPT_HEADER + 8]
        .copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    reseal_header(&mut hostile, area);
    let (fp, seq) = recover_fp(&hostile, 8, &world);
    assert!(seq > 0 && seq < clean_seq, "older area not used: {seq}");
    assert_eq!(fp, clean_fp, "fallback state diverges");
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
    let (dir, slab) = (area + CKPT_HEADER, area + CKPT_SLAB_START as usize);
    let desc = 11 * CKPT_COL_DESC;
    assert_eq!(u32_at(&image, dir + DIR_SLAB_LEN) as usize, desc);
    assert!(image[slab..slab + desc].iter().all(|&b| b == 0));
    for (n_blocks, taken) in [
        (3, true),
        (layout.max_blocks, true),
        (layout.max_blocks + 1, false),
        (1 << 40, false),
    ] {
        let mut hostile = image.clone();
        put_u64(&mut hostile, slab + COL_BLOCK_ID * CKPT_COL_DESC, 1);
        put_u64(&mut hostile, dir, n_blocks);
        reseal_first_slab(&mut hostile, area);
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
    let (image, world) = build_image(8, 60);
    let (base_fp, base_seq) = recover_fp(&image, 8, &world);
    assert!(base_seq > 0);
    for &shards in &[1usize, 16] {
        let (fp, seq) = recover_fp(&image, shards, &world);
        assert_eq!(seq, base_seq, "shards {shards}");
        assert_eq!(fp, base_fp, "recover at {shards} shards diverges");
    }
}

/// Byte-budget crash sweep through a checkpoint-heavy workload: cuts
/// land inside slab writes, the directory write, the header publish,
/// and ordinary segment writes, and keep a seeded subset of the writes
/// since the last barrier. Whatever survives, recovery succeeds and
/// everything flushed before the first checkpoint is intact, holding a
/// pattern some round actually wrote. `CRASH_SEED=<crash point>` runs
/// one cut alone.
#[test]
fn checkpoint_write_crash_matrix() {
    let points: Vec<u64> = match std::env::var("CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("CRASH_SEED is a number")],
        Err(_) => (40_000..400_000).step_by(23_000).collect(),
    };
    for mode in MODES {
        for &crash_at in &points {
            let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010())
                .with_faults(FaultPlan::new().crash_after_bytes(crash_at));
            let ld = Lld::format(sim, &config(mode)).unwrap();
            let mut world = World {
                lists: Vec::new(),
                blocks: Vec::new(),
            };
            let mut data = vec![0u8; BS];

            // Base state, flushed before the fault budget can fire
            // checkpoint writes: must always survive.
            let mut sealed = 0usize;
            let crashed = (|| -> Result<(), ld_aru::core::LldError> {
                for li in 0..8u64 {
                    let l = ld.new_list(Ctx::Simple)?;
                    let b = ld.new_block(Ctx::Simple, l, Position::First)?;
                    pattern_fill(&mut data, li);
                    ld.write(Ctx::Simple, b, &data)?;
                    world.lists.push(l);
                    world.blocks.push(b);
                }
                ld.flush()?;
                sealed = world.blocks.len();
                // Churn with periodic checkpoints until the cut.
                for round in 0..40u64 {
                    for (i, &b) in world.blocks.iter().enumerate().take(sealed) {
                        pattern_fill(&mut data, 0x1000 + round * 100 + i as u64);
                        ld.write(Ctx::Simple, b, &data)?;
                    }
                    ld.checkpoint()?;
                }
                Ok(())
            })()
            .is_err();

            let (image, cut) = ld.into_device().crash_image();
            let (fp, _) = recover_fp(&image, mode, &world);
            // The flushed base blocks all survive, each holding its
            // base pattern or some round's overwrite.
            for (i, c) in fp.contents.iter().enumerate().take(sealed) {
                let c = c
                    .as_ref()
                    .unwrap_or_else(|| panic!("shards {mode}, {cut}: flushed block {i} lost"));
                let written = std::iter::once(i as u64)
                    .chain((0..40u64).map(|round| 0x1000 + round * 100 + i as u64))
                    .any(|seed| {
                        pattern_fill(&mut data, seed);
                        data == *c
                    });
                assert!(
                    written,
                    "shards {mode}, {cut}: block {i} holds bytes never written"
                );
            }
            assert!(
                crashed || crash_at > 200_000,
                "{cut}: the budget never ran out"
            );
        }
    }
}
