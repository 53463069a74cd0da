//! A seeded bit-flip fuzzer for `recover` (docs/INVARIANTS.md: no image
//! makes `recover` panic).
//!
//! Each case takes one of three images — a checkpoint, a suffix of full
//! and in-slot partial segments, ARUs, tagged commits and deletions, and
//! on 4 KiB blocks a sector a grown block left free and another block
//! filled (docs/INVARIANTS.md I5). Two differ in their block size: on
//! 512-byte blocks a sector is a block, on 4 KiB blocks most headers end
//! in the middle of a block, right behind the meta record of the segment
//! in front of them. The third is in `Sequential` mode, with no tagged
//! commit. The checkpoint recovery loads was asked for while an ARU was
//! open (docs/INVARIANTS.md I6).
//!
//! *Raw* flips of 1–4 bits land in the superblock, a checkpoint area or
//! a used slot and leave the checksums alone; *resealed* flips recompute
//! the checksum above them (a summary, a checkpoint header). `recover`
//! returns a typed error, or a disk on which `check()` succeeds and
//! every allocated list walks to its end. It never panics.
//!
//! A *resealed field* is drawn from the declarations (`ld_core::SUPERBLOCK`
//! and the like, docs/FORMAT.md): any field but a magic or a CRC of the
//! superblock, a segment header, a checkpoint header, a directory entry
//! or a column descriptor, set to 0, 1, its width's most or a random
//! value under its recomputed checksums, so a field a later format
//! declares is fuzzed with no kind of its own. *Resealed dedup* and
//! *rows* flips land in the dedup table's rows or in 1–8 bits of a slab's
//! bit-packed rows. Rows and fields under a valid
//! checksum are taken at their word: recovery bounds what becomes an
//! index or feeds the allocators' arithmetic, but does not walk every
//! list to see that its rows link up. So of these only a return is
//! asked: a typed error, or a disk on which `check()` and every walk
//! return.
//!
//! Format 10's header kinds land in the header sectors next to the
//! superblock: a header torn at a random byte (what follows it is the
//! sector's old bytes, zeros or the other header's), and a header
//! resealed with a body length past its area, or one that is not the
//! length its directory, slabs and dedup table add up to. Recovery
//! falls back to the other area, and the disk comes up whole.
//!
//! *Hostile* kinds set one field, under its recomputed checksums, to a
//! value no writer produces, and `recover` must return
//! [`LldError::Corrupt`]: a replayed `Write` record whose extent runs
//! past its segment's data area or takes more sectors than a block has,
//! a snapshot row of the checkpoint recovery loads whose sector count
//! does, a superblock whose block size is zero or no block size, and a
//! checkpoint head with no room for a segment behind it. One more cuts
//! the superblock's slot count to the slots the image uses, give or take
//! one: at the count itself every slot is in use, and the disk must
//! still come up whole (for the deletions that make room again). And one
//! sets the checkpoint head to each sector around the last base a slot
//! has room behind, under its recomputed checksum: a typed error or a
//! disk that checks, whichever side of that edge it lands on.
//!
//! Format 9's kinds reach the summary's varint decoder: one field of a
//! replayed record, found by a decode walk ([`summary_records`]) and
//! spliced in under its recomputed checksums, becomes an 11-byte
//! varint, an overlong one, an extent past 32 bits or a zero
//! identifier, or the summary ends inside it. Each must be
//! [`LldError::Corrupt`]. A hostile `Write` extent is spliced the same
//! way, through `Record::encode`.
//!
//! Format 11's kinds reach the metadata run and the watermark: a
//! replayed header's `covered` distance set to claim itself (0), the
//! segment before it (1) or anything, under its recomputed CRC and
//! trailer; a replayed segment's trailer zeroed or forged; a meta record
//! whose sectors reach into its own data area or trailer; and a
//! checkpoint head whose meta position is outside its slot or leaves no
//! room behind its base. The first three end in a disk that checks —
//! the log ends where a header or trailer is refused, and a claim that
//! covers a body that did land replays it — and the last in
//! [`LldError::Corrupt`].
//!
//! Format 12's kinds reach the dedup table's rows, one a client: the
//! newer checkpoint's one row counted twice, two rows for one client,
//! which must be [`LldError::Corrupt`]; a header that counts more rows
//! than [`MAX_CLIENTS`], which is no checkpoint, so recovery falls back
//! to the other area and the disk comes up whole; and the row's
//! generation set to 0, below the replayed `WriteId` records', which
//! move it on: the disk comes up whole, client 7's row the base
//! image's.
//!
//! The arrays' kinds reach the bound that sizes the persistent tables,
//! `MAX_MAP_SHARDS × (cap + 1)` for the superblock's `max_blocks` or
//! `max_lists` ([`id_bound`]): the newer checkpoint's block or list
//! floor set past it; a floor set at or below the largest identifier
//! its slabs hold, so a row is at or past its floor; and a `NewBlock`
//! or `NewList` at or past the bound spliced in ahead of a replayed
//! `NewBlock`. Each must be [`LldError::Corrupt`], refused before any
//! table grows to it.
//!
//! About 200 cases in tier-1; `RECOVERY_FUZZ_CASES=n` runs more (CI:
//! 5,000 in release mode). A failure prints `RECOVERY_FUZZ_SEED=n`, and
//! that variable re-runs the one case.

mod common;

use common::*;
use ld_core::{
    BlockCol, BlockId, ConcurrencyMode, Ctx, Field, Layout, ListId, Lld, LldConfig, LldError,
    Position, Record, CHECKPOINT_HEADER, COLUMN_DESC, DEDUP_COLUMNS, DIR_ENTRY, MAX_CLIENTS,
    SEGMENT_HEADER, SUPERBLOCK,
};
use ld_disk::MemDisk;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The block size, the device size and the mode of the three images.
const IMAGES: [(usize, u64, ConcurrencyMode); 3] = [
    (512, 1 << 20, ConcurrencyMode::Concurrent),
    (4096, 4 << 20, ConcurrencyMode::Concurrent),
    (512, 1 << 20, ConcurrencyMode::Sequential),
];
/// Blocks per segment slot.
const BPS: usize = 16;
/// More lists than any image here allocates: the oracle walks every
/// identifier up to it.
const MAX_LISTS: u64 = 64;

fn config(block_size: usize, concurrency: ConcurrencyMode) -> LldConfig {
    LldConfig {
        block_size,
        concurrency,
        segment_bytes: BPS * block_size,
        max_blocks: Some(256),
        max_lists: Some(MAX_LISTS),
        ..LldConfig::default()
    }
}

struct Rng(u64);

impl Rng {
    /// xorshift64*
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 33) % n as u64) as usize
    }
}

/// What a case's disk is asked (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Oracle {
    /// A typed error, or a disk that checks and whose lists walk.
    Whole,
    /// A typed error, or a disk on which `check()` and every walk return.
    Returns,
    /// As [`Whole`](Self::Whole), and client 7's row is the base
    /// image's.
    Row,
    /// [`LldError::Corrupt`].
    Corrupt,
}

/// The image every case starts from, and where its parts are.
struct Base {
    config: LldConfig,
    image: Vec<u8>,
    layout: Layout,
    /// Byte offsets of the valid segment headers, each ending a sector
    /// of its slot.
    headers: Vec<usize>,
    /// The checkpoint area recovery loads (the newer).
    newer: usize,
    /// The segments recovery replays.
    chain: Vec<SegPos>,
    /// The records of the segments recovery replays, each with its
    /// segment's position and its byte range, where the meta record
    /// leaves [`SLACK`] bytes in its first sector: room for a longer
    /// field.
    replayed: Vec<(SegPos, std::ops::Range<usize>, Record)>,
    /// One more than the highest slot holding a segment.
    used_slots: u32,
    /// The largest block and list identifiers the newer checkpoint
    /// holds.
    held: (u64, u64),
    /// Client 7's row (generation, floor) on the recovered base image.
    row: Option<(u64, u64)>,
}

impl Base {
    /// The `Write` records of [`replayed`](Self::replayed).
    fn replayed_writes(&self) -> Vec<&(SegPos, std::ops::Range<usize>, Record)> {
        (self.replayed.iter())
            .filter(|r| matches!(r.2, Record::Write { .. }))
            .collect()
    }

    /// The `NewBlock` records of [`replayed`](Self::replayed): each
    /// applied directly, with no ARU to wait for.
    fn replayed_allocations(&self) -> Vec<&(SegPos, std::ops::Range<usize>, Record)> {
        (self.replayed.iter())
            .filter(|r| matches!(r.2, Record::NewBlock { .. }))
            .collect()
    }
}

/// One past the largest identifier of a kind whose cap is `cap`: what
/// sizes the persistent arrays (64 shards at most).
fn id_bound(cap: u64) -> u64 {
    64 * (cap + 1)
}

/// The most a hostile record grows its summary by: an 11-byte varint in
/// place of a 1-byte one.
const SLACK: usize = 16;

/// The segments recovery replays behind the checkpoint at `area`,
/// found the way recovery walks the chain (a hop with no pointer ends
/// the walk here).
fn replayed_chain(image: &[u8], area: usize) -> Vec<SegPos> {
    let field = |f: CkptField| ckpt(image, area, f);
    let head = SegPos {
        slot: field(CkptField::HeadSlot) as u32,
        base: field(CkptField::HeadBase) as u32,
        top: field(CkptField::HeadTop) as u32,
    };
    let link = field(CkptField::HeadLink) as u32;
    walk(image, head, link, field(CkptField::Seq) + 1)
}

/// `v` as an unsigned LEB128 varint.
fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// The byte ranges of the fields of `bytes`, one record's encoding:
/// behind the tag, each field ends at a byte with the high bit clear.
fn field_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 1;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        if b & 0x80 == 0 {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out
}

/// Which fields of a record with `tag` are identifiers, never 0
/// (`summary.rs`): the block, list, committed ARU, client (a write id
/// is 0 in a generation raise's record).
fn id_fields(tag: u8) -> &'static [usize] {
    match tag {
        4 | 8 => &[0, 1],
        _ => &[0],
    }
}

/// A varint-level hostile kind (see [`mutate`]): `rec`'s encoding with
/// one field made into what no writer produces, and whether the summary
/// ends right behind it (a cut).
fn hostile_record(kind: usize, rec: &Record, rng: &mut Rng) -> (Vec<u8>, bool, String) {
    let bytes = encode(rec);
    let fields = field_ranges(&bytes);
    let i = match kind {
        22 => 1, // a `Write`'s extent
        23 => {
            let ids = id_fields(bytes[0]);
            ids[rng.below(ids.len())]
        }
        _ => rng.below(fields.len()),
    };
    let (head, field, tail) = (
        &bytes[..fields[i].start],
        &bytes[fields[i].clone()],
        &bytes[fields[i].end..],
    );
    let (hostile, what) = match kind {
        20 => {
            // Every byte but the eleventh goes on.
            let mut long: Vec<u8> = field.iter().map(|b| b | 0x80).collect();
            long.resize(10, 0x80);
            long.push(0x01);
            (long, "an 11-byte varint")
        }
        21 => {
            let mut over = field.to_vec();
            *over.last_mut().unwrap() |= 0x80;
            over.push(0x00);
            (over, "an overlong varint")
        }
        22 => {
            // Above the record's own extent: a reader that dropped the
            // high bits would replay a valid write.
            let Record::Write { slot, .. } = *rec else {
                unreachable!()
            };
            let past = 1 << (32 + rng.below(32)) | u64::from(slot);
            (leb128(past), "an extent past 32 bits")
        }
        23 => (vec![0], "a zero identifier"),
        _ => {
            // The field's first byte says more follow, and the summary
            // ends there.
            let cut = [head, &[field[0] | 0x80]].concat();
            return (cut, true, format!("a cut inside field {i} of {rec:?}"));
        }
    };
    let out = [head, &hostile[..], tail].concat();
    (out, false, format!("{what} in field {i} of {rec:?}"))
}

fn base_image((block_size, device_bytes, mode): (usize, u64, ConcurrencyMode)) -> Base {
    let config = config(block_size, mode);
    let concurrent = mode == ConcurrencyMode::Concurrent;
    let block = |byte: u8| vec![byte; block_size];
    let ld = Lld::format(MemDisk::new(device_bytes), &config).unwrap();
    // One unit per flush: partial segments, several to a slot. Every
    // third concurrent commit is tagged (a `WriteId` record moving
    // client 7's row), its write ids 1, 2, 3 ….
    let unit = |list: ListId, n: u8| {
        let aru = ld.begin_aru().unwrap();
        let members = ld.list_blocks(Ctx::Aru(aru), list).unwrap();
        let pos = match members.get(usize::from(n) % 3) {
            Some(&pred) => Position::After(pred),
            None => Position::First,
        };
        let b = ld.new_block(Ctx::Aru(aru), list, pos).unwrap();
        ld.write(Ctx::Aru(aru), b, &block(n)).unwrap();
        if concurrent && n.is_multiple_of(3) {
            ld.end_aru_tagged(aru, 7, 1, u64::from(n / 3) + 1).unwrap();
        } else {
            ld.end_aru(aru).unwrap();
        }
        ld.flush().unwrap();
        b
    };
    let (keep, doomed) = (
        ld.new_list(Ctx::Simple).unwrap(),
        ld.new_list(Ctx::Simple).unwrap(),
    );
    let early: Vec<_> = (0..6).map(|n| unit(keep, n)).collect();
    let mut held = vec![unit(doomed, 6)];
    ld.delete_block(Ctx::Simple, early[1]).unwrap();
    ld.checkpoint().unwrap(); // area A
    held.push(unit(keep, 7));
    held.extend(
        early
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, &b)| b),
    );
    let held = (
        held.iter().map(|b| b.get()).max().unwrap(),
        keep.get().max(doomed.get()),
    );
    // Area B, the newer, asked for while an ARU that rewrites a block
    // is open: a concurrent one's write is in its shadow state, and the
    // checkpoint is written at once, without it; a sequential one's is
    // in the tables, and the checkpoint waits for the ARU to end.
    let open = ld.begin_aru().unwrap();
    ld.write(Ctx::Aru(open), early[0], &block(0xEE)).unwrap();
    let before = ld.stats().checkpoints;
    ld.checkpoint().unwrap();
    assert_eq!(ld.stats().checkpoints - before, u64::from(concurrent));
    ld.end_aru(open).unwrap();
    assert_eq!(ld.stats().checkpoints - before, 1);
    ld.flush().unwrap();
    let late: Vec<_> = (8..14).map(|n| unit(keep, n)).collect();
    // Overwrites with no flush in between. Of a few blocks: each takes
    // the place of the version in the open segment, a summary that names
    // a slot many times over. Then of more blocks than a slot has, so
    // that each appends: full segments.
    let ring = churn_ring(&ld, keep, None);
    for n in 0..40u8 {
        ld.write(Ctx::Simple, late[usize::from(n) % late.len()], &block(n))
            .unwrap();
    }
    for n in 0..40u8 {
        ld.write(Ctx::Simple, ring[usize::from(n) % ring.len()], &block(n))
            .unwrap();
    }
    // A block that grows by a sector in the open segment leaves the
    // sector its version took free, and the next extent of one sector
    // fills it: a summary whose `Write` records overlap. (On 512-byte
    // blocks a sector is the block: nothing grows, the write absorbs.)
    let sectors = |byte: u8, n: usize| {
        let mut b = block(0);
        b[..(n * SECTOR).min(block_size)].fill(byte);
        b
    };
    ld.flush().unwrap();
    let reused = ld.stats().sectors_reused;
    ld.write(Ctx::Simple, late[0], &sectors(0xA1, 1)).unwrap();
    ld.write(Ctx::Simple, late[0], &sectors(0xA2, 2)).unwrap();
    ld.write(Ctx::Simple, late[1], &sectors(0xA3, 1)).unwrap();
    assert_eq!(ld.stats().sectors_reused > reused, block_size > SECTOR);
    ld.delete_block(Ctx::Simple, early[3]).unwrap();
    ld.delete_block(Ctx::Simple, late[2]).unwrap();
    ld.delete_list(Ctx::Simple, doomed).unwrap();
    // An ARU that never ends leaves an orphan for `check()`.
    if !concurrent {
        unit(keep, 14);
    }
    let aru = ld.begin_aru().unwrap();
    ld.new_block(Ctx::Aru(aru), keep, Position::First).unwrap();
    if concurrent {
        unit(keep, 14);
    } else {
        ld.flush().unwrap();
    }
    let image = ld.into_device().into_image();

    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.clone())).unwrap();
    let headers: Vec<usize> = (0..layout.n_segments)
        .flat_map(|slot| (1..=layout.sectors_per_slot()).map(move |top| (slot, top)))
        .map(|(slot, top)| layout.segment_offset(slot) as usize + top as usize * SECTOR - H_LEN)
        .filter(|&off| header_valid(&image, off))
        .collect();
    let mid_block = headers
        .iter()
        .filter(|&&off| !(off + H_LEN).is_multiple_of(block_size))
        .count();
    assert_eq!(
        mid_block > 8,
        block_size > SECTOR,
        "{block_size}: {mid_block}"
    );
    let (recovered, report) = Lld::recover_with(MemDisk::from_image(image.clone()), &config)
        .expect("the base image recovers");
    assert!(report.checkpoint_seq > 0 && report.segments_replayed > 8);
    let row = recovered.write_id_floor(7);
    assert_eq!(row, concurrent.then_some((1, 5)));
    let mut buf = block(0);
    recovered.read(Ctx::Simple, early[0], &mut buf).unwrap();
    assert_eq!(buf, block(0xEE), "the ARU the checkpoint was asked in");
    for (b, want) in [(late[0], sectors(0xA2, 2)), (late[1], sectors(0xA3, 1))] {
        recovered.read(Ctx::Simple, b, &mut buf).unwrap();
        assert_eq!(buf, want, "a filled run");
    }
    drop(recovered);
    let newer = layout.ckpt_b as usize;
    assert_eq!(
        ckpt(&image, newer, CkptField::Seq),
        report.checkpoint_seq,
        "area B"
    );
    let chain = replayed_chain(&image, newer);
    assert_eq!(chain.len(), report.segments_replayed as usize);
    let replayed: Vec<_> = (chain.iter())
        .filter(|&&h| {
            let len = H_LEN + summary_range(&image, h).len();
            len.div_ceil(SECTOR) * SECTOR - len >= SLACK
        })
        .flat_map(|&h| {
            let records = summary_records(&image, h);
            records.into_iter().map(move |(range, rec)| (h, range, rec))
        })
        .collect();
    let writes = (replayed.iter()).filter(|r| matches!(r.2, Record::Write { .. }));
    assert!(writes.count() > 40);
    let allocations = (replayed.iter()).filter(|r| matches!(r.2, Record::NewBlock { .. }));
    assert!(allocations.count() > 4);
    let slot_of =
        |off: usize| ((off as u64 - layout.data_start) / layout.segment_bytes as u64) as u32;
    let used_slots = 1 + headers.iter().map(|&h| slot_of(h)).max().unwrap();
    assert!(report.orphan_blocks_freed > 0);
    assert!(headers.len() > report.segments_replayed as usize);
    for area in [layout.ckpt_a, layout.ckpt_b] {
        assert_eq!(!dedup_range(&image, area as usize).is_empty(), concurrent);
    }
    Base {
        config,
        image,
        layout,
        headers,
        newer,
        chain,
        replayed,
        used_slots,
        held,
        row,
    }
}

/// Flips 1–4 bits of `image[range]`.
fn flip(image: &mut [u8], range: std::ops::Range<usize>, rng: &mut Rng) {
    flip_up_to(4, image, range, rng);
}

/// Flips 1 to `most` bits of `image[range]`.
fn flip_up_to(most: usize, image: &mut [u8], range: std::ops::Range<usize>, rng: &mut Rng) {
    for _ in 0..1 + rng.below(most) {
        let bit = rng.below(range.len() * 8);
        image[range.start + bit / 8] ^= 1 << (bit % 8);
    }
}

/// A resealed field (see the module docs): one field of a declared
/// structure but a magic or a CRC, set to 0, 1, the most its width holds
/// or a random value, under its recomputed checksums. The structure is
/// the superblock, the segment header at `header`, or the header, a
/// directory entry or a column descriptor of the checkpoint at `area`.
fn resealed_field(image: &mut [u8], area: usize, header: usize, rng: &mut Rng) -> String {
    let (slabs, dedup) = (slab_ranges(image, area), dedup_range(image, area));
    let slab = rng.below(slabs.len());
    // Each structure's declaration and where it is; resealed below, in
    // this order. (The sequential image's dedup table takes no byte.)
    let structures: [(&[Field], usize); 6] = [
        (SUPERBLOCK, 0),
        (SEGMENT_HEADER, header),
        (CHECKPOINT_HEADER, ckpt_header(image, area)),
        (DIR_ENTRY, dir_entry(area, slab)),
        (
            COLUMN_DESC,
            column(slabs[slab].start, rng.below(SLAB_COLUMNS)),
        ),
        (
            COLUMN_DESC,
            column(dedup.start, rng.below(DEDUP_COLUMNS.len())),
        ),
    ];
    let which = rng.below(5 + usize::from(!dedup.is_empty()));
    let (fields, at) = structures[which];
    let fields: Vec<_> = (fields.iter())
        .filter(|f| !["magic", "crc"].contains(&f.name))
        .collect();
    let field = fields[rng.below(fields.len())];
    let value = [0, 1, field.max(), rng.next() & field.max()][rng.below(4)];
    field.put(&mut image[at..], value);
    match which {
        0 => reseal_superblock(image),
        1 => _ = reseal_header(image, header),
        2 => reseal_checkpoint(image, area),
        3 => reseal_dir(image, area),
        4 => reseal_slab(image, area, slab),
        _ => reseal_dedup(image, area),
    }
    format!("resealed field: {} = {value:#x} at {at}", field.name)
}

/// The image of case `seed`, what was done to it, and what its disk is
/// asked (see the module docs).
fn mutate(base: &Base, seed: u64) -> (Vec<u8>, String, Oracle) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut image = base.image.clone();
    let layout = &base.layout;
    let block_sectors = layout.sectors_per_block();
    let area = [layout.ckpt_a, layout.ckpt_b][rng.below(2)] as usize;
    let ckpt = ckpt_header(&image, area);
    let newer = ckpt_header(&image, base.newer);
    // The last base the newer checkpoint's head has room behind, below
    // its top: a block, the trailer's sector and a sector of metadata.
    let head_top = CkptField::HeadTop.get(&image[newer..]) as u32;
    let last_base = head_top - 2 - block_sectors;
    let header = base.headers[rng.below(base.headers.len())];
    let summary = header - seg(&image, header, SegField::SummaryLen) as usize..header;
    let segment = base.chain[rng.below(base.chain.len())];
    let kind = rng.below(39);
    let newer_dedup = dedup_range(&image, base.newer);
    let what = match kind {
        0 => {
            flip(&mut image, 0..ld_core::SUPERBLOCK_LEN, &mut rng);
            "raw: superblock".to_string()
        }
        1 => {
            flip(&mut image, ckpt..ckpt + CKPT_HEADER_LEN, &mut rng);
            format!("raw: checkpoint header at {ckpt}")
        }
        2 => {
            // The directory of eight slabs, or the start of the slabs.
            let slabs = dir_entry(area, 8);
            let range = [area..slabs, slabs..slabs + 1024];
            flip(&mut image, range[rng.below(2)].clone(), &mut rng);
            format!("raw: checkpoint body at {area}")
        }
        3 => {
            flip(&mut image, header..header + H_LEN, &mut rng);
            format!("raw: segment header at {header}")
        }
        4 => {
            let (data, trailer) = (segment.data(&image), segment.trailer(&image));
            let range = [summary, data..trailer + TRAILER_LEN][rng.below(2)].clone();
            flip(&mut image, range.clone(), &mut rng);
            format!("raw: segment meta or body at {range:?}")
        }
        5 | 6 | 8 | 9 | 12 => resealed_field(&mut image, area, header, &mut rng),
        7 => {
            flip(&mut image, summary.clone(), &mut rng);
            let crc = ld_disk::crc32(&image[summary]);
            SegField::SummaryCrc.put(&mut image[header..], crc.into());
            reseal_header(&mut image, header);
            format!("resealed: summary at {header}")
        }
        25 if !dedup_range(&image, area).is_empty() => {
            // Its rows: the first in full, the rest bit-packed.
            let range = dedup_range(&image, area);
            let rows = column(range.start, DEDUP_COLUMNS.len());
            flip(&mut image, rows..range.end, &mut rng);
            reseal_dedup(&mut image, area);
            format!("resealed: dedup rows at {area}")
        }
        36 if !newer_dedup.is_empty() => {
            // Two rows for one client: the table's one row counted
            // twice, its steps (descriptors of no row) all 0.
            CkptField::NDedup.put(&mut image[newer..], 2);
            reseal_checkpoint(&mut image, base.newer);
            "hostile: two dedup rows for one client".to_string()
        }
        37 if !newer_dedup.is_empty() => {
            // More rows than `MAX_CLIENTS`: the area is no checkpoint.
            let n = [MAX_CLIENTS as u64 + 1, u64::from(u32::MAX)][rng.below(2)];
            CkptField::NDedup.put(&mut image[ckpt..], n);
            reseal_checkpoint(&mut image, area);
            format!("resealed: {n} dedup rows at {ckpt}")
        }
        38 if !newer_dedup.is_empty() => {
            // Row 0's generation, stored in full behind the descriptors,
            // below the replayed `WriteId`s': they move the row on.
            let at = column(newer_dedup.start, DEDUP_COLUMNS.len()) + 8 * 2;
            image[at..at + 8].fill(0);
            reseal_dedup(&mut image, base.newer);
            "resealed: a dedup row at generation 0 behind replayed generation 1".to_string()
        }
        // (25 and 36–38: the sequential image's dedup table has no row,
        // and takes no byte.)
        11 | 25 | 36..=38 => {
            flip(&mut image, ckpt..ckpt + CkptField::Crc.at, &mut rng);
            reseal_checkpoint(&mut image, area);
            format!("resealed: checkpoint header at {ckpt}")
        }
        26 | 27 => {
            // A body length past the area, or any other than the one
            // the body adds up to.
            let body = CkptField::BodyLen.get(&image[ckpt..]);
            let size = layout.ckpt_area_size;
            let len = match kind {
                26 => [size + 1, size + SECTOR as u64, u64::MAX][rng.below(3)],
                _ => [0, 1, body - 1, body + 1, body + 1 + rng.below(64) as u64][rng.below(5)],
            };
            CkptField::BodyLen.put(&mut image[ckpt..], len);
            reseal_checkpoint(&mut image, area);
            format!("resealed: body length {len} of {body} at {ckpt}, area of {size}")
        }
        28 => {
            // Torn at a byte: behind it, zeros, or the other header's
            // bytes where a write of it had begun.
            let areas = [layout.ckpt_a, layout.ckpt_b];
            let other = ckpt_header(&image, areas[usize::from(area as u64 == areas[0])] as usize);
            let at = rng.below(CKPT_HEADER_LEN);
            let tail: Vec<u8> = match rng.below(2) {
                0 => vec![0; CKPT_HEADER_LEN - at],
                _ => image[other + at..other + CKPT_HEADER_LEN].to_vec(),
            };
            image[ckpt + at..ckpt + CKPT_HEADER_LEN].copy_from_slice(&tail);
            format!("raw: checkpoint header at {ckpt} torn at byte {at}")
        }
        13 => {
            // A replayed `Write` record's extent: past the data area,
            // in front of it, more sectors than a block has, or none of
            // those fields at all.
            let writes = base.replayed_writes();
            let (header, range, rec) = writes[rng.below(writes.len())];
            let Record::Write {
                block,
                slot,
                ts,
                aru,
            } = *rec
            else {
                unreachable!()
            };
            let (sector, sectors) = (slot >> 8, slot & 0xFF);
            let start = header.base;
            let end = start + seg(&image, header.header(&image), SegField::NSectors) as u32;
            let too_many = block_sectors + 1 + rng.below(255 - block_sectors as usize) as u32;
            // A data area at the slot's first sector has nothing in
            // front of it in the slot: past its end instead.
            let in_front = start.checked_sub(1).unwrap_or(end);
            let hostile = [
                end << 8 | 1,
                in_front << 8 | 1,
                sector << 8 | too_many,
                u32::MAX,
            ][rng.below(4)];
            let write = encode(&Record::Write {
                block,
                slot: hostile,
                ts,
                aru,
            });
            splice_summary(&mut image, *header, range.clone(), &write);
            format!("hostile: write extent {sector}+{sectors} as {hostile:#x} at {header:?}")
        }
        14 => {
            // The sector-count column of a slab recovery loads: every
            // row with an address past a block's sectors.
            let slabs = slab_ranges(&image, base.newer);
            let with_rows: Vec<usize> = (0..slabs.len())
                .filter(|&i| DirField::NBlocks.get(&image[dir_entry(base.newer, i)..]) > 0)
                .collect();
            let i = with_rows[rng.below(with_rows.len())];
            let count = column(slabs[i].start, BlockCol::Sectors as usize);
            // The count column is stored as it is: its minimum is a
            // count some row has (0 for an all-zero block).
            let min = ColField::Min.get(&image[count..]);
            assert!(min <= u64::from(block_sectors), "{min}");
            let past = u64::from(block_sectors) + 1 + rng.below(300) as u64;
            let min = [past, 1 << 32, u64::MAX - 1][rng.below(3)];
            ColField::Min.put(&mut image[count..], min);
            reseal_slab(&mut image, base.newer, i);
            format!("hostile: slab {i} sector counts from {min}")
        }
        15 => {
            // C8: a block size of zero, or none there is.
            let size = [0, 256, 768, 1 << 17, u32::MAX][rng.below(5)];
            SbField::BlockSize.put(&mut image, size.into());
            reseal_superblock(&mut image);
            format!("hostile: superblock block size {size}")
        }
        16 => {
            // C8: every slot in use, and one either side of it.
            let slots = base.used_slots + rng.below(3) as u32 - 1;
            SbField::NSegments.put(&mut image, slots.into());
            reseal_superblock(&mut image);
            format!(
                "resealed: superblock slot count {slots} of {} in use",
                base.used_slots
            )
        }
        17 => {
            // C8: a checkpoint head with no room for a segment behind it.
            let slot = layout.sectors_per_slot();
            let head = [last_base + 1, head_top - 1, slot, u32::MAX][rng.below(4)];
            CkptField::HeadBase.put(&mut image[newer..], head.into());
            reseal_checkpoint(&mut image, base.newer);
            format!("hostile: checkpoint head at sector {head} below {head_top}")
        }
        10 | 19 => {
            // The bit-packed rows of one slab, behind its descriptors:
            // a flip there moves every value decoded after it.
            let slabs = slab_ranges(&image, area);
            let desc = column(0, SLAB_COLUMNS);
            let with_rows: Vec<usize> = (0..slabs.len())
                .filter(|&i| slabs[i].len() > desc)
                .collect();
            let i = with_rows[rng.below(with_rows.len())];
            flip_up_to(8, &mut image, slabs[i].start + desc..slabs[i].end, &mut rng);
            reseal_slab(&mut image, area, i);
            format!("resealed: packed rows of slab {i} at {area}")
        }
        18 => {
            // Format 7's head: each sector from one before the last base
            // the head's top has room behind to one past the slot's end.
            let span = layout.sectors_per_slot() + 3 - last_base;
            let head = last_base - 1 + rng.below(span as usize) as u32;
            CkptField::HeadBase.put(&mut image[newer..], head.into());
            reseal_checkpoint(&mut image, base.newer);
            format!("resealed: checkpoint head at sector {head}, last base {last_base}")
        }
        29 => {
            // Format 11: a watermark that claims the segment itself, the
            // one before it, or anything, on a replayed segment.
            let at = segment.header(&image);
            let seq = seg(&image, at, SegField::Seq);
            let delta = [0, 1, rng.below(1 << 20) as u32, u32::MAX][rng.below(4)];
            SegField::Covered.put(&mut image[at..], delta.into());
            reseal(&mut image, segment);
            format!("hostile: segment {seq} covers back {delta} at {segment:?}")
        }
        30 => {
            // A replayed segment's trailer: zeros, or another CRC.
            let trailer = segment.trailer(&image);
            let forged = [0, rng.below(u32::MAX as usize) as u32][rng.below(2)];
            put_u32(&mut image, trailer, forged);
            format!("hostile: trailer {forged:#x} at {segment:?}")
        }
        31 => {
            // A meta record that reaches into its data area or trailer:
            // a summary or a data area as long as the room between them,
            // or longer.
            let at = segment.header(&image);
            let room = segment.top - segment.base;
            let (field, value) = match rng.below(2) {
                0 => {
                    let sectors = room - 1 + rng.below(3) as u32;
                    let len = sectors * SECTOR as u32 - H_LEN as u32 + 1;
                    (SegField::SummaryLen, len)
                }
                _ => (SegField::NSectors, room - 1 + rng.below(3) as u32),
            };
            field.put(&mut image[at..], value.into());
            reseal_header(&mut image, at);
            format!("hostile: {field:?} set to {value} in {room} sectors at {segment:?}")
        }
        32 => {
            // C8: a checkpoint head whose meta position is outside its
            // slot, or leaves no room above its base.
            let slot = layout.sectors_per_slot();
            let head_base = CkptField::HeadBase.get(&image[newer..]) as u32;
            let top = [
                slot + 1,
                slot + 1 + rng.below(1 << 16) as u32,
                u32::MAX,
                head_base + 1 + block_sectors,
                head_base,
            ][rng.below(5)];
            CkptField::HeadTop.put(&mut image[newer..], top.into());
            reseal_checkpoint(&mut image, base.newer);
            format!("hostile: checkpoint head top {top}, base {head_base}, of {slot}")
        }
        33 | 34 => {
            // A floor past the bound, or at or below the largest
            // identifier of its kind in the slabs.
            let (field, cap, held) = match rng.below(2) {
                0 => (CkptField::BlockFloor, layout.max_blocks, base.held.0),
                _ => (CkptField::ListFloor, layout.max_lists, base.held.1),
            };
            let floor = match kind {
                33 => {
                    let past = id_bound(cap) + 1;
                    [past, past + rng.below(1 << 20) as u64, u64::MAX][rng.below(3)]
                }
                _ => [1, held, 1 + rng.below(held as usize) as u64][rng.below(3)],
            };
            field.put(&mut image[newer..], floor);
            reseal_checkpoint(&mut image, base.newer);
            format!(
                "hostile: {field:?} {floor}, bound {}, held {held}",
                id_bound(cap)
            )
        }
        35 => {
            // A replayed allocation at or past its kind's bound, ahead
            // of one a writer logged.
            let allocations = base.replayed_allocations();
            let (header, range, rec) = allocations[rng.below(allocations.len())];
            let (ts, list) = (rec.ts(), rng.below(2) == 1);
            let cap = [layout.max_blocks, layout.max_lists][usize::from(list)];
            let raw = [0, 1, rng.below(1 << 20) as u64][rng.below(3)] + id_bound(cap);
            let hostile = match list {
                false => Record::NewBlock {
                    block: BlockId::new(raw),
                    ts,
                },
                true => Record::NewList {
                    list: ListId::new(raw),
                    ts,
                },
            };
            let both = [encode(&hostile), encode(rec)].concat();
            splice_summary(&mut image, *header, range.clone(), &both);
            format!("hostile: {hostile:?} ahead of {rec:?} at {header:?}")
        }
        _ => {
            // C8, format 9: one field of a replayed record in no
            // encoding a writer produces, or out of its range.
            let pick = match kind {
                22 => base.replayed_writes(),
                _ => base.replayed.iter().collect(),
            };
            let (header, range, rec) = pick[rng.below(pick.len())];
            let (bytes, cut, what) = hostile_record(kind, rec, &mut rng);
            let summary_end = summary_range(&image, *header).end;
            let range = match cut {
                true => range.start..summary_end,
                false => range.clone(),
            };
            splice_summary(&mut image, *header, range, &bytes);
            format!("hostile: {what} at {header:?}")
        }
    };
    let oracle = match kind {
        36 if !newer_dedup.is_empty() => Oracle::Corrupt,
        38 if !newer_dedup.is_empty() => Oracle::Row,
        5 | 6 | 8 | 9 | 10 | 12 | 19 | 25 => Oracle::Returns,
        13..=15 | 17 | 20..=24 | 32..=35 => Oracle::Corrupt,
        _ => Oracle::Whole,
    };
    (image, what, oracle)
}

/// `recover` on the image of case `seed`; what went wrong, if anything
/// did.
fn run_case(base: &Base, seed: u64) -> Result<(), String> {
    let (image, what, oracle) = mutate(base, seed);
    let what = format!("{}-byte blocks, {what}", base.config.block_size);
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let recovered = Lld::recover_with(MemDisk::from_image(image), &base.config);
        let ld = match (recovered, oracle) {
            (Err(LldError::Corrupt(_)), _) => return Ok(()),
            (got, Oracle::Corrupt) => {
                return Err(format!("not Corrupt: {:?}", got.map(|(_, r)| r)));
            }
            (Err(_), _) => return Ok(()), // a typed error
            (Ok((ld, _)), _) => ld,
        };
        if oracle == Oracle::Row && ld.write_id_floor(7) != base.row {
            return Err(format!("client 7's row is {:?}", ld.write_id_floor(7)));
        }
        let typed = |what: String, e| {
            if matches!(oracle, Oracle::Whole | Oracle::Row) {
                Err(format!("{what}: {e}"))
            } else {
                Ok(())
            }
        };
        if let Err(e) = ld.check() {
            typed("check()".into(), e)?;
        }
        for l in (1..=MAX_LISTS).map(ListId::new) {
            if ld.list_info(l).is_some() {
                if let Err(e) = ld.list_blocks(Ctx::Simple, l) {
                    typed(format!("{l} does not walk"), e)?;
                }
            }
        }
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(_) => Err(format!("{what}: panicked")),
    }
}

#[test]
fn no_flipped_image_makes_recover_panic() {
    let var = |name: &str| {
        std::env::var(name)
            .ok()
            .map(|v| v.parse::<u64>().unwrap_or_else(|_| panic!("{name}={v}")))
    };
    let seeds = match var("RECOVERY_FUZZ_SEED") {
        Some(seed) => seed..seed + 1,
        None => 0..var("RECOVERY_FUZZ_CASES").unwrap_or(200),
    };
    // The panics the cases catch are the finding, not noise: keep their
    // messages, the failing seed is printed with them.
    let bases = IMAGES.map(base_image);
    let failed: Vec<String> = seeds
        .filter_map(|seed| {
            run_case(&bases[seed as usize % bases.len()], seed)
                .err()
                .map(|e| format!("RECOVERY_FUZZ_SEED={seed} {e}"))
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
