//! Randomised tests of the on-disk codecs: summary records and the
//! superblock must round-trip bit-exactly for arbitrary valid values,
//! and reject corruption. Driven by a seeded PRNG so every run checks
//! the same (large) sample deterministically.

use ld_core::{AruId, BlockId, Layout, ListId, LldConfig, Record, Timestamp};
use ld_disk::SmallRng;

/// Public helpers mirroring the crate-internal optional-id encoding
/// (0 = None).
trait DecodeOptPublic: Sized {
    fn decode_opt_public(raw: u64) -> Option<Self>;
}
impl DecodeOptPublic for AruId {
    fn decode_opt_public(raw: u64) -> Option<Self> {
        (raw != 0).then(|| AruId::new(raw))
    }
}
impl DecodeOptPublic for BlockId {
    fn decode_opt_public(raw: u64) -> Option<Self> {
        (raw != 0).then(|| BlockId::new(raw))
    }
}

/// Where an unsigned LEB128 varint (format 9's summary fields) changes
/// width, and its widest.
const BOUNDARY: [u64; 5] = [1, 127, 128, u32::MAX as u64, u64::MAX];

/// The bytes LEB128 takes for each of [`BOUNDARY`].
const BOUNDARY_WIDTH: [usize; 5] = [1, 1, 2, 5, 10];

/// A value of any width: a boundary, or a random one cut to a random
/// number of bits.
fn value(rng: &mut SmallRng) -> u64 {
    if rng.gen_bool(0.3) {
        BOUNDARY[rng.gen_index(BOUNDARY.len())]
    } else {
        rng.next_u64() >> rng.gen_index(64)
    }
}

fn id_raw(rng: &mut SmallRng) -> u64 {
    value(rng).max(1)
}

fn opt_id_raw(rng: &mut SmallRng) -> u64 {
    if rng.gen_bool(0.3) {
        0
    } else {
        id_raw(rng)
    }
}

fn random_record(rng: &mut SmallRng) -> Record {
    match rng.gen_index(8) {
        0 => Record::Write {
            block: BlockId::new(id_raw(rng)),
            slot: value(rng) as u32,
            ts: Timestamp::new(value(rng)),
            aru: AruId::decode_opt_public(opt_id_raw(rng)),
        },
        1 => Record::NewBlock {
            block: BlockId::new(id_raw(rng)),
            ts: Timestamp::new(value(rng)),
        },
        2 => Record::NewList {
            list: ListId::new(id_raw(rng)),
            ts: Timestamp::new(value(rng)),
        },
        3 => Record::Link {
            list: ListId::new(id_raw(rng)),
            block: BlockId::new(id_raw(rng)),
            pred: BlockId::decode_opt_public(opt_id_raw(rng)),
            ts: Timestamp::new(value(rng)),
            aru: AruId::decode_opt_public(opt_id_raw(rng)),
        },
        4 => Record::DeleteBlock {
            block: BlockId::new(id_raw(rng)),
            ts: Timestamp::new(value(rng)),
            aru: AruId::decode_opt_public(opt_id_raw(rng)),
        },
        5 => Record::DeleteList {
            list: ListId::new(id_raw(rng)),
            ts: Timestamp::new(value(rng)),
            aru: AruId::decode_opt_public(opt_id_raw(rng)),
        },
        6 => Record::Commit {
            aru: AruId::new(id_raw(rng)),
            ts: Timestamp::new(value(rng)),
        },
        _ => Record::WriteId {
            aru: AruId::new(id_raw(rng)),
            client: id_raw(rng),
            generation: value(rng),
            write_id: id_raw(rng),
            ts: Timestamp::new(value(rng)),
        },
    }
}

/// `ts`, `client` and `write_id` at every combination of the varint
/// boundaries round-trip, each field taking the bytes LEB128 gives it.
#[test]
fn boundary_values_round_trip() {
    let widths = BOUNDARY.iter().zip(BOUNDARY_WIDTH);
    for (&ts, ts_width) in widths.clone() {
        for (&client, client_width) in widths.clone() {
            for (&write_id, id_width) in widths.clone() {
                let note = Record::WriteId {
                    aru: AruId::new(1),
                    client,
                    generation: 0,
                    write_id,
                    ts: Timestamp::new(ts),
                };
                // A tag, the ARU, the three fields, the generation.
                assert_eq!(
                    note.encoded_len(),
                    1 + 1 + ts_width + client_width + id_width + 1
                );
                let commit = Record::Commit {
                    aru: AruId::new(client),
                    ts: Timestamp::new(ts),
                };
                let write = Record::Write {
                    block: BlockId::new(write_id),
                    slot: u32::try_from(client).unwrap_or(u32::MAX),
                    ts: Timestamp::new(ts),
                    aru: None,
                };
                let records = vec![note, commit, write];
                let mut buf = Vec::new();
                for r in &records {
                    let before = buf.len();
                    r.encode(&mut buf);
                    assert_eq!(buf.len() - before, r.encoded_len());
                }
                assert_eq!(Record::decode_all(&buf).unwrap(), records);
            }
        }
    }
}

#[test]
fn record_streams_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_C001);
    for _ in 0..256 {
        let records: Vec<Record> = (0..rng.gen_index(64))
            .map(|_| random_record(&mut rng))
            .collect();
        let mut buf = Vec::new();
        for r in &records {
            let before = buf.len();
            r.encode(&mut buf);
            assert_eq!(buf.len() - before, r.encoded_len());
        }
        let decoded = Record::decode_all(&buf).unwrap();
        assert_eq!(decoded, records);
    }
}

#[test]
fn truncated_record_streams_are_rejected() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_C002);
    for _ in 0..256 {
        let records: Vec<Record> = (0..1 + rng.gen_index(15))
            .map(|_| random_record(&mut rng))
            .collect();
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let cut = (1 + rng.gen_index(15)).min(buf.len() - 1).max(1);
        // Cutting inside a record must produce an error, never a wrong
        // silent decode of the full stream.
        if let Ok(decoded) = Record::decode_all(&buf[..buf.len() - cut]) {
            assert!(decoded.len() < records.len());
        }
    }
}

#[test]
fn superblock_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_C003);
    for _ in 0..256 {
        let capacity = rng.gen_range(1 << 21, 1 << 28);
        let seg_blocks = rng.gen_range(4, 64) as usize;
        let max_blocks = rng.gen_range(16, 10_000);
        let cfg = LldConfig {
            block_size: 4096,
            segment_bytes: 4096 * seg_blocks,
            max_blocks: Some(max_blocks),
            ..LldConfig::default()
        };
        if let Ok(layout) = Layout::compute(capacity, &cfg) {
            let buf = layout.encode_superblock(
                ld_core::ConcurrencyMode::Concurrent,
                ld_core::ReadVisibility::OwnShadow,
            );
            let (decoded, conc, vis) = Layout::decode_superblock(&buf).unwrap();
            assert_eq!(decoded, layout);
            assert_eq!(conc, ld_core::ConcurrencyMode::Concurrent);
            assert_eq!(vis, ld_core::ReadVisibility::OwnShadow);
        }
    }
}

#[test]
fn superblock_bit_flips_detected() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE_C004);
    for _ in 0..256 {
        let capacity = rng.gen_range(1 << 21, 1 << 26);
        let byte = rng.gen_index(60);
        let bit = rng.gen_index(8) as u8;
        let cfg = LldConfig {
            block_size: 4096,
            segment_bytes: 4096 * 16,
            max_blocks: Some(100),
            ..LldConfig::default()
        };
        if let Ok(layout) = Layout::compute(capacity, &cfg) {
            let mut buf = layout.encode_superblock(
                ld_core::ConcurrencyMode::Concurrent,
                ld_core::ReadVisibility::OwnShadow,
            );
            buf[byte] ^= 1 << bit;
            assert!(Layout::decode_superblock(&buf).is_err());
        }
    }
}
