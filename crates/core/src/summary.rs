//! Segment-summary records: the operation log for LLD's own meta-data.
//!
//! The mapping between logical and physical block identifiers and all
//! list information is contained in the on-disk segment summaries and can
//! be reconstructed during crash recovery by scanning them (§2, §4 of the
//! paper).
//!
//! Records originating inside an ARU carry that ARU's identifier; during
//! recovery they take effect only if (and at the point where) the ARU's
//! [`Record::Commit`] record is found in the log. This is what makes a
//! torn tail — summary entries persisted without their commit record —
//! recover to "none of the operations happened".
//!
//! Format 9 encodes a record as its tag byte followed by its fields,
//! each an unsigned LEB128 varint, in the order the variant declares
//! them (an absent `aru` or `pred` is 0). A record decodes on its own:
//! nothing carries over from the record before it. A field has exactly
//! one encoding — at most ten bytes, nothing past bit 63, no overlong
//! form — and an extent must fit 32 bits; anything else, a zero
//! identifier or a record cut inside a field is [`LldError::Corrupt`].

use crate::error::{LldError, Result};
use crate::types::{AruId, BlockId, ListId, Timestamp};

/// One segment-summary record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A data block was written to the extent `slot` of the segment
    /// slot containing this record. Tagged with an ARU when the write
    /// belongs to one.
    Write {
        /// The logical block.
        block: BlockId,
        /// Where the block's extent sits in the segment slot (see
        /// [`PhysAddr`](crate::PhysAddr)): its first sector in the high
        /// 24 bits, its sector count in the low 8. Recovery checks both
        /// against the segment's data area and the block size.
        slot: u32,
        /// Logical time of the write.
        ts: Timestamp,
        /// The ARU the write belongs to, if any.
        aru: Option<AruId>,
    },
    /// A block identifier was allocated. Never tagged: allocation always
    /// happens in the committed state, even inside an ARU (§3.3), so
    /// concurrent ARUs can never allocate the same identifier.
    NewBlock {
        /// The allocated block.
        block: BlockId,
        /// Logical time of the allocation.
        ts: Timestamp,
    },
    /// A list identifier was allocated. Never tagged, like `NewBlock`.
    NewList {
        /// The allocated list.
        list: ListId,
        /// Logical time of the allocation.
        ts: Timestamp,
    },
    /// A block was inserted into a list after `pred` (`None` = at the
    /// front). These are the paper's "link records".
    Link {
        /// The list inserted into.
        list: ListId,
        /// The inserted block.
        block: BlockId,
        /// The predecessor, or `None` for the front.
        pred: Option<BlockId>,
        /// Logical time of the insertion.
        ts: Timestamp,
        /// The ARU the insertion belongs to, if any.
        aru: Option<AruId>,
    },
    /// A block was removed from its list and deallocated.
    DeleteBlock {
        /// The deleted block.
        block: BlockId,
        /// Logical time of the deletion.
        ts: Timestamp,
        /// The ARU the deletion belongs to, if any.
        aru: Option<AruId>,
    },
    /// A list was deallocated together with any blocks still on it.
    DeleteList {
        /// The deleted list.
        list: ListId,
        /// Logical time of the deletion.
        ts: Timestamp,
        /// The ARU the deletion belongs to, if any.
        aru: Option<AruId>,
    },
    /// The commit record of an ARU: every record tagged with `aru` that
    /// precedes this record in the log takes effect at this point.
    Commit {
        /// The committed ARU.
        aru: AruId,
        /// Logical time of the commit (`EndARU` serialization point).
        ts: Timestamp,
    },
    /// A client write-id note journaled inside the ARU it guards. Always
    /// tagged: the note takes effect only when the ARU commits, so the
    /// client rows rebuilt at recovery hold exactly the write-ids whose
    /// effects survived the crash (exactly-once for networked retries,
    /// see `docs/PROTOCOL.md`).
    WriteId {
        /// The ARU whose commit this write-id identifies.
        aru: AruId,
        /// The network client that issued the commit.
        client: u64,
        /// The client incarnation (generation) that issued it.
        generation: u64,
        /// The idempotency key, the client's next in its generation; 0
        /// in the ARU of a `Hello` that raises the generation.
        write_id: u64,
        /// Logical time of the note (just before the commit record).
        ts: Timestamp,
    },
}

const TAG_WRITE: u8 = 1;
const TAG_NEW_BLOCK: u8 = 2;
const TAG_NEW_LIST: u8 = 3;
const TAG_LINK: u8 = 4;
const TAG_DELETE_BLOCK: u8 = 5;
const TAG_DELETE_LIST: u8 = 6;
const TAG_COMMIT: u8 = 7;
const TAG_WRITE_ID: u8 = 8;

/// The widest a varint gets: ⌈64 / 7⌉ bytes for a `u64`, ⌈32 / 7⌉ for
/// a `u32`.
const VARINT_MAX: usize = 10;
const VARINT32_MAX: usize = 5;

/// The widest encoding of a [`Record::Write`]: the tag, the block, the
/// extent, the timestamp and the ARU tag at their widest. What a data
/// block's record reserves before its extent's address is known.
pub(crate) const WRITE_REC_LEN: usize = 1 + VARINT_MAX + VARINT32_MAX + VARINT_MAX + VARINT_MAX;

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// The bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn corrupt(what: &str) -> LldError {
    LldError::Corrupt(format!("summary record: {what}"))
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8> {
        let v = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| corrupt("cut inside a field"))?;
        self.pos += 1;
        Ok(v)
    }

    /// One varint, in its one canonical encoding: at most
    /// [`VARINT_MAX`] bytes, no bit past the 64th, and no trailing zero
    /// byte that a shorter encoding would have left off.
    fn u64(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = u64::from(b & 0x7F);
            if shift == 63 && low > 1 {
                return Err(corrupt("varint wider than 64 bits"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    fn u32(&mut self) -> Result<u32> {
        u32::try_from(self.u64()?).map_err(|_| corrupt("extent wider than 32 bits"))
    }

    fn id<T>(&mut self, wrap: fn(u64) -> T) -> Result<T> {
        match self.u64()? {
            0 => Err(corrupt("zero identifier")),
            raw => Ok(wrap(raw)),
        }
    }
}

impl Record {
    /// Appends the binary encoding of this record to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Record::Write {
                block,
                slot,
                ts,
                aru,
            } => {
                buf.push(TAG_WRITE);
                put_varint(buf, block.get());
                put_varint(buf, u64::from(slot));
                put_varint(buf, ts.get());
                put_varint(buf, AruId::encode_opt(aru));
            }
            Record::NewBlock { block, ts } => {
                buf.push(TAG_NEW_BLOCK);
                put_varint(buf, block.get());
                put_varint(buf, ts.get());
            }
            Record::NewList { list, ts } => {
                buf.push(TAG_NEW_LIST);
                put_varint(buf, list.get());
                put_varint(buf, ts.get());
            }
            Record::Link {
                list,
                block,
                pred,
                ts,
                aru,
            } => {
                buf.push(TAG_LINK);
                put_varint(buf, list.get());
                put_varint(buf, block.get());
                put_varint(buf, BlockId::encode_opt(pred));
                put_varint(buf, ts.get());
                put_varint(buf, AruId::encode_opt(aru));
            }
            Record::DeleteBlock { block, ts, aru } => {
                buf.push(TAG_DELETE_BLOCK);
                put_varint(buf, block.get());
                put_varint(buf, ts.get());
                put_varint(buf, AruId::encode_opt(aru));
            }
            Record::DeleteList { list, ts, aru } => {
                buf.push(TAG_DELETE_LIST);
                put_varint(buf, list.get());
                put_varint(buf, ts.get());
                put_varint(buf, AruId::encode_opt(aru));
            }
            Record::Commit { aru, ts } => {
                buf.push(TAG_COMMIT);
                put_varint(buf, aru.get());
                put_varint(buf, ts.get());
            }
            Record::WriteId {
                aru,
                client,
                generation,
                write_id,
                ts,
            } => {
                buf.push(TAG_WRITE_ID);
                put_varint(buf, aru.get());
                put_varint(buf, client);
                put_varint(buf, generation);
                put_varint(buf, write_id);
                put_varint(buf, ts.get());
            }
        }
    }

    /// The encoded size of this record in bytes: what
    /// [`encode`](Self::encode) appends.
    pub fn encoded_len(&self) -> usize {
        let v = varint_len;
        1 + match *self {
            Record::Write {
                block,
                slot,
                ts,
                aru,
            } => v(block.get()) + v(u64::from(slot)) + v(ts.get()) + v(AruId::encode_opt(aru)),
            Record::NewBlock { block, ts } => v(block.get()) + v(ts.get()),
            Record::NewList { list, ts } => v(list.get()) + v(ts.get()),
            Record::Link {
                list,
                block,
                pred,
                ts,
                aru,
            } => {
                v(list.get())
                    + v(block.get())
                    + v(BlockId::encode_opt(pred))
                    + v(ts.get())
                    + v(AruId::encode_opt(aru))
            }
            Record::DeleteBlock { block, ts, aru } => {
                v(block.get()) + v(ts.get()) + v(AruId::encode_opt(aru))
            }
            Record::DeleteList { list, ts, aru } => {
                v(list.get()) + v(ts.get()) + v(AruId::encode_opt(aru))
            }
            Record::Commit { aru, ts } => v(aru.get()) + v(ts.get()),
            Record::WriteId {
                aru,
                client,
                generation,
                write_id,
                ts,
            } => v(aru.get()) + v(client) + v(generation) + v(write_id) + v(ts.get()),
        }
    }

    /// What this record weighs in the suffix bound
    /// (`LldInner::suffix_past`): its fixed-width size in format 8,
    /// whatever it encodes to now. The bound counts records replayed,
    /// weighted by kind, so a shorter encoding keeps its cadence.
    pub(crate) fn suffix_weight(&self) -> u64 {
        match self {
            Record::NewBlock { .. } | Record::NewList { .. } | Record::Commit { .. } => 17,
            Record::DeleteBlock { .. } | Record::DeleteList { .. } => 25,
            Record::Write { .. } => 29,
            Record::Link { .. } | Record::WriteId { .. } => 41,
        }
    }

    /// The ARU tag carried by this record, if any.
    pub fn aru_tag(&self) -> Option<AruId> {
        match *self {
            Record::Write { aru, .. }
            | Record::Link { aru, .. }
            | Record::DeleteBlock { aru, .. }
            | Record::DeleteList { aru, .. } => aru,
            Record::WriteId { aru, .. } => Some(aru),
            Record::NewBlock { .. } | Record::NewList { .. } | Record::Commit { .. } => None,
        }
    }

    /// The logical timestamp of this record.
    pub fn ts(&self) -> Timestamp {
        match *self {
            Record::Write { ts, .. }
            | Record::NewBlock { ts, .. }
            | Record::NewList { ts, .. }
            | Record::Link { ts, .. }
            | Record::DeleteBlock { ts, .. }
            | Record::DeleteList { ts, .. }
            | Record::Commit { ts, .. }
            | Record::WriteId { ts, .. } => ts,
        }
    }

    /// Decodes every record in a summary buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Corrupt`] on an unknown tag, a field that is
    /// not in its canonical encoding or out of range, or a truncated
    /// record. Callers validate the summary checksum first, so decode
    /// errors indicate real corruption rather than a torn write.
    pub fn decode_all(buf: &[u8]) -> Result<Vec<Record>> {
        let mut r = Reader { buf, pos: 0 };
        let mut out = Vec::new();
        while r.pos < buf.len() {
            let tag = r.u8()?;
            let rec = match tag {
                TAG_WRITE => Record::Write {
                    block: r.id(BlockId::new)?,
                    slot: r.u32()?,
                    ts: Timestamp::new(r.u64()?),
                    aru: AruId::decode_opt(r.u64()?),
                },
                TAG_NEW_BLOCK => Record::NewBlock {
                    block: r.id(BlockId::new)?,
                    ts: Timestamp::new(r.u64()?),
                },
                TAG_NEW_LIST => Record::NewList {
                    list: r.id(ListId::new)?,
                    ts: Timestamp::new(r.u64()?),
                },
                TAG_LINK => Record::Link {
                    list: r.id(ListId::new)?,
                    block: r.id(BlockId::new)?,
                    pred: BlockId::decode_opt(r.u64()?),
                    ts: Timestamp::new(r.u64()?),
                    aru: AruId::decode_opt(r.u64()?),
                },
                TAG_DELETE_BLOCK => Record::DeleteBlock {
                    block: r.id(BlockId::new)?,
                    ts: Timestamp::new(r.u64()?),
                    aru: AruId::decode_opt(r.u64()?),
                },
                TAG_DELETE_LIST => Record::DeleteList {
                    list: r.id(ListId::new)?,
                    ts: Timestamp::new(r.u64()?),
                    aru: AruId::decode_opt(r.u64()?),
                },
                TAG_COMMIT => Record::Commit {
                    aru: r.id(AruId::new)?,
                    ts: Timestamp::new(r.u64()?),
                },
                TAG_WRITE_ID => Record::WriteId {
                    aru: r.id(AruId::new)?,
                    client: r.id(|v| v)?,
                    generation: r.u64()?,
                    write_id: r.u64()?,
                    ts: Timestamp::new(r.u64()?),
                },
                other => {
                    return Err(LldError::Corrupt(format!(
                        "unknown summary record tag {other}"
                    )))
                }
            };
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::NewList {
                list: ListId::new(1),
                ts: Timestamp::new(1),
            },
            Record::NewBlock {
                block: BlockId::new(1),
                ts: Timestamp::new(2),
            },
            Record::Link {
                list: ListId::new(1),
                block: BlockId::new(1),
                pred: None,
                ts: Timestamp::new(3),
                aru: Some(AruId::new(1)),
            },
            Record::Write {
                block: BlockId::new(1),
                slot: 7,
                ts: Timestamp::new(4),
                aru: Some(AruId::new(1)),
            },
            Record::Commit {
                aru: AruId::new(1),
                ts: Timestamp::new(5),
            },
            Record::Link {
                list: ListId::new(1),
                block: BlockId::new(2),
                pred: Some(BlockId::new(1)),
                ts: Timestamp::new(6),
                aru: None,
            },
            Record::DeleteBlock {
                block: BlockId::new(2),
                ts: Timestamp::new(7),
                aru: None,
            },
            Record::DeleteList {
                list: ListId::new(1),
                ts: Timestamp::new(8),
                aru: Some(AruId::new(2)),
            },
            Record::WriteId {
                aru: AruId::new(2),
                client: 11,
                generation: 3,
                write_id: 42,
                ts: Timestamp::new(9),
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        let records = samples();
        let mut buf = Vec::new();
        for r in &records {
            let before = buf.len();
            r.encode(&mut buf);
            assert_eq!(buf.len() - before, r.encoded_len());
        }
        let decoded = Record::decode_all(&buf).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn aru_tags_and_timestamps() {
        let records = samples();
        assert_eq!(records[0].aru_tag(), None);
        assert_eq!(records[2].aru_tag(), Some(AruId::new(1)));
        assert_eq!(records[4].aru_tag(), None); // commit records are untagged
        assert_eq!(records[7].ts(), Timestamp::new(8));
        assert_eq!(records[8].aru_tag(), Some(AruId::new(2)));
        assert_eq!(records[8].ts(), Timestamp::new(9));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        samples()[3].encode(&mut buf);
        buf.pop();
        assert!(matches!(
            Record::decode_all(&buf),
            Err(LldError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tag_detected() {
        assert!(matches!(
            Record::decode_all(&[0xEE]),
            Err(LldError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_id_rejected_in_decode() {
        for buf in [
            vec![TAG_NEW_BLOCK, 0, 5],
            vec![TAG_COMMIT, 0, 5],
            vec![TAG_WRITE_ID, 1, 0, 1, 1, 5],
        ] {
            assert!(matches!(
                Record::decode_all(&buf),
                Err(LldError::Corrupt(m)) if m.contains("zero identifier")
            ));
        }
        // Write id 0 is a generation raise's.
        let raise = Record::decode_all(&[TAG_WRITE_ID, 1, 1, 2, 0, 5]).unwrap();
        assert!(matches!(raise[..], [Record::WriteId { write_id: 0, .. }]));
    }

    #[test]
    fn fields_take_only_the_bytes_they_need() {
        let write = |block: u64, slot: u32, ts: u64, aru: u64| Record::Write {
            block: BlockId::new(block),
            slot,
            ts: Timestamp::new(ts),
            aru: AruId::decode_opt(aru),
        };
        assert_eq!(write(1, 1, 1, 0).encoded_len(), 5);
        assert_eq!(write(127, 127, 127, 127).encoded_len(), 5);
        assert_eq!(write(128, 128, 128, 128).encoded_len(), 9);
        let widest = write(u64::MAX, u32::MAX, u64::MAX, u64::MAX);
        assert_eq!(widest.encoded_len(), WRITE_REC_LEN);
        let mut buf = Vec::new();
        widest.encode(&mut buf);
        assert_eq!(buf.len(), WRITE_REC_LEN);
        assert_eq!(Record::decode_all(&buf).unwrap(), vec![widest]);
    }

    /// `NewBlock` with a `ts` field of `ts_bytes`, block 1.
    fn new_block(ts_bytes: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_NEW_BLOCK, 1];
        buf.extend_from_slice(ts_bytes);
        buf
    }

    fn corrupt_with(buf: &[u8], what: &str) {
        match Record::decode_all(buf) {
            Err(LldError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("{buf:?}: {other:?}, wanted {what}"),
        }
    }

    #[test]
    fn a_field_has_one_encoding() {
        let mut max = vec![0xFF; 9];
        max.push(0x01);
        assert_eq!(
            Record::decode_all(&new_block(&max)).unwrap()[0].ts(),
            Timestamp::new(u64::MAX)
        );
        // Ten bytes that do not end, and an eleventh.
        let mut long = vec![0x80; 10];
        long.push(0x01);
        corrupt_with(&new_block(&long), "longer than 10 bytes");
        // Bit 64 and up.
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        corrupt_with(&new_block(&wide), "wider than 64 bits");
        // 5 as two bytes, and 0 as two.
        corrupt_with(&new_block(&[0x85, 0x00]), "overlong");
        corrupt_with(&new_block(&[0x80, 0x00]), "overlong");
        // Cut before the last byte of a varint.
        corrupt_with(&new_block(&[0x85]), "cut inside a field");
    }

    #[test]
    fn an_extent_fits_32_bits() {
        let mut buf = Vec::new();
        samples()[3].encode(&mut buf);
        // Tag, block 1, then the extent: 2^32 in place of 7.
        let wide = [&buf[..2], &[0x80, 0x80, 0x80, 0x80, 0x10][..], &buf[3..]].concat();
        corrupt_with(&wide, "extent wider than 32 bits");
        let max = [&buf[..2], &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F][..], &buf[3..]].concat();
        assert!(matches!(
            Record::decode_all(&max).unwrap()[..],
            [Record::Write { slot: u32::MAX, .. }]
        ));
    }

    #[test]
    fn empty_summary_is_empty() {
        assert_eq!(Record::decode_all(&[]).unwrap(), Vec::new());
    }
}
