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
    /// dedup cache rebuilt at recovery records exactly the write-ids
    /// whose effects survived the crash (exactly-once for networked
    /// retries, see `docs/PROTOCOL.md`).
    WriteId {
        /// The ARU whose commit this write-id identifies.
        aru: AruId,
        /// The network client that issued the commit.
        client: u64,
        /// The client incarnation (generation) that issued it.
        generation: u64,
        /// The client-chosen idempotency key.
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

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8> {
        let v = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| LldError::Corrupt("truncated summary record".into()))?;
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| LldError::Corrupt("truncated summary record".into()))?;
        self.pos += 4;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| LldError::Corrupt("truncated summary record".into()))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn id<T>(&mut self, wrap: fn(u64) -> T) -> Result<T> {
        let raw = self.u64()?;
        if raw == 0 {
            return Err(LldError::Corrupt("zero identifier in record".into()));
        }
        Ok(wrap(raw))
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
                put_u64(buf, block.get());
                put_u32(buf, slot);
                put_u64(buf, ts.get());
                put_u64(buf, AruId::encode_opt(aru));
            }
            Record::NewBlock { block, ts } => {
                buf.push(TAG_NEW_BLOCK);
                put_u64(buf, block.get());
                put_u64(buf, ts.get());
            }
            Record::NewList { list, ts } => {
                buf.push(TAG_NEW_LIST);
                put_u64(buf, list.get());
                put_u64(buf, ts.get());
            }
            Record::Link {
                list,
                block,
                pred,
                ts,
                aru,
            } => {
                buf.push(TAG_LINK);
                put_u64(buf, list.get());
                put_u64(buf, block.get());
                put_u64(buf, BlockId::encode_opt(pred));
                put_u64(buf, ts.get());
                put_u64(buf, AruId::encode_opt(aru));
            }
            Record::DeleteBlock { block, ts, aru } => {
                buf.push(TAG_DELETE_BLOCK);
                put_u64(buf, block.get());
                put_u64(buf, ts.get());
                put_u64(buf, AruId::encode_opt(aru));
            }
            Record::DeleteList { list, ts, aru } => {
                buf.push(TAG_DELETE_LIST);
                put_u64(buf, list.get());
                put_u64(buf, ts.get());
                put_u64(buf, AruId::encode_opt(aru));
            }
            Record::Commit { aru, ts } => {
                buf.push(TAG_COMMIT);
                put_u64(buf, aru.get());
                put_u64(buf, ts.get());
            }
            Record::WriteId {
                aru,
                client,
                generation,
                write_id,
                ts,
            } => {
                buf.push(TAG_WRITE_ID);
                put_u64(buf, aru.get());
                put_u64(buf, client);
                put_u64(buf, generation);
                put_u64(buf, write_id);
                put_u64(buf, ts.get());
            }
        }
    }

    /// The encoded size of this record in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Record::Write { .. } => 1 + 8 + 4 + 8 + 8,
            Record::NewBlock { .. } | Record::NewList { .. } | Record::Commit { .. } => 1 + 8 + 8,
            Record::Link { .. } | Record::WriteId { .. } => 1 + 8 + 8 + 8 + 8 + 8,
            Record::DeleteBlock { .. } | Record::DeleteList { .. } => 1 + 8 + 8 + 8,
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
    /// Returns [`LldError::Corrupt`] on an unknown tag or a truncated
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
                TAG_WRITE_ID => {
                    let aru = r.id(AruId::new)?;
                    let client = r.u64()?;
                    let generation = r.u64()?;
                    let write_id = r.u64()?;
                    if client == 0 || write_id == 0 {
                        return Err(LldError::Corrupt("zero identifier in record".into()));
                    }
                    Record::WriteId {
                        aru,
                        client,
                        generation,
                        write_id,
                        ts: Timestamp::new(r.u64()?),
                    }
                }
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
        let mut buf = vec![TAG_NEW_BLOCK];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        assert!(Record::decode_all(&buf).is_err());
    }

    #[test]
    fn empty_summary_is_empty() {
        assert_eq!(Record::decode_all(&[]).unwrap(), Vec::new());
    }
}
