//! Exactly-once networked commits: one row per client.
//!
//! A network client retrying a timed-out commit must not apply it
//! twice. Its write ids run in sequence per `(client, generation)`:
//! 1, 2, 3 …. The core keeps one row per client — its generation, its
//! *floor* (the highest write id applied under that generation) and the
//! floor's commit timestamp — and settles every tagged commit and every
//! lookup of write id `w` against it (docs/PROTOCOL.md): `w == floor +
//! 1` runs (a lookup: not applied), `w == floor` answers the recorded
//! outcome, `w < floor` answers [`LldError::WriteIdSuperseded`] (applied,
//! its outcome superseded) and `w > floor + 1`
//! [`LldError::WriteIdOutOfSequence`] (not applied, and refused until
//! every id before it is). A generation below the row's is refused; one
//! above it starts at floor 0.
//!
//! A tagged commit journals its key as a
//! [`Record::WriteId`](crate::summary::Record) *inside the ARU it
//! guards*, so the row moves exactly when the unit's effects persist,
//! and a `Hello` that raises a row's generation commits an ARU that
//! holds only `WriteId { write_id: 0 }`. Recovery rebuilds the rows
//! from the checkpoint's third table (`checkpoint.rs`, one row a client
//! in client order) and the replayed records, each of which moves its
//! row only forward. Nothing is evicted: past [`MAX_CLIENTS`] rows a new
//! client is refused ([`LldError::TooManyClients`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::checkpoint::{dedup_table, DedupTable, DEDUP_COLS};
use crate::error::{LldError, Result};
use crate::types::Timestamp;

/// The most clients the table holds: what the checkpoint area reserves
/// room for, 32 bytes a row at the widest.
pub const MAX_CLIENTS: usize = 1024;

/// The recorded outcome of a successfully committed tagged ARU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteIdOutcome {
    /// The generation the commit was recorded under.
    pub generation: u64,
    /// Logical commit timestamp of the ARU.
    pub commit_ts: Timestamp,
}

/// Result of a tagged commit
/// ([`end_aru_tagged`](crate::LldInner::end_aru_tagged)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedCommit {
    /// The recorded outcome.
    pub outcome: WriteIdOutcome,
    /// Whether the outcome was the floor's (the call was a retry)
    /// rather than that of executing the presented ARU.
    pub deduped: bool,
}

/// One client's row.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    generation: u64,
    floor: u64,
    ts: Timestamp,
    /// The `(generation, write id)` a session is committing right now:
    /// a concurrent retry waits for its outcome. Never persisted.
    running: Option<(u64, u64)>,
}

/// One row per client (see module docs).
#[derive(Debug, Default)]
pub(crate) struct ClientRows {
    rows: BTreeMap<u64, Row>,
}

impl ClientRows {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// `client`'s generation and floor, if it has a row.
    pub(crate) fn floor(&self, client: u64) -> Option<(u64, u64)> {
        (self.rows.get(&client)).map(|r| (r.generation, r.floor))
    }

    /// Settles `write_id` of `(client, generation)` against the row:
    /// `None` for the next id, the outcome for the floor, else the
    /// typed answer; [`LldError::Config`] for a zero id or a generation
    /// below the row's.
    pub(crate) fn settle(
        &self,
        client: u64,
        generation: u64,
        write_id: u64,
    ) -> Result<Option<WriteIdOutcome>> {
        if client == 0 || write_id == 0 {
            return Err(LldError::Config(
                "client and write_id must be non-zero".into(),
            ));
        }
        let row = self.rows.get(&client);
        if let Some(r) = row.filter(|r| r.generation > generation) {
            return Err(regressed(client, generation, r));
        }
        let row = row.filter(|r| r.generation == generation);
        let (floor, commit_ts) = row.map_or((0, Timestamp::ZERO), |r| (r.floor, r.ts));
        match write_id.cmp(&floor) {
            _ if write_id == floor + 1 => Ok(None),
            Ordering::Equal => Ok(Some(WriteIdOutcome {
                generation,
                commit_ts,
            })),
            Ordering::Less => Err(LldError::WriteIdSuperseded { write_id, floor }),
            Ordering::Greater => Err(LldError::WriteIdOutOfSequence { write_id, floor }),
        }
    }

    /// Whether a session is committing one of `client`'s write ids:
    /// a caller waits for it before [`reserve`](Self::reserve).
    pub(crate) fn running(&self, client: u64) -> bool {
        self.rows.get(&client).is_some_and(|r| r.running.is_some())
    }

    /// Settles `write_id` as [`settle`](Self::settle) does, and reserves
    /// the next id for the caller (`Ok(None)`), who ends it with
    /// [`complete`](Self::complete) or [`release`](Self::release).
    /// Refuses a new client past [`MAX_CLIENTS`] too.
    pub(crate) fn reserve(
        &mut self,
        client: u64,
        generation: u64,
        write_id: u64,
    ) -> Result<Option<WriteIdOutcome>> {
        let settled = self.settle(client, generation, write_id)?;
        if settled.is_none() {
            if !self.rows.contains_key(&client) && self.rows.len() >= MAX_CLIENTS {
                return Err(LldError::TooManyClients);
            }
            let row = self.rows.entry(client).or_default();
            row.running = Some((generation, write_id));
        }
        Ok(settled)
    }

    /// Handles a client `Hello`: the floor under `generation`, or
    /// `None` where `generation` raises the row's, which the caller
    /// journals ([`complete`](Self::complete) with write id 0). Refuses
    /// a generation below the row's, and a new client past
    /// [`MAX_CLIENTS`]; a new client gets its row at its first commit.
    pub(crate) fn hello(&self, client: u64, generation: u64) -> Result<Option<u64>> {
        match self.rows.get(&client) {
            None if self.rows.len() >= MAX_CLIENTS => Err(LldError::TooManyClients),
            None => Ok(Some(0)),
            Some(r) => match generation.cmp(&r.generation) {
                Ordering::Less => Err(regressed(client, generation, r)),
                Ordering::Equal => Ok(Some(r.floor)),
                Ordering::Greater => Ok(None),
            },
        }
    }

    /// Drops the reservation of `(generation, write_id)` after a failed
    /// or aborted commit, so a retry re-executes, and a row that records
    /// nothing with it: a new client whose first commit failed.
    pub(crate) fn release(&mut self, client: u64, key: (u64, u64)) {
        let row = self.rows.get_mut(&client);
        let Some(row) = row.filter(|r| r.running == Some(key)) else {
            return;
        };
        row.running = None;
        if (row.floor, row.ts) == (0, Timestamp::ZERO) {
            self.rows.remove(&client);
        }
    }

    /// Records write id `write_id` of `(client, generation)` as applied
    /// at `commit_ts`, and ends its reservation. The row only moves
    /// forward: a record older than it (replayed again behind the
    /// checkpoint that holds it) leaves it as it is.
    pub(crate) fn complete(&mut self, client: u64, generation: u64, write_id: u64, ts: Timestamp) {
        let row = self.rows.entry(client).or_default();
        if (generation, write_id) >= (row.generation, row.floor) {
            (row.generation, row.floor, row.ts) = (generation, write_id, ts);
        }
        self.release(client, (generation, write_id));
    }

    /// Encodes the rows that record something (not a new client's first
    /// commit in flight) as a checkpoint's dedup table, and says how
    /// many it holds.
    pub(crate) fn encode(&self) -> (Vec<u8>, usize) {
        let rows: Vec<[u64; DEDUP_COLS]> = (self.rows.iter())
            .filter(|(_, r)| (r.floor, r.ts) != (0, Timestamp::ZERO))
            .map(|(&client, r)| [client, r.floor, r.generation, r.ts.get()])
            .collect();
        (dedup_table(&rows), rows.len())
    }

    /// Rebuilds the rows from a checkpoint's dedup table.
    /// [`LldError::Corrupt`] for a value past `u64::MAX`, or a client
    /// not above the row's before it (two rows for one client).
    pub(crate) fn decode(table: &DedupTable<'_>) -> Result<ClientRows> {
        let (mut rows, mut last, mut order) = (ClientRows::default(), 0, Ok(()));
        table.each_row(|[client, write_id, generation, ts]| {
            if client <= last {
                order = Err(LldError::Corrupt(format!(
                    "dedup row for client {client} behind {last}"
                )));
            }
            last = client;
            rows.complete(client, generation, write_id, Timestamp::new(ts));
        })?;
        order.map(|()| rows)
    }
}

/// The refusal of `generation`, below `row`'s.
fn regressed(client: u64, generation: u64, row: &Row) -> LldError {
    let current = row.generation;
    LldError::Config(format!(
        "client {client} generation {generation} regresses below {current}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t)
    }

    #[test]
    fn reserve_complete_lookup() {
        let mut c = ClientRows::default();
        assert_eq!(c.reserve(1, 1, 1), Ok(None));
        assert!(c.running(1));
        assert_eq!(c.settle(1, 1, 1), Ok(None));
        c.complete(1, 1, 1, ts(5));
        c.complete(1, 1, 2, ts(6));
        let floor = WriteIdOutcome {
            generation: 1,
            commit_ts: ts(6),
        };
        assert!(!c.running(1));
        assert_eq!(c.reserve(1, 1, 2), Ok(Some(floor)));
        assert!(matches!(
            c.settle(1, 1, 1),
            Err(LldError::WriteIdSuperseded { floor: 2, .. })
        ));
        assert!(matches!(
            c.settle(1, 1, 4),
            Err(LldError::WriteIdOutOfSequence { floor: 2, .. })
        ));
        assert_eq!(c.settle(1, 1, 3), Ok(None));
        assert!(c.settle(1, 1, 0).is_err() && c.settle(0, 1, 1).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn release_allows_reexecution() {
        let mut c = ClientRows::default();
        assert_eq!(c.reserve(1, 1, 1), Ok(None));
        c.release(1, (1, 1));
        assert!(!c.running(1));
        assert_eq!(c.reserve(1, 1, 1), Ok(None));
        c.complete(1, 1, 1, ts(5));
        c.release(1, (1, 1));
        assert_eq!(c.floor(1), Some((1, 1)));
    }

    #[test]
    fn a_raise_starts_the_sequence_again() {
        let mut c = ClientRows::default();
        assert_eq!(c.hello(1, 1), Ok(Some(0)));
        c.complete(1, 1, 1, ts(1));
        assert_eq!(c.hello(1, 1), Ok(Some(1)));
        assert_eq!(c.hello(1, 2), Ok(None));
        c.complete(1, 2, 0, ts(2));
        assert_eq!(c.settle(1, 2, 1), Ok(None));
        assert!(c.hello(1, 1).is_err() && c.settle(1, 1, 1).is_err());
        // An older record replayed again leaves the row.
        c.complete(1, 1, 7, ts(3));
        assert_eq!(c.floor(1), Some((2, 0)));
    }

    /// Neither a `Hello` nor a first commit that failed makes a row, so
    /// neither counts against [`MAX_CLIENTS`]; a raise's row stays.
    #[test]
    fn a_row_is_made_by_what_it_records() {
        let mut c = ClientRows::default();
        assert_eq!(c.hello(1, 3), Ok(Some(0)));
        assert_eq!(c.reserve(2, 1, 1), Ok(None));
        c.release(2, (1, 1));
        assert_eq!((c.len(), c.floor(1), c.floor(2)), (0, None, None));
        c.complete(1, 3, 0, ts(4));
        assert_eq!(c.reserve(1, 3, 1), Ok(None));
        c.release(1, (3, 1));
        assert_eq!(c.floor(1), Some((3, 0)));
    }

    #[test]
    fn a_new_client_past_the_bound_is_refused() {
        let mut c = ClientRows::default();
        for client in 1..=MAX_CLIENTS as u64 {
            c.complete(client, 1, 1, ts(client));
        }
        let refused = LldError::TooManyClients;
        assert_eq!(c.hello(MAX_CLIENTS as u64 + 1, 1), Err(refused.clone()));
        assert_eq!(c.reserve(MAX_CLIENTS as u64 + 1, 1, 1), Err(refused));
        assert_eq!(c.reserve(1, 1, 2), Ok(None));
        assert_eq!(c.len(), MAX_CLIENTS);
    }

    /// `c` through a checkpoint's dedup table.
    fn reload(c: &ClientRows) -> Result<ClientRows> {
        let (bytes, n) = c.encode();
        let table = DedupTable::open(&bytes, n as u64).expect("a table the encoder wrote");
        ClientRows::decode(&table)
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut c = ClientRows::default();
        c.complete(2, 3, 7, ts(2));
        c.complete(1, 1, 2, ts(4));
        c.complete(3, 1, 1, ts(0));
        assert_eq!(c.reserve(4, 1, 1), Ok(None));
        let (buf, n) = c.encode();
        // Four descriptors, row 0 in full, and two rows of 0 + 1 + 1 + 0
        // bits: the client steps by +1 twice and the timestamp by −2
        // twice (one value a column, no bits), the floor by +5 and −6
        // (zigzags 10 and 11), the generation by +2 and −2 (4 and 3).
        // Client 4's first commit, in flight, is no row.
        assert_eq!((n, buf.len()), (3, 40 + 32 + 1));
        let d = reload(&c).unwrap();
        assert_eq!((d.rows.len(), d.floor(4)), (3, None));
        for client in 1..=3 {
            assert_eq!(d.floor(client), c.floor(client));
        }
        assert_eq!(d.settle(2, 3, 7).unwrap().unwrap().commit_ts, ts(2));
    }

    /// Clients 5, 9 and 10 at floors 1, 4 and 2: steps that take bits.
    fn three_clients() -> (Vec<u8>, u64) {
        let mut c = ClientRows::default();
        for (client, floor) in [(5, 1), (9, 4), (10, 2)] {
            c.complete(client, 1, floor, ts(floor));
        }
        let (buf, n) = c.encode();
        (buf, n as u64)
    }

    #[test]
    fn decode_rejects_misaligned_slab() {
        assert!(DedupTable::open(&[0u8; 7], 0).is_none());
        let (mut buf, n) = three_clients();
        assert!(DedupTable::open(&buf, n).is_some());
        assert!(DedupTable::open(&buf, n + 1).is_none(), "a row more");
        assert!(DedupTable::open(&buf[..buf.len() - 1], n).is_none());
        buf.push(0);
        assert!(DedupTable::open(&buf, n).is_none(), "a byte long");
    }

    #[test]
    fn decode_refuses_two_rows_for_one_client() {
        let (mut buf, n) = three_clients();
        // The client column's minimum (its first descriptor field), the
        // zigzag of the step of 1 to client 10, set to 0: row 2's client
        // steps by 0 from row 1's.
        buf[..8].fill(0);
        let twice = DedupTable::open(&buf, n).unwrap();
        assert!(matches!(
            ClientRows::decode(&twice),
            Err(LldError::Corrupt(_))
        ));
    }

    /// A reservation is not a row's move: the id it holds is not
    /// applied, in memory or through a checkpoint's table.
    #[test]
    fn pending_entries_never_encoded() {
        let mut c = ClientRows::default();
        assert_eq!(c.reserve(1, 1, 1), Ok(None));
        c.complete(2, 1, 1, ts(1));
        let d = reload(&c).unwrap();
        assert_eq!((d.floor(1), d.floor(2)), (None, Some((1, 1))));
        assert_eq!(d.settle(1, 1, 1), Ok(None));
    }
}
