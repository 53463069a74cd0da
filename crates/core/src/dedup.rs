//! The write-id dedup cache: exactly-once semantics for networked
//! commits.
//!
//! A network client retrying a timed-out `EndARU` must not double-apply
//! the ARU. The server therefore tags each networked commit with a
//! `(client, write_id)` idempotency key; the core journals the key as a
//! [`Record::WriteId`](crate::summary::Record) *inside the ARU it
//! guards* and records the outcome in this bounded cache. A retry that
//! finds the key here gets the recorded outcome instead of a
//! re-execution; a crash before the commit record persisted leaves
//! neither the effects nor the cache entry, so the retry correctly
//! re-executes. Recovery rebuilds the cache from the covering
//! checkpoint's dedup table plus the replayed log suffix.
//!
//! The dedup table is the checkpoint slab codec's third table
//! (`checkpoint.rs`, format 10): its rows are the recorded outcomes in
//! recording order, row 0 stored in full and every later row's columns
//! (client, write id, generation, commit timestamp) as the zigzag of
//! their difference from the row before, bit-packed at each column's
//! width. Two clients with consecutive write ids take a few bytes an
//! outcome, not 32. A row is never wider than 32 bytes, so the
//! checkpoint area still holds `capacity` outcomes at their widest;
//! this module only hands the codec its rows and takes them back.
//!
//! Entries are bounded two ways:
//!
//! * **Generations** — a client incarnation announces its generation at
//!   `Hello`; announcing generation `g` promises that no retry from a
//!   generation `< g` is outstanding, so those entries are evicted.
//! * **Capacity** — beyond `capacity` entries the oldest (by recording
//!   order, which is commit order) are dropped. Clients size their
//!   retry window so that an outstanding retry is never older than the
//!   newest `capacity` commits.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use crate::checkpoint::{encode_dedup, DedupTable, DEDUP_COLS};
use crate::error::{LldError, Result};
use crate::types::Timestamp;

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
    /// Whether the outcome came from the dedup cache (the call was a
    /// retry) rather than from executing the presented ARU.
    pub deduped: bool,
}

/// One slot in the cache: a commit in flight (reserved, not yet
/// durable) or a recorded outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A tagged commit is executing; concurrent retries must wait for
    /// its outcome rather than re-execute. Never persisted.
    Pending { generation: u64 },
    /// The commit succeeded at `commit_ts`.
    Done(WriteIdOutcome),
}

/// What a caller that tried to reserve a write-id should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reservation {
    /// The key was free and is now reserved: execute the commit.
    Execute,
    /// The key has a recorded outcome: return it, do not re-execute.
    Duplicate(WriteIdOutcome),
    /// Another session is committing this key right now: wait and
    /// re-try the reservation.
    InFlight,
}

/// Bounded `(client, write_id) -> outcome` cache (see module docs).
#[derive(Debug)]
pub struct DedupCache {
    capacity: usize,
    map: HashMap<(u64, u64), Slot>,
    /// Recording order of `Done` entries, oldest first; drives capacity
    /// eviction and the checkpoint slab encoding.
    order: VecDeque<(u64, u64)>,
    /// Highest generation announced (or recorded) per client.
    gens: HashMap<u64, u64>,
}

impl DedupCache {
    /// Creates an empty cache retaining at most `capacity` outcomes.
    pub fn new(capacity: usize) -> DedupCache {
        DedupCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            gens: HashMap::new(),
        }
    }

    /// Number of recorded (durable) outcomes; pending reservations are
    /// not counted.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no outcomes are recorded (pairs with [`len`](Self::len)
    /// for the standard collection contract).
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured outcome bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The highest generation seen for `client`, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn generation_of(&self, client: u64) -> Option<u64> {
        self.gens.get(&client).copied()
    }

    /// Handles a client `Hello`: records the incarnation and evicts the
    /// outcomes of all older generations of that client (the client
    /// promises no retry from them is outstanding). Returns the number
    /// of entries evicted.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Config`] if `generation` is lower than a
    /// generation this client already announced — a stale instance that
    /// must not be allowed to reuse acknowledged write-ids.
    pub fn observe_generation(&mut self, client: u64, generation: u64) -> Result<usize> {
        if let Some(&seen) = self.gens.get(&client) {
            if generation < seen {
                return Err(LldError::Config(format!(
                    "client {client} generation {generation} regresses below {seen}"
                )));
            }
        }
        self.gens.insert(client, generation);
        let map = &mut self.map;
        let mut evicted = 0usize;
        self.order.retain(|key| {
            let stale = key.0 == client
                && matches!(map.get(key),
                    Some(Slot::Done(o)) if o.generation < generation);
            if stale {
                map.remove(key);
                evicted += 1;
            }
            !stale
        });
        Ok(evicted)
    }

    /// Looks up the recorded outcome for `(client, write_id)`.
    pub fn lookup(&self, client: u64, write_id: u64) -> Option<WriteIdOutcome> {
        match self.map.get(&(client, write_id)) {
            Some(Slot::Done(o)) => Some(*o),
            _ => None,
        }
    }

    /// Tries to reserve `(client, write_id)` for execution (see
    /// [`Reservation`]). A successful reservation must be resolved with
    /// [`complete`](Self::complete) or [`release`](Self::release).
    pub fn reserve(&mut self, client: u64, write_id: u64, generation: u64) -> Reservation {
        match self.map.entry((client, write_id)) {
            Entry::Occupied(e) => match e.get() {
                Slot::Done(o) => Reservation::Duplicate(*o),
                Slot::Pending { .. } => Reservation::InFlight,
            },
            Entry::Vacant(e) => {
                e.insert(Slot::Pending { generation });
                Reservation::Execute
            }
        }
    }

    /// Drops a pending reservation after a failed or aborted commit, so
    /// a retry re-executes.
    pub fn release(&mut self, client: u64, write_id: u64) {
        if let Some(Slot::Pending { .. }) = self.map.get(&(client, write_id)) {
            self.map.remove(&(client, write_id));
        }
    }

    /// Records a successful commit, replacing any pending reservation.
    /// Oldest outcomes beyond `capacity` are evicted.
    pub fn complete(&mut self, client: u64, write_id: u64, generation: u64, commit_ts: Timestamp) {
        let prev = self.map.insert(
            (client, write_id),
            Slot::Done(WriteIdOutcome {
                generation,
                commit_ts,
            }),
        );
        if !matches!(prev, Some(Slot::Done(_))) {
            self.order.push_back((client, write_id));
        }
        let seen = self.gens.entry(client).or_insert(generation);
        *seen = (*seen).max(generation);
        while self.order.len() > self.capacity {
            if let Some(key) = self.order.pop_front() {
                self.map.remove(&key);
            }
        }
    }

    /// Recorded outcomes in recording order (oldest first).
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, WriteIdOutcome)> + '_ {
        self.order.iter().filter_map(|&(client, write_id)| {
            match self.map.get(&(client, write_id)) {
                Some(Slot::Done(o)) => Some((client, write_id, *o)),
                _ => None,
            }
        })
    }

    /// Encodes the recorded outcomes as a checkpoint's dedup table,
    /// oldest first, and says how many it holds. If the table would
    /// exceed `max_bytes`, the oldest entries are dropped from the
    /// encoding (they are also the first the capacity bound would
    /// evict).
    pub(crate) fn encode(&self, max_bytes: u64) -> (Vec<u8>, usize) {
        let rows: Vec<[u64; DEDUP_COLS]> = (self.entries())
            .map(|(client, write_id, o)| [client, write_id, o.generation, o.commit_ts.get()])
            .collect();
        encode_dedup(&rows, max_bytes)
    }

    /// Rebuilds a cache from a checkpoint's dedup table.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Corrupt`] for a row whose value passes
    /// `u64::MAX`.
    pub(crate) fn decode(capacity: usize, table: &DedupTable<'_>) -> Result<DedupCache> {
        let mut cache = DedupCache::new(capacity);
        table.each_row(|[client, write_id, generation, ts]| {
            cache.complete(client, write_id, generation, Timestamp::new(ts));
        })?;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_complete_lookup() {
        let mut c = DedupCache::new(8);
        assert_eq!(c.reserve(1, 10, 1), Reservation::Execute);
        assert_eq!(c.reserve(1, 10, 1), Reservation::InFlight);
        assert_eq!(c.lookup(1, 10), None);
        c.complete(1, 10, 1, Timestamp::new(5));
        let o = c.lookup(1, 10).unwrap();
        assert_eq!(o.commit_ts, Timestamp::new(5));
        assert!(matches!(c.reserve(1, 10, 1), Reservation::Duplicate(_)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn release_allows_reexecution() {
        let mut c = DedupCache::new(8);
        assert_eq!(c.reserve(1, 10, 1), Reservation::Execute);
        c.release(1, 10);
        assert_eq!(c.reserve(1, 10, 1), Reservation::Execute);
        // Releasing a Done entry is a no-op.
        c.complete(1, 10, 1, Timestamp::new(5));
        c.release(1, 10);
        assert!(c.lookup(1, 10).is_some());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = DedupCache::new(3);
        for w in 1..=5u64 {
            c.complete(1, w, 1, Timestamp::new(w));
        }
        assert_eq!(c.len(), 3);
        assert!(c.lookup(1, 1).is_none());
        assert!(c.lookup(1, 2).is_none());
        assert!(c.lookup(1, 3).is_some());
        assert!(c.lookup(1, 5).is_some());
    }

    #[test]
    fn generation_evicts_older_incarnations() {
        let mut c = DedupCache::new(8);
        c.complete(1, 1, 1, Timestamp::new(1));
        c.complete(1, 2, 2, Timestamp::new(2));
        c.complete(2, 1, 1, Timestamp::new(3));
        assert_eq!(c.observe_generation(1, 2).unwrap(), 1);
        assert!(c.lookup(1, 1).is_none());
        assert!(c.lookup(1, 2).is_some());
        assert!(c.lookup(2, 1).is_some());
        assert!(c.observe_generation(1, 1).is_err());
    }

    /// `c` through a checkpoint's dedup table of at most `max_bytes`.
    fn reload(c: &DedupCache, max_bytes: u64) -> DedupCache {
        let (bytes, n) = c.encode(max_bytes);
        assert!(bytes.len() as u64 <= max_bytes);
        let table = DedupTable::open(&bytes, n as u64).expect("a table the encoder wrote");
        DedupCache::decode(8, &table).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut c = DedupCache::new(8);
        c.complete(1, 1, 1, Timestamp::new(1));
        c.complete(2, 7, 3, Timestamp::new(2));
        c.complete(1, 2, 1, Timestamp::new(4));
        let (buf, n) = c.encode(u64::MAX);
        // Four descriptors, row 0 in full, and two rows of 1 + 2 + 1 + 1
        // bits: the zigzags of ±1 in the client, 6 and −5 in the write
        // id, ±2 in the generation, 1 and 2 in the timestamp.
        assert_eq!((n, buf.len()), (3, 40 + 32 + 2));
        let d = reload(&c, u64::MAX);
        assert_eq!(
            d.entries().collect::<Vec<_>>(),
            c.entries().collect::<Vec<_>>()
        );
        assert_eq!(d.generation_of(2), Some(3));
    }

    #[test]
    fn encode_truncates_oldest_first() {
        let mut c = DedupCache::new(8);
        for (w, ts) in [(1, 1), (2, 2), (3, 100), (4, 1000)] {
            c.complete(1, w, 1, Timestamp::new(ts));
        }
        // 72 bytes are the descriptors and row 0 in full: one row behind
        // it takes no bits (each column holds one value), two take 9
        // bits each for their timestamp steps of 98 and 900.
        let d = reload(&c, 72);
        assert!(d.lookup(1, 1).is_none());
        assert!(d.lookup(1, 2).is_none());
        assert!(d.lookup(1, 3).is_some());
        assert!(d.lookup(1, 4).is_some());
        let (all, _) = c.encode(u64::MAX);
        let d = reload(&c, all.len() as u64 - 1);
        assert!(d.lookup(1, 1).is_none());
        assert_eq!(d.len(), 3);
        assert_eq!(reload(&c, all.len() as u64).len(), 4);
    }

    #[test]
    fn decode_rejects_misaligned_slab() {
        assert!(DedupTable::open(&[0u8; 7], 0).is_none());
        let mut c = DedupCache::new(8);
        c.complete(1, 1, 1, Timestamp::new(1));
        c.complete(1, 2, 1, Timestamp::new(3));
        c.complete(2, 9, 1, Timestamp::new(4));
        let (mut buf, n) = c.encode(u64::MAX);
        let n = n as u64;
        assert!(DedupTable::open(&buf, n).is_some());
        assert!(DedupTable::open(&buf, n + 1).is_none(), "a row more");
        assert!(DedupTable::open(&buf[..buf.len() - 1], n).is_none());
        buf.push(0);
        assert!(DedupTable::open(&buf, n).is_none(), "a byte long");
    }

    #[test]
    fn pending_entries_never_encoded() {
        let mut c = DedupCache::new(8);
        assert_eq!(c.reserve(1, 1, 1), Reservation::Execute);
        c.complete(2, 2, 1, Timestamp::new(1));
        let d = reload(&c, u64::MAX);
        assert!(d.lookup(1, 1).is_none());
        assert!(d.lookup(2, 2).is_some());
    }
}
