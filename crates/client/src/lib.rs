//! # ld-client: a typed client for the logical-disk server
//!
//! Wraps the [`ld_server::wire`] protocol in a connection that knows
//! how to fail. The client owns three pieces of retry machinery:
//!
//! * **Reconnect.** Every request runs over a lazily (re)established
//!   connection; a broken stream is dropped and redialed with the same
//!   `(client, generation)` identity, bounded by
//!   [`ClientConfig::max_retries`].
//! * **Idempotent retries.** Every request is safe to repeat verbatim,
//!   so transport errors just retry it: reads, flushes, lookups and
//!   stats by their nature, and commits because they are tagged.
//! * **Exactly-once commits.** A [`Txn`] is a *replayable program* of
//!   allocations and writes, committed under a `write_id` as one
//!   request: a single [`wire::op::COMMIT`] frame that the server runs
//!   in one ARU as it reads it. Write ids run 1, 2, 3 … in each
//!   generation; the handshake answers the last one applied
//!   ([`Client::floor`]). If the connection dies before the answer
//!   arrives, the client sends the frame again, and the server settles
//!   the id against its row for the client before it runs anything: if
//!   the lost attempt landed, the answer is its recorded outcome
//!   ([`CommitOutcome::deduped`], no ids — the answer carrying them was
//!   lost). The row is journaled with the commit and rebuilt by
//!   recovery, so this holds across a server crash too; an id below the
//!   floor or past the next is a typed answer, never a run.
//!
//! No ARU outlives its request, so a dropped connection leaves nothing
//! open on the server.
//!
//! The one thing the client must guarantee in exchange: number its
//! transactions in sequence within a generation, and never reuse a
//! `write_id` for a different one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ld_server::wire::{self, answer, flag, op, status, Body};

/// Timeouts and retry policy for a [`Client`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Dial timeout for each (re)connection attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout on an established connection. Generous by
    /// default: a sync commit waits for a group-commit barrier.
    pub io_timeout: Duration,
    /// How many times a request is retried across reconnects before
    /// giving up with [`ClientError::RetriesExhausted`].
    pub max_retries: u32,
    /// Sleep between retry attempts.
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_retries: 8,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection refused, reset, timed out). The
    /// retry machinery reconnects on these; callers only see one after
    /// retries are exhausted for a non-retryable path.
    Io(io::Error),
    /// The server answered with an error status; the connection is
    /// still healthy and the request definitively did not take effect
    /// (semantic errors are not retried).
    Server(String),
    /// The server's response violated the protocol.
    Protocol(String),
    /// All retry attempts failed; carries the last transport error's
    /// rendering.
    RetriesExhausted(String),
    /// `write_id` was applied, but its outcome is superseded: the
    /// client's floor, the highest id applied, is past it.
    Superseded {
        /// The write id asked about.
        write_id: u64,
        /// The client's floor.
        floor: u64,
    },
    /// `write_id` was not applied, and is refused until every id
    /// before it is: the next is `floor + 1`.
    OutOfSequence {
        /// The write id asked about.
        write_id: u64,
        /// The client's floor.
        floor: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::RetriesExhausted(m) => write!(f, "retries exhausted: {m}"),
            ClientError::Superseded { write_id, floor } => {
                write!(f, "write id {write_id} is below the floor {floor}: applied")
            }
            ClientError::OutOfSequence { write_id, floor } => {
                write!(
                    f,
                    "write id {write_id} is out of sequence: the floor is {floor}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether the server answered: the request was settled, and
    /// sending it again would be answered the same.
    fn answered(&self) -> bool {
        matches!(
            self,
            Self::Server(_) | Self::Superseded { .. } | Self::OutOfSequence { .. }
        )
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A committed tagged transaction's recorded outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// `true` when the server answered with the floor's outcome: the
    /// transaction had already committed (this call was a retry) and
    /// its effects were **not** re-executed.
    pub deduped: bool,
    /// Generation the commit was recorded under.
    pub generation: u64,
    /// Logical commit timestamp of the ARU.
    pub commit_ts: u64,
    /// Identifier allocated for each [`Slot`], indexed by slot number.
    /// Empty when `deduped`: the acknowledgement that carried the ids
    /// was lost with the original connection.
    pub ids: Vec<u64>,
}

/// Placeholder for an identifier a [`Txn`] will allocate server-side.
/// Resolves to a concrete id (slot-indexed in [`CommitOutcome::ids`])
/// when the transaction commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A list named either by a pending [`Slot`] or an already-committed
/// raw id.
#[derive(Debug, Clone, Copy)]
pub enum ListRef {
    /// A list this transaction allocates.
    Slot(Slot),
    /// A pre-existing list.
    Id(u64),
}

/// A block named either by a pending [`Slot`] or an already-committed
/// raw id.
#[derive(Debug, Clone, Copy)]
pub enum BlockRef {
    /// A block this transaction allocates.
    Slot(Slot),
    /// A pre-existing block.
    Id(u64),
}

/// A list or block as a `COMMIT` program names it
/// ([`wire::reference`]).
#[derive(Debug, Clone, Copy)]
enum Ref {
    Slot(u32),
    Id(u64),
}

impl From<ListRef> for Ref {
    fn from(r: ListRef) -> Ref {
        match r {
            ListRef::Slot(Slot(i)) => Ref::Slot(i as u32),
            ListRef::Id(id) => Ref::Id(id),
        }
    }
}

impl From<BlockRef> for Ref {
    fn from(r: BlockRef) -> Ref {
        match r {
            BlockRef::Slot(Slot(i)) => Ref::Slot(i as u32),
            BlockRef::Id(id) => Ref::Id(id),
        }
    }
}

impl Ref {
    fn wire_len(self) -> usize {
        match self {
            Ref::Slot(_) => 5,
            Ref::Id(_) => 9,
        }
    }

    fn put(self, out: &mut Vec<u8>) {
        match self {
            Ref::Slot(slot) => {
                out.push(wire::reference::SLOT);
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Ref::Id(id) => {
                out.push(wire::reference::ID);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
}

#[derive(Debug, Clone)]
enum TxnOp {
    NewList,
    /// `pred` is `Ref::Id(0)` for the front of the list.
    NewBlock {
        list: Ref,
        pred: Ref,
    },
    Write {
        block: Ref,
        data: Vec<u8>,
    },
}

impl TxnOp {
    fn wire_len(&self) -> usize {
        match self {
            TxnOp::NewList => 1,
            TxnOp::NewBlock { list, pred } => 1 + list.wire_len() + pred.wire_len(),
            TxnOp::Write { block, data } => 1 + block.wire_len() + 4 + data.len(),
        }
    }
}

/// Commit durability: lazy trusts a later flush (or server shutdown)
/// for persistence; sync returns only after a group-committed barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Acknowledge once the commit record is staged in the log.
    Lazy,
    /// Acknowledge once the commit is on stable storage.
    Sync,
}

/// A replayable transaction program: allocations and writes recorded
/// client-side, executed inside one ARU at commit time. Because the
/// program (not the session state) is the unit of retry, the client
/// can re-run it from scratch on a fresh connection.
#[derive(Debug, Clone, Default)]
pub struct Txn {
    ops: Vec<TxnOp>,
    slots: usize,
}

impl Txn {
    /// An empty transaction.
    pub fn new() -> Txn {
        Txn::default()
    }

    /// Allocates a new list when the transaction runs.
    pub fn new_list(&mut self) -> Slot {
        let s = Slot(self.slots);
        self.slots += 1;
        self.ops.push(TxnOp::NewList);
        s
    }

    /// Allocates a new block on `list`, after `pred` (or at the front).
    pub fn new_block(&mut self, list: ListRef, pred: Option<BlockRef>) -> Slot {
        let s = Slot(self.slots);
        self.slots += 1;
        self.ops.push(TxnOp::NewBlock {
            list: list.into(),
            pred: pred.map_or(Ref::Id(0), Ref::from),
        });
        s
    }

    /// Writes `data` to `block` inside the transaction's ARU.
    pub fn write(&mut self, block: BlockRef, data: &[u8]) {
        self.ops.push(TxnOp::Write {
            block: block.into(),
            data: data.to_vec(),
        });
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The payload length of this program's `COMMIT` frame.
    fn frame_len(&self) -> usize {
        1 + 1 + 8 + 4 + self.ops.iter().map(TxnOp::wire_len).sum::<usize>()
    }

    /// Writes this program as one `COMMIT` frame of payload length
    /// `len` ([`frame_len`](Txn::frame_len)), without building it whole.
    fn write_commit<W: Write>(&self, w: W, len: u32, flags: u8, write_id: u64) -> io::Result<()> {
        let mut w = BufWriter::with_capacity(WRITE_BUFFER, w);
        let mut head = Vec::with_capacity(32);
        head.extend_from_slice(&len.to_le_bytes());
        head.extend_from_slice(&[op::COMMIT, flags]);
        head.extend_from_slice(&write_id.to_le_bytes());
        head.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        w.write_all(&head)?;
        for opn in &self.ops {
            head.clear();
            let data: &[u8] = match opn {
                TxnOp::NewList => {
                    head.push(op::NEW_LIST);
                    &[]
                }
                TxnOp::NewBlock { list, pred } => {
                    head.push(op::NEW_BLOCK);
                    list.put(&mut head);
                    pred.put(&mut head);
                    &[]
                }
                TxnOp::Write { block, data } => {
                    head.push(op::WRITE);
                    block.put(&mut head);
                    head.extend_from_slice(&(data.len() as u32).to_le_bytes());
                    data
                }
            };
            w.write_all(&head)?;
            w.write_all(data)?;
        }
        w.flush()
    }
}

/// How much of a `COMMIT` frame the client hands the socket at a time.
const WRITE_BUFFER: usize = 64 << 10;

/// A connection to an `ld-server`, carrying a fixed client identity.
pub struct Client {
    addr: SocketAddr,
    client_id: u64,
    generation: u64,
    /// The floor the last handshake answered.
    floor: u64,
    config: ClientConfig,
    stream: Option<TcpStream>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("client_id", &self.client_id)
            .field("generation", &self.generation)
            .field("connected", &self.stream.is_some())
            .finish()
    }
}

impl Client {
    /// Creates a client for `addr` under the identity
    /// `(client_id, generation)` and performs the initial handshake.
    ///
    /// `generation` must be strictly greater than any generation this
    /// `client_id` previously announced *if* the new incarnation may
    /// reuse old write-ids; reconnects of the same incarnation reuse
    /// the same generation.
    ///
    /// A `client_id` of 0 creates an *anonymous* session: no handshake
    /// is sent, and only identity-free requests (stats) are accepted
    /// by the server — the mode monitoring tools use.
    ///
    /// # Errors
    ///
    /// Transport errors after retries; [`ClientError::Server`] if the
    /// server rejects the handshake (e.g. generation regression).
    pub fn connect(
        addr: &str,
        client_id: u64,
        generation: u64,
        config: ClientConfig,
    ) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or_else(|| ClientError::Protocol(format!("address {addr} resolved to nothing")))?;
        let mut c = Client {
            addr,
            client_id,
            generation,
            floor: 0,
            config,
            stream: None,
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// The client identity announced at handshake.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The generation announced at handshake.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The highest write id applied under this generation when the last
    /// handshake was answered: the next commit is `floor() + 1`.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    fn ensure_connected(&mut self) -> Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        self.stream = Some(stream);
        if self.client_id == 0 {
            return Ok(()); // anonymous monitoring session
        }
        // Handshake over the fresh connection; a semantic rejection
        // (generation regression) closes it again.
        let mut req = vec![op::HELLO];
        req.extend_from_slice(&self.client_id.to_le_bytes());
        req.extend_from_slice(&self.generation.to_le_bytes());
        let floor = (self.raw_request(&req)).and_then(|resp| Body::new(&resp).u64().map_err(bad));
        match floor {
            Ok(floor) => {
                self.floor = floor;
                Ok(())
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// One request/response exchange on the current connection.
    fn raw_request(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        self.exchange(|w| wire::write_frame(w, payload))
    }

    /// Sends one request with `send` and reads its response. A
    /// transport failure poisons the connection (dropped so the next
    /// call redials); a server error leaves it healthy.
    fn exchange(&mut self, send: impl FnOnce(&mut TcpStream) -> io::Result<()>) -> Result<Vec<u8>> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| ClientError::Io(io::ErrorKind::NotConnected.into()))?;
        let exchanged = send(stream).and_then(|()| wire::read_frame(stream));
        let resp = match exchanged {
            Ok(Some(r)) => r,
            Ok(None) => {
                self.stream = None;
                return Err(ClientError::Io(io::ErrorKind::ConnectionAborted.into()));
            }
            Err(e) => {
                self.stream = None;
                return Err(ClientError::Io(e));
            }
        };
        let mut body = Body::new(&resp);
        match body.u8() {
            Ok(s) if s == status::OK => Ok(resp[1..].to_vec()),
            Ok(s) if s == status::ERR => {
                let msg = body
                    .str32()
                    .unwrap_or_else(|_| "unreadable error message".into());
                Err(ClientError::Server(msg))
            }
            _ => {
                self.stream = None;
                Err(ClientError::Protocol("bad response status byte".into()))
            }
        }
    }

    fn request_idempotent(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        self.retrying(|w| wire::write_frame(w, payload))
    }

    /// The retry loop: connects (if needed) and sends a request with
    /// `send`; a transport error reconnects and sends it again, an
    /// answer returns at once.
    fn retrying(&mut self, send: impl Fn(&mut TcpStream) -> io::Result<()>) -> Result<Vec<u8>> {
        let mut last = String::new();
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                std::thread::sleep(self.config.retry_backoff);
            }
            match self.ensure_connected().and_then(|()| self.exchange(&send)) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.answered() => return Err(e),
                Err(e) => last = e.to_string(),
            }
        }
        Err(ClientError::RetriesExhausted(last))
    }

    /// Reads one block (simple context), retrying over reconnects.
    ///
    /// # Errors
    ///
    /// Semantic server errors (unknown block); exhausted retries.
    pub fn read(&mut self, block: u64) -> Result<Vec<u8>> {
        let mut req = vec![op::READ];
        req.extend_from_slice(&block.to_le_bytes());
        self.request_idempotent(&req)
    }

    /// Durability barrier (group-committed server-side), retried over
    /// reconnects.
    ///
    /// # Errors
    ///
    /// Semantic server errors; exhausted retries.
    pub fn flush(&mut self) -> Result<()> {
        self.request_idempotent(&[op::FLUSH]).map(|_| ())
    }

    /// Fetches the server's observability snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Semantic server errors; exhausted retries.
    pub fn stats_json(&mut self) -> Result<String> {
        let resp = self.request_idempotent(&[op::STATS])?;
        Body::new(&resp).str32().map_err(bad)
    }

    /// Asks how `write_id` settles against this client's row, running
    /// nothing: the recorded `(generation, commit_ts)` if it is the
    /// floor, `None` if it is the next (not applied).
    ///
    /// # Errors
    ///
    /// [`ClientError::Superseded`] below the floor (applied),
    /// [`ClientError::OutOfSequence`] past the next; semantic server
    /// errors; exhausted retries.
    pub fn lookup(&mut self, write_id: u64) -> Result<Option<(u64, u64)>> {
        let mut req = vec![op::LOOKUP];
        req.extend_from_slice(&write_id.to_le_bytes());
        let resp = self.request_idempotent(&req)?;
        let mut body = Body::new(&resp);
        match settled(&mut body, write_id)? {
            (answer::NEXT, _, _) => Ok(None),
            (_, generation, commit_ts) => Ok(Some((generation, commit_ts))),
        }
    }

    /// Block ids of a committed list, in list order.
    ///
    /// # Errors
    ///
    /// Semantic server errors; exhausted retries.
    pub fn list_blocks(&mut self, list: u64) -> Result<Vec<u64>> {
        let mut req = vec![op::LIST_BLOCKS];
        req.extend_from_slice(&list.to_le_bytes());
        let resp = self.request_idempotent(&req)?;
        let mut body = Body::new(&resp);
        let n = body.u32().map_err(bad)?;
        (0..n).map(|_| body.u64().map_err(bad)).collect()
    }

    /// Commits `txn` exactly once under `write_id`, in one request.
    ///
    /// The whole program travels as one [`op::COMMIT`] frame, which the
    /// server runs in a fresh ARU and commits under the tag. If the
    /// connection dies before the answer arrives, the client reconnects
    /// and sends the frame again. That is safe because the commit is
    /// tagged: if the lost attempt did land, the server answers its
    /// recorded outcome (`deduped = true`) and runs nothing.
    ///
    /// # Errors
    ///
    /// [`ClientError::Superseded`] and [`ClientError::OutOfSequence`]
    /// for a `write_id` that is neither the floor nor the next (nothing
    /// ran); [`ClientError::Server`] on semantic rejection (the server
    /// has aborted the attempt's ARU); exhausted retries on persistent
    /// transport failure; [`ClientError::Io`] without a retry if the
    /// program does not fit one frame's `u32` length.
    pub fn commit(
        &mut self,
        txn: &Txn,
        write_id: u64,
        durability: Durability,
    ) -> Result<CommitOutcome> {
        let flags = flag::TAGGED
            | match durability {
                Durability::Sync => flag::SYNC,
                Durability::Lazy => 0,
            };
        let len = u32::try_from(txn.frame_len()).map_err(|_| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "transaction exceeds one frame",
            ))
        })?;
        let resp = self.retrying(|w| txn.write_commit(w, len, flags, write_id))?;
        commit_outcome(&resp, write_id, txn.slots)
    }
}

/// A response body that does not decode.
fn bad(e: io::Error) -> ClientError {
    ClientError::Protocol(e.to_string())
}

/// Decodes a settled write id's `answer generation stamp`
/// ([`wire::answer`]): an id below the floor or past the next is its
/// typed error.
fn settled(body: &mut Body<'_>, write_id: u64) -> Result<(u8, u64, u64)> {
    let answer = body.u8().map_err(bad)?;
    let (generation, stamp) = (body.u64().map_err(bad)?, body.u64().map_err(bad)?);
    match answer {
        answer::NEXT | answer::APPLIED => Ok((answer, generation, stamp)),
        answer::SUPERSEDED => Err(ClientError::Superseded {
            write_id,
            floor: stamp,
        }),
        answer::OUT_OF_SEQUENCE => Err(ClientError::OutOfSequence {
            write_id,
            floor: stamp,
        }),
        other => Err(ClientError::Protocol(format!("bad answer {other}"))),
    }
}

/// Decodes a `COMMIT` answer: how `write_id` settled, and the `slots`
/// identifiers minted (none unless it ran).
fn commit_outcome(resp: &[u8], write_id: u64, slots: usize) -> Result<CommitOutcome> {
    let mut body = Body::new(resp);
    let (answer, generation, commit_ts) = settled(&mut body, write_id)?;
    let deduped = answer == answer::APPLIED;
    let n = body.u32().map_err(bad)? as usize;
    if n != if deduped { 0 } else { slots } {
        return Err(ClientError::Protocol(format!(
            "commit answered {n} identifiers for {slots} slots"
        )));
    }
    let ids = (0..n).map(|_| body.u64()).collect::<io::Result<_>>();
    Ok(CommitOutcome {
        deduped,
        generation,
        commit_ts,
        ids: ids.map_err(bad)?,
    })
}
