//! # ld-server: a Logical Disk over TCP
//!
//! A thread-per-connection TCP server exposing one shared
//! [`Lld`](ld_core::Lld) to remote clients through the length-prefixed
//! binary protocol of [`wire`] (specified in docs/PROTOCOL.md). The
//! interesting part is not the transport but the *failure contract*:
//!
//! * **Sessions** own the ARUs they begin. A connection that dies —
//!   client crash, network partition, server drain — has its live ARUs
//!   aborted, exactly as the paper's recovery discards uncommitted
//!   ARUs: the connection is the failure domain.
//! * **Exactly-once commits.** A client tags its commit with a
//!   `(client, generation, write_id)` key ([`wire::flag::TAGGED`]).
//!   The core journals the key inside the ARU and records the outcome
//!   in a bounded dedup cache, so a client retrying after a lost
//!   acknowledgement — or after a whole server crash and recovery —
//!   gets the recorded outcome instead of a re-execution.
//! * **One request per transaction.** [`wire::op::COMMIT`] carries a
//!   whole transaction program; the session runs it in one ARU as it
//!   reads the frame, so no buffer grows with the program, and on any
//!   error aborts the ARU and drains the rest. The interactive opcodes
//!   (`BEGIN_ARU` … `END_ARU`) share its executors, one per LD
//!   operation, and its end-of-ARU step.
//! * **Group commit for free.** Synchronous commits from different
//!   connections meet in the core's group-commit stage: one leader
//!   seals, one barrier covers the whole batch. The server adds no
//!   batching logic at all; cross-connection batching is an emergent
//!   property (`tests/server.rs` asserts that sync commits from eight
//!   connections take fewer barriers than commits).
//!
//! Shutdown ordering matters and is part of the contract:
//! [`Server::shutdown`] stops accepting, drains each session's
//! in-flight request, aborts what never committed, flushes so every
//! *acknowledged* commit is durable, and only then hands the disk back
//! — at which point the caller can `into_device()` (joining cleanerd
//! and sampler) knowing no request thread is left behind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

use std::collections::HashSet;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ld_core::{AruId, BlockId, Ctx, ListId, Lld, LldError, Position, ServerCounters};
use ld_disk::BlockDevice;

use wire::{flag, op, status, Body};

/// How often an idle session polls the shutdown flag; the accept
/// thread's back-off after an error.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long shutdown waits for a session's in-flight request (a frame
/// whose first byte has arrived) before abandoning the connection.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Live server counters (shared across all connection threads); see
/// [`ServerCounters`] for the snapshot form every stats surface uses.
#[derive(Debug, Default)]
pub struct ServerStats {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    retries_deduped: AtomicU64,
    conn_errors: AtomicU64,
    ops_served: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl ServerStats {
    /// Copies the counters into the snapshot struct the observability
    /// layer serializes.
    pub fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            retries_deduped: self.retries_deduped.load(Ordering::Relaxed),
            conn_errors: self.conn_errors.load(Ordering::Relaxed),
            ops_served: self.ops_served.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

struct Shared<D: BlockDevice> {
    ld: Arc<Lld<D>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running logical-disk server. Dropping it without calling
/// [`shutdown`](Server::shutdown) leaves the listener thread running
/// until the process exits; call `shutdown` for an orderly drain.
pub struct Server<D: BlockDevice + 'static> {
    shared: Arc<Shared<D>>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl<D: BlockDevice + 'static> Server<D> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections against the shared disk.
    ///
    /// # Errors
    ///
    /// Socket errors from bind; [`io::ErrorKind::InvalidInput`] if the
    /// disk is in sequential-ARU mode (tagged commits must be able to
    /// abort a retried ARU, which sequential mode cannot do).
    pub fn start(ld: Arc<Lld<D>>, addr: &str) -> io::Result<Server<D>> {
        if ld.concurrency() == ld_core::ConcurrencyMode::Sequential {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ld-server requires a concurrent-mode image",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ld,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("ld-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> ServerCounters {
        self.shared.stats.snapshot()
    }

    /// Shared handle to the disk this server fronts.
    pub fn disk(&self) -> Arc<Lld<D>> {
        Arc::clone(&self.shared.ld)
    }

    /// Gracefully shuts the server down: stop accepting, drain every
    /// session's in-flight request (new requests are refused by
    /// closing the connection), abort uncommitted session ARUs, flush
    /// so all acknowledged commits are durable, and return the disk.
    ///
    /// The flush outcome is returned alongside the disk handle: once
    /// every handler thread has been joined the `Arc` is unique again,
    /// so the caller can `Arc::try_unwrap(..)` and then
    /// [`into_device`](ld_core::Lld::into_device) — which joins the
    /// cleaner and sampler threads — to take the device out.
    pub fn shutdown(mut self) -> (Arc<Lld<D>>, Result<(), LldError>) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept()`: a throw-away
        // connection makes it return and see the flag. If none can be
        // made the thread is not waited for: it ends with its next one.
        let woken = (0..3).any(|_| TcpStream::connect_timeout(&self.addr, POLL_INTERVAL).is_ok());
        if let Some(t) = self.accept_thread.take().filter(|_| woken) {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handler registry"));
        for t in handlers {
            let _ = t.join();
        }
        // Every session has ended: acknowledged lazy commits become
        // durable here, so a post-shutdown recovery loses nothing the
        // server acknowledged.
        let flushed = self.shared.ld.flush();
        (Arc::clone(&self.shared.ld), flushed)
    }
}

fn accept_loop<D: BlockDevice + 'static>(listener: &TcpListener, shared: &Arc<Shared<D>>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
                let s = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("ld-server-session".into())
                    .spawn(move || {
                        session_loop(stream, &s);
                        s.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    })
                    .expect("spawn session thread");
                shared
                    .handlers
                    .lock()
                    .expect("handler registry")
                    .push(handle);
            }
            Err(_) => {
                // A lasting error (no descriptor left) must not spin.
                shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// Per-connection session state: the announced client identity and the
/// ARUs this connection has begun and not yet ended.
struct Session {
    client: u64,
    generation: u64,
    arus: HashSet<u64>,
}

/// Why a request failed.
enum Fault {
    /// The request is wrong: it is answered with an error response,
    /// the rest of its frame is drained, and the session goes on.
    Request(String),
    /// The connection failed: the session ends.
    Io(io::Error),
}

impl From<io::Error> for Fault {
    fn from(e: io::Error) -> Fault {
        Fault::Io(e)
    }
}

impl From<String> for Fault {
    fn from(msg: String) -> Fault {
        Fault::Request(msg)
    }
}

/// One request frame on a session's stream, with the count of its
/// payload bytes not yet read (`left`). Every frame goes through it: an ordinary request is read
/// whole, bounded by [`wire::MAX_FRAME`]; a `COMMIT` is read a field at
/// a time while it runs, bounded by its length prefix. A frame that has
/// started is read to its end, so an in-flight request is never torn —
/// bounded by [`DRAIN_GRACE`] after shutdown.
struct Frame<'a, R> {
    r: &'a mut R,
    shutdown: &'a AtomicBool,
    deadline: Option<Instant>,
    len: u32,
    left: u32,
}

impl<'a, R: Read> Frame<'a, R> {
    /// Reads the next frame's length prefix, polling the shutdown flag
    /// while the connection is idle. `Ok(None)` when the session should
    /// close: clean EOF, or shutdown observed at a frame boundary.
    fn next(r: &'a mut R, shutdown: &'a AtomicBool) -> io::Result<Option<Frame<'a, R>>> {
        let mut f = Frame {
            r,
            shutdown,
            deadline: None,
            len: 0,
            left: 0,
        };
        let mut len = [0u8; 4];
        if !f.read_polled(&mut len, true)? {
            return Ok(None);
        }
        f.len = u32::from_le_bytes(len);
        f.left = f.len;
        Ok(Some(f))
    }

    /// Fills `buf` from the stream. With `idle` set, a clean EOF or a
    /// shutdown before its first byte returns `Ok(false)`.
    fn read_polled(&mut self, buf: &mut [u8], idle: bool) -> io::Result<bool> {
        let mut n = 0usize;
        while n < buf.len() {
            match self.r.read(&mut buf[n..]) {
                Ok(0) if idle && n == 0 => return Ok(false),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(k) => n += k,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutdown.load(Ordering::SeqCst) {
                        if idle && n == 0 {
                            return Ok(false);
                        }
                        let d = *self
                            .deadline
                            .get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                        if Instant::now() > d {
                            return Err(io::ErrorKind::TimedOut.into());
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Reads the frame's next `buf.len()` bytes; a frame that holds
    /// fewer is a wrong request.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), Fault> {
        let n = u32::try_from(buf.len())
            .ok()
            .filter(|&n| n <= self.left)
            .ok_or_else(|| Fault::Request("truncated message body".into()))?;
        self.read_polled(buf, false)?;
        self.left -= n;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Fault> {
        let mut buf = [0u8; N];
        self.fill(&mut buf)?;
        Ok(buf)
    }

    fn u8(&mut self) -> Result<u8, Fault> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, Fault> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, Fault> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The rest of a frame the server holds whole. A frame longer than
    /// [`wire::MAX_FRAME`] ends the session rather than make the server
    /// allocate what a corrupt prefix asks for.
    fn rest(&mut self) -> io::Result<Vec<u8>> {
        if self.len > wire::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            ));
        }
        let mut buf = vec![0u8; self.left as usize];
        self.read_polled(&mut buf, false)?;
        self.left = 0;
        Ok(buf)
    }

    /// Reads and discards what is left of the frame.
    fn drain(&mut self) -> io::Result<()> {
        let mut scratch = [0u8; 4096];
        while self.left > 0 {
            let n = scratch.len().min(self.left as usize);
            self.read_polled(&mut scratch[..n], false)?;
            self.left -= n as u32;
        }
        Ok(())
    }
}

/// A session's read buffer: a `COMMIT` is read a few bytes at a time,
/// and this turns its fields into one read call per 64 KiB.
const READ_BUFFER: usize = 64 << 10;

fn session_loop<D: BlockDevice + 'static>(stream: TcpStream, shared: &Shared<D>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let mut sess = Session {
        client: 0,
        generation: 0,
        arus: HashSet::new(),
    };
    loop {
        let served = match Frame::next(&mut stream, &shared.shutdown) {
            Ok(Some(mut frame)) => serve(shared, &mut sess, &mut frame).map(|r| (frame.len, r)),
            Ok(None) => break,
            Err(e) => Err(e),
        };
        let Ok((len, resp)) = served else {
            shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
            break;
        };
        shared
            .stats
            .bytes_in
            .fetch_add(u64::from(len), Ordering::Relaxed);
        shared.stats.ops_served.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .bytes_out
            .fetch_add(resp.len() as u64, Ordering::Relaxed);
        if write_response(stream.get_mut(), &resp).is_err() {
            shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        // One request per drain: after answering the in-flight request,
        // a shutting-down session closes instead of reading the next.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // The connection is the failure domain: whatever this session left
    // uncommitted is undone, exactly like recovery discards ARUs with
    // no commit record.
    for aru in sess.arus.drain() {
        let _ = shared.ld.abort_aru(AruId::new(aru));
    }
}

/// Writes a response frame; a write timeout retries until the flag
/// logic in the session loop gives up (the stream's write timeout is
/// unset, so in practice this blocks until the kernel buffers it).
fn write_response(stream: &mut TcpStream, resp: &[u8]) -> io::Result<()> {
    stream.write_all(&(resp.len() as u32).to_le_bytes())?;
    stream.write_all(resp)?;
    stream.flush()
}

fn err_resp(msg: &str) -> Vec<u8> {
    let mut resp = vec![status::ERR];
    wire::put_str(&mut resp, msg);
    resp
}

/// Reads and answers one request. A wrong request is answered with an
/// error response once the rest of its frame is drained; `Err` means
/// the connection failed and the session ends.
fn serve<D: BlockDevice + 'static, R: Read>(
    shared: &Shared<D>,
    sess: &mut Session,
    frame: &mut Frame<'_, R>,
) -> io::Result<Vec<u8>> {
    let res = (|| {
        if frame.left == 0 {
            return Err(Fault::Request("empty request".into()));
        }
        let opcode = frame.u8()?;
        let body = match opcode {
            op::COMMIT => None,
            _ => Some(frame.rest()?),
        };
        // Identity gate: everything except HELLO and STATS acts on
        // behalf of a known client incarnation.
        if sess.client == 0 && !matches!(opcode, op::HELLO | op::STATS) {
            return Err(Fault::Request("hello required before this request".into()));
        }
        match body {
            None => commit(shared, sess, frame),
            Some(body) => Ok(handle_request(shared, sess, opcode, &body)?),
        }
    })();
    match res {
        Ok(resp) => Ok(resp),
        Err(Fault::Request(msg)) => {
            frame.drain()?;
            Ok(err_resp(&msg))
        }
        Err(Fault::Io(e)) => Err(e),
    }
}

fn ctx_of(sess: &Session, aru: u64) -> Result<Ctx, String> {
    if aru == 0 {
        return Ok(Ctx::Simple);
    }
    if !sess.arus.contains(&aru) {
        return Err(format!("aru{aru} is not owned by this session"));
    }
    Ok(Ctx::Aru(AruId::new(aru)))
}

// One executor per LD operation, shared by the interactive requests and
// the ops of a `COMMIT` program, so each operation's rules exist once.

fn new_list<D: BlockDevice + 'static>(ld: &Lld<D>, ctx: Ctx) -> Result<u64, String> {
    ld.new_list(ctx).map(|l| l.get()).map_err(|e| e.to_string())
}

fn new_block<D: BlockDevice + 'static>(
    ld: &Lld<D>,
    ctx: Ctx,
    list: u64,
    pred: u64,
) -> Result<u64, String> {
    if list == 0 {
        return Err("list id must be non-zero".into());
    }
    let pos = if pred == 0 {
        Position::First
    } else {
        Position::After(BlockId::new(pred))
    };
    ld.new_block(ctx, ListId::new(list), pos)
        .map(|b| b.get())
        .map_err(|e| e.to_string())
}

fn write<D: BlockDevice + 'static>(
    ld: &Lld<D>,
    ctx: Ctx,
    block: u64,
    data: &[u8],
) -> Result<(), String> {
    if block == 0 {
        return Err("block id must be non-zero".into());
    }
    ld.write(ctx, BlockId::new(block), data)
        .map_err(|e| e.to_string())
}

/// Ends `aru` as `flags` ask — a tagged or an untagged commit, then a
/// `SYNC` flush — appends `deduped generation commit_ts` to `resp`, and
/// returns whether the commit was deduped. The ARU leaves the session's set as soon as it is gone
/// (committed, or aborted by a dedup hit), before the flush, so a
/// flush error or a disconnect cannot undo a commit.
fn end_aru<D: BlockDevice + 'static>(
    shared: &Shared<D>,
    sess: &mut Session,
    aru: u64,
    flags: u8,
    write_id: u64,
    resp: &mut Vec<u8>,
) -> Result<bool, String> {
    let ld = &shared.ld;
    let id = AruId::new(aru);
    let (deduped, generation, ts) = if flags & flag::TAGGED != 0 {
        let out = ld
            .end_aru_tagged(id, sess.client, sess.generation, write_id)
            .map_err(|e| e.to_string())?;
        if out.deduped {
            shared.stats.retries_deduped.fetch_add(1, Ordering::Relaxed);
        }
        (
            out.deduped,
            out.outcome.generation,
            out.outcome.commit_ts.get(),
        )
    } else {
        ld.end_aru(id).map_err(|e| e.to_string())?;
        (false, sess.generation, 0)
    };
    sess.arus.remove(&aru);
    if flags & flag::SYNC != 0 {
        // Group commit: concurrent sync commits from other connections
        // share this barrier.
        ld.flush().map_err(|e| e.to_string())?;
    }
    resp.push(u8::from(deduped));
    resp.extend_from_slice(&generation.to_le_bytes());
    resp.extend_from_slice(&ts.to_le_bytes());
    Ok(deduped)
}

/// The most identifiers a `COMMIT` may mint: its answer carries each,
/// and an answer is a frame held whole.
const MAX_MINTED: usize = (wire::MAX_FRAME as usize - 22) / 8;

/// Runs a `COMMIT` as it is read: one fresh ARU, each op executed as
/// soon as its fields have arrived, a write's data through one
/// block-sized buffer. On any fault the ARU is aborted; the caller
/// drains what is left of the frame.
fn commit<D: BlockDevice + 'static, R: Read>(
    shared: &Shared<D>,
    sess: &mut Session,
    frame: &mut Frame<'_, R>,
) -> Result<Vec<u8>, Fault> {
    let ld = &shared.ld;
    let flags = frame.u8()?;
    let write_id = frame.u64()?;
    let n = frame.u32()?;
    let aru = ld.begin_aru().map_err(|e| e.to_string())?;
    let mut resp = vec![status::OK];
    let ran = run_program(ld, aru, n, frame).and_then(|minted| {
        if frame.left != 0 {
            return Err(Fault::Request(format!(
                "{} bytes after the program",
                frame.left
            )));
        }
        let deduped = end_aru(shared, sess, aru.get(), flags, write_id, &mut resp)?;
        // A deduped commit's ARU was aborted: its identifiers are not
        // the recorded ones.
        let minted = if deduped { &[] } else { &minted[..] };
        resp.extend_from_slice(&(minted.len() as u32).to_le_bytes());
        for id in minted {
            resp.extend_from_slice(&id.to_le_bytes());
        }
        Ok(())
    });
    if let Err(fault) = ran {
        // Gone already if the commit itself went through and only its
        // flush failed.
        let _ = ld.abort_aru(aru);
        return Err(fault);
    }
    Ok(resp)
}

/// Reads and executes the `n` ops of a program inside `aru`; returns
/// the identifiers it minted, in slot order.
fn run_program<D: BlockDevice + 'static, R: Read>(
    ld: &Lld<D>,
    aru: AruId,
    n: u32,
    frame: &mut Frame<'_, R>,
) -> Result<Vec<u64>, Fault> {
    let ctx = Ctx::Aru(aru);
    // Each slot's identifier, and whether it names a list.
    let mut minted: Vec<(u64, bool)> = Vec::new();
    let mut data = vec![0u8; ld.block_size()];
    for _ in 0..n {
        match frame.u8()? {
            op::NEW_LIST => minted.push((new_list(ld, ctx)?, true)),
            op::NEW_BLOCK => {
                let list = reference(frame, &minted, true)?;
                let pred = reference(frame, &minted, false)?;
                minted.push((new_block(ld, ctx, list, pred)?, false));
            }
            op::WRITE => {
                let block = reference(frame, &minted, false)?;
                let len = frame.u32()? as usize;
                if len > data.len() {
                    return Err(Fault::Request(format!(
                        "write of {len} bytes exceeds the {}-byte block",
                        data.len()
                    )));
                }
                frame.fill(&mut data[..len])?;
                write(ld, ctx, block, &data[..len])?;
            }
            other => return Err(Fault::Request(format!("unknown program op {other}"))),
        }
        if minted.len() > MAX_MINTED {
            return Err(Fault::Request(format!(
                "a program mints at most {MAX_MINTED} identifiers"
            )));
        }
    }
    Ok(minted.into_iter().map(|(id, _)| id).collect())
}

/// Reads one reference of a program: an identifier, or the slot of an
/// earlier allocation of the kind wanted (a list, or else a block).
fn reference<R: Read>(
    frame: &mut Frame<'_, R>,
    minted: &[(u64, bool)],
    list: bool,
) -> Result<u64, Fault> {
    let kind = if list { "list" } else { "block" };
    match frame.u8()? {
        wire::reference::ID => frame.u64(),
        wire::reference::SLOT => {
            let slot = frame.u32()?;
            match minted.get(slot as usize) {
                Some(&(id, is_list)) if is_list == list => Ok(id),
                Some(_) => Err(Fault::Request(format!("slot {slot} is not a {kind}"))),
                None => Err(Fault::Request(format!("slot {slot} is not minted yet"))),
            }
        }
        other => Err(Fault::Request(format!("unknown reference kind {other}"))),
    }
}

/// Answers one request the server holds whole.
fn handle_request<D: BlockDevice + 'static>(
    shared: &Shared<D>,
    sess: &mut Session,
    opcode: u8,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let ld = &shared.ld;
    let mut body = Body::new(payload);
    let mut resp = vec![status::OK];
    match opcode {
        op::HELLO => {
            let client = body.u64().map_err(|e| e.to_string())?;
            let generation = body.u64().map_err(|e| e.to_string())?;
            let evicted = ld
                .client_hello(client, generation)
                .map_err(|e| e.to_string())?;
            sess.client = client;
            sess.generation = generation;
            resp.extend_from_slice(&(evicted as u64).to_le_bytes());
        }
        op::BEGIN_ARU => {
            let aru = ld.begin_aru().map_err(|e| e.to_string())?;
            sess.arus.insert(aru.get());
            resp.extend_from_slice(&aru.get().to_le_bytes());
        }
        op::NEW_LIST => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            let list = new_list(ld, ctx_of(sess, aru)?)?;
            resp.extend_from_slice(&list.to_le_bytes());
        }
        op::NEW_BLOCK => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            let list = body.u64().map_err(|e| e.to_string())?;
            let pred = body.u64().map_err(|e| e.to_string())?;
            let block = new_block(ld, ctx_of(sess, aru)?, list, pred)?;
            resp.extend_from_slice(&block.to_le_bytes());
        }
        op::WRITE => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            let block = body.u64().map_err(|e| e.to_string())?;
            write(ld, ctx_of(sess, aru)?, block, body.rest())?;
        }
        op::READ => {
            let block = body.u64().map_err(|e| e.to_string())?;
            if block == 0 {
                return Err("block id must be non-zero".into());
            }
            let mut buf = vec![0u8; ld.block_size()];
            ld.read(Ctx::Simple, BlockId::new(block), &mut buf)
                .map_err(|e| e.to_string())?;
            resp.extend_from_slice(&buf);
        }
        op::END_ARU => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            let flags = body.u8().map_err(|e| e.to_string())?;
            let write_id = body.u64().map_err(|e| e.to_string())?;
            if aru == 0 || !sess.arus.contains(&aru) {
                return Err(format!("aru{aru} is not owned by this session"));
            }
            end_aru(shared, sess, aru, flags, write_id, &mut resp)?;
        }
        op::FLUSH => {
            ld.flush().map_err(|e| e.to_string())?;
        }
        op::STATS => {
            let mut snap = ld.obs_snapshot();
            snap.server = shared.stats.snapshot();
            wire::put_str(&mut resp, &snap.to_json());
        }
        op::LOOKUP => {
            let write_id = body.u64().map_err(|e| e.to_string())?;
            match ld.write_id_lookup(sess.client, write_id) {
                Some(o) => {
                    resp.push(1);
                    resp.extend_from_slice(&o.generation.to_le_bytes());
                    resp.extend_from_slice(&o.commit_ts.get().to_le_bytes());
                }
                None => resp.push(0),
            }
        }
        op::LIST_BLOCKS => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            let list = body.u64().map_err(|e| e.to_string())?;
            let ctx = ctx_of(sess, aru)?;
            if list == 0 {
                return Err("list id must be non-zero".into());
            }
            let blocks = ld
                .list_blocks(ctx, ListId::new(list))
                .map_err(|e| e.to_string())?;
            resp.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            for b in blocks {
                resp.extend_from_slice(&b.get().to_le_bytes());
            }
        }
        op::ABORT_ARU => {
            let aru = body.u64().map_err(|e| e.to_string())?;
            if aru == 0 || !sess.arus.remove(&aru) {
                return Err(format!("aru{aru} is not owned by this session"));
            }
            ld.abort_aru(AruId::new(aru)).map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown opcode {other}")),
    }
    Ok(resp)
}
