//! # ld-server: a Logical Disk over TCP
//!
//! A thread-per-connection TCP server exposing one shared
//! [`ld_core::Lld`] to remote clients through the length-prefixed
//! binary protocol of [`wire`] (specified in docs/PROTOCOL.md). The
//! interesting part is not the transport but the *failure contract*:
//!
//! * **A request is the failure domain.** An ARU lives for one
//!   request: [`wire::op::COMMIT`] carries a whole transaction program,
//!   and the session runs it in one fresh ARU as it reads the frame, so
//!   no buffer grows with the program. On any error — a wrong op, an LD
//!   error, a connection that fails mid-frame — the ARU is aborted,
//!   exactly as the paper's recovery discards ARUs with no commit
//!   record. No ARU outlives its request, so a session's only state is
//!   its `(client, generation)` identity.
//! * **Exactly-once commits.** A client tags its commit with a
//!   `(client, generation, write_id)` key ([`wire::flag::TAGGED`]),
//!   its write ids running 1, 2, 3 … The core keeps one row per client,
//!   moved by a record journaled inside the ARU, and the session
//!   settles the key against it before the program runs
//!   ([`wire::answer`]): a client retrying after a lost acknowledgement
//!   — or after a server crash and recovery — gets the recorded outcome
//!   instead of a re-execution, and [`wire::op::LOOKUP`] settles an id
//!   without sending its program.
//! * **Group commit for free.** Synchronous commits from different
//!   connections meet in the core's group-commit stage: one leader
//!   seals, one barrier covers the whole batch. The server adds no
//!   batching logic at all; cross-connection batching is an emergent
//!   property (`tests/server.rs` asserts that sync commits from eight
//!   connections take fewer barriers than commits).
//!
//! Shutdown ordering matters and is part of the contract:
//! [`Server::shutdown`] stops accepting, drains each session's
//! in-flight request, flushes so every *acknowledged* commit is
//! durable, and only then hands the disk back — at which point the
//! caller can `into_device()` (joining cleanerd) knowing no request
//! thread is left behind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wire;

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ld_core::{AruId, BlockId, Ctx, ListId, Lld, LldError, Position, ServerCounters, ServerStats};
use ld_disk::{BlockDevice, Mutex};

use wire::{answer, flag, op, status};

/// How often an idle session polls the shutdown flag; the accept
/// thread's back-off after an error.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// How long shutdown waits for a session's in-flight request (a frame
/// whose first byte has arrived) before abandoning the connection.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

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
    /// Socket errors from bind; the OS's refusal of the accept thread;
    /// [`io::ErrorKind::InvalidInput`] if the disk is in sequential-ARU
    /// mode (tagged commits must be able to abort a retried ARU, which
    /// sequential mode cannot do).
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
            .spawn(move || accept_loop(&listener, &accept_shared))?;
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
    /// closing the connection), flush so all acknowledged commits are
    /// durable, and return the disk.
    ///
    /// The flush outcome is returned alongside the disk handle: once
    /// every handler thread has been joined the `Arc` is unique again,
    /// so the caller can `Arc::try_unwrap(..)` and then
    /// [`into_device`](ld_core::Lld::into_device) — which joins the
    /// cleaner thread — to take the device out.
    pub fn shutdown(mut self) -> (Arc<Lld<D>>, Result<(), LldError>) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept()`: a throw-away
        // connection makes it return and see the flag. If none can be
        // made the thread is not waited for: it ends with its next one.
        let woken = (0..3).any(|_| TcpStream::connect_timeout(&self.addr, POLL_INTERVAL).is_ok());
        if let Some(t) = self.accept_thread.take().filter(|_| woken) {
            let _ = t.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock());
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
                shared.stats.sessions_opened.inc();
                let s = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("ld-server-session".into())
                    .spawn(move || {
                        session_loop(stream, &s);
                        s.stats.sessions_closed.inc();
                    });
                register_session(shared, spawned);
            }
            Err(_) => {
                // A lasting error (no descriptor left) must not spin.
                shared.stats.conn_errors.inc();
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

/// Files a new session's thread in the registry, joining the sessions
/// that have ended, so the registry holds the live ones only. A thread
/// the OS refused closes its connection (the stream went down with the
/// closure) and backs off like an accept error: the server keeps
/// accepting.
fn register_session<D: BlockDevice>(shared: &Shared<D>, spawned: io::Result<JoinHandle<()>>) {
    let mut handlers = shared.handlers.lock();
    for ended in handlers.extract_if(.., |h| h.is_finished()) {
        let _ = ended.join();
    }
    match spawned {
        Ok(handle) => handlers.push(handle),
        Err(_) => {
            drop(handlers);
            shared.stats.conn_errors.inc();
            shared.stats.sessions_closed.inc();
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Per-connection session state: the announced client identity. No
/// ARU outlives the request that began it, so there is nothing else.
struct Session {
    client: u64,
    generation: u64,
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

impl From<LldError> for Fault {
    fn from(e: LldError) -> Fault {
        Fault::Request(e.to_string())
    }
}

/// One request frame on a session's stream, with the count of its
/// payload bytes not yet read (`left`). Every request is read from it a
/// field at a time as it is served, bounded by its length prefix (and,
/// but for a `COMMIT`, by [`wire::MAX_FRAME`]). A frame that has
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

    /// Refuses bytes left over after a request's fields.
    fn end(&self) -> Result<(), Fault> {
        match self.left {
            0 => Ok(()),
            n => Err(Fault::Request(format!("{n} bytes after the request"))),
        }
    }

    /// Reads a fixed-shape request's `N` `u64` fields and checks that
    /// nothing follows them, so a wrong request is refused before it
    /// acts.
    fn fields<const N: usize>(&mut self) -> Result<[u64; N], Fault> {
        let mut out = [0u64; N];
        for v in &mut out {
            *v = self.u64()?;
        }
        self.end()?;
        Ok(out)
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

/// A session's read buffer: a request is read a few bytes at a time,
/// and this turns its fields into one read call per 64 KiB.
const READ_BUFFER: usize = 64 << 10;

fn session_loop<D: BlockDevice + 'static>(stream: TcpStream, shared: &Shared<D>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let mut sess = Session {
        client: 0,
        generation: 0,
    };
    loop {
        let served = match Frame::next(&mut stream, &shared.shutdown) {
            Ok(Some(mut frame)) => serve(shared, &mut sess, &mut frame).map(|r| (frame.len, r)),
            Ok(None) => break,
            Err(e) => Err(e),
        };
        let Ok((len, resp)) = served else {
            shared.stats.conn_errors.inc();
            break;
        };
        shared.stats.bytes_in.add(u64::from(len));
        shared.stats.ops_served.inc();
        shared.stats.bytes_out.add(resp.len() as u64);
        if wire::write_frame(stream.get_mut(), &resp).is_err() {
            shared.stats.conn_errors.inc();
            break;
        }
        // One request per drain: after answering the in-flight request,
        // a shutting-down session closes instead of reading the next.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
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
        // Only a `COMMIT` may be longer than `MAX_FRAME`: any other
        // length is a corrupt prefix, and the session ends rather than
        // drain it.
        if opcode != op::COMMIT && frame.len > wire::MAX_FRAME {
            return Err(Fault::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            )));
        }
        // Identity gate: everything except HELLO and STATS acts on
        // behalf of a known client incarnation.
        if sess.client == 0 && !matches!(opcode, op::HELLO | op::STATS) {
            return Err(Fault::Request("hello required before this request".into()));
        }
        handle_request(shared, sess, opcode, frame)
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

fn put_answer(resp: &mut Vec<u8>, answer: u8, generation: u64, stamp: u64) {
    resp.push(answer);
    resp.extend_from_slice(&generation.to_le_bytes());
    resp.extend_from_slice(&stamp.to_le_bytes());
}

/// Puts how a write id settled against the session client's row
/// ([`LldInner::write_id_lookup`](ld_core::LldInner::write_id_lookup))
/// into `resp`, unless it is the next, and says whether it is.
fn settle(
    sess: &Session,
    settled: ld_core::Result<Option<ld_core::WriteIdOutcome>>,
    resp: &mut Vec<u8>,
) -> Result<bool, Fault> {
    let (answer, generation, stamp) = match settled {
        Ok(None) => return Ok(true),
        Ok(Some(o)) => (answer::APPLIED, o.generation, o.commit_ts.get()),
        Err(LldError::WriteIdSuperseded { floor, .. }) => {
            (answer::SUPERSEDED, sess.generation, floor)
        }
        Err(LldError::WriteIdOutOfSequence { floor, .. }) => {
            (answer::OUT_OF_SEQUENCE, sess.generation, floor)
        }
        Err(e) => return Err(e.into()),
    };
    put_answer(resp, answer, generation, stamp);
    Ok(false)
}

/// The most identifiers a `COMMIT` may mint: its answer carries each,
/// and an answer is one frame.
const MAX_MINTED: usize = (wire::MAX_FRAME as usize - 22) / 8;

/// The most blocks a `LIST_BLOCKS` answer carries, for the same reason.
const MAX_LISTED: usize = (wire::MAX_FRAME as usize - 5) / 8;

/// Runs a `COMMIT` as it is read: one fresh ARU, each op executed as
/// soon as its fields have arrived, a write's data through one
/// block-sized buffer, then the commit as `flags` ask — tagged or not,
/// then a `SYNC` flush. A tagged program runs only as its client's next
/// write id: any other is settled before an ARU begins, and its frame
/// drained unread. On any fault the ARU is aborted; the caller drains
/// what is left of the frame.
fn commit<D: BlockDevice + 'static, R: Read>(
    shared: &Shared<D>,
    sess: &Session,
    frame: &mut Frame<'_, R>,
) -> Result<Vec<u8>, Fault> {
    let ld = &shared.ld;
    let flags = frame.u8()?;
    let write_id = frame.u64()?;
    let n = frame.u32()?;
    let tagged = flags & flag::TAGGED != 0;
    let mut resp = vec![status::OK];
    let mut minted = Vec::new();
    let lookup = || ld.write_id_lookup(sess.client, sess.generation, write_id);
    if !tagged || settle(sess, lookup(), &mut resp)? {
        let aru = ld.begin_aru()?;
        let ran = run_program(ld, aru, n, frame).and_then(|ids| {
            frame.end()?;
            let (generation, ts) = if tagged {
                match ld.end_aru_tagged(aru, sess.client, sess.generation, write_id) {
                    Ok(out) if !out.deduped => {
                        (out.outcome.generation, out.outcome.commit_ts.get())
                    }
                    // A racing retry of the same id, settled as the
                    // other ran it: this ARU was aborted.
                    other => {
                        settle(sess, other.map(|out| Some(out.outcome)), &mut resp)?;
                        return Ok(Vec::new());
                    }
                }
            } else {
                ld.end_aru(aru)?;
                (sess.generation, 0)
            };
            put_answer(&mut resp, answer::NEXT, generation, ts);
            Ok(ids)
        });
        minted = ran.inspect_err(|_| _ = ld.abort_aru(aru))?;
    } else {
        frame.drain()?;
    }
    if resp[1] != answer::NEXT {
        shared.stats.retries_deduped.inc();
    }
    if flags & flag::SYNC != 0 {
        // Group commit: concurrent sync commits from other connections
        // share this barrier, and a settled answer is durable too.
        ld.flush()?;
    }
    resp.extend_from_slice(&(minted.len() as u32).to_le_bytes());
    for id in minted {
        resp.extend_from_slice(&id.to_le_bytes());
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
            op::NEW_LIST => minted.push((ld.new_list(ctx)?.get(), true)),
            op::NEW_BLOCK => {
                let list = reference(frame, &minted, true)?;
                let pred = reference(frame, &minted, false)?;
                if list == 0 {
                    return Err(Fault::Request("list id must be non-zero".into()));
                }
                let pos = match pred {
                    0 => Position::First,
                    pred => Position::After(BlockId::new(pred)),
                };
                let block = ld.new_block(ctx, ListId::new(list), pos)?;
                minted.push((block.get(), false));
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
                if block == 0 {
                    return Err(Fault::Request("block id must be non-zero".into()));
                }
                ld.write(ctx, BlockId::new(block), &data[..len])?;
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

/// Answers one request. Each is read from `frame` field by field; all
/// but a `COMMIT` have a fixed shape, checked whole before they act.
fn handle_request<D: BlockDevice + 'static, R: Read>(
    shared: &Shared<D>,
    sess: &mut Session,
    opcode: u8,
    frame: &mut Frame<'_, R>,
) -> Result<Vec<u8>, Fault> {
    let ld = &shared.ld;
    let mut resp = vec![status::OK];
    match opcode {
        op::HELLO => {
            let [client, generation] = frame.fields()?;
            let floor = ld.client_hello(client, generation)?;
            sess.client = client;
            sess.generation = generation;
            resp.extend_from_slice(&floor.to_le_bytes());
        }
        op::READ => {
            let [block] = frame.fields()?;
            if block == 0 {
                return Err(Fault::Request("block id must be non-zero".into()));
            }
            let mut buf = vec![0u8; ld.block_size()];
            ld.read(Ctx::Simple, BlockId::new(block), &mut buf)?;
            resp.extend_from_slice(&buf);
        }
        op::FLUSH => {
            let [] = frame.fields()?;
            ld.flush()?;
        }
        op::STATS => {
            let [] = frame.fields()?;
            let mut snap = ld.obs_snapshot();
            snap.server = shared.stats.snapshot();
            wire::put_str(&mut resp, &snap.to_json());
        }
        op::LOOKUP => {
            let [write_id] = frame.fields()?;
            let settled = ld.write_id_lookup(sess.client, sess.generation, write_id);
            if settle(sess, settled, &mut resp)? {
                put_answer(&mut resp, answer::NEXT, sess.generation, write_id - 1);
            }
        }
        op::LIST_BLOCKS => {
            let [list] = frame.fields()?;
            if list == 0 {
                return Err(Fault::Request("list id must be non-zero".into()));
            }
            let blocks = ld.list_blocks(Ctx::Simple, ListId::new(list))?;
            if blocks.len() > MAX_LISTED {
                return Err(Fault::Request(format!(
                    "list {list} holds {} blocks; an answer lists at most {MAX_LISTED}",
                    blocks.len()
                )));
            }
            resp.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            for b in blocks {
                resp.extend_from_slice(&b.get().to_le_bytes());
            }
        }
        op::COMMIT => return commit(shared, sess, frame),
        other => return Err(Fault::Request(format!("unknown opcode {other}"))),
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::LldConfig;
    use ld_disk::MemDisk;

    fn server() -> Server<MemDisk> {
        let config = LldConfig {
            block_size: 512,
            segment_bytes: 8192,
            ..LldConfig::default()
        };
        let ld = Lld::format(MemDisk::new(1 << 20), &config).unwrap();
        Server::start(Arc::new(ld), "127.0.0.1:0").unwrap()
    }

    fn registered(srv: &Server<MemDisk>) -> usize {
        srv.shared.handlers.lock().len()
    }

    /// The registry keeps the live sessions only: each accept drops the
    /// handles of the ones that have ended.
    #[test]
    fn ended_sessions_leave_the_registry() {
        let srv = server();
        for i in 1..=100 {
            drop(TcpStream::connect(srv.local_addr()).unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while srv.stats().sessions_closed < i {
                assert!(Instant::now() < deadline, "session {i} never closed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let held = registered(&srv);
        assert!(held <= 4, "{held} handles after 100 ended sessions");
        let (_, flushed) = srv.shutdown();
        flushed.unwrap();
    }

    /// A thread the OS refuses costs one connection, not the accept
    /// thread.
    #[test]
    fn a_refused_session_thread_is_a_connection_error() {
        let srv = server();
        register_session(&srv.shared, Err(io::Error::other("no thread")));
        let stats = srv.stats();
        assert_eq!((stats.conn_errors, stats.sessions_closed), (1, 1));
        assert_eq!(registered(&srv), 0);
        let (_, flushed) = srv.shutdown();
        flushed.unwrap();
    }
}
