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
use std::io::{self, Read, Write};
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

/// Reads one frame, polling the shutdown flag while the connection is
/// idle. Returns `Ok(None)` when the session should close: clean EOF,
/// or shutdown observed at a frame boundary. Once a frame has started
/// it is drained to completion so an in-flight request is never torn —
/// bounded by [`DRAIN_GRACE`] after shutdown.
fn read_frame_poll(stream: &mut TcpStream, shutdown: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut n = 0usize;
    let mut deadline: Option<Instant> = None;
    while n < 4 {
        match stream.read(&mut len_buf[n..]) {
            Ok(0) => {
                if n == 0 {
                    return Ok(None);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(k) => n += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    if n == 0 {
                        return Ok(None);
                    }
                    let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() > d {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > wire::MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        match stream.read(&mut payload[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(k) => got += k,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if Instant::now() > d {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

fn session_loop<D: BlockDevice + 'static>(mut stream: TcpStream, shared: &Shared<D>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut sess = Session {
        client: 0,
        generation: 0,
        arus: HashSet::new(),
    };
    loop {
        let payload = match read_frame_poll(&mut stream, &shared.shutdown) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(_) => {
                shared.stats.conn_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        shared
            .stats
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let resp = handle_request(shared, &mut sess, &payload);
        shared.stats.ops_served.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .bytes_out
            .fetch_add(resp.len() as u64, Ordering::Relaxed);
        if write_response(&mut stream, &resp).is_err() {
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

fn ctx_of(sess: &Session, aru: u64) -> Result<Ctx, String> {
    if aru == 0 {
        return Ok(Ctx::Simple);
    }
    if !sess.arus.contains(&aru) {
        return Err(format!("aru{aru} is not owned by this session"));
    }
    Ok(Ctx::Aru(AruId::new(aru)))
}

fn handle_request<D: BlockDevice + 'static>(
    shared: &Shared<D>,
    sess: &mut Session,
    payload: &[u8],
) -> Vec<u8> {
    let ld = &shared.ld;
    let mut body = Body::new(payload);
    let opcode = match body.u8() {
        Ok(c) => c,
        Err(_) => return err_resp("empty request"),
    };
    // Identity gate: everything except HELLO and STATS acts on behalf
    // of a known client incarnation.
    if sess.client == 0 && !matches!(opcode, op::HELLO | op::STATS) {
        return err_resp("hello required before this request");
    }
    let res: Result<Vec<u8>, String> = (|| {
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
                let ctx = ctx_of(sess, aru)?;
                let list = ld.new_list(ctx).map_err(|e| e.to_string())?;
                resp.extend_from_slice(&list.get().to_le_bytes());
            }
            op::NEW_BLOCK => {
                let aru = body.u64().map_err(|e| e.to_string())?;
                let list = body.u64().map_err(|e| e.to_string())?;
                let pred = body.u64().map_err(|e| e.to_string())?;
                let ctx = ctx_of(sess, aru)?;
                if list == 0 {
                    return Err("list id must be non-zero".into());
                }
                let pos = if pred == 0 {
                    Position::First
                } else {
                    Position::After(BlockId::new(pred))
                };
                let block = ld
                    .new_block(ctx, ListId::new(list), pos)
                    .map_err(|e| e.to_string())?;
                resp.extend_from_slice(&block.get().to_le_bytes());
            }
            op::WRITE => {
                let aru = body.u64().map_err(|e| e.to_string())?;
                let block = body.u64().map_err(|e| e.to_string())?;
                let ctx = ctx_of(sess, aru)?;
                if block == 0 {
                    return Err("block id must be non-zero".into());
                }
                ld.write(ctx, BlockId::new(block), body.rest())
                    .map_err(|e| e.to_string())?;
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
                let id = AruId::new(aru);
                let (deduped, generation, ts) = if flags & flag::TAGGED != 0 {
                    let out = ld
                        .end_aru_tagged(id, sess.client, sess.generation, write_id)
                        .map_err(|e| e.to_string())?;
                    if out.deduped {
                        shared.stats.retries_deduped.fetch_add(1, Ordering::Relaxed);
                    }
                    (
                        u8::from(out.deduped),
                        out.outcome.generation,
                        out.outcome.commit_ts.get(),
                    )
                } else {
                    ld.end_aru(id).map_err(|e| e.to_string())?;
                    (0, sess.generation, 0)
                };
                // The ARU is gone either way (committed, or aborted by
                // a dedup hit).
                sess.arus.remove(&aru);
                if flags & flag::SYNC != 0 {
                    // Group commit: concurrent sync commits from other
                    // connections share this barrier.
                    ld.flush().map_err(|e| e.to_string())?;
                }
                resp.push(deduped);
                resp.extend_from_slice(&generation.to_le_bytes());
                resp.extend_from_slice(&ts.to_le_bytes());
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
    })();
    match res {
        Ok(resp) => resp,
        Err(msg) => err_resp(&msg),
    }
}
