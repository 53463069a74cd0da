//! Implementation of the `ldctl` command-line tool.
//!
//! Each subcommand is a function from parsed arguments to a printable
//! report, so the whole surface is unit-testable without spawning
//! processes. See [`run`] for the dispatch table and `ldctl help` for
//! usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ld_core::obs::json;
use ld_core::{ConcurrencyMode, Ctx, ListId, Lld, LldConfig, ObsConfig, ObsSnapshot, Position};
use ld_disk::{DiskModel, FileDisk, LatencyDisk, MemDisk, SimDisk};
use ld_minixfs::{FsConfig, MinixFs};
use std::fmt::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Errors produced by `ldctl` commands.
#[derive(Debug)]
pub enum CtlError {
    /// Bad command line.
    Usage(String),
    /// A device error.
    Disk(ld_disk::DiskError),
    /// A logical-disk error.
    Ld(ld_core::LldError),
    /// A file-system error.
    Fs(ld_minixfs::FsError),
    /// Local file I/O.
    Io(std::io::Error),
    /// Malformed snapshot / trace data handed to a command.
    Parse(String),
    /// A remote-server client error (`stats --remote`).
    Net(ld_client::ClientError),
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::Usage(msg) => write!(f, "usage error: {msg}"),
            CtlError::Disk(e) => write!(f, "{e}"),
            CtlError::Ld(e) => write!(f, "{e}"),
            CtlError::Fs(e) => write!(f, "{e}"),
            CtlError::Io(e) => write!(f, "{e}"),
            CtlError::Parse(msg) => write!(f, "parse error: {msg}"),
            CtlError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<ld_disk::DiskError> for CtlError {
    fn from(e: ld_disk::DiskError) -> Self {
        CtlError::Disk(e)
    }
}
impl From<ld_core::LldError> for CtlError {
    fn from(e: ld_core::LldError) -> Self {
        CtlError::Ld(e)
    }
}
impl From<ld_minixfs::FsError> for CtlError {
    fn from(e: ld_minixfs::FsError) -> Self {
        CtlError::Fs(e)
    }
}
impl From<std::io::Error> for CtlError {
    fn from(e: std::io::Error) -> Self {
        CtlError::Io(e)
    }
}
impl From<ld_client::ClientError> for CtlError {
    fn from(e: ld_client::ClientError) -> Self {
        CtlError::Net(e)
    }
}

/// Result alias for `ldctl` commands.
pub type Result<T> = std::result::Result<T, CtlError>;

/// Usage text.
pub const USAGE: &str = "\
ldctl — Logical Disk image tool

  ldctl format <image> --size <bytes> [--block-size N] [--segment-bytes N]
               [--sequential] [--with-fs [--inodes N]]
  ldctl info <image>              print superblock and recovery summary
  ldctl check <image>             recover, reclaim orphans, report
  ldctl dump <image>              list allocated lists and blocks
  ldctl ls <image> <path>         list a directory of the file system
  ldctl stat <image> <path>       show file metadata
  ldctl cat <image> <path>        print a file's contents (lossy UTF-8)
  ldctl put <image> <path> <local-file>   copy a local file in
  ldctl verify <image>            run the file-system consistency check
  ldctl serve <image> [--addr HOST:PORT]
                                  recover the image and serve it over TCP
                                  (default 127.0.0.1:9931); prints
                                  \"listening on <addr>\" when ready, then
                                  runs until stdin reads \"quit\" or closes,
                                  draining sessions and flushing before exit
                                  (see docs/PROTOCOL.md for the protocol)
  ldctl stats [<image>] [--json] [--threads N]
              [--snapshot-file <path>] [--remote HOST:PORT]
                                  observability snapshot: counters, latency
                                  histograms (one per stage), trace events;
                                  with no image, runs a scripted in-memory
                                  workload on the simulated disk; --threads N
                                  drives it from N OS threads sharing the
                                  disk (group-commit batching under load);
                                  --snapshot-file renders a snapshot saved
                                  earlier with `stats --json` instead of
                                  running anything; --remote fetches the
                                  snapshot (including the server's session
                                  counters) from a running `ldctl serve`
  ldctl trace [--chrome] [--threads N] [--out FILE]
              [--snapshot-file <path>]
                                  run the multi-threaded workload (default
                                  8 threads) with a large trace ring and
                                  export the commit trace; --chrome emits
                                  Chrome Trace Event Format for
                                  chrome://tracing / Perfetto, otherwise a
                                  human-readable event table
  ldctl top [--threads N] [--hz N] [--jsonl FILE]
                                  run the workload, sample its metrics as
                                  it runs (default 200 Hz) and print
                                  per-interval commit / flush / block
                                  rates; --jsonl also writes the raw
                                  samples as JSON Lines
  ldctl flight <dump-file>        pretty-print a crash flight-recorder
                                  dump (see LD_ARU_FLIGHT_DIR)
  ldctl help                      this text
";

fn parse_u64(args: &[String], flag: &str) -> Result<Option<u64>> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        let v = args
            .get(i + 1)
            .ok_or_else(|| CtlError::Usage(format!("{flag} needs a value")))?;
        return v
            .parse()
            .map(Some)
            .map_err(|_| CtlError::Usage(format!("{flag}: not a number: {v}")));
    }
    Ok(None)
}

fn parse_str<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        return args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| CtlError::Usage(format!("{flag} needs a value")));
    }
    Ok(None)
}

/// Flags whose next argument is a value, not an operand — used when
/// scanning for a bare operand such as the image path.
const VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--snapshot-file",
    "--out",
    "--jsonl",
    "--hz",
    "--remote",
    "--addr",
];

fn bare_operand(args: &[String]) -> Option<&String> {
    args.iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a)
}

/// `ldctl format`.
pub fn cmd_format(image: &str, args: &[String]) -> Result<String> {
    let size = parse_u64(args, "--size")?
        .ok_or_else(|| CtlError::Usage("format requires --size <bytes>".into()))?;
    let config = LldConfig {
        block_size: parse_u64(args, "--block-size")?.unwrap_or(4096) as usize,
        segment_bytes: parse_u64(args, "--segment-bytes")?.unwrap_or(512 * 1024) as usize,
        concurrency: if args.iter().any(|a| a == "--sequential") {
            ConcurrencyMode::Sequential
        } else {
            ConcurrencyMode::Concurrent
        },
        ..LldConfig::default()
    };
    let device = FileDisk::create(image, size)?;
    let ld = Lld::format(device, &config)?;
    let mut out = format!(
        "formatted {image}: {} segments of {} KiB, {} byte blocks, {:?} ARUs\n",
        ld.n_segments(),
        ld.segment_bytes() / 1024,
        ld.block_size(),
        config.concurrency,
    );
    if args.iter().any(|a| a == "--with-fs") {
        let inodes = parse_u64(args, "--inodes")?.unwrap_or(4096) as u32;
        ld.flush()?;
        let fs = MinixFs::format(
            ld,
            FsConfig {
                inode_count: inodes,
                ..FsConfig::default()
            },
        )?;
        let _ = writeln!(out, "created MinixLLD file system with {inodes} inodes");
        drop(fs);
    } else {
        ld.flush()?;
    }
    Ok(out)
}

/// `ldctl info`.
pub fn cmd_info(image: &str) -> Result<String> {
    let device = FileDisk::open(image)?;
    let (_, concurrency, visibility) = Lld::probe(&device)?;
    let (ld, report) = Lld::recover_with(
        device,
        &LldConfig {
            concurrency,
            visibility,
            check_on_recovery: false,
            ..LldConfig::default()
        },
    )?;
    let mut out = String::new();
    let _ = writeln!(out, "image:            {image}");
    let _ = writeln!(out, "block size:       {} bytes", ld.block_size());
    let _ = writeln!(out, "segment size:     {} bytes", ld.segment_bytes());
    let _ = writeln!(
        out,
        "segments:         {} total, {} free",
        ld.n_segments(),
        ld.free_segments()
    );
    let _ = writeln!(out, "concurrency:      {:?}", ld.concurrency());
    let _ = writeln!(out, "read visibility:  {:?}", ld.visibility());
    let _ = writeln!(
        out,
        "allocated:        {} blocks, {} lists",
        ld.allocated_block_count(),
        ld.allocated_list_count()
    );
    let _ = writeln!(out, "checkpoint seq:   {}", report.checkpoint_seq);
    let _ = writeln!(
        out,
        "recovery:         {} slots probed in {} reads, {} segments replayed, {} records, {} ARUs committed, {} discarded",
        report.segments_scanned,
        report.scan_reads,
        report.segments_replayed,
        report.records_applied,
        report.committed_arus,
        report.discarded_arus
    );
    let _ = writeln!(
        out,
        "restart:          {} snapshot slabs in {} bytes",
        report.snap_shards, report.snapshot_bytes
    );
    let _ = writeln!(
        out,
        "restart phases:   load {}us, scan {}us, replay {}us, finalize {}us",
        report.snapshot_load_ns / 1_000,
        report.scan_ns / 1_000,
        report.replay_ns / 1_000,
        report.finalize_ns / 1_000
    );
    let _ = writeln!(
        out,
        "load parts:       read {}us, check {}us, rows {}us, residents {}us",
        report.snapshot_read_ns / 1_000,
        report.snapshot_check_ns / 1_000,
        report.snapshot_rows_ns / 1_000,
        report.snapshot_residents_ns / 1_000
    );
    Ok(out)
}

/// `ldctl check`: recover with the orphan check and persist the result.
pub fn cmd_check(image: &str) -> Result<String> {
    let device = FileDisk::open(image)?;
    let (ld, report) = Lld::recover(device)?;
    ld.flush()?;
    Ok(format!(
        "recovered {image}: {} ARUs committed, {} discarded, {} orphaned blocks reclaimed\n",
        report.committed_arus, report.discarded_arus, report.orphan_blocks_freed
    ))
}

/// `ldctl dump`.
pub fn cmd_dump(image: &str) -> Result<String> {
    let device = FileDisk::open(image)?;
    let (ld, _) = Lld::recover_with(
        device,
        &LldConfig {
            check_on_recovery: false,
            ..LldConfig::default()
        },
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} allocated blocks on {} lists",
        ld.allocated_block_count(),
        ld.allocated_list_count()
    );
    // List ids are small integers in practice; scan a generous range.
    let mut found = 0u64;
    let mut raw = 1u64;
    while found < ld.allocated_list_count() && raw < 1_000_000 {
        let list = ListId::new(raw);
        if let Ok(blocks) = ld.list_blocks(Ctx::Simple, list) {
            let _ = writeln!(out, "  {list}: {} blocks {:?}", blocks.len(), blocks);
            found += 1;
        }
        raw += 1;
    }
    Ok(out)
}

fn open_fs(image: &str) -> Result<MinixFs<Lld<FileDisk>>> {
    let device = FileDisk::open(image)?;
    let (ld, _) = Lld::recover(device)?;
    Ok(MinixFs::mount(ld, FsConfig::default())?)
}

/// `ldctl ls`.
pub fn cmd_ls(image: &str, path: &str) -> Result<String> {
    let mut fs = open_fs(image)?;
    let mut out = String::new();
    let mut entries = fs.readdir(path)?;
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let st = fs.stat(e.ino)?;
        let _ = writeln!(
            out,
            "{:>10}  {:?}  {} ({})",
            st.size, st.kind, e.name, e.ino
        );
    }
    Ok(out)
}

/// `ldctl stat`.
pub fn cmd_stat(image: &str, path: &str) -> Result<String> {
    let mut fs = open_fs(image)?;
    let ino = fs.lookup(path)?;
    let st = fs.stat(ino)?;
    Ok(format!(
        "{path}: {:?}, {} bytes, {} blocks, {} links, {}\n",
        st.kind, st.size, st.blocks, st.nlinks, st.ino
    ))
}

/// `ldctl cat`.
pub fn cmd_cat(image: &str, path: &str) -> Result<String> {
    let mut fs = open_fs(image)?;
    let ino = fs.lookup(path)?;
    let st = fs.stat(ino)?;
    // No more than the file's blocks hold: `read_at` refuses a size
    // past them.
    let held = st.blocks * fs.ld().block_size() as u64;
    let mut buf = vec![0u8; st.size.min(held) as usize];
    fs.read_at(ino, 0, &mut buf)?;
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// `ldctl put`.
pub fn cmd_put(image: &str, path: &str, local: &str) -> Result<String> {
    let data = std::fs::read(local)?;
    let mut fs = open_fs(image)?;
    let ino = match fs.lookup(path) {
        Ok(ino) => ino,
        Err(ld_minixfs::FsError::NotFound(_)) => fs.create(path)?,
        Err(e) => return Err(e.into()),
    };
    fs.write_at(ino, 0, &data)?;
    fs.flush()?;
    Ok(format!("wrote {} bytes to {path}\n", data.len()))
}

/// `ldctl verify`.
pub fn cmd_verify(image: &str) -> Result<String> {
    let mut fs = open_fs(image)?;
    let report = fs.verify()?;
    let mut out = format!(
        "{} files, {} directories: {}\n",
        report.files,
        report.dirs,
        if report.is_consistent() {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    for p in &report.problems {
        let _ = writeln!(out, "  problem: {p}");
    }
    Ok(out)
}

/// `ldctl serve`: recover an image and serve it over TCP until stdin
/// says stop.
///
/// Prints `listening on <addr>` (flushed, so a supervising process can
/// wait for readiness), then blocks reading stdin; a `quit` line or
/// EOF triggers the graceful path — stop accepting, drain in-flight
/// requests, abort uncommitted session ARUs, flush, join the cleaner —
/// so every acknowledged commit is on disk before the process exits.
/// A SIGKILL instead leaves whatever the log had flushed; the next
/// `serve` (or `check`) recovers it, including the write-id dedup
/// cache that lets clients reconcile retries.
pub fn cmd_serve(image: &str, args: &[String]) -> Result<String> {
    use std::io::BufRead as _;
    use std::io::Write as _;
    use std::sync::Arc;

    let addr = parse_str(args, "--addr")?.unwrap_or("127.0.0.1:9931");
    let device = FileDisk::open(image)?;
    let (_, concurrency, visibility) = Lld::probe(&device)?;
    let (ld, report) = Lld::recover_with(
        device,
        &LldConfig {
            concurrency,
            visibility,
            ..LldConfig::default()
        },
    )?;
    let ld = Arc::new(ld);
    let server = ld_server::Server::start(Arc::clone(&ld), addr)?;
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush()?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let counters = server.stats();
    let (ld_back, flushed) = server.shutdown();
    flushed?;
    drop(ld);
    let lld = Arc::try_unwrap(ld_back).map_err(|_| {
        CtlError::Io(std::io::Error::other(
            "server handle still referenced after shutdown",
        ))
    })?;
    // Joins the background cleaner thread and closes the image file.
    drop(lld.into_device());
    Ok(format!(
        "shut down cleanly: {} sessions served ({} ops, {} retries deduplicated), \
         recovery had replayed {} segments\n",
        counters.sessions_opened,
        counters.ops_served,
        counters.retries_deduped,
        report.segments_replayed,
    ))
}

/// `ldctl stats`: print an observability snapshot.
///
/// With an image, recovers it and reports the recovery counters (torn
/// tails, replayed segments) plus the live stats of the recovered disk.
/// Without an image, runs a small scripted workload — file creates,
/// writes, reads, a delete, one explicitly committed ARU and one
/// aborted ARU — on a simulated in-memory disk, so every layer of the
/// snapshot (disk service times, LLD counters, histograms, trace
/// events, file-system ops) is exercised. `--threads N` (no
/// image) instead drives the simulated disk from N OS threads running
/// synchronous disjoint ARUs, so the group-commit counters and the
/// batch-size histogram carry real contention.
pub fn cmd_stats(args: &[String]) -> Result<String> {
    let json = args.iter().any(|a| a == "--json");
    let threads = parse_u64(args, "--threads")?.unwrap_or(1) as usize;
    let snapshot_file = parse_str(args, "--snapshot-file")?;
    let remote = parse_str(args, "--remote")?;
    // Skip flags and their values when looking for the image operand.
    let image = bare_operand(args);

    let snap = match (remote, snapshot_file, image) {
        (Some(addr), _, _) => {
            // Anonymous session: client id 0 skips the handshake, so a
            // monitoring poll never occupies a client identity.
            let mut c = ld_client::Client::connect(addr, 0, 0, ld_client::ClientConfig::default())?;
            let text = c.stats_json()?;
            ObsSnapshot::from_json(&text).map_err(CtlError::Parse)?
        }
        (None, Some(path), _) => {
            let text = std::fs::read_to_string(path)?;
            ObsSnapshot::from_json(&text).map_err(CtlError::Parse)?
        }
        (None, None, Some(image)) => {
            let device = FileDisk::open(image)?;
            let (ld, _) = Lld::recover(device)?;
            ld.obs_snapshot()
        }
        (None, None, None) if threads > 1 => {
            threaded_snapshot(threads, ObsConfig::default().ring_capacity)?
        }
        (None, None, None) => scripted_snapshot()?,
    };
    if json {
        Ok(format!("{}\n", snap.to_json()))
    } else {
        Ok(format!("{snap}"))
    }
}

/// The no-image `stats` workload (see [`cmd_stats`]).
fn scripted_snapshot() -> Result<ld_core::ObsSnapshot> {
    let sim = SimDisk::new(MemDisk::new(8 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(
        sim,
        &LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            ..LldConfig::default()
        },
    )?;
    let mut fs = MinixFs::format(
        ld,
        FsConfig {
            inode_count: 64,
            ..FsConfig::default()
        },
    )?;

    // File-system traffic: creates, writes, reads, a delete, a flush.
    let a = fs.create("/a.txt")?;
    fs.write_at(a, 0, &[0x61u8; 2048])?;
    let b = fs.create("/b.txt")?;
    fs.write_at(b, 0, &[0x62u8; 512])?;
    let mut buf = vec![0u8; 2048];
    fs.read_at(a, 0, &mut buf)?;
    fs.unlink("/b.txt")?;
    fs.flush()?;

    // Direct logical-disk traffic: one committed ARU (with a
    // copy-on-write of a committed block) and one aborted ARU.
    let ld = fs.ld();
    let aru = ld.begin_aru()?;
    let list = ld.new_list(Ctx::Aru(aru))?;
    let blk = ld.new_block(Ctx::Aru(aru), list, Position::First)?;
    ld.write(Ctx::Aru(aru), blk, &[1u8; 512])?;
    ld.end_aru(aru)?;
    let aru = ld.begin_aru()?;
    ld.write(Ctx::Aru(aru), blk, &[2u8; 512])?;
    ld.abort_aru(aru)?;
    ld.flush()?;

    let mut snap = fs.ld().obs_snapshot();
    snap.fs_ops = fs.stats().as_named_counters();
    Ok(snap)
}

/// The `stats --threads N` and `trace` workload: N OS threads share
/// one simulated logical disk through its `&self` interface, each
/// committing a stream of synchronous disjoint ARUs (see
/// [`cmd_stats`]). `trace` passes a ring large enough to hold every
/// stage event of the run, so its export is complete rather than a
/// tail.
fn threaded_snapshot(threads: usize, ring_capacity: usize) -> Result<ObsSnapshot> {
    let ld = latency_lld(ring_capacity)?;
    ld_workload::MtWorkload::smoke(threads).run(&ld)?;
    Ok(ld.obs_snapshot())
}

/// The disk of the multi-threaded workloads, with a trace ring of
/// `ring_capacity` events.
///
/// The simulated device is wrapped in a [`LatencyDisk`] so each write
/// barrier costs real wall-clock time: that is the window in which
/// concurrent durability callers pile into one group-commit batch, and
/// without it the batching counters these commands exist to show would
/// stay at 1.
fn latency_lld(ring_capacity: usize) -> Result<Lld<LatencyDisk<SimDisk<MemDisk>>>> {
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    Ok(Lld::format(
        LatencyDisk::new(sim, Duration::from_micros(500)),
        &LldConfig {
            block_size: 512,
            segment_bytes: 16 * 512,
            obs: ObsConfig {
                ring_capacity,
                ..ObsConfig::default()
            },
            ..LldConfig::default()
        },
    )?)
}

/// `ldctl trace`: run the multi-threaded workload and export its
/// commit trace.
///
/// With `--chrome`, emits Chrome Trace Event Format (load the file at
/// `chrome://tracing` or <https://ui.perfetto.dev>): one row per OS
/// thread, one nested span stack per traced commit, instant markers
/// for group commits and faults. Without it, prints a human-readable
/// event table. `--snapshot-file <path>` converts a previously saved
/// `stats --json` snapshot instead of running a workload; `--out FILE`
/// writes the export to a file instead of stdout.
pub fn cmd_trace(args: &[String]) -> Result<String> {
    let chrome = args.iter().any(|a| a == "--chrome");
    let threads = parse_u64(args, "--threads")?.unwrap_or(8) as usize;
    let out_file = parse_str(args, "--out")?;
    let snap = match parse_str(args, "--snapshot-file")? {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            ObsSnapshot::from_json(&text).map_err(CtlError::Parse)?
        }
        None => threaded_snapshot(threads, 1 << 15)?,
    };
    let rendered = if chrome {
        snap.to_chrome_trace()
    } else {
        render_trace_table(&snap)
    };
    match out_file {
        Some(path) => {
            std::fs::write(path, &rendered)?;
            Ok(format!(
                "wrote {} bytes ({} events, {} dropped) to {path}\n",
                rendered.len(),
                snap.events.len(),
                snap.dropped_events
            ))
        }
        None => Ok(rendered),
    }
}

/// The human-readable rendering of a trace (see [`cmd_trace`]).
fn render_trace_table(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} trace events ({} dropped by ring wraparound)",
        snap.events.len(),
        snap.dropped_events
    );
    let _ = writeln!(out, "{:>6} {:>10}  {:<6} event", "seq", "wall", "thread");
    for e in &snap.events {
        let _ = writeln!(
            out,
            "{:>6} {:>8}us  tid{:<3} {:?}",
            e.seq, e.wall_us, e.tid, e.event
        );
    }
    out
}

/// `ldctl top`: run the multi-threaded workload, sample its metrics
/// while it runs and render the time series as per-interval rates,
/// `top`-style.
///
/// `--hz N` sets the sampling frequency (default 200), `--jsonl FILE`
/// additionally writes the raw samples as JSON Lines (one
/// `{"t_ms":…,"snapshot":{…}}` object per line) for offline analysis.
pub fn cmd_top(args: &[String]) -> Result<String> {
    let threads = parse_u64(args, "--threads")?.unwrap_or(4) as usize;
    let hz = parse_u64(args, "--hz")?.unwrap_or(200);
    if !(1..=1000).contains(&hz) {
        return Err(CtlError::Usage("--hz must be in (0, 1000]".into()));
    }
    let jsonl_file = parse_str(args, "--jsonl")?;
    let samples = sampled(threads, Duration::from_secs_f64(1.0 / hz as f64))?;
    if let Some(path) = jsonl_file {
        let mut jsonl = String::new();
        for (t_ms, snapshot) in &samples {
            let mut o = json::Obj::new();
            o.u64("t_ms", *t_ms).raw("snapshot", &snapshot.to_json());
            jsonl.push_str(&o.finish());
            jsonl.push('\n');
        }
        std::fs::write(path, jsonl)?;
    }
    Ok(render_top(&samples))
}

/// Runs the multi-threaded workload while a scoped thread samples the
/// disk every `period`, returning `(t_ms, snapshot)` pairs: milliseconds
/// since the run began and the cumulative counters and histograms then.
/// A sample before the run and one after it give the series a zero
/// baseline and a final point, even when the workload finishes inside
/// one period.
fn sampled(threads: usize, period: Duration) -> Result<Vec<(u64, ObsSnapshot)>> {
    let ld = latency_lld(ObsConfig::default().ring_capacity)?;
    let start = Instant::now();
    let sample = || {
        let mut snapshot = ld.obs_snapshot();
        // A time series carries the numbers; the trace ring stays with
        // the disk.
        snapshot.events = Vec::new();
        (start.elapsed().as_millis() as u64, snapshot)
    };
    let wl = ld_workload::MtWorkload {
        arus_per_thread: 100,
        ..ld_workload::MtWorkload::smoke(threads)
    };
    let mut samples = vec![sample()];
    std::thread::scope(|s| {
        // Dropping the sender wakes the sampling thread at once.
        let (done, done_rx) = mpsc::channel::<()>();
        let sampler = s.spawn(move || {
            let mut series = Vec::new();
            while done_rx.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                series.push(sample());
            }
            series
        });
        let run = wl.run(&ld);
        drop(done);
        samples.extend(sampler.join().expect("the sampling thread panicked"));
        run
    })?;
    samples.push(sample());
    Ok(samples)
}

/// The `top` table: per-interval deltas of the headline counters (see
/// [`cmd_top`]).
fn render_top(samples: &[(u64, ObsSnapshot)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} samples over {} ms",
        samples.len(),
        samples.last().map(|(t, _)| *t).unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "t_ms", "commits", "batches", "blocks", "seals", "inflight"
    );
    let d = |a: u64, b: u64| b.saturating_sub(a);
    for pair in samples.windows(2) {
        let (_, prev) = &pair[0];
        let (t, cur) = &pair[1];
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            t,
            d(prev.lld.arus_committed, cur.lld.arus_committed),
            d(prev.lld.flush_batches, cur.lld.flush_batches),
            d(prev.lld.data_blocks_written, cur.lld.data_blocks_written),
            d(prev.lld.segments_sealed, cur.lld.segments_sealed),
            cur.lld.inflight_barriers,
        );
    }
    let (_, last) = samples.last().expect("a run has a first and a last sample");
    let _ = writeln!(
        out,
        "totals: {} commits, {} flush batches, {} blocks, {} seals, {} trace events dropped",
        last.lld.arus_committed,
        last.lld.flush_batches,
        last.lld.data_blocks_written,
        last.lld.segments_sealed,
        last.lld.trace_events_dropped,
    );
    out
}

/// `ldctl flight`: pretty-print a crash flight-recorder dump written
/// by the disk on a cleaner pass error or a cleaner-thread panic.
pub fn cmd_flight(file: &str) -> Result<String> {
    let text = std::fs::read_to_string(file)?;
    let v = json::parse(&text).map_err(CtlError::Parse)?;
    let field = |key: &str| v.get(key).and_then(json::Value::as_str).unwrap_or("?");
    let num = |key: &str| v.get(key).and_then(json::Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "flight dump:  {file}");
    let _ = writeln!(out, "reason:       {}", field("reason"));
    let _ = writeln!(out, "detail:       {}", field("detail"));
    let _ = writeln!(out, "pid:          {}", num("pid"));
    let _ = writeln!(out, "dump seq:     {}", num("dump_seq"));
    let snap = v
        .get("snapshot")
        .ok_or_else(|| CtlError::Parse("missing snapshot".into()))
        .and_then(|s| ObsSnapshot::from_value(s).map_err(CtlError::Parse))?;
    let _ = writeln!(out);
    let _ = write!(out, "{snap}");
    Ok(out)
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// [`CtlError::Usage`] for unknown or malformed commands; otherwise the
/// underlying stack's errors.
pub fn run(args: &[String]) -> Result<String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let image = args.get(1).map(String::as_str);
    let need_image = || image.ok_or_else(|| CtlError::Usage(format!("{cmd} requires <image>")));
    let arg2 = |name: &str| {
        args.get(2)
            .map(String::as_str)
            .ok_or_else(|| CtlError::Usage(format!("{cmd} requires <{name}>")))
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "format" => cmd_format(need_image()?, &args[2..]),
        "info" => cmd_info(need_image()?),
        "check" => cmd_check(need_image()?),
        "dump" => cmd_dump(need_image()?),
        "ls" => cmd_ls(need_image()?, arg2("path")?),
        "stat" => cmd_stat(need_image()?, arg2("path")?),
        "cat" => cmd_cat(need_image()?, arg2("path")?),
        "verify" => cmd_verify(need_image()?),
        "serve" => cmd_serve(need_image()?, &args[2..]),
        "stats" => cmd_stats(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "flight" => {
            let file = args
                .get(1)
                .ok_or_else(|| CtlError::Usage("flight requires <dump-file>".into()))?;
            cmd_flight(file)
        }
        "put" => {
            let local = args
                .get(3)
                .ok_or_else(|| CtlError::Usage("put requires <local-file>".into()))?;
            cmd_put(need_image()?, arg2("path")?, local)
        }
        other => Err(CtlError::Usage(format!(
            "unknown command {other}; try `ldctl help`"
        ))),
    }
}
