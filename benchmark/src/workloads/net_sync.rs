//! `net_sync`: two TCP connections commit synchronously through an
//! in-process server.
//!
//! Why: this is the ROADMAP's "real path" — client, wire, server
//! session, dedup, group commit, barrier. It is the only workload with
//! a barrier per commit, so overlap of barrier and transfer shows here
//! first. Each connection's 256 blocks fit the read cache, so reads
//! hit.
//!
//! The process is confined to one CPU (see
//! [`pin_to_one_cpu`](crate::measure::pin_to_one_cpu)).

use super::{
    crash_image, cut_mid_stream, device, in_step, lld_config, media, run_out, server_since, Device,
    Effective, Inject, Opts, Pass, PassOut, Reading, Restart,
};
use crate::journal_disk::JournalDisk;
use crate::measure::{pin_to_one_cpu, process_cpu_s, timed_batches, touched_buffer, Noise};
use crate::model::{self, Overwrite, OverwriteModel, BLOCK};
use crate::trace;
use ld_client::{BlockRef, Client, ClientConfig, ClientError, Durability, ListRef, Txn};
use ld_core::{AruId, BlockId, Lld, Record, Timestamp};
use ld_disk::{BlockDevice, MemDisk, SmallRng};
use ld_server::Server;
use std::sync::Arc;
use std::time::Instant;

const DEVICE_BYTES: usize = 256 << 20;
const CONNS: usize = 2;
const KEYS: usize = 256;
const WRITES_PER_TXN: usize = 2;
const RESTARTS: usize = 61;
const DURABILITY_TXNS: usize = 500;
const LOOKUPS: usize = 2000;
const SETUP_REPS: usize = 15;
/// Commits between the last checkpoint and the crash.
const RUNOUT_TXNS: usize = 64;

/// Batches per connection in the write and the read phase, and
/// transactions and reads per batch and connection at the nominal
/// `--seconds`. The batches are short and many: a commit here is half
/// processor time, and when the host takes the one CPU away for a few
/// milliseconds it spoils the batch that was running; with 60 ms
/// batches most of them stay clean and the median batch is a clean one.
const BATCHES: usize = 120;
const BATCH_TXNS: usize = 38;
const BATCH_READS: usize = 1_125;

struct Served<M: BlockDevice + 'static> {
    ld: Arc<Lld<Device<M>>>,
    server: Server<Device<M>>,
    addr: String,
}

fn serve<M: BlockDevice + 'static>(ld: Lld<Device<M>>) -> (Served<M>, f64) {
    let ld = Arc::new(ld);
    let t0 = Instant::now();
    let server = {
        let _s = trace::span("server.start");
        Server::start(Arc::clone(&ld), "127.0.0.1:0").expect("server start")
    };
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let addr = server.local_addr().to_string();
    (Served { ld, server, addr }, start_ms)
}

/// Orderly stop (every client must be gone); returns the media.
fn stop<M: BlockDevice + 'static>(s: Served<M>) -> M {
    let Served { ld, server, .. } = s;
    drop(ld);
    let (ld, flushed) = server.shutdown();
    flushed.expect("shutdown flush");
    let ld = Arc::try_unwrap(ld).unwrap_or_else(|_| panic!("server still shares the disk"));
    ld.into_device().into_inner().into_inner()
}

/// What outlives a connection: who it was and what it committed.
#[derive(Clone)]
struct Ident {
    blocks: Vec<u64>,
    model: OverwriteModel,
}

/// One connection's closed-loop load.
struct Conn {
    client: Client,
    id: Ident,
    rng: SmallRng,
    payload: Vec<u8>,
}

/// Write-id of the transaction that writes `version` (the preload is
/// version 0).
fn write_id(version: u64) -> u64 {
    version + 1
}

impl Conn {
    fn open(addr: &str, id: Ident, seed: u64) -> Conn {
        let client = {
            let _s = trace::span("client.connect");
            Client::connect(addr, id.model.owner, 1, ClientConfig::default()).expect("connect")
        };
        Conn {
            client,
            rng: SmallRng::seed_from_u64(seed ^ (id.model.owner << 32)),
            id,
            payload: vec![0u8; BLOCK],
        }
    }

    fn preload(&mut self) {
        let mut txn = Txn::new();
        let list = txn.new_list();
        let mut prev = None;
        for key in 0..KEYS {
            let b = txn.new_block(ListRef::Slot(list), prev);
            model::fill(&mut self.payload, self.id.model.owner, key as u64, 0);
            txn.write(BlockRef::Slot(b), &self.payload);
            prev = Some(BlockRef::Slot(b));
        }
        let done = self
            .client
            .commit(&txn, write_id(0), Durability::Sync)
            .expect("preload commit");
        self.id.blocks = done.ids[1..].to_vec();
    }

    /// One tagged synchronous transaction overwriting two own blocks.
    fn txn(&mut self) -> Result<(Overwrite, u64), ClientError> {
        let version = self.id.model.next_version;
        trace::set_txn(version);
        let keys: [usize; WRITES_PER_TXN] = std::array::from_fn(|_| self.rng.gen_index(KEYS));
        let t0 = Instant::now();
        let mut txn = Txn::new();
        for &k in &keys {
            model::fill(&mut self.payload, self.id.model.owner, k as u64, version);
            txn.write(BlockRef::Id(self.id.blocks[k]), &self.payload);
        }
        {
            let _s = trace::span("client.commit");
            self.client
                .commit(&txn, write_id(version), Durability::Sync)?;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        Ok((self.id.model.commit(&keys), ns))
    }

    /// Reads `key` over the wire; `None` if the read failed.
    fn read(&mut self, key: usize) -> Option<Vec<u8>> {
        let _s = trace::span("client.read");
        self.client.read(self.id.blocks[key]).ok()
    }

    /// The version each own block carries on the server.
    fn versions(&mut self) -> Vec<Option<u64>> {
        (0..KEYS)
            .map(|key| match model::decode(&self.read(key)?) {
                Some((o, k, v)) if o == self.id.model.owner && k == key as u64 => Some(v),
                _ => None,
            })
            .collect()
    }
}

fn set_up(buf: Vec<u8>, pass: Pass, seed: u64) -> (Served<MemDisk>, Vec<Conn>) {
    let ld = Lld::format(device(MemDisk::from_image(buf)), &lld_config(pass)).expect("format");
    let (served, _) = serve(ld);
    let conns = (1..=CONNS as u64)
        .map(|owner| {
            let id = Ident {
                blocks: Vec::new(),
                model: OverwriteModel::new(owner, KEYS),
            };
            let mut c = Conn::open(&served.addr, id, seed);
            c.preload();
            c
        })
        .collect();
    (served, conns)
}

/// Recover, start the server, connect, first sync commit acknowledged.
fn restart(buf: Vec<u8>, who: &Ident) -> (Restart, Served<MemDisk>) {
    let t0 = Instant::now();
    let (ld, report) = {
        let _s = trace::span("recovery.recover");
        Lld::recover(device(MemDisk::from_image(buf))).expect("recover")
    };
    let (served, server_start_ms) = serve(ld);
    let t1 = Instant::now();
    let owner = who.model.owner;
    let mut client =
        Client::connect(&served.addr, owner, 1, ClientConfig::default()).expect("connect");
    let mut txn = Txn::new();
    let mut payload = vec![0u8; BLOCK];
    model::fill(&mut payload, owner, 0, u64::MAX);
    txn.write(BlockRef::Id(who.blocks[0]), &payload);
    client
        .commit(&txn, write_id(who.model.next_version), Durability::Sync)
        .expect("first sync commit");
    let r = Restart {
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        report,
        first_commit_us: t1.elapsed().as_secs_f64() * 1e6,
        server_start_ms,
    };
    (r, served)
}

pub fn run(o: &Opts, pass: Pass) -> PassOut {
    let batch_txns = o.scaled(BATCH_TXNS, 4);
    let batch_reads = o.scaled(BATCH_READS, 16);
    let batches = o.batches(BATCHES, pass);
    let mut out = PassOut {
        threads: CONNS,
        sizes: vec![
            ("device_bytes", DEVICE_BYTES as u64),
            ("connections", CONNS as u64),
            ("keys_per_connection", KEYS as u64),
            ("batches", batches as u64),
            ("batch_txns", batch_txns as u64),
            ("batch_reads", batch_reads as u64),
            ("restarts", o.restarts(RESTARTS) as u64),
        ],
        write_batch_ops: batch_txns,
        read_batch_ops: batch_reads,
        record_mix: record_mix(),
        ..PassOut::default()
    };
    let mut noise = Noise::new();
    match pin_to_one_cpu() {
        Some(cpu) => out.sizes.push(("pinned_to_cpu", cpu as u64)),
        None => eprintln!("net_sync: cannot set the CPU affinity; running unconfined"),
    }

    // Set-up: format, server start, connects, preloads.
    let mut buf = touched_buffer(DEVICE_BYTES);
    let mut state: Option<(Served<MemDisk>, Vec<Conn>)> = None;
    for _ in 0..o.setup_reps(SETUP_REPS, pass) {
        if let Some((served, conns)) = state.take() {
            drop(conns);
            buf = stop(served).into_image();
        }
        state = Some(out.timed_set_up(|| set_up(std::mem::take(&mut buf), pass, o.seed)));
    }
    let (served, mut conns) = state.expect("at least one set-up");
    out.effective = Effective::of(&served.ld);

    // Write phase: one load thread per connection.
    let (before, srv0, cpu0) = (
        Reading::of(&served.ld),
        served.server.stats(),
        process_cpu_s(),
    );
    let (results, n) = in_step(&mut conns, |c, sync, noise| {
        let _s = trace::span("harness.write");
        let (mut ns, mut failed, mut last) = (Vec::new(), 0u64, None);
        let times = timed_batches(batches, batch_txns, noise, sync, |_| match c.txn() {
            Ok((done, t)) => {
                ns.push(t);
                last = Some(done);
            }
            Err(_) => failed += 1,
        });
        (times, ns, failed, last)
    });
    out.cpu_s_write = process_cpu_s() - cpu0;
    before.add_since(&served.ld, &mut out.lld_write, &mut out.dev_write);
    out.server_write = server_since(served.server.stats(), &srv0);
    noise.merge(n);
    let mut last = None;
    for (times, ns, failed, done) in results {
        out.write_batches.push(times);
        out.txn_ns.extend(ns);
        out.failed += failed;
        last = done.or(last);
    }
    out.commits = (CONNS * batches * batch_txns) as u64;
    out.user_bytes = out.commits * (WRITES_PER_TXN * BLOCK) as u64;
    out.attempted += out.commits;
    if pass == Pass::ObsOff {
        drop(conns);
        stop(served);
        return out.finished(noise);
    }
    if o.inject == Inject::DropCommit {
        let t = last.expect("a committed transaction");
        conns[CONNS - 1].id.model.versions[t.keys[0]] = t.version - 1;
    }

    // Read phase: each connection reads its own blocks, seeded-random.
    let before = Reading::of(&served.ld);
    let seed = o.seed;
    let (results, n) = in_step(&mut conns, |c, sync, noise| {
        let _s = trace::span("harness.read");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5 ^ c.id.model.owner);
        let (mut rtt, mut failed) = (Vec::new(), 0u64);
        let times = timed_batches(batches, batch_reads, noise, sync, |i| {
            trace::set_txn(i as u64 + 1);
            let k = rng.gen_index(KEYS);
            let t0 = Instant::now();
            let data = c.read(k);
            rtt.push(t0.elapsed().as_nanos() as u64);
            if !data.is_some_and(|d| c.id.model.holds(k, &d)) {
                failed += 1;
            }
        });
        (times, rtt, failed)
    });
    before.add_since(&served.ld, &mut out.lld_read, &mut out.dev_read);
    noise.merge(n);
    for (times, rtt, failed) in results {
        out.read_batches.push(times);
        out.read_rtt_ns.extend(rtt);
        out.failed += failed;
    }
    out.reads = (CONNS * batches * batch_reads) as u64;
    out.attempted += out.reads;

    // `Client::lookup`: TCP, decode, session dispatch and the dedup
    // probe, no disk — the per-request cost of the server path.
    let newest = write_id(conns[0].id.model.next_version - 1);
    for _ in 0..o.scaled(LOOKUPS, 50) {
        let _s = trace::span("client.lookup");
        let t0 = Instant::now();
        if !matches!(conns[0].client.lookup(newest), Ok(Some(_))) {
            out.failed += 1;
        }
        out.lookup_rtt_ns.push(t0.elapsed().as_nanos() as u64);
    }
    if pass == Pass::Traced {
        drop(conns);
        stop(served);
        return out.finished(noise);
    }

    // Crash point: a fixed number of commits after the disk's next
    // checkpoint. Every commit has been acknowledged; the image is
    // taken as it is, then the server is taken down.
    let first = &mut conns[0];
    run_out(&served.ld, RUNOUT_TXNS, 16 * batch_txns, false, || {
        out.failed += first.txn().is_err() as u64;
        true
    });
    let mut image = Vec::new();
    crash_image(media(served.ld.device()), &mut image);
    let idents: Vec<Ident> = conns.into_iter().map(|c| c.id).collect();
    let mut clone = stop(served).into_image();
    if o.inject == Inject::FlipBlock {
        let m = &idents[0].model;
        let key = (o.seed % KEYS as u64) as usize;
        assert!(model::flip_in_image(
            &mut image,
            m.owner,
            key as u64,
            m.versions[key]
        ));
    }

    // Restart phase.
    for _ in 0..o.restarts(RESTARTS) {
        clone.copy_from_slice(&image);
        let (r, served) = restart(clone, &idents[0]);
        out.restarts.push(r);
        clone = stop(served).into_image();
        noise.sample();
    }
    out.attempted += out.restarts.len() as u64;
    clone.copy_from_slice(&image);
    let (ld, _) = Lld::recover(device(MemDisk::from_image(clone))).expect("recover");
    let t0 = Instant::now();
    ld.checkpoint().expect("checkpoint");
    out.checkpoint_call_ms = t0.elapsed().as_secs_f64() * 1e3;
    clone = ld.into_device().into_inner().into_inner().into_image();

    // Durability pass, untimed: recovered contents against the model,
    // once; then more transactions from both connections with the
    // journaling wrapper under the device model, cut while commits
    // are in flight, unflushed writes rolled back.
    clone.copy_from_slice(&image);
    let journal = JournalDisk::new(MemDisk::from_image(clone));
    let (served, _) = serve(Lld::recover(device(journal)).expect("recover").0);
    let mut conns: Vec<Conn> = idents
        .into_iter()
        .map(|id| Conn::open(&served.addr, id, o.seed ^ 0xC4A5))
        .collect();
    for c in &mut conns {
        let found = c.versions();
        out.failed += c.id.model.check_recovered(&[], 0, &found);
        out.attempted += KEYS as u64;
    }
    let bases: Vec<OverwriteModel> = conns.iter().map(|c| c.id.model.clone()).collect();
    let cut = SmallRng::seed_from_u64(o.seed ^ 0xC4A5)
        .gen_range(DURABILITY_TXNS as u64 / 3, DURABILITY_TXNS as u64) as usize;
    let mut loads: Vec<(Conn, Vec<Overwrite>)> =
        conns.into_iter().map(|c| (c, Vec::new())).collect();
    let (acked_at_cut, image) = cut_mid_stream(
        &mut loads,
        cut,
        |(c, log)| {
            log.push(c.txn().ok()?.0);
            Some(log.len())
        },
        || {
            media(served.ld.device())
                .crash_image()
                .expect("crash image")
        },
    );
    let (conns, logs): (Vec<Conn>, Vec<Vec<Overwrite>>) = loads.into_iter().unzip();
    let idents: Vec<Ident> = conns.into_iter().map(|c| c.id).collect();
    stop(served);
    let (served, _) = serve(
        Lld::recover(device(MemDisk::from_image(image)))
            .expect("recover after cut")
            .0,
    );
    for (((id, base), log), acked) in idents.into_iter().zip(&bases).zip(&logs).zip(acked_at_cut) {
        let mut c = Conn::open(&served.addr, id, 0);
        out.failed += base.check_recovered(log, acked, &c.versions());
        out.attempted += (log.len() + KEYS) as u64;
    }
    stop(served);

    out.finished(noise)
}

/// One transaction's records: two tagged writes, the write-id note
/// and the commit.
fn record_mix() -> Vec<Record> {
    let aru = AruId::new(7);
    let mut v: Vec<Record> = (0..WRITES_PER_TXN as u64)
        .map(|i| Record::Write {
            block: BlockId::new(1000 + i),
            slot: i as u32,
            ts: Timestamp::new(5000 + i),
            aru: Some(aru),
        })
        .collect();
    v.push(Record::WriteId {
        aru,
        client: 1,
        generation: 1,
        write_id: 4242,
        ts: Timestamp::new(5002),
    });
    v.push(Record::Commit {
        aru,
        ts: Timestamp::new(5003),
    });
    v
}
