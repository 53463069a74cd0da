//! `local_append`: two threads allocate and fill new two-block lists
//! on a device that never wraps.
//!
//! Why: allocation and disjoint-shard mutation in parallel, summary
//! encode, and no cleaning at all (the contrast to `local_churn`). It
//! is the only workload with a long un-checkpointed log, so restart is
//! dominated by scan and replay (the contrast to `local_churn`'s
//! snapshot load).
//!
//! The device holds only so many appends, so the run is cut into
//! rounds, each on a re-formatted device (one recycled buffer). A
//! round's format and pre-creation is one `setup_s` sample; its write
//! and read batches and its restarts join the other rounds'.

use super::{
    crash_image, cut_mid_stream, in_step, into_image, lld_config, media, mem_device, Effective,
    Inject, MemDevice, Opts, Pass, PassOut, Reading, Restart,
};
use crate::journal_disk::JournalDisk;
use crate::measure::{process_cpu_s, timed_batches, touched_buffer, Noise};
use crate::model::{self, check_append_prefix, Presence, BLOCK};
use crate::trace::{self, span};
use crate::traced::TracedLd;
use ld_core::{
    AruId, BlockId, Ctx, ListId, Lld, LldError, LogicalDisk, Position, Record, Timestamp,
};
use ld_disk::{MemDisk, SmallRng};
use std::time::Instant;

const DEVICE_BYTES: usize = 128 << 20;
const THREADS: usize = 2;
const ROUNDS: usize = 8;
const BATCHES_PER_ROUND: usize = 6;
const READ_BATCHES_PER_ROUND: usize = 3;
const PRECREATED_LISTS: usize = 1024;
const FLUSH_EVERY: usize = 64;
const RESTARTS_PER_ROUND: usize = 6;
const DURABILITY_ARUS: usize = 1000;

/// ARUs and reads per batch and thread at the nominal `--seconds`; a
/// round's appends must fit the device without wrapping the log.
const BATCH_ARUS: usize = 448;
const BATCH_READS: usize = 1_000;

type Disk<D> = TracedLd<Lld<D>>;

/// One committed append: the list and its two blocks.
#[derive(Debug, Clone, Copy)]
struct Created {
    list: ListId,
    blocks: [BlockId; 2],
}

/// Model key of block `j` of a thread's append number `index`.
fn key(index: usize, j: usize) -> u64 {
    (index * 2 + j) as u64
}

/// One thread's closed-loop load and its model: everything it created
/// this round, in commit order.
struct Appender<'a, L> {
    ld: &'a L,
    owner: u64,
    round: u64,
    created: Vec<Created>,
    payload: Vec<u8>,
    /// Appends covered by a flush of this thread that returned.
    acked: usize,
}

impl<'a, L: LogicalDisk> Appender<'a, L> {
    fn new(ld: &'a L, thread: usize, round: u64) -> Self {
        Appender {
            ld,
            owner: 10 + thread as u64,
            round,
            created: Vec::new(),
            payload: vec![0u8; BLOCK],
            acked: 0,
        }
    }

    /// ARU = new list + two new blocks, each written; lazy commit, a
    /// flush every 64th.
    fn txn(&mut self) -> Result<u64, LldError> {
        let index = self.created.len();
        trace::set_txn(index as u64 + 1);
        let t0 = Instant::now();
        let aru = self.ld.begin_aru()?;
        let ctx = Ctx::Aru(aru);
        let list = self.ld.new_list(ctx)?;
        let mut blocks = [BlockId::new(1); 2];
        for j in 0..2 {
            let pos = if j == 0 {
                Position::First
            } else {
                Position::After(blocks[0])
            };
            blocks[j] = self.ld.new_block(ctx, list, pos)?;
            model::fill(&mut self.payload, self.owner, key(index, j), self.round);
            self.ld.write(ctx, blocks[j], &self.payload)?;
        }
        self.ld.end_aru(aru)?;
        let ns = t0.elapsed().as_nanos() as u64;
        self.created.push(Created { list, blocks });
        if self.created.len().is_multiple_of(FLUSH_EVERY) {
            self.ld.flush()?;
            self.acked = self.created.len();
        }
        Ok(ns)
    }

    /// Reads block `j` of append `index` and checks its content.
    fn read_checked(&mut self, index: usize, j: usize) -> bool {
        let b = self.created[index].blocks[j];
        self.ld.read(Ctx::Simple, b, &mut self.payload).is_ok()
            && model::matches(&self.payload, self.owner, key(index, j), self.round)
    }

    /// How append `index` looks on a (recovered) disk.
    fn presence(&mut self, index: usize) -> Presence {
        let c = self.created[index];
        match self.ld.list_blocks(Ctx::Simple, c.list) {
            Err(_) => Presence::Absent,
            Ok(b) if b.is_empty() => Presence::Absent,
            Ok(b) if b == c.blocks && (0..2).all(|j| self.read_checked(index, j)) => {
                Presence::Whole
            }
            Ok(_) => Presence::Partial,
        }
    }
}

/// Recover, first sync commit (one more append).
fn restart(buf: Vec<u8>) -> (Restart, Lld<MemDevice>) {
    let t0 = Instant::now();
    let (ld, report) = {
        let _s = span("recovery.recover");
        Lld::recover(mem_device(buf)).expect("recover")
    };
    let t1 = Instant::now();
    let aru = ld.begin_aru().expect("begin_aru");
    let list = ld.new_list(Ctx::Aru(aru)).expect("new_list");
    let b = ld
        .new_block(Ctx::Aru(aru), list, Position::First)
        .expect("new_block");
    ld.write(Ctx::Aru(aru), b, &vec![0x5A; BLOCK])
        .expect("write");
    ld.end_aru_sync(aru).expect("first sync commit");
    let r = Restart {
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        report,
        first_commit_us: t1.elapsed().as_secs_f64() * 1e6,
        server_start_ms: 0.0,
    };
    (r, ld)
}

fn image_of(ld: Lld<MemDevice>) -> Vec<u8> {
    into_image(ld.into_device())
}

pub fn run(o: &Opts, pass: Pass) -> PassOut {
    let batch_arus = o.scaled(BATCH_ARUS, FLUSH_EVERY) / FLUSH_EVERY * FLUSH_EVERY;
    let batch_reads = o.scaled(BATCH_READS, 64);
    let rounds = o.batches(if o.scale >= 0.5 { ROUNDS } else { 3 }, pass);
    let mut out = PassOut {
        threads: THREADS,
        sizes: vec![
            ("device_bytes", DEVICE_BYTES as u64),
            ("threads", THREADS as u64),
            ("rounds", rounds as u64),
            ("batches_per_round", BATCHES_PER_ROUND as u64),
            ("batch_arus", batch_arus as u64),
            ("read_batches_per_round", READ_BATCHES_PER_ROUND as u64),
            ("batch_reads", batch_reads as u64),
            ("precreated_lists_per_thread", PRECREATED_LISTS as u64),
            ("restarts", (rounds * RESTARTS_PER_ROUND) as u64),
        ],
        write_batch_ops: batch_arus,
        read_batch_ops: batch_reads,
        write_batches: vec![Vec::new(); THREADS],
        read_batches: vec![Vec::new(); THREADS],
        record_mix: record_mix(),
        ..PassOut::default()
    };
    let mut noise = Noise::new();
    let mut buf = touched_buffer(DEVICE_BYTES);
    let mut image = Vec::new();
    let mut clone = match pass {
        Pass::Full => touched_buffer(DEVICE_BYTES),
        _ => Vec::new(),
    };

    for round in 1..=rounds as u64 {
        // Set-up: format the recycled buffer, pre-create each thread's
        // lists.
        let setup_span = span("harness.setup");
        let t0 = Instant::now();
        let ld = TracedLd(Lld::format(mem_device(buf), &lld_config(pass)).expect("format"));
        let mut loads: Vec<Appender<Disk<MemDevice>>> =
            (0..THREADS).map(|t| Appender::new(&ld, t, round)).collect();
        for load in &mut loads {
            for _ in 0..PRECREATED_LISTS {
                load.txn().expect("pre-create");
            }
        }
        ld.flush().expect("set-up flush");
        out.setup_s.push(t0.elapsed().as_secs_f64());
        drop(setup_span);
        out.effective = Effective::of(ld.inner());

        // Write phase of this round, both threads in step.
        let (before, cpu0) = (Reading::of(ld.inner()), process_cpu_s());
        let (results, n) = in_step(&mut loads, |load, sync, noise| {
            let _s = span("harness.write");
            let (mut txn_ns, mut failed) = (Vec::new(), 0u64);
            let times = timed_batches(BATCHES_PER_ROUND, batch_arus, noise, sync, |_| {
                match load.txn() {
                    Ok(ns) => txn_ns.push(ns),
                    Err(_) => failed += 1,
                }
            });
            (times, txn_ns, failed)
        });
        out.cpu_s_write += process_cpu_s() - cpu0;
        before.add_since(ld.inner(), &mut out.lld_write, &mut out.dev_write);
        noise.merge(n);
        for (t, (times, mut txn_ns, failed)) in results.into_iter().enumerate() {
            out.write_batches[t].extend(times);
            out.txn_ns.append(&mut txn_ns);
            out.failed += failed;
        }
        let appended = (THREADS * BATCHES_PER_ROUND * batch_arus) as u64;
        out.commits += appended;
        out.user_bytes += appended * 2 * BLOCK as u64;
        out.attempted += appended;
        if pass == Pass::ObsOff {
            drop(loads);
            buf = image_of(ld.into_inner());
            continue;
        }

        // Read phase: each thread reads back its own blocks in seeded
        // order (all of them are checked once more after the crash).
        let before = Reading::of(ld.inner());
        let seed = o.seed ^ round;
        let (results, n) = in_step(&mut loads, |load, sync, noise| {
            let _s = span("harness.read");
            let mut order: Vec<usize> = (0..2 * load.created.len()).collect();
            SmallRng::seed_from_u64(seed ^ load.owner).shuffle(&mut order);
            let mut failed = 0u64;
            let times = timed_batches(READ_BATCHES_PER_ROUND, batch_reads, noise, sync, |i| {
                trace::set_txn(i as u64 + 1);
                let at = order[i % order.len()];
                if !load.read_checked(at / 2, at % 2) {
                    failed += 1;
                }
            });
            (times, failed)
        });
        before.add_since(ld.inner(), &mut out.lld_read, &mut out.dev_read);
        noise.merge(n);
        for (t, (times, failed)) in results.into_iter().enumerate() {
            out.read_batches[t].extend(times);
            out.failed += failed;
        }
        let read = (THREADS * READ_BATCHES_PER_ROUND * batch_reads) as u64;
        out.reads += read;
        out.attempted += read;
        let models: Vec<(u64, Vec<Created>)> =
            loads.into_iter().map(|l| (l.owner, l.created)).collect();
        if pass != Pass::Full {
            buf = image_of(ld.into_inner());
            continue;
        }

        // Crash: each thread's last op was a flush that returned.
        crash_image(media(ld.inner().device()), &mut image);
        buf = image_of(ld.into_inner());
        let last_round = round == rounds as u64;
        if last_round && o.inject == Inject::FlipBlock {
            let (owner, created) = &models[0];
            let index = o.seed as usize % created.len();
            assert!(model::flip_in_image(
                &mut image,
                *owner,
                key(index, 0),
                round
            ));
        }
        for _ in 0..RESTARTS_PER_ROUND {
            clone.copy_from_slice(&image);
            let (r, ld) = restart(clone);
            out.restarts.push(r);
            clone = image_of(ld);
            noise.sample();
        }
        out.attempted += RESTARTS_PER_ROUND as u64;
        if last_round {
            clone.copy_from_slice(&image);
            let (_, ld) = restart(clone);
            let t0 = Instant::now();
            ld.checkpoint().expect("checkpoint");
            out.checkpoint_call_ms = t0.elapsed().as_secs_f64() * 1e3;
            clone = image_of(ld);
            clone.copy_from_slice(&image);
            durability_pass(o, round, models, std::mem::take(&mut clone), &mut out);
        }
    }
    out.finished(noise)
}

/// Recovered contents against the model, once; then more appends from
/// both threads on the journaling wrapper, cut while they run, the
/// unflushed writes rolled back.
fn durability_pass(
    o: &Opts,
    round: u64,
    mut models: Vec<(u64, Vec<Created>)>,
    clone: Vec<u8>,
    out: &mut PassOut,
) {
    if o.inject == Inject::DropCommit {
        models[0].1.pop().expect("an append");
    }
    let (ld, _) = Lld::recover(JournalDisk::new(MemDisk::from_image(clone))).expect("recover");
    let ld = TracedLd(ld);
    let mut loads: Vec<Appender<Disk<JournalDisk<MemDisk>>>> = models
        .into_iter()
        .enumerate()
        .map(|(t, (_, created))| {
            let mut a = Appender::new(&ld, t, round);
            a.created = created;
            a
        })
        .collect();
    for load in &mut loads {
        let n = load.created.len();
        out.failed += (0..n)
            .filter(|&i| load.presence(i) != Presence::Whole)
            .count() as u64;
        out.attempted += n as u64;
        load.acked = n;
    }
    // Nothing on the disk but what the model holds.
    let lists: usize = loads.iter().map(|l| l.created.len()).sum();
    out.failed += (ld.inner().allocated_list_count() != lists as u64) as u64;
    out.attempted += 1;

    let bases: Vec<usize> = loads.iter().map(|l| l.created.len()).collect();
    let cut = SmallRng::seed_from_u64(o.seed ^ 0xC4A5)
        .gen_range(DURABILITY_ARUS as u64 / 3, DURABILITY_ARUS as u64) as usize;
    let (acked_at_cut, image) = cut_mid_stream(
        &mut loads,
        cut,
        |load| load.txn().ok().map(|_| load.acked),
        || ld.inner().device().crash_image().expect("crash image"),
    );
    let logs: Vec<(usize, Vec<Created>)> = loads
        .into_iter()
        .map(|l| (l.owner as usize - 10, l.created))
        .collect();
    drop(ld);

    let (ld, _) = Lld::recover(MemDisk::from_image(image)).expect("recover after cut");
    for (((t, created), base), acked) in logs.into_iter().zip(bases).zip(acked_at_cut) {
        let mut probe = Appender::new(&ld, t, round);
        probe.created = created;
        let n = probe.created.len();
        let seen: Vec<Presence> = (0..n).map(|i| probe.presence(i)).collect();
        // Everything before the pass was acknowledged long ago.
        out.failed += check_append_prefix(&seen, acked.max(base));
        out.attempted += n as u64;
    }
}

/// One append's records: the allocations, the two links and writes,
/// the commit.
fn record_mix() -> Vec<Record> {
    let aru = AruId::new(7);
    let (list, ts) = (ListId::new(40), Timestamp::new(5000));
    let mut v = vec![Record::NewList { list, ts }];
    for j in 0..2u64 {
        let block = BlockId::new(90 + j);
        v.push(Record::NewBlock { block, ts });
        v.push(Record::Link {
            list,
            block,
            pred: (j == 1).then(|| BlockId::new(90)),
            ts,
            aru: Some(aru),
        });
        v.push(Record::Write {
            block,
            slot: j as u32,
            ts,
            aru: Some(aru),
        });
    }
    v.push(Record::Commit { aru, ts });
    v
}
