//! `local_churn`: one thread overwrites a half-full 32 MiB disk until
//! the log has wrapped several times.
//!
//! Why: cleaner, checkpoint and segment seal do most of the work; no
//! network, and a barrier only every sixteenth ARU. One thread and no
//! timers, so `write_amp` and every count repeat exactly. The working
//! set is 4× the read cache, so reads miss. Cleaner checkpoints are
//! fresh at the crash, so restart loads a snapshot and replays next to
//! nothing.

use super::{
    crash_image, into_image, lld_config, media, mem_device, run_out, Effective, Inject, MemDevice,
    Opts, Pass, PassOut, Reading, Restart, BATCHES,
};
use crate::journal_disk::JournalDisk;
use crate::measure::{process_cpu_s, timed_batches, touched_buffer, Noise};
use crate::model::{self, Overwrite, OverwriteModel, BLOCK};
use crate::trace;
use crate::traced::TracedLd;
use ld_core::{AruId, BlockId, Ctx, Lld, LldError, LogicalDisk, Position, Record, Timestamp};
use ld_disk::{MemDisk, SmallRng};
use std::time::Instant;

const DEVICE_BYTES: usize = 32 << 20;
/// Preloaded blocks: 16 MiB of 32, and 4× the 1024-block read cache.
const KEYS: usize = 4096;
const LIST_LEN: usize = 128;
const WRITES_PER_ARU: usize = 4;
const FLUSH_EVERY: usize = 16;
const OWNER: u64 = 1;
const RESTARTS: usize = 41;
const SETUP_REPS: usize = 5;
const DURABILITY_ARUS: usize = 1000;
/// ARUs between the last checkpoint and the crash.
const RUNOUT_ARUS: usize = 256;

/// ARUs and reads per batch at the nominal `--seconds`.
const BATCH_ARUS: usize = 128;
const BATCH_READS: usize = 800;

type Disk<D> = TracedLd<Lld<D>>;

fn set_up(buf: Vec<u8>, pass: Pass) -> (Disk<MemDevice>, Vec<BlockId>) {
    let ld = TracedLd(Lld::format(mem_device(buf), &lld_config(pass)).expect("format"));
    let mut blocks = Vec::with_capacity(KEYS);
    let mut payload = vec![0u8; BLOCK];
    let mut list = None;
    for key in 0..KEYS {
        let pos = if key % LIST_LEN == 0 {
            list = Some(ld.new_list(Ctx::Simple).expect("new_list"));
            Position::First
        } else {
            Position::After(blocks[key - 1])
        };
        let b = ld
            .new_block(Ctx::Simple, list.expect("list"), pos)
            .expect("new_block");
        model::fill(&mut payload, OWNER, key as u64, 0);
        ld.write(Ctx::Simple, b, &payload).expect("preload write");
        blocks.push(b);
    }
    ld.flush().expect("preload flush");
    (ld, blocks)
}

/// The closed-loop load: ARUs of four seeded-random overwrites, lazy
/// commit, a flush every sixteenth.
struct Load<'a, L> {
    ld: &'a L,
    blocks: &'a [BlockId],
    model: OverwriteModel,
    rng: SmallRng,
    payload: Vec<u8>,
    /// Transactions covered by a flush that returned.
    acked: u64,
}

impl<L: LogicalDisk> Load<'_, L> {
    fn txn(&mut self) -> Result<(Overwrite, u64), LldError> {
        let version = self.model.next_version;
        trace::set_txn(version);
        let keys: [usize; WRITES_PER_ARU] = std::array::from_fn(|_| self.rng.gen_index(KEYS));
        let t0 = Instant::now();
        let aru = self.ld.begin_aru()?;
        for &k in &keys {
            model::fill(&mut self.payload, OWNER, k as u64, version);
            self.ld
                .write(Ctx::Aru(aru), self.blocks[k], &self.payload)?;
        }
        self.ld.end_aru(aru)?;
        let ns = t0.elapsed().as_nanos() as u64;
        let done = self.model.commit(&keys);
        if version.is_multiple_of(FLUSH_EVERY as u64) {
            self.ld.flush()?;
            self.acked = version;
        }
        Ok((done, ns))
    }
}

fn restart(buf: Vec<u8>, blocks: &[BlockId]) -> (Restart, Lld<MemDevice>) {
    let t0 = Instant::now();
    let (ld, report) = {
        let _s = trace::span("recovery.recover");
        Lld::recover(mem_device(buf)).expect("recover")
    };
    let t1 = Instant::now();
    let mut payload = vec![0u8; BLOCK];
    model::fill(&mut payload, OWNER, 0, u64::MAX);
    let aru = ld.begin_aru().expect("begin_aru");
    ld.write(Ctx::Aru(aru), blocks[0], &payload).expect("write");
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

/// Reads every key and returns the version each block carries.
fn versions_on<L: LogicalDisk>(ld: &L, blocks: &[BlockId]) -> Vec<Option<u64>> {
    let mut buf = vec![0u8; BLOCK];
    blocks
        .iter()
        .enumerate()
        .map(|(key, &b)| {
            ld.read(Ctx::Simple, b, &mut buf).ok()?;
            match model::decode(&buf) {
                Some((OWNER, k, v)) if k == key as u64 => Some(v),
                _ => None,
            }
        })
        .collect()
}

pub fn run(o: &Opts, pass: Pass) -> PassOut {
    let batch_arus = o.scaled(BATCH_ARUS, FLUSH_EVERY) / FLUSH_EVERY * FLUSH_EVERY;
    let batch_reads = o.scaled(BATCH_READS, 64);
    let batches = o.batches(BATCHES, pass);
    let mut out = PassOut {
        threads: 1,
        sizes: vec![
            ("device_bytes", DEVICE_BYTES as u64),
            ("keys", KEYS as u64),
            ("batches", batches as u64),
            ("batch_arus", batch_arus as u64),
            ("batch_reads", batch_reads as u64),
            ("restarts", o.restarts(RESTARTS) as u64),
        ],
        write_batch_ops: batch_arus,
        read_batch_ops: batch_reads,
        record_mix: record_mix(),
        ..PassOut::default()
    };
    let mut noise = Noise::new();

    // Set-up: the first repetition's disk carries the run; the others
    // run on a spare buffer between the write batches (outside their
    // clock), so the samples span the run and not one moment of it.
    let setup_reps = o.setup_reps(SETUP_REPS, pass);
    let (ld, blocks) = out.timed_set_up(|| set_up(touched_buffer(DEVICE_BYTES), pass));
    let mut spare = match setup_reps {
        1 => Vec::new(),
        _ => touched_buffer(DEVICE_BYTES),
    };
    out.effective = Effective::of(ld.inner());

    // Write phase.
    let mut load = Load {
        ld: &ld,
        blocks: &blocks,
        model: OverwriteModel::new(OWNER, KEYS),
        rng: SmallRng::seed_from_u64(o.seed),
        payload: vec![0u8; BLOCK],
        acked: 0,
    };
    let (before, cpu0) = (Reading::of(ld.inner()), process_cpu_s());
    let mut last = None;
    {
        let _s = trace::span("harness.write");
        let mut times = Vec::with_capacity(batches);
        for b in 0..batches {
            if Opts::setup_due(setup_reps, batches, b) {
                let (again, _) = out.timed_set_up(|| set_up(spare, pass));
                spare = image_of(again.into_inner());
            }
            times.extend(timed_batches(
                1,
                batch_arus,
                &mut noise,
                None,
                |_| match load.txn() {
                    Ok((t, ns)) => {
                        out.txn_ns.push(ns);
                        last = Some(t);
                    }
                    Err(_) => out.failed += 1,
                },
            ));
        }
        out.write_batches.push(times);
    }
    drop(spare);
    out.cpu_s_write = process_cpu_s() - cpu0;
    before.add_since(ld.inner(), &mut out.lld_write, &mut out.dev_write);
    out.commits = (batches * batch_arus) as u64;
    out.user_bytes = out.commits * (WRITES_PER_ARU * BLOCK) as u64;
    out.attempted += out.commits;
    if pass == Pass::ObsOff {
        return out.finished(noise);
    }

    // Read phase: uniform over all keys, every read checked.
    let mut rng = SmallRng::seed_from_u64(o.seed ^ 0xA5A5);
    let mut buf4k = vec![0u8; BLOCK];
    let before = Reading::of(ld.inner());
    {
        let _s = trace::span("harness.read");
        let times = timed_batches(batches, batch_reads, &mut noise, None, |i| {
            trace::set_txn(i as u64 + 1);
            let k = rng.gen_index(KEYS);
            let ok = ld.read(Ctx::Simple, blocks[k], &mut buf4k).is_ok();
            if !(ok && load.model.holds(k, &buf4k)) {
                out.failed += 1;
            }
        });
        out.read_batches.push(times);
    }
    before.add_since(ld.inner(), &mut out.lld_read, &mut out.dev_read);
    out.reads = (batches * batch_reads) as u64;
    out.attempted += out.reads;
    if pass == Pass::Traced {
        return out.finished(noise);
    }

    // Crash point: a fixed number of ARUs after the cleaner's next
    // checkpoint, on a flush that returned. The image is taken as it
    // is.
    run_out(
        ld.inner(),
        RUNOUT_ARUS,
        8 * batch_arus,
        true,
        || match load.txn() {
            Ok((t, _)) => {
                let flushed = t.version == load.acked;
                last = Some(t);
                flushed
            }
            Err(_) => {
                out.failed += 1;
                false
            }
        },
    );
    let mut model = load.model;
    if o.inject == Inject::DropCommit {
        let t = last.expect("a committed transaction");
        model.versions[t.keys[0]] = t.version - 1;
    }
    let mut image = Vec::new();
    crash_image(media(ld.inner().device()), &mut image);
    let mut clone = image_of(TracedLd::into_inner(ld));
    if o.inject == Inject::FlipBlock {
        let key = (o.seed % KEYS as u64) as usize;
        assert!(model::flip_in_image(
            &mut image,
            OWNER,
            key as u64,
            model.versions[key]
        ));
    }

    // Restart phase: recoveries of clones of the crash image.
    for _ in 0..o.restarts(RESTARTS) {
        clone.copy_from_slice(&image);
        let (r, ld) = restart(clone, &blocks);
        out.restarts.push(r);
        clone = image_of(ld);
        noise.sample();
    }
    out.attempted += out.restarts.len() as u64;
    clone.copy_from_slice(&image);
    let (_, ld) = restart(clone, &blocks);
    let t0 = Instant::now();
    ld.checkpoint().expect("checkpoint");
    out.checkpoint_call_ms = t0.elapsed().as_secs_f64() * 1e3;
    clone = image_of(ld);

    // Durability pass, untimed. Recovered contents against the model,
    // once; then more ARUs on the journaling wrapper, cut mid-stream
    // with every unflushed write rolled back.
    clone.copy_from_slice(&image);
    let (ld, _) = Lld::recover(JournalDisk::new(MemDisk::from_image(clone))).expect("recover");
    let found = versions_on(&ld, &blocks);
    out.failed += model.check_recovered(&[], 0, &found);
    out.attempted += KEYS as u64;

    let base = model.clone();
    let mut rng = SmallRng::seed_from_u64(o.seed ^ 0xC4A5);
    let cut = rng.gen_range(DURABILITY_ARUS as u64 / 3, DURABILITY_ARUS as u64) as usize;
    let mut load = Load {
        ld: &ld,
        blocks: &blocks,
        model,
        rng,
        payload: vec![0u8; BLOCK],
        acked: 0,
    };
    let mut log = Vec::with_capacity(cut);
    for _ in 0..cut {
        match load.txn() {
            Ok((t, _)) => log.push(t),
            Err(_) => out.failed += 1,
        }
    }
    let acked = log.iter().filter(|t| t.version <= load.acked).count();
    let image = ld.device().crash_image().expect("crash image");
    drop(ld);
    let (ld, _) = Lld::recover(MemDisk::from_image(image)).expect("recover after cut");
    out.failed += base.check_recovered(&log, acked, &versions_on(&ld, &blocks));
    out.attempted += (log.len() + KEYS) as u64;

    out.finished(noise)
}

/// One ARU's records: four tagged writes and the commit.
fn record_mix() -> Vec<Record> {
    let aru = AruId::new(7);
    let mut v: Vec<Record> = (0..WRITES_PER_ARU as u64)
        .map(|i| Record::Write {
            block: BlockId::new(1000 + i),
            slot: i as u32,
            ts: Timestamp::new(5000 + i),
            aru: Some(aru),
        })
        .collect();
    v.push(Record::Commit {
        aru,
        ts: Timestamp::new(5004),
    });
    v
}
