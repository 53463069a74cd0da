//! `fs_small_files`: the paper's Fig. 5 client — create and write many
//! 1 KiB files, read them back, delete them — on MinixFs.
//!
//! Why: it uses the same core layers differently from block overwrite:
//! list insert and delete, the per-ARU list-operation log replayed at
//! commit, list walks. Reads sit beside writes, so a gain for one that
//! costs the other shows.
//!
//! A round is one batch: create+write every file of the round (one ARU
//! each), read them all back in seeded order, unlink them all. The
//! write batch time is create step + unlink step; the read step is the
//! read batch. A last, untimed create step leaves the files the crash
//! finds.

use super::{
    crash_image, into_image, lld_config, media, mem_device, Effective, Inject, MemDevice, Opts,
    Pass, PassOut, Reading, Restart,
};
use crate::journal_disk::JournalDisk;
use crate::measure::{process_cpu_s, touched_buffer, Noise};
use crate::model;
use crate::trace::{self, span};
use crate::traced::TracedLd;
use ld_core::{AruId, BlockId, ListId, Lld, Record, Timestamp};
use ld_disk::{BlockDevice, MemDisk, SmallRng};
use ld_minixfs::{FsConfig, MinixFs};
use std::time::Instant;

const DEVICE_BYTES: usize = 64 << 20;
const DIRS: usize = 10;
const BASELINE_FILES: usize = 500;
const FILE_BYTES: usize = 1024;
const OWNER: u64 = 3;
const RESTARTS: usize = 61;
const ROUNDS: usize = 30;
const SETUP_REPS: usize = 9;
const DURABILITY_FILES: usize = 400;
const FLUSH_EVERY: usize = 64;

/// Files per round and read passes over them at the nominal
/// `--seconds`.
const ROUND_FILES: usize = 750;
const READ_PASSES: usize = 2;

type Fs<D> = MinixFs<TracedLd<Lld<D>>>;

/// A file of the workload: round 0 is the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct File {
    round: u64,
    index: usize,
}

impl File {
    fn path(&self) -> String {
        format!("/d{}/r{}_{}", self.index % DIRS, self.round, self.index)
    }

    fn fill(&self, buf: &mut [u8]) {
        model::fill(buf, OWNER, self.index as u64, self.round);
    }

    fn create<D: BlockDevice>(&self, fs: &mut Fs<D>, buf: &mut [u8]) -> bool {
        self.fill(buf);
        let path = self.path();
        let ino = {
            let _s = span("minixfs.create");
            fs.create(&path)
        };
        let _s = span("minixfs.write_at");
        ino.is_ok_and(|ino| fs.write_at(ino, 0, buf).is_ok())
    }

    /// `lookup` + `read_at`; the bytes read, if both succeeded.
    fn read<D: BlockDevice>(&self, fs: &mut Fs<D>, buf: &mut [u8]) -> Option<usize> {
        let ino = {
            let _s = span("minixfs.lookup");
            fs.lookup(&self.path()).ok()?
        };
        let _s = span("minixfs.read_at");
        fs.read_at(ino, 0, buf).ok()
    }

    fn holds(&self, buf: &[u8]) -> bool {
        model::matches(buf, OWNER, self.index as u64, self.round)
    }

    fn unlink<D: BlockDevice>(&self, fs: &mut Fs<D>) -> bool {
        let _s = span("minixfs.unlink");
        fs.unlink(&self.path()).is_ok()
    }
}

fn flush<D: BlockDevice>(fs: &mut Fs<D>) -> bool {
    let _s = span("minixfs.flush");
    fs.flush().is_ok()
}

fn round_files(round: u64, n: usize) -> Vec<File> {
    (0..n).map(|index| File { round, index }).collect()
}

fn set_up(buf: Vec<u8>, pass: Pass) -> Fs<MemDevice> {
    let ld = TracedLd(Lld::format(mem_device(buf), &lld_config(pass)).expect("format"));
    let mut fs = MinixFs::format(ld, FsConfig::default()).expect("mkfs");
    for d in 0..DIRS {
        fs.mkdir(&format!("/d{d}")).expect("mkdir");
    }
    let mut data = vec![0u8; FILE_BYTES];
    for f in round_files(0, BASELINE_FILES) {
        assert!(f.create(&mut fs, &mut data), "baseline create");
    }
    fs.flush().expect("set-up flush");
    fs
}

fn image_of(fs: Fs<MemDevice>) -> Vec<u8> {
    into_image(fs.into_ld().into_inner().into_device())
}

fn mount<D: BlockDevice + 'static>(device: D) -> (Fs<D>, ld_core::RecoveryReport) {
    let (ld, report) = {
        let _s = span("recovery.recover");
        Lld::recover(device).expect("recover")
    };
    let _s = span("minixfs.mount");
    let fs = MinixFs::mount(TracedLd(ld), FsConfig::default()).expect("mount");
    (fs, report)
}

/// Recover, mount, first create + flush.
fn restart(buf: Vec<u8>) -> (Restart, Fs<MemDevice>) {
    let t0 = Instant::now();
    let (mut fs, report) = mount(mem_device(buf));
    let t1 = Instant::now();
    let first = File {
        round: u64::MAX,
        index: 0,
    };
    let mut data = vec![0u8; FILE_BYTES];
    assert!(
        first.create(&mut fs, &mut data) && flush(&mut fs),
        "first create"
    );
    let r = Restart {
        total_ms: t0.elapsed().as_secs_f64() * 1e3,
        report,
        first_commit_us: t1.elapsed().as_secs_f64() * 1e6,
        server_start_ms: 0.0,
    };
    (r, fs)
}

/// Failed checks of a recovered file system: each of `live` present
/// with its content, `others` more files and nothing else in the
/// tree, the whole tree consistent.
fn check_live<D: BlockDevice>(fs: &mut Fs<D>, live: &[File], others: usize) -> u64 {
    let mut buf = vec![0u8; FILE_BYTES];
    let mut failed = live
        .iter()
        .filter(|f| !(f.read(fs, &mut buf) == Some(FILE_BYTES) && f.holds(&buf)))
        .count() as u64;
    match fs.verify() {
        Ok(v) => {
            failed += v.problems.len() as u64;
            failed += (v.files != (live.len() + others) as u64) as u64;
        }
        Err(_) => failed += 1,
    }
    failed
}

pub fn run(o: &Opts, pass: Pass) -> PassOut {
    let files = o.scaled(ROUND_FILES, 60);
    let rounds = o.batches(ROUNDS, pass);
    let mut out = PassOut {
        threads: 1,
        sizes: vec![
            ("device_bytes", DEVICE_BYTES as u64),
            ("dirs", DIRS as u64),
            ("baseline_files", BASELINE_FILES as u64),
            ("rounds", rounds as u64),
            ("files_per_round", files as u64),
            ("read_passes", READ_PASSES as u64),
            ("restarts", o.restarts(RESTARTS) as u64),
        ],
        write_batch_ops: 2 * files,
        read_batch_ops: READ_PASSES * files,
        record_mix: record_mix(),
        ..PassOut::default()
    };
    let mut noise = Noise::new();

    // Set-up: the first repetition's file system carries the run; the
    // others run on a spare buffer between the rounds, so the samples
    // span the run and not one moment of it.
    let setup_reps = o.setup_reps(SETUP_REPS, pass);
    let mut fs = out.timed_set_up(|| set_up(touched_buffer(DEVICE_BYTES), pass));
    let mut spare = match setup_reps {
        1 => Vec::new(),
        _ => touched_buffer(DEVICE_BYTES),
    };
    out.effective = Effective::of(fs.ld().inner());

    // Rounds: create step, read step, unlink step.
    let mut rng = SmallRng::seed_from_u64(o.seed);
    let mut data = vec![0u8; FILE_BYTES];
    let (mut write_times, mut read_times) = (Vec::new(), Vec::new());
    let cpu0 = process_cpu_s();
    let mut cpu_reading = 0.0;
    let rounds_span = span("harness.rounds");
    // Every file operation is a transaction of its own in the trace.
    let mut op = 0u64;
    let mut next_txn = move || {
        op += 1;
        trace::set_txn(op);
    };
    for round in 1..=rounds as u64 {
        noise.sample();
        if Opts::setup_due(setup_reps, rounds, round as usize - 1) {
            spare = image_of(out.timed_set_up(|| set_up(spare, pass)));
        }
        let these = round_files(round, files);

        let before = Reading::of(fs.ld().inner());
        let t0 = Instant::now();
        for f in &these {
            next_txn();
            let t = Instant::now();
            if !f.create(&mut fs, &mut data) {
                out.failed += 1;
            }
            let ns = t.elapsed().as_nanos() as u64;
            out.txn_ns.push(ns);
            out.fs_create_ns.push(ns);
        }
        out.failed += !flush(&mut fs) as u64;
        let create_s = t0.elapsed().as_secs_f64();
        before.add_since(fs.ld().inner(), &mut out.lld_write, &mut out.dev_write);

        let mut order = these.clone();
        let before = Reading::of(fs.ld().inner());
        let cpu_read0 = process_cpu_s();
        let t0 = Instant::now();
        for _ in 0..READ_PASSES {
            rng.shuffle(&mut order);
            for f in &order {
                next_txn();
                let t = Instant::now();
                let n = f.read(&mut fs, &mut data);
                out.fs_read_ns.push(t.elapsed().as_nanos() as u64);
                if !(n == Some(FILE_BYTES) && f.holds(&data)) {
                    out.failed += 1;
                }
            }
        }
        read_times.push(t0.elapsed().as_secs_f64());
        cpu_reading += process_cpu_s() - cpu_read0;
        before.add_since(fs.ld().inner(), &mut out.lld_read, &mut out.dev_read);
        if pass == Pass::ObsOff {
            read_times.clear();
        }

        let before = Reading::of(fs.ld().inner());
        let t0 = Instant::now();
        for f in &these {
            next_txn();
            let t = Instant::now();
            if !f.unlink(&mut fs) {
                out.failed += 1;
            }
            out.fs_unlink_ns.push(t.elapsed().as_nanos() as u64);
        }
        out.failed += !flush(&mut fs) as u64;
        write_times.push(create_s + t0.elapsed().as_secs_f64());
        before.add_since(fs.ld().inner(), &mut out.lld_write, &mut out.dev_write);
    }
    drop(rounds_span);
    drop(spare);
    out.cpu_s_write = process_cpu_s() - cpu0 - cpu_reading;
    out.write_batches.push(write_times);
    out.read_batches.push(read_times);
    out.commits = (rounds * 2 * files) as u64;
    out.reads = (rounds * READ_PASSES * files) as u64;
    out.fs_file_ops = out.commits + out.reads;
    out.user_bytes = (rounds * files * FILE_BYTES) as u64;
    out.attempted += out.commits + out.reads;
    if pass != Pass::Full {
        return out.finished(noise);
    }

    // The files the crash finds: the baseline and one more round.
    let last_round = rounds as u64 + 1;
    let mut live = round_files(0, BASELINE_FILES);
    for f in round_files(last_round, files) {
        out.failed += !f.create(&mut fs, &mut data) as u64;
        live.push(f);
    }
    out.failed += !flush(&mut fs) as u64;
    out.attempted += files as u64;
    if o.inject == Inject::DropCommit {
        live.pop();
    }

    // Crash: the last op was a flush that returned.
    let mut image = Vec::new();
    crash_image(media(fs.ld().inner().device()), &mut image);
    let mut clone = image_of(fs);
    if o.inject == Inject::FlipBlock {
        let f = live[BASELINE_FILES + (o.seed as usize % files)];
        assert!(model::flip_in_image(
            &mut image,
            OWNER,
            f.index as u64,
            f.round
        ));
    }

    for _ in 0..o.restarts(RESTARTS) {
        clone.copy_from_slice(&image);
        let (r, fs) = restart(clone);
        out.restarts.push(r);
        clone = image_of(fs);
        noise.sample();
    }
    out.attempted += out.restarts.len() as u64;
    clone.copy_from_slice(&image);
    let (_, fs) = restart(clone);
    let t0 = Instant::now();
    fs.ld().inner().checkpoint().expect("checkpoint");
    out.checkpoint_call_ms = t0.elapsed().as_secs_f64() * 1e3;
    clone = image_of(fs);

    // Durability pass, untimed: recovered contents once; then more
    // files on the journaling wrapper, cut mid-stream, unflushed
    // writes rolled back.
    clone.copy_from_slice(&image);
    let (mut fs, _) = mount(JournalDisk::new(MemDisk::from_image(clone)));
    out.failed += check_live(&mut fs, &live, 0);
    out.attempted += live.len() as u64 + 1;

    let mut rng = SmallRng::seed_from_u64(o.seed ^ 0xC4A5);
    let cut = rng.gen_range(DURABILITY_FILES as u64 / 3, DURABILITY_FILES as u64) as usize;
    let more = round_files(last_round + 1, cut);
    let mut acked = 0;
    for (i, f) in more.iter().enumerate() {
        out.failed += !f.create(&mut fs, &mut data) as u64;
        if (i + 1) % FLUSH_EVERY == 0 {
            out.failed += !flush(&mut fs) as u64;
            acked = i + 1;
        }
    }
    let image = fs.ld().inner().device().crash_image().expect("crash image");
    drop(fs);
    let (mut fs, _) = mount(MemDisk::from_image(image));
    // Acknowledged files are whole. Later ones were created in an ARU
    // but written outside it: absent, empty or whole, never damaged.
    let mut unacked_present = 0;
    for (i, f) in more.iter().enumerate() {
        let state = f.read(&mut fs, &mut data);
        if i < acked {
            live.push(*f);
        } else {
            let ok = match state {
                Some(FILE_BYTES) => f.holds(&data),
                Some(0) | None => true,
                Some(_) => false,
            };
            out.failed += !ok as u64;
            unacked_present += state.is_some() as usize;
        }
    }
    out.failed += check_live(&mut fs, &live, unacked_present);
    out.attempted += (more.len() - acked + live.len() + 1) as u64;

    out.finished(noise)
}

/// The records of one file's life: a create ARU (new list, inode and
/// directory block writes, commit), the data block's allocation, link
/// and write, and an unlink ARU (list delete, inode and directory
/// block writes, commit).
fn record_mix() -> Vec<Record> {
    let (a1, a2) = (AruId::new(7), AruId::new(8));
    let (list, ts) = (ListId::new(40), Timestamp::new(5000));
    let write = |b: u64, aru| Record::Write {
        block: BlockId::new(b),
        slot: (b % 100) as u32,
        ts,
        aru,
    };
    vec![
        Record::NewList { list, ts },
        write(11, Some(a1)),
        write(12, Some(a1)),
        Record::Commit { aru: a1, ts },
        Record::NewBlock {
            block: BlockId::new(90),
            ts,
        },
        Record::Link {
            list,
            block: BlockId::new(90),
            pred: None,
            ts,
            aru: None,
        },
        write(90, None),
        Record::DeleteList {
            list,
            ts,
            aru: Some(a2),
        },
        write(11, Some(a2)),
        write(12, Some(a2)),
        Record::Commit { aru: a2, ts },
    ]
}
