//! The four workloads and what they share.
//!
//! Every workload has the same shape — set-up, timed write phase,
//! timed read phase (which checks every read against the model),
//! crash, timed restart phase, untimed durability pass — and every
//! end-to-end metric of a workload comes from that workload's own
//! load. Loads are closed-loop with fixed operation counts.

pub mod fs_small_files;
pub mod local_append;
pub mod local_churn;
pub mod net_sync;

use crate::measure::Noise;
use crate::model_disk::ModelDisk;
use crate::timed_disk::{DeviceCounts, TimedDisk};
use ld_core::{Lld, LldConfig, LldStats, ObsConfig, Record, RecoveryReport, ServerCounters};
use ld_disk::{BlockDevice, MemDisk};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["net_sync", "local_churn", "fs_small_files", "local_append"];

/// The `--seconds` value the fixed counts below are calibrated for.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Timed batches per load thread in the write and the read phase.
pub const BATCHES: usize = 30;

/// A deliberate fault for the negative tests of the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Flip one byte of one live data block in the crash image.
    FlipBlock,
    /// Forget one acknowledged commit in the model.
    DropCommit,
}

/// Which part of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Everything, untraced: the source of every end-to-end metric.
    Full,
    /// Set-up, write and read phase once more, with spans recorded.
    Traced,
    /// Set-up and write phase on a disk formatted with observability
    /// off (`obs.off_speedup`).
    ObsOff,
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// `--seconds / NOMINAL_SECONDS`: scales every fixed count.
    pub scale: f64,
    pub inject: Inject,
}

impl Opts {
    /// A nominal count scaled to this run, at least `floor`.
    pub fn scaled(&self, nominal: usize, floor: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(floor)
    }

    /// Restarts behind `restart_ms`: a fixed number, not scaled with
    /// the counts, so the median always rests on the same sample size
    /// (fewer only in smoke runs).
    pub fn restarts(&self, nominal: usize) -> usize {
        if self.scale >= 0.5 {
            nominal
        } else {
            3
        }
    }

    /// Batches (or rounds) of a pass: all of them in the full pass, a
    /// third in the two extra passes of a traced run — same batch
    /// sizes, so rates compare, at a third of the time.
    pub fn batches(&self, nominal: usize, pass: Pass) -> usize {
        match pass {
            Pass::Full => nominal,
            _ => (nominal / 3).max(3),
        }
    }

    /// Set-up repetitions behind `setup_s`: `nominal` in the full
    /// pass (3 in smoke runs), 1 in the extra passes of a traced run.
    pub fn setup_reps(&self, nominal: usize, pass: Pass) -> usize {
        match pass {
            Pass::Full if self.scale >= 0.5 => nominal,
            Pass::Full => 3,
            _ => 1,
        }
    }

    /// Whether one of the `reps - 1` set-up repetitions after the first
    /// runs before batch `b` of `batches`: they are spread evenly, so
    /// the samples span the run and not one moment of it.
    pub fn setup_due(reps: usize, batches: usize, b: usize) -> bool {
        let extra = reps.saturating_sub(1);
        (b + 1) * extra / batches > b * extra / batches
    }
}

/// One recovery, from the recover call to the first served sync
/// commit acknowledged.
#[derive(Debug, Clone, Default)]
pub struct Restart {
    pub total_ms: f64,
    pub report: RecoveryReport,
    pub first_commit_us: f64,
    /// `Server::start` alone (`net_sync` only).
    pub server_start_ms: f64,
}

/// What the disk said about how it is configured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Effective {
    pub pipelined: bool,
    pub cleaner_background: bool,
    pub map_shards: usize,
}

impl Effective {
    pub fn of<D: BlockDevice>(ld: &Lld<D>) -> Self {
        Effective {
            pipelined: ld.pipelined(),
            cleaner_background: ld.cleaner_background(),
            map_shards: ld.map_shards(),
        }
    }
}

/// Everything one pass of one workload measured.
#[derive(Default)]
pub struct PassOut {
    pub threads: usize,
    /// The fixed counts this run used, for the printed configuration.
    pub sizes: Vec<(&'static str, u64)>,
    pub effective: Effective,
    pub setup_s: Vec<f64>,
    /// Batch wall times, one vector per load thread.
    pub write_batches: Vec<Vec<f64>>,
    pub write_batch_ops: usize,
    /// Latency of every write-phase transaction as its caller saw it.
    pub txn_ns: Vec<u64>,
    pub read_batches: Vec<Vec<f64>>,
    pub read_batch_ops: usize,
    pub restarts: Vec<Restart>,
    /// User payload bytes committed in the write phase.
    pub user_bytes: u64,
    pub commits: u64,
    pub reads: u64,
    pub attempted: u64,
    pub failed: u64,
    pub noise: Vec<f64>,
    /// Core counters over the write and the read phase.
    pub lld_write: LldStats,
    pub lld_read: LldStats,
    pub dev_write: DeviceCounts,
    pub dev_read: DeviceCounts,
    pub cpu_s_write: f64,
    pub checkpoint_call_ms: f64,
    /// `net_sync` only.
    pub server_write: ServerCounters,
    pub read_rtt_ns: Vec<u64>,
    pub lookup_rtt_ns: Vec<u64>,
    /// `fs_small_files` only: p50 inputs per file operation.
    pub fs_create_ns: Vec<u64>,
    pub fs_read_ns: Vec<u64>,
    pub fs_unlink_ns: Vec<u64>,
    pub fs_file_ops: u64,
    /// One transaction's worth of the summary records this workload
    /// makes the core emit (input of the summary codec loop).
    pub record_mix: Vec<Record>,
}

impl PassOut {
    /// Runs one set-up repetition and records how long it took.
    pub fn timed_set_up<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let _s = crate::trace::span("harness.setup");
        let t0 = Instant::now();
        let state = set_up();
        self.setup_s.push(t0.elapsed().as_secs_f64());
        state
    }

    /// Ends a pass: hands over the calling thread's spans and the
    /// host-noise samples.
    pub fn finished(mut self, noise: Noise) -> PassOut {
        crate::trace::flush_thread();
        self.noise.extend(noise.samples_s);
        self
    }
}

/// The device every workload formats: the benchmark's probe over the
/// cost model (see [`ModelDisk`]) over the media.
pub type Device<M> = TimedDisk<ModelDisk<M>>;
pub type MemDevice = Device<MemDisk>;

pub fn device<M: BlockDevice>(media: M) -> Device<M> {
    TimedDisk::new(ModelDisk::new(media))
}

pub fn mem_device(buf: Vec<u8>) -> MemDevice {
    device(MemDisk::from_image(buf))
}

pub fn media<M: BlockDevice>(dev: &Device<M>) -> &M {
    dev.inner().inner()
}

pub fn into_image(dev: MemDevice) -> Vec<u8> {
    dev.into_inner().into_inner().into_image()
}

/// Every workload formats with the defaults, so a later change of a
/// default shows here without editing the benchmark. The one
/// exception is the observability-off pass.
pub fn lld_config(pass: Pass) -> LldConfig {
    match pass {
        Pass::ObsOff => LldConfig {
            obs: ObsConfig::disabled(),
            ..LldConfig::default()
        },
        _ => LldConfig::default(),
    }
}

/// Copies the device image of a quiesced disk into `image`: the
/// crash. No shutdown, no flush.
pub fn crash_image(dev: &MemDisk, image: &mut Vec<u8>) {
    image.resize(dev.capacity() as usize, 0);
    dev.read_at(0, image).expect("read device image");
}

/// Adds to `acc` what the core counted between the readings `before`
/// and `after`, for the fields the per-layer metrics use.
pub fn add_stats(acc: &mut LldStats, after: &LldStats, before: &LldStats) {
    macro_rules! add {
        ($($f:ident),*) => { $( acc.$f += after.$f - before.$f; )* };
    }
    add!(
        reads,
        writes,
        new_blocks,
        delete_blocks,
        new_lists,
        delete_lists,
        arus_committed,
        segments_sealed,
        records_emitted,
        summary_bytes,
        data_blocks_written,
        blocks_relocated,
        cleaner_runs,
        backpressure_stalls,
        checkpoints,
        list_walk_steps,
        cache_hits,
        cache_misses,
        flush_batches,
        flush_batch_callers,
        full_mutations,
        scoped_mutations,
        single_shard_commits,
        cross_shard_commits,
        pipeline_stalls,
        writeids_recorded
    );
}

/// Runs `phase` once per load, each on a thread of its own, all in
/// step (see [`timed_batches`](crate::measure::timed_batches)); returns
/// what each call returned and the host-noise samples taken.
pub fn in_step<L: Send, T: Send>(
    loads: &mut [L],
    phase: impl Fn(&mut L, Option<(&Barrier, bool)>, &mut Noise) -> T + Sync,
) -> (Vec<T>, Noise) {
    let sync = Barrier::new(loads.len());
    let mut noise = Noise::new();
    let done: Vec<(T, Noise)> = std::thread::scope(|s| {
        let handles: Vec<_> = loads
            .iter_mut()
            .enumerate()
            .map(|(t, load)| {
                let (sync, phase) = (&sync, &phase);
                s.spawn(move || {
                    let mut noise = Noise::new();
                    let r = phase(load, Some((sync, t == 0)), &mut noise);
                    crate::trace::flush_thread();
                    (r, noise)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut results = Vec::new();
    for (r, n) in done {
        results.push(r);
        noise.merge(n);
    }
    (results, noise)
}

/// Steers the crash point so that restarts do not depend on the seed:
/// keeps calling `txn` until the disk has written one more checkpoint
/// and `after` more transactions have committed since the latest one,
/// and stops on a transaction for which `txn` returns true (the load
/// is quiesced: everything committed is acknowledged durable). The log
/// suffix a restart replays then has the same length whatever the
/// seed. With `on_cleaner_pass` (for a load under which the cleaner
/// runs every few transactions) it also stops only on a transaction
/// during which a cleaner pass ran: free segments are then at the
/// cleaner's target, and the restart's first commit does not, for one
/// seed in ten, pay for a pass of its own. A disk that writes no
/// checkpoint within `limit` transactions is crashed where it stands
/// (and so is a load that never quiesces, after twice as many).
pub fn run_out<D: BlockDevice>(
    ld: &Lld<D>,
    after: usize,
    limit: usize,
    on_cleaner_pass: bool,
    mut txn: impl FnMut() -> bool,
) {
    let before = ld.stats();
    let (mut seen, mut cleaned) = (before.checkpoints, before.cleaner_runs);
    let mut since: Option<usize> = None;
    for done in 0..2 * limit {
        let quiesced = txn();
        let now = ld.stats();
        if now.checkpoints != seen {
            (seen, since) = (now.checkpoints, Some(0));
        } else if let Some(n) = &mut since {
            *n += 1;
        }
        let free_at_target = !on_cleaner_pass || now.cleaner_runs != cleaned;
        cleaned = now.cleaner_runs;
        let steered = since.is_some_and(|n| n >= after) && free_at_target;
        if quiesced && (steered || done >= limit) {
            return;
        }
    }
}

/// The mid-stream cut of a durability pass with several load threads.
/// Every load runs `step` on a thread of its own until told to stop;
/// `step` returns how many of the load's transactions are acknowledged
/// durable so far (`None`: it failed, the load stops). Once `cut` steps
/// are done in all, the acknowledged counts are read **first** and the
/// crash image is taken **second** — whatever was acknowledged before
/// the cut must be in the image — and only then are the loads stopped,
/// so commits are in flight while the image is taken.
pub fn cut_mid_stream<L: Send>(
    loads: &mut [L],
    cut: usize,
    step: impl Fn(&mut L) -> Option<usize> + Sync,
    crash_image: impl FnOnce() -> Vec<u8>,
) -> (Vec<usize>, Vec<u8>) {
    let acked: Vec<AtomicUsize> = loads.iter().map(|_| AtomicUsize::new(0)).collect();
    let (done, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
    std::thread::scope(|s| {
        let handles: Vec<_> = loads
            .iter_mut()
            .zip(&acked)
            .map(|(load, acked)| {
                let (step, done, stop) = (&step, &done, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let Some(n) = step(load) else { break };
                        acked.store(n, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        while done.load(Ordering::SeqCst) < cut && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_micros(100));
        }
        let at_cut = acked.iter().map(|a| a.load(Ordering::SeqCst)).collect();
        let image = crash_image();
        stop.store(true, Ordering::SeqCst);
        (at_cut, image)
    })
}

/// A reading of the core's counters and of the device probe's.
pub struct Reading(LldStats, DeviceCounts);

impl Reading {
    pub fn of<D: BlockDevice>(ld: &Lld<TimedDisk<D>>) -> Reading {
        Reading(ld.stats(), ld.device().counts())
    }

    /// Adds what happened since this reading to the accumulators.
    pub fn add_since<D: BlockDevice>(
        &self,
        ld: &Lld<TimedDisk<D>>,
        lld: &mut LldStats,
        dev: &mut DeviceCounts,
    ) {
        add_stats(lld, &ld.stats(), &self.0);
        *dev = dev.plus(&ld.device().counts().since(&self.1));
    }
}

pub fn server_since(after: ServerCounters, before: &ServerCounters) -> ServerCounters {
    ServerCounters {
        ops_served: after.ops_served - before.ops_served,
        bytes_in: after.bytes_in - before.bytes_in,
        bytes_out: after.bytes_out - before.bytes_out,
        ..after
    }
}

/// Runs one workload pass by name.
pub fn run(name: &str, opts: &Opts, pass: Pass) -> Option<PassOut> {
    Some(match name {
        "net_sync" => net_sync::run(opts, pass),
        "local_churn" => local_churn::run(opts, pass),
        "fs_small_files" => fs_small_files::run(opts, pass),
        "local_append" => local_append::run(opts, pass),
        _ => return None,
    })
}
