//! Multi-threaded throughput: N OS threads share one logical disk
//! through its `&self` interface and commit disjoint ARUs with
//! synchronous durability, so concurrent callers batch in the
//! group-commit stage.
//!
//! The paper's prototype was single-threaded (§6 names a
//! multi-threaded implementation as future work); this experiment
//! measures what the shared-handle implementation adds: wall-clock
//! ops/s at 1, 2, 4, and 8 threads, and how many durability callers
//! each group-commit batch absorbed.
//!
//! Unlike the §5 experiments, throughput here is *wall-clock*: thread
//! scaling is a property of the implementation's locking, not of the
//! 1996 timing model. The disk is a [`LatencyDisk`] over memory — data
//! moves at memory speed but each write barrier charges a realistic
//! wall-clock cost, which is the window group commit batches in.
//!
//! Two workload variants stress the sharded mapping layer directly
//! (both commit lazily — `sync_every: 0` — so they are lock-bound, not
//! barrier-bound):
//!
//! * `--disjoint`: each thread builds private lists, which spread
//!   round-robin across the map shards — concurrent ARUs take disjoint
//!   shard locks and should scale with threads;
//! * `--hot`: every thread rewrites blocks of one shared list, all of
//!   which live in a single map shard — the serialization floor that
//!   sharding cannot remove.
//!
//! `--shards N` overrides the map shard count, so `--disjoint --shards 1`
//! vs `--disjoint --shards 8` isolates what sharding buys.
//!
//! A third study, `--clean-pressure`, pits the inline segment cleaner
//! against the background `cleanerd`: an overwrite-churn workload
//! (each thread rewrites its own pre-allocated blocks, syncing every
//! 4th commit) on a deliberately tiny device wraps the log continuously,
//! so the cleaner runs throughout. The same workload is run twice per
//! thread count — inline cleaning (stalls every foreground thread for
//! the length of a full pass, checkpoint barrier included) vs
//! `cleanerd` (passes run on their own thread; the foreground only
//! pauses for short relocation windows) — and the report is foreground
//! ops/s for each plus the background/inline speedup. Each pair runs at
//! two fills: one the cleaner's target allows, which must finish, and
//! one past it, where the run is expected to end in `DiskFull` and is
//! reported as such ([`PRESSURE_FILLS`]).
//!
//! `--device {mem,latency,file}` selects the backing device for any
//! study: `latency` (default) charges a realistic wall-clock barrier
//! cost over memory, `mem` is raw memory (lock-bound), and `file` is a
//! real temporary file with positioned I/O and `fdatasync` barriers.
//!
//! Usage: `mt_throughput [--quick] [--json] [--threads 1,2,4,8]
//! [--arus N] [--disjoint | --hot | --clean-pressure]
//! [--device mem|latency|file] [--shards N]
//! [--trace-out FILE] [--sampler-out FILE]`
//!
//! `--trace-out FILE` enlarges the trace ring and writes the last run's
//! commit trace as Chrome Trace Event Format; `--sampler-out FILE`
//! turns the background metrics sampler on (200 Hz) and writes the
//! last run's time series as JSON Lines. Both apply to the default
//! group-commit study.

use ld_bench::{BenchConfig, Version};
use ld_core::obs::json::{Arr, Obj};
use ld_core::{CleanerConfig, Lld, LldConfig, LldError};
use ld_disk::{BlockDevice, FileDisk, LatencyDisk, MemDisk};
use ld_workload::{MtMode, MtWorkload};
use std::time::{Duration, Instant};

/// Wall-clock cost charged per write barrier. A [`SimDisk`] barrier
/// returns in nanoseconds of real time, so concurrent durability
/// callers would almost never overlap a leader's flush; a realistic
/// barrier cost is what gives group commit a window to batch in.
///
/// [`SimDisk`]: ld_disk::SimDisk
const BARRIER_COST: Duration = Duration::from_micros(500);

/// Wall-clock cost charged per media read in the `--clean-pressure`
/// runs (the other runs never read the device on the hot path). This
/// is what the cleaner pays per relocated block: the inline cleaner
/// pays it on the foreground path under full locks, while `cleanerd`
/// prefetches victim data with no locks held, overlapping the reads
/// with foreground commits.
const READ_COST: Duration = Duration::from_micros(250);

#[derive(Debug)]
struct Run {
    threads: usize,
    arus: u64,
    blocks: u64,
    ops: u64,
    wall_secs: f64,
    ops_per_sec: f64,
    flush_batches: u64,
    flush_batch_callers: u64,
    flush_batch_max: u64,
    scoped_mutations: u64,
    full_mutations: u64,
    cross_shard_commits: u64,
    inflight_barriers: u64,
    inflight_segments: u64,
}

/// The backing device for a run, selected with `--device`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeviceKind {
    /// Raw memory: no per-op cost, isolates lock behavior.
    Mem,
    /// Memory plus a wall-clock barrier charge (the default): the
    /// window group commit batches in.
    Latency,
    /// A real temporary file: positioned I/O, `fdatasync` barriers.
    File,
}

impl DeviceKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(DeviceKind::Mem),
            "latency" => Some(DeviceKind::Latency),
            "file" => Some(DeviceKind::File),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            DeviceKind::Mem => "mem",
            DeviceKind::Latency => "latency",
            DeviceKind::File => "file",
        }
    }
}

/// Runs one workload measurement on a fresh device of `kind`. The
/// device types differ, so the workload body is generic and the match
/// happens here once.
fn measure_run(
    kind: DeviceKind,
    capacity: u64,
    cfg: &LldConfig,
    wl: &MtWorkload,
) -> (Run, ld_core::ObsSnapshot, String) {
    fn go<D: BlockDevice + 'static>(
        device: D,
        cfg: &LldConfig,
        wl: &MtWorkload,
    ) -> (Run, ld_core::ObsSnapshot, String) {
        let ld = Lld::format(device, cfg).expect("format");
        let start = Instant::now();
        let report = wl.run(&ld).expect("workload");
        let wall = start.elapsed().as_secs_f64();
        // Close the sampler series with a final data point (a no-op
        // row when sampling is off).
        ld.sample_now();
        let stats = ld.stats();
        let run = Run {
            threads: wl.threads,
            arus: report.arus_committed,
            blocks: report.blocks_written,
            ops: report.ops,
            wall_secs: wall,
            ops_per_sec: report.ops as f64 / wall.max(1e-9),
            flush_batches: stats.flush_batches,
            flush_batch_callers: stats.flush_batch_callers,
            flush_batch_max: stats.flush_batch_max,
            scoped_mutations: stats.scoped_mutations,
            full_mutations: stats.full_mutations,
            cross_shard_commits: stats.cross_shard_commits,
            inflight_barriers: stats.inflight_barriers,
            inflight_segments: stats.inflight_segments,
        };
        let jsonl = ld.sampler_jsonl();
        (run, ld.obs_snapshot(), jsonl)
    }
    match kind {
        DeviceKind::Mem => go(MemDisk::new(capacity), cfg, wl),
        DeviceKind::Latency => go(
            LatencyDisk::new(MemDisk::new(capacity), BARRIER_COST),
            cfg,
            wl,
        ),
        DeviceKind::File => {
            let path = std::env::temp_dir().join(format!(
                "ld-mt-{}-{}t.img",
                std::process::id(),
                wl.threads
            ));
            let run = go(
                FileDisk::create(&path, capacity).expect("create file disk"),
                cfg,
                wl,
            );
            let _ = std::fs::remove_file(&path);
            run
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = BenchConfig::from_args(&args);
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    let mut thread_counts: Vec<usize> = vec![1, 2, 4, 8];
    let mut total_arus: usize = if quick { 400 } else { 4000 };
    // Default: the original sync-commit workload (group-commit study).
    // --disjoint / --hot switch to the lazy-commit shard studies.
    let mut mode = MtMode::Disjoint;
    let mut sync_every = 1;
    let mut label = "private lists, end_aru_sync";
    let mut shards_override: Option<usize> = None;
    let mut clean_pressure = false;
    let mut device_kind = DeviceKind::Latency;
    let mut trace_out: Option<String> = None;
    let mut sampler_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clean-pressure" => clean_pressure = true,
            "--trace-out" => trace_out = it.next().cloned(),
            "--sampler-out" => sampler_out = it.next().cloned(),
            "--device" => {
                if let Some(k) = it.next().and_then(|v| DeviceKind::parse(v)) {
                    device_kind = k;
                }
            }
            "--threads" => {
                if let Some(v) = it.next() {
                    let parsed: Vec<usize> =
                        v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
                    if !parsed.is_empty() {
                        thread_counts = parsed;
                    }
                }
            }
            "--arus" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    total_arus = v;
                }
            }
            "--disjoint" => {
                mode = MtMode::Disjoint;
                sync_every = 0;
                label = "disjoint lists, lazy commit";
            }
            "--hot" => {
                mode = MtMode::HotShard;
                sync_every = 0;
                label = "one hot shard, lazy commit";
            }
            "--shards" => {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    shards_override = Some(v);
                }
            }
            _ => {}
        }
    }

    if clean_pressure {
        let arus = if args.iter().any(|a| a == "--arus") {
            total_arus
        } else if quick {
            400
        } else {
            2000
        };
        run_clean_pressure(&thread_counts, arus, shards_override, json);
        return;
    }

    let mut ld_cfg = cfg.ld_config(Version::New);
    if let Some(n) = shards_override {
        ld_cfg.map_shards = n;
    }
    if trace_out.is_some() {
        // Large enough to hold every stage event of the run, so the
        // exported trace is complete rather than the ring's tail.
        ld_cfg.obs.ring_capacity = 1 << 16;
    }
    if sampler_out.is_some() {
        ld_cfg.metrics_hz = Some(200.0);
    }
    let map_shards = ld_cfg.map_shards;

    let mut runs: Vec<Run> = Vec::new();
    let mut last_obs = None;
    let mut last_jsonl = String::new();
    for &threads in &thread_counts {
        let wl = MtWorkload {
            threads,
            arus_per_thread: total_arus.max(threads) / threads,
            blocks_per_aru: 2,
            sync_every,
            mode,
            seed: 42,
        };
        let (run, obs, jsonl) = measure_run(device_kind, cfg.capacity, &ld_cfg, &wl);
        runs.push(run);
        last_obs = Some(obs);
        last_jsonl = jsonl;
    }

    // Sidecar exports of the last (highest thread count) run.
    if let (Some(path), Some(obs)) = (&trace_out, &last_obs) {
        std::fs::write(path, obs.to_chrome_trace()).expect("write --trace-out");
        eprintln!(
            "wrote {} trace events ({} dropped) to {path}",
            obs.events.len(),
            obs.dropped_events
        );
    }
    if let Some(path) = &sampler_out {
        std::fs::write(path, &last_jsonl).expect("write --sampler-out");
        eprintln!(
            "wrote {} sampler rows to {path}",
            last_jsonl.lines().count()
        );
    }

    if json {
        let mut arr = Arr::new();
        for r in &runs {
            arr.push_raw(
                &Obj::new()
                    .u64("threads", r.threads as u64)
                    .u64("arus", r.arus)
                    .u64("blocks", r.blocks)
                    .u64("ops", r.ops)
                    .f64("wall_secs", r.wall_secs)
                    .f64("ops_per_sec", r.ops_per_sec)
                    .u64("flush_batches", r.flush_batches)
                    .u64("flush_batch_callers", r.flush_batch_callers)
                    .u64("flush_batch_max", r.flush_batch_max)
                    .u64("scoped_mutations", r.scoped_mutations)
                    .u64("full_mutations", r.full_mutations)
                    .u64("cross_shard_commits", r.cross_shard_commits)
                    .u64("inflight_barriers", r.inflight_barriers)
                    .u64("inflight_segments", r.inflight_segments)
                    .finish(),
            );
        }
        let mut out = Obj::new();
        out.u64("total_arus", total_arus as u64)
            .str("workload", label)
            .str("device", device_kind.label())
            .u64("map_shards", map_shards as u64)
            .raw("runs", &arr.finish());
        if let Some(snap) = &last_obs {
            out.raw("obs", &snap.to_json());
        }
        println!("{}", out.finish());
        return;
    }

    println!(
        "Multi-threaded throughput: {total_arus} ARUs, 2 blocks each ({label}), \
         {map_shards} map shard(s), {} device",
        device_kind.label()
    );
    println!(
        "  threads |      ops |  wall (s) |      ops/s | batches | callers | max batch |  scoped |    full | x-shard"
    );
    for r in &runs {
        println!(
            "  {:>7} | {:>8} | {:>9.3} | {:>10.0} | {:>7} | {:>7} | {:>9} | {:>7} | {:>7} | {:>7}",
            r.threads,
            r.ops,
            r.wall_secs,
            r.ops_per_sec,
            r.flush_batches,
            r.flush_batch_callers,
            r.flush_batch_max,
            r.scoped_mutations,
            r.full_mutations,
            r.cross_shard_commits
        );
    }
    if let Some(r) = runs.iter().find(|r| r.threads >= 4) {
        println!(
            "  group commit at {} threads: {:.2} callers per barrier (max {})",
            r.threads,
            r.flush_batch_callers as f64 / r.flush_batches.max(1) as f64,
            r.flush_batch_max
        );
    }
}

/// Live blocks the `--clean-pressure` study fills the device to, cold
/// prefill and churn working set together. Its 20 slots of 8 blocks
/// hold 120 at the most (six data blocks beside header and summary),
/// and the cleaner is asked for 8 free slots, which leaves room for 72.
///
/// * 64 is within that: both cleaners must finish it.
/// * 88 is past it: the target is out of reach, every pass runs until
///   nothing is left to pick, and with two of a slot's eight blocks
///   going to every partial segment's header and summary the churn ends
///   in `DiskFull` even at one thread. The row is there so that regime
///   keeps being run; it is reported, not required to finish
///   (EXPERIMENTS.md "Clean pressure", `crates/core/tests/cleaner.rs::
///   churn_capacity_on_eight_block_slots_is_86_live_blocks`).
const PRESSURE_FILLS: [usize; 2] = [64, 88];

/// One cleaner's run of the study: foreground ops/s (`None` if the run
/// ended in `DiskFull`) and the counters up to there.
#[derive(Debug)]
struct PressureOutcome {
    ops_per_sec: Option<f64>,
    stats: ld_core::LldStats,
}

/// One inline-vs-background measurement at a fixed thread count and
/// fill.
#[derive(Debug)]
struct PressureRun {
    threads: usize,
    live_blocks: usize,
    inline: PressureOutcome,
    background: PressureOutcome,
}

impl PressureRun {
    /// Background over inline foreground ops/s, when both finished.
    fn speedup(&self) -> Option<f64> {
        Some(self.background.ops_per_sec? / self.inline.ops_per_sec?.max(1e-9))
    }
}

/// Runs the overwrite-churn workload on a tiny device twice per thread
/// count and fill ([`PRESSURE_FILLS`]) — inline cleaner, then
/// `cleanerd` — and reports foreground ops/s for each. The device holds
/// only 20 slots of 4 KiB while each group-committed sync seals a
/// segment, so the log wraps every handful of commits and cleaning cost
/// is a first-order term in the foreground wall clock.
fn run_clean_pressure(
    thread_counts: &[usize],
    total_arus: usize,
    shards_override: Option<usize>,
    json: bool,
) {
    let one = |threads: usize, live_blocks: usize, background: bool| -> PressureOutcome {
        let mut cfg = LldConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            max_blocks: Some(512),
            max_lists: Some(64),
            cleaner: CleanerConfig {
                background,
                // Clean early and far ahead (the churn consumes slots
                // fast), and throttle the foreground only when nearly
                // out of slots.
                target_free_segments: 8,
                backpressure_free_segments: 1,
                ..CleanerConfig::default()
            },
            ..LldConfig::default()
        };
        if let Some(n) = shards_override {
            cfg.map_shards = n;
        }
        // Superblock, both checkpoint areas and 16 segments at the most;
        // the areas come out smaller and leave 20.
        let cap = 512 + 2 * 64 * 1024 + 16 * 8 * 512;
        // Media reads cost real time here: relocation is read-dominated,
        // and `cleanerd` issues its victim reads with no locks held
        // (prefetch), so that cost overlaps the foreground — while the
        // inline cleaner pays it on the foreground path.
        let device =
            LatencyDisk::new(MemDisk::new(cap as u64), BARRIER_COST).with_read_delay(READ_COST);
        let ld = Lld::format(device, &cfg).expect("format");
        // Cold data topping the live set up to `live_blocks` (the churn
        // working set is 8 blocks per thread): cold blocks are never
        // rewritten, so every log wrap must *relocate* them — without
        // them churn segments die wholesale and cleaning degenerates to
        // reclaiming dead segments, which costs nothing worth moving off
        // the foreground path.
        let cold_blocks = live_blocks.saturating_sub(8 * threads);
        let run = || -> ld_core::Result<f64> {
            use ld_core::{Ctx, Position};
            let list = ld.new_list(Ctx::Simple)?;
            let mut prev = None;
            let data = vec![0xCD_u8; 512];
            for _ in 0..cold_blocks {
                let pos = match prev {
                    None => Position::First,
                    Some(p) => Position::After(p),
                };
                let b = ld.new_block(Ctx::Simple, list, pos)?;
                ld.write(Ctx::Simple, b, &data)?;
                prev = Some(b);
            }
            ld.flush()?;
            let wl = MtWorkload {
                threads,
                arus_per_thread: total_arus.max(threads) / threads,
                blocks_per_aru: 2,
                sync_every: 4,
                mode: MtMode::Churn,
                seed: 42,
            };
            let start = Instant::now();
            let report = wl.run(&ld)?;
            let wall = start.elapsed().as_secs_f64();
            Ok(report.ops as f64 / wall.max(1e-9))
        };
        let ops_per_sec = match run() {
            Ok(ops_per_sec) => Some(ops_per_sec),
            Err(LldError::DiskFull) => None,
            Err(e) => panic!("clean-pressure run: {e}"),
        };
        PressureOutcome {
            ops_per_sec,
            stats: ld.stats(),
        }
    };

    let mut runs: Vec<PressureRun> = Vec::new();
    for &threads in thread_counts {
        for live_blocks in PRESSURE_FILLS {
            let run = PressureRun {
                threads,
                live_blocks,
                inline: one(threads, live_blocks, false),
                background: one(threads, live_blocks, true),
            };
            assert!(
                live_blocks > PRESSURE_FILLS[0] || run.speedup().is_some(),
                "DiskFull at {threads} threads, {live_blocks} live blocks: {run:?}"
            );
            runs.push(run);
        }
    }

    if json {
        let mut arr = Arr::new();
        for r in &runs {
            arr.push_raw(
                &Obj::new()
                    .u64("threads", r.threads as u64)
                    .u64("live_blocks", r.live_blocks as u64)
                    .bool("inline_disk_full", r.inline.ops_per_sec.is_none())
                    .bool("background_disk_full", r.background.ops_per_sec.is_none())
                    .f64("inline_ops_per_sec", r.inline.ops_per_sec.unwrap_or(0.0))
                    .f64(
                        "background_ops_per_sec",
                        r.background.ops_per_sec.unwrap_or(0.0),
                    )
                    .f64("speedup", r.speedup().unwrap_or(0.0))
                    .u64("inline_cleaner_runs", r.inline.stats.cleaner_runs)
                    .u64("inline_relocated", r.inline.stats.blocks_relocated)
                    .u64("background_passes", r.background.stats.cleaner_passes)
                    .u64(
                        "background_relocated",
                        r.background.stats.cleaner_blocks_relocated,
                    )
                    .u64(
                        "backpressure_stalls",
                        r.background.stats.backpressure_stalls,
                    )
                    .finish(),
            );
        }
        let mut out = Obj::new();
        out.u64("total_arus", total_arus as u64)
            .str("workload", "overwrite churn, sync every 4th commit")
            .raw("runs", &arr.finish());
        println!("{}", out.finish());
        return;
    }

    println!(
        "Clean pressure: {total_arus} ARUs of overwrite churn (2 blocks each, sync every 4th) \
         on a 20-slot device"
    );
    println!(
        "  threads | live | inline ops/s | cleanerd ops/s | speedup | inline runs/reloc | bg passes/reloc | stalls"
    );
    let cell = |o: &PressureOutcome| match o.ops_per_sec {
        Some(ops_per_sec) => format!("{ops_per_sec:.0}"),
        None => "DiskFull".to_string(),
    };
    for r in &runs {
        let (inline, background) = (&r.inline.stats, &r.background.stats);
        println!(
            "  {:>7} | {:>4} | {:>12} | {:>14} | {:>7} | {:>17} | {:>15} | {:>6}",
            r.threads,
            r.live_blocks,
            cell(&r.inline),
            cell(&r.background),
            r.speedup().map_or("-".to_string(), |x| format!("{x:.2}x")),
            format!("{}/{}", inline.cleaner_runs, inline.blocks_relocated),
            format!(
                "{}/{}",
                background.cleaner_passes, background.cleaner_blocks_relocated
            ),
            background.backpressure_stalls
        );
    }
    if let Some((r, x)) =
        (runs.iter()).find_map(|r| Some((r, r.speedup()?)).filter(|_| r.threads >= 4))
    {
        println!(
            "  at {} threads the background cleaner sustains {x:.2}x the inline foreground ops/s",
            r.threads
        );
    }
}
