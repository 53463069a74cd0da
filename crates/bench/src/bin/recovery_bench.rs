//! Restart latency: what sharded checkpoint snapshots buy at recovery
//! time.
//!
//! Two studies. The first runs on an in-memory device so the numbers
//! isolate the recovery *computation* (CRC checks, record replay, table
//! rebuild) rather than media latency:
//!
//! **Flat restart** — a fixed working set takes a growing log of
//! overwrites (1×, 2×, 4×, 8× the base update count) before the
//! checkpoint, while the post-checkpoint suffix stays fixed. With a
//! covering checkpoint, restart reads the snapshot slabs and replays
//! only the fixed suffix, so wall time stays roughly flat. The same
//! history written *without* that explicit checkpoint used to replay
//! every update and grow linearly with log length; since the writer
//! bounds the suffix by its summary bytes too (docs/RECOVERY.md "The
//! suffix bound") it checkpoints of its own accord once the log is as
//! long as the tables, and that column is flat as well: it now shows
//! the bound at work, not a log without one.
//!
//! **Restart vs device size** — the same checkpointed working set and
//! the same suffix of 48 flushed update ARUs on devices of 64, 256 and
//! 1024 segment slots, recovered through a [`LatencyDisk`] that charges
//! 100 µs per read (the access time the `benchmark/` ledger models).
//! Each flushed ARU is a segment of its own, or two when its slot runs
//! out under it. Recovery walks the log's chain from the checkpoint's
//! head, so the scan issues one read per suffix segment, one more per
//! slot the suffix enters, and restart does not grow with the device; a
//! scan that probed every slot would add 100 µs per slot.
//!
//! The consistency check (`check_on_recovery`) is off for every run:
//! it is an optional post-recovery audit, and its full-map walk would
//! dilute the phase timings this experiment is about.
//!
//! Usage: `recovery_bench [--quick] [--json]`

use ld_core::obs::json::{Arr, Obj};
use ld_core::{BlockId, Ctx, Layout, Lld, LldConfig, Position, RecoveryReport};
use ld_disk::{BlockDevice, LatencyDisk, MemDisk};
use std::time::{Duration, Instant};

const BS: usize = 512;

fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 64 * BS,
        check_on_recovery: false,
        ..LldConfig::default()
    }
}

/// Appends `arus` committed ARUs, each building one private list of
/// `blocks_per` written blocks (allocations, writes, same-list links:
/// the common case for a crashed busy disk). Returns the created
/// blocks.
fn fill(ld: &Lld<MemDisk>, arus: u64, blocks_per: u64) -> Vec<BlockId> {
    let data = vec![0xA5u8; BS];
    let mut blocks = Vec::with_capacity((arus * blocks_per) as usize);
    for _ in 0..arus {
        let aru = ld.begin_aru().expect("begin_aru");
        let list = ld.new_list(Ctx::Aru(aru)).expect("new_list");
        let mut pred = None;
        for _ in 0..blocks_per {
            let pos = match pred {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let b = ld.new_block(Ctx::Aru(aru), list, pos).expect("new_block");
            ld.write(Ctx::Aru(aru), b, &data).expect("write");
            pred = Some(b);
            blocks.push(b);
        }
        ld.end_aru(aru).expect("end_aru");
    }
    blocks
}

/// Appends `arus` committed update ARUs, each overwriting `writes_per`
/// blocks of the working set (deterministic LCG pick) — the
/// overwrite-heavy long-log shape a hot disk leaves behind.
fn update(ld: &Lld<MemDisk>, working_set: &[BlockId], arus: u64, writes_per: u64) {
    let data = vec![0x5Au8; BS];
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..arus {
        let aru = ld.begin_aru().expect("begin_aru");
        for _ in 0..writes_per {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = working_set[(lcg >> 33) as usize % working_set.len()];
            ld.write(Ctx::Aru(aru), b, &data).expect("write");
        }
        ld.end_aru(aru).expect("end_aru");
    }
}

/// Builds an image holding a working set (`ws_arus` fill ARUs), a
/// `pre` update-ARU history, an optional covering checkpoint, then a
/// `suffix` update-ARU tail, and crashes (no flush beyond what commit
/// already made durable).
fn build_image(
    ws_arus: u64,
    blocks_per: u64,
    pre: u64,
    suffix: u64,
    writes_per: u64,
    checkpoint: bool,
) -> Vec<u8> {
    let ld = Lld::format(MemDisk::new(96 << 20), &config()).expect("format");
    let working_set = fill(&ld, ws_arus, blocks_per);
    update(&ld, &working_set, pre, writes_per);
    if checkpoint {
        ld.checkpoint().expect("checkpoint");
    }
    update(&ld, &working_set, suffix, writes_per);
    ld.into_device().into_image()
}

/// Recovers `device`; wall time plus the phase breakdown from the
/// report. Building the device (an image copy) happens before the clock
/// starts — it is test scaffolding, not recovery work.
fn recover_timed<D: BlockDevice + 'static>(device: D, cfg: &LldConfig) -> (f64, RecoveryReport) {
    let start = Instant::now();
    let (ld, report) = Lld::recover_with(device, cfg).expect("recover");
    let wall = start.elapsed().as_secs_f64();
    drop(ld);
    (wall, report)
}

/// Median-of-3 recovery wall time (recovery is short; MemDisk runs are
/// noisy enough to bother).
fn recover_med(image: &[u8]) -> (f64, RecoveryReport) {
    let mut runs: Vec<(f64, RecoveryReport)> = (0..3)
        .map(|_| recover_timed(MemDisk::from_image(image.to_vec()), &config()))
        .collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    runs.swap_remove(1)
}

/// The device-size study's geometry: limits fixed so the checkpoint
/// areas — and with them everything but the slot count — are the same
/// on every device size.
fn sized_config() -> LldConfig {
    LldConfig {
        max_blocks: Some(4096),
        max_lists: Some(1024),
        ..config()
    }
}

/// An image on a device of exactly `slots` segment slots: a 50-ARU
/// working set under a checkpoint, then `suffix` flushed update ARUs.
fn build_sized_image(slots: u64, suffix: u64) -> Vec<u8> {
    let cfg = sized_config();
    let data_start = Layout::compute(1 << 30, &cfg).expect("layout").data_start;
    let capacity = data_start + slots * cfg.segment_bytes as u64;
    let ld = Lld::format(MemDisk::new(capacity), &cfg).expect("format");
    assert_eq!(u64::from(ld.n_segments()), slots);
    let working_set = fill(&ld, 50, 6);
    ld.checkpoint().expect("checkpoint");
    for _ in 0..suffix {
        update(&ld, &working_set, 1, 4);
        ld.flush().expect("flush");
    }
    ld.into_device().into_image()
}

/// Recovers `image` `repeats` times behind a 100 µs-per-read device;
/// returns the wall times in ascending order and the report of the
/// median run.
fn recover_on_latency_disk(image: &[u8], repeats: usize) -> (Vec<f64>, RecoveryReport) {
    let mut runs: Vec<(f64, RecoveryReport)> = (0..repeats)
        .map(|_| {
            let device = LatencyDisk::new(MemDisk::from_image(image.to_vec()), Duration::ZERO)
                .with_read_delay(Duration::from_micros(100));
            recover_timed(device, &sized_config())
        })
        .collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let report = runs[repeats / 2].1.clone();
    (runs.into_iter().map(|r| r.0).collect(), report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blocks_per: u64 = 6;
    let ws_arus: u64 = if quick { 150 } else { 400 };
    let writes_per: u64 = 4;
    let base_pre: u64 = if quick { 750 } else { 3000 };
    let suffix: u64 = if quick { 150 } else { 600 };

    // Restart stays flat as pre-checkpoint history grows.
    let mut flat = Arr::new();
    let mut flat_rows: Vec<(u64, f64, f64, RecoveryReport)> = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let pre = base_pre * mult;
        let with_ckpt = build_image(ws_arus, blocks_per, pre, suffix, writes_per, true);
        let without_ckpt = build_image(ws_arus, blocks_per, pre, suffix, writes_per, false);
        let (ckpt_wall, report) = recover_med(&with_ckpt);
        let (raw_wall, _) = recover_med(&without_ckpt);
        flat.push_raw(
            &Obj::new()
                .u64("pre_ckpt_update_arus", pre)
                .u64("suffix_update_arus", suffix)
                .u64("checkpoint_seq", report.checkpoint_seq)
                .u64("snap_shards", report.snap_shards as u64)
                .u64("segments_replayed", report.segments_replayed as u64)
                .f64("ckpt_restart_ms", ckpt_wall * 1e3)
                .f64("no_ckpt_restart_ms", raw_wall * 1e3)
                .f64("snapshot_load_ms", report.snapshot_load_ns as f64 / 1e6)
                .f64("scan_ms", report.scan_ns as f64 / 1e6)
                .f64("replay_ms", report.replay_ns as f64 / 1e6)
                .f64("finalize_ms", report.finalize_ns as f64 / 1e6)
                .finish(),
        );
        flat_rows.push((pre, ckpt_wall, raw_wall, report));
    }

    // Restart stays flat as the device grows under a fixed suffix.
    // 48 flushed ARUs are 51 segments: three of them find their slot
    // run out halfway and finish in the next one.
    let sized_suffix: u64 = 48;
    let sized_segments: u64 = 51;
    let repeats: usize = if quick { 3 } else { 7 };
    let mut sized = Arr::new();
    let mut sized_rows: Vec<(u64, Vec<f64>, RecoveryReport)> = Vec::new();
    for slots in [64u64, 256, 1024] {
        let image = build_sized_image(slots, sized_suffix);
        let (walls, report) = recover_on_latency_disk(&image, repeats);
        assert_eq!(u64::from(report.segments_replayed), sized_segments);
        sized.push_raw(
            &Obj::new()
                .u64("segment_slots", slots)
                .u64("segments_replayed", report.segments_replayed as u64)
                .u64("slots_probed", report.segments_scanned as u64)
                .f64("restart_ms_median", walls[repeats / 2] * 1e3)
                .f64("restart_ms_min", walls[0] * 1e3)
                .f64("restart_ms_max", walls[repeats - 1] * 1e3)
                .f64("scan_ms", report.scan_ns as f64 / 1e6)
                .finish(),
        );
        sized_rows.push((slots, walls, report));
    }

    if json {
        let mut out = Arr::new();
        out.push_raw(
            &Obj::new()
                .str("experiment", "recovery_flat_restart")
                .str("device", "mem")
                .u64("host_cores", host_cores as u64)
                .u64("working_set_arus", ws_arus)
                .u64("blocks_per_aru", blocks_per)
                .u64("writes_per_aru", writes_per)
                .raw("runs", &flat.finish())
                .finish(),
        );
        out.push_raw(
            &Obj::new()
                .str("experiment", "recovery_restart_vs_device_size")
                .str("device", "latency(mem), 100us per read")
                .u64("host_cores", host_cores as u64)
                .u64("repeats", repeats as u64)
                .u64("suffix_flushed_arus", sized_suffix)
                .raw("runs", &sized.finish())
                .finish(),
        );
        println!("{}", out.finish());
        return;
    }

    println!(
        "Restart latency (mem device, {ws_arus}x{blocks_per}-block working set, \
         {writes_per} writes/update ARU, {host_cores} host cores)"
    );
    println!();
    println!("Flat restart: fixed {suffix}-update-ARU suffix, growing pre-checkpoint history");
    println!(
        "  {:>12} {:>14} {:>16} {:>10} {:>10}",
        "pre ARUs", "ckpt restart", "no-ckpt restart", "load ms", "replay ms"
    );
    for (pre, ckpt_wall, raw_wall, report) in &flat_rows {
        println!(
            "  {:>12} {:>11.2} ms {:>13.2} ms {:>10.2} {:>10.2}",
            pre,
            ckpt_wall * 1e3,
            raw_wall * 1e3,
            report.snapshot_load_ns as f64 / 1e6,
            report.replay_ns as f64 / 1e6
        );
    }
    println!();
    println!(
        "Restart vs device size: fixed suffix of {sized_suffix} flushed ARUs, 100 us per read, \
         median [min, max] of {repeats}"
    );
    println!(
        "  {:>8} {:>14} {:>26} {:>10}",
        "slots", "slots probed", "restart ms", "scan ms"
    );
    for (slots, walls, report) in &sized_rows {
        println!(
            "  {:>8} {:>14} {:>10.2} [{:>6.2}, {:>6.2}] {:>10.2}",
            slots,
            report.segments_scanned,
            walls[repeats / 2] * 1e3,
            walls[0] * 1e3,
            walls[repeats - 1] * 1e3,
            report.scan_ns as f64 / 1e6
        );
    }
}
