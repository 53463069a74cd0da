//! Restart latency: what sharded checkpoint snapshots buy at recovery
//! time.
//!
//! One study, on an in-memory device so the numbers isolate the
//! recovery *computation* (CRC checks, record replay, table rebuild)
//! rather than media latency:
//!
//! **Flat restart** — a fixed working set takes a growing log of
//! overwrites (1×, 2×, 4×, 8× the base update count) before the
//! checkpoint, while the post-checkpoint suffix stays fixed. With a
//! covering checkpoint, restart reads the snapshot slabs and replays
//! only the fixed suffix, so wall time stays roughly flat; the same
//! history recovered *without* a checkpoint replays every update and
//! grows linearly with log length. The gap is what the checkpoint
//! subsystem is for.
//!
//! The consistency check (`check_on_recovery`) is off for every run:
//! it is an optional post-recovery audit, and its full-map walk would
//! dilute the phase timings this experiment is about.
//!
//! Usage: `recovery_bench [--quick] [--json]`

use ld_core::obs::json::{Arr, Obj};
use ld_core::{BlockId, Ctx, Lld, LldConfig, Position, RecoveryReport};
use ld_disk::MemDisk;
use std::time::Instant;

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

/// Recovers a copy of `image`; wall time plus the phase breakdown from
/// the report. The image copy happens before the clock starts — it is
/// test scaffolding, not recovery work.
fn recover_once(image: &[u8]) -> (f64, RecoveryReport) {
    let device = MemDisk::from_image(image.to_vec());
    let start = Instant::now();
    let (ld, report) = Lld::recover_with(device, &config()).expect("recover");
    let wall = start.elapsed().as_secs_f64();
    drop(ld);
    (wall, report)
}

/// Median-of-3 recovery wall time (recovery is short; MemDisk runs are
/// noisy enough to bother).
fn recover_med(image: &[u8]) -> (f64, RecoveryReport) {
    let mut runs: Vec<(f64, RecoveryReport)> = (0..3).map(|_| recover_once(image)).collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    runs.swap_remove(1)
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
}
