//! Log wrap and the segment cleaner — one pass, run by the caller, then
//! by a background thread.
//!
//! Phase 1 fills a small logical disk with churn until the log wraps
//! several times, with no cleaner thread: the operation whose roll
//! leaves free slots below the emergency level runs the cleaning pass
//! on its own thread once its locks are let go. It shows the cleaner's
//! statistics, and proves the surviving data and crash recovery are
//! unaffected. Phase 2 repeats the churn with `cleanerd` (the
//! background cleaner thread) running the same pass: the foreground
//! cleans only where a roll leaves fewer free slots than the emergency
//! level, behind the thread's round, and the same survival guarantees
//! hold.
//!
//! Run with: `cargo run --example cleaner_pressure`

use ld_core::{BlockId, CleanerConfig, Ctx, ListId, Lld, LldConfig, LldError, Position};
use ld_disk::MemDisk;
use ld_workload::pattern_fill;

/// The blocks the churn goes round: as many as a slot has, so that each
/// overwrite finds the version it supersedes in a sealed segment and
/// appends. (Overwriting *one* block makes no log to clean: each write
/// takes the place of the last in the open segment, and only the record
/// is appended.)
fn hot_ring(ld: &Lld<MemDisk>, list: ListId, mut after: BlockId) -> Result<Vec<BlockId>, LldError> {
    (0..ld.segment_bytes() / ld.block_size())
        .map(|_| {
            after = ld.new_block(Ctx::Simple, list, Position::After(after))?;
            Ok(after)
        })
        .collect()
}

fn config(background: bool) -> LldConfig {
    LldConfig {
        block_size: 4096,
        segment_bytes: 64 * 1024,
        max_blocks: Some(512),
        max_lists: Some(32),
        cleaner: CleanerConfig {
            background,
            ..CleanerConfig::default()
        },
        ..LldConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately tiny disk: ~40 segments of 64 KiB.
    let ld = Lld::format(MemDisk::new(4 << 20), &config(false))?;
    println!(
        "device: {} segments, {} free",
        ld.n_segments(),
        ld.free_segments()
    );

    // A handful of cold blocks that must survive all the churn...
    let list = ld.new_list(Ctx::Simple)?;
    let mut cold = Vec::new();
    let mut prev = None;
    let mut buf = vec![0u8; 4096];
    for i in 0..8u64 {
        let pos = match prev {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = ld.new_block(Ctx::Simple, list, pos)?;
        pattern_fill(&mut buf, i);
        ld.write(Ctx::Simple, b, &buf)?;
        cold.push(b);
        prev = Some(b);
    }

    // ...plus a few hot blocks overwritten until the log wraps
    // repeatedly.
    let hot = hot_ring(&ld, list, prev.unwrap())?;
    for i in 0..2000u64 {
        pattern_fill(&mut buf, 1_000_000 + i);
        ld.write(Ctx::Simple, hot[i as usize % hot.len()], &buf)?;
    }

    let s = ld.stats();
    println!(
        "after 2000 overwrites: {} segments sealed, {} passes on the \
         caller's thread, {} blocks relocated, {} checkpoints, {} free segments",
        s.segments_sealed,
        s.cleaner_passes,
        s.blocks_relocated,
        s.checkpoints,
        ld.free_segments()
    );
    assert!(s.cleaner_passes > 0, "the cleaner must have run");

    // Cold data survived relocation.
    let mut expect = vec![0u8; 4096];
    for (i, &b) in cold.iter().enumerate() {
        ld.read(Ctx::Simple, b, &mut buf)?;
        pattern_fill(&mut expect, i as u64);
        assert_eq!(buf, expect, "cold block {i} corrupted by cleaning");
    }
    println!("all cold blocks intact after relocation");

    // And the whole thing still recovers.
    ld.flush()?;
    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover(MemDisk::from_image(image))?;
    println!(
        "recovery: checkpoint seq {}, {} segments replayed",
        report.checkpoint_seq, report.segments_replayed
    );
    for (i, &b) in cold.iter().enumerate() {
        ld2.read(Ctx::Simple, b, &mut buf)?;
        pattern_fill(&mut expect, i as u64);
        assert_eq!(buf, expect);
    }
    ld2.read(Ctx::Simple, hot[1999 % hot.len()], &mut buf)?;
    pattern_fill(&mut expect, 1_000_000 + 1999);
    assert_eq!(buf, expect);
    println!("recovered state matches the last committed writes");

    // Phase 2: the same churn with the background cleaner. `cleanerd`
    // wakes at the low watermark and runs the same pass — snapshot
    // victims, relocate live blocks in short write windows, hand each
    // victim back as it empties — off the foreground path.
    println!("\n--- background cleaner (cleanerd) ---");
    let ld = Lld::format(MemDisk::new(4 << 20), &config(true))?;
    let list = ld.new_list(Ctx::Simple)?;
    let mut cold = Vec::new();
    let mut prev = None;
    for i in 0..8u64 {
        let pos = match prev {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = ld.new_block(Ctx::Simple, list, pos)?;
        pattern_fill(&mut buf, i);
        ld.write(Ctx::Simple, b, &buf)?;
        cold.push(b);
        prev = Some(b);
    }
    let hot = hot_ring(&ld, list, prev.unwrap())?;
    for i in 0..2000u64 {
        pattern_fill(&mut buf, 2_000_000 + i);
        ld.write(Ctx::Simple, hot[i as usize % hot.len()], &buf)?;
    }
    let s = ld.stats();
    println!(
        "after 2000 overwrites: {} passes, {} blocks relocated by them, \
         {} stale snapshots skipped, {} reserve passes",
        s.cleaner_passes,
        s.cleaner_blocks_relocated,
        s.cleaner_stale_skips,
        s.cleaner_runs - s.cleaner_passes,
    );
    assert!(s.cleaner_passes > 0, "cleanerd must have run a pass");
    for (i, &b) in cold.iter().enumerate() {
        ld.read(Ctx::Simple, b, &mut buf)?;
        pattern_fill(&mut expect, i as u64);
        assert_eq!(buf, expect, "cold block {i} corrupted by cleanerd");
    }
    println!("all cold blocks intact after background relocation");

    // Recovery holds with cleanerd in the picture too; `into_device`
    // joins the cleaner thread before releasing the device.
    ld.flush()?;
    let image = ld.into_device().into_image();
    let (ld2, report) = Lld::recover(MemDisk::from_image(image))?;
    println!(
        "recovery: checkpoint seq {}, {} segments replayed",
        report.checkpoint_seq, report.segments_replayed
    );
    for (i, &b) in cold.iter().enumerate() {
        ld2.read(Ctx::Simple, b, &mut buf)?;
        pattern_fill(&mut expect, i as u64);
        assert_eq!(buf, expect);
    }
    ld2.read(Ctx::Simple, hot[1999 % hot.len()], &mut buf)?;
    pattern_fill(&mut expect, 2_000_000 + 1999);
    assert_eq!(buf, expect);
    println!("recovered state matches the last committed writes");
    Ok(())
}
