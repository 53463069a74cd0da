//! Multi-threaded driver: N OS threads share one logical disk and run
//! disjoint ARUs against it concurrently.
//!
//! The logical disk synchronizes internally (every [`LogicalDisk`]
//! operation takes `&self`), so the threads share a plain reference —
//! no external lock. Each thread builds private lists, so the ARUs
//! never contend on logical objects; all contention is inside the disk
//! system (mapping tables, log append, group commit), which is what
//! `ldctl stats --threads`, `ldctl trace` and `ldctl top` show.

use crate::pattern_fill;
use ld_core::{Ctx, LogicalDisk, Position, Result};

/// N threads, each committing a stream of small ARUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtWorkload {
    /// Number of OS threads.
    pub threads: usize,
    /// ARUs committed by each thread.
    pub arus_per_thread: usize,
    /// Blocks allocated and written inside each ARU.
    pub blocks_per_aru: usize,
    /// Mixed into the data patterns so distinct runs write distinct
    /// bytes.
    pub seed: u64,
}

/// What an [`MtWorkload`] run produced (counts only; the caller adds
/// timing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtReport {
    /// ARUs committed across all threads.
    pub arus_committed: u64,
    /// Blocks written across all threads.
    pub blocks_written: u64,
    /// Logical-disk operations issued across all threads (begin, alloc,
    /// write, commit — the unit of the ops/s throughput figures).
    pub ops: u64,
}

impl MtWorkload {
    /// A small configuration: what `ldctl stats --threads N` and
    /// `ldctl trace` run, and the tests' default.
    pub fn smoke(threads: usize) -> Self {
        MtWorkload {
            threads,
            arus_per_thread: 50,
            blocks_per_aru: 2,
            seed: 1,
        }
    }

    /// Operations one thread issues per ARU (begin + new_list + per
    /// block alloc+write + commit).
    fn ops_per_aru(&self) -> u64 {
        3 + 2 * self.blocks_per_aru as u64
    }

    /// Runs the workload: spawns [`threads`](MtWorkload::threads) OS
    /// threads over the shared disk and waits for all of them. Every
    /// ARU commits with `end_aru_sync`, so the threads contend on group
    /// commit; a final flush closes the run.
    ///
    /// # Errors
    ///
    /// The first logical-disk error any thread hit (remaining threads
    /// still run to completion).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panics.
    pub fn run<L: LogicalDisk + Sync>(&self, ld: &L) -> Result<MtReport> {
        let block_size = ld.block_size();
        let results: Vec<Result<MtReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    s.spawn(move || -> Result<MtReport> {
                        let mut data = vec![0u8; block_size];
                        let mut report = MtReport::default();
                        for i in 0..self.arus_per_thread {
                            let tag = self
                                .seed
                                .wrapping_mul(0x0010_0000_000F)
                                .wrapping_add((t * 1_000_003 + i) as u64);
                            let aru = ld.begin_aru()?;
                            let list = ld.new_list(Ctx::Aru(aru))?;
                            let mut prev = None;
                            for b in 0..self.blocks_per_aru {
                                let pos = match prev {
                                    None => Position::First,
                                    Some(p) => Position::After(p),
                                };
                                let blk = ld.new_block(Ctx::Aru(aru), list, pos)?;
                                pattern_fill(&mut data, tag ^ (b as u64) << 48);
                                ld.write(Ctx::Aru(aru), blk, &data)?;
                                prev = Some(blk);
                                report.blocks_written += 1;
                            }
                            ld.end_aru_sync(aru)?;
                            report.arus_committed += 1;
                            report.ops += self.ops_per_aru();
                        }
                        Ok(report)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let mut total = MtReport::default();
        for r in results {
            let r = r?;
            total.arus_committed += r.arus_committed;
            total.blocks_written += r.blocks_written;
            total.ops += r.ops;
        }
        ld.flush()?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{Lld, LldConfig};
    use ld_disk::MemDisk;

    fn ld() -> Lld<MemDisk> {
        Lld::format(
            MemDisk::new(16 << 20),
            &LldConfig {
                block_size: 512,
                segment_bytes: 16 * 512,
                max_blocks: Some(4096),
                max_lists: Some(1024),
                ..LldConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn four_threads_commit_everything() {
        let ld = ld();
        let w = MtWorkload {
            threads: 4,
            arus_per_thread: 25,
            blocks_per_aru: 2,
            seed: 7,
        };
        let report = w.run(&ld).unwrap();
        assert_eq!(report.arus_committed, 100);
        assert_eq!(report.blocks_written, 200);
        assert_eq!(report.ops, 100 * 7);
        assert_eq!(ld.stats().arus_committed, 100);
        assert!(ld.active_arus().is_empty());
    }

    #[test]
    fn sync_commits_drive_the_group_commit_stage() {
        let ld = ld();
        let w = MtWorkload::smoke(4);
        let report = w.run(&ld).unwrap();
        assert_eq!(report.arus_committed, 200);
        let stats = ld.stats();
        // Every synchronous commit was covered by exactly one batch.
        assert_eq!(stats.flush_batch_callers, 200 + 1); // + final flush
        assert!(stats.flush_batches >= 1);
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let ld = ld();
        let w = MtWorkload {
            threads: 1,
            arus_per_thread: 10,
            blocks_per_aru: 1,
            seed: 3,
        };
        let report = w.run(&ld).unwrap();
        assert_eq!(report.arus_committed, 10);
        // Single-threaded sync commits can never batch.
        assert_eq!(ld.stats().flush_batch_max, 1);
    }
}
