//! The ARU-latency experiment (§5.3): start and end an empty ARU many
//! times and measure the per-ARU cost (the paper reports 78.47 µs and
//! 24 segments written for 500,000 ARUs).

use ld_core::{LogicalDisk, Result};

/// Begin/end an empty ARU `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AruLatencyWorkload {
    /// Number of begin/end pairs.
    pub count: u64,
}

/// What an [`AruLatencyWorkload`] run produced (counts only; the bench
/// harness adds timing from the virtual clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AruLatencyResult {
    /// ARUs committed.
    pub arus: u64,
}

impl AruLatencyWorkload {
    /// The paper's 500,000 iterations.
    pub fn paper() -> Self {
        AruLatencyWorkload { count: 500_000 }
    }

    /// Runs the workload against a logical disk and flushes at the end.
    /// Segment counts are read from the disk's statistics by the caller.
    ///
    /// # Errors
    ///
    /// Logical-disk errors.
    pub fn run<L: LogicalDisk>(&self, ld: &L) -> Result<AruLatencyResult> {
        for _ in 0..self.count {
            let aru = ld.begin_aru()?;
            ld.end_aru(aru)?;
        }
        ld.flush()?;
        Ok(AruLatencyResult { arus: self.count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_core::{Lld, LldConfig};
    use ld_disk::MemDisk;

    #[test]
    fn commit_records_fill_segments() {
        let ld = Lld::format(
            MemDisk::new(4 << 20),
            &LldConfig {
                block_size: 512,
                segment_bytes: 8 * 512,
                max_blocks: Some(64),
                max_lists: Some(16),
                ..LldConfig::default()
            },
        )
        .unwrap();
        let w = AruLatencyWorkload { count: 1000 };
        let res = w.run(&ld).unwrap();
        assert_eq!(res.arus, 1000);
        // 1000 commit records of at most 5 bytes each (a tag, then an
        // ARU id and a timestamp below 2^14, two varint bytes each) ≈
        // 4.8 KB; a segment holds ~3.5 KB of summary here, so two
        // segments were written.
        assert!(ld.stats().summary_bytes <= 5 * 1000);
        assert!(ld.stats().segments_sealed >= 2);
        assert_eq!(ld.stats().arus_committed, 1000);
        assert_eq!(ld.stats().records_emitted, 1000);
    }
}
