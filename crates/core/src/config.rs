use crate::error::{LldError, Result};
use crate::obs::ObsConfig;
use crate::segment::MAX_BLOCK_SIZE;

/// Whether the logical disk supports *concurrent* atomic recovery units.
///
/// The paper's evaluation compares "old" (the original LLD prototype with
/// sequential ARUs) against "new" (the prototype extended with concurrent
/// ARUs). Both are available here, selected at format time, so the
/// concurrency overhead can be measured on identical workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConcurrencyMode {
    /// The paper's "old" version: at most one ARU may be active at a
    /// time, and its operations apply directly to the committed state
    /// (no shadow versions, no list-operation log). Failure atomicity of
    /// the single active ARU is still guaranteed by the commit record.
    Sequential,
    /// The paper's "new" version: any number of ARUs may be active, each
    /// with its own isolated shadow state, merged into the committed
    /// state at `EndARU`.
    #[default]
    Concurrent,
}

/// What a `Read` operation may see (§3.3 of the paper).
///
/// The three options offer increasing isolation between concurrent ARUs.
/// The paper's prototype implements option 3 ([`OwnShadow`]); the other
/// two are provided for completeness and for the visibility ablation
/// benchmark.
///
/// [`OwnShadow`]: ReadVisibility::OwnShadow
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadVisibility {
    /// Option 1: return the most recent shadow version of *any* ARU;
    /// every update is visible to all clients immediately.
    AnyShadow,
    /// Option 2: always return the committed version; updates become
    /// visible only when the writing ARU commits.
    Committed,
    /// Option 3 (default, the paper's choice): inside an ARU reads see
    /// that ARU's own shadow state; outside they see the committed
    /// state. Shadow states are fully isolated from each other and
    /// become visible atomically at commit.
    #[default]
    OwnShadow,
}

/// Segment-cleaner tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanerConfig {
    /// The emergency level: an operation whose segment roll leaves
    /// fewer free segments than this runs a cleaning round itself once
    /// its session is over (it must be at least 2 so a segment can be
    /// opened while another is being cleaned).
    pub min_free_segments: u32,
    /// The cleaner stops once this many segments are free.
    pub target_free_segments: u32,
    /// Whether the cleaner may run at all. With the cleaner disabled the
    /// disk simply reports [`LldError::DiskFull`] when the log wraps.
    pub enabled: bool,
    /// Who runs the cleaning pass: a dedicated background thread
    /// (`cleanerd`; default on), or the callers. There is one pass
    /// either way: it relocates live blocks in short scoped write
    /// windows and hands each victim slot back as it empties, with a
    /// covering checkpoint only when no victim is covered. The thread
    /// wakes when the free-segment count drops below
    /// `target_free_segments` (the low watermark). The operation whose
    /// roll left fewer than `min_free_segments` free runs a round on its
    /// own thread once its session is over, behind any round the thread
    /// is in. Without the thread — `false`, a thread the OS refused, and
    /// always in [`ConcurrencyMode::Sequential`] (the paper's `old` LLD
    /// is one process, and its open-ARU window must not get an
    /// asynchronous checkpoint writer) — that is the only cleaning, and
    /// it is deterministic. See docs/CLEANER.md.
    pub background: bool,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            min_free_segments: 3,
            target_free_segments: 6,
            enabled: true,
            background: true,
        }
    }
}

/// Configuration of a logical disk, fixed at format time.
///
/// # Example
///
/// ```
/// use ld_core::{ConcurrencyMode, LldConfig};
///
/// // The paper's "old" baseline configuration.
/// let cfg = LldConfig {
///     concurrency: ConcurrencyMode::Sequential,
///     ..LldConfig::default()
/// };
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.block_size, 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LldConfig {
    /// Logical and physical block size in bytes (default 4096, the
    /// paper's value). Must be a power of two, at least 512 and at most
    /// 64 KiB.
    pub block_size: usize,
    /// Total size of one segment in bytes, including the segment header
    /// block and the summary (default 512 KiB, the paper's 0.5 MByte).
    /// Must be a multiple of `block_size` and hold at least four blocks.
    pub segment_bytes: usize,
    /// Sequential vs. concurrent ARUs ("old" vs. "new").
    pub concurrency: ConcurrencyMode,
    /// Read visibility semantics (§3.3); the paper uses option 3.
    pub visibility: ReadVisibility,
    /// Segment-cleaner tuning.
    pub cleaner: CleanerConfig,
    /// Upper bound on simultaneously allocated logical blocks. `None`
    /// derives the bound from the number of data-block slots on the
    /// device. The bound sizes the checkpoint region at format time.
    pub max_blocks: Option<u64>,
    /// Upper bound on simultaneously allocated lists. `None` derives it
    /// from `max_blocks`.
    pub max_lists: Option<u64>,
    /// Automatically run the block-reclaiming consistency check at the
    /// end of recovery (the paper: "a disk consistency check during
    /// recovery should free such blocks").
    pub check_on_recovery: bool,
    /// Capacity of the data-block read cache, in blocks (0 disables).
    /// Plays the role of the Minix buffer cache in the paper's stack.
    pub read_cache_blocks: usize,
    /// Number of hash-partitioned mapping-layer shards (power of two,
    /// 1..=64; default 8). Block and list identifiers hash to a shard by
    /// `id & (map_shards - 1)`, and each shard carries its own
    /// readers-writer lock, so operations on identifiers in different
    /// shards never contend. A runtime knob, not persisted on disk: the
    /// same device may be recovered with any shard count.
    pub map_shards: usize,
    /// Observability: event tracing, stage spans and latency histograms
    /// (default on; see [`ObsConfig::disabled`]).
    pub obs: ObsConfig,
    /// Upper bound on recorded write-id outcomes in the exactly-once
    /// dedup cache (16..=65536; default 1024). The bound also reserves
    /// checkpoint-area space for the cache's snapshot slab at format
    /// time, so it participates in [`Layout::compute`](crate::Layout).
    /// A retry is deduplicated only while its outcome is within the
    /// newest `dedup_capacity` commits; clients must size their retry
    /// window accordingly (see docs/PROTOCOL.md).
    pub dedup_capacity: usize,
    /// Directory the crash flight recorder dumps into. When set, a
    /// failed background cleaner pass or a panic on the cleaner thread
    /// writes a JSON sidecar file
    /// (`ld-flight-<pid>-<n>.json`) with the last trace events and a
    /// final stats snapshot. Best-effort: dump I/O errors are ignored.
    ///
    /// The default honours the `LD_ARU_FLIGHT_DIR` environment variable
    /// (non-empty value = the directory path).
    pub flight_dir: Option<std::path::PathBuf>,
}

impl Default for LldConfig {
    fn default() -> Self {
        LldConfig {
            block_size: 4096,
            segment_bytes: 512 * 1024,
            concurrency: ConcurrencyMode::default(),
            visibility: ReadVisibility::default(),
            cleaner: CleanerConfig::default(),
            max_blocks: None,
            max_lists: None,
            check_on_recovery: true,
            read_cache_blocks: 1024,
            map_shards: 8,
            obs: ObsConfig::default(),
            dedup_capacity: 1024,
            flight_dir: default_flight_dir(),
        }
    }
}

/// Maximum supported shard count (shard sets are u64 bitmasks).
pub(crate) const MAX_MAP_SHARDS: usize = 64;

/// Bounds on the write-id dedup cache capacity. The upper bound keeps
/// the checkpoint-area reservation for the dedup table (at most 32
/// bytes an outcome) modest even on small devices.
pub(crate) const MIN_DEDUP_CAPACITY: usize = 16;
pub(crate) const MAX_DEDUP_CAPACITY: usize = 65536;

fn default_flight_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("LD_ARU_FLIGHT_DIR")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

impl LldConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LldError::Config`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.block_size.is_power_of_two() || !(512..=MAX_BLOCK_SIZE).contains(&self.block_size)
        {
            return Err(LldError::Config(format!(
                "block_size {} must be a power of two in 512..={MAX_BLOCK_SIZE}",
                self.block_size
            )));
        }
        if !self.segment_bytes.is_multiple_of(self.block_size) {
            return Err(LldError::Config(format!(
                "segment_bytes {} must be a multiple of block_size {}",
                self.segment_bytes, self.block_size
            )));
        }
        if self.segment_bytes / self.block_size < 4 {
            return Err(LldError::Config(
                "a segment must hold at least four blocks".into(),
            ));
        }
        if self.cleaner.enabled && self.cleaner.min_free_segments < 2 {
            return Err(LldError::Config(
                "cleaner.min_free_segments must be at least 2".into(),
            ));
        }
        if self.cleaner.target_free_segments < self.cleaner.min_free_segments {
            return Err(LldError::Config(
                "cleaner.target_free_segments must be >= min_free_segments".into(),
            ));
        }
        if !self.map_shards.is_power_of_two() || self.map_shards > MAX_MAP_SHARDS {
            return Err(LldError::Config(format!(
                "map_shards {} must be a power of two in 1..={MAX_MAP_SHARDS}",
                self.map_shards
            )));
        }
        if !(MIN_DEDUP_CAPACITY..=MAX_DEDUP_CAPACITY).contains(&self.dedup_capacity) {
            return Err(LldError::Config(format!(
                "dedup_capacity {} must be in {MIN_DEDUP_CAPACITY}..={MAX_DEDUP_CAPACITY}",
                self.dedup_capacity
            )));
        }
        Ok(())
    }

    /// The most full data blocks a segment holds: its header sector and
    /// its summary need room, so one block fewer than the slot has.
    pub fn max_slots_per_segment(&self) -> u32 {
        (self.segment_bytes / self.block_size - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = LldConfig::default();
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.segment_bytes, 512 * 1024);
        assert_eq!(c.concurrency, ConcurrencyMode::Concurrent);
        assert_eq!(c.visibility, ReadVisibility::OwnShadow);
        assert!(c.validate().is_ok());
        assert_eq!(c.max_slots_per_segment(), 127);
    }

    /// The modes are values: nothing ambient selects a code path.
    #[test]
    fn default_modes_are_constants() {
        let c = LldConfig::default();
        assert!(c.cleaner.background);
        assert_eq!(c.map_shards, 8);
    }

    #[test]
    fn rejects_bad_block_size() {
        let c = LldConfig {
            block_size: 3000,
            ..LldConfig::default()
        };
        assert!(matches!(c.validate(), Err(LldError::Config(_))));
        let c = LldConfig {
            block_size: 256,
            ..LldConfig::default()
        };
        assert!(matches!(c.validate(), Err(LldError::Config(_))));
        let c = LldConfig {
            block_size: 1 << 17,
            segment_bytes: 1 << 20,
            ..LldConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_misaligned_segment() {
        let c = LldConfig {
            segment_bytes: 4096 * 4 + 17,
            ..LldConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_tiny_segment() {
        let c = LldConfig {
            segment_bytes: 4096 * 2,
            ..LldConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_cleaner_thresholds() {
        let mut c = LldConfig::default();
        c.cleaner.min_free_segments = 1;
        assert!(c.validate().is_err());
        c.cleaner.min_free_segments = 4;
        c.cleaner.target_free_segments = 3;
        assert!(c.validate().is_err());
        c.cleaner.enabled = false;
        c.cleaner.min_free_segments = 0;
        c.cleaner.target_free_segments = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_dedup_capacity() {
        for bad in [0usize, 15, 65537] {
            let c = LldConfig {
                dedup_capacity: bad,
                ..LldConfig::default()
            };
            assert!(
                c.validate().is_err(),
                "dedup_capacity {bad} should be rejected"
            );
        }
        for good in [16usize, 1024, 65536] {
            let c = LldConfig {
                dedup_capacity: good,
                ..LldConfig::default()
            };
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn rejects_bad_shard_counts() {
        for bad in [0usize, 3, 6, 128] {
            let c = LldConfig {
                map_shards: bad,
                ..LldConfig::default()
            };
            assert!(c.validate().is_err(), "map_shards {bad} should be rejected");
        }
        for good in [1usize, 2, 8, 64] {
            let c = LldConfig {
                map_shards: good,
                ..LldConfig::default()
            };
            assert!(c.validate().is_ok());
        }
    }
}
