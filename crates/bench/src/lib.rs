//! Benchmark harness regenerating the paper's evaluation (§5).
//!
//! Every experiment compares the MinixLLD versions of Table 1:
//!
//! | label         | logical disk        | file system                         |
//! |---------------|---------------------|-------------------------------------|
//! | `old`         | sequential ARUs     | no ARU bracketing, per-block delete |
//! | `new`         | concurrent ARUs     | ARUs, per-block delete              |
//! | `new, delete` | concurrent ARUs     | ARUs, whole-list delete             |
//!
//! ## Timing model
//!
//! The paper timed a 70 MHz SPARC-5/70 driving an HP C3010 disk. Here
//! every experiment runs on [`SimDisk`], which charges modeled service
//! time (seek + rotation + transfer, HP C3010 profile) to a virtual
//! clock, while the harness measures the real CPU time of the same run
//! and charges it to the same clock scaled by a configurable **CPU
//! slowdown** (default [`DEFAULT_CPU_SLOWDOWN`]) that restores a
//! 1996-era CPU:disk balance. Both components are reported separately,
//! so the raw measurements are always visible. Relative old/new results
//! come from genuinely executing both code paths over identical
//! operation streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ld_core::{CleanerConfig, ConcurrencyMode, Lld, LldConfig, ReadVisibility};
use ld_disk::{DiskModel, MemDisk, SimDisk, VirtualClock};
use ld_minixfs::{DeletePolicy, FsConfig, MinixFs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The file system type every benchmark drives.
pub type BenchFs = MinixFs<Lld<SimDisk<MemDisk>>>;

/// Default CPU slowdown: roughly a modern core vs. a 70 MHz
/// microSPARC-II on pointer-heavy integer code.
pub const DEFAULT_CPU_SLOWDOWN: f64 = 400.0;

/// The three MinixLLD versions of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// The original MinixLLD: sequential-ARU logical disk, no ARU
    /// bracketing in the file system.
    Old,
    /// Concurrent ARUs, original per-block file deletion.
    New,
    /// Concurrent ARUs with the improved whole-list file deletion.
    NewDelete,
}

impl Version {
    /// All versions, in the paper's presentation order.
    pub const ALL: [Version; 3] = [Version::Old, Version::New, Version::NewDelete];

    /// The paper's label.
    pub fn label(self) -> &'static str {
        match self {
            Version::Old => "old",
            Version::New => "new",
            Version::NewDelete => "new, delete",
        }
    }
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Block size in bytes (the paper: 4 KByte).
    pub block_size: usize,
    /// Segment size in bytes (the paper: 0.5 MByte).
    pub segment_bytes: usize,
    /// Device capacity in bytes (the paper: a 400 MByte partition plus
    /// metadata overhead).
    pub capacity: u64,
    /// Inodes available to the file system.
    pub inode_count: u32,
    /// CPU slowdown factor for the virtual clock.
    pub cpu_slowdown: f64,
    /// Repetitions per measurement (the paper averaged 10).
    pub runs: usize,
}

impl BenchConfig {
    /// The paper's full-scale configuration: ~100,000 × 4 KByte data
    /// blocks (400 MByte) in 0.5 MByte segments.
    pub fn paper() -> Self {
        BenchConfig {
            block_size: 4096,
            segment_bytes: 512 * 1024,
            capacity: 460 << 20,
            inode_count: 16 * 1024,
            cpu_slowdown: DEFAULT_CPU_SLOWDOWN,
            runs: 5,
        }
    }

    /// A reduced configuration for quick runs and CI.
    pub fn quick() -> Self {
        BenchConfig {
            block_size: 4096,
            segment_bytes: 128 * 1024,
            capacity: 96 << 20,
            inode_count: 4096,
            cpu_slowdown: DEFAULT_CPU_SLOWDOWN,
            runs: 1,
        }
    }

    /// Applies `--quick`, `--runs N`, and `--cpu-slowdown X` style
    /// command-line arguments (shared by all bench binaries).
    #[must_use]
    pub fn from_args(args: &[String]) -> Self {
        let mut cfg = if args.iter().any(|a| a == "--quick") {
            BenchConfig::quick()
        } else {
            BenchConfig::paper()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--runs" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        cfg.runs = v;
                    }
                }
                "--cpu-slowdown" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        cfg.cpu_slowdown = v;
                    }
                }
                _ => {}
            }
        }
        cfg
    }

    /// The logical-disk configuration for `version`. The paper's LLD
    /// is one process and the tables run on `SimDisk`'s virtual clock:
    /// every column cleans on the caller's thread (a second thread's
    /// device time would simply be added, and its scheduling would make
    /// the tables unrepeatable).
    pub fn ld_config(&self, version: Version) -> LldConfig {
        LldConfig {
            block_size: self.block_size,
            segment_bytes: self.segment_bytes,
            concurrency: match version {
                Version::Old => ConcurrencyMode::Sequential,
                _ => ConcurrencyMode::Concurrent,
            },
            visibility: ReadVisibility::OwnShadow,
            cleaner: CleanerConfig {
                background: false,
                ..CleanerConfig::default()
            },
            ..LldConfig::default()
        }
    }

    /// The file-system configuration for `version`.
    pub fn fs_config(&self, version: Version) -> FsConfig {
        FsConfig {
            use_arus: !matches!(version, Version::Old),
            delete_policy: match version {
                Version::NewDelete => DeletePolicy::WholeList,
                _ => DeletePolicy::PerBlock,
            },
            inode_count: self.inode_count,
        }
    }

    /// Builds a fresh simulated file system for `version`, with the
    /// virtual clock zeroed after formatting (format cost is excluded
    /// from measurements, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if formatting fails (configuration bugs, not runtime
    /// conditions).
    pub fn build_fs(&self, version: Version) -> BenchFs {
        let sim = SimDisk::new(MemDisk::new(self.capacity), DiskModel::hp_c3010());
        let ld = Lld::format(sim, &self.ld_config(version)).expect("format");
        let fs = MinixFs::format(ld, self.fs_config(version)).expect("fs format");
        fs.ld().device().clock().reset();
        fs.ld().device().stats().reset();
        fs
    }

    /// Builds a fresh bare logical disk for `version` (for experiments
    /// that bypass the file system, like the ARU-latency run).
    ///
    /// # Panics
    ///
    /// Panics if formatting fails.
    pub fn build_ld(&self, version: Version) -> Lld<SimDisk<MemDisk>> {
        let sim = SimDisk::new(MemDisk::new(self.capacity), DiskModel::hp_c3010());
        let ld = Lld::format(sim, &self.ld_config(version)).expect("format");
        ld.device().clock().reset();
        ld.device().stats().reset();
        ld
    }
}

/// One measured phase: real CPU time plus modeled disk time.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTiming {
    /// Real (wall-clock) CPU time of the phase.
    pub wall: Duration,
    /// Modeled disk service time charged during the phase.
    pub disk: Duration,
    /// CPU slowdown used for the virtual total.
    pub cpu_slowdown: f64,
}

impl PhaseTiming {
    /// Virtual elapsed time in seconds: disk service time plus scaled
    /// CPU time.
    pub fn virtual_secs(&self) -> f64 {
        self.disk.as_secs_f64() + self.wall.as_secs_f64() * self.cpu_slowdown
    }
}

/// Measures one phase of work: captures the virtual-clock delta and the
/// real elapsed time around `f`. The harness controls measurement noise
/// structurally instead (pre-faulted device memory, a discarded warm-up
/// iteration, medians over repeated runs).
///
/// # Errors
///
/// Propagates whatever the phase returns.
pub fn measure<T, E>(
    clock: &Arc<VirtualClock>,
    cpu_slowdown: f64,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, PhaseTiming), E> {
    let disk_before = clock.now();
    let start = Instant::now();
    let out = f()?;
    let wall = start.elapsed();
    let disk = clock.now().saturating_sub(disk_before);
    Ok((
        out,
        PhaseTiming {
            wall,
            disk,
            cpu_slowdown,
        },
    ))
}

/// Percent difference of throughputs: positive = `new` is slower (the
/// paper's "percent-difference").
pub fn percent_slower(old_throughput: f64, new_throughput: f64) -> f64 {
    if old_throughput == 0.0 {
        return 0.0;
    }
    (old_throughput - new_throughput) / old_throughput * 100.0
}

/// Median of a slice (the harness's robust average over runs).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no runs");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    values[values.len() / 2]
}

/// Prints Table 1 (the version matrix) as a header for a report.
pub fn print_versions_table() {
    println!("Table 1 - MinixLLD versions used to determine concurrency overhead");
    println!("  old          the original MinixLLD (sequential ARUs, no bracketing)");
    println!("  new          concurrent ARUs; create/delete bracketed in ARUs");
    println!("  new, delete  as `new`, with improved whole-list file deletion");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_map_to_table_1() {
        let cfg = BenchConfig::quick();
        let old = cfg.fs_config(Version::Old);
        assert!(!old.use_arus);
        assert_eq!(old.delete_policy, DeletePolicy::PerBlock);
        assert_eq!(
            cfg.ld_config(Version::Old).concurrency,
            ConcurrencyMode::Sequential
        );
        let new = cfg.fs_config(Version::New);
        assert!(new.use_arus);
        assert_eq!(new.delete_policy, DeletePolicy::PerBlock);
        let nd = cfg.fs_config(Version::NewDelete);
        assert_eq!(nd.delete_policy, DeletePolicy::WholeList);
        assert_eq!(Version::NewDelete.label(), "new, delete");
    }

    #[test]
    fn build_and_measure() {
        let cfg = BenchConfig {
            block_size: 512,
            segment_bytes: 8 * 512,
            capacity: 4 << 20,
            inode_count: 64,
            cpu_slowdown: 100.0,
            runs: 1,
        };
        let mut fs = cfg.build_fs(Version::New);
        let clock = Arc::clone(fs.ld().device().clock());
        let (_, timing) = measure(&clock, cfg.cpu_slowdown, || {
            let ino = fs.create("/x")?;
            fs.write_at(ino, 0, &[1u8; 512])?;
            fs.flush()
        })
        .unwrap();
        assert!(timing.disk > Duration::ZERO);
        assert!(timing.virtual_secs() > 0.0);
    }

    #[test]
    fn percent_and_median_math() {
        assert!((percent_slower(100.0, 93.0) - 7.0).abs() < 1e-9);
        assert_eq!(percent_slower(0.0, 5.0), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0]), 4.0);
    }

    #[test]
    fn args_parsing() {
        let args: Vec<String> = ["--quick", "--runs", "5", "--cpu-slowdown", "250"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = BenchConfig::from_args(&args);
        assert_eq!(cfg.runs, 5);
        assert_eq!(cfg.cpu_slowdown, 250.0);
        assert_eq!(cfg.capacity, BenchConfig::quick().capacity);
    }
}
