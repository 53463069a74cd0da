//! Simulated block devices for the Logical Disk / ARU reproduction.
//!
//! The ICDCS'96 paper evaluated its prototype on a 70 MHz SPARC-5/70
//! talking to an HP C3010 disk (2 GB, SCSI-II, 5400 rpm, 11.5 ms average
//! seek) through the SunOS raw-disk interface. This crate provides the
//! substitute substrate: real byte storage (in memory or in a file) plus a
//! deterministic *service-time model* of such a disk, so experiments can
//! report throughput on a virtual clock with a 1996-era CPU:disk balance.
//!
//! The crate provides:
//!
//! * [`BlockDevice`] — the minimal raw-disk interface the logical disk
//!   system is written against (byte-addressed `read_at`/`write_at`,
//!   mirroring a Unix raw-disk file descriptor).
//! * [`MemDisk`] / [`FileDisk`] — concrete devices.
//! * [`DiskModel`] — seek + rotation + transfer service times, with the
//!   paper's HP C3010 profile built in ([`DiskModel::hp_c3010`]).
//! * [`VirtualClock`] — the clock that disk service time is charged to.
//! * [`SimDisk`] — a wrapper combining a device with a model, a clock,
//!   I/O [`DiskStats`], deterministic [`FaultPlan`] fault injection, and
//!   a volatile write cache: a power cut keeps the last barrier's image
//!   plus a seeded subset of the writes issued since (its [`Cut`]). It
//!   is the one crash model.
//! * [`crc32`] — checksums for on-disk structures.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), ld_disk::DiskError> {
//! use ld_disk::{BlockDevice, DiskModel, MemDisk, SimDisk};
//!
//! let disk = SimDisk::new(MemDisk::new(1 << 20), DiskModel::hp_c3010());
//! disk.write_at(0, b"segment zero")?;
//! let mut buf = [0u8; 12];
//! disk.read_at(0, &mut buf)?;
//! assert_eq!(&buf, b"segment zero");
//! // Disk time was charged to the virtual clock, not the wall clock.
//! assert!(disk.clock().now().as_nanos() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_device;
mod clock;
mod crc;
mod error;
mod faults;
mod file;
mod hist;
mod latency;
mod mem;
mod model;
mod rng;
mod sim;
mod stats;
mod sync;
mod trace;

pub use block_device::BlockDevice;
pub use clock::VirtualClock;
pub use crc::crc32;
pub use error::DiskError;
pub use faults::FaultPlan;
pub use file::FileDisk;
pub use hist::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, LatencyHistogram, HIST_BUCKETS,
};
pub use latency::LatencyDisk;
pub use mem::MemDisk;
pub use model::DiskModel;
pub use rng::SmallRng;
pub use sim::{Cut, SimDisk};
pub use stats::{DiskStats, DiskStatsSnapshot};
pub use sync::{Condvar, Mutex, RwLock};
pub use trace::{
    current_trace, register_thread_name, thread_names, thread_tag, trace_scope, TraceScope,
};

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, DiskError>;
