//! # Log-structured Logical Disk with Atomic Recovery Units
//!
//! A from-scratch reproduction of the system described in *"Atomic
//! Recovery Units: Failure Atomicity for Logical Disks"* (Grimm, Hsieh,
//! Kaashoek, de Jonge — ICDCS 1996).
//!
//! The **Logical Disk (LD)** separates file management from disk
//! management: clients address storage through logical block numbers and
//! ordered block *lists*, while the disk system owns physical layout.
//! This implementation is log-structured (LLD): the disk is divided into
//! fixed-size segments filled in memory and written in single device
//! operations, each carrying a *segment summary* — an operation log from
//! which all mapping and list state can be rebuilt after a crash.
//!
//! **Atomic recovery units (ARUs)** extend the LD interface with
//! [`begin_aru`](Lld::begin_aru) / [`end_aru`](Lld::end_aru): all disk
//! operations inside an ARU are treated as an indivisible operation
//! during recovery — after a failure, all or none of them remain
//! persistent. ARUs are a light-weight form of transaction: failure
//! atomicity only, no concurrency control, no durability (clients add
//! those if needed — see the transaction-layer example in the workspace).
//!
//! ## Version semantics
//!
//! A logical block can exist in up to `n + 2` versions for `n` active
//! ARUs (§3.3): one *shadow* version per ARU, one *committed* version,
//! one *persistent* version. Lookups search shadow → committed →
//! persistent; `EndARU` merges a shadow state into the committed state;
//! sealing a segment makes committed state persistent. The
//! configuration selects the paper's "old" sequential prototype or the
//! "new" concurrent one ([`ConcurrencyMode`]) and the read-visibility
//! option ([`ReadVisibility`]).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), ld_core::LldError> {
//! use ld_core::{Ctx, Lld, LldConfig, Position};
//! use ld_disk::MemDisk;
//!
//! let ld = Lld::format(MemDisk::new(8 << 20), &LldConfig::default())?;
//!
//! // A file system would bundle all meta-data updates of one file
//! // creation in one ARU (every operation takes `&self`, so threads
//! // can share the disk through an `Arc<Lld<_>>`):
//! let aru = ld.begin_aru()?;
//! let file = ld.new_list(Ctx::Aru(aru))?;
//! let b0 = ld.new_block(Ctx::Aru(aru), file, Position::First)?;
//! let b1 = ld.new_block(Ctx::Aru(aru), file, Position::After(b0))?;
//! ld.write(Ctx::Aru(aru), b0, &vec![1u8; 4096])?;
//! ld.write(Ctx::Aru(aru), b1, &vec![2u8; 4096])?;
//! ld.end_aru(aru)?;
//! ld.flush()?;
//!
//! assert_eq!(ld.list_blocks(Ctx::Simple, file)?, vec![b0, b1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aru;
mod cache;
mod check;
mod checkpoint;
mod cleaner;
mod cleanerd;
mod commit;
mod config;
mod dedup;
mod error;
mod flight;
mod gc;
mod interface;
mod layout;
mod lld;
pub mod obs;
mod ops;
mod record;
mod recovery;
mod segment;
mod shard;
mod state;
mod stats;
mod summary;
mod types;

pub use check::CheckReport;
pub use config::{CleanerConfig, ConcurrencyMode, LldConfig, ReadVisibility};
pub use dedup::{TaggedCommit, WriteIdOutcome, MAX_CLIENTS};
pub use error::{LldError, Result};
pub use flight::FlightRecorder;
pub use interface::LogicalDisk;
pub use layout::Layout;
#[doc(hidden)]
pub use layout::{
    BlockCol, CkptField, ColField, DedupCol, DirField, Field, ListCol, SbField, SegField,
    BLOCK_COLUMNS, CHECKPOINT_HEADER, CKPT_HEADER_AT, CKPT_HEADER_LEN, COLUMN_DESC,
    COLUMN_DESC_LEN, DEDUP_COLUMNS, DIR_ENTRY, DIR_ENTRY_LEN, LIST_COLUMNS, SEGMENT_HEADER,
    SEGMENT_HEADER_LEN, SEGMENT_MAGIC, SUPERBLOCK, SUPERBLOCK_LEN,
};
pub use lld::{Lld, LldInner};
pub use obs::{
    aru_trace, cleaner_trace, flush_trace, Obs, ObsConfig, ObsSnapshot, ServerCounters,
    ServerStats, Stage, TraceEntry, TraceEvent, TraceRing,
};
pub use record::Counter;
pub use recovery::RecoveryReport;
pub use shard::ShardLockStats;
pub use state::{BlockRecord, ListRecord};
pub use stats::LldStats;
pub use summary::Record;
pub use types::{AruId, BlockId, Ctx, ListId, PhysAddr, Position, SegmentId, Timestamp};
