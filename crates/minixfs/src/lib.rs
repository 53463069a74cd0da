//! # MinixLLD — a Minix-like file system on the Logical Disk
//!
//! The disk-system client used in the paper's evaluation: a simple
//! hierarchical file system that delegates *all* disk management to the
//! Logical Disk. Each file or directory is one inode plus one LD block
//! list; there are no block bitmaps, zones, or block pointers ("most of
//! the disk management code (350 lines) has been deleted from Minix").
//!
//! With [`FsConfig::use_arus`] enabled (the paper's "new" MinixLLD),
//! every file/directory creation and deletion executes inside its own
//! atomic recovery unit: after a crash, either all or none of the
//! meta-data describing the file is persistent, so the file system needs
//! no fsck — [`MinixFs::verify`] demonstrates this by checking full
//! consistency after recovery.
//!
//! The two deletion policies of §5.3 are selectable via
//! [`DeletePolicy`]: per-block deallocation (the paper's "new") or
//! whole-list deletion ("new, delete", the improved policy).
//!
//! ## On-disk format
//!
//! Three kinds of LD list. The meta list (the first list a fresh logical
//! disk hands out) holds the superblock, version 2, little-endian:
//!
//! | bytes            | field                                          |
//! |------------------|------------------------------------------------|
//! | `0..8`           | magic, `"MNXLLD96"`                            |
//! | `8..12`          | version, 2                                     |
//! | `12..16`         | inode count                                    |
//! | `16..24`         | the inode table's LD list (non-zero)           |
//! | `24..28`         | `n`, the inode-table blocks the bitmap covers  |
//! | `28..28+⌈n/8⌉`   | one bit per inode-table block, low bit first   |
//!
//! The inode table's list holds 32-byte inodes, inode `i` in slot
//! `i − 1`; each inode names the LD list of its file's data, or of its
//! directory's 32-byte entries. A set bit means "this table block may
//! hold a free inode", a clear bit "this block is full". Each bit is
//! written in the same ARU as the inode change that flips it, in an
//! order that keeps a clear bit off a free inode even without ARUs: a
//! create that takes a block's last free inode writes the superblock
//! after the inode, and an unlink or rmdir that frees an inode in a full
//! block writes it before the inode. With ARUs the bits are exact;
//! without, a crash can leave only a set bit over a full block, which
//! allocation clears when it finds one. So [`MinixFs::mount`] reads the
//! superblock and no inode-table block; allocation reads a table block
//! the first time it reaches the block's set bit, and still hands out
//! the lowest free inode number. A version-1 superblock (no bitmap) is
//! refused.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ld_core::{Lld, LldConfig};
//! use ld_disk::MemDisk;
//! use ld_minixfs::{FsConfig, MinixFs};
//!
//! let ld = Lld::format(MemDisk::new(8 << 20), &LldConfig::default())?;
//! let mut fs = MinixFs::format(ld, FsConfig::default())?;
//! let ino = fs.create("/hello")?;
//! fs.write_at(ino, 0, b"world")?;
//! fs.flush()?;
//! assert!(fs.verify()?.is_consistent());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dir;
mod error;
mod fs;
mod inode;
mod superblock;
mod types;
mod verify;

pub use config::{DeletePolicy, FsConfig};
pub use error::{FsError, Result};
pub use fs::{FsStats, MinixFs};
pub use types::{DirEntry, FileKind, Ino, Stat};
pub use verify::VerifyReport;
