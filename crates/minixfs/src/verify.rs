//! Whole-tree consistency verification.
//!
//! The paper's point is that with ARUs "it is unnecessary to use fsck
//! after a failure to restore the file system to a consistent state".
//! This verifier is the test for that claim: it walks the tree and
//! cross-checks it against the inode table and the superblock's bitmap
//! of full table blocks, reporting every inconsistency it can find.
//! After any crash + recovery, a file system that used ARUs must verify
//! clean.

use crate::error::{FsError, Result};
use crate::fs::MinixFs;
use crate::types::{DirEntry, FileKind, Ino};
use ld_core::LogicalDisk;
use std::collections::HashMap;

/// The result of [`MinixFs::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct VerifyReport {
    /// Regular files reachable from the root.
    pub files: u64,
    /// Directories reachable from the root (including the root).
    pub dirs: u64,
    /// Every inconsistency found; empty means the file system is
    /// consistent.
    pub problems: Vec<String>,
}

impl VerifyReport {
    /// Whether the file system is fully consistent.
    pub fn is_consistent(&self) -> bool {
        self.problems.is_empty()
    }
}

impl<L: LogicalDisk> MinixFs<L> {
    /// Verifies file-system consistency (an fsck that never repairs).
    ///
    /// # Errors
    ///
    /// Only on I/O failure; structural inconsistencies are *reported*
    /// in the [`VerifyReport`], not returned as errors.
    pub fn verify(&mut self) -> Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let mut refcounts: HashMap<u32, u32> = HashMap::new();
        let mut stack = vec![(Ino::ROOT, String::from("/"))];
        refcounts.insert(Ino::ROOT.get(), 1);
        report.dirs += 1;

        while let Some((dir, path)) = stack.pop() {
            let entries = match self.entries(dir) {
                Ok(e) => e,
                Err(e) => {
                    report
                        .problems
                        .push(format!("cannot read directory {path}: {e}"));
                    continue;
                }
            };
            for DirEntry { name, ino } in entries {
                let child_path = if path == "/" {
                    format!("/{name}")
                } else {
                    format!("{path}/{name}")
                };
                *refcounts.entry(ino.get()).or_insert(0) += 1;
                match self.stat(ino) {
                    Ok(st) => {
                        match st.kind {
                            FileKind::Dir => {
                                report.dirs += 1;
                                // Guard against cycles: a directory seen
                                // twice has refcount > 1 and is reported
                                // below, so only descend the first time.
                                if refcounts[&ino.get()] == 1 {
                                    stack.push((ino, child_path.clone()));
                                }
                            }
                            FileKind::File => {
                                report.files += 1;
                                let max = st.blocks * self.block_size() as u64;
                                if st.size > max {
                                    report.problems.push(format!(
                                        "{child_path}: size {} exceeds {} allocated bytes",
                                        st.size, max
                                    ));
                                }
                            }
                        }
                    }
                    Err(e) => report
                        .problems
                        .push(format!("{child_path}: dangling entry ({e})")),
                }
            }
        }

        // The superblock's bitmap: a clear bit says its table block is
        // full, so a free inode under one is a problem (a set bit over a
        // full block is allowed; allocation clears it).
        let marked_full: Vec<bool> = match self.stored_superblock() {
            Ok(sb) => sb.has_free.iter().map(|&f| !f).collect(),
            Err(e) => {
                report.problems.push(format!("cannot read superblock: {e}"));
                Vec::new()
            }
        };
        let mut reported_block = None;

        // Cross-check the inode table: every allocated inode must be
        // reachable with a matching link count; every refcount must
        // name an allocated inode (checked above via stat).
        for raw in 1..=self.config().inode_count {
            let ino = Ino::new(raw);
            match self.stat(ino) {
                Ok(st) => {
                    let refs = refcounts.get(&raw).copied().unwrap_or(0);
                    if refs == 0 {
                        report
                            .problems
                            .push(format!("{ino} is allocated but unreachable"));
                    } else if refs != st.nlinks {
                        report.problems.push(format!(
                            "{ino}: link count {} but {refs} references",
                            st.nlinks
                        ));
                    }
                }
                Err(FsError::BadInode(_)) => {
                    // Free (a reference to it was reported as dangling
                    // above).
                    let (bi, _) = self.inode_slot(ino);
                    if marked_full.get(bi) == Some(&true) && reported_block != Some(bi) {
                        report.problems.push(format!(
                            "inode-table block {bi} is marked full but {ino} is free"
                        ));
                        reported_block = Some(bi);
                    }
                }
                // An undecodable slot: reported as dangling if referenced.
                Err(_) => {}
            }
        }
        Ok(report)
    }
}
