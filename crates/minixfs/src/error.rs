use crate::types::Ino;
use ld_core::LldError;
use std::fmt;

/// Errors reported by the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// An error from the logical disk.
    Ld(LldError),
    /// No file or directory exists at the path.
    NotFound(String),
    /// A file or directory already exists at the path.
    AlreadyExists(String),
    /// A path component that must be a directory is not one.
    NotADirectory(String),
    /// The operation requires a file but found a directory.
    IsADirectory(String),
    /// `rmdir` on a directory that still has entries.
    DirectoryNotEmpty(String),
    /// The inode table is exhausted.
    NoInodes,
    /// A file name exceeds the on-disk limit.
    NameTooLong(String),
    /// Malformed path (empty, relative, or with empty components).
    InvalidPath(String),
    /// An inode number out of range or unallocated.
    BadInode(Ino),
    /// On-disk file-system structures are inconsistent.
    Corrupt(String),
    /// `link` on a file whose link count is at the on-disk limit
    /// (`u16::MAX`).
    TooManyLinks(String),
    /// `rename` of a directory to a path inside itself.
    IntoOwnSubtree(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Ld(e) => write!(f, "logical disk error: {e}"),
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::NoInodes => write!(f, "out of inodes"),
            FsError::NameTooLong(n) => write!(f, "file name too long: {n}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::BadInode(i) => write!(f, "bad inode {i}"),
            FsError::Corrupt(msg) => write!(f, "file system corrupt: {msg}"),
            FsError::TooManyLinks(p) => write!(f, "too many links: {p}"),
            FsError::IntoOwnSubtree(p) => {
                write!(f, "cannot move a directory into its own subtree: {p}")
            }
        }
    }
}

impl std::error::Error for FsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FsError::Ld(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LldError> for FsError {
    fn from(e: LldError) -> Self {
        FsError::Ld(e)
    }
}

/// Result alias for file-system operations.
pub type Result<T> = std::result::Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert_eq!(
            FsError::NotFound("/a/b".into()).to_string(),
            "no such file or directory: /a/b"
        );
        assert!(FsError::Ld(LldError::DiskFull).to_string().contains("full"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        assert!(FsError::from(LldError::DiskFull).source().is_some());
        assert!(FsError::NoInodes.source().is_none());
    }
}
