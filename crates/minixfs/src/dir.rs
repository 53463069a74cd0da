//! On-disk directory-entry encoding.
//!
//! Directories are regular LD-backed files whose contents are an array
//! of fixed 32-byte entries; a zero inode number marks a free slot.

use crate::error::{FsError, Result};
use crate::types::Ino;

/// Bytes per directory entry.
pub(crate) const DIRENT_SIZE: usize = 32;

/// Longest representable file name.
pub(crate) const MAX_NAME: usize = DIRENT_SIZE - 5;

/// Decodes the entry at `slot`, its name borrowed from `block`; `None`
/// for a free slot.
pub(crate) fn decode(block: &[u8], slot: usize) -> Result<Option<(Ino, &str)>> {
    let off = slot * DIRENT_SIZE;
    let raw = &block[off..off + DIRENT_SIZE];
    let ino = u32::from_le_bytes(raw[0..4].try_into().expect("4 bytes"));
    if ino == 0 {
        return Ok(None);
    }
    let len = raw[4] as usize;
    if len == 0 || len > MAX_NAME {
        return Err(FsError::Corrupt(format!("bad dirent name length {len}")));
    }
    let name = std::str::from_utf8(&raw[5..5 + len])
        .map_err(|_| FsError::Corrupt("dirent name is not utf-8".into()))?;
    Ok(Some((Ino::new(ino), name)))
}

/// Encodes an entry into `slot`.
///
/// # Errors
///
/// [`FsError::NameTooLong`] if the name exceeds [`MAX_NAME`] bytes.
pub(crate) fn encode(block: &mut [u8], slot: usize, ino: Ino, name: &str) -> Result<()> {
    if name.len() > MAX_NAME {
        return Err(FsError::NameTooLong(name.to_string()));
    }
    let off = slot * DIRENT_SIZE;
    let raw = &mut block[off..off + DIRENT_SIZE];
    raw.fill(0);
    raw[0..4].copy_from_slice(&ino.get().to_le_bytes());
    raw[4] = name.len() as u8;
    raw[5..5 + name.len()].copy_from_slice(name.as_bytes());
    Ok(())
}

/// Marks `slot` free.
pub(crate) fn encode_free(block: &mut [u8], slot: usize) {
    let off = slot * DIRENT_SIZE;
    block[off..off + DIRENT_SIZE].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut block = vec![0u8; 512];
        encode(&mut block, 2, Ino::new(7), "hello.txt").unwrap();
        assert_eq!(decode(&block, 2).unwrap(), Some((Ino::new(7), "hello.txt")));
        assert_eq!(decode(&block, 0).unwrap(), None);
        encode_free(&mut block, 2);
        assert_eq!(decode(&block, 2).unwrap(), None);
    }

    #[test]
    fn name_length_limit() {
        let mut block = vec![0u8; 512];
        let long = "x".repeat(MAX_NAME + 1);
        assert!(matches!(
            encode(&mut block, 0, Ino::new(1), &long),
            Err(FsError::NameTooLong(_))
        ));
        let ok = "y".repeat(MAX_NAME);
        encode(&mut block, 0, Ino::new(1), &ok).unwrap();
        assert_eq!(decode(&block, 0).unwrap().unwrap().1, ok);
    }

    #[test]
    fn corrupt_length_detected() {
        let mut block = vec![0u8; 64];
        block[0] = 1; // ino 1
        block[4] = 60; // impossible length
        assert!(matches!(decode(&block, 0), Err(FsError::Corrupt(_))));
        block[4] = 0; // no name
        assert!(matches!(decode(&block, 0), Err(FsError::Corrupt(_))));
        block[4] = 1;
        block[5] = 0xFF; // not utf-8
        assert!(matches!(decode(&block, 0), Err(FsError::Corrupt(_))));
    }
}
