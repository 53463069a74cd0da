//! On-disk superblock encoding (version 2): the layout and the rule for
//! its bits are in the crate documentation's "On-disk format". In
//! short, one bit per inode-table block, set while the block may hold a
//! free inode, written in the ARU that flips it: after the inode when a
//! create fills the block, before the inode when an unlink or rmdir
//! frees a slot in a full block.

use crate::error::{FsError, Result};
use ld_core::ListId;

const MAGIC: u64 = 0x4D4E_584C_4C44_3936; // "MNXLLD96"
const VERSION: u32 = 2;
/// Where the bitmap starts.
const BITMAP: usize = 28;

/// A decoded superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Superblock {
    pub(crate) inode_count: u32,
    pub(crate) inode_list: ListId,
    /// Per inode-table block: may it hold a free inode?
    pub(crate) has_free: Vec<bool>,
}

impl Superblock {
    /// Whether a bitmap over `blocks` table blocks fits a superblock of
    /// `block_size` bytes.
    pub(crate) fn fits(blocks: usize, block_size: usize) -> bool {
        BITMAP + blocks.div_ceil(8) <= block_size
    }

    /// This superblock with block `bi`'s bit set to `has_free`.
    pub(crate) fn with(&self, bi: usize, has_free: bool) -> Superblock {
        let mut sb = self.clone();
        sb.has_free[bi] = has_free;
        sb
    }

    /// Decodes a superblock block.
    ///
    /// # Errors
    ///
    /// [`FsError::Corrupt`] on a bad magic, a version other than 2, a
    /// zero inode-table list, or a bitmap that overruns the block.
    pub(crate) fn decode(block: &[u8]) -> Result<Superblock> {
        let u32_at = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        if u64::from_le_bytes(block[0..8].try_into().expect("8 bytes")) != MAGIC {
            return Err(FsError::Corrupt("bad superblock magic".into()));
        }
        let version = u32_at(8);
        if version != VERSION {
            return Err(FsError::Corrupt(format!(
                "unsupported file-system version {version}"
            )));
        }
        let list_raw = u64::from_le_bytes(block[16..24].try_into().expect("8 bytes"));
        if list_raw == 0 {
            return Err(FsError::Corrupt("superblock names no inode table".into()));
        }
        let blocks = u32_at(24) as usize;
        if !Self::fits(blocks, block.len()) {
            return Err(FsError::Corrupt(format!(
                "superblock bitmap of {blocks} blocks overruns its block"
            )));
        }
        Ok(Superblock {
            inode_count: u32_at(12),
            inode_list: ListId::new(list_raw),
            has_free: (0..blocks)
                .map(|i| block[BITMAP + i / 8] & (1 << (i % 8)) != 0)
                .collect(),
        })
    }

    /// Encodes this superblock over `block`, zeroing the rest of it.
    /// The bitmap must fit ([`Superblock::fits`]).
    pub(crate) fn encode(&self, block: &mut [u8]) {
        block.fill(0);
        block[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        block[8..12].copy_from_slice(&VERSION.to_le_bytes());
        block[12..16].copy_from_slice(&self.inode_count.to_le_bytes());
        block[16..24].copy_from_slice(&self.inode_list.get().to_le_bytes());
        block[24..28].copy_from_slice(&(self.has_free.len() as u32).to_le_bytes());
        for (i, _) in self.has_free.iter().enumerate().filter(|(_, &f)| f) {
            block[BITMAP + i / 8] |= 1 << (i % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Superblock {
        Superblock {
            inode_count: 300,
            inode_list: ListId::new(2),
            has_free: (0..19).map(|i| i % 3 != 1).collect(),
        }
    }

    #[test]
    fn round_trip() {
        let mut block = vec![0xAAu8; 512];
        sample().encode(&mut block);
        assert_eq!(Superblock::decode(&block).unwrap(), sample());
        assert_eq!(block[24], 19);
        assert_eq!(block[BITMAP], 0b0110_1101);
    }

    #[test]
    fn version_one_is_refused_by_number() {
        let mut block = vec![0u8; 512];
        sample().encode(&mut block);
        block[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Superblock::decode(&block),
            Err(FsError::Corrupt("unsupported file-system version 1".into()))
        );
    }

    #[test]
    fn hostile_fields_are_corrupt_not_panics() {
        let mut block = vec![0u8; 512];
        sample().encode(&mut block);
        let mut zero_list = block.clone();
        zero_list[16..24].fill(0);
        assert!(matches!(
            Superblock::decode(&zero_list),
            Err(FsError::Corrupt(_))
        ));
        block[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Superblock::decode(&block),
            Err(FsError::Corrupt(_))
        ));
        assert!(Superblock::fits((512 - BITMAP) * 8, 512));
        assert!(!Superblock::fits((512 - BITMAP) * 8 + 1, 512));
    }
}
