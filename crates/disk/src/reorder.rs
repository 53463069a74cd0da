use crate::sync::Mutex;
use crate::{BlockDevice, MemDisk, Result, SmallRng};

/// The image as of the last barrier and the writes issued since.
#[derive(Debug)]
struct Journal {
    durable: Vec<u8>,
    /// In issue order.
    pending: Vec<(u64, Vec<u8>)>,
}

fn apply(image: &mut [u8], (offset, bytes): &(u64, Vec<u8>)) {
    let at = *offset as usize;
    image[at..at + bytes.len()].copy_from_slice(bytes);
}

/// A device whose unflushed writes persist in no particular order.
///
/// Reads see every write issued, as on a device with a volatile cache.
/// A power cut keeps the image as of the last [`flush`] plus any
/// *subset* of the writes issued since, each whole (a [`SimDisk`]'s
/// byte budget tears writes, and keeps a prefix). A protocol that is
/// correct only if the device persists writes in the order they were
/// issued fails under some subset.
///
/// [`flush`]: BlockDevice::flush
/// [`SimDisk`]: crate::SimDisk
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ld_disk::DiskError> {
/// use ld_disk::{BlockDevice, ReorderDisk};
///
/// let disk = ReorderDisk::from_image(vec![0u8; 64]);
/// disk.write_at(0, b"first")?;
/// disk.flush()?;
/// disk.write_at(8, b"second")?;
/// disk.write_at(16, b"third")?;
/// // A cut that kept the third write and lost the second.
/// let image = disk.crash_keeping(|i| i == 1);
/// assert_eq!(&image[..5], b"first");
/// assert_eq!(image[8], 0);
/// assert_eq!(&image[16..21], b"third");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReorderDisk {
    current: MemDisk,
    journal: Mutex<Journal>,
}

impl ReorderDisk {
    /// A device holding `image`, all of it durable.
    pub fn from_image(image: Vec<u8>) -> Self {
        ReorderDisk {
            current: MemDisk::from_image(image.clone()),
            journal: Mutex::new(Journal {
                durable: image,
                pending: Vec::new(),
            }),
        }
    }

    /// The image a power cut leaves: the last flushed one plus each
    /// later write with probability one half.
    pub fn crash(&self, rng: &mut SmallRng) -> Vec<u8> {
        self.crash_keeping(|_| rng.gen_index(2) == 0)
    }

    /// The last flushed image plus the later writes `keep` picks, by
    /// their place in issue order, applied in that order.
    pub fn crash_keeping(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        let j = self.journal.lock();
        let mut image = j.durable.clone();
        for (i, write) in j.pending.iter().enumerate() {
            if keep(i) {
                apply(&mut image, write);
            }
        }
        image
    }

    /// The writes issued since the last flush, in issue order: offset
    /// and bytes.
    pub fn pending(&self) -> Vec<(u64, Vec<u8>)> {
        self.journal.lock().pending.clone()
    }
}

impl BlockDevice for ReorderDisk {
    fn capacity(&self) -> u64 {
        self.current.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.current.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        // Both under the journal's lock: issue order is the order writes
        // reach `current`.
        let mut j = self.journal.lock();
        self.current.write_at(offset, buf)?;
        j.pending.push((offset, buf.to_vec()));
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let mut j = self.journal.lock();
        let Journal { durable, pending } = &mut *j;
        for write in pending.drain(..) {
            apply(durable, &write);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_every_write_and_a_cut_keeps_the_flushed_image() {
        let d = ReorderDisk::from_image(vec![0u8; 32]);
        d.write_at(0, b"aa").unwrap();
        d.flush().unwrap();
        d.write_at(4, b"bb").unwrap();
        let mut buf = [0u8; 2];
        d.read_at(4, &mut buf).unwrap();
        assert_eq!(&buf, b"bb");
        let none = d.crash_keeping(|_| false);
        assert_eq!((&none[..2], &none[4..6]), (&b"aa"[..], &[0u8, 0][..]));
        assert_eq!(d.pending(), vec![(4, b"bb".to_vec())]);
    }

    #[test]
    fn a_cut_keeps_any_subset_in_issue_order() {
        let d = ReorderDisk::from_image(vec![0u8; 8]);
        d.write_at(0, b"xxxx").unwrap();
        d.write_at(2, b"yy").unwrap();
        assert_eq!(&d.crash_keeping(|_| true)[..4], b"xxyy");
        assert_eq!(&d.crash_keeping(|i| i == 1)[..4], b"\0\0yy");
        assert_eq!(&d.crash_keeping(|i| i == 0)[..4], b"xxxx");
        // Every subset comes up under some seed.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(d.crash(&mut rng)[..4].to_vec());
        }
        assert_eq!(seen.len(), 4);
        d.flush().unwrap();
        assert!(d.pending().is_empty());
        assert_eq!(&d.crash_keeping(|_| false)[..4], b"xxyy");
    }

    #[test]
    fn rejects_out_of_bounds() {
        let d = ReorderDisk::from_image(vec![0u8; 8]);
        assert!(d.write_at(6, b"abc").is_err());
        assert!(d.pending().is_empty(), "a refused write is not pending");
    }
}
