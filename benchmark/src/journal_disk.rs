//! `JournalDisk<D>`: a crash wrapper that remembers pre-images.
//!
//! Killing a process leaves every `write_at` in the in-memory image,
//! so the harness itself must discard what was never flushed. This
//! wrapper saves the bytes each write overwrites; a successful `flush`
//! forgets them. [`JournalDisk::crash_image`] reads the device and
//! undoes, newest first, every write since the last flush: the result
//! is exactly the image as of that flush — the harshest state a crash
//! may legally leave.

use ld_disk::{BlockDevice, DiskStatsSnapshot, Result};
use std::sync::Mutex;

#[derive(Debug)]
pub struct JournalDisk<D> {
    inner: D,
    /// `(offset, bytes overwritten)` per unflushed write, oldest first.
    /// Held across the inner call so image and journal never disagree.
    undo: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl<D: BlockDevice> JournalDisk<D> {
    pub fn new(inner: D) -> Self {
        JournalDisk {
            inner,
            undo: Mutex::new(Vec::new()),
        }
    }

    /// The image a crash at this instant leaves when no unflushed
    /// write survives. Concurrent writers wait while it is taken.
    pub fn crash_image(&self) -> Result<Vec<u8>> {
        let undo = self.undo.lock().expect("journal lock");
        let mut image = vec![0u8; self.inner.capacity() as usize];
        self.inner.read_at(0, &mut image)?;
        for (offset, before) in undo.iter().rev() {
            let at = *offset as usize;
            image[at..at + before.len()].copy_from_slice(before);
        }
        Ok(image)
    }

    /// Writes not yet covered by a flush.
    #[cfg(test)]
    fn unflushed_writes(&self) -> usize {
        self.undo.lock().expect("journal lock").len()
    }
}

impl<D: BlockDevice> BlockDevice for JournalDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut undo = self.undo.lock().expect("journal lock");
        let mut before = vec![0u8; buf.len()];
        self.inner.read_at(offset, &mut before)?;
        self.inner.write_at(offset, buf)?;
        undo.push((offset, before));
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let mut undo = self.undo.lock().expect("journal lock");
        self.inner.flush()?;
        undo.clear();
        Ok(())
    }

    fn stats_snapshot(&self) -> Option<DiskStatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_disk::{MemDisk, SmallRng};

    #[test]
    fn rollback_restores_the_exact_image_of_the_last_flush() {
        let d = JournalDisk::new(MemDisk::new(64 << 10));
        let mut rng = SmallRng::seed_from_u64(7);
        let mut scribble = |d: &JournalDisk<MemDisk>, n: usize| {
            for _ in 0..n {
                // Overlapping, unaligned writes: undo order matters.
                let len = rng.gen_range(1, 3000) as usize;
                let at = rng.gen_range(0, (64 << 10) - len as u64);
                let fill = rng.next_u64() as u8;
                d.write_at(at, &vec![fill; len]).unwrap();
            }
        };
        scribble(&d, 200);
        d.flush().unwrap();
        assert_eq!(d.unflushed_writes(), 0);
        let at_flush = d.inner.snapshot();
        assert_eq!(d.crash_image().unwrap(), at_flush, "nothing to undo");

        scribble(&d, 300);
        assert_eq!(d.unflushed_writes(), 300);
        assert_ne!(d.inner.snapshot(), at_flush);
        assert_eq!(d.crash_image().unwrap(), at_flush);

        // Taking the image changes nothing; the next flush keeps all.
        d.flush().unwrap();
        assert_eq!(d.crash_image().unwrap(), d.inner.snapshot());
        assert!(d.write_at(64 << 10, &[0]).is_err());
        assert_eq!(d.unflushed_writes(), 0, "failed write leaves no entry");
    }
}
