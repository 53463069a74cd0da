use crate::sync::RwLock;
use crate::{BlockDevice, Result};

/// An in-memory block device.
///
/// The primary device for experiments and tests: fast, deterministic, and
/// snapshottable. [`MemDisk::snapshot`] captures the raw image so a
/// crash-recovery test can boot a second logical-disk instance from the
/// exact bytes that were durable at the simulated crash point.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ld_disk::DiskError> {
/// use ld_disk::{BlockDevice, MemDisk};
///
/// let disk = MemDisk::new(4096);
/// disk.write_at(1024, &[7u8; 16])?;
/// let image = disk.snapshot();
/// let clone = MemDisk::from_image(image);
/// let mut buf = [0u8; 16];
/// clone.read_at(1024, &mut buf)?;
/// assert_eq!(buf, [7u8; 16]);
/// # Ok(())
/// # }
/// ```
/// Readers share the device (`RwLock`): threads reading different
/// blocks run concurrently, and a mutex here would serialize them.
#[derive(Debug)]
pub struct MemDisk {
    data: RwLock<Vec<u8>>,
}

impl MemDisk {
    /// Creates a zero-filled device of `capacity` bytes.
    ///
    /// Every page of the backing memory is touched up front so that
    /// later I/O never pays first-touch page faults — important for the
    /// benchmark harness, which charges measured CPU time to a virtual
    /// clock.
    pub fn new(capacity: u64) -> Self {
        let mut data = vec![0u8; capacity as usize];
        let mut i = 0;
        while i < data.len() {
            // Volatile-free pre-fault: writing is enough to commit the
            // page; the values are already correct (zero).
            data[i] = 0;
            i += 4096;
        }
        MemDisk {
            data: RwLock::new(data),
        }
    }

    /// Creates a device initialized from a raw image.
    pub fn from_image(image: Vec<u8>) -> Self {
        MemDisk {
            data: RwLock::new(image),
        }
    }

    /// Returns a copy of the full device image.
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Consumes the device and returns its image without copying.
    pub fn into_image(self) -> Vec<u8> {
        self.data.into_inner()
    }
}

impl BlockDevice for MemDisk {
    fn capacity(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let data = self.data.read();
        let start = offset as usize;
        buf.copy_from_slice(&data[start..start + buf.len()]);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let mut data = self.data.write();
        let start = offset as usize;
        data[start..start + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskError;

    #[test]
    fn starts_zeroed() {
        let d = MemDisk::new(32);
        let mut buf = [0xffu8; 32];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn round_trips_writes() {
        let d = MemDisk::new(128);
        d.write_at(5, b"hello").unwrap();
        d.write_at(7, b"LP").unwrap();
        let mut buf = [0u8; 5];
        d.read_at(5, &mut buf).unwrap();
        assert_eq!(&buf, b"heLPo");
    }

    #[test]
    fn rejects_out_of_bounds() {
        let d = MemDisk::new(16);
        let err = d.write_at(10, &[0u8; 7]).unwrap_err();
        assert!(matches!(err, DiskError::OutOfBounds { .. }));
        let mut buf = [0u8; 1];
        assert!(d.read_at(16, &mut buf).is_err());
    }

    #[test]
    fn zero_length_requests_at_end_ok() {
        let d = MemDisk::new(16);
        d.write_at(16, &[]).unwrap();
        d.read_at(16, &mut []).unwrap();
    }

    #[test]
    fn snapshot_and_restore() {
        let d = MemDisk::new(64);
        d.write_at(0, b"state").unwrap();
        let img = d.snapshot();
        d.write_at(0, b"later").unwrap();
        let restored = MemDisk::from_image(img);
        let mut buf = [0u8; 5];
        restored.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"state");
        assert_eq!(restored.into_image().len(), 64);
    }
}
