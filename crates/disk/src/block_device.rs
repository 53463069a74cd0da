use crate::Result;

/// A raw, byte-addressed block device.
///
/// This is the interface the logical disk system is written against. It
/// deliberately mirrors a Unix raw-disk file descriptor (the paper's
/// prototype "accesses the disk through the raw disk interface provided by
/// SunOS"): positioned reads and writes plus a write barrier.
///
/// Implementations use interior mutability so that a device can be shared
/// (e.g. between the logical disk and a benchmark harness observing it);
/// all methods therefore take `&self`.
///
/// # Durability contract
///
/// A write is durable once a later [`flush`](Self::flush) has returned
/// `Ok`. Until then a power cut may keep it or lose it, independently of
/// the writes around it: a [`SimDisk`](crate::SimDisk) keeps a seeded
/// subset of them, and tears the write that crossed its crash point.
pub trait BlockDevice: Send + Sync {
    /// Total capacity of the device in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes starting at byte `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfBounds`](crate::DiskError::OutOfBounds) if
    /// the request extends past the device, and fault-injection errors on a
    /// simulated device.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes all of `buf` starting at byte `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfBounds`](crate::DiskError::OutOfBounds) if
    /// the request extends past the device, and fault-injection errors on a
    /// simulated device. On [`DiskError::Crashed`](crate::DiskError::Crashed)
    /// an unspecified sector-aligned prefix of `buf` may have been written.
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Write barrier: returns once all previously written data is durable.
    fn flush(&self) -> Result<()>;

    /// Point-in-time I/O statistics, if this device collects any.
    ///
    /// The default returns `None`; [`SimDisk`](crate::SimDisk) overrides
    /// it. Generic code above the device (e.g. the logical disk's
    /// `device_stats`) uses this to surface device counters without
    /// naming the concrete device type.
    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        None
    }

    /// Validates that a request lies within the device.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfBounds`](crate::DiskError::OutOfBounds)
    /// when it does not.
    fn check_bounds(&self, offset: u64, len: usize) -> Result<()> {
        let capacity = self.capacity();
        let len = len as u64;
        if offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(crate::DiskError::OutOfBounds {
                offset,
                len,
                capacity,
            });
        }
        Ok(())
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for &D {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        (**self).write_at(offset, buf)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        (**self).stats_snapshot()
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<D> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        (**self).write_at(offset, buf)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        (**self).stats_snapshot()
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        (**self).write_at(offset, buf)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        (**self).stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;
    use std::sync::Arc;

    #[test]
    fn bounds_check_rejects_overflow() {
        let d = MemDisk::new(100);
        assert!(d.check_bounds(0, 100).is_ok());
        assert!(d.check_bounds(1, 100).is_err());
        assert!(d.check_bounds(u64::MAX, 1).is_err());
        assert!(d.check_bounds(100, 0).is_ok());
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = Arc::new(MemDisk::new(64));
        let by_ref: &MemDisk = &d;
        by_ref.write_at(0, b"abc").unwrap();
        let boxed: Box<dyn BlockDevice> = Box::new(Arc::clone(&d));
        let mut buf = [0u8; 3];
        boxed.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(boxed.capacity(), 64);
        boxed.flush().unwrap();
    }
}
