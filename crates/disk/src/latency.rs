//! A device adaptor that charges *wall-clock* time for write barriers.
//!
//! [`SimDisk`](crate::SimDisk) charges modeled service time to a
//! virtual clock and returns in nanoseconds of real time, which makes
//! real-time effects — above all group-commit batching, where a
//! durability caller can only join a batch while some leader's barrier
//! is still in flight — unobservably rare. Wrapping the device in a
//! [`LatencyDisk`] restores a realistic barrier cost in real time so
//! those effects show up in wall-clock experiments.

use crate::{BlockDevice, DiskStatsSnapshot, Result};
use std::time::Duration;

/// Delegates to an inner device, sleeping for a fixed wall-clock
/// duration on every [`flush`](BlockDevice::flush).
///
/// Reads and writes are passed through untouched, mirroring a device
/// with a volatile write cache where acknowledged writes are cheap and
/// the cache flush is the expensive step. The sleep is charged on
/// whichever thread issues the barrier, and concurrent barriers sleep
/// concurrently.
#[derive(Debug)]
pub struct LatencyDisk<D> {
    inner: D,
    flush_delay: Duration,
}

impl<D: BlockDevice> LatencyDisk<D> {
    /// Wraps `inner`, charging `flush_delay` of real time per barrier.
    pub fn new(inner: D, flush_delay: Duration) -> Self {
        LatencyDisk { inner, flush_delay }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the adaptor, returning the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for LatencyDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner.write_at(offset, buf)
    }

    fn flush(&self) -> Result<()> {
        if !self.flush_delay.is_zero() {
            std::thread::sleep(self.flush_delay);
        }
        self.inner.flush()
    }

    fn stats_snapshot(&self) -> Option<DiskStatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;
    use std::time::Instant;

    #[test]
    fn delegates_io_and_charges_barrier_time() {
        let d = LatencyDisk::new(MemDisk::new(1024), Duration::from_millis(5));
        d.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 3];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(d.capacity(), 1024);

        let start = Instant::now();
        d.flush().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(d.into_inner().capacity(), 1024);
    }

    #[test]
    fn zero_delay_is_a_plain_passthrough() {
        let d = LatencyDisk::new(MemDisk::new(64), Duration::ZERO);
        d.write_at(0, b"x").unwrap();
        d.flush().unwrap();
        assert!(d.stats_snapshot().is_none());
    }
}
