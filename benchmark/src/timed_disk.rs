//! `TimedDisk<D>`: the benchmark's probe under the core.
//!
//! Counts calls, bytes and wall time around the inner device's
//! `read_at` / `write_at` / `flush`, and opens a `device.*` span for
//! each so device time shows as a child of the core call that caused
//! it. It adds no behaviour: every call is forwarded unchanged.

use crate::trace;
use ld_disk::{BlockDevice, DiskStatsSnapshot, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    busy_ns: AtomicU64,
}

/// What a [`TimedDisk`] has seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Wall time spent inside the inner device's calls.
    pub busy_ns: u64,
}

impl DeviceCounts {
    /// Field-wise sum.
    pub fn plus(&self, other: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            flushes: self.flushes + other.flushes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            flushes: self.flushes - earlier.flushes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// A pass-through device that measures the calls made to `inner`.
#[derive(Debug)]
pub struct TimedDisk<D> {
    inner: D,
    c: Counters,
}

impl<D: BlockDevice> TimedDisk<D> {
    pub fn new(inner: D) -> Self {
        TimedDisk {
            inner,
            c: Counters::default(),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn into_inner(self) -> D {
        self.inner
    }

    pub fn counts(&self) -> DeviceCounts {
        DeviceCounts {
            reads: self.c.reads.load(Ordering::Relaxed),
            writes: self.c.writes.load(Ordering::Relaxed),
            flushes: self.c.flushes.load(Ordering::Relaxed),
            bytes_read: self.c.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.c.bytes_written.load(Ordering::Relaxed),
            busy_ns: self.c.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, name: &'static str, calls: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let _span = trace::span(name);
        let t0 = Instant::now();
        let out = f();
        self.c
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<D: BlockDevice> BlockDevice for TimedDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let r = self.timed("device.read_at", &self.c.reads, || {
            self.inner.read_at(offset, buf)
        });
        if r.is_ok() {
            self.c
                .bytes_read
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let r = self.timed("device.write_at", &self.c.writes, || {
            self.inner.write_at(offset, buf)
        });
        if r.is_ok() {
            self.c
                .bytes_written
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn flush(&self) -> Result<()> {
        self.timed("device.flush", &self.c.flushes, || self.inner.flush())
    }

    fn stats_snapshot(&self) -> Option<DiskStatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_disk::{DiskModel, MemDisk, SimDisk};

    #[test]
    fn counts_and_bytes_equal_the_inner_devices_stats() {
        // SimDisk keeps its own DiskStats: the two must agree exactly.
        let d = TimedDisk::new(SimDisk::new(MemDisk::new(1 << 20), DiskModel::hp_c3010()));
        let mut buf = vec![0u8; 4096];
        for i in 0..37u64 {
            d.write_at(i * 8192, &vec![i as u8; 512 + i as usize])
                .unwrap();
            if i % 3 == 0 {
                d.read_at(i * 8192, &mut buf[..100 + i as usize]).unwrap();
            }
            if i % 5 == 0 {
                d.flush().unwrap();
            }
        }
        assert!(d.write_at(1 << 20, &[1]).is_err(), "out of bounds");

        let seen = d.counts();
        let inner = d.stats_snapshot().expect("SimDisk collects stats");
        assert_eq!(seen.writes - 1, inner.writes, "failed call is counted");
        assert_eq!(seen.reads, inner.reads);
        assert_eq!(seen.flushes, inner.flushes);
        assert_eq!(seen.bytes_written, inner.bytes_written);
        assert_eq!(seen.bytes_read, inner.bytes_read);
        assert_eq!((seen.reads, seen.flushes), (13, 8));
        assert_eq!(seen.since(&seen), DeviceCounts::default());
        assert_eq!(d.capacity(), 1 << 20);
    }
}
