//! `ModelDisk<D>`: a device that costs real time, charged exactly.
//!
//! Every workload formats this device, so every end-to-end timing is
//! what a user of the disk would see on a device of this speed, not the
//! speed of the host's memory. The cost model is the repo's own (the
//! BENCH_server/BENCH_pipeline figures), read as a device with a
//! volatile write cache:
//!
//! - a write costs its transfer time (48 MiB/s);
//! - a barrier costs 500 µs;
//! - a read costs an access time of 100 µs and its transfer time.
//!
//! As with `ld_disk::LatencyDisk`, the cost is charged on the calling
//! thread and concurrent calls wait concurrently, so overlap of barrier
//! and transfer shows as it would there. Unlike `LatencyDisk`, a wait
//! ends at its deadline and not whenever the host next wakes a sleeper:
//! `thread::sleep` on a shared host overshoots by 50–200 µs — as much
//! as the 81 µs a 4 KiB write costs — and by another amount on every
//! run, so a benchmark over `LatencyDisk` measures the overshoot more
//! than the program. Here the waiting thread yields in a loop until the
//! deadline: other threads run meanwhile, and it returns on time.

use ld_disk::{BlockDevice, DiskStatsSnapshot, Result};
use std::time::{Duration, Instant};

pub const BARRIER: Duration = Duration::from_micros(500);
pub const READ_ACCESS: Duration = Duration::from_micros(100);
pub const BYTES_PER_S: u64 = 48 << 20;

#[derive(Debug)]
pub struct ModelDisk<D> {
    inner: D,
}

/// Returns at `deadline`, within a few microseconds.
fn wait_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

fn transfer(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * 1_000_000_000 / BYTES_PER_S)
}

impl<D: BlockDevice> ModelDisk<D> {
    pub fn new(inner: D) -> Self {
        ModelDisk { inner }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for ModelDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let t0 = Instant::now();
        self.inner.read_at(offset, buf)?;
        wait_until(t0 + READ_ACCESS + transfer(buf.len()));
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let t0 = Instant::now();
        self.inner.write_at(offset, buf)?;
        wait_until(t0 + transfer(buf.len()));
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let t0 = Instant::now();
        self.inner.flush()?;
        wait_until(t0 + BARRIER);
        Ok(())
    }

    fn stats_snapshot(&self) -> Option<DiskStatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_disk::MemDisk;

    #[test]
    fn charges_access_transfer_and_barrier_time_and_forwards_the_data() {
        let d = ModelDisk::new(MemDisk::new(1 << 20));
        let t0 = Instant::now();
        d.write_at(4096, &[7u8; 4096]).unwrap();
        let wrote = t0.elapsed();
        d.flush().unwrap();
        let flushed = t0.elapsed();
        let mut back = [0u8; 4096];
        d.read_at(4096, &mut back).unwrap();
        let read = t0.elapsed();
        // 4 KiB at 48 MiB/s is 81 µs.
        assert!(wrote >= Duration::from_micros(81), "{wrote:?}");
        assert!(flushed - wrote >= BARRIER, "{:?}", flushed - wrote);
        assert!(
            read - flushed >= READ_ACCESS + Duration::from_micros(81),
            "{:?}",
            read - flushed
        );
        assert_eq!(back, [7u8; 4096]);
        assert!(d.write_at(1 << 20, &[1]).is_err(), "out of bounds");
        assert_eq!(d.capacity(), 1 << 20);
    }
}
