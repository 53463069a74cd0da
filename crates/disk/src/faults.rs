use std::ops::Range;

/// A deterministic fault-injection plan for a [`SimDisk`](crate::SimDisk).
///
/// A crash point lets crash-recovery tests stop the disk at an exact,
/// reproducible instant: after N bytes the crossing write is *torn* —
/// only a sector-aligned prefix of it is issued — and every later
/// operation fails with [`DiskError::Crashed`](crate::DiskError::Crashed).
/// The crash point is the *when* of a power cut; what survives it is
/// the [`SimDisk`](crate::SimDisk)'s to draw, seeded by the crash point.
///
/// Read-error regions model partial media failures.
///
/// # Example
///
/// ```
/// use ld_disk::FaultPlan;
///
/// let plan = FaultPlan::new().crash_after_bytes(10_000);
/// assert!(!plan.is_crashed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    crash_after_bytes: Option<u64>,
    torn_granularity: u64,
    read_error_regions: Vec<Range<u64>>,
    bytes_written: u64,
    crashed: bool,
}

impl FaultPlan {
    /// Creates an empty plan (no faults). Torn-write granularity defaults
    /// to 512-byte sectors.
    pub fn new() -> Self {
        FaultPlan {
            torn_granularity: 512,
            ..FaultPlan::default()
        }
    }

    /// Crashes the device once `n` total bytes have been written; the
    /// write crossing the boundary is torn at sector granularity.
    #[must_use]
    pub fn crash_after_bytes(mut self, n: u64) -> Self {
        self.crash_after_bytes = Some(n);
        self
    }

    /// Sets the granularity at which torn writes are truncated; 0 and 1
    /// both tear at any byte.
    #[must_use]
    pub fn torn_granularity(mut self, bytes: u64) -> Self {
        self.torn_granularity = bytes.max(1);
        self
    }

    /// Marks `range` (byte offsets) as unreadable media.
    #[must_use]
    pub fn read_error_region(mut self, range: Range<u64>) -> Self {
        self.read_error_regions.push(range);
        self
    }

    /// Whether a crash point has already fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Forces the crashed state immediately (used by tests and the
    /// harness to stop a device by hand).
    pub fn force_crash(&mut self) {
        self.crashed = true;
    }

    /// The seed of a power cut under this plan: its crash point, or the
    /// bytes written so far where it has none.
    pub(crate) fn cut_seed(&self) -> u64 {
        self.crash_after_bytes.unwrap_or(self.bytes_written)
    }

    /// How many bytes of a write of `len` are issued, `None` once the
    /// device has crashed; fewer than `len` (a torn write) crash it.
    pub(crate) fn on_write(&mut self, len: u64) -> Option<usize> {
        if self.crashed {
            return None;
        }
        let remaining =
            (self.crash_after_bytes).map_or(len, |at| at.saturating_sub(self.bytes_written));
        let issued = if remaining < len {
            self.crashed = true;
            remaining - remaining % self.torn_granularity.max(1)
        } else {
            len
        };
        self.bytes_written += issued;
        Some(issued as usize)
    }

    /// Decides whether a read of `[offset, offset + len)` succeeds.
    /// Returns the offset of the first failing byte, if any.
    pub(crate) fn on_read(&self, offset: u64, len: u64) -> Result<(), u64> {
        if self.crashed {
            return Err(offset);
        }
        let end = offset + len;
        for region in &self.read_error_regions {
            if region.start < end && offset < region.end {
                return Err(region.start.max(offset));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_everything() {
        let mut p = FaultPlan::new();
        assert_eq!(p.on_write(1000), Some(1000));
        assert_eq!(p.on_read(0, 1 << 20), Ok(()));
        assert!(!p.is_crashed());
        assert_eq!(p.cut_seed(), 1000, "no crash point: the bytes written");
    }

    #[test]
    fn crash_after_bytes_tears_crossing_write() {
        let mut p = FaultPlan::new().crash_after_bytes(1500);
        assert_eq!(p.on_write(1024), Some(1024));
        // 476 bytes remain; sector-aligned prefix is 0.
        assert_eq!(p.on_write(1024), Some(0));
        assert!(p.is_crashed());
        assert_eq!(p.on_write(1), None);
    }

    #[test]
    fn torn_write_is_sector_aligned() {
        let mut p = FaultPlan::new().crash_after_bytes(1300);
        assert_eq!(p.on_write(4096), Some(1024));
        assert!(p.is_crashed());
        assert_eq!(p.cut_seed(), 1300, "the crash point");
    }

    #[test]
    fn byte_granularity_tearing() {
        let mut p = FaultPlan::new().crash_after_bytes(1300).torn_granularity(1);
        assert_eq!(p.on_write(4096), Some(1300));
        // `Default` leaves the granularity 0, which tears at any byte too.
        let mut p = FaultPlan::default().crash_after_bytes(1300);
        assert_eq!(p.on_write(4096), Some(1300));
    }

    #[test]
    fn read_error_regions_overlap_detection() {
        let p = FaultPlan::new().read_error_region(100..200);
        assert_eq!(p.on_read(0, 100), Ok(()));
        assert_eq!(p.on_read(200, 50), Ok(()));
        assert_eq!(p.on_read(50, 100), Err(100));
        assert_eq!(p.on_read(150, 10), Err(150));
    }

    #[test]
    fn reads_fail_after_crash() {
        let mut p = FaultPlan::new();
        p.force_crash();
        assert_eq!(p.on_read(0, 1), Err(0));
    }
}
