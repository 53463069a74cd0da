use std::time::Duration;

/// A service-time model for a rotating disk.
///
/// Charges each request a seek (distance-dependent), half a rotation of
/// latency, per-request controller overhead, and media transfer time —
/// unless the request starts exactly where the previous one ended, in
/// which case only controller overhead and transfer are charged. That
/// sequential fast path is what makes a log-structured disk system shine:
/// whole-segment writes stream at media bandwidth while random block reads
/// pay seek + rotation, exactly the trade the paper's LLD exploits.
///
/// The model is deterministic: rotational latency is the expected half
/// rotation rather than a random phase, so repeated experiments agree
/// bit-for-bit.
///
/// # Example
///
/// ```
/// use ld_disk::DiskModel;
///
/// let m = DiskModel::hp_c3010();
/// // A random 4 KB read pays seek + rotation; a sequential one does not.
/// let random = m.service_time(None, 1 << 30, 4096, 2 << 30);
/// let sequential = m.service_time(Some(1 << 30), 1 << 30, 4096, 2 << 30);
/// assert!(random > sequential * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Minimum (track-to-track) seek time.
    pub min_seek: Duration,
    /// Maximum (full-stroke) seek time.
    pub max_seek: Duration,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_rate: u64,
    /// Fixed per-request controller/command overhead.
    pub controller_overhead: Duration,
    /// Forward skips up to this many bytes are charged as a rotational
    /// pass-over (the head reads past the skipped sectors) instead of a
    /// seek + half-rotation. This is what makes "read the log back in
    /// write order, skipping interleaved meta-data blocks" fast, as it
    /// is on a real disk.
    pub near_seek_bytes: u64,
}

impl DiskModel {
    /// The paper's disk: an HP C3010 (2 GB SCSI-II, 5400 rpm, 11.5 ms
    /// average seek time), with a sustained transfer rate typical of that
    /// drive generation (~2.2 MB/s).
    pub fn hp_c3010() -> Self {
        DiskModel {
            rpm: 5400,
            min_seek: Duration::from_micros(2_500),
            max_seek: Duration::from_micros(22_000),
            transfer_rate: 2_200_000,
            controller_overhead: Duration::from_micros(500),
            near_seek_bytes: 2 << 20,
        }
    }

    /// Time for one full platter rotation.
    pub fn rotation_time(&self) -> Duration {
        Duration::from_nanos(60_000_000_000 / u64::from(self.rpm))
    }

    /// Expected rotational latency (half a rotation).
    pub fn avg_rotational_latency(&self) -> Duration {
        self.rotation_time() / 2
    }

    /// Average seek time over uniformly random request pairs.
    ///
    /// With the square-root seek curve used by [`service_time`], the mean
    /// over uniform random distances is `min + (max - min) * E[sqrt(U)]`
    /// where `E[sqrt(U)] = 2/3` — for the HP C3010 profile this lands at
    /// ~15.5 ms full-range; the drive's quoted 11.5 ms average corresponds
    /// to the typical shorter-than-full-range workload mix.
    ///
    /// [`service_time`]: DiskModel::service_time
    pub fn avg_seek(&self) -> Duration {
        self.min_seek + (self.max_seek - self.min_seek) * 2 / 3
    }

    /// Seek time for a head movement spanning `distance` out of
    /// `capacity` bytes, using the standard square-root seek curve.
    pub fn seek_time(&self, distance: u64, capacity: u64) -> Duration {
        if distance == 0 || capacity == 0 {
            return Duration::ZERO;
        }
        let frac = (distance as f64 / capacity as f64).min(1.0);
        let span = self.max_seek.saturating_sub(self.min_seek);
        self.min_seek + Duration::from_nanos((span.as_nanos() as f64 * frac.sqrt()) as u64)
    }

    /// Media transfer time for `len` bytes.
    pub fn transfer_time(&self, len: u64) -> Duration {
        if self.transfer_rate == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((len as f64 / self.transfer_rate as f64 * 1e9) as u64)
    }

    /// Full service time for a request at `offset` of `len` bytes.
    ///
    /// `prev_end` is where the previous request finished (head position);
    /// `None` models a cold head at an unknown position and charges an
    /// average seek. A request starting exactly at `prev_end` is
    /// sequential and skips both seek and rotational latency.
    pub fn service_time(
        &self,
        prev_end: Option<u64>,
        offset: u64,
        len: u64,
        capacity: u64,
    ) -> Duration {
        let positioning = match prev_end {
            Some(prev) if prev == offset => Duration::ZERO,
            Some(prev) => {
                let reposition =
                    self.seek_time(prev.abs_diff(offset), capacity) + self.avg_rotational_latency();
                if offset > prev && offset - prev <= self.near_seek_bytes {
                    // Short forward skip: the platter can rotate past the
                    // skipped bytes under the head — whichever is cheaper.
                    reposition.min(self.transfer_time(offset - prev))
                } else {
                    reposition
                }
            }
            None => self.avg_seek() + self.avg_rotational_latency(),
        };
        self.controller_overhead + positioning + self.transfer_time(len)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::hp_c3010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_math() {
        let m = DiskModel::hp_c3010();
        // 5400 rpm => 11.111 ms per rotation, 5.555 ms expected latency.
        assert_eq!(m.rotation_time(), Duration::from_nanos(11_111_111));
        assert_eq!(m.avg_rotational_latency(), Duration::from_nanos(5_555_555));
    }

    #[test]
    fn seek_curve_monotone_in_distance() {
        let m = DiskModel::hp_c3010();
        let cap = 2_000_000_000;
        let near = m.seek_time(1_000_000, cap);
        let mid = m.seek_time(500_000_000, cap);
        let far = m.seek_time(cap, cap);
        assert!(near < mid && mid < far);
        assert_eq!(m.seek_time(0, cap), Duration::ZERO);
        assert_eq!(far, m.max_seek);
        assert!(near >= m.min_seek);
    }

    #[test]
    fn sequential_requests_skip_positioning() {
        let m = DiskModel::hp_c3010();
        let seq = m.service_time(Some(4096), 4096, 4096, 1 << 30);
        assert_eq!(seq, m.controller_overhead + m.transfer_time(4096));
    }

    #[test]
    fn cold_head_charges_average_seek() {
        let m = DiskModel::hp_c3010();
        let cold = m.service_time(None, 0, 512, 1 << 30);
        assert_eq!(
            cold,
            m.controller_overhead
                + m.avg_seek()
                + m.avg_rotational_latency()
                + m.transfer_time(512)
        );
    }

    #[test]
    fn large_sequential_write_approaches_bandwidth() {
        let m = DiskModel::hp_c3010();
        // A 0.5 MB segment write takes ~238 ms of transfer at 2.2 MB/s.
        let t = m.service_time(Some(0), 0, 512 * 1024, 1 << 30);
        let secs = t.as_secs_f64();
        let rate = 512.0 * 1024.0 / secs;
        assert!(rate > 0.95 * m.transfer_rate as f64, "rate was {rate}");
    }

    #[test]
    fn transfer_time_zero_rate_is_zero() {
        let m = DiskModel {
            transfer_rate: 0,
            ..DiskModel::hp_c3010()
        };
        assert_eq!(m.transfer_time(1 << 20), Duration::ZERO);
    }
}
