use crate::sync::Mutex;
use crate::{
    BlockDevice, DiskError, DiskModel, DiskStats, FaultPlan, MemDisk, Result, SmallRng,
    VirtualClock,
};
use std::fmt;
use std::sync::Arc;

/// What a [`SimDisk`]'s one lock guards. Every request holds it across
/// the wrapped device's transfer, so issue order is the order in which
/// requests reach that device, and a power cut falls between two of
/// them.
#[derive(Debug)]
struct State {
    faults: FaultPlan,
    /// Byte offset where the previous request ended, if any.
    prev_end: Option<u64>,
    /// The writes issued since the last barrier, in issue order: each
    /// one's offset and the bytes it overwrote.
    undo: Vec<(u64, Vec<u8>)>,
    /// The power cut that stopped the device, once one has.
    cut: Option<Cut>,
}

/// A power cut: which of the writes issued since the last barrier it
/// kept. Its `Display` names both, for a failing test's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The seed the kept writes were drawn with: the fault plan's crash
    /// point, or the bytes written before the cut where it has none.
    pub seed: u64,
    /// The kept writes, by their place in issue order.
    pub kept: Vec<usize>,
    /// The writes issued since the last barrier.
    pub pending: usize,
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CRASH_SEED={} kept writes {:?} of {}",
            self.seed, self.kept, self.pending
        )
    }
}

/// Takes `dev` from the image it holds, the last barrier's plus every
/// write in `undo`, to the last barrier's plus the writes `keep` picks,
/// applied in issue order. Returns every write's offset and bytes.
fn unwind<D: BlockDevice>(
    dev: &D,
    undo: &[(u64, Vec<u8>)],
    mut keep: impl FnMut(usize) -> bool,
) -> Result<Vec<(u64, Vec<u8>)>> {
    // Newest first: what a write left is there once every later write
    // has been undone.
    let mut writes = Vec::with_capacity(undo.len());
    for (at, before) in undo.iter().rev() {
        let mut after = vec![0u8; before.len()];
        dev.read_at(*at, &mut after)?;
        dev.write_at(*at, before)?;
        writes.push((*at, after));
    }
    writes.reverse();
    for (i, (at, after)) in writes.iter().enumerate() {
        if keep(i) {
            dev.write_at(*at, after)?;
        }
    }
    Ok(writes)
}

/// A simulated disk: a real [`BlockDevice`] plus a [`DiskModel`], a
/// [`VirtualClock`], [`DiskStats`], a [`FaultPlan`], and a volatile
/// write cache. Reads see every write issued. This is the device the
/// logical disk runs on in every experiment and crash test.
///
/// A power cut — the plan's crash point firing, or
/// [`force_crash`](Self::force_crash) — keeps the image of the last
/// [`flush`] that returned `Ok` plus a subset of the writes issued since,
/// each whole but the one that crossed the crash point, which is torn.
/// The subset (the [`Cut`]) is drawn from the crash point, so a run
/// repeats, and the wrapped device holds what it kept. A protocol that
/// leans on issue order fails under some cut.
///
/// [`flush`]: BlockDevice::flush
///
/// ```
/// use ld_disk::{BlockDevice, DiskError, DiskModel, FaultPlan, MemDisk, SimDisk};
///
/// let disk = SimDisk::new(MemDisk::new(4096), DiskModel::hp_c3010())
///     .with_faults(FaultPlan::new().crash_after_bytes(1024));
/// disk.write_at(0, &[1; 512])?;
/// disk.flush()?;
/// disk.write_at(512, &[2; 512])?;
/// // A cut that keeps nothing since the barrier, chosen by hand.
/// assert_eq!(disk.crash_keeping(|_| false)[511..513], [1, 0]);
/// assert_eq!(disk.write_at(1024, &[3; 512]), Err(DiskError::Crashed));
/// let (image, cut) = disk.crash_image();
/// assert_eq!((cut.seed, cut.pending, image[0], image[1024]), (1024, 1, 1, 0));
/// assert_eq!(image[512] == 2, cut.kept == [0]);
/// # Ok::<(), DiskError>(())
/// ```
#[derive(Debug)]
pub struct SimDisk<D> {
    inner: D,
    model: DiskModel,
    clock: Arc<VirtualClock>,
    stats: DiskStats,
    state: Mutex<State>,
}

impl<D: BlockDevice> SimDisk<D> {
    /// Wraps `inner` with the given service-time model, a fresh clock,
    /// fresh stats, and no faults. What `inner` holds is durable.
    pub fn new(inner: D, model: DiskModel) -> Self {
        SimDisk {
            inner,
            model,
            clock: Arc::new(VirtualClock::new()),
            stats: DiskStats::new(),
            state: Mutex::new(State {
                faults: FaultPlan::new(),
                prev_end: None,
                undo: Vec::new(),
                cut: None,
            }),
        }
    }

    /// Replaces the fault plan (builder style).
    #[must_use]
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        self.set_faults(faults);
        self
    }

    /// Shares an externally created clock (so several devices, or the CPU
    /// cost accounting of a harness, can charge the same timeline).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = clock;
        self
    }

    /// The virtual clock disk service time is charged to.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The I/O statistics counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Whether the power has been cut.
    pub fn is_crashed(&self) -> bool {
        self.state.lock().faults.is_crashed()
    }

    /// Cuts the power now, unless it is out already: every subsequent
    /// operation fails with [`DiskError::Crashed`]. The cut's seed is
    /// the plan's crash point, or the bytes written so far.
    pub fn force_crash(&self) {
        let mut st = self.state.lock();
        if !st.faults.is_crashed() {
            st.faults.force_crash();
            self.power_cut(&mut st);
        }
    }

    /// The power cut that stopped the device, once one has.
    pub fn cut(&self) -> Option<Cut> {
        self.state.lock().cut.clone()
    }

    /// Replaces the fault plan on a live device.
    pub fn set_faults(&self, faults: FaultPlan) {
        self.state.lock().faults = faults;
    }

    /// The image a power cut that kept the writes `keep` picks, by their
    /// place in issue order since the last barrier, would leave now.
    /// Changes nothing. After a cut nothing is pending.
    pub fn crash_keeping(&self, keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        self.replay(keep).0
    }

    /// The writes issued since the last barrier, in issue order: offset
    /// and bytes.
    pub fn pending(&self) -> Vec<(u64, Vec<u8>)> {
        self.replay(|_| true).1
    }

    /// [`unwind`] on a copy of the wrapped device: the image and the
    /// writes.
    fn replay(&self, keep: impl FnMut(usize) -> bool) -> (Vec<u8>, Vec<(u64, Vec<u8>)>) {
        let st = self.state.lock();
        let mut image = vec![0u8; self.inner.capacity() as usize];
        (self.inner.read_at(0, &mut image)).expect("the wrapped device reads back");
        let copy = MemDisk::from_image(image);
        let writes = unwind(&copy, &st.undo, keep).expect("the copy holds every write");
        (copy.into_image(), writes)
    }

    /// Returns the wrapped device, discarding the simulation state. After
    /// a power cut it holds what the cut kept.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Leaves the wrapped device holding the last barrier's image plus
    /// the pending writes a draw seeded by the plan keeps.
    fn power_cut(&self, st: &mut State) {
        let seed = st.faults.cut_seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        let pending = st.undo.len();
        let kept: Vec<usize> = (0..pending).filter(|_| rng.gen_index(2) == 0).collect();
        unwind(&self.inner, &st.undo, |i| kept.binary_search(&i).is_ok())
            .expect("the wrapped device takes back what it was written");
        st.undo.clear();
        st.cut = Some(Cut {
            seed,
            kept,
            pending,
        });
    }

    fn charge(&self, st: &mut State, offset: u64, len: u64, write: bool) {
        let sequential = st.prev_end == Some(offset);
        let service = self
            .model
            .service_time(st.prev_end, offset, len, self.inner.capacity());
        st.prev_end = Some(offset + len);
        self.clock.advance(service);
        if write {
            self.stats.record_write(len, sequential, service);
        } else {
            self.stats.record_read(len, sequential, service);
        }
    }
}

impl SimDisk<MemDisk> {
    /// Cuts the power, unless it is out already, and returns the image
    /// the cut left and the cut.
    pub fn crash_image(self) -> (Vec<u8>, Cut) {
        self.force_crash();
        let cut = self.cut().expect("the power is out");
        (self.inner.into_image(), cut)
    }
}

impl<D: BlockDevice> BlockDevice for SimDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.check_bounds(offset, buf.len())?;
        let mut st = self.state.lock();
        if st.faults.is_crashed() {
            return Err(DiskError::Crashed);
        }
        if let Err(at) = st.faults.on_read(offset, buf.len() as u64) {
            return Err(DiskError::MediaFailure { offset: at });
        }
        self.charge(&mut st, offset, buf.len() as u64, false);
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner.check_bounds(offset, buf.len())?;
        let mut st = self.state.lock();
        let issued = st
            .faults
            .on_write(buf.len() as u64)
            .ok_or(DiskError::Crashed)?;
        if issued > 0 {
            self.charge(&mut st, offset, issued as u64, true);
            let mut before = vec![0u8; issued];
            self.inner.read_at(offset, &mut before)?;
            self.inner.write_at(offset, &buf[..issued])?;
            st.undo.push((offset, before));
        }
        if st.faults.is_crashed() {
            self.power_cut(&mut st);
            return Err(DiskError::Crashed);
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        let mut st = self.state.lock();
        if st.faults.is_crashed() {
            return Err(DiskError::Crashed);
        }
        self.stats.record_flush();
        self.inner.flush()?;
        st.undo.clear();
        Ok(())
    }

    fn stats_snapshot(&self) -> Option<crate::DiskStatsSnapshot> {
        Some(self.stats.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sim(capacity: u64) -> SimDisk<MemDisk> {
        SimDisk::new(MemDisk::new(capacity), DiskModel::hp_c3010())
    }

    #[test]
    fn charges_time_and_counts() {
        let d = sim(1 << 20);
        d.write_at(0, &[0u8; 4096]).unwrap();
        d.write_at(4096, &[0u8; 4096]).unwrap(); // sequential
        let mut buf = [0u8; 4096];
        d.read_at(1 << 19, &mut buf).unwrap(); // random
        let snap = d.stats().snapshot();
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.sequential_writes, 1);
        assert_eq!(snap.reads, 1);
        assert!(d.clock().now() > Duration::ZERO);
        assert_eq!(d.clock().now(), snap.busy);
        // Reading the journal back charges nothing.
        let busy = d.clock().now();
        assert_eq!(d.pending().len(), 2);
        assert_eq!(d.crash_keeping(|_| true).len(), 1 << 20);
        assert_eq!((d.clock().now(), d.stats().snapshot().reads), (busy, 1));
    }

    #[test]
    fn sequential_writes_are_cheaper() {
        let d1 = sim(1 << 30);
        d1.write_at(0, &[0u8; 4096]).unwrap();
        d1.write_at(4096, &[0u8; 4096]).unwrap();
        let seq_total = d1.clock().now();

        let d2 = sim(1 << 30);
        d2.write_at(0, &[0u8; 4096]).unwrap();
        d2.write_at(1 << 29, &[0u8; 4096]).unwrap();
        let random_total = d2.clock().now();
        assert!(random_total > seq_total);
    }

    #[test]
    fn crash_point_tears_and_kills() {
        let d = sim(1 << 16).with_faults(FaultPlan::new().crash_after_bytes(1024 + 512));
        d.write_at(0, &[0xAAu8; 1024]).unwrap();
        d.flush().unwrap();
        // This write crosses the crash point: only 512 bytes are issued.
        assert_eq!(d.write_at(1024, &[0xBBu8; 1024]), Err(DiskError::Crashed));
        assert_eq!(d.flush(), Err(DiskError::Crashed));
        let mut probe = [0u8; 1];
        assert_eq!(d.read_at(0, &mut probe), Err(DiskError::Crashed));
        let cut = d.cut().unwrap();
        assert_eq!((cut.seed, cut.pending), (1536, 1));
        let (image, _) = d.crash_image();
        assert_eq!(image[1023], 0xAA);
        let torn = if cut.kept == [0] { 0xBB } else { 0x00 };
        assert_eq!((image[1024], image[1535]), (torn, torn));
        assert_eq!(image[1536], 0x00);
    }

    #[test]
    fn a_cut_keeps_the_subset_its_seed_draws() {
        let run = |crash_at: u64| {
            let d = sim(1 << 16).with_faults(FaultPlan::new().crash_after_bytes(crash_at));
            d.write_at(0, &[1u8; 512]).unwrap();
            d.flush().unwrap();
            for i in 1..=16u64 {
                if d.write_at(i * 512, &[i as u8; 512]).is_err() {
                    break;
                }
            }
            let cut = d.cut().expect("the budget runs out");
            let (image, again) = d.crash_image();
            assert_eq!(cut, again, "one cut");
            assert_eq!(image[0], 1, "{cut}: the barrier's image");
            for i in 1..=16usize {
                let kept = i <= cut.pending && cut.kept.contains(&(i - 1));
                let want = if kept { i as u8 } else { 0 };
                assert_eq!(image[i * 512], want, "{cut}: write {i}");
            }
            cut
        };
        let cut = run(512 + 12 * 512);
        assert_eq!(
            (cut.seed, cut.pending),
            (6656, 12),
            "the 13th write issues nothing"
        );
        assert!(!cut.kept.is_empty() && cut.kept.len() < 12, "{cut}");
        assert_eq!(run(6656), cut, "a seed repeats its cut");
        assert_ne!(run(6657).kept, cut.kept, "{cut}");
        assert!(cut.to_string().starts_with("CRASH_SEED=6656 kept writes ["));
    }

    #[test]
    fn overlapping_writes_unwind_newest_first() {
        let d = sim(4096);
        d.write_at(0, &[1u8; 300]).unwrap();
        d.flush().unwrap();
        d.write_at(100, &[2u8; 300]).unwrap();
        d.write_at(200, &[3u8; 50]).unwrap();
        d.write_at(0, &[4u8; 150]).unwrap();
        let at = |image: &[u8]| [0, 120, 160, 220, 300, 399].map(|i| image[i]);
        assert_eq!(at(&d.crash_keeping(|_| false)), [1, 1, 1, 1, 0, 0]);
        assert_eq!(at(&d.crash_keeping(|i| i == 0)), [1, 2, 2, 2, 2, 2]);
        assert_eq!(at(&d.crash_keeping(|i| i != 1)), [4, 4, 2, 2, 2, 2]);
        assert_eq!(at(&d.crash_keeping(|i| i == 1)), [1, 1, 1, 3, 0, 0]);
        assert_eq!(at(&d.crash_keeping(|_| true)), [4, 4, 2, 3, 2, 2]);
        let bytes: Vec<(u64, u8, usize)> = (d.pending().into_iter())
            .map(|(at, b)| (at, b[0], b.len()))
            .collect();
        assert_eq!(bytes, [(100, 2, 300), (200, 3, 50), (0, 4, 150)]);
    }

    #[test]
    fn reads_see_every_write_and_a_cut_keeps_the_flushed_image() {
        let d = sim(32);
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
        let d = sim(8);
        d.write_at(0, b"xxxx").unwrap();
        d.write_at(2, b"yy").unwrap();
        assert_eq!(&d.crash_keeping(|_| true)[..4], b"xxyy");
        assert_eq!(&d.crash_keeping(|i| i == 1)[..4], b"\0\0yy");
        assert_eq!(&d.crash_keeping(|i| i == 0)[..4], b"xxxx");
        // Every subset comes up under some seed.
        let seen: std::collections::HashSet<Vec<u8>> = (0..64u64)
            .map(|seed| {
                let d = sim(8).with_faults(FaultPlan::new().crash_after_bytes(seed + 6));
                d.write_at(0, b"xxxx").unwrap();
                d.write_at(2, b"yy").unwrap();
                d.crash_image().0[..4].to_vec()
            })
            .collect();
        assert_eq!(seen.len(), 4);
        d.flush().unwrap();
        assert!(d.pending().is_empty());
        assert_eq!(&d.crash_keeping(|_| false)[..4], b"xxyy");
    }

    #[test]
    fn rejects_out_of_bounds() {
        let d = sim(8);
        assert!(d.write_at(6, b"abc").is_err());
        assert!(d.pending().is_empty(), "a refused write is not pending");
    }

    #[test]
    fn media_failure_reported_with_offset() {
        let d = sim(1 << 16).with_faults(FaultPlan::new().read_error_region(2048..4096));
        let mut buf = [0u8; 512];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(
            d.read_at(2000, &mut buf),
            Err(DiskError::MediaFailure { offset: 2048 })
        );
        // Writes are unaffected by read-error regions.
        d.write_at(2048, &[1u8; 16]).unwrap();
    }

    #[test]
    fn force_crash_stops_everything() {
        let d = sim(1024);
        d.write_at(0, b"ok").unwrap();
        d.force_crash();
        assert!(d.is_crashed());
        assert_eq!(d.write_at(2, b"no"), Err(DiskError::Crashed));
        let cut = d.cut().unwrap();
        assert_eq!(
            (cut.seed, cut.pending),
            (2, 1),
            "seeded by the bytes written"
        );
        d.force_crash();
        assert_eq!(d.cut(), Some(cut), "one cut");
    }

    #[test]
    fn shared_clock_accumulates_across_devices() {
        let clock = Arc::new(VirtualClock::new());
        let a = sim(1 << 16).with_clock(Arc::clone(&clock));
        let b = sim(1 << 16).with_clock(Arc::clone(&clock));
        a.write_at(0, &[0u8; 512]).unwrap();
        let after_a = clock.now();
        b.write_at(0, &[0u8; 512]).unwrap();
        assert!(clock.now() > after_a);
    }

    #[test]
    fn bounds_errors_do_not_advance_clock() {
        let d = sim(1024);
        assert!(d.write_at(1020, &[0u8; 16]).is_err());
        assert_eq!(d.clock().now(), Duration::ZERO);
        assert_eq!(d.stats().snapshot().writes, 0);
    }
}
