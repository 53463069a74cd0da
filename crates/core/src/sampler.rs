//! The background metrics sampler ("ld-sampler").
//!
//! A histogram or counter read once at the end of a run tells you the
//! *aggregate*; a time series of the same numbers tells you the
//! *shape* — where throughput dipped while the cleaner ran, how queue
//! depth built up ahead of a backpressure stall. The sampler is a
//! dedicated thread that captures a stripped
//! [`ObsSnapshot`](crate::ObsSnapshot) (counters and histograms; no
//! per-event trace, no spans) into a bounded in-memory ring at a fixed
//! frequency ([`LldConfig::metrics_hz`](crate::LldConfig)),
//! exportable as JSONL — one `{"t_ms": …, "snapshot": {…}}` object per
//! line — via `Lld::sampler_jsonl`.
//!
//! Snapshots are cumulative, not pre-differenced: consumers subtract
//! adjacent lines (see `scripts/check_obs.py` and `ldctl top`), which
//! keeps a dropped sample from corrupting every later delta. The ring
//! keeps the most recent [`MAX_SAMPLES`] samples; older ones are
//! evicted and counted.
//!
//! Deterministic tests bypass the thread entirely: `Lld::sample_now`
//! captures a sample synchronously whether or not a sampler thread is
//! running.

use crate::lld::{Lld, LldInner};
use crate::obs::{json, ObsSnapshot};
use ld_disk::{BlockDevice, Condvar, Mutex};
use std::collections::VecDeque;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most samples the ring retains; the oldest are evicted beyond this.
/// At the ceiling sampling frequency this is still minutes of history.
pub(crate) const MAX_SAMPLES: usize = 4096;

/// One captured sample: milliseconds since the sampler's epoch (disk
/// creation) plus a stripped snapshot (no events, no spans).
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub(crate) t_ms: u64,
    pub(crate) snapshot: ObsSnapshot,
}

/// Coordination state of the sampler thread. A leaf lock: never held
/// while acquiring any other lock (pushing a sample locks it *after*
/// the snapshot has been fully captured).
#[derive(Debug)]
pub(crate) struct Sampler {
    state: Mutex<SamplerState>,
    /// Shutdown wake-up for the sleeping thread.
    wake: Condvar,
    /// `t_ms` zero point, fixed at disk creation.
    epoch: Instant,
}

#[derive(Debug, Default)]
struct SamplerState {
    stop: bool,
    samples: VecDeque<Sample>,
    /// Samples evicted from the ring by wraparound.
    dropped: u64,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    pub(crate) fn new() -> Self {
        Sampler {
            state: Mutex::new(SamplerState::default()),
            wake: Condvar::new(),
            epoch: Instant::now(),
        }
    }

    /// Requests shutdown and joins the thread. Idempotent; called from
    /// `Lld::into_device` and `Drop for Lld`.
    pub(crate) fn shutdown_and_join(&self) {
        let handle = {
            let mut st = self.state.lock();
            st.stop = true;
            self.wake.notify_all();
            st.handle.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn push(&self, sample: Sample) {
        let mut st = self.state.lock();
        if st.samples.len() >= MAX_SAMPLES {
            st.samples.pop_front();
            st.dropped += 1;
        }
        st.samples.push_back(sample);
    }

    /// Number of samples currently retained.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().samples.len()
    }

    /// Samples evicted from the ring by wraparound.
    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Serializes the retained samples as JSONL, oldest first.
    pub(crate) fn to_jsonl(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        for s in &st.samples {
            let mut o = json::Obj::new();
            o.u64("t_ms", s.t_ms).raw("snapshot", &s.snapshot.to_json());
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::new()
    }
}

/// Starts the sampler thread when the configuration asks for one.
pub(crate) fn spawn_if_configured<D: BlockDevice + 'static>(ld: &Lld<D>, hz: Option<f64>) {
    let Some(hz) = hz else { return };
    // validate() bounds hz to (0, 1000]; the clamp is belt-and-braces
    // against a caller constructing the config by hand.
    let period = Duration::from_secs_f64(1.0 / hz.clamp(0.001, 1000.0));
    let inner = ld.arc_inner();
    let handle = std::thread::Builder::new()
        .name("ld-sampler".into())
        .spawn(move || sampler_main(&inner, period))
        .expect("spawning the sampler thread failed");
    ld.sampler.state.lock().handle = Some(handle);
}

fn sampler_main<D: BlockDevice>(ld: &LldInner<D>, period: Duration) {
    ld_disk::register_thread_name("ld-sampler");
    loop {
        {
            let st = ld.sampler.state.lock();
            if st.stop {
                return;
            }
            let (g, _timed_out) = ld.sampler.wake.wait_timeout(st, period);
            if g.stop {
                return;
            }
        }
        take_sample(ld);
    }
}

/// Captures one sample right now, on the calling thread. Shared by the
/// sampler thread and `Lld::sample_now`.
pub(crate) fn take_sample<D: BlockDevice>(ld: &LldInner<D>) {
    let mut snapshot = ld.obs_snapshot();
    // Strip the unbounded parts: the trace ring and the span table are
    // reachable through the live disk; a time series only needs the
    // numbers.
    snapshot.events = Vec::new();
    snapshot.spans = Vec::new();
    let t_ms = ld.sampler.epoch.elapsed().as_millis() as u64;
    ld.sampler.push(Sample { t_ms, snapshot });
}
