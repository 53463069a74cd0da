//! Timing and host probes shared by the workloads.

use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// The `q`-quantile (0..=1) of `v` by linear interpolation. 0 if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn median_ns(v: &[u64]) -> f64 {
    quantile_ns(v, 0.5)
}

pub fn quantile_ns(v: &[u64], q: f64) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    quantile(&f, q)
}

/// Samples of a fixed CPU-bound loop (CRC-32 over 1 MiB), taken
/// between timed batches. Their spread is the host's noise as this
/// process saw it; their level calibrates the host's speed.
pub struct Noise {
    buf: Vec<u8>,
    pub samples_s: Vec<f64>,
}

impl Noise {
    pub const BYTES: usize = 1 << 20;

    pub fn new() -> Self {
        Noise {
            buf: (0..Self::BYTES).map(|i| (i * 31) as u8).collect(),
            samples_s: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(ld_disk::crc32(std::hint::black_box(&self.buf)));
        self.samples_s.push(t0.elapsed().as_secs_f64());
    }

    pub fn merge(&mut self, other: Noise) {
        self.samples_s.extend(other.samples_s);
    }
}

/// p90 / p10 of [`Noise`] samples: 1.0 on a quiet host.
pub fn noise_ratio(samples_s: &[f64]) -> f64 {
    let p10 = quantile(samples_s, 0.1);
    if p10 > 0.0 {
        quantile(samples_s, 0.9) / p10
    } else {
        0.0
    }
}

/// The host's speed on the [`Noise`] loop, from its median sample.
pub fn crc32_mb_per_s(samples_s: &[f64]) -> f64 {
    let m = median(samples_s);
    if m > 0.0 {
        Noise::BYTES as f64 / 1e6 / m
    } else {
        0.0
    }
}

/// Wall times of `batches` batches of `batch_ops` calls of `op`, with
/// one [`Noise`] sample between batches, outside the clock. `op` gets
/// the running operation index.
///
/// Load threads of one phase pass the same `sync` barrier: they start
/// every batch together, so no thread ever runs while the others have
/// finished, and the noise sample (taken by the `leader` alone while
/// the others wait) sees the host, not the benchmark's own load.
pub fn timed_batches(
    batches: usize,
    batch_ops: usize,
    noise: &mut Noise,
    sync: Option<(&Barrier, bool)>,
    mut op: impl FnMut(usize),
) -> Vec<f64> {
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        match sync {
            None => noise.sample(),
            Some((barrier, leader)) => {
                barrier.wait();
                if leader {
                    noise.sample();
                }
                barrier.wait();
            }
        }
        let t0 = Instant::now();
        for i in 0..batch_ops {
            op(b * batch_ops + i);
        }
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// Batches discarded at the start of each thread's phase (warm-up).
pub const WARMUP_BATCHES: usize = 2;

/// Operations per second from per-thread batch times: threads run
/// concurrently, so the rate is `threads × batch_ops / median batch`.
pub fn rate_per_s(per_thread: &[Vec<f64>], batch_ops: usize) -> (f64, usize) {
    let kept: Vec<f64> = per_thread
        .iter()
        .flat_map(|t| t.iter().skip(WARMUP_BATCHES.min(t.len().saturating_sub(1))))
        .copied()
        .collect();
    let m = median(&kept);
    let rate = if m > 0.0 {
        per_thread.len() as f64 * batch_ops as f64 / m
    } else {
        0.0
    };
    (rate, kept.len())
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, all threads,
/// exited ones included. `/proc/self/stat` counts in clock ticks; the
/// tick is 10 ms on every Linux this runs on.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// CPUs this process may run on, as it was started (read once, so a
/// later [`pin_to_one_cpu`] does not change the answer).
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Confines the calling thread, and every thread started from it
/// later, to the highest-numbered CPU it may run on; returns that CPU.
///
/// `net_sync` hands every request from one thread to another (client,
/// server session, group-commit leader). Between two virtual CPUs of a
/// shared host each hand-off is an inter-processor wake-up that costs
/// 50–100 µs and another amount on every run; on one CPU it is a
/// context switch. The threads never compute at the same time — each
/// waits for the next — so one CPU takes nothing from them.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    host_cores();
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is
    // the calling thread.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, bytes, mask.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}

/// A zeroed buffer with every page touched, so no timed phase pays
/// first-touch page faults.
pub fn touched_buffer(bytes: usize) -> Vec<u8> {
    let mut v = vec![0u8; bytes];
    for i in (0..v.len()).step_by(4096) {
        v[i] = std::hint::black_box(0);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_ns(&[10, 30, 20]), 20.0);
    }

    #[test]
    fn rate_discards_warmup_and_scales_by_threads() {
        // Two threads, batches of 100 ops; the slow first two batches
        // of each thread must not move the median.
        let t = vec![9.0, 9.0, 0.5, 0.5, 0.5];
        let (rate, kept) = rate_per_s(&[t.clone(), t], 100);
        assert_eq!(kept, 6);
        assert_eq!(rate, 2.0 * 100.0 / 0.5);
    }

    #[test]
    fn host_probes_read_something() {
        assert!(peak_rss_mib() > 0.0);
        let cores = host_cores();
        assert!(cores >= 1);
        // Pinning holds for threads started afterwards and leaves the
        // recorded core count alone.
        let cpu = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let seen = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            (cpu, seen.join().unwrap())
        })
        .join()
        .unwrap();
        assert_eq!(cpu.1, 1);
        assert_eq!(host_cores(), cores);
        let mut n = Noise::new();
        let times = timed_batches(3, 10, &mut n, None, |_| {});
        assert_eq!((times.len(), n.samples_s.len()), (3, 3));
        assert!(noise_ratio(&n.samples_s) >= 1.0 && crc32_mb_per_s(&n.samples_s) > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
