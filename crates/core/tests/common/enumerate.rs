//! The crash enumerator: every state a power cut can leave during a
//! short history (docs/INVARIANTS.md I4 and I7).
//!
//! A history runs on a [`StopDisk`], which stops before each device
//! write and at each barrier. A cut there leaves the last barrier's
//! image plus any subset of the writes issued since, or such a subset
//! with one kept write torn at a sector boundary. Up to [`k`] pending
//! writes a stop gives every subset with every tear; above, 64 subsets
//! with one tear each, and it says so on stderr. A state is named
//! `ENUM_SEED=n write w kept [..] torn t`: the history's seed, the
//! device writes before the stop, the kept writes by their place since
//! the barrier, and the torn one (`i at sector s`: kept write `i` cut
//! after `s` sectors). `ENUM_SEED=n` runs one history, `ENUM_SEEDS=n`
//! the first `n`, `ENUM_K` sets the bound (test-only variables). What a
//! state must hold is the suite's to say: the LD suites hold it to the
//! model (`model.rs`), `fs_crash.rs` to `MinixFs::verify`.

#![allow(dead_code)] // each suite uses its own subset

use ld_disk::{BlockDevice, DiskModel, MemDisk, Mutex, SimDisk, SmallRng};
use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

fn var(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    Some(v.parse().unwrap_or_else(|_| panic!("{name} is a number")))
}

/// The bound on pending writes up to which a stop gives every subset.
pub fn k() -> usize {
    var("ENUM_K").map_or(10, |k| k as usize)
}

/// The seeds a suite runs: `ENUM_SEED`'s, else the first `ENUM_SEEDS`,
/// else the first `n`.
pub fn seeds(n: u64) -> std::ops::Range<u64> {
    match var("ENUM_SEED") {
        Some(seed) => seed..seed + 1,
        None => 0..var("ENUM_SEEDS").unwrap_or(n),
    }
}

/// The writes since a barrier (offset, bytes) over the image it left;
/// the stops not handed out yet (device writes before each, and how
/// many of `writes` were pending); how many pending writes have had
/// their subsets handed out (`None`: not even the barrier's image); the
/// hashes of the images handed out; whether a barrier closed it.
struct Epoch {
    base: Vec<u8>,
    writes: Vec<(u64, Vec<u8>)>,
    stops: Vec<(usize, usize)>,
    done: Option<usize>,
    seen: HashSet<u64>,
    closed: bool,
}

/// What the enumerator did: distinct images handed out, states whose
/// image one before had, and stops above the bound.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub states: usize,
    pub duplicates: usize,
    pub sampled: usize,
}

/// The device writes issued so far, and the epochs since the last
/// hand-out, the last one open unless a barrier closed it.
#[derive(Default)]
struct Log {
    armed: bool,
    issued: usize,
    epochs: Vec<Epoch>,
    tally: Tally,
}

/// A simulated disk that stops before each write and at each barrier
/// once armed. Its medium holds every write; states are built on copies.
pub struct StopDisk {
    sim: SimDisk<MemDisk>,
    log: Mutex<Log>,
}

/// A state: its epoch, the stop it is new at, the kept writes, and the
/// kept write cut short with the sectors of it that landed.
type State = (usize, usize, Vec<usize>, Option<(usize, usize)>);

/// Where a write of `len` bytes at `at` can tear: the lengths of its
/// prefixes that end on a sector boundary.
fn tears(at: u64, len: usize) -> impl Iterator<Item = usize> {
    ((512 - at % 512) as usize..len).step_by(512)
}

impl StopDisk {
    /// A disk holding `image`, all of it durable, not armed.
    pub fn new(image: Vec<u8>) -> Self {
        let sim = SimDisk::new(MemDisk::from_image(image), DiskModel::hp_c3010());
        let log = Mutex::default();
        StopDisk { sim, log }
    }

    pub fn arm(&self) {
        self.log.lock().armed = true;
    }

    /// A stop where the history ends, so that its last write is in a
    /// state too.
    pub fn stop(&self) {
        self.stop_locked(&mut self.log.lock(), false);
    }

    pub fn tally(&self) -> Tally {
        self.log.lock().tally
    }

    /// The writes issued since the last barrier.
    pub fn pending(&self) -> usize {
        self.sim.pending().len()
    }

    pub fn crash_keeping(&self, keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        self.sim.crash_keeping(keep)
    }

    fn stop_locked(&self, log: &mut Log, barrier: bool) {
        if !log.armed {
            return;
        }
        if log.epochs.last().is_none_or(|e| e.closed) {
            log.epochs.push(Epoch {
                base: self.sim.crash_keeping(|_| false),
                writes: self.sim.pending(),
                stops: Vec::new(),
                done: None,
                seen: HashSet::new(),
                closed: false,
            });
        }
        let epoch = log.epochs.last_mut().unwrap();
        epoch.stops.push((log.issued, epoch.writes.len()));
        epoch.closed = barrier;
    }

    /// Hands `check` each state that the stops since the last call
    /// reached and no earlier stop did, with its name, smallest subset
    /// first, each distinct image once (an image the stops of a later
    /// call reach again may be handed out again). Returns the first
    /// error `check` returns.
    pub fn each_new_state(
        &self,
        seed: u64,
        mut check: impl FnMut(&str, Vec<u8>) -> Result<(), String>,
    ) -> Result<(), String> {
        let k = k();
        let log = &mut *self.log.lock();
        let mut states: Vec<State> = Vec::new();
        for (e, epoch) in log.epochs.iter_mut().enumerate() {
            let n_tears = |i: usize| tears(epoch.writes[i].0, epoch.writes[i].1.len()).count();
            for (issued, n) in std::mem::take(&mut epoch.stops) {
                let done = epoch.done.unwrap_or_else(|| {
                    states.push((e, issued, Vec::new(), None));
                    0
                });
                // New here: the subsets whose last write was issued since
                // the stop before.
                for last in done..n {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (issued << 20 ^ last) as u64);
                    let subsets: Vec<Vec<usize>> = if last < k {
                        let subset = |mask: u64| (0..last).filter(|i| mask >> i & 1 == 1).collect();
                        (0..1u64 << last).map(subset).collect()
                    } else {
                        log.tally.sampled += 1;
                        eprintln!(
                            "ENUM_SEED={seed} write {issued}: {} writes pending, above K = {k}: \
                             64 subsets sampled",
                            last + 1
                        );
                        let mut coin = |_: &usize| rng.gen_index(2) == 0;
                        (0..64)
                            .map(|_| (0..last).filter(&mut coin).collect())
                            .collect()
                    };
                    for mut kept in subsets {
                        kept.push(last);
                        let each = |&i: &usize| (1..=n_tears(i)).map(move |s| (i, s));
                        let mut torn: Vec<(usize, usize)> = kept.iter().flat_map(each).collect();
                        if last >= k && !torn.is_empty() {
                            torn = vec![torn[rng.gen_index(torn.len())]];
                        }
                        let torn = torn.into_iter().map(Some).chain([None]);
                        states.extend(torn.map(|t| (e, issued, kept.clone(), t)));
                    }
                }
                epoch.done = Some(done.max(n));
            }
        }
        // Smallest first: fewer kept writes, then untorn, then earlier.
        states.sort_by_key(|(_, _, kept, torn)| (kept.len(), torn.is_some()));
        for (e, issued, kept, torn) in states {
            let epoch = &mut log.epochs[e];
            let mut image = epoch.base.clone();
            for &i in &kept {
                let (at, bytes) = &epoch.writes[i];
                let len = match torn {
                    Some((t, sectors)) if t == i => sectors * 512 - *at as usize % 512,
                    _ => bytes.len(),
                };
                image[*at as usize..*at as usize + len].copy_from_slice(&bytes[..len]);
            }
            // An image differs from its epoch's base only where the
            // epoch's writes went: only those bytes are hashed.
            let mut h = DefaultHasher::new();
            for (at, bytes) in &epoch.writes {
                image[*at as usize..*at as usize + bytes.len()].hash(&mut h);
            }
            if !epoch.seen.insert(h.finish()) {
                log.tally.duplicates += 1;
                continue;
            }
            log.tally.states += 1;
            let torn = torn.map_or("none".into(), |(i, s)| format!("{i} at sector {s}"));
            check(
                &format!("ENUM_SEED={seed} write {issued} kept {kept:?} torn {torn}"),
                image,
            )?;
        }
        log.epochs.retain(|e| !e.closed);
        Ok(())
    }
}

impl BlockDevice for StopDisk {
    fn capacity(&self) -> u64 {
        self.sim.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.sim.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        let mut log = self.log.lock();
        self.stop_locked(&mut log, false);
        self.sim.write_at(offset, buf)?;
        log.issued += 1;
        if let Some(epoch) = log.epochs.last_mut().filter(|e| !e.closed) {
            epoch.writes.push((offset, buf.to_vec()));
        }
        Ok(())
    }

    fn flush(&self) -> ld_disk::Result<()> {
        let mut log = self.log.lock();
        self.stop_locked(&mut log, true);
        self.sim.flush()
    }
}
