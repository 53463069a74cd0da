//! The crash flight recorder.
//!
//! Some failures happen on threads where no caller is waiting for the
//! result: a background cleaner pass fails, the cleaner thread panics.
//! The error *does* resurface eventually (the cleaner's poisoned locks
//! take the next session down),
//! but by then the interesting state — what the system was doing when
//! it went wrong — is gone. The flight recorder captures that state at
//! the moment of failure: a JSON sidecar file with the failure reason,
//! the last trace events, every histogram, and the final counter
//! snapshot, readable later with `ldctl flight <file>`.
//!
//! Dumps are strictly best-effort. A recorder must never turn an
//! already-failing background thread into a second failure, so every
//! I/O error is swallowed and [`FlightRecorder::dump`] simply returns
//! `None`. Enabled by [`LldConfig::flight_dir`](crate::LldConfig) /
//! the `LD_ARU_FLIGHT_DIR` environment variable.

use crate::obs::{json, ObsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes flight dumps (`ld-flight-<pid>-<n>.json`) into a fixed
/// directory, created on first dump.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder dumping into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            dir: dir.into(),
            seq: AtomicU64::new(0),
        }
    }

    /// The directory dumps are written into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one dump file and returns its path. `reason` is a short
    /// machine-readable tag (`cleaner_pass_error`, `cleaner_panic`),
    /// `detail` the human-readable error text.
    /// Best-effort: returns `None` if the directory or file cannot be
    /// written.
    pub fn dump(&self, reason: &str, detail: &str, snapshot: &ObsSnapshot) -> Option<PathBuf> {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let path = self.dir.join(format!("ld-flight-{pid}-{n}.json"));
        let mut o = json::Obj::new();
        o.str("reason", reason)
            .str("detail", detail)
            .u64("pid", u64::from(pid))
            .u64("dump_seq", n)
            .raw("snapshot", &snapshot.to_json());
        std::fs::create_dir_all(&self.dir).ok()?;
        std::fs::write(&path, o.finish()).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("ld-flight-test-{}", std::process::id()));
        let rec = FlightRecorder::new(&dir);
        let snap = ObsSnapshot::default();
        let path = rec
            .dump("unit_test", "synthetic failure", &snap)
            .expect("dump into the temp directory");
        let body = std::fs::read_to_string(&path).unwrap();
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("reason").and_then(|r| r.as_str()), Some("unit_test"));
        assert_eq!(
            v.get("detail").and_then(|r| r.as_str()),
            Some("synthetic failure")
        );
        assert_eq!(
            v.get("pid").and_then(|p| p.as_u64()),
            Some(u64::from(std::process::id()))
        );
        let inner = v.get("snapshot").expect("snapshot key");
        ObsSnapshot::from_value(inner).expect("snapshot parses back");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn dump_into_unwritable_path_is_a_quiet_none() {
        // A file (not a directory) as the target: create_dir_all fails.
        let bogus = std::env::temp_dir().join(format!("ld-flight-file-{}", std::process::id()));
        std::fs::write(&bogus, b"occupied").unwrap();
        let rec = FlightRecorder::new(&bogus);
        assert!(rec
            .dump("unit_test", "should not panic", &ObsSnapshot::default())
            .is_none());
        std::fs::remove_file(&bogus).ok();
    }
}
