//! Cross-thread trace plumbing shared by the device and logical-disk
//! layers: compact per-thread tags and a thread-local *trace context*.
//!
//! The observability layer proper (event ring, snapshots, exporters)
//! lives in `ld_core::obs`; this module holds only the pieces that
//! every layer, the device included, can reach.
//!
//! # Thread tags
//!
//! [`thread_tag`] assigns every OS thread a small dense integer (1, 2,
//! 3, … in first-use order) so trace events can say *which* thread
//! emitted them without dragging `ThreadId`'s opaque representation
//! around. Threads with a meaningful role register a name
//! ([`register_thread_name`]) that exporters resolve via
//! [`thread_names`] — the cleaner daemon does.
//!
//! # Trace context
//!
//! A *trace id* names one logical operation (an ARU commit, one
//! group-commit flush batch, one cleaner pass) whose stages may execute
//! on several threads. The id travels two ways: explicitly, as a field
//! on stage events, and implicitly, via the thread-local set by
//! [`trace_scope`] — which a segment's media write reads, so a write
//! issued by the flush leader or by `ld-cleanerd` is attributed to the
//! operation that produced it. Id `0` means "no trace".

use crate::sync::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Next unassigned thread tag; tags start at 1 so 0 can mean "unknown".
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

/// Tag → registered role name, for threads that have one.
static THREAD_NAMES: OnceLock<Mutex<BTreeMap<u64, String>>> = OnceLock::new();

thread_local! {
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
}

/// Returns this thread's tag, assigning the next dense integer on first
/// use. Tags are process-wide unique and never reused.
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| {
        let mut tag = t.get();
        if tag == 0 {
            tag = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
            t.set(tag);
        }
        tag
    })
}

/// Associates `name` with the calling thread's tag, for trace
/// exporters. Later registrations for the same thread overwrite.
pub fn register_thread_name(name: &str) {
    let tag = thread_tag();
    let names = THREAD_NAMES.get_or_init(|| Mutex::new(BTreeMap::new()));
    names.lock().insert(tag, name.to_string());
}

/// A copy of the tag → name table for threads that registered one.
pub fn thread_names() -> BTreeMap<u64, String> {
    THREAD_NAMES
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .clone()
}

/// The calling thread's current trace id (0 when none is set).
pub fn current_trace() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// Sets the calling thread's trace id for the returned guard's
/// lifetime, restoring the previous id on drop (scopes nest).
pub fn trace_scope(trace: u64) -> TraceScope {
    let prev = TRACE_ID.with(|t| t.replace(trace));
    TraceScope { prev }
}

/// RAII guard from [`trace_scope`]; restores the prior trace id.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        TRACE_ID.with(|t| t.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        let mine = thread_tag();
        assert!(mine > 0);
        assert_eq!(thread_tag(), mine, "tag is stable per thread");
        let other = std::thread::spawn(thread_tag).join().unwrap();
        assert_ne!(other, mine);
    }

    #[test]
    fn names_resolve_by_tag() {
        let tag = std::thread::Builder::new()
            .name("ld-test-role".into())
            .spawn(|| {
                register_thread_name("ld-test-role");
                thread_tag()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            thread_names().get(&tag).map(String::as_str),
            Some("ld-test-role")
        );
    }

    #[test]
    fn trace_scopes_nest_and_restore() {
        assert_eq!(current_trace(), 0);
        {
            let _a = trace_scope(7);
            assert_eq!(current_trace(), 7);
            {
                let _b = trace_scope(9);
                assert_eq!(current_trace(), 9);
            }
            assert_eq!(current_trace(), 7);
        }
        assert_eq!(current_trace(), 0);
    }
}
