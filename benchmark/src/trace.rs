//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around every
//! call into a layer's public function. A span carries a name
//! (`layer.function`), start, end, the span that caused it and a
//! transaction id. Nesting is per thread: [`TimedDisk`] calls made on
//! the calling thread become children of the core call they happen
//! under, so a call's *self time* is its duration minus its children.
//!
//! Every finished span feeds a per-name aggregate (count, total, self).
//! Full span records are kept only for every `sample_every`-th
//! transaction (and for spans outside any transaction), so the Chrome
//! trace stays loadable while the aggregates cover the whole run.
//!
//! [`TimedDisk`]: crate::timed_disk::TimedDisk

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on kept span records per thread.
const MAX_SPANS_PER_THREAD: usize = 200_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<TraceData> = Mutex::new(TraceData {
    spans: Vec::new(),
    agg: BTreeMap::new(),
});

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// Transaction the span belongs to (0 = none).
    pub txn: u64,
    pub tid: u32,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Everything recorded between [`enable`] and [`finish`].
#[derive(Debug, Default)]
pub struct TraceData {
    pub spans: Vec<SpanRec>,
    pub agg: BTreeMap<&'static str, Agg>,
}

impl TraceData {
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    id: u64,
}

struct Local {
    tid: u32,
    next_id: u64,
    txn: u64,
    stack: Vec<Frame>,
    data: TraceData,
}

impl Local {
    fn flush(&mut self) {
        if self.data.agg.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.spans.append(&mut self.data.spans);
        for (name, a) in std::mem::take(&mut self.data.agg) {
            let s = sink.agg.entry(name).or_default();
            s.count += a.count;
            s.total_ns += a.total_ns;
            s.self_ns += a.self_ns;
        }
    }
}

impl Drop for Local {
    // Threads the benchmark does not own (server sessions, a pipeline
    // I/O thread) hand their spans over when they exit.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        next_id: 1,
        txn: 0,
        stack: Vec::new(),
        data: TraceData::default(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording. Full records are kept for transactions whose id
/// is a multiple of `sample_every`.
pub fn enable(sample_every: u64) {
    now_ns();
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stops recording and returns everything recorded. Threads still
/// alive must have called [`flush_thread`] (the calling thread is
/// flushed here).
pub fn finish() -> TraceData {
    ENABLED.store(false, Ordering::SeqCst);
    flush_thread();
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Hands the calling thread's spans to the global sink.
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// Sets the transaction id that spans opened on this thread carry.
pub fn set_txn(txn: u64) {
    if enabled() {
        let _ = LOCAL.try_with(|l| l.borrow_mut().txn = txn);
    }
}

/// An open span; closes when dropped.
#[must_use]
pub struct Span {
    active: bool,
}

/// Opens a span named `layer.function` on the calling thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    let active = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let id = ((l.tid as u64) << 40) | l.next_id;
            l.next_id += 1;
            l.stack.push(Frame {
                name,
                start_ns: now_ns(),
                child_ns: 0,
                id,
            });
        })
        .is_ok();
    Span { active }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            let Some(f) = l.stack.pop() else { return };
            let end_ns = now_ns();
            let dur = end_ns.saturating_sub(f.start_ns);
            let parent = match l.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => 0,
            };
            let a = l.data.agg.entry(f.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(f.child_ns);
            let keep = l.txn % SAMPLE_EVERY.load(Ordering::Relaxed) == 0
                && l.data.spans.len() < MAX_SPANS_PER_THREAD;
            if keep {
                let (txn, tid) = (l.txn, l.tid);
                l.data.spans.push(SpanRec {
                    name: f.name,
                    start_ns: f.start_ns,
                    end_ns,
                    id: f.id,
                    parent,
                    txn,
                    tid,
                });
            }
        });
    }
}

/// The layer a span name belongs to (`ops.write` → `ops`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders spans in Chrome Trace Event Format (complete `X` events,
/// microsecond timestamps). `extra` is a JSON object body (without
/// braces) added beside `traceEvents`; viewers ignore unknown keys.
pub fn chrome_json(spans: &[SpanRec], extra: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + extra.len() + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",");
    if !extra.is_empty() {
        out.push_str(extra);
        out.push(',');
    }
    out.push_str("\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"txn\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.txn
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only, with names of its own: the recorder is
    // process-global and other tests' devices may record meanwhile.
    #[test]
    fn nesting_self_time_and_sampling() {
        enable(2);
        set_txn(2);
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_txn(3); // not a multiple of 2: aggregated, not kept
        drop(span("test.outer"));
        let other = std::thread::spawn(|| {
            set_txn(0);
            drop(span("test.other"));
        });
        other.join().unwrap();
        let data = finish();
        assert!(!enabled());

        let outer = data.get("test.outer");
        let inner = data.get("test.inner");
        assert_eq!((outer.count, inner.count), (2, 1));
        assert_eq!(data.get("test.other").count, 1);
        assert!(inner.total_ns >= 4_000_000);
        assert!(outer.total_ns >= inner.total_ns + 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);

        let kept: Vec<SpanRec> = data
            .spans
            .iter()
            .filter(|s| layer_of(s.name) == "test")
            .cloned()
            .collect();
        assert_eq!(kept.len(), 3);
        let o = data.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let i = data.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(i.parent, o.id);
        assert_eq!((o.parent, o.txn), (0, 2));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);

        let json = chrome_json(&kept, "\"k\":1");
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"k\":1,\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);

        // Disabled: spans cost nothing and record nothing.
        drop(span("test.outer"));
        assert_eq!(finish().get("test.outer").count, 0);
    }
}
