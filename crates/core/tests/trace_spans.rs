//! Integration tests of the commit-trace protocol: stage spans emitted
//! by the group-commit path must be complete (every begin has an end)
//! and properly nested (queue-wait / seal / barrier-wait inside the
//! commit span), across OS threads; the snapshot JSON schema is pinned
//! by a golden file; and the sampler JSONL format round-trips through
//! the bundled parser.

use ld_core::obs::{json, TraceEvent};
use ld_core::{Ctx, Lld, LldConfig, ObsConfig, ObsSnapshot, Position, ServerCounters};
use ld_disk::{DiskModel, MemDisk, SimDisk};
use std::collections::BTreeMap;
use std::sync::Arc;

const BS: usize = 512;

/// `flight_dir` is the one field whose default reads the environment
/// (`LD_ARU_FLIGHT_DIR`, which CI sets); these tests dump nothing.
fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        flight_dir: None,
        obs: ObsConfig {
            ring_capacity: 1 << 15,
            ..ObsConfig::default()
        },
        ..LldConfig::default()
    }
}

/// One synchronous committed ARU: the instrumented group-commit path.
fn sync_commit<D: ld_disk::BlockDevice>(ld: &Lld<D>) {
    let aru = ld.begin_aru().unwrap();
    let list = ld.new_list(Ctx::Aru(aru)).unwrap();
    let blk = ld.new_block(Ctx::Aru(aru), list, Position::First).unwrap();
    ld.write(Ctx::Aru(aru), blk, &[7u8; BS]).unwrap();
    ld.end_aru(aru).unwrap();
    ld.flush().unwrap();
}

/// Collects `(begin_seqs, end_seqs)` per `(trace, stage)` pair.
type SpanIndex = BTreeMap<(u64, String), (Vec<u64>, Vec<u64>)>;

fn index_spans(snap: &ObsSnapshot) -> SpanIndex {
    let mut idx = SpanIndex::new();
    for e in &snap.events {
        match &e.event {
            TraceEvent::StageBegin { trace, stage } => {
                idx.entry((*trace, stage.as_str().to_string()))
                    .or_default()
                    .0
                    .push(e.seq);
            }
            TraceEvent::StageEnd { trace, stage, .. } => {
                idx.entry((*trace, stage.as_str().to_string()))
                    .or_default()
                    .1
                    .push(e.seq);
            }
            _ => {}
        }
    }
    idx
}

#[test]
fn multi_thread_commit_spans_are_complete_and_nested() {
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &config()).unwrap());
    let threads = 4;
    let commits_per_thread = 10;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let ld = Arc::clone(&ld);
            std::thread::spawn(move || {
                for _ in 0..commits_per_thread {
                    sync_commit(&ld);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = ld.obs_snapshot();
    assert_eq!(snap.dropped_events, 0, "ring sized to hold the whole run");

    // Stage events must come from more than one OS thread.
    let tids: std::collections::BTreeSet<u64> = snap
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::StageBegin { .. }))
        .map(|e| e.tid)
        .collect();
    assert!(tids.len() > 1, "stage events on one thread only: {tids:?}");

    let idx = index_spans(&snap);

    // Completeness: every begin has exactly one matching end.
    for ((trace, stage), (begins, ends)) in &idx {
        assert_eq!(
            begins.len(),
            ends.len(),
            "unbalanced {stage} spans for trace {trace}"
        );
    }

    // Every traced commit carries a commit span and a queue-wait span.
    let commit_traces: Vec<u64> = idx
        .keys()
        .filter(|(_, stage)| stage == "commit")
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(
        commit_traces.len(),
        threads * commits_per_thread,
        "one commit span per sync flush"
    );
    for &t in &commit_traces {
        let (cb, ce) = &idx[&(t, "commit".to_string())];
        let (qb, qe) = &idx[&(t, "queue_wait".to_string())];
        assert_eq!(cb.len(), 1, "trace {t}");
        assert_eq!(qb.len(), 1, "trace {t}");
        // Nesting by ring sequence: commit begin < queue begin <
        // queue end < commit end.
        assert!(cb[0] < qb[0], "trace {t}: queue_wait starts inside commit");
        assert!(qb[0] < qe[0], "trace {t}");
        assert!(qe[0] < ce[0], "trace {t}: queue_wait ends inside commit");
    }

    // At least one commit led a batch: its seal and barrier-wait spans
    // nest inside its commit span.
    let leaders: Vec<u64> = commit_traces
        .iter()
        .copied()
        .filter(|t| idx.contains_key(&(*t, "seal".to_string())))
        .collect();
    assert!(!leaders.is_empty(), "no leader traces found");
    for &t in &leaders {
        let (cb, ce) = &idx[&(t, "commit".to_string())];
        for stage in ["seal", "barrier_wait"] {
            let (sb, se) = &idx[&(t, stage.to_string())];
            assert!(!sb.is_empty(), "leader trace {t} missing {stage}");
            assert!(
                cb[0] < sb[0] && se[se.len() - 1] < ce[0],
                "trace {t}: {stage} outside commit"
            );
        }
    }

    // The histograms fed by the spans saw the same traffic.
    let h = |name: &str| snap.histogram(name).unwrap().count;
    assert_eq!(h("gc_queue_wait_ns"), (threads * commits_per_thread) as u64);
    assert!(h("gc_seal_ns") >= leaders.len() as u64);
    assert!(h("gc_barrier_wait_ns") >= leaders.len() as u64);
}

/// Pins the JSON schema of [`ObsSnapshot::to_json`]: every key path,
/// in serialization order, against a checked-in golden file. A failure
/// means the wire format changed — update the golden file *and*
/// `docs/OBSERVABILITY.md` deliberately.
#[test]
fn snapshot_json_schema_matches_golden() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
    sync_commit(&ld);
    let snap = ld.obs_snapshot();
    let v = json::parse(&snap.to_json()).unwrap();

    fn walk(v: &json::Value, path: &str, out: &mut Vec<String>) {
        match v {
            json::Value::Obj(pairs) => {
                for (k, val) in pairs {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.push(p.clone());
                    walk(val, &p, out);
                }
            }
            json::Value::Arr(items) => {
                // Arrays are schema'd by their first element; event
                // payloads vary by type, so stop at the envelope there.
                if path.ends_with("events[]") || path.ends_with("buckets[]") {
                    return;
                }
                if let Some(first) = items.first() {
                    walk(first, &format!("{path}[]"), out);
                }
            }
            _ => {}
        }
    }
    let mut actual = Vec::new();
    walk(&v, "", &mut actual);
    // Event payloads vary by event type; keep only the envelope keys
    // common to every entry.
    actual.retain(|p| {
        !p.starts_with("events[].")
            || ["seq", "ts", "tid", "wall_us", "type"]
                .iter()
                .any(|k| p == &format!("events[].{k}"))
    });
    let actual = actual.join("\n") + "\n";
    // `LD_BLESS=1 cargo test` regenerates the golden file in place.
    if std::env::var_os("LD_BLESS").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/obs_snapshot_schema.txt"
            ),
            &actual,
        )
        .unwrap();
    }
    let golden = include_str!("golden/obs_snapshot_schema.txt");
    assert_eq!(
        actual, golden,
        "ObsSnapshot JSON schema drifted from tests/golden/obs_snapshot_schema.txt; \
         if intentional, update the golden file and docs/OBSERVABILITY.md"
    );
}

#[test]
fn snapshot_json_round_trips_byte_identical() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
    for _ in 0..3 {
        sync_commit(&ld);
    }
    let snap = ld.obs_snapshot();
    let first = snap.to_json();
    let reparsed = ObsSnapshot::from_json(&first).unwrap();
    assert_eq!(
        reparsed.to_json(),
        first,
        "parse → serialize must be the identity"
    );
    assert_eq!(reparsed.events.len(), snap.events.len());
    assert_eq!(reparsed.lld.arus_committed, snap.lld.arus_committed);
}

/// The same identity on a snapshot whose every record is filled: a
/// recovered `SimDisk` image (so `disk` and `recovery` are objects),
/// non-zero server counters, and `stage_end` / `segment_seal` events.
#[test]
fn filled_snapshot_json_round_trips_byte_identical() {
    let sim = |mem| SimDisk::new(mem, DiskModel::hp_c3010());
    let ld = Lld::format(sim(MemDisk::new(4 << 20)), &config()).unwrap();
    for _ in 0..3 {
        sync_commit(&ld);
    }
    let image = ld.into_device().into_inner().into_image();
    let (ld, report) = Lld::recover_with(sim(MemDisk::from_image(image)), &config()).unwrap();
    assert!(report.segments_replayed > 0);
    sync_commit(&ld);
    let mut snap = ld.obs_snapshot();
    snap.server = ServerCounters {
        sessions_opened: 3,
        sessions_closed: 2,
        retries_deduped: 1,
        conn_errors: 4,
        ops_served: 17,
        bytes_in: 1_234,
        bytes_out: 5_678,
    };
    assert!(snap.disk.is_some() && snap.recovery.is_some());
    for kind in ["stage_end", "segment_seal"] {
        assert!(
            snap.events.iter().any(|e| e.event.kind() == kind),
            "no {kind} event in the ring"
        );
    }
    let first = snap.to_json();
    let reparsed = ObsSnapshot::from_json(&first).unwrap();
    assert_eq!(
        reparsed.to_json(),
        first,
        "parse → serialize must be the identity"
    );
    assert_eq!(reparsed.recovery, snap.recovery);
    assert_eq!(reparsed.server, snap.server);
    assert_eq!(reparsed.events, snap.events);
}

#[test]
fn sampler_jsonl_round_trips_and_is_monotonic() {
    let ld = Lld::format(MemDisk::new(4 << 20), &config()).unwrap();
    ld.sample_now();
    sync_commit(&ld);
    ld.sample_now();
    sync_commit(&ld);
    sync_commit(&ld);
    ld.sample_now();

    let (rows, dropped) = ld.sampler_counts();
    assert_eq!(rows, 3);
    assert_eq!(dropped, 0);

    let jsonl = ld.sampler_jsonl();
    let mut parsed = Vec::new();
    for line in jsonl.lines() {
        let v = json::parse(line).expect("each sampler line is one JSON object");
        let t_ms = v.get("t_ms").and_then(json::Value::as_u64).unwrap();
        let snap = ObsSnapshot::from_value(v.get("snapshot").unwrap()).unwrap();
        parsed.push((t_ms, snap));
    }
    assert_eq!(parsed.len(), 3);
    // Time and the cumulative counters never move backwards.
    for pair in parsed.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "t_ms went backwards");
        assert!(pair[0].1.lld.arus_committed <= pair[1].1.lld.arus_committed);
    }
    assert_eq!(parsed[0].1.lld.arus_committed, 0);
    assert_eq!(parsed[2].1.lld.arus_committed, 3);
    // Samples are deliberately event-free: the time series carries
    // counters, the trace ring carries events.
    assert!(parsed.iter().all(|(_, s)| s.events.is_empty()));
}

#[test]
fn trace_ring_wraparound_is_counted_in_stats() {
    let ld = Lld::format(
        MemDisk::new(4 << 20),
        &LldConfig {
            obs: ObsConfig {
                ring_capacity: 16,
                ..ObsConfig::default()
            },
            ..config()
        },
    )
    .unwrap();
    for _ in 0..8 {
        sync_commit(&ld);
    }
    let snap = ld.obs_snapshot();
    assert!(snap.dropped_events > 0, "16-slot ring must have wrapped");
    assert_eq!(
        snap.lld.trace_events_dropped, snap.dropped_events,
        "the counter and the ring must agree"
    );
    assert_eq!(snap.events.len(), 16);
}
