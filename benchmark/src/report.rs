//! Turns what the passes measured into named metrics, and prints them.
//!
//! The two tables below are the names every later change uses. They
//! must agree with `BENCHMARK.json` (a test checks that).

use crate::measure::{
    crc32_mb_per_s, median, median_ns, noise_ratio, peak_rss_mib, quantile, quantile_ns, rate_per_s,
};
use crate::trace::{layer_of, TraceData};
use crate::workloads::{PassOut, Restart};
use ld_core::Record;
use ld_server::wire;
use std::fmt::Write as _;
use std::time::Instant;

/// A run with `host.noise_ratio` above this is flagged `noisy`.
pub const NOISY_ABOVE: f64 = 1.15;

/// `(name, unit, better)` of every end-to-end metric. Three more are
/// reported elsewhere: `failed_ops` as the result's `failed` beside
/// `attempted`, because a metric that must read 0 has no relative
/// bound; `reads_per_s` and `commit.p50_us` among the per-layer
/// metrics, because every workload reports every end-to-end metric and
/// these two are processor time alone on some workloads (cache hits
/// over TCP; a lazy commit), which on a shared host repeats within no
/// bound the contract allows (see README, "Which statistic").
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("commits_per_s", "1/s", "higher"),
    ("restart_ms", "ms", "lower"),
    ("write_amp", "ratio", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("reads_per_s", "1/s", "higher"),
    ("commit.p50_us", "us", "lower"),
    ("client.commit_p99_us", "us", "lower"),
    ("client.read_rtt_us", "us", "lower"),
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("server.lookup_rtt_us", "us", "lower"),
    ("server.requests_per_commit", "ratio", "lower"),
    ("server.bytes_per_commit", "B", "lower"),
    ("server.start_ms", "ms", "lower"),
    ("ops.begin_aru_ns", "ns", "lower"),
    ("ops.write_ns", "ns", "lower"),
    ("ops.new_block_ns", "ns", "lower"),
    ("ops.read_ns", "ns", "lower"),
    ("ops.list_walk_steps_per_op", "ratio", "lower"),
    ("ops.scoped_mutation_share", "ratio", "higher"),
    ("commit.end_aru_ns", "ns", "lower"),
    ("commit.end_aru_sync_us", "us", "lower"),
    ("commit.flush_us", "us", "lower"),
    ("commit.p99_us", "us", "lower"),
    ("commit.cross_shard_share", "ratio", "lower"),
    ("gc.commits_per_barrier", "ratio", "higher"),
    ("summary.encode_ns_per_record", "ns", "lower"),
    ("summary.decode_ns_per_record", "ns", "lower"),
    ("summary.bytes_per_commit", "B", "lower"),
    ("summary.records_per_commit", "ratio", "lower"),
    ("segment.seals_per_commit", "ratio", "lower"),
    ("segment.fill_ratio", "ratio", "higher"),
    ("cleaner.passes", "count", "lower"),
    ("cleaner.blocks_relocated_per_commit", "ratio", "lower"),
    ("cleaner.backpressure_stalls", "count", "lower"),
    ("checkpoint.count", "count", "lower"),
    ("checkpoint.call_ms", "ms", "lower"),
    ("recovery.snapshot_load_ms", "ms", "lower"),
    ("recovery.scan_ms", "ms", "lower"),
    ("recovery.replay_ms", "ms", "lower"),
    ("recovery.finalize_ms", "ms", "lower"),
    ("recovery.first_commit_us", "us", "lower"),
    ("recovery.records_applied", "count", "lower"),
    ("recovery.segments_replayed", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("dedup.writeids_per_commit", "ratio", "lower"),
    ("obs.off_speedup", "ratio", "lower"),
    ("pipeline.enabled", "count", "higher"),
    ("pipeline.stalls", "count", "lower"),
    ("device.write_calls_per_commit", "ratio", "lower"),
    ("device.write_bytes_per_commit", "B", "lower"),
    ("device.flushes_per_commit", "ratio", "lower"),
    ("device.reads_per_read", "ratio", "lower"),
    ("device.busy_us_per_commit", "us", "lower"),
    ("minixfs.create_us", "us", "lower"),
    ("minixfs.read_us", "us", "lower"),
    ("minixfs.unlink_us", "us", "lower"),
    ("minixfs.ld_ops_per_file_op", "ratio", "lower"),
    ("process.cpu_us_per_commit", "us", "lower"),
    ("host.crc32_mb_per_s", "MB/s", "higher"),
    ("host.noise_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.unaccounted_share", "ratio", "lower"),
];

/// Named values in table order.
pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

/// Location of repetitions of *identical* work (set-ups, restarts of
/// clones of one image): their differences are all interference, and
/// interference only ever adds time, so the 10th percentile — the
/// time the host allows when it leaves the run alone — repeats better
/// than the median (README, "Which statistic").
/// Batches of a load differ in the work they hold; those keep the
/// median.
pub fn undisturbed(v: &[f64]) -> f64 {
    quantile(v, 0.10)
}

fn restart_value(r: &[Restart], f: impl Fn(&Restart) -> f64) -> f64 {
    undisturbed(&r.iter().map(f).collect::<Vec<_>>())
}

pub fn end_to_end(p: &PassOut) -> Values {
    let value = |name: &str| match name {
        "setup_s" => undisturbed(&p.setup_s),
        "commits_per_s" => rate_per_s(&p.write_batches, p.write_batch_ops).0,
        "restart_ms" => restart_value(&p.restarts, |r| r.total_ms),
        "write_amp" => ratio(p.dev_write.bytes_written as f64, p.user_bytes as f64),
        "peak_rss_mb" => peak_rss_mib(),
        _ => unreachable!("unknown end-to-end metric {name}"),
    };
    END_TO_END.iter().map(|(n, _, _)| (*n, value(n))).collect()
}

/// The sample counts behind each end-to-end median.
pub fn sample_counts(p: &PassOut) -> String {
    let all = |b: &[Vec<f64>]| b.iter().map(Vec::len).sum::<usize>();
    let smallest = |b: &[Vec<f64>]| {
        b.iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(9e9)
            * 1e3
    };
    format!(
        "samples: setup_reps={} (min {:.1} ms) write_batches={} of {} kept (min {:.1} ms) txn_latencies={} read_batches={} of {} kept (min {:.1} ms) restarts={} (min {:.2} ms) noise_samples={}",
        p.setup_s.len(),
        smallest(std::slice::from_ref(&p.setup_s)),
        rate_per_s(&p.write_batches, p.write_batch_ops).1,
        all(&p.write_batches),
        smallest(&p.write_batches),
        p.txn_ns.len(),
        rate_per_s(&p.read_batches, p.read_batch_ops).1,
        all(&p.read_batches),
        smallest(&p.read_batches),
        p.restarts.len(),
        smallest(&[p.restarts.iter().map(|r| r.total_ms / 1e3).collect()]),
        p.noise.len(),
    )
}

/// Mean cost of encoding and of decoding one frame of the kinds
/// `net_sync` sends (a 4 KiB WRITE and an END_ARU), in nanoseconds.
fn wire_codec_ns() -> (f64, f64) {
    let mut write = vec![wire::op::WRITE];
    write.extend_from_slice(&7u64.to_le_bytes());
    write.extend_from_slice(&9u64.to_le_bytes());
    write.extend_from_slice(&[0x5A; 4096]);
    let mut end = vec![wire::op::END_ARU];
    end.extend_from_slice(&7u64.to_le_bytes());
    end.push(wire::flag::SYNC | wire::flag::TAGGED);
    end.extend_from_slice(&11u64.to_le_bytes());

    const ROUNDS: usize = 20_000;
    let mut stream = Vec::with_capacity(ROUNDS * (write.len() + end.len() + 8));
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        wire::write_frame(&mut stream, std::hint::black_box(&write)).expect("encode");
        wire::write_frame(&mut stream, std::hint::black_box(&end)).expect("encode");
    }
    let encode = t0.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64;

    let mut r = &stream[..];
    let mut sum = 0u64;
    let t0 = Instant::now();
    while let Some(frame) = wire::read_frame(&mut r).expect("decode") {
        let mut body = wire::Body::new(&frame);
        let op = body.u8().expect("opcode");
        sum += body.u64().expect("aru");
        if op == wire::op::WRITE {
            sum += body.u64().expect("block") + body.rest().len() as u64;
        } else {
            sum += body.u8().expect("flags") as u64 + body.u64().expect("write id");
        }
    }
    std::hint::black_box(sum);
    (encode, t0.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64)
}

/// Mean cost of `Record::encode` and of `Record::decode_all` per
/// record over `mix`, in nanoseconds.
fn summary_codec_ns(mix: &[Record]) -> (f64, f64) {
    if mix.is_empty() {
        return (0.0, 0.0);
    }
    const ROUNDS: usize = 20_000;
    let mut buf = Vec::with_capacity(ROUNDS * mix.len() * 41);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for r in std::hint::black_box(mix) {
            r.encode(&mut buf);
        }
    }
    let n = (ROUNDS * mix.len()) as f64;
    let encode = t0.elapsed().as_nanos() as f64 / n;
    let t0 = Instant::now();
    let decoded = Record::decode_all(std::hint::black_box(&buf)).expect("decode");
    let decode = t0.elapsed().as_nanos() as f64 / n;
    assert_eq!(decoded.len(), n as usize);
    (encode, decode)
}

/// Share of the root (`harness.*`) spans' time that no layer span
/// below them accounts for.
fn unaccounted_share(t: &TraceData) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for (name, a) in &t.agg {
        if layer_of(name) == "harness" {
            own += a.self_ns;
            total += a.total_ns;
        }
    }
    ratio(own as f64, total as f64)
}

/// Every per-layer metric of one workload, from its three passes.
pub fn per_layer(full: &PassOut, traced: &PassOut, obs_off: &PassOut, t: &TraceData) -> Values {
    let commits = full.commits as f64;
    let (w, r) = (&full.lld_write, &full.lld_read);
    let (dw, dr) = (&full.dev_write, &full.dev_read);
    let cps = |p: &PassOut| rate_per_s(&p.write_batches, p.write_batch_ops).0;
    let mean_ns = |name: &str| t.get(name).mean_ns();
    let ld_calls =
        (w.reads + w.writes + w.new_blocks + w.delete_blocks + w.new_lists + w.delete_lists) as f64;
    let (wire_enc, wire_dec) = if full.server_write.ops_served > 0 {
        wire_codec_ns()
    } else {
        (0.0, 0.0)
    };
    let (sum_enc, sum_dec) = summary_codec_ns(&full.record_mix);
    let rec = |f: fn(&Restart) -> f64| restart_value(&full.restarts, f);

    let value = |name: &str| -> f64 {
        match name {
            "reads_per_s" => rate_per_s(&full.read_batches, full.read_batch_ops).0,
            "commit.p50_us" => median_ns(&full.txn_ns) / 1e3,
            "client.commit_p99_us" => {
                if full.server_write.ops_served > 0 {
                    quantile_ns(&full.txn_ns, 0.99) / 1e3
                } else {
                    0.0
                }
            }
            "client.read_rtt_us" => median_ns(&full.read_rtt_ns) / 1e3,
            "wire.encode_ns_per_frame" => wire_enc,
            "wire.decode_ns_per_frame" => wire_dec,
            "server.lookup_rtt_us" => median_ns(&traced.lookup_rtt_ns) / 1e3,
            "server.requests_per_commit" => ratio(full.server_write.ops_served as f64, commits),
            "server.bytes_per_commit" => ratio(
                (full.server_write.bytes_in + full.server_write.bytes_out) as f64,
                commits,
            ),
            "server.start_ms" => rec(|r| r.server_start_ms),
            "ops.begin_aru_ns" => mean_ns("ops.begin_aru"),
            "ops.write_ns" => mean_ns("ops.write"),
            "ops.new_block_ns" => mean_ns("ops.new_block"),
            "ops.read_ns" => mean_ns("ops.read"),
            "ops.list_walk_steps_per_op" => ratio(w.list_walk_steps as f64, ld_calls),
            "ops.scoped_mutation_share" => ratio(
                w.scoped_mutations as f64,
                (w.scoped_mutations + w.full_mutations) as f64,
            ),
            "commit.end_aru_ns" => mean_ns("commit.end_aru"),
            "commit.end_aru_sync_us" => rec(|r| r.first_commit_us),
            "commit.flush_us" => mean_ns("commit.flush") / 1e3,
            "commit.p99_us" => quantile_ns(&full.txn_ns, 0.99) / 1e3,
            "commit.cross_shard_share" => ratio(
                w.cross_shard_commits as f64,
                (w.cross_shard_commits + w.single_shard_commits) as f64,
            ),
            "gc.commits_per_barrier" => ratio(w.flush_batch_callers as f64, w.flush_batches as f64),
            "summary.encode_ns_per_record" => sum_enc,
            "summary.decode_ns_per_record" => sum_dec,
            "summary.bytes_per_commit" => ratio(w.summary_bytes as f64, commits),
            "summary.records_per_commit" => ratio(w.records_emitted as f64, commits),
            "segment.seals_per_commit" => ratio(w.segments_sealed as f64, commits),
            "segment.fill_ratio" => ratio(
                w.data_blocks_written as f64 * 4096.0,
                w.segments_sealed as f64 * (512.0 * 1024.0),
            ),
            "cleaner.passes" => w.cleaner_runs as f64,
            "cleaner.blocks_relocated_per_commit" => ratio(w.blocks_relocated as f64, commits),
            "cleaner.backpressure_stalls" => w.backpressure_stalls as f64,
            "checkpoint.count" => w.checkpoints as f64,
            "checkpoint.call_ms" => full.checkpoint_call_ms,
            "recovery.snapshot_load_ms" => rec(|r| r.report.snapshot_load_ns as f64 / 1e6),
            "recovery.scan_ms" => rec(|r| r.report.scan_ns as f64 / 1e6),
            "recovery.replay_ms" => rec(|r| r.report.replay_ns as f64 / 1e6),
            "recovery.finalize_ms" => rec(|r| r.report.finalize_ns as f64 / 1e6),
            "recovery.first_commit_us" => rec(|r| r.first_commit_us),
            "recovery.records_applied" => rec(|r| r.report.records_applied as f64),
            "recovery.segments_replayed" => rec(|r| r.report.segments_replayed as f64),
            "cache.hit_ratio" => ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
            "dedup.writeids_per_commit" => ratio(w.writeids_recorded as f64, commits),
            "obs.off_speedup" => ratio(cps(obs_off), cps(full)),
            "pipeline.enabled" => full.effective.pipelined as u8 as f64,
            "pipeline.stalls" => w.pipeline_stalls as f64,
            "device.write_calls_per_commit" => ratio(dw.writes as f64, commits),
            "device.write_bytes_per_commit" => ratio(dw.bytes_written as f64, commits),
            "device.flushes_per_commit" => ratio(dw.flushes as f64, commits),
            "device.reads_per_read" => ratio(dr.reads as f64, full.reads as f64),
            "device.busy_us_per_commit" => ratio(dw.busy_ns as f64 / 1e3, commits),
            "minixfs.create_us" => median_ns(&full.fs_create_ns) / 1e3,
            "minixfs.read_us" => median_ns(&full.fs_read_ns) / 1e3,
            "minixfs.unlink_us" => median_ns(&full.fs_unlink_ns) / 1e3,
            "minixfs.ld_ops_per_file_op" => {
                if full.fs_file_ops > 0 {
                    ratio(ld_calls + r.reads as f64, full.fs_file_ops as f64)
                } else {
                    0.0
                }
            }
            // The device model's waits are spun on the processor; they
            // are the device's time, not the program's.
            "process.cpu_us_per_commit" => ratio(
                (full.cpu_s_write * 1e6 - dw.busy_ns as f64 / 1e3).max(0.0),
                commits,
            ),
            "host.crc32_mb_per_s" => crc32_mb_per_s(&full.noise),
            "host.noise_ratio" => noise_ratio(&full.noise),
            "trace.overhead_ratio" => ratio(cps(traced), cps(full)),
            "trace.unaccounted_share" => unaccounted_share(t),
            _ => unreachable!("unknown per-layer metric {name}"),
        }
    };
    PER_LAYER.iter().map(|(n, _, _)| (*n, value(n))).collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, u, _)| u)
}

/// One `name value unit` line per metric.
pub fn table(values: &Values) -> String {
    let mut s = String::new();
    for (name, v) in values {
        let _ = writeln!(s, "  {name:<36} {v:>16.4} {}", unit_of(name));
    }
    s
}

/// The `"metrics"` object: `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(values: &Values) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The result line the driver reads: the last line of standard output.
pub fn result_json(p: &PassOut, values: &Values) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        p.failed == 0 && p.attempted > 0,
        p.attempted,
        p.failed,
        metrics_json(values)
    )
}

/// Per-layer self time from the traced pass, for the trace file and
/// the printed layer table: `(layer, calls, total ms, self ms)`.
pub fn layer_self_times(t: &TraceData) -> Vec<(String, u64, f64, f64)> {
    let mut by_layer: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (name, a) in &t.agg {
        let e = by_layer.entry(layer_of(name)).or_default();
        e.0 += a.count;
        e.1 += a.total_ns;
        e.2 += a.self_ns;
    }
    by_layer
        .into_iter()
        .map(|(l, (c, tot, own))| (l.to_string(), c, tot as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Spread of the batch rates, for the human-readable output.
pub fn batch_spread(batches: &[Vec<f64>]) -> String {
    let all: Vec<f64> = batches.iter().flatten().copied().collect();
    format!(
        "batch ms p10/p50/p90 = {:.1}/{:.1}/{:.1}",
        quantile(&all, 0.1) * 1e3,
        median(&all) * 1e3,
        quantile(&all, 0.9) * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\":");
            assert!(json.contains(&entry), "end_to_end entry missing: {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "per_layer entry missing: {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the tables do not"
        );
        for w in crate::workloads::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\":")));
        }
    }

    #[test]
    fn codec_loops_measure_something() {
        let (e, d) = wire_codec_ns();
        assert!(e > 0.0 && d > 0.0);
        let mix = vec![Record::Commit {
            aru: ld_core::AruId::new(1),
            ts: ld_core::Timestamp::new(2),
        }];
        let (e, d) = summary_codec_ns(&mix);
        assert!(e > 0.0 && d > 0.0);
        assert_eq!(summary_codec_ns(&[]), (0.0, 0.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let p = PassOut {
            attempted: 10,
            ..PassOut::default()
        };
        let line = result_json(&p, &vec![("setup_s", 0.25), ("write_amp", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"write_amp\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
