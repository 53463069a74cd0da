//! Drives the built binary in `--quick` mode: the result line keeps
//! its contract, the output check can fail, counts repeat exactly.

use std::process::Command;

struct Run {
    ok: bool,
    code: Option<i32>,
    stdout: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ld-benchmark"))
        .args(args)
        .args(["--quick", "--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run ld-benchmark");
    Run {
        ok: out.status.success(),
        code: out.status.code(),
        stdout: String::from_utf8(out.stdout).expect("utf-8 output"),
    }
}

impl Run {
    fn result(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }

    /// The whole number after `"key": ` in the result line.
    fn count(&self, key: &str) -> u64 {
        let line = self.result();
        let at = line
            .find(&format!("\"{key}\": "))
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + key.len() + 4..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("a whole number")
    }

    /// The value printed for `name` in the human-readable tables.
    fn printed(&self, name: &str) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("  {name} ")))
            .unwrap_or_else(|| panic!("{name} not printed"))
            .split_whitespace()
            .next()
            .expect("a value")
    }

    /// The text of `"name": {"value": …}` in the result line.
    fn metric(&self, name: &str) -> &str {
        let line = self.result();
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("no {name} in {line}"));
        let rest = &line[at + key.len()..];
        &rest[..rest.find(',').expect("value ends")]
    }
}

const WORKLOADS: [&str; 4] = ["net_sync", "local_churn", "fs_small_files", "local_append"];

#[test]
fn clean_run_prints_the_contract_result_line() {
    let r = run(&["--workload", "local_churn", "--seed", "5", "--trace", "0"]);
    assert!(r.ok, "{}", r.stdout);
    let line = r.result();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert_eq!(r.count("failed"), 0);
    assert!(r.count("attempted") > 1000);
    for name in [
        "setup_s",
        "commits_per_s",
        "restart_ms",
        "write_amp",
        "peak_rss_mb",
    ] {
        let v: f64 = r.metric(name).parse().expect("a number");
        assert!(v > 0.0, "{name} must never read 0");
    }
    assert_eq!(
        line.matches("\"unit\"").count(),
        5,
        "exactly the end-to-end metrics"
    );
    // The effective configuration is printed with the result.
    for key in [
        "pipelined=",
        "cleaner_background=",
        "map_shards=",
        "host_cores=",
        "seed=5",
    ] {
        assert!(r.stdout.contains(key), "{key} missing");
    }
    assert!(r.stdout.contains("recovery_threads_used=") && r.stdout.contains("batch_arus="));
}

#[test]
fn a_flipped_live_block_fails_every_workload() {
    for w in WORKLOADS {
        let r = run(&["--workload", w, "--inject", "flip-block"]);
        assert!(!r.ok, "{w}: a flipped block must fail the run");
        assert!(r.count("failed") > 0, "{w}: {}", r.result());
        assert!(r.result().starts_with("{\"correct\": false"));
    }
}

#[test]
fn a_commit_dropped_from_the_model_fails_every_workload() {
    for w in WORKLOADS {
        let r = run(&["--workload", w, "--inject", "drop-commit"]);
        assert!(!r.ok, "{w}: a forgotten commit must fail the run");
        assert!(r.count("failed") > 0, "{w}: {}", r.result());
    }
}

#[test]
fn refuses_to_start_with_a_runtime_knob_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_ld-benchmark"))
        .args(["--workload", "local_churn", "--quick"])
        .env("LD_ARU_PIPELINE", "1")
        .output()
        .expect("run ld-benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("LD_ARU_PIPELINE"));
}

#[test]
fn unknown_workloads_and_options_are_refused() {
    assert_eq!(run(&["--workload", "nope"]).code, Some(2));
    assert_eq!(run(&["--frobnicate"]).code, Some(2));
}

#[test]
fn traced_run_reports_every_layer_and_writes_a_chrome_trace() {
    let r = run(&["--workload", "fs_small_files", "--trace", "1"]);
    assert!(r.ok, "{}", r.stdout);
    assert_eq!(
        r.result().matches("\"unit\"").count(),
        59,
        "every per-layer metric"
    );
    let share: f64 = r
        .metric("trace.unaccounted_share")
        .parse()
        .expect("a number");
    assert!((0.0..1.0).contains(&share));
    assert!(
        r.metric("minixfs.create_us")
            .parse::<f64>()
            .expect("a number")
            > 0.0
    );
    assert_eq!(r.metric("server.requests_per_commit"), "0");

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fs_small_files.trace.json");
    let trace = std::fs::read_to_string(path).expect("trace file written");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ns\","));
    assert!(trace.contains("\"traceEvents\":[") && trace.trim_end().ends_with("]}"));
    // Device calls are children of core calls, core calls of fs calls.
    for name in [
        "minixfs.create",
        "ops.write",
        "commit.end_aru",
        "device.write_at",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "{name} span missing"
        );
    }
    assert!(trace.contains("\"perLayer\":{") && trace.contains("\"endToEnd\":{"));
}

#[test]
fn single_thread_counts_repeat_exactly_and_follow_the_seed() {
    let counts = [
        "write_amp",
        "cleaner.passes",
        "recovery.records_applied",
        "segment.seals_per_commit",
    ];
    for w in ["local_churn", "fs_small_files"] {
        let args = ["--workload", w, "--trace", "1", "--seed"];
        let (a, b) = (
            run(&[&args[..], &["7"]].concat()),
            run(&[&args[..], &["7"]].concat()),
        );
        for c in counts {
            assert_eq!(a.printed(c), b.printed(c), "{w} {c} must repeat exactly");
        }
        assert_eq!(a.count("attempted"), b.count("attempted"));
    }
    // Another seed, other inputs: the cleaner sees other victims.
    let a = run(&["--workload", "local_churn", "--seed", "7"]);
    let b = run(&["--workload", "local_churn", "--seed", "8"]);
    assert_ne!(a.printed("write_amp"), b.printed("write_amp"));
}
