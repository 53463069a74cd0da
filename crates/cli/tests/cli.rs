//! End-to-end tests of every `ldctl` subcommand against image files.

use ld_core::obs::json;
use ld_core::{Ctx, ListId, Lld, LogicalDisk, ObsSnapshot};
use ld_ctl::{run, CtlError};
use ld_disk::FileDisk;
use ld_minixfs::FsError;

fn temp_image(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("ldctl-test-{}-{name}.img", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn cleanup(image: &str) {
    let _ = std::fs::remove_file(image);
}

#[test]
fn help_prints_usage() {
    let out = run(&args(&["help"])).unwrap();
    assert!(out.contains("ldctl format"));
    let out = run(&[]).unwrap();
    assert!(out.contains("ldctl"));
}

#[test]
fn unknown_command_is_usage_error() {
    assert!(matches!(
        run(&args(&["frobnicate"])),
        Err(CtlError::Usage(_))
    ));
    assert!(matches!(run(&args(&["info"])), Err(CtlError::Usage(_))));
}

#[test]
fn format_info_dump_check_cycle() {
    let image = temp_image("bare");
    let out = run(&args(&[
        "format",
        &image,
        "--size",
        "8388608",
        "--block-size",
        "512",
        "--segment-bytes",
        "8192",
    ]))
    .unwrap();
    assert!(out.contains("formatted"), "{out}");

    let info = run(&args(&["info", &image])).unwrap();
    assert!(info.contains("block size:       512"), "{info}");
    assert!(info.contains("Concurrent"), "{info}");

    let dump = run(&args(&["dump", &image])).unwrap();
    assert!(dump.contains("0 allocated blocks"), "{dump}");

    let check = run(&args(&["check", &image])).unwrap();
    assert!(check.contains("0 orphaned blocks reclaimed"), "{check}");
    cleanup(&image);
}

#[test]
fn sequential_flag_is_respected() {
    let image = temp_image("seq");
    run(&args(&[
        "format",
        &image,
        "--size",
        "8388608",
        "--segment-bytes",
        "65536",
        "--sequential",
    ]))
    .unwrap();
    let info = run(&args(&["info", &image])).unwrap();
    assert!(info.contains("Sequential"), "{info}");
    cleanup(&image);
}

#[test]
fn fs_round_trip_put_cat_ls_stat_verify() {
    let image = temp_image("fs");
    run(&args(&[
        "format",
        &image,
        "--size",
        "16777216",
        "--segment-bytes",
        "65536",
        "--with-fs",
        "--inodes",
        "64",
    ]))
    .unwrap();

    // Put a local file in.
    let local = temp_image("local.txt");
    std::fs::write(&local, b"hello from ldctl").unwrap();
    let out = run(&args(&["put", &image, "/greeting.txt", &local])).unwrap();
    assert!(out.contains("wrote 16 bytes"), "{out}");

    let cat = run(&args(&["cat", &image, "/greeting.txt"])).unwrap();
    assert_eq!(cat, "hello from ldctl");

    let ls = run(&args(&["ls", &image, "/"])).unwrap();
    assert!(ls.contains("greeting.txt"), "{ls}");
    assert!(ls.contains("16"), "{ls}");

    let stat = run(&args(&["stat", &image, "/greeting.txt"])).unwrap();
    assert!(stat.contains("File"), "{stat}");
    assert!(stat.contains("16 bytes"), "{stat}");

    let verify = run(&args(&["verify", &image])).unwrap();
    assert!(verify.contains("consistent"), "{verify}");
    assert!(!verify.contains("INCONSISTENT"), "{verify}");

    // Overwrite through put (existing file path).
    std::fs::write(&local, b"v2").unwrap();
    run(&args(&["put", &image, "/greeting.txt", &local])).unwrap();
    let cat = run(&args(&["cat", &image, "/greeting.txt"])).unwrap();
    assert!(cat.starts_with("v2"), "{cat}");

    cleanup(&image);
    cleanup(&local);
}

#[test]
fn images_survive_reopen_across_commands() {
    // Every ldctl invocation reopens the image and runs recovery; state
    // must persist across invocations like a real disk.
    let image = temp_image("persist");
    run(&args(&[
        "format",
        &image,
        "--size",
        "16777216",
        "--segment-bytes",
        "65536",
        "--with-fs",
        "--inodes",
        "64",
    ]))
    .unwrap();
    let local = temp_image("data.bin");
    std::fs::write(&local, vec![7u8; 10_000]).unwrap();
    for i in 0..3 {
        run(&args(&["put", &image, &format!("/file{i}"), &local])).unwrap();
    }
    let ls = run(&args(&["ls", &image, "/"])).unwrap();
    assert!(ls.contains("file0") && ls.contains("file1") && ls.contains("file2"));
    let info = run(&args(&["info", &image])).unwrap();
    assert!(info.contains("allocated"), "{info}");
    cleanup(&image);
    cleanup(&local);
}

/// An image whose MinixFs superblock is hostile (an inode count past
/// the table, a zero inode-table list) is an error for `ls`, not a
/// panic.
#[test]
fn ls_on_a_corrupt_superblock_is_an_error() {
    let edits: [fn(&mut [u8]); 2] = [
        |sb| sb[12..16].copy_from_slice(&1_000_000u32.to_le_bytes()),
        |sb| sb[16..24].fill(0),
    ];
    for (i, edit) in edits.into_iter().enumerate() {
        let image = temp_image(&format!("corrupt-sb-{i}"));
        run(&args(&[
            "format",
            &image,
            "--size",
            "16777216",
            "--segment-bytes",
            "65536",
            "--with-fs",
        ]))
        .unwrap();
        {
            let (ld, _) = Lld::recover(FileDisk::open(&image).unwrap()).unwrap();
            let sb = ld.list_blocks(Ctx::Simple, ListId::new(1)).unwrap()[0];
            let mut buf = vec![0u8; ld.block_size()];
            ld.read(Ctx::Simple, sb, &mut buf).unwrap();
            edit(&mut buf);
            ld.write(Ctx::Simple, sb, &buf).unwrap();
            ld.flush().unwrap();
        }
        let err = run(&args(&["ls", &image, "/"])).unwrap_err();
        assert!(matches!(err, CtlError::Fs(FsError::Corrupt(_))), "{err}");
        cleanup(&image);
    }
}

/// A file whose inode claims more bytes than its blocks hold is an
/// error for `cat`, not a panic: neither the read nor the buffer `cat`
/// allocates for it goes past the blocks.
#[test]
fn cat_of_a_size_past_the_files_blocks_is_an_error() {
    for size in [12_293, u64::MAX] {
        let image = temp_image(&format!("corrupt-size-{size}"));
        let local = temp_image(&format!("corrupt-size-{size}-local"));
        std::fs::write(&local, [7u8; 100]).unwrap();
        run(&args(&[
            "format",
            &image,
            "--size",
            "16777216",
            "--segment-bytes",
            "65536",
            "--with-fs",
        ]))
        .unwrap();
        run(&args(&["put", &image, "/a", &local])).unwrap();
        {
            // `/a` is inode 2, the second slot of the table's first
            // block; the superblock names the table's list at 16..24.
            let (ld, _) = Lld::recover(FileDisk::open(&image).unwrap()).unwrap();
            let mut buf = vec![0u8; ld.block_size()];
            let sb = ld.list_blocks(Ctx::Simple, ListId::new(1)).unwrap()[0];
            ld.read(Ctx::Simple, sb, &mut buf).unwrap();
            let table = ListId::new(u64::from_le_bytes(buf[16..24].try_into().unwrap()));
            let b = ld.list_blocks(Ctx::Simple, table).unwrap()[0];
            ld.read(Ctx::Simple, b, &mut buf).unwrap();
            buf[32 + 4..32 + 12].copy_from_slice(&size.to_le_bytes());
            ld.write(Ctx::Simple, b, &buf).unwrap();
            ld.flush().unwrap();
        }
        let err = run(&args(&["cat", &image, "/a"])).unwrap_err();
        assert!(matches!(err, CtlError::Fs(FsError::Corrupt(_))), "{err}");
        cleanup(&image);
        cleanup(&local);
    }
}

#[test]
fn stats_scripted_workload_human_and_json() {
    let out = run(&args(&["stats"])).unwrap();
    assert!(out.contains("LLD counters"), "{out}");
    assert!(out.contains("Latency histograms"), "{out}");
    assert!(out.contains("end_aru"), "{out}");
    assert!(out.contains("disk_write"), "{out}");
    assert!(out.contains("aborted"), "{out}");

    let json = run(&args(&["stats", "--json"])).unwrap();
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"end_aru\""), "{json}");
    assert!(json.contains("\"disk_write\""), "{json}");
    assert!(json.contains("\"aru_commit\""), "{json}");
    assert!(json.contains("\"aru_abort\""), "{json}");
    assert!(json.contains("\"fs_ops\""), "{json}");
}

#[test]
fn stats_on_image_includes_recovery() {
    let image = temp_image("stats");
    run(&args(&[
        "format",
        &image,
        "--size",
        "8388608",
        "--block-size",
        "512",
        "--segment-bytes",
        "8192",
    ]))
    .unwrap();
    let out = run(&args(&["stats", &image])).unwrap();
    assert!(out.contains("Recovery"), "{out}");
    assert!(out.contains("torn_tails_detected"), "{out}");
    let json = run(&args(&["stats", &image, "--json"])).unwrap();
    assert!(json.contains("\"recovery\""), "{json}");
    assert!(json.contains("\"torn_tails_detected\""), "{json}");
    cleanup(&image);
}

#[test]
fn format_requires_size() {
    let image = temp_image("nosize");
    assert!(matches!(
        run(&args(&["format", &image])),
        Err(CtlError::Usage(_))
    ));
    cleanup(&image);
}

#[test]
fn stats_snapshot_file_round_trip() {
    let json = run(&args(&["stats", "--json", "--threads", "2"])).unwrap();
    let path = temp_image("snap.json");
    std::fs::write(&path, &json).unwrap();
    // Rendering a saved snapshot must match rendering it live: same
    // counters, no workload run.
    let out = run(&args(&["stats", "--snapshot-file", &path])).unwrap();
    assert!(out.contains("LLD counters"), "{out}");
    assert!(out.contains("arus_committed               100"), "{out}");
    // Garbage input is a parse error, not a panic.
    std::fs::write(&path, "{not json").unwrap();
    assert!(matches!(
        run(&args(&["stats", "--snapshot-file", &path])),
        Err(CtlError::Parse(_))
    ));
    cleanup(&path);
}

#[test]
fn trace_human_table_lists_stage_events() {
    let out = run(&args(&["trace", "--threads", "2"])).unwrap();
    assert!(out.contains("trace events"), "{out}");
    assert!(out.contains("QueueWait"), "{out}");
    assert!(out.contains("Seal"), "{out}");
    assert!(out.contains("BarrierWait"), "{out}");
    assert!(out.contains("GroupCommit"), "{out}");
}

#[test]
fn trace_chrome_export_is_valid_and_cross_thread() {
    let path = temp_image("trace.json");
    let report = run(&args(&[
        "trace",
        "--chrome",
        "--threads",
        "4",
        "--out",
        &path,
    ]))
    .unwrap();
    assert!(report.contains("wrote"), "{report}");
    let text = std::fs::read_to_string(&path).unwrap();
    let v = json::parse(&text).unwrap();
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert!(!events.is_empty());
    // Complete ("X") span events must appear on more than one thread:
    // every caller runs its own commit/queue_wait.
    let mut span_tids = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            span_tids.insert(e.get("tid").and_then(|t| t.as_u64()).unwrap());
            names.insert(e.get("name").and_then(|n| n.as_str()).unwrap().to_string());
        }
    }
    assert!(
        span_tids.len() > 1,
        "spans on one thread only: {span_tids:?}"
    );
    for required in [
        "commit",
        "queue_wait",
        "seal",
        "barrier_wait",
        "media_write",
    ] {
        assert!(names.contains(required), "missing {required} in {names:?}");
    }
    cleanup(&path);
}

#[test]
fn top_renders_interval_deltas_and_writes_jsonl() {
    let path = temp_image("samples.jsonl");
    let out = run(&args(&[
        "top",
        "--threads",
        "2",
        "--hz",
        "500",
        "--jsonl",
        &path,
    ]))
    .unwrap();
    assert!(out.contains("samples over"), "{out}");
    assert!(out.contains("commits"), "{out}");
    assert!(out.contains("totals:"), "{out}");
    // The JSONL sidecar parses line by line, each snapshot with the
    // bundled reader.
    let text = std::fs::read_to_string(&path).unwrap();
    let samples: Vec<_> = text
        .lines()
        .map(|line| {
            let v = json::parse(line).expect("each line is one JSON object");
            let t_ms = v.get("t_ms").and_then(json::Value::as_u64).unwrap();
            let snap = ObsSnapshot::from_value(v.get("snapshot").unwrap()).unwrap();
            (t_ms, snap)
        })
        .collect();
    assert!(samples.len() >= 2, "{text}");
    // Time and the cumulative counters never move backwards.
    for pair in samples.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "t_ms went backwards");
        assert!(pair[0].1.lld.arus_committed <= pair[1].1.lld.arus_committed);
    }
    // A baseline before the run and a final point after it: 2 threads
    // of 100 ARUs each.
    assert_eq!(samples[0].1.lld.arus_committed, 0);
    assert_eq!(samples.last().unwrap().1.lld.arus_committed, 200);
    // The time series carries counters; the trace ring carries events.
    assert!(samples.iter().all(|(_, s)| s.events.is_empty()));
    cleanup(&path);
}

#[test]
fn top_rejects_bad_hz() {
    for hz in ["0", "1001"] {
        assert!(
            matches!(run(&args(&["top", "--hz", hz])), Err(CtlError::Usage(_))),
            "--hz {hz} should be rejected"
        );
    }
}

#[test]
fn flight_renders_a_real_dump() {
    // Produce a genuine flight dump by configuring a flight dir and
    // asking the disk for a manual dump.
    let dir = temp_image("flightdir");
    let _ = std::fs::remove_file(&dir);
    let ld = ld_core::Lld::format(
        ld_disk::MemDisk::new(4 << 20),
        &ld_core::LldConfig {
            flight_dir: Some(std::path::PathBuf::from(&dir)),
            ..ld_core::LldConfig::default()
        },
    )
    .unwrap();
    ld.flush().unwrap();
    let dump = ld.flight_dump("test_reason", "test detail").unwrap();
    let out = run(&args(&["flight", dump.to_str().unwrap()])).unwrap();
    assert!(out.contains("test_reason"), "{out}");
    assert!(out.contains("test detail"), "{out}");
    assert!(out.contains("LLD counters"), "{out}");
    drop(ld);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_on_garbage_is_a_parse_error() {
    let path = temp_image("badflight.json");
    std::fs::write(&path, "][").unwrap();
    assert!(matches!(
        run(&args(&["flight", &path])),
        Err(CtlError::Parse(_))
    ));
    cleanup(&path);
}
