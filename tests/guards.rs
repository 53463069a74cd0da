//! Designs that were deleted stay deleted: each test reads the sources
//! with `std::fs` and fails where a name the deletion removed comes
//! back. Each names the change that deleted what it guards (its line in
//! CHANGES.md) and why the name may not return. This file names them,
//! so it is the one source no guard reads.

use std::path::{Path, PathBuf};

/// Every file under `dirs`, relative to the workspace root, but this
/// one: its path and its text.
fn sources(dirs: &[&str]) -> Vec<(PathBuf, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap().map(Result::unwrap) {
            let path = entry.path();
            if !path.is_dir() {
                out.push(path);
            } else if !path.ends_with("target") {
                walk(&path, out);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), &mut paths);
    }
    let this = root.join(file!());
    (paths.into_iter().filter(|p| *p != this))
        .map(|p| {
            let text = String::from_utf8_lossy(&std::fs::read(&p).unwrap()).into_owned();
            (p.strip_prefix(root).unwrap().to_path_buf(), text)
        })
        .collect()
}

/// The files at `paths`, relative to the workspace root.
fn files(paths: &[&str]) -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    (paths.iter())
        .map(|p| {
            let text = String::from_utf8_lossy(&std::fs::read(root.join(p)).unwrap()).into_owned();
            (PathBuf::from(p), text)
        })
        .collect()
}

/// `path:line: text` for every line of `files` that holds one of
/// `names`.
fn naming(files: &[(PathBuf, String)], names: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files {
        for (i, line) in text.lines().enumerate() {
            if names.iter().any(|n| line.contains(n)) {
                found.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    found
}

/// One crash model, since `SimDisk` cuts power the way a device with a
/// volatile cache does and `ReorderDisk` went: a power cut keeps the
/// last barrier's image plus a seeded subset of the writes since. No
/// device, `FaultPlan` value or test selects persistence in issue
/// order; what the log needs durable first is ordered by a barrier
/// (docs/INVARIANTS.md I4).
#[test]
fn one_crash_model() {
    let files = sources(&["crates", "src", "tests", "examples"]);
    let found = naming(&files, &["ReorderDisk", "crash_after_writes"]);
    assert!(
        found.is_empty(),
        "a second crash model:\n{}",
        found.join("\n")
    );
}

/// One crash oracle, since the LD-level crash suites were ported onto
/// the reference model: a recovered disk is held to
/// `crates/core/tests/common/model.rs`'s `Model::check` (docs/INVARIANTS.md
/// I7 and I8), not to an oracle of the suite's own.
#[test]
fn one_crash_oracle() {
    let files: Vec<_> = sources(&["tests", "crates"])
        .into_iter()
        .filter(|(path, _)| path.components().any(|c| c.as_os_str() == "tests"))
        .collect();
    let oracles = [
        "fn check_acked",
        "fn pair_generations",
        "struct AbsorbRun",
        "fn mix_generations",
        "struct Fingerprint",
    ];
    let found = naming(&files, &oracles);
    assert!(
        found.is_empty(),
        "a crash oracle of a suite's own:\n{}",
        found.join("\n")
    );
}

/// Fails with `what` and the lines found, if any.
fn assert_none(found: Vec<String>, what: &str) {
    assert!(found.is_empty(), "{what}:\n{}", found.join("\n"));
}

/// A slab counts bits, since format 8 bit-packed its rows at each
/// column's width in bits: no byte-width rows (`fn row_len`), and no
/// width and shift packed into one byte's nibbles (`<< 4)`, `& 0xF`).
#[test]
fn a_slab_counts_bits() {
    let found = naming(
        &files(&["crates/core/src/checkpoint.rs"]),
        &["fn row_len", "<< 4)", "& 0xF"],
    );
    assert_none(found, "a byte-width slab row");
}

/// Summary records are varints, since format 9 made a segment-summary
/// record its tag byte and its fields as unsigned LEB128 varints: no
/// fixed-width field.
#[test]
fn summary_records_are_varints() {
    let found = naming(
        &files(&["crates/core/src/summary.rs"]),
        &["to_le_bytes", "from_le_bytes"],
    );
    assert_none(found, "a fixed-width summary field");
}

/// A segment base counts sectors, since format 7 gave a header one
/// sector: a segment's base, its header's room and the minimum a slot
/// must have left are counted in sectors, with no block-numbered
/// position.
#[test]
fn a_segment_base_counts_sectors() {
    let found = naming(
        &files(&["crates/core/src/layout.rs", "crates/core/src/segment.rs"]),
        &["fn block_at", "MIN_SEGMENT_BLOCKS"],
    );
    assert_none(found, "a block-numbered segment position");
}

/// The dedup cache keys on what comes off the wire and keeps std's
/// hasher, since the identifier maps moved to the keyed folded multiply
/// in `state.rs`: that hasher is for identifiers only.
#[test]
fn the_dedup_cache_keeps_std_hasher() {
    let found = naming(
        &files(&["crates/core/src/dedup.rs"]),
        &["IdMap", "IdSet", "IdBuild"],
    );
    assert_none(found, "the identifier hasher in the dedup cache");
}

/// One row codec, since format 10 made the write-id outcomes the slab
/// codec's third table: no fixed 32-byte dedup entry under any crate's
/// sources, and no byte-level encoding in `dedup.rs`, which hands the
/// codec its rows.
#[test]
fn one_row_codec() {
    let found = naming(&crate_sources(), &["DEDUP_ENTRY_LEN", "CKPT_DEDUP_ENTRY"]);
    assert_none(found, "a fixed-width dedup entry");
    let found = naming(&files(&["crates/core/src/dedup.rs"]), &["to_le_bytes"]);
    assert_none(found, "a byte-level encoding in the dedup cache");
}

/// The files under each crate's `src`.
fn crate_sources() -> Vec<(PathBuf, String)> {
    (sources(&["crates"]).into_iter())
        .filter(|(path, _)| {
            path.components()
                .nth(2)
                .is_some_and(|c| c.as_os_str() == "src")
        })
        .collect()
}

/// One writer, since the pipelined device path went: `Lld<D>` owns its
/// device, a seal is two writes from the buffers it was built in (its
/// body at its base, then its meta record at the back of its slot) and
/// a flush one barrier. A second writer has to edit this test.
#[test]
fn one_writer() {
    let found = naming(
        &crate_sources(),
        &[
            "PipelinedDisk",
            "PipeObserver",
            "DevicePath",
            "is_pipelined",
            "submit_barrier",
        ],
    );
    assert_none(found, "a second writer");
}

/// No `SegmentBuilder::seal`, since a sealed segment became the buffers
/// it was built in: its body and its meta record are written, and read
/// while the writes are on their way, from where they were built, with
/// no second copy at the seal.
#[test]
fn no_segment_builder_seal() {
    let found = naming(&files(&["crates/core/src/segment.rs"]), &["fn seal("]);
    assert_none(found, "a copy of the segment at its seal");
}

/// One read per metadata run, since format 11 put a slot's headers and
/// summaries in one run at its back: the scan reads a slot's run in one
/// or two reads, so no read of one summary (`fn read_summary`) that
/// brings the next header along (a `successor:` field) is left.
#[test]
fn one_read_per_meta_run() {
    let found = naming(
        &files(&["crates/core/src/segment.rs"]),
        &["fn read_summary", "successor:"],
    );
    assert_none(found, "a read per summary");
}
