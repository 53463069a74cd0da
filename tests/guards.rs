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
