//! Designs that were deleted stay deleted: each test reads the sources
//! with `std::fs` and fails where a name the deletion removed comes
//! back. Each names the change that deleted what it guards (its line in
//! CHANGES.md) or the step of CI's clippy job it was, and why the name
//! may not return. This file names them, so it is the one source no
//! guard reads.

use std::path::{Path, PathBuf};

type Files = Vec<(PathBuf, String)>;

/// Every file under `dirs`, relative to the workspace root, but this
/// one: its path and its text.
fn sources(dirs: &[&str]) -> Files {
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
fn files(paths: &[&str]) -> Files {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    (paths.iter())
        .map(|p| {
            let text = String::from_utf8_lossy(&std::fs::read(root.join(p)).unwrap()).into_owned();
            (PathBuf::from(p), text)
        })
        .collect()
}

/// The files of `files` whose path `keep` holds for.
fn only(files: Files, keep: impl Fn(&Path) -> bool) -> Files {
    files.into_iter().filter(|(path, _)| keep(path)).collect()
}

/// The files under each crate's `src`.
fn crate_sources() -> Files {
    only(sources(&["crates"]), |path| {
        path.components()
            .nth(2)
            .is_some_and(|c| c.as_os_str() == "src")
    })
}

/// The files under `crates/core/src`.
fn core_sources() -> Files {
    only(crate_sources(), |path| path.starts_with("crates/core/src"))
}

/// `path:line: text` for every line of `files` that `hit` holds for.
fn lines_where(files: &Files, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files {
        for (i, line) in text.lines().enumerate() {
            if hit(line) {
                found.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    found
}

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` matches `pattern`, alternatives split at `|` as in
/// `grep -E`: each a plain string, where a `\b` in front or behind asks
/// for no identifier character there.
fn matches(line: &str, pattern: &str) -> bool {
    pattern.split('|').any(|alt| {
        let (front, alt) = alt.strip_prefix("\\b").map_or((false, alt), |a| (true, a));
        let (back, alt) = alt.strip_suffix("\\b").map_or((false, alt), |a| (true, a));
        (line.match_indices(alt)).any(|(i, _)| {
            let joined = |behind: &str| behind.starts_with(ident);
            !(front && line[..i].ends_with(ident) || back && joined(&line[i + alt.len()..]))
        })
    })
}

/// Fails with `what` and `found`, if it holds any line.
fn assert_none(found: Vec<String>, what: &str) {
    assert!(found.is_empty(), "{what}:\n{}", found.join("\n"));
}

/// A test per guard that forbids names: the test's name, then each set
/// of files and the pattern ([`matches`]) no line of them may match.
macro_rules! forbid {
    ($( $(#[doc = $doc:literal])* $name:ident: $( $files:expr => $pattern:expr ),+; )*) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                $( assert_none(lines_where(&$files, |l| matches(l, $pattern)), stringify!($name)); )+
            }
        )*
    };
}

forbid! {
    /// One crash model, since `SimDisk` cuts power the way a device with
    /// a volatile cache does and `ReorderDisk` went: a power cut keeps
    /// the last barrier's image plus a seeded subset of the writes
    /// since. No device, `FaultPlan` value or test selects persistence
    /// in issue order; what the log needs durable first is ordered by a
    /// barrier (docs/INVARIANTS.md I4).
    one_crash_model:
        sources(&["crates", "src", "tests", "examples"]) => "ReorderDisk|crash_after_writes";

    /// One crash oracle, since the LD-level crash suites were ported
    /// onto the reference model: a recovered disk is held to
    /// `crates/core/tests/common/model.rs`'s `Model::check`
    /// (docs/INVARIANTS.md I7 and I8), not to an oracle of the suite's
    /// own.
    one_crash_oracle:
        only(sources(&["tests", "crates"]), |p| p.components().any(|c| c.as_os_str() == "tests"))
            => "fn check_acked|fn pair_generations|struct AbsorbRun|fn mix_generations|\
                struct Fingerprint";

    /// One crash enumerator (`crates/core/tests/common/enumerate.rs`),
    /// since the sampled LD-level power-cut sweeps it replaced went (three
    /// kept their test names, now enumerated): none of their helpers, nor
    /// the coin-flip one, comes back under `tests`.
    one_crash_enumerator:
        only(sources(&["tests", "crates"]), |p| p.components().any(|c| c.as_os_str() == "tests"))
            => "fn random_cut\\b|fn power_cut_sweep\\b|fn mixed_extent_power_cuts\\b|\
                fn dedup_journal_and_commit\\b|fn reordered_persistence\\b";

    /// A slab counts bits, since format 8 bit-packed its rows at each
    /// column's width in bits: no byte-width rows (`fn row_len`), and no
    /// width and shift packed into one byte's nibbles (`<< 4)`, `& 0xF`).
    a_slab_counts_bits: files(&["crates/core/src/checkpoint.rs"]) => "fn row_len|<< 4)|& 0xF";

    /// Summary records are varints, since format 9 made a
    /// segment-summary record its tag byte and its fields as unsigned
    /// LEB128 varints: no fixed-width field.
    summary_records_are_varints:
        files(&["crates/core/src/summary.rs"]) => "to_le_bytes|from_le_bytes";

    /// A segment base counts sectors, since format 7 gave a header one
    /// sector: a segment's base, its header's room and the minimum a
    /// slot must have left are counted in sectors, with no
    /// block-numbered position.
    a_segment_base_counts_sectors:
        files(&["crates/core/src/layout.rs", "crates/core/src/segment.rs"])
            => "fn block_at|MIN_SEGMENT_BLOCKS";

    /// The dedup cache keys on what comes off the wire and keeps std's
    /// hasher, since the identifier maps moved to the keyed folded
    /// multiply in `state.rs`: that hasher is for identifiers only.
    the_dedup_cache_keeps_std_hasher:
        files(&["crates/core/src/dedup.rs"]) => "IdMap|IdSet|IdBuild";

    /// One row codec, since format 10 made the write-id outcomes the
    /// slab codec's third table: no fixed 32-byte dedup entry under any
    /// crate's sources, and no byte-level encoding in `dedup.rs`, which
    /// hands the codec its rows.
    one_row_codec:
        crate_sources() => "DEDUP_ENTRY_LEN|CKPT_DEDUP_ENTRY",
        files(&["crates/core/src/dedup.rs"]) => "to_le_bytes";

    /// One writer, since the pipelined device path went: `Lld<D>` owns
    /// its device, a seal is two writes from the buffers it was built in
    /// (its body at its base, then its meta record at the back of its
    /// slot) and a flush one barrier. A second writer has to edit this
    /// test.
    one_writer:
        crate_sources() => "PipelinedDisk|PipeObserver|DevicePath|is_pipelined|submit_barrier";

    /// No `SegmentBuilder::seal`, since a sealed segment became the
    /// buffers it was built in: its body and its meta record are
    /// written, and read while the writes are on their way, from where
    /// they were built, with no second copy at the seal.
    no_segment_builder_seal: files(&["crates/core/src/segment.rs"]) => "fn seal(";

    /// One read per metadata run, since format 11 put a slot's headers
    /// and summaries in one run at its back: the scan reads a slot's run
    /// in one or two reads, so no read of one summary (`fn
    /// read_summary`) that brings the next header along (a `successor:`
    /// field) is left.
    one_read_per_meta_run:
        files(&["crates/core/src/segment.rs"]) => "fn read_summary|successor:";
}

/// One on-disk format declaration, since every fixed-layout structure
/// (superblock, segment header, checkpoint header, directory entry,
/// column descriptor) is declared once in `layout.rs` and docs/FORMAT.md
/// is checked against it: no codec takes a field at an integer-literal
/// offset, and no test keeps a copy of a field offset (the checkpoint's
/// `C_*`, the superblock's `S_*`, the segment header's `H_*`, `HDR_*`,
/// `COL_*`); a forger names the field it edits.
#[test]
fn one_format_declaration() {
    let codecs = files(&["crates/core/src/checkpoint.rs", "crates/core/src/layout.rs"]);
    let found = lines_where(&codecs, |line| {
        (line
            .match_indices("32_at(")
            .chain(line.match_indices("64_at(")))
        .filter_map(|(i, call)| line[i + call.len()..].split_once(','))
        .any(|(_, offset)| {
            offset
                .trim_start()
                .starts_with(|c: char| c.is_ascii_digit())
        })
    });
    assert_none(found, "a field at a literal offset");
    let found = lines_where(&sources(&["crates/core/tests", "tests"]), |line| {
        let line = line.trim_start();
        let line = line.strip_prefix("pub ").unwrap_or(line);
        let copy = line
            .strip_prefix("const ")
            .and_then(|c| c.split_once(": usize = "));
        copy.is_some_and(|(name, value)| {
            ["C_", "S_", "H_", "HDR_", "COL_"]
                .iter()
                .any(|p| name.starts_with(p))
                && value.starts_with(|c: char| c.is_ascii_digit())
        })
    });
    assert_none(found, "a copied field offset");
}

// CI's clippy job ran the guards below as grep steps; each keeps its
// step's name and pattern.

forbid! {
    /// "no checkpoint inside a session": one checkpoint writer, run only
    /// between sessions (docs/INVARIANTS.md I6); the in-session writer
    /// is gone and the inline cleaner asks for a checkpoint instead of
    /// writing one.
    no_checkpoint_inside_a_session:
        core_sources() => "checkpoint_inner|fn checkpoint_incremental",
        files(&["crates/core/src/cleaner.rs"]) => "checkpoint()";

    /// "one cleaner pass": one cleaning pass (`cleanerd.rs::run_pass`),
    /// run between sessions by the thread or by the caller where there
    /// is none; the inline pass that cleaned inside a roll, and its
    /// bookkeeping, are gone.
    one_cleaner_pass: core_sources()
        => "fn clean_loop|fn clean_batch|fn run_cleaner_inner|clean_fell_short|clean_stopped";

    /// "no record state machine in recovery.rs": the record state
    /// machine exists once, in `lld.rs` / `commit.rs`; recovery replays
    /// through it (docs/INVARIANTS.md I1) and keeps no copy that could
    /// drift again.
    no_record_state_machine_in_recovery: files(&["crates/core/src/recovery.rs"])
        => "fn rec_mut\\b|fn block_mut\\b|fn list_mut\\b|fn validate_insert\\b|\
            fn insert_into_list\\b|fn walk_list\\b|fn unlink_block\\b|fn dealloc\\b|\
            fn dealloc_block\\b|fn dealloc_list\\b";

    /// "one path per record kind": each mapping rule is written once for
    /// blocks and lists, generic over the identifier kind
    /// (`state.rs::MapId`): the id stripe, the reservation, the
    /// standardised search, copy-on-write and the allocation exception.
    one_path_per_record_kind: core_sources()
        => "fn alloc_list_raw\\b|fn note_list_id\\b|fn try_reserve_list\\b|\
            fn unreserve_list\\b|fn list_shard_mut\\b|fn try_committed_view_list\\b|\
            fn try_view_list\\b|fn committed_view_list\\b|fn view_list\\b|fn list_mut\\b|\
            fn alloc_list_id\\b";

    /// "no poll-and-sleep in the server's accept loop": the accept
    /// thread blocks in `accept()`; a non-blocking listener polled
    /// between sleeps makes a connect wait out the rest of a sleep. The
    /// back-off after an accept *error* stays.
    no_poll_and_sleep_in_the_accept_loop:
        files(&["crates/server/src/lib.rs"]) => "from_millis(5)|set_nonblocking";

    /// "one thread in ld-core": a lazy seal is written behind its caller
    /// by the thread that was already there, under a rule that is
    /// measured and has no knob (docs/CLEANER.md, "The thread's second
    /// job"): `ld-core` starts one thread, `cleanerd`.
    one_thread_in_ld_core: only(core_sources(), |p| !p.ends_with("cleanerd.rs"))
        => "thread::Builder|thread::spawn";

    /// "no sampler in ld-core": a time series is sampled by its caller
    /// from `Lld::obs_snapshot` (`ldctl top`): the core keeps no
    /// sampler, no ring of samples and no rate setting.
    no_sampler_in_ld_core:
        crate_sources() => "metrics_hz|sample_now|sampler_jsonl|sampler_counts|mod sampler";

    /// "identifier maps use the identifier hasher": the tables, overlays
    /// and `residents` hash identifiers with the keyed folded multiply
    /// in `state.rs` (`IdMap` / `IdSet`), not SipHash. The dedup cache's
    /// keys come off the wire and keep std's hasher.
    identifier_maps_use_the_identifier_hasher:
        core_sources() => "HashMap<BlockId|HashMap<ListId|HashSet<BlockId|HashSet<ListId";

    /// "no ARU outlives its request": a transaction is one `COMMIT`, the
    /// server has no opcode that opens or aborts an ARU, and a session
    /// holds no set of them. `op::END_ARU` stays a retired number in
    /// `wire.rs` only, for `benchmark/`.
    no_aru_outlives_its_request:
        sources(&["crates"]) => "BEGIN_ARU|ABORT_ARU",
        only(sources(&["crates"]), |p| p != Path::new("crates/server/src/wire.rs"))
            => "op::END_ARU",
        files(&["crates/server/src/lib.rs"]) => "\\bHashSet\\b|\\barus\\b";

    /// "each observability record is declared once": `LldStats` and
    /// `ServerCounters` (with their live atomics) and `RecoveryReport`
    /// by `flat_record!`, `TraceEvent` by `trace_events!`. The JSON
    /// writer, the reader and the `ldctl stats` table run on that table,
    /// so no field name is a string literal that a hand list could drop.
    /// One sentinel per record.
    each_observability_record_is_declared_once: crate_sources()
        => "\"checkpoint_failures\"|\"writeids_deduped\"|\"finalize_ns\"|\"retries_deduped\"";

    /// "one record per interval": `Obs::stage`'s guard stamps the ring's
    /// `stage_begin` / `stage_end` pair and feeds that stage's
    /// `<stage>_ns` histogram. No ARU span table, `flush` event or
    /// hand-timed histogram records one a second time.
    one_record_per_interval: sources(&["crates", "src", "tests", "examples"])
        => "AruSpan|SpanOutcome|MAX_SPANS|fn flush_done\\b|fn recovery_slab_load\\b|\
            fn recovery_replay_batch\\b|fn stage_begin\\b|fn stage_end\\b|\
            TraceEvent::Flush\\b";

    /// "the block cache keeps no ordered map": the block cache is CLOCK
    /// over reused frames (`cache.rs`): a hit sets a bit and moves
    /// nothing, so no recency order is kept.
    the_block_cache_keeps_no_ordered_map: files(&["crates/core/src/cache.rs"]) => "BTreeMap";

    /// Two watermarks, since the backpressure gate went: a roll below
    /// the low watermark kicks the cleaner thread, and one below the
    /// emergency level has its caller run a round behind the thread's.
    /// No operation stalls for the thread, and no knob sets a third
    /// level.
    no_backpressure_gate: sources(&["crates"])
        => "cleaner_gate|backpressure_free_segments|STALL_MAX|CleanerGate";
}

/// "no LD_ARU_* knob but LD_ARU_FLIGHT_DIR": modes are `LldConfig`
/// values, never ambient state; the one variable the crates read is a
/// path and selects no code path.
#[test]
fn no_ld_aru_knob() {
    let found = lines_where(&crate_sources(), |line| {
        line.contains("LD_ARU_") && !line.contains("LD_ARU_FLIGHT_DIR")
    });
    assert_none(found, "an LD_ARU_* knob");
}

/// "persistent tables are arrays": a shard's block-number-map and
/// list-table are arrays indexed by identifier (`state.rs`), since
/// restart spent most of its time hashing snapshot rows into maps. No
/// field of `Tables` is a map, and recovery enters a row into its slot,
/// with no `load_row` and its hash insert.
#[test]
fn persistent_tables_are_arrays() {
    let state = files(&["crates/core/src/state.rs"]);
    let text = &state[0].1;
    let start = text.find("struct Tables {").expect("`Tables` is declared");
    let fields = &text[start..start + text[start..].find('}').unwrap()];
    let maps: Vec<&str> = (fields.lines())
        .filter(|l| matches(l, "IdMap|HashMap|BTreeMap"))
        .collect();
    assert!(maps.is_empty(), "a map in `Tables`:\n{}", maps.join("\n"));
    let recovery = files(&["crates/core/src/recovery.rs"]);
    assert_none(
        lines_where(&recovery, |l| matches(l, "fn load_row\\b")),
        "persistent_tables_are_arrays",
    );
}

/// "no new field in config.rs": `config.rs` has the 17 `pub name:`
/// lines it has had since the backpressure gate's knob went, counted as
/// the step counted them.
#[test]
fn no_new_field_in_config() {
    let found = lines_where(&files(&["crates/core/src/config.rs"]), |line| {
        (line.match_indices("pub ")).any(|(i, _)| {
            let rest =
                line[i + 4..].trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
            rest.starts_with(':')
        })
    });
    assert_eq!(found.len(), 17, "fields:\n{}", found.join("\n"));
}

/// "a directory entry is decoded in place": `dir::decode` lends the name
/// from the block it scans, so a directory scan allocates nothing per
/// entry.
#[test]
fn a_directory_entry_is_decoded_in_place() {
    let found = lines_where(&files(&["crates/minixfs/src/dir.rs"]), |line| {
        (line.split_once("fn decode(")).is_some_and(|(_, rest)| rest.contains("String"))
    });
    assert_none(found, "a name decoded into a String");
}

/// "every lock goes through ld_disk::sync": every lock is an
/// `ld_disk::sync` type, so a scheduler behind that shim sees all of
/// them. Guard types (`MutexGuard`, …) may still be named from
/// `std::sync`.
#[test]
fn every_lock_goes_through_ld_disk_sync() {
    let locks = ["Mutex", "RwLock", "Condvar"];
    let others = only(crate_sources(), |p| {
        p != Path::new("crates/disk/src/sync.rs")
    });
    let found = lines_where(&others, |line| {
        (line.match_indices("std::sync::")).any(|(i, _)| {
            let rest = &line[i + "std::sync::".len()..];
            let group = rest
                .strip_prefix('{')
                .map(|g| g.split('}').next().unwrap_or(""));
            (locks.iter()).any(|l| match group {
                Some(group) => matches(group, &format!("\\b{l}\\b")),
                None => rest.strip_prefix(l).is_some_and(|r| !r.starts_with(ident)),
            })
        })
    });
    assert_none(found, "a lock from std::sync");
}
