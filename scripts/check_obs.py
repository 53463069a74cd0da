#!/usr/bin/env python3
"""Validate the observability exports produced by `ldctl trace` and
`ldctl top` — used by the CI obs-smoke job and runnable locally:

    cargo run --release -q -p ld-ctl -- trace --chrome --threads 8 --out trace.json
    cargo run --release -q -p ld-ctl -- top --threads 8 --jsonl samples.jsonl
    python3 scripts/check_obs.py trace.json samples.jsonl

Checks, stdlib only:

* the Chrome trace is valid JSON in Trace Event Format: a traceEvents
  array of "X" (complete), "i" (instant), and "M" (metadata) events;
* every "X" span has name/ts/dur/pid/tid, and spans nest properly per
  thread (no span half-overlaps another on the same tid);
* the per-stage span names the commit path must emit are all present
  (queue_wait, seal, barrier_wait under a commit span);
* at least one group commit is cross-thread: some "group_commit"
  instant with args.batch > 1 covers "commit" spans (args.trace in
  first_trace .. first_trace + batch) on at least two tids — callers
  on different threads acknowledged by one leader's barrier;
* `ldctl top`'s JSONL time series parses line by line, t_ms never
  moves backwards, and the cumulative counters are monotonic.

Exit status 0 on success; prints the first failure and exits 1.
"""

import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"check_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_chrome_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    spans_by_tid = defaultdict(list)
    names = set()
    commit_tids = defaultdict(set)
    batches = []
    for e in events:
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            fail(f"{path}: unexpected event phase {ph!r}: {e}")
        args = e.get("args", {})
        if ph == "i" and e.get("name") == "group_commit" and args.get("batch", 0) > 1:
            batches.append((args["first_trace"], args["batch"]))
        if ph != "X":
            continue
        for key in ("name", "ts", "pid", "tid", "dur"):
            if key not in e:
                fail(f"{path}: X event missing {key!r}: {e}")
        names.add(e["name"])
        spans_by_tid[e["tid"]].append((e["ts"], e["ts"] + e["dur"], e["name"]))
        if e["name"] == "commit" and "trace" in args:
            commit_tids[args["trace"]].add(e["tid"])

    for required in ("commit", "queue_wait", "seal", "barrier_wait"):
        if required not in names:
            fail(f"{path}: no {required!r} span in trace (got {sorted(names)})")

    # Spans on one thread must nest: sorted by (start, -end), each span
    # either contains the next or ends before it starts. Both ends are
    # the trace ring's stamps, taken on the span's thread in order, so
    # there is no slack.
    for tid, spans in spans_by_tid.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(
                    f"{path}: tid {tid}: span {name} [{start},{end}) "
                    f"half-overlaps {stack[-1][2]} [{stack[-1][0]},{stack[-1][1]})"
                )
            stack.append((start, end, name))

    def covered_tids(first, batch):
        return set().union(*(commit_tids[first + i] for i in range(batch)))

    cross = [b for b in batches if len(covered_tids(*b)) > 1]
    if not cross:
        fail(f"{path}: no group commit covers commits on more than one thread "
             f"({len(batches)} batches of two or more)")

    n_spans = sum(len(s) for s in spans_by_tid.values())
    print(
        f"check_obs: {path}: {len(events)} events, {n_spans} spans on "
        f"{len(spans_by_tid)} threads, {len(cross)} of {len(batches)} "
        f"multi-caller batches cross threads"
    )


def check_sampler_jsonl(path):
    prev_t = -1
    prev_commits = -1
    rows = 0
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{n}: not JSON: {e}")
            if "t_ms" not in row or "snapshot" not in row:
                fail(f"{path}:{n}: missing t_ms or snapshot")
            t = row["t_ms"]
            if t < prev_t:
                fail(f"{path}:{n}: t_ms went backwards ({prev_t} -> {t})")
            prev_t = t
            lld = row["snapshot"].get("lld")
            if not isinstance(lld, dict):
                fail(f"{path}:{n}: snapshot.lld missing")
            commits = lld.get("arus_committed", 0)
            if commits < prev_commits:
                fail(
                    f"{path}:{n}: arus_committed went backwards "
                    f"({prev_commits} -> {commits})"
                )
            prev_commits = commits
            rows += 1
    if rows < 2:
        fail(f"{path}: need at least 2 samples, got {rows}")
    print(f"check_obs: {path}: {rows} samples over {prev_t} ms, "
          f"{prev_commits} commits")


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <chrome-trace.json> <samples.jsonl>",
              file=sys.stderr)
        return 2
    check_chrome_trace(argv[1])
    check_sampler_jsonl(argv[2])
    print("check_obs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
