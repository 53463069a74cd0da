#!/usr/bin/env bash
# The ledger gate: this checkout against a parent commit, in
# alternating pairs.
#
#   scripts/ledger_compare.sh PARENT [N] [run.sh options, e.g. --seconds 5]
#
# PARENT is a commit (checked out with `git worktree` under
# target/ledger_compare/) or a directory that already holds a checkout.
# Runs `benchmark/run.sh --trace 0` N times (default 10) on each side,
# one workload at a time, pair i with seed i on both sides, the parent
# first in odd pairs and the change first in even ones. Prints per
# workload and end-to-end metric both medians, both quartile spreads,
# both ranges ([min, max]), how many pairs the change won, the relative
# gap and the metric's bound from BENCHMARK.json, and marks a row
# "separated" when every run of the change beats every run of the
# parent. Exits 1 if a median of the change is worse
# than the parent's by more than its bound, if on a timing row (s, ms,
# 1/s) the change's runs spread (q3 - q1) by more than the bound times
# the parent's median (too wide to tell: what refused PR 17's first
# round), or if more operations failed.
# Results are kept in target/ledger_compare/runs/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${1:?usage: ledger_compare.sh PARENT [N] [run.sh options]}"
n="${2:-10}"
shift $(($# < 2 ? $# : 2))
work="$root/target/ledger_compare"
out="$work/runs"
rm -rf "$out"
mkdir -p "$out"
if [ -d "$parent" ]; then
    parent_dir="$(cd "$parent" && pwd)"
else
    parent_dir="$work/parent"
    git -C "$root" worktree remove --force "$parent_dir" 2>/dev/null || true
    git -C "$root" worktree add --detach "$parent_dir" "$parent" >&2
    trap 'git -C "$root" worktree remove --force "$parent_dir"' EXIT
fi
# Each side builds into its own benchmark/target, and the harness
# refuses to run with any LD_ARU_* variable set.
unset CARGO_TARGET_DIR LD_ARU_FLIGHT_DIR
workloads=(net_sync local_churn fs_small_files local_append)
for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            if [ "$side" = parent ]; then dir="$parent_dir"; else dir="$root"; fi
            echo "ledger_compare: pair $i/$n $w $side" >&2
            "$dir/benchmark/run.sh" --workload "$w" --seed "$i" --trace 0 "$@" | tail -n 1 >"$out/$side.$i.$w.json"
        done
    done
done
python3 - "$out" "$root/BENCHMARK.json" "$n" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, bench, n, workloads = sys.argv[1], json.load(open(sys.argv[2])), int(sys.argv[3]), sys.argv[4:]
def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3
bad = []
def span(lo, hi):
    return f"[{lo:.4g}, {hi:.4g}]"
print(f"{'workload':<15}{'metric':<15}{'parent':>11}{'[q1, q3]':>24}{'[min, max]':>24}"
      f"{'change':>11}{'[q1, q3]':>24}{'[min, max]':>24}{'wins':>7}{'gap':>8}{'bound':>7}")
for w in workloads:
    runs = {s: [json.load(open(f"{out}/{s}.{i}.{w}.json")) for i in range(1, n + 1)] for s in ("parent", "change")}
    failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
    for m in bench["end_to_end"]:
        name, worse = m["name"], (1 if m["better"] == "lower" else -1)
        p, c = ([r["metrics"][name]["value"] for r in runs[s]] for s in ("parent", "change"))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        gap = worse * (cm - pm) / pm
        wins = sum(worse * (b - a) < 0 for a, b in zip(p, c))
        separated = all(worse * (b - a) < 0 for a in p for b in c)
        mark = "  separated" if separated else ""
        if gap > m["bound"]:
            bad.append(f"{w} {name}: {gap:+.1%} past its bound of {m['bound']:.0%}")
            mark = "  <-- out of bound"
        if m["unit"] in ("s", "ms", "1/s") and c3 - c1 > m["bound"] * pm:
            bad.append(f"{w} {name}: runs spread by {c3 - c1:.4g}, more than {m['bound']:.0%} of the parent's {pm:.4g}")
            mark += "  <-- spread too wide"
        print(f"{w:<15}{name:<15}{pm:>11.4g}{span(p1, p3):>24}{span(min(p), max(p)):>24}"
              f"{cm:>11.4g}{span(c1, c3):>24}{span(min(c), max(c)):>24}"
              f"{f'{wins}/{n}':>7}{gap:>+8.1%}{m['bound']:>7.0%}{mark}")
    print(f"{w:<15}{'failed_ops':<15}{failed['parent']:>11}{'':>48}{failed['change']:>11}")
    if failed["change"] > failed["parent"]:
        bad.append(f"{w}: {failed['change']} failed operations, parent {failed['parent']}")
for b in bad:
    print("FAIL", b)
sys.exit(1 if bad else 0)
PY
