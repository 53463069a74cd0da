#!/usr/bin/env bash
# A/A check: the same code measured as two sets, A and B, in turn.
#
#   benchmark/aa.sh N [--seconds S]
#
# Runs the full suite 2N times (A, B, A, B, ...), every run with a seed
# of its own, and prints per workload and end-to-end metric both
# medians, their quartiles, each set's spread (quartile distance over
# median), the relative gap between the medians and the metric's bound
# from BENCHMARK.json. Results are kept in benchmark/out/aa/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: aa.sh N [--seconds S]}"
shift
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
workloads=(net_sync local_churn fs_small_files local_append)
for ((i = 1; i <= n; i++)); do
    for set in A B; do
        if [ "$set" = A ]; then seed=$((2 * i - 1)); else seed=$((2 * i)); fi
        for w in "${workloads[@]}"; do
            echo "aa: set $set run $i/$n seed $seed $w" >&2
            "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 "$@" | tail -n 1 >"$out/$set.$i.$w.json"
        done
    done
done
python3 - "$out" "$here/../BENCHMARK.json" "$n" "${workloads[@]}" <<'PY'
import json, statistics, sys
out, bench, n, workloads = sys.argv[1], json.load(open(sys.argv[2])), int(sys.argv[3]), sys.argv[4:]
def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3
print(f"{'workload':<15}{'metric':<15}{'median A':>12}{'[q1, q3] A':>26}{'median B':>12}{'[q1, q3] B':>26}{'spread A':>9}{'spread B':>9}{'gap':>8}{'bound':>7}")
for w in workloads:
    runs = {s: [json.load(open(f"{out}/{s}.{i}.{w}.json")) for i in range(1, n + 1)] for s in "AB"}
    failed = sum(r["failed"] for s in "AB" for r in runs[s])
    for m in bench["end_to_end"]:
        name, worse = m["name"], (1 if m["better"] == "lower" else -1)
        a, b = ([r["metrics"][name]["value"] for r in runs[s]] for s in "AB")
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gap = worse * (bm - am) / am
        print(f"{w:<15}{name:<15}{am:>12.4g}{f'[{a1:.4g}, {a3:.4g}]':>26}{bm:>12.4g}{f'[{b1:.4g}, {b3:.4g}]':>26}"
              f"{(a3 - a1) / am:>9.1%}{(b3 - b1) / bm:>9.1%}{gap:>+8.1%}{m['bound']:>7.0%}")
    print(f"{w:<15}{'failed_ops':<15}{failed:>12}")
PY
