#!/usr/bin/env bash
# Builds the benchmark and runs it. One command for everything:
#
#   benchmark/run.sh [--seed N] [--quick | --seconds N] [--trace [0|1]] [workload...]
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1   (the driver's form)
#
# No workload named: all four, each in a process of its own. Exits
# non-zero if any output check fails. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ld-benchmark" --out "$here/out" "$@"
