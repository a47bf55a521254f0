#!/usr/bin/env bash
# The benchmark against itself: two alternating sets of N end-to-end runs per
# workload of one build. Prints each metric's two set medians, their relative
# difference and the bound from ../BENCHMARK.json; exits non-zero when a
# difference exceeds its bound or a simulator count differs at one seed.
#
#   benchmark/aa.sh [runs per set, default 5] [seconds per run, default 30]
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
exec "${CARGO_TARGET_DIR:-target}/release/brisa-benchmark" --aa "${1:-5}" --seconds "${2:-30}"
