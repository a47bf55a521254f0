#!/usr/bin/env bash
# Runs the benchmark binary on every (workload, seed) pinned in
# tools/benchmark_fingerprints.txt and fails if a printed fingerprint
# differs: bit-identity at benchmark scale, defended outside the perf gate.
#
#   tools/check_fingerprints.sh [path/to/brisa-benchmark]
#
# Run from the repository root (the binary resolves benchmark/out from the
# working directory). One-second budgets: the fixed-work repetitions the
# fingerprint is computed over run regardless, only extra repetitions are
# cut.
#
# Each run's `peak_rss_mb` is printed beside its verdict. It is a reading,
# not a gate: no bound is checked against it.
set -euo pipefail

bin=${1:-benchmark/target/release/brisa-benchmark}
pins=$(dirname "$0")/benchmark_fingerprints.txt
status=0
while read -r workload seed want; do
    case "$workload" in ''|'#'*) continue ;; esac
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    line=$(grep '^fingerprint ' <<<"$out")
    rss=$(awk '$1 == "peak_rss_mb" { print $2, $3 }' <<<"$out")
    got=${line##*=> }
    if [ "$got" = "$want" ]; then
        echo "ok   $workload seed $seed $got  peak_rss_mb $rss"
    else
        echo "FAIL $workload seed $seed: pinned $want, this build prints $got"
        echo "     $line"
        status=1
    fi
done <"$pins"
exit $status
