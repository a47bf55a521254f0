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
# A pin also records the counts its `fingerprint …` line prints (see the
# pins file's header); a `FAIL` names each one that moved, as pinned → got.
#
# Each run's `peak_rss_mb` is printed beside its verdict. It is a reading,
# not a gate: no bound is checked against it.
set -euo pipefail

bin=${1:-benchmark/target/release/brisa-benchmark}
pins=$(dirname "$0")/benchmark_fingerprints.txt
components=(attempted undelivered late events messages_sent bytes_up)
status=0
while read -r workload seed want counts; do
    case "$workload" in ''|'#'*) continue ;; esac
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    line=$(grep '^fingerprint ' <<<"$out")
    rss=$(awk '$1 == "peak_rss_mb" { print $2, $3 }' <<<"$out")
    got=${line##*=> }
    read -r -a pinned <<<"$counts"
    moved=()
    for i in "${!components[@]}"; do
        name=${components[$i]}
        # The value printed after the component's name.
        value=$(awk -v k="$name" '{ for (i = 1; i < NF; i++) if ($i == k) { print $(i + 1); exit } }' <<<"$line")
        if [ "${pinned[$i]-}" != "$value" ]; then
            moved+=("$name ${pinned[$i]-(none)} → ${value:-(none)}")
        fi
    done
    if [ "$got" = "$want" ] && [ "${#moved[@]}" -eq 0 ]; then
        echo "ok   $workload seed $seed $got  peak_rss_mb $rss"
    else
        echo "FAIL $workload seed $seed: pinned $want, this build prints $got"
        if [ "${#moved[@]}" -eq 0 ]; then
            echo "     no recorded count moved: what changed is elsewhere in the hashed record"
        fi
        for m in "${moved[@]}"; do
            echo "     $m"
        done
        echo "     $line"
        status=1
    fi
done <"$pins"
exit $status
