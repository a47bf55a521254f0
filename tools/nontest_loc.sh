#!/usr/bin/env bash
# Non-test lines per workspace crate: for every file under crates/*/src,
# the lines above its first `#[cfg(test)]` (the whole file if it has
# none), summed per crate, plus a total. This is the number CHANGES.md
# entries and ROADMAP item 3 mean by "net non-test lines".
#
#   tools/nontest_loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"
total=0
for crate in crates/*/; do
    [ -d "$crate/src" ] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
