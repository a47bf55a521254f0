#!/usr/bin/env bash
# Non-test lines per workspace crate, plus a total. This is the number
# CHANGES.md entries and ROADMAP item 3 mean by "net non-test lines".
#
# A file under crates/*/src counts up to the `#[cfg(test)]` at column 0
# that opens an inline test module: that line, any further attribute
# lines, then `mod name {`. A `#[cfg(test)]` on anything else (an indented
# method, a `use`, an out-of-line `mod name;`) does not end the count. A
# file compiled only under `#[cfg(test)]` (the target of such a
# `mod name;`, and everything below it) does not count at all.
#
#   tools/nontest_loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

# A module declaration after its attributes: `mod x`, `pub mod x`,
# `pub(crate) mod x`.
MOD='^(pub(\([^)]*\))? +)?mod +[A-Za-z0-9_]+ *'

# The path, without `.rs`, of every module declared `#[cfg(test)] mod x;`.
test_only=$(find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk -v mod="$MOD" '
        FNR == 1 { pending = 0 }
        {
            line = $0
            if (line ~ /^#\[cfg\(test\)\]/) {
                pending = 1
                line = substr(line, 13)
                sub(/^[ \t]+/, "", line)
                if (line == "") next
            }
            if (!pending || line ~ /^#\[/) next
            pending = 0
            if (line !~ (mod ";")) next
            sub(/^(pub(\([^)]*\))? +)?mod +/, "", line)
            sub(/ *;.*$/, "", line)
            dir = FILENAME
            sub(/\/[^\/]*$/, "", dir)
            base = FILENAME
            sub(/^.*\//, "", base)
            if (base != "mod.rs" && base != "lib.rs" && base != "main.rs") {
                sub(/\.rs$/, "", base)
                dir = dir "/" base
            }
            print dir "/" line
        }')

is_test_only() {
    local prefix
    for prefix in $test_only; do
        case "$1" in
        "$prefix.rs" | "$prefix"/*) return 0 ;;
        esac
    done
    return 1
}

total=0
for crate in crates/*/; do
    [ -d "$crate/src" ] || continue
    files=()
    while IFS= read -r -d '' f; do
        is_test_only "$f" || files+=("$f")
    done < <(find "${crate%/}/src" -name '*.rs' -print0 | sort -z)
    lines=$(awk -v mod="$MOD" '
        FNR == 1 { stop = 0; held = 0 }
        stop { next }
        {
            line = $0
            if (line ~ /^#\[cfg\(test\)\]/) {
                held++
                line = substr(line, 13)
                sub(/^[ \t]+/, "", line)
                if (line ~ (mod "\\{")) { stop = 1; held = 0 }
                next
            }
            if (held) {
                if (line ~ /^#\[/) { held++; next }
                if (line ~ (mod "\\{")) { stop = 1; held = 0; next }
                n += held
                held = 0
            }
            n++
        }
        END { print n + 0 }' "${files[@]}")
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
