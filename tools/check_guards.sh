#!/usr/bin/env bash
# Runs every guard in tools/guards.txt (see its header for the format).
# Prints the name and matches of each guard that hit, or that could not
# search a path it names, and exits 1 if any did; otherwise prints how many
# guards held.
#
#   tools/check_guards.sh [repo-root]
set -uo pipefail

cd "${1:-$(dirname "$0")/..}"

failed=()
names=()
name= flags= pattern= paths= except=

# Runs the block read so far, then forgets it.
search() {
    [ -n "$pattern" ] || return 0
    local out status
    # `paths` splits on spaces by design.
    # shellcheck disable=SC2086
    out=$(grep $flags -e "$pattern" -- $paths 2>&1)
    status=$?
    if [ -n "$except" ] && [ "$status" -eq 0 ]; then
        out=$(grep -vE -e "$except" <<<"$out")
        [ -n "$out" ] || status=1
    fi
    case " ${names[*]} " in *" $name "*) ;; *) names+=("$name") ;; esac
    if [ "$status" -ne 1 ]; then
        echo "guard hit: $name"
        echo "$out"
        failed+=("$name")
    fi
    name= flags= pattern= paths= except=
}

while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
    '') search ;;
    '#'*) ;;
    'name: '*) name=${line#name: } ;;
    'grep: '*) flags=${line#grep: } ;;
    'pattern: '*) pattern=${line#pattern: } ;;
    'paths: '*) paths=${line#paths: } ;;
    'except: '*) except=${line#except: } ;;
    *)
        echo "tools/guards.txt: unknown line: $line" >&2
        exit 2
        ;;
    esac
done <tools/guards.txt
search

if [ "${#failed[@]}" -gt 0 ]; then
    exit 1
fi
echo "${#names[@]} guards held"
