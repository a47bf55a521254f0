#!/usr/bin/env python3
"""Symbolise a sigprof dump: per-function and per-source-line shares.

    report.py run.prof [--top N] [--lines] [--fail-above PCT PATTERN ...]

Each sample is an instruction pointer; the dump carries /proc/self/maps, so
every sample maps to (object file, link-time address) and `addr2line -f -C
-i` names it. Build the profiled binary with
`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` so inlined frames resolve to
source lines. A sample is attributed to its innermost frame (`self`) and,
in the function table, also to the outermost non-inlined function that
contains it (`incl. inlined`), which is the symbol a flat profile of an
optimised Rust binary would otherwise hide everything under.

`--fail-above PCT PATTERN...` exits 1 if any function whose name contains
one of the patterns holds more than PCT percent of the samples — the form
CI and an acceptance criterion use ("no `hashbrown` frame above 1 %").
"""
import collections
import subprocess
import sys


def parse(path):
    samples, maps, in_maps = [], [], False
    header = ""
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# sigprof"):
                header = line[2:]
            elif line.startswith("# maps"):
                in_maps = True
            elif in_maps:
                parts = line.split(None, 5)
                if len(parts) == 6 and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, parts[5]))
            elif line:
                samples.append(int(line, 16))
    return header, samples, maps


def load_bias(obj, maps):
    """What the loader added to the object's link-time addresses."""
    try:
        with open(obj, "rb") as f:
            ident = f.read(18)
    except OSError:
        return 0
    if ident[:4] != b"\x7fELF" or int.from_bytes(ident[16:18], "little") != 3:
        return 0  # ET_EXEC: mapped where it was linked
    # ET_DYN (PIE or shared object): the first PT_LOAD is linked at 0, so the
    # bias is where the object's lowest mapping landed.
    return min(lo for lo, _, path in maps if path == obj)


def locate(pc, maps, bias):
    for lo, hi, obj in maps:
        if lo <= pc < hi:
            if obj not in bias:
                bias[obj] = load_bias(obj, maps)
            return obj, pc - bias[obj]
    return None, pc


def symbolise(obj, offsets):
    """address -> list of (function, file:line) frames, innermost first."""
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-f", "-C", "-i", "-a", "-e", obj] + [hex(o) for o in offsets],
        capture_output=True,
        text=True,
        check=False,
    )
    frames, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
        elif current is not None and i + 1 < len(lines):
            frames[current].append((lines[i], lines[i + 1]))
            i += 2
        else:
            i += 1
    return frames


def short(location):
    # .../crates/simnet/src/links.rs:160 (discriminator 3) -> simnet/src/links.rs:160
    location = location.split(" (")[0]
    for marker in ("/crates/", "/library/", "/vendor/", "/benchmark/"):
        if marker in location:
            return location.split(marker, 1)[1]
    return location


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    path, top, want_lines, limit, patterns = argv[1], 25, False, None, []
    args = argv[2:]
    while args:
        arg = args.pop(0)
        if arg == "--top":
            top = int(args.pop(0))
        elif arg == "--lines":
            want_lines = True
        elif arg == "--fail-above":
            limit = float(args.pop(0))
            patterns, args = args, []
        else:
            sys.exit(f"unknown argument {arg}\n{__doc__}")

    header, samples, maps = parse(path)
    if not samples:
        sys.exit(f"{path}: no samples ({header or 'no header'})")
    by_obj = collections.defaultdict(collections.Counter)
    bias = {}
    for pc in samples:
        obj, offset = locate(pc, maps, bias)
        by_obj[obj][offset] += 1

    self_fn, outer_fn, by_line = (collections.Counter() for _ in range(3))
    for obj, counts in by_obj.items():
        frames = symbolise(obj, sorted(counts)) if obj else {}
        for offset, n in counts.items():
            stack = frames.get(offset) or [(f"[{obj or 'unmapped'}]", "??:0")]
            self_fn[stack[0][0]] += n
            outer_fn[stack[-1][0]] += n
            by_line[(stack[0][0], short(stack[0][1]))] += n

    total = len(samples)
    print(f"{path}: {total} samples ({header})")
    print(f"\n  self %   function (innermost frame, inlined callees resolved)")
    for name, n in self_fn.most_common(top):
        print(f"  {100 * n / total:6.2f}   {name}")
    print(f"\n  incl %   function (outermost frame: everything inlined into it)")
    for name, n in outer_fn.most_common(top):
        print(f"  {100 * n / total:6.2f}   {name}")
    if want_lines:
        print(f"\n  self %   source line")
        for (name, where), n in by_line.most_common(top):
            print(f"  {100 * n / total:6.2f}   {where}  {name}")

    if limit is not None:
        over = [
            (name, 100 * n / total)
            for table in (self_fn, outer_fn)
            for name, n in table.items()
            if 100 * n / total > limit and any(p in name for p in patterns)
        ]
        if over:
            for name, pct in sorted(set(over), key=lambda x: -x[1]):
                print(f"FAIL: {name} holds {pct:.2f} % (> {limit} %)", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main(sys.argv)
