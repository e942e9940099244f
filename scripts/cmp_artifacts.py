#!/usr/bin/env python3
"""Byte-compare two directories of example artifacts.

Usage: cmp_artifacts.py <dir_a> <dir_b>

Every file under either directory (recursively) must exist in both and be
byte-identical, except that the value of every JSON "wall_ns" key is masked
first: the kernel profiler's hot-site table (`hot_sites[].wall_ns` in
soc_report.json and design_report.json) holds host-timed nanoseconds, which
differ between any two runs. Nothing else is masked, so the site labels,
event counts and row order must still match.

Prints one line per differing or missing file and a summary. Exit status is
0 when the directories compare equal, 1 when they do not, 2 on bad usage.
"""
import os
import re
import sys

WALL_NS = re.compile(rb'("wall_ns"\s*:\s*)-?[0-9][0-9.eE+-]*')


def files_under(root):
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def masked(path):
    with open(path, "rb") as f:
        data = f.read()
    return WALL_NS.subn(rb"\g<1>0", data)


def main():
    if len(sys.argv) != 3 or not all(os.path.isdir(d) for d in sys.argv[1:]):
        print(__doc__)
        return 2
    a, b = sys.argv[1], sys.argv[2]
    fa, fb = files_under(a), files_under(b)
    bad = 0
    for rel in sorted(fa ^ fb):
        print(f"only in {a if rel in fa else b}: {rel}")
        bad += 1
    masked_values = 0
    for rel in sorted(fa & fb):
        da, na = masked(os.path.join(a, rel))
        db, nb = masked(os.path.join(b, rel))
        masked_values += na
        if da != db:
            print(f"differ: {rel}")
            bad += 1
    common = len(fa & fb)
    print(f"{common - (bad - len(fa ^ fb))}/{common} common files equal "
          f"({masked_values} wall_ns values masked), "
          f"{len(fa ^ fb)} files in one directory only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
