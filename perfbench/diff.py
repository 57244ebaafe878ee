#!/usr/bin/env python3
"""Diff the per-op answers of two benchmark records within each op's tolerance.

    python3 perfbench/diff.py before.json after.json

The records are the ``perfbench/out/<workload>-seed<n>-trace<t>.json`` files
of two runs with the same workload and seed.  Ops are matched by cycle and
position.  Prints every op whose answers differ by more than its relative
tolerance and exits 1 if there is one.
"""

import json
import sys


def differences(before, after):
    """(ops compared, [(cycle, pos, kind, old, new), ...] beyond tolerance)."""
    old = {(c, p): (k, v, tol) for c, p, k, v, tol in before["answers"]}
    compared, out = 0, []
    for c, p, k, v, tol in after["answers"]:
        if (c, p) not in old:
            continue
        k0, v0, tol0 = old[(c, p)]
        compared += 1
        if k0 != k or abs(v - v0) > max(tol, tol0) * max(abs(v0), abs(v)):
            out.append((c, p, k, v0, v))
    return compared, out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    before, after = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key in ("workload", "seed"):
        if before["env"][key] != after["env"][key]:
            sys.exit(f"records differ in {key}: {before['env'][key]} vs {after['env'][key]}")
    compared, out = differences(before, after)
    for c, p, k, v0, v in out:
        print(f"cycle {c} op {p} {k}: {v0!r} -> {v!r}")
    print(f"{compared} ops compared, {len(out)} beyond tolerance")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
