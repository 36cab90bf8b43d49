#!/usr/bin/env python3
"""Print per-layer deltas between two traced runs of the benchmark.

    python3 perfbench/diff.py BEFORE.json AFTER.json

Each file is one ``.perfbench_out/<workload>-seed<seed>.json`` written by
``run.py --trace 1``.  Rows are sorted by the size of the change, so the
layer where a saving (or a cost) landed comes first.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path))["metrics"] for path in argv)
    names = sorted(set(before) | set(after),
                   key=lambda n: -abs(after.get(n, 0.0) - before.get(n, 0.0)))
    print(f"{'metric':32s} {'before':>12s} {'after':>12s} {'delta':>12s} {'change':>8s}")
    for name in names:
        a, b = before.get(name, 0.0), after.get(name, 0.0)
        change = f"{(b - a) / a:+.1%}" if a else "-"
        print(f"{name:32s} {a:12.6g} {b:12.6g} {b - a:+12.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
