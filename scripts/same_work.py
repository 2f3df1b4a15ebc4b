"""Check that two checkouts' weighted solvers do the same work.

Usage, from anywhere::

    python3 scripts/same_work.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkout directories, each with its own
``perfbench/`` and ``src/``.  In each one a child process solves the 16
pool instances of weighted-uniform and of weighted-skewed with
``solve_weighted(instance, stats=WeightedStats())`` and reports each
assignment and every counter of the stats object.  The script names the
first instance whose assignment or any counter differs between the two
checkouts and exits 1; when all 32 agree it says so and exits 0.  A
change that makes the weighted search cheaper without changing what it
finds, or how often it relaxes, pushes and pops, passes this check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("weighted-uniform", "weighted-skewed")

CHILD = """
import dataclasses, json, sys
sys.path[:0] = ["src", "perfbench"]
from semimatch.weighted import WeightedStats, solve_weighted
from workloads import POOL_SIZE, WORKLOADS
for name in sys.argv[1:]:
    for i in range(POOL_SIZE):
        stats = WeightedStats()
        matching = solve_weighted(WORKLOADS[name].instance(i), stats=stats)
        print(json.dumps([name, i, matching.machine_of, dataclasses.asdict(stats)]))
"""


def work(checkout: Path) -> list[list]:
    """Each weighted pool instance's (workload, index, assignment, stats)."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *WORKLOADS],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def first_difference(parent: list[list], change: list[list]) -> str | None:
    """What differs on the first instance that differs, or None."""
    if len(parent) != len(change):
        return f"{len(parent)} instances solved in the parent, {len(change)} in the change"
    for (name, i, p_match, p_stats), (_, _, c_match, c_stats) in zip(parent, change):
        if p_match != c_match:
            return f"{name} instance {i}: the assignments differ"
        for key in p_stats.keys() | c_stats.keys():
            if p_stats.get(key) != c_stats.get(key):
                return f"{name} instance {i}: counter {key} differs"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    parent, change = work(args.parent), work(args.change)
    diff = first_difference(parent, change)
    if diff is not None:
        print(diff)
        return 1
    print(f"same work on all {len(parent)} weighted pool instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
