"""Check that two checkouts parse and solve the benchmark pool alike.

Usage, from anywhere::

    python3 scripts/same_work.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkout directories, each with its own
``perfbench/`` and ``src/``.  In each one a child process parses the 16
pool texts of unit-zipf, weighted-uniform and weighted-skewed with
``parse_instance``, as the benchmark does, and solves each instance with
its workload's solver: ``solve_unweighted(instance,
stats=CancelCounters())`` for unit-zipf and ``solve_weighted(instance,
stats=WeightedStats())`` for the weighted ones.  It reports each
instance's layout (``job_machines``, ``machine_jobs``, ``job_weights``),
the assignment and every field of the stats object.  The script names
the first instance whose layout, assignment or any counter differs
between the two checkouts and exits 1; when all 48 agree it says so and
exits 0.  A change that makes parsing or solving cheaper without
changing what it builds or finds, or how much search it does, passes
this check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("unit-zipf", "weighted-uniform", "weighted-skewed")

CHILD = """
import dataclasses, json, sys
sys.path[:0] = ["src", "perfbench"]
from semimatch.formats import parse_instance
from semimatch.unweighted import CancelCounters, solve_unweighted
from semimatch.weighted import WeightedStats, solve_weighted
from workloads import POOL_SIZE, WORKLOADS
for name in sys.argv[1:]:
    unit = WORKLOADS[name].kind == "unit"
    solve, Stats = (solve_unweighted, CancelCounters) if unit else (solve_weighted, WeightedStats)
    for i in range(POOL_SIZE):
        instance = parse_instance(WORKLOADS[name].text(i))
        layout = [instance.job_machines, instance.machine_jobs, instance.job_weights]
        stats = Stats()
        matching = solve(instance, stats=stats)
        print(json.dumps([name, i, layout, matching.machine_of, dataclasses.asdict(stats)]))
"""


def work(checkout: Path) -> list[list]:
    """Each pool instance's (workload, index, layout, assignment, stats)."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *WORKLOADS],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def first_difference(parent: list[list], change: list[list]) -> str | None:
    """What differs on the first instance that differs, or None."""
    if len(parent) != len(change):
        return f"{len(parent)} instances solved in the parent, {len(change)} in the change"
    for (name, i, p_layout, p_match, p_stats), (_, _, c_layout, c_match, c_stats) in zip(
        parent, change
    ):
        if p_layout != c_layout:
            return f"{name} instance {i}: the parsed layouts differ"
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
    print(f"same layout, assignment and counters on all {len(parent)} pool instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
