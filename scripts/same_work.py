"""Check that two checkouts generate the benchmark pool alike, and parse
and solve it alike.

Usage, from anywhere::

    python3 scripts/same_work.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are checkout directories, each with its own
``perfbench/`` and ``src/``.  In each one a child process generates, for
each of the four workloads, the warm-up text and the 16 pool texts, and
hashes each of these 68 texts with SHA-256.  It parses the 16 pool texts
of unit-zipf, weighted-uniform and weighted-skewed with
``parse_instance``, as the benchmark does, and solves each instance with
its workload's solver: ``solve_unweighted(instance,
stats=CancelCounters())`` for unit-zipf and ``solve_weighted(instance,
stats=WeightedStats())`` for the weighted ones.  It reports each
instance's layout (``job_machines``, ``machine_jobs``, ``job_weights``),
the assignment and every field of the stats object.  The script names
the first text whose hash differs, or else the first instance whose
layout, assignment or any counter differs, between the two checkouts and
exits 1; when all 68 texts and all 48 instances agree it says so and
exits 0.  A change that makes generating, parsing or solving cheaper
without changing what it generates, builds or finds, or how much search
it does, passes this check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("unit-zipf", "weighted-uniform", "weighted-skewed", "cover-sparse")

CHILD = """
import dataclasses, hashlib, json, sys
sys.path[:0] = ["src", "perfbench"]
from semimatch.formats import parse_instance
from semimatch.unweighted import CancelCounters, solve_unweighted
from semimatch.weighted import WeightedStats, solve_weighted
from workloads import POOL_SIZE, WORKLOADS
digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
for name in sys.argv[1:]:
    workload = WORKLOADS[name]
    warmup = workload.text(-1, **workload.warmup)
    print(json.dumps(["text", name, "warm-up", digest(warmup)]))
    unit = workload.kind == "unit"
    solve, Stats = (solve_unweighted, CancelCounters) if unit else (solve_weighted, WeightedStats)
    for i in range(POOL_SIZE):
        text = workload.text(i)
        print(json.dumps(["text", name, f"pool text {i}", digest(text)]))
        if workload.kind == "cover":
            continue
        instance = parse_instance(text)
        layout = [instance.job_machines, instance.machine_jobs, instance.job_weights]
        stats = Stats()
        matching = solve(instance, stats=stats)
        counters = dataclasses.asdict(stats)
        print(json.dumps(["solve", name, i, layout, matching.machine_of, counters]))
"""


def work(checkout: Path) -> tuple[list[list], list[list]]:
    """Each text's (workload, label, hash), and each solved pool
    instance's (workload, index, layout, assignment, stats)."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *WORKLOADS],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    texts, solved = [], []
    for line in out.splitlines():
        kind, *record = json.loads(line)
        (texts if kind == "text" else solved).append(record)
    return texts, solved


def first_text_difference(parent: list[list], change: list[list]) -> str | None:
    """Which text differs first, or None."""
    if len(parent) != len(change):
        return f"{len(parent)} texts generated in the parent, {len(change)} in the change"
    for (name, label, p_hash), (_, _, c_hash) in zip(parent, change):
        if p_hash != c_hash:
            return f"{name} {label}: the texts differ"
    return None


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
    (p_texts, parent), (c_texts, change) = work(args.parent), work(args.change)
    diff = first_text_difference(p_texts, c_texts) or first_difference(parent, change)
    if diff is not None:
        print(diff)
        return 1
    print(
        f"same text on all {len(p_texts)} pool and warm-up texts, and the same layout, "
        f"assignment and counters on all {len(parent)} solved pool instances"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
