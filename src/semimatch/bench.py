"""Benchmark harness: seeded instances × named solvers → CSV.

A plan is a list of :class:`BenchCase` (generator parameters, one seed
each) and a list of solver names; every (case, solver) pair produces
one :class:`BenchRecord`.  Costs are cross-checked per case — any two
solvers disagreeing on the same instance abort the whole run with
:class:`SolverDisagreementError`, because a quietly wrong benchmark is
worse than no benchmark.

CSV columns, in this fixed order::

    kind,jobs,machines,edges,max_weight,seed,solver,wall_time_s,cost,
    cancel_rounds,recursion_depth,group_relaxations,heap_ops,machine_pops

``edges`` is the realised edge count of the generated instance.  The
last five columns are per-solver counters and stay empty where a solver
does not track them (``cancel_rounds``/``recursion_depth`` for the
flow-based unit solvers, ``group_relaxations``/``heap_ops``/
``machine_pops`` for the grouped-relaxation weighted solver).
``heap_ops`` sums the weighted solver's frontier pushes (job entries
and envelope candidates alike), envelope inserts and delete-mins.

Cases run in parallel across processes when ``workers > 1``; each
record is computed wholly inside one worker and results are stitched
back in plan order, so output is deterministic regardless of worker
count.  One worker, the default, runs the cases in this process.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from random import Random
from typing import Iterable, Optional, Sequence

from .core import (
    BipartiteInstance,
    ConvexMachineCost,
    SemiMatchError,
    cost_of_semi_matching,
)
from .generate import gen_random
from .unweighted import CancelCounters, solve_convex
from .weighted import WeightedStats, baseline_exploded_solver, solve_weighted

__all__ = [
    "CSV_COLUMNS",
    "SOLVER_NAMES",
    "BenchCase",
    "BenchRecord",
    "SolverDisagreementError",
    "run_bench",
    "records_to_csv",
]

CSV_COLUMNS = (
    "kind",
    "jobs",
    "machines",
    "edges",
    "max_weight",
    "seed",
    "solver",
    "wall_time_s",
    "cost",
    "cancel_rounds",
    "recursion_depth",
    "group_relaxations",
    "heap_ops",
    "machine_pops",
)

class SolverDisagreementError(SemiMatchError):
    """Two solvers returned different costs for the same instance."""


@dataclass(frozen=True)
class BenchCase:
    """Generator parameters for one seeded instance."""

    kind: str  # "unit" or "weighted"
    jobs: int
    machines: int
    edge_prob: float
    max_weight: int
    seed: int

    def instance(self) -> BipartiteInstance:
        rng = Random(self.seed)
        return gen_random(
            rng,
            self.jobs,
            self.machines,
            edge_prob=self.edge_prob,
            max_weight=self.max_weight if self.kind == "weighted" else 1,
        )


@dataclass(frozen=True)
class BenchRecord:
    """One solver run on one instance, plus its counters."""

    case: BenchCase
    edges: int
    solver: str
    wall_time_s: float
    cost: int
    cancel_rounds: Optional[int] = None
    recursion_depth: Optional[int] = None
    group_relaxations: Optional[int] = None
    heap_ops: Optional[int] = None
    machine_pops: Optional[int] = None

    def as_row(self) -> list[str]:
        c = self.case

        def opt(x: Optional[int]) -> str:
            return "" if x is None else str(x)

        return [
            c.kind,
            str(c.jobs),
            str(c.machines),
            str(self.edges),
            str(c.max_weight if c.kind == "weighted" else 1),
            str(c.seed),
            self.solver,
            f"{self.wall_time_s:.6f}",
            str(self.cost),
            opt(self.cancel_rounds),
            opt(self.recursion_depth),
            opt(self.group_relaxations),
            opt(self.heap_ops),
            opt(self.machine_pops),
        ]


def _run_unweighted(
    instance: BipartiteInstance, costs: Optional[ConvexMachineCost] = None
) -> tuple[int, dict]:
    counters = CancelCounters()
    matching = solve_convex(instance, costs, stats=counters)
    return cost_of_semi_matching(instance, matching), {
        "cancel_rounds": sum(counters.rounds_per_cancel),
        "recursion_depth": counters.max_depth,
    }


def _run_weighted(instance: BipartiteInstance) -> tuple[int, dict]:
    stats = WeightedStats()
    matching = solve_weighted(instance, stats=stats)
    heap_ops = stats.heap_pushes + stats.envelope_inserts + stats.envelope_delete_mins
    return cost_of_semi_matching(instance, matching), {
        "group_relaxations": sum(stats.group_relaxations),
        "heap_ops": heap_ops,
        "machine_pops": stats.machine_pops,
    }


def _run_baseline(instance: BipartiteInstance) -> tuple[int, dict]:
    matching = baseline_exploded_solver(instance)
    return cost_of_semi_matching(instance, matching), {}


SOLVER_NAMES = {
    "unweighted": _run_unweighted,
    # Triangular load costs are the unit objective, passed explicitly, so
    # its cost is cross-checked against the other solvers'.
    "convex": lambda instance: _run_unweighted(instance, ConvexMachineCost.triangular(instance)),
    "weighted": _run_weighted,
    "baseline": _run_baseline,
}


def _run_one(task: tuple[BenchCase, str]) -> BenchRecord:
    case, solver = task
    instance = case.instance()
    runner = SOLVER_NAMES[solver]
    start = time.perf_counter()
    cost, counters = runner(instance)
    elapsed = time.perf_counter() - start
    return BenchRecord(
        case=case,
        edges=instance.num_edges,
        solver=solver,
        wall_time_s=elapsed,
        cost=cost,
        **counters,
    )


def run_bench(
    cases: Sequence[BenchCase],
    solvers: Sequence[str],
    *,
    workers: int = 1,
) -> list[BenchRecord]:
    """Run every solver on every case and cross-check the costs.

    Records come back in plan order: all solvers of the first case, then
    all solvers of the second, and so on.
    """
    for name in solvers:
        if name not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {name!r}, expected one of {sorted(SOLVER_NAMES)}"
            )
    tasks = [(case, solver) for case in cases for solver in solvers]
    if workers <= 1 or len(tasks) <= 1:
        records = [_run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, tasks))

    by_case: dict[BenchCase, BenchRecord] = {}
    for rec in records:
        first = by_case.setdefault(rec.case, rec)
        if first.cost != rec.cost:
            raise SolverDisagreementError(
                f"cost mismatch on {rec.case}: "
                f"{first.solver} -> {first.cost}, {rec.solver} -> {rec.cost}"
            )
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    """Render records as CSV with the documented fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.as_row())
    return buf.getvalue()
