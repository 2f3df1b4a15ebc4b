"""``semimatch`` command line tool.

Verbs
-----
solve    read an instance, write an ``a``-record solution with cost trailer
verify   check a solution file against its instance (validity + declared cost)
gen      write a seeded random instance
bench    run solver×instance plans, emit the fixed-column CSV
oracle   exhaustive optimum for small instances (independent of the solvers)

Exit codes
----------
0  success
2  malformed input: parse errors, bad ids/weights, impossible parameters
3  infeasible instance (a job or vertex that nothing can cover)
4  verification failure or cross-solver disagreement
5  a cost exceeds the signed 64-bit accumulator
1  anything else (e.g. instance too large for the oracle)

Instances reproduce from seeds via Python's ``random.Random`` (Mersenne
Twister); the portable contract is the emitted file, not the generator
internals — regenerate with ``semimatch gen --seed N -o file`` and ship
the file.
"""

from __future__ import annotations

import sys
from random import Random
from typing import Optional

import click

from .bench import BenchCase, SolverDisagreementError, records_to_csv, run_bench
from .core import (
    BipartiteInstance,
    ConvexMachineCost,
    CostOverflowError,
    InfeasibleInstanceError,
    SemiMatching,
    _edgeless,
    cost_of_semi_matching,
)
from .cover import EdgeCover, GeneralGraph, find_center
from .formats import ParseError, emit_assignment, emit_instance, parse_assignment, parse_instance
from .generate import gen_random, gen_random_graph
from .oracle import brute_force_balanced_cover, brute_force_semi_matching
from .unweighted import solve_convex, solve_unweighted
from .weighted import baseline_exploded_solver, solve_weighted

EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_OVERFLOW = 5


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_instance(path: str):
    try:
        with click.open_file(path, "r") as fh:
            text = fh.read()
        return parse_instance(text)
    except ParseError as exc:
        _fail(EXIT_MALFORMED, str(exc))
    except InfeasibleInstanceError as exc:  # named by its id in the file, 1-based
        _fail(EXIT_INFEASIBLE, str(_edgeless(exc.what, exc.index + 1)))


def _write(path: Optional[str], text: str) -> None:
    with click.open_file(path or "-", "w") as fh:
        fh.write(text)


@click.group()
def main() -> None:
    """Optimal semi-matchings and balanced edge covers."""


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.option(
    "--objective",
    "-m",
    type=click.Choice(["weighted", "unweighted", "convex", "cover"]),
    default=None,
    help="What to optimise; defaults to weighted for semimatch files, cover for cover files.",
)
@click.option(
    "--solver",
    type=click.Choice(["fast", "baseline"]),
    default="fast",
    show_default=True,
    help="Weighted-solver implementation (baseline = explicit exploded graph).",
)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
def solve(instance_path: str, objective: Optional[str], solver: str, output: Optional[str]) -> None:
    """Solve INSTANCE and write the assignment (or cover) with its cost."""
    instance = _read_instance(instance_path)
    if isinstance(instance, GeneralGraph):
        if objective not in (None, "cover"):
            _fail(EXIT_MALFORMED, f"--objective {objective} needs a semimatch file")
        objective = "cover"
    elif objective == "cover":
        _fail(EXIT_MALFORMED, "--objective cover needs a cover file")
    objective = objective or "weighted"
    if solver == "baseline" and objective != "weighted":
        _fail(EXIT_MALFORMED, "--solver baseline only applies to --objective weighted")
    if objective == "cover":
        try:
            cover = find_center(instance)
        except InfeasibleInstanceError as exc:
            _fail(EXIT_INFEASIBLE, str(exc))
        _write(output, emit_assignment(sorted(cover.edges), cover.balanced_cost()))
        return
    if objective == "weighted":
        fn = solve_weighted if solver == "fast" else baseline_exploded_solver
        matching = fn(instance)
    elif objective == "unweighted":
        matching = solve_unweighted(instance)
    else:
        matching = solve_convex(instance, ConvexMachineCost.triangular(instance))
    try:
        cost = cost_of_semi_matching(instance, matching)
    except CostOverflowError as exc:
        _fail(EXIT_OVERFLOW, str(exc))
    _write(output, emit_assignment(enumerate(matching.machine_of), cost))


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.argument("solution_path", metavar="SOLUTION")
def verify(instance_path: str, solution_path: str) -> None:
    """Check SOLUTION against INSTANCE: structure, edges, and cost trailer.

    Verifies validity and that the declared cost matches the
    recomputed one — not optimality.
    """
    instance = _read_instance(instance_path)
    try:
        with click.open_file(solution_path, "r") as fh:
            pairs, declared = parse_assignment(fh.read())
    except ParseError as exc:
        _fail(EXIT_MALFORMED, str(exc))

    if isinstance(instance, BipartiteInstance):
        machine_of: list[Optional[int]] = [None] * instance.num_jobs
        for job, machine in pairs:
            if not 0 <= job < instance.num_jobs:
                _fail(EXIT_VERIFY_FAILED, f"job id {job + 1} not in the instance")
            if not 0 <= machine < instance.num_machines:
                _fail(EXIT_VERIFY_FAILED, f"machine id {machine + 1} not in the instance")
            if machine_of[job] is not None:
                _fail(EXIT_VERIFY_FAILED, f"job {job + 1} assigned twice")
            machine_of[job] = machine
        missing = [u + 1 for u, v in enumerate(machine_of) if v is None]
        if missing:
            _fail(EXIT_VERIFY_FAILED, f"jobs without an assignment: {missing[:5]}")
        matching = SemiMatching(tuple(machine_of))
        # The cost checks adjacency in the same pass; only a failure walks
        # the jobs again, to name the first non-edge.
        try:
            actual = cost_of_semi_matching(instance, matching)
        except CostOverflowError as exc:
            _fail(EXIT_OVERFLOW, str(exc))
        except KeyError:
            u = next(u for u, v in enumerate(machine_of) if v not in instance.job_machines[u])
            _fail(EXIT_VERIFY_FAILED, f"({u + 1}, {machine_of[u] + 1}) is not an edge")
    else:
        edge_set = set(instance.edges)
        listed: set[tuple[int, int]] = set()
        for a, b in pairs:
            e = (a, b) if a < b else (b, a)
            if e not in edge_set:
                _fail(EXIT_VERIFY_FAILED, f"({a + 1}, {b + 1}) is not a graph edge")
            if e in listed:
                _fail(EXIT_VERIFY_FAILED, f"cover edge ({e[0] + 1}, {e[1] + 1}) listed twice")
            listed.add(e)
        try:
            cover = EdgeCover(instance.num_vertices, pairs)
        except ValueError:  # every pair is a graph edge, once: a vertex is left out
            covered = {x for e in listed for x in e}
            v = next(v for v in range(instance.num_vertices) if v not in covered)
            _fail(EXIT_VERIFY_FAILED, f"vertex {v + 1} is uncovered")
        actual = cover.balanced_cost()

    if actual != declared:
        _fail(
            EXIT_VERIFY_FAILED,
            f"declared cost {declared} but the solution costs {actual}",
        )
    click.echo(f"OK cost {actual}")


@main.command()
@click.option("--kind", type=click.Choice(["semimatch", "cover"]), default="semimatch", show_default=True)
@click.option("--jobs", type=int, default=10, show_default=True)
@click.option("--machines", type=int, default=5, show_default=True)
@click.option("--vertices", type=int, default=10, show_default=True, help="Cover instances only.")
@click.option("--edge-prob", type=float, default=0.3, show_default=True)
@click.option("--max-weight", type=int, default=1, show_default=True, help="1 gives a unit instance.")
@click.option("--seed", type=int, required=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
def gen(
    kind: str,
    jobs: int,
    machines: int,
    vertices: int,
    edge_prob: float,
    max_weight: int,
    seed: int,
    output: Optional[str],
) -> None:
    """Write a seeded random instance (same seed, same file, always)."""
    rng = Random(seed)
    try:
        if kind == "semimatch":
            instance = gen_random(
                rng, jobs, machines, edge_prob=edge_prob, max_weight=max_weight
            )
        else:
            num_vertices, edges = gen_random_graph(rng, vertices, edge_prob)
            instance = GeneralGraph(num_vertices, edges)
    except ValueError as exc:
        _fail(EXIT_MALFORMED, str(exc))
    comment = f"seed {seed}"
    _write(output, emit_instance(instance, comments=[comment]))


@main.command()
@click.option("--kind", type=click.Choice(["unit", "weighted"]), default="weighted", show_default=True)
@click.option("--jobs", type=int, default=50, show_default=True)
@click.option("--machines", type=int, default=20, show_default=True)
@click.option("--edge-prob", type=float, default=0.2, show_default=True)
@click.option("--max-weight", type=int, default=100, show_default=True)
@click.option("--seeds", type=int, default=5, show_default=True, help="Run seeds 0..N-1.")
@click.option(
    "--solver",
    "solvers",
    multiple=True,
    type=click.Choice(["unweighted", "convex", "weighted", "baseline"]),
    help="Repeatable; default depends on --kind.",
)
@click.option("--workers", type=int, default=1, show_default=True, help="Worker processes.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
def bench(
    kind: str,
    jobs: int,
    machines: int,
    edge_prob: float,
    max_weight: int,
    seeds: int,
    solvers: tuple[str, ...],
    workers: int,
    output: Optional[str],
) -> None:
    """Benchmark solvers on seeded instances; write the CSV."""
    if not solvers:
        solvers = ("weighted", "baseline") if kind == "weighted" else ("unweighted", "convex")
    cases = [
        BenchCase(kind, jobs, machines, edge_prob, max_weight, seed)
        for seed in range(seeds)
    ]
    try:
        records = run_bench(cases, list(solvers), workers=workers)
    except SolverDisagreementError as exc:
        _fail(EXIT_VERIFY_FAILED, str(exc))
    except ValueError as exc:
        _fail(EXIT_MALFORMED, str(exc))
    _write(output, records_to_csv(records))


@main.command()
@click.argument("instance_path", metavar="INSTANCE")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
def oracle(instance_path: str, output: Optional[str]) -> None:
    """Exhaustive optimum of a small INSTANCE (crosses-off the fast solvers)."""
    instance = _read_instance(instance_path)
    try:
        if isinstance(instance, BipartiteInstance):
            cost, matching = brute_force_semi_matching(instance)
            text = emit_assignment(enumerate(matching.machine_of), cost)
        else:
            cost, edges = brute_force_balanced_cover(
                instance.num_vertices, list(instance.edges)
            )
            text = emit_assignment(sorted(edges), cost)
    except InfeasibleInstanceError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    _write(output, text)


if __name__ == "__main__":
    main()
