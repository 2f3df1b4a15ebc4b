"""Seeded random instance generators.

Callers pass their own ``random.Random`` so runs are reproducible; the
generators never touch global RNG state.
"""

from __future__ import annotations

from itertools import accumulate
from random import Random
from typing import Optional

from .core import BipartiteInstance

__all__ = ["FAMILIES", "gen_family", "gen_random", "gen_random_graph"]

FAMILIES = ("skewed", "all-equal", "mostly-zero", "near-2^31", "chain")


def gen_random(
    rng: Random,
    num_jobs: int,
    num_machines: int,
    *,
    edge_prob: Optional[float] = None,
    num_edges: Optional[int] = None,
    min_weight: int = 1,
    max_weight: int = 1,
) -> BipartiteInstance:
    """Random bipartite instance with no isolated jobs.

    Edges are drawn either pairwise with probability ``edge_prob`` or as
    a uniform sample of ``num_edges`` distinct pairs (pick exactly one).
    Any job left without an edge gets one to a uniformly random machine,
    so the result is always feasible.  Weights are uniform in
    ``[min_weight, max_weight]``; the defaults give a unit instance.
    """
    if num_jobs < 0 or num_machines <= 0:
        raise ValueError("need at least one machine and a non-negative job count")
    if (edge_prob is None) == (num_edges is None):
        raise ValueError("pass exactly one of edge_prob / num_edges")

    pairs: set[tuple[int, int]] = set()
    if edge_prob is not None:
        if not 0.0 <= edge_prob <= 1.0:
            raise ValueError(f"edge_prob {edge_prob} outside [0, 1]")
        for u in range(num_jobs):
            for v in range(num_machines):
                if rng.random() < edge_prob:
                    pairs.add((u, v))
    else:
        total = num_jobs * num_machines
        k = min(num_edges, total)
        for idx in rng.sample(range(total), k):
            pairs.add(divmod(idx, num_machines))
    jobs_hit = {u for u, _ in pairs}
    for u in range(num_jobs):
        if u not in jobs_hit:
            pairs.add((u, rng.randrange(num_machines)))

    def weight() -> int:
        if min_weight == max_weight:
            return min_weight
        return rng.randint(min_weight, max_weight)

    edges = [(u, v, weight()) for u, v in sorted(pairs)]
    return BipartiteInstance(num_jobs, num_machines, edges)


def gen_family(rng: Random, family: str) -> BipartiteInstance:
    """A small instance from one adversarial weight family in ``FAMILIES``.

    ``skewed`` joins every job to 2-4 machines at weights 0..100.
    ``chain`` joins job u to machines 0..n-1-u at ``base + a[u] * b[v]``
    (a, b rising, b[0] = 0): all lightest edges tie, and each job added in
    index order takes machine 0 and pushes every earlier job one machine
    up.  The others weigh a random shape's edges 7, mostly 0, or near
    2^31 - 1.
    """
    if family == "skewed":
        jobs, machines = rng.randint(10, 40), rng.randint(2, 4)
        return BipartiteInstance(jobs, machines, [
            (u, v, rng.randint(0, 100)) for u in range(jobs) for v in range(machines)
        ])
    if family == "chain":
        n = rng.randint(1, 24)
        a = list(accumulate(rng.randint(1, 3) for _ in range(n)))
        b = [0, *accumulate(rng.randint(1, 3) for _ in range(n - 1))]
        base = n * a[-1] * b[-1] + rng.randint(1, 6)  # above any gain from stacking
        return BipartiteInstance(n, n, [
            (u, v, base + a[u] * b[v]) for u in range(n) for v in range(n - u)
        ])
    weight = {
        "all-equal": lambda: 7,
        "mostly-zero": lambda: 0 if rng.random() < 0.8 else rng.randint(1, 3),
        "near-2^31": lambda: 2**31 - 1 - rng.randint(0, 3),
    }.get(family)
    if weight is None:
        raise ValueError(f"unknown family {family!r}; pick one of {', '.join(FAMILIES)}")
    shape = gen_random(rng, rng.randint(1, 24), rng.randint(1, 6),
                       edge_prob=rng.uniform(0.2, 1.0))
    return BipartiteInstance(shape.num_jobs, shape.num_machines, [
        (u, v, weight()) for u in range(shape.num_jobs) for v in shape.job_machines[u]
    ])


def gen_random_graph(
    rng: Random, num_vertices: int, edge_prob: float
) -> tuple[int, list[tuple[int, int]]]:
    """Random simple graph with no isolated vertices.

    Each of the C(n,2) pairs appears with probability ``edge_prob``;
    isolated vertices are then attached to a random other vertex, so an
    edge cover always exists.  Needs at least two vertices.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices to cover them all")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob {edge_prob} outside [0, 1]")
    pairs: set[tuple[int, int]] = set()
    for a in range(num_vertices):
        for b in range(a + 1, num_vertices):
            if rng.random() < edge_prob:
                pairs.add((a, b))
    deg = [0] * num_vertices
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    for x in range(num_vertices):
        if deg[x] == 0:
            k = rng.randrange(num_vertices - 1)  # the draw choice() makes from the others
            y = k + (k >= x)
            pairs.add((min(x, y), max(x, y)))
            deg[x] += 1
            deg[y] += 1
    return num_vertices, sorted(pairs)
