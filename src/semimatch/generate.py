"""Seeded random instance generators.

Callers pass their own ``random.Random`` so runs are reproducible; the
generators never touch global RNG state.  The pairwise edge tests read
in bulk, through ``rng.getrandbits``, the Mersenne Twister words that
``rng.random()`` reads, so a ``Random`` subclass that overrides only
``random()`` is not consulted for them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, compress
from math import ceil
from random import Random
from typing import Optional

from .core import MAX_WEIGHT, BipartiteInstance

__all__ = ["FAMILIES", "gen_family", "gen_random", "gen_random_graph"]

FAMILIES = ("skewed", "all-equal", "mostly-zero", "near-2^31", "chain")

_BLOCK = 4096  # draws per getrandbits call


def _hits(rng: Random, count: int, p: float) -> list[int]:
    """The indices at which ``count`` successive ``rng.random() < p``
    tests would succeed, leaving ``rng`` in the state they would.

    Draw i is ``x / 2**53``, ``x = (w0 >> 5) << 26 | w1 >> 6``, over the
    words in bytes 8i..8i+7 of ``getrandbits(64 * n)`` in little-endian
    order, and hits when ``x < t``.  The top byte of w0 is ``x >> 45``, so
    only lanes where it equals ``t >> 45`` need the full test.
    """
    t = ceil(p * 2**53)
    cap = t >> 45
    sure = bytes(c < cap for c in range(256))
    hits: list[int] = []
    for base in range(0, count, _BLOCK):
        n = min(_BLOCK, count - base)
        words = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        top = words[3::8]
        hits += compress(range(base, base + n), top.translate(sure)) if cap else ()
        j = top.find(cap) if cap < 256 else -1
        while j >= 0:
            w = int.from_bytes(words[8 * j:8 * j + 8], "little")  # w1 << 32 | w0
            x = (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38
            if x < t:
                hits.append(base + j)
            j = top.find(cap, j + 1)
    hits.sort()  # a block's sure and tested hits interleave
    return hits


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
    ``[min_weight, max_weight]``, which must lie in ``[0, MAX_WEIGHT]``;
    the defaults give a unit instance.
    """
    if num_jobs < 0 or num_machines <= 0:
        raise ValueError("need at least one machine and a non-negative job count")
    if (edge_prob is None) == (num_edges is None):
        raise ValueError("pass exactly one of edge_prob / num_edges")
    if not 0 <= min_weight <= max_weight <= MAX_WEIGHT:
        raise ValueError(f"weights [{min_weight}, {max_weight}] empty or outside [0, {MAX_WEIGHT}]")

    total = num_jobs * num_machines
    if edge_prob is not None:
        if not 0.0 <= edge_prob <= 1.0:
            raise ValueError(f"edge_prob {edge_prob} outside [0, 1]")
        pairs = {divmod(i, num_machines) for i in _hits(rng, total, edge_prob)}
    else:
        if num_edges < 0:
            raise ValueError(f"num_edges {num_edges} is negative")
        pairs = {divmod(i, num_machines) for i in rng.sample(range(total), min(num_edges, total))}
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
    starts = list(accumulate(range(num_vertices - 1, 0, -1), initial=0))  # row a's first pair
    pairs = set()
    for i in _hits(rng, starts[-1], edge_prob):
        a = bisect_right(starts, i) - 1
        pairs.add((a, a + 1 + i - starts[a]))
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
