"""Exhaustive reference solvers, for cross-checking the fast ones.

Everything here trades speed for obviousness: plain backtracking over
all assignments, and a Gray-code walk over all edge subsets.  Both
refuse search spaces past a fixed limit (``ASSIGNMENT_LIMIT``,
``SUBSET_LIMIT``) rather than silently taking forever.
"""

from __future__ import annotations

from math import prod
from typing import Optional, Sequence

from .core import (
    BipartiteInstance,
    ConvexMachineCost,
    InfeasibleInstanceError,
    SemiMatching,
)

__all__ = [
    "assignment_search_space",
    "brute_force_semi_matching",
    "brute_force_balanced_cover",
]

#: Most assignments ``brute_force_semi_matching`` will sweep.
ASSIGNMENT_LIMIT = 1_000_000
#: Most edge subsets ``brute_force_balanced_cover`` will walk: 21 edges.
SUBSET_LIMIT = 1 << 21


def assignment_search_space(instance: BipartiteInstance) -> int:
    """Number of assignments a brute-force sweep would visit."""
    return prod(map(len, instance.job_machines))


def brute_force_semi_matching(
    instance: BipartiteInstance,
    costs: Optional[ConvexMachineCost] = None,
) -> tuple[int, SemiMatching]:
    """Exact optimum by backtracking over every assignment.

    With ``costs`` the objective is the convex load cost (edge weights
    ignored); otherwise it is the total completion time, which for unit
    weights degenerates to the triangular load cost.  Partial costs only
    grow, so branches at or above the incumbent are cut.

    Raises ``ValueError`` when the search space exceeds ``ASSIGNMENT_LIMIT``.
    """
    space = assignment_search_space(instance)
    if space > ASSIGNMENT_LIMIT:
        raise ValueError(f"search space {space} exceeds limit {ASSIGNMENT_LIMIT}")
    nU, nV = instance.num_jobs, instance.num_machines
    weighted = costs is None and not instance.is_unit_weight()

    best_cost: Optional[int] = None
    best: Optional[tuple[int, ...]] = None
    chosen: list[int] = [-1] * nU
    loads = [0] * nV
    piles: list[list[int]] = [[] for _ in range(nV)]  # weighted only
    if costs is not None:
        table = [costs.prefix(v, len(jobs)) for v, jobs in enumerate(instance.machine_jobs)]

    def marginal(v: int, w: int) -> int:
        if weighted:
            return w + sum(min(x, w) for x in piles[v])
        if costs is None:
            return loads[v] + 1
        return table[v][loads[v]]

    def rec(u: int, partial: int) -> None:
        nonlocal best_cost, best
        if best_cost is not None and partial >= best_cost:
            return
        if u == nU:
            best_cost = partial
            best = tuple(chosen)
            return
        for v, w in zip(instance.job_machines[u], instance.weights(u)):
            delta = marginal(v, w)
            chosen[u] = v
            loads[v] += 1
            if weighted:
                piles[v].append(w)
            rec(u + 1, partial + delta)
            if weighted:
                piles[v].pop()
            loads[v] -= 1
        chosen[u] = -1

    rec(0, 0)
    assert best_cost is not None and best is not None  # every job has an edge
    return best_cost, SemiMatching(best)


def brute_force_balanced_cover(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
) -> tuple[int, frozenset[tuple[int, int]]]:
    """Exact minimum of the sum of ``k*(k+1)/2`` over the cover degrees k,
    over all edge covers: the cost a balanced cover minimizes.

    Walks the subsets of the edge set in Gray-code order, so each step
    toggles a single edge and the degree profile, covered-vertex count,
    and cost are maintained in O(1): a vertex going from degree k to
    k + 1 adds k + 1 to the cost.

    Raises ``ValueError`` for more than ``log2(SUBSET_LIMIT)`` edges and
    ``InfeasibleInstanceError`` when no cover exists (isolated vertex).
    """
    m = len(edges)
    if 1 << m > SUBSET_LIMIT:
        raise ValueError(f"2^{m} subsets exceed limit {SUBSET_LIMIT}")
    deg = [0] * num_vertices
    for a, b in edges:
        if a == b or not (0 <= a < num_vertices and 0 <= b < num_vertices):
            raise ValueError(f"bad edge ({a}, {b})")
        deg[a] += 1
        deg[b] += 1
    if any(d == 0 for d in deg):
        lonely = deg.index(0)
        raise InfeasibleInstanceError(f"vertex {lonely} has no incident edges")

    deg = [0] * num_vertices
    uncovered = num_vertices
    cost = 0
    in_set = [False] * m
    best_cost: Optional[int] = None
    best_mask = 0
    mask = 0
    for i in range(1, 1 << m):
        j = (i & -i).bit_length() - 1  # bit flipped by the Gray code at step i
        mask ^= 1 << j
        a, b = edges[j]
        if in_set[j]:
            in_set[j] = False
            for x in (a, b):
                cost -= deg[x]
                deg[x] -= 1
                if deg[x] == 0:
                    uncovered += 1
        else:
            in_set[j] = True
            for x in (a, b):
                if deg[x] == 0:
                    uncovered -= 1
                deg[x] += 1
                cost += deg[x]
        if uncovered == 0 and (best_cost is None or cost < best_cost):
            best_cost = cost
            best_mask = mask
    assert best_cost is not None  # full edge set covers everything
    return best_cost, frozenset(e for j, e in enumerate(edges) if best_mask >> j & 1)
