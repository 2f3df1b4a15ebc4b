"""Balanced edge covers of general graphs, by reduction to semi-matching.

An edge cover must touch every vertex; a *balanced* one additionally
spreads degrees as evenly as the graph allows.  Any minimal edge cover is
a star forest, so the whole question is where to put the star centers.
The pipeline implemented here:

1. ``minimum_edge_cover``: a maximum matching (augmenting paths with
   blossom contraction) plus one edge per still-uncovered vertex.  The
   Gallai identity ``|F| = n - matching size`` holds by construction.
2. ``levelling``: a breadth-first labelling that starts from the cover's
   centers and alternates cover / non-cover edges, leaving some vertices
   unleveled.
3. ``find_center``: one unweighted semi-matching from the even-level
   vertices to the odd-level vertices, plus the cover's edges inside the
   unleveled region, is an optimal balanced edge cover.

Degrees are scored with the strictly convex ``k*(k+1)/2`` — the same
schedule cost the semi-matching solvers minimise per machine, which is
what makes the reduction exact and the oracle in ``oracle`` comparable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count
from operator import index
from typing import Iterable, Optional, Sequence

from .core import BipartiteInstance, _edgeless, _integer
from .unweighted import solve_unweighted


def _pair(edge) -> tuple[int, int]:
    """``edge``'s two vertex ids as ints; ``ValueError`` naming an edge
    that is not a pair, or an id that is not an integer."""
    try:
        a, b = edge
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r} is not a pair") from None
    try:
        return index(a), index(b)
    except TypeError:
        _integer(a, "vertex id")
        _integer(b, "vertex id")
        raise  # unreachable: one of the two raised


class GeneralGraph:
    """A simple undirected graph with dense 0-based vertex ids.

    Edges may arrive in either orientation; they are stored
    canonically with the smaller endpoint first.  Ids must be integers
    (anything :func:`operator.index` accepts); an edge that is not a
    pair, self-loops and duplicates are rejected.
    """

    __slots__ = ("num_vertices", "edges", "adj")

    def __init__(self, num_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        num_vertices = _integer(num_vertices, "vertex count")
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for edge in edges:
            a, b = _pair(edge)
            if not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError(f"edge ({a}, {b}) out of range [0, {num_vertices})")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            norm.append((a, b))
        self._build(num_vertices, norm)

    def _build(self, num_vertices: int, edges: Sequence[tuple[int, int]]) -> None:
        """Fill in the graph from ``(lo, hi)`` edges whose ranges and
        uniqueness the caller has checked."""
        adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        self.num_vertices = num_vertices
        self.edges = tuple(edges)
        self.adj = tuple(map(tuple, adj))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"GeneralGraph({self.num_vertices} vertices, {self.num_edges} edges)"


class EdgeCover:
    """An edge subset touching every vertex, with its degree profile.

    Construction validates the covering property, so holding an
    ``EdgeCover`` is proof of ``deg >= 1`` everywhere.  Ids are checked
    as :class:`GeneralGraph` checks them; an edge listed twice, in either
    orientation, is rejected.
    """

    __slots__ = ("num_vertices", "edges", "degrees")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]) -> None:
        pairs = [(a, b) if a < b else (b, a) for a, b in map(_pair, edges)]
        canon = frozenset(pairs)
        if len(canon) < len(pairs):
            once: set[tuple[int, int]] = set()
            a, b = next(e for e in pairs if e in once or once.add(e))
            raise ValueError(f"edge ({a}, {b}) listed twice")
        deg = [0] * num_vertices
        for a, b in canon:
            if a == b or not (0 <= a < num_vertices and 0 <= b < num_vertices):
                raise ValueError(f"bad edge ({a}, {b})")
            deg[a] += 1
            deg[b] += 1
        if 0 in deg:
            raise ValueError(f"vertex {deg.index(0)} is uncovered")
        self.num_vertices = num_vertices
        self.edges = canon
        self.degrees = tuple(deg)

    def __len__(self) -> int:
        return len(self.edges)

    def balanced_cost(self) -> int:
        """Sum of ``d*(d+1)/2`` over the per-vertex cover degrees."""
        return sum(d * (d + 1) // 2 for d in self.degrees)

    def centers(self) -> frozenset[int]:
        """Vertices of cover degree greater than one."""
        return frozenset(v for v, d in enumerate(self.degrees) if d > 1)

    def __repr__(self) -> str:
        return (
            f"EdgeCover({len(self.edges)} edges on {self.num_vertices} vertices, "
            f"cost {self.balanced_cost()})"
        )


@dataclass(frozen=True)
class Levelling:
    """Partial vertex labelling produced by :func:`levelling`.

    ``level`` maps a vertex to its level (1-based); vertices the process
    never reaches are collected in ``unleveled``.
    """

    level: dict[int, int]
    unleveled: frozenset[int]

    def on_even_levels(self) -> list[int]:
        return sorted(v for v, l in self.level.items() if l % 2 == 0)

    def on_odd_levels(self) -> list[int]:
        return sorted(v for v, l in self.level.items() if l % 2 == 1)


def _blossom_mate(graph: GeneralGraph) -> list[int]:
    """Maximum matching as a mate array (-1 for exposed vertices).

    Augmenting-path search with blossom contraction: the BFS tree keeps,
    for every even vertex, the edge it was discovered through; odd
    cycles collapse onto the base vertex found by walking both cycle
    ends to their lowest common tree ancestor.  Each search records the
    vertices it reaches, resets and contracts over that list only, and
    marks with integer stamps instead of fresh arrays.  So a search
    costs its edge scans plus O(touched) for the reset and for each
    contraction, not O(n); the greedy seed costs O(n + m) once.  No
    attempt at Micali-Vazirani.
    """
    n = graph.num_vertices
    adj = graph.adj
    mate = [-1] * n
    for u in range(n):  # cheap greedy seed saves most searches
        if mate[u] == -1:
            for v in adj[u]:
                if mate[v] == -1:
                    mate[u] = v
                    mate[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    mark = [0] * n  # mark[v] == t: v was marked by the call that drew stamp t
    stamps = count(1)
    touched: list[int] = []  # root, vertices given a parent, mates put in the tree

    def lowest_common_base(a: int, b: int) -> int:
        t = next(stamps)
        while True:
            a = base[a]
            mark[a] = t
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if mark[b] == t:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stop: int, child: int, t: int) -> None:
        while base[v] != stop:
            mark[base[v]] = t
            mark[base[mate[v]]] = t
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def augment_from(root: int) -> bool:
        for i in touched:
            parent[i] = -1
            base[i] = i
            in_tree[i] = False
        touched[:] = [root]
        in_tree[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Even-even edge: contract the blossom onto the common base.
                    # A blossom holds tree vertices only, all of them touched.
                    stop = lowest_common_base(v, to)
                    t = next(stamps)
                    mark_path(v, stop, to, t)
                    mark_path(to, stop, v, t)
                    for i in touched:
                        if mark[base[i]] == t:
                            base[i] = stop
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if mate[to] == -1:
                        # Exposed vertex: flip the alternating path to the root.
                        while to != -1:
                            v = parent[to]
                            nxt = mate[v]
                            mate[v] = to
                            mate[to] = v
                            to = nxt
                        return True
                    touched.append(mate[to])
                    in_tree[mate[to]] = True
                    queue.append(mate[to])
        return False

    for u in range(n):
        if mate[u] == -1:
            augment_from(u)
    return mate


def maximum_matching_general(graph: GeneralGraph) -> frozenset[tuple[int, int]]:
    """Maximum cardinality matching of a simple graph, as canonical edges."""
    mate = _blossom_mate(graph)
    return frozenset((u, v) for u, v in enumerate(mate) if v != -1 and u < v)


def minimum_edge_cover(graph: GeneralGraph) -> EdgeCover:
    """Minimum cardinality edge cover: a maximum matching, then one edge
    per vertex the matching left exposed.

    Raises :class:`~semimatch.core.InfeasibleInstanceError` when some
    vertex is isolated (no cover can exist).
    """
    if not all(graph.adj):
        raise _edgeless("vertex", graph.adj.index(()))
    mate = _blossom_mate(graph)
    edges = {(u, v) for u, v in enumerate(mate) if v != -1 and u < v}
    for u, partner in enumerate(mate):
        if partner == -1:
            v = graph.adj[u][0]
            edges.add((u, v) if u < v else (v, u))
    return EdgeCover(graph.num_vertices, edges)


def levelling(graph: GeneralGraph, cover: EdgeCover) -> Levelling:
    """Alternating breadth-first levels of a (minimal) edge cover.

    Level 1 holds the cover's centers.  From an odd level the cover's
    own edges lead to the next (even) level; from an even level the
    non-cover edges lead to the next (odd) level, except that a vertex
    is held back while a cover-partner of it already sits on that odd
    level — it then joins one level later through the cover edge, which
    is exactly what keeps the two endpoints of a cover edge on levels of
    opposite parity.
    """
    cover_adj: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for a, b in cover.edges:
        cover_adj[a].append(b)
        cover_adj[b].append(a)

    level: dict[int, int] = {
        v: 1 for v, d in enumerate(cover.degrees) if d > 1
    }
    current = sorted(level)
    depth = 1
    while current:
        nxt: list[int] = []
        if depth % 2 == 1:
            for v in current:
                for u in cover_adj[v]:
                    if u not in level:
                        level[u] = depth + 1
                        nxt.append(u)
        else:
            # Only centers have cover degree > 1, and they all sit on
            # level 1.  So v's one cover edge leads back to the vertex that
            # levelled it, and an unleveled u has exactly one cover partner.
            for v in current:
                for u in graph.adj[v]:
                    if u in level:
                        continue
                    if level.get(cover_adj[u][0]) == depth + 1:
                        continue  # its cover partner got there first
                    level[u] = depth + 1
                    nxt.append(u)
        current = nxt
        depth += 1
    unleveled = frozenset(v for v in range(graph.num_vertices) if v not in level)
    return Levelling(level=level, unleveled=unleveled)


def find_center(graph: GeneralGraph) -> EdgeCover:
    """Optimal balanced edge cover of a simple graph.

    Builds a minimum edge cover, levels it, and re-centers the leveled
    region with one unweighted semi-matching: even-level vertices each
    pick one odd-level neighbour (odd-level vertices take any number).
    Cover edges between unleveled vertices pass through untouched.  The
    result minimises ``sum d*(d+1)/2`` over all edge covers.
    """
    cover = minimum_edge_cover(graph)
    lv = levelling(graph, cover)
    evens = lv.on_even_levels()
    odds = lv.on_odd_levels()

    chosen: set[tuple[int, int]] = set()
    if evens:
        job_of = [-1] * graph.num_vertices
        machine_of = [-1] * graph.num_vertices
        for i, v in enumerate(evens):
            job_of[v] = i
        for i, v in enumerate(odds):
            machine_of[v] = i
        jobs, machines = [], []
        for a, b in graph.edges:
            if job_of[a] >= 0 and machine_of[b] >= 0:
                jobs.append(job_of[a])
                machines.append(machine_of[b])
            elif job_of[b] >= 0 and machine_of[a] >= 0:
                jobs.append(job_of[b])
                machines.append(machine_of[a])
        # The ids are in range and the edges distinct, since the graph's
        # are: skip the constructor's checks.
        instance = BipartiteInstance.__new__(BipartiteInstance)
        instance._build(len(evens), len(odds), jobs, machines, None)
        assignment = solve_unweighted(instance)
        for i, j in enumerate(assignment.machine_of):
            a, b = evens[i], odds[j]
            chosen.add((a, b) if a < b else (b, a))

    for a, b in cover.edges:
        if a in lv.unleveled and b in lv.unleveled:
            chosen.add((a, b))
    return EdgeCover(graph.num_vertices, chosen)
