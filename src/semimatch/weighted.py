"""Optimal weighted semi-matching by successive shortest paths.

A machine that runs jobs shortest-first charges its i-th largest weight
exactly i times, so assigning job u as the i-th heaviest on machine v
costs ``i * w(u, v)``.  Conceptually each machine explodes into slots
``v^1, v^2, ...`` with edge weights ``i * w``, and an optimal assignment
is a minimum-cost perfect-on-jobs matching in that exploded graph.  The
exploded graph is never materialized here: a machine's matched slots
always form a prefix ``1..alpha_v`` holding its matched jobs in
non-increasing weight order, and only the first unmatched slot
``alpha_v + 1`` can ever extend the matching.

Jobs are added one per phase, largest lightest-edge weight first, ties
in index order (``EktState.order``): phase k runs Dijkstra in reduced
costs from job ``order[k]`` alone and augments along the shortest path
to an unmatched slot, so a phase only scans the part of the graph that
this job's augmentation can reach.  Any order reaches the same optimum;
this one keeps paths short, since on one machine each new job drops
into the next free slot, where lightest-first would push every placed
job down one (the SPT structure of Horn, and of Bruno, Coffman and
Sethi).  The twist that keeps phases
near-linear: when a job u is finalized, all of its exploded edges into
machine v are relaxed *at once* by inserting the single line
``g(i) = d(u) + p(u) + i*w`` into a per-machine envelope heap, whose
minimum over live slot indices is the machine's best candidate.  The
slot sequence ``f(i) = g(i) - p(v^i)`` is unimodal with valley
``gamma_uv`` (the first index where consecutive slot potentials differ
by at most w), which is exactly what the envelope heap needs.

Potentials are cumulative across phases: each phase every node gains
``min(d, bound)``, so a node the search never reached -- every job not
yet processed, every unmatched slot -- sits at the sum of all phase
bounds so far.  That common potential cancels in every value the search
compares, so it is never stored: potentials are kept only as offsets
against it (see :class:`EktState`), and a phase touches only the nodes
it finalized.  A machine's slot shifts are stored once, in that frame,
and its valley table stays valid across phases and is rebuilt only for
machines whose slot shifts or prefix length a phase changed.
``baseline_exploded_solver`` is a deliberately independent
implementation — pruned explicit exploded graph, ordinary Dijkstra,
whole-graph potential updates — kept as an oracle for the fast path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count, islice
from operator import itemgetter, sub
from typing import Iterator, Optional

from .core import (
    BipartiteInstance,
    SemiMatching,
    cost_of_semi_matching,
)
from .envelope import EnvelopeHeap

__all__ = [
    "EktState",
    "WeightedStats",
    "GroupedDijkstra",
    "update_potentials",
    "augment",
    "solve_weighted",
    "baseline_exploded_solver",
]


_INF = float("inf")


@dataclass
class WeightedStats:
    """Per-run counters for the fast weighted solver.

    ``group_relaxations[k]`` counts the edges of every job phase k
    popped, those the search examined and those it skipped alike.
    ``heap_pushes`` counts pushes onto the phase frontier, job entries
    and envelope candidates alike; ``machine_pops`` counts
    popped candidate entries that were still current, each of which
    finalizes a slot or ends the phase.
    """

    iterations: int = 0
    group_relaxations: list[int] = field(default_factory=list)
    envelope_inserts: int = 0
    envelope_delete_mins: int = 0
    heap_pushes: int = 0
    machine_pops: int = 0


class EktState:
    """The weighted solver's state: matching, potentials and search tables.

    ``slots[v]`` lists machine v's matched jobs, heaviest first, so the
    job at list index ``i - 1`` occupies exploded slot ``v^i``.  Every
    node the search has never reached sits at the common potential P,
    the sum of all phase bounds so far, and potentials are stored only
    as offsets against P: ``_raw_job[u]`` is ``P - p(u)``, zero for an
    unmatched job, and ``shift[v][i - 1]`` is ``p(v^i) - P``.
    ``shift[v]`` covers the matched slots and then, while v has a free
    slot, a 0 for the first unmatched one, so ``len(shift[v])`` is v's
    envelope domain, and every unmatched slot sits at P.  That common
    value is load-bearing: phases pick the terminal by reduced
    distance, and only a uniform potential across all unmatched slots
    makes that the same as picking the truly cheapest augmentation.  No
    slot's potential ever passes P: a phase adds at most its bound to
    any node, so every ``shift[v]`` entry is <= 0.  In these offsets
    the reduced cost of edge u -> v^i is ``i*w - shift[v][i - 1] -
    _raw_job[u]``, so ``_raw_job`` and ``shift`` are the duals of the
    exploded assignment.
    ``pairs[u]`` lists job u's (machine, weight, edge) triples lightest
    first, ties in input order.  A job's line ``b + i*w - shift[v][i - 1]``
    has valley value ``b + H``, where ``H = min_i (i*w - shift[v][i - 1])``
    depends on the edge alone; ``floor[e]`` is at most edge e's ``H``: its
    weight at first (every shift is <= 0), then the last ``H`` the search
    computed.  ``H`` never falls: :func:`update_potentials` only lowers
    shifts, and :func:`augment` only adds a free slot at shift 0, whose
    ``(n+1)*w`` is at least the old free slot's ``n*w``.

    The search tables of :func:`_machine_tables` persist across phases;
    ``negdiffs[v] is None`` marks v dirty (set by
    :func:`update_potentials` and :func:`augment`), and the next phase
    to touch v rebuilds them.  ``heaps[v] is None`` means v has no
    envelope heap this phase; ``touched`` lists the machines that have
    one, and a new :class:`GroupedDijkstra` resets their ``heaps``
    entries, so a new search on a state ends the previous one.
    ``order`` is the processing order, fixed here: the phase run at
    ``iteration == k`` starts from job ``order[k]``, so the matched jobs
    are always ``order[:iteration]``.
    """

    def __init__(self, instance: BipartiteInstance) -> None:
        self.instance = instance
        nU, nV = instance.num_jobs, instance.num_machines
        self.slots: list[list[int]] = [[] for _ in range(nV)]
        self.slot_weights: list[list[int]] = [[] for _ in range(nV)]
        self.job_slot: list[Optional[tuple[int, int]]] = [None] * nU
        self._raw_job: list[int] = [0] * nU
        self.shift: list[list[int]] = [[0] if us else [] for us in instance.machine_jobs]
        self.iteration = 0
        self.negdiffs: list[Optional[list[int]]] = [None] * nV
        self.free_n: list[int] = [0] * nV
        self.heaps: list[Optional[EnvelopeHeap]] = [None] * nV
        self.touched: list[int] = []
        # Each job's (machine, weight, edge) triples, lightest first, ties in
        # input order; edges are numbered job by job in input order, and
        # floor[e] starts at edge e's weight.
        light = itemgetter(1)
        self.pairs: list[tuple[tuple[int, int, int], ...]] = []
        self.floor: list[int] = []
        for u, vs in enumerate(instance.job_machines):
            ws = instance.weights(u)
            self.pairs.append(tuple(sorted(zip(vs, ws, count(len(self.floor))), key=light)))
            self.floor += ws
        # Heaviest lightest edge first; sorted is stable, so ties keep index order.
        self.order = sorted(range(nU), key=lambda u: -self.pairs[u][0][1])

    def heap_domain(self, v: int) -> int:
        """Envelope domain size for machine v: its matched slots and first free one."""
        return len(self.shift[v])

    def matching(self) -> SemiMatching:
        if any(s is None for s in self.job_slot):
            raise ValueError("not every job is matched yet")
        return SemiMatching(tuple(s[0] for s in self.job_slot))  # type: ignore[index]

    def exploded_cost(self) -> int:
        """Sum of i * w over occupied slots."""
        return sum(
            i * w
            for ws in self.slot_weights
            for i, w in enumerate(ws, start=1)
        )


def _machine_tables(state: EktState, v: int) -> tuple[list[int], int]:
    """Machine v's search tables, read off ``state.shift[v]``: (negdiffs, free_n).

    ``negdiffs[i-1]`` is ``p(v^i) - p(v^{i+1})``, non-decreasing in i, so
    a bisect finds a line's valley; ``free_n`` is the first unmatched
    slot's index, or 0 when v is full.
    """
    shift = state.shift[v]
    n = len(shift)
    return list(map(sub, shift, islice(shift, 1, None))), n if n > len(state.slots[v]) else 0


class GroupedDijkstra:
    """One phase's shortest-path search over the implicit exploded graph.

    The search starts from the phase's job, ``state.order[state.iteration]``,
    alone at distance 0, and touches a machine only when a finalized job
    first relaxes into it.  One binary heap, the frontier, holds every
    entry: a job as ``(value, job_base + u)`` and each machine's
    envelope candidates as ``(value, v, uid, idx)``, pushed by the
    envelope heap itself.  Machines have the low ids, so at equal
    distance a machine pop — possibly the terminal — beats job pops,
    and a phase ends before relaxing a plateau of equal-distance jobs.
    A popped candidate whose index is no longer its line's ``p`` or
    ``q`` is stale and dropped; a current one is its machine's envelope
    minimum, so it finalizes that slot (deleting the index, which
    refreshes only its line) or ends the phase.  A phase whose job is
    already matched, or that comes after the last job, raises
    ``ValueError``: its augmenting path would have no unmatched end.

    :meth:`run` returns the search itself as the phase's record.
    ``dist_job`` holds the reduced distance of every job it finalized,
    the source's 0 included; every other node counts as being at
    ``bound``, the distance of the unmatched slot ``terminal`` that ended
    the search.  A matched job has one in-arc, the tight matching edge
    from its own slot, so it is pushed once, when that slot is finalized,
    at that slot's distance: a slot's distance is its job's, and is not
    kept apart.  The augmenting path is implicit: ``owner`` is the job
    whose line won the terminal slot, ``won[u]`` the job whose line won
    job u's slot, and each job on the path hands the walk back to its own
    slot until the unmatched source ends it (see :meth:`path`).

    Values are computed in the offset frame, where the common potential
    of unreached nodes cancels: a job's line has intercept
    ``d(u) - _raw_job[u]``, a slot's shift is ``state.shift[v]``, and
    the machine tables (see :class:`EktState`) outlive the phase.  Each envelope heap takes
    ``state.shift[v]`` by reference; the potential update and augment
    change that list in place after the phase, which is safe because a
    new search drops every heap before it reads one.

    The search keeps a running upper bound on the phase's terminal
    distance (the cheapest first-unmatched-slot value seen on any line
    so far).  A popped job relaxes its edges lightest first and skips
    each whose ``b + floor[e]`` passes that bound, since its valley value
    does too (see :class:`EktState`); when even ``b + w`` passes it, so
    does every later, heavier pair's, and the loop stops, as the bound
    only falls.  Every other relaxation computes the line's valley value,
    its minimum over the whole slot range, keeps it as the edge's floor,
    and is dropped outright when it exceeds the bound: it can influence
    neither a pop nor the terminal choice.
    The rest go straight into the machine's envelope heap, opened on the
    first such line.  Its candidates may still lie beyond the bound:
    they stay in the frontier unpopped, since the terminal's entry is at
    most the bound.  Over the 16 pool instances of 400 jobs / 4000
    sparse edges (the weighted-uniform benchmark) the stop ends 71 % of
    the relaxations, the floor skips 9 % and the valley cut drops 4 %;
    on 400 jobs fully joined to 4 machines (weighted-skewed), with
    weights 0..100, they take 0.05 %, 65 % and 6 %.

    ``check=True`` changes nothing in the search: it only builds each
    machine's envelope heap in check mode, so every insert and delete
    this filtered search performs is audited against a brute scan as it
    happens.
    """

    def __init__(
        self,
        state: EktState,
        *,
        stats: Optional[WeightedStats] = None,
        check: bool = False,
    ) -> None:
        k = state.iteration
        if k >= len(state.order) or state.job_slot[state.order[k]] is not None:
            raise ValueError(f"phase {k} has no unmatched source job")
        self.state = state
        self.stats = stats
        self._check = check
        self._job_base = state.instance.num_machines
        heaps = state.heaps
        for v in state.touched:
            heaps[v] = None
        state.touched.clear()
        self.dist_job: dict[int, int] = {}
        self.won: dict[int, int] = {}
        self.bound: int  # bound, terminal and owner are set by run()
        self.terminal: tuple[int, int]
        self.owner: int
        self._pq: list[tuple[int, ...]] = [(0, self._job_base + state.order[k])]

    def run(self) -> GroupedDijkstra:
        state = self.state
        job_base = self._job_base
        pairs, floor = state.pairs, state.floor
        raw_job = state._raw_job
        slots = state.slots
        shift_l, negdiffs_l = state.shift, state.negdiffs
        free_l, heaps = state.free_n, state.heaps
        touched = state.touched
        check = self._check
        dist_job, won = self.dist_job, self.won
        pq = self._pq
        ub = _INF  # upper bound on this phase's terminal distance
        push, pop, bis = heapq.heappush, heapq.heappop, bisect_left
        pops = relaxed = inserts = dmins = mpops = 0
        while pq:
            entry = pop(pq)
            pops += 1
            value, node = entry[0], entry[1]
            if node >= job_base:
                u = node - job_base
                dist_job[u] = value
                b = value - raw_job[u]  # d(u) + p(u), less the common potential
                for v, w, e in pairs[u]:
                    if b + floor[e] > ub:
                        if b + w > ub:
                            break  # this pair's valley value, and every later one's, passes ub
                        continue  # its valley value is at least b + floor[e]
                    negd = negdiffs_l[v]
                    if negd is None:
                        negdiffs_l[v], free_l[v] = _machine_tables(state, v)
                        negd = negdiffs_l[v]
                    g = bis(negd, -w) + 1
                    h = floor[e] = w * g - shift_l[v][g - 1]
                    if h + b > ub:
                        continue  # even v's best slot for this line is beyond the terminal
                    fn = free_l[v]
                    if fn:
                        tv = w * fn + b  # this line's value at v's first unmatched slot
                        if tv < ub:
                            ub = tv
                    heap = heaps[v]
                    if heap is None:
                        heap = heaps[v] = EnvelopeHeap(shift_l[v], pq, v, check)
                        touched.append(v)
                    inserts += 1
                    heap.insert(w, b, g, u)
                relaxed += len(pairs[u])
                continue
            v, i = node, entry[3]
            heap = heaps[v]
            line = heap._lines[entry[2]]  # type: ignore[union-attr]
            if i != line.p and i != line.q:
                continue  # a candidate that has since moved (EnvelopeHeap.current)
            mpops += 1
            if i == len(slots[v]) + 1:
                stats = self.stats
                if stats is not None:
                    stats.group_relaxations.append(relaxed)
                    # Every entry but the source's was pushed: popped or left.
                    stats.heap_pushes += pops + len(pq) - 1
                    stats.envelope_inserts += inserts
                    stats.envelope_delete_mins += dmins
                    stats.machine_pops += mpops
                self.bound, self.terminal, self.owner = value, (v, i), line.payload
                return self
            heap.delete(line, i)  # type: ignore[union-attr]
            dmins += 1
            occupant = slots[v][i - 1]
            won[occupant] = line.payload
            push(pq, (value, job_base + occupant))  # matching edge is tight
        raise AssertionError("no unmatched slot reachable from the source job")

    def path(self, state: EktState) -> list[tuple[int, int, int]]:
        """(job, machine, slot) hops from the source job to the terminal."""
        hops = []
        v, i = self.terminal
        job = self.owner
        while True:
            hops.append((job, v, i))
            prev = state.job_slot[job]
            if prev is None:
                break
            v, i = prev
            job = self.won[job]
        hops.reverse()
        return hops


def update_potentials(state: EktState, run: GroupedDijkstra) -> None:
    """Fold a phase's distances into the cumulative potentials.

    Every node conceptually gains ``min(d(x), bound)``.  A node the
    phase never finalized -- every unmatched slot and every job not yet
    processed among them -- gains the bound, as the common potential
    (the sum of all phase bounds) does, so its offset needs no write:
    the update is one write per node the phase actually finalized.  A
    finalized job's slot, read before :func:`augment` moves it, was
    finalized at the job's distance and gains what the job gains; that
    machine is marked dirty.  A slot finalized at the bound whose job
    was never popped gains the bound, so its offset is left alone.
    """
    bound = run.bound
    raw_job, job_slot = state._raw_job, state.job_slot
    shift, negdiffs = state.shift, state.negdiffs
    for u, d in run.dist_job.items():
        gain = bound - d
        raw_job[u] += gain
        slot = job_slot[u]
        if slot is not None:
            v, i = slot
            shift[v][i - 1] -= gain
            negdiffs[v] = None


def augment(state: EktState, run: GroupedDijkstra) -> None:
    """Grow the matching by one along the phase's shortest path.

    Walk the winning-line owners backwards from the terminal slot: each
    slot on the path takes its owner, which frees the owner's previous
    slot for the job whose line won it, until the phase's source job
    starts the chain.
    The terminal slot keeps the common potential (shift 0), which keeps
    its new matching edge tight; the source's potential was already
    folded in by :func:`update_potentials`.  The terminal machine's
    prefix grows, so its next free slot, if it has one, gets shift 0 and
    it is marked dirty (the others on the path are).
    """
    v, i = run.terminal
    if i != len(state.slots[v]) + 1:
        raise ValueError(f"terminal {run.terminal} is not the first unmatched slot")
    state.negdiffs[v] = None
    job = run.owner
    state.slots[v].append(job)
    state.slot_weights[v].append(0)  # placeholder; fixed below
    if i < state.instance.machine_degree(v):
        state.shift[v].append(0)
    weight = state.instance.weight
    while True:
        w = weight(job, v)
        state.slots[v][i - 1] = job
        state.slot_weights[v][i - 1] = w
        ws = state.slot_weights[v]
        assert (i == 1 or ws[i - 2] >= w) and (i == len(ws) or w >= ws[i]), (
            f"slot weights of machine {v} lost their ordering at slot {i}"
        )
        prev = state.job_slot[job]
        state.job_slot[job] = (v, i)
        if prev is None:
            break
        v, i = prev
        job = run.won[job]
    state.iteration += 1


def solve_weighted(
    instance: BipartiteInstance,
    *,
    stats: Optional[WeightedStats] = None,
    check: bool = False,
) -> SemiMatching:
    """Minimum total weighted completion time assignment.

    ``stats`` collects counters.  ``check=True`` runs the same search
    with self-auditing envelope heaps (see :class:`GroupedDijkstra`) and
    the full invariant suite after every phase; it is slow and meant for
    tests.
    """
    state = EktState(instance)
    for _ in range(instance.num_jobs):
        run = GroupedDijkstra(state, stats=stats, check=check).run()
        update_potentials(state, run)
        augment(state, run)
        if check:
            check_invariants(state)
    if stats is not None:
        stats.iterations = state.iteration
    matching = state.matching()
    assert state.exploded_cost() == cost_of_semi_matching(instance, matching)
    return matching


# --------------------------------------------------------------------------
# Invariant suite (test instrumentation, exercised by the acceptance run)


def check_invariants(state: EktState) -> None:
    """Assert the between-phase invariant suite, on the offsets the search reads.

    Asserted, in this order:

    * search tables cached for a machine not marked dirty equal a fresh
      rebuild, so a missed dirty mark fails in the phase that misses it;
    * the matched jobs are ``order[:iteration]``, with consistent
      back-pointers, and every unmatched job sits at the common
      potential (``_raw_job[u] == 0``);
    * each machine's slot prefix holds its matched jobs' weights,
      non-increasing; its shifts cover that prefix and its first
      unmatched slot, whose shift is 0 (it sits at the common
      potential); and no shift is positive (no slot above the common
      potential), which the search's weight stop needs;
    * the sandwich ``w_i >= p(v^{i+1}) - p(v^i) >= w_{i+1}`` on every
      machine, the step to the first unmatched slot included (where only
      the left inequality applies);
    * every edge's floor lies between its weight and its valley value;
    * every exploded edge up to its machine's heap domain has
      non-negative reduced cost (``_raw_job[u]`` is at most the edge's
      valley value), and every matching edge is tight.

    Two properties the search relies on follow from the sandwich.  It
    makes the steps ``p(v^{i+1}) - p(v^i)`` non-increasing in i, so a
    heavier edge's valley (the first slot whose step is at most w) is no
    later than a lighter edge's: valleys are monotone in weight.  And a
    line's slot sequence ``f(i) = b + i*w - p(v^i)`` has steps
    ``f(i+1) - f(i) = w - (p(v^{i+1}) - p(v^i))``, non-decreasing in i,
    so every f-sequence is unimodal around its valley.
    """
    inst = state.instance
    for v in range(inst.num_machines):
        if state.negdiffs[v] is not None:
            cached = (state.negdiffs[v], state.free_n[v])
            assert cached == _machine_tables(state, v), (
                f"machine {v}: cached search tables are stale but not marked dirty"
            )
    done = set(state.order[: state.iteration])
    for u in range(inst.num_jobs):
        here = state.job_slot[u]
        assert (here is not None) == (u in done), f"job {u} matched out of processing order"
        if here is not None:
            v, i = here
            assert state.slots[v][i - 1] == u, f"job {u} back-pointer broken"
        else:
            assert state._raw_job[u] == 0, f"unmatched job {u} left the frame"

    for v in range(inst.num_machines):
        n = len(state.slots[v])
        deg = inst.machine_degree(v)
        assert n <= deg
        ws = state.slot_weights[v]
        assert ws == [inst.weight(u, v) for u in state.slots[v]]
        assert all(a >= b for a, b in zip(ws, ws[1:])), (
            f"machine {v}: slot weights {ws} not non-increasing"
        )
        shift = state.shift[v]
        assert len(shift) == min(n + 1, deg), f"machine {v}: slot shifts out of step"
        # No slot above the common potential: the search's weight stop needs it.
        assert all(s <= 0 for s in shift), f"machine {v}: a slot passed the frame"
        assert n == deg or shift[n] == 0, f"machine {v}: free slot left the frame"
        # Sandwich: w_i >= p(v^{i+1}) - p(v^i) >= w_{i+1}, read in the offset frame.
        shifts = shift[:n] + [0]
        for i in range(1, n + 1):
            diff = shifts[i] - shifts[i - 1]
            assert ws[i - 1] >= diff, (v, i, ws, shifts)
            if i < n:
                assert diff >= ws[i], (v, i, ws, shifts)

    for u in range(inst.num_jobs):
        y = state._raw_job[u]
        here = state.job_slot[u]
        for v, w, e in state.pairs[u]:
            # Slot v^i's reduced cost from u is row[i - 1] - y.
            row = [i * w - s for i, s in enumerate(state.shift[v], start=1)]
            valley = min(row)
            assert w <= state.floor[e] <= valley, f"edge ({u}, {v}): floor above its valley"
            assert y <= valley, (
                f"negative reduced cost {valley - y} on job {u} -> slot {v}^{row.index(valley) + 1}"
            )
            if here is not None and here[0] == v:
                assert row[here[1] - 1] == y, f"matching edge {u} -> {v}^{here[1]} not tight"


# --------------------------------------------------------------------------
# Independent baseline: explicit pruned exploded graph, ordinary Dijkstra.


def _pruned_exploded_edges(
    instance: BipartiteInstance,
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (job, machine, slot index, cost) for each kept exploded edge.

    Per job, only its |U| cheapest exploded edges can ever be used (a
    matching occupies at most |U| slots overall), so a per-job heap
    merges the neighbour streams u->v^1, u->v^2, ... and keeps the |U|
    smallest i*w values.
    """
    nU = instance.num_jobs
    for u in range(nU):
        stream = [(w, v, 1, w) for v, w in zip(instance.job_machines[u], instance.weights(u))]
        heapq.heapify(stream)
        taken = 0
        while stream and taken < nU:
            cost, v, i, w = heapq.heappop(stream)
            yield (u, v, i, cost)
            taken += 1
            if i < instance.machine_degree(v):
                heapq.heappush(stream, ((i + 1) * w, v, i + 1, w))


def baseline_exploded_solver(instance: BipartiteInstance) -> SemiMatching:
    """Textbook successive shortest paths on the explicit exploded graph.

    Shares no machinery with :func:`solve_weighted`: slots are real
    nodes, every incident edge is relaxed one at a time, and *all* node
    potentials (unmatched slots included) get the standard
    ``p += min(d, bound)`` update each phase.  Exists to cross-check the
    fast solver.
    """
    nU = instance.num_jobs
    # Node ids: jobs 0..nU-1, then one node per kept (v, i) slot.
    slot_id: dict[tuple[int, int], int] = {}
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(nU)]
    for u, v, i, cost in _pruned_exploded_edges(instance):
        sid = slot_id.get((v, i))
        if sid is None:
            sid = nU + len(slot_id)
            slot_id[(v, i)] = sid
        out_edges[u].append((sid, cost))
    n_nodes = nU + len(slot_id)
    slot_of_id = {sid: vi for vi, sid in slot_id.items()}

    INF = float("inf")
    potential = [0] * n_nodes
    matched_job_of_slot: dict[int, int] = {}
    slot_of_job: list[Optional[int]] = [None] * nU
    edge_cost: dict[tuple[int, int], int] = {}
    for u in range(nU):
        for sid, cost in out_edges[u]:
            edge_cost[(u, sid)] = cost

    for _phase in range(nU):
        dist = [INF] * n_nodes
        parent: list[Optional[int]] = [None] * n_nodes
        done = [False] * n_nodes
        pq: list[tuple[int, int]] = []
        for u in range(nU):
            if slot_of_job[u] is None:
                dist[u] = 0
                heapq.heappush(pq, (0, u))
        terminal = None
        bound = None
        while pq:
            d, x = heapq.heappop(pq)
            if done[x] or d > dist[x]:
                continue
            done[x] = True
            if x >= nU and x not in matched_job_of_slot:
                terminal = x
                bound = d
                break
            if x < nU:
                for sid, cost in out_edges[x]:
                    nd = d + cost + potential[x] - potential[sid]
                    if nd < dist[sid]:
                        dist[sid] = nd
                        parent[sid] = x
                        heapq.heappush(pq, (nd, sid))
            else:
                u = matched_job_of_slot[x]
                nd = d + -(edge_cost[(u, x)]) + potential[x] - potential[u]
                if nd < dist[u]:
                    dist[u] = nd
                    parent[u] = x
                    heapq.heappush(pq, (nd, u))
        assert terminal is not None and bound is not None, "no augmenting path"
        for x in range(n_nodes):
            potential[x] += min(dist[x], bound) if dist[x] < INF else bound
        # Flip the path: each slot on it takes the job that relaxed it,
        # freeing that job's old slot for the next step of the walk.
        x: Optional[int] = terminal
        while x is not None:
            u = parent[x]
            assert u is not None and u < nU
            slot_of_job[u], x = x, slot_of_job[u]
            matched_job_of_slot[slot_of_job[u]] = u  # type: ignore[index]

    assignment = []
    for u in range(nU):
        sid = slot_of_job[u]
        assert sid is not None
        assignment.append(slot_of_id[sid][0])
    return SemiMatching(tuple(assignment))
