"""Optimal unweighted and convex-cost semi-matching.

The load-based problem is solved through a flow reduction.  Every job
contributes one unit of flow through its machine into a shared pool of
*cost centers*, one center per distinct marginal cost value, ordered by
value.  A machine carrying ``k`` jobs must route its ``k`` units through
its ``k`` cheapest marginals, so the cost of the flow (sum of center
values used) equals the cost of the assignment.

An assignment is optimal exactly when the residual graph contains no
*cost-reducing path*: a path that frees a unit from an expensive center
and re-routes it into a cheaper one.  ``cancel_all`` eliminates every
such path by divide and conquer on the ordered center list: cancel all
paths from the upper half of the centers into the lower half with a
multi-source/multi-sink Dinitz max-flow pass, whose blocking flows are
found backward from the sinks, then split the graph along residual
reachability from the upper half, which the pass's last, failed
layering has just labelled, and recurse independently on the two
sides.  Edges crossing the split are frozen and never touched again.

Searches scan only residual arcs.  A job edge carries at most one
unit, so the network stores no job arcs, only the machine carrying
each job: a job's residual out-arcs go to every other machine it links
to, and a machine's go to the jobs it carries and its unsaturated slot
edges, the only stored arcs.  Slot edges into centers above the costliest one the seeded flow uses
are never built: cancelling only ever moves a unit into a strictly
cheaper center, so those centers never carry flow.  The layering step
finds machines bottom-up when the frontier's jobs have more out-arcs
than the unlabelled machines have jobs (direction-optimizing BFS,
Beamer, Asanovic & Patterson, SC 2012): a job's only residual in-arc
comes from the machine carrying it, so an unlabelled machine joins the
next layer exactly when one of its jobs sits in the frontier.  The
same fact makes the blocking flow cheap to find from the sink side:
stepping back from a job to its carrier costs O(1), so only the
machines near the sinks are scanned.

The unit-weight objective is the convex objective with
``f(k) = k*(k+1)/2`` (marginals ``1, 2, 3, ...``), and both share all
machinery here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from typing import Optional, Sequence

from .core import BipartiteInstance, ConvexMachineCost, SemiMatching, validate_semi_matching

__all__ = [
    "CancelCounters",
    "CostCenterNetwork",
    "build_cost_center_network",
    "seed_flow",
    "cancel_all",
    "extract_semi_matching",
    "solve_unweighted",
    "solve_convex",
]


@dataclass
class CancelCounters:
    """Observability for one cancellation run.

    ``rounds_per_cancel[i]`` counts the blocking-flow rounds of the i-th
    cancellation pass, including the final round whose search finds no
    augmenting path.  ``distances_per_cancel[i]`` lists the layer-graph
    source-to-sink distances of the successful rounds, which must be
    strictly increasing.  ``units_cancelled`` is the total flow moved
    between centers.  ``edges_scanned`` counts the arcs the layering
    examines, plus every ``machine_jobs`` entry a bottom-up layering step
    probes, plus the backward blocking-flow search's probes: the slot
    arcs it reads start arcs from, each ``machine_jobs`` entry and slot
    edge it tries and each step from a job to its carrier.  A job's
    out-arcs count as its ``job_machines`` entries but its carrier.
    """

    rounds_per_cancel: list[int] = field(default_factory=list)
    distances_per_cancel: list[list[int]] = field(default_factory=list)
    max_depth: int = 0
    edges_scanned: int = 0
    units_cancelled: int = 0


class CostCenterNetwork:
    """Flow network for load-based semi-matching, with its current flow.

    Nodes are jobs, machines, and cost centers, packed into one id
    space: job ``u`` is node ``u``, machine ``v`` is node
    ``num_jobs + v``, and center ``k`` (0-based position in the sorted
    distinct-marginal list) is node ``num_jobs + num_machines + k``.
    The source and sink of the underlying max-flow formulation are
    implicit: job edges have a permanent supply of one unit each and
    centers drain freely, so neither endpoint ever appears in a residual
    search.

    A job edge has capacity 1, so a job's flow is just its machine, and
    job edges are not stored as arcs.  ``_carrier[u]`` is the node of
    the machine carrying job u (-1 before seeding) and the only record
    of it; ``_carried[v]`` lists machine v's jobs, job u at index
    ``_where[u]``.  :func:`seed_flow` fills the three and only
    :meth:`_move` changes them.  Job u's residual out-arcs go to the
    other machines of ``instance.job_machines[u]``.

    The slot edges from machines into centers are paired forward/reverse
    arcs (``eid ^ 1`` is the reverse of ``eid``) with remaining-capacity
    bookkeeping: a pair's ``_rem[eid] + _rem[eid ^ 1]`` is its capacity
    and never changes, so forward arc ``eid`` carries ``_rem[eid ^ 1]``.
    :func:`seed_flow` builds them, only into centers at or below the
    costliest one the seed uses.  ``_adj[x]`` lists exactly the residual
    slot arcs out of machine or center x, in no particular order (jobs
    share one empty entry): every change of slot flow goes through
    :meth:`_push`, which keeps the lists exact (``_pos[eid]`` is the
    arc's index in its tail's list).
    ``comp`` assigns every node to a subproblem during the
    divide-and-conquer; an edge is alive for a search only when both
    endpoints share the search's component.
    """

    def __init__(
        self,
        instance: BipartiteInstance,
        costs: Optional[ConvexMachineCost] = None,
    ) -> None:
        nU, nV = instance.num_jobs, instance.num_machines
        self.instance = instance
        self.num_jobs = nU
        self.num_machines = nV

        # Effective marginal list per machine (unit case: 1, 2, ..., deg).
        marginals: list[Sequence[int]] = []
        for v, jobs in enumerate(instance.machine_jobs):
            deg = len(jobs)
            if costs is None:
                marginals.append(range(1, deg + 1))
            else:
                seq = costs.marginals[v]
                if len(seq) < deg:
                    raise ValueError(
                        f"machine {v}: {len(seq)} marginals but degree {deg}"
                    )
                marginals.append(seq[:deg])
        self._marginals = marginals

        self.center_values: tuple[int, ...] = tuple(
            sorted({m for seq in marginals for m in seq})
        )
        self.num_centers = len(self.center_values)

        n_nodes = nU + nV + self.num_centers
        self.num_nodes = n_nodes
        self._carrier = [-1] * nU
        self._carried: list[list[int]] = [[] for _ in range(nV)]
        self._where = [0] * nU
        self._machine_center_edges: list[list[tuple[int, int]]] = [[] for _ in range(nV)]
        self._to, self._rem, self._pos = [], [], []
        self._adj: list[Sequence[int]] = [()] * nU + [[] for _ in range(nV + self.num_centers)]
        self.comp = [0] * n_nodes
        self._next_comp = 1
        # Reusable stamped scratch arrays for searches.
        self._dist = [0] * n_nodes
        self._seen = [0] * n_nodes
        self._arc = [0] * n_nodes
        self._stamp = 0

    # -- node id helpers ------------------------------------------------

    def machine_node(self, v: int) -> int:
        return self.num_jobs + v

    def center_node(self, k: int) -> int:
        return self.num_jobs + self.num_machines + k

    def center_value(self, k: int) -> int:
        return self.center_values[k]

    # -- flow accounting -------------------------------------------------

    def edge_flow(self, eid: int) -> int:
        """Flow on forward slot arc ``eid``: what its reverse arc can return."""
        return self._rem[eid ^ 1]

    def flow_value(self) -> int:
        return sum(1 for c in self._carrier if c >= 0)

    def flow_cost(self) -> int:
        return sum(
            val * self.edge_flow(eid)
            for per_v in self._machine_center_edges
            for eid, val in per_v
        )

    def _move(self, u: int, x: int) -> None:
        """Make machine node x the carrier of job u.

        u leaves its old carrier's list, the last entry taking its
        place, and joins the end of x's.
        """
        nU, carried, where = self.num_jobs, self._carried, self._where
        old = self._carrier[u]
        if old >= 0:
            lst = carried[old - nU]
            i = where[u]
            last = lst.pop()
            if last != u:
                lst[i] = last
                where[last] = i
        self._carrier[u] = x
        lst = carried[x - nU]
        where[u] = len(lst)
        lst.append(u)

    def _push(self, e: int, delta: int) -> None:
        """Send ``delta`` units along slot arc ``e``, keeping the lists exact.

        The reverse arc joins its tail's list when it turns residual, and
        ``e`` leaves its tail's list when it saturates, the last entry
        taking its place.
        """
        rem, adj, pos, to = self._rem, self._adj, self._pos, self._to
        r = e ^ 1
        if not rem[r]:
            lst = adj[to[e]]
            pos[r] = len(lst)
            lst.append(r)
        rem[r] += delta
        rem[e] -= delta
        if not rem[e]:
            lst = adj[to[r]]
            i = pos[e]
            last = lst.pop()
            if last != e:
                lst[i] = last
                pos[last] = i


def build_cost_center_network(
    instance: BipartiteInstance, costs: Optional[ConvexMachineCost] = None
) -> CostCenterNetwork:
    """Construct the (zero-flow) cost-center network for an instance."""
    return CostCenterNetwork(instance, costs)


def seed_flow(network: CostCenterNetwork, matching: SemiMatching) -> CostCenterNetwork:
    """Load an assignment into the network as a saturating flow.

    Records each job's machine as its carrier, then builds each
    machine's slot edges, in ascending value order with equal marginals
    merged into one capacitated edge, but only those into centers at or
    below ``top``, the costliest marginal the assignment uses.  Each
    machine's units enter its cheapest slots, so the flow cost equals
    the assignment cost from the start.  The network must hold no flow
    yet.  Raises ``ValueError``, leaving the network untouched, when the
    assignment has the wrong size or puts a job on no machine or along a
    non-edge.  Returns the network for chaining.
    """
    bad = validate_semi_matching(network.instance, matching)
    if bad is not None:
        raise ValueError(f"invalid matching: {bad.kind}: {bad.detail}")
    if any(network._rem[1::2]):
        raise ValueError("network already carries flow")
    nU, nV = network.num_jobs, network.num_machines
    machine_of = matching.machine_of
    loads = matching.degrees(nV)
    marginals = network._marginals
    top = max((marginals[v][k - 1] for v, k in enumerate(loads) if k), default=None)
    if top is None:  # no jobs
        return network
    carried, where = network._carried, network._where
    for u, v in enumerate(machine_of):
        lst = carried[v]
        where[u] = len(lst)
        lst.append(u)
    network._carrier[:] = [nU + v for v in machine_of]
    live = network.center_values[: bisect_right(network.center_values, top)]
    center_of = {val: nU + nV + k for k, val in enumerate(live)}
    to, rem, pos, adj = network._to, network._rem, network._pos, network._adj
    for v in range(nV):
        x = nU + v
        slots = network._machine_center_edges[v]
        for val, grp in groupby(marginals[v]):
            if val > top:
                break
            mult = sum(1 for _ in grp)
            slots.append((len(to), val))
            pos += (len(adj[x]), 0)
            adj[x].append(len(to))
            to += (center_of[val], x)
            rem += (mult, 0)
    push = network._push
    for v, load in enumerate(loads):
        for eid, _val in network._machine_center_edges[v]:
            if load == 0:
                break
            take = min(load, rem[eid])
            push(eid, take)
            load -= take
        assert load == 0, "machine degree exceeded by its own load"
    return network


def _component_machines(network: CostCenterNetwork, comp: int) -> list[int]:
    """Node ids of the machines with jobs in one component."""
    nU, comp_of = network.num_jobs, network.comp
    return [
        nU + v
        for v, jobs in enumerate(network.instance.machine_jobs)
        if jobs and comp_of[nU + v] == comp
    ]


def _cancel(
    network: CostCenterNetwork,
    comp: int,
    sources: Sequence[int],
    sinks: Sequence[int],
    machines: list[int],
    counters: CancelCounters,
) -> list[int]:
    """Max-flow from source centers to sink centers inside one component.

    Dinitz: breadth-first layering from all sources at once, stopping at
    the first layer that contains a sink, then a blocking flow found by a
    depth-first search that starts at the sinks and walks the layered
    graph backward.  Returns the list of nodes reachable from the sources
    in the final (failed) layering, which is exactly the residual
    reachability set used for the partition step.  ``machines`` lists the
    component's machines that have jobs.  Every center of the component
    that carries flow must be a source or a sink; one that carries none
    has no residual arc out, so it can only end a path, and paths end
    only in sinks.

    Jobs and centers link only to machines, so machines fill the odd
    layers.  A job is entered only from its carrier, so a scanned
    machine's jobs are unlabelled and in its component, and a job's scan
    skips its carrier as labelled.  A layer of machines is found
    bottom-up when the frontier's jobs have more out-arcs than the
    unlabelled machines have jobs: each unlabelled machine probes its
    jobs for one in the frontier.  The previous layer labelled every
    machine an earlier job links to, so any labelled job of an
    unlabelled machine sits in the frontier and links to it.

    The blocking flow is searched backward because a job has exactly one
    residual in-arc, from its carrier: a job steps to its carrier in
    O(1), and only machines near the sinks are scanned, where a forward
    search walks the whole layered graph.  With sources on level 0 and
    sinks on level D, machines sit on the odd levels and jobs on the
    even ones.  A machine on level L > 1 probes its jobs, from a current
    position, for a live one on level L-1; that job does not ride on the
    machine (the machine's own jobs sit on level L+1), so its edge in is
    residual.  A machine on level 1 is entered through a used slot into
    a source.  An augmentation moves each job of the path to the
    machine after it and pushes the path's two slot arcs.
    """
    to, rem, adj = network._to, network._rem, network._adj
    push, move = network._push, network._move
    carrier, carried = network._carrier, network._carried
    comp_of = network.comp
    dist, seen, arc = network._dist, network._seen, network._arc
    nU = network.num_jobs
    job_machines = network.instance.job_machines
    jobs_of = network.instance.machine_jobs
    slot_edges = network._machine_center_edges
    machine_degree = sum(len(jobs_of[b - nU]) for b in machines)

    src_nodes = [network.center_node(k) for k in sources]
    sink_set = {network.center_node(k) for k in sinks}
    rounds = 0
    distances: list[int] = []
    scanned = 0
    reachable: list[int] = []

    while True:
        rounds += 1
        # --- BFS layering, complete levels, stop once a sink level is done.
        network._stamp += 1
        stamp = network._stamp
        frontier = []
        for x in src_nodes:
            if seen[x] != stamp:
                seen[x] = stamp
                dist[x] = 0
                frontier.append(x)
        level = 0
        found = False
        marked = list(frontier)
        last: list[int] = []
        unseen, unseen_degree = machines, machine_degree
        job_arcs = 0  # out-arcs of the frontier's jobs
        while frontier and not found:
            level += 1
            nxt = []
            if level % 2:  # jobs and centers -> machines
                bottom_up = job_arcs > unseen_degree
                for x in frontier:
                    if x >= nU:  # a center
                        scanned += len(adj[x])
                        for e in adj[x]:
                            y = to[e]
                            if seen[y] != stamp and comp_of[y] == comp:
                                seen[y] = stamp
                                dist[y] = level
                                nxt.append(y)
                                unseen_degree -= len(jobs_of[y - nU])
                    elif not bottom_up:
                        scanned += len(job_machines[x]) - 1
                        for v in job_machines[x]:
                            y = nU + v
                            if seen[y] != stamp and comp_of[y] == comp:
                                seen[y] = stamp
                                dist[y] = level
                                nxt.append(y)
                                unseen_degree -= len(jobs_of[v])
                if bottom_up:
                    still = []
                    for b in unseen:
                        if seen[b] == stamp:
                            continue
                        for u in jobs_of[b - nU]:
                            scanned += 1
                            if seen[u] == stamp:
                                seen[b] = stamp
                                dist[b] = level
                                nxt.append(b)
                                unseen_degree -= len(jobs_of[b - nU])
                                break
                        else:
                            still.append(b)
                    unseen = still
            else:  # machines -> jobs and centers
                job_arcs = 0
                for x in frontier:
                    jobs = carried[x - nU]
                    scanned += len(jobs) + len(adj[x])
                    for u in jobs:
                        seen[u] = stamp
                        dist[u] = level
                        job_arcs += len(job_machines[u]) - 1
                    nxt += jobs
                    for e in adj[x]:
                        y = to[e]
                        if seen[y] != stamp and comp_of[y] == comp:
                            seen[y] = stamp
                            dist[y] = level
                            nxt.append(y)
                            if y in sink_set:
                                found = True
            last, frontier = frontier, nxt
            marked.extend(nxt)
        if not found:
            reachable = marked
            break
        D = level
        assert not distances or D > distances[-1], "layer distance not increasing"
        distances.append(D)

        # --- Blocking flow, searched backward from the sinks.  Level D-1
        # is the last frontier; its machines' residual slot arcs into
        # sinks are the start arcs.  A center above the costliest one in
        # use may keep slot edges without being a sink and sit on level
        # D too; a push into it would raise the cost.  A node found to
        # reach no source, or a job moved by an augmentation (its new
        # carrier sits a layer later), gets the label -1 and is dead for
        # the rest of the round.
        starts = [e for x in last for e in adj[x] if to[e] in sink_set]
        scanned += sum(len(adj[x]) for x in last)
        for x in marked:
            arc[x] = 0
        path: list[int] = []  # path[i] sits at level D-1-i
        si = 0
        while True:
            if not path:
                while si < len(starts) and not (
                    rem[starts[si]] and dist[to[starts[si] ^ 1]] == D - 1
                ):
                    si += 1
                if si == len(starts):
                    break
                path.append(to[starts[si] ^ 1])
            y = path[-1]
            want = D - len(path) - 1  # the level of y's predecessor
            if y < nU:  # a job: its one in-arc comes from its carrier,
                scanned += 1  # which labelled it, so is labelled this round
                c = carrier[y]
                if dist[c] == want:
                    path.append(c)
                    continue
            elif want:  # a machine: probe its jobs for one a layer earlier
                jobs = jobs_of[y - nU]
                n = len(jobs)
                first = i = arc[y]
                while i < n:
                    u = jobs[i]
                    if seen[u] == stamp and dist[u] == want:
                        break
                    i += 1
                arc[y] = i
                scanned += i - first + (i < n)
                if i < n:
                    path.append(u)
                    continue
            else:  # a machine on level 1: a used slot into a source
                slots = slot_edges[y - nU]
                n = len(slots)
                first = i = arc[y]
                while i < n:  # costliest first
                    e = slots[n - 1 - i][0]
                    if rem[e ^ 1] and dist[to[e]] == 0 and seen[to[e]] == stamp:
                        break
                    i += 1
                arc[y] = i
                scanned += i - first + (i < n)
                if i < n:
                    # Augment.  A job edge carries one unit, so a path
                    # through a job moves one; a lone machine moves as
                    # many as both its slot arcs allow.
                    if len(path) == 1:
                        delta = min(rem[starts[si]], rem[e ^ 1])
                    else:
                        delta = 1
                        for k in range(1, len(path), 2):
                            u = path[k]
                            dist[u] = -1
                            move(u, path[k - 1])
                    push(starts[si], delta)
                    push(e ^ 1, delta)
                    counters.units_cancelled += delta
                    path.clear()
                    continue
            dist[y] = -1
            path.pop()

    counters.rounds_per_cancel.append(rounds)
    counters.distances_per_cancel.append(distances)
    counters.edges_scanned += scanned
    return reachable


def _cancel_all(
    network: CostCenterNetwork,
    comp: int,
    centers: list[int],
    machines: list[int],
    depth: int,
    counters: CancelCounters,
) -> None:
    counters.max_depth = max(counters.max_depth, depth)
    if len(centers) <= 1:
        return
    half = (len(centers) + 1) // 2
    lower, upper = centers[:half], centers[half:]
    reachable = _cancel(network, comp, upper, lower, machines, counters)
    cheap_centers = {network.center_node(k) for k in lower}
    assert not cheap_centers.intersection(reachable), (
        "a cheap center stayed reachable after cancellation"
    )
    new_comp = network._next_comp
    network._next_comp += 1
    comp_of = network.comp
    for x in reachable:
        comp_of[x] = new_comp
    nU, end = network.num_jobs, network.num_jobs + network.num_machines
    upper_machines = [x for x in reachable if nU <= x < end]
    lower_machines = [x for x in machines if comp_of[x] == comp]
    _cancel_all(network, new_comp, upper, upper_machines, depth + 1, counters)
    _cancel_all(network, comp, lower, lower_machines, depth + 1, counters)


def cancel_all(
    network: CostCenterNetwork, *, counters: Optional[CancelCounters] = None
) -> CostCenterNetwork:
    """Eliminate every cost-reducing residual path; the flow becomes optimal.

    Divides and conquers over the centers at or below the costliest one
    in use; a cancelled path always ends in a strictly cheaper center,
    so no center above it can carry flow.  Consumes the network's
    component labelling: call it once per seeded network.  ``counters``,
    when given, is filled with round counts, layer distances, recursion
    depth, and scan totals.
    """
    if network.flow_value() != network.num_jobs:
        raise ValueError("cancel_all needs a saturating seeded flow")
    counters = counters if counters is not None else CancelCounters()
    to, rem = network._to, network._rem
    base = network.num_jobs + network.num_machines
    top = -1
    for per_v in network._machine_center_edges:
        for eid, _val in reversed(per_v):
            if rem[eid ^ 1]:
                top = max(top, to[eid] - base)
                break
    centers = list(range(top + 1))
    _cancel_all(network, 0, centers, _component_machines(network, 0), 1, counters)
    return network


def extract_semi_matching(network: CostCenterNetwork) -> SemiMatching:
    """Read the assignment back out of a saturating flow.

    Checks that each machine's units occupy its cheapest marginals (true
    for seeded flows by construction and for optimal flows because any
    gap would admit a cost-reducing two-edge path) and that the flow
    cost equals the assignment's cost.
    """
    nU, carrier = network.num_jobs, network._carrier
    for u, c in enumerate(carrier):
        if c < 0:
            raise ValueError(f"flow is not saturating: job {u} unassigned")
    matching = SemiMatching(tuple(c - nU for c in carrier))

    expected_cost = 0
    for v, load in enumerate(matching.degrees(network.num_machines)):
        marg = network._marginals[v]
        expected_cost += sum(marg[:load])
        filled = load
        for eid, _val in network._machine_center_edges[v]:
            f = network.edge_flow(eid)
            want = min(filled, f + network._rem[eid])
            assert f == want, f"machine {v}: center usage is not a cheapest prefix"
            filled -= want
    assert network.flow_cost() == expected_cost, "flow cost drifted from assignment cost"
    return matching


def _greedy_seed(instance: BipartiteInstance) -> SemiMatching:
    """Assign each job to its currently least-loaded neighbour.

    Ties go to the lower machine id.
    """
    loads = [0] * instance.num_machines
    out = []
    for adj in instance.job_machines:
        best = adj[0]
        best_load = loads[best]
        for v in adj:
            load = loads[v]
            if load < best_load or (load == best_load and v < best):
                best, best_load = v, load
        loads[best] = best_load + 1
        out.append(best)
    return SemiMatching(tuple(out))


def solve_unweighted(
    instance: BipartiteInstance, *, stats: Optional[CancelCounters] = None
) -> SemiMatching:
    """Minimum total completion time when every job takes unit time.

    Edge weights play no role in the load-based objective and are
    ignored.  Pass a :class:`CancelCounters` as ``stats`` to observe the
    run.  This is :func:`solve_convex` with triangular load costs.
    """
    return solve_convex(instance, stats=stats)


def solve_convex(
    instance: BipartiteInstance,
    costs: Optional[ConvexMachineCost] = None,
    *,
    stats: Optional[CancelCounters] = None,
) -> SemiMatching:
    """Minimize the sum of per-machine convex load costs f_v(load).

    ``costs=None`` means unit jobs, whose machine of load k costs
    1 + 2 + ... + k (the total completion time).
    """
    network = build_cost_center_network(instance, costs)
    seed_flow(network, _greedy_seed(instance))
    cancel_all(network, counters=stats)
    return extract_semi_matching(network)
