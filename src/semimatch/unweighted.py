"""Optimal unweighted and convex-cost semi-matching.

The load-based problem is solved through a flow reduction.  Every job
contributes one unit of flow through its machine into a shared pool of
*cost centers*, one center per distinct marginal cost value, ordered by
value.  A machine carrying ``k`` jobs routes its ``k`` units through
its ``k`` cheapest marginals, its *slots*, so the cost of the flow (sum
of center values used) equals the cost of the assignment.  Marginals
never decrease, so a flow that fills each machine's cheapest slots
first is fixed by the machines' loads alone: the network stores loads,
not slot arcs.

An assignment is optimal exactly when the residual graph contains no
*cost-reducing path*: a path that frees a unit from an expensive center
and re-routes it into a cheaper one.  ``cancel_all`` eliminates every
such path by divide and conquer on the ordered center list: cancel all
paths from the upper half of the centers into the lower half with a
multi-source/multi-sink Dinitz max-flow pass, then split the graph
along the cut that the pass's last, failed layering has just found, and
recurse independently on the two sides.  Each layering grows from the
sources and from the sinks at once, a level of the cheaper side at a
time (the two search trees of Boykov & Kolmogorov, IEEE TPAMI 2004),
and the side that runs dry first gives the cut: the nodes residually
reachable from the sources, or those that reach a sink.  Edges crossing
the split are frozen and never touched again.

Searches scan only residual arcs, and none is stored.  A job edge
carries at most one unit, so the network records only the machine
carrying each job: a job's residual out-arcs go to every other machine
it links to, and a machine's to the jobs it carries and to the centers
of its free slots.  Inside one subproblem every center is a source or
a sink, so a machine is entered from a source exactly when its
costliest used slot is one, and reaches a sink exactly when its
cheapest free slot is one: two comparisons stand in for the slot arcs.
Centers above the costliest one in use never carry flow, because
cancelling only ever moves a unit into a strictly cheaper center.  A
job's only residual in-arc comes from the machine carrying it, so the
sink side steps back from a job in O(1), and so does the blocking flow,
which is found backward from the sinks: only the machines near the
sinks are scanned.

The unit-weight objective is the convex objective with
``f(k) = k*(k+1)/2`` (marginals ``1, 2, 3, ...``), and both share all
machinery here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    between centers.  ``edges_scanned`` counts what the searches probe,
    and no slot arc is among it.  The first layering of a call tests
    every machine of the component once for a used slot in a source and
    once for a free slot into a sink (the two level-1 tests), and each
    later one only the machines of the previous layering's two level-1
    sets.  Each layering then adds the arcs of every node it expands:
    on the source side a machine's carried jobs and a job's
    ``job_machines`` entries but its carrier, on the sink side a
    machine's ``machine_jobs`` entries and one step from a job to its
    carrier.  The backward blocking-flow search adds each
    ``machine_jobs`` entry it tries, each step from a job to its carrier
    and each test of a level-1 machine for a used slot still in a
    source.
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

    Machine v's slot ``i``, its ``i+1``-th cheapest marginal, feeds
    center ``_rank[v][i]``; ranks never decrease along the slots, and
    with unit costs ``_rank[v]`` is ``range(deg)``.  The flow fills each
    machine's cheapest slots, so the load ``len(_carried[v])`` says
    which slots carry a unit: those below it.  The slot arcs are
    implied, never stored: a used slot's center has a residual arc into
    the machine, and the machine one into each free slot's center.
    ``comp`` assigns every node to a subproblem during the
    divide-and-conquer; an edge is alive for a search only when both
    endpoints share the search's component, and a job always shares its
    carrier's.  A layering round labels the nodes of its source side
    with the stamp ``_stamp - 1`` in ``_seen`` and those of its sink side
    with ``_stamp``, their distances from their own side in ``_dist``.
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

        jobs_of = instance.machine_jobs
        self._rank: list[Sequence[int]]
        if costs is None:  # marginals 1, 2, ..., deg: slot i feeds center i
            self.center_values: tuple[int, ...] = tuple(
                range(1, max(map(len, jobs_of), default=0) + 1)
            )
            self._rank = [range(len(jobs)) for jobs in jobs_of]
        else:
            marginals = [costs.prefix(v, len(jobs)) for v, jobs in enumerate(jobs_of)]
            self.center_values = tuple(sorted({m for seq in marginals for m in seq}))
            index = {val: k for k, val in enumerate(self.center_values)}
            self._rank = [[index[m] for m in seq] for seq in marginals]
        self.num_centers = len(self.center_values)

        n_nodes = nU + nV + self.num_centers
        self.num_nodes = n_nodes
        self._carrier = [-1] * nU
        self._carried: list[list[int]] = [[] for _ in range(nV)]
        self._where = [0] * nU
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

    def flow_value(self) -> int:
        return sum(1 for c in self._carrier if c >= 0)

    def flow_cost(self) -> int:
        """Each machine's cheapest ``load`` marginals, summed."""
        values = self.center_values
        return sum(
            values[k]
            for rank, jobs in zip(self._rank, self._carried)
            for k in rank[: len(jobs)]
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


def build_cost_center_network(
    instance: BipartiteInstance, costs: Optional[ConvexMachineCost] = None
) -> CostCenterNetwork:
    """Construct the (zero-flow) cost-center network for an instance."""
    return CostCenterNetwork(instance, costs)


def seed_flow(network: CostCenterNetwork, matching: SemiMatching) -> CostCenterNetwork:
    """Load an assignment into the network as a saturating flow.

    Records each job's machine as its carrier.  Each machine's units
    fill its cheapest slots, so the flow cost equals the assignment cost
    from the start.  The network must hold no flow yet.  Raises
    ``ValueError``, leaving the network untouched, when the assignment
    has the wrong size or puts a job on no machine or along a non-edge.
    Returns the network for chaining.
    """
    bad = validate_semi_matching(network.instance, matching)
    if bad is not None:
        raise ValueError(f"invalid matching: {bad.kind}: {bad.detail}")
    if max(network._carrier, default=-1) >= 0:
        raise ValueError("network already carries flow")
    nU = network.num_jobs
    carried, where = network._carried, network._where
    for u, v in enumerate(matching.machine_of):
        lst = carried[v]
        where[u] = len(lst)
        lst.append(u)
    network._carrier[:] = [nU + v for v in matching.machine_of]
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
    machines: list[int],
    counters: CancelCounters,
) -> tuple[bool, list[int]]:
    """Max-flow from the ``sources`` centers into the cheaper centers of
    one component.

    Dinitz: each round lays out the shortest source-to-sink paths by a
    breadth-first search grown from both ends, then finds a blocking
    flow by a depth-first search that starts at the sinks and walks the
    layered graph backward.  ``machines`` lists the component's machines
    that have jobs.  The last round finds no path because one side of
    its search runs dry.  Returns ``(True, reached)`` when the source
    side did, ``reached`` being the jobs and machines residually
    reachable from the sources, and ``(False, reaching)`` when the sink
    side did, ``reaching`` being the jobs and machines that residually
    reach a sink.

    The component's centers are a contiguous range ``[lo, hi]``, and
    each is a source, at or above the cut ``sources[0]``, or a sink,
    below it.  Every slot of a component machine below ``lo`` carries a
    unit and every slot above ``hi`` none.  Either returned set cuts the
    component with no residual arc from the sources' part into the
    sinks' part: no arc leaves the nodes reachable from the sources, and
    none enters the nodes that reach a sink from outside them.  So the
    split keeps the slot invariant: a machine left with the sources has
    no free slot into a sink, and one left with the sinks no used slot
    in a source.  Slots fill cheapest first, so a machine has a used slot
    in a source exactly when its costliest used slot is one, and a free
    slot into a sink exactly when its cheapest free slot is one: those
    are the two sides' level-1 machines, and no machine is on both.  No
    center sits on a middle level.  Level 1 of either side can only
    shrink from one round to the next, so a round re-tests only the last
    round's: an augmentation lowers the load of its source-side end
    machine only, freeing a slot into a source, raises only its
    sink-side end machine's, into a sink slot below the cut, and each
    machine inside the path gives up one job and takes one.

    Jobs link only to machines, so machines fill the odd levels of
    either side and jobs the even ones.  A job's one residual in-arc
    comes from its carrier, which shares its component.  The source side
    steps from a machine to the jobs it carries and from a job to the
    other machines of the component it links to.  The sink side steps
    back from a machine to the jobs of the component that link to it and
    that it does not carry, and from a job to its carrier.  Each step
    expands whole levels of the side whose next level has fewer arcs to
    scan, counted as its frontier is built.  The search stops at the
    first node labelled by both sides: the two labels sum to the layer
    distance D, and every node on a shortest path already holds its
    label, so the level cut short is not finished.  The nodes it did
    label lie on no shortest path, and those of the sink side keep its
    stamp, out of the blocking flow's sight.  Every other sink-side
    label d becomes the level D - d.

    The blocking flow is searched backward because a job has exactly one
    residual in-arc, from its carrier: a job steps to its carrier in
    O(1), and only machines near the sinks are scanned.  With sources on
    level 0 and sinks on level D, a path starts at a sink-side level-1
    machine while its next slot is still a sink.  A job on level L steps
    to its carrier when that is labelled on level L-1 this round (a job
    on the sink side's last level may have an unlabelled carrier).  A
    machine on level L > 1 probes its jobs, from a current position, for a live one on
    level L-1, which links to it residually unless the machine carries
    it; such a job's carrier is not on level L-2, so the job dies there.
    A machine on level 1 ends the path while its top used slot is still
    a source.  An augmentation moves each job of the path to the machine
    after it: the level-1 machine frees its costliest unit from a source
    and the start machine's load grows into a sink.  A path holds a job,
    because a machine whose top used slot is a source has no free slot
    below the cut.
    """
    move = network._move
    carrier, carried, rank = network._carrier, network._carried, network._rank
    comp_of = network.comp
    dist, seen, arc = network._dist, network._seen, network._arc
    nU = network.num_jobs
    job_machines = network.instance.job_machines
    jobs_of = network.instance.machine_jobs

    cut = sources[0]
    rounds = 0
    distances: list[int] = []
    scanned = 0
    level_one = sink_one = machines  # the machines that may sit on either level 1

    while True:
        rounds += 1
        # --- Layering from both ends; the source side is labelled
        # ``stamp``, the sink side ``tstamp``.
        network._stamp += 2
        tstamp = network._stamp
        stamp = tstamp - 1
        front, front_arcs = [], 0  # source side: the machines with a used slot in a source
        scanned += len(level_one) + len(sink_one)
        for b in level_one:
            jobs = carried[b - nU]
            if jobs and rank[b - nU][len(jobs) - 1] >= cut:
                seen[b] = stamp
                dist[b] = 1
                front.append(b)
                front_arcs += len(jobs)
        back, back_arcs = [], 0  # sink side: the machines with a free slot into a sink
        for b in sink_one:
            r = rank[b - nU]
            k = len(carried[b - nU])
            if k < len(r) and r[k] < cut:
                seen[b] = tstamp
                dist[b] = 1
                back.append(b)
                back_arcs += len(jobs_of[b - nU])
        level_one, sink_one = front, back
        reached, reaching = front[:], back[:]
        level = back_level = 1
        D = 0
        while front and back:
            nxt, arcs = [], 0
            if front_arcs <= back_arcs:
                level += 1
                if level % 2 == 0:  # machines -> the jobs they carry
                    for x in front:
                        jobs = carried[x - nU]
                        scanned += len(jobs)
                        for u in jobs:
                            if seen[u] == tstamp:
                                D = level + dist[u]
                                break
                            seen[u] = stamp
                            dist[u] = level
                            arcs += len(job_machines[u]) - 1
                        else:
                            nxt += jobs
                            continue
                        break
                else:  # jobs -> the other machines they link to
                    for u in front:
                        scanned += len(job_machines[u]) - 1
                        for v in job_machines[u]:
                            y = nU + v
                            s = seen[y]
                            if s == stamp:
                                continue
                            if s == tstamp:
                                D = level + dist[y]
                                break
                            if comp_of[y] == comp:
                                seen[y] = stamp
                                dist[y] = level
                                nxt.append(y)
                                arcs += len(carried[v])
                        else:
                            continue
                        break
                if D:
                    break
                front, front_arcs = nxt, arcs
                reached += nxt
            else:
                back_level += 1
                if back_level % 2 == 0:  # machines <- the jobs that link to them
                    for z in back:
                        jobs = jobs_of[z - nU]
                        scanned += len(jobs)
                        for u in jobs:
                            s = seen[u]
                            if s == tstamp:
                                continue
                            if s == stamp:
                                D = back_level + dist[u]
                                break
                            if comp_of[u] == comp and carrier[u] != z:
                                seen[u] = tstamp
                                dist[u] = back_level
                                nxt.append(u)
                        else:
                            continue
                        break
                    arcs = len(nxt)
                else:  # jobs <- their carriers
                    scanned += len(back)
                    for u in back:
                        c = carrier[u]
                        s = seen[c]
                        if s == tstamp:
                            continue
                        if s == stamp:
                            D = back_level + dist[c]
                            break
                        seen[c] = tstamp
                        dist[c] = back_level
                        nxt.append(c)
                        arcs += len(jobs_of[c - nU])
                if D:
                    break
                back, back_arcs = nxt, arcs
                reaching += nxt
        if not D:
            break
        assert not distances or D > distances[-1], "layer distance not increasing"
        distances.append(D)

        # --- Blocking flow, searched backward from the sinks.  A node
        # found to reach no source, or a job moved by an augmentation
        # (its new carrier sits a layer later), gets the label -1 and is
        # dead for the rest of the round.
        for x in reached:
            arc[x] = 0
        for x in reaching:
            arc[x] = 0
            seen[x] = stamp
            dist[x] = D - dist[x]
        path: list[int] = []  # path[i] sits at level D-1-i
        si = 0
        while True:
            if not path:
                while si < len(sink_one):
                    x = sink_one[si]
                    k = len(carried[x - nU])
                    if dist[x] == D - 1 and k < len(rank[x - nU]) and rank[x - nU][k] < cut:
                        break
                    si += 1
                if si == len(sink_one):
                    break
                path.append(sink_one[si])
            y = path[-1]
            want = D - len(path) - 1  # the level of y's predecessor
            if y < nU:  # a job: its one in-arc comes from its carrier
                scanned += 1
                c = carrier[y]
                if seen[c] == stamp and dist[c] == want:
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
            else:  # a machine on level 1: is its top used slot still a source?
                scanned += 1
                k = len(carried[y - nU])
                if k and rank[y - nU][k - 1] >= cut:
                    # Augment: one unit, as a job edge carries one.
                    assert len(path) > 1, "a machine both fed by a source and feeding a sink"
                    for j in range(1, len(path), 2):
                        u = path[j]
                        dist[u] = -1
                        move(u, path[j - 1])
                    counters.units_cancelled += 1
                    path.clear()
                    continue
            dist[y] = -1
            path.pop()

    counters.rounds_per_cancel.append(rounds)
    counters.distances_per_cancel.append(distances)
    counters.edges_scanned += scanned
    return (True, reached) if not front else (False, reaching)


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
    upper_side, labelled = _cancel(network, comp, upper, machines, counters)
    # The labelled side, with its own centers, becomes a new component.
    # The sink side also takes the jobs its machines carry and it did not
    # label, so that every job keeps its carrier's component.
    new_comp = network._next_comp
    network._next_comp += 1
    comp_of, carried = network.comp, network._carried
    nU = network.num_jobs
    side_machines = [x for x in labelled if x >= nU]
    for x in labelled:
        comp_of[x] = new_comp
    for k in upper if upper_side else lower:
        comp_of[network.center_node(k)] = new_comp
    if not upper_side:
        for x in side_machines:
            for u in carried[x - nU]:
                comp_of[u] = new_comp
    rest_machines = [x for x in machines if comp_of[x] == comp]
    if upper_side:
        _cancel_all(network, new_comp, upper, side_machines, depth + 1, counters)
        _cancel_all(network, comp, lower, rest_machines, depth + 1, counters)
    else:
        _cancel_all(network, comp, upper, rest_machines, depth + 1, counters)
        _cancel_all(network, new_comp, lower, side_machines, depth + 1, counters)


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
    top = max(
        (rank[len(jobs) - 1] for rank, jobs in zip(network._rank, network._carried) if jobs),
        default=-1,
    )
    centers = list(range(top + 1))
    _cancel_all(network, 0, centers, _component_machines(network, 0), 1, counters)
    return network


def extract_semi_matching(network: CostCenterNetwork) -> SemiMatching:
    """Read the assignment back out of a saturating flow.

    Checks that every job has a carrier and that each machine's load,
    which fixes the slots it uses and so the flow cost, is the number of
    jobs the assignment gives it.
    """
    nU, carrier = network.num_jobs, network._carrier
    if min(carrier, default=0) < 0:
        raise ValueError(f"flow is not saturating: job {carrier.index(-1)} unassigned")
    matching = SemiMatching(tuple(c - nU for c in carrier))
    loads = [len(jobs) for jobs in network._carried]
    assert matching.degrees(network.num_machines) == loads, "machine loads drifted from the carriers"
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
