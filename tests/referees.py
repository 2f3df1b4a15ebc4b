"""Referees: slow, plainly correct twins of the library's fast code.

The tests check the library against these.  Some are code the library
has since replaced by a faster form (the per-token instance parser, the
seed built from its definition); others are public entry points that
only the tests call (``cancel`` on chosen centers,
``reachable_partition``); the rest are small views of instances and
networks that only the tests read (``weight``, ``layout``,
``edge_triples``, ``describe_node``), the explicit slot arcs a network
now implies by its loads (``residual_successors``) with the plain
searches over them (``reach``, ``coreach``), and the per-edge tuple
adjacency instances once stored and then offered as views
(``tuple_adjacency``).  The cost accounting and the solution parser
have per-job and per-record twins too (``machine_loads_per_job``,
``cost_per_job``, ``parse_assignment_by_records``), and the pairwise
generator draws one ``random()`` per pair (``gen_random_by_pairs``).
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Optional, Sequence, Union

from semimatch import unweighted
from semimatch.core import (
    MAX_WEIGHT,
    BipartiteInstance,
    InfeasibleInstanceError,
    SemiMatching,
    machine_cost,
    validate_semi_matching,
)
from semimatch.cover import GeneralGraph
from semimatch.formats import (
    BadWeightError,
    CountMismatchError,
    IdOutOfRangeError,
    MalformedHeaderError,
    ParseError,
)
from semimatch.unweighted import CancelCounters, CostCenterNetwork


# -- generators ------------------------------------------------------------


def gen_random_by_pairs(
    rng: Random,
    num_jobs: int,
    num_machines: int,
    *,
    edge_prob: float,
    min_weight: int = 1,
    max_weight: int = 1,
) -> BipartiteInstance:
    """``gen_random``'s ``edge_prob`` path as it read when it drew one
    ``rng.random()`` per (job, machine) pair, in job-major order."""
    pairs = set()
    for u in range(num_jobs):
        for v in range(num_machines):
            if rng.random() < edge_prob:
                pairs.add((u, v))
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


# -- instance text ---------------------------------------------------------


def _records(text: str):
    """Yield ``(line_no, tokens)`` for every significant line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        yield line_no, tokens


def _int_field(line_no: int, token: str, what: str, err=ParseError) -> int:
    try:
        return int(token)
    except ValueError:
        raise err(line_no, f"{what} {token!r} is not an integer") from None


def parse_instance_by_records(text: str) -> Union[BipartiteInstance, GeneralGraph]:
    """``parse_instance`` one field at a time over a record generator,
    with tuple keys for the duplicate checks: the same results, error
    classes, line numbers and messages, by the most direct route."""
    records = _records(text)
    try:
        line_no, tokens = next(records)
    except StopIteration:
        raise MalformedHeaderError(0, "empty input, expected a 'p' header") from None
    if tokens[0] != "p":
        raise MalformedHeaderError(line_no, f"expected 'p' header, got {tokens[0]!r}")
    kind = tokens[1] if len(tokens) > 1 else ""
    if kind == "semimatch":
        if len(tokens) != 5:
            raise MalformedHeaderError(
                line_no, "semimatch header needs 'p semimatch <jobs> <machines> <edges>'"
            )
        counts = [
            _int_field(line_no, t, "header count", MalformedHeaderError)
            for t in tokens[2:]
        ]
        num_jobs, num_machines, num_edges = counts
    elif kind == "cover":
        if len(tokens) != 4:
            raise MalformedHeaderError(
                line_no, "cover header needs 'p cover <vertices> <edges>'"
            )
        num_vertices, num_edges = (
            _int_field(line_no, t, "header count", MalformedHeaderError)
            for t in tokens[2:]
        )
    else:
        raise MalformedHeaderError(
            line_no, f"unknown problem kind {kind!r} (expected semimatch or cover)"
        )
    header_line = line_no
    if any(c < 0 for c in (counts if kind == "semimatch" else [num_vertices, num_edges])):
        raise MalformedHeaderError(header_line, "header counts must be non-negative")

    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, tokens in records:
        if tokens[0] != "e":
            raise ParseError(line_no, f"unknown record {tokens[0]!r}, expected 'e'")
        if len(edges) == num_edges:
            raise CountMismatchError(
                line_no, f"header declared {num_edges} edges but the body has more"
            )
        if kind == "semimatch":
            if len(tokens) != 4:
                raise BadWeightError(
                    line_no, "semimatch edge needs 'e <job> <machine> <weight>'"
                )
            job = _int_field(line_no, tokens[1], "job id")
            machine = _int_field(line_no, tokens[2], "machine id")
            weight = _int_field(line_no, tokens[3], "weight", BadWeightError)
            if not 1 <= job <= num_jobs:
                raise IdOutOfRangeError(
                    line_no, f"job id {job} out of range [1, {num_jobs}]"
                )
            if not 1 <= machine <= num_machines:
                raise IdOutOfRangeError(
                    line_no, f"machine id {machine} out of range [1, {num_machines}]"
                )
            if weight < 0 or weight > MAX_WEIGHT:
                raise BadWeightError(
                    line_no, f"weight {weight} outside [0, {MAX_WEIGHT}]"
                )
            key = (job, machine)
            if key in seen:
                raise ParseError(line_no, f"duplicate edge ({job}, {machine})")
            seen.add(key)
            edges.append((job - 1, machine - 1, weight))
        else:
            if len(tokens) != 3:
                raise ParseError(line_no, "cover edge needs 'e <u> <v>' (no weight)")
            a = _int_field(line_no, tokens[1], "vertex id")
            b = _int_field(line_no, tokens[2], "vertex id")
            for vid in (a, b):
                if not 1 <= vid <= num_vertices:
                    raise IdOutOfRangeError(
                        line_no, f"vertex id {vid} out of range [1, {num_vertices}]"
                    )
            if a == b:
                raise ParseError(line_no, f"self-loop at vertex {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ParseError(line_no, f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            edges.append((a - 1, b - 1))

    if len(edges) != num_edges:
        raise CountMismatchError(
            header_line,
            f"header declared {num_edges} edges but the body has {len(edges)}",
        )
    if kind == "semimatch":
        return BipartiteInstance(num_jobs, num_machines, edges)
    graph = GeneralGraph(num_vertices, edges)
    for v in range(num_vertices):
        if not graph.adj[v]:
            raise InfeasibleInstanceError(
                f"vertex {v} has no incident edges; no edge cover exists"
            )
    return graph


def parse_assignment_by_records(text: str) -> tuple[tuple[tuple[int, int], ...], int]:
    """``parse_assignment`` over a record generator, one field at a time:
    the same pairs, cost, error classes, line numbers and messages."""
    pairs: list[tuple[int, int]] = []
    cost: Optional[int] = None
    for line_no, tokens in _records(text):
        if tokens[0] == "cost":
            if cost is not None:
                raise ParseError(line_no, "second 'cost' trailer")
            if len(tokens) != 2:
                raise ParseError(line_no, "cost trailer needs 'cost <value>'")
            cost = _int_field(line_no, tokens[1], "cost")
        elif tokens[0] == "a":
            if cost is not None:
                raise ParseError(line_no, "'a' record after the cost trailer")
            if len(tokens) != 3:
                raise ParseError(line_no, "assignment record needs 'a <x> <y>'")
            x = _int_field(line_no, tokens[1], "id")
            y = _int_field(line_no, tokens[2], "id")
            if x < 1 or y < 1:
                raise IdOutOfRangeError(line_no, f"ids must be 1-based, got {x}, {y}")
            pairs.append((x - 1, y - 1))
        else:
            raise ParseError(line_no, f"unknown record {tokens[0]!r}")
    if cost is None:
        raise ParseError(0, "missing 'cost' trailer")
    return tuple(pairs), cost


# -- cost accounting -------------------------------------------------------


def machine_loads_per_job(instance: BipartiteInstance, matching: SemiMatching) -> list[list[int]]:
    """``SemiMatching.machine_loads`` on a matching of the right size, one
    ``instance.weight`` call per job: the same loads, or the same
    ``KeyError`` naming the first job assigned along a non-edge."""
    loads: list[list[int]] = [[] for _ in range(instance.num_machines)]
    for u, v in enumerate(matching.machine_of):
        try:
            w = instance.weight(u, v)
        except ValueError:
            raise KeyError(f"no edge ({u}, {v})") from None
        loads[v].append(w)
    return loads


def cost_per_job(instance: BipartiteInstance, matching: SemiMatching) -> int:
    """``cost_of_semi_matching`` on a matching of the right size: every
    machine's load through ``machine_cost``, unit weights included."""
    return sum(machine_cost(ws) for ws in machine_loads_per_job(instance, matching))


# -- views the library itself never needs ----------------------------------


def weight(instance: BipartiteInstance, u: int, v: int) -> int:
    """Weight of edge (u, v); raises KeyError if absent."""
    for vv, w in zip(instance.job_machines[u], instance.weights(u)):
        if vv == v:
            return w
    raise KeyError(f"no edge ({u}, {v})")


def layout(instance: BipartiteInstance):
    """What an instance stores: its ids per job and per machine, and its
    weights per job (``None`` when every weight is 1)."""
    return instance.job_machines, instance.machine_jobs, instance.job_weights


def max_machine_degree(instance: BipartiteInstance) -> int:
    return max((len(us) for us in instance.machine_jobs), default=0)


def edge_triples(instance: BipartiteInstance) -> tuple[tuple[int, int, int], ...]:
    """Every edge of ``instance`` as a ``(job, machine, weight)`` triple,
    in job order and, within a job, in input order."""
    return tuple(
        (u, v, w)
        for u, vs in enumerate(instance.job_machines)
        for v, w in zip(vs, instance.weights(u))
    )


def tuple_adjacency(num_jobs: int, num_machines: int, edges: Iterable[Sequence[int]]):
    """``(job_adj, machine_adj, edges)`` as an instance built from the
    same constructor input once stored them, one tuple per edge: each
    job's ``(machine, weight)`` pairs in input order, each machine's
    ``(job, weight)`` pairs in job order, and the ``(job, machine,
    weight)`` triples in job order."""
    job_adj: list[list[tuple[int, int]]] = [[] for _ in range(num_jobs)]
    for u, v, *w in edges:
        job_adj[u].append((v, w[0] if w else 1))
    machine_adj: list[list[tuple[int, int]]] = [[] for _ in range(num_machines)]
    for u, adj in enumerate(job_adj):
        for v, w in adj:
            machine_adj[v].append((u, w))
    triples = tuple((u, v, w) for u, adj in enumerate(job_adj) for v, w in adj)
    return tuple(map(tuple, job_adj)), tuple(map(tuple, machine_adj)), triples


def describe_node(network: CostCenterNetwork, x: int) -> tuple[str, int]:
    """Classify a node id as ("job"|"machine"|"center", local index)."""
    if x < network.num_jobs:
        return ("job", x)
    if x < network.num_jobs + network.num_machines:
        return ("machine", x - network.num_jobs)
    return ("center", x - network.num_jobs - network.num_machines)


def assigned_machine(network: CostCenterNetwork, u: int) -> Optional[int]:
    """Machine currently carrying job u's unit, if any."""
    c = network._carrier[u]
    return None if c < 0 else c - network.num_jobs


def live_top(network: CostCenterNetwork) -> int:
    """The costliest center a used slot feeds, or -1 with no flow."""
    return max(
        (rank[len(jobs) - 1] for rank, jobs in zip(network._rank, network._carried) if jobs),
        default=-1,
    )


def residual_successors(network: CostCenterNetwork, x: int, top: Optional[int] = None) -> list[int]:
    """Residual out-neighbours of x, ignoring components.

    The slot arcs are derived from the loads: a machine's go to the
    jobs it carries and to each distinct center among its free slots,
    up to center ``top`` (by default the costliest center in use), and
    a center's go to every machine with a used slot in it."""
    nU, nV = network.num_jobs, network.num_machines
    if x < nU:
        return [nU + v for v in network.instance.job_machines[x] if nU + v != network._carrier[x]]
    if top is None:
        top = live_top(network)
    if x < nU + nV:
        jobs = network._carried[x - nU]
        free = sorted({k for k in network._rank[x - nU][len(jobs):] if k <= top})
        return jobs + [network.center_node(k) for k in free]
    k = x - nU - nV
    return [
        nU + v
        for v, (rank, jobs) in enumerate(zip(network._rank, network._carried))
        if k in rank[: len(jobs)]
    ]


# -- the cost-center network ----------------------------------------------


def seed_flow_per_unit(network: CostCenterNetwork, matching: SemiMatching) -> CostCenterNetwork:
    """``seed_flow`` after ``validate_semi_matching``, filling the carrier
    record from its definition."""
    bad = validate_semi_matching(network.instance, matching)
    if bad is not None:
        raise ValueError(f"invalid matching: {bad.kind}: {bad.detail}")
    if any(c >= 0 for c in network._carrier):
        raise ValueError("network already carries flow")
    nU, nV = network.num_jobs, network.num_machines
    machine_of = matching.machine_of
    network._carrier = [nU + v for v in machine_of]
    network._carried = [[u for u in range(nU) if machine_of[u] == v] for v in range(nV)]
    network._where = [network._carried[v].index(u) for u, v in enumerate(machine_of)]
    return network


# -- cancellation on chosen centers ------------------------------------------


def component_nodes(network: CostCenterNetwork, comp: int) -> list[int]:
    return [x for x in range(network.num_nodes) if network.comp[x] == comp]


def cancel(
    network: CostCenterNetwork,
    sources: Iterable[int],
    sinks: Iterable[int],
    *,
    counters: Optional[CancelCounters] = None,
) -> CostCenterNetwork:
    """Cancel every residual path from ``sources`` centers to ``sinks``.

    Center arguments are 0-based positions into ``center_values``.
    Every source must be strictly more expensive than every sink, so
    each unit moved lowers the flow cost by the value difference of its
    endpoint centers, and every center that a machine of the subproblem
    has a slot into, up to the costliest center in use, must be one or
    the other.  The job-side flow value is untouched.
    """
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    for k in sources + sinks:
        if not 0 <= k < network.num_centers:
            raise ValueError(f"no such center: {k}")
    if not sources or not sinks:
        return network
    if sources[0] <= sinks[-1]:
        raise ValueError(
            f"center {sources[0]} may not be cancelled into center {sinks[-1]}: "
            "every source must be strictly costlier than every sink"
        )
    comps = {network.comp[network.center_node(k)] for k in sources + sinks}
    if len(comps) != 1:
        raise ValueError("sources and sinks span different subproblems")
    comp = comps.pop()
    ends = set(sources + sinks)
    top, nU = live_top(network), network.num_jobs
    for v, rank in enumerate(network._rank):
        if network.comp[nU + v] == comp:
            for k in rank:
                if k <= top and k not in ends:
                    raise ValueError(
                        f"center {k} has slots in the subproblem but is neither a source nor a sink"
                    )
    counters = counters if counters is not None else CancelCounters()
    machines = unweighted._component_machines(network, comp)
    unweighted._cancel(network, comp, sources, machines, counters)
    return network


def _layers(seed_nodes: Iterable[int], step) -> dict[int, int]:
    """Breadth-first distance from ``seed_nodes`` of every node reachable
    from them, ``step(x)`` listing the nodes one arc from x."""
    dist = dict.fromkeys(seed_nodes, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def reach(
    network: CostCenterNetwork, comp: int, seed_nodes: Iterable[int], top: Optional[int] = None
) -> dict[int, int]:
    """Residual reachability inside one component (plain BFS): every node
    reachable from ``seed_nodes``, with its distance from the nearest.
    ``top`` is passed on to ``residual_successors``."""
    comp_of = network.comp
    return _layers(
        seed_nodes,
        lambda x: [y for y in residual_successors(network, x, top) if comp_of[y] == comp],
    )


def coreach(
    network: CostCenterNetwork, comp: int, seed_nodes: Iterable[int], top: Optional[int] = None
) -> dict[int, int]:
    """Residual co-reachability inside one component (plain BFS over the
    reversed arcs): every node from which a node of ``seed_nodes`` is
    reachable, with its distance to the nearest.  ``top`` is passed on
    to ``residual_successors``."""
    comp_of = network.comp
    preds: dict[int, list[int]] = {x: [] for x in component_nodes(network, comp)}
    for x in preds:
        for y in residual_successors(network, x, top):
            if comp_of[y] == comp:
                preds[y].append(x)
    return _layers(seed_nodes, preds.__getitem__)


def reachable_partition(
    network: CostCenterNetwork, seed: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Split a component into (reachable-from-seed, rest), as node ids.

    ``seed`` holds center positions; the search runs in their component
    and follows residual edges only.  With an empty seed the reachable
    side is empty and the complement is the whole node set.
    """
    seed = sorted(set(seed))
    if not seed:
        return frozenset(), frozenset(range(network.num_nodes))
    comps = {network.comp[network.center_node(k)] for k in seed}
    if len(comps) != 1:
        raise ValueError("seed centers span different subproblems")
    comp = comps.pop()
    S = frozenset(reach(network, comp, [network.center_node(k) for k in seed]))
    rest = frozenset(x for x in component_nodes(network, comp) if x not in S)
    return S, rest
