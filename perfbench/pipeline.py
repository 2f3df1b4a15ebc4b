"""One instance end to end, with tracing off or on.

:func:`run_instance` makes, in one process and in the same order, the
calls that ``semimatch solve`` and ``semimatch verify`` make: parse the
instance text, solve, compute the cost trailer, emit the solution text,
parse it back, check every pair, validate the assignment (or cover) and
recompute its cost.  The instance passes only when the solution is
valid, its trailer equals the recomputed cost and both equal the
committed reference.  ``verify`` reuses the parsed instance instead of
parsing the text a second time.

With a :class:`Tracer`, every step runs inside a span named
``<layer>.<step>``, and the solver is replaced by a driver that makes
the solver's own calls from outside so that each stage gets a span:

* weighted: ``EktState``, then per phase ``GroupedDijkstra(state,
  stats=...).run()``, ``update_potentials`` and ``augment``, then the
  final cost check of ``solve_weighted``;
* unit: ``build_cost_center_network``, ``_greedy_seed`` + ``seed_flow``,
  ``cancel_all(counters=...)``, ``extract_semi_matching``;
* cover: ``find_center`` itself, with the ``semimatch.cover`` functions
  it calls (``minimum_edge_cover``, ``_blossom_mate``, ``levelling``,
  ``solve_unweighted``) swapped for spanned wrappers while it runs.

Work done only to observe (reading the augmenting path, envelope
domains, the greedy cost) runs in ``trace.*`` spans, so it is counted as
tracing overhead and not charged to a program layer.  The envelope heap
is observed through counts only: its calls happen inside the search.
"""

from __future__ import annotations

from contextlib import nullcontext
from statistics import median
from time import perf_counter_ns
from typing import Callable, Optional

import semimatch.cover as cover_module
from semimatch.core import (
    BipartiteInstance,
    SemiMatching,
    cost_of_semi_matching,
    validate_semi_matching,
)
from semimatch.cover import EdgeCover, GeneralGraph, find_center
from semimatch.formats import emit_assignment, parse_assignment, parse_instance
from semimatch.unweighted import (
    CancelCounters,
    _greedy_seed,
    build_cost_center_network,
    cancel_all,
    extract_semi_matching,
    seed_flow,
    solve_unweighted,
)
from semimatch.weighted import (
    EktState,
    GroupedDijkstra,
    WeightedStats,
    augment,
    solve_weighted,
    update_potentials,
)

# The untraced solvers are called exactly as the CLI calls them.  Never
# pass ``heap_factory``, ``recorder`` or ``check=True`` to the weighted
# solver here or in the traced driver: any of them sets
# ``GroupedDijkstra._eager`` and switches the search to its
# drain-everything path, which is a different program from the one users
# run.  Only ``stats=`` objects are attached, and only when tracing.
SOLVERS: dict[str, Callable] = {
    "weighted": solve_weighted,
    "unit": solve_unweighted,
    "cover": find_center,
}


class VerifyFailed(Exception):
    """The solution text did not verify against the instance or reference."""


class Tracer:
    """Spans kept in memory: ``[name, start_ns, end_ns, parent, instance]``.

    ``parent`` is the index of the enclosing span, or -1 for a root.
    ``instance`` tags every span of one instance with the same id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        parent = t._open[-1] if t._open else -1
        t.spans.append([self.name, perf_counter_ns(), 0, parent, t.instance])
        t._open.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][2] = perf_counter_ns()
        t._open.pop()


_NO_SPAN = nullcontext()


def _no_span(name: str) -> nullcontext:
    return _NO_SPAN


def run_instance(
    kind: str,
    text: str,
    reference: Optional[int],
    *,
    tracer: Optional[Tracer] = None,
    observed: Optional[dict] = None,
) -> tuple[int, int]:
    """Parse, solve, write, re-read and verify one instance.

    Returns ``(e2e_ns, solve_ns)``.  Raises :class:`VerifyFailed` when
    the solution is invalid, its trailer is wrong or its cost differs
    from ``reference`` (``None`` skips only the reference comparison).
    With ``tracer`` the traced solver driver fills ``observed`` with
    the per-layer counters.
    """
    obs = observed if observed is not None else {}
    if tracer is None:
        span = _no_span
        solve = SOLVERS[kind]
    else:
        span = tracer.span
        traced = TRACED_SOLVERS[kind]

        def solve(instance):
            return traced(instance, tracer, obs)

    start = perf_counter_ns()
    with span("bench.e2e"):
        with span("formats.parse"):
            instance = parse_instance(text)
        solve_start = perf_counter_ns()
        result = solve(instance)
        solve_ns = perf_counter_ns() - solve_start
        if kind == "cover":
            with span("cover.cost"):
                cost = result.balanced_cost()
            pairs_out = sorted(result.edges)
        else:
            with span("core.cost"):
                cost = cost_of_semi_matching(instance, result)
            pairs_out = enumerate(result.machine_of)
        with span("formats.emit_assignment"):
            solution = emit_assignment(pairs_out, cost)
        with span("formats.parse_assignment"):
            pairs, declared = parse_assignment(solution)
        if kind == "cover":
            actual = _verify_cover(instance, pairs, span)
        else:
            actual = _verify_assignment(instance, pairs, span)
        if actual != declared:
            raise VerifyFailed(f"declared cost {declared} but the solution costs {actual}")
        if reference is not None and actual != reference:
            raise VerifyFailed(f"cost {actual} differs from the reference {reference}")
    obs["formats.bytes_parsed"] = len(text) + len(solution)  # both texts are ASCII
    return perf_counter_ns() - start, solve_ns


def _verify_assignment(instance: BipartiteInstance, pairs, span) -> int:
    machine_of: list[Optional[int]] = [None] * instance.num_jobs
    for job, machine in pairs:
        if not 0 <= job < instance.num_jobs or machine_of[job] is not None:
            raise VerifyFailed(f"job id {job + 1} out of range or assigned twice")
        machine_of[job] = machine
    if None in machine_of:
        raise VerifyFailed("some job has no assignment")
    with span("core.verify"):
        matching = SemiMatching(tuple(machine_of))
        violation = validate_semi_matching(instance, matching)
        if violation is not None:
            raise VerifyFailed(f"{violation.kind}: {violation.detail}")
        return cost_of_semi_matching(instance, matching)


def _verify_cover(graph: GeneralGraph, pairs, span) -> int:
    edge_set = set(graph.edges)
    for a, b in pairs:
        if ((a, b) if a < b else (b, a)) not in edge_set:
            raise VerifyFailed(f"({a + 1}, {b + 1}) is not a graph edge")
    with span("cover.verify"):
        try:
            return EdgeCover(graph.num_vertices, pairs).balanced_cost()
        except ValueError as exc:
            raise VerifyFailed(str(exc)) from None


def _add(obs: dict, key: str, value) -> None:
    obs[key] = obs.get(key, 0) + value


def traced_weighted(instance: BipartiteInstance, tracer: Tracer, obs: dict) -> SemiMatching:
    """``solve_weighted``'s phase loop, driven from outside with spans."""
    span = tracer.span
    stats = WeightedStats()
    with span("weighted.setup"):
        state = EktState(instance)
    num_machines = instance.num_machines
    with span("trace.domains"):
        domains = [state.heap_domain(v) for v in range(num_machines)]
        domain_sum, domain_max = sum(domains), max(domains)
    domain_means: list[float] = []
    popped: list[int] = []
    path_lens: list[int] = []
    for _ in range(instance.num_jobs):
        with span("weighted.search"):
            run = GroupedDijkstra(state, stats=stats).run()
        with span("trace.path"):  # the path must be read before augment
            path_lens.append(len(run.path(state)))
            popped.append(len(run.dist_job))
            domain_means.append(domain_sum / num_machines)
        with span("weighted.potentials"):
            update_potentials(state, run)
        with span("weighted.augment"):
            augment(state, run)
        with span("trace.domains"):
            v = run.terminal[0]  # only the terminal machine gains a slot
            d = state.heap_domain(v)
            domain_sum += d - domains[v]
            domains[v] = d
            domain_max = max(domain_max, d)
    with span("weighted.final_check"):
        matching = state.matching()
        if state.exploded_cost() != cost_of_semi_matching(instance, matching):
            raise AssertionError("exploded cost drifted from the assignment cost")
    per_phase = stats.group_relaxations
    relaxations = sum(per_phase)
    phases = state.iteration
    obs.update({
        "weighted.phases": phases,
        "weighted.relaxations": relaxations,
        "weighted.relax_per_phase_p50": median(per_phase),
        "weighted.relax_per_phase_max": max(per_phase),
        "weighted.scan_fraction": relaxations / (phases * instance.num_edges),
        "weighted.jobs_popped_per_phase_p50": median(popped),
        "weighted.path_len_p50": median(path_lens),
        "envelope.inserts": stats.envelope_inserts,
        "envelope.delete_mins": stats.envelope_delete_mins,
        "envelope.frontier_pushes": stats.heap_pushes,
        "envelope.inserts_per_relaxation": stats.envelope_inserts / relaxations,
        "envelope.domain_mean": sum(domain_means) / len(domain_means),
        "envelope.domain_max": domain_max,
    })
    return matching


def traced_unweighted(instance: BipartiteInstance, tracer: Tracer, obs: dict) -> SemiMatching:
    """``solve_unweighted``'s four stages, driven from outside with spans.

    Counters add up over calls, so the cover driver can route every
    ``solve_unweighted`` call of one ``find_center`` through here.
    """
    span = tracer.span
    with span("unweighted.build"):
        network = build_cost_center_network(instance)
    with span("unweighted.seed"):
        seed = _greedy_seed(instance)
        seed_flow(network, seed)
    counters = CancelCounters()
    with span("unweighted.cancel"):
        cancel_all(network, counters=counters)
    with span("unweighted.extract"):
        matching = extract_semi_matching(network)
    with span("trace.greedy_gap"):
        gap = cost_of_semi_matching(instance, seed) - cost_of_semi_matching(instance, matching)
    _add(obs, "unweighted.cancel_calls", len(counters.rounds_per_cancel))
    _add(obs, "unweighted.rounds", sum(counters.rounds_per_cancel))
    _add(obs, "unweighted.useful_rounds", sum(map(len, counters.distances_per_cancel)))
    _add(obs, "unweighted.edges_scanned", counters.edges_scanned)
    _add(obs, "unweighted.units_cancelled", counters.units_cancelled)
    _add(obs, "unweighted.greedy_gap", gap)
    obs["unweighted.max_depth"] = max(obs.get("unweighted.max_depth", 0), counters.max_depth)
    return matching


def traced_find_center(graph: GeneralGraph, tracer: Tracer, obs: dict) -> EdgeCover:
    """``find_center`` with spans around the cover functions it calls."""
    span = tracer.span
    originals = {
        name: getattr(cover_module, name)
        for name in ("_blossom_mate", "minimum_edge_cover", "levelling", "solve_unweighted")
    }
    seen: dict = {}

    def spanned(name: str, fn: Callable, keep: Optional[str] = None) -> Callable:
        def call(*args):
            with span(name):
                out = fn(*args)
            if keep:
                seen[keep] = out
            return out

        return call

    try:
        cover_module._blossom_mate = spanned("cover.blossom", originals["_blossom_mate"])
        cover_module.minimum_edge_cover = spanned(
            "cover.min_cover", originals["minimum_edge_cover"], keep="min_cover"
        )
        cover_module.levelling = spanned("cover.levelling", originals["levelling"], keep="levels")
        cover_module.solve_unweighted = lambda inst: traced_unweighted(inst, tracer, obs)
        with span("cover.find_center"):
            result = find_center(graph)
    finally:
        for name, fn in originals.items():
            setattr(cover_module, name, fn)
    with span("trace.cost_drop"):
        obs["cover.cost_drop"] = seen["min_cover"].balanced_cost() - result.balanced_cost()
    obs["cover.levelled_vertices"] = len(seen["levels"].level)
    return result


TRACED_SOLVERS: dict[str, Callable] = {
    "weighted": traced_weighted,
    "unit": traced_unweighted,
    "cover": traced_find_center,
}

SPAN_METRICS = {
    "formats.parse_s": ("formats.parse",),
    "formats.solution_io_s": ("formats.emit_assignment", "formats.parse_assignment"),
    "core.verify_s": ("core.verify",),
    "weighted.setup_s": ("weighted.setup",),
    "weighted.search_s": ("weighted.search",),
    "weighted.potentials_s": ("weighted.potentials",),
    "weighted.augment_s": ("weighted.augment",),
    "weighted.final_check_s": ("weighted.final_check",),
    "unweighted.build_s": ("unweighted.build",),
    "unweighted.seed_s": ("unweighted.seed",),
    "unweighted.cancel_s": ("unweighted.cancel",),
    "unweighted.extract_s": ("unweighted.extract",),
    "cover.blossom_s": ("cover.blossom",),
    "cover.min_cover_s": ("cover.min_cover",),
    "cover.levelling_s": ("cover.levelling",),
    "cover.find_center_s": ("cover.find_center",),
}
COUNTERS = (
    "formats.bytes_parsed",
    "weighted.phases",
    "weighted.relaxations",
    "weighted.relax_per_phase_p50",
    "weighted.relax_per_phase_max",
    "weighted.scan_fraction",
    "weighted.jobs_popped_per_phase_p50",
    "weighted.path_len_p50",
    "envelope.inserts",
    "envelope.delete_mins",
    "envelope.frontier_pushes",
    "envelope.inserts_per_relaxation",
    "envelope.domain_mean",
    "envelope.domain_max",
    "unweighted.cancel_calls",
    "unweighted.rounds",
    "unweighted.max_depth",
    "unweighted.edges_scanned",
    "unweighted.units_cancelled",
    "unweighted.greedy_gap",
    "cover.levelled_vertices",
    "cover.cost_drop",
)
LAYERS = ("bench", "trace", "formats", "core", "weighted", "unweighted", "cover")


def layer_metrics(spans: list[list], first: int, obs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced instance.

    ``spans`` are the instance's spans, which start at index ``first``
    of the tracer's list, in the order they were opened, and begin with
    the ``bench.e2e`` root.  A span's self time is its duration minus
    its children's durations.  Every other span is checked to lie
    inside its parent and after its previous sibling; spans that nest
    like that have self times of at least zero, and the layers' self
    times add up to the root's duration exactly.  A layer that did not
    run on the instance reports zero for all of its metrics.
    """
    if spans[0][0] != "bench.e2e" or spans[0][3] != -1:
        raise ValueError("an instance's spans must begin with its bench.e2e root")
    own = [end - start for _name, start, end, _parent, _inst in spans]
    last_end = [start for _name, start, _end, _parent, _inst in spans]
    total: dict[str, int] = {}
    for i, (name, start, end, parent, _inst) in enumerate(spans):
        total[name] = total.get(name, 0) + end - start
        if i == 0:
            continue
        p = parent - first
        if not (0 <= p < i and last_end[p] <= start <= end <= spans[p][2]):
            raise ValueError(f"span {first + i} ({name}) does not nest in span {parent}")
        last_end[p] = end
        own[p] -= end - start
    layer_self = dict.fromkeys(LAYERS, 0)
    for span, ns in zip(spans, own):
        layer_self[span[0].split(".", 1)[0]] += ns
    e2e_ns = spans[0][2] - spans[0][1]

    out = {
        metric: sum(total.get(name, 0) for name in names) / 1e9
        for metric, names in SPAN_METRICS.items()
    }
    out.update({key: obs.get(key, 0) for key in COUNTERS})
    out.update({f"{layer}.self_s": ns / 1e9 for layer, ns in layer_self.items()})
    out["trace.e2e_s"] = e2e_ns / 1e9
    relaxations = out["weighted.relaxations"]
    out["weighted.us_per_relaxation"] = (
        out["weighted.search_s"] * 1e6 / relaxations if relaxations else 0
    )
    rounds = out["unweighted.rounds"]
    out["unweighted.useful_round_ratio"] = (
        obs["unweighted.useful_rounds"] / rounds if rounds else 0
    )
    # Derived, not spanned: what find_center does after the minimum
    # cover and the levelling (the semi-matching and the cover rebuild).
    out["cover.rebalance_s"] = (
        out["cover.find_center_s"] - out["cover.min_cover_s"] - out["cover.levelling_s"]
    )
    return out
