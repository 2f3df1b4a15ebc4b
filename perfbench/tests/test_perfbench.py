"""The benchmark's own checks: generators, traced drivers, failure counting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
from statistics import median

import pytest

import pipeline
import run
import semimatch.cover as cover_module
from checkout import ROOT
from gauge import REFERENCE_S, Gauge
from semimatch.core import SemiMatching, cost_of_semi_matching
from semimatch.cover import find_center
from semimatch.oracle import brute_force_balanced_cover, brute_force_semi_matching
from semimatch.unweighted import _greedy_seed, solve_unweighted
from semimatch.weighted import baseline_exploded_solver, solve_weighted
from workloads import POOL_SIZE, WORKLOADS, load_references

SMALL = {
    "weighted-uniform": dict(jobs=7, machines=3, edges=12),
    "weighted-skewed": dict(jobs=6, machines=3),
    "unit-zipf": dict(jobs=7, machines=4, draws=3),
    "cover-sparse": dict(vertices=7, edge_prob=0.35),
}
MEDIUM = {
    "weighted-uniform": dict(jobs=60, machines=15, edges=300),
    "weighted-skewed": dict(jobs=50, machines=3),
    "unit-zipf": dict(jobs=400, machines=40),
    "cover-sparse": dict(vertices=300, edge_prob=0.008),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("index", range(8))
@pytest.mark.parametrize("name", ["weighted-uniform", "weighted-skewed", "unit-zipf"])
def test_small_semimatch_twins_agree_with_baseline_and_brute_force(name, index):
    workload = WORKLOADS[name]
    instance = workload.instance(index, **SMALL[name])
    best, _ = brute_force_semi_matching(instance)
    solver = solve_unweighted if workload.kind == "unit" else solve_weighted
    assert cost_of_semi_matching(instance, solver(instance)) == best
    assert cost_of_semi_matching(instance, baseline_exploded_solver(instance)) == best


@pytest.mark.parametrize("index", range(8))
def test_small_cover_twins_agree_with_brute_force(index):
    graph = WORKLOADS["cover-sparse"].instance(index, **SMALL["cover-sparse"])
    best, _ = brute_force_balanced_cover(graph.num_vertices, list(graph.edges))
    assert find_center(graph).balanced_cost() == best


@pytest.mark.parametrize("name", ["weighted-uniform", "weighted-skewed", "unit-zipf"])
def test_traced_drivers_match_the_solvers_exactly(name):
    workload = WORKLOADS[name]
    instance = workload.instance(0, **MEDIUM[name])
    solver = solve_unweighted if workload.kind == "unit" else solve_weighted
    traced = pipeline.TRACED_SOLVERS[workload.kind](instance, pipeline.Tracer(), {})
    assert traced.machine_of == solver(instance).machine_of


def test_traced_find_center_matches_and_restores_the_cover_module():
    graph = WORKLOADS["cover-sparse"].instance(0, **MEDIUM["cover-sparse"])
    before = dict(vars(cover_module))
    obs = {}
    traced = pipeline.traced_find_center(graph, pipeline.Tracer(), obs)
    assert vars(cover_module) == before
    assert traced.edges == find_center(graph).edges
    assert obs["cover.levelled_vertices"] > 0 and obs["unweighted.cancel_calls"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric_and_self_times_add_up(name):
    workload = WORKLOADS[name]
    tracer, obs = pipeline.Tracer(), {}
    pipeline.run_instance(workload.kind, workload.text(1, **MEDIUM[name]), None,
                          tracer=tracer, observed=obs)
    metrics = pipeline.layer_metrics(tracer.spans, 0, obs)  # raises unless spans nest
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in pipeline.LAYERS)
    assert self_sum == pytest.approx(metrics["trace.e2e_s"])
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) | {"trace.overhead_s"} == names


@pytest.mark.parametrize("bad_span", [
    ["core.verify", 5, 120, 0, 0],  # ends after its parent
    ["core.verify", 15, 30, 0, 0],  # overlaps its previous sibling
    ["core.verify", 40, 50, 2, 0],  # parent opened after it
])
def test_spans_that_do_not_nest_are_refused(bad_span):
    spans = [["bench.e2e", 0, 100, -1, 0], ["formats.parse", 10, 20, 0, 0]]
    obs = {"unweighted.useful_rounds": 0}
    assert pipeline.layer_metrics(spans + [["core.verify", 40, 50, 0, 0]], 0, obs)["core.self_s"] == 10e-9
    with pytest.raises(ValueError, match="does not nest"):
        pipeline.layer_metrics(spans + [bad_span], 0, obs)


def _timed_once(name, references, **size):
    workload = WORKLOADS[name]
    text = workload.text(0, **size)
    loop = run.Loop(pipeline, workload, [0], [text], references, Gauge())
    metrics = loop.timed(seconds=0)
    return loop.attempted, loop.failed, metrics


def test_a_wrong_reference_cost_is_counted_as_a_failure(capsys):
    instance = WORKLOADS["weighted-uniform"].instance(0, **MEDIUM["weighted-uniform"])
    true_cost = cost_of_semi_matching(instance, solve_weighted(instance))
    attempted, failed, metrics = _timed_once("weighted-uniform", [true_cost + 1], **MEDIUM["weighted-uniform"])
    assert (attempted, failed, metrics) == (1, 1, None)
    assert "fail_ratio = 1 ratio" in capsys.readouterr().out
    attempted, failed, metrics = _timed_once("weighted-uniform", [true_cost], **MEDIUM["weighted-uniform"])
    assert (attempted, failed) == (1, 0) and metrics["e2e_s_p50"] > 0


def _off_edge(instance):
    """Every job on a machine it has no edge to."""
    return SemiMatching(tuple(
        min(set(range(instance.num_machines)) - {v for v, _ in instance.job_adj[u]})
        for u in range(instance.num_jobs)
    ))


@pytest.mark.parametrize("wrong_solver", [_greedy_seed, _off_edge])
def test_suboptimal_or_invalid_answers_are_counted_as_failures(monkeypatch, wrong_solver):
    instance = WORKLOADS["unit-zipf"].instance(0, **MEDIUM["unit-zipf"])
    best = cost_of_semi_matching(instance, solve_unweighted(instance))
    assert cost_of_semi_matching(instance, _greedy_seed(instance)) > best
    monkeypatch.setitem(pipeline.SOLVERS, "unit", wrong_solver)
    attempted, failed, _ = _timed_once("unit-zipf", [best], **MEDIUM["unit-zipf"])
    assert (attempted, failed) == (1, 1)


def test_references_cover_every_pool_instance_of_every_workload():
    references = load_references()
    assert set(references) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert all(len(costs) == POOL_SIZE for costs in references.values())
    assert WORKLOADS["unit-zipf"].pick(7) == WORKLOADS["unit-zipf"].pick(7)


def test_gauge_scales_by_the_readings_around_each_instance_or_step():
    g = Gauge()
    g.readings = [0.02, 0.01, 0.04, 0.02, 0.03]
    factors = g.factors([1, 3])  # appends two fresh readings
    r = g.readings
    assert len(r) == 7
    assert factors[0] == pytest.approx(REFERENCE_S / 0.02)  # median of r[0:4]
    assert factors[1] == pytest.approx(REFERENCE_S / median(r[2:6]))
    last = r[-1]
    assert g.bracketed(2.0) == pytest.approx(2.0 * REFERENCE_S / ((last + r[-1]) / 2))
