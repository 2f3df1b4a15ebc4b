"""Acceptance checklist for the whole package, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Timed criteria embed the measured wall-clock numbers in
their assertion messages, so a budget miss documents itself.
"""

import itertools
import random
import time

import pytest

from semimatch.core import (
    BipartiteInstance,
    ConvexMachineCost,
    SemiMatching,
    convex_cost,
    cost_of_semi_matching,
    validate_semi_matching,
)
from semimatch.cover import (
    GeneralGraph,
    find_center,
    maximum_matching_general,
    minimum_edge_cover,
)
from semimatch.envelope import EnvelopeHeap
from semimatch.generate import gen_random, gen_random_graph
from semimatch.oracle import (
    assignment_search_space,
    brute_force_balanced_cover,
    brute_force_semi_matching,
)
from semimatch.unweighted import (
    CancelCounters,
    _greedy_seed,
    build_cost_center_network,
    seed_flow,
    solve_convex,
    solve_unweighted,
)
from semimatch.weighted import WeightedStats, baseline_exploded_solver, solve_weighted

from conftest import assert_cancel_bounds, fig2_instance, live_center_count
from test_cover import connected_graphs
from test_envelope import (
    NaiveEnvelope,
    checked_phase_heaps,
    delete_both,
    minimum,
    row,
    shifted_family,
)


def small_weighted_instance(i):
    """Criterion 1/6 stream: up to 6 jobs x 4 machines, weights 1..10."""
    rng = random.Random(0xAC01_0000 + i)
    return gen_random(
        rng,
        rng.randint(1, 6),
        rng.randint(1, 4),
        edge_prob=rng.uniform(0.3, 1.0),
        max_weight=10,
    )


def medium_weighted_instance(i):
    """Criterion 2/6 stream: up to 50 x 50, weights across three scales."""
    rng = random.Random(0xAC02_0000 + i)
    return gen_random(
        rng,
        rng.randint(1, 50),
        rng.randint(1, 50),
        edge_prob=rng.uniform(0.05, 0.5),
        max_weight=rng.choice([10, 1000, 10**6]),
    )


@pytest.fixture(scope="module")
def unit_runs():
    """Criterion 3 instance stream, run once and shared with criterion 5."""
    runs = []
    for i in range(200):
        rng = random.Random(0xAC03_0000 + i)
        inst = gen_random(
            rng,
            rng.randint(1, 100),
            rng.randint(1, 30),
            edge_prob=rng.uniform(0.05, 0.6),
        )
        counters = CancelCounters()
        cost_flow = cost_of_semi_matching(inst, solve_unweighted(inst, stats=counters))
        cost_ssp = cost_of_semi_matching(inst, solve_weighted(inst))
        brute = None
        if assignment_search_space(inst) <= 200_000:
            brute, _ = brute_force_semi_matching(inst)
        runs.append((inst, cost_flow, cost_ssp, brute, counters))
    return runs


def test_criterion_01_weighted_matches_brute_force_on_500_instances():
    budget = 10.0
    start = time.perf_counter()
    for i in range(500):
        inst = small_weighted_instance(i)
        best, _ = brute_force_semi_matching(inst)
        got = cost_of_semi_matching(inst, solve_weighted(inst))
        assert got == best, f"instance {i}: solver {got} != oracle {best}"
    elapsed = time.perf_counter() - start
    print(f"criterion 1: 500/500 exact in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"500 oracle comparisons took {elapsed:.2f}s"


def test_criterion_02_weighted_matches_baseline_on_100_instances():
    budget = 60.0
    start = time.perf_counter()
    for i in range(100):
        inst = medium_weighted_instance(i)
        fast = cost_of_semi_matching(inst, solve_weighted(inst))
        slow = cost_of_semi_matching(inst, baseline_exploded_solver(inst))
        assert fast == slow, f"instance {i}: fast {fast} != baseline {slow}"
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 100/100 exact in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"100 baseline comparisons took {elapsed:.2f}s"


def test_criterion_03_unit_weight_solvers_agree(unit_runs):
    enumerable = 0
    for i, (_inst, cost_flow, cost_ssp, brute, _c) in enumerate(unit_runs):
        assert cost_flow == cost_ssp, f"instance {i}: flow {cost_flow} != ssp {cost_ssp}"
        if brute is not None:
            assert cost_flow == brute, f"instance {i}: flow {cost_flow} != brute {brute}"
            enumerable += 1
    print(f"criterion 3: 200 instances agree; {enumerable} also brute-checked")
    assert enumerable >= 20


def test_criterion_04_reference_example_costs():
    inst = fig2_instance()
    assert cost_of_semi_matching(inst, solve_unweighted(inst)) == 6
    net = build_cost_center_network(inst)
    seed_flow(net, SemiMatching((0, 1, 1, 1)))
    assert net.flow_cost() == 7
    print("criterion 4: optimal 6, seeded 7")


def test_criterion_05_blocking_flow_round_bounds(unit_runs):
    worst_ratio = 0.0
    for inst, _f, _s, _b, counters in unit_runs:
        live = live_center_count(build_cost_center_network(inst), _greedy_seed(inst))
        worst_ratio = max(worst_ratio, assert_cancel_bounds(counters, inst.num_jobs, live))
    print(f"criterion 5: worst rounds/cap ratio {worst_ratio:.2f}")


def test_criterion_06_invariant_suite_on_every_iteration():
    start = time.perf_counter()
    for i in range(500):
        solve_weighted(small_weighted_instance(i), check=True)
    for i in range(100):
        solve_weighted(medium_weighted_instance(i), check=True)
    elapsed = time.perf_counter() - start
    print(f"criterion 6: 600 checked solves in {elapsed:.1f}s")


def replay_against_naive(events, shift):
    frontier = []
    heap = EnvelopeHeap(shift, frontier)
    naive = NaiveEnvelope(len(shift))
    for event in events:
        if event[0] == "insert":
            _, w, b, valley = event
            heap.insert(w, b, valley)
            naive.insert(row(w, b, shift))
        else:
            assert event == ("pop",)
            delete_both(heap, frontier, naive)
        if naive.live:
            assert minimum(heap, frontier)[0] == naive.min_value()


def test_criterion_07_envelope_heap_against_naive_scan():
    # Harvested sequences: every heap a weighted phase opens, audited by
    # the heap's own brute scan as the search drives it (check=True).
    harvested = 0
    for seed in range(120):
        opened, _audited = checked_phase_heaps(
            seed,
            num_jobs=5 + seed % 6,
            num_machines=2 + seed % 3,
            max_weight=(3, 12, 100)[seed % 3],
        )
        harvested += opened

    synthetic = max(400, 1000 - harvested)
    for seed in range(synthetic):
        rng = random.Random(0xAC07_0000 + seed)
        n = rng.randint(1, 12)
        shift, fns = shifted_family(rng, n, rng.randint(1, 10))
        events = []
        for w, b, valley, _ in fns:
            events.append(("insert", w, b, valley))
            if rng.random() < 0.5:
                events.append(("pop",))
        events.extend([("pop",)] * n)  # drain; _clip_pops trims the excess
        replay_against_naive(_clip_pops(events, n), shift)

    total = harvested + synthetic
    print(f"criterion 7: {harvested} harvested + {synthetic} synthetic = {total}")
    assert total >= 1000


def _clip_pops(events, domain):
    """Drop pops beyond the number of live indices remaining."""
    live = domain
    out = []
    for e in events:
        if e == ("pop",):
            if live == 0:
                continue
            live -= 1
        out.append(e)
    return out


def test_criterion_08_balanced_cover_exact_on_small_graphs():
    start = time.perf_counter()
    graphs = 0
    for n in range(2, 7):
        for edges in connected_graphs(n):
            best, _ = brute_force_balanced_cover(n, edges)
            g = GeneralGraph(n, edges)
            assert find_center(g).balanced_cost() == best, (n, edges)
            mu = len(maximum_matching_general(g))
            assert len(minimum_edge_cover(g)) == n - mu, (n, edges)
            graphs += 1

    rng = random.Random(0xAC08)
    for _ in range(100):
        n, edges = gen_random_graph(rng, 7, rng.uniform(0.25, 0.9))
        best, _ = brute_force_balanced_cover(n, edges)
        g = GeneralGraph(n, edges)
        assert find_center(g).balanced_cost() == best, edges
        mu = len(maximum_matching_general(g))
        assert len(minimum_edge_cover(g)) == n - mu, edges
        graphs += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 8: {graphs} graphs exact in {elapsed:.1f}s")
    assert graphs >= 26704 + 100


def test_criterion_09_performance_smoke():
    rng = random.Random(0xAC09)
    inst_flow = gen_random(rng, 10_000, 1_000, num_edges=100_000)
    counters = CancelCounters()
    net = build_cost_center_network(inst_flow)
    live = live_center_count(net, _greedy_seed(inst_flow))
    assert live <= net.num_centers
    start = time.perf_counter()
    matching = solve_unweighted(inst_flow, stats=counters)
    t_flow = time.perf_counter() - start
    assert validate_semi_matching(inst_flow, matching) is None
    assert_cancel_bounds(counters, inst_flow.num_jobs, live)

    inst_ssp = gen_random(rng, 2_000, 500, num_edges=20_000, max_weight=10**6)
    stats = WeightedStats()
    start = time.perf_counter()
    matching = solve_weighted(inst_ssp, stats=stats)
    t_ssp = time.perf_counter() - start
    assert validate_semi_matching(inst_ssp, matching) is None
    assert max(stats.group_relaxations) <= inst_ssp.num_edges

    print(f"criterion 9: unit {t_flow:.2f}s (budget 5s), weighted {t_ssp:.1f}s (budget 15s)")
    assert t_flow < 5.0, f"solve_unweighted took {t_flow:.2f}s on 10^4 jobs / 10^5 edges (budget 5s)"
    assert t_ssp < 15.0, (
        f"solve_weighted took {t_ssp:.1f}s on 2000 jobs / 20000 edges (budget 15s); "
        f"{sum(stats.group_relaxations)} grouped relaxations over {stats.iterations} "
        f"phases, at most {max(stats.group_relaxations)} in one phase"
    )


def test_criterion_10_convex_objectives():
    brute_checked = 0
    for i in range(100):
        rng = random.Random(0xAC10_0000 + i)
        jobs = rng.randint(1, 8) if i % 2 == 0 else rng.randint(1, 40)
        inst = gen_random(
            rng, jobs, rng.randint(1, 12), edge_prob=rng.uniform(0.2, 0.8)
        )
        tri = ConvexMachineCost.triangular(inst)
        via_convex = convex_cost(inst, solve_convex(inst, tri), tri)
        via_flow = cost_of_semi_matching(inst, solve_unweighted(inst))
        assert via_convex == via_flow, f"instance {i}: {via_convex} != {via_flow}"

        if assignment_search_space(inst) <= 200_000:
            quad = ConvexMachineCost.quadratic(inst)
            got = convex_cost(inst, solve_convex(inst, quad), quad)
            best, _ = brute_force_semi_matching(inst, quad)
            assert got == best, f"instance {i}: quadratic {got} != brute {best}"
            brute_checked += 1
    print(f"criterion 10: 100 triangular + {brute_checked} quadratic brute checks")
    assert brute_checked >= 30
