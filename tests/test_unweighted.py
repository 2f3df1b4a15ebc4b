"""Cost-center flow reduction, cancelling, and the unit/convex solvers."""

import math
import random

import pytest

from semimatch.core import (
    BipartiteInstance,
    ConvexMachineCost,
    SemiMatching,
    convex_cost,
    cost_of_semi_matching,
)
from semimatch.generate import gen_random
from semimatch.oracle import assignment_search_space, brute_force_semi_matching
from semimatch.unweighted import (
    CancelCounters,
    _greedy_seed,
    build_cost_center_network,
    cancel,
    cancel_all,
    extract_semi_matching,
    reachable_partition,
    seed_flow,
    solve_convex,
    solve_unweighted,
)
from semimatch.weighted import baseline_exploded_solver

from conftest import fig2_instance, live_center_count


def unit_cost(instance, matching):
    return cost_of_semi_matching(instance, matching)


def zipf_instance(rng, jobs, machines, draws=4):
    """Unit jobs drawing ``draws`` machines from a Zipf(1) popularity law:
    a few machines get most edges, so most cost centers go unused."""
    weights = [1.0 / k for k in range(1, machines + 1)]
    edges = {(u, v) for u in range(jobs) for v in rng.choices(range(machines), weights, k=draws)}
    return BipartiteInstance(jobs, machines, sorted(edges))


def star_instance(rng, spokes, jobs, machines):
    """Machine 0 is a hub with ``spokes`` jobs that have nowhere else to
    go; the other ``jobs <= spokes`` jobs pick among machines 1.. at
    random.  The hub has the largest degree and takes it all, so the seed
    uses every center."""
    assert jobs <= spokes
    edges = [(u, 0) for u in range(spokes)]
    for u in range(spokes, spokes + jobs):
        picks = rng.sample(range(1, machines), rng.randint(1, min(3, machines - 1)))
        edges += [(u, v) for v in picks]
    return BipartiteInstance(spokes + jobs, machines, edges)


def assert_lists_are_residual(network, live=None):
    """Every node lists exactly its residual out-arcs, except arcs into
    centers ``live`` and above, which ``cancel_all`` retires; so each
    machine lists the reverse arcs of exactly the jobs it carries."""
    end = network.center_node(network.num_centers if live is None else live)
    expected = [[] for _ in range(network.num_nodes)]
    for e, head in enumerate(network._to):
        if network._rem[e] > 0 and head < end:
            expected[network._to[e ^ 1]].append(e)
    for x in range(network.num_nodes):
        assert sorted(network._adj[x]) == expected[x], f"node {network.describe_node(x)}"
        for i, e in enumerate(network._adj[x]):
            assert network._pos[e] == i
    for v in range(network.num_machines):
        x = network.machine_node(v)
        listed = [network._to[e] for e in network._adj[x] if e < network._job_arcs]
        carried = [u for u in range(network.num_jobs) if network.assigned_machine(u) == v]
        assert sorted(listed) == carried, f"machine {v} lists {listed}, carries {carried}"


class TestNetworkConstruction:
    def test_fig2_centers(self):
        net = build_cost_center_network(fig2_instance())
        assert net.num_centers == 3
        assert [net.center_value(k) for k in range(3)] == [1, 2, 3]
        # machine 0 (degree 2) feeds the first two centers, machine 1 all three
        assert len(net._machine_center_edges[0]) == 2
        assert len(net._machine_center_edges[1]) == 3

    def test_single_edge_shape(self):
        net = build_cost_center_network(BipartiteInstance(1, 1, [(0, 0)]))
        # source and sink are implicit: 3 real nodes (u, v, c1), 2 real edges
        assert net.num_nodes == 3
        assert net.num_centers == 1
        assert len(net._to) == 4  # two arcs and their residual twins

    def test_convex_marginals_become_center_values(self):
        inst = BipartiteInstance(3, 1, [(0, 0), (1, 0), (2, 0)])
        costs = ConvexMachineCost([(1, 3, 3)])
        matching = solve_convex(inst, costs)
        assert convex_cost(inst, matching, costs) == 7  # forced 1 + 3 + 3


class TestSeedAndCancel:
    def test_fig2_seeded_flow(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        assert net.flow_value() == 4
        assert net.flow_cost() == 1 + (1 + 2 + 3)

    def test_fig2_single_cancel_reaches_optimum(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        counters = CancelCounters()
        cancel(net, [2], [0, 1], counters=counters)
        assert net.flow_cost() == 6
        assert counters.units_cancelled == 1
        assert net.flow_value() == 4  # value never changes, only cost

    def test_fig2_post_cancel_reachability(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        cancel(net, [2], [0, 1])
        S, rest = reachable_partition(net, [2])
        # the drained top center is residually isolated: nothing cheaper
        # wants to send into it, and it holds no flow to push back
        assert {net.describe_node(x) for x in S} == {("center", 2)}
        kinds = {net.describe_node(x) for x in rest}
        assert ("machine", 1) in kinds and ("job", 3) in kinds

    def test_empty_seed_partition(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        S, rest = reachable_partition(net, [])
        assert S == frozenset()
        assert len(rest) == net.num_nodes

    def test_cancel_with_empty_side_is_a_no_op(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        cancel(net, [], [0, 1])
        cancel(net, [2], [])
        assert net.flow_cost() == 7

    def test_cancel_rejects_overlapping_ranges(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        with pytest.raises(ValueError, match="costlier"):
            cancel(net, [1], [0, 1])

    def test_cancel_on_optimal_flow_finds_nothing(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 0, 1, 1)))
        counters = CancelCounters()
        cancel(net, [2], [0, 1], counters=counters)
        assert counters.units_cancelled == 0
        assert net.flow_cost() == 6

    def test_extract_round_trips_the_seed(self):
        inst = fig2_instance()
        net = build_cost_center_network(inst)
        seeded = SemiMatching((0, 1, 1, 1))
        seed_flow(net, seeded)
        assert extract_semi_matching(net).machine_of == seeded.machine_of

    def test_lists_hold_exactly_the_residual_arcs(self):
        net = build_cost_center_network(fig2_instance())
        assert_lists_are_residual(net)  # no flow: no job listed
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        assert_lists_are_residual(net)
        cancel(net, [2], [0, 1])
        assert_lists_are_residual(net)
        assert net.assigned_machine(1) == 0

    def test_public_cancel_on_a_freshly_seeded_network(self):
        # No cancel_all: the split runs through the centers the seed uses,
        # and the sources reach above the seeded top, which cancel_all
        # would retire first.  The step cost merges equal marginals into
        # slot edges of capacity 3, which a unit can cross without
        # saturating them.
        moved = 0
        for seed in range(8):
            rng = random.Random(seed)
            inst = zipf_instance(rng, 60, 12)
            step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
            for costs in (ConvexMachineCost.triangular(inst), step):
                net = build_cost_center_network(inst, costs)
                seeded = _greedy_seed(inst)
                seed_flow(net, seeded)
                seeded_cost = net.flow_cost()
                live = live_center_count(net, seeded)
                half = (live + 1) // 2
                upper, lower = range(half, net.num_centers), range(half)
                counters = CancelCounters()
                cancel(net, upper, lower, counters=counters)
                moved += counters.units_cancelled
                assert net.flow_value() == inst.num_jobs
                assert net.flow_cost() <= seeded_cost
                assert_lists_are_residual(net)
                S, _rest = reachable_partition(net, upper)
                assert not {net.center_node(k) for k in lower} & S
                # Finishing with cancel_all reaches the optimum.  It retires
                # the centers above the costliest one now in use; arriving
                # jobs may sit behind their slot edges.
                in_use = 1 + max(
                    net.describe_node(net._to[e])[1]
                    for per_v in net._machine_center_edges
                    for e, _val in per_v
                    if net.edge_flow(e)
                )
                cancel_all(net)
                assert_lists_are_residual(net, in_use)
                got = convex_cost(inst, extract_semi_matching(net), costs)
                assert got == convex_cost(inst, solve_convex(inst, costs), costs)
        assert moved > 0


class TestSolveUnweighted:
    def test_fig2_optimal(self):
        inst = fig2_instance()
        matching = solve_unweighted(inst)
        assert unit_cost(inst, matching) == 6
        assert matching.machine_of == (0, 0, 1, 1)

    def test_star_forced(self):
        k = 7
        inst = BipartiteInstance(k, 1, [(u, 0) for u in range(k)])
        matching = solve_unweighted(inst)
        assert unit_cost(inst, matching) == k * (k + 1) // 2

    def test_complete_bipartite_spreads_out(self):
        inst = BipartiteInstance(4, 6, [(u, v) for u in range(4) for v in range(6)])
        matching = solve_unweighted(inst)
        assert unit_cost(inst, matching) == 4

    def test_single_center_halts_immediately(self):
        inst = BipartiteInstance(2, 2, [(0, 0), (1, 1)])
        counters = CancelCounters()
        matching = solve_unweighted(inst, stats=counters)
        assert unit_cost(inst, matching) == 2
        assert counters.max_depth == 1
        assert counters.units_cancelled == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        inst = gen_random(
            rng,
            rng.randint(1, 9),
            rng.randint(1, 5),
            edge_prob=rng.uniform(0.2, 1.0),
        )
        if assignment_search_space(inst) > 200_000:
            pytest.skip("search space too large for the oracle")
        best_cost, _ = brute_force_semi_matching(inst)
        assert unit_cost(inst, solve_unweighted(inst)) == best_cost

    def test_counter_bounds_hold(self):
        rng = random.Random(4242)
        for _ in range(25):
            inst = gen_random(
                rng, rng.randint(2, 60), rng.randint(1, 20), edge_prob=0.3
            )
            counters = CancelCounters()
            net = build_cost_center_network(inst)
            live = live_center_count(net, _greedy_seed(inst))
            assert live <= net.num_centers
            solve_unweighted(inst, stats=counters)
            round_cap = 2 * math.isqrt(inst.num_jobs - 1) + 2 + 5  # 2*ceil(sqrt(U)) + 5
            assert all(r <= round_cap for r in counters.rounds_per_cancel)
            for dists in counters.distances_per_cancel:
                assert all(a < b for a, b in zip(dists, dists[1:]))
            # Divide and conquer runs over the live centers only.
            assert len(counters.rounds_per_cancel) <= live - 1
            depth_cap = math.ceil(math.log2(live)) + 1 if live > 1 else 1
            assert counters.max_depth <= depth_cap

    def test_split_call_sequence_matches_solve_unweighted(self):
        rng = random.Random(909)
        for i in range(12):
            if i % 2:
                inst = zipf_instance(rng, rng.randint(10, 80), rng.randint(2, 20))
            else:
                inst = gen_random(rng, rng.randint(1, 60), rng.randint(1, 15), edge_prob=0.3)
            net = build_cost_center_network(inst)
            seed_flow(net, _greedy_seed(inst))
            cancel_all(net, counters=CancelCounters())
            split = extract_semi_matching(net)
            assert split.machine_of == solve_unweighted(inst).machine_of

    @pytest.mark.parametrize("seed", range(10))
    def test_star_uses_every_center_and_matches_baseline(self, seed):
        rng = random.Random(seed)
        spokes = rng.randint(6, 14)
        inst = star_instance(rng, spokes, rng.randint(3, spokes), rng.randint(2, 5))
        net = build_cost_center_network(inst)
        assert live_center_count(net, _greedy_seed(inst)) == net.num_centers  # nothing retired
        counters = CancelCounters()
        got = unit_cost(inst, solve_unweighted(inst, stats=counters))
        assert len(counters.rounds_per_cancel) == net.num_centers - 1
        assert got == unit_cost(inst, baseline_exploded_solver(inst))
        if assignment_search_space(inst) <= 200_000:
            assert got == brute_force_semi_matching(inst)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_zipf_skew_retires_most_centers_and_matches_baseline(self, seed):
        rng = random.Random(seed)
        inst = zipf_instance(rng, rng.randint(40, 120), rng.randint(10, 30))
        net = build_cost_center_network(inst)
        live = live_center_count(net, _greedy_seed(inst))
        assert 2 * live < net.num_centers  # most centers are dead
        seed_flow(net, _greedy_seed(inst))
        counters = CancelCounters()
        cancel_all(net, counters=counters)
        assert len(counters.rounds_per_cancel) == live - 1
        live_comps = {net.comp[net.center_node(k)] for k in range(live)}
        assert all(
            net.comp[net.center_node(k)] not in live_comps for k in range(live, net.num_centers)
        )
        for v in range(inst.num_machines):
            heads = {net.describe_node(net._to[e]) for e in net._adj[net.machine_node(v)]}
            assert all(k < live for kind, k in heads if kind == "center")
        assert_lists_are_residual(net, live)
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))

    def test_no_cost_reducing_residual_path_remains(self):
        rng = random.Random(11)
        for _ in range(15):
            inst = gen_random(rng, rng.randint(2, 25), rng.randint(1, 8), edge_prob=0.4)
            net = build_cost_center_network(inst)
            seed_flow(net, solve_unweighted(inst))
            for hi in range(net.num_centers - 1, 0, -1):
                S, _rest = reachable_partition(net, [hi])
                reachable_centers = {
                    idx for kind, idx in map(net.describe_node, S) if kind == "center"
                }
                assert not (reachable_centers & set(range(hi))), (
                    f"cost-reducing path from center {hi} into {reachable_centers}"
                )


class TestSolveConvex:
    def test_triangular_equals_unweighted(self):
        rng = random.Random(77)
        for _ in range(40):
            inst = gen_random(rng, rng.randint(1, 40), rng.randint(1, 12), edge_prob=0.3)
            costs = ConvexMachineCost.triangular(inst)
            a = unit_cost(inst, solve_unweighted(inst))
            b = convex_cost(inst, solve_convex(inst, costs), costs)
            assert a == b

    def test_quadratic_fig2(self):
        inst = fig2_instance()
        costs = ConvexMachineCost.quadratic(inst)
        matching = solve_convex(inst, costs)
        assert convex_cost(inst, matching, costs) == 8

    def test_quadratic_matches_brute_force(self):
        rng = random.Random(303)
        for _ in range(30):
            inst = gen_random(rng, rng.randint(1, 7), rng.randint(1, 4), edge_prob=0.6)
            if assignment_search_space(inst) > 100_000:
                continue
            costs = ConvexMachineCost.quadratic(inst)
            best, _ = brute_force_semi_matching(inst, costs)
            got = convex_cost(inst, solve_convex(inst, costs), costs)
            assert got == best

    def test_linear_cost_is_number_of_jobs(self):
        inst = fig2_instance()
        costs = ConvexMachineCost.linear(inst)
        matching = solve_convex(inst, costs)
        assert convex_cost(inst, matching, costs) == inst.num_jobs

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_slot_edges_match_brute_force(self, seed):
        # Equal marginals merge into one slot edge of capacity > 1: all of
        # them under the linear cost, runs of three under the step cost.
        rng = random.Random(seed)
        inst = gen_random(rng, rng.randint(1, 8), rng.randint(1, 4), edge_prob=0.6)
        if assignment_search_space(inst) > 100_000:
            pytest.skip("search space too large for the oracle")
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        for costs in (ConvexMachineCost.linear(inst), step):
            net = build_cost_center_network(inst, costs)
            if inst.max_machine_degree() > 1:
                assert max(net._cap[e] for per_v in net._machine_center_edges for e, _ in per_v) > 1
            best, _ = brute_force_semi_matching(inst, costs)
            assert convex_cost(inst, solve_convex(inst, costs), costs) == best
