"""Cost-center flow reduction, cancelling, and the unit/convex solvers."""

import random
from itertools import groupby

import pytest

from semimatch import unweighted
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
    cancel_all,
    extract_semi_matching,
    seed_flow,
    solve_convex,
    solve_unweighted,
)
from semimatch.weighted import baseline_exploded_solver

from conftest import assert_cancel_bounds, deadline, fig2_instance, live_center_count
from referees import (
    assigned_machine,
    cancel,
    describe_node,
    max_machine_degree,
    reachable_partition,
    residual_successors,
    seed_flow_per_unit,
)


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


def assert_lists_are_residual(network):
    """Every machine and center lists exactly its residual slot arcs, and
    the carrier record is whole: ``_carried[v]`` holds exactly the jobs
    whose carrier is machine v, each at its ``_where`` index, and each
    machine's slot edges carry one unit per job it carries."""
    expected = [[] for _ in range(network.num_nodes)]
    for e in range(len(network._to)):
        if network._rem[e] > 0:
            expected[network._to[e ^ 1]].append(e)
    for x in range(network.num_nodes):
        assert sorted(network._adj[x]) == expected[x], f"node {describe_node(network, x)}"
        for i, e in enumerate(network._adj[x]):
            assert network._pos[e] == i
    carrier, where = network._carrier, network._where
    for v, carried in enumerate(network._carried):
        x = network.machine_node(v)
        on_v = [u for u in range(network.num_jobs) if carrier[u] == x]
        assert sorted(carried) == on_v, f"machine {v} lists {carried}, carries {on_v}"
        assert all(carried[where[u]] == u for u in carried), f"machine {v}"
        flow = sum(network.edge_flow(e) for e, _val in network._machine_center_edges[v])
        assert flow == len(carried), f"machine {v}: {flow} units for {len(carried)} jobs"
    assert sum(map(len, network._carried)) == network.flow_value()


def plain_layers(network, comp, sources):
    """Breadth-first distances from the ``sources`` centers over
    ``residual_successors`` inside one component, and the number of
    machine layers the bottom-up rule of ``cancel`` would find bottom-up
    and top-down: bottom-up when the frontier's jobs have more residual
    out-arcs than the component's unlabelled machines have jobs."""
    inst = network.instance
    machines = [
        network.machine_node(v)
        for v in range(network.num_machines)
        if inst.machine_degree(v) and network.comp[network.machine_node(v)] == comp
    ]
    dist = {network.center_node(k): 0 for k in sources}
    frontier = list(dist)
    directions = {"bottom-up": 0, "top-down": 0}
    while frontier:
        level = dist[frontier[0]] + 1
        if level % 2:
            job_arcs = sum(
                len(residual_successors(network, x)) for x in frontier if x < network.num_jobs
            )
            unseen = sum(
                inst.machine_degree(describe_node(network, b)[1]) for b in machines if b not in dist
            )
            directions["bottom-up" if job_arcs > unseen else "top-down"] += 1
        nxt = []
        for x in frontier:
            for y in residual_successors(network, x):
                if y not in dist and network.comp[y] == comp:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist, directions


class TestNetworkConstruction:
    def test_fig2_centers(self):
        net = build_cost_center_network(fig2_instance())
        assert net.num_centers == 3
        assert [net.center_value(k) for k in range(3)] == [1, 2, 3]
        assert net._machine_center_edges == [[], []]  # seeding builds the slots
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        # the seed uses center 3, so machine 0 (degree 2) feeds the first
        # two centers and machine 1 all three
        assert [val for _e, val in net._machine_center_edges[0]] == [1, 2]
        assert [val for _e, val in net._machine_center_edges[1]] == [1, 2, 3]

    def test_slots_stop_at_the_seeded_top(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 0, 1, 1)))
        # loads 2 and 2: no slot into center 3, which has no arc at all
        assert [val for _e, val in net._machine_center_edges[1]] == [1, 2]
        assert net._adj[net.center_node(2)] == []
        assert net.center_node(2) not in net._to
        assert_lists_are_residual(net)

    def test_single_edge_shape(self):
        net = build_cost_center_network(BipartiteInstance(1, 1, [(0, 0)]))
        # source and sink are implicit: 3 real nodes (u, v, c1), 2 real edges
        assert net.num_nodes == 3
        assert net.num_centers == 1
        assert net._to == []  # the job edge is the carrier record, not an arc
        seed_flow(net, SemiMatching((0,)))
        assert len(net._to) == 2  # the slot edge and its twin
        assert net._carrier == [net.machine_node(0)]

    @pytest.mark.parametrize("seed", range(10))
    def test_job_arrays_equal_a_per_edge_build(self, seed):
        # Edge by edge, an unseeded network records nothing: no edge is
        # an arc, no job has a carrier and no machine carries a job.
        # Edges arrive shuffled, so job_machines order is not edge order, and
        # a few extra machines have no edge at all.
        rng = random.Random(seed)
        jobs, machines = rng.randint(1, 40), rng.randint(1, 12)
        edges = [(u, v) for u in range(jobs) for v in rng.sample(range(machines), rng.randint(1, machines))]
        rng.shuffle(edges)
        instances = [
            BipartiteInstance(jobs, machines + rng.randint(1, 3), edges),
            zipf_instance(rng, rng.randint(20, 80), rng.randint(10, 40)),
            BipartiteInstance(0, rng.randint(0, 2), []),
        ]
        assert not all(instances[0].machine_jobs)
        for inst in instances:
            for costs in (None, ConvexMachineCost.quadratic(inst)):
                net = build_cost_center_network(inst, costs)
                assert net._to == net._rem == net._pos == []
                assert all(not net._adj[x] for x in range(net.num_nodes))
                assert net._carrier == [-1] * inst.num_jobs
                assert net._carried == [[] for _ in range(net.num_machines)]
                assert net.flow_value() == 0
                assert_lists_are_residual(net)

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

    @pytest.mark.parametrize("seed", range(10))
    def test_seed_flow_equals_a_per_unit_seed(self, seed):
        rng = random.Random(seed)
        inst = zipf_instance(rng, rng.randint(20, 80), rng.randint(5, 20))
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        anywhere = SemiMatching(tuple(rng.choice(vs) for vs in inst.job_machines))
        for costs in (None, step):
            for matching in (_greedy_seed(inst), anywhere):
                net = seed_flow(build_cost_center_network(inst, costs), matching)
                ref = seed_flow_per_unit(build_cost_center_network(inst, costs), matching)
                names = ("_to", "_rem", "_adj", "_pos", "_carrier", "_carried", "_where")
                for name in names + ("_machine_center_edges",):
                    assert getattr(net, name) == getattr(ref, name), name

    def test_seed_flow_rejects_a_bad_assignment_and_leaves_the_network(self):
        inst = fig2_instance()
        cases = [
            ((0, 1, 1), "size: expected 4 assignments, got 3"),
            ((0, 1, 1, 1, 1), "size: expected 4 assignments, got 5"),
            ((0, None, 1, 1), "unassigned: job 1 has no machine (got None)"),
            ((0, 1, 1, -1), "unassigned: job 3 has no machine (got -1)"),
            ((0, 2, 1, 1), "unassigned: job 1 has no machine (got 2)"),
            ((1, 0, 1, 1), "not-an-edge: (0, 1) is not an edge"),
            ((0, 0, 1, 0), "not-an-edge: (3, 0) is not an edge"),
        ]
        for machine_of, detail in cases:
            net = build_cost_center_network(inst)
            lists = (net._to, net._rem, net._pos, net._carrier, net._where)
            lists += (*net._carried, *net._adj)
            before = [list(a) for a in lists]
            with pytest.raises(ValueError) as raised:
                seed_flow(net, SemiMatching(machine_of))
            assert str(raised.value) == f"invalid matching: {detail}"
            with pytest.raises(ValueError) as refereed:
                seed_flow_per_unit(build_cost_center_network(inst), SemiMatching(machine_of))
            assert str(refereed.value) == str(raised.value)
            assert [list(a) for a in lists] == before
            assert net._machine_center_edges == [[], []]
        net = seed_flow(build_cost_center_network(inst), SemiMatching((0, 1, 1, 1)))
        with pytest.raises(ValueError, match="^network already carries flow$"):
            seed_flow(net, SemiMatching((0, 0, 1, 1)))
        assert extract_semi_matching(net).machine_of == (0, 1, 1, 1)

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
        assert {describe_node(net, x) for x in S} == {("center", 2)}
        kinds = {describe_node(net, x) for x in rest}
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

    def test_cancel_rejects_a_center_between_the_ranges(self):
        # Machine 1 has slot edges into all three centers; center 1 would
        # sit strictly inside the layered graph, which the search rules out.
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        with pytest.raises(ValueError, match="center 1 .* neither a source nor a sink"):
            cancel(net, [2], [0])
        assert net.flow_cost() == 7
        cancel(net, [2], [0, 1])  # the full ranges are accepted
        assert net.flow_cost() == 6

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
        assert assigned_machine(net, 1) == 0

    def test_public_cancel_on_a_freshly_seeded_network(self):
        # No cancel_all: the split runs through the centers the seed uses,
        # and the sources reach above the seeded top, where no slot edge
        # is built.  The step cost merges equal marginals into slot edges
        # of capacity 3, which a unit can cross without saturating them.
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
                # Finishing with cancel_all reaches the optimum.
                cancel_all(net)
                assert_lists_are_residual(net)
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
            # Divide and conquer runs over the live centers only.
            assert_cancel_bounds(counters, inst.num_jobs, live)

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
        assert live_center_count(net, _greedy_seed(inst)) == net.num_centers  # every center gets slots
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
        # Centers above the seeded top have no arc in or out, and each
        # machine has one slot edge per distinct marginal up to the top.
        dead = {net.center_node(k) for k in range(live, net.num_centers)}
        assert not dead.intersection(net._to)
        assert all(net._adj[x] == [] for x in dead)
        top = net.center_value(live - 1)
        for v in range(inst.num_machines):
            built = [(val, net._rem[e] + net._rem[e ^ 1]) for e, val in net._machine_center_edges[v]]
            want = [(val, len(list(grp))) for val, grp in groupby(net._marginals[v]) if val <= top]
            assert built == want, f"machine {v}"
        assert_lists_are_residual(net)
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))

    @pytest.mark.parametrize("seed", range(8))
    def test_bottom_up_layering_equals_a_plain_bfs(self, seed, monkeypatch):
        # The large Zipf instance makes cancel_all's lower halves go
        # bottom-up next to machines of the upper half.
        rng = random.Random(seed)
        spokes = rng.randint(30, 60)
        instances = [
            zipf_instance(rng, rng.randint(60, 150), rng.randint(8, 25)),
            star_instance(rng, spokes, rng.randint(10, spokes), rng.randint(3, 8)),
            zipf_instance(random.Random(seed), 1000, 100, draws=3),
        ]
        directions = {"bottom-up": 0, "top-down": 0}

        def check_layering(network, comp, sources, sinks, machines, counters):
            # The search is handed exactly its component's machines.  The
            # first layering stops at the nearest sink, and the last,
            # failed one labels exactly the residually reachable nodes,
            # each with its breadth-first distance.
            assert sorted(machines) == [
                network.machine_node(v)
                for v in range(network.num_machines)
                if inst.machine_degree(v) and network.comp[network.machine_node(v)] == comp
            ]
            before, seen_dirs = plain_layers(network, comp, sources)
            for way, n in seen_dirs.items():
                directions[way] += n
            nearest = min((before.get(network.center_node(k)) for k in sinks), key=lambda d: (d is None, d))
            n_calls = len(counters.distances_per_cancel)
            reachable = real_cancel(network, comp, sources, sinks, machines, counters)
            first = counters.distances_per_cancel[n_calls][:1]
            assert first == ([] if nearest is None else [nearest])
            after, _ = plain_layers(network, comp, sources)
            assert sorted(reachable) == sorted(after)
            assert all(network._dist[x] == d for x, d in after.items())
            return reachable

        real_cancel = unweighted._cancel
        for inst in instances:
            # The public cancel on a freshly seeded network, then the
            # partition it leaves.
            net = build_cost_center_network(inst)
            seeded = _greedy_seed(inst)
            seed_flow(net, seeded)
            live = live_center_count(net, seeded)
            upper, lower = range((live + 1) // 2, live), range((live + 1) // 2)
            with monkeypatch.context() as m:
                m.setattr(unweighted, "_cancel", check_layering)
                cancel(net, upper, lower, counters=CancelCounters())
            S, _rest = reachable_partition(net, upper)
            assert S == set(plain_layers(net, 0, upper)[0])
            # Every call of cancel_all, inside the components it splits.
            net = build_cost_center_network(inst)
            seed_flow(net, seeded)
            with monkeypatch.context() as m:
                m.setattr(unweighted, "_cancel", check_layering)
                cancel_all(net, counters=CancelCounters())
            got = unit_cost(inst, extract_semi_matching(net))
            assert got == unit_cost(inst, solve_unweighted(inst))
        assert directions["bottom-up"] and directions["top-down"], directions

    def test_no_cost_reducing_residual_path_remains(self):
        rng = random.Random(11)
        for _ in range(15):
            inst = gen_random(rng, rng.randint(2, 25), rng.randint(1, 8), edge_prob=0.4)
            net = build_cost_center_network(inst)
            seed_flow(net, solve_unweighted(inst))
            for hi in range(net.num_centers - 1, 0, -1):
                S, _rest = reachable_partition(net, [hi])
                reachable_centers = {
                    idx for kind, idx in (describe_node(net, x) for x in S) if kind == "center"
                }
                assert not (reachable_centers & set(range(hi))), (
                    f"cost-reducing path from center {hi} into {reachable_centers}"
                )


def observed_cancel_all(net):
    """``cancel_all`` with every job move and slot push watched.  Asserts
    that each job an augmentation moves is dead (label -1) for the rest
    of its round, and that layer distances strictly increase within each
    call; fails after 10 s instead of hanging.  Returns the counters and
    the largest number of units one push moved."""
    moved = []  # (round stamp, job)
    biggest = [0]
    move, push = net._move, net._push

    def watched_move(u, x):
        moved.append((net._stamp, u))
        for stamp, job in moved:
            if stamp == net._stamp:
                assert net._dist[job] == -1, f"job {job} moved but still alive in its round"
        move(u, x)

    def watched_push(e, delta):
        biggest[0] = max(biggest[0], delta)
        push(e, delta)

    net._move, net._push = watched_move, watched_push
    counters = CancelCounters()
    with deadline(10, "the cancellation"):
        cancel_all(net, counters=counters)
    del net._move, net._push
    for dists in counters.distances_per_cancel:
        assert all(a < b for a, b in zip(dists, dists[1:])), dists
    assert_lists_are_residual(net)
    return counters, biggest[0]


def chain_instance(k):
    """Machines 0..k; chain job i links machines i and i+1.  The chain
    jobs come first, so the greedy seed puts each on its lower machine
    (ties go to the lower index), and then pinned jobs give machine 0 two
    more and machines 1..k-1 one more.  Machine 0 ends with load 3 and
    machine k with none; the only cost-reducing path shifts every chain
    job, 2k + 2 layers long."""
    edges = [(i, i, 1) for i in range(k)] + [(i, i + 1, 1) for i in range(k)]
    pinned = [0, 0] + list(range(1, k))
    edges += [(k + j, v, 1) for j, v in enumerate(pinned)]
    return BipartiteInstance(k + len(pinned), k + 1, edges)


def spider_instance(rng, legs, length):
    """A hub machine with ``legs`` chains of ``length`` machines hanging
    off it, labels shuffled, and a seed that puts every chain job on the
    machine nearer the hub: the hub carries two pinned jobs plus the
    first job of every leg, and each leg's far end carries nothing.
    Returns the instance and that seed."""
    n_machines = 1 + legs * length
    label = list(range(n_machines))
    rng.shuffle(label)
    edges, seed = [], []
    for leg in range(legs):
        chain = [0] + [1 + leg * length + i for i in range(length)]
        for a, b in zip(chain, chain[1:]):
            edges.append((len(seed), label[a], 1))
            edges.append((len(seed), label[b], 1))
            seed.append(label[a])
        for a in chain[1:-1]:
            edges.append((len(seed), label[a], 1))
            seed.append(label[a])
    for _ in range(2):
        edges.append((len(seed), label[0], 1))
        seed.append(label[0])
    return BipartiteInstance(len(seed), n_machines, edges), SemiMatching(tuple(seed))


class TestBackwardBlockingFlow:
    """The blocking flow walks the layered graph from the sinks back to
    the sources; these instances stress long paths, paths through merged
    slot edges and equal loads."""

    @pytest.mark.parametrize("k", range(4, 13))
    def test_chain_needs_one_path_through_every_machine(self, k):
        inst = chain_instance(k)
        seeded = _greedy_seed(inst)
        assert seeded.degrees(k + 1)[0] == 3 and seeded.degrees(k + 1)[k] == 0
        net = build_cost_center_network(inst)
        seed_flow(net, seeded)
        counters, _ = observed_cancel_all(net)
        assert counters.distances_per_cancel[0] == [2 * k + 2]
        assert counters.units_cancelled == 1
        # The path shifts every chain job onto its upper machine.
        assert extract_semi_matching(net).machine_of[:k] == tuple(range(1, k + 1))
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == 3 + 3 * (k - 1) + 1
        assert got == unit_cost(inst, solve_unweighted(inst))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))
        assert got == brute_force_semi_matching(inst)[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_spider_moves_a_unit_down_every_leg(self, seed):
        rng = random.Random(seed)
        legs, length = rng.randint(2, 4), rng.randint(4, 7)
        inst, seeded = spider_instance(rng, legs, length)
        net = build_cost_center_network(inst)
        seed_flow(net, seeded)
        counters, _ = observed_cancel_all(net)
        assert max(d for dists in counters.distances_per_cancel for d in dists) >= 8
        got = unit_cost(inst, extract_semi_matching(net))
        # The hub keeps its two pinned jobs, the rest of every leg is
        # balanced at two, and each far end takes one job.
        assert got == 3 + legs * ((length - 1) * 3 + 1)
        assert got == unit_cost(inst, solve_unweighted(inst))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))
        if assignment_search_space(inst) <= 200_000:
            assert got == brute_force_semi_matching(inst)[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_two_layer_paths_cross_merged_slots(self, seed):
        # Step marginals 1,1,1,2,2,2,3,3,3 give slot edges of capacity 3.
        # Machine 0 sees every job and carries two to four of them, and
        # some machine carries four, so machine 0 gets a second slot edge.
        # Move two or three of its units from its cheapest slot into that,
        # which keeps the flow saturating; the way back is a path of two
        # layers, center -> machine 0 -> center, and one push moves them all.
        rng = random.Random(seed)
        jobs, machines = rng.randint(6, 8), rng.randint(2, 4)
        edges = [(u, 0) for u in range(jobs)]
        edges += [(u, v) for u in range(jobs) for v in range(1, machines) if rng.random() < 0.6]
        inst = BipartiteInstance(jobs, machines, edges)
        while True:
            seeded = SemiMatching(tuple(rng.choice(inst.job_machines[u]) for u in range(jobs)))
            loads = seeded.degrees(machines)
            if 2 <= loads[0] <= 4 and max(loads) >= 4:
                break
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        net = build_cost_center_network(inst, step)
        seed_flow(net, seeded)
        (cheap, _), (dear, _) = net._machine_center_edges[0][:2]
        shift = min(net.edge_flow(cheap), net._rem[dear], 3)
        assert shift >= 2
        net._push(cheap ^ 1, shift)
        net._push(dear, shift)
        assert net.flow_value() == jobs
        counters, biggest = observed_cancel_all(net)
        assert 2 in [d for dists in counters.distances_per_cancel for d in dists]
        assert biggest >= 2
        best, _ = brute_force_semi_matching(inst, step)
        assert convex_cost(inst, extract_semi_matching(net), step) == best

    def test_a_path_through_a_job_moves_one_unit(self):
        # Six jobs may run on either machine and the seed puts all six on
        # machine 0.  Step marginals 1,1,1,2,2,2 merge into slot edges of
        # capacity 3, so the path from the value-2 center through machine 0,
        # a job and machine 1 into the value-1 center has room for three
        # units at both ends, but its job edge carries one: the round takes
        # three paths of one unit each.
        inst = BipartiteInstance(6, 2, [(u, v) for u in range(6) for v in range(2)])
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        net = seed_flow(build_cost_center_network(inst, step), SemiMatching((0,) * 6))
        counters, biggest = observed_cancel_all(net)
        assert counters.distances_per_cancel == [[4]]
        assert counters.units_cancelled == 3 and biggest == 1
        got = extract_semi_matching(net)
        assert got.degrees(2) == [3, 3]
        assert convex_cost(inst, got, step) == brute_force_semi_matching(inst, step)[0]

    def test_cancel_all_after_cancel_pushes_only_into_sinks(self):
        # Machine 0 carries six jobs, three of them free to move to
        # machines 3..5, which carry nothing; machines 1 and 2 carry five,
        # one of them free to move to machine 0.  Cancelling centers 3.. into
        # 0..2 drains machine 0's centers 3..5, but its slot edges stay, so
        # cancel_all (top 4) later meets center 5 with slot edges and no
        # place among sources or sinks.  Sources [4] reach machine 0 on
        # level 3, where both sink 3 and center 5 sit on level 4; only one
        # unit may move, into sink 3.
        edges = [(u, 0) for u in range(6)] + [(3 + i, 3 + i) for i in range(3)]
        edges += [(6, 0), (6, 1), (7, 0), (7, 2)]
        edges += [(u, 1) for u in range(8, 12)] + [(u, 2) for u in range(12, 16)]
        inst = BipartiteInstance(16, 6, edges)
        seeded = SemiMatching((0,) * 6 + (1, 2) + (1,) * 4 + (2,) * 4)
        net = build_cost_center_network(inst)
        seed_flow(net, seeded)
        counters = CancelCounters()
        cancel(net, range(3, net.num_centers), range(3), counters=counters)
        assert counters.units_cancelled == 3
        assert extract_semi_matching(net).degrees(6) == [3, 5, 5, 1, 1, 1]
        counters = CancelCounters()
        cancel_all(net, counters=counters)
        assert counters.units_cancelled == 1
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == brute_force_semi_matching(inst)[0]
        assert got == unit_cost(inst, solve_unweighted(inst))

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_loads_match_brute_force_and_baseline(self, seed):
        # Every job picks two machines out of a few, so many machines tie
        # on load and many paths have equal length.
        rng = random.Random(seed)
        machines = rng.randint(2, 5)
        jobs = rng.randint(machines, 3 * machines)
        edges = [(u, v) for u in range(jobs) for v in rng.sample(range(machines), 2)]
        inst = BipartiteInstance(jobs, machines, edges)
        net = build_cost_center_network(inst)
        seed_flow(net, SemiMatching(tuple(rng.choice(inst.job_machines[u]) for u in range(jobs))))
        observed_cancel_all(net)
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))
        if assignment_search_space(inst) <= 200_000:
            assert got == brute_force_semi_matching(inst)[0]


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
            seed_flow(net, _greedy_seed(inst))
            if max_machine_degree(inst) > 1:
                assert max(
                    net._rem[e] + net._rem[e ^ 1] for per_v in net._machine_center_edges for e, _ in per_v
                ) > 1
            best, _ = brute_force_semi_matching(inst, costs)
            assert convex_cost(inst, solve_convex(inst, costs), costs) == best
