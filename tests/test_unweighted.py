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
    coreach,
    describe_node,
    live_top,
    max_machine_degree,
    reach,
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


def assert_loads_are_consistent(network):
    """The carrier record is whole and the loads keep the range invariant.

    ``_carried[v]`` holds exactly the jobs whose carrier is machine v,
    each at its ``_where`` index, and no more than v has slots.  Each
    component's centers form one contiguous range ``[lo, hi]`` (component
    0 may also keep the centers above the costliest one in use, which
    cancel_all never splits), and each machine of the component fills
    every slot into a center below ``lo`` and none into a center above
    ``hi``: its slots into other components' centers are full exactly
    when they lie below its own.  Every job shares its carrier's
    component."""
    carrier, where, comp_of = network._carrier, network._where, network.comp
    for u, c in enumerate(carrier):
        assert c < 0 or comp_of[u] == comp_of[c], f"job {u} left its carrier's component"
    for v, carried in enumerate(network._carried):
        x = network.machine_node(v)
        on_v = [u for u in range(network.num_jobs) if carrier[u] == x]
        assert sorted(carried) == on_v, f"machine {v} lists {carried}, carries {on_v}"
        assert all(carried[where[u]] == u for u in carried), f"machine {v}"
        assert len(carried) <= len(network._rank[v]), f"machine {v} carries more than its slots"
    assert sum(map(len, network._carried)) == network.flow_value()
    top, lo, start = live_top(network), {}, 0
    runs = [(c, len(list(grp))) for c, grp in groupby(comp_of[network.num_nodes - network.num_centers:])]
    for i, (c, n) in enumerate(runs):
        dead_tail = i == len(runs) - 1 and c == 0 and start > top
        assert c not in lo or dead_tail, f"component {c}'s centers are not one range"
        lo.setdefault(c, start)
        start += n
    for v, rank in enumerate(network._rank):
        c, load = comp_of[network.machine_node(v)], len(network._carried[v])
        for i, k in enumerate(rank):
            if comp_of[network.center_node(k)] != c:
                assert (i < load) == (k < lo[c]), f"machine {v}, slot {i} breaks the range"


def component_machines(network, comp):
    """Node ids of the machines with jobs in one component, in order."""
    return [
        network.machine_node(v)
        for v in range(network.num_machines)
        if network.instance.machine_degree(v) and network.comp[network.machine_node(v)] == comp
    ]


class TestNetworkConstruction:
    def test_fig2_centers(self):
        net = build_cost_center_network(fig2_instance())
        assert net.num_centers == 3
        assert [net.center_value(k) for k in range(3)] == [1, 2, 3]
        # machine 0 (degree 2) has slots into the first two centers and
        # machine 1 into all three; no slot carries a unit yet
        assert [list(rank) for rank in net._rank] == [[0, 1], [0, 1, 2]]
        assert net._carried == [[], []]
        seed_flow(net, SemiMatching((0, 1, 1, 1)))
        # the seed uses center 3 through machine 1, whose three slots are
        # full; machine 0 fills its first slot and can still feed center 2
        assert [len(jobs) for jobs in net._carried] == [1, 3]
        assert residual_successors(net, net.machine_node(0)) == [0, net.center_node(1)]
        assert residual_successors(net, net.machine_node(1)) == [1, 2, 3]
        assert residual_successors(net, net.center_node(2)) == [net.machine_node(1)]

    def test_slots_stop_at_the_seeded_top(self):
        net = build_cost_center_network(fig2_instance())
        seed_flow(net, SemiMatching((0, 0, 1, 1)))
        # loads 2 and 2: machine 1's free slot feeds center 3, above the
        # costliest center in use, so center 3 has no arc at all
        c3 = net.center_node(2)
        assert residual_successors(net, net.machine_node(1)) == [2, 3]
        assert residual_successors(net, c3) == []
        assert all(c3 not in residual_successors(net, x) for x in range(net.num_nodes))
        assert_loads_are_consistent(net)

    def test_single_edge_shape(self):
        net = build_cost_center_network(BipartiteInstance(1, 1, [(0, 0)]))
        # source and sink are implicit: 3 real nodes (u, v, c1), 2 real edges
        assert net.num_nodes == 3
        assert net.num_centers == 1
        assert net._rank == [range(1)]  # one slot, implied by the load, not an arc
        seed_flow(net, SemiMatching((0,)))
        assert net._carrier == [net.machine_node(0)]  # the job edge is the carrier record
        assert net._carried == [[0]]

    @pytest.mark.parametrize("seed", range(10))
    def test_job_arrays_equal_a_per_edge_build(self, seed):
        # Edge by edge, an unseeded network records nothing: no job has a
        # carrier, no machine carries a job and no slot arc is residual.
        # Machine v's slots feed the centers of its first deg marginals.
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
                marginals = costs.marginals if costs else [range(1, inst.num_jobs + 1)] * inst.num_machines
                assert [[net.center_value(k) for k in rank] for rank in net._rank] == [
                    list(marginals[v][: inst.machine_degree(v)]) for v in range(inst.num_machines)
                ]
                assert all(not residual_successors(net, x) for x in range(inst.num_jobs, net.num_nodes))
                assert net._carrier == [-1] * inst.num_jobs
                assert net._carried == [[] for _ in range(net.num_machines)]
                assert net.flow_value() == 0
                assert_loads_are_consistent(net)

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_centers_equal_the_set_of_marginals(self, seed):
        # Unit costs number the centers 1..max degree without a set over
        # the marginals; that is the set-derived tuple, also with no jobs.
        rng = random.Random(seed)
        instances = [
            gen_random(rng, rng.randint(1, 40), rng.randint(1, 12), edge_prob=rng.uniform(0.05, 1.0)),
            zipf_instance(rng, rng.randint(20, 80), rng.randint(10, 40)),
            BipartiteInstance(0, rng.randint(0, 3), []),
        ]
        for inst in instances:
            net = build_cost_center_network(inst)
            marginals = {m for jobs in inst.machine_jobs for m in range(1, len(jobs) + 1)}
            assert net.center_values == tuple(sorted(marginals))
            twin = build_cost_center_network(inst, ConvexMachineCost.triangular(inst))
            assert net.center_values == twin.center_values
            assert list(map(list, net._rank)) == twin._rank

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
                for name in ("_rank", "_carrier", "_carried", "_where"):
                    assert getattr(net, name) == getattr(ref, name), name
                # Each machine's units fill its cheapest slots.
                want = convex_cost(inst, matching, costs) if costs else unit_cost(inst, matching)
                assert net.flow_cost() == want

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
            lists = (net._carrier, net._where, *net._carried)
            before = [list(a) for a in lists]
            with pytest.raises(ValueError) as raised:
                seed_flow(net, SemiMatching(machine_of))
            assert str(raised.value) == f"invalid matching: {detail}"
            with pytest.raises(ValueError) as refereed:
                seed_flow_per_unit(build_cost_center_network(inst), SemiMatching(machine_of))
            assert str(refereed.value) == str(raised.value)
            assert [list(a) for a in lists] == before
            assert net.flow_value() == 0
        net = seed_flow(build_cost_center_network(inst), SemiMatching((0, 1, 1, 1)))
        with pytest.raises(ValueError, match="^network already carries flow$"):
            seed_flow(net, SemiMatching((0, 0, 1, 1)))
        assert extract_semi_matching(net).machine_of == (0, 1, 1, 1)

    def test_unseeded_network_is_refused(self):
        # Nothing is cancelled on, or read back from, a flow that leaves a
        # job unassigned.
        net = build_cost_center_network(fig2_instance())
        with pytest.raises(ValueError, match="^cancel_all needs a saturating seeded flow$"):
            cancel_all(net)
        with pytest.raises(ValueError, match="^flow is not saturating: job 0 unassigned$"):
            extract_semi_matching(net)

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
        # Machine 1 has slots into all three centers; center 1 would sit
        # strictly inside the layered graph, which the search rules out.
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
        # The loads imply the residual slot arcs: one per used slot from
        # its center into the machine, one per free slot from the machine
        # into its center, up to the costliest center in use.
        def slot_arcs(net):
            top, arcs = live_top(net), set()
            for v, rank in enumerate(net._rank):
                x = net.machine_node(v)
                for i, k in enumerate(rank):
                    if i < len(net._carried[v]):
                        arcs.add((net.center_node(k), x))
                    elif k <= top:
                        arcs.add((x, net.center_node(k)))
            return arcs

        net = build_cost_center_network(fig2_instance())
        for step in ("unseeded", "seeded", "cancelled"):
            if step == "seeded":
                seed_flow(net, SemiMatching((0, 1, 1, 1)))
            elif step == "cancelled":
                cancel(net, [2], [0, 1])
            assert_loads_are_consistent(net)
            derived = {
                (x, y)
                for x in range(net.num_jobs, net.num_nodes)
                for y in residual_successors(net, x)
                if y >= net.num_jobs
            }
            assert derived == slot_arcs(net), step
        assert slot_arcs(net) == {
            (net.center_node(0), net.machine_node(0)),
            (net.center_node(1), net.machine_node(0)),
            (net.center_node(0), net.machine_node(1)),
            (net.center_node(1), net.machine_node(1)),
        }  # loads 2 and 2: machine 1's free slot lies above the top
        assert assigned_machine(net, 1) == 0

    def test_public_cancel_on_a_freshly_seeded_network(self):
        # No cancel_all: the split runs through the centers the seed uses,
        # and the sources reach above the seeded top, which no slot feeds.
        # The step cost ties marginals in runs of three, so a machine's
        # used and free slots can feed the same center.
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
                assert_loads_are_consistent(net)
                S, _rest = reachable_partition(net, upper)
                assert not {net.center_node(k) for k in lower} & S
                # Finishing with cancel_all reaches the optimum.
                cancel_all(net)
                assert_loads_are_consistent(net)
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

    def test_seeded_zipf_solve_does_pinned_work(self):
        # The exact work of one skewed unit solve, recorded once: a change
        # to the layering or the blocking flow that keeps the answer but
        # does more or less work, or cancels in another order, shows up
        # here.
        inst = zipf_instance(random.Random(3), 1000, 100, draws=3)
        counters = CancelCounters()
        assert unit_cost(inst, solve_unweighted(inst, stats=counters)) == 6607
        assert counters.rounds_per_cancel == [5, 3, 2, 1, 2, 4, 2, 1, 1, 1, 2, 2, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1]
        assert counters.distances_per_cancel == [
            [4, 6, 8, 10], [4, 6], [4], [], [4], [4, 10, 12], [4], [], [], [], [4],
            [4], [4, 6], [4, 6], [4, 6], [4], [4], [], [], [], [], [],
        ]
        assert (counters.max_depth, counters.units_cancelled, counters.edges_scanned) == (6, 90, 19423)

    def test_criterion_9_unit_solve_does_pinned_work(self):
        # Criterion 9's unit instance, whose scan count README.md states.
        inst = gen_random(random.Random(0xAC09), 10_000, 1_000, num_edges=100_000)
        counters = CancelCounters()
        assert unit_cost(inst, solve_unweighted(inst, stats=counters)) == 55000
        assert counters.rounds_per_cancel == [1, 1, 3, 1, 1, 1, 1, 1, 1, 1]
        assert counters.distances_per_cancel == [[], [], [4, 6], [], [], [], [], [], [], []]
        assert (counters.max_depth, counters.units_cancelled, counters.edges_scanned) == (5, 70, 14871)

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
        # Centers above the seeded top have no arc in or out, and machine
        # v's slots feed the centers of the marginals 1..deg in order.
        dead = {net.center_node(k) for k in range(live, net.num_centers)}
        assert all(residual_successors(net, x) == [] for x in dead)
        assert not dead.intersection(
            y for x in range(net.num_nodes) if x not in dead for y in residual_successors(net, x)
        )
        for v in range(inst.num_machines):
            want = list(range(1, inst.machine_degree(v) + 1))
            assert [net.center_value(k) for k in net._rank[v]] == want, f"machine {v}"
        assert_loads_are_consistent(net)
        got = unit_cost(inst, extract_semi_matching(net))
        assert got == unit_cost(inst, baseline_exploded_solver(inst))

    @pytest.mark.parametrize("seed", range(8))
    def test_bottom_up_layering_equals_a_plain_bfs(self, seed, monkeypatch):
        # The layering grows top-down from the sources and bottom-up from
        # the sinks.  The large Zipf instance makes cancel_all's lower
        # halves meet machines of the upper half over frozen edges.
        rng = random.Random(seed)
        spokes = rng.randint(30, 60)
        instances = [
            zipf_instance(rng, rng.randint(60, 150), rng.randint(8, 25)),
            star_instance(rng, spokes, rng.randint(10, spokes), rng.randint(3, 8)),
            zipf_instance(random.Random(seed), 1000, 100, draws=3),
        ]
        dry = {"source": 0, "sink": 0}

        def check_layering(network, comp, sources, machines, counters):
            # The search is handed exactly its component's machines.  Each
            # round's layer distance is a plain BFS's source-to-sink
            # distance when the round starts.  The last, failed round
            # returns the labelled set of the side that ran dry: the jobs
            # and machines residually reachable from the sources, or
            # those that reach a sink.  Every label of that round, on
            # either side, is its node's BFS distance from its own side.
            # The plain searches take every free slot up to the
            # component's costliest center as an arc, since the costliest
            # center in use may fall below it as the flow is cancelled.
            assert sorted(machines) == component_machines(network, comp)
            base, cut, top = network._stamp, sources[0], sources[-1]
            src = [network.center_node(k) for k in sources]
            sinks = [network.center_node(k) for k in range(cut) if network.comp[network.center_node(k)] == comp]

            def nearest():
                forward = reach(network, comp, src, top)
                return min((forward[x] for x in sinks if x in forward), default=None)

            starts = []  # per round, the plain distance when it starts

            class Stamps(list):
                def __setitem__(self, x, stamp):
                    if len(starts) < (network._stamp - base) // 2:
                        starts.append(nearest())
                    super().__setitem__(x, stamp)

            plain = network._seen
            network._seen = Stamps(plain)
            try:
                upper_side, labelled = real_cancel(network, comp, sources, machines, counters)
            finally:
                plain[:] = network._seen
                network._seen = plain
            if len(starts) < counters.rounds_per_cancel[-1]:  # a last round that labels nothing
                starts.append(nearest())
            assert starts == counters.distances_per_cancel[-1] + [None]
            forward, backward = reach(network, comp, src, top), coreach(network, comp, sinks, top)
            side = forward if upper_side else backward
            assert sorted(labelled) == sorted(x for x in side if x < network.center_node(0))
            stamp = network._stamp  # the sink side's; the source side's is one less
            for x in range(network.center_node(0)):
                if plain[x] == stamp - 1:
                    assert network._dist[x] == forward.get(x), describe_node(network, x)
                elif plain[x] == stamp:
                    assert network._dist[x] == backward.get(x), describe_node(network, x)
            dry["source" if upper_side else "sink"] += 1
            return upper_side, labelled

        real_cancel = unweighted._cancel
        for inst in instances:
            # The public cancel on a freshly seeded network.
            net = build_cost_center_network(inst)
            seeded = _greedy_seed(inst)
            seed_flow(net, seeded)
            live = live_center_count(net, seeded)
            upper, lower = range((live + 1) // 2, live), range((live + 1) // 2)
            with monkeypatch.context() as m:
                m.setattr(unweighted, "_cancel", check_layering)
                cancel(net, upper, lower, counters=CancelCounters())
            # Every call of cancel_all, inside the components it splits.
            net = build_cost_center_network(inst)
            seed_flow(net, seeded)
            with monkeypatch.context() as m:
                m.setattr(unweighted, "_cancel", check_layering)
                cancel_all(net, counters=CancelCounters())
            assert_loads_are_consistent(net)
            got = unit_cost(inst, extract_semi_matching(net))
            assert got == unit_cost(inst, solve_unweighted(inst))
        assert dry["source"] and dry["sink"], dry

    @pytest.mark.parametrize("seed", range(4))
    def test_level_one_only_shrinks_within_a_call(self, seed, monkeypatch):
        # Each round after the first re-tests only the last round's level
        # 1 of each side.  A spy on the layering's distance labels records,
        # per round and side, the machines put on level 1, and when the
        # round starts, the machines whose top used slot is a source and
        # those whose cheapest free slot is a sink.  Each side's level 1
        # must equal its set, and no round may add a machine to either
        # side's level 1 of the round before.
        rng = random.Random(seed)
        spokes = rng.randint(30, 60)
        instances = [
            zipf_instance(rng, rng.randint(200, 400), rng.randint(10, 30)),
            star_instance(rng, spokes, rng.randint(10, spokes), rng.randint(3, 8)),
            zipf_instance(random.Random(seed), 1000, 100, draws=3),
        ]
        calls = []  # per _cancel call, per round: (labelled, expected), each a (source, sink) pair

        def spied_cancel(network, comp, sources, machines, counters):
            nU, base, cut, rounds = network.num_jobs, network._stamp, sources[0], []

            def expected():
                rank, loads = network._rank, {b: len(network._carried[b - nU]) for b in machines}
                return (
                    {b for b, k in loads.items() if k and rank[b - nU][k - 1] >= cut},
                    {b for b, k in loads.items() if k < len(rank[b - nU]) and rank[b - nU][k] < cut},
                )

            class Labels(list):
                def __setitem__(self, x, d):
                    if len(rounds) < (network._stamp - base) // 2:
                        rounds.append(((set(), set()), expected()))
                    if d == 1:  # a level-1 machine, under its side's stamp
                        rounds[-1][0][network._seen[x] == network._stamp].add(x)
                    super().__setitem__(x, d)

            plain = network._dist
            network._dist = Labels(plain)
            try:
                found = real_cancel(network, comp, sources, machines, counters)
            finally:
                plain[:] = network._dist
                network._dist = plain
            if len(rounds) < counters.rounds_per_cancel[-1]:  # a last round that labels nothing
                rounds.append(((set(), set()), expected()))
            calls.append(rounds)
            return found

        real_cancel = unweighted._cancel
        shrunk = [0, 0]
        for inst in instances:
            want, first, counters = solve_unweighted(inst), len(calls), CancelCounters()
            with monkeypatch.context() as m:
                m.setattr(unweighted, "_cancel", spied_cancel)
                assert solve_unweighted(inst, stats=counters) == want
            assert [len(rounds) for rounds in calls[first:]] == counters.rounds_per_cancel
        for rounds in calls:
            for labelled, expected in rounds:
                assert labelled == expected
            for (earlier, _), (later, _) in zip(rounds, rounds[1:]):
                for side in (0, 1):
                    assert later[side] <= earlier[side]
                    shrunk[side] += later[side] < earlier[side]
        assert all(shrunk), f"no round dropped a machine from level 1 of a side: {shrunk}"

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
    """``cancel_all`` with every job move watched.  Asserts that each job
    an augmentation moves is dead (label -1) for the rest of its round,
    that layer distances strictly increase within each call, and that
    the loads end consistent; fails after 10 s instead of hanging.
    Returns the counters and the number of job moves."""
    moved = []  # (round stamp, job)
    move = net._move

    def watched_move(u, x):
        moved.append((net._stamp, u))
        for stamp, job in moved:
            if stamp == net._stamp:
                assert net._dist[job] == -1, f"job {job} moved but still alive in its round"
        move(u, x)

    net._move = watched_move
    counters = CancelCounters()
    with deadline(10, "the cancellation"):
        cancel_all(net, counters=counters)
    del net._move
    for dists in counters.distances_per_cancel:
        assert all(a < b for a, b in zip(dists, dists[1:])), dists
    assert_loads_are_consistent(net)
    return counters, len(moved)


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
        # Step marginals 1,1,1,2,2,2,3,3,3 tie in runs of three.  Machine 0
        # sees every job and carries two or four of them, so its costliest
        # used slot and its cheapest free one feed the same center, and
        # some machine carries four.  A center is a source or a sink, so
        # that machine is fed by a source or feeds a sink, never both: no
        # path has two layers, and every cancelled unit moves a job.
        rng = random.Random(seed)
        jobs, machines = rng.randint(6, 8), rng.randint(2, 4)
        edges = [(u, 0) for u in range(jobs)]
        edges += [(u, v) for u in range(jobs) for v in range(1, machines) if rng.random() < 0.6]
        inst = BipartiteInstance(jobs, machines, edges)
        while True:
            seeded = SemiMatching(tuple(rng.choice(inst.job_machines[u]) for u in range(jobs)))
            loads = seeded.degrees(machines)
            if loads[0] in (2, 4) and max(loads) >= 4:
                break
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        net = seed_flow(build_cost_center_network(inst, step), seeded)
        rank = net._rank[0]
        assert rank[loads[0] - 1] == rank[loads[0]]  # the tie straddles the load
        counters, moves = observed_cancel_all(net)
        assert 2 not in [d for dists in counters.distances_per_cancel for d in dists]
        assert moves >= counters.units_cancelled
        best, _ = brute_force_semi_matching(inst, step)
        assert convex_cost(inst, extract_semi_matching(net), step) == best

    def test_a_path_through_a_job_moves_one_unit(self):
        # Six jobs may run on either machine and the seed puts all six on
        # machine 0.  Step marginals 1,1,1,2,2,2 tie in runs of three, so
        # machine 0 has three used slots in the value-2 center and machine
        # 1 three free slots into the value-1 center, but a job edge
        # carries one unit: the round takes three paths of one job each.
        inst = BipartiteInstance(6, 2, [(u, v) for u in range(6) for v in range(2)])
        step = ConvexMachineCost.from_callable(inst, lambda k: sum(i // 3 + 1 for i in range(k)))
        net = seed_flow(build_cost_center_network(inst, step), SemiMatching((0,) * 6))
        counters, moves = observed_cancel_all(net)
        assert counters.distances_per_cancel == [[4]]
        assert counters.units_cancelled == 3 and moves == 3
        got = extract_semi_matching(net)
        assert got.degrees(2) == [3, 3]
        assert convex_cost(inst, got, step) == brute_force_semi_matching(inst, step)[0]

    def test_cancel_all_after_cancel_pushes_only_into_sinks(self):
        # Machine 0 carries six jobs, three of them free to move to
        # machines 3..5, which carry nothing; machines 1 and 2 carry five,
        # one of them free to move to machine 0.  Cancelling centers 3.. into
        # 0..2 drains machine 0's centers 3..5, so in cancel_all (top 4)
        # machine 0 has free slots into sink 3, source 4 and center 5,
        # above the top, which is neither.  Sources [4] reach machine 0 on
        # level 3, whose next slot feeds sink 3; only one unit may move,
        # into sink 3.
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
    def test_a_cost_table_short_of_an_idle_machine_solves(self):
        # Used to raise IndexError in the network build.
        inst = BipartiteInstance(1, 2, [(0, 0)])
        costs = ConvexMachineCost([[1]])
        assert solve_convex(inst, costs).machine_of == (0,)
        assert brute_force_semi_matching(inst, costs) == (1, SemiMatching((0,)))

    @pytest.mark.parametrize("table", [[[1]], [[1], [2]]])
    def test_a_cost_table_short_of_a_used_machine_is_named(self, table):
        # Machine 1 has degree 2 but no marginals, or only one.
        inst = BipartiteInstance(2, 2, [(0, 0), (0, 1), (1, 1)])
        costs = ConvexMachineCost(table)
        have = len(table[1]) if len(table) > 1 else 0
        message = rf"^machine 1: {have} marginals but degree 2$"
        with pytest.raises(ValueError, match=message):
            solve_convex(inst, costs)
        with pytest.raises(ValueError, match=message):
            brute_force_semi_matching(inst, costs)

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
        # Equal marginals make a machine's slots share a center: all of
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
                assert any(rank[i] == rank[i + 1] for rank in net._rank for i in range(len(rank) - 1))
            best, _ = brute_force_semi_matching(inst, costs)
            assert convex_cost(inst, solve_convex(inst, costs), costs) == best
