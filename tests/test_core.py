"""Instance construction, cost evaluation, and assignment validation."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from semimatch.core import (
    MAX_COST,
    MAX_WEIGHT,
    BipartiteInstance,
    ConvexMachineCost,
    CostOverflowError,
    InfeasibleInstanceError,
    SemiMatching,
    Violation,
    convex_cost,
    cost_of_semi_matching,
    machine_cost,
    validate_semi_matching,
)
from semimatch import core, formats, generate

from conftest import fig2_instance
from referees import (
    cost_per_job,
    edge_triples,
    layout,
    machine_loads_per_job,
    parse_instance_by_records,
    tuple_adjacency,
    weight,
)


def outcome(call):
    """What ``call()`` returns, or the class and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # every outcome is compared
        return type(exc), str(exc)


class TestMachineCost:
    def test_empty(self):
        assert machine_cost([]) == 0

    def test_three_distinct(self):
        # sorted (1,2,3): 3*1 + 2*2 + 1*3
        assert machine_cost([3, 1, 2]) == 10

    def test_unit_closed_form(self):
        assert machine_cost([1, 1, 1]) == 6

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=20))
    def test_permutation_invariant(self, ws):
        assert machine_cost(ws) == machine_cost(list(reversed(ws)))
        assert machine_cost(ws) == machine_cost(sorted(ws))

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=15),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_adding_a_job_never_helps(self, ws, extra):
        assert machine_cost(ws + [extra]) >= machine_cost(ws)

    @given(st.lists(st.integers(min_value=1, max_value=1), min_size=0, max_size=30))
    def test_unit_weights_triangular(self, ws):
        d = len(ws)
        assert machine_cost(ws) == d * (d + 1) // 2

    def test_overflow_detected(self):
        with pytest.raises(CostOverflowError):
            machine_cost([2**31 - 1] * 100_000)


def criterion_9_pairs():
    """The edges of criterion 9's unit instance, as sorted pairs."""
    inst = generate.gen_random(random.Random(0xAC09), 10_000, 1_000, num_edges=100_000)
    return [(u, v) for u, vs in enumerate(inst.job_machines) for v in vs]


# Constructor inputs by name: whether the bulk pass takes each, and
# whether it builds an instance.
ROUTE_CASES = {
    "pairs sorted": (True, True),
    "pairs shuffled": (True, True),
    "triples sorted": (True, True),
    "triples shuffled": (True, True),
    "triples of unit weight": (True, True),
    "lists": (True, True),
    "tuple of triples": (True, True),
    "generator": (False, True),
    "bools": (False, True),
    "mixed pairs and triples": (False, True),
    "float in the last weight": (False, False),
    "job id too high": (False, False),
    "job id negative": (False, False),
    "machine id too high": (False, False),
    "machine id negative": (False, False),
    "weight too high": (False, False),
    "weight negative": (False, False),
    "duplicate in order": (False, False),
    "duplicate out of order": (False, False),
    "two bad edges": (False, False),
    "edge not a sequence": (False, False),
    "edge too long": (False, False),
}


def route_input(case):
    """``(num_jobs, num_machines, edges)`` for a case of ``ROUTE_CASES``;
    ``edges()`` makes the input afresh, as a generator must be."""
    rng = random.Random(case)
    jobs, machines = 12, 5
    triples = [
        (u, v, rng.randint(0, 9))
        for u in range(jobs)
        for v in sorted(rng.sample(range(machines), rng.randint(1, machines)))
    ]
    shuffled = rng.sample(triples, len(triples))
    edges = {
        "pairs sorted": [(u, v) for u, v, _ in triples],
        "pairs shuffled": [(u, v) for u, v, _ in shuffled],
        "triples sorted": triples,
        "triples shuffled": shuffled,
        "triples of unit weight": [(u, v, 1) for u, v, _ in shuffled],
        "lists": [list(e) for e in shuffled],
        "tuple of triples": tuple(triples),
        "generator": None,
        "bools": [(True, False, w) if (u, v) == (1, 0) else (u, v, w) for u, v, w in triples],
        "mixed pairs and triples": [e[:2] if i % 2 else e for i, e in enumerate(triples)],
        "float in the last weight": triples[:-1] + [(*triples[-1][:2], 1.5)],
        "job id too high": triples + [(jobs, 0, 1)],
        "job id negative": [(-1, 0, 1)] + triples,
        "machine id too high": triples + [(0, machines, 1)],
        "machine id negative": shuffled + [(3, -1, 1)],
        "weight too high": shuffled[:5] + [(0, 0, MAX_WEIGHT + 1)] + shuffled[5:],
        "weight negative": triples + [(0, 0, -1)],
        "duplicate in order": triples[:3] + [triples[2]] + triples[3:],
        "duplicate out of order": shuffled + [(*shuffled[0][:2], 3)],
        "two bad edges": triples[:2] + [(0, machines, 1)] + triples[2:] + [(jobs, 0, 1)],
        "edge not a sequence": triples + [7],
        "edge too long": triples + [(0, 0, 1, 1)],
    }[case]
    if edges is None:
        return jobs, machines, lambda: (e for e in triples)
    return jobs, machines, lambda: edges


def construction_outcome(num_jobs, num_machines, edges):
    """The constructor's outcome: the instance's edge count and layout,
    or the class and message of what it raised."""
    try:
        inst = BipartiteInstance(num_jobs, num_machines, edges)
    except Exception as exc:  # every outcome is compared
        return type(exc), str(exc)
    return inst.num_edges, layout(inst)


class TestInstanceValidation:
    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BipartiteInstance(1, 1, [(0, 0), (0, 0, 5)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BipartiteInstance(2, 2, [(0, 0), (1, 2)])

    @pytest.mark.parametrize("jobs, machines", [(-1, 1), (1, -1)])
    def test_negative_count_rejected(self, jobs, machines):
        with pytest.raises(ValueError, match="^vertex counts must be non-negative$"):
            BipartiteInstance(jobs, machines, [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BipartiteInstance(1, 1, [(0, 0, -1)])

    @pytest.mark.parametrize(
        "edges, field",
        [
            # Used to build, then fail in the weighted solver's envelope.
            ([(0, 0, 1.5), (1, 0, 2)], "weight 1.5"),
            # Used to build and emit "e 1 1 2.0", which does not parse.
            ([(0, 0, 2.0), (1, 0, 2)], "weight 2.0"),
            ([(0.0, 0, 1), (1, 0, 2)], "job id 0.0"),
            ([(0, 0.0), (1, 0)], "machine id 0.0"),
            ([(0, 0, "2"), (1, 0, 2)], "weight '2'"),
        ],
    )
    def test_non_integer_field_rejected(self, edges, field):
        with pytest.raises(ValueError, match=f"^{field} is not an integer$"):
            BipartiteInstance(2, 1, edges)

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match=r"^job count 2\.0 is not an integer$"):
            BipartiteInstance(2.0, 1, [(0, 0), (1, 0)])

    def test_integer_like_fields_are_read_as_ints(self):
        inst = BipartiteInstance(1, 1, [(False, False, True)])
        assert (inst.job_machines, inst.machine_jobs) == (((0,),), ((0,),))
        assert inst.is_unit_weight() and inst.job_adj == (((0, 1),),)
        assert type(inst.job_machines[0][0]) is type(inst.machine_jobs[0][0]) is int
        assert type(inst.job_adj[0][0][1]) is int

    def test_isolated_job_infeasible(self):
        with pytest.raises(InfeasibleInstanceError):
            BipartiteInstance(2, 1, [(0, 0)])

    def test_weight_defaults_to_one(self):
        inst = BipartiteInstance(1, 1, [(0, 0)])
        assert weight(inst, 0, 0) == 1
        assert inst.is_unit_weight()

    def test_edgeless_jobs_fail_before_a_list_per_job(self):
        # 10**6 declared jobs and no edge: the lowest edgeless job is
        # named without allocating anything per job.
        tracemalloc.start()
        try:
            with pytest.raises(InfeasibleInstanceError, match="^job 0 has no incident edges"):
                BipartiteInstance(10**6, 1, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("case", ROUTE_CASES)
    def test_both_routes_give_the_same_outcome(self, monkeypatch, case):
        # The bulk column pass builds what the per-edge loop builds, and
        # anything it cannot take falls to the loop, which names the
        # first bad edge with the same class and message.
        num_jobs, num_machines, edges = route_input(case)
        taken = []

        def spy(*args):
            columns = bulk_columns(*args)
            taken.append(columns is not None)
            return None if off else columns

        bulk_columns, off = core._bulk_columns, False
        monkeypatch.setattr(core, "_bulk_columns", spy)
        got = construction_outcome(num_jobs, num_machines, edges())
        bulk, builds = ROUTE_CASES[case]
        assert taken == [bulk]
        assert (type(got[0]) is int) == builds  # an edge count, or an exception class
        off = True
        assert construction_outcome(num_jobs, num_machines, edges()) == got

    @pytest.mark.parametrize(
        "jobs, bad", [([-1, 0, 1], -1), ([0, 1, 2], 2)], ids=["first job -1", "last job past the end"]
    )
    def test_ordered_columns_are_ranged_by_their_ends(self, jobs, bad):
        # Strictly increasing pairs: the job column's ends are its range.
        machines = [0, 1, 0]
        assert not core._columns_ok(2, 2, jobs, machines, None)
        with pytest.raises(ValueError, match=rf"^job id {bad} out of range \[0, 2\)$"):
            BipartiteInstance(2, 2, list(zip(jobs, machines)))
        text = "p semimatch 2 2 3\n" + "".join(f"e {u + 1} {v + 1} 1\n" for u, v in zip(jobs, machines))
        with pytest.raises(formats.IdOutOfRangeError) as got:
            formats.parse_instance(text)
        with pytest.raises(formats.IdOutOfRangeError) as want:
            parse_instance_by_records(text)
        assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))
        assert str(got.value).endswith(f"job id {bad + 1} out of range [1, 2]")

    def test_two_bad_edges_name_the_first(self):
        edges = [(0, 0, 1), (1, 9, 1), (2, 0, 1), (0, 1, -4)]
        with pytest.raises(ValueError, match=r"^machine id 9 out of range \[0, 2\)$"):
            BipartiteInstance(3, 2, edges)
        edges[1], edges[3] = edges[3], edges[1]
        with pytest.raises(ValueError, match=r"^weight -4 outside \[0, 2\*\*31\)$"):
            BipartiteInstance(3, 2, edges)

    def test_criterion_9_instance_builds_in_little_memory(self):
        # 10**4 jobs and 10**5 sorted (job, machine) pairs: the bulk pass
        # peaks at about 6.3 MiB above its start; the per-edge loop, with
        # its key set, at about 14.2 MiB.
        edges = criterion_9_pairs()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            inst = BipartiteInstance(10_000, 1_000, edges)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert inst.num_edges == 100_000 and inst.job_weights is None
        assert peak < 10 << 20


def expected_layout(job_adj, machine_adj, _edges):
    """The layout read off the per-edge tuple referee's adjacency."""
    weights = tuple(tuple(w for _v, w in adj) for adj in job_adj)
    return (
        tuple(tuple(v for v, _w in adj) for adj in job_adj),
        tuple(tuple(u for u, _w in adj) for adj in machine_adj),
        None if all(w == 1 for ws in weights for w in ws) else weights,
    )


def shuffled_instance(rng, weight):
    """Shuffled edges of a random instance, with idle machines."""
    jobs, machines = rng.randint(1, 30), rng.randint(1, 8)
    edges = [
        (u, v, weight())
        for u in range(jobs)
        for v in rng.sample(range(machines), rng.randint(1, machines))
    ]
    rng.shuffle(edges)
    return jobs, machines + rng.randint(0, 3), edges


WEIGHTS = {
    "unit": lambda rng: 1,
    "zero": lambda rng: rng.choice([0, 0, 1]),
    "max": lambda rng: rng.choice([1, MAX_WEIGHT, MAX_WEIGHT - 1]),
    "one 2": lambda rng: 1,  # and then one weight 2
}


class TestLayout:
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("seed", range(8))
    def test_every_builder_gives_the_same_layout(self, seed, weights, monkeypatch):
        rng = random.Random(seed)
        jobs, machines, edges = shuffled_instance(rng, lambda: WEIGHTS[weights](rng))
        if weights == "one 2":
            u, v, _ = edges[rng.randrange(len(edges))]
            edges = [(a, b, 2 if (a, b) == (u, v) else w) for a, b, w in edges]
        want = expected_layout(*tuple_adjacency(jobs, machines, edges))
        # The text keeps the shuffled edge order, and its body converts in
        # bulk all the same; with CRLF line ends it is read line by line.
        def text_of(edges):
            return f"p semimatch {jobs} {machines} {len(edges)}\n" + "".join(
                f"e {u + 1} {v + 1} {w}\n" for u, v, w in edges
            )

        text, in_order = text_of(edges), sorted(edges)
        routes, read_bulk = [], formats._read_bulk
        monkeypatch.setattr(
            formats, "_read_bulk", lambda *args: routes.append(read_bulk(*args)) or routes[-1]
        )
        built = [
            BipartiteInstance(jobs, machines, edges),
            formats.parse_instance(text),
            formats.parse_instance(text.replace("\n", "\r\n")),
        ]
        bulk = formats.parse_instance(text_of(in_order))
        assert [columns is not None for columns in routes] == [True, False, True]
        columns = BipartiteInstance.__new__(BipartiteInstance)
        columns._build(jobs, machines, *map(list, zip(*edges)))
        in_order_want = expected_layout(*tuple_adjacency(jobs, machines, in_order))
        for inst, expected in zip(built + [columns, bulk], [want] * 4 + [in_order_want]):
            assert layout(inst) == expected
            assert (inst.num_jobs, inst.num_machines, inst.num_edges) == (
                jobs, machines, len(edges)
            )
            # The unit marker is set exactly when every weight is 1.
            unit = all(w == 1 for _u, _v, w in edges)
            assert inst.is_unit_weight() == (inst.job_weights is None) == unit
        assert unit == (weights == "unit")

    def test_unit_build_without_weights(self):
        # find_center passes no weight column: the instance is unit.
        inst = BipartiteInstance.__new__(BipartiteInstance)
        inst._build(2, 3, [1, 0, 1], [2, 0, 0], None)
        assert layout(inst) == (((0,), (2, 0)), ((0, 1), (), (1,)), None)
        assert inst.is_unit_weight() and inst.weights(1) == (1, 1)
        assert inst.job_adj == (((0, 1),), ((2, 1), (0, 1)))

    def test_weights_and_weight_read_the_parallel_tuples(self):
        inst = BipartiteInstance(2, 3, [(1, 2, 7), (0, 0, 0), (1, 0, MAX_WEIGHT)])
        assert inst.job_weights == ((0,), (7, MAX_WEIGHT))
        assert [inst.weight(1, 2), inst.weight(1, 0), inst.weight(0, 0)] == [7, MAX_WEIGHT, 0]
        with pytest.raises(ValueError):
            inst.weight(0, 1)
        triples = edge_triples(inst)
        assert triples == ((0, 0, 0), (1, 2, 7), (1, 0, MAX_WEIGHT))
        machine_adj = tuple_adjacency(2, 3, triples)[1]
        assert machine_adj == (((0, 0), (1, MAX_WEIGHT)), (), ((1, 7),))

    def test_views_equal_the_tuple_layout_on_every_pool_instance(self, monkeypatch,
                                                                 pool_workloads):
        workloads = pool_workloads
        inputs = []

        def recording(num_jobs, num_machines, edges):
            inputs.append((num_jobs, num_machines, list(edges)))
            return BipartiteInstance(num_jobs, num_machines, inputs[-1][2])

        monkeypatch.setattr(workloads, "BipartiteInstance", recording)
        monkeypatch.setattr(generate, "BipartiteInstance", recording)
        checked = 0
        for workload in workloads.WORKLOADS.values():
            if workload.kind == "cover":
                continue
            for index in range(workloads.POOL_SIZE):
                inputs.clear()
                inst = workload.instance(index)
                assert len(inputs) == 1
                old = tuple_adjacency(*inputs[0])
                triples = edge_triples(inst)
                assert (inst.job_adj, triples) == (old[0], old[2])
                assert tuple_adjacency(inst.num_jobs, inst.num_machines, triples) == old
                assert layout(inst) == expected_layout(*old)
                checked += 1
        assert checked == 3 * workloads.POOL_SIZE


class TestAssignmentCost:
    def test_fig2_heavy_machine(self):
        inst = fig2_instance()
        cost = cost_of_semi_matching(inst, SemiMatching((0, 1, 1, 1)))
        assert cost == 1 + 6  # loads 1 and 3

    def test_fig2_balanced(self):
        inst = fig2_instance()
        cost = cost_of_semi_matching(inst, SemiMatching((0, 0, 1, 1)))
        assert cost == 3 + 3

    def test_single_forced_edge(self):
        inst = BipartiteInstance(1, 1, [(0, 0, 7)])
        assert cost_of_semi_matching(inst, SemiMatching((0,))) == 7

    def test_validate_ok(self):
        inst = fig2_instance()
        assert validate_semi_matching(inst, SemiMatching((0, 0, 1, 1))) is None

    def test_validate_size_mismatch(self):
        inst = fig2_instance()
        violation = validate_semi_matching(inst, SemiMatching((0, 0, 1)))
        assert violation is not None and violation.kind == "size"

    def test_validate_non_edge(self):
        inst = fig2_instance()
        violation = validate_semi_matching(inst, SemiMatching((1, 0, 1, 1)))
        assert violation is not None and violation.kind == "not-an-edge"


    def test_validate_names_the_first_problem(self):
        inst = fig2_instance()
        cases = [
            ((0, 0, 1), Violation("size", "expected 4 assignments, got 3")),
            ((0, None, 1, 1), Violation("unassigned", "job 1 has no machine (got None)")),
            ((0, 0, 1, -1), Violation("unassigned", "job 3 has no machine (got -1)")),
            ((0, 0, 2, 1), Violation("unassigned", "job 2 has no machine (got 2)")),
            ((1, 0, 1, 1), Violation("not-an-edge", "(0, 1) is not an edge")),
            ((0, 0, 0, 7), Violation("not-an-edge", "(2, 0) is not an edge")),
        ]
        for machine_of, want in cases:
            assert validate_semi_matching(inst, SemiMatching(machine_of)) == want

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_validate_names_each_kind_at_any_job(self, weighted):
        # One bad job, first, in the middle or last, is named with its
        # kind and message, and of two bad jobs the earlier is named.
        rng = random.Random(31)
        edges = [(u, v, rng.randint(0, 9) if weighted else 1)
                 for u in range(30) for v in rng.sample(range(8), 3)]
        inst = BipartiteInstance(30, 8, edges)
        good = [vs[0] for vs in inst.job_machines]
        assert validate_semi_matching(inst, SemiMatching(good)) is None
        for u in (0, 15, 29):
            off = next(v for v in range(8) if v not in inst.job_machines[u])
            for bad, want in [
                (None, Violation("unassigned", f"job {u} has no machine (got None)")),
                (8, Violation("unassigned", f"job {u} has no machine (got 8)")),
                (off, Violation("not-an-edge", f"({u}, {off}) is not an edge")),
            ]:
                machine_of = good[:u] + [bad] + good[u + 1:]
                assert validate_semi_matching(inst, SemiMatching(machine_of)) == want
                if u < 29:
                    machine_of[-1] = -1
                    assert validate_semi_matching(inst, SemiMatching(machine_of)) == want

    def test_machine_loads_read_each_jobs_own_weight(self):
        inst = fig2_instance(weights=[5, 6, 7, 8, 9])
        assert SemiMatching((0, 1, 1, 1)).machine_loads(inst) == [[5], [7, 8, 9]]
        assert SemiMatching((0, 0, 1, 1)).machine_loads(inst) == [[5, 6], [8, 9]]
        with pytest.raises(KeyError, match=r"no edge \(2, 0\)"):
            SemiMatching((0, 0, 0, 1)).machine_loads(inst)
        with pytest.raises(KeyError, match=r"no edge \(0, 1\)"):
            cost_of_semi_matching(inst, SemiMatching((1, 0, 1, 1)))

    @pytest.mark.parametrize("weights", [None, [4, 5, 6, 7]], ids=["unit", "weighted"])
    @pytest.mark.parametrize("machine_of", [(0, 1), (0, 1, 1, 0)], ids=["short", "long"])
    def test_a_matching_of_the_wrong_size_is_named(self, weights, machine_of):
        # Once costed as a partial assignment (short) or failed with a
        # bare IndexError (long).
        edges = [(0, 0), (1, 0), (1, 1), (2, 1)]
        if weights is not None:
            edges = [(u, v, w) for (u, v), w in zip(edges, weights)]
        inst = BipartiteInstance(3, 2, edges)
        matching = SemiMatching(machine_of)
        message = f"^expected 3 assignments, got {len(machine_of)}$"
        with pytest.raises(ValueError, match=message):
            matching.machine_loads(inst)
        with pytest.raises(ValueError, match=message):
            cost_of_semi_matching(inst, matching)
        assert validate_semi_matching(inst, matching).detail == message[1:-1]

    @pytest.mark.parametrize("seed", range(40))
    def test_cost_and_loads_match_the_per_job_referee(self, seed):
        # Unit and weighted instances from shuffled edges, with zero
        # weights and weights near 2**31 - 1; matchings that are valid,
        # or put the first, a middle or the last job on a non-edge, on
        # None, on -1 or on a machine past the last.
        rng = random.Random(seed)
        num_jobs, num_machines = rng.randint(1, 12), rng.randint(1, 6)
        kind = ("unit", "small", "zero", "huge")[seed % 4]
        draw = {
            "unit": lambda: 1,
            "small": lambda: rng.randint(0, 9),
            "zero": lambda: rng.choice([0, 0, 1]),
            "huge": lambda: MAX_WEIGHT - rng.randint(0, 3),
        }[kind]
        edges = [
            (u, v, draw())
            for u in range(num_jobs)
            for v in rng.sample(range(num_machines), rng.randint(1, num_machines))
        ]
        rng.shuffle(edges)
        inst = BipartiteInstance(num_jobs, num_machines, edges)
        assert inst.is_unit_weight() or kind != "unit"
        cases = [[rng.choice(vs) for vs in inst.job_machines] for _ in range(4)]
        for u in {0, num_jobs // 2, num_jobs - 1}:
            off = [v for v in range(num_machines) if v not in inst.job_machines[u]]
            for bad in [None, -1, num_machines, *off[:1]]:
                cases.append(cases[0][:u] + [bad] + cases[0][u + 1:])
        cases.append(cases[0][:-1] + [-1])
        cases[-1][num_jobs // 2] = num_machines  # two non-edges: the first is named
        for machine_of in cases:
            matching = SemiMatching(machine_of)
            assert outcome(lambda: matching.machine_loads(inst)) == outcome(
                lambda: machine_loads_per_job(inst, matching)
            )
            assert outcome(lambda: cost_of_semi_matching(inst, matching)) == outcome(
                lambda: cost_per_job(inst, matching)
            )

class TestConvexCost:
    def test_triangular_matches_unit_cost(self):
        inst = fig2_instance()
        costs = ConvexMachineCost.triangular(inst)
        for assign in [(0, 1, 1, 1), (0, 0, 1, 1)]:
            m = SemiMatching(assign)
            assert convex_cost(inst, m, costs) == cost_of_semi_matching(inst, m)

    def test_linear_counts_jobs(self):
        inst = fig2_instance()
        costs = ConvexMachineCost.linear(inst)
        assert convex_cost(inst, SemiMatching((0, 1, 1, 1)), costs) == 4

    def test_quadratic_fig2(self):
        inst = fig2_instance()
        costs = ConvexMachineCost.quadratic(inst)
        assert convex_cost(inst, SemiMatching((0, 0, 1, 1)), costs) == 8
        assert convex_cost(inst, SemiMatching((0, 1, 1, 1)), costs) == 10

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError, match="not non-decreasing"):
            ConvexMachineCost([(3, 1)])

    def test_negative_marginal_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ConvexMachineCost([(-1, 2)])

    def test_f0_must_vanish(self):
        inst = fig2_instance()
        with pytest.raises(ValueError):
            ConvexMachineCost.from_callable(inst, lambda k: k + 1)

    @pytest.mark.parametrize(
        "marginals, field",
        [
            # Used to be read as (1, 2).
            ([[1.7, 2]], "machine 0: marginal 1.7"),
            # Used to be read as (3,).
            ([[1], ["3"]], "machine 1: marginal '3'"),
            ([[1, 2.0]], "machine 0: marginal 2.0"),
        ],
    )
    def test_non_integer_marginal_rejected(self, marginals, field):
        with pytest.raises(ValueError, match=f"^{field} is not an integer$"):
            ConvexMachineCost(marginals)

    def test_integer_like_marginals_are_read_as_ints(self):
        costs = ConvexMachineCost([[False, True, True]])
        assert costs.marginals == ((0, 1, 1),) and type(costs.marginals[0][1]) is int

    def test_a_machine_past_the_table_has_no_marginals(self):
        # Machine 1 is idle, so its cost is 0; a table one machine short
        # used to raise IndexError here.
        inst = BipartiteInstance(1, 2, [(0, 0)])
        costs = ConvexMachineCost([[1]])
        assert convex_cost(inst, SemiMatching((0,)), costs) == 1
        assert costs.value(1, 0) == 0 and costs.prefix(1, 0) == ()
        with pytest.raises(ValueError, match=r"^machine 1: 0 marginals but degree 1$"):
            costs.value(1, 1)
        with pytest.raises(ValueError, match=r"^machine 1: 0 marginals but degree 1$"):
            convex_cost(inst, SemiMatching((1,)), costs)

    @given(st.lists(st.integers(0, 50), min_size=0, max_size=8))
    def test_value_is_prefix_sum(self, margs):
        margs = sorted(margs)
        costs = ConvexMachineCost([margs])
        for k in range(len(margs) + 1):
            assert costs.value(0, k) == sum(margs[:k])
