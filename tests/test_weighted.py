"""Weighted solver: grouped-relaxation shortest paths on the implicit
exploded graph, cross-checked against brute force and the explicit
baseline, plus the per-phase invariant suite."""

import itertools
import random
from bisect import bisect_left

import pytest

from semimatch.core import (
    BipartiteInstance,
    SemiMatching,
    cost_of_semi_matching,
)
from semimatch.generate import FAMILIES, gen_family, gen_random
from semimatch.oracle import assignment_search_space, brute_force_semi_matching
from semimatch.unweighted import solve_unweighted
from semimatch.weighted import (
    EktState,
    GroupedDijkstra,
    WeightedStats,
    _machine_tables,
    augment,
    baseline_exploded_solver,
    check_invariants,
    solve_weighted,
    update_potentials,
)

from conftest import fig2_instance


class TestWorkedExamples:
    def test_two_jobs_one_machine_forced(self):
        inst = BipartiteInstance(2, 1, [(0, 0, 1), (1, 0, 2)])
        matching = solve_weighted(inst)
        assert matching.machine_of == (0, 0)
        assert cost_of_semi_matching(inst, matching) == 4  # 2*1 + 1*2

    def test_cheap_machine_takes_both(self):
        inst = BipartiteInstance(
            2, 2, [(0, 0, 1), (1, 0, 1), (0, 1, 10), (1, 1, 10)]
        )
        matching = solve_weighted(inst)
        assert cost_of_semi_matching(inst, matching) == 3
        assert matching.machine_of == (0, 0)

    def test_fig2_unit_weights_match_flow_solver(self):
        inst = fig2_instance()
        w_cost = cost_of_semi_matching(inst, solve_weighted(inst))
        u_cost = cost_of_semi_matching(inst, solve_unweighted(inst))
        assert w_cost == u_cost == 6

    def test_zero_weight_edge(self):
        inst = BipartiteInstance(2, 2, [(0, 0, 0), (1, 0, 3), (1, 1, 5)])
        matching = solve_weighted(inst, check=True)
        best, _ = brute_force_semi_matching(inst)
        assert cost_of_semi_matching(inst, matching) == best == 3

    def test_heavier_job_lands_in_earlier_slot(self):
        inst = BipartiteInstance(2, 1, [(0, 0, 1), (1, 0, 2)])
        state = EktState(inst)
        for _ in range(2):
            run = GroupedDijkstra(state).run()
            update_potentials(state, run)
            augment(state, run)
        assert state.slots[0] == [1, 0]  # weight-2 job first
        assert state.slot_weights[0] == [2, 1]


def search_valleys(state):
    """Each edge's valley as the search finds it, ``bisect_left(negdiffs, -w) + 1``
    over :func:`_machine_tables`, keyed ``(u, v)``; each must be the
    left-most minimiser of ``i*w - shift[v][i-1]`` over v's domain."""
    inst = state.instance
    out = {}
    for v, jobs in enumerate(inst.machine_jobs):
        if not jobs:
            continue
        negdiffs, _free_n = _machine_tables(state, v)
        for u in jobs:
            w = inst.weight(u, v)
            g = bisect_left(negdiffs, -w) + 1
            row = [i * w - s for i, s in enumerate(state.shift[v], start=1)]
            assert g == row.index(min(row)) + 1, (u, v, row, g)
            out[(u, v)] = g
    return out


class TestValleyComputation:
    def test_first_iteration_all_ones(self):
        state = EktState(fig2_instance())
        assert set(search_valleys(state).values()) == {1}

    def test_hand_built_potentials(self):
        # machine with slot potentials (0, 5, 7, 0): consecutive rises 5, 2, -7
        inst = BipartiteInstance(
            5, 1, [(0, 0, 6), (1, 0, 4), (2, 0, 9), (3, 0, 2), (4, 0, 1)]
        )
        state = EktState(inst)
        state.slots[0] = [2, 0, 1]
        state.slot_weights[0] = [9, 6, 4]
        state.job_slot = [(0, 2), (0, 3), (0, 1), None, None]
        state.shift[0] = [0, 5, 7, 0]
        valleys = search_valleys(state)
        assert valleys[(0, 0)] == 1  # w=6 beats the first rise of 5
        assert valleys[(1, 0)] == 2  # w=4 loses to 5, beats 2
        assert valleys[(3, 0)] == 2  # w=2 ties the rise of 2; ties stop early
        assert valleys[(4, 0)] == 3  # w=1 loses both rises, lands past the prefix

    def test_valleys_monotone_in_weight(self):
        rng = random.Random(15)
        for _ in range(20):
            inst = gen_random(rng, rng.randint(2, 12), rng.randint(1, 4),
                              edge_prob=0.8, max_weight=30)
            state = EktState(inst)
            for _ in range(inst.num_jobs):
                run = GroupedDijkstra(state).run()
                update_potentials(state, run)
                augment(state, run)
                valleys = search_valleys(state)
                for v, jobs in enumerate(inst.machine_jobs):
                    heaviest_first = sorted(jobs, key=lambda u: (-inst.weight(u, v), u))
                    seen = [valleys[(u, v)] for u in heaviest_first]
                    assert seen == sorted(seen)


def exploded_optimum(inst, jobs):
    """Exhaustive minimum cost of any exploded matching covering exactly ``jobs``."""
    best = None
    choices = [
        [
            (v, i, w)
            for v, w in zip(inst.job_machines[u], inst.weights(u))
            for i in range(1, inst.machine_degree(v) + 1)
        ]
        for u in jobs
    ]
    for combo in itertools.product(*choices):
        slots = {(v, i) for v, i, _ in combo}
        if len(slots) != len(combo):
            continue
        cost = sum(i * w for _v, i, w in combo)
        if best is None or cost < best:
            best = cost
    return best


class TestPhaseInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_each_phase_keeps_the_matching_extreme(self, seed):
        # Phase k adds job order[k-1], so after it exactly the first k jobs
        # in processing order are matched, as cheaply as any matching of
        # those jobs alone can be.
        rng = random.Random(seed)
        inst = gen_random(rng, rng.randint(2, 4), rng.randint(1, 2),
                          edge_prob=1.0, max_weight=9)
        state = EktState(inst)
        for k in range(1, inst.num_jobs + 1):
            run = GroupedDijkstra(state).run()
            update_potentials(state, run)
            augment(state, run)
            check_invariants(state)
            matched = [u for u in range(inst.num_jobs) if state.job_slot[u] is not None]
            assert matched == sorted(state.order[:k])
            implicit = sum(
                i * w
                for v in range(inst.num_machines)
                for i, w in enumerate(state.slot_weights[v], start=1)
            )
            assert implicit == exploded_optimum(inst, matched)

    @staticmethod
    def first_failing_phase(inst, update, aug, search=lambda state: GroupedDijkstra(state).run()):
        """Phase (1-based) whose ``check_invariants`` first fails, or None."""
        state = EktState(inst)
        for k in range(1, inst.num_jobs + 1):
            run = search(state)
            update(state, run)
            aug(state, run)
            try:
                check_invariants(state)
            except AssertionError:
                return k
        return None

    def test_missed_dirty_mark_fails_in_its_phase(self):
        # An update that moves a slot's shift but leaves its machine's
        # cached tables marked clean is caught in that very phase: the
        # first one that moves a shift on a machine augment does not
        # dirty anyway.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)
        moved_at = []

        def update_keeping_marks(state, run):
            kept = list(state.negdiffs)
            update_potentials(state, run)
            state.negdiffs[:] = kept
            slots = (state.job_slot[u] for u, d in run.dist_job.items() if d != run.bound)
            if any(slot is not None and slot[0] != run.terminal[0] for slot in slots):
                moved_at.append(state.iteration + 1)

        failed = self.first_failing_phase(inst, update_keeping_marks, augment)
        assert moved_at and failed == moved_at[0]
        assert self.first_failing_phase(inst, update_potentials, augment) is None

    def test_slot_above_the_frame_fails_in_its_phase(self):
        # An update that raises a finalized slot's potential instead of
        # lowering it puts the slot above the common potential, which the
        # search's weight stop relies on never happening: the first phase
        # that finalizes a slot short of its bound fails, on that check.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)
        state = EktState(inst)
        for _ in range(inst.num_jobs):
            run = GroupedDijkstra(state).run()
            update_potentials(state, run)
            raised = {
                state.job_slot[u]: run.bound - d for u, d in run.dist_job.items()
                if d < run.bound and state.job_slot[u] is not None
            }
            for (v, i), gap in raised.items():
                state.shift[v][i - 1] += 2 * gap
            augment(state, run)
            if raised:
                with pytest.raises(AssertionError, match="a slot passed the frame"):
                    check_invariants(state)
                return
            check_invariants(state)
        pytest.fail("no phase finalized a slot short of its bound")

    def test_floor_above_its_valley_fails_in_its_phase(self):
        # A floor the search wrote too high would let it skip a line whose
        # valley is within the bound; the check after that phase fails.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)
        state = EktState(inst)
        run = GroupedDijkstra(state).run()
        update_potentials(state, run)
        augment(state, run)
        check_invariants(state)
        v, w, e = state.pairs[0][0]
        state.floor[e] = 1 + min(i * w - s for i, s in enumerate(state.shift[v], start=1))
        with pytest.raises(AssertionError, match="floor above its valley"):
            check_invariants(state)

    @staticmethod
    def assert_each_matched_job_dual_is_checked(step, message):
        """After every phase, moving any one matched job's ``_raw_job`` by
        ``step`` fails ``check_invariants`` with ``message``."""
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)
        state = EktState(inst)
        for _ in range(inst.num_jobs):
            run = GroupedDijkstra(state).run()
            update_potentials(state, run)
            augment(state, run)
            for u in state.order[: state.iteration]:
                state._raw_job[u] += step
                with pytest.raises(AssertionError, match=message):
                    check_invariants(state)
                state._raw_job[u] -= step
            check_invariants(state)

    def test_raised_job_dual_fails_on_its_reduced_cost(self):
        # One more on a matched job's offset prices its own matching edge
        # at reduced cost -1.
        self.assert_each_matched_job_dual_is_checked(1, "negative reduced cost -1 on job")

    def test_lowered_job_dual_fails_on_its_matching_edge(self):
        # One less keeps every reduced cost non-negative, but the job's
        # matching edge is no longer tight.
        self.assert_each_matched_job_dual_is_checked(-1, "matching edge .* not tight")

    def test_missing_free_slot_shift_fails_in_its_phase(self):
        # An augment that grows a machine's prefix without giving its next
        # free slot a shift fails the very first phase.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)

        def augment_without_trailing_zero(state, run):
            v = run.terminal[0]
            augment(state, run)
            if len(state.shift[v]) > len(state.slots[v]):
                state.shift[v].pop()

        assert self.first_failing_phase(inst, update_potentials, augment_without_trailing_zero) == 1

    def test_source_out_of_order_fails_in_its_phase(self):
        # Searches that swap the sources of phases 4 and 5 leave the
        # matched set off order[:4] after phase 4 only, which fails there.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)

        def search_swapping_phases_4_and_5(state):
            order = state.order
            state.order = order[:3] + [order[4], order[3]] + order[5:]
            run = GroupedDijkstra(state).run()
            state.order = order
            return run

        assert self.first_failing_phase(
            inst, update_potentials, augment, search_swapping_phases_4_and_5
        ) == 4

    def test_search_refuses_a_matched_source(self):
        # A search from a matched job would walk slot owners forever in
        # GroupedDijkstra.path; it is refused before it starts, as is a phase
        # past the last job.
        inst = gen_random(random.Random(3), 12, 3, edge_prob=1.0, max_weight=20)
        state = EktState(inst)
        run = GroupedDijkstra(state).run()
        update_potentials(state, run)
        augment(state, run)
        state.order[1] = state.order[0]
        with pytest.raises(ValueError, match="no unmatched source"):
            GroupedDijkstra(state)
        state.iteration = inst.num_jobs
        with pytest.raises(ValueError, match="no unmatched source"):
            GroupedDijkstra(state)

    def test_augment_refuses_a_terminal_that_is_not_the_free_slot(self):
        # A record augmented twice names a slot that the first augment
        # filled: its machine's first free slot has moved on.
        inst = BipartiteInstance(2, 1, [(0, 0, 3), (1, 0, 5)])
        state = EktState(inst)
        run = GroupedDijkstra(state).run()
        update_potentials(state, run)
        augment(state, run)
        with pytest.raises(ValueError, match=r"^terminal \(0, 1\) is not the first unmatched slot$"):
            augment(state, run)

    def test_matching_is_refused_before_the_last_phase(self):
        inst = BipartiteInstance(2, 1, [(0, 0, 3), (1, 0, 5)])
        state = EktState(inst)
        for _ in range(inst.num_jobs):
            with pytest.raises(ValueError, match="^not every job is matched yet$"):
                state.matching()
            run = GroupedDijkstra(state).run()
            update_potentials(state, run)
            augment(state, run)
        assert state.matching().machine_of == (0, 0)

    def test_phase_count_equals_jobs(self):
        rng = random.Random(9)
        inst = gen_random(rng, 12, 5, edge_prob=0.5, max_weight=50)
        stats = WeightedStats()
        solve_weighted(inst, stats=stats)
        assert stats.iterations == inst.num_jobs
        assert len(stats.group_relaxations) == inst.num_jobs

    def test_relaxations_bounded_by_edges(self):
        rng = random.Random(21)
        for _ in range(10):
            inst = gen_random(rng, rng.randint(5, 40), rng.randint(2, 10),
                              edge_prob=0.4, max_weight=100)
            stats = WeightedStats()
            solve_weighted(inst, stats=stats)
            assert max(stats.group_relaxations) <= inst.num_edges

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_live_machine_pops_bounded_by_envelope_work(self, family, check):
        # A current candidate popped off the frontier is its machine's
        # envelope minimum, so each such pop finalizes a slot or ends the
        # phase; stale candidates are dropped uncounted.
        rng = random.Random(4400 + len(family))
        for _ in range(6):
            inst = gen_family(rng, family)
            stats = WeightedStats()
            solve_weighted(inst, stats=stats, check=check)
            assert stats.machine_pops == stats.envelope_delete_mins + stats.iterations

    @pytest.mark.parametrize("family", FAMILIES)
    def test_checked_solve_runs_the_user_path(self, family):
        # check=True only audits the heaps: the assignment and every
        # counter (relaxations per phase, envelope inserts and delete-mins,
        # frontier pushes, machine pops) match the unchecked solve exactly.
        rng = random.Random(4500 + len(family))
        for _ in range(6):
            inst = gen_family(rng, family)
            plain, checked = WeightedStats(), WeightedStats()
            matching = solve_weighted(inst, stats=plain)
            assert solve_weighted(inst, stats=checked, check=True) == matching
            assert checked == plain

    def test_seeded_skewed_solve_does_pinned_work(self):
        # The exact work of one all-edges solve with many ties and zero
        # weights, recorded once: a change to the envelope heap or the
        # search that keeps the answer but does more or less work (or
        # breaks ties differently) shows up here.
        inst = gen_random(random.Random(12), 60, 4, edge_prob=1.0, min_weight=0, max_weight=100)
        stats = WeightedStats()
        matching = solve_weighted(inst, stats=stats)
        assert cost_of_semi_matching(inst, matching) == 6381
        assert "".join(map(str, matching.machine_of)) == (
            "333222221120310032202331000212002103311302330100122303103221"
        )
        assert (
            stats.iterations, sum(stats.group_relaxations), stats.envelope_inserts,
            stats.envelope_delete_mins, stats.heap_pushes, stats.machine_pops,
        ) == (60, 2928, 1089, 680, 2144, 740)

    def test_seeded_sparse_solve_does_pinned_work(self):
        # Wide weights on sparse edges: many relaxations land beyond the
        # phase's terminal bound and are dropped.  Recorded once, like the
        # skewed solve above, so a change to what the search drops that
        # keeps the answer but changes the work shows up here.
        inst = gen_random(random.Random(0), 80, 20, num_edges=800, min_weight=1, max_weight=10**6)
        stats = WeightedStats()
        matching = solve_weighted(inst, stats=stats)
        assert cost_of_semi_matching(inst, matching) == 12210345
        assert " ".join(map(str, matching.machine_of)) == (
            "16 13 6 12 13 18 8 3 11 5 14 18 5 13 8 15 15 13 18 11 8 7 8 4 17 14 1 6 11 12 "
            "1 17 9 0 6 9 10 9 0 18 10 11 6 3 4 17 12 14 14 15 8 0 7 2 4 16 13 9 0 7 "
            "7 14 2 2 0 5 11 4 16 12 19 0 19 12 10 5 1 7 3 16"
        )
        assert stats.group_relaxations == [
            4, 5, 13, 7, 7, 10, 11, 12, 15, 7, 12, 29, 36, 79, 84, 9, 19, 94, 34, 81,
            45, 14, 50, 110, 36, 44, 55, 46, 122, 194, 240, 250, 13, 13, 18, 7, 19, 11, 76, 40,
            172, 72, 131, 19, 27, 10, 113, 19, 155, 95, 11, 21, 234, 8, 39, 11, 10, 38, 52, 40,
            83, 79, 32, 19, 11, 90, 50, 103, 9, 24, 10, 112, 11, 47, 88, 213, 18, 137, 19, 18,
        ]
        assert (
            stats.iterations, stats.envelope_inserts, stats.envelope_delete_mins,
            stats.heap_pushes, stats.machine_pops,
        ) == (80, 710, 373, 1340, 453)

    def test_seeded_chain_solve_does_pinned_work(self):
        # Every phase reroutes every matched job one machine up, through
        # long runs of tied lightest edges.  Recorded once, like the solves
        # above: a change that keeps the answer but pops in another order
        # shows up in the relaxations, delete-mins or machine pops.
        inst = gen_family(random.Random(0), "chain")
        stats = WeightedStats()
        matching = solve_weighted(inst, stats=stats)
        assert cost_of_semi_matching(inst, matching) == 111234
        assert matching.machine_of == tuple(reversed(range(13)))
        assert stats.group_relaxations == [13, 25, 36, 46, 55, 63, 70, 76, 81, 85, 88, 90, 91]
        assert (
            stats.iterations, stats.envelope_inserts, stats.envelope_delete_mins,
            stats.machine_pops,
        ) == (13, 568, 78, 91)

    def test_seeded_near_2_31_solve_does_pinned_work(self):
        # Weights within 3 of 2^31 - 1: distances far past 2^32 and near
        # ties everywhere.  Recorded once, like the chain solve above.
        inst = gen_family(random.Random(5), "near-2^31")
        stats = WeightedStats()
        matching = solve_weighted(inst, stats=stats)
        assert cost_of_semi_matching(inst, matching) == 165356240638
        assert "".join(map(str, matching.machine_of)) == "22112101200102200011"
        assert stats.group_relaxations == [
            1, 1, 3, 7, 2, 2, 13, 7, 5, 20, 9, 15, 27, 28, 25, 33, 36, 38, 41, 43,
        ]
        assert (
            stats.iterations, stats.envelope_inserts, stats.envelope_delete_mins,
            stats.machine_pops,
        ) == (20, 331, 178, 198)

    def test_envelope_ops_accounting(self):
        rng = random.Random(33)
        inst = gen_random(rng, 30, 8, edge_prob=0.4, max_weight=100)
        stats = WeightedStats()
        solve_weighted(inst, stats=stats)
        total_slots = inst.num_jobs
        assert stats.envelope_inserts <= sum(stats.group_relaxations)
        assert stats.envelope_delete_mins <= sum(stats.group_relaxations) + total_slots


class TestProcessingOrder:
    def test_largest_lightest_edge_first_with_ties_in_index_order(self):
        inst = BipartiteInstance(5, 2, [
            (0, 0, 3), (0, 1, 9),  # lightest edge 3
            (1, 0, 5),             # 5
            (2, 1, 3), (2, 0, 4),  # 3
            (3, 0, 8), (3, 1, 5),  # 5
            (4, 1, 0),             # 0
        ])
        assert EktState(inst).order == [1, 3, 0, 2, 4]

    def test_all_equal_weights_keep_index_order_and_its_work(self):
        # Every edge weighs 7, so the order is the identity and the solve
        # does exactly the work recorded for it under index order.
        rng = random.Random(5)
        inst = gen_family(rng, "all-equal")
        for other in (gen_family(rng, "all-equal") for _ in range(10)):
            assert EktState(other).order == list(range(other.num_jobs))
        assert EktState(inst).order == list(range(20))
        stats = WeightedStats()
        matching = solve_weighted(inst, stats=stats)
        assert "".join(map(str, matching.machine_of)) == "22100101202101201201"
        assert stats.group_relaxations == [
            1, 2, 4, 3, 6, 4, 14, 3, 2, 20, 2, 2, 25, 3, 3, 34, 2, 3, 41, 2,
        ]
        assert (
            stats.envelope_inserts, stats.envelope_delete_mins,
            stats.heap_pushes, stats.machine_pops,
        ) == (174, 156, 361, 176)

    def test_chain_reroutes_every_matched_job_each_phase(self):
        rng = random.Random(6)
        for _ in range(5):
            inst = gen_family(rng, "chain")
            state = EktState(inst)
            assert state.order == list(range(inst.num_jobs))  # lightest edges all tie
            for k in range(inst.num_jobs):
                run = GroupedDijkstra(state).run()
                assert len(run.path(state)) == k + 1
                update_potentials(state, run)
                augment(state, run)
            assert state.matching().machine_of == tuple(reversed(range(inst.num_jobs)))

    def test_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_family(random.Random(0), "star")


def stop_instances(seed):
    """Weighted family instances and random ones, tie-heavy to wide-weight."""
    rng = random.Random(seed)
    for family in FAMILIES:
        for _ in range(4):
            yield gen_family(rng, family)
    for max_weight in (3, 100, 10**6):
        for _ in range(4):
            yield gen_random(rng, rng.randint(2, 30), rng.randint(1, 8),
                             edge_prob=rng.uniform(0.2, 1.0), min_weight=0,
                             max_weight=max_weight)


def with_job_edges(inst, arrange):
    """``inst`` rebuilt with each job's ``(machine, weight)`` pairs put in
    the order ``arrange`` returns."""
    return BipartiteInstance(inst.num_jobs, inst.num_machines, [
        (u, v, w) for u, pairs in enumerate(inst.job_adj) for v, w in arrange(list(pairs))
    ])


def assert_stop_keeps_lines_up_to_the_bound(inst):
    """Each phase, every line of a popped job whose minimum over its
    machine's domain is at most the phase bound reached the machine's
    envelope heap."""
    state = EktState(inst)
    for _ in range(inst.num_jobs):
        run = GroupedDijkstra(state, check=True).run()
        for u, d in run.dist_job.items():
            b = d - state._raw_job[u]
            for v, w, _e in state.pairs[u]:
                valley = min(b + i * w - s for i, s in enumerate(state.shift[v], start=1))
                if valley <= run.bound:
                    heap = state.heaps[v]
                    assert heap is not None and (w, b) in heap._shadow_rows, (
                        f"phase {state.iteration}: job {u}'s line on machine {v} "
                        f"has valley {valley} <= bound {run.bound} but was dropped"
                    )
        update_potentials(state, run)
        augment(state, run)
        check_invariants(state)


class TestWeightStop:
    @pytest.mark.parametrize("seed", range(3))
    def test_stop_drops_only_lines_beyond_the_bound(self, seed):
        # The lightest-first weight stop and the valley-floor skip, like
        # the valley cut, drop only lines that could never pop.
        for inst in stop_instances(4600 + seed):
            assert_stop_keeps_lines_up_to_the_bound(inst)

    def test_an_edge_at_the_bound_after_a_raised_floor_stops_nothing(self):
        # In the last phase job 3 pops at b = -1 under bound 1.  Its edge
        # to machine 0 weighs 2 and its floor has risen to 3, so it is
        # skipped with b + w at the bound, not beyond it; the next edge,
        # to machine 1, also weighs 2 and its valley b + 2 is the bound.
        inst = BipartiteInstance(5, 3, [
            (0, 2, 1), (1, 0, 1), (2, 0, 1), (3, 0, 2), (3, 1, 2), (3, 2, 1), (4, 1, 1),
        ])
        assert_stop_keeps_lines_up_to_the_bound(inst)

    def test_pairs_are_lightest_first_ties_in_input_order(self):
        inst = BipartiteInstance(2, 4, [
            (0, 2, 5), (0, 0, 3), (0, 3, 5), (0, 1, 3),
            (1, 3, 0), (1, 1, 9),
        ])
        # Each pair carries its edge's index, counted job by job in input
        # order, and each edge's valley floor starts at its weight.
        state = EktState(inst)
        assert state.pairs == [
            ((0, 3, 1), (1, 3, 3), (2, 5, 0), (3, 5, 2)), ((3, 0, 4), (1, 9, 5)),
        ]
        assert state.floor == [5, 3, 5, 3, 0, 9]

    def test_job_edge_order_does_not_matter(self):
        # Each job's edges reversed, or shuffled, change neither the
        # assignment nor the search's pops, only which lines above the
        # bound an envelope heap is offered.
        rng = random.Random(4700)
        sparse = gen_random(random.Random(0), 80, 20, num_edges=800,
                            min_weight=1, max_weight=10**6)
        families = [gen_family(rng, family) for family in FAMILIES for _ in range(4)]

        def shuffled(pairs):
            rng.shuffle(pairs)
            return pairs

        for inst in [sparse, *families]:
            base = WeightedStats()
            matching = solve_weighted(inst, stats=base)
            assert cost_of_semi_matching(inst, matching) == cost_of_semi_matching(
                inst, baseline_exploded_solver(inst)
            )
            for arrange in (lambda pairs: pairs[::-1], shuffled):
                other = with_job_edges(inst, arrange)
                stats = WeightedStats()
                assert solve_weighted(other, stats=stats) == matching
                assert (
                    stats.iterations, stats.group_relaxations,
                    stats.envelope_delete_mins, stats.machine_pops,
                ) == (
                    base.iterations, base.group_relaxations,
                    base.envelope_delete_mins, base.machine_pops,
                )


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(150))
    def test_tiny_instances_vs_brute_force(self, seed):
        rng = random.Random(seed)
        inst = gen_random(rng, rng.randint(1, 6), rng.randint(1, 4),
                          edge_prob=rng.uniform(0.3, 1.0), max_weight=10)
        best, _ = brute_force_semi_matching(inst)
        matching = solve_weighted(inst, check=(seed % 5 == 0))
        assert cost_of_semi_matching(inst, matching) == best

    @pytest.mark.parametrize("seed", range(25))
    def test_medium_instances_vs_baseline(self, seed):
        rng = random.Random(1000 + seed)
        inst = gen_random(rng, rng.randint(1, 50), rng.randint(1, 15),
                          edge_prob=rng.uniform(0.1, 0.6), max_weight=1000)
        fast = cost_of_semi_matching(inst, solve_weighted(inst))
        slow = cost_of_semi_matching(inst, baseline_exploded_solver(inst))
        assert fast == slow

    def test_unit_weights_match_unweighted_solver(self):
        rng = random.Random(5150)
        for _ in range(30):
            inst = gen_random(rng, rng.randint(1, 60), rng.randint(1, 15),
                              edge_prob=0.3)
            a = cost_of_semi_matching(inst, solve_weighted(inst))
            b = cost_of_semi_matching(inst, solve_unweighted(inst))
            assert a == b

    @pytest.mark.parametrize("family", ["all-equal", "mostly-zero", "near-2^31", "chain"])
    @pytest.mark.parametrize("seed", range(8))
    def test_ties_zeros_and_huge_weights_vs_baseline(self, family, seed):
        # Every unreached node shares one potential, the sum of the phase
        # bounds, which the solver keeps only as zero offsets; equal and
        # zero weights make many reduced distances tie, weights near
        # 2^31 - 1 push potentials far from zero, and chains make every
        # phase re-route all the jobs matched before it.
        rng = random.Random(7000 + seed)
        for k in range(6):
            inst = gen_family(rng, family)
            got = cost_of_semi_matching(inst, solve_weighted(inst, check=(k % 2 == 0)))
            assert got == cost_of_semi_matching(inst, baseline_exploded_solver(inst))
            if assignment_search_space(inst) <= 20_000:
                best, _ = brute_force_semi_matching(inst)
                assert got == best

    def test_checked_mode_on_a_weighted_batch(self):
        rng = random.Random(864)
        for _ in range(20):
            inst = gen_random(rng, rng.randint(1, 14), rng.randint(1, 6),
                              edge_prob=0.6, max_weight=40)
            matching = solve_weighted(inst, check=True)
            if assignment_search_space(inst) <= 100_000:
                best, _ = brute_force_semi_matching(inst)
                assert cost_of_semi_matching(inst, matching) == best
