"""Balanced edge covers on general graphs: blossom matching, the
star-forest levelling, and the semi-matching rebalancing step."""

import itertools
import random
import time

import networkx as nx
import pytest

from semimatch import cover
from semimatch.core import BipartiteInstance, InfeasibleInstanceError
from semimatch.cover import (
    EdgeCover,
    GeneralGraph,
    _blossom_mate,
    find_center,
    levelling,
    maximum_matching_general,
    minimum_edge_cover,
)
from semimatch.generate import gen_random_graph
from semimatch.oracle import brute_force_balanced_cover

from conftest import deadline
from referees import edge_triples


def path(n):
    return GeneralGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return GeneralGraph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return GeneralGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return GeneralGraph(10, outer + inner + spokes)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            GeneralGraph(3, [(1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            GeneralGraph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GeneralGraph(2, [(0, 2)])

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            GeneralGraph(-1, [])

    @pytest.mark.parametrize(
        "num_vertices, edges, message",
        [
            # Used to fail inside _build: list indices must be integers.
            (3, [(0, 1.0)], "vertex id 1.0 is not an integer"),
            (3, [(0, 1), ("2", 1)], "vertex id '2' is not an integer"),
            # Used to say only "too many values to unpack".
            (3, [(0, 1, 5)], r"edge \(0, 1, 5\) is not a pair"),
            (3, [(0, 1), 2], "edge 2 is not a pair"),
            (3.0, [(0, 1)], "vertex count 3.0 is not an integer"),
        ],
    )
    def test_rejects_what_is_not_a_pair_of_integers(self, num_vertices, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneralGraph(num_vertices, edges)

    def test_integer_like_ids_are_read_as_ints(self):
        g = GeneralGraph(2, [(True, False)])
        assert g.edges == ((0, 1),) and type(g.edges[0][0]) is int

    def test_edges_are_canonical(self):
        g = GeneralGraph(3, [(2, 0), (1, 0)])
        assert set(g.edges) == {(0, 1), (0, 2)}
        assert all(a < b for a, b in g.edges)


def gen_random_graph_by_listing(rng, num_vertices, edge_prob):
    """``gen_random_graph`` as it read when an isolated vertex drew its
    partner with ``rng.choice`` from a list of the other vertices."""
    pairs = set()
    for a in range(num_vertices):
        for b in range(a + 1, num_vertices):
            if rng.random() < edge_prob:
                pairs.add((a, b))
    deg = [0] * num_vertices
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    for x in range(num_vertices):
        if deg[x] == 0:
            y = rng.choice([z for z in range(num_vertices) if z != x])
            pairs.add((min(x, y), max(x, y)))
            deg[x] += 1
            deg[y] += 1
    return num_vertices, sorted(pairs)


class TestRandomGraph:
    @pytest.mark.parametrize("seed", range(4))
    def test_partners_are_drawn_as_choice_from_a_list_draws_them(self, seed):
        rng = random.Random(seed)
        cases = [(2, 0.0), (2, 1.0), (3, 0.0), (40, 0.0)]
        cases += [(rng.randint(2, 60), rng.choice([0.0, 0.01, 0.05, 0.3])) for _ in range(150)]
        for i, (n, p) in enumerate(cases):
            rng, referee = random.Random(f"{seed}:{i}"), random.Random(f"{seed}:{i}")
            assert gen_random_graph(rng, n, p) == gen_random_graph_by_listing(referee, n, p)
            assert rng.getstate() == referee.getstate()

    # C(91, 2) = 4095 pairs is one draw short of a 4096-draw block, C(92, 2)
    # and C(93, 2) cross one; (2000, 0.001) is the cover-sparse pool's size.
    @pytest.mark.parametrize(
        "n, p, seed",
        [(n, p, f"{n}:{p}") for n in (91, 92, 93) for p in (0.0, 0.01, 0.3, 1.0)]
        + [(2000, 0.001, f"cover-sparse:{i}") for i in range(3)],
    )
    def test_across_blocks_and_at_the_pool_size(self, n, p, seed):
        rng, referee = random.Random(seed), random.Random(seed)
        assert gen_random_graph(rng, n, p) == gen_random_graph_by_listing(referee, n, p)
        assert rng.getstate() == referee.getstate()

    @pytest.mark.parametrize("n, p, message", [
        (1, 0.5, r"^need at least two vertices to cover them all$"),
        (5, 1.5, r"^edge_prob 1\.5 outside \[0, 1\]$"),
    ])
    def test_impossible_parameters_rejected(self, n, p, message):
        with pytest.raises(ValueError, match=message):
            gen_random_graph(random.Random(0), n, p)


class TestEdgeCoverContainer:
    def test_uncovered_vertex_rejected(self):
        with pytest.raises(ValueError, match="uncovered"):
            EdgeCover(3, [(0, 1)])

    @pytest.mark.parametrize("a, b", [(1, 3), (-1, 2)])
    def test_out_of_range_edge_rejected(self, a, b):
        with pytest.raises(ValueError, match=rf"^bad edge \({a}, {b}\)$"):
            EdgeCover(3, [(0, 1), (a, b)])

    def test_cost_and_centers(self):
        cov = EdgeCover(4, [(0, 1), (0, 2), (0, 3)])
        assert cov.balanced_cost() == 6 + 3  # deg 3 -> 6, plus three deg-1
        assert cov.centers() == frozenset({0})
        assert len(cov) == 3

    @pytest.mark.parametrize(
        "edges, repeat",
        [
            ([(0, 1), (1, 0), (1, 2)], (0, 1)),
            ([(1, 2), (0, 1), (1, 2)], (1, 2)),
            ([(2, 1), (0, 1), (1, 2), (0, 1)], (1, 2)),
        ],
    )
    def test_repeated_edge_rejected(self, edges, repeat):
        with pytest.raises(ValueError, match=rf"^edge \({repeat[0]}, {repeat[1]}\) listed twice$"):
            EdgeCover(3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            # Used to fail in the degree count: list indices must be integers.
            ([(0, 1.0), (1, 2)], "vertex id 1.0 is not an integer"),
            ([(0, 1), (1, "2")], "vertex id '2' is not an integer"),
            ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair"),
        ],
    )
    def test_rejects_what_is_not_a_pair_of_integers(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EdgeCover(3, edges)

    def test_integer_like_ids_are_read_as_ints(self):
        cov = EdgeCover(3, iter([(True, False), (2, 1)]))
        assert cov.edges == frozenset({(0, 1), (1, 2)}) and cov.degrees == (1, 2, 1)
        assert {type(v) for e in cov.edges for v in e} == {int}

    def test_degree_one_everywhere_has_no_centers(self):
        cov = EdgeCover(4, [(0, 1), (2, 3)])
        assert cov.centers() == frozenset()
        assert cov.balanced_cost() == 4


class TestMaximumMatching:
    def test_triangle(self):
        assert len(maximum_matching_general(GeneralGraph(3, [(0, 1), (1, 2), (0, 2)]))) == 1

    def test_path4(self):
        assert len(maximum_matching_general(path(4))) == 2

    def test_odd_cycle(self):
        assert len(maximum_matching_general(cycle(5))) == 2

    def test_petersen_has_perfect_matching(self):
        assert len(maximum_matching_general(petersen())) == 5

    def test_matching_edges_are_disjoint_graph_edges(self):
        g = petersen()
        m = maximum_matching_general(g)
        seen = [v for e in m for v in e]
        assert len(seen) == len(set(seen))
        assert all(e in set(g.edges) for e in m)

    @pytest.mark.parametrize("seed", range(100))
    def test_agrees_with_networkx(self, seed):
        rng = random.Random(seed)
        n, edges = gen_random_graph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.6))
        g = GeneralGraph(n, edges)
        ours = len(maximum_matching_general(g))
        ref = nx.Graph(edges)
        ref.add_nodes_from(range(n))
        theirs = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert ours == theirs


def odd_cycles(rng, count):
    """Disjoint odd cycles under a random labelling: one vertex of every
    cycle stays exposed, and every search from such a vertex fails."""
    sizes = [rng.choice((3, 5, 7, 9, 11)) for _ in range(count)]
    label = list(range(sum(sizes)))
    rng.shuffle(label)
    edges, start = [], 0
    for k in sizes:
        edges += [(label[start + i], label[start + (i + 1) % k]) for i in range(k)]
        start += k
    return GeneralGraph(len(label), edges)


def flower(rng, depth):
    """Odd cycles grown on the vertices of odd cycles, plus pendant stems
    and a few chords, under a random labelling.  A search contracts the
    inner cycles first and then meets the outer ones through their
    bases: nested blossoms."""
    edges = []
    n = 1

    def bloom(at, depth):
        nonlocal n
        k = rng.choice((3, 5))
        ring = [at] + list(range(n, n + k - 1))
        n += k - 1
        edges.extend((ring[i], ring[(i + 1) % k]) for i in range(k))
        for v in ring[1:]:
            if depth and rng.random() < 0.5:
                bloom(v, depth - 1)

    bloom(0, depth)
    for _ in range(rng.randint(1, 4)):
        stem = rng.randrange(n)
        for _ in range(rng.randint(1, 3)):
            edges.append((stem, n))
            stem, n = n, n + 1
    present = {frozenset(e) for e in edges}
    for _ in range(rng.randint(0, 3)):
        e = frozenset(rng.sample(range(n), 2))
        if e not in present:
            present.add(e)
            edges.append(tuple(e))
    label = list(range(n))
    rng.shuffle(label)
    return GeneralGraph(n, [(label[a], label[b]) for a, b in edges])


class TestStaleSearchState:
    """Graphs on which most searches fail, so any state one search leaves
    behind is read by the next."""

    @staticmethod
    def check(g):
        # Stale state can send a search round a cycle of parent links
        # forever; fail after 10 s instead of hanging the suite.
        with deadline(10, "the matching search"):
            mate = _blossom_mate(g)
        edges = set(g.edges)
        for u, v in enumerate(mate):
            if v != -1:
                assert mate[v] == u
                assert (min(u, v), max(u, v)) in edges
        ref = nx.Graph(g.edges)
        ref.add_nodes_from(range(g.num_vertices))
        theirs = len(nx.max_weight_matching(ref, maxcardinality=True))
        assert sum(v != -1 for v in mate) == 2 * theirs
        assert len(maximum_matching_general(g)) == theirs

    @pytest.mark.parametrize("n", [100, 250, 400])
    @pytest.mark.parametrize("c", [1, 1.5, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_random_graphs(self, n, c, seed):
        ref = nx.gnp_random_graph(n, c / n, seed=1000 * seed + n)
        self.check(GeneralGraph(n, ref.edges()))

    @pytest.mark.parametrize("seed", range(10))
    def test_disjoint_odd_cycles(self, seed):
        rng = random.Random(seed)
        self.check(odd_cycles(rng, rng.randint(5, 40)))

    @pytest.mark.parametrize("seed", range(30))
    def test_flowers(self, seed):
        rng = random.Random(seed)
        self.check(flower(rng, rng.randint(2, 5)))

    def test_roots_of_earlier_searches_are_reset(self):
        # The greedy seed matches 0-1, 2-3, 4-5, 6-7 and 8-9 (edge order
        # fixes the adjacency order each search follows).  The searches
        # from 10 and 11 succeed, matching 10-0, 1-14, 11-2 and 3-15.  The
        # searches from 12 and 13 then contract the triangle 5-10-0 or
        # 8-11-2, and only by scanning out of 10 or 11, an earlier root,
        # do they reach 12-4-5-0-10-6-7-11-2-8-9-13.
        edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9),
                 (0, 10), (5, 10), (0, 5), (6, 10),
                 (2, 11), (8, 11), (2, 8), (7, 11),
                 (1, 14), (3, 15), (4, 12), (9, 13)]
        self.check(GeneralGraph(16, edges))

    def test_search_cost_follows_the_vertices_it_touches(self):
        # Each of the 10^4 searches from an exposed vertex dies inside its
        # own triangle; a search that pays O(n) would take about 10 s.
        k = 10_000
        g = GeneralGraph(
            3 * k,
            [e for t in range(0, 3 * k, 3) for e in ((t, t + 1), (t + 1, t + 2), (t, t + 2))],
        )
        start = time.perf_counter()
        mate = _blossom_mate(g)
        elapsed = time.perf_counter() - start
        assert sum(v != -1 for v in mate) == 2 * k
        assert elapsed < 1.0, f"{elapsed:.2f} s for {k} failed searches"


class TestMinimumEdgeCover:
    def test_path3_is_forced(self):
        cov = minimum_edge_cover(path(3))
        assert cov.edges == frozenset({(0, 1), (1, 2)})

    def test_triangle_needs_two(self):
        assert len(minimum_edge_cover(GeneralGraph(3, [(0, 1), (1, 2), (0, 2)]))) == 2

    def test_isolated_vertex_infeasible(self):
        with pytest.raises(InfeasibleInstanceError, match="no edge cover"):
            minimum_edge_cover(GeneralGraph(2, []))

    @pytest.mark.parametrize("seed", range(100))
    def test_gallai_identity_and_networkx_size(self, seed):
        rng = random.Random(10_000 + seed)
        n, edges = gen_random_graph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.6))
        g = GeneralGraph(n, edges)
        cov = minimum_edge_cover(g)
        mu = len(maximum_matching_general(g))
        assert len(cov) == n - mu
        ref = nx.Graph(edges)
        theirs = {tuple(sorted(e)) for e in nx.min_edge_cover(ref)}
        assert len(cov) == len(theirs)


class TestLevelling:
    def test_path3_levels(self):
        g = path(3)
        lv = levelling(g, minimum_edge_cover(g))
        assert lv.level == {1: 1, 0: 2, 2: 2}
        assert lv.unleveled == frozenset()
        assert lv.on_odd_levels() == [1]
        assert lv.on_even_levels() == [0, 2]

    def test_perfect_matching_leaves_everything_unleveled(self):
        g = path(4)
        lv = levelling(g, minimum_edge_cover(g))
        assert lv.level == {}
        assert lv.unleveled == frozenset(range(4))

    def test_star_levels(self):
        g = star(3)
        lv = levelling(g, minimum_edge_cover(g))
        assert lv.level == {0: 1, 1: 2, 2: 2, 3: 2}

    @pytest.mark.parametrize("seed", range(60))
    def test_structural_invariants(self, seed):
        rng = random.Random(777 + seed)
        n, edges = gen_random_graph(rng, rng.randint(2, 25), rng.uniform(0.1, 0.7))
        g = GeneralGraph(n, edges)
        cov = minimum_edge_cover(g)
        lv = levelling(g, cov)

        # leveled + unleveled partitions the vertex set
        assert set(lv.level) | set(lv.unleveled) == set(range(n))
        assert not set(lv.level) & set(lv.unleveled)

        # level 1 is exactly the set of cover centers
        assert {x for x, d in lv.level.items() if d == 1} == set(cov.centers())

        # a cover edge is either entirely unleveled or spans levels
        # (odd d, d+1): leveling a star edge always drags the partner in
        for a, b in cov.edges:
            la, lb = lv.level.get(a), lv.level.get(b)
            if la is None or lb is None:
                assert la is None and lb is None
            else:
                lo, hi = sorted((la, lb))
                assert hi == lo + 1 and lo % 2 == 1

        # every vertex on an odd level > 1 was pulled in through a plain
        # graph edge from the previous level
        cover_set = cov.edges
        for x, d in lv.level.items():
            if d % 2 == 1 and d > 1:
                assert any(
                    lv.level.get(y) == d - 1 and (min(x, y), max(x, y)) not in cover_set
                    for y in g.adj[x]
                )


def connected_graphs(n):
    """All connected labeled graphs on n vertices (n >= 2)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        adj = {v: [] for v in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            yield edges


class TestFindCenter:
    def test_path3(self):
        assert find_center(path(3)).balanced_cost() == 5

    def test_path4(self):
        assert find_center(path(4)).balanced_cost() == 4

    def test_star_cannot_avoid_the_hub(self):
        assert find_center(star(3)).balanced_cost() == 9

    def test_result_is_a_valid_cover_of_graph_edges(self):
        g = petersen()
        cov = find_center(g)
        assert all(d >= 1 for d in cov.degrees)
        assert cov.edges <= set(g.edges)
        assert cov.balanced_cost() == 10  # perfect matching: five deg-1 pairs

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_on_all_connected_graphs(self, n):
        for edges in connected_graphs(n):
            best, _ = brute_force_balanced_cover(n, edges)
            got = find_center(GeneralGraph(n, edges))
            assert got.balanced_cost() == best, edges

    @pytest.mark.parametrize("seed", range(120))
    def test_exact_on_random_graphs(self, seed):
        rng = random.Random(31_337 + seed)
        n, edges = gen_random_graph(rng, rng.randint(2, 7), rng.uniform(0.25, 0.9))
        best, _ = brute_force_balanced_cover(n, edges)
        got = find_center(GeneralGraph(n, edges))
        assert got.balanced_cost() == best

    @pytest.mark.parametrize("seed", range(40))
    def test_never_worse_than_its_starting_cover(self, seed):
        rng = random.Random(2**20 + seed)
        n, edges = gen_random_graph(rng, rng.randint(8, 40), rng.uniform(0.05, 0.4))
        g = GeneralGraph(n, edges)
        got = find_center(g)
        assert all(d >= 1 for d in got.degrees)
        assert got.balanced_cost() <= minimum_edge_cover(g).balanced_cost()

    def test_rebalance_instance_equals_a_validated_one(self, monkeypatch):
        # find_center builds its rebalance instance without the
        # constructor's checks; it must equal the checked instance.
        built = []

        def capture(instance):
            built.append(instance)
            return solve_unweighted(instance)

        solve_unweighted = cover.solve_unweighted
        monkeypatch.setattr(cover, "solve_unweighted", capture)
        for seed in range(30):
            rng = random.Random(4_040 + seed)
            n, edges = gen_random_graph(rng, rng.randint(4, 60), rng.uniform(0.03, 0.4))
            find_center(GeneralGraph(n, edges))
        assert len(built) >= 10
        for inst in built:
            checked = BipartiteInstance(inst.num_jobs, inst.num_machines, edge_triples(inst))
            assert inst.job_machines == checked.job_machines
            assert inst.machine_jobs == checked.machine_jobs
            assert inst.job_weights is checked.job_weights is None
            assert edge_triples(inst) == edge_triples(checked)


class TestCoverOracleRejections:
    @pytest.mark.parametrize("a, b", [(0, 0), (1, 3), (-1, 1)])
    def test_bad_edge(self, a, b):
        with pytest.raises(ValueError, match=rf"^bad edge \({a}, {b}\)$"):
            brute_force_balanced_cover(3, [(0, 1), (a, b)])

    def test_isolated_vertex(self):
        with pytest.raises(InfeasibleInstanceError, match="^vertex 2 has no incident edges$"):
            brute_force_balanced_cover(4, [(0, 1), (1, 3)])
