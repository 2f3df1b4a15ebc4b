"""Seeded generators: the bulk pairwise draw against one ``random()``
call per pair, and the parameter checks that come before any draw."""

import random

import pytest

from semimatch import generate
from semimatch.core import MAX_WEIGHT
from semimatch.generate import _BLOCK, FAMILIES, _hits, gen_family, gen_random

from referees import edge_triples, gen_random_by_pairs

COUNTS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
PROBS = [0.0, 1.0, 2**-53, 2**-27, 2**-24, 0.001, 1 / 3, 0.5, 1 - 2**-53]


def per_draw(rng, count, p):
    return [i for i in range(count) if rng.random() < p]


def drawn(seed, index):
    """Draw ``index`` of ``Random(seed)`` as the integer x of x / 2**53."""
    rng = random.Random(seed)
    for _ in range(index):
        rng.random()
    return int(rng.random() * 2**53)


class TestHits:
    @pytest.mark.parametrize("p", PROBS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_same_hits_and_state_as_one_call_per_draw(self, count, p):
        for seed in range(3):
            rng, referee = random.Random(seed), random.Random(seed)
            assert _hits(rng, count, p) == per_draw(referee, count, p)
            assert rng.getstate() == referee.getstate()

    @pytest.mark.parametrize("index", [0, 1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 7])
    def test_threshold_at_a_drawn_value(self, index):
        # x / 2**53 and (x + 1) / 2**53 share draw ``index``'s top byte, so
        # that draw, and the others with its top byte, take the exact test.
        count, seed = 3 * _BLOCK + 5, f"threshold:{index}"
        x = drawn(seed, index)
        for p, hit in ((x / 2**53, False), ((x + 1) / 2**53, True)):
            rng, referee = random.Random(seed), random.Random(seed)
            hits = _hits(rng, count, p)
            assert (index in hits) == hit
            assert hits == per_draw(referee, count, p)
            assert rng.getstate() == referee.getstate()


def same_instance(a, b):
    return (a.num_jobs, a.num_machines, edge_triples(a)) == (
        b.num_jobs, b.num_machines, edge_triples(b)
    )


class TestGenRandom:
    @pytest.mark.parametrize(
        "jobs, machines, p, low, high",
        [
            (400, 4, 1.0, 0, 100),  # the weighted-skewed generator
            (0, 5, 0.5, 1, 9),
            (0, 1, 1.0, 1, 1),
            (1, 1, 0.0, 1, 1),
            (30, 7, 0.3, 1, 1),
            (91, 45, 0.01, 1, 5),  # 4095 pairs, one short of a block
            (200, 61, 0.001, 0, MAX_WEIGHT),
        ],
    )
    def test_edge_prob_path_matches_the_per_pair_referee(self, jobs, machines, p, low, high):
        for seed in range(4):
            rng, referee = random.Random(seed), random.Random(seed)
            got = gen_random(rng, jobs, machines, edge_prob=p, min_weight=low, max_weight=high)
            want = gen_random_by_pairs(
                referee, jobs, machines, edge_prob=p, min_weight=low, max_weight=high
            )
            assert same_instance(got, want)
            assert rng.getstate() == referee.getstate()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_draws_as_with_the_referee(self, family, monkeypatch):
        for seed in range(25):
            rng, referee = random.Random(seed), random.Random(seed)
            got = gen_family(rng, family)
            with monkeypatch.context() as patch:
                patch.setattr(generate, "gen_random", gen_random_by_pairs)
                want = gen_family(referee, family)
            assert same_instance(got, want)
            assert rng.getstate() == referee.getstate()


class TestChecksBeforeDrawing:
    # [-1, 5] used to pass or fail by the seed: only a drawn -1 was caught.
    @pytest.mark.parametrize(
        "low, high", [(1, 0), (5, 3), (-1, 5), (-1, -1), (0, MAX_WEIGHT + 1), (1, 99999999999)]
    )
    @pytest.mark.parametrize("edges", [dict(edge_prob=1.0), dict(num_edges=3)])
    def test_weight_range(self, low, high, edges):
        for seed in range(8):
            rng = random.Random(seed)
            state = rng.getstate()
            message = rf"^weights \[{low}, {high}\] empty or outside \[0, {MAX_WEIGHT}\]$"
            with pytest.raises(ValueError, match=message):
                gen_random(rng, 2, 2, **edges, min_weight=low, max_weight=high)
            assert rng.getstate() == state

    def test_the_full_weight_range_is_accepted(self):
        rng = random.Random(0)
        wide = gen_random(rng, 30, 3, edge_prob=1.0, min_weight=0, max_weight=MAX_WEIGHT)
        assert all(0 <= w <= MAX_WEIGHT for _, _, w in edge_triples(wide))
        heavy = gen_random(rng, 2, 2, num_edges=4, min_weight=MAX_WEIGHT, max_weight=MAX_WEIGHT)
        assert {w for _, _, w in edge_triples(heavy)} == {MAX_WEIGHT}

    def test_negative_edge_count(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=r"^num_edges -1 is negative$"):
            gen_random(rng, 3, 2, num_edges=-1)
        assert rng.getstate() == state

    @pytest.mark.parametrize("jobs, machines", [(3, 0), (-1, 2)])
    def test_impossible_counts(self, jobs, machines):
        with pytest.raises(ValueError, match="^need at least one machine and a non-negative job count$"):
            gen_random(random.Random(0), jobs, machines, edge_prob=0.5)

    @pytest.mark.parametrize("edges", [dict(), dict(edge_prob=0.5, num_edges=3)])
    def test_exactly_one_edge_rule(self, edges):
        with pytest.raises(ValueError, match="^pass exactly one of edge_prob / num_edges$"):
            gen_random(random.Random(0), 3, 2, **edges)
