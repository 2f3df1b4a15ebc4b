"""Lower-envelope heap against a naive full-scan reference.

The reference model keeps every inserted row as a plain value table and
answers its minimum by scanning all live indices of all rows
— O(|S|*N) per query, unarguable.  The heap must agree on every
minimum *value* (the indices it deletes may differ among exact ties).
Each heap here is alone on its own frontier list, which :func:`minimum`
reads the way the weighted search reads the shared one.
"""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from semimatch.envelope import EnvelopeHeap
from semimatch.generate import gen_random
from semimatch.weighted import (
    EktState,
    GroupedDijkstra,
    WeightedStats,
    augment,
    update_potentials,
)


class NaiveEnvelope:
    def __init__(self, domain_size):
        self.n = domain_size
        self.tables = []
        self.live = set(range(1, domain_size + 1))

    def insert(self, values):
        self.tables.append([values(x) for x in range(1, self.n + 1)])

    def min_value(self):
        return min(t[x - 1] for t in self.tables for x in self.live)

    def value_at(self, x):
        return min(t[x - 1] for t in self.tables)

    def delete(self, x):
        self.live.discard(x)


def minimum(heap, frontier):
    """``(value, index, payload)`` of the least current entry ``heap`` pushed
    onto ``frontier``, or None when it has none.  Stale entries on top are
    popped on the way, as the weighted search drops them."""
    while frontier:
        value, _key, uid, idx = frontier[0]
        line = heap.current(uid, idx)
        if line is not None:
            return value, idx, line.payload
        heapq.heappop(frontier)
    return None


def delete_min(heap, frontier):
    """Pop the minimum's entry and delete its index, as the search finalizes
    a slot; return the next minimum value, or None when none is left."""
    minimum(heap, frontier)
    _value, _key, uid, idx = heapq.heappop(frontier)
    heap.delete(heap.current(uid, idx), idx)
    top = minimum(heap, frontier)
    return None if top is None else top[0]


def delete_both(heap, frontier, naive):
    """Delete the heap's minimum and mirror it into the naive scan.

    The heap may delete any index achieving the minimum, so the naive
    side follows the index the frontier names instead of imposing its
    own tie-break; it still checks that the choice really is an argmin,
    and that the next minimum agrees.
    """
    value, index, _payload = minimum(heap, frontier)
    assert value == naive.min_value()
    assert naive.value_at(index) == value
    nxt = delete_min(heap, frontier)
    naive.delete(index)
    assert nxt == (naive.min_value() if naive.live else None)
    return value


def row(w, b, shift):
    """The values of the row ``w*x + b - shift[x-1]``, for the naive side."""
    return lambda x: w * x + b - shift[x - 1]


# With a zero shift every row is its own line; lines of non-negative slope
# have their valley at index 1.


def test_single_increasing_line():
    f = []
    h = EnvelopeHeap([0, 0, 0], f)
    h.insert(2, 0, 1, "a")
    assert minimum(h, f) == (2, 1, "a")


def test_two_lines_min_and_delete():
    f = []
    h = EnvelopeHeap([0, 0, 0], f)
    h.insert(5, 0, 1)
    h.insert(1, 8, 1)
    assert minimum(h, f)[0] == 5  # min(5x, x+8) on {1,2,3} = {5,10,11}
    assert delete_min(h, f) == 10
    assert minimum(h, f)[:2] == (10, 2)
    assert delete_min(h, f) == 11
    assert delete_min(h, f) is None
    assert minimum(h, f) is None


def test_dominated_line_contributes_nothing():
    f = []
    h = EnvelopeHeap([0] * 4, f)
    h.insert(2, 0, 1)
    before = [minimum(h, f)[0], delete_min(h, f)]
    f2 = []
    h2 = EnvelopeHeap([0] * 4, f2)
    h2.insert(2, 0, 1)
    h2.insert(2, 100, 1)  # parallel and above: never on the envelope
    assert len(f2) == 1  # ... and so never pushes a candidate
    after = [minimum(h2, f2)[0], delete_min(h2, f2)]
    assert before == after == [2, 4]


def test_empty_heap_peeks_none():
    f = []
    assert minimum(EnvelopeHeap([0] * 5, f), f) is None


def test_insert_with_a_dead_valley_takes_the_next_live_index():
    f = []
    h = EnvelopeHeap([0, 0, 0], f, check=True)
    h.insert(1, 0, 1)
    assert minimum(h, f) == (1, 1, None)
    assert delete_min(h, f) == 2  # index 1 goes
    h.insert(0, 1, 1, "b")  # 1, 1, 1: owns [2, 3], and its valley 1 is dead
    line = h._lines[1]
    assert (line.p, line.q) == (0, 2)  # nothing live on the left; q at 2
    assert minimum(h, f) == (1, 2, "b")


def test_empty_domain_rejected():
    with pytest.raises(ValueError, match="^domain must contain at least index 1$"):
        EnvelopeHeap([], [])


def test_left_most_valley_of_a_row_that_is_not_unimodal_rejected():
    # Row (0, 0) over shift -3, -1, -2, 0 reads 3, 1, 2, 0: its left-most
    # minimiser is 4, but it falls, rises and falls again.
    h = EnvelopeHeap([-3, -1, -2, 0], [], check=True)
    with pytest.raises(ValueError, match="^row is not unimodal around valley 4$"):
        h.insert(0, 0, 4)
    assert h._lines == h._shadow_rows == []


def test_valley_out_of_domain_rejected():
    h = EnvelopeHeap([0, 0, 0], [], check=True)
    with pytest.raises(ValueError):
        h.insert(1, 0, 4)


@pytest.mark.parametrize(
    "slope, shift, valley",
    [
        (2, [0, 0, 0], 2),  # 2, 4, 6: the minimum is at 1
        (0, [0, 0, 0], 3),  # a flat row: a minimiser, but not the left-most
        (2, [0, 3, 5], 3),  # 2, 1, 1: the left-most minimiser is 2
    ],
)
def test_false_valley_rejected_in_check_mode(slope, shift, valley):
    h = EnvelopeHeap(shift, [], check=True)
    with pytest.raises(ValueError):
        h.insert(slope, 0, valley)
    assert h._lines == h._shadow_rows == []  # the rejected row left no trace


def candidate_moves():
    """Two short streams whose last step moves a candidate, each returning
    the minimum after a delete: ``(stream, correct value)``."""

    def by_delete(check):
        f = []
        heap = EnvelopeHeap([0, 3, 5], f, check=check)
        heap.insert(2, 0, 2)  # 2, 1, 1 against the shift; p == q == 2
        return delete_min(heap, f)  # slot 2 goes; p moves to 1, q to slot 3 (value 1)

    def by_refresh(check):
        f = []
        heap = EnvelopeHeap([0, 0, 0], f, check=check)
        heap.insert(1, 0, 1)  # 1, 2, 3: p == q == 1
        heap.insert(5, -4, 1)  # 1, 6, 11: takes [1, 1], so the first line's q moves to 2
        return delete_min(heap, f)  # slot 1 goes; the minimum is the first line at 2

    return [(by_delete, 1), (by_refresh, 2)]


def test_sabotaged_refresh_fails_the_brute_scan(monkeypatch):
    """A checked heap catches a candidate move that loses its right
    candidate, on a delete and on a neighbour's refresh alike."""
    move = EnvelopeHeap._move

    def drop_moved_right_candidate(self, line, p, q):
        moved = line.q is not None and q != line.q
        move(self, line, p, q)
        if moved:
            line.q = self.n + 1  # its frontier entry now looks stale and is dropped

    for stream, correct in candidate_moves():
        assert stream(True) == correct
        with monkeypatch.context() as m:
            m.setattr(EnvelopeHeap, "_move", drop_moved_right_candidate)
            assert stream(False) != correct  # silently wrong
            with pytest.raises(AssertionError, match="brute scan"):
                stream(True)


def test_refresh_that_skips_a_moved_push_fails_the_brute_scan(monkeypatch):
    """A candidate move must push every candidate that moved: an entry is
    only pushed when its index becomes a candidate, so a skipped push loses
    that candidate for good, on a delete and on a neighbour's refresh."""
    move = EnvelopeHeap._move

    def skip_moved_pushes(self, line, p, q):
        if line.p is None:
            return move(self, line, p, q)  # a new line pushes as usual
        frontier, self._frontier = self._frontier, []
        move(self, line, p, q)  # the candidates move; their pushes go nowhere
        self._frontier = frontier

    for stream, correct in candidate_moves():
        assert stream(True) == correct
        with monkeypatch.context() as m:
            m.setattr(EnvelopeHeap, "_move", skip_moved_pushes)
            assert stream(False) is None  # silently wrong
            with pytest.raises(AssertionError, match="brute scan"):
                stream(True)


def test_same_slope_reject_of_the_better_line_fails_the_brute_scan(monkeypatch):
    """A row dropped as a same-slope loser is never built, yet a checked
    heap still scans it: an insert that keeps the worse of two parallel
    lines fails the brute scan."""
    place = EnvelopeHeap._place

    def keep_the_worse_line(self, slope, intercept, valley, payload, pos):
        if pos < len(self._env) and self._env[pos].slope == slope:
            return  # the smaller intercept is dropped as if it had lost
        place(self, slope, intercept, valley, payload, pos)

    def stream(check):
        f = []
        heap = EnvelopeHeap([0, 0, 0], f, check=check)
        heap.insert(1, 5, 1)  # 6, 7, 8
        heap.insert(1, 2, 1)  # 3, 4, 5: the same slope, below it everywhere
        return minimum(heap, f)[0]

    assert stream(True) == 3
    monkeypatch.setattr(EnvelopeHeap, "_place", keep_the_worse_line)
    assert stream(False) == 6  # silently wrong
    with pytest.raises(AssertionError, match="brute scan"):
        stream(True)


def test_checked_pop_of_a_shared_valley_moves_both_candidates():
    """Deleting a valley that is both p and q moves p left and q right,
    each to the next live index, and keeps each side's value."""
    f = []
    heap = EnvelopeHeap([0, 5, 9, 11, 12], f, check=True)
    heap.insert(3, 0, 3)  # 3, 1, 0, 1, 3 against the shift; valley 3
    line = heap._lines[0]
    assert line.p == line.q == 3
    assert delete_min(heap, f) == 1  # index 3 goes; p moves to 2, q to 4
    assert (line.p, line.q) == (2, 4)
    assert minimum(heap, f) == (1, 2, None)
    assert delete_min(heap, f) == 1  # index 2 goes; p moves to 1, q stays
    assert (line.p, line.q) == (1, 4)
    assert minimum(heap, f) == (1, 4, None)
    assert delete_min(heap, f) == 3  # index 4 goes; q moves to 5, p stays
    assert (line.p, line.q) == (1, 5)


def test_checked_refresh_rejects_a_candidate_moving_back():
    """In check mode a refresh asserts that p only moves left and q only
    right, the fact that lets an entry's index stand for its freshness."""
    f = []
    heap = EnvelopeHeap([0, 0, 0, 0], f, check=True)
    heap.insert(1, 0, 1)  # the row x: its one candidate is index 1
    assert delete_min(heap, f) == 2  # index 1 goes; q moves right, to 2
    heap._left[1] = heap._right[1] = 1  # revive index 1, which no operation does
    with pytest.raises(AssertionError, match="wrong way"):
        heap._refresh(heap._lines[0])


def test_checked_pop_rejects_a_candidate_moving_back():
    """In check mode a delete's refresh asserts that it moved p only left
    and q only right of the index it deleted."""
    f = []
    heap = EnvelopeHeap([0, 3, 5], f, check=True)
    heap.insert(2, 0, 2)  # 2, 1, 1 against the shift; p == q == 2
    heap._left[1] = 3  # a skip pointer jumping right, which no operation makes
    with pytest.raises(AssertionError, match="wrong way"):
        delete_min(heap, f)


# ---------------------------------------------------------------------------
# Synthetic families: shared concave-difference shift arrays make every
# line w*x + b - shift[x-1] unimodal with exact certificate linkage, the
# same shape the weighted solver feeds the heap.  Slopes drawn from 0..3
# make parallel lines common: a same-slope loser then arrives before and
# after its winner, and after a winner was evicted.


def make_shift(rng, n):
    diffs = sorted(rng.randint(-30, 30) for _ in range(n - 1))
    shift = [0]
    for d in diffs:
        shift.append(shift[-1] - d)
    base = min(shift)
    return [s - base for s in shift]


def shifted_family(rng, n, k, max_slope=40):
    shift = make_shift(rng, n)
    fns = []
    for _ in range(k):
        w = rng.randint(0, max_slope)
        b = rng.randint(0, 60)
        seq = [w * x + b - shift[x - 1] for x in range(1, n + 1)]
        valley = seq.index(min(seq)) + 1
        fns.append((w, b, valley, shift))
    return shift, fns


@pytest.mark.parametrize("seed", range(40))
def test_random_families_match_naive(seed):
    for max_slope in (40, 3):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        shift, fns = shifted_family(rng, n, rng.randint(1, 10), max_slope)
        f = []
        h = EnvelopeHeap(shift, f)
        naive = NaiveEnvelope(n)
        for w, b, valley, _ in fns:
            h.insert(w, b, valley)
            naive.insert(row(w, b, shift))
            if naive.live:
                assert minimum(h, f)[0] == naive.min_value()
            if rng.random() < 0.5 and naive.live:
                delete_both(h, f, naive)
        while naive.live:
            delete_both(h, f, naive)


@pytest.mark.parametrize("seed", range(20))
def test_shift_fast_path_matches_values_path(seed):
    """The shift fast path agrees with the rows' values, which a checked
    heap re-derives by evaluating every row at every live index."""
    for max_slope in (40, 3):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 10)
        shift, fns = shifted_family(rng, n, rng.randint(1, 8), max_slope)
        ff, fc = [], []
        fast = EnvelopeHeap(shift, ff)
        checked = EnvelopeHeap(shift, fc, check=True)
        for w, b, valley, _ in fns:
            fast.insert(w, b, valley)
            checked.insert(w, b, valley)
            assert ff == fc
            assert minimum(fast, ff) == minimum(checked, fc)
        for _ in range(n):
            assert delete_min(fast, ff) == delete_min(checked, fc)
            assert minimum(fast, ff) == minimum(checked, fc)


def test_checked_mode_accepts_valid_sequences():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 8)
        shift, fns = shifted_family(rng, n, 6)
        f = []
        h = EnvelopeHeap(shift, f, check=True)
        for w, b, valley, _ in fns:
            h.insert(w, b, valley)
        for _ in range(n):
            delete_min(h, f)
        assert minimum(h, f) is None


def test_candidate_heap_stays_small():
    # Each row holds at most two current candidates, and each candidate
    # has exactly one entry in the frontier: a refresh pushes only what
    # moved.
    rng = random.Random(5)
    n = 10
    shift, fns = shifted_family(rng, n, 25)
    f = []
    h = EnvelopeHeap(shift, f)

    def assert_small():
        candidates = sorted(
            (ln.uid, x) for ln in h._lines for x in {ln.p, ln.q} if x is not None and 1 <= x <= n
        )
        assert len(candidates) <= 2 * len(h._lines)
        current = sorted(
            (uid, x) for _value, _key, uid, x in f if h.current(uid, x) is not None
        )
        assert current == candidates

    for k, (w, b, valley, _) in enumerate(fns):
        h.insert(w, b, valley)
        assert_small()
        if k % 3 == 2:
            delete_min(h, f)
            assert_small()


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary interleavings over random shifted families.


@st.composite
def op_sequences(draw):
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**20)))
    shift = make_shift(rng, n)
    k = draw(st.integers(1, 8))
    max_slope = draw(st.sampled_from([30, 3]))
    lines = []
    for _ in range(k):
        w = draw(st.integers(0, max_slope))
        b = draw(st.integers(0, 40))
        seq = [w * x + b - shift[x - 1] for x in range(1, n + 1)]
        lines.append((w, b, seq.index(min(seq)) + 1))
    deletes = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return n, shift, lines, deletes


@settings(max_examples=150, deadline=None)
@given(op_sequences())
def test_interleaved_ops_match_naive(ops):
    n, shift, lines, deletes = ops
    f = []
    h = EnvelopeHeap(shift, f)
    naive = NaiveEnvelope(n)
    for (w, b, valley), delete_after in zip(lines, deletes):
        h.insert(w, b, valley)
        naive.insert(row(w, b, shift))
        if naive.live:
            assert minimum(h, f)[0] == naive.min_value()
        if delete_after and naive.live:
            delete_both(h, f, naive)
    while naive.live:
        delete_both(h, f, naive)


# ---------------------------------------------------------------------------
# Real per-machine heap traffic from weighted solves, checked as it happens.


def checked_phase_heaps(seed, num_jobs, num_machines, max_weight):
    """Solve a random instance phase by phase with ``check=True``.

    Each envelope heap a phase opens audits every insert and delete the
    search makes against a brute scan, inline.  Returns the number
    of heaps opened and the number of heap operations audited.
    """
    rng = random.Random(seed)
    inst = gen_random(
        rng, num_jobs, num_machines, edge_prob=0.6, max_weight=max_weight
    )
    state = EktState(inst)
    stats = WeightedStats()
    opened = 0
    for _ in range(inst.num_jobs):
        run = GroupedDijkstra(state, stats=stats, check=True).run()
        heaps = [state.heaps[v] for v in state.touched if state.heaps[v] is not None]
        assert all(h._check for h in heaps)
        opened += len(heaps)
        update_potentials(state, run)
        augment(state, run)
    return opened, stats.envelope_inserts + stats.envelope_delete_mins


@pytest.mark.parametrize("seed", range(8))
def test_harvested_heap_traffic_matches_naive(seed):
    opened, audited = checked_phase_heaps(seed, num_jobs=7, num_machines=3, max_weight=12)
    assert opened, "expected at least one materialized machine heap"
    assert audited >= opened  # each opened heap took at least one insert
