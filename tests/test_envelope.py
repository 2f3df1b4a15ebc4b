"""Lower-envelope heap against a naive full-scan reference.

The reference model keeps every inserted row as a plain value table and
answers peek/pop by scanning all live indices of all rows
— O(|S|*N) per query, unarguable.  The heap must agree on every
returned *value* (returned indices may differ among exact ties).
"""

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


def pop_value(h):
    """peek + pop: the minimum value, whose index the pop deletes."""
    value = h.peek()[0]
    h.pop()
    return value


def pop_both(heap, naive):
    """Pop the heap and mirror it into the naive scan.

    The heap may delete any index achieving the minimum, so the naive
    side follows the index ``peek`` names instead of imposing its own
    tie-break; it still checks that the choice really is an argmin, and
    that ``pop`` returns the next minimum.
    """
    value, index, _payload = heap.peek()
    assert value == naive.min_value()
    assert naive.value_at(index) == value
    nxt = heap.pop()
    naive.delete(index)
    assert nxt == (naive.min_value() if naive.live else None)
    return value


def row(w, b, shift):
    """The values of the row ``w*x + b - shift[x-1]``, for the naive side."""
    return lambda x: w * x + b - shift[x - 1]


# With a zero shift every row is its own line; lines of non-negative slope
# have their valley at index 1.


def test_single_increasing_line():
    h = EnvelopeHeap([0, 0, 0])
    assert h.insert(2, 0, 1, "a") is True
    assert h.peek() == (2, 1, "a")


def test_two_lines_min_and_delete():
    h = EnvelopeHeap([0, 0, 0])
    h.insert(5, 0, 1)
    h.insert(1, 8, 1)
    assert h.peek()[0] == 5  # min(5x, x+8) on {1,2,3} = {5,10,11}
    assert h.pop() == 10
    assert h.peek()[:2] == (10, 2)
    assert h.pop() == 11
    assert h.pop() is None
    assert h.peek() is None


def test_dominated_line_contributes_nothing():
    h = EnvelopeHeap([0] * 4)
    h.insert(2, 0, 1)
    before = [pop_value(h) for _ in range(2)]
    h2 = EnvelopeHeap([0] * 4)
    h2.insert(2, 0, 1)
    h2.insert(2, 100, 1)  # parallel and above: never on the envelope
    after = [pop_value(h2) for _ in range(2)]
    assert before == after == [2, 4]


def test_empty_heap_peeks_none():
    assert EnvelopeHeap([0] * 5).peek() is None


def test_insert_reports_a_dead_valley():
    h = EnvelopeHeap([0, 0, 0], check=True)
    assert h.insert(1, 0, 1) is True
    assert h.peek() == (1, 1, None)
    assert h.pop() == 2  # index 1 goes
    assert h.insert(1, 5, 1) is False  # its valley, index 1, is dead
    assert h.peek()[:2] == (2, 2)


def test_valley_out_of_domain_rejected():
    h = EnvelopeHeap([0, 0, 0], check=True)
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
    h = EnvelopeHeap(shift, check=True)
    with pytest.raises(ValueError):
        h.insert(slope, 0, valley)
    assert len(h) == 0


def test_sabotaged_refresh_fails_the_brute_scan(monkeypatch):
    """A checked heap catches a refresh that loses its right candidate."""
    refresh = EnvelopeHeap._refresh

    def drop_right_candidate(self, line):
        placed = line.q is not None
        refresh(self, line)
        if placed and line.p:
            line.q = self.n + 1  # its heap entry now looks stale and is skipped

    def stream(heap):
        heap.insert(2, 0, 2)  # 2, 1, 1 against the shift
        heap.peek()
        return heap.pop()  # slot 2 goes; the minimum 1 moves right, to slot 3

    assert stream(EnvelopeHeap([0, 3, 5], check=True)) == 1
    monkeypatch.setattr(EnvelopeHeap, "_refresh", drop_right_candidate)
    assert stream(EnvelopeHeap([0, 3, 5])) == 2  # silently wrong
    with pytest.raises(AssertionError, match="brute scan"):
        stream(EnvelopeHeap([0, 3, 5], check=True))


def test_refresh_that_skips_a_moved_push_fails_the_brute_scan(monkeypatch):
    """A refresh must push every candidate that moved: an entry is only
    pushed when its index becomes a candidate, so a skipped push loses
    that candidate for good."""
    refresh = EnvelopeHeap._refresh

    def skip_moved_pushes(self, line):
        if line.p is None:
            return refresh(self, line)  # a new line pushes as usual
        heap, self._heap = self._heap, []
        refresh(self, line)  # the candidates move; their pushes go nowhere
        self._heap = heap

    def stream(heap):
        heap.insert(2, 0, 2)  # 2, 1, 1 against the shift
        heap.peek()
        return heap.pop()  # slot 2 goes; both candidates move off it

    assert stream(EnvelopeHeap([0, 3, 5], check=True)) == 1
    monkeypatch.setattr(EnvelopeHeap, "_refresh", skip_moved_pushes)
    assert stream(EnvelopeHeap([0, 3, 5])) is None  # silently wrong
    with pytest.raises(AssertionError, match="brute scan"):
        stream(EnvelopeHeap([0, 3, 5], check=True))


def test_checked_pop_of_a_shared_valley_moves_both_candidates():
    """Popping a valley that is both p and q moves p left and q right,
    each to the next live index, and keeps each side's value."""
    heap = EnvelopeHeap([0, 5, 9, 11, 12], check=True)
    heap.insert(3, 0, 3)  # 3, 1, 0, 1, 3 against the shift; valley 3
    heap.peek()
    line = heap._lines[0]
    assert line.p == line.q == 3
    assert heap.pop() == 1  # index 3 goes; p moves to 2, q to 4
    assert (line.p, line.q) == (2, 4)
    assert heap.peek() == (1, 2, None)
    assert heap.pop() == 1  # index 2 goes; p moves to 1, q stays
    assert (line.p, line.q) == (1, 4)
    assert heap.peek() == (1, 4, None)
    assert heap.pop() == 3  # index 4 goes; q moves to 5, p stays
    assert (line.p, line.q) == (1, 5)


def test_checked_refresh_rejects_a_candidate_moving_back():
    """In check mode a refresh asserts that p only moves left and q only
    right, the fact that lets an entry's index stand for its freshness."""
    heap = EnvelopeHeap([0, 0, 0, 0], check=True)
    heap.insert(1, 0, 1)  # the row x: its one candidate is index 1
    heap.peek()
    assert heap.pop() == 2  # index 1 goes; q moves right, to 2
    heap._left[1] = heap._right[1] = 1  # revive index 1, which no operation does
    with pytest.raises(AssertionError, match="wrong way"):
        heap._refresh(heap._lines[0])


def test_checked_pop_rejects_a_candidate_moving_back():
    """In check mode a pop's refresh asserts that it moved p only left
    and q only right of the index it deleted."""
    heap = EnvelopeHeap([0, 3, 5], check=True)
    heap.insert(2, 0, 2)  # 2, 1, 1 against the shift; p == q == 2
    heap.peek()
    heap._left[1] = 3  # a skip pointer jumping right, which no operation makes
    with pytest.raises(AssertionError, match="wrong way"):
        heap.pop()


# ---------------------------------------------------------------------------
# Synthetic families: shared concave-difference shift arrays make every
# line w*x + b - shift[x-1] unimodal with exact certificate linkage, the
# same shape the weighted solver feeds the heap.


def make_shift(rng, n):
    diffs = sorted(rng.randint(-30, 30) for _ in range(n - 1))
    shift = [0]
    for d in diffs:
        shift.append(shift[-1] - d)
    base = min(shift)
    return [s - base for s in shift]


def shifted_family(rng, n, k):
    shift = make_shift(rng, n)
    fns = []
    for _ in range(k):
        w = rng.randint(0, 40)
        b = rng.randint(0, 60)
        seq = [w * x + b - shift[x - 1] for x in range(1, n + 1)]
        valley = seq.index(min(seq)) + 1
        fns.append((w, b, valley, shift))
    return shift, fns


@pytest.mark.parametrize("seed", range(40))
def test_random_families_match_naive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    shift, fns = shifted_family(rng, n, rng.randint(1, 10))
    h = EnvelopeHeap(shift)
    naive = NaiveEnvelope(n)
    for w, b, valley, _ in fns:
        h.insert(w, b, valley)
        naive.insert(row(w, b, shift))
        if naive.live:
            assert h.peek()[0] == naive.min_value()
        if rng.random() < 0.5 and naive.live:
            pop_both(h, naive)
    while naive.live:
        pop_both(h, naive)


@pytest.mark.parametrize("seed", range(20))
def test_shift_fast_path_matches_values_path(seed):
    """The shift fast path agrees with the rows' values, which a checked
    heap re-derives by evaluating every row at every live index."""
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 10)
    shift, fns = shifted_family(rng, n, rng.randint(1, 8))
    fast = EnvelopeHeap(shift)
    checked = EnvelopeHeap(shift, check=True)
    for w, b, valley, _ in fns:
        assert fast.insert(w, b, valley) == checked.insert(w, b, valley)
        assert fast.peek() == checked.peek()
    for _ in range(n):
        assert fast.pop() == checked.pop()
        assert fast.peek() == checked.peek()


def test_checked_mode_accepts_valid_sequences():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 8)
        shift, fns = shifted_family(rng, n, 6)
        h = EnvelopeHeap(shift, check=True)
        for w, b, valley, _ in fns:
            h.insert(w, b, valley)
        for _ in range(n):
            pop_value(h)
        assert h.peek() is None


def test_candidate_heap_stays_small():
    # Each row holds at most two candidates, and each candidate has
    # exactly one current heap entry: a refresh pushes only what moved.
    rng = random.Random(5)
    n = 10
    shift, fns = shifted_family(rng, n, 25)
    h = EnvelopeHeap(shift)

    def assert_small():
        candidates = sorted(
            (ln.uid, x) for ln in h._lines for x in {ln.p, ln.q} if x is not None and 1 <= x <= n
        )
        assert len(candidates) <= 2 * len(h)
        current = sorted(
            (uid, x) for _value, uid, x in h._heap if x in (h._lines[uid].p, h._lines[uid].q)
        )
        assert current == candidates

    for k, (w, b, valley, _) in enumerate(fns):
        h.insert(w, b, valley)
        assert_small()
        if k % 3 == 2:
            pop_value(h)
            assert_small()


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary interleavings over random shifted families.


@st.composite
def op_sequences(draw):
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**20)))
    shift = make_shift(rng, n)
    k = draw(st.integers(1, 8))
    lines = []
    for _ in range(k):
        w = draw(st.integers(0, 30))
        b = draw(st.integers(0, 40))
        seq = [w * x + b - shift[x - 1] for x in range(1, n + 1)]
        lines.append((w, b, seq.index(min(seq)) + 1))
    deletes = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return n, shift, lines, deletes


@settings(max_examples=150, deadline=None)
@given(op_sequences())
def test_interleaved_ops_match_naive(ops):
    n, shift, lines, deletes = ops
    h = EnvelopeHeap(shift)
    naive = NaiveEnvelope(n)
    for (w, b, valley), delete_after in zip(lines, deletes):
        h.insert(w, b, valley)
        naive.insert(row(w, b, shift))
        if naive.live:
            assert h.peek()[0] == naive.min_value()
        if delete_after and naive.live:
            pop_both(h, naive)
    while naive.live:
        pop_both(h, naive)


# ---------------------------------------------------------------------------
# Real per-machine heap traffic from weighted solves, checked as it happens.


def checked_phase_heaps(seed, num_jobs, num_machines, max_weight):
    """Solve a random instance phase by phase with ``check=True``.

    Each envelope heap a phase opens audits every insert and pop the
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
