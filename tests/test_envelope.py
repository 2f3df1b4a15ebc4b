"""Lower-envelope heap against a naive full-scan reference.

The reference model keeps every inserted row as a plain value table and
answers access_min/delete_min by scanning all live indices of all rows
— O(|S|*N) per query, unarguable.  The heap must agree on every
returned *value* (returned indices may differ among exact ties).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from semimatch.envelope import EnvelopeEmptyError, EnvelopeHeap
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
    """access_min + delete_min; the heap returns the index from delete."""
    value = h.access_min().value
    h.delete_min()
    return value


def pop_both(heap, naive):
    """Pop the heap and mirror it into the naive scan.

    delete_min may remove any index achieving the minimum, so the naive
    side follows the heap's choice instead of imposing its own
    tie-break; it still checks that the choice really is an argmin.
    """
    value = heap.access_min().value
    assert value == naive.min_value()
    index = heap.delete_min()
    assert naive.value_at(index) == value
    naive.delete(index)
    return value


def row(w, b, shift):
    """The values of the row ``w*x + b - shift[x-1]``, for the naive side."""
    return lambda x: w * x + b - shift[x - 1]


# Without a shift every row is its own line; lines of non-negative slope
# have their valley at index 1.


def test_single_increasing_line():
    h = EnvelopeHeap(3)
    h.insert(2, 0, 1)
    got = h.access_min()
    assert (got.index, got.value) == (1, 2)


def test_two_lines_min_and_delete():
    h = EnvelopeHeap(3)
    h.insert(5, 0, 1)
    h.insert(1, 8, 1)
    assert h.access_min().value == 5  # min(5x, x+8) on {1,2,3} = {5,10,11}
    assert pop_value(h) == 5
    got = h.access_min()
    assert (got.index, got.value) == (2, 10)
    assert pop_value(h) == 10
    assert pop_value(h) == 11
    with pytest.raises(EnvelopeEmptyError):
        h.access_min()


def test_dominated_line_contributes_nothing():
    h = EnvelopeHeap(4)
    h.insert(2, 0, 1)
    before = [pop_value(h) for _ in range(2)]
    h2 = EnvelopeHeap(4)
    h2.insert(2, 0, 1)
    h2.insert(2, 100, 1)  # parallel and above: never on the envelope
    after = [pop_value(h2) for _ in range(2)]
    assert before == after == [2, 4]


def test_empty_heap_raises():
    h = EnvelopeHeap(5)
    with pytest.raises(EnvelopeEmptyError):
        h.access_min()
    with pytest.raises(EnvelopeEmptyError):
        h.delete_min()


def test_valley_out_of_domain_rejected():
    h = EnvelopeHeap(3, check=True)
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
    h = EnvelopeHeap(3, check=True, shift=shift)
    with pytest.raises(ValueError):
        h.insert(slope, 0, valley)
    assert len(h) == 0


def test_missing_shift_defaults_to_zeros():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        implicit, explicit = EnvelopeHeap(n), EnvelopeHeap(n, shift=[0] * n)
        for _ in range(rng.randint(1, 6)):
            w, b = rng.randint(0, 20), rng.randint(0, 30)
            implicit.insert(w, b, 1)
            explicit.insert(w, b, 1)
            assert implicit.access_min() == explicit.access_min()
        for _ in range(n):
            assert pop_value(implicit) == pop_value(explicit)


def test_sabotaged_refresh_fails_the_brute_scan(monkeypatch):
    """A checked heap catches a refresh that loses its right candidate."""
    refresh = EnvelopeHeap._refresh

    def drop_right_candidate(self, line):
        refresh(self, line)
        if line.p is not None:
            line.q = None  # its heap entry now looks stale and is skipped

    def stream(heap):
        heap.insert(2, 0, 2)  # 2, 1, 1 against the shift
        heap.delete_min()  # slot 2 goes; the minimum 1 moves right, to slot 3
        return heap.access_min().value

    assert stream(EnvelopeHeap(3, check=True, shift=[0, 3, 5])) == 1
    monkeypatch.setattr(EnvelopeHeap, "_refresh", drop_right_candidate)
    assert stream(EnvelopeHeap(3, shift=[0, 3, 5])) == 2  # silently wrong
    with pytest.raises(AssertionError, match="brute scan"):
        stream(EnvelopeHeap(3, check=True, shift=[0, 3, 5]))


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
    h = EnvelopeHeap(n, shift=shift)
    naive = NaiveEnvelope(n)
    for w, b, valley, _ in fns:
        h.insert(w, b, valley)
        naive.insert(row(w, b, shift))
        if naive.live:
            assert h.access_min().value == naive.min_value()
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
    fast = EnvelopeHeap(n, shift=shift)
    checked = EnvelopeHeap(n, check=True, shift=shift)
    for w, b, valley, _ in fns:
        fast.insert(w, b, valley)
        checked.insert(w, b, valley)
        assert fast.access_min() == checked.access_min()
    for _ in range(n):
        assert fast.delete_min() == checked.delete_min()
        assert fast.live_count == checked.live_count


def test_checked_mode_accepts_valid_sequences():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 8)
        shift, fns = shifted_family(rng, n, 6)
        h = EnvelopeHeap(n, check=True, shift=shift)
        for w, b, valley, _ in fns:
            h.insert(w, b, valley)
        for _ in range(n):
            h.delete_min()


def test_candidate_heap_stays_small():
    rng = random.Random(5)
    n = 10
    shift, fns = shifted_family(rng, n, 25)
    h = EnvelopeHeap(n, shift=shift)
    for w, b, valley, _ in fns:
        h.insert(w, b, valley)
        assert h.candidate_count() <= 2 * len(h)


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
    h = EnvelopeHeap(n, shift=shift)
    naive = NaiveEnvelope(n)
    for (w, b, valley), delete_after in zip(lines, deletes):
        h.insert(w, b, valley)
        naive.insert(row(w, b, shift))
        if naive.live:
            assert h.access_min().value == naive.min_value()
        if delete_after and naive.live:
            pop_both(h, naive)
    while naive.live:
        pop_both(h, naive)


# ---------------------------------------------------------------------------
# Real per-machine heap traffic from weighted solves, checked as it happens.


def checked_phase_heaps(seed, num_jobs, num_machines, max_weight):
    """Solve a random instance phase by phase with ``check=True``.

    Each envelope heap a phase opens audits every insert and delete-min
    the search makes against a brute scan, inline.  Returns the number
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
        tables = state._tables
        heaps = [tables.heaps[v] for v in tables.touched if tables.heaps[v] is not None]
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
