"""A kinetic min-heap over unimodal rows sharing a lower envelope of lines.

The structure answers ``min f_i(x)`` over a shrinking index set ``L`` drawn
from the integer domain ``[1, N]``, where every inserted row is

    f_i(x) = slope_i * x + intercept_i - shift[x - 1]

for one ``shift`` array shared by the whole heap, and ``f_i`` is unimodal
on ``[1, N]`` with a known valley index ``gamma_i``.  Because the shift is
shared, ``f_i`` attains the pointwise minimum of the family exactly where
its certificate line ``g_i(x) = slope_i * x + intercept_i`` attains the
lower envelope of the lines.

In the intended use the rows are tentative Dijkstra distances into the
slots of one machine and ``shift`` holds the slot potentials.  Two
further properties are assumed and *not* checked outside of
:class:`EnvelopeHeap`'s optional ``check`` mode: valleys are genuine
(unimodality) and values at indices already deleted from ``L`` are frozen
(later insertions do not undercut them).

The envelope is kept as a slope-descending list of lines owning consecutive
integer intervals that partition ``[1, N]``.  A line owns index ``x`` when
its certificate is minimal there, ties going to the steeper line.  Each
owning line carries at most two candidate indices: the live index closest
to its valley from the left and from the right, clamped to its interval.
A lazy binary heap over candidate values yields ``access_min`` /
``delete_min``; generation counters invalidate stale entries.

All arithmetic is exact integer arithmetic; interval breakpoints are floor
divisions of intercept differences by slope differences.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Any, NamedTuple, Optional


class EnvelopeEmptyError(Exception):
    """access_min/delete_min on a heap with no rows or no live indices."""


class AccessMin(NamedTuple):
    index: int
    value: int
    payload: Any


class _Line:
    __slots__ = (
        "uid", "slope", "intercept", "valley", "payload",
        "x", "y", "p", "q", "gen", "on_envelope",
    )

    def __init__(
        self, uid: int, slope: int, intercept: int, valley: int, payload: Any
    ) -> None:
        self.uid = uid
        self.slope = slope
        self.intercept = intercept
        self.valley = valley
        self.payload = payload
        self.x = 1          # envelope interval [x, y]; empty when x > y
        self.y = 0
        self.p: Optional[int] = None   # live candidate left of/at the valley
        self.q: Optional[int] = None   # live candidate right of/at the valley
        self.gen = 0
        self.on_envelope = False


class EnvelopeHeap:
    """Min-heap over the rows ``slope*x + intercept - shift[x-1]`` on ``[1, N]``.

    A missing ``shift`` means all zeros, so each row is its own line.

    ``check=True`` makes the heap audit itself, for tests: every insert
    must name a valley inside the domain that is the row's left-most
    minimiser, around which the row is unimodal (else ``ValueError``);
    after every insert and every delete-min the minimum must equal a
    brute scan of all inserted rows over a shadow live set, and each
    deleted index must attain that minimum (else ``AssertionError``).
    That is quadratic work overall.
    """

    def __init__(
        self,
        domain_size: int,
        check: bool = False,
        shift: Optional[list[int]] = None,
    ):
        if domain_size < 1:
            raise ValueError("domain must contain at least index 1")
        if shift is None:
            shift = [0] * domain_size
        elif len(shift) < domain_size:
            raise ValueError("shift array shorter than the domain")
        self.n = domain_size
        self.live_count = domain_size
        self._live = [True] * (domain_size + 2)
        # Union-find skip pointers: _left[i] / _right[i] chase to the nearest
        # live index <= i / >= i (0 and n+1 are dead sentinels).
        self._left = list(range(domain_size + 2))
        self._right = list(range(domain_size + 2))
        self._live[0] = self._live[domain_size + 1] = False
        self._env: list[_Line] = []        # envelope lines, slope descending
        self._env_keys: list[int] = []     # negated slopes, for bisect
        self._lines: list[_Line] = []      # every inserted line, by uid
        self._heap: list[tuple[int, int, int, int, int]] = []
        self._shift = shift
        self._check = check
        # Check mode's own record of the live indices, kept apart from the
        # skip pointers it audits.
        self._shadow_live = set(range(1, domain_size + 1)) if check else None

    # ------------------------------------------------------------------
    # live-index bookkeeping

    def _find_left(self, i: int) -> int:
        """Largest live index <= i, or 0 if none."""
        left = self._left
        while left[i] != i:
            left[i] = i = left[left[i]]
        return i

    def _find_right(self, i: int) -> int:
        """Smallest live index >= i, or n+1 if none."""
        right = self._right
        while right[i] != i:
            right[i] = i = right[right[i]]
        return i

    def _delete_index(self, x: int) -> None:
        self._live[x] = False
        self._left[x] = x - 1
        self._right[x] = x + 1
        self.live_count -= 1

    # ------------------------------------------------------------------
    # candidate pointers and the lazy heap

    def _refresh(self, line: _Line) -> None:
        """Recompute a line's candidates from its interval and push them."""
        line.gen += 1
        if not line.on_envelope or line.x > line.y:
            line.p = line.q = None
            return
        p = self._find_left(min(line.valley, line.y))
        p = line.p = p if p >= line.x else None
        q = self._find_right(max(line.valley, line.x))
        q = line.q = q if q <= line.y else None
        heap, shift = self._heap, self._shift
        if p is not None:
            val = line.slope * p + line.intercept - shift[p - 1]
            heapq.heappush(heap, (val, line.uid, 0, line.gen, p))
        if q is not None and q != p:
            val = line.slope * q + line.intercept - shift[q - 1]
            heapq.heappush(heap, (val, line.uid, 1, line.gen, q))

    def _drop_from_envelope(self, line: _Line) -> None:
        line.on_envelope = False
        line.x, line.y = 1, 0
        line.gen += 1
        line.p = line.q = None

    def _top(self) -> tuple[int, _Line, int]:
        """(heap entry, owning line, index) of the current minimum."""
        heap = self._heap
        while heap:
            value, uid, side, gen, idx = heap[0]
            line = self._lines[uid]
            if gen != line.gen or (line.p if side == 0 else line.q) != idx:
                heapq.heappop(heap)
                continue
            return value, line, idx
        raise EnvelopeEmptyError("no live index is covered by any row")

    # ------------------------------------------------------------------
    # public operations

    def __len__(self) -> int:
        return len(self._lines)

    def insert(
        self, slope: int, intercept: int, valley: int, payload: Any = None
    ) -> int:
        """Add the row ``slope*x + intercept - shift[x-1]`` with its valley.

        Returns the row's id.  O(log n) plus evictions.  Outside check
        mode the caller vouches that ``valley`` is the row's left-most
        minimiser in ``[1, N]``.
        """
        if self._check:
            self._check_row(slope, intercept, valley)
        line = _Line(len(self._lines), slope, intercept, valley, payload)
        self._lines.append(line)
        self._place(line)
        if self._check:
            self._check_min()
        return line.uid

    def _place(self, line: _Line) -> None:
        """Splice a new line into the envelope, evicting what it covers."""
        env, keys = self._env, self._env_keys
        pos = bisect_left(keys, -line.slope)

        # A same-slope line survives only with the smaller intercept (equal
        # lines keep the earlier one); the loser never reaches the envelope.
        if pos < len(env) and env[pos].slope == line.slope:
            old = env[pos]
            if line.intercept >= old.intercept:
                return
            self._drop_from_envelope(old)
            env.pop(pos)
            keys.pop(pos)

        # Walk outward evicting neighbours whose interval the new line takes
        # over entirely.  Breakpoints put tie indices on the steeper line.
        while pos > 0:
            left = env[pos - 1]
            b = (line.intercept - left.intercept) // (left.slope - line.slope)
            if b < left.x:
                self._drop_from_envelope(left)
                env.pop(pos - 1)
                keys.pop(pos - 1)
                pos -= 1
            else:
                break
        lo = 1 if pos == 0 else b + 1

        while pos < len(env):
            right = env[pos]
            c = (right.intercept - line.intercept) // (line.slope - right.slope)
            if c >= right.y:
                self._drop_from_envelope(right)
                env.pop(pos)
                keys.pop(pos)
            else:
                break
        hi = self.n if pos == len(env) else c

        if lo > hi:
            # Dominated everywhere: stays off the envelope, contributes no
            # candidates.  (Cannot co-occur with evictions above.)
            return

        if pos > 0 and env[pos - 1].y != lo - 1:
            env[pos - 1].y = lo - 1
            self._refresh(env[pos - 1])
        if pos < len(env) and env[pos].x != hi + 1:
            env[pos].x = hi + 1
            self._refresh(env[pos])

        line.x, line.y = lo, hi
        line.on_envelope = True
        env.insert(pos, line)
        keys.insert(pos, -line.slope)
        self._refresh(line)

    def access_min(self) -> AccessMin:
        """Current minimum of all rows over the live indices.  O(1) am."""
        if not self._lines:
            raise EnvelopeEmptyError("no rows inserted")
        if self.live_count == 0:
            raise EnvelopeEmptyError("all indices deleted")
        value, line, idx = self._top()
        return AccessMin(idx, value, line.payload)

    def min_value(self) -> int:
        """Just the value of :meth:`access_min`, without the wrapper."""
        return self._top()[0]

    def delete_min(self) -> int:
        """Remove the minimising index from the live set and return it."""
        if not self._lines:
            raise EnvelopeEmptyError("no rows inserted")
        if self.live_count == 0:
            raise EnvelopeEmptyError("all indices deleted")
        _value, line, idx = self._top()
        if self._check:
            self._check_min(deleting=idx)
            self._shadow_live.discard(idx)
        heapq.heappop(self._heap)
        self._delete_index(idx)
        self._refresh(line)
        if self._check:
            self._check_min()
        return idx

    def candidate_count(self) -> int:
        """Number of valid heap candidates; at most two per row."""
        total = 0
        for line in self._env:
            total += (line.p is not None) + (line.q is not None and line.q != line.p)
        return total

    # ------------------------------------------------------------------
    # check mode

    def _check_row(self, slope: int, intercept: int, valley: int) -> None:
        if not 1 <= valley <= self.n:
            raise ValueError(f"valley {valley} outside domain [1, {self.n}]")
        shift = self._shift
        row = [slope * x + intercept - shift[x - 1] for x in range(1, self.n + 1)]
        if row.index(min(row)) + 1 != valley:
            raise ValueError(f"valley {valley} is not the row's left-most minimiser")
        v = valley - 1
        if any(a < b for a, b in zip(row[:v], row[1 : v + 1])) or any(
            a > b for a, b in zip(row[v:], row[v + 1 :])
        ):
            raise ValueError(f"row is not unimodal around valley {valley}")

    def _check_min(self, deleting: int = 0) -> None:
        """Assert the heap's minimum against a brute scan of every row.

        ``deleting`` is the index :meth:`delete_min` is about to remove;
        it must be live in the shadow set and attain the minimum.
        """
        live = self._shadow_live
        if not live:
            return
        shift = self._shift

        def at(x: int) -> int:
            return min(ln.slope * x + ln.intercept - shift[x - 1] for ln in self._lines)

        value, brute = self.min_value(), min(at(x) for x in live)
        assert value == brute, f"envelope minimum {value} disagrees with brute scan {brute}"
        if deleting:
            assert deleting in live and at(deleting) == value, (
                f"deleted index {deleting} does not attain the minimum {value}"
            )
