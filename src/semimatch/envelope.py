"""A kinetic min-heap over unimodal rows sharing a lower envelope of lines.

The structure answers ``min f_i(x)`` over a shrinking index set ``L`` drawn
from the integer domain ``[1, N]``, where every inserted row is

    f_i(x) = slope_i * x + intercept_i - shift[x - 1]

for one ``shift`` array of length ``N`` shared by the whole heap, and
``f_i`` is unimodal on ``[1, N]`` with a known valley index ``gamma_i``.
Because the shift is shared, ``f_i`` attains the pointwise minimum of the
family exactly where its certificate line ``g_i(x) = slope_i * x +
intercept_i`` attains the lower envelope of the lines.

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
to its valley from the left (``p``) and from the right (``q``), clamped to
its interval.  The structure keeps no queue of its own: each candidate
goes onto a binary heap shared with the caller, the ``frontier``.
Intervals and the live set only shrink, so ``p`` only moves left and
``q`` only moves right: a line never returns to an index it left, and a
frontier entry is current exactly when its index is still one of its
line's candidates.  A move therefore pushes only what moved, and the
caller drops a stale entry when it pops one.  A delete moves only the
side that held its index.

All arithmetic is exact integer arithmetic; interval breakpoints are floor
divisions of intercept differences by slope differences.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappush
from typing import Any, Optional


class _Line:
    __slots__ = ("uid", "slope", "intercept", "valley", "payload", "x", "y", "p", "q")

    def __init__(
        self, uid: int, slope: int, intercept: int, valley: int, payload: Any, x: int, y: int
    ) -> None:
        self.uid = uid
        self.slope = slope
        self.intercept = intercept
        self.valley = valley
        self.payload = payload
        self.x = x          # envelope interval [x, y]
        self.y = y
        # Live candidates left of/at and right of/at the valley; 0 and N+1
        # when the side has none, None before the line is placed and after
        # it leaves the envelope.
        self.p: Optional[int] = None
        self.q: Optional[int] = None


class EnvelopeHeap:
    """Min-heap over the rows ``slope*x + intercept - shift[x-1]`` on ``[1, N]``.

    ``N`` is ``len(shift)``.  Candidates live in ``frontier``, a
    :mod:`heapq` list the caller owns and may share with other entries
    and other heaps: each one that moves is pushed as ``(value, key,
    uid, idx)``, so at equal value the heap's entries pop in ``(uid,
    idx)`` order and ``key`` tells heaps apart.  Uids number the rows
    that entered the envelope, in insertion order.  The heap makes three
    operations: :meth:`insert` adds a row, :meth:`current` says whether
    a popped entry still names a candidate, and :meth:`delete` removes a
    candidate's index.  The least current entry of this heap in the
    frontier is its minimum over the live indices.

    ``check=True`` makes the heap audit itself, for tests: every insert
    must name a valley inside the domain that is the row's left-most
    minimiser, around which the row is unimodal (else ``ValueError``);
    every move must take ``p`` only left and ``q`` only right; after
    every insert and every delete the least current frontier entry of
    this heap must equal a brute scan of all inserted rows over a shadow
    live set, and each deleted index must attain that minimum (else
    ``AssertionError``).  That is quadratic work overall.
    """

    # Check mode's own records of the inserted rows and the live indices.
    _shadow_rows: Optional[list] = None
    _shadow_live: Optional[set] = None

    def __init__(self, shift: list[int], frontier: list, key: int = 0, check: bool = False):
        n = len(shift)
        if n < 1:
            raise ValueError("domain must contain at least index 1")
        self.n = n
        # Union-find skip pointers: _left[i] / _right[i] chase to the nearest
        # live index <= i / >= i (0 and n+1 are dead sentinels).  Index x
        # in [1, n] is live exactly when _left[x] == x.
        self._left = list(range(n + 2))
        self._right = self._left[:]
        self._env: list[_Line] = []        # envelope lines, slope descending
        self._env_keys: list[int] = []     # negated slopes, for bisect
        self._lines: list[_Line] = []      # every line that entered the envelope, by uid
        self._frontier = frontier
        self._key = key
        self._shift = shift
        self._check = check
        if check:
            self._shadow_rows = []
            self._shadow_live = set(range(1, n + 1))

    # ------------------------------------------------------------------
    # candidate pointers

    def _refresh(self, line: _Line) -> None:
        """Recompute a line's candidates from its interval."""
        left, right = self._left, self._right
        x, y, valley = line.x, line.y, line.valley
        p = valley if valley < y else y
        while left[p] != p:
            left[p] = p = left[left[p]]
        q = valley if valley > x else x
        while right[q] != q:
            right[q] = q = right[right[q]]
        self._move(line, p if p >= x else 0, q if q <= y else self.n + 1)

    def _move(self, line: _Line, p: int, q: int) -> None:
        """Set a line's candidates to ``p`` and ``q``; push each that moved."""
        if self._check and line.p is not None:
            assert p <= line.p and q >= line.q, (
                f"candidates moved the wrong way: p {line.p} -> {p}, q {line.q} -> {q}"
            )
        frontier, shift, key = self._frontier, self._shift, self._key
        if p != line.p:
            line.p = p
            if p:
                heappush(frontier, (line.slope * p + line.intercept - shift[p - 1], key, line.uid, p))
        if q != line.q:
            line.q = q
            if q <= self.n and q != p:
                heappush(frontier, (line.slope * q + line.intercept - shift[q - 1], key, line.uid, q))

    def _evict(self, pos: int) -> None:
        """Take the envelope line at ``pos`` off for good; its entries go stale."""
        line = self._env.pop(pos)
        del self._env_keys[pos]
        line.p = line.q = None

    # ------------------------------------------------------------------
    # public operations

    def insert(self, slope: int, intercept: int, valley: int, payload: Any = None) -> None:
        """Add the row ``slope*x + intercept - shift[x-1]`` with its valley.

        O(log n) plus evictions.  Outside check mode the caller vouches
        that ``valley`` is the row's left-most minimiser in ``[1, N]``.
        """
        if self._check:
            self._check_row(slope, intercept, valley)
            self._shadow_rows.append((slope, intercept))
        env = self._env
        pos = bisect_left(self._env_keys, -slope)
        # A same-slope line survives only with the smaller intercept (equal
        # lines keep the earlier one); the loser is dropped before it is built.
        if pos == len(env) or env[pos].slope != slope or intercept < env[pos].intercept:
            self._place(slope, intercept, valley, payload, pos)
        if self._check:
            self._check_min(self._claimed_min())

    def _place(self, slope: int, intercept: int, valley: int, payload: Any, pos: int) -> None:
        """Splice a row into the envelope at ``pos``, evicting what it covers."""
        env = self._env
        if pos < len(env) and env[pos].slope == slope:
            self._evict(pos)  # the same-slope line this row beat

        # Walk outward evicting neighbours whose interval the new line takes
        # over entirely.  Breakpoints put tie indices on the steeper line.
        while pos > 0:
            left = env[pos - 1]
            b = (intercept - left.intercept) // (left.slope - slope)
            if b < left.x:
                self._evict(pos - 1)
                pos -= 1
            else:
                break
        lo = 1 if pos == 0 else b + 1

        while pos < len(env):
            right = env[pos]
            c = (right.intercept - intercept) // (slope - right.slope)
            if c >= right.y:
                self._evict(pos)
            else:
                break
        hi = self.n if pos == len(env) else c

        if lo > hi:
            # Dominated everywhere: never built, contributes no candidates.
            # (Cannot co-occur with evictions above.)
            return

        if pos > 0 and env[pos - 1].y != lo - 1:
            env[pos - 1].y = lo - 1
            self._refresh(env[pos - 1])
        if pos < len(env) and env[pos].x != hi + 1:
            env[pos].x = hi + 1
            self._refresh(env[pos])

        line = _Line(len(self._lines), slope, intercept, valley, payload, lo, hi)
        self._lines.append(line)
        env.insert(pos, line)
        self._env_keys.insert(pos, -slope)
        self._refresh(line)

    def current(self, uid: int, idx: int) -> Optional[_Line]:
        """The line whose candidate the frontier entry ``(value, key, uid,
        idx)`` names, or None when the entry is stale: ``idx`` is no longer
        one of that line's candidates.  O(1)."""
        line = self._lines[uid]
        return line if idx == line.p or idx == line.q else None

    def delete(self, line: _Line, idx: int) -> None:
        """Delete index ``idx``, a current candidate of ``line`` whose entry
        the caller just popped as the least of this heap.

        Only ``line`` has a candidate at ``idx``, and only the side that
        took it moves, one live index outward (both when ``p == q``); what
        moved is pushed, and no other line changes.
        """
        if self._check:
            assert self.current(line.uid, idx) is line, f"index {idx} is not a candidate of its line"
            value = line.slope * idx + line.intercept - self._shift[idx - 1]
            self._check_min(value, deleting=idx)
            self._shadow_live.discard(idx)
        left, right = self._left, self._right
        left[idx] = idx - 1
        right[idx] = idx + 1
        p, q = line.p, line.q
        if idx == p:
            p = idx - 1
            while left[p] != p:
                left[p] = p = left[left[p]]
            if p < line.x:
                p = 0
        if idx == q:
            q = idx + 1
            while right[q] != q:
                right[q] = q = right[right[q]]
            if q > line.y:
                q = self.n + 1
        self._move(line, p, q)
        if self._check:
            self._check_min(self._claimed_min())

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

    def _claimed_min(self) -> Optional[int]:
        """Value of this heap's least current entry in the frontier, read
        without popping, or None when it has none.

        The scan reads the frontier itself rather than the lines' ``p`` and
        ``q``, so a candidate that moved without its push shows up too.
        """
        key = self._key
        return min(
            (
                e[0] for e in self._frontier
                if len(e) == 4 and e[1] == key and self.current(e[2], e[3]) is not None
            ),
            default=None,
        )

    def _check_min(self, value: Optional[int], deleting: int = 0) -> None:
        """Assert the heap's minimum ``value`` against a brute scan of every row.

        ``deleting`` is the index :meth:`delete` is about to remove; it must
        be live in the shadow set and attain the minimum.
        """
        live = self._shadow_live
        if not live:
            assert value is None, f"envelope minimum {value} with no live index"
            return
        shift, rows = self._shift, self._shadow_rows

        def at(x: int) -> int:
            return min(w * x + b for w, b in rows) - shift[x - 1]

        brute = min(at(x) for x in live)
        assert value == brute, f"envelope minimum {value} disagrees with brute scan {brute}"
        if deleting:
            assert deleting in live and at(deleting) == value, (
                f"deleted index {deleting} does not attain the minimum {value}"
            )
