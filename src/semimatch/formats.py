"""Plain-text instance and solution files.

Instances are DIMACS-flavored line records.  A bipartite scheduling
instance::

    c any number of comment lines, anywhere
    p semimatch <jobs> <machines> <edges>
    e <job> <machine> <weight>

and a general graph for the cover problem::

    p cover <vertices> <edges>
    e <u> <v>

Ids are 1-based on disk, 0-based in memory.  ``semimatch`` edges always
carry a weight (write 1 for unit instances); ``cover`` edges never do.
Solutions are ``a`` records — ``a <job> <machine>`` for assignments,
``a <u> <v>`` for cover edges — followed by one ``cost <value>``
trailer.

Malformed text never escapes as a stray exception: every syntactic
failure is a :class:`ParseError` subclass carrying the offending line
number.  (A well-formed file describing an unsolvable instance, a job
or a vertex with no edges, still raises the semantic
:class:`~semimatch.core.InfeasibleInstanceError` — that is a property
of the instance, not of the text.)

Emission is canonical — edges sorted, no comments — so
``emit(parse(emit(x))) == emit(x)`` byte for byte.

The header, the first line that is neither blank nor a comment, is
found one line at a time; the body after it is read in slices of about
16 KiB, each cut after a newline.  A ``semimatch`` body is read whole
by one of two routes.  The bulk route takes bodies in a strict subset
of the language, which holds every body :func:`emit_instance` writes:
every line is exactly ``e <job> <machine> <weight>\n`` with single
spaces, ids ``[1-9][0-9]*`` and weights ``0|[1-9][0-9]*``, so ``int()``
reads what the line loop reads and each id has one spelling.  A slice
is split once on single spaces, and the pieces prove that it is such
lines (:func:`_read_bulk`); ids decode through one table per side, so
each is proven in range as it decodes.  The columns are kept if the
body has the declared number of edges and no pair repeats, the test
that :class:`~semimatch.core.BipartiteInstance` also runs.  Any other
body, and every ``cover`` body, is read by the line loop, one slice at
a time and with ``semimatch`` ids through the same tables; it names the
first bad line.

Solution text is read in one loop over its lines.  The two ids of an
``a`` record convert in one ``try``; only when that fails are they
converted again one at a time, to name the bad token.
"""

from __future__ import annotations

import re
from itertools import chain, count, repeat
from typing import Iterable, Sequence, Union

from .core import (
    MAX_WEIGHT, BipartiteInstance, InfeasibleInstanceError, SemiMatchError, _columns_ok
)
from .cover import GeneralGraph

__all__ = [
    "ParseError",
    "MalformedHeaderError",
    "CountMismatchError",
    "IdOutOfRangeError",
    "BadWeightError",
    "parse_instance",
    "emit_instance",
    "parse_assignment",
    "emit_assignment",
]


class ParseError(SemiMatchError):
    """Syntactically bad instance or solution text."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedHeaderError(ParseError):
    """Missing, unparsable, or wrong-kind ``p`` line."""


class CountMismatchError(ParseError):
    """Body has more or fewer edge records than the header declared."""


class IdOutOfRangeError(ParseError):
    """Endpoint id outside the range announced by the header."""


class BadWeightError(ParseError):
    """Edge weight missing, non-integer, negative, or over MAX_WEIGHT."""


def _int_field(line_no: int, token: str, what: str, err=ParseError) -> int:
    try:
        return int(token)
    except ValueError:
        raise err(line_no, f"{what} {token!r} is not an integer") from None


# A bulk slice's weight tails, joined by spaces: "<w>\ne " per line, "<w>\n" last.
_WEIGHT_TAILS = re.compile(r"(?:(?:0|[1-9][0-9]*)\ne )*(?:0|[1-9][0-9]*)\n")

_HEADERS = {
    "semimatch": "p semimatch <jobs> <machines> <edges>",
    "cover": "p cover <vertices> <edges>",
}

#: The text is read in slices of about this many characters.
_CHUNK = 1 << 14


def _slices(text: str, start: int, size: int = _CHUNK):
    """Yield ``text[start:]`` in slices cut after the first newline at
    least ``size`` characters in; with ``size`` 0, one line each."""
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str, start: int, size: int = _CHUNK):
    """The lines of ``text[start:]`` with their ends, as
    ``str.splitlines`` cuts them, split one slice at a time."""
    return chain.from_iterable(c.splitlines(keepends=True) for c in _slices(text, start, size))


class _Ids(dict):
    """Id spelling ``"k"`` to ``k - 1`` for ``k`` in ``1..count``: the
    ``names`` given, and on a miss any other canonical ``[1-9][0-9]*``.
    Any other spelling raises ``KeyError``."""

    def __init__(self, names: list[str], count: int) -> None:
        super().__init__(zip(names, range(count)))
        self.count = count

    def __missing__(self, token: str) -> int:
        if token.isascii() and token.isdigit() and token[0] != "0" and int(token) <= self.count:
            return int(token) - 1
        raise KeyError(token)


def _read_bulk(text: str, start: int, counts: list[int], job_ids: _Ids, machine_ids: _Ids):
    """The columns ``(jobs, machines, weights)`` of the ``semimatch`` body
    ``text[start:]``, ``weights`` cut after the last weight that is not
    1; or ``None`` as soon as a slice is outside the bulk subset or
    passes the declared edge count, and when the body has fewer edges
    or repeats a pair.  Split on spaces, ``n`` lines ``e J M W\n`` give
    ``"e"``, then J, M and a tail ``"W\ne"`` per line (``"W\n"`` last);
    and ``3n + 1`` such pieces, with ids the tables decode, join back
    into exactly such lines."""
    num_jobs, num_machines, num_edges = counts
    jobs, machines, weights = [], [], []
    for chunk in _slices(text, start):
        pieces = chunk.split(" ")
        lines, odd = divmod(len(pieces) - 1, 3)
        if odd or pieces[0] != "e" or not 0 < lines <= num_edges - len(jobs):
            return None
        tails = pieces[3::3]
        try:
            if tails.count("1\ne") != lines - 1 or tails[-1] != "1\n":
                tails = " ".join(tails)
                if _WEIGHT_TAILS.fullmatch(tails) is None:
                    return None
                weights += chain(repeat(1, len(jobs) - len(weights)), map(int, tails.split("\ne ")))
            jobs += map(job_ids.__getitem__, pieces[1::3])
            machines += map(machine_ids.__getitem__, pieces[2::3])
        except (KeyError, ValueError):  # an id off its table, a weight past int()'s digit limit
            return None
    if len(jobs) < num_edges:
        return None
    ok = _columns_ok(num_jobs, num_machines, jobs, machines, weights, ranged=True)
    return (jobs, machines, weights) if ok else None


def parse_instance(text: str) -> Union[BipartiteInstance, GeneralGraph]:
    """Parse instance text into the matching in-memory type.

    The header's kind decides the result: ``p semimatch`` gives a
    :class:`BipartiteInstance`, ``p cover`` a :class:`GeneralGraph`.
    A ``semimatch`` body in the bulk subset is converted whole, any
    other body line by line (see the module docstring).  An isolated
    cover vertex raises :class:`InfeasibleInstanceError`, before
    anything is allocated per vertex when there are more than twice as
    many vertices as edges.
    """
    # The header is found one line at a time, so that only the lines up
    # to it are split.
    start = 0
    for line_no, raw in enumerate(_lines(text, 0, 0), start=1):
        start += len(raw)
        tokens = raw.split()
        if tokens and tokens[0] != "c":
            break
    else:
        raise MalformedHeaderError(0, "empty input, expected a 'p' header")
    if tokens[0] != "p":
        raise MalformedHeaderError(line_no, f"expected 'p' header, got {tokens[0]!r}")
    kind = tokens[1] if len(tokens) > 1 else ""
    usage = _HEADERS.get(kind)
    if usage is None:
        raise MalformedHeaderError(
            line_no, f"unknown problem kind {kind!r} (expected semimatch or cover)"
        )
    if len(tokens) != len(usage.split()):
        raise MalformedHeaderError(line_no, f"{kind} header needs {usage!r}")
    counts = [_int_field(line_no, t, "header count", MalformedHeaderError) for t in tokens[2:]]
    header_line = line_no
    if any(c < 0 for c in counts):
        raise MalformedHeaderError(header_line, "header counts must be non-negative")

    if kind == "semimatch":
        num_jobs, num_machines, num_edges = counts
        # No more ids than body lines (8 characters at least), so that a
        # huge header over a small body allocates little.
        top = min(max(num_jobs, num_machines), (len(text) - start) // 8)
        names = list(map(str, range(1, top + 1)))
        job_ids, machine_ids = _Ids(names, num_jobs), _Ids(names, num_machines)
        columns = _read_bulk(text, start, counts, job_ids, machine_ids)
        if columns is not None:
            del names, job_ids, machine_ids  # freed before the build, the peak of a parse
            instance = BipartiteInstance.__new__(BipartiteInstance)
            instance._build(num_jobs, num_machines, *columns)
            return instance
    else:
        num_vertices, num_edges = counts

    # The line route.  Each line's fields convert in one try, ids through
    # the tables, which prove their range; off them, ids convert with
    # int() and are checked.  A pair's duplicate key is one integer.  A
    # semimatch edge goes into two id columns, and into the weight column
    # only once some weight is not 1.  The instance builds from the
    # columns once the whole body has been checked, so a body error is
    # named before anything is allocated per job.
    jobs, machines, weights = [], [], []
    edges: list[tuple[int, int]] = []  # cover edges
    column = jobs if kind == "semimatch" else edges
    seen: set[int] = set()
    for line_no, raw in enumerate(_lines(text, start), start=header_line + 1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag != "e":
            if tag == "c":
                continue
            raise ParseError(line_no, f"unknown record {tag!r}, expected 'e'")
        if len(column) == num_edges:
            raise CountMismatchError(
                line_no, f"header declared {num_edges} edges but the body has more"
            )
        if kind == "semimatch":
            if len(tokens) != 4:
                raise BadWeightError(line_no, "semimatch edge needs 'e <job> <machine> <weight>'")
            try:
                job, machine, weight = job_ids[tokens[1]], machine_ids[tokens[2]], int(tokens[3])
            except (KeyError, ValueError):  # an id off its table, or a bad field
                job = _int_field(line_no, tokens[1], "job id")
                machine = _int_field(line_no, tokens[2], "machine id")
                weight = _int_field(line_no, tokens[3], "weight", BadWeightError)
                for vid, what, top in ((job, "job", num_jobs), (machine, "machine", num_machines)):
                    if not 1 <= vid <= top:
                        raise IdOutOfRangeError(line_no, f"{what} id {vid} out of range [1, {top}]")
                job, machine = job - 1, machine - 1
            if weight < 0 or weight > MAX_WEIGHT:
                raise BadWeightError(line_no, f"weight {weight} outside [0, {MAX_WEIGHT}]")
            key = job * num_machines + machine
            if key in seen:
                raise ParseError(line_no, f"duplicate edge ({job + 1}, {machine + 1})")
            seen.add(key)
            if weight != 1:
                weights += chain(repeat(1, len(jobs) - len(weights)), (weight,))
            jobs.append(job)
            machines.append(machine)
        else:
            if len(tokens) != 3:
                raise ParseError(line_no, "cover edge needs 'e <u> <v>' (no weight)")
            try:
                a, b = int(tokens[1]), int(tokens[2])
            except ValueError:
                _int_field(line_no, tokens[1], "vertex id")
                _int_field(line_no, tokens[2], "vertex id")
                raise  # unreachable: one of the two raised
            for vid in (a, b):
                if not 1 <= vid <= num_vertices:
                    raise IdOutOfRangeError(
                        line_no, f"vertex id {vid} out of range [1, {num_vertices}]"
                    )
            if a == b:
                raise ParseError(line_no, f"self-loop at vertex {a}")
            lo, hi = (a, b) if a < b else (b, a)
            key = lo * (num_vertices + 1) + hi
            if key in seen:
                raise ParseError(line_no, f"duplicate edge ({lo}, {hi})")
            seen.add(key)
            edges.append((lo - 1, hi - 1))

    if len(column) != num_edges:
        raise CountMismatchError(
            header_line,
            f"header declared {num_edges} edges but the body has {len(column)}",
        )
    if kind == "semimatch":
        instance = BipartiteInstance.__new__(BipartiteInstance)
        instance._build(num_jobs, num_machines, jobs, machines, weights)
        return instance
    # With more than two vertices per edge some vertex is isolated:
    # name it without building the graph's per-vertex lists.
    if num_vertices <= 2 * len(edges):
        graph = GeneralGraph.__new__(GeneralGraph)
        graph._build(num_vertices, edges)
        if all(graph.adj):
            return graph
    hit = set(chain.from_iterable(edges))
    isolated = next(v for v in count() if v not in hit)
    raise InfeasibleInstanceError(
        f"vertex {isolated} has no incident edges; no edge cover exists"
    )


def emit_instance(
    instance: Union[BipartiteInstance, GeneralGraph],
    *,
    comments: Sequence[str] = (),
) -> str:
    """Render an instance in the canonical on-disk form (sorted edges)."""
    out = [f"c {c}" for c in comments]
    if isinstance(instance, BipartiteInstance):
        out.append(
            f"p semimatch {instance.num_jobs} {instance.num_machines} {instance.num_edges}"
        )
        # Jobs come in ascending order and a job's machines are distinct,
        # so sorting each job's (machine, weight) pairs sorts the edges.
        # A unit job's lines are one join of its machine ids.
        names = list(map(str, range(1, instance.num_machines + 1)))
        weights = instance.job_weights
        for u, vs in enumerate(instance.job_machines, start=1):
            if weights is None:
                ids = map(names.__getitem__, sorted(vs))
                out.append(f"e {u} " + f" 1\ne {u} ".join(ids) + " 1")
            else:
                pairs = sorted(zip(vs, weights[u - 1]))
                out.extend(f"e {u} {names[v]} {w}" for v, w in pairs)
    else:
        out.append(f"p cover {instance.num_vertices} {instance.num_edges}")
        out.extend(f"e {a + 1} {b + 1}" for a, b in sorted(instance.edges))
    return "\n".join(out) + "\n"


def emit_assignment(pairs: Iterable[tuple[int, int]], cost: int) -> str:
    """Render a solution: one ``a`` record per pair, then the cost trailer."""
    out = [f"a {x + 1} {y + 1}" for x, y in pairs]
    out.append(f"cost {cost}")
    return "\n".join(out) + "\n"


def parse_assignment(text: str) -> tuple[tuple[tuple[int, int], ...], int]:
    """Parse a solution file into 0-based pairs and the declared cost.

    Purely syntactic: pair meaning (job/machine vs. cover edge) and
    consistency with an instance are the caller's concern.
    """
    pairs: list[tuple[int, int]] = []
    cost: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        tag = tokens[0]
        if tag == "a":
            if cost is not None:
                raise ParseError(line_no, "'a' record after the cost trailer")
            if len(tokens) != 3:
                raise ParseError(line_no, "assignment record needs 'a <x> <y>'")
            try:
                x, y = int(tokens[1]), int(tokens[2])
            except ValueError:
                _int_field(line_no, tokens[1], "id")
                _int_field(line_no, tokens[2], "id")
                raise  # unreachable: one of the two raised
            if x < 1 or y < 1:
                raise IdOutOfRangeError(line_no, f"ids must be 1-based, got {x}, {y}")
            pairs.append((x - 1, y - 1))
        elif tag == "cost":
            if cost is not None:
                raise ParseError(line_no, "second 'cost' trailer")
            if len(tokens) != 2:
                raise ParseError(line_no, "cost trailer needs 'cost <value>'")
            cost = _int_field(line_no, tokens[1], "cost")
        elif tag != "c":
            raise ParseError(line_no, f"unknown record {tag!r}")
    if cost is None:
        raise ParseError(0, "missing 'cost' trailer")
    return tuple(pairs), cost
