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

Instance text is read in one loop.  The header is the first line that
is neither blank nor a comment, found among the leading lines only.
The body is read in slices of about 16 KiB, each cut after a newline.
A ``semimatch`` slice in a strict subset of the language, which holds
every body :func:`emit_instance` writes, is converted in bulk: every
line is exactly ``e <job> <machine> <weight>\n`` with single spaces,
ids ``[1-9][0-9]*`` and weights ``0|[1-9][0-9]*``, so ``int()`` reads
what the line code reads and each id has one spelling.  One regular
expression checks the slice (it keeps a backtracking entry per line, so
it never runs on the whole body); a table of id spellings, no longer
than the body allows, decodes ids straight to 0-based ints, and weights
convert only from the first slice with one that is not 1.  ``max``
checks ranges.  Keys ``job * machines + machine`` that strictly
increase, as emitted text's do, cannot repeat; a set of them checks
duplicates from the first slice out of order or read line by line.  Any
other slice, or one that breaks a rule, is read line by line, which
names the first bad line with the same class, line number and message
however its slice was tried.
"""

from __future__ import annotations

import re
from itertools import chain, count, islice, repeat
from operator import add, lt, mul
from typing import Iterable, Sequence, Union

from .core import MAX_WEIGHT, BipartiteInstance, InfeasibleInstanceError, SemiMatchError
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


def _records(text: str):
    """Yield ``(line_no, tokens)`` for every significant line."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        yield line_no, tokens


def _int_field(line_no: int, token: str, what: str, err=ParseError) -> int:
    try:
        return int(token)
    except ValueError:
        raise err(line_no, f"{what} {token!r} is not an integer") from None


# A body slice in the bulk conversion's subset; see the module docstring.
_CANONICAL_LINES = re.compile(r"(?:e [1-9][0-9]* [1-9][0-9]* (?:0|[1-9][0-9]*)\n)*")

_HEADERS = {
    "semimatch": "p semimatch <jobs> <machines> <edges>",
    "cover": "p cover <vertices> <edges>",
}

#: The body is read in slices of about this many characters.
_CHUNK = 1 << 14


def _leading_lines(text: str):
    """Yield the lines of ``text`` with their ends, as ``str.splitlines``
    cuts them, reading only as far as the caller takes."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield from text[start:end].splitlines(keepends=True)
        start = end


class _Ids(dict):
    """The 0-based int of each id spelling ``"k"`` up to some bound; a
    spelling above it converts with ``int()``."""

    def __missing__(self, token: str) -> int:
        return int(token) - 1


def _convert_slice(chunk: str, counts: list[int], ids: _Ids, seen: set[int],
                   jobs: list[int], machines: list[int], weights: list[int]) -> int:
    """Append a body slice in the bulk subset to the columns and return
    its line count; or return 0 and change nothing when the slice is
    outside the subset, takes the body past the header's edge count, or has
    an id out of range, a weight over MAX_WEIGHT, a duplicate edge or,
    while ``seen`` is empty, a key not above the one before.  ``weights``
    ends at the last weight that is not 1."""
    if _CANONICAL_LINES.fullmatch(chunk) is None:
        return 0
    num_jobs, num_machines, num_edges = counts
    tokens = chunk.split()  # e, job, machine, weight, e, ...
    if len(tokens) > 4 * (num_edges - len(jobs)):
        return 0
    try:
        us = list(map(ids.__getitem__, tokens[1::4]))
        vs = list(map(ids.__getitem__, tokens[2::4]))
        ws = tokens[3::4]
        ws = None if ws.count("1") == len(ws) else list(map(int, ws))
    except ValueError:  # a field longer than int()'s digit limit
        return 0
    if max(us) >= num_jobs or max(vs) >= num_machines or ws and max(ws) > MAX_WEIGHT:
        return 0
    keys = list(map(add, map(mul, us, repeat(num_machines)), vs))  # as the line code's
    if seen:  # the keys of every edge so far
        seen.update(keys)
        if len(seen) < len(jobs) + len(keys):  # a duplicate: the line code rebuilds the set
            seen.clear()
            return 0
    elif jobs and keys[0] <= jobs[-1] * num_machines + machines[-1]:
        return 0
    elif not all(map(lt, keys, islice(keys, 1, None))):
        return 0
    if ws:
        weights += chain(repeat(1, len(jobs) - len(weights)), ws)
    jobs += us
    machines += vs
    return len(us)


def parse_instance(text: str) -> Union[BipartiteInstance, GeneralGraph]:
    """Parse instance text into the matching in-memory type.

    The header's kind decides the result: ``p semimatch`` gives a
    :class:`BipartiteInstance`, ``p cover`` a :class:`GeneralGraph`.
    Body slices in the bulk subset are converted whole, the rest line by
    line (see the module docstring).  An isolated cover vertex raises
    :class:`InfeasibleInstanceError`, before anything is allocated per
    vertex when there are more than twice as many vertices as edges.
    """
    start = 0
    for line_no, raw in enumerate(_leading_lines(text), start=1):
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

    # Each line's fields convert in one try; _int_field runs only to name
    # the bad one.  A pair's duplicate key is one integer.  A semimatch
    # edge goes into two id columns, and into the weight column only once
    # some weight is not 1.  The instance builds from the columns
    # once the whole body has been checked, so a body error is named
    # before anything is allocated per job.
    jobs, machines, weights = [], [], []
    edges: list[tuple[int, int]] = []  # cover edges
    seen: set[int] = set()
    if kind == "semimatch":
        num_jobs, num_machines, num_edges = counts
        # No more ids than body lines (8 characters at least), so that a
        # huge header over a small body allocates little.
        top = min(max(num_jobs, num_machines), (len(text) - start) // 8)
        ids = _Ids(zip(map(str, range(1, top + 1)), range(top)))
        column = jobs
    else:
        num_vertices, num_edges = counts
        column = edges
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        start = end
        if kind == "semimatch":
            converted = _convert_slice(chunk, counts, ids, seen, jobs, machines, weights)
            if converted:
                line_no += converted
                continue
            if not seen:
                seen.update(map(add, map(mul, jobs, repeat(num_machines)), machines))
        for line_no, raw in enumerate(chunk.splitlines(), line_no + 1):
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
                    raise BadWeightError(
                        line_no, "semimatch edge needs 'e <job> <machine> <weight>'"
                    )
                try:
                    job, machine, weight = int(tokens[1]), int(tokens[2]), int(tokens[3])
                except ValueError:
                    _int_field(line_no, tokens[1], "job id")
                    _int_field(line_no, tokens[2], "machine id")
                    _int_field(line_no, tokens[3], "weight", BadWeightError)
                    raise  # unreachable: one of the three raised
                if not 1 <= job <= num_jobs:
                    raise IdOutOfRangeError(
                        line_no, f"job id {job} out of range [1, {num_jobs}]"
                    )
                if not 1 <= machine <= num_machines:
                    raise IdOutOfRangeError(
                        line_no, f"machine id {machine} out of range [1, {num_machines}]"
                    )
                if weight < 0 or weight > MAX_WEIGHT:
                    raise BadWeightError(
                        line_no, f"weight {weight} outside [0, {MAX_WEIGHT}]"
                    )
                key = (job - 1) * num_machines + machine - 1
                if key in seen:
                    raise ParseError(line_no, f"duplicate edge ({job}, {machine})")
                seen.add(key)
                if weight != 1:
                    weights += chain(repeat(1, len(jobs) - len(weights)), (weight,))
                jobs.append(job - 1)
                machines.append(machine - 1)
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
    if kind == "cover":
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
    if weights:
        weights += repeat(1, len(jobs) - len(weights))
    instance = BipartiteInstance.__new__(BipartiteInstance)
    instance._build(num_jobs, num_machines, jobs, machines, weights or None)
    return instance


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
    for line_no, tokens in _records(text):
        if tokens[0] == "cost":
            if cost is not None:
                raise ParseError(line_no, "second 'cost' trailer")
            if len(tokens) != 2:
                raise ParseError(line_no, "cost trailer needs 'cost <value>'")
            cost = _int_field(line_no, tokens[1], "cost")
        elif tokens[0] == "a":
            if cost is not None:
                raise ParseError(line_no, "'a' record after the cost trailer")
            if len(tokens) != 3:
                raise ParseError(line_no, "assignment record needs 'a <x> <y>'")
            x = _int_field(line_no, tokens[1], "id")
            y = _int_field(line_no, tokens[2], "id")
            if x < 1 or y < 1:
                raise IdOutOfRangeError(line_no, f"ids must be 1-based, got {x}, {y}")
            pairs.append((x - 1, y - 1))
        else:
            raise ParseError(line_no, f"unknown record {tokens[0]!r}")
    if cost is None:
        raise ParseError(0, "missing 'cost' trailer")
    return tuple(pairs), cost
