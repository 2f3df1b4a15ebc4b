"""Bipartite load-balancing instances and assignment cost accounting.

The central objects here are :class:`BipartiteInstance` (jobs on the left,
machines on the right, optional integer edge weights) and
:class:`SemiMatching` (an assignment of every job to one adjacent machine;
machines may receive any number of jobs).

The cost of loading one machine with jobs of weights ``w_1 <= ... <= w_d``
is the total completion time of running them shortest-first::

    cost = d*w_1 + (d-1)*w_2 + ... + 1*w_d

i.e. each job waits for everything scheduled before it.  With unit weights
this collapses to ``d*(d+1)/2``.  :func:`convex_cost` generalises the
per-machine cost to an arbitrary convex function of the machine degree.

All ids are dense and 0-based.  Instances are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import add, contains, getitem, index, itemgetter, lt, mul
from typing import Callable, Iterable, Optional, Sequence

#: Edge weights must fit in an unsigned 31-bit integer.
MAX_WEIGHT = 2**31 - 1

#: Costs are accounted in a signed 64-bit accumulator.
MAX_COST = 2**63 - 1


class SemiMatchError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleInstanceError(SemiMatchError):
    """The instance admits no semi-matching (some job has no edges)."""


class CostOverflowError(SemiMatchError):
    """A cost accumulator exceeded the signed 64-bit range."""


def _integer(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


def _edgeless(what: str, index: int) -> InfeasibleInstanceError:
    """The error for ``what`` (``"job"`` or ``"vertex"``) ``index``, which
    has no edge.  It keeps both, so that a caller can name the id anew."""
    goal = "assignment" if what == "job" else "edge cover"
    exc = InfeasibleInstanceError(f"{what} {index} has no incident edges; no {goal} exists")
    exc.what, exc.index = what, index
    return exc


def _columns_ok(num_jobs: int, num_machines: int, jobs, machines, weights, ranged=False) -> bool:
    """Whether the ids are in range (unless ``ranged`` says the caller
    has proven that), the weights (if any) in ``[0, MAX_WEIGHT]``, and
    no ``(job, machine)`` pair repeats.  The order test runs first: pairs
    in strictly increasing order cannot repeat, and their job column's
    ends are its range; other pairs scan for it and need a key set."""
    if not jobs:
        return True
    ordered = all(map(lt, zip(jobs, machines), islice(zip(jobs, machines), 1, None)))
    if not ranged:
        low, high = (jobs[0], jobs[-1]) if ordered else (min(jobs), max(jobs))
        if low < 0 or high >= num_jobs or min(machines) < 0 or max(machines) >= num_machines:
            return False
    if weights and (min(weights) < 0 or max(weights) > MAX_WEIGHT):
        return False
    return ordered or len(set(map(add, map(mul, jobs, repeat(num_machines)), machines))) == len(jobs)


def _bulk_columns(num_jobs: int, num_machines: int, edges):
    """The columns ``(jobs, machines, weights or None)`` of ``edges``, checked
    in bulk as :class:`BipartiteInstance` describes, or ``None`` for the loop."""
    if not edges or type(edges) not in (list, tuple):
        return None
    if not {tuple, list}.issuperset(map(type, edges)):
        return None
    sizes = set(map(len, edges))
    if sizes not in ({2}, {3}):
        return None
    columns = [list(map(itemgetter(k), edges)) for k in range(sizes.pop())]
    if any(set(map(type, column)) != {int} for column in columns):
        return None
    jobs, machines, *weights = columns
    weights = weights[0] if weights else None
    if not _columns_ok(num_jobs, num_machines, jobs, machines, weights):
        return None
    return jobs, machines, weights


def _checked_cost(value: int) -> int:
    if value > MAX_COST:
        raise CostOverflowError(f"cost {value} exceeds the 64-bit accumulator")
    return value


class BipartiteInstance:
    """An immutable bipartite instance: jobs, machines and weighted edges.

    Edges are given as ``(job, machine)`` or ``(job, machine, weight)``
    tuples; missing weights default to 1.  Ids and weights must be
    integers (anything :func:`operator.index` accepts); duplicate edges
    are rejected, as are out-of-range ids and weights outside
    ``[0, 2**31)``, each with a ``ValueError`` naming the field.  A job
    with no edge can never be assigned, so such instances are rejected
    up front with :class:`InfeasibleInstanceError`, before anything is
    allocated per job.  Machines with no edges are legal; they simply
    never receive work.

    A list or tuple whose edges are all 2-tuples or all 3-tuples (or
    lists) with fields of type ``int`` is checked in bulk, one pass per
    column; edges in increasing ``(job, machine)`` order need no set to
    rule out duplicates.  Other input (a generator, ``bool`` or other
    integer-like fields, mixed edge lengths), and input that fails a
    bulk check, is read edge by edge, which names the first bad edge;
    every error keeps its class and message either way.

    The instance stores ``num_edges`` and its adjacency as id tuples in
    compressed-sparse-row form: ``job_machines[u]`` holds job u's
    machines in input order, and ``machine_jobs[v]`` machine v's jobs in
    job order (for constructor input given out of job order, that is
    not the input order, so unit solvers may pick a different optimal
    assignment than one that followed the input).  ``job_weights[u]``
    holds job u's weights in the same order, but is ``None`` when every
    weight is 1.  ``job_adj`` is a view derived on each read, as each
    job's ``(machine, weight)`` pairs in input order.
    """

    __slots__ = (
        "num_jobs", "num_machines", "num_edges", "job_machines", "machine_jobs", "job_weights"
    )

    def __init__(
        self,
        num_jobs: int,
        num_machines: int,
        edges: Iterable[Sequence[int]],
    ) -> None:
        num_jobs = _integer(num_jobs, "job count")
        num_machines = _integer(num_machines, "machine count")
        if num_jobs < 0 or num_machines < 0:
            raise ValueError("vertex counts must be non-negative")
        columns = _bulk_columns(num_jobs, num_machines, edges)
        if columns is not None:
            self._build(num_jobs, num_machines, *columns)
            return
        jobs, machines, weights = [], [], []
        stride = num_machines + 1
        seen: set[int] = set()
        for edge in edges:
            if len(edge) == 2:
                u, v, w = edge[0], edge[1], 1
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise ValueError(f"edge {edge!r} is not a 2- or 3-tuple")
            u = _integer(u, "job id")
            v = _integer(v, "machine id")
            w = _integer(w, "weight")
            if not 0 <= u < num_jobs:
                raise ValueError(f"job id {u} out of range [0, {num_jobs})")
            if not 0 <= v < num_machines:
                raise ValueError(f"machine id {v} out of range [0, {num_machines})")
            if not 0 <= w <= MAX_WEIGHT:
                raise ValueError(f"weight {w} outside [0, 2**31)")
            key = u * stride + v
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            jobs.append(u)
            machines.append(v)
            weights.append(w)
        self._build(num_jobs, num_machines, jobs, machines, weights)

    def _build(self, num_jobs: int, num_machines: int, jobs, machines, weights) -> None:
        """Fill in the instance from its edges, given in input order as
        lists of job ids, machine ids and weights (``None`` for all 1, or
        cut short of trailing 1s) whose ranges and uniqueness the caller
        has checked.  Rejects edgeless jobs, naming the lowest; with fewer
        edges than jobs, before it allocates per job.  ``machine_jobs`` is
        read off ``job_machines`` in one pass, so it lists jobs in job order."""
        if num_jobs > len(jobs):
            hit = set(jobs)
            raise _edgeless("job", next(u for u in count() if u not in hit))
        job_machines: list[list[int]] = [[] for _ in range(num_jobs)]
        for u, v in zip(jobs, machines):
            job_machines[u].append(v)
        if not all(job_machines):
            raise _edgeless("job", job_machines.index([]))
        if weights is None or weights.count(1) == len(weights):
            self.job_weights = None
        else:
            job_weights: list[list[int]] = [[] for _ in range(num_jobs)]
            for u, w in zip(jobs, chain(weights, repeat(1))):
                job_weights[u].append(w)
            self.job_weights = tuple(map(tuple, job_weights))
        machine_jobs: list[list[int]] = [[] for _ in range(num_machines)]
        for u, vs in enumerate(job_machines):
            for v in vs:
                machine_jobs[v].append(u)

        self.num_jobs = num_jobs
        self.num_machines = num_machines
        self.num_edges = len(jobs)
        self.job_machines = tuple(map(tuple, job_machines))
        self.machine_jobs = tuple(map(tuple, machine_jobs))

    def weights(self, u: int) -> tuple[int, ...]:
        """Job u's edge weights, parallel to ``job_machines[u]``."""
        ws = self.job_weights
        return (1,) * len(self.job_machines[u]) if ws is None else ws[u]

    def weight(self, u: int, v: int) -> int:
        """The weight of edge (u, v); ``ValueError`` when there is none."""
        i = self.job_machines[u].index(v)
        return 1 if self.job_weights is None else self.job_weights[u][i]

    @property
    def job_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each job's ``(machine, weight)`` pairs, in input order."""
        return tuple(tuple(zip(vs, self.weights(u))) for u, vs in enumerate(self.job_machines))

    def machine_degree(self, v: int) -> int:
        return len(self.machine_jobs[v])

    def is_unit_weight(self) -> bool:
        return self.job_weights is None

    def __repr__(self) -> str:
        return (
            f"BipartiteInstance(num_jobs={self.num_jobs}, "
            f"num_machines={self.num_machines}, num_edges={self.num_edges})"
        )


@dataclass(frozen=True)
class SemiMatching:
    """An assignment of every job to one machine.

    ``machine_of[u]`` is the machine that job ``u`` runs on.  Construction
    does not validate adjacency; use :func:`validate_semi_matching`.
    """

    machine_of: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine_of", tuple(self.machine_of))

    def machine_loads(self, instance: BipartiteInstance) -> list[list[int]]:
        """Per-machine lists of assigned job weights.

        Raises ``ValueError`` when the matching does not assign exactly
        ``instance.num_jobs`` jobs, and ``KeyError`` naming the first
        job assigned along a non-edge.  Each job's position in its
        adjacency, and from it its weight, is read in one pass over the
        columns."""
        machine_of = self.machine_of
        size = _size_problem(instance, machine_of)
        if size is not None:
            raise ValueError(size)
        job_machines, job_weights = instance.job_machines, instance.job_weights
        try:
            positions = list(map(tuple.index, job_machines, machine_of))
        except ValueError:
            u = next(u for u, (vs, v) in enumerate(zip(job_machines, machine_of)) if v not in vs)
            raise KeyError(f"no edge ({u}, {machine_of[u]})") from None
        weights = repeat(1) if job_weights is None else map(getitem, job_weights, positions)
        loads: list[list[int]] = [[] for _ in range(instance.num_machines)]
        for v, w in zip(machine_of, weights):
            loads[v].append(w)
        return loads

    def degrees(self, num_machines: int) -> list[int]:
        degs = [0] * num_machines
        for v in self.machine_of:
            degs[v] += 1
        return degs


@dataclass(frozen=True)
class Violation:
    """First problem found while validating an assignment."""

    kind: str  # "size" | "unassigned" | "not-an-edge"
    detail: str


def machine_cost(weights: Iterable[int]) -> int:
    """Total completion time of one machine given its assigned weights.

    The multiset is sorted increasingly and weight ``w_i`` (1-based rank
    ``i`` out of ``d``) contributes ``(d - i + 1) * w_i``.  Equivalently:
    the sum of prefix sums, i.e. every job's completion time when the
    machine runs its jobs shortest-first.

    >>> machine_cost([3, 1, 2])
    10
    >>> machine_cost([1, 1, 1])
    6
    """
    total = 0
    elapsed = 0
    for w in sorted(weights):
        elapsed += w
        total += elapsed
        if total > MAX_COST:
            raise CostOverflowError(f"machine cost exceeds 64-bit range")
    return total


def cost_of_semi_matching(instance: BipartiteInstance, matching: SemiMatching) -> int:
    """Total cost of an assignment, summed over machines.

    The matching must be valid for the instance: ``ValueError`` when it
    does not assign exactly ``instance.num_jobs`` jobs, ``KeyError``
    naming the first job assigned along a non-edge (see
    :meth:`SemiMatching.machine_loads`).  On a unit instance, once one
    pass has checked every job's machine against its adjacency, the cost
    is read off the degree vector: a machine of load ``d`` costs
    ``d*(d+1)/2``.
    """
    machine_of = matching.machine_of
    if (
        instance.job_weights is None
        and len(machine_of) == instance.num_jobs
        and all(map(contains, instance.job_machines, machine_of))
    ):
        degrees = matching.degrees(instance.num_machines)
        return _checked_cost(sum(d * (d + 1) // 2 for d in degrees))
    return _checked_cost(
        sum(machine_cost(ws) for ws in matching.machine_loads(instance))
    )


def _size_problem(instance: BipartiteInstance, machine_of) -> Optional[str]:
    """What is wrong with the number of assignments, if anything."""
    if len(machine_of) != instance.num_jobs:
        return f"expected {instance.num_jobs} assignments, got {len(machine_of)}"
    return None


def validate_semi_matching(
    instance: BipartiteInstance, matching: SemiMatching
) -> Optional[Violation]:
    """Check an assignment against an instance.

    Returns ``None`` when the assignment is a valid semi-matching, else a
    :class:`Violation` describing the first problem found: wrong number of
    assignments, a job without a machine, or a job assigned along a
    non-existent edge.  One pass checks adjacency; the jobs are walked
    one at a time only to name the first violation.
    """
    size = _size_problem(instance, matching.machine_of)
    if size is not None:
        return Violation("size", size)
    if all(map(contains, instance.job_machines, matching.machine_of)):
        return None
    for u, v in enumerate(matching.machine_of):
        if v is None or not 0 <= v < instance.num_machines:
            return Violation("unassigned", f"job {u} has no machine (got {v!r})")
        if v not in instance.job_machines[u]:
            return Violation("not-an-edge", f"({u}, {v}) is not an edge")
    return None


class ConvexMachineCost:
    """Per-machine convex cost functions, stored as marginal sequences.

    For machine ``v`` the cost of carrying ``k`` jobs is
    ``f_v(k) = marginals[v][0] + ... + marginals[v][k-1]`` with
    ``f_v(0) = 0``.  Convexity means each marginal sequence is
    non-decreasing; this is validated at construction, as is
    non-negativity (the solvers require non-negative costs).

    Only the first ``deg(v)`` marginals of a machine can ever be used, so
    that is all that is stored.  Marginals must be integers; a machine
    past the end of the table has none.
    """

    __slots__ = ("marginals",)

    def __init__(self, marginals: Sequence[Sequence[int]]) -> None:
        checked = []
        for v, seq in enumerate(marginals):
            seq = tuple(_integer(x, f"machine {v}: marginal") for x in seq)
            if any(x < 0 for x in seq):
                raise ValueError(f"machine {v}: negative marginal in {seq}")
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise ValueError(
                    f"machine {v}: marginals {seq} are not non-decreasing "
                    "(cost function is not convex)"
                )
            checked.append(seq)
        self.marginals = tuple(checked)

    @classmethod
    def from_callable(
        cls, instance: BipartiteInstance, f: Callable[[int], int]
    ) -> "ConvexMachineCost":
        """Build marginals ``f(i) - f(i-1)`` for every machine, ``f(0)`` must be 0."""
        if f(0) != 0:
            raise ValueError("cost function must satisfy f(0) == 0")
        margs = []
        for v in range(instance.num_machines):
            deg = instance.machine_degree(v)
            margs.append([f(i) - f(i - 1) for i in range(1, deg + 1)])
        return cls(margs)

    @classmethod
    def triangular(cls, instance: BipartiteInstance) -> "ConvexMachineCost":
        """f(k) = k*(k+1)/2 -- the unit-weight completion-time objective."""
        return cls.from_callable(instance, lambda k: k * (k + 1) // 2)

    @classmethod
    def quadratic(cls, instance: BipartiteInstance) -> "ConvexMachineCost":
        """f(k) = k**2."""
        return cls.from_callable(instance, lambda k: k * k)

    @classmethod
    def linear(cls, instance: BipartiteInstance) -> "ConvexMachineCost":
        """f(k) = k; every assignment then costs exactly num_jobs."""
        return cls.from_callable(instance, lambda k: k)

    def prefix(self, v: int, k: int) -> tuple[int, ...]:
        """Machine v's k cheapest marginals; ``ValueError`` when it has fewer."""
        seq = self.marginals[v] if v < len(self.marginals) else ()
        if len(seq) < k:
            raise ValueError(f"machine {v}: {len(seq)} marginals but degree {k}")
        return seq[:k]

    def value(self, v: int, k: int) -> int:
        """f_v(k) = sum of the k cheapest marginals of machine v."""
        return sum(self.prefix(v, k))


def convex_cost(
    instance: BipartiteInstance, matching: SemiMatching, costs: ConvexMachineCost
) -> int:
    """Sum of f_v(deg_M(v)) over machines for a valid assignment."""
    degs = matching.degrees(instance.num_machines)
    return _checked_cost(sum(costs.value(v, d) for v, d in enumerate(degs)))
