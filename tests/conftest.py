"""Shared fixtures and the running example instance."""

import importlib.util
import math
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from semimatch.core import BipartiteInstance


@pytest.fixture
def pool_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded from the file: the benchmark's
    seeded generators and their instance pools."""
    spec = importlib.util.spec_from_file_location(
        "pool_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads


@contextmanager
def deadline(seconds, what):
    """Fail with an AssertionError, instead of hanging the suite, when the
    block runs longer than ``seconds``; ``what`` names the block."""

    def stuck(signum, frame):
        raise AssertionError(f"{what} did not terminate")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fig2_instance(weights=None):
    """The 4-job/2-machine example used across the test suite.

    Jobs 0..3, machines 0..1, edges (0,0), (1,0), (1,1), (2,1), (3,1).
    Machine 0 sees two jobs, machine 1 three; job 1 is the only one with
    a choice, so exactly two assignments exist (costs 6 and 7).
    """
    edges = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]
    if weights is not None:
        edges = [(u, v, w) for (u, v), w in zip(edges, weights)]
    return BipartiteInstance(4, 2, edges)


def live_center_count(network, seed):
    """Number of cost centers at or below the costliest one ``seed`` uses.

    ``seed`` is the assignment loaded by ``seed_flow``; each machine's
    units fill its cheapest slots, so its costliest used center is the
    one its ``load``-th slot feeds.  ``cancel_all`` recurses over these
    centers only.
    """
    loads = seed.degrees(network.num_machines)
    return 1 + max((network._rank[v][k - 1] for v, k in enumerate(loads) if k), default=-1)


def assert_cancel_bounds(counters, num_jobs, live):
    """Assert the cancellation bounds the README claims for one solve of
    ``num_jobs`` jobs over ``live`` live centers: each call takes at most
    2*ceil(sqrt(U)) + 5 blocking-flow rounds with strictly increasing
    layer distances, and divide and conquer makes at most T - 1 calls
    to depth at most ceil(log2(T)) + 1.  Returns the largest ratio of
    rounds to their cap."""
    round_cap = 2 * math.isqrt(num_jobs - 1) + 2 + 5  # 2*ceil(sqrt(U)) + 5
    for rounds in counters.rounds_per_cancel:
        assert rounds <= round_cap, f"{rounds} rounds > cap {round_cap}"
    for dists in counters.distances_per_cancel:
        assert all(a < b for a, b in zip(dists, dists[1:])), (
            f"distances not strictly increasing: {dists}"
        )
    assert len(counters.rounds_per_cancel) <= live - 1
    depth_cap = math.ceil(math.log2(live)) + 1 if live > 1 else 1
    assert counters.max_depth <= depth_cap, f"depth {counters.max_depth} > cap {depth_cap}"
    return max((r / round_cap for r in counters.rounds_per_cancel), default=0.0)
