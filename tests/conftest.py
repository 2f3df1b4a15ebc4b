"""Shared fixtures and the running example instance."""

import signal
from contextlib import contextmanager

from semimatch.core import BipartiteInstance


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
    units fill its cheapest marginals, so its costliest used center has
    the value of its ``load``-th marginal.  ``seed_flow`` builds slot
    edges into these centers only, and ``cancel_all`` recurses over them.
    """
    loads = seed.degrees(network.num_machines)
    top = max((network._marginals[v][k - 1] for v, k in enumerate(loads) if k), default=None)
    if top is None:
        return 0
    return sum(1 for val in network.center_values if val <= top)
