"""Optimal semi-matchings on bipartite graphs, and balanced edge covers.

Every job is assigned to one adjacent machine so that the total
(weighted) completion time over all machines is minimum.  Three solvers
cover the regimes:

* :func:`solve_unweighted` — unit jobs, via repeated cost-cancelling
  blocking flows on a cost-center network (also :func:`solve_convex`
  for arbitrary convex per-machine load costs);
* :func:`solve_weighted` — arbitrary job weights, successive shortest
  paths over an implicit "exploded" graph with grouped edge relaxation
  through a kinetic lower-envelope heap;
* :func:`find_center` — balanced edge covers of general graphs, reduced
  to one unweighted semi-matching.

The toolkit half (text formats, generators, brute-force oracles, bench
harness, CLI) lives in :mod:`semimatch.formats`, :mod:`semimatch.generate`,
:mod:`semimatch.oracle`, :mod:`semimatch.bench`, and :mod:`semimatch.cli`.
"""

from .core import (
    BipartiteInstance,
    ConvexMachineCost,
    CostOverflowError,
    InfeasibleInstanceError,
    SemiMatchError,
    SemiMatching,
    Violation,
    cost_of_semi_matching,
    machine_cost,
    validate_semi_matching,
)
from .cover import (
    EdgeCover,
    GeneralGraph,
    Levelling,
    find_center,
    levelling,
    maximum_matching_general,
    minimum_edge_cover,
)
from .envelope import EnvelopeHeap
from .formats import (
    ParseError,
    emit_assignment,
    emit_instance,
    parse_assignment,
    parse_instance,
)
from .generate import gen_random, gen_random_graph
from .oracle import (
    brute_force_balanced_cover,
    brute_force_semi_matching,
)
from .unweighted import CancelCounters, solve_convex, solve_unweighted
from .weighted import (
    WeightedStats,
    baseline_exploded_solver,
    solve_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteInstance",
    "CancelCounters",
    "ConvexMachineCost",
    "CostOverflowError",
    "EdgeCover",
    "EnvelopeHeap",
    "GeneralGraph",
    "InfeasibleInstanceError",
    "Levelling",
    "ParseError",
    "SemiMatchError",
    "SemiMatching",
    "Violation",
    "WeightedStats",
    "__version__",
    "baseline_exploded_solver",
    "brute_force_balanced_cover",
    "brute_force_semi_matching",
    "cost_of_semi_matching",
    "emit_assignment",
    "emit_instance",
    "find_center",
    "gen_random",
    "gen_random_graph",
    "levelling",
    "machine_cost",
    "maximum_matching_general",
    "minimum_edge_cover",
    "parse_assignment",
    "parse_instance",
    "solve_convex",
    "solve_unweighted",
    "solve_weighted",
    "validate_semi_matching",
]
