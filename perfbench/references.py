"""Regenerate ``references.json``: the optimal cost of every pool instance.

    python3 perfbench/references.py [WORKLOAD ...]

Weighted pools are solved by ``baseline_exploded_solver``, which shares
no code with ``solve_weighted`` (6-8 s an instance), and the script
stops if ``solve_weighted`` disagrees.  No independent solver finishes
at the ``unit-zipf`` and ``cover-sparse`` sizes: the baseline did not
finish even a 2000-job Zipf instance in 300 s, and the cover brute force
is exponential.  Their references are therefore the costs that
``solve_unweighted`` and ``find_center`` give at the commit that wrote
the file; the tests check the same generators against brute force at
small sizes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import checkout

checkout.use_checkout_source()

from semimatch.core import cost_of_semi_matching  # noqa: E402
from semimatch.cover import find_center  # noqa: E402
from semimatch.unweighted import solve_unweighted  # noqa: E402
from semimatch.weighted import baseline_exploded_solver, solve_weighted  # noqa: E402

from workloads import POOL_SIZE, REFERENCES_PATH, WORKLOADS  # noqa: E402

SOURCES = {
    "weighted": "baseline_exploded_solver, an independent solver; solve_weighted agrees",
    "unit": "solve_unweighted when the file was written; no independent solver finishes at this size "
            "(baseline_exploded_solver did not finish a 2000-job Zipf instance in 300 s)",
    "cover": "find_center when the file was written; no independent solver finishes at this size "
             "(the brute-force cover oracle is exponential in the edge count)",
}


def reference_cost(kind: str, instance) -> int:
    if kind == "cover":
        return find_center(instance).balanced_cost()
    if kind == "unit":
        return cost_of_semi_matching(instance, solve_unweighted(instance))
    cost = cost_of_semi_matching(instance, baseline_exploded_solver(instance))
    fast = cost_of_semi_matching(instance, solve_weighted(instance))
    if fast != cost:
        raise SystemExit(f"solve_weighted gives {fast}, the baseline {cost}")
    return cost


def main(names: list[str]) -> None:
    data = (
        json.loads(REFERENCES_PATH.read_text())
        if REFERENCES_PATH.exists()
        else {"pool_size": POOL_SIZE, "workloads": {}}
    )
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        costs = []
        for index in range(POOL_SIZE):
            started = perf_counter()
            costs.append(reference_cost(workload.kind, workload.instance(index)))
            print(f"{name} {index}: {costs[-1]} ({perf_counter() - started:.1f} s)", flush=True)
        data["workloads"][name] = {"source": SOURCES[workload.kind], "costs": costs}
        REFERENCES_PATH.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
