"""The benchmark's workloads: seeded generators, instance pools, references.

Every workload owns a fixed pool of ``POOL_SIZE`` instances.  Instance
``i`` of a workload is generated from ``Random("<name>:<i>")``, so it is
the same on every machine, and its optimal cost is committed in
``references.json`` (regenerate with ``python3 perfbench/references.py``).
A run's ``--seed`` picks which pool instances it solves and in which
order; the program under test only ever sees the generated text.

Why each workload exists is documented in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Callable, Union

from semimatch.core import BipartiteInstance
from semimatch.cover import GeneralGraph
from semimatch.formats import emit_instance
from semimatch.generate import gen_random, gen_random_graph

POOL_SIZE = 16
REFERENCES_PATH = Path(__file__).with_name("references.json")

Instance = Union[BipartiteInstance, GeneralGraph]


def gen_weighted_uniform(
    rng: Random, jobs: int = 400, machines: int = 100, edges: int = 4000
) -> BipartiteInstance:
    """Uniform random edges, weights uniform in 1..10^6."""
    return gen_random(rng, jobs, machines, num_edges=edges, min_weight=1, max_weight=10**6)


def gen_weighted_skewed(rng: Random, jobs: int = 400, machines: int = 4) -> BipartiteInstance:
    """Every job joined to every machine, weights uniform in 0..100."""
    return gen_random(rng, jobs, machines, edge_prob=1.0, min_weight=0, max_weight=100)


def gen_unit_zipf(
    rng: Random, jobs: int = 10_000, machines: int = 1000, draws: int = 10
) -> BipartiteInstance:
    """Unit jobs that each draw ``draws`` machines, with replacement, from
    a Zipf(1) popularity law over a random ranking of the machines;
    repeated draws collapse, so a job has at most ``draws`` edges."""
    ranking = list(range(machines))
    rng.shuffle(ranking)
    cum = list(accumulate(1.0 / k for k in range(1, machines + 1)))
    edges = []
    for u in range(jobs):
        for v in sorted(set(rng.choices(ranking, cum_weights=cum, k=draws))):
            edges.append((u, v))
    return BipartiteInstance(jobs, machines, edges)


def gen_cover_sparse(rng: Random, vertices: int = 2000, edge_prob: float = 0.001) -> GeneralGraph:
    """Sparse G(n, p) graph with isolated vertices attached to a random one."""
    return GeneralGraph(*gen_random_graph(rng, vertices, edge_prob))


@dataclass(frozen=True)
class Workload:
    """One named workload: what it generates and how it is solved.

    ``kind`` selects the pipeline: ``weighted`` runs ``solve_weighted``,
    ``unit`` runs ``solve_unweighted`` and ``cover`` runs ``find_center``.
    ``per_run`` is how many distinct pool instances one run generates;
    the timed loop cycles through them until its time is used up.
    ``warmup`` is the generator size of the small untimed instance a run
    solves first.
    """

    name: str
    kind: str
    generate: Callable[..., Instance]
    per_run: int
    warmup: dict

    def instance(self, index: int, **size) -> Instance:
        """Pool instance ``index``; ``size`` overrides the generator's
        default size (for the warm-up and the tests' small twins)."""
        return self.generate(Random(f"{self.name}:{index}"), **size)

    def text(self, index: int, **size) -> str:
        return emit_instance(self.instance(index, **size))

    def pick(self, seed: int) -> list[int]:
        """The pool indices a run with this seed solves, in order."""
        return Random(seed).sample(range(POOL_SIZE), self.per_run)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("weighted-uniform", "weighted", gen_weighted_uniform, 8,
                 warmup=dict(jobs=40, machines=10, edges=400)),
        Workload("weighted-skewed", "weighted", gen_weighted_skewed, 8,
                 warmup=dict(jobs=40)),
        Workload("unit-zipf", "unit", gen_unit_zipf, 6,
                 warmup=dict(jobs=1000, machines=100)),
        Workload("cover-sparse", "cover", gen_cover_sparse, 6,
                 warmup=dict(vertices=200, edge_prob=0.01)),
    )
}


def load_references() -> dict[str, list[int]]:
    """Committed optimal cost of every pool instance, per workload."""
    data = json.loads(REFERENCES_PATH.read_text())
    return {name: entry["costs"] for name, entry in data["workloads"].items()}
