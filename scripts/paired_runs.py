"""Compare two checkouts on one benchmark workload by paired runs.

Usage, from anywhere::

    python3 scripts/paired_runs.py PARENT CHANGE --workload unit-zipf --pairs 10 --seconds 25 --seed 700

``PARENT`` and ``CHANGE`` are checkout directories, each with its own
``perfbench/`` and ``src/``.  Pair ``i`` runs ``perfbench/run.py``
(untraced) once in each checkout with seed ``--seed + i``; even pairs
run the parent first, odd pairs the change.  Each run's end-to-end
metrics are printed as they arrive.  Then, for every end-to-end metric
that the change's ``BENCHMARK.json`` lists, one line gives each side's
median and quartiles, the ratio of the medians (change over parent),
and the pairs the change won, ties counting for neither side.  A gain
is marked ``claim: yes`` only when the change wins at least nine tenths
of the pairs and the medians differ by more than the distance between
the parent's quartiles.  A run that fails an instance is reported, and
its metrics still count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``workload`` in ``checkout``: its result line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def summary(name: str, better: str, parent: list[float], change: list[float]) -> str:
    """One metric's line: both sides' medians and quartiles, and the pairs won."""
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    pm, cm = median(parent), median(change)
    claim = wins * 10 >= 9 * len(parent) and sign * (cm - pm) > p3 - p1
    ratio = f"{cm / pm:.4f}" if pm else "n/a"
    return (
        f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
        f"ratio {ratio}  change better in {wins}/{len(parent)} pairs  "
        f"claim: {'yes' if claim else 'no'}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            got = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            for name, value in got.items():
                values[side].setdefault(name, []).append(value)
            shown = "  ".join(f"{name}={value:.6g}" for name, value in got.items())
            print(f"pair {i + 1} seed {seed} {side}: attempted={result['attempted']} "
                  f"failed={result['failed']}  {shown}", flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}; median [quartiles]:")
    for m in metrics:
        name = m["name"]
        print(summary(name, m["better"], values["parent"][name], values["change"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
