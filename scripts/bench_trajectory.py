"""Record one benchmark run per workload as ``BENCH_<workload>.json``.

Usage, from anywhere::

    python3 scripts/bench_trajectory.py --seed 1 --seconds 25

Runs every workload that ``BENCHMARK.json`` lists, one after another,
through ``perfbench/run.py`` with the given ``--seed`` and ``--seconds``
(untraced), and writes ``BENCH_<workload>.json`` at the root of the
repository.  Each file holds the command that produced it and the run's
two JSON lines: the environment (``env``) and the result (``result``,
with ``correct``, ``attempted``, ``failed`` and ``metrics``).  Commit the
files with the change they measure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str, seed: int, seconds: float) -> dict:
    command = [
        "python3", "perfbench/run.py",
        "--workload", name, "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    out = subprocess.run(
        [sys.executable, *command[1:]], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    env_line, result_line = out.strip().splitlines()[-2:]
    return {
        "command": command,
        "env": json.loads(env_line)["env"],
        "result": json.loads(result_line),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for name in workloads:
        record = run_workload(name, args.seed, args.seconds)
        path = ROOT / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        e2e = record["result"]["metrics"]["e2e_s_p50"]["value"]
        print(f"{path.name}: correct={record['result']['correct']} e2e_s_p50={e2e:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
