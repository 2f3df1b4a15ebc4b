"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload weighted-uniform --seed 1 --seconds 20 --trace 0

Everything runs serially in this one process: no worker pool, no
subprocess, no CLI start-up.  ``--seed`` picks the run's instances from
the workload's committed pool; each instance is solved end to end (see
``pipeline.py``) and checked against its committed reference cost.  The
loop cycles through the run's instances until ``--seconds`` have
passed, and always finishes the instance it started.

Times are reported in reference seconds: each instance's wall-clock
times are scaled by the machine-speed gauge read around it (see
``gauge.py``), so that neighbours slowing a shared machine down do not
show up as a change in the code.  The wall-clock medians are printed
too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates an untraced and a traced solve of each
instance and reports the per-layer metrics, the traced e2e time and the
tracing overhead (traced minus untraced median e2e); its spans are
written to ``perfbench/out/``.  Human-readable lines come first.  The
last two lines of standard output are JSON objects: ``{"env": ...}``
(Python version, ``nproc``, CPU model and seed), then the result, with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import traceback
from statistics import median, quantiles
from time import perf_counter


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


SETUP_ROUNDS = 15
FRESH_MODULES = ("semimatch", "pipeline", "workloads")


def fresh_import() -> float:
    """Import the benchmark's modules, and semimatch with them, as if for
    the first time in this process; return how long that took."""
    for name in [m for m in sys.modules if m.split(".", 1)[0] in FRESH_MODULES]:
        del sys.modules[name]
    start = perf_counter()
    for name in FRESH_MODULES[1:]:
        importlib.import_module(name)
    return perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import checkout
    from gauge import REFERENCE_S, Gauge

    checkout.use_checkout_source()
    gauge = Gauge()

    # Set-up: import semimatch afresh SETUP_ROUNDS times, then generate
    # and emit each of the run's instances.  setup_s is the median
    # import time plus the median generation time.  The first import of
    # a fresh checkout also compiles the .pyc files; the median leaves
    # that out.  Each step is put on the reference scale by the gauge
    # readings just before and after it.
    imports, imports_ref = [], []
    for _ in range(SETUP_ROUNDS):
        imports.append(fresh_import())
        imports_ref.append(gauge.bracketed(imports[-1]))
    import pipeline
    import workloads

    checkout.check_imported_from_checkout()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    picks = workload.pick(args.seed)
    texts, generations, generations_ref = [], [], []
    for index in picks:
        t = perf_counter()
        texts.append(workload.text(index))
        generations.append(perf_counter() - t)
        generations_ref.append(gauge.bracketed(generations[-1]))
    setup_raw = median(imports) + median(generations)
    setup_s = median(imports_ref) + median(generations_ref)

    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    references = workloads.load_references()[workload.name]
    env = environment(args.seed)
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}"
    )

    # Warm-up on a small instance of the same kind, not timed.
    pipeline.run_instance(workload.kind, workload.text(-1, **workload.warmup), None)

    loop = Loop(pipeline, workload, picks, texts, references, gauge)
    if args.trace:
        wanted = spec["per_layer"]
        times = {m["name"] for m in wanted if m["unit"] in ("s", "us")}
        metrics = loop.traced(args.seconds, times, args.seed, env)
    else:
        wanted = spec["end_to_end"]
        metrics = loop.timed(args.seconds)
        if metrics is not None:
            metrics["setup_s"] = setup_s
            print(f"setup_s wall clock = {setup_raw:.6g} s")
    gauge_ms = sorted(r * 1e3 for r in gauge.readings)
    print(f"gauge: {len(gauge_ms)} readings, median {median(gauge_ms):.4g} ms, "
          f"range {gauge_ms[0]:.4g}-{gauge_ms[-1]:.4g} ms (reference {REFERENCE_S * 1e3:g} ms)")
    if metrics is None:
        print("perfbench: no instance completed, nothing to report", file=sys.stderr)
        return 1
    names = {m["name"] for m in wanted}
    if names != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in out.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    # The result line's keys are fixed; the environment goes on the line before it.
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": out,
    }))
    return 0


class Loop:
    """The run's instances, attempted in turn until time is up.

    Every attempt is marked on the gauge first, so that its times can be
    put on the reference scale afterwards (see ``gauge.py``).
    """

    def __init__(self, pipeline, workload, picks, texts, references, gauge) -> None:
        self.pipeline = pipeline
        self.kind = workload.kind
        self.name = workload.name
        self.picks = picks
        self.texts = texts
        self.references = references
        self.gauge = gauge
        self.attempted = self.failed = 0

    def attempt(self, k: int, **trace) -> tuple[int, int, int] | None:
        """Instance ``k`` of the run end to end: ``(mark, e2e_ns, solve_ns)``,
        or None after printing why it failed."""
        mark = self.gauge.tick()
        self.attempted += 1
        try:
            e2e_ns, solve_ns = self.pipeline.run_instance(
                self.kind, self.texts[k], self.references[self.picks[k]], **trace
            )
        except Exception:  # a failed instance is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        return mark, e2e_ns, solve_ns

    def report_failures(self) -> None:
        print(f"instances: {len(self.picks)} distinct (pool {self.picks}), "
              f"{self.attempted} attempted, {self.failed} failed, "
              f"fail_ratio = {self.failed / self.attempted:.6g} ratio")

    def timed(self, seconds: float) -> dict | None:
        done = []
        deadline = perf_counter() + seconds
        while True:
            result = self.attempt(self.attempted % len(self.picks))
            if result is not None:
                done.append(result)
            if perf_counter() >= deadline:
                break
        self.report_failures()
        if not done:
            return None
        factors = self.gauge.factors([mark for mark, _, _ in done])
        e2e = [ns / 1e9 * f for (_, ns, _), f in zip(done, factors)]
        solve = [ns / 1e9 * f for (_, _, ns), f in zip(done, factors)]
        print(f"e2e_s_p50 wall clock = {median(ns / 1e9 for _, ns, _ in done):.6g} s")
        if len(e2e) >= 100:
            p90 = quantiles(e2e, n=10)[-1]
            beyond = sum(1 for x in e2e if x > p90)
            print(f"e2e_s_p90 = {p90:.6g} s ({len(e2e)} samples, {beyond} beyond p90)")
        else:
            print(f"e2e_s_p90 not reported: {len(e2e)} samples, fewer than 10 beyond p90")
        return {
            "e2e_s_p50": median(e2e),
            "solve_s_p50": median(solve),
            "instances_per_s": len(e2e) / sum(e2e),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, seconds: float, times: set[str], seed: int, env: dict) -> dict | None:
        """Alternate an untraced and a traced solve of each instance."""
        tracer = self.pipeline.Tracer()
        untraced, traced = [], []
        deadline = perf_counter() + seconds
        while True:
            k = (self.attempted // 2) % len(self.picks)
            result = self.attempt(k)
            if result is not None:
                untraced.append(result)
            first, obs = len(tracer.spans), {}
            tracer.instance = self.attempted // 2
            result = self.attempt(k, tracer=tracer, observed=obs)
            if result is not None:
                traced.append((result[0], self.pipeline.layer_metrics(tracer.spans[first:], first, obs)))
            if perf_counter() >= deadline:
                break
        self.report_failures()
        self.write_spans(tracer, seed, env)
        if not traced or not untraced:
            return None
        factors = self.gauge.factors([mark for mark, _, _ in untraced] + [mark for mark, _ in traced])
        untraced_e2e = [ns / 1e9 * f for (_, ns, _), f in zip(untraced, factors)]
        per_instance = []
        for (_, metrics), f in zip(traced, factors[len(untraced):]):
            per_instance.append({k: v * f if k in times else v for k, v in metrics.items()})
        out = {name: median(m[name] for m in per_instance) for name in per_instance[0]}
        out["trace.overhead_s"] = out["trace.e2e_s"] - median(untraced_e2e)
        return out

    def write_spans(self, tracer, seed: int, env: dict) -> None:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{self.name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": self.name, "env": env,
                       "fields": ["name", "start_ns", "end_ns", "parent", "instance"],
                       "spans": tracer.spans}, fh)
        print(f"spans: {len(tracer.spans)} (wall-clock ns) written to {os.path.relpath(path)}")


if __name__ == "__main__":
    sys.exit(main())
