"""Benchmark entry point: one workload, run in fresh single-threaded processes.

    python3 perfbench/run.py --workload certify-s2 --seed 1 --seconds 24 --trace 0

Run from the repository root.  The workload runs in PROCESSES fresh worker
processes one after another, each importing sphereframes from ``src/`` with
BLAS and OpenMP pinned to one thread.  Each worker sets up once and measures
for its share of ``--seconds``.  The last line of standard output is one JSON
object: ``correct`` (false when a check or a step fails), ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are ``wall_s``
(median repetition, pooled over the workers), ``setup_s`` and ``peak_rss_mb``
(medians over the workers); with ``--trace 1`` they are the per-layer metrics
of traced repetitions, and the first traced repetition's spans go to
``perfbench/out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PROCESSES = 3  # set-ups per run, so setup_s is a median
TIME_LIMIT_S = 170
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_workers(args) -> list[dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    results = []
    for i in range(PROCESSES):
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--window", repr(args.seconds / PROCESSES),
            "--trace", str(args.trace),
            "--out", os.path.join(OUT, f"{args.workload}-{os.getpid()}-{i}"),
        ]
        if args.trace and i == 0:
            cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}.json")]
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker {i} exited {proc.returncode}")
        results.append(json.loads(lines[-1]))
    return results


def summarise(results, trace: bool) -> dict:
    median = statistics.median
    pooled = [w for r in results for w in r["walls"]]
    if not trace:
        metrics = {
            "wall_s": (median(pooled), "s"),
            "setup_s": (median(r["setup_s"] for r in results), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in results), "MB"),
        }
    else:
        layers = [m for r in results for m in r["layers"]]
        traced = [w for r in results for w in r["traced"]]
        metrics = {}
        for name in spans.layer_metric_names():
            if name == "trace.overhead_s":
                value = median(traced) - median(pooled)
            else:
                value = median(m[name] for m in layers)
            metrics[name] = (value, spans.layer_unit(name)[0])
    problems = [p for r in results for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    return {
        # a failed step leaves no output to check
        "correct": not problems and not failed,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "sphereframes", "__init__.py")):
        print(f"no sphereframes sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        results = run_workers(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarise(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
