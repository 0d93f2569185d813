"""One workload in a fresh process: set up, warm up, then timed repetitions.

run.py starts this script with BLAS and OpenMP pinned to one thread and reads
the JSON object it prints last.  The set-up clock starts after numpy and
scipy are imported; it covers importing sphereframes, building the inputs and
one untimed warm-up repetition.  Repetitions then run until ``--window``
seconds have passed (at least one).  With ``--trace 1`` the window is split:
untraced repetitions first, then the same repetitions with every traced
function wrapped, which yields the per-layer metrics and the spans file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

import numpy  # noqa: F401  (imported before the set-up clock starts)
import scipy  # noqa: F401

import spans
from workloads import WORKLOADS


def repetition(steps, tracer=None):
    """Run every step once; returns (seconds, outputs, failed steps)."""
    outputs, failed = {}, 0
    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    for key, step in steps:
        try:
            outputs[key] = step()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            print(f"operation {key} failed: {exc!r}", file=sys.stderr)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    return seconds, outputs, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sf = importlib.import_module("sphereframes")
    importlib.import_module("sphereframes.cli")
    workload = WORKLOADS[args.workload](sf, args.seed, args.out)
    steps = workload.steps()
    _, outputs, failed = repetition(steps)
    setup_s = time.perf_counter() - start

    problems = list(getattr(workload, "check_inputs", list)())
    problems += workload.check(outputs)
    attempted = len(steps)
    del outputs

    def timed(window, tracer=None):
        nonlocal attempted, failed
        walls, layers, first_spans = [], [], None
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < window:
            seconds, outputs, bad = repetition(steps, tracer)
            walls.append(seconds)
            attempted += len(steps)
            failed += bad
            problems.extend(workload.check(outputs))
            del outputs
            if tracer is not None:
                metrics, recorded = tracer.take()
                layers.append(metrics)
                first_spans = first_spans or recorded
        return walls, layers, first_spans

    result = {"setup_s": setup_s}
    if args.trace:
        result["walls"], _, _ = timed(args.window / 2)
        tracer = spans.Tracer()
        tracer.install()
        result["traced"], result["layers"], recorded = timed(args.window / 2, tracer)
        if args.spans:
            write_spans(args.spans, recorded)
    else:
        result["walls"], _, _ = timed(args.window)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=attempted, failed=failed, problems=problems)
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


def write_spans(path, recorded):
    """Spans of the first traced repetition, times relative to its first span."""
    origin = recorded[0][2] if recorded else 0.0
    doc = [
        {"id": i, "parent": parent, "name": name, "start": t0 - origin, "end": t1 - origin}
        for i, (name, parent, t0, t1) in enumerate(recorded)
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
