"""Steadiness check: two sets of runs per workload, compared against the bounds.

    python3 perfbench/steady.py

Runs ``perfbench/run.py`` (untraced) RUNS times per workload of BENCHMARK.json
in each of SETS sets, each run with its own seed (set s, run i uses seed
s * RUNS + i + 1), for the ``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and the shift of the second median from the first, counted
positive when the metric gets worse.  A metric agrees when every spread and
the absolute shift stay within its bound, every run is correct, and the
failed share of operations is the same in every run.  The raw runs go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def compare(spec, sets) -> list[dict]:
    """One row per (workload, metric) with per-set stats and the verdict."""
    rows = []
    for workload, runs in sets.items():
        shares = {r["failed"] / r["attempted"] for s in runs for r in s}
        correct = all(r["correct"] for s in runs for r in s)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [stats([r["metrics"][name]["value"] for r in s]) for s in runs]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            shift = sign * (per_set[-1]["median"] / per_set[0]["median"] - 1.0)
            spreads_ok = all(p["spread"] <= bound for p in per_set)
            rows.append({
                "workload": workload,
                "metric": name,
                "bound": bound,
                "sets": per_set,
                "shift": shift,
                "agree": spreads_ok and abs(shift) <= bound and len(shares) == 1 and correct,
            })
    return rows


def table(rows) -> str:
    lines = [
        "| workload | metric | bound | set | median | q1 | q3 | spread | shift | agree |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        for i, p in enumerate(row["sets"]):
            tail = " | "
            if i == len(row["sets"]) - 1:
                tail = f"{row['shift']:+.3f} | {'yes' if row['agree'] else 'NO'}"
            lines.append(
                f"| {row['workload']} | {row['metric']} | {row['bound']} | {i + 1} "
                f"| {p['median']:.4g} | {p['q1']:.4g} | {p['q3']:.4g} "
                f"| {p['spread']:.3f} | {tail} |"
            )
    return "\n".join(lines)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(RUNS):
                seed = s * RUNS + i + 1
                runs.append(run_once(w, seed, spec["run_seconds"]))
                print(f"set {s + 1} {w} seed {seed}: "
                      + json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}),
                      file=sys.stderr, flush=True)
            sets[w].append(runs)
    rows = compare(spec, sets)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"runs": sets, "rows": rows}, fh, indent=1)
    print(table(rows))
    return 0 if all(r["agree"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
