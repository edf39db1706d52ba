"""Steadiness report: quartiles of every end-to-end metric across seeds,
and an agreement check between two sets of runs of the same commit.

From the root of a checkout::

    python3 perfbench/steadiness.py --seeds 10

It makes two sets of runs.  Each set runs every workload once per seed
(seeds 1 .. ``--seeds``) for ``run_seconds`` from ``BENCHMARK.json``.
For each workload and metric it prints the quartiles, the spread
(interquartile range over the median) of each set against the metric's
bound, and how far the second set's median moved in the metric's worse
direction.  A metric whose
spread exceeds its bound is reported as unresolved: a change of that
size could not be told from noise.  ``setup_s`` is exempt from the
spread test but not from the agreement test.  The spread of the host
speed (``reference.py``: the reference units' time over nominal, by
which every time and rate is scaled) is printed per workload: it is
how much the raw figures would have spread from the host alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import BENCHMARK_FILE, ROOT

#: The detail line's host speed (reference units' time over nominal),
#: reported beside the metrics.
SPEED = "host_speed"


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args()
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    seeds = range(1, args.seeds + 1)

    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for number in range(2):
        values: Dict[str, Dict[str, List[float]]] = {
            w: {m["name"]: [] for m in metrics} for w in workloads}
        for w in workloads:
            values[w][SPEED] = []
        for seed in seeds:
            for workload in workloads:
                started = time.monotonic()
                result = run_once(spec["command"], workload, seed, seconds, 0)
                took = time.monotonic() - started
                if not result["correct"]:
                    print(f"set {number + 1} {workload} seed {seed}: "
                          f"NOT CORRECT ({result['failed']} failed)")
                for m in metrics:
                    values[workload][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                values[workload][SPEED].append(
                    result["detail"]["host_speed"])
                shown = " ".join(
                    f"{m['name']}={values[workload][m['name']][-1]:.4g}"
                    for m in metrics)
                print(f"set {number + 1} {workload} seed {seed} "
                      f"({took:.0f} s): {shown}", flush=True)
        sets.append(values)

    report: Dict[str, Any] = {}
    steady = True
    for workload in workloads:
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = {"bound": bound,
                   "set1": summarize(sets[0][workload][name]),
                   "set2": summarize(sets[1][workload][name])}
            spread = max(row["set1"]["spread"], row["set2"]["spread"])
            row["resolved"] = name == "setup_s" or spread <= bound
            row["steady"] = name == "setup_s" or spread <= bound / 3
            first, second = row["set1"]["median"], row["set2"]["median"]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (second - first) / first if first else 0.0
            row["second_worse_by"] = worse
            row["agree"] = worse <= bound
            steady = steady and row["agree"] and row["resolved"]
            rows[name] = row
        report[workload] = rows

    for workload, rows in report.items():
        rows[SPEED] = {f"set{n}": summarize(values[workload][SPEED])
                       for n, values in enumerate(sets, start=1)}
        print(f"\n{workload} (host speed spread "
              f"{rows[SPEED]['set1']['spread']:.3f} and "
              f"{rows[SPEED]['set2']['spread']:.3f}: the host's own speed "
              "varied this much)")
        for name, row in rows.items():
            if name == SPEED:
                continue
            s1 = row["set1"]
            line = (f"  {name:13s} median {s1['median']:.5g} "
                    f"q1 {s1['q1']:.5g} q3 {s1['q3']:.5g} "
                    f"spread {s1['spread']:.3f} / bound {row['bound']}"
                    f" | set2 spread {row['set2']['spread']:.3f}, "
                    f"worse by {row['second_worse_by']:+.3f}"
                    f" {'agree' if row['agree'] else 'DISAGREE'}")
            if not row["resolved"]:
                line += "  UNRESOLVED (spread above bound)"
            elif not row["steady"]:
                line += "  (spread above a third of the bound)"
            print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
