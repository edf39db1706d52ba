"""MNSIM reproduction benchmark: one command, every metric, every output
checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, times
and rates scaled to the host-speed reference's nominal speed
(``reference.py``); ``--trace 1`` is the separate traced run that
reports the per-layer metrics, unscaled (names and units come from
``BENCHMARK.json``).  The last line of standard output is the result
object; the line before it carries the details behind the numbers (raw
end-to-end values and the host speed, tail percentile and sample count,
BLAS threads, CPU steal, failure reasons, absent per-layer metrics,
layer ranking by self time).
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
from typing import Any, Dict, List

import cli_paper
import inprocess
import reduce
import reference
import service_jobs
from common import (
    BENCHMARK_FILE,
    BLAS_THREADS,
    HASH_SEED,
    SRC,
    WORKLOADS,
    check_checkout,
    cpu_stat,
    isolate_program,
    median,
    program_process,
    remove_scratch,
    scratch_dir,
    steal_share,
    tail,
)


def _build() -> None:
    """Byte-compile the program once so no run pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)


def _measure(workload: str, seed: int, seconds: float,
             traced: bool, pace) -> Dict[str, Any]:
    scratch = scratch_dir(workload)
    try:
        if workload == "cli-paper":
            return cli_paper.run(seed, seconds, traced, scratch, pace)
        if workload == "service-jobs":
            return service_jobs.run(seed, seconds, traced, scratch, pace)
        return inprocess.run(workload, seed, seconds, traced, pace)
    finally:
        remove_scratch(scratch)


def _end_to_end(result: Dict[str, Any], setup_reference: List[float],
                detail: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics, times and rates at the host-speed
    reference's nominal speed (see ``reference.py``); the raw values
    go to the detail line."""
    latencies = result["latencies"]
    ops = len(latencies)
    record = result["reference"]
    speed = reference.speed(record["kind"], record["points"])
    setup_points = [[unit] for unit in setup_reference]
    setup_speed = reference.speed("process", setup_points)
    scaled_setup = reference.paired(result["setup"], setup_points,
                                    range(len(result["setup"])), "process")
    scaled_latencies = reference.paired(
        latencies, record["points"], record["between"], record["kind"])
    tail_value, percentile, beyond = tail(scaled_latencies)
    raw = {
        "setup_s": median(result["setup"]),
        "op_p50_s": median(latencies),
        "op_tail_s": tail(latencies)[0],
        "ops_per_s": ops / result["window_s"],
        "cpu_per_op_s": result["cpu_s"] / ops,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - result["failed"] / result["attempted"],
    }
    detail.update(tail_percentile=percentile, tail_samples_beyond=beyond,
                  timed_ops=ops, host_speed=speed,
                  setup_host_speed=setup_speed,
                  reference_points=len(record["points"]), raw=raw)
    scaled = dict(raw)
    scaled["setup_s"] = median(scaled_setup)
    scaled["op_p50_s"] = median(scaled_latencies)
    scaled["op_tail_s"] = tail_value
    scaled["cpu_per_op_s"] = raw["cpu_per_op_s"] / speed
    scaled["ops_per_s"] = raw["ops_per_s"] * speed
    return scaled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    check_checkout()
    # A shell starting this in the background leaves SIGINT ignored, and
    # children inherit that; the service is stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    _build()
    isolation = isolate_program()

    # A host-speed reference unit before the first set-up and after each
    # one (``pace``), to scale each set-up by the units around it.
    setup_reference: List[float] = []

    def pace() -> None:
        if not args.trace:
            setup_reference.append(
                reference.process_unit(**program_process()))

    pace()
    before = cpu_stat()
    result = _measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), pace)
    after = cpu_stat()
    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        **isolation,
        "pythonhashseed": HASH_SEED,
        "cpu_steal_share": steal_share(before, after),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed"] / result["attempted"],
        "failure_reasons": result["reasons"],
        "negative_control_counted": result["negative_control_counted"],
        "setup_samples_s": result["setup"],
        "window_s": result["window_s"],
    }
    for key in ("cycles", "dedupe_hits", "loadgen_cpu_s"):
        if key in result:
            detail[key] = result[key]
    if args.trace:
        values = dict(result["layers"])
        values.update(reduce.import_probe())
        metrics, absent = reduce.layer_metrics(
            args.workload, spec["per_layer"], values)
        detail.update(absent=absent, traced_ops=result["traced_ops"],
                      layers_by_self_time_per_op=result["ranking"])
    else:
        values = _end_to_end(result, setup_reference, detail)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = (result["failed"] == 0 and finite
               and result["negative_control_counted"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
