"""cli-paper: ``repro simulate`` / ``repro explore`` processes, each
timed from launch to exit by one closed-loop client."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List

import checks
import reduce
import reference
from common import Tally, load_expected, median, program_process
from inputs import CLI_COMMANDS, seeded_order


def _repro(args: List[str]):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True,
                          **program_process())
    return time.perf_counter() - start, proc


#: Seconds one cycle of the command list takes at nominal speed, its
#: reference units included.
CYCLE_SECONDS = 5.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup(pace, repeats: int = 3) -> List[float]:
    """``repro --help`` from launch to exit; ``pace()`` after each."""
    samples = []
    for _ in range(repeats):
        seconds, proc = _repro(["--help"])
        if proc.returncode != 0:
            raise RuntimeError(f"repro --help failed: {proc.stderr}")
        samples.append(seconds)
        pace()
    return samples


def run(seed: int, seconds: float, traced: bool, scratch: str,
        pace) -> Dict[str, Any]:
    setup_samples = setup(pace)
    expected = load_expected("cli.json")
    order = seeded_order(seed, len(CLI_COMMANDS), "cli")
    tally = Tally()
    negative = None
    latencies: List[float] = []
    traced_latencies: List[float] = []
    engine: List[float] = []
    spans: List[Dict[str, Any]] = []
    trace_file = os.path.join(scratch, "op.trace.json")
    cpu_before = _children_cpu()
    # Host-speed reference: a process unit before the first operation
    # and after each one, outside the window and the CPU count.
    samples: List[List[float]] = []
    between: List[int] = []
    reference_cpu = 0.0

    def reference_point() -> None:
        nonlocal reference_cpu
        mark = _children_cpu()
        samples.append([reference.process_unit(**program_process())])
        reference_cpu += _children_cpu() - mark

    begin = time.perf_counter()
    if not traced:
        reference_point()
    # Whole cycles of the command list, as many as fit ``seconds`` at
    # nominal speed: every run of a length times the same operations,
    # so the tail is always the same percentile.
    total = len(order) * max(2, round(seconds / CYCLE_SECONDS))
    for position in range(total):
        command = list(CLI_COMMANDS[order[position % len(order)]])
        modes = [False]
        if traced:
            modes = [False, True] if position % 2 == 0 else [True, False]
        for with_trace in modes:
            args = (["--trace", trace_file] if with_trace else []) + command
            wall, proc = _repro(args)
            want = expected[" ".join(command)]
            problem = (f"exit code {proc.returncode}: {proc.stderr[-200:]}"
                       if proc.returncode != 0
                       else checks.check_cli(proc.stdout, want))
            tally.record(problem)
            if negative is None and problem is None:
                control = Tally()
                control.record(checks.check_cli(
                    checks.perturb_cli(proc.stdout), want))
                negative = control.failed == 1
            if not with_trace:
                latencies.append(wall)
                if not traced:
                    between.append(len(samples) - 1)
                    reference_point()
                continue
            if proc.returncode != 0:
                continue
            with open(trace_file, encoding="utf-8") as handle:
                op_spans = reduce.from_chrome(json.load(handle))
            os.remove(trace_file)
            traced_latencies.append(wall)
            engine.append(sum(s["dur"] for s in reduce.top_level(op_spans)))
            spans.extend(op_spans)
    window = time.perf_counter() - begin - sum(p[0] for p in samples)
    cpu = _children_cpu() - cpu_before - reference_cpu
    result = {
        "setup": setup_samples,
        "latencies": latencies,
        "window_s": window,
        "reference": {"kind": "process", "points": samples,
                      "between": between},
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "negative_control_counted": bool(negative),
        "cycles": total / len(order),
    }
    if traced:
        result.update(_layers(spans, engine, latencies, traced_latencies))
    return result


def _layers(spans, engine, untraced, traced) -> Dict[str, Any]:
    ops = len(traced)
    by_name = reduce.self_by_name(spans)
    points = [s for s in spans if s["name"] == "dse.point"]
    values = {
        "cli.engine_s": median(engine),
        "cli.untraced_s": median([w - e for w, e in zip(traced, engine)]),
        "dse.points_per_op": len(points) / ops,
        "pool.self_s": reduce.self_by_prefix(by_name, "runtime.") / ops,
        "obs.trace_overhead": median(traced) / median(untraced),
    }
    if points:
        values["dse.point_s"] = by_name["dse.point"] / len(points)
    return {
        "layers": values,
        "ranking": reduce.rank_layers(by_name, ops),
        "traced_ops": ops,
    }
