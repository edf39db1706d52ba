"""The program side of the in-process workloads.

Runs inside its own interpreter with the program on ``PYTHONPATH`` and
calls only public entry points: ``service.workloads.run_payload`` for
``mc-accuracy`` and ``spice.solver.CrossbarNetwork.solve`` for
``xbar-worst``.  ``service-docs`` times payload validation and result
rendering on documents the service workload collected.

Protocol on stdout: ``READY`` once imports, inputs and one warm-up
operation are done (``--mode setup`` exits there), then, after a line
on stdin, one ``RESULT <json>`` line after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np
import repro.obs as obs
from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.config import SimConfig
from repro.service.schema import SimulationPayload
from repro.service.workloads import render_document, run_payload
from repro.spice.solver import CrossbarNetwork

import checks
import reduce
import reference
from common import Tally, load_expected, median
from inputs import (
    MC_POOL,
    MC_TRIALS,
    XBAR_INTERCONNECT,
    XBAR_POOL,
    XBAR_SIZE,
    mc_payload,
    seeded_order,
    xbar_drive,
)


class SpluCounter:
    """Counts and times scipy's sparse LU, whoever in the program calls
    it, so the count survives a rewrite of the solver's internals."""

    def __init__(self) -> None:
        import scipy.sparse.linalg as spla

        self.calls = 0
        self.seconds = 0.0
        self._original = spla.splu

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return self._original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        spla.splu = counted


# ----------------------------------------------------------------------
# Operations: ``run`` returns the program's output for one pool entry;
# ``check`` and ``negative`` return None or the reason it is wrong.
# ----------------------------------------------------------------------
class MonteCarlo:
    pool = MC_POOL
    tag = "mc"
    expected_file = "mc.json"
    whole_cycles = False  # every payload costs about the same

    def __init__(self) -> None:
        self.docs = [mc_payload(i) for i in range(MC_POOL)]

    def run(self, index: int, timing: dict):
        start = time.perf_counter()
        payload = SimulationPayload.from_dict(self.docs[index])
        validated = time.perf_counter()
        doc = run_payload(payload)
        ran = time.perf_counter()
        render_document(doc)
        timing["validate"] = validated - start
        timing["render"] = time.perf_counter() - ran
        return doc

    def check(self, index: int, doc) -> object:
        return checks.check_mc(doc, self.expected[str(index)])

    def negative(self, index: int, doc) -> object:
        return checks.check_mc(checks.perturb_mc(doc),
                               self.expected[str(index)])


class WorstCase:
    pool = XBAR_POOL
    tag = "xbar"
    expected_file = "xbar.json"
    whole_cycles = True  # factorizations per solve differ by input

    def __init__(self) -> None:
        config = SimConfig(crossbar_size=XBAR_SIZE,
                           interconnect_tech=XBAR_INTERCONNECT)
        device = config.device
        segment = config.wire.segment_resistance(
            device.cell_pitch(config.cell_type))
        grid = np.full((XBAR_SIZE, XBAR_SIZE), device.r_min)
        self.network = CrossbarNetwork(
            grid, segment, DEFAULT_SENSE_RESISTANCE, device=device)
        self.inputs = [np.asarray(xbar_drive(i)) * device.read_voltage
                       for i in range(XBAR_POOL)]

    def run(self, index: int, timing: dict):
        return self.network.solve(self.inputs[index])

    def check(self, index: int, solution) -> object:
        return checks.check_xbar(solution.output_voltages.tolist(),
                                 solution.converged,
                                 self.expected[str(index)])

    def negative(self, index: int, solution) -> object:
        return checks.check_xbar(
            checks.perturb_xbar(solution.output_voltages.tolist()),
            solution.converged, self.expected[str(index)])


def _timed(op, index: int, timing: dict, splu=None):
    """One operation; with ``splu`` it runs traced and ``timing`` also
    gets its spans and LU calls."""
    if splu:
        obs.trace.clear()
        calls, seconds = splu.calls, splu.seconds
        obs.enable()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        output = op.run(index, timing)
    finally:
        timing["wall"] = time.perf_counter() - start
        timing["cpu"] = time.process_time() - cpu
        if splu:
            obs.disable()
            timing["spans"] = reduce.from_obs(obs.trace.collect())
            timing["splu_calls"] = splu.calls - calls
            timing["splu_s"] = splu.seconds - seconds
    return output


def measure(op, seed: int, seconds: float, traced: bool,
            ref: reference.ComputeReference) -> dict:
    """The timed loop: the seeded order until ``seconds`` have passed,
    finishing the pool cycle where ``op.whole_cycles``.  Untraced runs
    time a host-speed reference unit before the first operation and
    after every operation (outside the window).  Traced runs do every input twice, untraced then traced or
    the reverse, to price the tracer."""
    order = seeded_order(seed, op.pool, op.tag)
    splu = SpluCounter() if traced else None
    tally = Tally()
    latencies, traced_latencies, cpu = [], [], 0.0
    between: list = []  # reference point timed before each latency
    layer = {"validate": [], "render": [], "splu_calls": 0,
             "splu_s": 0.0, "spans": [], "iterations": [],
             "converged": 0, "solutions": 0}
    negative_counted = None
    outside = 0.0  # reference time, left out of the window
    begin = time.perf_counter()
    if not traced:
        outside += ref.measure()
    position = 0
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (not op.whole_cycles
                                   or position % op.pool == 0):
            break
        index = order[position % op.pool]
        modes = [False]
        if traced:
            modes = [False, True] if position % 2 == 0 else [True, False]
        for with_trace in modes:
            timing: dict = {}
            try:
                output = _timed(op, index, timing, with_trace and splu)
            except Exception as exc:  # counted; the run is then not correct
                tally.record(f"{type(exc).__name__}: {exc}")
                continue
            if with_trace:
                layer["spans"].extend(timing["spans"])
                layer["splu_calls"] += timing["splu_calls"]
                layer["splu_s"] += timing["splu_s"]
                traced_latencies.append(timing["wall"])
                if "validate" in timing:
                    layer["validate"].append(timing["validate"])
                    layer["render"].append(timing["render"])
                if hasattr(output, "iterations"):
                    layer["iterations"].append(output.iterations)
                    layer["converged"] += bool(output.converged)
                    layer["solutions"] += 1
            else:
                latencies.append(timing["wall"])
                between.append(len(ref.points) - 1)
                cpu += timing["cpu"]
            problem = op.check(index, output)
            tally.record(problem)
            if negative_counted is None and problem is None:
                control = Tally()
                control.record(op.negative(index, output))
                negative_counted = control.failed == 1
        if not traced:
            outside += ref.measure()
        position += 1
    window = time.perf_counter() - begin - outside
    result = {
        "latencies": latencies,
        "window_s": window,
        "reference": ref.result(between),
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "negative_control_counted": bool(negative_counted),
        "cycles": position / op.pool,
    }
    if traced:
        result.update(layer_values(op, layer, latencies, traced_latencies))
    return result


def layer_values(op, layer: dict, untraced: list, traced: list) -> dict:
    spans = layer["spans"]
    ops = len(traced)
    by_name = reduce.self_by_name(spans)
    solves = sum(1 for s in spans if s["name"] == "solver.solve") + sum(
        int(s["attrs"].get("batch", 0)) for s in spans
        if s["name"] == "solver.solve_batch")
    solver_self = reduce.self_by_prefix(by_name, "solver.")
    assemble = by_name.get("solver.assemble", 0.0)
    values = {
        "solver.solves_per_op": solves / ops,
        "solver.assemble_s": assemble / ops,
        "solver.factorize_s": layer["splu_s"] / ops,
        "solver.iterate_s": max(
            solver_self - assemble - layer["splu_s"], 0.0) / ops,
        "obs.trace_overhead": median(traced) / median(untraced),
    }
    if solves:
        values["solver.factorizations_per_solve"] = (
            layer["splu_calls"] / solves)
    if layer["solutions"]:
        values["solver.rounds_per_solve"] = (
            sum(layer["iterations"]) / layer["solutions"])
        values["solver.converged_ratio"] = (
            layer["converged"] / layer["solutions"])
    if isinstance(op, MonteCarlo):
        values["schema.validate_s"] = median(layer["validate"])
        values["render.document_s"] = median(layer["render"])
        values["pool.self_s"] = reduce.self_by_prefix(
            by_name, "runtime.") / ops
        values["mc.trial_self_s"] = reduce.self_by_prefix(
            by_name, "mc.") / (ops * MC_TRIALS)
    return {
        "layers": values,
        "ranking": reduce.rank_layers(by_name, ops),
        "traced_ops": ops,
    }


def service_docs(path: str) -> dict:
    """Validation and rendering times on the service's own documents."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    validate, render = [], []
    for doc in data["payloads"]:
        start = time.perf_counter()
        SimulationPayload.from_dict(doc)
        validate.append(time.perf_counter() - start)
    for text in data["results"]:
        parsed = json.loads(text)
        start = time.perf_counter()
        render_document(parsed)
        render.append(time.perf_counter() - start)
    return {"schema.validate_s": median(validate),
            "render.document_s": median(render)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["mc-accuracy", "xbar-worst",
                                 "service-docs"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=["setup", "measure"],
                        default="measure")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--docs")
    args = parser.parse_args()
    if args.workload == "service-docs":
        print("RESULT " + json.dumps(service_docs(args.docs)), flush=True)
        return 0
    op = MonteCarlo() if args.workload == "mc-accuracy" else WorstCase()
    op.expected = load_expected(op.expected_file)
    warm_index = seeded_order(args.seed, op.pool, op.tag)[0]
    warm_ok = op.check(warm_index, op.run(warm_index, {})) is None
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    sys.stdin.readline()  # the parent's go-ahead
    with reference.ComputeReference() as ref:
        result = measure(op, args.seed, args.seconds, bool(args.trace), ref)
    result["warmup_ok"] = warm_ok
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
