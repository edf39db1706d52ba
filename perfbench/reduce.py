"""Traced-run reducer: self time per span, layer ranking, import probes.

Spans come either from ``repro.obs.trace`` span dicts or from Chrome
trace-event files (``repro --trace``, ``GET /jobs/{id}/trace``); both
are normalised to ``{name, id, parent, start, dur}`` with seconds.
A span's *self time* is its duration minus the part of its interval
covered by its children (overlapping children count once).
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

from common import median, program_process

#: Value written for a per-layer metric the workload cannot produce.
#: Every per-layer metric is non-negative, so -1 cannot be mistaken for
#: a measurement; the result's detail line names each absent metric and
#: why it is absent.
ABSENT = -1.0


def from_obs(span_dicts: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [
        {"name": s["name"], "id": s["span_id"], "parent": s["parent_id"],
         "start": s["start"], "dur": s["duration"],
         "attrs": s.get("attrs") or {}}
        for s in span_dicts
    ]


def from_chrome(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    out = []
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        out.append({
            "name": event["name"], "id": args.get("span_id"),
            "parent": args.get("parent_id"), "start": event["ts"] / 1e6,
            "dur": event["dur"] / 1e6, "attrs": args,
        })
    return out


def _covered(parent: Dict[str, Any], children: List[Dict[str, Any]]) -> float:
    lo, hi = parent["start"], parent["start"] + parent["dur"]
    spans = sorted((max(c["start"], lo), min(c["start"] + c["dur"], hi))
                   for c in children)
    covered, end = 0.0, lo
    for start, stop in spans:
        start = max(start, end)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def self_times(spans: List[Dict[str, Any]]) -> List[Tuple[str, float]]:
    """``(name, self_seconds)`` for every span."""
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    return [
        (span["name"], max(span["dur"] - _covered(span, children[span["id"]]),
                           0.0))
        for span in spans
    ]


def top_level(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    ids = {span["id"] for span in spans}
    return [span for span in spans if span["parent"] not in ids]


def self_by_name(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans):
        totals[name] += seconds
    return dict(totals)


def self_by_prefix(by_name: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in by_name.items() if k.startswith(prefix))


def rank_layers(by_name: Dict[str, float], per: float) -> List[List[Any]]:
    """Layers (span families) ranked by self time per operation."""
    families: Dict[str, float] = defaultdict(float)
    for name, seconds in by_name.items():
        families[name.split(".")[0]] += seconds
    ranked = sorted(families.items(), key=lambda kv: -kv[1])
    return [[family, seconds / per] for family, seconds in ranked]


# ----------------------------------------------------------------------
# Import probes (every workload's traced run)
# ----------------------------------------------------------------------
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_probe(repeats: int = 3) -> Dict[str, float]:
    """Interpreter start-up and the ``repro.cli`` import chain.

    ``import.interp_s`` is ``python -c pass`` from launch to exit; the
    other two are cumulative times from ``-X importtime``.  Medians of
    ``repeats`` launches.
    """
    interp, cli, scipy_opt = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       **program_process())
        interp.append(time.perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            check=True, capture_output=True, text=True, **program_process(),
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                cumulative[match.group(3).strip()] = int(match.group(2)) / 1e6
        cli.append(cumulative.get("repro.cli", 0.0))
        scipy_opt.append(cumulative.get("scipy.optimize", 0.0))
    out = {"import.interp_s": median(interp),
           "import.repro_cli_s": median(cli)}
    # Absent when a lazier import chain stops loading scipy.optimize.
    if max(scipy_opt) > 0:
        out["import.scipy_optimize_s"] = median(scipy_opt)
    return out


_NO_CLI = "no CLI process in this workload"
_NO_HTTP = "no HTTP service in this workload"
_NO_CACHE = "the result cache is bypassed in this workload"
_NO_DSE = "no design-space sweep in this workload"
_NO_FAULTS = "no fault campaign in this workload"
_NO_MC = "no Monte-Carlo trials in this workload"

#: Why a per-layer metric is absent, by workload.  A key ending in "."
#: covers every metric with that prefix.  Workloads return only what
#: they measured; a metric neither measured nor listed here is an error.
#: Entries for metrics a workload usually measures give the reason for
#: the runs where it could not (no such spans were traced).
ABSENT_REASONS: Dict[str, Dict[str, str]] = {
    "cli-paper": {
        "dse.point_s": "no dse.point spans in the traced operations",
        "schema.": "the CLI calls the engine directly; no payload is "
                   "validated",
        "render.": "the CLI prints tables; no result document is rendered",
        "cache.": "no --cache-dir: the result cache is bypassed",
        "http.": _NO_HTTP, "jobs.": _NO_HTTP, "mc.": _NO_MC,
        "faults.": _NO_FAULTS,
        "solver.": "solver internals are measured in-process "
                   "(mc-accuracy, xbar-worst)",
    },
    "mc-accuracy": {
        "solver.factorizations_per_solve":
            "no solver.solve spans in the traced operations",
        "solver.rounds_per_solve":
            "result documents carry no per-solve solutions",
        "solver.converged_ratio":
            "result documents carry no per-solve solutions",
        "cli.": _NO_CLI, "dse.": _NO_DSE, "cache.": _NO_CACHE,
        "http.": _NO_HTTP, "jobs.": _NO_HTTP, "faults.": _NO_FAULTS,
    },
    "xbar-worst": {
        "schema.": "CrossbarNetwork.solve takes no payload",
        "render.": "CrossbarNetwork.solve returns no document",
        "pool.": "CrossbarNetwork.solve does not use the job engine",
        "cli.": _NO_CLI, "dse.": _NO_DSE, "cache.": _NO_CACHE,
        "http.": _NO_HTTP, "jobs.": _NO_HTTP, "faults.": _NO_FAULTS,
        "mc.": _NO_MC,
    },
    "service-jobs": {
        "jobs.dedupe_ratio": "no submissions counted on /metrics",
        "cache.hit_ratio": "no cache lookups counted on /metrics",
        "faults.trial_s": "no fault campaigns in the sampled jobs",
        "dse.point_s": "no dse.point spans in the sampled jobs",
        "cache.get_s": "no cache.get spans in the sampled jobs",
        "cache.put_s": "no cache.put spans in the sampled jobs",
        "obs.trace_overhead": "the service traces every job; there is no "
                              "untraced baseline",
        "cli.": "no CLI process; jobs arrive over HTTP",
        "mc.": "no Monte-Carlo payloads in the service mix",
        "solver.": "solver internals are measured in-process "
                   "(mc-accuracy, xbar-worst)",
    },
}
#: Absent on any workload once the import chain gets lazier.
_ANY_WORKLOAD = {
    "import.scipy_optimize_s":
        "importing repro.cli no longer loads scipy.optimize",
}


def _absent_reason(workload: str, name: str) -> str:
    reasons = ABSENT_REASONS[workload]
    if name in reasons:
        return reasons[name]
    if name in _ANY_WORKLOAD:
        return _ANY_WORKLOAD[name]
    prefix = name.split(".")[0] + "."
    if prefix in reasons:
        return reasons[prefix]
    raise RuntimeError(f"{workload} did not measure {name} and gives no "
                       "reason why")


def layer_metrics(
    workload: str,
    per_layer: List[Dict[str, Any]],
    values: Dict[str, float],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
    """Every declared per-layer metric, absent ones marked.

    Returns the metrics block for the result line and the absent
    metrics with their reasons (for the detail line).
    """
    unknown = set(values) - {m["name"] for m in per_layer}
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")
    metrics: Dict[str, Dict[str, Any]] = {}
    missing: Dict[str, str] = {}
    for metric in per_layer:
        name = metric["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
        else:
            metrics[name] = {"value": ABSENT, "unit": metric["unit"]}
            missing[name] = _absent_reason(workload, name)
    return metrics, missing
