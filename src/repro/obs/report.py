"""Render saved traces as terminal wall-time trees and top-k tables.

The Chrome trace files written by :func:`repro.obs.trace.export_chrome`
embed each span's ``span_id``/``parent_id`` in the event ``args``, so
this module can rebuild the span tree from the file alone — no live
process state needed.  ``repro obs-report trace.json`` is the CLI
wrapper around :func:`render_report`.

The tree view groups worker spans under the chunk span that dispatched
them and prefixes spans from other processes with their pid, so a
parallel sweep reads as::

    dse.explore                                        812.4 ms
      runtime.cache-lookup                               1.2 ms
      runtime.execute                                  790.1 ms
        runtime.chunk                                  401.3 ms
          [pid 4242] runtime.job                        98.0 ms
            [pid 4242] dse.point                        97.6 ms

The top-k table aggregates by span name (count, self, total, mean, max)
and sorts by **self time** — a span's duration minus the part of it its
children cover.  Ranking by total time would put every enclosing span
(``runtime.run_jobs``, ``runtime.execute``, one ``runtime.job`` per
trial) above the leaf that actually spends the time; self time answers
"where does the sweep spend its time" in one look.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "load_trace",
    "spans_from_trace",
    "build_tree",
    "render_tree",
    "top_spans",
    "render_top_spans",
    "render_report",
    "render_progress_line",
]

#: args keys that carry tree structure / job scoping, not user
#: attributes.
_STRUCTURAL_ARGS = ("span_id", "parent_id", "job")


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Span dicts from a saved Chrome trace (or a raw span-dict list).

    Accepts both the ``{"traceEvents": [...]}`` object form and a bare
    JSON list of events; metadata events and events without a
    ``span_id`` are skipped.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return spans_from_trace(payload)


def spans_from_trace(payload: Any) -> List[Dict[str, Any]]:
    """Span dicts from an in-memory Chrome trace document.

    The same extraction :func:`load_trace` applies to files, reusable
    for trace documents fetched from the service's
    ``/jobs/{id}/trace`` endpoint.
    """
    events = payload.get("traceEvents", payload) if isinstance(
        payload, dict
    ) else payload
    spans: List[Dict[str, Any]] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = args.get("span_id")
        if span_id is None:
            continue
        attrs = {
            k: v for k, v in args.items() if k not in _STRUCTURAL_ARGS
        }
        spans.append({
            "name": event.get("name", "?"),
            "span_id": span_id,
            "parent_id": args.get("parent_id"),
            "pid": event.get("pid", 0),
            "start": float(event.get("ts", 0.0)) / 1e6,
            "duration": float(event.get("dur", 0.0)) / 1e6,
            "attrs": attrs,
        })
    return spans


# ----------------------------------------------------------------------
# Tree building / rendering
# ----------------------------------------------------------------------
def build_tree(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Root span nodes, each with a ``children`` list, start-ordered.

    Spans whose parent is unknown (dispatcher had tracing off, or the
    parent was pruned) become roots themselves, so partial traces still
    render.
    """
    nodes = {
        record["span_id"]: dict(record, children=[]) for record in spans
    }
    roots: List[Dict[str, Any]] = []
    for record in spans:
        node = nodes[record["span_id"]]
        parent = nodes.get(record.get("parent_id"))
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start"])
    roots.sort(key=lambda node: node["start"])
    return roots


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"


def _format_attrs(attrs: Dict[str, Any], limit: int = 4) -> str:
    if not attrs:
        return ""
    shown = list(attrs.items())[:limit]
    body = ", ".join(f"{k}={v}" for k, v in shown)
    if len(attrs) > limit:
        body += ", ..."
    return f"  [{body}]"


def render_tree(
    spans: Sequence[Dict[str, Any]],
    *,
    max_depth: Optional[int] = None,
    width: int = 60,
) -> str:
    """The wall-time tree as indented text, one line per span."""
    roots = build_tree(spans)
    if not roots:
        return "(no spans recorded)"
    lines: List[str] = []

    def emit(node: Dict[str, Any], depth: int, parent_pid: Optional[int]):
        pid_tag = (
            f"[pid {node['pid']}] " if node["pid"] != parent_pid else ""
        )
        label = "  " * depth + pid_tag + node["name"]
        label += _format_attrs(node.get("attrs") or {})
        pad = max(1, width - len(label))
        lines.append(
            label + " " * pad + _format_duration(node["duration"])
        )
        if max_depth is not None and depth + 1 > max_depth:
            return
        for child in node["children"]:
            emit(child, depth + 1, node["pid"])

    root_pid = roots[0]["pid"]
    for root in roots:
        emit(root, 0, root_pid if root["pid"] == root_pid else None)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Top-k aggregation
# ----------------------------------------------------------------------
def _self_times(spans: Sequence[Dict[str, Any]]) -> Dict[Any, float]:
    """Span id -> self time: its duration minus the union of its
    children's intervals, clipped to its own (overlapping children,
    e.g. parallel chunks, count once)."""
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for record in spans:
        if record.get("parent_id") != record["span_id"]:
            children.setdefault(record.get("parent_id"), []).append(record)
    self_times: Dict[Any, float] = {}
    for record in spans:
        start = record["start"]
        end = start + record["duration"]
        covered, reach = 0.0, start
        for lo, hi in sorted(
            (max(child["start"], start),
             min(child["start"] + child["duration"], end))
            for child in children.get(record["span_id"], ())
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_times[record["span_id"]] = max(
            record["duration"] - covered, 0.0
        )
    return self_times


def top_spans(
    spans: Sequence[Dict[str, Any]], k: int = 10
) -> List[Dict[str, Any]]:
    """Per-name aggregates sorted by self time, largest first.

    Each row carries ``self`` (summed self time, the ranking key) and
    ``total`` (summed wall time, children included).
    """
    self_times = _self_times(spans)
    groups: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        group = groups.setdefault(
            record["name"],
            {"name": record["name"], "count": 0, "self": 0.0,
             "total": 0.0, "max": 0.0, "pids": set()},
        )
        group["count"] += 1
        group["self"] += self_times[record["span_id"]]
        group["total"] += record["duration"]
        group["max"] = max(group["max"], record["duration"])
        group["pids"].add(record["pid"])
    ranked = sorted(
        groups.values(), key=lambda g: g["self"], reverse=True
    )[:k]
    return [
        {
            "name": g["name"],
            "count": g["count"],
            "self": g["self"],
            "total": g["total"],
            "mean": g["total"] / g["count"],
            "max": g["max"],
            "pids": len(g["pids"]),
        }
        for g in ranked
    ]


def render_top_spans(
    spans: Sequence[Dict[str, Any]], k: int = 10
) -> str:
    """The top-k table as aligned text."""
    rows = top_spans(spans, k)
    if not rows:
        return "(no spans recorded)"
    headers = ["span", "count", "self", "total", "mean", "max", "pids"]
    table = [
        [
            row["name"],
            str(row["count"]),
            _format_duration(row["self"]),
            _format_duration(row["total"]),
            _format_duration(row["mean"]),
            _format_duration(row["max"]),
            str(row["pids"]),
        ]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in table)
    return "\n".join(lines)


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, float(seconds))
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.1f}s"


def render_progress_line(doc: Dict[str, Any]) -> str:
    """One live-watch line from a job status or ``progress`` event dict.

    Renders completion, smoothed throughput, remaining-time estimate,
    and the job's peak RSS when a resource snapshot is present — the
    row ``repro jobs watch`` prints per event.
    """
    done = int(doc.get("done") or 0)
    total = int(doc.get("total") or 0)
    percent = (100.0 * done / total) if total else 0.0
    parts = [f"{done}/{total}", f"{percent:5.1f}%"]
    throughput = doc.get("throughput")
    if throughput is not None:
        parts.append(f"{float(throughput):.2f} jobs/s")
    parts.append(f"eta {_format_eta(doc.get('eta_seconds'))}")
    resources = doc.get("resources") or {}
    rss = resources.get("peak_rss_bytes")
    if rss:
        parts.append(f"rss {float(rss) / (1 << 20):.0f} MiB")
    state = doc.get("state")
    if state:
        parts.append(str(state))
    return "  ".join(parts)


def render_report(
    source: Any,
    *,
    k: int = 10,
    max_depth: Optional[int] = None,
) -> str:
    """Full obs-report text: span tree plus the top-k table.

    ``source`` is a trace-file path or an iterable of span dicts.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        spans = load_trace(str(source))
    else:
        spans = list(source)
    worker_pids = sorted({s["pid"] for s in spans})
    header = (
        f"{len(spans)} spans across {len(worker_pids)} process(es): "
        + ", ".join(str(pid) for pid in worker_pids)
    )
    return "\n".join([
        header,
        "",
        render_tree(spans, max_depth=max_depth),
        "",
        f"top {k} span families by self time:",
        render_top_spans(spans, k),
    ])
