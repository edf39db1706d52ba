"""Lightweight run instrumentation for the simulation-job engine.

:class:`RunMetrics` accumulates per-stage wall time (cache lookup,
execute, cache store), counters (jobs, cache hits/misses, worker
failures, retries) and the execution mode actually used (``serial`` or
``process``).  The engine fills one in during :func:`repro.runtime.
pool.run_jobs`; CLI commands persist it next to the cache so
``repro runtime-stats`` can show the last run, and
:func:`repro.report.format_run_metrics` renders it as a table.

Since the :mod:`repro.obs` layer landed, :class:`RunMetrics` is a thin
back-compat facade over it: the per-run dicts (the ``runtime-stats``
and :meth:`save`/:meth:`load` contract) are kept as before, and when
observability is enabled every stage additionally opens a
``runtime.<stage>`` span and every stage/counter update is mirrored
into the global :data:`repro.obs.metrics.REGISTRY`
(``repro_runtime_events_total{event=...}`` and
``repro_runtime_stage_seconds{stage=...}``), so engine accounting shows
up in traces and Prometheus exports without any caller changes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Where CLI runs persist their metrics, relative to the cache dir.
LAST_RUN_FILENAME = "last_run.json"


@dataclass
class RunMetrics:
    """Wall-time and counter accounting for one engine run.

    Attributes
    ----------
    stages:
        Stage name -> accumulated wall seconds (``cache-lookup``,
        ``execute``, ``cache-store``).
    counters:
        Event counts: ``jobs_total``, ``jobs_executed``, ``cache_hits``,
        ``cache_misses``, ``worker_failures``, ``retries``.
    mode:
        ``"serial"`` or ``"process"`` — how the execute stage ran.
    workers:
        Worker process count used for the execute stage (1 if serial).
    resources:
        Resource usage accumulated at chunk boundaries by the engine:
        ``wall_seconds``, ``cpu_seconds`` (user+system, summed across
        workers), ``peak_rss_bytes`` (max over processes),
        ``fixed_point_iterations`` (solver Newton rounds; the key
        predates the Newton solver), ``batched_solves`` /
        ``pointwise_solves`` (see :func:`repro.runtime.pool.run_jobs`).
    """

    stages: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    mode: str = "serial"
    workers: int = 1
    resources: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``.

        With observability enabled the block also runs inside a
        ``runtime.<name>`` span and the elapsed time is observed on the
        global ``repro_runtime_stage_seconds`` histogram.
        """
        start = time.perf_counter()
        try:
            with obs_trace.span("runtime." + name):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed
            if obs_trace.enabled():
                obs_metrics.histogram(
                    "repro_runtime_stage_seconds",
                    "Engine stage wall time per run_jobs call",
                ).observe(elapsed, stage=name)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created on first use).

        Mirrored into the global registry as
        ``repro_runtime_events_total{event=name}`` when observability
        is enabled.
        """
        self.counters[name] = self.counters.get(name, 0) + amount
        if obs_trace.enabled():
            obs_metrics.counter(
                "repro_runtime_events_total",
                "Engine event counts across all run_jobs calls",
            ).inc(amount, event=name)

    def account(self, name: str, amount: float) -> None:
        """Accumulate ``amount`` into resource ``name`` (summing).

        Mirrored as ``repro_job_resources{resource=name}`` gauges when
        observability is enabled (job-labelled inside a JobContext).
        """
        self.resources[name] = self.resources.get(name, 0.0) + amount
        if obs_trace.enabled():
            obs_metrics.gauge(
                "repro_job_resources",
                "Accumulated resource usage of the current run",
            ).set(self.resources[name], resource=name)

    def account_peak(self, name: str, value: float) -> None:
        """Track the maximum of ``value`` seen for resource ``name``."""
        if value <= self.resources.get(name, 0.0):
            return
        self.resources[name] = value
        if obs_trace.enabled():
            obs_metrics.gauge(
                "repro_job_resources",
                "Accumulated resource usage of the current run",
            ).set(value, resource=name)

    def resource_snapshot(self) -> Dict[str, float]:
        """Resources plus the cache/job counters a progress consumer
        wants in one place (service ``progress`` events ship this)."""
        snapshot = dict(sorted(self.resources.items()))
        for name in (
            "jobs_executed", "cache_hits", "cache_misses", "retries",
            "worker_failures",
        ):
            if name in self.counters:
                snapshot[name] = self.counters[name]
        return snapshot

    # ------------------------------------------------------------------
    @property
    def jobs_per_second(self) -> float:
        """Executed-job throughput over the execute stage (0 when idle)."""
        elapsed = self.stages.get("execute", 0.0)
        executed = self.counters.get("jobs_executed", 0)
        return executed / elapsed if elapsed > 0 else 0.0

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded stage wall times."""
        return sum(self.stages.values())

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (stable key order for cache-key safety)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "jobs_per_second": self.jobs_per_second,
            "mode": self.mode,
            "resources": dict(sorted(self.resources.items())),
            "stages": dict(sorted(self.stages.items())),
            "total_seconds": self.total_seconds,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rebuild a snapshot produced by :meth:`to_dict`."""
        return cls(
            stages=dict(data.get("stages", {})),
            counters=dict(data.get("counters", {})),
            mode=str(data.get("mode", "serial")),
            workers=int(data.get("workers", 1)),
            resources=dict(data.get("resources", {})),
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the snapshot as JSON; returns the written path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunMetrics":
        """Load a snapshot written by :meth:`save`."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
