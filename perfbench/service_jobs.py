"""service-jobs: two closed-loop HTTP clients against ``repro serve``.

Each operation submits a payload (``POST /jobs``), follows the job's
NDJSON event stream to its terminal state, then fetches the result.
Polling ``GET /jobs/{id}`` would put the poll interval into every
latency, so completion is taken from the stream instead.  The load
generator uses only the standard library; its own CPU time is not
counted.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import reduce
import reference
from common import (
    HERE,
    Tally,
    load_expected,
    median,
    process_cpu_seconds,
    process_peak_rss_mb,
    program_process,
)
from inputs import service_ops, service_pool

CLIENTS = 2
WARMUP_OPS = 10
#: Operations per requested second.  The server keeps every job it has
#: run, so a run times a fixed operation list rather than a fixed time:
#: the job table, and with it memory and garbage-collection work, is then
#: the same in every run of a seed.  With the server on a CPU of its own
#: a run on a 2-core VM lasts about the requested time (the service
#: completes 90 to 130 operations per second there).
OPS_PER_SECOND = 100
TRACED_JOBS = 40
#: The timed list is run in this many parts, with this many reference
#: units timed between parts.
PARTS = 50
REFERENCE_UNITS = 2
TERMINAL = ("done", "failed", "cancelled")

class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, scratch: str, tag: str) -> None:
        self.port_file = os.path.join(scratch, f"{tag}.port")
        self.cache_dir = os.path.join(scratch, f"{tag}-cache")
        self.log = open(os.path.join(scratch, f"{tag}.log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "-q", "serve", "--port", "0",
             "--port-file", self.port_file, "--cache-dir", self.cache_dir],
            stdout=subprocess.DEVNULL, stderr=self.log, **program_process(),
        )
        try:
            self.port = self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                with open(self.port_file, encoding="ascii") as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    port = int(text)
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=5)
                    try:
                        conn.request("GET", "/healthz")
                        if conn.getresponse().status == 200:
                            return port
                    finally:
                        conn.close()
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become healthy")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _request(port: int, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on its own connection, as ``repro.service.client``
    makes them.

    On a kept-alive connection the server's responses (headers and body
    written separately) meet Nagle's algorithm and the client's delayed
    ACK, which adds about 40 ms to every request.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _operation(port: int, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Submit, follow the event stream, fetch the result."""
    body = json.dumps(doc).encode()
    start = time.perf_counter()
    status, raw = _request(port, "POST", "/jobs", body)
    submitted = time.perf_counter()
    accepted_at = time.time()
    if status not in (200, 202):
        raise RuntimeError(f"POST /jobs returned {status}: {raw[:200]!r}")
    receipt = json.loads(raw)
    job_id, state = receipt["job_id"], receipt["state"]
    if state not in TERMINAL:
        status, raw = _request(port, "GET", f"/jobs/{job_id}/events")
        for line in raw.splitlines():
            event = json.loads(line)
            if event["event"] == "state":
                state = event["state"]
    result_start = time.perf_counter()
    status, raw = _request(port, "GET", f"/jobs/{job_id}/result")
    end = time.perf_counter()
    return {
        "job_id": job_id, "state": state, "status": status, "raw": raw,
        "latency": end - start, "submit_s": submitted - start,
        "result_s": end - result_start, "accepted_at": accepted_at,
        "deduplicated": receipt["deduplicated"],
    }


def run(seed: int, seconds: float, traced: bool, scratch: str,
        pace) -> Dict[str, Any]:
    """``pace()`` is called after each set-up, with no server running
    or with the measured one idle."""
    pool = service_pool()
    expected = load_expected("service.json")
    setup = []
    for tag in ("setup-a", "setup-b"):
        server = Server(scratch, tag)
        server.stop()
        setup.append(server.setup_s)
        pace()
    server = Server(scratch, "measured")
    setup.append(server.setup_s)
    try:
        pace()
        result = _drive(server, pool, expected, seed, seconds, traced,
                        scratch)
    finally:
        server.stop()
    result["setup"] = setup
    return result


def _drive(server, pool, expected, seed, seconds, traced, scratch):
    ops = list(itertools.islice(service_ops(seed),
                                WARMUP_OPS + round(seconds * OPS_PER_SECOND)))
    warmup, timed = ops[:WARMUP_OPS], ops[WARMUP_OPS:]
    lock = threading.Lock()
    records: List[Dict[str, Any]] = []
    errors: List[str] = []

    def check(op: Dict[str, Any]) -> Optional[str]:
        if op["state"] != "done" or op["status"] != 200:
            return f"job {op['job_id'][:12]} ended {op['state']}"
        return checks.check_doc(json.loads(op["raw"]),
                                   expected[str(op["index"])])

    for index, _resubmit in warmup:
        op = _operation(server.port, pool[index])
        op["index"] = index
        if check(op) is not None:
            errors.append("warm-up output wrong")

    def client_loop(part, number: int) -> None:
        try:
            while True:
                with lock:
                    item = next(part, None)
                if item is None:
                    return
                op = _operation(server.port, pool[item[0]])
                op["index"] = item[0]
                op["part"] = number
                with lock:
                    records.append(op)
        except Exception as exc:  # reported, and the run is not correct
            with lock:
                errors.append(f"client: {type(exc).__name__}: {exc}")

    # The list runs in parts; before the first part and after each one,
    # with the server idle, host-speed reference units are timed on its
    # CPU.
    window = loadgen_cpu = 0.0
    cpu_before = process_cpu_seconds(server.proc.pid)
    with reference.ComputeReference(**program_process()) as ref:
        if not traced:
            ref.measure(REFERENCE_UNITS)
        for number in range(PARTS):
            part = iter(timed[number * len(timed) // PARTS:
                              (number + 1) * len(timed) // PARTS])
            loadgen_before = time.process_time()
            begin = time.perf_counter()
            threads = [threading.Thread(target=client_loop,
                                        args=(part, number))
                       for _ in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window += time.perf_counter() - begin
            loadgen_cpu += time.process_time() - loadgen_before
            if not traced:
                ref.measure(REFERENCE_UNITS)
    cpu = process_cpu_seconds(server.proc.pid) - cpu_before

    # Outputs are checked after the window so the load generator takes
    # as little CPU as possible from the server while it is timed.
    tally, negative = Tally(), Tally()
    for op in records:
        problem = check(op)
        tally.record(problem)
        if problem is None and not negative.attempted:
            bad = checks.perturb_doc(json.loads(op["raw"]))
            if bad is not None:
                negative.record(checks.check_doc(
                    bad, expected[str(op["index"])]))
    result = {
        "latencies": [op["latency"] for op in records],
        "window_s": window,
        "reference": ref.result([op["part"] for op in records]),
        "cpu_s": cpu,
        "loadgen_cpu_s": loadgen_cpu,
        "peak_rss_mb": process_peak_rss_mb(server.proc.pid),
        "attempted": tally.attempted + len(errors),
        "failed": tally.failed + len(errors),
        "reasons": tally.reasons + errors[:5],
        "negative_control_counted": negative.failed == 1,
        "dedupe_hits": sum(op["deduplicated"] for op in records),
    }
    if traced:
        result.update(_layers(server, pool, records, scratch))
    return result


def _counter_totals(text: str, name: str, label: str) -> Dict[str, float]:
    """Sum a Prometheus counter's samples by one label's value."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith(name + "{"):
            continue
        labels, value = line[len(name) + 1:].rsplit("} ", 1)
        for pair in labels.split(","):
            key, _, raw = pair.partition("=")
            if key == label:
                key = raw.strip('"')
                totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def _layers(server, pool, records, scratch) -> Dict[str, Any]:
    fresh = [r for r in records if not r["deduplicated"]]
    step = max(len(fresh) // TRACED_JOBS, 1)
    sample = fresh[::step][:TRACED_JOBS]
    spans: List[Dict[str, Any]] = []
    queue_wait, run_s, results = [], [], []
    for record in sample:
        results.append(record["raw"].decode())
        _, raw = _request(server.port, "GET",
                          f"/jobs/{record['job_id']}/trace")
        job_spans = reduce.from_chrome(json.loads(raw))
        spans.extend(job_spans)
        for span in job_spans:
            if span["name"] == "service.job":
                queue_wait.append(
                    max(span["start"] - record["accepted_at"], 0.0))
                run_s.append(span["dur"])
    _, metrics_raw = _request(server.port, "GET", "/metrics")
    text = metrics_raw.decode()
    jobs = _counter_totals(text, "repro_service_jobs_total", "event")
    lookups = _counter_totals(text, "repro_cache_lookups_total", "outcome")
    by_name = reduce.self_by_name(spans)
    points = [s for s in spans if s["name"] == "dse.point"]
    n = len(sample)
    values = {
        "http.submit_s": median([r["submit_s"] for r in records]),
        "http.result_s": median([r["result_s"] for r in records]),
        "http.result_bytes": median([len(r["raw"]) for r in records]),
        "jobs.queue_wait_s": sum(queue_wait) / len(queue_wait),
        "jobs.run_s": median(run_s),
        "dse.points_per_op": len(points) / n,
        "pool.self_s": reduce.self_by_prefix(by_name, "runtime.") / n,
    }
    submitted = jobs.get("submitted", 0.0) + jobs.get("deduplicated", 0.0)
    if submitted:
        values["jobs.dedupe_ratio"] = jobs.get("deduplicated", 0.0) / submitted
    looked_up = lookups.get("hit", 0.0) + lookups.get("miss", 0.0)
    if looked_up:
        values["cache.hit_ratio"] = lookups.get("hit", 0.0) / looked_up
    # Per fault trial over whole campaigns, so batched and point-wise
    # trial execution are priced alike.
    campaigns = [s for s in spans if s["name"] == "faults.campaign"]
    trials = sum(s["attrs"].get("points", 0)
                 * s["attrs"].get("trials_per_point", 0) for s in campaigns)
    if trials:
        values["faults.trial_s"] = sum(s["dur"] for s in campaigns) / trials
    for metric, span_name in (("dse.point_s", "dse.point"),
                              ("cache.get_s", "cache.get"),
                              ("cache.put_s", "cache.put")):
        durations = [s["dur"] for s in spans if s["name"] == span_name]
        if durations:
            values[metric] = sum(durations) / len(durations)
    docs_file = os.path.join(scratch, "docs.json")
    with open(docs_file, "w", encoding="utf-8") as handle:
        json.dump({"payloads": [pool[r["index"]] for r in sample],
                   "results": results}, handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", "service-docs", "--docs", docs_file],
        capture_output=True, text=True, check=True, **program_process(),
    )
    values.update(json.loads(proc.stdout.split("RESULT ", 1)[1]))
    return {
        "layers": values,
        "ranking": reduce.rank_layers(by_name, n),
        "traced_ops": n,
    }
