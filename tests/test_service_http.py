"""End-to-end HTTP API: submit, stream, fetch, byte-identity with CLI."""

import json
import threading

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.obs.metrics import parse_prometheus
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager
from repro.service.server import serve

MC_PAYLOAD = {
    "kind": "montecarlo",
    "montecarlo": {"trials": 3, "seed": 1, "size": 8},
}


@pytest.fixture
def service():
    manager = JobManager()
    server = serve("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        "http://127.0.0.1:%d" % server.server_address[1]
    )
    yield client, manager
    server.shutdown()
    server.server_close()
    manager.shutdown()
    thread.join(timeout=5)


def test_healthz(service):
    client, _ = service
    assert client.healthz()


def test_submit_poll_result_and_dedupe(service, tmp_path):
    client, _ = service
    receipt = client.submit(MC_PAYLOAD)
    assert receipt["state"] in ("queued", "running", "done")
    assert receipt["deduplicated"] is False
    job_id = receipt["job_id"]

    status = client.wait(job_id, timeout=60)
    assert status["state"] == "done"
    assert status["done"] == status["total"] == 3

    body = client.result_bytes(job_id)
    doc = json.loads(body.decode("utf-8"))
    assert doc["schema"] == "service-result-v1"
    assert doc["kind"] == "montecarlo"
    assert len(doc["samples"]) == doc["summary"]["samples"]

    # Byte-identity with the CLI: the same parameters through
    # `repro montecarlo --output` must produce the same file.
    out = tmp_path / "cli.json"
    code = main([
        "-q", "montecarlo", "--trials", "3", "--seed", "1",
        "--size", "8", "--no-cache", "-o", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == body

    # Second identical submission: deduplicated, served from the
    # stored record without another engine run.
    again = client.submit(MC_PAYLOAD)
    assert again["deduplicated"] is True
    assert again["job_id"] == job_id
    assert client.result_bytes(job_id) == body


def test_event_stream_reaches_terminal_state(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    events = list(client.iter_events(job_id))
    assert events, "stream must deliver at least the state events"
    assert events[-1]["state"] == "done"
    progress = [e for e in events if e["event"] == "progress"]
    assert progress and progress[-1]["done"] == progress[-1]["total"] == 3
    # Resume after a checkpoint: only newer events come back.
    last_seq = events[-1]["seq"]
    tail = list(client.iter_events(job_id, after=last_seq - 1))
    assert [e["seq"] for e in tail] == [last_seq]


def test_malformed_payload_rejected_with_path(service):
    client, manager = service
    with pytest.raises(ValidationError) as excinfo:
        client.submit({"kind": "montecarlo",
                       "montecarlo": {"trials": "many"}})
    err = excinfo.value
    assert err.path == "montecarlo.trials"
    assert err.value == "many"
    assert manager.snapshot() == [], "rejected payloads must not enqueue"

    with pytest.raises(ValidationError) as excinfo:
        client.submit({"kind": "warp-drive"})
    assert excinfo.value.path == "kind"
    assert "montecarlo" in excinfo.value.allowed


def test_unknown_routes_and_jobs(service):
    client, _ = service
    with pytest.raises(ServiceError) as excinfo:
        client.status("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/nope")
    assert excinfo.value.status == 404


def test_result_conflict_until_done(service, monkeypatch):
    client, manager = service
    # Park the executor so the job stays queued.
    import repro.service.jobs as jobs_mod
    gate = threading.Event()
    original = jobs_mod.run_payload

    def slow(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", slow)
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    with pytest.raises(ServiceError) as excinfo:
        client.result_bytes(job_id)
    assert excinfo.value.status == 409
    gate.set()
    assert client.wait(job_id, timeout=60)["state"] == "done"


def test_cancel_endpoint(service, monkeypatch):
    client, _ = service
    import repro.service.jobs as jobs_mod
    gate = threading.Event()
    original = jobs_mod.run_payload

    def slow(payload, **kwargs):
        gate.wait(timeout=10)
        return original(payload, **kwargs)

    monkeypatch.setattr(jobs_mod, "run_payload", slow)
    blocker = client.submit(MC_PAYLOAD)["job_id"]
    queued = client.submit({
        "kind": "montecarlo",
        "montecarlo": {"trials": 3, "seed": 99, "size": 8},
    })["job_id"]
    reply = client.cancel(queued)
    assert reply["state"] == "cancelled"
    gate.set()
    assert client.wait(blocker, timeout=60)["state"] == "done"
    assert client.wait(queued, timeout=5)["state"] == "cancelled"


def test_event_stream_carries_eta_and_resources(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    events = list(client.iter_events(job_id))
    progress = [e for e in events if e["event"] == "progress"]
    dones = [e["done"] for e in progress]
    assert dones == sorted(dones), "done must be monotone"
    for event in progress:
        assert "eta_seconds" in event and "throughput" in event
    # Once work has completed, the estimate is a finite number.
    completed = [e for e in progress if e["done"] > 0]
    assert completed
    for event in completed:
        assert event["eta_seconds"] is not None
        assert event["eta_seconds"] < float("inf")
    final = progress[-1]
    assert final["done"] == final["total"] == 3
    assert final["eta_seconds"] == 0.0
    resources = final["resources"]
    assert resources["wall_seconds"] > 0
    assert resources["jobs_executed"] >= 1
    # The final done==total progress precedes the terminal state.
    assert events.index(final) < events.index(events[-1])
    assert events[-1]["event"] == "state"
    assert events[-1]["state"] == "done"


def test_per_job_metrics_endpoint(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    doc = client.job_metrics(job_id)
    assert doc["job_id"] == job_id
    assert doc["state"] == "done"
    assert doc["families"], "a finished job has metric samples"
    assert doc["resources"]["jobs_executed"] == 3
    assert doc["run"]["counters"]["jobs_executed"] == 3
    text = client.job_metrics_text(job_id)
    families = parse_prometheus(text)
    assert families
    for family in families.values():
        for (_, labels) in family["samples"]:
            assert ("job", job_id) in labels, (
                "every per-job sample must carry the job label"
            )


def test_per_job_trace_endpoint_and_isolation():
    """Two jobs running concurrently must yield disjoint per-job
    traces with zero span leakage between them."""
    manager = JobManager(workers=2)
    server = serve("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        "http://127.0.0.1:%d" % server.server_address[1]
    )
    try:
        first = client.submit(MC_PAYLOAD)["job_id"]
        second = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 4, "seed": 2, "size": 8},
        })["job_id"]
        client.wait(first, timeout=60)
        client.wait(second, timeout=60)
        traces = {}
        for job_id in (first, second):
            doc = client.job_trace(job_id)
            spans = [
                e for e in doc["traceEvents"] if e.get("ph") == "X"
            ]
            assert spans, "a finished job has a trace"
            names = {e["name"] for e in spans}
            assert "service.job" in names
            for event in spans:
                assert event["args"]["job"] == job_id, (
                    "span leaked across jobs"
                )
            traces[job_id] = {e["args"]["span_id"] for e in spans}
        assert not (traces[first] & traces[second])
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=5)


def test_global_cardinality_stable_across_jobs(service):
    """Completed jobs roll their label sets back into the base series,
    so the global scrape does not grow with job count."""
    client, _ = service

    def sample_count():
        families = parse_prometheus(client.metrics_text())
        return sum(len(f["samples"]) for f in families.values())

    counts = []
    for seed in (11, 12, 13):
        job_id = client.submit({
            "kind": "montecarlo",
            "montecarlo": {"trials": 3, "seed": seed, "size": 8},
        })["job_id"]
        client.wait(job_id, timeout=60)
        counts.append(sample_count())
    assert counts[0] == counts[1] == counts[2]
    assert 'job="' not in client.metrics_text()


def test_metrics_exposition(service):
    client, _ = service
    job_id = client.submit(MC_PAYLOAD)["job_id"]
    client.wait(job_id, timeout=60)
    text = client.metrics_text()
    families = parse_prometheus(text)
    assert "repro_service_jobs_total" in families
    samples = families["repro_service_jobs_total"]["samples"]
    submitted = [
        value for (name, labels), value in samples.items()
        if ("event", "submitted") in labels
    ]
    assert submitted and submitted[0] >= 1


def test_duplicate_json_keys_rejected_with_path(service):
    """Strict body parsing: a duplicate key is a structured 400.

    ``json.loads`` silently keeps the *last* binding, so a client
    typo like two ``montecarlo`` sections would previously run with
    whichever half survived; the strict parser refuses upfront and
    names the offending key's path.
    """
    import urllib.error
    import urllib.request

    client, manager = service
    body = (
        '{"kind": "montecarlo",'
        ' "montecarlo": {"trials": 2, "seed": 0, "size": 8},'
        ' "montecarlo": {"trials": 9999, "seed": 1, "size": 8}}'
    ).encode("utf-8")
    request = urllib.request.Request(
        client.base_url + "/jobs", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    response = excinfo.value
    assert response.code == 400
    error = json.loads(response.read().decode("utf-8"))["error"]
    assert error["path"] == "montecarlo"
    assert "duplicate" in error["message"]
    assert manager.snapshot() == [], "rejected payloads must not enqueue"


def test_each_response_is_one_socket_write(service, monkeypatch):
    """Headers and body leave in a single send on a kept-alive
    connection, so Nagle's algorithm has nothing to hold back."""
    import http.client
    import socket

    client, _ = service
    port = int(client.base_url.rsplit(":", 1)[1])
    main_thread = threading.current_thread()
    sends = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def counted(self, data, *args, _original=original, **kwargs):
            if threading.current_thread() is not main_thread:
                sends.append(len(data))
            return _original(self, data, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, counted)

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        for path in ("/healthz", "/jobs/no-such-job", "/healthz"):
            before = len(sends)
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            assert body
            assert len(sends) - before == 1, (path, sends[before:])
    finally:
        connection.close()
