"""End-to-end HTTP service test (acceptance criteria for PR 4).

Starts the stdlib server on an ephemeral port, submits N identical and M
distinct problems concurrently, and checks the full contract: identical
requests produce exactly one solver invocation (coalescing), a repeat
after completion is a cache hit with zero solver work, ``/metrics`` is
consistent with what happened, and an over-budget request is rejected
with a structured error body.  Only the standard library is involved in
transport (``http.server`` + ``urllib``).
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceError, SolveService
from repro.service.server import CoschedHTTPServer
from repro.solvers import Budget
from repro.workloads.synthetic import random_serial_instance

N_IDENTICAL = 4
M_DISTINCT = 2


@pytest.fixture()
def service_and_url():
    # Workers start only after the concurrent submissions land, which makes
    # the coalescing outcome deterministic (one primary, N-1 followers).
    service = SolveService(
        workers=1,
        default_solver="hill",
        per_request_budget=Budget(wall_time=30.0),
    )
    server = CoschedHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.url
    finally:
        server.shutdown()
        service.stop()


def test_end_to_end_coalescing_caching_metrics(service_and_url):
    service, url = service_and_url
    client = ServiceClient(url)
    identical = random_serial_instance(8, seed=101)
    distinct = [random_serial_instance(8, seed=200 + i)
                for i in range(M_DISTINCT)]
    budget = {"wall_time": 10.0}

    results = []
    errors = []

    def submit(problem):
        try:
            results.append(client.submit(problem, budget=budget))
        except Exception as exc:  # noqa: BLE001 — assert below, not here
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(identical,))
               for _ in range(N_IDENTICAL)]
    threads += [threading.Thread(target=submit, args=(p,)) for p in distinct]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert len(results) == N_IDENTICAL + M_DISTINCT
    assert all(r["state"] == "queued" for r in results)

    service.start()
    finals = [client.status(r["id"]) for r in results]
    deadline = 60.0
    t0 = time.monotonic()
    while any(f["state"] not in ("done", "failed") for f in finals):
        assert time.monotonic() - t0 < deadline
        time.sleep(0.05)
        finals = [client.status(r["id"]) for r in results]

    assert all(f["state"] == "done" for f in finals)
    dispositions = sorted(f["disposition"] for f in finals)
    # Exactly one primary solve for the identical group, the rest coalesced.
    assert dispositions.count("coalesced") == N_IDENTICAL - 1
    assert dispositions.count("solved") == 1 + M_DISTINCT
    # Coalesced followers share the primary's answer bit-for-bit.
    group_fp = next(f["fingerprint"] for f in finals
                    if f["disposition"] == "coalesced")
    group_objs = {f["objective"] for f in finals
                  if f["fingerprint"] == group_fp}
    assert len(group_objs) == 1
    assert sum(f["fingerprint"] == group_fp for f in finals) == N_IDENTICAL

    metrics = client.metrics()
    req = metrics["requests"]
    assert req["solves"] == 1 + M_DISTINCT     # one solver run per fingerprint
    assert req["coalesced"] == N_IDENTICAL - 1
    assert req["submitted"] == N_IDENTICAL + M_DISTINCT
    assert req["completed"] == N_IDENTICAL + M_DISTINCT
    assert metrics["queue"]["depth"] == 0
    assert metrics["queue"]["inflight"] == 0
    assert metrics["store"]["size"] == 1 + M_DISTINCT

    # Repeat after completion: cache hit, zero additional solver work.
    repeat = client.submit(identical, budget=budget)
    assert repeat["state"] == "done"
    assert repeat["disposition"] == "cache_hit"
    metrics2 = client.metrics()
    assert metrics2["requests"]["solves"] == req["solves"]  # unchanged
    assert metrics2["requests"]["cache_hits"] == 1
    assert metrics2["store"]["hits"] >= 1

    # Over-budget request: structured rejection, HTTP 429.
    with pytest.raises(ServiceError) as exc:
        client.submit(random_serial_instance(8, seed=999),
                      budget={"wall_time": 3600.0})
    assert exc.value.status == 429
    assert exc.value.payload["error"] == "rejected"
    assert exc.value.payload["reason"] == "request_budget"
    assert client.metrics()["requests"]["rejected"] == 1


def test_http_error_paths(service_and_url):
    service, url = service_and_url
    service.start()
    client = ServiceClient(url)

    with pytest.raises(ServiceError) as exc:
        client.status("req-unknown")
    assert exc.value.status == 404

    # Malformed problem document -> 400 with a structured body.
    req = urllib.request.Request(
        url + "/solve",
        data=json.dumps({"problem": {"format": "nope"}}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        urllib.request.urlopen(req, timeout=10)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as http_err:
        assert http_err.code == 400
        body = json.loads(http_err.read().decode())
        assert body["error"] == "bad_request"

    # Unknown solver -> 400 with the rejection body.
    with pytest.raises(ServiceError) as exc:
        client.submit(random_serial_instance(8, seed=1),
                      solver="not-a-solver")
    assert exc.value.status == 400
    assert exc.value.payload["reason"] == "unknown_solver"

    with pytest.raises(ServiceError) as exc:
        client.status("")  # GET /status/ with empty id
    assert exc.value.status == 404


def test_post_404_drains_body_and_keeps_connection_usable(service_and_url):
    service, url = service_and_url
    service.start()
    host, _, port = url[len("http://"):].rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        # POST with a body to an unknown route: the server must consume
        # the body before replying, or the next request on this HTTP/1.1
        # keep-alive connection would be parsed mid-body and desync.
        body = json.dumps({"junk": "x" * 4096}).encode()
        conn.request("POST", "/nope", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 404
        json.loads(resp.read().decode())
        conn.request("GET", "/metrics")
        resp2 = conn.getresponse()
        assert resp2.status == 200
        assert "requests" in json.loads(resp2.read().decode())
    finally:
        conn.close()


def test_wait_parameter_blocks_until_done(service_and_url):
    service, url = service_and_url
    service.start()
    client = ServiceClient(url)
    status = client.submit(random_serial_instance(8, seed=77),
                           budget={"wall_time": 10.0}, wait=30.0)
    assert status["state"] == "done"
    assert status["disposition"] == "solved"
    assert status["objective"] is not None


def test_draining_service_replies_503_with_retry_after():
    service = SolveService(workers=1, default_solver="pg")
    service.start()
    server = CoschedHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert service.drain(timeout=10.0) is True
        from repro.service.codec import problem_to_dict

        body = json.dumps(
            {"problem": problem_to_dict(random_serial_instance(6, seed=7))}
        ).encode()
        req = urllib.request.Request(
            server.url + "/solve", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 503
        assert int(err.value.headers["Retry-After"]) >= 1
        payload = json.loads(err.value.read())
        assert payload["reason"] == "draining"
    finally:
        server.shutdown()
        service.stop()


def test_keepalive_replies_do_not_wait_on_delayed_acks(service_and_url):
    # Same guard as the dispatcher's: no ~40 ms Nagle stall per reply on
    # a kept-alive connection.
    _, url = service_and_url
    host, _, port = url[len("http://"):].rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("GET", "/metrics")  # warm the connection
        conn.getresponse().read()
        t0 = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        assert time.perf_counter() - t0 < 0.2
    finally:
        conn.close()


def test_package_exports_one_server():
    import repro.service as service

    for gone in ("ShardedService", "start_dispatcher_server",
                 "DispatcherHTTPServer", "shard_for"):
        assert gone not in service.__all__
        assert not hasattr(service, gone)
    assert {"SolveService", "CoschedHTTPServer",
            "start_http_server"} <= set(service.__all__)
