"""The HTTP edge's error map: each malformed or refused request gets its
status, ``error`` and ``reason``, and leaves a kept-alive connection
usable."""

import http.client
import json

import pytest

from repro.service import SolveService, start_http_server
from repro.service.codec import problem_to_dict
from repro.workloads.synthetic import random_serial_instance

PROBLEM = problem_to_dict(random_serial_instance(6, seed=3))


def _doc(**fields):
    return json.dumps({"problem": PROBLEM, **fields}).encode()


# (id, method, path, body, status, error, reason)
ROWS = [
    ("invalid_json", "POST", "/solve", b"{not json", 400, "bad_request",
     None),
    ("non_object_body", "POST", "/solve", b"[1, 2]", 400, "bad_request",
     None),
    ("missing_problem", "POST", "/solve", b'{"solver": "pg"}', 400,
     "bad_request", None),
    ("unknown_budget_field", "POST", "/solve", _doc(budget={"cpu": 1}),
     400, "bad_request", None),
    ("non_object_budget", "POST", "/solve", _doc(budget=["wall_time"]),
     400, "bad_request", None),
    ("non_object_budget_delta", "POST", "/delta",
     _doc(base_problem=PROBLEM, budget=["wall_time"]), 400, "bad_request",
     None),
    ("unknown_solver", "POST", "/solve", _doc(solver="nonesuch"), 400,
     "rejected", "unknown_solver"),
    ("post_unknown_route", "POST", "/nowhere", _doc(), 404, "not_found",
     None),
    ("status_unknown_id", "GET", "/status/nope-1", None, 404, "not_found",
     None),
]


def _exchange(url, method, path, body):
    """One request, then a GET /metrics on the same kept-alive
    connection: every reply must leave the connection usable."""
    host, _, port = url[len("http://"):].rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        got = (resp.status, payload.get("error"), payload.get("reason"),
               resp.getheader("Retry-After") is not None)
        conn.request("GET", "/metrics")
        follow = conn.getresponse()
        follow.read()
        assert follow.status == 200
        return got
    finally:
        conn.close()


def _start():
    service = SolveService(workers=1, default_solver="pg")
    return start_http_server(service), service


def _stop(server, service):
    server.shutdown()
    server.server_close()
    service.stop()


@pytest.fixture(scope="module")
def served():
    server, service = _start()
    yield server
    _stop(server, service)


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_edge_answers(served, row):
    _, method, path, body, status, error, reason = row
    assert _exchange(served.url, method, path, body) == (status, error,
                                                         reason, False)


def test_draining_server_answers_503_with_retry_after():
    server, service = _start()
    try:
        assert service.drain(timeout=30.0) is True
        assert _exchange(server.url, "POST", "/solve", _doc()) == (
            503, "rejected", "draining", True)
    finally:
        _stop(server, service)
