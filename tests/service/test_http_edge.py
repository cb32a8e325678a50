"""The HTTP edge's error map: each malformed or refused request gets its
status, ``error`` and ``reason``, and leaves a kept-alive connection
usable."""

import http.client
import json
import socket
import threading

import pytest

from repro.service import SolveService, start_http_server
from repro.service.codec import problem_to_dict
from repro.workloads.synthetic import random_serial_instance

PROBLEM = problem_to_dict(random_serial_instance(6, seed=3))


def _doc(**fields):
    return json.dumps({"problem": PROBLEM, **fields}).encode()


def _raw(body, **literals):
    """``body`` with each field's value spliced in as a raw JSON literal
    (``1e400``, ``NaN``), which ``json.dumps`` would not write."""
    text = body.decode()
    for field, literal in literals.items():
        assert f'"{field}": 0' in text, field
        text = text.replace(f'"{field}": 0', f'"{field}": {literal}', 1)
    return text.encode()


def _slow(seed, wait):
    """A request whose ticket is still pending when the handler reaches
    ``wait``: a problem no other row submits, and a slow solver."""
    return json.dumps(dict(
        problem=problem_to_dict(random_serial_instance(16, "quad", seed=seed)),
        solver="oastar", budget={"wall_time": 2.0}, wait=wait,
    )).encode()


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
    ("priority_overflow", "POST", "/solve",
     _raw(_doc(priority=0), priority="1e400"), 400, "bad_request", None),
    ("max_expanded_overflow", "POST", "/solve",
     _raw(_doc(budget={"max_expanded": 0}), max_expanded="1e400"), 400,
     "bad_request", None),
    ("max_weight_evals_overflow", "POST", "/solve",
     _raw(_doc(budget={"max_weight_evals": 0}), max_weight_evals="1e400"),
     400, "bad_request", None),
    ("wall_time_nan", "POST", "/solve",
     _raw(_doc(budget={"wall_time": 0}), wall_time="NaN"), 400,
     "bad_request", None),
    ("wall_time_nan_string", "POST", "/solve",
     _doc(budget={"wall_time": "nan"}), 400, "bad_request", None),
    ("wait_above_timeout_max", "POST", "/solve",
     _slow(11, threading.TIMEOUT_MAX * 2), 400, "bad_request", None),
    ("wait_overflow", "POST", "/solve",
     _raw(_slow(12, 0), wait="1e400"), 400, "bad_request", None),
    ("wait_nan", "POST", "/solve", _raw(_doc(wait=0), wait="NaN"), 400,
     "bad_request", None),
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


def test_negative_content_length_is_refused_and_closed(served):
    # The body's end is unknown: the server answers 400 and closes,
    # rather than reading until the client gives up.
    host, _, port = served.url[len("http://"):].rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b"POST /solve HTTP/1.1\r\nHost: edge\r\n"
                     b"Content-Length: -1\r\n\r\n{}")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b'"bad_request"' in reply


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_unknown_route_with_unreadable_length_is_404_and_closed(served,
                                                                length):
    # The route does not exist whatever the body holds, so the answer is
    # its 404; the body's end is unknown, so the connection closes.
    host, _, port = served.url[len("http://"):].rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(b"POST /nowhere HTTP/1.1\r\nHost: edge\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n{}")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert b'"not_found"' in reply


def test_refused_wait_queues_nothing(served):
    before = served.service.metrics()["requests"]
    body = _slow(13, threading.TIMEOUT_MAX * 2)
    assert _exchange(served.url, "POST", "/solve", body)[0] == 400
    assert served.service.metrics()["requests"] == before


def test_draining_server_answers_503_with_retry_after():
    server, service = _start()
    try:
        assert service.drain(timeout=30.0) is True
        assert _exchange(server.url, "POST", "/solve", _doc()) == (
            503, "rejected", "draining", True)
    finally:
        _stop(server, service)
