"""Both tiers share one HTTP edge: the same request gets the same status
and error on a single-process server and on a 1-shard sharded tier, and
a dead shard hit by concurrent requests is replaced exactly once."""

import http.client
import json
import multiprocessing
import threading

import pytest

from repro.service import (
    ShardedService,
    SolveService,
    start_dispatcher_server,
    start_http_server,
)
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


def _start_tiers():
    service = SolveService(workers=1, default_solver="pg")
    sharded = ShardedService(shards=1, default_solver="pg")
    return {"single": (start_http_server(service), service),
            "sharded": (start_dispatcher_server(sharded), sharded)}


def _stop_tiers(tiers):
    for server, service in tiers.values():
        server.shutdown()
        server.server_close()
        service.stop()


@pytest.fixture(scope="module")
def tiers():
    tiers = _start_tiers()
    yield tiers
    _stop_tiers(tiers)


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_both_tiers_answer_alike(tiers, row):
    _, method, path, body, status, error, reason = row
    got = {name: _exchange(server.url, method, path, body)
           for name, (server, _) in tiers.items()}
    assert got["single"] == got["sharded"] == (status, error, reason,
                                               False)
    # A request the edge refuses never reaches (or "kills") a shard.
    dispatcher = tiers["sharded"][1].metrics()["dispatcher"]
    assert dispatcher["forward_errors"] == 0
    assert dispatcher["shed"] == 0


def test_draining_tiers_answer_503_with_retry_after():
    tiers = _start_tiers()
    try:
        for _, service in tiers.values():
            assert service.drain(timeout=30.0) is True
        got = {name: _exchange(server.url, "POST", "/solve", _doc())
               for name, (server, _) in tiers.items()}
        assert got["single"] == got["sharded"] == (503, "rejected",
                                                   "draining", True)
    finally:
        _stop_tiers(tiers)


def _live_shards():
    return {p.pid for p in multiprocessing.active_children()
            if p.name.startswith("cosched-shard-")}


def test_concurrent_failures_on_a_dead_shard_respawn_it_once():
    before = _live_shards()  # other tests' tiers may still be up
    svc = ShardedService(shards=1, default_solver="pg")
    try:
        svc.handles[0].kill()
        problem = random_serial_instance(6, seed=3)
        barrier = threading.Barrier(4)
        docs = []

        def client():
            barrier.wait()
            docs.append(svc.submit(problem, wait=30.0))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert len(docs) == 4
        assert all(d["state"] == "done" for d in docs)
        assert svc.metrics()["dispatcher"]["respawns"] == 1
        assert len(_live_shards() - before) == 1
    finally:
        svc.stop()
    assert not _live_shards() - before
