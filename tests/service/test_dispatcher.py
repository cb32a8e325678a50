"""The sharded tier end to end: routing, caching, drain under load,
shed-to-heuristic correctness, dead-shard recovery, and the HTTP
frontend."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.objective import evaluate_schedule
from repro.service import (
    RequestRejected,
    ShardedService,
    shard_for,
    start_dispatcher_server,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.codec import (
    problem_fingerprint,
    problem_to_dict,
    schedule_from_dict,
)
from repro.workloads.synthetic import random_serial_instance


def make_problem(seed=0, n=6):
    return random_serial_instance(n, seed=seed)


def problems_on_distinct_shards(num_shards, count):
    """Problems whose fingerprints land on ``count`` distinct shards."""
    picked, seen, seed = [], set(), 0
    while len(picked) < count:
        p = make_problem(seed)
        seed += 1
        idx = shard_for(problem_fingerprint(p), num_shards)
        if idx not in seen:
            seen.add(idx)
            picked.append((idx, p))
        assert seed < 256
    return picked


class TestRoutingAndCaching:
    def test_submit_routes_by_fingerprint_and_prefixes_ids(self):
        with ShardedService(shards=2, default_solver="pg") as svc:
            p = make_problem(1)
            expect = shard_for(problem_fingerprint(p), 2)
            doc = svc.submit(p, wait=30.0)
            assert doc["shard"] == expect
            assert doc["id"].startswith(f"s{expect}-")
            assert doc["state"] == "done"

            # Same problem again: served from that shard's store.
            again = svc.submit(p, wait=30.0)
            assert again["shard"] == expect
            assert again["disposition"] == "cache_hit"

            status = svc.status(doc["id"])
            assert status["id"] == doc["id"]
            assert status["state"] == "done"

    def test_metrics_aggregate_across_shards(self):
        with ShardedService(shards=2, default_solver="pg") as svc:
            for seed in range(3):
                svc.submit(make_problem(seed), wait=30.0)
            m = svc.metrics()
            assert m["dispatcher"]["shards"] == 2
            assert m["dispatcher"]["routed"] == 3
            assert m["aggregate_requests"]["submitted"] == 3
            assert set(m["shards"]) == {"0", "1"}
            routed = m["dispatcher"]["per_shard_routed"]
            assert sum(routed.values()) == 3

    def test_unknown_ticket_ids(self):
        with ShardedService(shards=1, default_solver="pg") as svc:
            assert svc.status("shed-999")["error"] == "not_found"
            assert svc.status("nonsense")["error"] == "not_found"
            assert svc.status("s7-req-1")["error"] == "not_found"

    def test_rejects_unknown_solver_at_the_frontend(self):
        with ShardedService(shards=1, default_solver="pg") as svc:
            with pytest.raises(RequestRejected) as err:
                svc.submit(make_problem(0), solver="nonesuch")
            assert err.value.reason == "unknown_solver"


class TestDrain:
    def test_drain_finishes_inflight_work_no_hung_clients(self):
        svc = ShardedService(shards=2, default_solver="pg")
        results, errors = [], []

        def client(seed):
            try:
                results.append(svc.submit(make_problem(seed), wait=30.0))
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)

        assert svc.drain(timeout=30.0) is True
        assert not errors
        assert len(results) == 6
        assert all(d["state"] == "done" for d in results)

        # After the drain: no admissions, structured rejection.
        with pytest.raises(RequestRejected) as err:
            svc.submit(make_problem(99))
        assert err.value.reason == "draining"

    def test_drain_is_idempotent_and_stop_never_hangs(self):
        svc = ShardedService(shards=1, default_solver="pg")
        assert svc.drain(timeout=30.0) is True
        assert svc.drain(timeout=5.0) is True
        svc.stop()


class TestShedding:
    def test_sheds_on_dead_shard_with_valid_honest_answer(self):
        svc = ShardedService(shards=2, default_solver="pg", respawn=False)
        try:
            pairs = problems_on_distinct_shards(2, 2)
            # Kill one shard out from under the dispatcher.
            dead_idx, dead_problem = pairs[0]
            svc._handles[dead_idx].kill()

            doc = svc.submit(dead_problem, wait=30.0)
            assert doc["shed"] is True
            assert doc["disposition"] == "shed"
            assert doc["shed_reason"] == "shard_down"
            assert doc["id"].startswith("shed-")
            # The degraded answer is a real schedule with an honest
            # objective — spot-check against the evaluator.
            schedule = schedule_from_dict(doc["schedule"])
            ev = evaluate_schedule(dead_problem, schedule)
            assert doc["objective"] == pytest.approx(ev.objective)

            # The ticket is queryable like any other.
            assert svc.status(doc["id"])["shed"] is True

            # The healthy shard still solves normally.
            live_idx, live_problem = pairs[1]
            live = svc.submit(live_problem, wait=30.0)
            assert live["shard"] == live_idx
            assert live["disposition"] == "solved"

            m = svc.metrics()
            assert m["dispatcher"]["shed"] == 1
            assert m["dispatcher"]["forward_errors"] == 1
        finally:
            svc.stop()

    def test_respawns_dead_shard_and_recovers_its_store(self, tmp_path):
        path = str(tmp_path / "memo.jsonl")
        svc = ShardedService(shards=2, default_solver="pg",
                             store_path=path, respawn=True)
        try:
            pairs = problems_on_distinct_shards(2, 2)
            idx, problem = pairs[0]
            first = svc.submit(problem, wait=30.0)
            assert first["disposition"] == "solved"

            svc._handles[idx].kill()
            # First contact with the dead shard sheds and respawns it.
            shed = svc.submit(problem, wait=30.0)
            assert shed["shed"] is True

            # The replacement replayed the shared append log: the solved
            # problem is a warm cache hit, not a re-solve.
            end = time.monotonic() + 30.0
            while not svc._handles[idx].alive and time.monotonic() < end:
                time.sleep(0.05)
            doc = svc.submit(problem, wait=30.0)
            assert doc["shard"] == idx
            assert doc["disposition"] == "cache_hit"
            assert svc.metrics()["dispatcher"]["respawns"] == 1
        finally:
            svc.stop()

    def test_shard_queue_saturation_sheds_inside_the_shard(self):
        # One shard, one worker, queue of 1, slow-ish solves (exact OA* on
        # 24 jobs, stopped by a wall budget): concurrent submissions
        # overflow the lane and degrade to the shed chain rather than
        # bouncing with 429 queue_full.
        svc = ShardedService(shards=1, workers_per_shard=1, max_queue=1,
                             default_solver="oastar", shed_policy="pg")
        try:
            docs, errors = [], []

            def client(seed):
                try:
                    docs.append(svc.submit(make_problem(seed, n=24),
                                           budget={"wall_time": 0.5},
                                           wait=60.0))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(s,))
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            assert not errors
            assert len(docs) == 8
            assert all(d["state"] == "done" for d in docs)
            shed_docs = [d for d in docs if d.get("shed")]
            assert shed_docs, "saturation should have shed something"
            for d in shed_docs:
                assert d["disposition"] == "shed"
        finally:
            svc.stop()


class TestDispatcherHTTP:
    def test_http_frontend_end_to_end(self):
        svc = ShardedService(shards=2, default_solver="pg")
        server = start_dispatcher_server(svc)
        try:
            client = ServiceClient(server.url)
            p = make_problem(1)
            doc = client.solve(p)
            assert doc["state"] == "done"
            assert doc["shard"] in (0, 1)

            status = client.status(doc["id"])
            assert status["state"] == "done"

            m = client.metrics()
            assert m["dispatcher"]["routed"] >= 1

            with urllib.request.urlopen(server.url + "/health",
                                        timeout=10) as resp:
                health = json.loads(resp.read())
            assert health == {"shards": 2, "alive": 2,
                              "per_shard": {"0": True, "1": True},
                              "draining": False}
        finally:
            server.shutdown()
            svc.stop()

    def test_http_503_with_retry_after_while_draining(self):
        svc = ShardedService(shards=1, default_solver="pg")
        server = start_dispatcher_server(svc)
        try:
            assert svc.drain(timeout=30.0) is True
            body = json.dumps(
                {"problem": problem_to_dict(make_problem(0))}
            ).encode()
            req = urllib.request.Request(
                server.url + "/solve", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] is not None
            payload = json.loads(err.value.read())
            assert payload["reason"] == "draining"
        finally:
            server.shutdown()
            svc.stop()

    def test_http_bad_document_is_400(self):
        svc = ShardedService(shards=1, default_solver="pg")
        server = start_dispatcher_server(svc)
        try:
            req = urllib.request.Request(
                server.url + "/solve", data=b'{"problem": {"bogus": 1}}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
        finally:
            server.shutdown()
            svc.stop()

    def test_keepalive_replies_do_not_wait_on_delayed_acks(self):
        # Headers and body leave in separate writes; with Nagle's algorithm
        # on, each reply on a kept-alive connection stalls ~40 ms for the
        # client's delayed ACK.
        svc = ShardedService(shards=1, default_solver="pg")
        server = start_dispatcher_server(svc)
        host, _, port = server.url[len("http://"):].rpartition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("GET", "/health")  # warm the connection
            conn.getresponse().read()
            t0 = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/health")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            assert time.perf_counter() - t0 < 0.2
        finally:
            conn.close()
            server.shutdown()
            svc.stop()
