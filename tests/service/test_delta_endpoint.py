"""The incremental ``/delta`` path: SolveService.submit_delta and the
HTTP route."""

import threading

import pytest

from repro.online import ProblemSession
from repro.service import ServiceClient, ServiceError, SolveService
from repro.service.codec import problem_fingerprint
from repro.service.server import CoschedHTTPServer


def _base_and_perturbed(n=12, seed_rate=0.2):
    session = ProblemSession(
        jobs=[(f"j{i}", seed_rate + 0.04 * (i % 9)) for i in range(n)],
        saturation=4.0,
    )
    base = session.build_problem()
    session.arrive("late", 0.61)
    session.depart("j1")
    return base, session.build_problem()


@pytest.fixture()
def http_service():
    service = SolveService(workers=1)
    service.start()
    server = CoschedHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.url
    finally:
        server.shutdown()
        service.stop()


def test_submit_delta_miss_then_hit():
    base, new = _base_and_perturbed()
    service = SolveService(workers=1)
    service.start()
    try:
        # Base never solved: the delta request still resolves (the repair
        # solver escalates without stale state), recorded as a base miss.
        t_miss = service.submit_delta(base, new)
        assert t_miss.wait(30)
        doc = t_miss.to_dict()
        assert doc["state"] == "done"
        assert doc["base_hit"] is False
        assert doc["base_fingerprint"] == problem_fingerprint(base)

        t_base = service.submit(base)
        assert t_base.wait(30)
        t_hit = service.submit_delta(base, new)
        assert t_hit.wait(30)
        doc = t_hit.to_dict()
        assert doc["state"] == "done"
        assert doc["base_hit"] is True
        assert doc["objective"] is not None

        req = service.metrics()["requests"]
        assert req["deltas"] == 2
        assert req["delta_base_hits"] == 1
    finally:
        service.stop()


def test_submit_delta_solver_must_be_repair_capable():
    base, new = _base_and_perturbed()
    service = SolveService(workers=1)
    service.start()
    try:
        ticket = service.submit_delta(base, new, solver="repair?base=hastar")
        assert ticket.wait(30)
        assert ticket.to_dict()["state"] == "done"
    finally:
        service.stop()


def test_http_delta_roundtrip(http_service):
    _, url = http_service
    client = ServiceClient(url)
    base, new = _base_and_perturbed()
    client.solve(base)
    doc = client.delta(base, new, wait=30.0)
    assert doc["state"] == "done"
    assert doc["base_hit"] is True
    assert doc["base_fingerprint"] == problem_fingerprint(base)
    assert doc["fingerprint"] == problem_fingerprint(new)


def test_http_delta_requires_base_problem(http_service):
    import json
    import urllib.error
    import urllib.request

    from repro.service.codec import problem_to_dict

    _, url = http_service
    _, new = _base_and_perturbed()
    payload = json.dumps({"problem": problem_to_dict(new)}).encode()
    req = urllib.request.Request(
        url + "/delta", data=payload,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(req, timeout=10)
    assert exc.value.code == 400


def test_http_delta_rejects_bad_solver(http_service):
    _, url = http_service
    client = ServiceClient(url)
    base, new = _base_and_perturbed()
    with pytest.raises(ServiceError) as exc:
        client.delta(base, new, solver="not-a-solver")
    assert exc.value.status == 400
