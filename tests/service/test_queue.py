"""SolveService: caching, coalescing, admission control, priorities,
warm starts, and the svc_* trace events."""

import io

import pytest

from repro.core.degradation import MissRatePressureModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import CLUSTERS
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.perf import Tracer
from repro.perf.tracer import trace_to_list
from repro.runtime.registry import REGISTRY, _replace_factory
from repro.service import RequestRejected, SolutionStore, SolveService
from repro.solvers import Budget, PolitenessGreedy
from repro.workloads.synthetic import random_serial_instance


def make_problem(seed=0, n=8):
    return random_serial_instance(n, seed=seed)


_RATES = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.72, 0.33]
_TIMES = [1.0, 2.0, 1.5, 3.0, 2.5, 1.2, 2.2, 1.7]


def relabeled_problem(order):
    """The same 8-serial-job content with jobs submitted in ``order``.

    Any two orders fingerprint identically but label their pids
    differently — the store must translate between them.
    """
    cl = CLUSTERS["quad"]
    jobs = [serial_job(i, f"job{k}") for i, k in enumerate(order)]
    wl = Workload(jobs, cores_per_machine=cl.cores)
    model = MissRatePressureModel(
        [_RATES[k] for k in order], kappa=0.4, saturation=0.8,
        single_times=[_TIMES[k] for k in order],
    )
    return CoSchedulingProblem(wl, cl, model)


def test_solve_then_cache_hit():
    with SolveService(workers=1, default_solver="hill") as svc:
        t1 = svc.submit(make_problem(1))
        assert t1.wait(30.0)
        assert t1.disposition == "solved"
        t2 = svc.submit(make_problem(1))
        assert t2.done  # resolved synchronously, no solver work
        assert t2.disposition == "cache_hit"
        assert t2.objective == t1.objective
        m = svc.metrics()
        assert m["requests"]["solves"] == 1
        assert m["requests"]["cache_hits"] == 1
        from repro.perf import kernels

        assert m["kernel_backend"] == kernels.active_backend()


def test_identical_requests_coalesce_to_one_solve():
    # Workers not started yet: submissions pile up deterministically.
    svc = SolveService(workers=1, default_solver="hill")
    primary = svc.submit(make_problem(2))
    followers = [svc.submit(make_problem(2)) for _ in range(3)]
    distinct = svc.submit(make_problem(3))
    svc.start()
    try:
        for t in [primary, distinct] + followers:
            assert t.wait(30.0), t.state
        assert primary.disposition == "solved"
        assert distinct.disposition == "solved"
        for f in followers:
            assert f.disposition == "coalesced"
            assert f.objective == primary.objective
        m = svc.metrics()
        assert m["requests"]["solves"] == 2          # one per fingerprint
        assert m["requests"]["coalesced"] == 3
        assert m["requests"]["submitted"] == 5
        assert m["rates"]["coalesce_rate"] == pytest.approx(3 / 5)
    finally:
        svc.stop()


def test_priority_lanes_order_the_queue():
    svc = SolveService(workers=1, default_solver="pg")
    order = []
    tickets = []
    for seed, prio in [(10, 5), (11, 0), (12, 2)]:
        tickets.append((svc.submit(make_problem(seed), priority=prio), prio))
    svc.start()
    try:
        for t, _ in tickets:
            assert t.wait(30.0)
    finally:
        svc.stop()
    # Resolution order follows priority: collect by ticket ids is racy, so
    # assert through lane bookkeeping instead: all lanes drained.
    assert svc.metrics()["queue"]["lanes"] == {}
    assert svc.metrics()["requests"]["solves"] == 3


def test_queue_full_rejection():
    svc = SolveService(workers=1, max_queue=2, default_solver="pg")
    svc.submit(make_problem(20))
    svc.submit(make_problem(21))
    with pytest.raises(RequestRejected) as exc:
        svc.submit(make_problem(22))
    assert exc.value.reason == "queue_full"
    assert svc.metrics()["requests"]["rejected"] == 1
    body = exc.value.to_dict()
    assert body["error"] == "rejected" and body["reason"] == "queue_full"
    svc.stop()


def test_per_request_budget_cap():
    svc = SolveService(
        workers=1, default_solver="pg",
        per_request_budget=Budget(wall_time=1.0),
    )
    with pytest.raises(RequestRejected) as exc:
        svc.submit(make_problem(30), budget=Budget(wall_time=5.0))
    assert exc.value.reason == "request_budget"
    with pytest.raises(RequestRejected):
        svc.submit(make_problem(30))  # unlimited under a cap: refused
    t = svc.submit(make_problem(30), budget=Budget(wall_time=0.5))
    assert t.state == "queued"
    svc.stop()


def test_global_budget_cap_commits_at_admission():
    svc = SolveService(
        workers=1, default_solver="pg",
        global_budget=Budget(max_expanded=100),
    )
    svc.submit(make_problem(40), budget=Budget(max_expanded=60))
    with pytest.raises(RequestRejected) as exc:
        svc.submit(make_problem(41), budget=Budget(max_expanded=60))
    assert exc.value.reason == "global_budget"
    # A smaller ask still fits the remaining 40.
    svc.submit(make_problem(41), budget=Budget(max_expanded=40))
    svc.stop()


def test_unknown_solver_rejected():
    svc = SolveService(workers=1)
    with pytest.raises(RequestRejected) as exc:
        svc.submit(make_problem(0), solver="does-not-exist")
    assert exc.value.reason == "unknown_solver"
    svc.stop()


def test_refine_warm_starts_from_cached_entry():
    store = SolutionStore()
    with SolveService(store=store, workers=1, default_solver="pg") as svc:
        t1 = svc.submit(make_problem(50), solver="pg")
        assert t1.wait(30.0)
        assert not t1.warm_started
        # refine=True bypasses the (non-optimal) cache entry and re-solves
        # with it as the incumbent.
        t2 = svc.submit(make_problem(50), solver="hill", refine=True)
        assert t2.wait(30.0)
        assert t2.disposition == "solved"
        assert t2.warm_started
        assert t2.objective <= t1.objective + 1e-9
        m = svc.metrics()
        assert m["requests"]["warm_starts"] == 1
        assert m["requests"]["solves"] == 2


def test_optimal_entries_are_final_even_under_refine():
    with SolveService(workers=1, default_solver="oastar") as svc:
        t1 = svc.submit(make_problem(60), solver="oastar")
        assert t1.wait(60.0)
        assert t1.optimal
        t2 = svc.submit(make_problem(60), solver="hill", refine=True)
        assert t2.done
        assert t2.disposition == "cache_hit"


def test_ticket_lookup_and_status_payload():
    with SolveService(workers=1, default_solver="pg") as svc:
        t = svc.submit(make_problem(70))
        assert t.wait(30.0)
        fetched = svc.ticket(t.ticket_id)
        assert fetched is t
        doc = fetched.to_dict()
        assert doc["state"] == "done"
        assert doc["disposition"] in ("solved", "cache_hit")
        assert doc["schedule"]["format"] == "repro.schedule"
        assert svc.ticket("req-does-not-exist") is None


def test_service_emits_svc_trace_events():
    sink = io.StringIO()
    tracer = Tracer(sink, flush_every=1)
    svc = SolveService(
        workers=1, default_solver="pg", max_queue=2, tracer=tracer,
    )
    primary = svc.submit(make_problem(80))
    svc.submit(make_problem(80))          # coalesces with primary
    svc.submit(make_problem(81))
    with pytest.raises(RequestRejected):
        svc.submit(make_problem(82))      # queue_full -> svc_reject
    svc.start()
    try:
        assert primary.wait(30.0)
        t = svc.submit(make_problem(80))  # now a cache hit
        assert t.done
        # A refine re-solve warm-starts from the cached entry.
        t2 = svc.submit(make_problem(80), solver="hill", refine=True)
        assert t2.wait(30.0)
    finally:
        svc.stop()
    events = [e["ev"] for e in trace_to_list(io.StringIO(sink.getvalue()))]
    for expected in ("svc_enqueue", "svc_coalesce", "svc_reject",
                     "svc_cache_hit", "svc_warm_start"):
        assert expected in events, (expected, events)


def test_cache_hit_serves_relabeled_submitter_in_its_own_labeling():
    with SolveService(workers=1, default_solver="hill") as svc:
        t1 = svc.submit(relabeled_problem(list(range(8))))
        assert t1.wait(30.0)
        p2 = relabeled_problem([3, 1, 4, 0, 5, 2, 7, 6])
        t2 = svc.submit(p2)
        assert t2.done and t2.disposition == "cache_hit"
        assert t2.objective == pytest.approx(t1.objective)
        # The served schedule must mean in p2's labeling what the cached
        # one meant in p1's: its true objective equals the reported one.
        assert evaluate_schedule(p2, t2.schedule).objective == \
            pytest.approx(t2.objective)


def test_coalesced_follower_gets_schedule_in_its_own_labeling():
    svc = SolveService(workers=1, default_solver="hill")
    p1 = relabeled_problem(list(range(8)))
    p2 = relabeled_problem([7, 6, 5, 4, 3, 2, 1, 0])
    primary = svc.submit(p1)
    follower = svc.submit(p2)
    svc.start()
    try:
        assert primary.wait(30.0) and follower.wait(30.0)
        assert follower.disposition == "coalesced"
        assert evaluate_schedule(p1, primary.schedule).objective == \
            pytest.approx(primary.objective)
        assert evaluate_schedule(p2, follower.schedule).objective == \
            pytest.approx(follower.objective)
    finally:
        svc.stop()


def test_warm_start_translates_incumbent_into_request_labeling():
    p1 = relabeled_problem(list(range(8)))
    p2 = relabeled_problem([2, 7, 0, 5, 3, 6, 1, 4])
    with SolveService(workers=1, default_solver="pg") as svc:
        t1 = svc.submit(p1, solver="pg")
        assert t1.wait(30.0)
        t2 = svc.submit(p2, solver="hill", refine=True)
        assert t2.wait(30.0)
        assert t2.disposition == "solved" and t2.warm_started
        assert t2.objective <= t1.objective + 1e-9
        assert evaluate_schedule(p2, t2.schedule).objective == \
            pytest.approx(t2.objective)


def test_jsonl_store_serves_relabeled_problem_after_restart(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    with SolveService(store=SolutionStore(path=path), workers=1,
                      default_solver="hill") as svc:
        t1 = svc.submit(relabeled_problem(list(range(8))))
        assert t1.wait(30.0)
    p2 = relabeled_problem([5, 2, 7, 0, 6, 1, 4, 3])
    with SolveService(store=SolutionStore(path=path), workers=1,
                      default_solver="hill") as svc2:
        t2 = svc2.submit(p2)
        assert t2.done and t2.disposition == "cache_hit"
        assert evaluate_schedule(p2, t2.schedule).objective == \
            pytest.approx(t2.objective)


def test_stop_fails_queued_primaries_and_their_followers():
    svc = SolveService(workers=1, default_solver="pg")
    # Workers never started: the primary stays queued, the follower
    # coalesces onto it; stop() must fail both or wait() hangs forever.
    primary = svc.submit(make_problem(95))
    follower = svc.submit(make_problem(95))
    assert follower.disposition is None  # still pending, attached
    svc.stop()
    assert primary.done and primary.state == "failed"
    assert follower.done and follower.state == "failed"
    assert follower.error == "service stopped"


def test_worker_failure_fails_ticket_and_followers(monkeypatch):
    def boom(**_params):
        raise RuntimeError("solver construction exploded")

    with monkeypatch.context() as m:
        m.setitem(REGISTRY, "pg", _replace_factory("pg", boom))
        svc = SolveService(workers=1, default_solver="pg")
        primary = svc.submit(make_problem(90))
        follower = svc.submit(make_problem(90))
        svc.start()
        try:
            assert primary.wait(30.0) and follower.wait(30.0)
            assert primary.state == "failed"
            assert follower.state == "failed"
            assert "exploded" in primary.error
            assert svc.metrics()["requests"]["errors"] == 1
        finally:
            svc.stop()
    # The failure must not poison the fingerprint: a retry with the
    # registry's working factory solves normally.
    with SolveService(workers=1, default_solver="pg") as svc2:
        retry = svc2.submit(make_problem(90))
        assert retry.wait(30.0)
        assert retry.state == "done"


# --------------------------------------------------------------------- #
# drain: the graceful-shutdown contract
# --------------------------------------------------------------------- #


def test_drain_finishes_admitted_work_then_rejects():
    svc = SolveService(workers=1, default_solver="pg")
    # Admit before the workers run: both the primary and its coalesced
    # follower are "admitted work" the drain must finish.
    primary = svc.submit(make_problem(41))
    follower = svc.submit(make_problem(41))
    svc.start()
    assert svc.drain(timeout=30.0) is True
    assert primary.done and primary.state == "done"
    assert follower.done and follower.state == "done"

    with pytest.raises(RequestRejected) as err:
        svc.submit(make_problem(42))
    assert err.value.reason == "draining"
    m = svc.metrics()
    assert m["queue"]["draining"] is True
    assert m["requests"]["rejected"] == 1
    svc.stop()


def test_drain_even_rejects_would_be_cache_hits():
    # Draining means *no new admissions at all* — simpler to operate and
    # to reason about than "reads still allowed": clients get one signal.
    with SolveService(workers=1, default_solver="pg") as svc:
        t = svc.submit(make_problem(43))
        assert t.wait(30.0)
        assert svc.drain(timeout=30.0) is True
        with pytest.raises(RequestRejected) as err:
            svc.submit(make_problem(43))
        assert err.value.reason == "draining"


def test_drain_emits_trace_event():
    sink = io.StringIO()
    tracer = Tracer(sink, flush_every=1)
    with SolveService(workers=1, default_solver="pg",
                      tracer=tracer) as svc:
        svc.drain(timeout=5.0)
        svc.drain(timeout=5.0)  # idempotent: one event, not two
    events = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
              if e["ev"] == "svc_drain"]
    assert len(events) == 1


# --------------------------------------------------------------------- #
# load shedding: degrade, don't reject
# --------------------------------------------------------------------- #


def test_queue_full_sheds_when_policy_armed():
    svc = SolveService(workers=1, max_queue=1, default_solver="pg",
                       shed_policy="pg")
    # Workers not started: the first submit occupies the only queue slot,
    # the second overflows and must shed instead of raising queue_full.
    first = svc.submit(make_problem(50))
    shed = svc.submit(make_problem(51))
    assert shed.done
    assert shed.disposition == "shed"
    assert shed.shed is True
    assert shed.to_dict()["shed"] is True
    # The shed answer is a real, honestly-scored schedule.
    problem = make_problem(51)
    ev = evaluate_schedule(problem, shed.schedule)
    assert shed.objective == pytest.approx(ev.objective)
    assert shed.solved_by == "PG"
    assert svc.store.lookup(shed.fingerprint).solver == "PG"
    # ... and it was recorded, so the next request is a cache hit.
    svc.start()
    assert first.wait(30.0)
    hit = svc.submit(make_problem(51))
    assert hit.disposition == "cache_hit"
    m = svc.metrics()
    assert m["requests"]["shed"] == 1
    assert m["queue"]["shed_policy"] == "pg"
    svc.stop()


def test_queue_full_still_rejects_without_policy():
    svc = SolveService(workers=1, max_queue=1, default_solver="pg")
    svc.submit(make_problem(60))
    with pytest.raises(RequestRejected) as err:
        svc.submit(make_problem(61))
    assert err.value.reason == "queue_full"
    svc.stop()


def test_shed_emits_trace_event():
    sink = io.StringIO()
    tracer = Tracer(sink, flush_every=1)
    svc = SolveService(workers=1, max_queue=1, default_solver="pg",
                       shed_policy="pg", tracer=tracer)
    svc.submit(make_problem(70))
    svc.submit(make_problem(71))
    svc.stop()
    events = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
              if e["ev"] == "svc_shed"]
    assert len(events) == 1
    assert events[0]["policy"] == "pg"
    assert events[0]["used"] == "pg"


def _shed_one(policy, problem, tracer=None):
    """Overflow a one-slot queue so ``problem`` is shed under ``policy``."""
    svc = SolveService(workers=1, max_queue=1, default_solver="pg",
                       shed_policy=policy, shed_budget=Budget(wall_time=60.0),
                       tracer=tracer)
    svc.submit(make_problem(80))
    try:
        return svc.submit(problem)
    finally:
        svc.stop()


def test_pg_hill_shed_polishes_below_pg():
    sink = io.StringIO()
    problem = random_serial_instance(32, "quad", seed=5, saturation=4.0)
    pg = evaluate_schedule(
        problem, PolitenessGreedy().solve(problem).schedule).objective
    shed = _shed_one("pg,hill", problem, Tracer(sink, flush_every=1))
    assert shed.disposition == "shed"
    assert shed.objective < pg - 1e-6
    assert shed.solved_by.startswith("hill")
    events = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
              if e["ev"] == "svc_shed"]
    assert events[0]["policy"] == "pg,hill"
    assert events[0]["used"] == "hill"


def test_shed_falls_through_a_raising_member(monkeypatch):
    class Boom(PolitenessGreedy):
        name = "boom"

        def _solve(self, problem):
            raise RuntimeError("stage exploded")

    monkeypatch.setitem(REGISTRY, "hill",
                        _replace_factory("hill", lambda **_: Boom()))
    sink = io.StringIO()
    shed = _shed_one("hill,pg", make_problem(81), Tracer(sink, flush_every=1))
    assert shed.state == "done" and shed.solved_by == "PG"
    events = trace_to_list(io.StringIO(sink.getvalue()))
    assert [e["used"] for e in events if e["ev"] == "svc_shed"] == ["pg"]


def test_shed_event_names_the_stages_that_raised(monkeypatch):
    class Boom(PolitenessGreedy):
        name = "boom"

        def _solve(self, problem):
            raise RuntimeError("stage exploded")

    monkeypatch.setitem(REGISTRY, "hill",
                        _replace_factory("hill", lambda **_: Boom()))
    sink = io.StringIO()
    shed = _shed_one("pg,hill", make_problem(82), Tracer(sink, flush_every=1))
    assert shed.state == "done" and shed.solved_by == "PG"
    events = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
              if e["ev"] == "svc_shed"]
    assert events[0]["used"] == "pg"
    assert events[0]["failed"] == [
        {"stage": "hill", "error": "RuntimeError: stage exploded"}]


def test_shed_event_has_no_failures_when_every_stage_runs():
    sink = io.StringIO()
    _shed_one("pg", make_problem(83), Tracer(sink, flush_every=1))
    events = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
              if e["ev"] == "svc_shed"]
    assert events[0]["failed"] == []


def test_shed_fails_ticket_when_every_member_raises(monkeypatch):
    def boom(**_params):
        raise RuntimeError("solver construction exploded")

    monkeypatch.setitem(REGISTRY, "pg", _replace_factory("pg", boom))
    shed = _shed_one("pg", make_problem(82))
    assert shed.state == "failed"
    assert "exploded" in shed.error


# --------------------------------------------------------------------- #
# Scenario problems through the service: capability admission, solving,
# and cache hits across machine relabelings.
# --------------------------------------------------------------------- #

def make_het_problem(seed=3, flipped=False):
    from repro.workloads.synthetic import random_heterogeneous_instance

    if flipped:
        return random_heterogeneous_instance(
            ("quad", "dual"), seed=seed, bandwidth_caps=(None, 1.5e9),
            clock_scaling=True,
        )
    return random_heterogeneous_instance(
        ("dual", "quad"), seed=seed, bandwidth_caps=(1.5e9, None),
        clock_scaling=True,
    )


def test_scenario_unsupported_solver_rejected_at_admission():
    with SolveService(workers=1, default_solver="hill") as svc:
        with pytest.raises(RequestRejected) as err:
            svc.submit(make_het_problem(), solver="ip")
        assert err.value.reason == "unsupported_scenario"
        # Nothing was enqueued: the worker never saw the request.
        assert svc.metrics()["requests"]["solves"] == 0


def test_scenario_solve_and_cache_hit():
    with SolveService(workers=1, default_solver="hill?seed=0") as svc:
        t1 = svc.submit(make_het_problem())
        assert t1.wait(60.0)
        assert t1.disposition == "solved"
        assert t1.schedule is not None
        assert sorted(t1.schedule.capacities) == [2, 4]

        t2 = svc.submit(make_het_problem())
        assert t2.done
        assert t2.disposition == "cache_hit"
        assert t2.objective == pytest.approx(t1.objective)


def test_scenario_cache_hit_across_machine_reordering():
    base = make_het_problem()
    flipped = make_het_problem(flipped=True)
    with SolveService(workers=1, default_solver="hill?seed=0") as svc:
        t1 = svc.submit(base)
        assert t1.wait(60.0)
        t2 = svc.submit(flipped)
        assert t2.done
        assert t2.disposition == "cache_hit"
        # The served schedule is re-localized to the submitter's machine
        # numbering (flipped roster: quad first) and scores identically.
        assert t2.schedule.capacities == flipped.capacities
        assert evaluate_schedule(
            flipped, t2.schedule
        ).objective == pytest.approx(t1.objective)


def test_one_canonicalization_per_request(monkeypatch):
    from repro.service import codec

    calls = []
    real = codec._canonical_jobs

    def counting(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(codec, "_canonical_jobs", counting)
    with SolveService(workers=1, default_solver="pg") as svc:
        # Fingerprint, pid map and the record's translation.
        miss = svc.submit(relabeled_problem(list(range(8))))
        assert miss.wait(30.0) and miss.disposition == "solved"
        assert len(calls) == 1
        # Fingerprint, pid map and the localization of the stored schedule.
        hit = svc.submit(relabeled_problem([3, 1, 4, 0, 5, 2, 7, 6]))
        assert hit.disposition == "cache_hit"
        assert len(calls) == 2
        # A refine adds the warm start's translation.
        warm = svc.submit(relabeled_problem([1, 0, 3, 2, 5, 4, 7, 6]),
                          solver="hill", refine=True)
        assert warm.wait(30.0) and warm.warm_started
        assert len(calls) == 3
    shed_svc = SolveService(workers=1, max_queue=1, default_solver="pg",
                            shed_policy="pg")
    shed_svc.submit(make_problem(50))
    calls.clear()
    shed = shed_svc.submit(make_problem(51))
    assert shed.disposition == "shed"
    assert len(calls) == 1
    shed_svc.stop()
