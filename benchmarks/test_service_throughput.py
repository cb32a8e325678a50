"""Service throughput + warm-start acceptance bench (docs/SERVICE.md).

Two guarantees:

* **Throughput** — on a request stream where 50% of the fingerprints are
  duplicates and every request carries the same wall-time budget, the
  memoizing service (duplicates answered from the store/coalescing,
  distinct solves overlapped across workers) completes the stream at
  least 3x faster than solving every request back to back;
* **Warm-start quality** — at an equal deterministic budget, a
  LocalSearch run seeded with a cached incumbent matches or beats the
  cold-start objective (the store can only help, never hurt).

Run:  pytest benchmarks/test_service_throughput.py -s
"""

from __future__ import annotations

import time

from repro.core.objective import evaluate_schedule
from repro.service import SolveService
from repro.solvers import OSVP, Budget, SwapHillClimber
from repro.workloads.synthetic import random_serial_instance

#: Wall budget per request; exact O-SVP on N_JOBS serial jobs always
#: consumes it, so every solve has a deterministic ~PER_REQUEST_S duration
#: (the baseline asserts that each solve stopped on ``wall_time``).
PER_REQUEST_S = 0.2
N_JOBS = 16
N_DISTINCT = 6
WORKERS = 4


def _request_solver():
    return OSVP()


def _stream(seed0=400):
    """N_DISTINCT problems, each requested twice: 50% duplicate prints.

    Problem objects are rebuilt per request (fresh memo caches) so the
    baseline cannot accidentally benefit from in-problem memoization.
    """
    seeds = [seed0 + i for i in range(N_DISTINCT)] * 2
    return [random_serial_instance(N_JOBS, seed=s) for s in seeds]


class TestServiceThroughput:
    def test_memoizing_service_3x_faster_than_solve_every_request(self):
        budget = Budget(wall_time=PER_REQUEST_S)

        # Baseline: every request solved from scratch, back to back.
        t0 = time.perf_counter()
        baseline = [_request_solver().solve(p, budget=budget)
                    for p in _stream()]
        baseline_s = time.perf_counter() - t0
        # The premise: no solve finishes inside the budget.
        assert [r.budget_stopped for r in baseline] == (
            ["wall_time"] * len(baseline))

        # Service: same stream, same per-request budget.  Duplicates hit
        # the store (or coalesce while the primary is in flight); distinct
        # wall-budgeted solves overlap across the worker pool.
        svc = SolveService(workers=WORKERS, default_solver="osvp")
        requests = _stream()
        t0 = time.perf_counter()
        with svc:
            tickets = [svc.submit(p, budget=budget) for p in requests]
            for t in tickets:
                assert t.wait(60.0), t.state
        service_s = time.perf_counter() - t0

        metrics = svc.metrics()
        speedup = baseline_s / service_s
        print(f"\nservice throughput: {len(requests)} requests "
              f"({N_DISTINCT} distinct, 50% duplicates), "
              f"per-request budget {PER_REQUEST_S * 1e3:.0f}ms")
        print(f"  solve-every-request {baseline_s:.2f}s, "
              f"service {service_s:.2f}s -> {speedup:.1f}x "
              f"(solves {metrics['requests']['solves']}, cache hits "
              f"{metrics['requests']['cache_hits']}, coalesced "
              f"{metrics['requests']['coalesced']})")

        assert all(t.state == "done" for t in tickets)
        # Exactly one solver run per distinct fingerprint.
        assert metrics["requests"]["solves"] == N_DISTINCT
        assert (metrics["requests"]["cache_hits"]
                + metrics["requests"]["coalesced"]) == N_DISTINCT
        assert speedup >= 3.0, (
            f"memoizing service only {speedup:.2f}x faster "
            f"({baseline_s:.2f}s vs {service_s:.2f}s)"
        )
        # Sanity: the service's answers are real schedules on the same
        # instances (identical seeds -> identical objective space).
        assert len(baseline) == len(tickets)
        assert all(t.objective is not None for t in tickets)

    def test_warm_started_local_search_not_worse_at_equal_budget(self):
        problem = random_serial_instance(16, seed=500, saturation=0.7)
        budget_units = 150

        cold = SwapHillClimber().solve(
            problem, budget=Budget(max_expanded=budget_units),
        )
        problem.clear_caches()
        # The store's scenario: a previous (budget-stopped) answer becomes
        # the next run's incumbent, at the same budget.
        warm = SwapHillClimber().solve(
            problem,
            budget=Budget(max_expanded=budget_units),
            initial_schedule=cold.schedule,
        )
        cold_obj = evaluate_schedule(problem, cold.schedule).objective
        print(f"warm-start quality (n=16, {budget_units} evals): "
              f"cold {cold_obj:.4f} -> warm {warm.objective:.4f} "
              f"(improved={warm.stats['warm_start']['improved']})")
        assert warm.objective <= cold_obj + 1e-9
