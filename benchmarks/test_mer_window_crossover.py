"""Micro-benchmark: HA*'s MER window vs the lazy heap, around the row cap.

HA*'s trim on member-monotone models scores one MER window per expansion
when the window has at most ``levels.MER_WINDOW_MAX_ROWS`` rows, and
streams the lazy heap (one small kernel call per pop) above that.  This
times both at the root state of quad-core (k=3) and eight-core (k=7)
instances, at limits from hastar-n64's window up past the cap, and prints
rows, times and the heap/window ratio, so the cap can be re-checked on
another host or kernel backend.  Both paths return identical nodes;
``tests/graph/test_levels.py::TestMerWindow`` checks that.

Guard: the window is faster than the heap at the largest window the cap
admits, for each core count.

Run:  pytest benchmarks/test_mer_window_crossover.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.degradation import MissRatePressureModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import EIGHT_CORE_CLUSTER, QUAD_CORE_CLUSTER
from repro.core.problem import CoSchedulingProblem
from repro.graph import levels
from repro.graph.levels import SuccessorGenerator

REPEATS = 7


def root_problem(cluster, limit):
    """An n = u * limit serial instance, so HA*'s MER is ``limit``."""
    n = cluster.cores * limit
    jobs = [serial_job(i, f"j{i}") for i in range(n)]
    rates = np.random.default_rng(0).uniform(0.15, 0.75, size=n)
    model = MissRatePressureModel(rates, cores=cluster.cores, saturation=4.0)
    return CoSchedulingProblem(
        Workload(jobs, cores_per_machine=cluster.cores), cluster, model
    )


def rows(limit, k):
    return len(levels._mer_window(limit, k, limit + k - 1, 10**7))


def largest_admitted_limit(k):
    limit = 1
    while rows(limit + 1, k) <= levels.MER_WINDOW_MAX_ROWS:
        limit += 1
    return limit


def best_successors_time(problem, limit, cap, monkeypatch):
    """Best wall time of one root-state trim (1 warmup) under ``cap``."""
    monkeypatch.setattr(levels, "MER_WINDOW_MAX_ROWS", cap)
    gen = SuccessorGenerator(problem)
    state = tuple(range(problem.n))
    gen.successors(state, limit=limit)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        gen.successors(state, limit=limit)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("cluster", [QUAD_CORE_CLUSTER, EIGHT_CORE_CLUSTER],
                         ids=["quad", "eight"])
def test_window_beats_heap_within_the_cap(cluster, monkeypatch):
    k = cluster.cores - 1
    admitted = largest_admitted_limit(k)
    print(f"\n  {cluster.cores}-core (k={k}), cap "
          f"{levels.MER_WINDOW_MAX_ROWS} rows: largest admitted limit "
          f"{admitted}")
    ratios = {}
    for limit in sorted({16, admitted, admitted + 1, admitted + 3,
                         2 * admitted}):
        problem = root_problem(cluster, limit)
        t_win = best_successors_time(problem, limit, 10**7, monkeypatch)
        t_heap = best_successors_time(problem, limit, 0, monkeypatch)
        ratios[limit] = t_heap / t_win
        print(f"  limit {limit:>4d} {rows(limit, k):>7d} rows   "
              f"window {t_win * 1e3:8.2f} ms   heap {t_heap * 1e3:8.2f} ms"
              f"   heap/window {ratios[limit]:5.2f}")
    assert ratios[admitted] > 1.0, (
        f"heap beats the window at limit {admitted}: lower the cap"
    )
