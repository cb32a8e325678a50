"""Tests for the swap hill climber."""

from repro.solvers import OAStar, PolitenessGreedy
from repro.solvers.local_search import SwapHillClimber
from repro.workloads.synthetic import (
    random_interaction_instance,
    random_serial_instance,
)


class TestHillClimber:
    def test_never_worse_than_greedy_start(self):
        problem = random_interaction_instance(12, cluster="quad", seed=0)
        hc = SwapHillClimber().solve(problem)
        problem.clear_caches()
        base = PolitenessGreedy().solve(problem).objective
        assert hc.objective <= base + 1e-9

    def test_bounded_below_by_optimum(self):
        problem = random_serial_instance(8, cluster="quad", seed=1)
        opt = OAStar().solve(problem).objective
        problem.clear_caches()
        hc = SwapHillClimber().solve(problem)
        assert hc.objective >= opt - 1e-9

    def test_reaches_optimum_on_tiny_instances(self):
        """With u=2 a swap-local optimum is globally optimal for additive
        matrices often; require it on at least half of small seeds."""
        hits = 0
        for seed in range(6):
            problem = random_serial_instance(6, cluster="dual", seed=seed)
            opt = OAStar().solve(problem).objective
            problem.clear_caches()
            hc = SwapHillClimber().solve(problem)
            if hc.objective <= opt + 1e-9:
                hits += 1
        assert hits >= 3

    def test_stats(self):
        problem = random_serial_instance(8, cluster="quad", seed=2)
        r = SwapHillClimber().solve(problem)
        assert r.stats["evaluations"] >= 1
        assert r.stats["passes"] >= 1
