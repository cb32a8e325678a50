"""Tests for the parallel-solving extension (the solver portfolio)."""

import pytest

from repro.parallel import PortfolioSolver
from repro.solvers import HAStar, PolitenessGreedy
from repro.workloads.synthetic import (
    random_interaction_instance,
    random_serial_instance,
)


class TestPortfolio:
    def test_picks_best_member(self):
        problem = random_interaction_instance(12, cluster="quad", seed=7)
        port = PortfolioSolver([HAStar(), PolitenessGreedy()])
        result = port.solve(problem)
        assert result.objective == min(
            result.stats["member_objectives"].values()
        )
        assert result.stats["winner"] in result.stats["member_objectives"]

    def test_portfolio_no_worse_than_any_member(self):
        problem = random_interaction_instance(12, cluster="quad", seed=8)
        ha = HAStar().solve(problem)
        problem.clear_caches()
        pg = PolitenessGreedy().solve(problem)
        problem.clear_caches()
        port = PortfolioSolver([HAStar(), PolitenessGreedy()]).solve(problem)
        assert port.objective <= min(ha.objective, pg.objective) + 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PortfolioSolver([])

    def test_process_pool(self):
        problem = random_serial_instance(8, cluster="quad", seed=9)
        port = PortfolioSolver([HAStar(), PolitenessGreedy()], workers=2)
        result = port.solve(problem)
        assert result.schedule is not None
        assert result.schedule.n == problem.n
