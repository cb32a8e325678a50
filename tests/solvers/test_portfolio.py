"""Tests for the solver portfolio (run every member, keep the best)."""

import pytest

from repro.solvers import HAStar, PolitenessGreedy, PortfolioSolver
from repro.solvers.budget import Budget
from repro.workloads.synthetic import (
    random_interaction_instance,
    random_serial_instance,
)


class _BudgetRecorder(PolitenessGreedy):
    """PG that records the wall budget each run was handed."""

    def __init__(self, name):
        self.name = name
        self.seen = []

    def _solve(self, problem):
        self.seen.append(self._active_budget().budget.wall_time)
        return super()._solve(problem)


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

    def test_default_members_are_hastar_and_pg(self):
        port = PortfolioSolver()
        assert [type(m) for m in port.members] == [HAStar, PolitenessGreedy]

    def test_members_share_one_wall_budget(self):
        # Sequential members: each gets what is left, never a fresh slice.
        problem = random_serial_instance(8, cluster="quad", seed=9)
        first, second = _BudgetRecorder("a"), _BudgetRecorder("b")
        PortfolioSolver([first, second]).solve(
            problem, budget=Budget(wall_time=30.0),
        )
        assert 0 < second.seen[0] <= first.seen[0] <= 30.0

    def test_unbudgeted_members_run_unbudgeted(self):
        problem = random_serial_instance(8, cluster="quad", seed=9)
        member = _BudgetRecorder("a")
        PortfolioSolver([member]).solve(problem)
        assert member.seen == [None]
