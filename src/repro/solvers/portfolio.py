"""Solver portfolios — run several configurations, keep the best.

Different solver configurations (h strategies, beam widths, greedy seeds)
have complementary strengths, so running each and keeping the best
schedule is an easy quality/robustness win.  Members run one after another
in-process, so a wall-clock budget bounds the whole portfolio.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.problem import CoSchedulingProblem
from .base import Solver, SolveResult
from .greedy import PolitenessGreedy
from .hastar import HAStar

__all__ = ["PortfolioSolver"]


class PortfolioSolver(Solver):
    """Run every member solver on the problem; return the best schedule.

    Parameters
    ----------
    members:
        The solvers to run, in order.  Default: ``[HAStar(),
        PolitenessGreedy()]``.  Each starts from cleared problem caches.
    name:
        Display name; defaults to ``portfolio[<member count>]``.
    """

    def __init__(self, members: Optional[Sequence[Solver]] = None,
                 name: Optional[str] = None):
        if members is None:
            members = [HAStar(), PolitenessGreedy()]
        if not members:
            raise ValueError("portfolio needs at least one member")
        self.members = list(members)
        # A portfolio is only as scenario-capable as all of its members.
        caps = frozenset({"heterogeneous", "constraints"})
        for member in self.members:
            caps &= member.scenario_capabilities
        self.scenario_capabilities = caps
        self.name = name or f"portfolio[{len(self.members)}]"

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        budget = self._active_budget()
        results: List[SolveResult] = []
        for solver in self.members:
            # Each member sees whatever budget is left, so a deadline
            # bounds the whole portfolio, not each member.
            problem.clear_caches()
            sub_budget = budget.remaining() if budget.limited else None
            results.append(solver.solve(problem, budget=sub_budget))
        valid = [r for r in results if r.schedule is not None]
        best = min(valid or results, key=lambda r: r.objective)
        return SolveResult(
            solver=self.name,
            schedule=best.schedule,
            objective=best.objective,
            time_seconds=0.0,
            optimal=best.optimal,
            stats={
                "winner": best.solver,
                "member_objectives": {r.solver: r.objective for r in results},
                "member_times": {r.solver: r.time_seconds for r in results},
            },
        )
