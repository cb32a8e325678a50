"""MILP backend via scipy.optimize.milp (HiGHS).

Plays the role of CPLEX in the paper's Table III: the fastest available IP
solver, against which OA*'s efficiency advantage is measured.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.problem import CoSchedulingProblem
from .base import SolveResult, Solver
from .ip_model import build_formulation

__all__ = ["ScipyMILP"]


class ScipyMILP(Solver):
    """Solve the set-partitioning MILP with HiGHS branch-and-cut.

    Budget-aware via HiGHS's own deadline: a ``wall_time`` budget is
    forwarded as the MILP time limit (combined with ``time_limit`` when
    both are set).  If HiGHS stops at the deadline with a feasible
    incumbent, that schedule is returned with ``optimal=False``; with no
    incumbent the result is an explicit ``schedule=None`` plus the stop
    reason.  Node/eval budgets don't map onto HiGHS and are ignored.
    """

    name = "IP(milp)"

    def __init__(self, time_limit: Optional[float] = None, mip_rel_gap: float = 0.0):
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        from scipy.optimize import Bounds, LinearConstraint, milp

        budget = self._active_budget()
        form = build_formulation(problem)
        nv = form.n_vars
        constraints = [
            LinearConstraint(form.A_eq, form.b_eq, form.b_eq),
        ]
        if form.A_ub.shape[0] > 0:
            constraints.append(
                LinearConstraint(form.A_ub, -np.inf, form.b_ub)
            )
        lb = np.zeros(nv)
        ub = np.concatenate([np.ones(form.n_x), np.full(form.n_y, np.inf)])
        options = {"mip_rel_gap": self.mip_rel_gap}
        limits = [
            t for t in (self.time_limit, budget.budget.wall_time)
            if t is not None
        ]
        if limits:
            options["time_limit"] = min(limits)
        res = milp(
            c=form.cost,
            constraints=constraints,
            integrality=form.integrality(),
            bounds=Bounds(lb, ub),
            options=options,
        )
        # status 1 == iteration/time limit reached; an incumbent may exist.
        deadline_hit = res.status == 1
        if deadline_hit and budget.budget.wall_time is not None:
            budget.stop_reason = "wall_time"
        if (not res.success and not deadline_hit) or res.x is None:
            return SolveResult(
                solver=self.name,
                schedule=None,
                objective=float("inf"),
                time_seconds=0.0,
                stats={"status": res.status, "message": str(res.message)},
            )
        try:
            schedule = form.schedule_from_x(np.round(res.x[: form.n_x]))
        except (ValueError, AssertionError):
            if not deadline_hit:
                raise
            # Deadline tripped before HiGHS had an integral incumbent.
            return SolveResult(
                solver=self.name,
                schedule=None,
                objective=float("inf"),
                time_seconds=0.0,
                stats={"status": res.status, "message": str(res.message)},
            )
        from ..core.objective import evaluate_schedule

        ev = evaluate_schedule(problem, schedule)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=ev.objective,
            time_seconds=0.0,
            optimal=not deadline_hit,
            stats={
                "n_variables": nv,
                "n_subsets": form.n_x,
                "milp_objective": float(res.fun),
            },
        )
