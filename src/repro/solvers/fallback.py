"""Fallback chains: exact first, degrade gracefully under a deadline.

The production pattern the co-scheduling literature converges on (Aupy et
al.; Papp et al.): wrap the exact method in a time-bounded anytime harness
and fall back to progressively cheaper solvers when it cannot finish.
:class:`FallbackChain` encodes it as a solver — the default chain is

    OA* (exact)  →  HA* (MER-trimmed)  →  PG (greedy)

Each stage runs with whatever slice of the chain's budget remains (wall
time keeps ticking across stages; expansion charges accumulate through the
stage results).  A stage that *completes* inside the budget ends the chain;
a stage that is budget-stopped contributes its best-so-far schedule as a
candidate and hands over.  The chain returns the best candidate seen, so a
deadline can only ever improve on the last resort's answer.  The final
stage should be cheap enough to always finish (PG ignores budgets), which
makes the chain total: some valid schedule always comes back.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.problem import CoSchedulingProblem
from .base import SolveResult, Solver
from .greedy import PolitenessGreedy
from .hastar import HAStar
from .oastar import OAStar

__all__ = ["FallbackChain"]

#: Solver stats keys that count one unit of budgeted work each; a stage's
#: total is charged against the chain budget so ``max_expanded`` spans the
#: whole cascade, not each stage afresh.
_WORK_KEYS = ("expanded", "bb_nodes", "partitions_examined", "evaluations")


class FallbackChain(Solver):
    """Run ``members`` in order, cascading on budget exhaustion.

    Parameters
    ----------
    members:
        Solvers from most to least ambitious.  Default:
        ``[OAStar(), HAStar(), PolitenessGreedy()]``.
    name:
        Display name; defaults to ``fallback[<member names>]``.
    """

    def __init__(
        self,
        members: Optional[Sequence[Solver]] = None,
        name: Optional[str] = None,
    ):
        if members is None:
            members = [OAStar(), HAStar(), PolitenessGreedy()]
        if not members:
            raise ValueError("fallback chain needs at least one member")
        self.members = list(members)
        # The chain handles exactly the scenarios every stage handles —
        # a cascade must be able to reach its last resort.
        caps = frozenset({"heterogeneous", "constraints"})
        for member in self.members:
            caps &= member.scenario_capabilities
        self.scenario_capabilities = caps
        self.name = name or (
            "fallback[" + " > ".join(m.name for m in self.members) + "]"
        )

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        budget = self._active_budget()
        tracer = problem.counters.tracer
        candidates: List[SolveResult] = []
        stages: List[dict] = []
        incumbent = self._warm_schedule  # chain's own warm start, if any
        for idx, member in enumerate(self.members):
            sub = member.solve(problem, budget=budget.remaining(),
                               initial_schedule=incumbent)
            if sub.schedule is not None:
                # Later (cheaper) stages inherit the best schedule so far,
                # so a fallback can only refine, never regress.
                incumbent = sub.schedule
            for key in _WORK_KEYS:
                work = sub.stats.get(key)
                if isinstance(work, (int, float)) and work > 0:
                    budget.charge(int(work))
                    break
            stages.append({
                "solver": member.name,
                "objective": (
                    None if math.isinf(sub.objective) else sub.objective
                ),
                "stopped": sub.budget_stopped,
                "time_seconds": sub.time_seconds,
            })
            if sub.schedule is not None:
                candidates.append(sub)
            if sub.schedule is not None and sub.budget_stopped is None:
                break  # finished inside the budget — no fallback needed
            if idx + 1 < len(self.members):
                reason = sub.budget_stopped or "no_schedule"
                if tracer is not None:
                    tracer.emit(
                        "fallback", solver=self.name,
                        from_solver=member.name,
                        to_solver=self.members[idx + 1].name,
                        reason=reason,
                    )
        budget.exhausted()  # record the sticky stop reason for the summary
        if not candidates:
            return SolveResult(
                solver=self.name,
                schedule=None,
                objective=math.inf,
                time_seconds=0.0,
                stats={"stages": stages},
            )
        best = min(candidates, key=lambda r: r.objective)
        return SolveResult(
            solver=self.name,
            schedule=best.schedule,
            objective=best.objective,
            time_seconds=0.0,
            optimal=best.optimal,
            stats={"winner": best.solver, "stages": stages},
        )
