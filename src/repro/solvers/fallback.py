"""Fallback chains: the one way to run several solvers under one budget.

The production pattern the co-scheduling literature converges on (Aupy et
al.; Papp et al.): wrap the exact method in a time-bounded anytime harness
and fall back to progressively cheaper solvers when it cannot finish.
:class:`FallbackChain` encodes it as a solver — the default chain is

    OA* (exact)  →  HA* (MER-trimmed)  →  PG (greedy)

One rule covers every stage:

* each stage starts from the best schedule so far (warm start) and runs
  with whatever slice of the chain's budget remains (wall time keeps
  ticking across stages; expansion charges accumulate through the stage
  results);
* the chain stops early only after a stage returns a proven optimum
  (``optimal=True``) — nothing can beat it.  Every other stage, finished
  or budget-stopped, hands over to the next, which can only refine;
* a stage that raises or returns no schedule also hands over; its
  ``stats["stages"]`` entry and its ``fallback`` trace event say why.

The chain returns the best schedule seen, so a deadline can only ever
improve on the last resort's answer.  If no stage produces a schedule the
last stage error is re-raised (or, when none raised, an empty result is
returned).  The same chain serves ``fallback?chain=hastar,hill`` (a
polish) and the service's shed policy (``--shed-solver pg,hill``).
"""

from __future__ import annotations

import math
import time
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
    """Run ``members`` in order, each warm-started from the best so far.

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
        best: Optional[SolveResult] = None
        winner_stage: Optional[int] = None
        last_error: Optional[Exception] = None
        stages: List[dict] = []
        incumbent = self._warm_schedule  # chain's own warm start, if any
        for idx, member in enumerate(self.members):
            stage = {"solver": member.name, "objective": None,
                     "optimal": False, "stopped": None}
            stages.append(stage)
            t0 = time.perf_counter()
            try:
                sub = member.solve(
                    problem,
                    budget=budget.remaining() if budget.limited else None,
                    initial_schedule=incumbent,
                )
            except Exception as exc:  # noqa: BLE001 — hand over, re-raise last
                last_error, sub = exc, None
                stage["error"] = f"{type(exc).__name__}: {exc}"
            stage["time_seconds"] = time.perf_counter() - t0
            if sub is None:
                reason = "error"
            else:
                for key in _WORK_KEYS:
                    work = sub.stats.get(key)
                    if isinstance(work, (int, float)) and work > 0:
                        budget.charge(int(work))
                        break
                stage["stopped"] = sub.budget_stopped
                if sub.schedule is not None:
                    stage.update(objective=sub.objective, optimal=sub.optimal)
                    if (best is None or sub.objective < best.objective
                            or (sub.optimal and not best.optimal)):
                        # Ties keep the earlier stage: a warm-started stage
                        # that only returned its incumbent did not make it.
                        best, winner_stage = sub, idx
                        incumbent = sub.schedule
                    if sub.optimal:
                        break  # a proven optimum: nothing can beat it
                reason = sub.budget_stopped or (
                    "no_schedule" if sub.schedule is None else "not_optimal")
            if idx + 1 < len(self.members) and tracer is not None:
                tracer.emit(
                    "fallback", solver=self.name,
                    from_solver=member.name,
                    to_solver=self.members[idx + 1].name,
                    reason=reason,
                )
        budget.exhausted()  # record the sticky stop reason for the summary
        if best is None:
            if last_error is not None:
                raise last_error
            return SolveResult(
                solver=self.name,
                schedule=None,
                objective=math.inf,
                time_seconds=0.0,
                stats={"stages": stages},
            )
        return SolveResult(
            solver=self.name,
            schedule=best.schedule,
            objective=best.objective,
            time_seconds=0.0,
            optimal=best.optimal,
            stats={"winner": best.solver, "winner_stage": winner_stage,
                   "stages": stages},
        )
