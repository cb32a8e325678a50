"""Anytime solve budgets: bounded effort with a best-so-far answer.

The paper's headline comparison (Table III) is about *tractability*: OA*/HA*
finish where the IP formulations blow up.  In production the complementary
guarantee matters just as much — a solver that is about to blow up must stop
at a deadline and still hand back a valid schedule.  :class:`Budget` is that
deadline, expressed in any combination of three currencies:

* ``wall_time`` — seconds of wall clock from the start of the solve;
* ``max_expanded`` — solver work units (A* expansions, B&B nodes,
  brute-force leaves, local-search evaluations);
* ``max_weight_evals`` — node-weight evaluations recorded by the problem's
  :class:`~repro.perf.PerfCounters` (scalar + batched), a machine-neutral
  proxy for model cost.

:meth:`Solver.solve <repro.solvers.base.Solver.solve>` accepts
``budget=Budget(...)`` and arms a per-run :class:`BudgetState`; the solver's
inner loop polls :meth:`BudgetState.exhausted` and, when a limit trips,
returns its best valid schedule so far (A* greedily completes the most
promising partial path, branch-and-bound returns the incumbent, local search
returns the best visited).  ``SolveResult.stats["budget"]`` records why the
run stopped; :class:`~repro.solvers.fallback.FallbackChain` records the
same signal as the reason a stage handed over to the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Budget", "BudgetState"]

#: Counter names (on ``problem.counters``) that together count one weight
#: evaluation each — the currency ``max_weight_evals`` is charged in.
_WEIGHT_EVAL_COUNTERS = ("node_weight_scalar", "node_weight_batched",
                         "node_weight_direct")


@dataclass(frozen=True)
class Budget:
    """Immutable limit specification; ``None`` fields are unlimited."""

    wall_time: Optional[float] = None
    max_expanded: Optional[int] = None
    max_weight_evals: Optional[int] = None

    def __post_init__(self) -> None:
        # ``not x >= 0`` rather than ``x < 0``: NaN compares False both
        # ways, and a NaN limit would never trip.
        for field in ("wall_time", "max_expanded", "max_weight_evals"):
            value = getattr(self, field)
            if value is not None and not value >= 0:
                raise ValueError(f"{field} must be >= 0, not {value!r}")

    @property
    def limited(self) -> bool:
        return (
            self.wall_time is not None
            or self.max_expanded is not None
            or self.max_weight_evals is not None
        )

    def to_dict(self) -> Dict[str, float]:
        """The non-``None`` limits, for stats/trace payloads."""
        out: Dict[str, float] = {}
        if self.wall_time is not None:
            out["wall_time"] = self.wall_time
        if self.max_expanded is not None:
            out["max_expanded"] = self.max_expanded
        if self.max_weight_evals is not None:
            out["max_weight_evals"] = self.max_weight_evals
        return out


class BudgetState:
    """One armed budget: a :class:`Budget` plus the run's consumption.

    Created by :meth:`Solver.solve <repro.solvers.base.Solver.solve>` at the
    start of every run (an unlimited state when no budget is passed) and
    read by ``_solve`` implementations through ``self._active_budget()``.
    ``exhausted()`` is designed to sit in inner loops: with no limits armed
    it is three attribute checks, and the wall clock is only read when a
    wall limit exists.
    """

    def __init__(self, budget: Optional[Budget] = None, counters=None):
        self.budget = budget if budget is not None else Budget()
        self.counters = counters
        self.t0 = time.perf_counter()
        self.charged = 0
        self.stop_reason: Optional[str] = None
        self._evals0 = self._weight_evals()

    # ------------------------------------------------------------------ #

    def _weight_evals(self) -> int:
        if self.counters is None:
            return 0
        return sum(self.counters.count(n) for n in _WEIGHT_EVAL_COUNTERS)

    @property
    def limited(self) -> bool:
        return self.budget.limited

    def charge(self, amount: int = 1) -> None:
        """Record ``amount`` units of solver work (expansions, B&B nodes,
        evaluations …) against ``max_expanded``."""
        self.charged += amount

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def weight_evals(self) -> int:
        """Weight evaluations recorded since this state was armed."""
        return self._weight_evals() - self._evals0

    def exhausted(self) -> Optional[str]:
        """The stop reason (``"wall_time"`` / ``"expanded"`` /
        ``"weight_evals"``) once a limit trips, else ``None``.  Sticky: once
        non-``None`` it stays so."""
        if self.stop_reason is not None:
            return self.stop_reason
        b = self.budget
        if b.wall_time is not None and self.elapsed() >= b.wall_time:
            self.stop_reason = "wall_time"
        elif b.max_expanded is not None and self.charged >= b.max_expanded:
            self.stop_reason = "expanded"
        elif (
            b.max_weight_evals is not None
            and self.weight_evals() >= b.max_weight_evals
        ):
            self.stop_reason = "weight_evals"
        return self.stop_reason

    def remaining(self) -> Budget:
        """A fresh :class:`Budget` with whatever is left — how
        :class:`~repro.solvers.fallback.FallbackChain` hands the unused
        slice to its next stage.  Exhausted currencies clamp to zero."""
        b = self.budget
        wall = None if b.wall_time is None else max(0.0, b.wall_time - self.elapsed())
        nodes = (
            None if b.max_expanded is None
            else max(0, b.max_expanded - self.charged)
        )
        evals = (
            None if b.max_weight_evals is None
            else max(0, b.max_weight_evals - self.weight_evals())
        )
        return Budget(wall_time=wall, max_expanded=nodes, max_weight_evals=evals)

    def summary(self) -> Dict[str, object]:
        """The ``SolveResult.stats["budget"]`` payload."""
        return {
            "limits": self.budget.to_dict(),
            "stopped": self.stop_reason,
            "elapsed": self.elapsed(),
            "charged": self.charged,
            "weight_evals": self.weight_evals(),
        }
