"""The one solve pipeline: spec -> solver -> normalized report.

:func:`run_solve` is how every surface — CLI, HTTP service workers,
experiment runners — actually runs a solver.  It composes, in one place,
the plumbing the old call sites each hand-rolled differently:

* **resolution** — the spec string (or :class:`SolverSpec`, or an already
  constructed :class:`~repro.solvers.base.Solver`) becomes an instance via
  the registry;
* **tracing** — an optional :class:`~repro.perf.Tracer` is attached to
  ``problem.counters`` for the duration of the run and the *previous*
  tracer is restored on exit, success or failure (the old CLI left its
  tracer attached forever);
* **budget + warm start** — forwarded to ``solve()``, which owns the
  never-worse incumbent guarantee.

The outcome is a :class:`SolveReport` whose :meth:`~SolveReport.to_dict`
is the stable JSON shape shared by ``cosched solve --json``, the service
``GET /status/<id>`` payload, and the rows of any sweep over
:func:`run_solve` (``to_dict(include_schedule=False)``) — one spec string
produces equivalent report dicts on every surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..core.problem import CoSchedulingProblem
from ..perf import kernels as _kernels
from ..solvers.base import CapabilityError, Solver, SolveResult
from ..solvers.budget import Budget
from .registry import SolverSpec, SpecError, create_solver, parse_spec

__all__ = ["SolveReport", "run_solve"]


@dataclass
class SolveReport:
    """Normalized outcome of one :func:`run_solve` call.

    Wraps the raw :class:`~repro.solvers.base.SolveResult` (``result``)
    with the request context every surface needs to report: the canonical
    spec that produced it and the problem shape.
    """

    spec: str
    solver: str
    result: SolveResult
    n: int
    u: int

    # -- conveniences shared by every surface --------------------------- #

    @property
    def schedule(self):
        return self.result.schedule

    @property
    def objective(self) -> float:
        return self.result.objective

    @property
    def optimal(self) -> bool:
        return self.result.optimal

    @property
    def solve_seconds(self) -> float:
        return self.result.time_seconds

    @property
    def stopped(self) -> Optional[str]:
        """The tripped budget limit, or ``None`` for a complete run."""
        return self.result.budget_stopped

    @property
    def warm_started(self) -> bool:
        return "warm_start" in self.result.stats

    def to_dict(self, include_schedule: bool = True,
                include_stats: bool = False) -> Dict[str, object]:
        """The stable report document (see ``docs/RUNTIME.md``).

        ``schedule`` is the machine groups as pid lists (``None`` when the
        solve produced nothing); ``objective`` is ``None`` in that case
        too (JSON has no ``inf``).  ``stats`` is opt-in because solver
        stats are free-form and not guaranteed JSON-serializable.
        """
        schedule = self.result.schedule
        out: Dict[str, object] = {
            "spec": self.spec,
            "solver": self.solver,
            "n": self.n,
            "u": self.u,
            "objective": (
                None if math.isinf(self.result.objective)
                else self.result.objective
            ),
            "optimal": self.result.optimal,
            "solve_seconds": self.result.time_seconds,
            "stopped": self.stopped,
            "warm_started": self.warm_started,
            # Which batch-kernel backend scored this solve ("native" when
            # the compiled kernels are active, "numpy" on the generic
            # fallback or under COSCHED_NATIVE=0) — perf results are not
            # comparable across backends, so every report carries it.
            "kernel_backend": _kernels.active_backend(),
        }
        if include_schedule:
            out["schedule"] = (
                None if schedule is None
                else [list(g) for g in schedule.groups]
            )
        if include_stats:
            out["stats"] = dict(self.result.stats)
        return out


def run_solve(
    problem: CoSchedulingProblem,
    spec: Union[str, SolverSpec, Solver],
    *,
    budget: Optional[Budget] = None,
    tracer=None,
    warm_start=None,
) -> SolveReport:
    """Solve ``problem`` with the solver named by ``spec``.

    Parameters
    ----------
    spec:
        A registry spec string (``"hastar?mer=4"``), a parsed
        :class:`SolverSpec`, or an already constructed solver instance
        (the escape hatch for bespoke configurations; it bypasses the
        registry but still gets the session plumbing).
    budget:
        Optional :class:`~repro.solvers.budget.Budget`; budget-aware
        solvers stop at the limit and return their best-so-far schedule.
    tracer:
        Optional :class:`~repro.perf.Tracer`.  Attached to
        ``problem.counters`` for exactly the duration of this call; the
        previously attached tracer (usually ``None``) is restored on exit
        even when the solver raises.  The caller keeps ownership — the
        session never closes it.
    warm_start:
        Optional incumbent :class:`~repro.core.schedule.CoSchedule`;
        forwarded as ``initial_schedule`` (never-worse guarantee,
        ``stats["warm_start"]``).

    Raises
    ------
    SpecError
        When the spec does not resolve (unknown solver, malformed or
        rejected parameters), or when the problem carries scenario
        features (heterogeneous roster, constraints) the solver does not
        declare support for (reason ``"unsupported_scenario"`` — the
        solver must fail structurally, never return a wrong schedule).
        Solver-side failures propagate as-is.
    """
    if isinstance(spec, Solver):
        solver = spec
        spec_str = getattr(solver, "name", type(solver).__name__)
    else:
        parsed = parse_spec(spec) if isinstance(spec, str) else spec
        solver = create_solver(parsed)
        spec_str = parsed.canonical()
    # The instance's capabilities, not the registry entry's: the composite
    # solver (fallback?chain=...) narrows its own to the member
    # intersection, which can be stricter than the entry.
    declared = getattr(solver, "scenario_capabilities", frozenset())
    missing = problem.required_capabilities() - declared
    if missing:
        raise SpecError(
            "unsupported_scenario",
            f"solver {spec_str!r} does not support scenario feature(s) "
            f"{sorted(missing)} required by this problem; see "
            f"docs/SCENARIOS.md for the solver support matrix",
        )

    counters = getattr(problem, "counters", None)
    prev_tracer = getattr(counters, "tracer", None)
    if tracer is not None and counters is not None:
        counters.tracer = tracer
    try:
        result = solver.solve(problem, budget=budget,
                              initial_schedule=warm_start)
    except CapabilityError as exc:
        # Safety net: a solver that slipped past the declared-capability
        # checks still refuses structurally rather than mis-scheduling.
        raise SpecError("unsupported_scenario", str(exc)) from exc
    finally:
        # Restore whatever was attached before — the session must leave
        # the problem exactly as it found it.
        if tracer is not None and counters is not None:
            counters.tracer = prev_tracer
    return SolveReport(
        spec=spec_str,
        solver=result.solver,
        result=result,
        n=problem.n,
        u=problem.u,
    )

