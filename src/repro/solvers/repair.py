"""Incremental schedule repair over a perturbed problem.

The paper's interchangeability argument (Section III-E) makes small
perturbations cheap: when degradations are machine-local (serial jobs, no
communication, no node extra costs), the weight of a machine depends only
on its own coset, so every machine untouched by a delta keeps its optimal
membership and only the *perturbed* processes — arrivals, the former
co-runners of departures, and updated profiles — need re-placement.

:class:`RepairSolver` packages that argument as an ordinary registry
solver (``repair?base=hastar``).  Callers hand it the stale schedule's
surviving machine groups through the ``stale_partial`` attribute (new-pid
tuples, at most ``u`` members each — see
:func:`repro.online.delta.partial_from_base`); full groups are kept
verbatim, the rest of the processes form a reduced sub-problem solved by
the ``base`` spec through the :class:`RestrictedModel` adapter,
warm-started from the incomplete fragments.

Two guard rails hold on every call:

* **escalation** — with no usable partial, a non-separable problem
  (parallel/PC jobs, comm model, node extra costs), or a perturbed
  fraction above ``escalate_threshold``, the solver falls back to a full
  ``base`` solve warm-started from the completed stale schedule;
* **never worse than greedy-from-scratch** — a fresh
  :class:`~repro.solvers.greedy.PolitenessGreedy` schedule is computed on
  every call and returned instead whenever it beats the repaired one
  (``stats["greedy_guard"]`` records when that happened).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.degradation import RestrictedModel
from ..core.jobs import JobKind, Workload, serial_job
from ..core.objective import evaluate_schedule
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from .base import Solver, SolveResult
from .greedy import PolitenessGreedy

__all__ = ["RepairSolver", "RestrictedModel"]


def _complete_groups(fragments: Sequence[Sequence[int]],
                     n: int, u: int) -> List[List[int]]:
    """First-fit completion of partial groups into a full n/u-machine
    assignment.  Largest fragments are kept first; pids not covered fill
    the open slots in ascending order."""
    m = n // u
    groups = [list(g)[:u] for g in fragments if g]
    groups.sort(key=len, reverse=True)
    groups = groups[:m]
    assigned = {p for g in groups for p in g}
    while len(groups) < m:
        groups.append([])
    free = iter(p for p in range(n) if p not in assigned)
    for g in groups:
        while len(g) < u:
            g.append(next(free))
    return groups


class RepairSolver(Solver):
    """Repair a stale schedule instead of re-solving from scratch.

    Parameters
    ----------
    base:
        Spec of the solver used for the perturbed sub-problem (and for
        escalated full solves).  Must advertise ``supports_repair`` in the
        registry; otherwise construction raises a structured
        :class:`~repro.runtime.SpecError` with reason ``"repair_base"``.
    escalate_threshold:
        Perturbed-process fraction above which repair escalates to a full
        warm-started ``base`` solve (default 0.5).
    """

    def __init__(self, base: str = "hastar",
                 escalate_threshold: float = 0.5,
                 name: Optional[str] = None):
        # Lazy: the registry imports repro.solvers at module load, so a
        # top-level runtime import here would be circular.
        from ..runtime import SpecError, get_info, parse_spec

        if not 0.0 <= float(escalate_threshold) <= 1.0:
            raise ValueError("escalate_threshold must be in [0, 1]")
        parsed = parse_spec(str(base))
        info = get_info(parsed.name)
        if not info.supports_repair:
            raise SpecError(
                "repair_base",
                f"solver {parsed.name!r} does not support the repair path "
                f"(needs supports_repair=True in the registry)",
            )
        self.base_spec = parsed.canonical()
        self.escalate_threshold = float(escalate_threshold)
        self.name = name or f"repair({self.base_spec})"
        #: Surviving machine groups of the stale schedule, in this
        #: problem's pids (see :func:`repro.online.delta.partial_from_base`).
        #: Set by callers between construction and :meth:`solve`; ``None``
        #: means no stale state (full solve).
        self.stale_partial: Optional[Sequence[Tuple[int, ...]]] = None

    # ------------------------------------------------------------------ #

    def _separable(self, problem: CoSchedulingProblem) -> bool:
        """True when machine weights are provably machine-local, the
        precondition for keeping unaffected machines verbatim."""
        wl = problem.workload
        return (
            problem.comm is None
            and problem.node_extra_cost is None
            and all(wl.kind_of(p) is JobKind.SERIAL or wl.is_imaginary(p)
                    for p in range(wl.n))
        )

    def _usable_partial(self, problem: CoSchedulingProblem
                        ) -> List[Tuple[int, ...]]:
        """Validated, disjoint partial groups (malformed ones dropped)."""
        n, u = problem.n, problem.u
        seen: set = set()
        usable: List[Tuple[int, ...]] = []
        for group in (self.stale_partial or ()):
            g = tuple(sorted(int(p) for p in group))
            if not g or len(g) > u or len(set(g)) != len(g):
                continue
            if g[0] < 0 or g[-1] >= n or seen & set(g):
                continue
            seen |= set(g)
            usable.append(g)
        usable.sort(key=len, reverse=True)
        return usable[: n // u]

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        from ..runtime import create_solver

        n, u, m = problem.n, problem.u, problem.n_machines
        usable = self._usable_partial(problem)
        clean = [g for g in usable if len(g) == u]
        perturbed = n - u * len(clean)
        fraction = perturbed / n if n else 0.0
        escalated = (
            not self._separable(problem)
            or not clean
            or fraction > self.escalate_threshold
        )
        stats = {
            "base": self.base_spec,
            "perturbed_fraction": fraction,
            "escalated": escalated,
            "greedy_guard": False,
        }

        if escalated:
            warm = None
            if usable and self._separable(problem):
                warm = CoSchedule.from_groups(
                    _complete_groups(usable, n, u), u=u, n=n)
            base = create_solver(self.base_spec)
            res = base.solve(problem, initial_schedule=warm)
            schedule, objective, optimal = (
                res.schedule, res.objective, res.optimal)
            stats["machines_kept"] = 0
            stats["machines_resolved"] = m
        else:
            schedule, objective = self._repair(problem, clean, usable)
            optimal = False
            stats["machines_kept"] = len(clean)
            stats["machines_resolved"] = m - len(clean)

        guard = PolitenessGreedy().solve(problem)
        if schedule is None or guard.objective < objective - 1e-12 * (
            1.0 + abs(guard.objective)
        ):
            schedule, objective, optimal = (
                guard.schedule, guard.objective, False)
            stats["greedy_guard"] = True
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=objective,
            time_seconds=0.0,
            optimal=optimal,
            stats=stats,
        )

    def _repair(self, problem: CoSchedulingProblem,
                clean: List[Tuple[int, ...]],
                usable: List[Tuple[int, ...]],
                ) -> Tuple[CoSchedule, float]:
        """Keep ``clean`` machines, re-solve the rest as a sub-problem."""
        from ..runtime import create_solver

        n, u = problem.n, problem.u
        kept_pids = {p for g in clean for p in g}
        remaining = tuple(p for p in range(n) if p not in kept_pids)
        if not remaining:
            schedule = CoSchedule.from_groups(clean, u=u, n=n)
            return schedule, evaluate_schedule(problem, schedule).objective

        sub_idx = {orig: i for i, orig in enumerate(remaining)}
        sub_jobs = [
            serial_job(i, f"r{orig}") for i, orig in enumerate(remaining)
        ]
        sub_wl = Workload(sub_jobs, cores_per_machine=u)
        sub_problem = CoSchedulingProblem(
            sub_wl, problem.cluster, RestrictedModel(problem.model, remaining)
        )
        # Warm-start the sub-solve from the stale schedule's incomplete
        # fragments, first-fit completed — the repair analogue of warm
        # starting from the store.
        fragments = [
            [sub_idx[p] for p in g if p in sub_idx]
            for g in usable if len(g) < u
        ]
        warm_sub = CoSchedule.from_groups(
            _complete_groups(fragments, len(remaining), u),
            u=u, n=len(remaining),
        )
        base = create_solver(self.base_spec)
        sub = base.solve(sub_problem, initial_schedule=warm_sub)
        groups = list(clean) + [
            tuple(remaining[q] for q in grp) for grp in sub.schedule.groups
        ]
        schedule = CoSchedule.from_groups(groups, u=u, n=n)
        return schedule, evaluate_schedule(problem, schedule).objective
