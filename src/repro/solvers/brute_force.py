"""Exhaustive search over all co-schedules — ground truth for tests.

Enumerates every partition of the n processes into n/u unordered groups of
size u (each recursion step places the smallest unplaced pid, which
canonicalizes group order) and returns the minimum-objective schedule.
Only viable for tiny n — it is the oracle the fast solvers are validated
against, not a practical scheduler.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from ..core.jobs import JobKind
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from .base import SolveResult, Solver

__all__ = ["BruteForce", "count_partitions", "count_het_assignments"]


def count_partitions(n: int, u: int) -> int:
    """Number of partitions of n items into n/u unordered u-sets:
    ``n! / ((u!)^(n/u) * (n/u)!)``."""
    if n % u != 0:
        raise ValueError("n must divide by u")
    m = n // u
    return math.factorial(n) // (math.factorial(u) ** m * math.factorial(m))


def count_het_assignments(problem: CoSchedulingProblem) -> int:
    """Number of distinct machine assignments of a scenario problem:
    the multinomial over capacities, divided by ``r!`` per run of ``r``
    fully interchangeable machines (equal :meth:`machine_identity
    <repro.core.problem.CoSchedulingProblem.machine_identity>`)."""
    total = math.factorial(problem.n)
    for cap in problem.capacities:
        total //= math.factorial(cap)
    runs: Dict[Tuple, int] = {}
    for k in range(problem.n_machines):
        identity = problem.machine_identity(k)
        runs[identity] = runs.get(identity, 0) + 1
    for r in runs.values():
        total //= math.factorial(r)
    return total


class _BudgetStop(Exception):
    """Internal: unwinds the enumeration recursion when a budget trips."""


class BruteForce(Solver):
    """Exact enumeration; refuses instances with too many partitions.

    Budget-aware: the budget is polled after each complete partition, so a
    budgeted run always returns the best of the partitions it managed to
    examine (at least one — the depth-first order reaches a leaf before any
    limit can trip).
    """

    name = "brute-force"
    scenario_capabilities = frozenset({"heterogeneous", "constraints"})

    def __init__(self, max_partitions: int = 2_000_000):
        self.max_partitions = max_partitions

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        if problem.is_scenario:
            return self._solve_scenario(problem)
        n, u = problem.n, problem.u
        total = count_partitions(n, u)
        if total > self.max_partitions:
            raise ValueError(
                f"{total} partitions exceeds limit {self.max_partitions}"
            )
        budget = self._active_budget()
        tracer = problem.counters.tracer
        wl = problem.workload
        kinds = [wl.kind_of(pid) for pid in range(n)]
        job_ids = [
            -1 if wl.job_of(pid) is None else wl.job_of(pid).job_id
            for pid in range(n)
        ]

        best_obj = math.inf
        best_groups: Optional[List[Tuple[int, ...]]] = None
        examined = 0

        groups: List[Tuple[int, ...]] = []

        def objective_of_groups() -> float:
            serial = 0.0
            par: Dict[int, float] = {}
            for grp in groups:
                members = frozenset(grp)
                serial += problem.extra_cost(grp)
                for pid in grp:
                    if wl.is_imaginary(pid):
                        continue
                    d = problem.degradation(pid, members - {pid})
                    if kinds[pid] is JobKind.SERIAL:
                        serial += d
                    else:
                        jid = job_ids[pid]
                        if d > par.get(jid, -1.0):
                            par[jid] = d
            return serial + sum(par.values())

        def rec(unplaced: Tuple[int, ...]) -> None:
            nonlocal best_obj, best_groups, examined
            if not unplaced:
                examined += 1
                budget.charge()
                obj = objective_of_groups()
                if obj < best_obj:
                    best_obj = obj
                    best_groups = list(groups)
                    if tracer is not None:
                        tracer.emit("incumbent", solver=self.name,
                                    objective=obj, examined=examined)
                if budget.exhausted() is not None:
                    raise _BudgetStop
                return
            head, rest = unplaced[0], unplaced[1:]
            for combo in itertools.combinations(rest, u - 1):
                groups.append((head,) + combo)
                remaining = tuple(p for p in rest if p not in combo)
                rec(remaining)
                groups.pop()

        stopped = None
        try:
            rec(tuple(range(n)))
        except _BudgetStop:
            stopped = budget.stop_reason
            if tracer is not None:
                tracer.emit("budget_stop", solver=self.name, reason=stopped,
                            examined=examined)
        assert best_groups is not None
        schedule = CoSchedule.from_groups(best_groups, u=u, n=n)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=best_obj,
            time_seconds=0.0,
            optimal=stopped is None,
            stats={"partitions_examined": examined},
        )

    def _solve_scenario(self, problem: CoSchedulingProblem) -> SolveResult:
        """Exhaustive machine-slot enumeration — the oracle the scenario
        solvers are validated against.  Walks the canonical slot order with
        the strictly-increasing-leader rule inside identity runs, so
        permutations of interchangeable machines are counted once.

        Groups are scored one at a time through the scalar
        :meth:`~repro.core.problem.CoSchedulingProblem.machine_node_weight`
        on purpose: the A* search's slot-plan source
        (:mod:`repro.solvers.het_search`) scores through the batch
        kernels, and the oracle must not share that path."""
        n = problem.n
        total = count_het_assignments(problem)
        if total > self.max_partitions:
            raise ValueError(
                f"{total} assignments exceeds limit {self.max_partitions}"
            )
        budget = self._active_budget()
        tracer = problem.counters.tracer
        plan = problem.slot_plan()

        best_obj = math.inf
        best_slots: Optional[List[Tuple[int, ...]]] = None
        examined = 0
        slots: List[Tuple[int, ...]] = []

        def rec(slot: int, unplaced: Tuple[int, ...], prev_leader: int,
                g: float) -> None:
            nonlocal best_obj, best_slots, examined
            if slot == len(plan):
                examined += 1
                budget.charge()
                if g < best_obj:
                    best_obj = g
                    best_slots = list(slots)
                    if tracer is not None:
                        tracer.emit("incumbent", solver=self.name,
                                    objective=g, examined=examined)
                if budget.exhausted() is not None:
                    raise _BudgetStop
                return
            k, cap, same_run = plan[slot]
            floor = prev_leader if same_run else -1
            eligible = tuple(p for p in unplaced if p > floor)
            for combo in itertools.combinations(eligible, cap):
                slots.append(combo)
                chosen = set(combo)
                remaining = tuple(p for p in unplaced if p not in chosen)
                rec(slot + 1, remaining, combo[0],
                    g + problem.machine_node_weight(k, combo))
                slots.pop()

        stopped = None
        try:
            rec(0, tuple(range(n)), -1, 0.0)
        except _BudgetStop:
            stopped = budget.stop_reason
            if tracer is not None:
                tracer.emit("budget_stop", solver=self.name, reason=stopped,
                            examined=examined)
        assert best_slots is not None
        by_machine: List[Tuple[int, ...]] = [()] * problem.n_machines
        for s, (k, _, _) in enumerate(plan):
            by_machine[k] = best_slots[s]
        schedule = problem.make_schedule(by_machine)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=best_obj,
            time_seconds=0.0,
            optimal=stopped is None,
            stats={"partitions_examined": examined, "heterogeneous": True},
        )
