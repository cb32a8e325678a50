"""Heuristic baselines: the PG politeness greedy and reference schedulers.

**PG** is the greedy of Jiang et al. [18], the published baseline HA* is
compared against (Figs. 10-12): every process gets a *politeness* score —
how little degradation it inflicts on others when co-running — and the
algorithm repeatedly pairs the most impolite unassigned process with the
most polite ones, so cache-hungry processes are spread out and padded with
friendly neighbours.

``RandomScheduler`` and ``SequentialScheduler`` bound the solution-quality
range from below (what a contention-oblivious scheduler would do).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from .base import SolveResult, Solver

__all__ = ["PolitenessGreedy", "RandomScheduler", "SequentialScheduler"]


class PolitenessGreedy(Solver):
    """PG: co-schedule polite processes with impolite ones [18].

    Heterogeneous rosters fill machines in canonical slot order (largest
    first), each slot getting the most impolite remaining process plus
    ``capacity - 1`` of the most polite — the same pairing rule with a
    ragged group size.
    """

    name = "PG"
    scenario_capabilities = frozenset({"heterogeneous", "constraints"})

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        from ..core.objective import evaluate_schedule

        schedule = politeness_schedule(problem)
        ev = evaluate_schedule(problem, schedule)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=ev.objective,
            time_seconds=0.0,
            stats={"pairwise_evals": problem.n * (problem.n - 1)},
        )


def politeness_schedule(problem: CoSchedulingProblem) -> CoSchedule:
    """PG's schedule for ``problem`` (see :class:`PolitenessGreedy`)."""
    n, u = problem.n, problem.u
    # Politeness is the negative of the average degradation a process
    # inflicts on every other process in a pairwise co-run; its positive
    # counterpart, impoliteness, orders the processes.
    inflicted = problem.impoliteness()
    unassigned = sorted(range(n), key=lambda p: (-inflicted[p], p))
    if problem.is_scenario:
        by_machine: List[List[int]] = [[] for _ in range(problem.n_machines)]
        for k, cap, _ in problem.slot_plan():
            machine = [unassigned.pop(0)]
            for _ in range(cap - 1):
                machine.append(unassigned.pop())
            by_machine[k] = machine
        return problem.make_schedule(by_machine)
    groups: List[List[int]] = []
    while unassigned:
        machine = [unassigned.pop(0)]  # most impolite remaining
        for _ in range(u - 1):
            machine.append(unassigned.pop())  # most polite remaining
        groups.append(machine)
    return CoSchedule.from_groups(groups, u=u, n=n)


class RandomScheduler(Solver):
    """Uniformly random partition — the contention-oblivious floor."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        n, u = problem.n, problem.u
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(n)
        groups = [perm[k * u : (k + 1) * u].tolist() for k in range(n // u)]
        schedule = CoSchedule.from_groups(groups, u=u, n=n)
        from ..core.objective import evaluate_schedule

        ev = evaluate_schedule(problem, schedule)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=ev.objective,
            time_seconds=0.0,
        )


class SequentialScheduler(Solver):
    """Pack processes in pid order — what a naive batch launcher does."""

    name = "sequential"

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        n, u = problem.n, problem.u
        groups = [list(range(k * u, (k + 1) * u)) for k in range(n // u)]
        schedule = CoSchedule.from_groups(groups, u=u, n=n)
        from ..core.objective import evaluate_schedule

        ev = evaluate_schedule(problem, schedule)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=ev.objective,
            time_seconds=0.0,
        )
