"""Correctness checks for every answer the benchmark receives.

An answer is the machine groups a solver (or the service) returned, in
the submitter's own process labeling, plus the objective it reported.
The groups are checked here, independently of ``repro``'s own schedule
validation, and the objective is recomputed with ``evaluate_schedule`` on
a freshly generated copy of the problem, so a memo corrupted during the
solve cannot vouch for itself.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

#: Largest relative difference accepted between two objectives.
TOL = 1e-9


def same_objective(a: float, b: float) -> bool:
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= TOL * max(1.0, abs(a), abs(b)))


def partition_errors(problem, groups: Sequence[Sequence[int]]) -> List[str]:
    """Why ``groups`` is not a valid placement of ``problem``'s processes
    (empty when it is): every process exactly once, and each group as
    large as its machine (machine ``k`` for scenario problems, ``u``
    cores everywhere otherwise)."""
    n = problem.n
    if problem.is_scenario:
        sizes = list(problem.capacities)
    else:
        sizes = [problem.u] * (n // problem.u)
    if len(groups) != len(sizes):
        return [f"{len(groups)} groups for {len(sizes)} machines"]
    errors = [f"group {k} has {len(g)} processes, machine has {cap} cores"
              for k, (g, cap) in enumerate(zip(groups, sizes))
              if len(g) != cap]
    placed = sorted(int(p) for g in groups for p in g)
    if placed != list(range(n)):
        errors.append("groups do not place every process exactly once")
    return errors


def answer_errors(problem, groups: Sequence[Sequence[int]],
                  reported: Optional[float]) -> List[str]:
    """Why an answer is wrong (empty when it is right)."""
    from repro.core.objective import evaluate_schedule
    from repro.core.schedule import CoSchedule

    if reported is None:
        return ["no objective reported"]
    errors = partition_errors(problem, groups)
    if errors:
        return errors
    groups = [[int(p) for p in g] for g in groups]
    if problem.is_scenario:
        schedule = CoSchedule.from_machine_groups(groups, problem.capacities)
    else:
        schedule = CoSchedule.from_groups(groups, u=problem.u, n=problem.n)
    actual = evaluate_schedule(problem, schedule).objective
    if not same_objective(actual, float(reported)):
        errors.append(f"reported objective {reported!r} but the schedule "
                      f"evaluates to {actual!r}")
    return errors
