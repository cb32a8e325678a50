"""Local search: swap-based hill climbing.

The co-scheduling literature's other big heuristic family (besides greedy
scoring à la PG and trimmed search à la HA*): start from some schedule and
exchange process pairs across machines while it helps.  The neighbourhood is
all single swaps — moves preserve the exactly-u-per-machine shape by
construction.  Hill climbing stops in a swap-local optimum; it runs on its
own and as a base of the repair path (``repair?base=hill``).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.objective import evaluate_schedule
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from .base import Solver, SolveResult
from .greedy import PolitenessGreedy

__all__ = ["SwapHillClimber"]

#: Swap passes before the climb stops even if a pass still improved.
MAX_PASSES = 50


def _schedule_of_groups(problem: CoSchedulingProblem,
                        groups: List[List[int]]) -> CoSchedule:
    """Groups → schedule; scenario problems treat ``groups[k]`` as machine
    ``k``'s placement (swap moves preserve each machine's group size, so
    the machine axis survives the whole search)."""
    if problem.is_scenario:
        return problem.make_schedule(groups)
    return CoSchedule.from_groups(groups, u=problem.u, n=problem.n)


def _objective_of_groups(problem: CoSchedulingProblem,
                         groups: List[List[int]]) -> float:
    sched = _schedule_of_groups(problem, groups)
    return evaluate_schedule(problem, sched).objective


class SwapHillClimber(Solver):
    """First-improvement pairwise swaps until no swap improves.

    The climb starts from the warm start when one is given, else from PG's
    schedule.  Each pass tries every cross-machine swap and keeps an
    improving swap at once, then scans on; termination is a swap-local
    optimum (or :data:`MAX_PASSES` passes).

    ``seed`` (``hill?seed=7`` through the registry) shuffles the
    machine-pair scan order once per pass with a private
    ``random.Random(seed)`` — runs are then deterministic for a given
    seed but explore swaps in a different order per seed, which is what
    the replay benchmarks need for run-to-run reproducibility.  ``None``
    (the default) keeps the historical ascending scan.
    """

    scenario_capabilities = frozenset({"heterogeneous", "constraints"})

    def __init__(self, seed: Optional[int] = None,
                 name: Optional[str] = None):
        self.seed = seed
        self.name = name or "hill-climb(greedy)"

    def _initial(self, problem: CoSchedulingProblem) -> List[List[int]]:
        warm = self._warm_start_groups(problem)
        if warm is not None:
            return warm
        result = PolitenessGreedy().solve(problem)
        return [list(g) for g in result.schedule.groups]

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        budget = self._active_budget()
        tracer = problem.counters.tracer
        groups = self._initial(problem)
        m = len(groups)
        best = _objective_of_groups(problem, groups)
        evaluations = 1
        passes = 0
        improved = True
        stopped = None
        rng = random.Random(self.seed) if self.seed is not None else None
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        while improved and passes < MAX_PASSES and stopped is None:
            improved = False
            passes += 1
            if rng is not None:
                rng.shuffle(pairs)
            for a, b in pairs:
                for i in range(len(groups[a])):
                    for j in range(len(groups[b])):
                        if budget.exhausted() is not None:
                            # The working groups are always a valid
                            # schedule at least as good as the start.
                            stopped = budget.stop_reason
                            break
                        groups[a][i], groups[b][j] = (
                            groups[b][j], groups[a][i],
                        )
                        obj = _objective_of_groups(problem, groups)
                        evaluations += 1
                        budget.charge()
                        if obj < best - 1e-12:
                            best = obj
                            improved = True
                            if tracer is not None:
                                tracer.emit(
                                    "incumbent", solver=self.name,
                                    objective=best,
                                    evaluations=evaluations,
                                )
                        else:
                            groups[a][i], groups[b][j] = (
                                groups[b][j], groups[a][i],
                            )
                    if stopped is not None:
                        break
                if stopped is not None:
                    break
        if stopped is not None and tracer is not None:
            tracer.emit("budget_stop", solver=self.name, reason=stopped,
                        evaluations=evaluations)
        schedule = _schedule_of_groups(problem, groups)
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=best,
            time_seconds=0.0,
            stats={"passes": passes, "evaluations": evaluations},
        )
