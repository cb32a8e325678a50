"""HA* — the Heuristic A*-search algorithm (Section IV).

Identical to OA* except each level expansion attempts only the first
``MER = n/u`` valid nodes in ascending weight — the paper's statistically
derived Maximum Effective Rank bound (Fig. 5 shows the optimal path's
effective rank stays within ``n/u`` for ≳98% of random instances, so the
trimmed search is near-optimal while examining orders of magnitude fewer
nodes).

The paper never fixes the process order, yet it shapes the trimmed search:
a level is keyed by its smallest unplaced pid, so with an arbitrary order
early levels use up the politest partners and later levels pay for it.
HA* therefore searches the levels most-impolite first — PG's order
(:meth:`~repro.core.problem.CoSchedulingProblem.impoliteness` descending,
pid breaking ties) — by solving a relabelled copy of the problem and
mapping the schedule back, so its answer does not depend on how the
caller labelled the jobs.

On scenario problems the trim keeps ``n_machines`` groups per machine
slot, few enough to miss every group PG would form, so HA* starts from
PG's schedule as its incumbent (the loop's warm-start bound) and never
returns worse than PG there.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.objective import evaluate_schedule
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from .astar_core import AStarSearch
from .base import SolveResult
from .greedy import politeness_schedule

__all__ = ["HAStar"]


class HAStar(AStarSearch):
    """Heuristic A*: MER-trimmed levels, near-optimal and fast.

    ``beam_factor`` scales the per-level node budget relative to ``n/u``
    (1.0 = the paper's rule; larger explores more, approaching OA*).
    """

    def __init__(
        self,
        beam_factor: float = 1.0,
        h_strategy: int = 2,
        dismiss: str = "dominance",
        condense: bool = False,
        h_parallel: str = "zero",
        process_floor: bool = True,
        beam_width: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if beam_factor <= 0:
            raise ValueError("beam_factor must be positive")
        super().__init__(
            name=name or ("HA*" if beam_factor == 1.0 else f"HA*(x{beam_factor:g})"),
            h_strategy=h_strategy,
            node_limit_fraction=beam_factor,
            dismiss=dismiss,
            condense=condense,
            h_parallel=h_parallel,
            process_floor=process_floor,
            beam_width=beam_width,
        )

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        if problem.is_scenario:
            # PG's schedule is the incumbent unless the warm start is
            # better (see the module docstring).
            pg = politeness_schedule(problem)
            warm = self._warm_schedule
            if warm is None or (evaluate_schedule(problem, pg).objective
                                < evaluate_schedule(problem, warm).objective):
                self._warm_schedule = pg
            return super()._solve(problem)
        order = level_order(problem)
        if order is None:
            return super()._solve(problem)
        if self._warm_schedule is not None:
            # The warm-start bound reads the incumbent in the copy's labels.
            new_pid = {old: new for new, old in enumerate(order)}
            self._warm_schedule = CoSchedule.from_groups(
                [[new_pid[pid] for pid in group]
                 for group in self._warm_schedule.groups],
                u=problem.u, n=problem.n,
            )
        result = super()._solve(problem.relabeled(order))
        if result.schedule is not None:
            result.schedule = CoSchedule.from_groups(
                [[order[pid] for pid in group] for group in result.schedule.groups],
                u=problem.u, n=problem.n,
            )
            result.objective = evaluate_schedule(problem, result.schedule).objective
        return result


def level_order(problem: CoSchedulingProblem) -> Optional[List[int]]:
    """HA*'s level order for ``problem``: pids by impoliteness descending,
    pid breaking ties.  ``None`` where the search keeps pid order —
    scenario, parallel, communication and node-extra-cost problems — or
    where the order already is pid order."""
    if (
        problem.is_scenario
        or problem.comm is not None
        or problem.node_extra_cost is not None
        or problem.workload.parallel_jobs
    ):
        return None
    score = problem.impoliteness()
    order = sorted(range(problem.n), key=lambda pid: (-score[pid], pid))
    return None if order == list(range(problem.n)) else order
