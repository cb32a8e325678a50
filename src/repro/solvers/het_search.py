"""The scenario search space: machine slots, as a successor source.

The homogeneous co-scheduling graph (Fig. 3) keys levels on the smallest
unscheduled pid: machines are identical, so a group's *position* carries no
meaning and one canonical machine order suffices.  With a heterogeneous
roster (differing ``cores``, per-machine scaling, constraints) the machine
axis is meaningful, so :class:`~repro.solvers.astar_core.AStarSearch` runs
its best-first loop over this module's slot plan instead of the graph's
levels.

Canonical slot order and symmetry breaking
------------------------------------------

Machines are visited in the problem's canonical slot order — capacity
descending, then :meth:`machine_identity
<repro.core.problem.CoSchedulingProblem.machine_identity>`, then index — so
*interchangeable* machines form consecutive runs.  Within a run we require
strictly increasing group leaders (a group's leader is its smallest pid):
any assignment of groups to the run's identical machines is reachable in
exactly one leader-sorted order, so permutations of interchangeable
machines are enumerated once.  For a fully homogeneous roster this
degenerates to the paper's "every group contains the smallest unscheduled
pid" rule.  The leader rule also shrinks the state space: since all group
members are ``>= leader > prev_leader``, the eligible pid set for a slot
continuing a run is simply ``{p unscheduled : p > prev_leader}``.

States are told apart by their scheduled-pid mask and, when the next slot
continues an identity run, their leader (the leader constraint resets at a
run's start, so masks alone suffice there).  The slot index itself is
implied by the mask's popcount — capacity prefix sums are strictly
increasing.

Each expansion scores every candidate group for its slot in one
:meth:`machine_node_weights_batch
<repro.core.problem.CoSchedulingProblem.machine_node_weights_batch>` call
(memo hits, then one batch-kernel call for the misses); the rows are
counted as ``het_expand`` in the problem's counters.

The heuristic is the scenario analog of h2: the sum of each unscheduled
process's admissible degradation floor, multiplied by the *minimum* scaling
factor among remaining slots (constraint penalties are ``>= 0`` and
ignored, keeping h admissible).
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

import numpy as np

from ..core.problem import CoSchedulingProblem
from .astar_core import SuccessorSource, process_floors
from .base import SolveResult

__all__ = ["slot_plan_source", "solve_het"]

#: Exhaustive greedy completion cost ceiling: above this many combinations
#: per slot the completion falls back to a sorted prefix fill.
_GREEDY_COMBO_LIMIT = 5000


def slot_plan_source(search, problem: CoSchedulingProblem) -> SuccessorSource:
    """The slot plan of ``problem`` as a successor source for ``search``
    (an AStarSearch instance): slot ``s`` of ``problem.slot_plan()`` takes
    one ``cap``-subset of the eligible pids."""
    n = problem.n
    plan = problem.slot_plan()
    n_slots = len(plan)
    counters = problem.counters
    dmin = process_floors(problem, search.process_floor)

    # Per scheduled-pid count: the slot a state is at, and the minimum
    # scaling factor among the slots it has left (0 once complete).
    slot_at = [n_slots] * (n + 1)
    scale_at = [0.0] * (n + 1)
    starts = list(itertools.accumulate([0] + [cap for _, cap, _ in plan]))
    running = math.inf
    for s in range(n_slots - 1, -1, -1):
        slot_at[starts[s]] = s
        running = min(running, problem.machine_scale[plan[s][0]])
        scale_at[starts[s]] = running
    # continues[s]: slot s continues an identity run (False past the end).
    continues = [same for _, _, same in plan] + [False]
    stats = {"generated": 0, "condensed_away": 0}

    def successors(rec, limit: Optional[int]):
        unscheduled = rec.unscheduled
        k, cap, same_run = plan[slot_at[n - len(unscheduled)]]
        if same_run:
            prev_leader = rec.node[0]
            unscheduled = [p for p in unscheduled if p > prev_leader]
        if len(unscheduled) < cap:
            return []  # dead end: the leader rule starved this run
        rows = list(itertools.combinations(unscheduled, cap))
        counters.observe_batch("het_expand", len(rows))
        stats["generated"] += len(rows)
        weights = problem.machine_node_weights_batch(k, rows).tolist()
        if limit is not None and len(rows) > limit:
            return [(node, w) for w, node in sorted(zip(weights, rows))[:limit]]
        return list(zip(rows, weights))

    def cheapest(unscheduled: Tuple[int, ...]) -> Tuple[int, ...]:
        # Ignores the leader rule: any completion is a valid schedule.
        k, cap, _ = plan[slot_at[n - len(unscheduled)]]
        if math.comb(len(unscheduled), cap) > _GREEDY_COMBO_LIMIT:
            return tuple(unscheduled[:cap])
        # argmin takes the first minimum, the tie rule min() would use.
        combos = list(itertools.combinations(unscheduled, cap))
        return combos[int(np.argmin(
            problem.machine_node_weights_batch(k, combos)
        ))]

    def schedule(nodes: List[Tuple[int, ...]]):
        by_machine: List[Tuple[int, ...]] = [()] * problem.n_machines
        for (k, _, _), node in zip(plan, nodes):
            by_machine[k] = node
        return problem.make_schedule(by_machine)

    return SuccessorSource(
        successors=successors,
        h=lambda rec: scale_at[n - len(rec.unscheduled)] * rec.floor_serial_rest,
        depth=lambda rec: slot_at[n - len(rec.unscheduled)],
        cheapest=cheapest,
        schedule=schedule,
        dmin=dmin,
        stats=stats,
        keys_leader=lambda rec: continues[slot_at[n - len(rec.unscheduled)] + 1],
    )


def solve_het(search, problem: CoSchedulingProblem) -> SolveResult:
    """Run ``search``'s best-first loop over ``problem``'s slot plan."""
    return search._search(problem, slot_plan_source(search, problem))
