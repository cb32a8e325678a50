"""Best-first search over heterogeneous machine slots.

The homogeneous co-scheduling graph (Fig. 3) keys levels on the smallest
unscheduled pid: machines are identical, so a group's *position* carries no
meaning and one canonical machine order suffices.  With a heterogeneous
roster (differing ``cores``, per-machine scaling, constraints) the machine
axis is meaningful, so :class:`~repro.solvers.astar_core.AStarSearch`
dispatches scenario problems here.

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

States are deduplicated on ``(scheduled-pid mask, prev_leader)`` where
``prev_leader`` is normalized to ``-1`` whenever the next slot starts a new
identity run (the leader constraint resets there, so masks alone suffice).
The slot index itself is implied by the mask's popcount — capacity prefix
sums are strictly increasing.

Each expansion scores every candidate group for its slot in one
:meth:`machine_node_weights_batch
<repro.core.problem.CoSchedulingProblem.machine_node_weights_batch>` call
(memo hits, then one batch-kernel call for the misses); the rows are
counted as ``het_expand`` in the problem's counters.

The heuristic is the scenario analog of h2: the sum of each unscheduled
process's admissible degradation floor, multiplied by the *minimum* scaling
factor among remaining slots (constraint penalties are ``>= 0`` and
ignored, keeping h admissible).  HA*'s MER trimming carries over as a
per-expansion cap of ``ceil(beam_factor * n_machines)`` cheapest
successors; budget-stopped runs greedily complete the most promising
partial assignment, preserving the anytime contract.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.problem import CoSchedulingProblem
from .base import SolveResult

__all__ = ["solve_het"]

#: Exhaustive greedy completion cost ceiling: above this many combinations
#: per slot the completion falls back to a sorted prefix fill.
_GREEDY_COMBO_LIMIT = 5000


def _groups_to_slots(
    problem: CoSchedulingProblem,
    machine_groups: Sequence[Sequence[int]],
) -> float:
    """Objective of complete machine-indexed groups."""
    return sum(
        problem.machine_node_weight(k, tuple(g))
        for k, g in enumerate(machine_groups)
    )


def _greedy_complete(
    problem: CoSchedulingProblem,
    plan: List[Tuple[int, int, bool]],
    slot: int,
    groups: Tuple[Tuple[int, ...], ...],
    unscheduled: List[int],
) -> Tuple[Tuple[int, ...], ...]:
    """Fill the remaining slots cheaply (ignores the leader canonicalization
    — any completion is a valid schedule)."""
    groups = list(groups)
    remaining = sorted(unscheduled)
    for s in range(slot, len(plan)):
        k, cap, _ = plan[s]
        n_combos = math.comb(len(remaining), cap)
        if n_combos <= _GREEDY_COMBO_LIMIT:
            # argmin takes the first minimum, the tie rule min() would use.
            combos = list(itertools.combinations(remaining, cap))
            best = combos[int(np.argmin(
                problem.machine_node_weights_batch(k, combos)
            ))]
        else:
            best = tuple(remaining[:cap])
        groups.append(best)
        chosen = set(best)
        remaining = [p for p in remaining if p not in chosen]
    return tuple(groups)


def solve_het(search, problem: CoSchedulingProblem) -> SolveResult:
    """Run the scenario search for ``search`` (an AStarSearch instance):
    exact when untrimmed, MER-style trimmed when ``node_limit_fraction``
    is set, anytime under a budget."""
    n = problem.n
    plan = problem.slot_plan()
    n_slots = len(plan)
    state = search._active_budget()
    counters = problem.counters

    # -- admissible floor per process and per-suffix minimum scaling ----- #
    use_h = search.h_strategy != 0
    dmin = [problem.min_process_degradation(p) for p in range(n)] if use_h else [0.0] * n
    suffix_scale = [0.0] * (n_slots + 1)
    running = math.inf
    for s in range(n_slots - 1, -1, -1):
        running = min(running, problem.machine_scale[plan[s][0]])
        suffix_scale[s] = running

    node_limit: Optional[int] = None
    if search.node_limit_fraction is not None:
        node_limit = max(1, math.ceil(search.node_limit_fraction * n_slots))
    if search.beam_width is not None:
        node_limit = (
            search.beam_width if node_limit is None
            else min(node_limit, search.beam_width)
        )

    # -- incumbent from the warm start ---------------------------------- #
    best_groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    best_obj = math.inf
    warm = search._warm_start_groups(problem)
    if warm is not None and len(warm) == problem.n_machines:
        try:
            warm_obj = _groups_to_slots(problem, warm)
        except (IndexError, ValueError):
            warm_obj = math.inf
        if warm_obj < best_obj:
            # Re-express machine-indexed warm groups in slot order.
            best_groups = tuple(
                tuple(sorted(warm[k])) for k, _, _ in plan
            )
            best_obj = warm_obj

    total_dmin = sum(dmin)
    h0 = suffix_scale[0] * total_dmin if use_h else 0.0

    # Records: (f, tie, g, rem_dmin, mask, slot, prev_leader, groups)
    tie = itertools.count()
    full_mask = (1 << n) - 1
    open_heap = [(h0, next(tie), 0.0, total_dmin, 0, 0, -1, ())]
    best_g: Dict[Tuple[int, int], float] = {(0, -1): 0.0}
    expanded = 0
    generated = 0
    dismissed = 0
    stopped = False

    while open_heap:
        f, _, g, rem_dmin, mask, slot, prev_leader, groups = heapq.heappop(open_heap)
        if f >= best_obj:
            # Admissible h: nothing left can beat the incumbent.
            break
        norm = prev_leader if slot < n_slots and plan[slot][2] else -1
        if best_g.get((mask, norm), math.inf) < g:
            dismissed += 1
            continue
        if mask == full_mask:
            if g < best_obj:
                best_obj = g
                best_groups = groups
            break
        if state.exhausted():
            stopped = True
            # Anytime: greedily complete the most promising partial path.
            unscheduled = [p for p in range(n) if not (mask >> p) & 1]
            candidate = _greedy_complete(problem, plan, slot, groups, unscheduled)
            cand_obj = sum(
                problem.machine_node_weight(plan[s][0], node)
                for s, node in enumerate(candidate)
            )
            if cand_obj < best_obj:
                best_obj = cand_obj
                best_groups = candidate
            break
        expanded += 1
        state.charge(1)
        k, cap, same_run = plan[slot]
        floor = prev_leader if same_run else -1
        eligible = [p for p in range(floor + 1, n) if not (mask >> p) & 1]
        if len(eligible) < cap:
            continue  # dead end: leader rule starved this run
        rows = list(itertools.combinations(eligible, cap))
        counters.observe_batch("het_expand", len(rows))
        weights = problem.machine_node_weights_batch(k, rows)
        succs = list(zip(weights.tolist(), rows))
        if node_limit is not None and len(succs) > node_limit:
            succs.sort()
            succs = succs[:node_limit]
        next_slot = slot + 1
        for w, node in succs:
            child_mask = mask
            child_dmin = rem_dmin
            for p in node:
                child_mask |= 1 << p
                child_dmin -= dmin[p]
            child_g = g + w
            child_norm = node[0] if next_slot < n_slots and plan[next_slot][2] else -1
            key = (child_mask, child_norm)
            if best_g.get(key, math.inf) <= child_g:
                dismissed += 1
                continue
            best_g[key] = child_g
            child_h = suffix_scale[next_slot] * child_dmin if use_h else 0.0
            generated += 1
            heapq.heappush(open_heap, (
                child_g + child_h, next(tie), child_g, child_dmin,
                child_mask, next_slot, node[0], groups + (node,),
            ))

    schedule = None
    objective = math.inf
    if best_groups is not None:
        by_machine: List[Tuple[int, ...]] = [()] * problem.n_machines
        for s, (k, _, _) in enumerate(plan):
            by_machine[k] = best_groups[s]
        schedule = problem.make_schedule(by_machine)
        objective = best_obj
    return SolveResult(
        solver=search.name,
        schedule=schedule,
        objective=objective,
        time_seconds=0.0,
        optimal=(
            schedule is not None
            and not stopped
            and node_limit is None
        ),
        stats={
            "expanded": expanded,
            "generated": generated,
            "dismissed": dismissed,
            "visited_paths": expanded,
            "heterogeneous": True,
            "profile": counters.snapshot(),
        },
    )
