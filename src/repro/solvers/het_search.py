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

Heuristic and partial expansion
-------------------------------

h is the larger of two lower bounds on the remaining cost (constraint
penalties are ``>= 0`` and ignored by both, keeping h admissible):

* the *floor bound* — each unscheduled process's admissible degradation
  floor, summed and multiplied by the *minimum* scaling factor among the
  remaining slots (any model);
* the *capacity-aware bound* (:func:`capacity_bound`) for separable models
  ``d(p, S) = s_p · κ · φ(Σ_{j∈S} a_j)``, read through
  :meth:`~repro.core.degradation.CacheDegradationModel.separable_terms`:
  each remaining slot charges its members at least its scale times
  ``κ · φ`` of the smallest co-runner pressure the unscheduled set can
  offer at that slot's capacity, per unit of sensitivity, and the sorted
  pairing of sensitivities to those charges is the cheapest assignment
  that respects the remaining capacities.

Both need ``process_floor``, so O-SVP keeps h ≡ 0.  Exact searches with the
capacity-aware bound expand partially: an expansion streams its groups in
ascending ``(weight, node)`` and the state is re-queued at its next group's
weight plus ``h_tail``, the capacity-aware bound over the later slots,
which no child's h is below.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.problem import CoSchedulingProblem
from .astar_core import SuccessorSource, process_floors
from .base import SolveResult

__all__ = ["slot_plan_source", "solve_het"]

#: Exhaustive greedy completion cost ceiling: above this many combinations
#: per slot the completion falls back to a sorted prefix fill.
_GREEDY_COMBO_LIMIT = 5000

#: Relative shrink of the capacity-aware bound (:func:`capacity_bound`).
_BOUND_SHRINK = 1e-12


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
    terms = problem.model.separable_terms() if search.process_floor else None
    bound = None if terms is None else capacity_bound(problem, terms)

    def scored(rec):
        """``(rows, weights)`` of every group ``rec``'s slot may take."""
        unscheduled = rec.unscheduled
        k, cap, same_run = plan[slot_at[n - len(unscheduled)]]
        if same_run:
            prev_leader = rec.node[0]
            unscheduled = [p for p in unscheduled if p > prev_leader]
        if len(unscheduled) < cap:
            return [], np.empty(0)  # dead end: the leader rule starved it
        rows = list(itertools.combinations(unscheduled, cap))
        counters.observe_batch("het_expand", len(rows))
        stats["generated"] += len(rows)
        return rows, problem.machine_node_weights_batch(k, rows)

    def successors(rec, limit: Optional[int]):
        rows, weights = scored(rec)
        weights = weights.tolist()
        if limit is not None and len(rows) > limit:
            return [(node, w) for w, node in sorted(zip(weights, rows))[:limit]]
        return list(zip(rows, weights))

    stream = h_tail = None
    if bound is None:
        def h(rec) -> float:
            return scale_at[n - len(rec.unscheduled)] * rec.floor_serial_rest
    else:
        h_capacity, h_capacity_tail = bound

        def h(rec) -> float:
            unscheduled = rec.unscheduled
            at = n - len(unscheduled)
            return max(scale_at[at] * rec.floor_serial_rest,
                       h_capacity(unscheduled, rec.mask, slot_at[at]))

        if search.partial_expansion and search.node_limit_fraction is None:
            def stream(rec):
                # Rows in ascending (weight, node): combinations come out
                # in node order, so a stable argsort on the weight breaks
                # ties by node.
                rows, weights = scored(rec)
                order = weights.argsort(kind="stable").tolist()
                weights = weights.tolist()
                return ((rows[r], weights[r]) for r in order)

            def h_tail(rec) -> float:
                return h_capacity_tail(rec.unscheduled,
                                       slot_at[n - len(rec.unscheduled)])

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
        h=h,
        depth=lambda rec: slot_at[n - len(rec.unscheduled)],
        cheapest=cheapest,
        schedule=schedule,
        dmin=dmin,
        stats=stats,
        keys_leader=lambda rec: continues[slot_at[n - len(rec.unscheduled)] + 1],
        stream=stream,
        h_tail=h_tail,
    )


def capacity_bound(problem: CoSchedulingProblem, terms):
    """The capacity-aware lower bound on a state's completion cost, for
    separable models ``d(p, S) = s_p · κ · φ(Σ_{j∈S} a_j)``
    (``terms = (s, a, κ, φ)``), as ``(h, h_tail)``.

    A process in a group of capacity ``c`` has ``c − 1`` co-runners from
    the unscheduled set ``U``, whose ``a`` sum is at least ``L_{c−1}(U)``,
    the sum of the ``c − 1`` smallest ``a`` in ``U``.  φ is non-decreasing
    and penalties are ``>= 0``, so on slot ``t`` (capacity ``c_t``, scale
    ``σ_t``) every member pays at least ``A_t = σ_t · κ · φ(L_{c_t−1}(U))``
    per unit of sensitivity, and the completion costs at least the
    cheapest capacity-respecting assignment of ``Σ s_p · A_{t(p)}``: by
    the rearrangement inequality, the largest ``s`` on the cheapest
    ``A``.  That is ``h(unscheduled, mask, slot)``, memoized on the
    scheduled-pid ``mask``.

    ``h_tail(unscheduled, slot)`` bounds ``h`` of every child of that
    state from below: the slots after ``slot``, priced from the parent's
    ``U`` (a subset's smallest ``a`` sum is no less) and paired with the
    smallest sensitivities in ``U`` (a subset's ``i``-th largest is no
    less).  ``h`` is shrunk by a relative ``_BOUND_SHRINK`` so float
    rounding can never lift it past a true cost, and ``h_tail`` twice.
    """
    s, a, kappa, phi = terms
    s = [float(x) for x in s]
    a = [float(x) for x in a]
    plan = problem.slot_plan()
    caps = [cap for _, cap, _ in plan]
    # kinds_at[i]: the slots from i on, grouped by (capacity, scale), as
    # (co-runner count, σ·κ, positions).
    kinds_at: List[List[Tuple[int, float, int]]] = []
    for i in range(len(plan) + 1):
        groups: Dict[Tuple[int, float], int] = {}
        for k, cap, _ in plan[i:]:
            key = (cap - 1, problem.machine_scale[k] * kappa)
            groups[key] = groups.get(key, 0) + cap
        kinds_at.append([(c1, sk, count) for (c1, sk), count in groups.items()])
    shrink = 1.0 - _BOUND_SHRINK
    memo: Dict[int, float] = {}

    def pairing(sv, av, kinds) -> float:
        # sv descending, av ascending.
        units = [(sk * phi(sum(av[:c1])), count) for c1, sk, count in kinds]
        units.sort()
        total, pos = 0.0, 0
        for unit, count in units:
            total += unit * sum(sv[pos:pos + count])
            pos += count
        return total * shrink

    def h(unscheduled: Tuple[int, ...], mask: int, slot: int) -> float:
        value = memo.get(mask)
        if value is not None:
            return value
        kinds = kinds_at[slot]
        av = sorted([a[p] for p in unscheduled])
        if len(kinds) == 1:
            # One capacity and scale left: every assignment costs the same.
            c1, sk, _ = kinds[0]
            value = (sk * phi(sum(av[:c1])) * shrink
                     * sum([s[p] for p in unscheduled]))
        elif kinds:
            sv = sorted([s[p] for p in unscheduled], reverse=True)
            value = pairing(sv, av, kinds)
        else:
            value = 0.0
        memo[mask] = value
        return value

    def h_tail(unscheduled: Tuple[int, ...], slot: int) -> float:
        kinds = kinds_at[slot + 1]
        if not kinds:
            return 0.0
        sv = sorted([s[p] for p in unscheduled], reverse=True)
        # Shrunk once more: where it equals a child's bound in exact
        # arithmetic, the two sum in different orders.
        return shrink * pairing(sv[caps[slot]:],
                                sorted([a[p] for p in unscheduled]), kinds)

    return h, h_tail


def solve_het(search, problem: CoSchedulingProblem) -> SolveResult:
    """Run ``search``'s best-first loop over ``problem``'s slot plan."""
    return search._search(problem, slot_plan_source(search, problem))
