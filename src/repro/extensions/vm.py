"""VM-on-physical-machine placement with migration costs.

The paper's closing future-work item: *"extend our co-scheduling methods to
solve the optimal mapping of virtual machines (VM) on physical machines.
The main extension is to allow the VM migrations between physical
machines."*  This module builds exactly that on top of the existing engine:

* a VM is a schedulable process (its workload contends for the shared cache
  like any job — degradation models apply unchanged);
* placement epochs: when the VM population or its behaviour changes, the
  placement is re-optimized; moving a VM off the machine group it currently
  shares costs ``migration_cost`` (service interruption, page-copy traffic)
  expressed in the same degradation units as the objective;
* the migration term enters as a node-level extra cost — every solver (OA*,
  HA*, the IP backends, brute force) therefore optimizes the combined
  objective *exactly*, with no solver changes.

Measuring migrations between two partitions needs care because machines are
interchangeable: we count, for each new machine group, the members that did
not previously share a machine with that group's majority — formally a
maximum-agreement assignment between old and new groups, solved exactly with
a Hungarian assignment (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from ..solvers.base import Solver

__all__ = [
    "migration_count",
    "MigrationCost",
    "VMPlacementProblem",
    "replan",
]


def migration_count(old: CoSchedule, new: CoSchedule) -> int:
    """Minimum number of VMs that must move between ``old`` and ``new``.

    Machines are identical, so the new groups are matched to old groups to
    maximize agreement (Hungarian assignment on overlap); every VM outside
    its group's matched predecessor counts as one migration.
    """
    from scipy.optimize import linear_sum_assignment

    if old.n != new.n or old.u != new.u:
        raise ValueError("schedules must cover the same processes")
    m = old.n_machines
    overlap = np.zeros((m, m), dtype=np.int64)
    old_sets = [frozenset(g) for g in old.groups]
    new_sets = [frozenset(g) for g in new.groups]
    for i, og in enumerate(old_sets):
        for j, ng in enumerate(new_sets):
            overlap[i, j] = len(og & ng)
    rows, cols = linear_sum_assignment(-overlap)
    agreed = int(overlap[rows, cols].sum())
    return old.n - agreed


@dataclass(frozen=True)
class MigrationCost:
    """Per-node migration penalty against a previous placement.

    For a candidate machine group ``T``, the penalty is
    ``cost_per_move * (|T| - best overlap of T with any old group)`` — a
    lower bound on the moves ``T`` forces, and exactly the per-group share
    of the true migration count when groups map one-to-one (the common
    case; :func:`migration_count` reports the exact total afterwards).

    Instances are callables suitable for
    :class:`~repro.core.problem.CoSchedulingProblem`'s ``node_extra_cost``.
    """

    previous_groups: Tuple[frozenset, ...]
    cost_per_move: float

    @classmethod
    def from_schedule(cls, previous: CoSchedule,
                      cost_per_move: float) -> "MigrationCost":
        if cost_per_move < 0:
            raise ValueError("cost_per_move must be non-negative")
        return cls(
            previous_groups=tuple(frozenset(g) for g in previous.groups),
            cost_per_move=cost_per_move,
        )

    def __call__(self, node: Tuple[int, ...]) -> float:
        members = frozenset(node)
        best = max(
            (len(members & g) for g in self.previous_groups), default=0
        )
        return self.cost_per_move * (len(members) - best)


class VMPlacementProblem(CoSchedulingProblem):
    """A co-scheduling problem whose objective charges VM migrations.

    Identical to :class:`CoSchedulingProblem` plus a previous placement and
    a per-move cost; any solver from :mod:`repro.solvers` optimizes
    ``total degradation + cost_per_move * migrations`` exactly.
    """

    def __init__(
        self,
        workload,
        cluster,
        degradation_model,
        previous: CoSchedule,
        cost_per_move: float,
        comm_model=None,
    ):
        super().__init__(
            workload,
            cluster,
            degradation_model,
            comm_model=comm_model,
            node_extra_cost=MigrationCost.from_schedule(previous,
                                                        cost_per_move),
        )
        self.previous = previous
        self.cost_per_move = float(cost_per_move)


def replan(
    problem: CoSchedulingProblem,
    previous: CoSchedule,
    solver: Solver,
    cost_per_move: float,
) -> Dict[str, object]:
    """Re-optimize a placement under a migration budget.

    Returns the new schedule together with its degradation objective, the
    exact migration count versus ``previous``, and — for calibration — what
    a from-scratch re-optimization (``cost_per_move = 0``) would have done.
    """
    migration_aware = CoSchedulingProblem(
        problem.workload,
        problem.cluster,
        problem.model,
        comm_model=problem.comm,
        node_extra_cost=MigrationCost.from_schedule(previous, cost_per_move),
    )
    result = solver.solve(migration_aware)

    # Degradation-only score of the chosen placement (strip the penalty).
    from ..core.objective import evaluate_schedule

    degr_only = evaluate_schedule(problem, result.schedule)
    moves = migration_count(previous, result.schedule)
    stay = evaluate_schedule(problem, previous)
    return {
        "schedule": result.schedule,
        "objective_with_penalty": result.objective,
        "degradation": degr_only.objective,
        "migrations": moves,
        "previous_degradation": stay.objective,
        "solver": result.solver,
        "time_seconds": result.time_seconds,
    }
