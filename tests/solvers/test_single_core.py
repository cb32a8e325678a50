"""Single-core machines: every process runs alone, so every schedule
costs nothing.  HA*'s MER window degenerates to one empty row (k = 0
co-runners) and must still answer what OA* and PG answer."""

import dataclasses

import pytest

from repro.core.machine import QUAD_CORE, ClusterSpec
from repro.runtime.registry import create_solver
from repro.workloads import random_serial_instance

SINGLE_CORE = ClusterSpec(machine=dataclasses.replace(QUAD_CORE, cores=1))


@pytest.mark.parametrize("n, seed", [(6, 0), (6, 1), (9, 2), (70, 0)])
def test_hastar_equals_oastar_on_single_core_machines(n, seed):
    problem = random_serial_instance(n, SINGLE_CORE, seed=seed,
                                     saturation=4.0)
    assert problem.u == 1
    hastar = create_solver("hastar").solve(problem)
    oastar = create_solver("oastar").solve(problem)
    assert hastar.objective == oastar.objective == 0.0
    assert sorted(len(g) for g in hastar.schedule.groups) == [1] * n
    assert hastar.stats["expanded"] == n
