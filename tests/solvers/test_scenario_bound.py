"""The scenario search's heuristic is admissible, and so is its stream.

For every slot-boundary state of small rosters, the slot-plan source's
``h`` must not exceed the exact cheapest completion (found by brute force
over the scalar ``machine_node_weight``), its partial-expansion tail
``h_tail`` must not exceed ``h`` of any child, and the stream must yield
every successor in ascending ``(weight, node)``.  O-SVP's source keeps
h ≡ 0 and no stream.
"""

import functools
import itertools

import numpy as np
import pytest

from repro.core.degradation import AsymmetricContentionModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import MACHINES, ClusterSpec
from repro.core.problem import CoSchedulingProblem
from repro.runtime import create_solver
from repro.solvers.astar_core import _Record
from repro.solvers.het_search import slot_plan_source
from repro.workloads.synthetic import random_heterogeneous_instance


def _asymmetric(seed):
    roster = tuple(MACHINES[m] for m in ("dual", "quad", "quad"))
    cluster = ClusterSpec.of_machines(roster)
    n = sum(m.cores for m in roster)
    wl = Workload([serial_job(i, f"a{i}", profile_name=f"a{i}")
                   for i in range(n)])
    rng = np.random.default_rng(seed)
    model = AsymmetricContentionModel(
        sensitivities=rng.uniform(0.1, 0.8, size=n),
        aggressiveness=rng.uniform(0.1, 0.8, size=n),
        cores=4, saturation=0.75,
    )
    return CoSchedulingProblem(wl, cluster, model,
                               machine_scaling=[1.0, 0.8, 1.25])


def _roster(machines, **kwargs):
    def make(seed):
        return random_heterogeneous_instance(machines, seed=seed,
                                             saturation=0.9, **kwargs)
    return make


CASES = {
    "dual+quad": _roster(("dual", "quad")),
    "quad+eight": _roster(("quad", "eight")),
    "dual+dual+quad": _roster(("dual", "dual", "quad")),
    "capped-scaled": _roster(("dual", "dual", "eight"),
                             bandwidth_caps=(1.5e9, None, 2.5e9),
                             clock_scaling=True),
    "asymmetric": _asymmetric,
}


def _record(source, n, scheduled):
    mask = 0
    for p in scheduled:
        mask |= 1 << p
    unscheduled = tuple(p for p in range(n) if not mask >> p & 1)
    return _Record(
        unscheduled=unscheduled, serial_sum=0.0, par_max=(),
        par_remaining=(), g=0.0, node=None, parent=None, mask=mask,
        floor_serial_rest=sum(source.dmin[p] for p in unscheduled),
    )


def _states(problem, source):
    """Every slot-boundary state: ``(slot, record)`` for each pid set the
    slots before ``slot`` can hold (leader rule ignored, so a superset of
    the states the search reaches)."""
    n = problem.n
    start = 0
    for slot, (_, cap, _) in enumerate(problem.slot_plan()):
        for scheduled in itertools.combinations(range(n), start):
            yield slot, _record(source, n, scheduled)
        start += cap


def _cheapest_completion(problem):
    """Exact cheapest completion of a state at ``slot`` with pid set
    ``unscheduled``, over scalar machine weights."""
    plan = problem.slot_plan()

    @functools.lru_cache(maxsize=None)
    def best(slot, unscheduled):
        if slot == len(plan):
            return 0.0
        k, cap, _ = plan[slot]
        return min(
            problem.machine_node_weight(k, group)
            + best(slot + 1, tuple(p for p in unscheduled if p not in group))
            for group in itertools.combinations(unscheduled, cap)
        )

    return best


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("case", sorted(CASES))
def test_h_is_admissible_and_the_tail_bounds_every_child(case, seed):
    problem = CASES[case](seed)
    # The brute force runs on a twin, so it never reads batch-scored memo
    # entries.
    exact = _cheapest_completion(CASES[case](seed))
    source = slot_plan_source(create_solver("oastar"), problem)
    assert source.stream is not None and source.h_tail is not None
    plan = problem.slot_plan()
    n = problem.n
    for slot, rec in _states(problem, source):
        h = source.h(rec)
        cost = exact(slot, rec.unscheduled)
        assert 0.0 <= h <= cost, (slot, rec.unscheduled)
        tail = source.h_tail(rec)
        cap = plan[slot][1]
        for group in itertools.combinations(rec.unscheduled, cap):
            child = _record(source, n, set(range(n)) - set(rec.unscheduled)
                            | set(group))
            assert tail <= source.h(child), (slot, rec.unscheduled, group)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_yields_every_successor_in_ascending_order(case):
    problem = CASES[case](0)
    source = slot_plan_source(create_solver("oastar"), problem)
    for slot, rec in itertools.islice(_states(problem, source), 0, None, 7):
        if problem.slot_plan()[slot][2]:
            continue  # a leader-keyed slot needs the record's node
        streamed = list(source.stream(rec))
        listed = source.successors(rec, None)
        assert streamed == sorted(listed, key=lambda t: (t[1], t[0]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_osvp_source_has_no_heuristic_and_no_stream(case):
    problem = CASES[case](0)
    source = slot_plan_source(create_solver("osvp"), problem)
    assert source.stream is None
    assert all(source.h(rec) == 0.0 for _, rec in _states(problem, source))
