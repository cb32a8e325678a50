"""Warm-start regression suite: ``solve(initial_schedule=...)``.

Contract (docs/API.md): a solver seeded with a known incumbent never
returns a worse objective than the incumbent, records the fact in
``stats["warm_start"]``, and solvers that ignore the incumbent still
inherit the guarantee through the base class's post-hoc restore.
"""

import pytest

from repro.core.objective import evaluate_schedule
from repro.core.schedule import CoSchedule
from repro.solvers import (
    Budget,
    BranchBoundIP,
    FallbackChain,
    HAStar,
    OAStar,
    OSVP,
    PolitenessGreedy,
    SwapHillClimber,
)
from repro.workloads.synthetic import (
    random_asymmetric_instance,
    random_serial_instance,
)

SOLVERS = {
    "hill": lambda: SwapHillClimber(),
    "bb": lambda: BranchBoundIP(),
    "pg": lambda: PolitenessGreedy(),        # ignores warm starts entirely
    "fallback": lambda: FallbackChain(),
}


def _worst_schedule(problem):
    """A deliberately bad-but-valid incumbent: sequential packing."""
    n, u = problem.n, problem.u
    groups = [list(range(k * u, (k + 1) * u)) for k in range(n // u)]
    return CoSchedule.from_groups(groups, u=u, n=n)


@pytest.mark.parametrize("name", sorted(SOLVERS))
@pytest.mark.parametrize("seed", [0, 3])
def test_warm_started_solver_never_worse_than_incumbent(name, seed):
    problem = random_serial_instance(8, seed=seed, saturation=0.7)
    incumbent = OAStar().solve(problem).schedule  # the optimum: a hard bar
    inc_obj = evaluate_schedule(problem, incumbent).objective
    result = SOLVERS[name]().solve(problem, initial_schedule=incumbent)
    assert result.objective <= inc_obj + 1e-9
    ws = result.stats["warm_start"]
    assert ws["objective"] == pytest.approx(inc_obj)
    assert not ws["improved"]  # cannot beat the optimum


@pytest.mark.parametrize("name", ["hill", "bb", "fallback"])
def test_warm_start_from_bad_incumbent_improves(name):
    problem = random_asymmetric_instance(8, seed=7)
    bad = _worst_schedule(problem)
    bad_obj = evaluate_schedule(problem, bad).objective
    result = SOLVERS[name]().solve(problem, initial_schedule=bad)
    assert result.objective <= bad_obj + 1e-9
    assert "warm_start" in result.stats
    # These instances are adversarial enough that local search/B&B always
    # finds something strictly better than sequential packing.
    assert result.stats["warm_start"]["improved"]


def test_cold_start_records_no_warm_stats():
    problem = random_serial_instance(8, seed=1)
    result = SwapHillClimber().solve(problem)
    assert "warm_start" not in result.stats


def test_restore_guarantee_for_warm_ignorant_solver():
    # PG ignores the incumbent; when its own answer is worse, the base
    # class must hand the incumbent back and flag the restore.
    problem = random_asymmetric_instance(8, seed=11, saturation=0.6)
    best = OAStar().solve(problem)
    pg_cold = PolitenessGreedy().solve(problem)
    result = PolitenessGreedy().solve(problem,
                                      initial_schedule=best.schedule)
    assert result.objective == pytest.approx(best.objective)
    ws = result.stats["warm_start"]
    if pg_cold.objective > best.objective + 1e-9:
        assert ws["restored"]
        assert not result.optimal
        assert result.schedule == best.schedule
    else:  # PG happened to match the optimum on this instance
        assert not ws["improved"]


def test_warm_start_under_budget_keeps_incumbent():
    # With a near-zero budget the solver cannot search at all, yet the
    # warm incumbent must survive.
    problem = random_serial_instance(12, seed=5)
    incumbent = SwapHillClimber().solve(problem).schedule
    inc_obj = evaluate_schedule(problem, incumbent).objective
    result = SwapHillClimber().solve(
        problem, budget=Budget(max_expanded=1), initial_schedule=incumbent,
    )
    assert result.objective <= inc_obj + 1e-9


def test_bb_warm_start_prunes_with_incumbent_and_stays_optimal():
    problem = random_serial_instance(8, seed=9, saturation=0.8)
    opt = OAStar().solve(problem)
    cold = BranchBoundIP().solve(problem)
    warm = BranchBoundIP().solve(problem, initial_schedule=opt.schedule)
    assert warm.optimal
    assert warm.objective == pytest.approx(opt.objective)
    # Seeding with the optimum can only shrink the explored tree.
    assert warm.stats["bb_nodes"] <= cold.stats["bb_nodes"]


def test_fallback_chain_threads_incumbent_through_stages():
    problem = random_serial_instance(8, seed=13)
    incumbent = OAStar().solve(problem).schedule
    chain = FallbackChain(
        members=[SwapHillClimber(), PolitenessGreedy()],
    )
    result = chain.solve(problem, initial_schedule=incumbent)
    inc_obj = evaluate_schedule(problem, incumbent).objective
    assert result.objective <= inc_obj + 1e-9
    assert result.stats["warm_start"]["objective"] == pytest.approx(inc_obj)


@pytest.mark.parametrize("seed", [0, 1])
def test_astar_family_stops_at_incumbent_bound(seed):
    # HA* trims the optimum away here, and its search runs on a relabelled
    # copy: seeded with OA*'s optimum, the incumbent bound (read in the
    # copy's labels) must stop the search and hand the optimum back itself
    # — not through the base class's restore.
    problem = random_serial_instance(12, "quad", seed=seed, saturation=4.0)
    exact = OAStar().solve(problem)
    assert HAStar().solve(problem).objective > exact.objective + 1e-9
    for solver in (OAStar(), HAStar(), OSVP()):
        result = solver.solve(problem, initial_schedule=exact.schedule)
        assert result.objective == pytest.approx(exact.objective, abs=1e-12)
        assert not result.stats["warm_start"]["restored"], solver.name
