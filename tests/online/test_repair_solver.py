"""The registry ``repair`` solver: guarantees, escalation, capability
parity across the registry."""

import pytest

from repro.online import ProblemSession, match_delta, partial_from_base
from repro.runtime import (
    REGISTRY,
    SpecError,
    create_solver,
    run_solve,
)
from repro.workloads.synthetic import random_serial_instance


def _perturbed_pair(n=16, seed=3):
    """(problem, stale partial) for a session one churn event past a
    solve."""
    session = ProblemSession(
        jobs=[(f"j{i}", 0.2 + 0.03 * (i % 10)) for i in range(n)],
        saturation=4.0,
    )
    session.solve()
    base_problem, base_schedule = session.problem, session.schedule
    session.depart("j2")
    session.arrive("hot", 0.7)
    problem = session.build_problem()
    delta = match_delta(base_problem, problem)
    partial = partial_from_base(base_schedule, delta)
    return problem, partial


def test_repair_requires_capable_base():
    with pytest.raises(SpecError) as exc:
        create_solver("repair?base=ip")
    assert exc.value.reason == "repair_base"


def test_repair_unknown_base_is_structured():
    with pytest.raises(SpecError) as exc:
        create_solver("repair?base=doesnotexist")
    assert exc.value.reason == "unknown_solver"


def test_repair_bad_threshold():
    with pytest.raises(ValueError):
        create_solver("repair?escalate_threshold=1.5")


def test_every_advertising_solver_runs_the_repair_path():
    """Capability parity: every solver with ``supports_repair`` works as
    ``repair?base=<name>`` on a perturbed instance and honors the
    never-worse-than-greedy guarantee; every other solver is rejected
    with the structured ``repair_base`` reason."""
    problem, partial = _perturbed_pair()
    greedy = run_solve(problem, "pg").objective
    advertising = [name for name, info in REGISTRY.items()
                   if info.supports_repair]
    others = [name for name, info in REGISTRY.items()
              if not info.supports_repair and name != "repair"]
    assert advertising, "no solver advertises supports_repair"
    assert others, "expected at least one non-repairable solver"
    for name in advertising:
        solver = create_solver(f"repair?base={name}")
        solver.stale_partial = partial
        report = run_solve(problem, solver)
        assert report.schedule is not None, name
        assert report.objective <= greedy + 1e-9 * (1 + abs(greedy)), name
        assert report.result.stats["base"] == name
    for name in others:
        with pytest.raises(SpecError) as exc:
            create_solver(f"repair?base={name}")
        assert exc.value.reason == "repair_base", name


def test_repair_without_partial_escalates():
    problem, _ = _perturbed_pair()
    solver = create_solver("repair")
    report = run_solve(problem, solver)
    assert report.schedule is not None
    assert report.result.stats["escalated"] is True


def test_repair_keeps_clean_machines():
    """With an exact base and a mild profile drift, the kept machines
    must appear verbatim (the greedy guard stays out of the way)."""
    session = ProblemSession(
        jobs=[(f"j{i}", 0.2 + 0.03 * (i % 10)) for i in range(16)],
        base="oastar", saturation=4.0,
    )
    session.solve()
    base_problem, base_schedule = session.problem, session.schedule
    session.update("j2", 0.25)
    problem = session.build_problem()
    delta = match_delta(base_problem, problem)
    partial = partial_from_base(base_schedule, delta)
    solver = create_solver("repair?base=oastar")
    solver.stale_partial = partial
    report = run_solve(problem, solver)
    stats = report.result.stats
    assert stats["escalated"] is False
    assert stats["greedy_guard"] is False
    assert stats["machines_kept"] >= 1
    assert stats["machines_kept"] + stats["machines_resolved"] == (
        problem.n // problem.u
    )
    # The kept groups appear verbatim in the repaired schedule.
    u = problem.u
    kept = [tuple(sorted(g)) for g in partial if len(g) == u]
    out = {tuple(sorted(g)) for g in report.schedule.groups}
    assert all(g in out for g in kept)


def test_repair_escalates_past_threshold():
    problem, partial = _perturbed_pair()
    solver = create_solver("repair?escalate_threshold=0")
    solver.stale_partial = partial
    report = run_solve(problem, solver)
    assert report.result.stats["escalated"] is True
    assert report.schedule is not None


def test_repair_ignores_garbage_partial():
    problem, _ = _perturbed_pair()
    solver = create_solver("repair")
    solver.stale_partial = [(0, 0, 1), (999, 1000), (1, 2)]
    report = run_solve(problem, solver)  # must not crash
    assert report.schedule is not None


def test_repair_never_worse_than_base_on_unperturbed_instance():
    problem = random_serial_instance(12, "quad", seed=9, saturation=4.0)
    full = run_solve(problem, "hastar")
    solver = create_solver("repair?base=hastar")
    solver.stale_partial = [tuple(g) for g in full.schedule.groups]
    repaired = run_solve(problem, solver)
    # All machines are clean, so nothing is re-solved; the greedy guard
    # may still substitute a better schedule (hastar is a heuristic).
    assert repaired.result.stats["machines_resolved"] == 0
    tol = 1e-9 * (1.0 + abs(full.objective))
    assert repaired.objective <= full.objective + tol


def test_repair_spec_with_param_carrying_base():
    """parse_spec splits on the FIRST '?', so the base can itself carry
    a parameter."""
    problem, partial = _perturbed_pair()
    solver = create_solver("repair?base=hill?seed=7")
    assert solver.base_spec == "hill?seed=7"
    solver.stale_partial = partial
    report = run_solve(problem, solver)
    assert report.schedule is not None
