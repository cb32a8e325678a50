"""Registry parity: every entry's declared capabilities hold in practice.

These tests are the contract behind the ``SolverInfo`` flags — a registry
entry may only claim a capability its solver observably has, so every
surface (CLI, service, experiments) can trust the table blindly.
"""

import pytest

from repro import serial_mix
from repro.runtime import REGISTRY, create_solver, get_info, solver_names
from repro.runtime.registry import _ALIASES
from repro.runtime.session import run_solve
from repro.runtime.registry import SpecError
from repro.solvers import Budget
from repro.workloads.synthetic import (
    random_heterogeneous_instance,
    random_interaction_instance,
)

SMALL = ["BT", "CG", "EP", "FT"]


@pytest.fixture(scope="module")
def small_problem():
    return serial_mix(SMALL, cluster="dual")


@pytest.fixture(scope="module")
def reference_objective(small_problem):
    return create_solver("oastar").solve(small_problem).objective


class TestTableShape:
    def test_names_sorted_and_canonical(self):
        names = solver_names()
        assert list(names) == sorted(names)
        assert set(names) == set(REGISTRY)

    def test_aliases_do_not_collide(self):
        assert not set(_ALIASES) & set(REGISTRY)
        for alias, target in _ALIASES.items():
            assert target in REGISTRY
            assert get_info(alias) is REGISTRY[target]

    def test_capabilities_json_safe(self):
        import json

        for name in solver_names():
            json.dumps(get_info(name).capabilities())


class TestParity:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_constructs_and_solves(self, name, small_problem,
                                   reference_objective):
        small_problem.clear_caches()
        result = create_solver(name).solve(small_problem)
        assert result.schedule is not None
        assert result.schedule.n == small_problem.n
        if get_info(name).exact:
            assert result.objective == pytest.approx(reference_objective,
                                                     abs=1e-9)
        else:
            # Heuristics must still return a valid (never better than
            # optimal) schedule.
            assert result.objective >= reference_objective - 1e-9

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_warm_start_capability(self, name, small_problem,
                                   reference_objective):
        info = get_info(name)
        if not info.supports_warm_start:
            pytest.skip(f"{name} does not declare warm starts")
        small_problem.clear_caches()
        incumbent = create_solver("pg").solve(small_problem).schedule
        result = create_solver(name).solve(small_problem,
                                           initial_schedule=incumbent)
        assert "warm_start" in result.stats
        # Never-worse guarantee relative to the incumbent.
        from repro.core.objective import evaluate_schedule

        incumbent_obj = evaluate_schedule(small_problem, incumbent).objective
        assert result.objective <= incumbent_obj + 1e-9

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(REGISTRY)
         if "max_expanded" in REGISTRY[n].budget_currencies],
    )
    def test_node_budget_stops_declared_solvers(self, name):
        # A one-node allowance cannot finish this n=8 instance (seed 4 is
        # one where even the B&B root LP is fractional, so every search
        # must expand past its first node): a solver declaring the
        # max_expanded currency must stop early and say so.
        problem = random_interaction_instance(8, cluster="dual", seed=4)
        result = create_solver(name).solve(
            problem, budget=Budget(max_expanded=1)
        )
        assert result.budget_stopped is not None
        assert result.stats["budget"]["stopped"] is not None

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(REGISTRY)
         if not REGISTRY[n].budget_currencies],
    )
    def test_unbudgeted_solvers_run_to_completion(self, name, small_problem):
        # Declaring no currency means budgets are accepted but never trip.
        small_problem.clear_caches()
        result = create_solver(name).solve(
            small_problem, budget=Budget(max_expanded=1)
        )
        assert result.schedule is not None
        assert result.budget_stopped is None

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_scenario_capability(self, name):
        """A solver claiming the scenario flags must actually solve a
        heterogeneous, bandwidth-capped instance; one that does not must
        be refused structurally — never handed the problem."""
        problem = random_heterogeneous_instance(
            ("dual", "quad"), seed=3, bandwidth_caps=(1.5e9, None),
            clock_scaling=True,
        )
        info = get_info(name)
        assert info.scenario_flags() <= {"heterogeneous", "constraints"}
        if problem.required_capabilities() <= info.scenario_flags():
            report = run_solve(problem, name)
            assert report.schedule is not None
            assert sorted(report.schedule.capacities) == [2, 4]
            assert report.objective < float("inf")
        else:
            with pytest.raises(SpecError) as err:
                run_solve(problem, name)
            assert err.value.reason == "unsupported_scenario"

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_scenario_flags_in_capabilities_json(self, name):
        caps = get_info(name).capabilities()
        assert caps["supports_heterogeneous"] == (
            "heterogeneous" in get_info(name).scenario_flags()
        )
        assert caps["supports_constraints"] == (
            "constraints" in get_info(name).scenario_flags()
        )

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_trace_capability(self, name, small_problem, tmp_path):
        info = get_info(name)
        if not info.supports_trace:
            pytest.skip(f"{name} does not declare tracing")
        from repro.perf import Tracer
        from repro.perf.tracer import read_trace

        path = tmp_path / f"{name}.jsonl"
        small_problem.clear_caches()
        with Tracer(str(path)) as tracer:
            prev = small_problem.counters.tracer
            small_problem.counters.tracer = tracer
            try:
                create_solver(name).solve(small_problem)
            finally:
                small_problem.counters.tracer = prev
        events = {e["ev"] for e in read_trace(str(path))}
        assert {"solve_start", "solve_end"} <= events
