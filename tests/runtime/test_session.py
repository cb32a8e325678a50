"""The run_solve pipeline: tracer hygiene, budgets, warm starts, and the
stable SolveReport document."""

from dataclasses import replace

import pytest

from repro import serial_mix
from repro.perf import Tracer
from repro.runtime import REGISTRY, SolveReport, SpecError, run_solve
from repro.solvers import Budget, PolitenessGreedy
from repro.workloads.synthetic import random_serial_instance

SMALL = ["BT", "CG", "EP", "FT"]


@pytest.fixture
def problem():
    return serial_mix(SMALL, cluster="dual")


class TestRunSolve:
    def test_basic_report(self, problem):
        report = run_solve(problem, "oastar")
        assert isinstance(report, SolveReport)
        assert report.spec == "oastar"
        assert report.n == problem.n and report.u == problem.u
        assert report.schedule is not None
        assert report.optimal
        assert report.stopped is None

    def test_spec_is_canonicalized(self, problem):
        # Aliases and param order normalize, so cached/reported specs are
        # comparable across surfaces.
        report = run_solve(problem, "ha?mer=4")
        assert report.spec == "hastar?beam_width=4"

    def test_unknown_spec_raises_spec_error(self, problem):
        with pytest.raises(SpecError):
            run_solve(problem, "nope")

    def test_accepts_solver_instance(self, problem):
        report = run_solve(problem, PolitenessGreedy())
        assert report.schedule is not None

    def test_budget_forwarded(self):
        big = random_serial_instance(8, cluster="dual", seed=7)
        report = run_solve(big, "oastar", budget=Budget(max_expanded=1))
        assert report.stopped is not None

    def test_warm_start_forwarded(self, problem):
        incumbent = run_solve(problem, "pg").schedule
        report = run_solve(problem, "hastar", warm_start=incumbent)
        assert report.warm_started
        assert "warm_start" in report.result.stats


class TestTracerHygiene:
    def test_previous_tracer_restored(self, problem, tmp_path):
        sentinel = object()
        problem.counters.tracer = sentinel
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            run_solve(problem, "pg", tracer=tracer)
            assert problem.counters.tracer is sentinel

    def test_restored_even_when_solver_raises(self, problem, tmp_path,
                                              monkeypatch):
        class Boom:
            name = "boom"

            def solve(self, problem, budget=None, initial_schedule=None):
                raise RuntimeError("kaboom")

        monkeypatch.setitem(
            REGISTRY, "oastar", replace(REGISTRY["oastar"], factory=Boom)
        )
        assert problem.counters.tracer is None
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            with pytest.raises(RuntimeError):
                run_solve(problem, "oastar", tracer=tracer)
            assert problem.counters.tracer is None

    def test_no_tracer_leaves_counters_alone(self, problem):
        run_solve(problem, "pg")
        assert problem.counters.tracer is None


class TestReportDict:
    EXPECTED_KEYS = {
        "spec", "solver", "n", "u", "objective", "optimal",
        "solve_seconds", "stopped", "warm_started", "kernel_backend",
    }

    def test_stable_schema(self, problem):
        report = run_solve(problem, "oastar")
        doc = report.to_dict()
        assert set(doc) == self.EXPECTED_KEYS | {"schedule"}
        assert doc["spec"] == "oastar"
        assert doc["objective"] == pytest.approx(report.objective)
        assert doc["stopped"] is None
        assert sorted(p for g in doc["schedule"] for p in g) == list(
            range(problem.n)
        )

    def test_schedule_and_stats_toggles(self, problem):
        report = run_solve(problem, "oastar")
        doc = report.to_dict(include_schedule=False, include_stats=True)
        assert set(doc) == self.EXPECTED_KEYS | {"stats"}
        assert doc["stats"] == dict(report.result.stats)

    def test_json_serializable(self, problem):
        import json

        json.dumps(run_solve(problem, "hastar").to_dict())
