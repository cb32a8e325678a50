"""Shed-policy resolution and the degraded solve chain."""

import pytest

from repro.core.objective import evaluate_schedule
from repro.runtime import (
    DEFAULT_SHED_POLICY,
    ShedPolicy,
    SpecError,
    resolve_shed_policy,
    run_solve,
)
from repro.runtime.registry import REGISTRY, _replace_factory
from repro.solvers import Budget, PolitenessGreedy
from repro.workloads.synthetic import random_serial_instance


def test_default_policy_resolves():
    policy = resolve_shed_policy(DEFAULT_SHED_POLICY)
    assert isinstance(policy, ShedPolicy)
    assert policy.describe() == "pg"


def test_aliases_canonicalize():
    assert resolve_shed_policy("greedy").describe() == "pg"
    assert resolve_shed_policy("politeness,hillclimb").describe() == \
        "pg,hill"


def test_exact_solver_rejected():
    with pytest.raises(SpecError) as err:
        resolve_shed_policy("bb")
    assert err.value.reason == "exact_solver"
    # The offending name, not just a generic message.
    assert "bb" in err.value.detail


def test_exact_solver_rejected_anywhere_in_chain():
    with pytest.raises(SpecError) as err:
        resolve_shed_policy("pg,brute")
    assert err.value.reason == "exact_solver"


def test_unknown_solver_rejected():
    with pytest.raises(SpecError) as err:
        resolve_shed_policy("nonesuch")
    assert err.value.reason == "unknown_solver"


def test_empty_policy_falls_back_to_default():
    # None / "" mean "shedding on, default chain" — only a non-empty
    # string that names no solvers is a configuration error.
    assert resolve_shed_policy(None).describe() == DEFAULT_SHED_POLICY
    assert resolve_shed_policy("").describe() == DEFAULT_SHED_POLICY
    with pytest.raises(SpecError) as err:
        resolve_shed_policy(" , ")
    assert err.value.reason == "bad_spec"


def test_solve_returns_valid_schedule_and_honest_objective():
    problem = random_serial_instance(8, seed=3)
    policy = resolve_shed_policy("pg")
    report = run_solve(problem, policy.chain(), budget=Budget(wall_time=5.0))
    assert policy.specs[report.result.stats["winner_stage"]] == "pg"
    assert report.result.stats["winner"] == "PG"
    assert report.schedule is not None
    # The objective must match an independent evaluation — a shed answer
    # is degraded in *quality*, never in honesty.
    assert report.objective == pytest.approx(
        evaluate_schedule(problem, report.schedule).objective)


def test_pg_hill_polishes_below_pg():
    # PG always returns a schedule; the hill stage must still run, warm
    # started from PG's answer, and improve on it here.
    problem = random_serial_instance(32, "quad", seed=5, saturation=4.0)
    pg = run_solve(problem, "pg")
    policy = resolve_shed_policy("pg,hill")
    report = run_solve(problem, policy.chain(),
                       budget=Budget(wall_time=60.0))
    stats = report.result.stats
    assert [s["solver"] for s in stats["stages"]] == [
        "PG", stats["winner"]]
    assert policy.specs[stats["winner_stage"]] == "hill"
    assert report.objective < pg.objective - 1e-6


class _Boom(PolitenessGreedy):
    name = "boom"

    def _solve(self, problem):
        raise RuntimeError("stage exploded")


def test_chain_falls_through_a_raising_member(monkeypatch):
    monkeypatch.setitem(REGISTRY, "hill",
                        _replace_factory("hill", lambda **_: _Boom()))
    problem = random_serial_instance(8, seed=4)
    policy = resolve_shed_policy("hill,pg")
    report = run_solve(problem, policy.chain())
    stats = report.result.stats
    assert report.schedule is not None
    assert policy.specs[stats["winner_stage"]] == "pg"
    failed = stats["stages"][0]
    assert failed["solver"] == "boom" and failed["objective"] is None
    assert "stage exploded" in failed["error"]


def test_chain_is_fresh_per_call():
    # Solvers keep per-run state, so concurrent sheds need their own.
    policy = resolve_shed_policy("pg,hill")
    first, second = policy.chain(), policy.chain()
    assert first is not second
    assert all(a is not b for a, b in zip(first.members, second.members))
