"""Anytime budgets: every solver must degrade gracefully, never explode.

The contract under test (see docs/ARCHITECTURE.md): given any budget —
including absurdly tight ones — ``solve(problem, budget=...)`` returns
either a *valid* best-so-far schedule (cross-checked by the base class
against the independent evaluator) or an explicit ``schedule=None``
result whose ``budget_stopped`` names the tripped limit.  Never an
exception, and a stopped result is never marked optimal.
"""

import io
import time

import pytest

from repro.core.objective import evaluate_schedule
from repro.perf import Tracer
from repro.perf.tracer import trace_to_list
from repro.runtime import create_solver
from repro.solvers import (
    BranchBoundIP,
    BruteForce,
    Budget,
    BudgetState,
    FallbackChain,
    HAStar,
    OAStar,
    OSVP,
    PolitenessGreedy,
    ScipyMILP,
    SwapHillClimber,
)
from repro.workloads import random_serial_instance, serial_mix
from repro.workloads.synthetic import random_interaction_instance

STOP_REASONS = {"wall_time", "expanded", "weight_evals"}


def small_problem(seed=3):
    return random_serial_instance(8, "quad", seed=seed)


class TestBudgetSpec:
    def test_default_is_unlimited(self):
        assert not Budget().limited
        assert Budget().to_dict() == {}

    @pytest.mark.parametrize("kwargs", [
        {"wall_time": -1.0}, {"max_expanded": -1}, {"max_weight_evals": -5},
        # NaN is neither < 0 nor >= 0, and a NaN limit would never trip.
        {"wall_time": float("nan")}, {"max_expanded": float("nan")},
        {"max_weight_evals": float("nan")},
    ])
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_to_dict_round_trip(self):
        b = Budget(wall_time=2.5, max_expanded=10)
        assert b.limited
        assert b.to_dict() == {"wall_time": 2.5, "max_expanded": 10}


class TestBudgetState:
    def test_unlimited_never_exhausts(self):
        state = BudgetState()
        state.charge(10**6)
        assert state.exhausted() is None

    def test_expanded_limit_trips_and_sticks(self):
        state = BudgetState(Budget(max_expanded=3))
        assert state.exhausted() is None
        state.charge(3)
        assert state.exhausted() == "expanded"
        # Sticky even if the state is rolled back.
        state.charged = 0
        assert state.exhausted() == "expanded"

    def test_wall_limit(self):
        state = BudgetState(Budget(wall_time=0.0))
        assert state.exhausted() == "wall_time"

    def test_weight_eval_limit_counts_from_arming(self):
        problem = small_problem()
        problem.node_weight(tuple(range(problem.u)))  # pre-arming eval
        state = BudgetState(Budget(max_weight_evals=2),
                            counters=problem.counters)
        assert state.weight_evals() == 0
        problem.clear_caches()
        state2 = BudgetState(Budget(max_weight_evals=1),
                             counters=problem.counters)
        problem.node_weight(tuple(range(problem.u)))
        assert state2.exhausted() == "weight_evals"

    def test_remaining_clamps_to_zero(self):
        state = BudgetState(Budget(max_expanded=5, wall_time=100.0))
        state.charge(7)
        rem = state.remaining()
        assert rem.max_expanded == 0
        assert 0 < rem.wall_time <= 100.0
        assert rem.max_weight_evals is None

    def test_summary_payload(self):
        state = BudgetState(Budget(max_expanded=2))
        state.charge(2)
        state.exhausted()
        s = state.summary()
        assert s["limits"] == {"max_expanded": 2}
        assert s["stopped"] == "expanded"
        assert s["charged"] == 2


ANYTIME_SOLVERS = [
    OAStar(),
    HAStar(),
    OSVP(),
    BranchBoundIP(),
    BruteForce(),
    SwapHillClimber(),
    ScipyMILP(),
    PolitenessGreedy(),  # ignores budgets: must simply complete
]


class TestEverySolverDegradesGracefully:
    @pytest.mark.parametrize("solver", ANYTIME_SOLVERS,
                             ids=lambda s: s.name)
    def test_one_node_budget(self, solver):
        problem = small_problem()
        result = solver.solve(problem, budget=Budget(max_expanded=1))
        if result.schedule is None:
            assert result.budget_stopped in STOP_REASONS
        else:
            # Base class already cross-checked the objective; a stopped
            # result must not claim optimality.
            if result.budget_stopped is not None:
                assert not result.optimal

    @pytest.mark.parametrize("solver", ANYTIME_SOLVERS,
                             ids=lambda s: s.name)
    def test_one_millisecond_budget(self, solver):
        problem = small_problem(seed=5)
        result = solver.solve(problem, budget=Budget(wall_time=0.001))
        if result.schedule is None:
            assert result.budget_stopped in STOP_REASONS
        elif result.budget_stopped is not None:
            assert not result.optimal

    def test_weight_eval_budget_stops_oastar(self):
        # The SDC catalog model evaluates through problem.node_weight (the
        # counted path); synthetic monotone models also score single nodes
        # via node_weight_fast, which this currency deliberately ignores.
        problem = serial_mix(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"],
                             "quad")
        result = OAStar().solve(problem, budget=Budget(max_weight_evals=5))
        assert result.budget_stopped == "weight_evals"
        assert result.schedule is not None
        assert not result.optimal

    @pytest.mark.parametrize("n", [16, 64])
    def test_weight_eval_budget_stops_hastar_on_mer_windows(self, n):
        # HA*'s trim scores MER windows and lazy frontiers straight through
        # the model's kernel, bypassing the memo; the budget charges those
        # rows from their own counter.
        problem = random_serial_instance(n, "quad", seed=1, saturation=4.0)
        result = HAStar().solve(problem, budget=Budget(max_weight_evals=5))
        assert result.budget_stopped == "weight_evals"
        assert problem.counters.count("node_weight_direct") > 0
        assert result.stats["expanded"] <= 2
        assert result.schedule is not None
        assert result.objective == evaluate_schedule(
            problem, result.schedule).objective

    def test_unbudgeted_solve_has_no_budget_stats(self):
        problem = small_problem()
        result = OAStar().solve(problem)
        assert result.budget_stopped is None
        assert "budget" not in result.stats
        assert result.optimal

    def test_generous_budget_changes_nothing(self):
        problem = small_problem()
        exact = OAStar().solve(problem)
        problem.clear_caches()
        budgeted = OAStar().solve(problem, budget=Budget(wall_time=60.0))
        assert budgeted.budget_stopped is None
        assert budgeted.optimal
        assert budgeted.objective == pytest.approx(exact.objective)
        assert budgeted.stats["budget"]["stopped"] is None


class TestAnytimeQuality:
    def test_stopped_oastar_bounds_the_optimum(self):
        """Best-so-far is a *feasible* answer: objective >= the optimum."""
        problem = random_serial_instance(16, "quad", seed=3)
        exact = OAStar().solve(problem)
        problem.clear_caches()
        stopped = OAStar().solve(problem, budget=Budget(max_expanded=3))
        assert stopped.budget_stopped == "expanded"
        assert stopped.schedule is not None
        assert stopped.objective >= exact.objective - 1e-9
        assert stopped.stats.get("budget_completion") == "greedy"

    def test_wall_budget_respected_within_2x(self):
        """ISSUE acceptance: a Table-III-sized instance stops within ~2x
        the wall budget (generous slack for slow CI machines)."""
        problem = random_serial_instance(24, "quad", seed=7)
        budget_s = 0.05
        t0 = time.perf_counter()
        result = OAStar().solve(problem, budget=Budget(wall_time=budget_s))
        elapsed = time.perf_counter() - t0
        assert result.schedule is not None
        if result.budget_stopped is not None:
            # Stopped runs must not grossly overshoot the deadline.
            assert elapsed < 10 * budget_s  # CI slack; typically < 2x
        assert result.objective >= 0.0


class _BudgetRecorder(PolitenessGreedy):
    """PG that records the wall budget each run was handed."""

    def __init__(self, name):
        self.name = name
        self.seen = []

    def _solve(self, problem):
        self.seen.append(self._active_budget().budget.wall_time)
        return super()._solve(problem)


class _Raising(PolitenessGreedy):
    name = "raising"

    def _solve(self, problem):
        raise RuntimeError("stage exploded")


class TestFallbackChain:
    def test_cascades_in_order_and_returns_valid(self):
        problem = random_serial_instance(16, "quad", seed=3)
        chain = FallbackChain()
        result = chain.solve(problem, budget=Budget(wall_time=0.005))
        assert result.schedule is not None
        stages = result.stats["stages"]
        names = [s["solver"] for s in stages]
        assert names[0].startswith("OA*")
        if len(names) > 1:
            assert names[1].startswith("HA*")
        if len(names) > 2:
            assert names[2] == "PG"
        # Only a proven optimum ends the chain early: no stage before the
        # last proved optimality.
        for s in stages[:-1]:
            assert not s["optimal"]
        assert len(stages) == 3 or stages[-1]["optimal"]

    def test_unbudgeted_chain_stops_at_first_member(self):
        problem = small_problem()
        result = FallbackChain().solve(problem)
        assert result.optimal
        assert [s["solver"] for s in result.stats["stages"]] == [
            result.stats["winner"]
        ]
        problem.clear_caches()
        assert result.objective == pytest.approx(
            OAStar().solve(problem).objective, abs=1e-9)

    def test_best_stage_wins(self):
        problem = random_interaction_instance(12, cluster="quad", seed=7)
        result = FallbackChain([HAStar(), PolitenessGreedy()]).solve(problem)
        stages = result.stats["stages"]
        assert result.objective == min(s["objective"] for s in stages)
        assert result.stats["winner"] in [s["solver"] for s in stages]

    def test_no_worse_than_any_stage(self):
        problem = random_interaction_instance(12, cluster="quad", seed=8)
        ha = HAStar().solve(problem)
        problem.clear_caches()
        pg = PolitenessGreedy().solve(problem)
        problem.clear_caches()
        chained = FallbackChain([HAStar(), PolitenessGreedy()]).solve(problem)
        assert chained.objective <= min(ha.objective, pg.objective) + 1e-9

    def test_stages_share_one_wall_budget(self):
        # Sequential stages: each gets what is left, never a fresh slice.
        problem = random_serial_instance(8, cluster="quad", seed=9)
        first, second = _BudgetRecorder("a"), _BudgetRecorder("b")
        FallbackChain([first, second]).solve(
            problem, budget=Budget(wall_time=30.0),
        )
        assert 0 < second.seen[0] <= first.seen[0] <= 30.0

    def test_unbudgeted_stages_run_unbudgeted(self):
        problem = random_serial_instance(8, cluster="quad", seed=9)
        first, second = _BudgetRecorder("a"), _BudgetRecorder("b")
        FallbackChain([first, second]).solve(problem)
        assert first.seen == second.seen == [None]

    def test_finished_heuristic_hands_over(self):
        # Only a proven optimum ends the chain: HA* finishing inside the
        # budget still hands over to PG, warm-started from HA*'s schedule.
        problem = random_serial_instance(16, "quad", seed=2)
        ha = HAStar().solve(problem)
        problem.clear_caches()
        result = create_solver("fallback?chain=hastar,pg").solve(
            problem, budget=Budget(wall_time=60.0))
        stages = result.stats["stages"]
        assert [s["solver"] for s in stages] == ["HA*", "PG"]
        assert stages[0]["stopped"] is None and not stages[0]["optimal"]
        assert result.objective == pytest.approx(ha.objective, abs=1e-9)

    def test_hill_polishes_hastar(self):
        problem = random_serial_instance(16, "quad", seed=2)
        ha = HAStar().solve(problem)
        problem.clear_caches()
        result = create_solver("fallback?chain=hastar,hill").solve(problem)
        assert len(result.stats["stages"]) == 2
        assert result.objective <= ha.objective + 1e-9

    def test_raising_stage_hands_over(self):
        problem = small_problem()
        sink = io.StringIO()
        problem.counters.tracer = Tracer(sink, flush_every=1)
        try:
            result = FallbackChain([_Raising(), PolitenessGreedy()]).solve(
                problem)
        finally:
            problem.counters.tracer = None
        assert result.stats["winner"] == "PG"
        assert result.stats["winner_stage"] == 1
        failed = result.stats["stages"][0]
        assert failed["objective"] is None
        assert "stage exploded" in failed["error"]
        handover = [e for e in trace_to_list(io.StringIO(sink.getvalue()))
                    if e["ev"] == "fallback"]
        assert [(e["from_solver"], e["reason"]) for e in handover] == [
            ("raising", "error")]

    def test_every_stage_raising_reraises_the_last(self):
        with pytest.raises(RuntimeError, match="stage exploded"):
            FallbackChain([_Raising(), _Raising()]).solve(small_problem())

    def test_chain_beats_or_matches_its_last_resort(self):
        problem = random_serial_instance(16, "quad", seed=11)
        pg = PolitenessGreedy().solve(problem)
        problem.clear_caches()
        chained = FallbackChain().solve(problem,
                                        budget=Budget(wall_time=0.01))
        assert chained.schedule is not None
        assert chained.objective <= pg.objective + 1e-9

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain(members=[])

    def test_custom_members_and_name(self):
        chain = FallbackChain(members=[PolitenessGreedy()], name="pg-only")
        assert chain.name == "pg-only"
        result = chain.solve(serial_mix(["BT", "CG", "EP", "FT"], "dual"))
        assert result.schedule is not None
        assert result.stats["winner"] == "PG"
