"""Scenario layer: heterogeneous rosters + pluggable constraints.

Covers the constraint protocol (penalty math, generic relabeling /
machine reordering, validation), the scenario-aware problem surface
(capacity rosters, capability reporting, canonical schedules,
evaluation), and the solver contract on scenario instances: every
capable solver agrees with brute force, every incapable solver refuses
structurally before searching; and the batch-scored scenario search
runs the same search as the scalar path.
"""

import io
import itertools
import json

import pytest

from repro.core.constraints import (
    BandwidthCapConstraint,
    CachePartitionModel,
    constraint_from_dict,
    constraint_to_dict,
)
from repro.core.degradation import MissRatePressureModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import MACHINES, ClusterSpec
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.perf import Tracer
from repro.runtime import create_solver
from repro.solvers.astar_core import greedy_complete
from repro.solvers.base import CapabilityError
from repro.solvers.budget import Budget
from repro.solvers.het_search import slot_plan_source
from repro.workloads import bandwidth_capped_mix, heterogeneous_serial_mix
from repro.workloads.synthetic import (
    random_heterogeneous_instance,
    random_serial_instance,
)


def tiny_problem(machines=("dual", "quad"), **kwargs):
    return random_heterogeneous_instance(machines, seed=3, **kwargs)


class TestBandwidthCapConstraint:
    def test_penalty_is_relative_overage(self):
        c = BandwidthCapConstraint(
            demands=[3.0, 2.0, 1.0], caps=[4.0, None], weight=2.0
        )
        # 3 + 2 = 5 against a cap of 4: overage 1, relative 0.25, x weight.
        assert c.penalty(0, (0, 1)) == pytest.approx(2.0 * 1.0 / 4.0)
        assert c.penalty(0, (1, 2)) == 0.0       # 3 <= 4 fits
        assert c.penalty(1, (0, 1, 2)) == 0.0    # uncapped machine
        assert not c.feasible(0, (0, 1))
        assert c.feasible(0, (1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[-1.0], caps=[None])
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[1.0], caps=[0.0])
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[1.0], caps=[None], weight=-1.0)
        c = BandwidthCapConstraint(demands=[1.0, 2.0], caps=[None, 3.0])
        c.validate_for(n=2, n_machines=2)
        with pytest.raises(ValueError, match="3 processes"):
            c.validate_for(n=3, n_machines=2)
        with pytest.raises(ValueError, match="machines"):
            c.validate_for(n=2, n_machines=3)

    def test_relabeled_moves_per_pid_data(self):
        c = BandwidthCapConstraint(
            demands=[10.0, 20.0, 30.0], caps=[5.0], weight=1.5
        )
        moved = c.relabeled([2, 0, 1])  # old pid 0 -> new pid 2, ...
        assert moved.demands == (20.0, 30.0, 10.0)
        assert moved.caps == c.caps and moved.weight == c.weight

    def test_machines_reordered_moves_caps(self):
        c = BandwidthCapConstraint(demands=[1.0], caps=[5.0, None, 7.0])
        moved = c.machines_reordered([2, 0, 1])
        assert moved.caps == (7.0, 5.0, None)
        assert c.machine_key(0) == moved.machine_key(1)

    def test_dict_round_trip(self):
        c = BandwidthCapConstraint(
            demands=[1.0, 2.0], caps=[None, 4.0], weight=0.5
        )
        back = constraint_from_dict(constraint_to_dict(c))
        assert isinstance(back, BandwidthCapConstraint)
        assert back.demands == c.demands
        assert back.caps == c.caps
        assert back.weight == c.weight

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown constraint kind"):
            constraint_from_dict({"kind": "quantum_entanglement"})


class TestCachePartitionModel:
    def test_penalty_is_spill_fraction(self):
        c = CachePartitionModel(
            footprints=[6.0, 6.0, 1.0], cache_bytes=[8.0, 16.0], weight=1.0
        )
        assert c.penalty(0, (0, 1)) == pytest.approx((12.0 - 8.0) / 8.0)
        assert c.penalty(1, (0, 1)) == 0.0       # fits the bigger cache
        assert c.feasible(0, (0, 2))

    def test_for_cluster_reads_machine_caches(self):
        roster = (MACHINES["dual"], MACHINES["quad"])
        c = CachePartitionModel.for_cluster(
            footprints=[1.0] * 6, machines=roster
        )
        assert c.cache_bytes == tuple(
            m.shared_cache.size_bytes for m in roster
        )

    def test_dict_round_trip(self):
        c = CachePartitionModel(footprints=[1.0], cache_bytes=[2.0])
        back = constraint_from_dict(constraint_to_dict(c))
        assert isinstance(back, CachePartitionModel)
        assert back.footprints == c.footprints


def roster_problem(machines, constraints=(), scaling=None, n=None):
    roster = tuple(MACHINES[m] for m in machines)
    cluster = ClusterSpec.of_machines(roster)
    n = sum(m.cores for m in roster) if n is None else n
    jobs = [serial_job(i, f"j{i}", profile_name=f"j{i}") for i in range(n)]
    wl = Workload(jobs)
    model = MissRatePressureModel(
        miss_rates=[0.01 * (i + 1) for i in range(n)],
        cores=cluster.machine.cores,
    )
    return CoSchedulingProblem(
        wl, cluster, model, constraints=constraints, machine_scaling=scaling
    )


class TestScenarioProblem:
    def test_capability_reporting(self):
        het = roster_problem(("dual", "quad"))
        assert het.is_scenario
        assert het.required_capabilities() == frozenset({"heterogeneous"})
        capped = bandwidth_capped_mix()
        assert capped.required_capabilities() == frozenset({"constraints"})
        both = heterogeneous_serial_mix(bandwidth_caps=(2.5e9, None))
        assert both.required_capabilities() == frozenset(
            {"heterogeneous", "constraints"}
        )

    def test_homogeneous_problem_requires_nothing(self):
        from repro import serial_mix

        problem = serial_mix(["BT", "CG", "EP", "FT"], cluster="quad")
        assert not problem.is_scenario
        assert problem.required_capabilities() == frozenset()

    def test_roster_sum_mismatch_names_the_roster(self):
        with pytest.raises(ValueError, match="roster provides"):
            roster_problem(("dual", "quad"), n=5)

    def test_scaling_length_and_sign_checked(self):
        with pytest.raises(ValueError, match="2 machines"):
            roster_problem(("dual", "quad"), scaling=[1.0])
        with pytest.raises(ValueError, match="positive"):
            roster_problem(("dual", "quad"), scaling=[1.0, -2.0])

    def test_equal_scaling_keeps_problem_homogeneous(self):
        p = roster_problem(("quad", "quad"), scaling=[2.0, 2.0])
        assert not p.is_scenario

    def test_make_schedule_canonicalizes_interchangeable_machines(self):
        p = roster_problem(("dual", "dual", "quad"))
        a = p.make_schedule([[4, 5], [0, 1], [2, 3, 6, 7]])
        b = p.make_schedule([[0, 1], [4, 5], [2, 3, 6, 7]])
        # The two dual machines are interchangeable, so both placements
        # canonicalize to the same machine-indexed schedule ...
        assert a == b
        assert a.groups[0] == (0, 1)
        # ... and evaluate identically.
        assert evaluate_schedule(p, a).objective == pytest.approx(
            evaluate_schedule(p, b).objective
        )

    def test_distinct_machines_are_not_swapped(self):
        caps = BandwidthCapConstraint(
            demands=[1.0] * 4, caps=[1.0, None]
        )
        p = roster_problem(("dual", "dual"), constraints=(caps,))
        s = p.make_schedule([[2, 3], [0, 1]])
        # Machine 0 is capped, machine 1 is not: the groups must stay put.
        assert s.groups == ((2, 3), (0, 1))

    def test_evaluation_includes_penalty_and_scaling(self):
        base = roster_problem(("dual", "quad"))
        sched = base.make_schedule([[0, 1], [2, 3, 4, 5]])
        plain = evaluate_schedule(base, sched).objective

        demands = [10.0] * 6
        capped = roster_problem(
            ("dual", "quad"),
            constraints=(BandwidthCapConstraint(
                demands=demands, caps=[10.0, None], weight=3.0),),
        )
        with_pen = evaluate_schedule(
            capped, capped.make_schedule([[0, 1], [2, 3, 4, 5]])
        ).objective
        # Machine 0 usage 20 against cap 10 -> penalty 3.0 * 10/10 = 3.0.
        assert with_pen == pytest.approx(plain + 3.0)

        scaled = roster_problem(("dual", "quad"), scaling=[2.0, 1.0])
        sched_s = scaled.make_schedule([[0, 1], [2, 3, 4, 5]])
        ev_base = evaluate_schedule(base, sched)
        ev_scaled = evaluate_schedule(scaled, sched_s)
        for pid in (0, 1):
            assert ev_scaled.process_degradations[pid] == pytest.approx(
                2.0 * ev_base.process_degradations[pid]
            )

    def test_capacity_mismatch_rejected(self):
        p = roster_problem(("dual", "quad"))
        other = roster_problem(("quad", "dual"))
        sched = other.make_schedule([[0, 1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match="make_schedule"):
            evaluate_schedule(p, sched)


EXACT = ("brute", "oastar", "osvp")
HEURISTIC = ("hastar", "pg", "hill")


class TestScenarioSolvers:
    @pytest.fixture(scope="class")
    def het(self):
        return tiny_problem(
            bandwidth_caps=(1.5e9, None), clock_scaling=True
        )

    @pytest.fixture(scope="class")
    def optimum(self, het):
        het.clear_caches()
        return create_solver("brute").solve(het).objective

    @pytest.mark.parametrize("name", EXACT)
    def test_exact_solvers_agree_with_brute_force(self, name, het, optimum):
        het.clear_caches()
        result = create_solver(name).solve(het)
        assert result.objective == pytest.approx(optimum, abs=1e-9)
        assert sorted(result.schedule.capacities) == [2, 4]

    @pytest.mark.parametrize("name", HEURISTIC)
    def test_heuristics_never_beat_the_optimum(self, name, het, optimum):
        het.clear_caches()
        spec = name if name in ("pg", "hastar") else f"{name}?seed=0"
        result = create_solver(spec).solve(het)
        assert result.schedule is not None
        assert result.objective >= optimum - 1e-9

    @pytest.mark.parametrize("name", ("ip", "bb"))
    def test_incapable_solver_refuses_before_searching(self, name, het):
        with pytest.raises(CapabilityError) as err:
            create_solver(name).solve(het)
        assert err.value.reason == "unsupported_scenario"

    def test_warm_start_on_scenario_problem(self, het, optimum):
        het.clear_caches()
        seed = create_solver("pg").solve(het).schedule
        result = create_solver("hill?seed=1").solve(
            het, initial_schedule=seed
        )
        assert "warm_start" in result.stats
        assert result.objective <= evaluate_schedule(
            het, seed
        ).objective + 1e-9


def _batch_off(problem, monkeypatch):
    """Force ``problem`` onto the scalar ``machine_node_weight`` path."""
    monkeypatch.setattr(problem.model, "supports_batch", lambda: False)
    assert not problem.supports_batch_weights()
    return problem


PARITY_ROSTERS = [
    # the oastar-scenario benchmark roster: bandwidth-capped quad, clock
    # scaling
    (("dual", "quad", "eight"),
     dict(bandwidth_caps=(None, 2.5e9, None), clock_scaling=True)),
    (("quad", "eight"), {}),
    (("dual", "dual", "quad"), {}),
]


class TestBatchedScenarioSearch:
    """The slot-plan source scores each expansion with one batch-kernel
    call; the search must be the one the scalar path runs."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("roster, kwargs", PARITY_ROSTERS)
    def test_batch_matches_scalar_and_brute(self, roster, kwargs, seed,
                                            monkeypatch):
        def make():
            return random_heterogeneous_instance(
                roster, seed=seed, saturation=0.9, **kwargs
            )

        batch = create_solver("oastar").solve(make())
        scalar = create_solver("oastar").solve(_batch_off(make(), monkeypatch))
        for key in ("expanded", "nodes_generated", "dismissed"):
            assert batch.stats[key] == scalar.stats[key], key
        assert batch.schedule.groups == scalar.schedule.groups
        assert batch.objective == pytest.approx(scalar.objective, abs=1e-9)
        assert batch.stats["profile"]["counts"]["node_weight_batched"] > 0
        assert "node_weight_batched" not in scalar.stats["profile"]["counts"]
        optimum = create_solver("brute").solve(make()).objective
        assert batch.objective == pytest.approx(optimum, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("roster, kwargs", PARITY_ROSTERS)
    def test_hastar_never_worse_than_pg(self, roster, kwargs, seed):
        def make():
            return random_heterogeneous_instance(
                roster, seed=seed, saturation=0.9, **kwargs
            )

        hastar = create_solver("hastar").solve(make())
        pg = create_solver("pg").solve(make())
        assert hastar.objective <= pg.objective

    def test_budget_stopped_completion_matches_scalar(self, monkeypatch):
        def make():
            return random_heterogeneous_instance(
                ("dual", "quad", "eight"), seed=5, saturation=0.9,
                bandwidth_caps=(None, 2.5e9, None), clock_scaling=True,
            )

        budget = Budget(max_expanded=1)
        batch = create_solver("oastar").solve(make(), budget=budget)
        scalar = create_solver("oastar").solve(
            _batch_off(make(), monkeypatch), budget=budget
        )
        assert batch.budget_stopped == scalar.budget_stopped == "expanded"
        assert batch.schedule.groups == scalar.schedule.groups
        assert batch.objective == pytest.approx(scalar.objective, abs=1e-9)

        # The completion itself, from the root, against a min() fill over
        # scalar weights.
        problem, reference = make(), make()
        plan = problem.slot_plan()
        source = slot_plan_source(create_solver("oastar"), problem)
        filled = tuple(greedy_complete(source, (), tuple(range(problem.n))))
        remaining, expected = list(range(reference.n)), []
        for k, cap, _ in plan:
            best = min(itertools.combinations(remaining, cap),
                       key=lambda node: reference.machine_node_weight(k, node))
            expected.append(best)
            remaining = [p for p in remaining if p not in best]
        assert filled == tuple(expected)

    def test_expansion_batches_are_profiled(self):
        # One quad and one dual: the root scores C(6, 4) = 15 quad groups,
        # every later expansion the one dual group left.
        het = tiny_problem()
        result = create_solver("oastar").solve(het)
        series = result.stats["profile"]["batches"]["het_expand"]
        assert series["batches"] >= 2
        assert series["items"] == 15 + (series["batches"] - 1)
        assert series["max_size"] == 15
        assert het.counters.batch_stats("het_expand") == series


def _capped_without_caps(problem):
    """``problem`` with a bandwidth cap of ``None`` on every machine: a
    scenario problem whose penalty is always zero."""
    return CoSchedulingProblem(
        problem.workload, problem.cluster, problem.model,
        constraints=[BandwidthCapConstraint(
            [1.0] * problem.n, [None] * problem.n_machines,
        )],
    )


class TestOneSearchEngine:
    """Scenario problems run the same best-first loop as the paper's
    homogeneous graph: traced alike, and with the same optimum where the
    two search spaces describe one problem."""

    @staticmethod
    def _traced_events(budget=None):
        problem = random_heterogeneous_instance(
            ("dual", "quad", "eight"), seed=5, saturation=0.9,
            bandwidth_caps=(None, 2.5e9, None), clock_scaling=True,
        )
        buf = io.StringIO()
        tracer = Tracer(buf, flush_every=1)
        problem.counters.tracer = tracer
        result = create_solver("oastar").solve(problem, budget=budget)
        tracer.close()
        return result, [json.loads(line)["ev"]
                        for line in buf.getvalue().splitlines()]

    def test_scenario_solve_is_traced(self):
        result, kinds = self._traced_events()
        assert result.optimal
        for kind in ("level", "expand", "incumbent"):
            assert kind in kinds, kind

    def test_budget_stop_is_traced(self):
        result, kinds = self._traced_events(Budget(max_expanded=1))
        assert result.budget_stopped == "expanded"
        assert "budget_stop" in kinds

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", (8, 12))
    def test_zero_penalty_scenario_matches_graph_optimum(self, n, seed):
        plain = random_serial_instance(n, "quad", seed=seed)
        capped = _capped_without_caps(plain)
        assert capped.is_scenario and not plain.is_scenario
        optimum = create_solver("oastar").solve(plain).objective
        assert create_solver("brute").solve(plain).objective == pytest.approx(
            optimum, abs=1e-9
        )
        for spec in ("oastar", "osvp"):
            capped.clear_caches()
            result = create_solver(spec).solve(capped)
            assert result.objective == pytest.approx(optimum, abs=1e-9), spec
