"""Tests for the VM placement / migration extension."""

import numpy as np
import pytest

from repro.core.degradation import MatrixDegradationModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import DUAL_CORE_CLUSTER, QUAD_CORE_CLUSTER
from repro.core.problem import CoSchedulingProblem
from repro.core.schedule import CoSchedule
from repro.extensions.vm import (
    MigrationCost,
    VMPlacementProblem,
    migration_count,
    replan,
)
from repro.core.objective import evaluate_schedule
from repro.solvers import BruteForce, HAStar, OAStar
from repro.workloads import random_serial_instance


def make_problem(n=8, seed=0, cluster=QUAD_CORE_CLUSTER):
    jobs = [serial_job(i, f"vm{i}") for i in range(n)]
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    rng = np.random.default_rng(seed)
    D = rng.uniform(0, 1, (n, n))
    np.fill_diagonal(D, 0.0)
    return CoSchedulingProblem(wl, cluster,
                               MatrixDegradationModel(pairwise=D))


class TestMigrationCount:
    def test_identical_schedules(self):
        s = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        assert migration_count(s, s) == 0

    def test_machine_relabel_is_free(self):
        a = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        b = CoSchedule.from_groups([(2, 3), (0, 1)], u=2)
        assert migration_count(a, b) == 0

    def test_single_swap(self):
        a = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        b = CoSchedule.from_groups([(0, 2), (1, 3)], u=2)
        assert migration_count(a, b) == 2  # 1 and 2 trade places

    def test_total_reshuffle(self):
        a = CoSchedule.from_groups([(0, 1, 2, 3), (4, 5, 6, 7)], u=4)
        b = CoSchedule.from_groups([(0, 4, 5, 6), (1, 2, 3, 7)], u=4)
        # Best matching keeps 3 of {1,2,3,7} together and {4,5,6} with 0...
        assert migration_count(a, b) == 8 - (3 + 3)

    def test_shape_mismatch(self):
        a = CoSchedule.from_groups([(0, 1)], u=2)
        b = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        with pytest.raises(ValueError):
            migration_count(a, b)


class TestMigrationCost:
    def test_zero_for_previous_groups(self):
        prev = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        cost = MigrationCost.from_schedule(prev, cost_per_move=1.0)
        assert cost((0, 1)) == 0.0
        assert cost((2, 3)) == 0.0

    def test_counts_moved_members(self):
        prev = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        cost = MigrationCost.from_schedule(prev, cost_per_move=2.0)
        assert cost((0, 2)) == 2.0  # best overlap 1 -> one move
        assert cost((1, 3)) == 2.0

    def test_rejects_negative(self):
        prev = CoSchedule.from_groups([(0, 1)], u=2)
        with pytest.raises(ValueError):
            MigrationCost.from_schedule(prev, cost_per_move=-1.0)


class TestVMPlacement:
    def test_infinite_penalty_freezes_placement(self):
        problem = make_problem(seed=1)
        previous = CoSchedule.from_groups([(0, 1, 2, 3), (4, 5, 6, 7)], u=4)
        vm = VMPlacementProblem(
            problem.workload, problem.cluster, problem.model,
            previous=previous, cost_per_move=1e6,
        )
        result = OAStar().solve(vm)
        assert migration_count(previous, result.schedule) == 0
        assert result.schedule == previous

    def test_zero_penalty_reoptimizes_fully(self):
        problem = make_problem(seed=2)
        bad_previous = CoSchedule.from_groups([(0, 1, 2, 3), (4, 5, 6, 7)],
                                              u=4)
        free = OAStar().solve(problem)
        problem.clear_caches()
        vm = VMPlacementProblem(
            problem.workload, problem.cluster, problem.model,
            previous=bad_previous, cost_per_move=0.0,
        )
        result = OAStar().solve(vm)
        assert result.objective == pytest.approx(free.objective, abs=1e-9)

    def test_penalty_matches_brute_force(self):
        """All solvers optimize the combined objective exactly."""
        jobs = [serial_job(i, f"vm{i}") for i in range(6)]
        wl = Workload(jobs, cores_per_machine=2)
        rng = np.random.default_rng(5)
        D = rng.uniform(0, 1, (6, 6))
        np.fill_diagonal(D, 0.0)
        previous = CoSchedule.from_groups([(0, 5), (1, 4), (2, 3)], u=2)
        vm = VMPlacementProblem(
            wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D),
            previous=previous, cost_per_move=0.15,
        )
        bf = BruteForce().solve(vm)
        oa = OAStar().solve(vm)
        assert oa.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_intermediate_penalty_trades_moves_for_quality(self):
        problem = make_problem(seed=3)
        previous = CoSchedule.from_groups([(0, 1, 2, 3), (4, 5, 6, 7)], u=4)
        outcomes = {}
        for cpm in (0.0, 0.05, 1e6):
            problem.clear_caches()
            outcomes[cpm] = replan(problem, previous, OAStar(), cpm)
        # Monotone: larger penalties -> fewer migrations, worse degradation.
        assert (outcomes[0.0]["migrations"]
                >= outcomes[0.05]["migrations"]
                >= outcomes[1e6]["migrations"])
        assert (outcomes[0.0]["degradation"]
                <= outcomes[0.05]["degradation"] + 1e-9)
        assert outcomes[1e6]["migrations"] == 0


class TestReplan:
    def test_report_fields(self):
        problem = make_problem(seed=4)
        previous = CoSchedule.from_groups([(0, 1, 2, 3), (4, 5, 6, 7)], u=4)
        out = replan(problem, previous, OAStar(), cost_per_move=0.1)
        assert set(out) >= {
            "schedule", "objective_with_penalty", "degradation",
            "migrations", "previous_degradation", "solver", "time_seconds",
        }
        # Penalty-aware objective decomposes into degradation + penalty.
        assert out["objective_with_penalty"] == pytest.approx(
            out["degradation"] + 0.1 * out["migrations"], abs=1e-6
        )


def pressure_vm(n, saturation, cost_per_move=0.05):
    """A miss-rate pressure problem charged for moving off an HA* plan of
    another instance of the same size."""
    problem = random_serial_instance(n, "quad", seed=3, saturation=saturation)
    previous = HAStar().solve(
        random_serial_instance(n, "quad", seed=4, saturation=saturation)
    ).schedule
    return problem, previous, VMPlacementProblem(
        problem.workload, problem.cluster, problem.model, previous,
        cost_per_move,
    )


class TestPressureModelPenalty:
    """The pressure model's lazy streams and MER windows score the bare
    model, so HA* must keep a migration penalty off them at every size."""

    # HA*'s objectives with the penalty, from whole scored levels.
    EXPECTED = {
        (8, None): 1.2179332419376587,
        (8, 4.0): 1.0633047618495524,
        (16, None): 3.4289919639525035,
        (16, 4.0): 2.9101809592535317,
    }

    @pytest.mark.parametrize("n,saturation", list(EXPECTED) + [(32, 4.0)])
    def test_hastar_charges_the_penalty(self, n, saturation):
        _, _, vm = pressure_vm(n, saturation)
        result = HAStar().solve(vm)
        assert result.objective == pytest.approx(
            evaluate_schedule(vm, result.schedule).objective, abs=1e-9)
        if (n, saturation) in self.EXPECTED:
            assert result.objective == pytest.approx(
                self.EXPECTED[n, saturation], abs=1e-12)

    def test_oastar_stays_exact(self):
        # OA*'s partial expansion streams levels; with a penalty it must
        # not stream the bare model.
        _, _, vm = pressure_vm(12, 4.0)
        assert OAStar().solve(vm).objective == pytest.approx(
            BruteForce().solve(vm).objective, abs=1e-12)

    def test_replan_with_hastar(self):
        problem, previous, _ = pressure_vm(16, 4.0)
        out = replan(problem, previous, HAStar(), cost_per_move=0.05)
        assert out["objective_with_penalty"] == pytest.approx(
            self.EXPECTED[16, 4.0], abs=1e-12)
        assert out["objective_with_penalty"] == pytest.approx(
            out["degradation"] + 0.05 * out["migrations"], abs=1e-9)
