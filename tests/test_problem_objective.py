"""Tests for the problem bundle (Eq. 9 combination, caching, floors) and the
objective evaluator (Eq. 6/12/13)."""

import itertools

import numpy as np
import pytest

from repro.comm.model import CommunicationModel
from repro.comm.topology import grid_1d
from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
)
from repro.core.jobs import Workload, pc_job, pe_job, serial_job
from repro.core.machine import DUAL_CORE_CLUSTER, QUAD_CORE_CLUSTER, ClusterSpec
from repro.core.objective import evaluate_schedule, partial_distance
from repro.core.problem import CoSchedulingProblem
from repro.core.schedule import CoSchedule


def serial_problem(D, cluster=DUAL_CORE_CLUSTER):
    n = D.shape[0]
    jobs = [serial_job(i, f"j{i}") for i in range(n)]
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    return CoSchedulingProblem(wl, cluster, MatrixDegradationModel(pairwise=D))


def _three_core():
    from repro.core.machine import CacheSpec, ClusterSpec, MachineSpec

    m = MachineSpec("3-core", 3, CacheSpec(3 * 1024 * 1024, 12), 2e9, 100)
    return ClusterSpec(machine=m)


class TestProblem:
    def test_shape_check(self):
        jobs = [serial_job(0, "a"), serial_job(1, "b"), serial_job(2, "c")]
        wl = Workload(jobs)  # no padding requested
        with pytest.raises(ValueError, match="multiple"):
            CoSchedulingProblem(wl, DUAL_CORE_CLUSTER,
                                MatrixDegradationModel(pairwise=np.zeros((3, 3))))

    def test_imaginary_are_transparent(self):
        D = np.ones((4, 4)) - np.eye(4)
        jobs = [serial_job(i, f"j{i}") for i in range(3)]
        wl = Workload(jobs, cores_per_machine=2)  # one pad (pid 3)
        problem = CoSchedulingProblem(
            wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D)
        )
        assert problem.degradation(3, frozenset({0})) == 0.0   # pad suffers 0
        assert problem.degradation(0, frozenset({3})) == 0.0   # pad inflicts 0
        assert problem.degradation(0, frozenset({1})) == 1.0

    def test_node_weight_sums_members(self):
        D = np.array([[0, 1, 2], [3, 0, 4], [5, 6, 0]], dtype=float)
        jobs = [serial_job(i, f"j{i}") for i in range(3)]
        wl = Workload(jobs, cores_per_machine=3)
        problem = CoSchedulingProblem(
            wl, _three_core(), MatrixDegradationModel(pairwise=D)
        )
        # weight = d0{1,2} + d1{0,2} + d2{0,1} = (1+2)+(3+4)+(5+6)
        assert problem.node_weight((0, 1, 2)) == pytest.approx(21.0)

    def test_caching_counts(self):
        D = np.ones((4, 4)) - np.eye(4)
        problem = serial_problem(D)
        problem.degradation(0, frozenset({1}))
        problem.degradation(0, frozenset({1}))
        assert problem.counters.count("degradation_evals") == 1
        problem.clear_caches()
        assert problem.counters.count("degradation_evals") == 0

    def test_eq9_combination_for_pc(self):
        """Eq. 9: d = cache degradation + comm_time / single_time."""
        topo = grid_1d(2, halo_bytes=500.0)
        jobs = [pc_job(0, "mpi", topology=topo), serial_job(1, "x"),
                serial_job(2, "y")]
        wl = Workload(jobs, cores_per_machine=2)
        D = np.zeros((4, 4))
        D[0, 2] = 0.25  # rank0 suffers from x
        model = MatrixDegradationModel(pairwise=D, single_times=[2.0] * 4)
        cluster = ClusterSpec(machine=DUAL_CORE_CLUSTER.machine,
                              bandwidth_bytes_per_s=1000.0)
        comm = CommunicationModel(wl, cluster.bandwidth_bytes_per_s)
        problem = CoSchedulingProblem(wl, cluster, model, comm)
        # rank0 with serial x: cache 0.25 + comm (500/1000)/2 = 0.25.
        assert problem.degradation(0, frozenset({2})) == pytest.approx(0.5)
        # rank0 with its neighbour rank1: no comm, no cache entry.
        assert problem.degradation(0, frozenset({1})) == 0.0

    def test_min_process_degradation_floor(self):
        rng = np.random.default_rng(0)
        D = rng.uniform(0, 1, size=(6, 6))
        np.fill_diagonal(D, 0.0)
        problem = serial_problem(D)
        for pid in range(6):
            floor = problem.min_process_degradation(pid)
            actual = min(
                problem.degradation(pid, frozenset({q}))
                for q in range(6) if q != pid
            )
            assert floor <= actual + 1e-12


class TestObjective:
    def test_serial_sum_eq12(self):
        D = np.array(
            [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 4, 0]],
            dtype=float,
        )
        problem = serial_problem(D)
        sched = CoSchedule.from_groups([(0, 1), (2, 3)], u=2)
        ev = evaluate_schedule(problem, sched)
        assert ev.objective == pytest.approx(1 + 2 + 3 + 4)
        assert ev.job_degradations[0] == 1.0
        assert ev.average_job_degradation == pytest.approx(2.5)

    def test_parallel_max_eq13(self):
        """A PE job contributes max over its processes, not the sum."""
        jobs = [pe_job(0, "mc", nprocs=2), serial_job(1, "x"), serial_job(2, "y")]
        wl = Workload(jobs, cores_per_machine=2)
        D = np.zeros((4, 4))
        D[0, 2] = 0.6  # rank0 with x
        D[1, 3] = 0.2  # rank1 with y
        D[2, 0] = 0.1
        D[3, 1] = 0.3
        problem = CoSchedulingProblem(
            wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D)
        )
        sched = CoSchedule.from_groups([(0, 2), (1, 3)], u=2)
        ev = evaluate_schedule(problem, sched)
        # job 0: max(0.6, 0.2) = 0.6; serial x: 0.1; serial y: 0.3.
        assert ev.objective == pytest.approx(0.6 + 0.1 + 0.3)
        assert ev.job_degradations[0] == pytest.approx(0.6)
        assert ev.max_job_degradation == pytest.approx(0.6)

    def test_shape_mismatch_rejected(self):
        problem = serial_problem(np.zeros((4, 4)))
        wrong = CoSchedule.from_groups([(0, 1, 2, 3)], u=4)
        with pytest.raises(ValueError):
            evaluate_schedule(problem, wrong)

    def test_partial_distance_matches_full_on_complete_path(self):
        rng = np.random.default_rng(1)
        D = rng.uniform(0, 1, size=(6, 6))
        np.fill_diagonal(D, 0.0)
        problem = serial_problem(D)
        sched = CoSchedule.from_groups([(0, 3), (1, 4), (2, 5)], u=2)
        assert partial_distance(problem, sched.groups) == pytest.approx(
            evaluate_schedule(problem, sched).objective
        )

    def test_partial_distance_monotone_along_path(self):
        rng = np.random.default_rng(2)
        D = rng.uniform(0, 1, size=(6, 6))
        np.fill_diagonal(D, 0.0)
        problem = serial_problem(D)
        groups = ((0, 3), (1, 4), (2, 5))
        dists = [partial_distance(problem, groups[:k]) for k in range(4)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


# --------------------------------------------------------------------- #
# Per-node degradation vectors (the mixed search path's Eq. 9 reads)
# --------------------------------------------------------------------- #


def _mixed_sdc(padded):
    from repro.workloads import random_mixed_instance

    if padded:  # 12 real processes on eight cores: 4 imaginary pads
        return lambda: random_mixed_instance(
            5, pe_shapes=(3,), pc_shapes=(4,), cluster="eight", seed=4)
    return lambda: random_mixed_instance(
        6, pe_shapes=(4,), pc_shapes=(6,), cluster="quad", seed=3)


def _matrix_exact_comm():
    """Pairwise table with ``exact`` overrides, a PE job and a PC ring."""
    def build():
        jobs = [serial_job(0, "a"), serial_job(1, "b"),
                pe_job(2, "mc", nprocs=2),
                pc_job(3, "ring", topology=grid_1d(4, 3e9, periodic=True))]
        wl = Workload(jobs, cores_per_machine=4)
        rng = np.random.default_rng(11)
        D = rng.uniform(0.05, 0.4, size=(wl.n, wl.n))
        np.fill_diagonal(D, 0.0)
        exact = {}
        for node in [(0, 1, 2, 3), (0, 4, 5, 6), (1, 2, 5, 7)]:
            for pid in node:
                exact[(pid, frozenset(node) - {pid})] = float(rng.uniform(0, 1))
        model = MatrixDegradationModel(pairwise=D, exact=exact,
                                       single_times=[2.0] * wl.n)
        comm = CommunicationModel(wl, QUAD_CORE_CLUSTER.bandwidth_bytes_per_s)
        return CoSchedulingProblem(wl, QUAD_CORE_CLUSTER, model, comm)
    return build


def _pressure(model_cls, padded):
    def build():
        n_jobs = 10 if padded else 12
        jobs = [serial_job(i, f"j{i}") for i in range(n_jobs)]
        wl = Workload(jobs, cores_per_machine=4)
        model = model_cls.random(wl.n, cores=4, seed=2, saturation=0.8)
        return CoSchedulingProblem(wl, QUAD_CORE_CLUSTER, model)
    return build


def _all_nodes(problem, levels=3):
    n, u = problem.n, problem.u
    for L in range(min(levels, n - u + 1)):
        for combo in itertools.combinations(range(L + 1, n), u - 1):
            yield (L,) + combo


class TestNodeDegradations:
    @pytest.mark.parametrize("build", [
        _mixed_sdc(padded=False),
        _mixed_sdc(padded=True),
        _matrix_exact_comm(),
        _pressure(MissRatePressureModel, padded=False),
        _pressure(AsymmetricContentionModel, padded=True),
    ], ids=["sdc-comm", "sdc-comm-padded", "matrix-exact-comm",
            "miss-rate", "asymmetric-padded"])
    def test_vector_equals_per_pid_degradation(self, build):
        problem, reference = build(), build()
        for node in _all_nodes(problem):
            degs = problem.node_degradations(node)
            want = tuple(
                reference.degradation(pid, frozenset(node) - {pid})
                for pid in node
            )
            assert degs == want, node
            assert problem.node_weight(node) == sum(want)

    def test_clear_caches_drops_the_vector_memo(self):
        problem = _mixed_sdc(padded=False)()
        node = (0, 10, 11, 12)  # one serial process and three PC ranks
        assert all(problem.comm.is_communicating(p) for p in node[1:])
        before = problem.node_degradations(node)
        problem.comm.bandwidth *= 2.0
        assert problem.node_degradations(node) == before  # memoized
        problem.clear_caches()
        after = problem.node_degradations(node)
        assert after[0] == before[0]
        assert all(a < b for a, b in zip(after[1:], before[1:]))

    def test_weight_eval_budget_stops_where_it_did(self):
        # Pinned from the scalar per-pid path: the per-node vectors must
        # not change which node weights count as evaluations.
        from repro.runtime.registry import create_solver
        from repro.solvers.budget import Budget
        from repro.workloads import random_mixed_instance

        problem = random_mixed_instance(6, pe_shapes=(4,), pc_shapes=(6,),
                                        seed=1)
        result = create_solver("oastar?condense=true").solve(
            problem, budget=Budget(max_weight_evals=300))
        budget = result.stats["budget"]
        assert budget["stopped"] == "weight_evals"
        assert budget["weight_evals"] == 327
        assert budget["charged"] == result.stats["expanded"] == 36
        assert repr(result.objective) == "0.9880912508173068"
