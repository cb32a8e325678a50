"""Batch weight kernels: agreement with the scalar path, memoization,
fallbacks, and the cache-clearing hook."""

import itertools

import numpy as np
import pytest

from repro.core.constraints import (
    BandwidthCapConstraint,
    CachePartitionModel,
    ScenarioConstraint,
)
from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
    SDCDegradationModel,
)
from repro.core.jobs import Workload, serial_job
from repro.core.machine import MACHINES, QUAD_CORE, ClusterSpec
from repro.core.problem import CoSchedulingProblem
from repro.solvers.budget import _WEIGHT_EVAL_COUNTERS
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import serial_mix
from repro.workloads.synthetic import (
    random_asymmetric_instance,
    random_interaction_instance,
    random_serial_instance,
)


def node_evals(problem):
    """Node weights computed, memo misses and direct kernel rows alike."""
    return sum(problem.counters.count(name) for name in _WEIGHT_EVAL_COUNTERS)


def random_nodes(n, u, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        tuple(sorted(rng.choice(n, size=u, replace=False)))
        for _ in range(count)
    ]


def scalar_weights(model, nodes):
    return np.array([
        sum(model.cache_degradation(pid, frozenset(nd) - {pid}) for pid in nd)
        for nd in nodes
    ])


class TestModelKernels:
    @pytest.mark.parametrize("saturation", [None, 0.9])
    def test_miss_rate_matches_scalar(self, saturation):
        rng = np.random.default_rng(1)
        model = MissRatePressureModel(
            miss_rates=rng.uniform(0.15, 0.75, size=20),
            cores=4, saturation=saturation,
        )
        nodes = random_nodes(20, 4, 200, seed=2)
        batch = model.node_weights_batch(np.asarray(nodes))
        np.testing.assert_allclose(batch, scalar_weights(model, nodes),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("saturation", [None, 0.75])
    def test_asymmetric_matches_scalar(self, saturation):
        model = AsymmetricContentionModel.random(18, cores=4, seed=3,
                                                 saturation=saturation)
        nodes = random_nodes(18, 4, 150, seed=4)
        batch = model.node_weights_batch(np.asarray(nodes))
        np.testing.assert_allclose(batch, scalar_weights(model, nodes),
                                   rtol=0, atol=1e-9)

    def test_matrix_pairwise_matches_scalar(self):
        model = MatrixDegradationModel.random_interaction(16, cores=4, seed=5)
        nodes = random_nodes(16, 4, 150, seed=6)
        batch = model.node_weights_batch(np.asarray(nodes))
        np.testing.assert_allclose(batch, scalar_weights(model, nodes),
                                   rtol=0, atol=1e-9)

    def test_matrix_exact_overrides_fall_back(self):
        """Tables with exact overrides must not vectorize past them."""
        pairwise = np.ones((4, 4)) - np.eye(4)
        exact = {(0, frozenset({1})): 7.5}
        model = MatrixDegradationModel(pairwise=pairwise, exact=exact)
        assert not model.supports_batch()
        nodes = [(0, 1), (2, 3)]
        batch = model.node_weights_batch(np.asarray(nodes))
        np.testing.assert_allclose(batch, scalar_weights(model, nodes),
                                   atol=1e-12)
        assert batch[0] == pytest.approx(7.5 + 1.0)  # override + pairwise

    def test_sdc_generic_fallback_matches_scalar(self):
        jobs = [serial_job(i, n) for i, n in
                enumerate(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])]
        wl = Workload(jobs, cores_per_machine=4)
        model = SDCDegradationModel(wl, QUAD_CORE, CATALOG)
        assert not model.supports_batch()
        nodes = list(
            (0,) + c for c in itertools.combinations(range(1, 8), 3)
        )
        batch = model.node_weights_batch(np.asarray(nodes))
        np.testing.assert_allclose(batch, scalar_weights(model, nodes),
                                   rtol=0, atol=1e-9)

    def test_rejects_flat_input(self):
        model = MissRatePressureModel(miss_rates=[0.2, 0.4, 0.6], cores=2)
        with pytest.raises(ValueError):
            model.node_weights_batch(np.array([0, 1, 2]))


class TestProblemBatch:
    @pytest.mark.parametrize("maker", [
        random_serial_instance,
        random_asymmetric_instance,
        random_interaction_instance,
    ])
    def test_matches_node_weight(self, maker):
        problem = maker(12, cluster="quad", seed=7)
        assert problem.supports_batch_weights()
        nodes = [
            (0,) + c for c in itertools.combinations(range(1, 12), 3)
        ]
        batch = problem.node_weights_batch(nodes)
        scalar = np.array([problem.node_weight(nd) for nd in nodes])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-9)

    def test_memo_round_trip(self):
        problem = random_serial_instance(12, cluster="quad", seed=8)
        nodes = [(0, 1, 2, 3), (0, 1, 2, 4), (4, 5, 6, 7)]
        first = problem.node_weights_batch(nodes)
        assert node_evals(problem) == 3
        again = problem.node_weights_batch(nodes)
        np.testing.assert_array_equal(first, again)
        # Second pass is pure memo hits — no new evaluations.
        assert node_evals(problem) == 3
        assert problem.counters.count("node_memo_hits") == 3
        # And the scalar path sees the same memoized values.
        for nd, w in zip(nodes, first):
            assert problem.node_weight(nd) == w

    def test_memo_false_skips_cache(self):
        problem = random_serial_instance(12, cluster="quad", seed=8)
        nodes = [(0, 1, 2, 3), (4, 5, 6, 7)]
        problem.node_weights_batch(nodes, memo=False)
        assert problem._node_cache == {}

    def test_imaginary_padding_uses_scalar_fallback(self):
        # 10 processes on quad-core machines -> 2 imaginary pads.
        problem = random_serial_instance(10, cluster="quad", seed=9)
        assert problem.workload.n_imaginary == 2
        assert not problem.supports_batch_weights()
        n = problem.n
        nodes = [
            (0,) + c for c in itertools.combinations(range(1, n), 3)
        ][:50]
        batch = problem.node_weights_batch(nodes)
        scalar = np.array([problem.node_weight(nd) for nd in nodes])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_extra_cost_included(self):
        problem = random_serial_instance(8, cluster="quad", seed=10)
        problem.node_extra_cost = lambda node: 0.25 * node[0]
        problem.clear_caches()
        nodes = [(0, 1, 2, 3), (1, 2, 3, 4)]
        batch = problem.node_weights_batch(nodes)
        scalar = np.array([problem.node_weight(nd) for nd in nodes])
        np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)

    def test_comm_model_uses_scalar_fallback(self):
        from repro.workloads.mixes import pc_serial_mix

        problem = pc_serial_mix(cluster="quad")
        assert not problem.supports_batch_weights()
        nodes = [tuple(range(problem.u))]
        batch = problem.node_weights_batch(nodes)
        assert batch[0] == pytest.approx(problem.node_weight(nodes[0]))


class TestClearCaches:
    def test_problem_clear_reaches_model_caches(self):
        problem = serial_mix(["BT", "CG", "EP", "FT"], cluster="quad")
        model = problem.model
        assert isinstance(model, SDCDegradationModel)
        problem.node_weight((0, 1, 2, 3))
        assert model._cache and model._sdp_cache
        problem.clear_caches()
        assert model._cache == {}
        assert model._sdp_cache == {}
        assert model._rate_cache == {}
        assert model._single_times == {}
        assert problem._node_cache == {}
        assert problem._deg_cache == {}

    def test_stale_values_not_served_after_mutation(self):
        """The regression the hook exists for: mutate the model, clear, and
        the problem must recompute rather than serve the stale memo."""
        problem = random_serial_instance(8, cluster="quad", seed=11)
        node = (0, 1, 2, 3)
        before = problem.node_weight(node)
        problem.model.miss_rates = problem.model.miss_rates * 2.0
        problem.clear_caches()
        after = problem.node_weight(node)
        assert after != pytest.approx(before)

    def test_base_model_clear_is_noop(self):
        model = MissRatePressureModel(miss_rates=[0.2, 0.3], cores=2)
        model.clear_caches()  # must not raise

    def test_clear_resets_counters(self):
        problem = random_serial_instance(8, cluster="quad", seed=12)
        problem.node_weights_batch([(0, 1, 2, 3)])
        assert problem.counters.count("node_weight_batched") == 1
        problem.clear_caches()
        assert problem.counters.count("node_weight_batched") == 0


def scenario_problem(model_name, roster=("dual", "quad", "eight")):
    """A dual + quad + eight roster with a bandwidth cap, a cache
    partition and clock scaling attached, over one of four models."""
    machines = tuple(MACHINES[m] for m in roster)
    cluster = ClusterSpec.of_machines(machines)
    n = sum(m.cores for m in machines)
    cores = cluster.machine.cores
    if model_name == "sdc":
        names = ["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"]
        jobs = [serial_job(i, names[i % len(names)]) for i in range(n)]
        model = SDCDegradationModel(Workload(jobs), cluster.machine, CATALOG)
    else:
        jobs = [serial_job(i, f"j{i}", profile_name=f"j{i}") for i in range(n)]
        if model_name == "pressure":
            rates = np.random.default_rng(21).uniform(0.15, 0.75, size=n)
            model = MissRatePressureModel(miss_rates=rates, cores=cores,
                                          saturation=0.9)
        elif model_name == "asymmetric":
            model = AsymmetricContentionModel.random(n, cores=cores, seed=22,
                                                     saturation=0.75)
        else:
            model = MatrixDegradationModel.random_interaction(n, cores=cores,
                                                              seed=23)
    rng = np.random.default_rng(24)
    constraints = (
        BandwidthCapConstraint(
            demands=rng.uniform(0.2e9, 1.0e9, size=n).tolist(),
            caps=[None, 2.5e9, 3.0e9][:len(machines)],
        ),
        CachePartitionModel(
            footprints=rng.uniform(1.0, 4.0, size=n).tolist(),
            cache_bytes=[4.0, 8.0, 12.0][:len(machines)],
            weight=0.5,
        ),
    )
    reference = cluster.machine.clock_hz
    return CoSchedulingProblem(
        Workload(jobs), cluster, model, constraints=constraints,
        machine_scaling=[reference / m.clock_hz for m in machines],
    )


class TestMachineBatch:
    """``machine_node_weights_batch`` is the batch form of
    ``machine_node_weight``: same values, same memo."""

    @pytest.mark.parametrize("model_name, batched", [
        ("pressure", True),
        ("asymmetric", True),
        ("matrix", True),
        ("sdc", False),
    ])
    def test_matches_scalar_row_by_row(self, model_name, batched):
        scalar_p = scenario_problem(model_name)
        batch_p = scenario_problem(model_name)
        assert batch_p.supports_batch_weights() is batched
        assert len(set(batch_p.machine_scale)) > 1
        for k, cap in enumerate(batch_p.capacities):
            rows = list(itertools.combinations(range(batch_p.n), cap))[:400]
            batch = batch_p.machine_node_weights_batch(k, rows)
            scalar = np.array(
                [scalar_p.machine_node_weight(k, nd) for nd in rows]
            )
            assert (scalar > 0).all()
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0)
        kernel_rows = batch_p.counters.count("node_weight_batched")
        assert (kernel_rows > 0) is batched

    def test_penalties_are_charged(self):
        problem = scenario_problem("pressure")
        rows = list(itertools.combinations(range(problem.n), 4))[:200]
        with_pen = problem.machine_node_weights_batch(1, rows)
        bare = problem.machine_scale[1] * problem.node_weights_batch(rows)
        assert (with_pen >= bare - 1e-12).all()
        assert (with_pen > bare + 1e-9).any()

    @pytest.mark.parametrize("model_name", ["pressure", "sdc"])
    def test_negative_penalty_raises(self, model_name):
        class Rebate(ScenarioConstraint):
            kind = "rebate"

            def penalty(self, machine_idx, node):
                return -1.0 if 0 in node else 0.0

        problem = scenario_problem(model_name)
        problem.constraints = problem.constraints + (Rebate(),)
        rows = [(1, 2), (0, 3)]
        with pytest.raises(ValueError, match="negative penalty"):
            problem.machine_node_weights_batch(0, rows)
        with pytest.raises(ValueError, match="negative penalty"):
            problem.machine_node_weight(0, (0, 3))

    def test_second_call_is_all_memo_hits(self):
        problem = scenario_problem("pressure")
        rows = list(itertools.combinations(range(problem.n), 8))[:300]
        first = problem.machine_node_weights_batch(2, rows)
        evals = node_evals(problem)
        assert evals == len(rows)
        again = problem.machine_node_weights_batch(2, rows)
        np.testing.assert_array_equal(first, again)
        assert node_evals(problem) == evals
        # The scalar path reads the same memo.
        assert problem.machine_node_weight(2, rows[7]) == first[7]
        assert node_evals(problem) == evals
