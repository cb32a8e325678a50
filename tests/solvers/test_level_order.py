"""HA*'s level order and the one impoliteness score behind it.

HA* searches the co-scheduling graph's levels most-impolite first (PG's
order) by solving a relabelled copy of the problem.  These tests pin the
contract that order buys (never worse than PG on the headline families),
the closed-form impoliteness scores against a scalar reference loop, and
the relabelling plumbing (answers, padding, counters, tracing, budgets).
"""

import io

import numpy as np
import pytest

from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
)
from repro.core.jobs import Workload, serial_job
from repro.core.machine import CLUSTERS
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.perf import Tracer, read_trace
from repro.runtime import create_solver
from repro.service.codec import problem_from_dict, problem_to_dict
from repro.solvers import Budget, HAStar, PolitenessGreedy
from repro.solvers.hastar import level_order
from repro.workloads import (
    random_asymmetric_instance,
    random_interaction_instance,
    random_mixed_instance,
    random_profile_instance,
    random_serial_instance,
    serial_mix,
)


def _objective(spec, problem):
    return create_solver(spec).solve(problem).objective


def _problem(model, n, cluster="quad", **kwargs):
    u = CLUSTERS[cluster].cores
    wl = Workload([serial_job(i, f"j{i}") for i in range(n)],
                  cores_per_machine=u)
    return CoSchedulingProblem(wl, CLUSTERS[cluster], model, **kwargs)


def _reference_impoliteness(problem):
    """PG's score as the scalar double loop over pairwise co-runs."""
    n = problem.n
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                total += problem.degradation(j, frozenset((i,)))
        out[i] = total / max(1, n - 1)
    return out


def _descending(score):
    return sorted(range(len(score)), key=lambda p: (-score[p], p))


# --------------------------------------------------------------------- #
# The never-worse-than-PG contract
# --------------------------------------------------------------------- #


class TestNeverWorseThanPG:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("seed", [2015, 2016, 2017])
    def test_saturating_serial_family(self, n, seed):
        """The ``hastar-n64`` family: HA* with its default MER trim."""
        problem = random_serial_instance(n, "quad", seed=seed, saturation=4.0)
        pg = _objective("pg", problem)
        assert _objective("hastar", problem) <= pg

    @pytest.mark.parametrize("cluster", ["quad", "eight"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fig12_interaction_family(self, cluster, seed):
        """Fig. 12's pair-idiosyncratic instances, beam HA* as the figure
        runs it."""
        problem = random_interaction_instance(48, cluster=cluster, seed=seed)
        beam = max(16, problem.n // problem.u)
        pg = _objective("pg", problem)
        assert _objective(f"hastar?beam_width={beam}", problem) <= pg


# --------------------------------------------------------------------- #
# One impoliteness score
# --------------------------------------------------------------------- #


def _closed_form_problems():
    rng = np.random.default_rng(7)
    rates = rng.uniform(0.15, 0.75, 16)
    padded = np.append(rng.uniform(0.15, 0.75, 13), [0.0, 0.0, 0.0])
    s, a = rng.uniform(0.15, 0.75, (2, 16))
    D = rng.uniform(0.0, 0.5, (16, 16))  # non-zero diagonal: excluded
    return {
        "pressure-linear": _problem(MissRatePressureModel(rates, cores=4), 16),
        "pressure-saturating": _problem(
            MissRatePressureModel(rates, cores=4, saturation=0.9), 16),
        "pressure-padded": _problem(
            MissRatePressureModel(padded, cores=4, saturation=4.0), 13),
        "asymmetric": _problem(
            AsymmetricContentionModel(s, a, cores=4, saturation=0.75), 16),
        "asymmetric-padded": random_asymmetric_instance(14, "quad", seed=3),
        "matrix": _problem(MatrixDegradationModel(pairwise=D), 16),
        "matrix-padded": random_interaction_instance(14, "quad", seed=3),
    }


class TestImpoliteness:
    @pytest.mark.parametrize("name", sorted(_closed_form_problems()))
    def test_closed_form_matches_reference_loop(self, name):
        problem = _closed_form_problems()[name]
        score = problem.impoliteness()
        assert problem.counters.count("degradation_evals") == 0  # closed form
        ref = _reference_impoliteness(problem)
        np.testing.assert_allclose(score, ref, rtol=1e-12, atol=1e-12)
        assert _descending(score) == _descending(ref)
        wl = problem.workload
        assert all(score[p] == 0.0 for p in range(problem.n)
                   if wl.is_imaginary(p))

    def test_memoized_read_only_and_cleared(self):
        problem = random_serial_instance(12, "quad", seed=1)
        score = problem.impoliteness()
        assert problem.impoliteness() is score
        with pytest.raises(ValueError):
            score[0] = 1.0
        problem.clear_caches()
        assert problem.impoliteness() is not score

    @pytest.mark.parametrize("make", [
        lambda: _problem(MatrixDegradationModel(
            pairwise=np.full((8, 8), 0.1),
            exact={(0, frozenset({1})): 0.9}), 8),
        lambda: random_profile_instance(7, "quad", seed=2),
        lambda: random_mixed_instance(4, pc_shapes=(4,), seed=3),
    ], ids=["matrix-exact", "sdc", "comm"])
    def test_loop_path(self, make):
        """Exact overrides, the SDC pipeline and communication models have
        no closed form: the scores come from the pairwise co-runs."""
        problem = make()
        score = problem.impoliteness()
        assert problem.counters.count("degradation_evals") > 0
        ref = _reference_impoliteness(problem)
        np.testing.assert_array_equal(score, ref)

    def test_pg_follows_the_score(self):
        """PG places the most impolite remaining process first on every
        machine; its schedule is the one the reference order builds."""
        problem = random_interaction_instance(24, "quad", seed=5)
        order = _descending(_reference_impoliteness(problem))
        groups = []
        while order:
            groups.append([order.pop(0)] + [order.pop() for _ in range(3)])
        result = PolitenessGreedy().solve(problem)
        assert sorted(map(sorted, result.schedule.groups)) == sorted(
            map(sorted, groups))

    def test_pg_on_reference_seeds_is_unchanged(self):
        """PG's objective on the ``hastar-n64`` reference instances, summed
        in instance order, is pinned to the bit."""
        total = 0.0
        for i in range(8):
            seed = int(np.random.SeedSequence([2015, 1, i]).generate_state(1)[0])
            problem = random_serial_instance(64, "quad", seed=seed,
                                             saturation=4.0)
            total += PolitenessGreedy().solve(problem).objective
        assert total == 83.75001058445058


# --------------------------------------------------------------------- #
# Relabelling plumbing
# --------------------------------------------------------------------- #


def _relabel(doc, rng):
    """The same problem with its serial jobs listed in another order."""
    order = rng.permutation(len(doc["jobs"]))
    out = dict(doc)
    out["jobs"] = [doc["jobs"][i] for i in order]
    model = dict(doc["model"])
    model["miss_rates"] = [doc["model"]["miss_rates"][i] for i in order]
    out["model"] = model
    return out


class TestRelabelling:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_answer_independent_of_job_labels(self, seed):
        problem = random_serial_instance(24, "quad", seed=seed, saturation=4.0)
        doc = problem_to_dict(problem)
        twin = problem_from_dict(_relabel(doc, np.random.default_rng(seed)))
        assert _objective("hastar", twin) == pytest.approx(
            _objective("hastar", problem), rel=1e-12)

    def test_padded_tail_keeps_its_pids(self):
        problem = random_serial_instance(13, "quad", seed=4)
        order = level_order(problem)
        assert order is not None
        assert order[13:] == [13, 14, 15]
        copy = problem.relabeled(order)
        assert [copy.workload.is_imaginary(p) for p in range(16)] == (
            [False] * 13 + [True] * 3)
        result = HAStar().solve(problem)
        assert result.objective == pytest.approx(
            evaluate_schedule(problem, result.schedule).objective)

    def test_copy_shares_counters_and_relabels_degradations(self):
        problem = random_serial_instance(12, "quad", seed=6, saturation=0.9)
        order = level_order(problem)
        copy = problem.relabeled(order)
        assert copy.counters is problem.counters
        for k, pid in enumerate(order):
            assert copy.degradation(k, {0, 1, 2}) == problem.degradation(
                pid, {order[0], order[1], order[2]})

    def test_profile_and_trace_events(self):
        problem = random_serial_instance(16, "quad", seed=2, saturation=4.0)
        buf = io.StringIO()
        tracer = Tracer(buf, flush_every=1)
        problem.counters.tracer = tracer
        result = HAStar().solve(problem)
        problem.counters.tracer = None
        tracer.close()
        assert result.stats["profile"]["counts"]
        events = list(read_trace(io.StringIO(buf.getvalue())))
        assert events[0]["ev"] == "solve_start"
        assert any(e["ev"] == "bound" for e in events)
        assert events[-1]["ev"] == "solve_end"
        assert events[-1]["objective"] == pytest.approx(result.objective)

    def test_weight_eval_budget_still_trips(self):
        problem = serial_mix(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"],
                             "quad")
        assert level_order(problem) is not None
        result = HAStar().solve(problem, budget=Budget(max_weight_evals=5))
        assert result.budget_stopped == "weight_evals"
        assert result.schedule is not None
        assert result.objective == pytest.approx(
            evaluate_schedule(problem, result.schedule).objective)

    @pytest.mark.parametrize("make", [
        lambda: random_mixed_instance(6, pe_shapes=(4,), seed=1),
        lambda: random_mixed_instance(6, pe_shapes=(4,), pc_shapes=(6,),
                                      seed=1),
        lambda: _problem(MissRatePressureModel(
            np.linspace(0.2, 0.7, 8), cores=4), 8,
            node_extra_cost=lambda node: 0.01 * node[0]),
    ], ids=["pe", "pe-pc", "node-extra-cost"])
    def test_other_problems_keep_pid_order(self, make):
        problem = make()
        assert level_order(problem) is None
        with pytest.raises(ValueError):
            problem.relabeled(range(problem.n)[::-1])
