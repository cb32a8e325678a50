"""Tests of the A* core's design features: dismiss strategies, partial
expansion, parallel-max bookkeeping, and failure behaviours."""

import numpy as np
import pytest

from repro.core.degradation import MatrixDegradationModel
from repro.core.jobs import Workload, pe_job, serial_job
from repro.core.machine import DUAL_CORE_CLUSTER
from repro.core.problem import CoSchedulingProblem
from repro.solvers import BruteForce, OAStar
from repro.solvers.astar_core import AStarSearch, _Record, _dominates
from repro.workloads.synthetic import random_serial_instance


class TestDominance:
    def rec(self, serial, par):
        return _Record(unscheduled=(), serial_sum=serial, par_max=tuple(par),
                       par_remaining=(1,) * len(par), g=serial + sum(par),
                       node=None, parent=None)

    def test_plain_serial_ordering(self):
        assert _dominates(self.rec(1.0, ()), self.rec(2.0, ()))
        assert not _dominates(self.rec(2.0, ()), self.rec(1.0, ()))

    def test_equal_is_mutual(self):
        a, b = self.rec(1.0, (0.5,)), self.rec(1.0, (0.5,))
        assert _dominates(a, b) and _dominates(b, a)

    def test_lower_max_with_lower_serial_dominates(self):
        """Smaller serial part AND smaller running max: dominance holds
        (every completion prefers a)."""
        a = self.rec(0.0, (3.0,))
        b = self.rec(1.0, (3.5,))
        assert _dominates(a, b)
        assert not _dominates(b, a)

    def test_absorbed_max_is_incomparable_with_lower_g(self):
        """The danger case for the published min-g rule: a has lower total
        distance but a higher running max — under a completion with a
        large future process for that job, b wins.  Neither dominates."""
        a = self.rec(0.0, (3.5,))   # g = 3.5
        b = self.rec(1.5, (0.5,))   # g = 2.0 (min-g would keep only b)
        assert not _dominates(a, b)
        assert not _dominates(b, a)


class TestPaperDismissSuboptimality:
    def build_counterexample(self):
        """Two PE jobs + serial filler on dual-core machines, crafted so
        the min-g dismissal prunes the true optimum (Section III-C1
        analysis; see EXPERIMENTS.md)."""
        rng = np.random.default_rng(123)
        jobs = [pe_job(0, "p", nprocs=2), pe_job(1, "q", nprocs=2),
                serial_job(2, "a"), serial_job(3, "b")]
        wl = Workload(jobs, cores_per_machine=2)
        D = rng.uniform(0, 1, size=(wl.n, wl.n))
        np.fill_diagonal(D, 0.0)
        return CoSchedulingProblem(wl, DUAL_CORE_CLUSTER,
                                   MatrixDegradationModel(pairwise=D))

    def test_dominance_always_matches_brute_force(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            jobs = [pe_job(0, "p", nprocs=2), pe_job(1, "q", nprocs=2),
                    serial_job(2, "a"), serial_job(3, "b")]
            wl = Workload(jobs, cores_per_machine=2)
            D = rng.uniform(0, 1, size=(wl.n, wl.n))
            np.fill_diagonal(D, 0.0)
            problem = CoSchedulingProblem(
                wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D))
            bf = BruteForce().solve(problem).objective
            oa = OAStar().solve(problem).objective
            assert oa == pytest.approx(bf, abs=1e-9)

    def test_paper_rule_never_better_than_dominance(self):
        """min-g dismissal can only match or exceed the exact objective."""
        worse_somewhere = False
        for seed in range(20):
            rng = np.random.default_rng(seed)
            jobs = [pe_job(0, "p", nprocs=2), pe_job(1, "q", nprocs=2),
                    serial_job(2, "a"), serial_job(3, "b")]
            wl = Workload(jobs, cores_per_machine=2)
            D = rng.uniform(0, 1, size=(wl.n, wl.n))
            np.fill_diagonal(D, 0.0)
            problem = CoSchedulingProblem(
                wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D))
            exact = OAStar().solve(problem).objective
            problem.clear_caches()
            paper = OAStar(dismiss="paper").solve(problem).objective
            assert paper >= exact - 1e-9
            if paper > exact + 1e-9:
                worse_somewhere = True
        # Not asserting worse_somewhere: the gap is instance-dependent; the
        # invariant is one-sided boundedness.


class TestPartialExpansion:
    @pytest.mark.parametrize("seed", range(5))
    def test_equivalent_to_full_expansion(self, seed):
        problem = random_serial_instance(10, cluster="dual", seed=seed)
        full = OAStar(partial_expansion=False).solve(problem)
        problem.clear_caches()
        partial = OAStar(partial_expansion=True).solve(problem)
        assert partial.objective == pytest.approx(full.objective, abs=1e-9)

    def test_resumes_counted(self):
        # Re-queue pops are counted as resumes, not as expansions: the
        # streamed search expands exactly the states full expansion does.
        problem = random_serial_instance(16, cluster="quad", seed=0)
        r = OAStar().solve(problem)
        problem.clear_caches()
        full = OAStar(partial_expansion=False).solve(problem)
        assert r.stats["partial_resumes"] > 0
        assert r.stats["expanded"] == full.stats["expanded"]
        # Equal up to summation order (they differ in the last bit).
        assert r.objective == pytest.approx(full.objective, abs=1e-12)


class TestConfigurationErrors:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            AStarSearch(h_strategy=7)

    def test_bad_dismiss(self):
        with pytest.raises(ValueError):
            AStarSearch(dismiss="nope")

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            AStarSearch(node_limit_fraction=0)

    def test_bad_beam(self):
        with pytest.raises(ValueError):
            AStarSearch(beam_width=0)


class TestInternalConsistency:
    def test_solver_objective_equals_evaluator(self):
        """Solver-internal g must equal the independent Eq. 6/13 evaluator
        (base.Solver asserts this; here we check it holds on a PE mix)."""
        rng = np.random.default_rng(3)
        jobs = [pe_job(0, "p", nprocs=3), serial_job(1, "a")]
        wl = Workload(jobs, cores_per_machine=2)
        D = rng.uniform(0, 1, size=(wl.n, wl.n))
        np.fill_diagonal(D, 0.0)
        problem = CoSchedulingProblem(
            wl, DUAL_CORE_CLUSTER, MatrixDegradationModel(pairwise=D))
        result = OAStar().solve(problem)
        assert result.evaluation.objective == pytest.approx(result.objective)

    def test_stats_present(self):
        problem = random_serial_instance(8, cluster="quad", seed=2)
        r = OAStar().solve(problem)
        for key in ("expanded", "visited_paths", "dismissed",
                    "nodes_generated"):
            assert key in r.stats


class TestBatchAndParallelScoring:
    def test_profile_snapshot_in_stats(self):
        problem = random_serial_instance(12, cluster="quad", seed=21)
        result = OAStar().solve(problem)
        prof = result.stats["profile"]
        assert "search" in prof["phase_seconds"]
        assert "heuristic_levels" in prof["phase_seconds"]
        assert prof["counts"].get("heap_pushes", 0) >= 1
        # Batch kernels actually ran with multi-node batches.
        batches = prof["batches"]
        assert any(s["max_size"] > 1 for s in batches.values())
