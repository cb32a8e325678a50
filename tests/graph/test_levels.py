"""Tests for successor generation and the h(v) estimators."""

import itertools
import math

import numpy as np
import pytest

from repro.core.degradation import MatrixDegradationModel, MissRatePressureModel
from repro.core.jobs import Workload, pe_job, serial_job
from repro.core.machine import (
    DUAL_CORE_CLUSTER,
    EIGHT_CORE_CLUSTER,
    QUAD_CORE_CLUSTER,
)
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.core.schedule import CoSchedule
from repro.graph import levels
from repro.graph.levels import HeuristicEstimator, SuccessorGenerator
from repro.graph.subset_enum import iter_subsets_monotone
from repro.solvers import HAStar


def pressure_problem(n, cluster=QUAD_CORE_CLUSTER, seed=0, saturation=None):
    jobs = [serial_job(i, f"j{i}") for i in range(n)]
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.15, 0.75, size=wl.n)
    for pid in range(wl.n):
        if wl.is_imaginary(pid):
            rates[pid] = 0.0
    model = MissRatePressureModel(rates, cores=cluster.cores,
                                  saturation=saturation)
    return CoSchedulingProblem(wl, cluster, model)


class TestSuccessorGenerator:
    def test_counts_all_valid_nodes(self):
        problem = pressure_problem(8)
        gen = SuccessorGenerator(problem)
        succ = gen.successors(tuple(range(8)))
        assert len(succ) == math.comb(7, 3)
        assert all(node[0] == 0 for node, _w in succ)

    def test_limit_returns_lowest_weights(self):
        problem = pressure_problem(8)
        gen = SuccessorGenerator(problem)
        full = sorted(w for _n, w in gen.successors(tuple(range(8))))
        top = gen.successors(tuple(range(8)), limit=5)
        assert [w for _n, w in top] == pytest.approx(full[:5])

    def test_lazy_path_matches_exact(self, monkeypatch):
        problem = pressure_problem(16)
        gen = SuccessorGenerator(problem)
        st_ = tuple(range(16))
        monkeypatch.setattr(levels, "_LAZY_THRESHOLD", 10**9)
        exact = gen.successors(st_, limit=4)
        monkeypatch.setattr(levels, "_LAZY_THRESHOLD", 1)
        lazy = gen.successors(st_, limit=4)
        assert [w for _n, w in exact] == pytest.approx([w for _n, w in lazy])
        assert [set(n) for n, _ in exact] == [set(n) for n, _ in lazy]

    def test_pe_bucketing_shrinks_enumeration(self):
        jobs = [pe_job(0, "mc", nprocs=6), serial_job(1, "a"), serial_job(2, "b")]
        wl = Workload(jobs, cores_per_machine=4)
        # PE ranks share a miss rate, so the model declares them
        # interchangeable and bucketing may kick in.
        model = MissRatePressureModel([0.5] * 6 + [0.2, 0.7], cores=4)
        problem = CoSchedulingProblem(wl, QUAD_CORE_CLUSTER, model)
        bucketed = SuccessorGenerator(problem, condense_pe=True)
        flat = SuccessorGenerator(problem, condense_pe=False)
        s = tuple(range(8))
        n_b = len(bucketed.successors(s))
        n_f = len(flat.successors(s))
        assert n_b < n_f == math.comb(7, 3)
        # Bucketed choices: level pid is rank 0 of the PE job; remaining
        # 3 slots from {5 more PE ranks (prefix only), a, b}:
        # compositions: (3,0,0),(2,1,0),(2,0,1),(1,1,1) -> 4 nodes.
        assert n_b == 4

    def test_stream_requires_monotone(self):
        jobs = [pe_job(0, "mc", nprocs=4)]
        wl = Workload(jobs, cores_per_machine=2)
        problem = CoSchedulingProblem(
            wl, DUAL_CORE_CLUSTER,
            MatrixDegradationModel(pairwise=np.zeros((4, 4))),
        )
        gen = SuccessorGenerator(problem)
        assert not gen.supports_stream()
        with pytest.raises(RuntimeError):
            next(gen.successors_stream((0, 1, 2, 3)))

    def test_stream_ascending(self):
        problem = pressure_problem(12)
        gen = SuccessorGenerator(problem)
        assert gen.supports_stream()
        ws = [w for _n, w in itertools.islice(
            gen.successors_stream(tuple(range(12))), 30)]
        assert all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))


def complete_schedules(n, u):
    """All canonical partitions, as node tuples."""
    def rec(unscheduled):
        if not unscheduled:
            yield ()
            return
        head, rest = unscheduled[0], unscheduled[1:]
        for combo in itertools.combinations(rest, u - 1):
            node = (head,) + combo
            remaining = tuple(p for p in rest if p not in combo)
            for tail in rec(remaining):
                yield (node,) + tail
    yield from rec(tuple(range(n)))


class TestHeuristicAdmissibility:
    @pytest.mark.parametrize("strategy", [1, 2])
    @pytest.mark.parametrize("level_mode", ["exact", "monotone", "pairwise"])
    def test_h_never_exceeds_best_completion(self, strategy, level_mode):
        """From the root state, h must lower-bound the optimal objective."""
        problem = pressure_problem(8, cluster=QUAD_CORE_CLUSTER, seed=3)
        est = HeuristicEstimator(problem, strategy=strategy,
                                 level_mode=level_mode)
        best = min(
            evaluate_schedule(
                problem, CoSchedule.from_groups(groups, u=4, n=8)
            ).objective
            for groups in complete_schedules(8, 4)
        )
        assert est.h(tuple(range(8))) <= best + 1e-9

    def test_h_admissible_from_intermediate_states(self):
        problem = pressure_problem(8, cluster=DUAL_CORE_CLUSTER, seed=5)
        est = HeuristicEstimator(problem, strategy=2, level_mode="exact")
        # For every partial path, h(state) <= cost of the best completion
        # of the REMAINING jobs.
        from repro.core.objective import partial_distance

        for groups in complete_schedules(6, 2):
            # evaluate suffix completions of each prefix
            for k in range(1, 3):
                prefix, suffix = groups[:k], groups[k:]
                unscheduled = tuple(sorted(
                    p for g in suffix for p in g
                ))
                suffix_cost = partial_distance(problem, suffix)
                assert est.h(unscheduled) <= suffix_cost + 1e-9

    def test_both_strategies_give_positive_bounds(self):
        """S1 and S2 are incomparable pointwise (the paper's claim is about
        pruning effectiveness, not dominance) — but both must be positive
        lower bounds on a contended instance."""
        problem = pressure_problem(12, seed=7)
        e1 = HeuristicEstimator(problem, strategy=1, level_mode="exact")
        e2 = HeuristicEstimator(problem, strategy=2, level_mode="exact")
        state = tuple(range(12))
        assert e1.h(state) > 0.0
        assert e2.h(state) > 0.0

    def test_h_tail_bounds_children(self):
        problem = pressure_problem(12, seed=9)
        est = HeuristicEstimator(problem, strategy=2)
        state = tuple(range(12))
        tail = est.h_tail(state)
        gen = SuccessorGenerator(problem)
        for node, _w in gen.successors(state, limit=10):
            child = tuple(p for p in state if p not in node)
            assert est.h(child) >= tail - 1e-9

    def test_zero_when_done(self):
        problem = pressure_problem(8)
        est = HeuristicEstimator(problem)
        assert est.h(()) == 0.0

    def test_invalid_args(self):
        problem = pressure_problem(8)
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, strategy=3)
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, h_parallel="bogus")
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, level_mode="bogus")


class TestBatchScoredSuccessors:
    def test_eager_batch_matches_scalar_reference(self):
        problem = pressure_problem(12)
        gen = SuccessorGenerator(problem)
        unscheduled = tuple(range(12))
        out = gen.successors(unscheduled)
        for node, w in out:
            assert w == pytest.approx(problem.node_weight(node), abs=1e-12)
        assert len(out) == math.comb(11, 3)

    def test_presorted_levels_batch_matches(self):
        # MatrixDegradationModel without its fast scalar weight (which
        # would select the proxy stream) -> presorted levels, scored
        # through the batch kernel.
        model = MatrixDegradationModel.random_interaction(8, cores=2, seed=3)
        model.node_weight_fast = None
        jobs = [serial_job(i, f"j{i}") for i in range(8)]
        wl = Workload(jobs, cores_per_machine=2)
        problem = CoSchedulingProblem(wl, DUAL_CORE_CLUSTER, model)
        gen = SuccessorGenerator(problem)
        assert gen._presort_ok and problem.supports_batch_weights()
        out = gen.successors(tuple(range(8)))
        weights = [w for _, w in out]
        assert weights == sorted(weights)
        for node, w in out:
            assert w == pytest.approx(problem.node_weight(node), abs=1e-12)


def heap_first(problem, unscheduled, limit):
    """The first ``limit`` items of the lazy heap enumeration, as nodes."""
    model = problem.model
    level_pid, rest = unscheduled[0], unscheduled[1:]

    def weight_batch(subs):
        return model.node_weights_batch([(level_pid,) + s for s in subs])

    stream = iter_subsets_monotone(
        rest, problem.u - 1,
        lambda s: model.node_weight_fast((level_pid,) + s),
        model.pressure, weight_batch=weight_batch,
    )
    return [
        (tuple(sorted((level_pid,) + sub)), w)
        for sub, w in itertools.islice(stream, limit)
    ]


def window_batches(problem):
    return problem.counters.batch_stats("mer_window")["batches"]


class TestMerWindow:
    @pytest.mark.parametrize("limit, k, size", [(16, 3, 174), (16, 7, 564)])
    def test_table_is_the_budgeted_tuples_in_lex_order(self, limit, k, size):
        width = limit + k - 1
        table = levels._mer_window(limit, k, width, 10**6)
        brute = [
            c for c in itertools.combinations(range(width), k)
            if sum(i - j for j, i in enumerate(c)) <= limit - 1
        ]
        assert [tuple(r) for r in table.tolist()] == brute
        assert len(table) == size
        assert levels._mer_window(limit, k, width, size - 1) is None

    @pytest.mark.parametrize("cluster, n", [
        (QUAD_CORE_CLUSTER, 32),
        (QUAD_CORE_CLUSTER, 30),   # padded: two zero-rate processes tie
        (EIGHT_CORE_CLUSTER, 48),
        (EIGHT_CORE_CLUSTER, 45),  # padded: three zero-rate processes tie
    ])
    @pytest.mark.parametrize("saturation", [None, 4.0])
    def test_window_equals_heap_prefix(self, cluster, n, saturation):
        problem = pressure_problem(n, cluster=cluster, seed=11,
                                   saturation=saturation)
        u = problem.u
        n_pad = problem.n
        gen = SuccessorGenerator(problem)
        rng = np.random.default_rng(5)
        states = [tuple(range(n_pad))]
        # Large states, then small ones down to two machines' worth: there
        # the window is the whole level, often with |rest| < limit + k - 1.
        for keep in (n_pad - u, n_pad - 2 * u, n_pad - 3 * u, 4 * u, 3 * u,
                     2 * u):
            kept = rng.choice(n_pad, size=keep, replace=False)
            states.append(tuple(sorted(int(p) for p in kept)))
        small = 0
        for state in states:
            level = math.comb(len(state) - 1, u - 1)
            for limit in (1, 2, n_pad // u, 3 * n_pad // u):
                before = (window_batches(problem), gen.stats["generated"])
                got = gen.successors(state, limit=limit)
                assert window_batches(problem) == before[0] + 1
                assert len(got) == min(limit, level)
                assert gen.stats["generated"] == before[1] + len(got)
                # Same nodes, same order, bit-identical weights.
                assert got == heap_first(problem, state, limit)
                small += len(state) - 1 < limit + u - 2
        assert small >= 2

    def test_over_the_row_cap_takes_the_heap(self, monkeypatch):
        problem = pressure_problem(32, seed=2, saturation=4.0)
        state = tuple(range(32))
        monkeypatch.setattr(levels, "MER_WINDOW_MAX_ROWS", 100)  # 174 needed
        gen = SuccessorGenerator(problem)
        got = gen.successors(state, limit=16)
        assert window_batches(problem) == 0
        assert problem.counters.batch_stats("lazy_frontier")["batches"] > 0
        assert got == heap_first(problem, state, 16)
        # Within the cap the window answers, identically.
        monkeypatch.setattr(levels, "MER_WINDOW_MAX_ROWS", 174)
        assert SuccessorGenerator(problem).successors(state, limit=16) == got
        assert window_batches(problem) == 1

    def test_hastar_unchanged_without_the_window(self, monkeypatch):
        from repro.workloads import random_serial_instance

        def solve():
            problem = random_serial_instance(40, "quad", seed=4,
                                             saturation=4.0)
            return problem, HAStar().solve(problem)

        p_win, win = solve()
        monkeypatch.setattr(levels, "MER_WINDOW_MAX_ROWS", 0)
        p_heap, heap = solve()
        assert window_batches(p_win) > 0 and window_batches(p_heap) == 0
        assert win.schedule.groups == heap.schedule.groups
        assert win.objective == heap.objective
        for key in ("expanded", "nodes_generated", "dismissed"):
            assert win.stats[key] == heap.stats[key], key


# --------------------------------------------------------------------- #
# Table-driven condensation keys and the level tables, checked against
# the reference key and a brute-force enumeration.
# --------------------------------------------------------------------- #


def _mixed_problem(specs, cluster, seed):
    """SDC (+ communication) problem from ``("serial",)``, ``("pe", n)``
    and ``("pc", decomposition)`` job specs, padded to the core count."""
    from repro.comm.model import CommunicationModel
    from repro.core.degradation import SDCDegradationModel
    from repro.core.jobs import pc_job
    from repro.workloads.synthetic import random_profiles

    jobs = []
    for jid, spec in enumerate(specs):
        name = f"{spec[0]}{jid}"
        if spec[0] == "serial":
            jobs.append(serial_job(jid, name))
        elif spec[0] == "pe":
            jobs.append(pe_job(jid, name, nprocs=spec[1]))
        else:
            jobs.append(pc_job(jid, name, topology=spec[1]))
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    model = SDCDegradationModel(
        wl, cluster.machine, random_profiles([j.name for j in jobs], seed=seed)
    )
    comm = (
        CommunicationModel(wl, cluster.bandwidth_bytes_per_s)
        if any(s[0] == "pc" for s in specs) else None
    )
    return CoSchedulingProblem(wl, cluster, model, comm)


def _shape_specs(shape, seed):
    from repro.comm.topology import grid_1d, grid_2d, grid_3d

    rng = np.random.default_rng(seed)
    serial = [("serial",)] * int(rng.integers(1, 4))
    if shape == "pe-only":
        return [("pe", 5), ("pe", 3)], QUAD_CORE_CLUSTER
    if shape == "pc-1d":
        return serial + [("pc", grid_1d(6, 1e9))], QUAD_CORE_CLUSTER
    if shape == "pc-2d":
        return serial + [("pe", 3), ("pc", grid_2d(3, 3, 2e9))], QUAD_CORE_CLUSTER
    if shape == "pc-3d":
        return serial + [("pc", grid_3d(2, 2, 2, (1e9, 2e9, 3e9)))], QUAD_CORE_CLUSTER
    if shape == "periodic":
        return serial + [("pc", grid_2d(3, 3, (1e9, 3e9), periodic=True))], \
            QUAD_CORE_CLUSTER
    if shape == "scrambled":
        return serial + [("pe", 2), ("pc", grid_2d(2, 4, 2e9).scrambled(seed))], \
            QUAD_CORE_CLUSTER
    if shape == "padded":
        # 1 serial + 2 + 6 = 9 real processes: padded to 12.
        return [("serial",), ("pe", 2), ("pc", grid_2d(2, 3, 2e9))], \
            QUAD_CORE_CLUSTER
    assert shape == "eight"
    return serial[:2] + [("pe", 3), ("pc", grid_2d(2, 4, 2e9)),
                         ("pc", grid_1d(3, 1e9))], EIGHT_CORE_CLUSTER


MIXED_SHAPES = ["pe-only", "pc-1d", "pc-2d", "pc-3d", "periodic",
                "scrambled", "padded", "eight"]


def _states(problem, seed):
    """The root state and two random deeper states."""
    rng = np.random.default_rng(seed)
    n, u = problem.n, problem.u
    out = [tuple(range(n))]
    for depth in (1, 2):
        size = n - depth * u
        if size >= u:
            out.append(tuple(sorted(
                int(p) for p in rng.choice(n, size=size, replace=False)
            )))
    return out


def _brute_successors(problem, unscheduled, condense_pe, condense_pc):
    """``itertools.combinations`` over the level, filtered by the PE
    prefix rule and condensed first-seen by ``node_condensation_key``;
    returns the ``(node, weight)`` list and the condensed-away count."""
    from repro.comm.properties import node_condensation_key
    from repro.core.jobs import JobKind

    wl, model = problem.workload, problem.model
    bucket = {
        pid: (wl.job_of(pid).job_id, model.interchangeable_key(pid))
        for pid in range(problem.n)
        if condense_pe and wl.kind_of(pid) is JobKind.PE
    }
    level, rest = unscheduled[0], unscheduled[1:]
    out, seen, condensed = [], set(), 0
    for combo in itertools.combinations(rest, problem.u - 1):
        chosen = set(combo)
        if any(
            q < p and bucket.get(q) == bucket[p] and q not in chosen
            for p in combo if p in bucket for q in rest
        ):
            continue
        node = (level,) + combo
        if condense_pc:
            key = node_condensation_key(wl, node)
            if key in seen:
                condensed += 1
                continue
            seen.add(key)
        out.append((node, problem.node_weight(node)))
    return out, condensed


class TestTableDrivenCondensation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", MIXED_SHAPES)
    def test_keys_partition_levels_like_reference(self, shape, seed):
        from repro.comm.properties import node_condensation_key

        specs, cluster = _shape_specs(shape, seed)
        problem = _mixed_problem(specs, cluster, seed)
        gen = SuccessorGenerator(problem, condense_pc=True)
        wl = problem.workload
        for state in _states(problem, seed):
            ref_of, table_of = {}, {}
            for combo in itertools.combinations(state[1:], problem.u - 1):
                node = (state[0],) + combo
                ref = node_condensation_key(wl, node)
                table = gen._condensation_key(node)
                assert ref_of.setdefault(table, ref) == ref, node
                assert table_of.setdefault(ref, table) == table, node
            assert len(ref_of) == len(table_of)

    @pytest.mark.parametrize("condense", [(True, True), (True, False),
                                          (False, True)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", MIXED_SHAPES)
    def test_successors_match_brute_reference(self, shape, seed, condense):
        condense_pe, condense_pc = condense
        specs, cluster = _shape_specs(shape, seed)
        problem = _mixed_problem(specs, cluster, seed)
        gen = SuccessorGenerator(problem, condense_pe=condense_pe,
                                 condense_pc=condense_pc)
        for state in _states(problem, seed):
            before = gen.stats["condensed_away"]
            got = gen.successors(state)
            want, condensed = _brute_successors(problem, state, condense_pe,
                                                condense_pc)
            assert got == want
            assert gen.stats["condensed_away"] - before == condensed


def _limited(pairs, limit):
    """The ``limit`` lightest of ``pairs`` in ``(weight, position)`` order."""
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][1], i))
    return [pairs[i] for i in order[:limit]]


def _wide_problem(seed):
    """n = 72 on quad-cores: 60 serial, a 6-rank PE job on pids 60-65 and
    a 2x3 PC job on 66-71, so masks, PE groups and condensation keys
    cross the 64-pid word boundary."""
    from repro.comm.topology import grid_2d

    specs = [("serial",)] * 60 + [("pe", 6), ("pc", grid_2d(2, 3, 2e9))]
    return _mixed_problem(specs, QUAD_CORE_CLUSTER, seed)


def _wide_states(seed):
    """Deep states of :func:`_wide_problem`, their level pids below and
    above 64, PE ranks scheduled in random order."""
    rng = np.random.default_rng(seed)
    out = [tuple(range(56, 72))]
    for low, size in ((50, 16), (58, 12), (64, 8)):
        out.append(tuple(sorted(
            int(p) for p in rng.choice(np.arange(low, 72), size=size,
                                       replace=False)
        )))
    return out


def _scheduled_mask(problem, unscheduled):
    return ((1 << problem.n) - 1) ^ sum(1 << p for p in unscheduled)


class TestLevelTables:
    @pytest.mark.parametrize("condense", [(True, True), (True, False),
                                          (False, True)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_multi_word_masks_match_brute_reference(self, seed, condense):
        condense_pe, condense_pc = condense
        problem = _wide_problem(seed)
        assert problem.n == 72
        gen = SuccessorGenerator(problem, condense_pe=condense_pe,
                                 condense_pc=condense_pc)
        for state in _wide_states(seed):
            before = gen.stats["condensed_away"]
            want, condensed = _brute_successors(problem, state, condense_pe,
                                                condense_pc)
            assert gen.successors(state) == want
            assert gen.stats["condensed_away"] - before == condensed
            mask = _scheduled_mask(problem, state)
            nodes, weights, masks, costs = gen.successors(state,
                                                          scheduled=mask)
            assert list(zip(nodes, weights)) == want
            assert masks == [mask | sum(1 << p for p in node)
                             for node in nodes]
            assert costs == [(problem.extra_cost(node),
                              problem.node_degradations(node))
                             for node in nodes]

    @pytest.mark.parametrize("limit", [1, 3, 18])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_limit_keeps_the_lightest_like_brute_reference(self, seed,
                                                            limit):
        # HA*'s MER trim on a mixed problem: the limit applies after
        # condensation, lightest first, ties in row order.
        problem = _wide_problem(seed)
        gen = SuccessorGenerator(problem, condense_pc=True)
        for state in _wide_states(seed):
            want, _ = _brute_successors(problem, state, True, True)
            assert gen.successors(state, limit=limit) == _limited(want,
                                                                  limit)
            mask = _scheduled_mask(problem, state)
            nodes, weights, masks, _ = gen.successors(state, limit=limit,
                                                      scheduled=mask)
            assert list(zip(nodes, weights)) == _limited(want, limit)

    def test_pe_ranks_scheduled_out_of_order(self):
        # PE job A on pids 0-4, job B on 5-7.  Rank 2 of A was scheduled
        # before rank 1: A's lowest unscheduled ranks are now 1, 3, 4, so
        # a node may take 3 without 2 but never 4 without 3.
        problem = _mixed_problem([("pe", 5), ("pe", 3)], QUAD_CORE_CLUSTER, 0)
        state = (1, 3, 4, 5, 6, 7)
        for condense_pc in (False, True):
            gen = SuccessorGenerator(problem, condense_pc=condense_pc)
            want, _ = _brute_successors(problem, state, True, condense_pc)
            got = gen.successors(state)
            assert got == want
            nodes = [node for node, _ in got]
            assert (1, 3, 5, 6) in nodes
            assert not any(4 in node and 3 not in node for node in nodes)
            assert not any(6 in node and 5 not in node for node in nodes)

    def test_pe_heavy_table_holds_only_prefix_takes(self):
        # Two 8-rank PE jobs on eight-core machines (n = 16): the root's
        # successors take 7 ranks as a prefix of each job, 8 nodes, and
        # its table holds just those, not the level's C(15, 7) = 6,435
        # combinations.
        problem = _mixed_problem([("pe", 8)] * 2, EIGHT_CORE_CLUSTER, 0)
        gen = SuccessorGenerator(problem)
        state = tuple(range(16))
        want, _ = _brute_successors(problem, state, True, False)
        assert gen.successors(state) == want
        assert len(want) == 8
        assert [len(t.nodes) for t in gen._tables.values()] == [8]
