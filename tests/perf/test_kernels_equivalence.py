"""cc-vs-NumPy kernel equivalence: the contract behind backend swap.

The compiled backend may only ship results the NumPy reference would have
produced — callers never know which backend scored them.  This suite
checks that bit-level promise on randomized inputs far larger than the
import-time self-check: every degradation model's batch kernel, HA*'s
fused MER window trim, and the (weight, index) tie-break of the level
select.  A subprocess test pins ``COSCHED_NATIVE=0`` and asserts the
dispatcher reports (and uses) the NumPy fallback.  The SDC merge walk has
one implementation; its semantics are pinned in ``tests/cache/test_sdc.py``.

When the cc build does not load in this environment, the dispatch tests
reduce to NumPy-vs-NumPy and the dedicated native assertions skip.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
)
from repro.graph.levels import _mer_window
from repro.perf import kernels
from repro.perf.kernels import native, numpy_backend

ATOL = 1e-9


def nodes_for(rng, n, u, count):
    return rng.integers(0, n, size=(count, u)).astype(np.intp)


def native_impl():
    impl = native.load_cc_backend()
    if impl is None:
        pytest.skip("no cc kernel build in this environment")
    return impl


class TestDegradationModelEquivalence:
    """Batch node weights agree between backends for every model."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_model(self, seed):
        rng = np.random.default_rng(seed)
        n, u = int(rng.integers(4, 40)), int(rng.integers(2, 9))
        P = rng.uniform(0.0, 0.5, size=(n, n))
        np.fill_diagonal(P, 0.0)
        model = MatrixDegradationModel(pairwise=P)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pairwise_node_weights(P, nodes)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pairwise_node_weights(P, nodes)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("saturation", [None, 0.9, 4.0])
    def test_miss_rate_model(self, seed, saturation):
        rng = np.random.default_rng(100 + seed)
        n, u = int(rng.integers(4, 60)), int(rng.integers(2, 9))
        model = MissRatePressureModel.random(n, cores=u, seed=seed,
                                             saturation=saturation)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pressure_node_weights(
            model.miss_rates, model.miss_rates, nodes, model.kappa,
            model.saturation)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pressure_node_weights(
            model.miss_rates, model.miss_rates, nodes, model.kappa,
            model.saturation)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("saturation", [None, 0.9])
    def test_asymmetric_model(self, seed, saturation):
        rng = np.random.default_rng(200 + seed)
        n, u = int(rng.integers(4, 60)), int(rng.integers(2, 9))
        model = AsymmetricContentionModel.random(n, cores=u, seed=seed,
                                                 saturation=saturation)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pressure_node_weights(
            model.s, model.a, nodes, model.kappa, model.saturation)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pressure_node_weights(
            model.s, model.a, nodes, model.kappa, model.saturation)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    def test_batch_matches_scalar_node_weight(self):
        # The dispatcher output must still agree with the scalar path the
        # kernels replaced, not just with the other backend.
        rng = np.random.default_rng(7)
        model = AsymmetricContentionModel.random(12, cores=4, seed=7,
                                                 saturation=0.9)
        # Distinct pids per row — the scalar path works on process *sets*.
        nodes = np.array([rng.permutation(12)[:4] for _ in range(50)],
                         dtype=np.intp)
        batch = model.node_weights_batch(nodes)
        for row, w in zip(nodes, batch):
            scalar = sum(
                model.cache_degradation(
                    int(p), frozenset(int(q) for q in row) - {int(p)})
                for p in row
            )
            assert abs(scalar - w) < 1e-9


class TestSelectSmallest:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(400 + seed)
        w = rng.uniform(0.0, 1.0, size=2000)
        # Inject duplicate weights: ties must break on the lower index.
        dup = rng.integers(0, 2000, size=100)
        w[dup] = w[dup[0]]
        for k in (1, 5, 100, 2000):
            assert list(kernels.select_smallest(w, k)) == \
                list(numpy_backend.select_smallest(w, k))

    def test_k_zero_and_oversized(self):
        w = np.array([3.0, 1.0, 2.0])
        assert list(kernels.select_smallest(w, 0)) == []
        assert list(kernels.select_smallest(w, 99)) == [1, 2, 0]


def window_case(rng, n, k, limit, pads=0):
    """Rates (``pads`` zero-rate padding pids), their ``(rate, pid)`` rank
    order, a level pid, the ``ranked`` pids a state with nothing scheduled
    hands the window, and HA*'s MER window table for ``limit`` over ``k``
    co-runners."""
    rates = rng.uniform(0.15, 0.75, size=n)
    rates[n - pads:] = 0.0
    level_pid = int(rng.integers(0, n))
    others = np.array([p for p in range(n) if p != level_pid])
    width = min(len(others), limit + k - 1)
    # Rank order: ascending rate, so the pads lead and tie.
    ranked = others[np.argsort(rates[others], kind="stable")][:width]
    table = _mer_window(limit, k, width, 10**6)
    rank = np.argsort(rates, kind="stable")
    return rates, rank, level_pid, ranked.astype(np.intp), table


def mask_bytes(mask, n):
    """A scheduled-pid mask as a trim reads it."""
    return mask.to_bytes(8 * ((n + 63) // 64), "little")


def reference_trim(rates, kappa, saturation, level_pid, mask, ranked, table,
                   limit):
    """The NumPy reference's ``(nodes, weights)`` over ``ranked``, with
    each kept node's child mask: ``mask`` with the node's pids set."""
    nodes, w = numpy_backend.pressure_window_trim(
        rates, rates, kappa, saturation, level_pid, ranked, table, limit)
    masks = [mask | sum(1 << p for p in node) for node in nodes.tolist()]
    return nodes, w, masks


def assert_trim_matches(got, ref, name):
    """Same nodes and child masks, weights to ``ATOL``."""
    nodes, w, masks = got
    np.testing.assert_array_equal(nodes, ref[0], err_msg=name)
    np.testing.assert_allclose(w, ref[1], rtol=0, atol=ATOL, err_msg=name)
    assert masks == ref[2], name


def trimmers(rates, kappa, saturation, table, limit, rank, n):
    """The cc build's (where it loads), the dispatcher's and the NumPy
    reference's trimmer of one window, by name."""
    impls = [("dispatch", kernels), ("numpy", numpy_backend)]
    cc = native.load_cc_backend()
    if cc is not None:
        impls.insert(0, ("cc", cc))
    return [(name, impl.pressure_window_trimmer(
                rates, rates, kappa, saturation, table, limit, rank, n))
            for name, impl in impls]


class TestPressureWindowTrim:
    """HA*'s fused MER trim, as the trimmer a search owns: same nodes,
    order, child masks and (to round-off) weights as the NumPy reference;
    bit-identical to the cc build's own gather + pressure kernel + select
    composition."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k", [3, 7], ids=["quad", "eight"])
    @pytest.mark.parametrize("saturation", [None, 0.9, 4.0])
    @pytest.mark.parametrize("limit", [1, 16, 10**4])
    def test_matches_reference(self, seed, k, saturation, limit):
        rng = np.random.default_rng(500 + seed)
        n = 48 if limit != 10**4 else 12  # the last: limit > every row
        rates, rank, level_pid, ranked, table = window_case(
            rng, n, k, min(limit, 64), pads=seed)
        if limit == 10**4:
            assert len(table) < limit
        kappa = 1.0 / k
        ref = reference_trim(rates, kappa, saturation, level_pid, 0, ranked,
                             table, limit)
        assert len(ref[0]) == min(limit, len(table))
        assert (np.diff(ref[0], axis=1) > 0).all()
        for name, trim in trimmers(rates, kappa, saturation, table, limit,
                                   rank, n):
            got = trim(level_pid, mask_bytes(0, n))
            assert_trim_matches(got, ref, name)
            if name != "cc":
                continue
            rows = np.empty((len(table), k + 1), dtype=np.intp)
            rows[:, 0] = level_pid
            rows[:, 1:] = ranked[table]
            own = native_impl().pressure_node_weights(rates, rates, rows,
                                                      kappa, saturation)
            sel = numpy_backend.select_smallest(own, limit)
            np.testing.assert_array_equal(got[1], own[sel], err_msg=name)

    @pytest.mark.parametrize("n", [48, 64, 70, 128])
    @pytest.mark.parametrize("k", [3, 7], ids=["quad", "eight"])
    @pytest.mark.parametrize("free", ["all", "most", "few"])
    def test_walk_skips_scheduled_pids_and_the_level_pid(self, n, k, free):
        # The level pid sits at rank 2 and every other pid among the first
        # ranks is scheduled, so the walk must step over both; "few" leaves
        # fewer unscheduled pids than the window's limit + k - 1.  n > 64
        # takes two-word masks, with scheduled pids in both words.
        rng = np.random.default_rng(n + k)
        rates = rng.uniform(0.15, 0.75, size=n)
        rates[-6:] *= 0.2  # the highest pids lead the rank order
        rank = np.argsort(rates, kind="stable")
        level_pid = int(rank[2])
        limit = n // (k + 1)
        others = [int(p) for p in rank if p != level_pid]
        keep = {"all": n, "most": n - 8, "few": limit + k - 4}[free]
        scheduled = others[0:2 * (n - keep):2][:n - keep]
        scheduled += [p for p in others[::-1]
                      if p not in scheduled][:n - keep - len(scheduled)]
        assert len(scheduled) == n - keep and level_pid not in scheduled
        mask = sum(1 << p for p in scheduled)
        if n > 64 and free != "all":
            assert mask >> 64 and mask & (2**64 - 1)
        ranked = np.array([p for p in others if not mask >> p & 1],
                          dtype=np.intp)
        width = min(len(ranked), limit + k - 1)
        assert (width < limit + k - 1) == (free == "few")
        ranked = ranked[:width]
        table = _mer_window(limit, k, width, 10**6)
        ref = reference_trim(rates, 1.0 / k, 4.0, level_pid, mask, ranked,
                             table, limit)
        for name, trim in trimmers(rates, 1.0 / k, 4.0, table, limit, rank,
                                   n):
            assert_trim_matches(trim(level_pid, mask_bytes(mask, n)), ref,
                                name)

    def test_single_core_window_keeps_the_level_pid_alone(self):
        # k = 0: the window is one empty row, the node is the level pid
        # and weighs nothing.
        n = 6
        rates = np.random.default_rng(2).uniform(0.15, 0.75, size=n)
        table = _mer_window(6, 0, 5, 10**6)
        assert table.shape == (1, 0)
        mask = 0b100100
        for name, trim in trimmers(rates, 1.0, 4.0, table, 6,
                                   np.argsort(rates), n):
            assert trim(1, mask_bytes(mask, n)) == (
                [[1]], [0.0], [mask | 0b10]), name

    @pytest.mark.parametrize("k", [3, 7], ids=["quad", "eight"])
    def test_equal_weight_rows_break_ties_by_row(self, k):
        # Every real pid shares one rate and k + 2 pads are zero-rate, so
        # whole blocks of rows weigh exactly the same: the kept rows must
        # be the earliest of each block, in table order.
        n = 40
        rates = np.full(n, 0.4)
        rates[n - (k + 2):] = 0.0
        ranked = np.array(list(range(n - (k + 2), n))
                          + list(range(1, 12)), dtype=np.intp)
        rank = np.argsort(rates, kind="stable")
        table = _mer_window(16, k, len(ranked), 10**6)
        ref = reference_trim(rates, 0.5, 4.0, 0, 0, ranked, table, 16)
        assert len(np.unique(ref[1])) < len(ref[1])
        trim = native_impl().pressure_window_trimmer(rates, rates, 0.5, 4.0,
                                                     table, 16, rank, n)
        nodes, w, masks = trim(0, mask_bytes(0, n))
        np.testing.assert_array_equal(nodes, ref[0])
        np.testing.assert_array_equal(w, ref[1])
        assert masks == ref[2]

    def test_a_trimmer_outlives_its_inputs_and_calls(self):
        # The trimmer keeps what its plan points into alive, and each call
        # returns fresh lists that the next call leaves untouched.
        rng = np.random.default_rng(3)
        n = 40
        rates, rank, level_pid, ranked, table = window_case(rng, n, 3, 16)
        masks = [0, 1 << int(ranked[0])]
        refs = [reference_trim(rates, 0.3, 4.0, level_pid, 0, ranked,
                               table, 16),
                reference_trim(rates, 0.3, 4.0, level_pid, masks[1],
                               np.array([p for p in rank
                                         if p not in (level_pid, ranked[0])]
                                        [:len(ranked)]), table, 16)]
        trim = native_impl().pressure_window_trimmer(
            rates.copy(), rates.copy(), 0.3, 4.0, table.copy(), 16,
            rank.copy(), n)
        first = trim(level_pid, mask_bytes(masks[0], n))
        second = trim(level_pid, mask_bytes(masks[1], n))
        assert_trim_matches(first, refs[0], "first")
        assert_trim_matches(second, refs[1], "second")

    def test_bad_states_are_refused(self):
        rates, rank, level_pid, ranked, table = window_case(
            np.random.default_rng(4), 40, 3, 16)
        for name, trim in trimmers(rates, 0.3, 4.0, table, 16, rank, 40):
            with pytest.raises(ValueError):
                trim(level_pid, bytes(4))  # not one 8-byte word
            with pytest.raises(ValueError):
                trim(40, bytes(8))  # no such pid
            with pytest.raises(ValueError):  # too few unscheduled pids
                trim(level_pid, mask_bytes(2**40 - 1 - (1 << level_pid), 40))


def run_threads(work, count):
    """Run ``work(i)`` on ``count`` threads at once, switching as often as
    the interpreter allows; more threads than cores."""
    threads = [threading.Thread(target=work, args=(i,))
               for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestThreadOwnership:
    """The service solves on worker threads, and ctypes drops the GIL in
    the call: each search owns its trimmers, so no thread reads back
    another's window."""

    def test_threads_with_their_own_trimmers_match_the_reference(self):
        rng = np.random.default_rng(11)
        n = 40
        rates, rank, level_pid, ranked, table = window_case(rng, n, 3, 16)
        # Each thread's search has its own rank order.
        orders = [np.roll(rank, i) for i in range(4)]
        refs = [numpy_backend.pressure_window_trim(
            rates, rates, 0.3, 4.0, level_pid,
            np.array([p for p in r if p != level_pid][:len(ranked)]),
            table, 16)[0].tolist()
            for r in orders]
        impl = native_impl()
        failures = []

        def work(i):
            trim = impl.pressure_window_trimmer(rates, rates, 0.3, 4.0,
                                                table, 16, orders[i], n)
            state = mask_bytes(0, n)
            for _ in range(300):
                nodes, _w, _masks = trim(level_pid, state)
                if nodes != refs[i]:
                    failures.append(i)

        run_threads(work, len(orders))
        assert not failures

    def test_threads_solving_hastar_get_the_pinned_results(self):
        from tests.solvers.test_hastar_regression import PINNED, hastar_counts

        cases = [[(64, 0), (64, 1)], [(64, 2), (64, 0)]]
        got = {}

        def work(i):
            got[i] = [hastar_counts(n, seed) for n, seed in cases[i]]

        run_threads(work, len(cases))
        for i, keys in enumerate(cases):
            assert got.get(i) == [PINNED[key] for key in keys]


class TestForcedFallback:
    """``COSCHED_NATIVE=0`` must pin the NumPy backend in a fresh process."""

    def _probe(self, env_extra):
        env = dict(os.environ)
        env.update(env_extra)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        code = (
            "import json\n"
            "from repro.perf import kernels\n"
            "import numpy as np\n"
            "w = kernels.pressure_node_weights(\n"
            "    np.array([0.2, 0.5, 0.7]), np.array([0.2, 0.5, 0.7]),\n"
            "    np.array([[0, 1], [1, 2]], dtype=np.intp), 0.5, None)\n"
            "print(json.dumps({'info': kernels.backend_info(),\n"
            "                  'w': w.tolist()}))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_opt_out_forces_numpy(self):
        got = self._probe({"COSCHED_NATIVE": "0"})
        assert got["info"]["backend"] == "numpy"
        assert got["info"]["provider"] == "numpy"
        assert got["info"]["native_disabled"] is True

    def test_opt_out_results_match_default(self):
        disabled = self._probe({"COSCHED_NATIVE": "0"})
        default = self._probe({})
        np.testing.assert_allclose(disabled["w"], default["w"],
                                   rtol=0, atol=ATOL)

    def test_report_surfaces_backend(self):
        # SolveReport.to_dict carries the active backend name.
        from repro.runtime import run_solve
        from repro.workloads.synthetic import random_serial_instance

        report = run_solve(random_serial_instance(8, "dual", seed=1),
                           "oastar")
        doc = report.to_dict()
        assert doc["kernel_backend"] in ("native", "numpy")
        assert doc["kernel_backend"] == kernels.active_backend()
