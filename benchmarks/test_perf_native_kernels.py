"""Micro-benchmark: compiled kernels vs the NumPy reference.

The acceptance bar for the cc build is >= 2x on at least one of the
measured hot spots (pairwise node weights, pressure node weights, the MER
level select) at level-scoring sizes — in practice it lands 3-9x on the
two node-weight kernels and far more on the select.  HA*'s fused MER
window trim must beat the cc build's own gather + score + select
composition >= 2x at hastar-n64's window size.  A
second guard checks the other direction: routing the NumPy fallback
through the dispatcher must not cost more than 5% over calling the
reference directly, so ``COSCHED_NATIVE=0`` (and compiler-less hosts)
keep the old performance.

Both sides of every comparison are timed interleaved in one loop (best
of per side), so a slow spell of a shared host hits both alike instead
of whichever side happened to run during it.

Skips (rather than fails) when the cc build does not load, so the suite
is meaningful on machines without a C compiler.

Run:  pytest benchmarks/test_perf_native_kernels.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.levels import _mer_window
from repro.perf.kernels import native, numpy_backend

REPEATS = 9


def best_of_pair(fn_a, fn_b, repeats=REPEATS):
    """Best wall times of ``fn_a`` and ``fn_b`` (one warmup each), timed
    alternately in one loop: each repeat runs both back to back."""
    fns = (fn_a, fn_b)
    best = [float("inf"), float("inf")]
    for fn in fns:
        fn()
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best[0], best[1]


@pytest.fixture(scope="module")
def impl():
    backend = native.load_cc_backend()
    if backend is None:
        pytest.skip("no cc kernel build on this host")
    return backend


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(99)
    n, u, N = 256, 4, 80_000
    nodes = rng.integers(0, n, size=(N, u)).astype(np.intp)
    P = rng.uniform(0.0, 0.4, size=(n, n))
    np.fill_diagonal(P, 0.0)
    rates = rng.uniform(0.15, 0.75, size=n)
    return P, rates, nodes


class TestNativeSpeedup:
    def test_pairwise_at_least_2x(self, impl, inputs):
        P, _, nodes = inputs
        t_native, t_numpy = best_of_pair(
            lambda: impl.pairwise_node_weights(P, nodes),
            lambda: numpy_backend.pairwise_node_weights(P, nodes))
        speedup = t_numpy / t_native
        print(f"\npairwise: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{speedup:.2f}")
        assert speedup >= 2.0

    def test_pressure_linear_at_least_2x(self, impl, inputs):
        _, rates, nodes = inputs
        t_native, t_numpy = best_of_pair(
            lambda: impl.pressure_node_weights(rates, rates, nodes,
                                               0.33, None),
            lambda: numpy_backend.pressure_node_weights(rates, rates, nodes,
                                                        0.33, None))
        speedup = t_numpy / t_native
        print(f"pressure-linear: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{speedup:.2f}")
        assert speedup >= 2.0

    def test_pressure_saturating_not_slower(self, impl, inputs):
        # The saturating response is exp-bound on both sides; the compiled
        # loop must at least hold its ground.
        _, rates, nodes = inputs
        t_native, t_numpy = best_of_pair(
            lambda: impl.pressure_node_weights(rates, rates, nodes,
                                               0.33, 0.9),
            lambda: numpy_backend.pressure_node_weights(rates, rates, nodes,
                                                        0.33, 0.9))
        print(f"pressure-saturating: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{t_numpy/t_native:.2f}")
        assert t_native <= t_numpy * 1.10

    def test_select_smallest_at_least_2x(self, impl, inputs):
        # HA*'s MER trim: the k = n/u = 64 smallest of an 80,000-node level,
        # far inside the bounded-heap regime (6k < N).
        P, _, nodes = inputs
        weights = numpy_backend.pairwise_node_weights(P, nodes)
        k = 256 // 4
        np.testing.assert_array_equal(
            impl.select_smallest(weights, k),
            numpy_backend.select_smallest(weights, k))
        t_native, t_numpy = best_of_pair(
            lambda: impl.select_smallest(weights, k),
            lambda: numpy_backend.select_smallest(weights, k))
        speedup = t_numpy / t_native
        print(f"select-smallest: native {t_native*1e3:.3f}ms "
              f"numpy {t_numpy*1e3:.3f}ms  x{speedup:.2f}")
        assert speedup >= 2.0

    def test_window_trim_at_least_2x(self, impl):
        # hastar-n64's MER window: limit = 64/4 = 16 over k = 3 co-runners
        # is 174 rows, saturating phi.  One call of the window's trimmer
        # against the cc build's gather + pressure kernel + select, 200
        # trims a sample.
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.15, 0.75, size=64)
        table = _mer_window(16, 3, 18, 10**6)
        assert len(table) == 174
        rank = np.argsort(rates)
        ranked = rank[1:19].astype(np.intp)
        level_pid = int(rank[0])
        trim = impl.pressure_window_trimmer(rates, rates, 1 / 3, 4.0, table,
                                            16, rank, 64)
        state = bytes(8)  # nothing scheduled: the walk takes ranks 1-18
        ref_nodes, _w = numpy_backend.pressure_window_trim(
            rates, rates, 1 / 3, 4.0, level_pid, ranked, table, 16)
        assert trim(level_pid, state)[0] == ref_nodes.tolist()

        def fused():
            for _ in range(200):
                trim(level_pid, state)

        def composed():
            for _ in range(200):
                rows = np.empty((len(table), 4), dtype=np.intp)
                rows[:, 0] = level_pid
                rows[:, 1:] = ranked[table]
                w = impl.pressure_node_weights(rates, rates, rows,
                                                  1 / 3, 4.0)
                impl.select_smallest(w, 16)

        t_fused, t_composed = best_of_pair(fused, composed)
        speedup = t_composed / t_fused
        print(f"window-trim: fused {t_fused / 200 * 1e6:.1f}us "
              f"composed {t_composed / 200 * 1e6:.1f}us  x{speedup:.2f}")
        assert speedup >= 2.0


class TestFallbackNoRegression:
    def test_dispatch_overhead_under_5_percent(self, inputs):
        # Calling the reference through a dispatcher-shaped indirection
        # must stay within 5% of calling it directly — the fallback path
        # is exactly one extra attribute hop.
        P, _, nodes = inputs

        def direct():
            numpy_backend.pairwise_node_weights(P, nodes)

        impl_ref = numpy_backend

        def dispatched():
            impl_ref.pairwise_node_weights(P, nodes)

        t_direct, t_dispatched = best_of_pair(direct, dispatched,
                                              repeats=15)
        print(f"\nfallback dispatch: direct {t_direct*1e3:.2f}ms "
              f"dispatched {t_dispatched*1e3:.2f}ms")
        assert t_dispatched <= t_direct * 1.05
