"""``repro.perf.kernels`` — the compiled batch-kernel backend.

Profiling (``benchmarks/test_perf_batch_kernels.py``) shows solve time is
dominated by a few batch primitives: the gather+einsum node-weight
kernels, the MER score-then-select level trim, and bounded selection.
This package gives each a compiled implementation while keeping the
historical NumPy expressions as a byte-for-byte-equivalent fallback:

* :mod:`~repro.perf.kernels.numpy_backend` — pure NumPy, always available,
  the semantic reference;
* :mod:`~repro.perf.kernels.native` — a zero-dependency C library compiled
  once with the system ``cc`` and loaded through ctypes.

**Selection happens once, at import time.**  ``COSCHED_NATIVE=0`` (or
``false``/``no``/``off``) forces the NumPy fallback; otherwise the cc
build is adopted only after passing a self-check against the NumPy
backend on small randomized inputs, so a broken compiler or miscompiled
library degrades to the fallback instead of corrupting results.

The SDC merge walk has no compiled form: one machine's group is k cores
by at most a few dozen ways, where the Python walk beats the cost of
marshalling its ragged counters through ctypes.  :func:`sdc_merge_ways`
calls the NumPy module's walk directly.

Every caller (degradation models, the SDC merge, level expansion) imports
the module-level functions below, which dispatch to the active backend.
The MER window trim is a factory: :func:`pressure_window_trimmer` binds
one window's fixed inputs and the search's rank order once, and the
search that asked for it keeps the returned trim (and its buffers) for
its life; each call walks the rank order from the state's scheduled-pid
mask and hands back the kept nodes' child masks with them.
:func:`active_backend` (``"native"`` | ``"numpy"``) is surfaced in
``SolveReport.to_dict()``, ``cosched solve --json`` and the service
``/metrics`` payload, so every recorded measurement names the path that
produced it.
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import numpy_backend

__all__ = [
    "active_backend",
    "backend_info",
    "native_disabled",
    "pairwise_node_weights",
    "pressure_node_weights",
    "pressure_window_trimmer",
    "sdc_merge_ways",
    "select_smallest",
]

_FALSEY = ("0", "false", "no", "off")


def native_disabled() -> bool:
    """True when ``COSCHED_NATIVE`` opts out of compiled kernels."""
    return os.environ.get("COSCHED_NATIVE", "").strip().lower() in _FALSEY


def _self_check(impl) -> bool:
    """Verify a candidate backend against the NumPy reference.

    Tiny randomized inputs, 1e-12 tolerance: catches ABI mismatches,
    miscompiles and broken jits before the backend is adopted.  The full
    randomized sweep lives in ``tests/perf/test_kernels_equivalence.py``.
    """
    try:
        rng = np.random.default_rng(7)
        n, u, N = 9, 3, 40
        nodes = rng.integers(0, n, size=(N, u)).astype(np.intp)
        P = rng.uniform(0.0, 1.0, size=(n, n))
        ref = numpy_backend.pairwise_node_weights(P, nodes)
        got = impl.pairwise_node_weights(P, nodes)
        if not np.allclose(ref, got, rtol=0, atol=1e-12):
            return False
        m = rng.uniform(0.15, 0.75, size=n)
        a = rng.uniform(0.15, 0.75, size=n)
        for sens, aggr in ((m, m), (m, a)):
            for sat in (None, 0.9):
                ref = numpy_backend.pressure_node_weights(
                    sens, aggr, nodes, 0.31, sat)
                got = impl.pressure_node_weights(sens, aggr, nodes, 0.31, sat)
                if not np.allclose(ref, got, rtol=0, atol=1e-12):
                    return False
        w = rng.uniform(0, 1, size=64)
        w[10] = w[20] = w[30]  # exercise the (weight, index) tie-break
        for k in (1, 7, 64):
            if list(impl.select_smallest(w, k)) != list(
                numpy_backend.select_smallest(w, k)
            ):
                return False
        # A quad-core MER window (k = 3, every index tuple of 7 ranked
        # pids) with a zero-rate pad tie, the level pid and two scheduled
        # pids among the first ranks; limits 1, within and beyond it.
        table = np.array(list(itertools.combinations(range(7), 3)),
                         dtype=np.intp)
        nw = 12
        mw = rng.uniform(0.15, 0.75, size=nw)
        rank = rng.permutation(nw).astype(np.intp)
        level_pid = int(rank[1])
        ranked = [int(p) for p in rank[3:10]]
        mw[ranked[0]] = mw[ranked[1]] = 0.0
        scheduled = (1 << int(rank[0])) | (1 << int(rank[2]))
        for sat in (None, 0.9):
            for limit in (1, 16, 99):
                ref_nodes, ref_w = numpy_backend.pressure_window_trim(
                    mw, mw, 0.31, sat, level_pid, np.asarray(ranked), table,
                    limit)
                trim = impl.pressure_window_trimmer(mw, mw, 0.31, sat, table,
                                                    limit, rank, nw)
                nodes, w, masks = trim(level_pid,
                                       scheduled.to_bytes(8, "little"))
                want = [scheduled | sum(1 << p for p in node)
                        for node in ref_nodes.tolist()]
                if not (np.array_equal(ref_nodes, nodes)
                        and np.allclose(ref_w, w, rtol=0, atol=1e-12)
                        and masks == want):
                    return False
        return True
    except Exception:
        return False


def _select_backend():
    """Pick the active backend once; returns ``(impl, info_dict)``."""
    info: Dict[str, object] = {
        "backend": "numpy",
        "provider": "numpy",
        "native_disabled": native_disabled(),
    }
    if native_disabled():
        return numpy_backend, info
    from .native import load_cc_backend

    impl = load_cc_backend()
    if impl is not None and _self_check(impl):
        info["backend"] = "native"
        info["provider"] = "cc"
        return impl, info
    return numpy_backend, info


_IMPL, _INFO = _select_backend()


def active_backend() -> str:
    """``"native"`` (compiled kernels in use) or ``"numpy"`` (fallback)."""
    return str(_INFO["backend"])


def backend_info() -> Dict[str, object]:
    """Details for reports: backend, provider (cc/numpy), opt-out."""
    return dict(_INFO)


def pairwise_node_weights(pairwise: np.ndarray,
                          nodes: np.ndarray) -> np.ndarray:
    """Batch node weights from a pairwise degradation table."""
    return _IMPL.pairwise_node_weights(pairwise, nodes)


def pressure_node_weights(
    sens: np.ndarray,
    aggr: np.ndarray,
    nodes: np.ndarray,
    kappa: float,
    saturation: Optional[float],
) -> np.ndarray:
    """Batch ``sum_i s_i * kappa * phi(A_T - a_i)`` node weights."""
    return _IMPL.pressure_node_weights(sens, aggr, nodes, kappa, saturation)


def pressure_window_trimmer(
    sens: np.ndarray,
    aggr: np.ndarray,
    kappa: float,
    saturation: Optional[float],
    table: np.ndarray,
    limit: int,
    rank: Sequence[int],
    n: int,
) -> Callable[[int, bytes], Tuple[list, list, list]]:
    """HA*'s MER trim of one window, bound to the window's fixed inputs
    and a search's ``(pressure, pid)`` rank order over its ``n`` pids.

    Returns ``trim(level_pid, scheduled)``, where ``scheduled`` is the
    state's scheduled-pid mask as ``mask.to_bytes(8 * ceil(n / 64),
    "little")``.  The trim takes the first unscheduled pids in rank order
    other than ``level_pid`` (as many as the table indexes) as
    ``ranked``, and returns the ``limit`` lightest rows
    ``[level_pid, ranked[table[r]]]``, kept in ``(weight, row)`` order, as
    ``(nodes, weights, child_masks)`` lists: each node sorted ascending,
    each child mask the state's mask with the node's pids set.  The
    compiled provider's trimmer owns its buffers, so one trimmer serves
    one thread: a search builds its own and keeps it for its life.
    """
    return _IMPL.pressure_window_trimmer(sens, aggr, kappa, saturation,
                                         table, limit, rank, n)


def sdc_merge_ways(
    counters: Sequence[Sequence[float]],
    weights: Sequence[float],
    associativity: int,
) -> list:
    """SDC merge: ways won per process (see :mod:`repro.cache.sdc`)."""
    return numpy_backend.sdc_merge_ways(counters, weights, associativity)


def select_smallest(weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest weights, ``(weight, index)`` order."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    return _IMPL.select_smallest(np.asarray(weights, dtype=np.float64), k)
