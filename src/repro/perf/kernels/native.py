"""Native kernel providers: a cc-compiled ctypes library, or numba.

Two ways to get compiled kernels, tried by the dispatcher in
:mod:`repro.perf.kernels`:

* **numba** — installed via the ``[native]`` optional extra
  (``pip install repro[native]``); the jitted bodies mirror the C source.
* **cc** — zero-dependency: ``_kernels.c`` (shipped with the package) is
  compiled once with the system C compiler into a per-user cache directory
  keyed by the source hash, then loaded through :mod:`ctypes`.  Rebuilds
  happen only when the source changes.

Both providers expose the exact call signatures of
:mod:`repro.perf.kernels.numpy_backend` so the dispatcher can swap them
freely; both are verified against the NumPy backend on tiny inputs before
being adopted (see ``_self_check`` in the package ``__init__``).  Any
failure — no compiler, sandboxed tmpdir, broken numba — is contained here
and reported as ``None``, never raised to import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import numpy_backend

__all__ = ["load_cc_backend", "load_numba_backend"]

_SRC = Path(__file__).with_name("_kernels.c")

#: sdc_merge_ways in C uses a fixed-size pointer scratch; groups larger
#: than this (never seen in practice — k is one machine's core count)
#: fall back to the NumPy walk.
_SDC_MAX_GROUP = 64

#: Below this many position*process steps the pure-Python walk beats the
#: compiled call — marshalling through ctypes costs more than the walk
#: itself.  Measured crossover is ~k=8, assoc=32.
_SDC_MIN_WORK = 256

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p

#: pressure_window_trim in C gathers each row into a fixed-size scratch;
#: wider nodes (more cores per machine than this) use the NumPy reference.
_WINDOW_MAX_U = 64

#: Window plans one thread keeps (one per model vector, table and limit:
#: an HA* solve at n = 64 makes about 16); the cache is emptied when it
#: grows past this, so a long-lived service stays bounded.
_WINDOW_PLANS_MAX = 64


class _WindowPlan(ctypes.Structure):
    """``window_plan`` of ``_kernels.c``: one MER window's fixed inputs
    and the buffers its calls fill."""

    _fields_ = [
        ("sens", _PTR), ("aggr", _PTR),
        ("kappa", ctypes.c_double), ("saturation", ctypes.c_double),
        ("table", _PTR),
        ("rows", ctypes.c_int64), ("k", ctypes.c_int64),
        ("limit", ctypes.c_int64),
        ("ranked", _PTR), ("w", _PTR), ("sel", _PTR),
        ("out_rows", _PTR), ("out_w", _PTR),
    ]


def _cache_dir() -> Path:
    override = os.environ.get("COSCHED_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"cosched-kernels-{os.getuid()}"


def _compile_library(source: Path) -> Optional[Path]:
    """Compile ``source`` into the cache dir; return the .so path or None."""
    text = source.read_bytes()
    tag = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_cosched_kernels_{tag}.so"
    if lib.is_file():
        return lib
    try:
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f".build_{tag}_{os.getpid()}.so"
        cmd = [
            os.environ.get("CC", "cc"),
            "-O3", "-fPIC", "-shared",
            "-o", str(tmp), str(source), "-lm",
        ]
        proc = subprocess.run(
            cmd, capture_output=True, timeout=120, check=False
        )
        if proc.returncode != 0 or not tmp.is_file():
            return None
        os.replace(tmp, lib)  # atomic: concurrent builders converge
        return lib
    except (OSError, subprocess.SubprocessError):
        return None


class _CcBackend:
    """ctypes wrappers around the compiled ``_kernels.c`` library."""

    provider = "cc"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.pairwise_node_weights.argtypes = [
            _F64, ctypes.c_int64, _I64, ctypes.c_int64, ctypes.c_int64, _F64,
        ]
        lib.pairwise_node_weights.restype = None
        lib.pressure_node_weights.argtypes = [
            _F64, _F64, _I64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, _F64,
        ]
        lib.pressure_node_weights.restype = None
        lib.sdc_merge_ways.argtypes = [
            _F64, _I64, _I64, _F64, ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.sdc_merge_ways.restype = None
        lib.select_smallest.argtypes = [
            _F64, ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.select_smallest.restype = None
        lib.pressure_window_trim.argtypes = [_PTR, ctypes.c_int64]
        lib.pressure_window_trim.restype = None
        # Per thread, since ctypes drops the GIL during a call and a plan
        # owns its output buffers.
        self._local = threading.local()

    # ------------------------------------------------------------------ #

    def pairwise_node_weights(self, pairwise: np.ndarray,
                              nodes: np.ndarray) -> np.ndarray:
        P = np.ascontiguousarray(pairwise, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._lib.pairwise_node_weights(
            P.ctypes.data_as(_F64), P.shape[0],
            nd.ctypes.data_as(_I64), nd.shape[0], nd.shape[1],
            out.ctypes.data_as(_F64),
        )
        return out

    def pressure_node_weights(self, sens: np.ndarray, aggr: np.ndarray,
                              nodes: np.ndarray, kappa: float,
                              saturation: Optional[float]) -> np.ndarray:
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = s if aggr is sens else np.ascontiguousarray(aggr, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._lib.pressure_node_weights(
            s.ctypes.data_as(_F64), a.ctypes.data_as(_F64),
            nd.ctypes.data_as(_I64), nd.shape[0], nd.shape[1],
            float(kappa),
            -1.0 if saturation is None else float(saturation),
            out.ctypes.data_as(_F64),
        )
        return out

    def sdc_merge_ways(self, counters: Sequence[Sequence[float]],
                       weights: Sequence[float], associativity: int) -> list:
        k = len(counters)
        if (
            k == 0
            or k > _SDC_MAX_GROUP
            or k * associativity < _SDC_MIN_WORK
        ):
            return numpy_backend.sdc_merge_ways(counters, weights,
                                                associativity)
        # Marshalling is the hot part at merge sizes, so the ragged
        # counters go through stdlib ``array`` buffers (C-speed extend,
        # zero-copy pointer via buffer_info) rather than numpy allocation
        # + fancy indexing.  The arrays must stay referenced until the
        # call returns — they are locals, so they do.
        offsets = array("q", bytes(8 * k))
        lengths = array("q", bytes(8 * k))
        flat = array("d")
        for i, c in enumerate(counters):
            offsets[i] = len(flat)
            lengths[i] = len(c)
            flat.extend(c)
        w = array("d", [float(x) for x in weights])
        won = array("q", bytes(8 * k))
        self._lib.sdc_merge_ways(
            ctypes.cast(flat.buffer_info()[0], _F64),
            ctypes.cast(offsets.buffer_info()[0], _I64),
            ctypes.cast(lengths.buffer_info()[0], _I64),
            ctypes.cast(w.buffer_info()[0], _F64),
            k, int(associativity),
            ctypes.cast(won.buffer_info()[0], _I64),
        )
        return list(won)

    def select_smallest(self, weights: np.ndarray, k: int) -> np.ndarray:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        k = min(int(k), len(w))
        # The bounded max-heap is O(N log k): a huge win for the MER
        # regime (k = n/u, a sliver of the level) but it loses to the
        # stable argsort once k approaches N.  Measured crossover ~N/6.
        if 6 * k > len(w):
            return numpy_backend.select_smallest(w, k)
        out = np.empty(k, dtype=np.int64)
        self._lib.select_smallest(
            w.ctypes.data_as(_F64), len(w), k, out.ctypes.data_as(_I64),
        )
        return out

    def _window_plan(self, sens, aggr, kappa, saturation, table, limit):
        """This thread's plan for one window: ``(inputs, address, ranked
        buffer, out_rows, out_w, kept alive)``.

        Keyed by the identity of the model vectors and the table (the plan
        holds them, so no id is reused meanwhile); each is converted to
        float64 / int64 once, here, and never per call.
        """
        plans = getattr(self._local, "plans", None)
        if plans is None:
            plans = self._local.plans = {}
        key = (id(sens), id(aggr), id(table), kappa, saturation, limit)
        plan = plans.get(key)
        if plan is not None:
            s, a, t = plan[0]
            if s is sens and a is aggr and t is table:
                return plan
        if table.min() < 0:
            raise ValueError("window table indices must be non-negative")
        rows, k = table.shape
        m = min(limit, rows)
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = np.ascontiguousarray(aggr, dtype=np.float64)
        t = np.ascontiguousarray(table, dtype=np.int64)
        ranked = np.zeros(int(table.max()) + 1, dtype=np.int64)
        w = np.empty(rows, dtype=np.float64)
        sel = np.empty(m, dtype=np.int64)
        out_rows = np.empty((m, k + 1), dtype=np.int64)
        out_w = np.empty(m, dtype=np.float64)
        struct = _WindowPlan(
            s.ctypes.data, a.ctypes.data, kappa,
            -1.0 if saturation is None else saturation,
            t.ctypes.data, rows, k, limit, ranked.ctypes.data,
            w.ctypes.data, sel.ctypes.data, out_rows.ctypes.data,
            out_w.ctypes.data,
        )
        if len(plans) >= _WINDOW_PLANS_MAX:
            plans.clear()
        plan = plans[key] = (
            (sens, aggr, table), ctypes.addressof(struct), ranked, out_rows,
            out_w, (struct, s, a, t, w, sel),
        )
        return plan

    def pressure_window_trim(self, sens, aggr, kappa, saturation, level_pid,
                             ranked, table, limit):
        """One C call: gather, score, select and sort a MER window.

        The plan's addresses spare the call all per-argument marshalling,
        which is most of a window's cost; its outputs are returned as
        copies, so they outlive the plan's next call.
        """
        rows, k = table.shape
        if k + 1 > _WINDOW_MAX_U or rows == 0 or limit <= 0:
            return numpy_backend.pressure_window_trim(
                sens, aggr, kappa, saturation, level_pid, ranked, table,
                limit)
        _, address, buf, out_rows, out_w, _ = self._window_plan(
            sens, aggr, kappa, saturation, table, limit)
        buf[...] = ranked[:len(buf)]
        self._lib.pressure_window_trim(address, level_pid)
        return out_rows.copy(), out_w.copy()


def load_cc_backend() -> Optional[_CcBackend]:
    """Compile (or reuse) the C library and wrap it; None on any failure."""
    try:
        if not _SRC.is_file():
            return None
        lib_path = _compile_library(_SRC)
        if lib_path is None:
            return None
        return _CcBackend(ctypes.CDLL(str(lib_path)))
    except OSError:
        return None


# --------------------------------------------------------------------- #
# numba provider
# --------------------------------------------------------------------- #


class _NumbaBackend:
    """numba-jitted kernels; bodies mirror ``_kernels.c`` loop for loop."""

    provider = "numba"

    def __init__(self, njit):
        @njit(cache=False)
        def _pairwise(P, nodes, out):  # pragma: no cover - requires numba
            N, u = nodes.shape
            for r in range(N):
                total = 0.0
                for i in range(u):
                    pi = nodes[r, i]
                    for j in range(u):
                        if j != i:
                            total += P[pi, nodes[r, j]]
                out[r] = total

        @njit(cache=False)
        def _pressure(sens, aggr, nodes, kappa, saturation, out):
            # pragma: no cover - requires numba
            N, u = nodes.shape
            for r in range(N):
                asum = 0.0
                for i in range(u):
                    asum += aggr[nodes[r, i]]
                total = 0.0
                if saturation > 0.0:
                    for i in range(u):
                        others = asum - aggr[nodes[r, i]]
                        total += sens[nodes[r, i]] * (
                            saturation * (1.0 - np.exp(-others / saturation))
                        )
                else:
                    for i in range(u):
                        total += sens[nodes[r, i]] * (asum - aggr[nodes[r, i]])
                out[r] = kappa * total

        @njit(cache=False)
        def _sdc_merge(flat, offsets, lengths, weights, assoc, won):
            # pragma: no cover - requires numba
            k = len(lengths)
            ptr = np.zeros(k, dtype=np.int64)
            claimed = 0
            for _pos in range(assoc):
                best = -1
                best_val = -1.0
                for i in range(k):
                    if ptr[i] >= lengths[i]:
                        continue
                    val = flat[offsets[i] + ptr[i]] * weights[i]
                    if val > best_val:
                        best_val = val
                        best = i
                if best < 0 or best_val <= 0.0:
                    break
                won[best] += 1
                ptr[best] += 1
                claimed += 1
            remaining = assoc - claimed
            i = 0
            while remaining > 0:
                won[i % k] += 1
                remaining -= 1
                i += 1

        self._pairwise = _pairwise
        self._pressure = _pressure
        self._sdc_merge = _sdc_merge

    def pairwise_node_weights(self, pairwise, nodes):
        # pragma: no cover - requires numba
        P = np.ascontiguousarray(pairwise, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._pairwise(P, nd, out)
        return out

    def pressure_node_weights(self, sens, aggr, nodes, kappa, saturation):
        # pragma: no cover - requires numba
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = s if aggr is sens else np.ascontiguousarray(aggr, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._pressure(
            s, a, nd, float(kappa),
            -1.0 if saturation is None else float(saturation), out,
        )
        return out

    def sdc_merge_ways(self, counters, weights, associativity):
        # pragma: no cover - requires numba
        k = len(counters)
        if k == 0:
            return numpy_backend.sdc_merge_ways(counters, weights,
                                                associativity)
        lengths = np.array([len(c) for c in counters], dtype=np.int64)
        offsets = np.zeros(k, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.empty(int(lengths.sum()), dtype=np.float64)
        for i, c in enumerate(counters):
            flat[offsets[i]:offsets[i] + lengths[i]] = c
        w = np.ascontiguousarray(weights, dtype=np.float64)
        won = np.zeros(k, dtype=np.int64)
        self._sdc_merge(flat, offsets, lengths, w, int(associativity), won)
        return [int(x) for x in won]

    def select_smallest(self, weights, k):
        # Selection is memory-bound; numba gains nothing over the stable
        # argsort, so the numba provider delegates.
        return numpy_backend.select_smallest(weights, k)

    def pressure_window_trim(self, sens, aggr, kappa, saturation, level_pid,
                             ranked, table, limit):
        # pragma: no cover - requires numba
        # The jitted pressure kernel scores; NumPy gathers and selects.
        return numpy_backend.pressure_window_trim(
            sens, aggr, kappa, saturation, level_pid, ranked, table, limit,
            score=self.pressure_node_weights)


def load_numba_backend() -> Optional[_NumbaBackend]:
    """Jit the kernels with numba when it is importable; None otherwise."""
    try:  # pragma: no cover - exercised only with the [native] extra
        from numba import njit
    except Exception:
        return None
    try:  # pragma: no cover - exercised only with the [native] extra
        return _NumbaBackend(njit)
    except Exception:
        return None
