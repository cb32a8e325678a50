"""The compiled kernel provider: a cc-built library loaded through ctypes.

``_kernels.c`` (shipped with the package) is compiled once with the system
C compiler (``CC``, default ``cc``) into a per-user cache directory keyed
by the source hash, then loaded through :mod:`ctypes`.  Rebuilds happen
only when the source changes.

The provider exposes the call signatures of
:mod:`repro.perf.kernels.numpy_backend` for every kernel it compiles, and
is verified against the NumPy backend on tiny inputs before being adopted
(see ``_self_check`` in the package ``__init__``).  HA*'s MER window trim
is a factory, ``pressure_window_trimmer``: it builds the window's C plan
(converted inputs, the rank order, scratch and output buffers) once and
returns a trim that owns it, so each call passes the level pid and the
state's scheduled-pid mask as bytes, and a search that keeps its own trims
never shares a buffer with another thread.  Any failure — no
compiler, sandboxed tmpdir, bad library — is contained here and reported
as ``None``, never raised to import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from . import numpy_backend

__all__ = ["load_cc_backend"]

_SRC = Path(__file__).with_name("_kernels.c")

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_PTR = ctypes.c_void_p

#: The C window trim gathers each row into a fixed-size scratch;
#: wider nodes (more cores per machine than this) use the NumPy reference.
_WINDOW_MAX_U = 64


class _WindowPlan(ctypes.Structure):
    """``window_plan`` of ``_kernels.c``: one MER window's fixed inputs
    and the buffers its calls fill."""

    _fields_ = [
        ("sens", _PTR), ("aggr", _PTR),
        ("kappa", ctypes.c_double), ("saturation", ctypes.c_double),
        ("table", _PTR),
        ("rows", ctypes.c_int64), ("k", ctypes.c_int64),
        ("limit", ctypes.c_int64),
        ("rank", _PTR),
        ("n", ctypes.c_int64), ("width", ctypes.c_int64),
        ("words", ctypes.c_int64),
        ("ranked", _PTR), ("w", _PTR), ("sel", _PTR),
        ("out_rows", _PTR), ("out_w", _PTR), ("out_masks", _PTR),
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
        lib.select_smallest.argtypes = [
            _F64, ctypes.c_int64, ctypes.c_int64, _I64,
        ]
        lib.select_smallest.restype = None
        lib.pressure_window_trim.argtypes = [
            _PTR, ctypes.c_int64, ctypes.c_char_p,
        ]
        lib.pressure_window_trim.restype = ctypes.c_int64

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

    def pressure_window_trimmer(self, sens, aggr, kappa, saturation, table,
                                limit, rank, n):
        """A trim of one MER window, bound to its fixed inputs.

        The ``window_plan`` is built here, once: each input and the rank
        order converted to float64 / int64, the buffers allocated and
        their addresses set.  A call of the returned ``trim(level_pid,
        scheduled)`` makes one C call (rank walk, gather, score, select,
        sort and child masks) and reads the outputs as fresh lists.  The
        plan's buffers are the trimmer's own, so one trimmer serves one
        thread at a time: a search owns its trimmers.
        """
        rows, k = table.shape
        if k + 1 > _WINDOW_MAX_U or rows == 0 or limit <= 0:
            return numpy_backend.pressure_window_trimmer(
                sens, aggr, kappa, saturation, table, limit, rank, n)
        width = numpy_backend.window_width(table)
        r = np.ascontiguousarray(rank, dtype=np.int64)
        if len(r) != n or (n and (r.min() < 0 or r.max() >= n)):
            raise ValueError("rank must hold n pids in [0, n)")
        m = min(limit, rows)
        words = (n + 63) // 64
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = np.ascontiguousarray(aggr, dtype=np.float64)
        if len(s) < n or len(a) < n:
            raise ValueError("sens and aggr need a value per pid")
        t = np.ascontiguousarray(table, dtype=np.int64)
        ranked = np.empty(width, dtype=np.int64)
        w = np.empty(rows, dtype=np.float64)
        sel = np.empty(m, dtype=np.int64)
        out_rows = np.empty((m, k + 1), dtype=np.int64)
        out_w = np.empty(m, dtype=np.float64)
        out_masks = np.empty(m * words, dtype="<u8")
        plan = _WindowPlan(
            s.ctypes.data, a.ctypes.data, kappa,
            -1.0 if saturation is None else saturation,
            t.ctypes.data, rows, k, limit, r.ctypes.data, n, width, words,
            ranked.ctypes.data, w.ctypes.data, sel.ctypes.data,
            out_rows.ctypes.data, out_w.ctypes.data, out_masks.ctypes.data,
        )
        address = ctypes.addressof(plan)
        call = self._lib.pressure_window_trim
        step = 8 * words

        def trim(level_pid, scheduled):
            if len(scheduled) != step or not 0 <= level_pid < n:
                raise ValueError(f"need a pid in [0, {n}) and {step} bytes")
            if call(address, level_pid, scheduled):
                raise ValueError("fewer unscheduled pids than the window")
            if words == 1:
                masks = out_masks.tolist()
            else:
                raw = out_masks.tobytes()
                masks = [int.from_bytes(raw[i:i + step], "little")
                         for i in range(0, len(raw), step)]
            return out_rows.tolist(), out_w.tolist(), masks

        # The plan holds raw addresses: keep what they point into alive.
        trim.plan = (plan, s, a, t, r, ranked, w, sel)
        return trim


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
