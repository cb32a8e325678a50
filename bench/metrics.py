"""Metric definitions and the arithmetic that turns samples into them.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
``BENCHMARK.json`` declares (``bench/test_bench.py`` keeps the two in
step).  Every workload reports every metric; a layer a workload never
enters reads 0.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from typing import Dict, Iterable, List, Sequence

import numpy as np

from layers import layer_of

#: Median :func:`calibration_sample` on the bench box (2 vCPUs) when the
#: machine is not slowed down by its neighbours.  End-to-end times are
#: reported at this speed.
CALIBRATION_REFERENCE_S = 0.0065

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "solve_ms_p50": ("ms", "lower", 0.25),
    "fast_path_ms_p50": ("ms", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "objective_vs_pg": ("ratio", "lower", 0.005),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {
    "perf.kernels.self_s": ("s", "lower"),
    "perf.kernels.calls": ("count", "lower"),
    "perf.kernels.rows_per_call": ("rows", "higher"),
    "perf.kernels.bytes_computed": ("bytes", "lower"),
    "graph.successors.self_s": ("s", "lower"),
    "graph.successors.calls": ("count", "lower"),
    "graph.nodes_generated": ("count", "lower"),
    "graph.h_precompute_s": ("s", "lower"),
    "graph.h.self_s": ("s", "lower"),
    "graph.h.calls": ("count", "lower"),
    "graph.condensed_ratio": ("ratio", "higher"),
    "core.weights.self_s": ("s", "lower"),
    "core.weights.calls": ("count", "lower"),
    "core.memo_hit_ratio": ("ratio", "higher"),
    "core.degradation.self_s": ("s", "lower"),
    "core.degradation.calls": ("count", "lower"),
    "cache.sdc.self_s": ("s", "lower"),
    "cache.sdc.calls": ("count", "lower"),
    "comm.self_s": ("s", "lower"),
    "comm.calls": ("count", "lower"),
    "solvers.search.self_s": ("s", "lower"),
    "solvers.het_search_s": ("s", "lower"),
    "solvers.expanded": ("count", "lower"),
    "solvers.generated": ("count", "lower"),
    "solvers.dismiss_ratio": ("ratio", "higher"),
    "solvers.unattributed_frac": ("ratio", "lower"),
    "runtime.overhead_ms": ("ms", "lower"),
    "service.encode_ms_p50": ("ms", "lower"),
    "service.decode_ms_p50": ("ms", "lower"),
    "service.fingerprint_ms_p50": ("ms", "lower"),
    "service.store.lookup_ms_p50": ("ms", "lower"),
    "service.store.record_ms_p50": ("ms", "lower"),
    "service.queue_wait_ms_p50": ("ms", "lower"),
    "service.queue_wait_ms_p99": ("ms", "lower"),
    "service.solve_ms_p50": ("ms", "lower"),
    "service.reply_ms_p50": ("ms", "lower"),
    "service.http_other_ms_p50": ("ms", "lower"),
    "service.latency_ms_p95": ("ms", "lower"),
    "service.keepalive_hit_ms_p50": ("ms", "lower"),
    "service.solves": ("count", "lower"),
    "service.cache_hits": ("count", "higher"),
    "service.coalesced": ("count", "higher"),
    "service.shed": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.hit_ratio": ("ratio", "higher"),
    "bench.gen.lag_ms_p99": ("ms", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}

def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated (0 when empty)."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def calibration_sample() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work like the
    solvers' own: dict and heap traffic, row gathers, a stable argsort.

    The bench box's speed swings by up to ~50% from one second to the
    next and for minutes at a time; sampled through a run, these tell how
    much slower the run's machine was than
    :data:`CALIBRATION_REFERENCE_S`.  The collector is off meanwhile, so a
    sample does not depend on how many objects its process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_work()
    finally:
        if enabled:
            gc.enable()


def _calibration_work() -> float:
    t0 = time.perf_counter()
    best: Dict[tuple, float] = {}
    heap: list = []
    for i in range(4000):
        key = (i % 61, i % 53)
        g = (i * 7919) % 1009 * 0.25
        if best.get(key, 1e9) > g:
            best[key] = g
            heapq.heappush(heap, (g, i, key))
    while heap:
        heapq.heappop(heap)
    nodes = np.arange(8000, dtype=np.int64).reshape(2000, 4) % 64
    rates = np.linspace(0.15, 0.75, 64)
    for _ in range(30):
        np.argsort(rates[nodes].sum(axis=1), kind="stable")
    return time.perf_counter() - t0


def slowdown(samples: Iterable[float]) -> float:
    """Median calibration time over the reference: 1.3 means the run's
    machine was 30% slower than the bench box usually is."""
    return pct(samples, 50) / CALIBRATION_REFERENCE_S


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def solver_layer_metrics(aggregates: Dict[str, Dict[str, float]],
                         counts: Sequence[Dict[str, float]],
                         wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of a set of solves, as means per solve.

    ``aggregates`` come from :meth:`layers.LayerTracer.aggregates`,
    ``counts`` hold one :func:`layers.solve_counts` per solve and
    ``wall_s`` is the solves' wall time as their caller measured it.
    """
    n = max(len(counts), 1)
    layer: Dict[str, Dict[str, float]] = {}
    for label, a in aggregates.items():
        acc = layer.setdefault(layer_of(label), dict.fromkeys(a, 0))
        for k, v in a.items():
            acc[k] += v
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0, "bytes": 0}

    def get(name, field):
        return layer.get(name, empty)[field]

    def total(field):
        return sum(c[field] for c in counts)

    kernel_calls = get("perf.kernels", "calls")
    lookups = (total("memo_hits") + total("memo_batched")
               + aggregates.get("core.weights/node_weight", empty)["calls"])
    misses = total("memo_batched") + total("memo_scalar")
    attributed = sum(a["self_s"] for a in aggregates.values())
    out = {
        "perf.kernels.self_s": get("perf.kernels", "self_s") / n,
        "perf.kernels.calls": kernel_calls / n,
        "perf.kernels.rows_per_call": _ratio(get("perf.kernels", "rows"),
                                             kernel_calls),
        "perf.kernels.bytes_computed": get("perf.kernels", "bytes") / n,
        "graph.successors.self_s": get("graph.successors", "self_s") / n,
        "graph.successors.calls": get("graph.successors", "calls") / n,
        "graph.nodes_generated": total("graph_generated") / n,
        "graph.h_precompute_s": get("graph.h_precompute", "total_s") / n,
        "graph.h.self_s": get("graph.h", "self_s") / n,
        "graph.h.calls": get("graph.h", "calls") / n,
        "graph.condensed_ratio": _ratio(
            total("condensed_away"),
            total("condensed_away") + total("graph_generated")),
        "core.weights.self_s": get("core.weights", "self_s") / n,
        "core.weights.calls": get("core.weights", "calls") / n,
        "core.memo_hit_ratio": (1.0 - misses / lookups) if lookups else 0.0,
        "core.degradation.self_s": get("core.degradation", "self_s") / n,
        "core.degradation.calls": get("core.degradation", "calls") / n,
        "cache.sdc.self_s": get("cache.sdc", "self_s") / n,
        "cache.sdc.calls": get("cache.sdc", "calls") / n,
        "comm.self_s": get("comm", "self_s") / n,
        "comm.calls": get("comm", "calls") / n,
        "solvers.search.self_s": get("solvers.solve", "self_s") / n,
        "solvers.het_search_s": get("solvers.het_search", "self_s") / n,
        "solvers.expanded": total("expanded") / n,
        "solvers.generated": total("generated") / n,
        "solvers.dismiss_ratio": _ratio(
            total("dismissed"), total("dismissed") + total("visited")),
        "solvers.unattributed_frac": max(0.0, _ratio(wall_s - attributed,
                                                     wall_s)),
        "runtime.overhead_ms": 1e3 * get("runtime.run_solve", "self_s") / n,
    }
    return out


def self_time_shares(aggregates: Dict[str, Dict[str, float]],
                     wall_s: float) -> List[tuple]:
    """``(layer, self seconds, share of wall)`` rows, largest first."""
    by_layer: Dict[str, float] = {}
    for label, a in aggregates.items():
        name = layer_of(label)
        by_layer[name] = by_layer.get(name, 0.0) + a["self_s"]
    rows = [(name, s, _ratio(s, wall_s)) for name, s in by_layer.items()]
    rows.sort(key=lambda r: -r[1])
    return rows
