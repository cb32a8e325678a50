"""Pure-NumPy reference implementations of the batch kernels.

This is the fallback backend — always importable, no compiler, no optional
dependency — and the *semantic definition* the compiled backend is tested
against (``tests/perf/test_kernels_equivalence.py`` asserts 1e-9 agreement
on randomized inputs).  Its SDC merge walk is the only one: it has no
compiled form.  The vectorized bodies are exactly the expressions
the degradation models shipped before the backends were split out, so
selecting this backend reproduces the historical results bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "pairwise_node_weights",
    "pressure_node_weights",
    "pressure_window_trim",
    "pressure_window_trimmer",
    "sdc_merge_ways",
    "select_smallest",
    "window_width",
]


def pairwise_node_weights(pairwise: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Node weights from a pairwise degradation table.

    Gather each node's u x u pairwise block; the node weight is the block
    sum minus the self-interaction diagonal (the ``nii->n`` trace).
    """
    sub = pairwise[nodes[:, :, None], nodes[:, None, :]]
    return sub.sum(axis=(1, 2)) - np.einsum("nii->n", sub)


def pressure_node_weights(
    sens: np.ndarray,
    aggr: np.ndarray,
    nodes: np.ndarray,
    kappa: float,
    saturation: Optional[float],
) -> np.ndarray:
    """``sum_i s_i * kappa * phi(A_T - a_i)`` over N nodes at once.

    ``sens is aggr`` gives :class:`~repro.core.degradation
    .MissRatePressureModel`'s kernel; distinct vectors give the
    asymmetric-contention kernel.  ``saturation=None`` is the linear
    response ``phi(x) = x``.
    """
    s_m = sens[nodes]
    a_m = aggr[nodes] if aggr is not sens else s_m
    others = a_m.sum(axis=1, keepdims=True) - a_m
    if saturation is None:
        resp = others
    else:
        sat = saturation
        resp = sat * (1.0 - np.exp(-others / sat))
    return kappa * np.einsum("nu,nu->n", s_m, resp)


def sdc_merge_ways(
    counters: Sequence[Sequence[float]],
    weights: Sequence[float],
    associativity: int,
) -> list:
    """The SDC position-by-position merge walk (Chandra et al., HPCA'05).

    At each of the ``associativity`` positions the process with the highest
    current rate-weighted hit counter wins the position and advances its own
    pointer; ties go to the lower process index, the walk stops when every
    live counter is non-positive, and unclaimed positions are dealt
    round-robin so the full cache is always accounted for.
    """
    k = len(counters)
    ptr = [0] * k
    won = [0] * k
    for _pos in range(associativity):
        best = -1
        best_val = -1.0
        for i in range(k):
            if ptr[i] >= len(counters[i]):
                continue
            val = counters[i][ptr[i]] * weights[i]
            if val > best_val:
                best_val = val
                best = i
        if best < 0 or best_val <= 0.0:
            break
        won[best] += 1
        ptr[best] += 1
    remaining = associativity - sum(won)
    i = 0
    while remaining > 0:
        won[i % k] += 1
        remaining -= 1
        i += 1
    return won


def select_smallest(weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest weights in ``(weight, index)`` order.

    A stable argsort breaks ties by position exactly like the historical
    ``heapq.nsmallest(..., key=lambda t: (weight, node))`` trim did (level
    nodes are enumerated in ascending node order, so index order *is* node
    order).
    """
    order = np.argsort(weights, kind="stable")
    if k < len(order):
        order = order[:k]
    return order


def pressure_window_trim(
    sens: np.ndarray,
    aggr: np.ndarray,
    kappa: float,
    saturation: Optional[float],
    level_pid: int,
    ranked: np.ndarray,
    table: np.ndarray,
    limit: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """HA*'s MER trim of one window: the ``limit`` lightest of its rows.

    Row ``r`` is ``[level_pid, ranked[table[r]]]``, scored in that member
    order by :func:`pressure_node_weights`;
    the ``limit`` smallest in ``(weight, row)`` order come back as
    ``(nodes, weights)``, each node sorted ascending.
    """
    rows = np.empty((len(table), table.shape[1] + 1), dtype=np.intp)
    rows[:, 0] = level_pid
    rows[:, 1:] = np.asarray(ranked)[table]
    weights = pressure_node_weights(sens, aggr, rows, kappa, saturation)
    sel = select_smallest(weights, limit)
    return np.sort(rows[sel], axis=1), weights[sel]


def window_width(table: np.ndarray) -> int:
    """How many ranked pids a MER window table indexes (0 when its rows
    are empty, as on single-core machines)."""
    if not table.size:
        return 0
    if table.min() < 0:
        raise ValueError("window table indices must be non-negative")
    return int(table.max()) + 1


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
    """:func:`pressure_window_trim` bound to one window's fixed inputs and
    a search's rank order over its ``n`` pids.

    ``trim(level_pid, scheduled)`` takes the state's scheduled-pid mask as
    ``8 * ceil(n / 64)`` little-endian bytes.  It walks ``rank``, skipping
    scheduled pids and ``level_pid``, until it has the ``width`` pids the
    table indexes, trims the window over them, and returns the kept
    ``(nodes, weights, child_masks)`` as lists: each child mask is the
    state's mask with the node's pids set.  The compiled provider's
    trimmer returns the same.
    """
    width = window_width(table)
    rank = [int(pid) for pid in rank]
    step = 8 * ((n + 63) // 64)
    bit = [1 << pid for pid in range(n)]

    def trim(level_pid: int, scheduled: bytes) -> Tuple[list, list, list]:
        if len(scheduled) != step or not 0 <= level_pid < n:
            raise ValueError(f"need a pid in [0, {n}) and {step} bytes")
        mask = int.from_bytes(scheduled, "little")
        ranked = []
        for pid in rank:
            if len(ranked) == width:
                break
            if pid != level_pid and not mask & bit[pid]:
                ranked.append(pid)
        if len(ranked) < width:
            raise ValueError("fewer unscheduled pids than the window")
        nodes, weights = pressure_window_trim(
            sens, aggr, kappa, saturation, level_pid,
            np.asarray(ranked, dtype=np.intp), table, limit)
        nodes = nodes.tolist()
        masks = []
        for node in nodes:
            child = mask
            for pid in node:
                child |= bit[pid]
            masks.append(child)
        return nodes, weights.tolist(), masks

    return trim
