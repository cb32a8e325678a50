"""Graph levels: successor generation and h(v) level statistics.

The co-scheduling graph (Fig. 3) organizes its C(n, u) nodes into levels by
the smallest process id in the node.  A search state is the set of already
scheduled processes; its *valid level* is the smallest unscheduled pid, and
its successors are the nodes ``{level_pid} ∪ (u-1 unscheduled others)``.

:class:`SuccessorGenerator` enumerates successors with four optimizations:

* **PE bucketing** — processes of one PE job are fully interchangeable, so
  only the lowest-ranked unscheduled processes of each PE job are ever
  chosen (exact, always safe);
* **PC condensation** — Section III-E: successors with identical serial
  content and identical per-PC-job communication properties are collapsed to
  one representative.  On workloads with parallel jobs both come from
  tables, one per level pid and set of scheduled PE ranks, built on first
  use: each row's node, pid mask and interned condensation key.  A
  state's successors are a few vector operations over its table, and
  each row keeps its weight and member degradations once computed, which
  the search reads for g;
* **lazy monotone enumeration** — for member-wise monotone models and no
  extra node cost, successors stream in ascending weight at scale;
* **MER window** — every HA* trim on such a model with a
  ``window_trimmer`` (batch-scored), at any level size, gathers, scores,
  selects and sorts a small candidate set provably holding the ``limit``
  lightest nodes in one compiled call (see :func:`_mer_window`).  The
  generator builds one trimmer per window on first use, bound to its
  rank order, and calls it directly for the rest of its search.  The
  call takes the state's scheduled-pid mask, walks the rank order past
  the scheduled pids itself, and hands back each kept node's child mask
  (the state key the search dismisses on) with the node.

:class:`HeuristicEstimator` implements the paper's two h(v) strategies
(Section III-D) over precomputed per-level minimum weights, in several
rigor modes (see :meth:`HeuristicEstimator.__init__`); Strategy 2 reads
one precomputed term per pid.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.degradation import MissRatePressureModel
from ..core.jobs import JobKind
from ..core.problem import CoSchedulingProblem
from ..perf import kernels as _kernels
from .subset_enum import iter_subsets_monotone

__all__ = ["SuccessorGenerator", "HeuristicEstimator", "successor_columns"]


# --------------------------------------------------------------------- #
# Successor generation
# --------------------------------------------------------------------- #


def successor_columns(
    scheduled: int, pairs: Sequence[Tuple[Sequence[int], float]]
) -> Tuple[list, list, List[int]]:
    """``(node, weight)`` pairs as the columns ``(nodes, weights,
    child_masks)``: each child mask is ``scheduled`` (the state's
    scheduled-pid bitmask) with the node's pids set."""
    nodes = []
    weights = []
    masks = []
    for node, weight in pairs:
        mask = scheduled
        for pid in node:
            mask |= 1 << pid
        nodes.append(node)
        weights.append(weight)
        masks.append(mask)
    return nodes, weights, masks


#: Largest MER window (rows per kernel call) the trim scores at once;
#: larger windows keep the lazy heap.  Measured by
#: ``benchmarks/test_mer_window_crossover.py`` (root state, best of 7, C
#: kernels, 2-vCPU x86 host): on eight-core levels (k=7) the window beats
#: the heap 1.35x at 5.0k rows, 1.2x at 6.0k and loses at 8.6k; quad-core
#: rows (k=3) are cheaper, 3.2x at 6.8k and even at ~44k.  The cap takes
#: the smaller crossover and bounds each cached table to a few hundred KB.
MER_WINDOW_MAX_ROWS = 6_000

#: Levels with more than ``max(4 * limit, _LAZY_THRESHOLD)`` nodes take the
#: lazy (pressure-ordered) stream when a trim limit is set.
_LAZY_THRESHOLD = 512

#: Serial levels of at most this many nodes, C(n, u), are materialized and
#: sorted once (the paper's presorted graph) for models with no stream.
_PRESORT_LIMIT = 300_000

#: ``level_mode="auto"`` enumerates every node for the heuristic's level
#: minima when C(n, u) is at most this.
_EXACT_LEVEL_LIMIT = 40_000


@functools.lru_cache(maxsize=128)
def _mer_window(
    limit: int, k: int, width: int, max_rows: int
) -> Optional[np.ndarray]:
    """Rank-index tuples that can be among a level's ``limit`` lightest.

    Returns the ``k``-tuples ``i_0 < … < i_{k-1} < width`` with
    ``Σ_j (i_j − j) ≤ limit − 1`` as a read-only ``(rows, k)`` array in
    lexicographic order, or None when there are more than ``max_rows``.

    Why nothing else can qualify: a tuple with ``Σ_j (i_j − j) = e``
    lies at the end of a chain of ``e`` single-index decrements from
    ``(0, …, k-1)``, so ``e`` distinct tuples sit componentwise below
    it.  For a member-monotone weight over items in ascending rank none
    of them weighs more, and each is lexicographically smaller, so all
    ``e`` precede it in ``(weight, index-tuple)`` order; ``e ≥ limit``
    rules it out.  Every index is then at most ``limit + k − 2``: only
    the first ``limit + k − 1`` items in rank order are ever needed.

    Built directly by a recursion over the per-index excesses
    ``d_j = i_j − j`` (non-decreasing, so choosing ``d_j`` commits at
    least ``d_j`` to every later index), never by filtering all
    ``C(width, k)`` tuples.
    """
    top = width - k  # largest excess any one index may have
    rows: List[Tuple[int, ...]] = []
    prefix: List[int] = []

    def rec(j: int, lo: int, budget: int) -> bool:
        if j == k:
            rows.append(tuple(prefix))
            return len(rows) <= max_rows
        left = k - j
        d = lo
        while d <= top and d * left <= budget:
            prefix.append(d + j)
            ok = rec(j + 1, d, budget - d)
            prefix.pop()
            if not ok:
                return False
            d += 1
        return True

    if not rec(0, 0, limit - 1):
        return None
    # reshape(len, k), not (-1, k): single-core rows (k = 0) are empty.
    table = np.asarray(rows, dtype=np.intp).reshape(len(rows), k)
    table.setflags(write=False)
    return table


def _frontier_combinations(
    singles: Sequence[int], fronts: Sequence[Sequence[int]], k: int
) -> Iterator[Tuple[int, ...]]:
    """The ``k``-subsets of ``singles`` and the ``fronts`` that take a
    prefix of every front, each as a sorted tuple (in no set order)."""

    def takes(i: int, room: int) -> Iterator[Tuple[int, ...]]:
        if i == len(fronts):
            yield ()
            return
        front = fronts[i]
        for t in range(min(room, len(front)) + 1):
            head = tuple(front[:t])
            for tail in takes(i + 1, room - t):
                yield head + tail

    for fixed in takes(0, k):
        for combo in itertools.combinations(singles, k - len(fixed)):
            yield tuple(sorted(fixed + combo))


class _LevelTable:
    """The successors of every state that shares a level pid and a PE
    frontier, as arrays.

    Row ``i`` is the ``i``-th node in pid-lexicographic order: ``nodes``
    holds it as a tuple, ``words`` its pid mask as ``⌈n/64⌉`` uint64
    words.  ``key_ids`` interns each row's condensation key, or is None
    when every row is its own class.  ``weights`` (NaN until scored) and
    ``costs`` (``(extra cost, member degradations)``) fill in the first
    time a row is handed out.
    """

    __slots__ = ("nodes", "words", "key_ids", "weights", "costs")

    def __init__(self, nodes, words, key_ids):
        self.nodes: List[Tuple[int, ...]] = nodes
        self.words = words
        self.key_ids = key_ids
        self.weights = np.full(len(nodes), np.nan)
        self.costs: list = [None] * len(nodes)


class SuccessorGenerator:
    """Enumerates the valid successor nodes of a search state."""

    def __init__(
        self,
        problem: CoSchedulingProblem,
        condense_pe: bool = True,
        condense_pc: bool = False,
    ):
        self.problem = problem
        self.condense_pe = condense_pe
        self.condense_pc = condense_pc
        self._k = problem.u - 1  # co-runners the level pid takes
        wl = problem.workload
        self._kind: List[JobKind] = [wl.kind_of(pid) for pid in wl.iter_pids()]
        self._job_id: List[int] = [
            -1 if wl.job_of(pid) is None else wl.job_of(pid).job_id
            for pid in wl.iter_pids()
        ]
        self._has_parallel = any(k is not JobKind.SERIAL for k in self._kind)
        # Pressure-ordered streams and windows score the bare model, so a
        # per-node extra cost (a migration penalty) rules them all out.
        plain = not self._has_parallel and problem.node_extra_cost is None
        self._monotone_ok = plain and problem.model.is_member_monotone()
        # Every pid in (pressure, pid) order — the heap enumerator's rank
        # order, computed once; non-empty iff the model trims MER windows.
        self._rank_order: List[int] = (
            sorted(range(problem.n), key=problem.model.pressure)
            if self._monotone_ok and hasattr(problem.model, "window_trimmer")
            else []
        )
        # (width, limit) -> (trim, rows) of that MER window, or None when
        # the window is too large; each trim owns its buffers, so it lives
        # and dies with this generator's search.
        self._windows: Dict[Tuple[int, int],
                            Optional[Tuple[Callable, int]]] = {}
        # A trim reads the state's scheduled pids as this many bytes.
        self._mask_bytes = 8 * ((problem.n + 63) // 64)
        # Proxy streaming: the model exposes a pressure rank key and a fast
        # node weight but is NOT member-monotone — lazy enumeration is then
        # only approximately sorted, which the trimmed (HA*) search may use
        # with oversampling; exact searches never do.
        model = problem.model
        self._proxy_ok = (
            plain
            and not self._monotone_ok
            and callable(getattr(model, "node_weight_fast", None))
            and self._has_pressure(model)
        )
        # Presorted levels: the paper's graph organization — materialize
        # every node once, sort each level by weight, and filter validity
        # per state.  Exact ascending order for ANY model, at the cost of
        # C(n, u) node evaluations up front; only worthwhile for serial
        # workloads at moderate n (parallel workloads use condensation
        # instead, huge n uses the lazy streams).
        self._presort_ok = (
            not self._has_parallel
            and not self._monotone_ok
            and not self._proxy_ok
            and math.comb(problem.n, problem.u) <= _PRESORT_LIMIT
        )
        self._levels_sorted: Optional[List[List[Tuple[float, Tuple[int, ...]]]]] = None
        self.stats = {"generated": 0, "condensed_away": 0}
        # Parallel workloads: (level pid, scheduled PE-bucketed pids) -> its
        # table, and the per-pid bit words and PE groups they are built
        # from (on the first table).
        self._tables: Dict[Tuple[int, int], _LevelTable] = {}
        self._pid_bits: Optional[np.ndarray] = None
        self._pe_groups: List[Tuple[int, ...]] = []
        self._pe_mask = 0
        self._singles: List[int] = []
        if self._has_parallel and condense_pc:
            self._build_condensation_tables()

    def _build_condensation_tables(self) -> None:
        """Per-process tables for :meth:`_condensation_key`.

        ``_slot[pid]`` is -1 for serial and imaginary processes (which
        never condense), else the index of the process's parallel job;
        ``_axis_masks[pid]`` holds one neighbour-pid bitmask per axis of a
        PC job's decomposition (empty for PE).
        """
        wl = self.problem.workload
        n = self.problem.n
        self._slot: List[int] = [-1] * n
        self._axis_masks: List[Tuple[int, ...]] = [()] * n
        for slot, job in enumerate(wl.parallel_jobs):
            pids = wl.processes_of(job.job_id)
            for rank, pid in enumerate(pids):
                self._slot[pid] = slot
                if job.kind is JobKind.PC:
                    masks = [0] * job.topology.ndim
                    for axis, nbr in job.topology.neighbours(rank):
                        masks[axis] |= 1 << pids[nbr]
                    self._axis_masks[pid] = tuple(masks)
        # Members-of-one-job bitmask -> (slot, count, per-axis property).
        self._job_parts: Dict[int, Tuple] = {}

    def _condensation_key(self, node: Tuple[int, ...]) -> Tuple:
        """Section III-E key of ``node``: it partitions a level exactly as
        :func:`~repro.comm.properties.node_condensation_key` does.

        Serial content is a pid bitmask; each parallel job present adds
        its member count and, for PC jobs, the per-axis count of
        (member, outside-neighbour) incidences, counted as
        ``(axis mask & ~members).bit_count()`` and memoized per member
        mask.  ``node`` is sorted and a job's pids are contiguous, so jobs
        appear in slot order.
        """
        slot = self._slot
        serial = 0
        jobs: Dict[int, int] = {}
        for pid in node:
            s = slot[pid]
            if s < 0:
                serial |= 1 << pid
            else:
                jobs[s] = jobs.get(s, 0) | (1 << pid)
        parts = self._job_parts
        key = [serial]
        for s, members in jobs.items():
            part = parts.get(members)
            if part is None:
                part = parts[members] = self._job_part(s, members)
            key.append(part)
        return tuple(key)

    def _job_part(self, slot: int, members: int) -> Tuple:
        """``(slot, member count, per-axis external incidences)`` of one
        job's members, given as a pid bitmask."""
        outside = ~members
        member_masks = []
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            member_masks.append(self._axis_masks[low.bit_length() - 1])
        prop = tuple(
            sum((mask & outside).bit_count() for mask in axis)
            for axis in zip(*member_masks)
        )
        return (slot, members.bit_count(), prop)

    def _ensure_presorted(self) -> None:
        if self._levels_sorted is not None:
            return
        n, u = self.problem.n, self.problem.u
        levels: List[List[Tuple[float, Tuple[int, ...]]]] = []
        batch_ok = self.problem.supports_batch_weights()
        for L in range(n - u + 1):
            nodes = [
                (L,) + combo
                for combo in itertools.combinations(range(L + 1, n), u - 1)
            ]
            if batch_ok:
                weights = self.problem.node_weights_batch(nodes)
            else:
                weights = np.asarray(
                    [self.problem.node_weight(nd) for nd in nodes]
                )
            # Stable argsort == (weight, node) order: nodes are enumerated
            # in ascending node order, so position ties ARE node ties.
            order = _kernels.select_smallest(weights, len(nodes))
            levels.append([(float(weights[i]), nodes[i]) for i in order])
        self._levels_sorted = levels

    @staticmethod
    def _has_pressure(model) -> bool:
        try:
            model.pressure(0)
            return True
        except (NotImplementedError, IndexError):
            return False

    # ------------------------------------------------------------------ #

    def successors(
        self,
        unscheduled: Tuple[int, ...],
        limit: Optional[int] = None,
        scheduled: Optional[int] = None,
    ):
        """Successor nodes of a state, as ``(node, weight)`` pairs.

        Parameters
        ----------
        unscheduled:
            Sorted tuple of unscheduled pids; the valid level is
            ``unscheduled[0]``.
        limit:
            Keep only the ``limit`` lowest-weight successors (HA*'s MER
            trimming).  Implies weight ordering of the survivors.
        scheduled:
            The state's scheduled-pid bitmask (the complement of
            ``unscheduled``).  Given, the same successors come back as the
            columns ``(nodes, weights, child_masks)`` of
            :func:`successor_columns`, nodes as tuples or lists; a MER
            window computes the child masks in its kernel call.  On
            workloads with parallel jobs a fourth column holds each
            node's ``(extra cost, member degradations)``.
        """
        mask = scheduled
        if mask is None and (self._has_parallel or (
                limit is not None and self._rank_order)):
            mask = (1 << self.problem.n) - 1
            for pid in unscheduled:
                mask ^= 1 << pid
        if self._has_parallel:
            columns = self._successors_table(unscheduled, limit, mask,
                                             costs=scheduled is not None)
            if scheduled is not None:
                return columns
            return list(zip(columns[0], columns[1]))
        if (limit is not None and self._rank_order
                and len(unscheduled) > self._k):
            columns = self._successors_window(unscheduled, limit, mask)
            if columns is not None:
                if scheduled is not None:
                    return columns
                return list(zip(map(tuple, columns[0]), columns[1]))
        pairs = self._successor_pairs(unscheduled, limit)
        if scheduled is None:
            return pairs
        return successor_columns(scheduled, pairs)

    def _successor_pairs(
        self,
        unscheduled: Tuple[int, ...],
        limit: Optional[int],
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """:meth:`successors` of a serial workload, on every path but the
        MER window."""
        if not unscheduled:
            return []
        level_pid = unscheduled[0]
        rest = unscheduled[1:]
        k = self._k
        if len(rest) < k:
            return []

        if limit is not None and (
            self._rank_order
            or ((self._monotone_ok or self._proxy_ok)
                and math.comb(len(rest), k) > max(4 * limit,
                                                  _LAZY_THRESHOLD))
        ):
            return self._successors_lazy(level_pid, rest, k, limit)

        if self._presort_ok:
            self._ensure_presorted()
            unsched_set = frozenset(rest)
            out = []
            for w, node in self._levels_sorted[level_pid]:
                ok = True
                for pid in node[1:]:
                    if pid not in unsched_set:
                        ok = False
                        break
                if ok:
                    out.append((node, w))
                    if limit is not None and len(out) >= limit:
                        break
            self.stats["generated"] += len(out)
            return out

        # combos are ascending and level_pid is the smallest unscheduled
        # pid, so each concatenation is already in node-id order.
        nodes = [(level_pid,) + combo
                 for combo in itertools.combinations(rest, k)]
        # Score the whole level at once: one batch-kernel call instead of
        # one Python weight evaluation per node.
        if self.problem.supports_batch_weights():
            weights = self.problem.node_weights_batch(nodes)
        else:
            node_weight = self.problem.node_weight
            weights = np.asarray([node_weight(nd) for nd in nodes])
        self.stats["generated"] += len(nodes)
        if limit is not None:
            # Fused score-then-select (the MER top-n/u trim): the k lowest
            # (weight, node) survivors come straight off the scored array —
            # the full level is never materialized as Python pairs only to
            # be re-partitioned by a heap.
            sel = _kernels.select_smallest(weights, min(limit, len(nodes)))
            return [(nodes[i], float(weights[i])) for i in sel]
        return list(zip(nodes, weights.tolist()))

    def _successors_table(
        self,
        unscheduled: Tuple[int, ...],
        limit: Optional[int],
        scheduled: int,
        costs: bool,
    ) -> tuple:
        """:meth:`successors` of a workload with parallel jobs, as the
        columns ``(nodes, weights, child_masks, costs)`` (the last empty
        unless ``costs``), read from a :class:`_LevelTable`.

        The table is keyed by the level pid and the scheduled PE-bucketed
        pids, so its rows already take a prefix of each PE group's
        unscheduled ranks, and a row is valid iff it shares no pid with
        ``scheduled``.  Among the valid rows the first of each
        condensation key is kept, in row order; ``limit`` keeps the
        lightest of those in ``(weight, row)`` order.  Rows are scored
        (through the problem's node-weight methods) the first time they
        are kept, and their costs read the first time they are handed out
        with ``costs``.
        """
        if len(unscheduled) <= self._k:
            return [], [], [], []
        if self._pid_bits is None:
            self._build_pid_tables()
        key = (unscheduled[0], scheduled & self._pe_mask)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._build_table(*key)
        sched = np.frombuffer(scheduled.to_bytes(self._mask_bytes, "little"),
                              dtype="<u8")
        words = table.words
        rows = np.flatnonzero(~(words & sched).any(axis=1))
        if table.key_ids is not None:
            _, first = np.unique(table.key_ids[rows], return_index=True)
            self.stats["condensed_away"] += len(rows) - len(first)
            first.sort()
            rows = rows[first]
        self.stats["generated"] += len(rows)
        fresh = rows[np.isnan(table.weights[rows])]
        if len(fresh):
            # Through the problem's weight methods, so its memo, counters
            # and weight budget see every row scored.
            problem = self.problem
            batch = [table.nodes[i] for i in fresh.tolist()]
            if problem.supports_batch_weights():
                table.weights[fresh] = problem.node_weights_batch(batch)
            else:
                node_weight = problem.node_weight
                table.weights[fresh] = [node_weight(nd) for nd in batch]
        if limit is not None:
            rows = rows[_kernels.select_smallest(table.weights[rows],
                                                 min(limit, len(rows)))]
        weights = table.weights[rows].tolist()
        child = words[rows] | sched
        masks = child[:, 0].tolist()
        for w in range(1, child.shape[1]):
            masks = [m | (x << 64 * w)
                     for m, x in zip(masks, child[:, w].tolist())]
        rows = rows.tolist()
        nodes = [table.nodes[i] for i in rows]
        out_costs = []
        if costs:
            row_costs = table.costs
            problem = self.problem
            for i, node in zip(rows, nodes):
                cost = row_costs[i]
                if cost is None:
                    cost = row_costs[i] = (problem.extra_cost(node),
                                           problem.node_degradations(node))
                out_costs.append(cost)
        return nodes, weights, masks, out_costs

    def _build_table(self, level_pid: int, pe_scheduled: int) -> _LevelTable:
        """The :class:`_LevelTable` of the states at level ``level_pid``
        whose scheduled PE-bucketed pids are the mask ``pe_scheduled``.

        Its rows are ``level_pid`` plus ``k`` others: any pids above it
        outside the PE groups, and from each group a prefix of its
        unscheduled ranks above ``level_pid``.  When ``level_pid`` is in a
        group it is that group's lowest unscheduled rank, so the rows
        still take a prefix of every group.
        """
        k = self._k
        singles = [pid for pid in self._singles if pid > level_pid]
        fronts = []
        for group in self._pe_groups:
            front = [pid for pid in group
                     if pid > level_pid and not pe_scheduled >> pid & 1][:k]
            if front:
                fronts.append(front)
        nodes = [(level_pid,) + combo for combo in
                 sorted(_frontier_combinations(singles, fronts, k))]
        members = np.array(nodes, dtype=np.intp).reshape(len(nodes), k + 1)
        bits = self._pid_bits
        words = bits[members[:, 0]]
        for j in range(1, k + 1):
            words |= bits[members[:, j]]
        key_ids = None
        if self.condense_pc:
            key_of = self._condensation_key
            ids: Dict[Tuple, int] = {}
            key_ids = np.fromiter(
                (ids.setdefault(key_of(node), len(ids)) for node in nodes),
                dtype=np.intp, count=len(nodes))
        return _LevelTable(nodes, words, key_ids)

    def _build_pid_tables(self) -> None:
        """Each pid's bit as ``⌈n/64⌉`` uint64 words, and the PE groups.

        Two PE ranks share a group only when they belong to the same job
        AND the degradation model declares them exact substitutes
        (``interchangeable_key``): arbitrary per-pid models keep every
        rank distinct, which preserves exactness.  Without PE bucketing
        there are no groups; every pid outside a group is a single.
        """
        n = self.problem.n
        bits = np.zeros((n, self._mask_bytes // 8), dtype=np.uint64)
        pids = np.arange(n)
        bits[pids, pids >> 6] = np.left_shift(
            np.uint64(1), (pids & 63).astype(np.uint64))
        self._pid_bits = bits
        groups: Dict[tuple, List[int]] = {}
        if self.condense_pe:
            model = self.problem.model
            for pid in range(n):
                if self._kind[pid] is JobKind.PE:
                    key = (self._job_id[pid], model.interchangeable_key(pid))
                    groups.setdefault(key, []).append(pid)
        self._pe_groups = [tuple(g) for g in groups.values() if len(g) > 1]
        grouped = {pid for g in self._pe_groups for pid in g}
        self._pe_mask = sum(1 << pid for pid in grouped)
        self._singles = [pid for pid in range(n) if pid not in grouped]

    def supports_stream(self) -> bool:
        """True when successors can be streamed in exact ascending weight
        (member-monotone lazy enumeration, or presorted levels)."""
        return self._monotone_ok or self._presort_ok

    def successors_stream(
        self, unscheduled: Tuple[int, ...]
    ) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Stream successors in ascending weight.

        Member-monotone models enumerate lazily (a level with
        astronomically many nodes costs only what the search consumes);
        other serial models walk their presorted level, skipping invalid
        nodes — the paper's own search organization.  Used by
        partial-expansion A* and HA*.
        """
        if self._presort_ok:
            self._ensure_presorted()
            level_pid = unscheduled[0]
            unsched_set = frozenset(unscheduled[1:])
            for w, node in self._levels_sorted[level_pid]:
                ok = True
                for pid in node[1:]:
                    if pid not in unsched_set:
                        ok = False
                        break
                if ok:
                    self.stats["generated"] += 1
                    yield (node, w)
            return
        if not self._monotone_ok:
            raise RuntimeError("successor streaming requires a monotone model")
        level_pid = unscheduled[0]
        rest = unscheduled[1:]
        k = self.problem.u - 1
        if len(rest) < k:
            return
        model = self.problem.model
        if isinstance(model, MissRatePressureModel):
            def weight(sub: Tuple[int, ...]) -> float:
                return model.node_weight_fast((level_pid,) + sub)
        else:  # pragma: no cover - no other monotone model shipped
            def weight(sub: Tuple[int, ...]) -> float:
                return self.problem.node_weight((level_pid,) + sub)
        weight_batch = self._make_weight_batch(level_pid, k)
        for sub, w in iter_subsets_monotone(rest, k, weight, model.pressure,
                                            weight_batch=weight_batch):
            self.stats["generated"] += 1
            yield (tuple(sorted((level_pid,) + sub)), w)

    def _make_weight_batch(self, level_pid: int, k: int):
        """Child-frontier scoring closure for the lazy heap enumerator.

        Maps a batch of (u-1)-subsets to full nodes and runs ONE vectorized
        model-kernel call; None when the model has no vectorized kernel
        (the enumerator then falls back to scalar ``weight`` calls).
        Bypasses the problem memo — lazy frontiers are throw-away — so
        extra node costs must be absent, as every lazy stream requires.
        """
        problem = self.problem
        if not problem.model.supports_batch():
            return None

        def weight_batch(subs: List[Tuple[int, ...]]) -> np.ndarray:
            arr = np.empty((len(subs), k + 1), dtype=np.intp)
            arr[:, 0] = level_pid
            arr[:, 1:] = subs
            problem.counters.observe_batch("lazy_frontier", len(subs))
            problem.count_direct_evals(len(subs))
            return problem.model.node_weights_batch(arr)

        return weight_batch

    def _successors_lazy(
        self, level_pid: int, rest: Tuple[int, ...], k: int, limit: int
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """First ``limit`` successors in ascending weight, without
        materializing the level.

        Models that trim MER windows come here only when the window
        (:func:`_mer_window`) exceeds ``MER_WINDOW_MAX_ROWS``; the heap
        enumeration is exactly sorted.  For proxy models
        (``_proxy_ok``) the stream is only approximately sorted, so we
        oversample 4x and keep the ``limit`` lowest true weights — the
        documented approximation HA* uses at scale.
        """
        model = self.problem.model
        if callable(getattr(model, "node_weight_fast", None)):
            def weight(sub: Tuple[int, ...]) -> float:
                return model.node_weight_fast((level_pid,) + sub)
        else:  # pragma: no cover - defensive
            def weight(sub: Tuple[int, ...]) -> float:
                return self.problem.node_weight((level_pid,) + sub)
        weight_batch = self._make_weight_batch(level_pid, k)
        take = limit if self._monotone_ok else 4 * limit
        out = []
        for sub, w in iter_subsets_monotone(rest, k, weight, model.pressure,
                                            weight_batch=weight_batch):
            out.append((tuple(sorted((level_pid,) + sub)), w))
            if len(out) >= take:
                break
        if not self._monotone_ok and len(out) > limit:
            out = heapq.nsmallest(limit, out, key=lambda t: (t[1], t[0]))
        self.stats["generated"] += len(out)
        return out

    def _successors_window(
        self, unscheduled: Tuple[int, ...], limit: int, scheduled: int,
    ) -> Optional[Tuple[list, list, List[int]]]:
        """The heap's first ``limit`` successors as the columns ``(nodes,
        weights, child_masks)``, from one compiled call; None when the
        window (:func:`_mer_window`) exceeds ``MER_WINDOW_MAX_ROWS``.

        The window's table indexes the first ``width`` unscheduled pids
        in rank order.  Its trim (the model's ``window_trimmer``, built
        once per window) walks the rank order past the state's scheduled
        pids, scores each row as the heap does (level pid, then the
        subset in rank order) and keeps the lightest in ``(weight, row)``
        order; the table is lexicographic, so that IS the heap's
        ``(weight, index-tuple)`` order: same nodes, order and weights.
        Every scored row counts as a weight evaluation.
        """
        k = self._k
        width = min(len(unscheduled) - 1, limit + k - 1)
        key = (width, limit)
        try:
            window = self._windows[key]
        except KeyError:
            table = _mer_window(limit, k, width, MER_WINDOW_MAX_ROWS)
            window = self._windows[key] = None if table is None else (
                self.problem.model.window_trimmer(table, limit,
                                                  self._rank_order),
                len(table))
        if window is None:
            return None
        trim, rows = window
        problem = self.problem
        problem.counters.observe_batch("mer_window", rows)
        problem.count_direct_evals(rows)
        columns = trim(unscheduled[0],
                       scheduled.to_bytes(self._mask_bytes, "little"))
        self.stats["generated"] += len(columns[1])
        return columns


# --------------------------------------------------------------------- #
# h(v) estimation (Section III-D)
# --------------------------------------------------------------------- #


class HeuristicEstimator:
    """The paper's two strategies for the A* heuristic ``h(v)``.

    Parameters
    ----------
    problem:
        The instance; level statistics are precomputed once per estimator.
    strategy:
        1 — the r smallest node weights among all remaining levels;
        2 — one minimum-weight node per remaining valid level (much tighter,
        the paper's Table IV winner).
    h_parallel:
        How parallel processes count inside node weights: ``"zero"``
        (admissible — a parallel process's degradation may be absorbed by
        its job's running max, which g already includes) or ``"sum"``
        (the paper's literal node weight; can over-estimate with parallel
        jobs, reproduced for the ablation).
    level_mode:
        How per-level minimum node weights are obtained:
        ``"exact"`` — enumerate every node (tiny n);
        ``"monotone"`` — closed form via the lowest-pressure members
        (member-monotone serial models, any n);
        ``"pairwise"`` — admissible lower bound ``min_j d(L, {j})`` from the
        pairwise degradation table (any model, inclusion-monotone cache d);
        ``"auto"`` — monotone if available, exact when C(n, u) is small,
        else pairwise.

    Strategy 2 takes, for the k-th smallest unscheduled pid, the admissible
    suffix minimum over levels ≥ that pid.
    """

    def __init__(
        self,
        problem: CoSchedulingProblem,
        strategy: int = 2,
        h_parallel: str = "zero",
        level_mode: str = "auto",
    ):
        if strategy not in (1, 2):
            raise ValueError("strategy must be 1 or 2")
        if h_parallel not in ("zero", "sum"):
            raise ValueError("h_parallel must be 'zero' or 'sum'")
        self.problem = problem
        self.strategy = strategy
        self.h_parallel = h_parallel
        n, u = problem.n, problem.u
        self.n, self.u = n, u
        wl = problem.workload
        self._serial_only = all(
            wl.kind_of(pid) is JobKind.SERIAL for pid in wl.iter_pids()
        )

        if level_mode == "auto":
            if problem.model.is_member_monotone() and self._serial_only:
                level_mode = "monotone"
            elif math.comb(n, u) <= _EXACT_LEVEL_LIMIT:
                level_mode = "exact"
            else:
                level_mode = "pairwise"
        self.level_mode = level_mode

        self._node_weights_sorted: Optional[List[Tuple[float, int]]] = None
        with problem.counters.phase("heuristic_levels"):
            self._level_min = self._compute_level_min()
        # suffix[L] = min over levels >= L (levels run 0..n-u).
        suffix = list(self._level_min)
        for L in range(len(suffix) - 2, -1, -1):
            suffix[L] = min(suffix[L], suffix[L + 1])
        # Strategy 2's per-pid term: the suffix minimum from pid p's level
        # (pids past the last level read the last one).
        last_level = n - u
        self._term = [suffix[min(p, last_level)] for p in range(n)]
        self._s1_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #

    def _h_node_weight(self, node: Tuple[int, ...]) -> float:
        return self.problem.node_h_weight(node, parallel_as=self.h_parallel)

    def _compute_level_min(self) -> List[float]:
        n, u = self.n, self.u
        n_levels = n - u + 1
        if self.level_mode == "exact":
            level_min = [math.inf] * n_levels
            # Only Strategy 1 reads the sorted (weight, level) list.
            keep_nodes = self.strategy == 1
            all_nodes: List[Tuple[float, int]] = []
            # Serial-only workloads with no extra node cost have
            # node_h_weight == node_weight for either h_parallel mode, so
            # whole levels batch through the vectorized kernel (and the
            # scored weights land in the problem memo for the search to
            # reuse).
            batch_ok = (
                self._serial_only
                and self.problem.supports_batch_weights()
                and self.problem.node_extra_cost is None
            )
            for L in range(n_levels):
                nodes = [
                    (L,) + combo
                    for combo in itertools.combinations(range(L + 1, n), u - 1)
                ]
                if batch_ok:
                    weights = self.problem.node_weights_batch(nodes)
                    level_min[L] = float(weights.min()) if len(weights) else math.inf
                    if keep_nodes:
                        all_nodes.extend((float(w), L) for w in weights)
                else:
                    for node in nodes:
                        w = self._h_node_weight(node)
                        if keep_nodes:
                            all_nodes.append((w, L))
                        if w < level_min[L]:
                            level_min[L] = w
            if keep_nodes:
                all_nodes.sort()
                self._node_weights_sorted = all_nodes
            return level_min

        if self.level_mode == "monotone":
            model = self.problem.model
            pressures = [(model.pressure(pid), pid) for pid in range(n)]
            level_min = [math.inf] * n_levels
            # Sweep L descending, maintaining the u-1 lowest-pressure pids > L.
            best: List[Tuple[float, int]] = []  # max-heap via negation
            for L in range(n - 1, -1, -1):
                if L < n_levels and len(best) == u - 1:
                    members = (L,) + tuple(pid for _, pid in best)
                    if isinstance(model, MissRatePressureModel):
                        level_min[L] = model.node_weight_fast(members)
                    else:  # pragma: no cover
                        level_min[L] = self._h_node_weight(tuple(sorted(members)))
                p = pressures[L]
                if len(best) < u - 1:
                    heapq.heappush(best, (-p[0], p[1]))
                elif best and -best[0][0] > p[0]:
                    heapq.heapreplace(best, (-p[0], p[1]))
            return level_min

        if self.level_mode == "pairwise":
            wl = self.problem.workload
            level_min = []
            for L in range(n_levels):
                if wl.is_imaginary(L) or wl.kind_of(L) is not JobKind.SERIAL:
                    # Parallel/imaginary level pid contributes 0 under
                    # h_parallel="zero"; other members bounded below by 0.
                    level_min.append(0.0)
                    continue
                # The process's global floor (min over all feasible cosets of
                # the right size) bounds its node weight contribution, and
                # the other u-1 members contribute >= 0 — admissible without
                # any monotonicity assumption.
                level_min.append(self.problem.min_process_degradation(L))
            return level_min

        raise ValueError(f"unknown level_mode {self.level_mode!r}")

    # ------------------------------------------------------------------ #

    def h(self, unscheduled: Tuple[int, ...]) -> float:
        """Estimated remaining distance for a state (Section III-D)."""
        r = len(unscheduled) // self.u
        if r == 0:
            return 0.0
        if self.strategy == 1:
            return self._h1(unscheduled[0], r)
        return self._h2(unscheduled, r)

    def h_tail(self, unscheduled: Tuple[int, ...]) -> float:
        """Lower bound on h for any *child* of this state.

        For Strategy 2, dropping the first-level term is admissible: a
        child's k-th smallest unscheduled pid is at least this state's
        (k+1)-th, and the suffix minima are non-decreasing.
        Used by partial-expansion A* to price un-generated successors.
        """
        if self.strategy != 2:
            return 0.0
        r = len(unscheduled) // self.u
        term = self._term
        total = 0.0
        for pid in unscheduled[1:r]:
            total += term[pid]
        return total

    def _h1(self, first_unscheduled: int, r: int) -> float:
        key = (first_unscheduled, r)
        hit = self._s1_cache.get(key)
        if hit is not None:
            return hit
        if self._node_weights_sorted is not None:
            total = 0.0
            taken = 0
            for w, level in self._node_weights_sorted:
                if level < first_unscheduled:
                    continue
                total += w
                taken += 1
                if taken == r:
                    break
        else:
            # One node per level is admissible (completion levels are
            # distinct); use the r smallest level minima.
            candidates = self._level_min[first_unscheduled:]
            total = sum(heapq.nsmallest(r, candidates))
        self._s1_cache[key] = total
        return total

    def _h2(self, unscheduled: Tuple[int, ...], r: int) -> float:
        # Summed in pid order with +=, never sum(): its float summation
        # differs across Python versions.
        term = self._term
        total = 0.0
        for pid in unscheduled[:r]:
            total += term[pid]
        return total
