"""The extended A*-search core shared by OA*, HA* and O-SVP.

This is Section III of the paper in executable form.  The search walks the
co-scheduling graph level by level: a state is the set of *unscheduled*
processes (its complement is a subpath's process set — the paper's priority
list element), and expanding a state tries valid nodes of the state's valid
level (the level of the smallest unscheduled pid).

Two extensions over textbook A*:

* **dismiss strategy** (Section III-C1, Theorem 1): among subpaths containing
  the same process set, only the best is kept.  For serial-only workloads
  "best" is simply the smallest distance.  With parallel jobs, the partial
  distance (Eq. 13) counts each parallel job's *running max*, and two
  subpaths with equal process sets but different running maxima are not
  totally ordered: a path with a higher max may absorb an expensive future
  process for free.  ``dismiss="paper"`` keeps min-distance only (the
  published rule); ``dismiss="dominance"`` (default) keeps the Pareto
  frontier under the exact dominance test

      A ≼ B  ⇔  serial_A − serial_B + Σ_j (M_Aj − M_Bj)^+ ≤ 0,

  which guarantees optimality for parallel jobs too (see EXPERIMENTS.md for
  the measured gap between the two rules).

* **parallel-aware path distance** (Section III-C2, Eq. 13): g is maintained
  incrementally as ``serial_sum + Σ_j running_max_j``.

One best-first loop serves every problem.  What differs between search
spaces is a :class:`SuccessorSource` — which groups a state may take next
and what each costs, the heuristic, and how a finished path becomes a
schedule.  Homogeneous problems walk the graph's levels
(:func:`graph_source`, over :class:`~repro.graph.levels.SuccessorGenerator`);
scenario problems walk the canonical machine slot plan
(:func:`repro.solvers.het_search.slot_plan_source`).  The loop owns the
heap, the state table, dismissal, budgets and the anytime
completion, the warm-start bound, tracer events and the result.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.jobs import JobKind
from ..core.objective import evaluate_schedule
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from ..graph.levels import (
    HeuristicEstimator,
    SuccessorGenerator,
    successor_columns,
)
from .base import SolveResult, Solver

__all__ = ["AStarSearch"]

_EPS = 1e-12
# Successors materialized per partial-expansion pop.
_PARTIAL_BATCH = 32


@dataclass(slots=True, eq=False)
class _Record:
    """One kept subpath (a priority-list element)."""

    unscheduled: Tuple[int, ...]
    serial_sum: float
    par_max: Tuple[float, ...]
    par_remaining: Tuple[int, ...]
    g: float
    node: Optional[Tuple[int, ...]]  # node appended to reach this state
    parent: Optional["_Record"]
    mask: int = 0  # scheduled-pid bitmask
    floor_serial_rest: float = 0.0  # Σ dmin over unscheduled serial pids
    bal_a: float = 0.0   # Σ pressure over unscheduled (balance bound)
    bal_a2: float = 0.0  # Σ pressure² over unscheduled
    alive: bool = True
    # Partial-expansion bookkeeping: the ascending-weight successor stream,
    # the peeked-but-unprocessed head, and the admissible tail heuristic
    # (computed on the first resume).
    stream: object = None
    pending: object = None
    h_tail: Optional[float] = None


@dataclass
class SuccessorSource:
    """One search space, as the best-first loop sees it.

    ``successors(rec, limit)`` lists the ``(node, weight)`` pairs that
    expand ``rec`` — the ``limit`` cheapest when ``limit`` is set; on
    serial-only problems ``weight`` is the node's whole g-increment.
    The loop reads them as the columns ``(nodes, weights, child_masks)``
    (:func:`~repro.graph.levels.successor_columns`), each child mask the
    child's scheduled-pid bitmask; ``children(rec, limit)``, where set,
    returns those columns directly (a MER window computes the masks in
    its kernel call), and nodes may then be lists.  A fourth column, where
    present, holds each node's ``(extra cost, member degradations)`` —
    the graph's level tables keep them per node — and is read in place of
    the problem's ``extra_cost`` and ``node_degradations``.
    ``h(rec)`` is an admissible estimate of the remaining distance,
    ``depth(rec)`` the level (or slot) ``rec`` has reached,
    ``cheapest(unscheduled)`` the node a greedy completion appends next
    (``None`` at a dead end), and ``schedule(nodes)`` the schedule of a
    complete path.  ``dmin`` holds per-process admissible floors (zeros
    when the floor is off) and ``stats`` the ``generated`` /
    ``condensed_away`` node counts.

    Optional parts: ``keys_leader(rec)`` — ``rec``'s children are told
    apart by their node's leader as well as their pid set;
    ``pressures`` — the per-process pressures the balance bound tracks;
    ``stream(rec)`` — an ascending-weight successor iterator, which
    enables partial expansion, with ``h_tail(rec)`` — an admissible h
    for every child of ``rec``, read when the stream is resumed.
    """

    successors: Callable
    h: Callable
    depth: Callable
    cheapest: Callable
    schedule: Callable
    dmin: List[float]
    stats: Dict[str, int]
    keys_leader: Optional[Callable] = None
    pressures: Optional[List[float]] = None
    stream: Optional[Callable] = None
    h_tail: Optional[Callable] = None
    children: Optional[Callable] = None

    def columns(self, rec: _Record, limit: Optional[int]):
        """``rec``'s successors as ``(nodes, weights, child_masks)``."""
        if self.children is not None:
            return self.children(rec, limit)
        return successor_columns(rec.mask, self.successors(rec, limit))


def process_floors(problem: CoSchedulingProblem, on: bool) -> List[float]:
    """Each process's admissible degradation floor, or zeros when ``on``
    is false."""
    if not on:
        return [0.0] * problem.n
    with problem.counters.phase("process_floors"):
        return [problem.min_process_degradation(pid) for pid in range(problem.n)]


def greedy_complete(
    source: SuccessorSource,
    nodes: Sequence[Tuple[int, ...]],
    unscheduled: Tuple[int, ...],
) -> Optional[List[Tuple[int, ...]]]:
    """Extend the path ``nodes`` by ``source``'s cheapest next node until
    every process is placed — the anytime fallback when a budget trips
    mid-search.  ``None`` only at a dead end, which a well-formed instance
    never reaches."""
    nodes = list(nodes)
    while unscheduled:
        node = source.cheapest(unscheduled)
        if node is None:
            return None
        nodes.append(node)
        members = frozenset(node)
        unscheduled = tuple(p for p in unscheduled if p not in members)
    return nodes


def _path(rec: _Record) -> List[Tuple[int, ...]]:
    """The nodes of ``rec``'s path, root first."""
    nodes = []
    while rec is not None and rec.node is not None:
        nodes.append(rec.node)
        rec = rec.parent
    nodes.reverse()
    return nodes


def _dominates(a: _Record, b: _Record) -> bool:
    """True if subpath ``a`` is at least as good as ``b`` for *every*
    completion (they must share the same process set)."""
    return _dominates_by(a.serial_sum, a.par_max, b.serial_sum, b.par_max)


def _dominates_by(a_serial: float, a_max, b_serial: float, b_max) -> bool:
    """:func:`_dominates` on ``(serial_sum, par_max)`` values, so a
    candidate can be tested before its record is built."""
    slack = a_serial - b_serial
    for ma, mb in zip(a_max, b_max):
        if ma > mb:
            slack += ma - mb
        if slack > _EPS:
            return False
    return slack <= _EPS


def graph_source(search: "AStarSearch",
                 problem: CoSchedulingProblem) -> SuccessorSource:
    """The co-scheduling graph (Fig. 3) as a successor source.

    A state expands into the valid nodes of its smallest unscheduled pid's
    level.  h is the max of the level-based estimate (Section III-D) and,
    with ``process_floor``, the per-process floors, the balance bound and
    the u = 2 matching bound — all lower bounds on the remaining distance,
    so their max is too.
    """
    n, u = problem.n, problem.u
    wl = problem.workload
    gen = SuccessorGenerator(
        problem,
        condense_pe=search.condense_pe,
        condense_pc=search.condense,
    )
    estimator: Optional[HeuristicEstimator] = None
    if search.h_strategy in (1, 2):
        estimator = HeuristicEstimator(
            problem,
            strategy=search.h_strategy,
            h_parallel=search.h_parallel,
        )
    process_floor = search.process_floor
    dmin = process_floors(problem, process_floor)
    # Any remaining process's floor bounds its job's final max from below;
    # the min over the job's processes is safe for every non-empty
    # remainder.
    par_jobs = [j.job_id for j in wl.parallel_jobs]
    job_floor = [min(dmin[p] for p in wl.processes_of(jid)) for jid in par_jobs]

    def h_floor(rec: _Record) -> float:
        total = rec.floor_serial_rest
        par_max, par_remaining = rec.par_max, rec.par_remaining
        for k, floor in enumerate(job_floor):
            if par_remaining[k] > 0 and floor > par_max[k]:
                total += floor - par_max[k]
        return total

    # Balance bound (pressure models, serial-only): the completion
    # partitions the unscheduled pressures into equal-size groups, and
    # Σ_T σ_T² >= A²/m with the linear chord under-estimating φ, giving
    #   h >= κ · slope · (A²/m − Σ a²)          (admissible, O(1)/state).
    from ..core.degradation import MissRatePressureModel as _MRPM

    use_balance = (
        process_floor and isinstance(problem.model, _MRPM) and not par_jobs
    )
    pressures: Optional[List[float]] = None
    bal_slope = 1.0
    if use_balance:
        model = problem.model
        pressures = [
            0.0 if wl.is_imaginary(pid) else float(model.miss_rates[pid])
            for pid in range(n)
        ]
        x_max = sum(sorted(pressures, reverse=True)[: u - 1])
        bal_slope = model.phi_min_slope(x_max) * model.kappa

    def h_balance(bal_a: float, bal_a2: float, n_unsched: int) -> float:
        if not use_balance:
            return 0.0
        m_groups = n_unsched // u
        if m_groups == 0:
            return 0.0
        return max(0.0, bal_slope * (bal_a * bal_a / m_groups - bal_a2))

    def h_matching(unscheduled: Tuple[int, ...]) -> float:
        """u = 2 only: the completion is a perfect matching, and for
        the pressure model the minimum pair-product sum has a closed
        form — sort pressures and pair outside-in (rearrangement
        inequality).  Exact for linear φ; the chord slope keeps it
        admissible for saturating φ."""
        vals = sorted(pressures[p] for p in unscheduled)
        total = 0.0
        i, j = 0, len(vals) - 1
        while i < j:
            total += vals[i] * vals[j]
            i += 1
            j -= 1
        return 2.0 * bal_slope * total

    use_matching = use_balance and u == 2

    def h(rec: _Record) -> float:
        value = estimator.h(rec.unscheduled) if estimator else 0.0
        if process_floor:
            value = max(
                value,
                h_floor(rec),
                h_balance(rec.bal_a, rec.bal_a2, len(rec.unscheduled)),
            )
            if use_matching:
                value = max(value, h_matching(rec.unscheduled))
        return value

    def cheapest(unscheduled: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        succ = gen.successors(unscheduled, limit=1)
        return succ[0][0] if succ else None

    # Partial expansion (PEA*-style): pop a state, materialize only the
    # next batch of its successors (they stream in ascending weight for
    # monotone models), and re-insert the state priced at its next
    # un-generated successor.  Exact, and the only way to search levels
    # whose node counts are astronomically large.
    stream = h_tail = None
    if (
        search.partial_expansion
        and search.node_limit_fraction is None
        and gen.supports_stream()
        and estimator is not None
        and search.h_strategy == 2
    ):
        def stream(rec: _Record):
            return gen.successors_stream(rec.unscheduled)

        def h_tail(rec: _Record) -> float:
            return estimator.h_tail(rec.unscheduled)

    return SuccessorSource(
        successors=lambda rec, limit: gen.successors(rec.unscheduled,
                                                     limit=limit),
        children=lambda rec, limit: gen.successors(
            rec.unscheduled, limit=limit, scheduled=rec.mask),
        h=h,
        depth=lambda rec: (n - len(rec.unscheduled)) // u,
        cheapest=cheapest,
        schedule=lambda nodes: CoSchedule.from_groups(nodes, u=u, n=n),
        dmin=dmin,
        stats=gen.stats,
        pressures=pressures,
        stream=stream,
        h_tail=h_tail,
    )


class AStarSearch(Solver):
    """Configurable extended A* over the co-scheduling graph.

    Parameters
    ----------
    name:
        Display name (OA*, HA*, O-SVP …).
    h_strategy:
        0 — no heuristic (uniform-cost / Dijkstra-like, used by O-SVP);
        1 or 2 — the paper's Strategy 1 / Strategy 2 (Section III-D).
    node_limit_fraction:
        ``None`` for the exact search; a float ``c`` makes each expansion
        attempt only the ``ceil(c · n_machines)`` lowest-weight valid nodes
        — HA* passes 1.0, the paper's ``n/u`` MER rule (Section IV).
        Values > 1 widen the beam proportionally.
    dismiss:
        ``"dominance"`` (exact, default) or ``"paper"`` (published rule).
    condense:
        Enable Section III-E communication-aware condensation for PC jobs
        (PE bucketing is exact and always on unless ``condense_pe=False``).
    h_parallel:
        Forwarded to :class:`~repro.graph.levels.HeuristicEstimator`.
    beam_width:
        Switch to a layered beam search keeping the best ``beam_width``
        states per level (per machine slot on scenario problems).
    """

    scenario_capabilities = frozenset({"heterogeneous", "constraints"})

    def __init__(
        self,
        name: str = "OA*",
        h_strategy: int = 2,
        node_limit_fraction: Optional[float] = None,
        dismiss: str = "dominance",
        condense: bool = False,
        condense_pe: bool = True,
        h_parallel: str = "zero",
        process_floor: bool = True,
        partial_expansion: bool = True,
        beam_width: Optional[int] = None,
    ):
        if h_strategy not in (0, 1, 2):
            raise ValueError("h_strategy must be 0, 1 or 2")
        if dismiss not in ("dominance", "paper"):
            raise ValueError("dismiss must be 'dominance' or 'paper'")
        if node_limit_fraction is not None and node_limit_fraction <= 0:
            raise ValueError("node_limit_fraction must be positive")
        self.name = name
        self.h_strategy = h_strategy
        self.node_limit_fraction = node_limit_fraction
        self.dismiss = dismiss
        self.condense = condense
        self.condense_pe = condense_pe
        self.h_parallel = h_parallel
        self.process_floor = process_floor
        self.partial_expansion = partial_expansion
        if beam_width is not None and beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.beam_width = beam_width

    # ------------------------------------------------------------------ #

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        if problem.required_capabilities():
            # Heterogeneous rosters / constraints break the homogeneous
            # level coding; the scenario source walks machine slots.
            from . import het_search

            return het_search.solve_het(self, problem)
        return self._search(problem, graph_source(self, problem))

    def _search(self, problem: CoSchedulingProblem,
                source: SuccessorSource) -> SolveResult:
        """The best-first loop over ``source``'s search space."""
        n = problem.n
        wl = problem.workload
        par_jobs = [j.job_id for j in wl.parallel_jobs]
        par_index = {jid: k for k, jid in enumerate(par_jobs)}
        par_sizes = {jid: len(wl.processes_of(jid)) for jid in par_jobs}
        kinds = [wl.kind_of(pid) for pid in range(n)]
        job_ids = [
            -1 if wl.job_of(pid) is None else wl.job_of(pid).job_id
            for pid in range(n)
        ]
        imaginary = [wl.is_imaginary(pid) for pid in range(n)]

        perf = problem.counters
        dmin = source.dmin
        pressures = source.pressures
        use_balance = pressures is not None
        h = source.h
        keys_leader = source.keys_leader

        node_limit: Optional[int] = None
        if self.node_limit_fraction is not None:
            node_limit = max(
                1, math.ceil(self.node_limit_fraction * problem.n_machines)
            )

        budget = self._active_budget()
        tracer = perf.tracer

        root = _Record(
            unscheduled=tuple(range(n)),
            serial_sum=0.0,
            par_max=(0.0,) * len(par_jobs),
            par_remaining=tuple(par_sizes[jid] for jid in par_jobs),
            g=0.0,
            node=None,
            parent=None,
            floor_serial_rest=sum(
                (dmin[pid] for pid in range(n)
                 if kinds[pid] is JobKind.SERIAL and not imaginary[pid]),
                0.0,
            ),
            bal_a=sum(pressures) if use_balance else 0.0,
            bal_a2=sum(p * p for p in pressures) if use_balance else 0.0,
        )
        # The state table.  A state's key is its scheduled-pid bitmask
        # (one Python int, handed over with each successor and far cheaper
        # to hash than an unscheduled tuple) — plus, where the source keys
        # children on their leader, ``(leader + 1) << n``.  Each key maps
        # straight to what the dismiss strategy keeps: on serial-only
        # problems the one live record (min g), otherwise the record
        # frontier (a list).  That dict lookup is the only hash per
        # candidate, and the dismissal test runs before any tuple is built.
        serial_only = not par_jobs
        states: Dict[int, object] = {0: root if serial_only else [root]}
        counter = itertools.count()
        h0 = h(root)
        heap: List[Tuple[float, int, _Record]] = [(root.g + h0, next(counter), root)]
        if tracer is not None:
            tracer.emit("bound", solver=self.name, kind="root_h", value=h0)

        # The warm-start incumbent bounds the search: once the popped f
        # reaches it, nothing left can beat it (h is admissible).
        incumbent = self._warm_schedule
        bound = math.inf
        if incumbent is not None:
            bound = evaluate_schedule(problem, incumbent).objective

        expanded = 0
        resumes = 0
        pops = 0
        goal: Optional[_Record] = None
        # Best partial path at the moment a budget limit trips — the anytime
        # answer is this record's path completed greedily.
        anytime_rec: Optional[_Record] = None
        stopped: Optional[str] = None
        max_depth = -1
        counters = {"pushed": 1, "dismissed": 0}

        # What each pid's degradation feeds: its parallel job's index, -1
        # for a real serial process (the serial sum), -2 for padding.
        feeds = [
            par_index[job_ids[pid]] if kinds[pid] is not JobKind.SERIAL
            else (-2 if imaginary[pid] else -1)
            for pid in range(n)
        ]

        def node_cost(node: Tuple[int, ...]):
            return problem.extra_cost(node), problem.node_degradations(node)

        def make_child(rec: _Record, node: Tuple[int, ...], mask: int,
                       key: int, cost) -> Optional[_Record]:
            """The child record for expanding ``rec`` with ``node`` on a
            workload with parallel jobs, applying the dismiss strategy;
            None if the child is dismissed.  ``mask`` is the child's
            scheduled-pid mask, ``key`` its state key and ``cost`` the
            node's ``(extra cost, member degradations)``."""
            extra, degs = cost
            par_max = list(rec.par_max)
            par_remaining = list(rec.par_remaining)
            floor_serial_rest = rec.floor_serial_rest
            bal_a, bal_a2 = rec.bal_a, rec.bal_a2
            serial_sum = rec.serial_sum + extra
            for pid, d in zip(node, degs):
                if use_balance:
                    p = pressures[pid]
                    bal_a -= p
                    bal_a2 -= p * p
                k = feeds[pid]
                if k == -1:
                    serial_sum += d
                    floor_serial_rest -= dmin[pid]
                elif k >= 0:
                    if d > par_max[k]:
                        par_max[k] = d
                    par_remaining[k] -= 1
                    # Fold completed parallel jobs into the serial sum so
                    # that dominance (and min-g) compare them directly.
                    if par_remaining[k] == 0:
                        serial_sum += par_max[k]
                        par_max[k] = 0.0
            g = serial_sum + sum(par_max)

            # Dismissal first: most candidates die here, before their
            # unscheduled tuple and record are built.
            bucket = states.get(key)
            if bucket is None:
                bucket = states[key] = []
            if self.dismiss == "paper":
                if bucket and bucket[0].g <= g + _EPS:
                    counters["dismissed"] += 1
                    return None
            elif any(
                old.alive
                and _dominates_by(old.serial_sum, old.par_max,
                                  serial_sum, par_max)
                for old in bucket
            ):
                counters["dismissed"] += 1
                return None
            unscheduled = list(rec.unscheduled)
            for pid in node:
                unscheduled.remove(pid)
            cand = _Record(
                unscheduled=tuple(unscheduled),
                serial_sum=serial_sum,
                par_max=tuple(par_max),
                par_remaining=tuple(par_remaining),
                g=g,
                node=node,
                parent=rec,
                floor_serial_rest=floor_serial_rest,
                bal_a=bal_a,
                bal_a2=bal_a2,
                mask=mask,
            )
            if self.dismiss == "paper":
                if bucket:
                    bucket[0].alive = False
                    bucket[0] = cand
                else:
                    bucket.append(cand)
            else:
                for old in bucket:
                    if old.alive and _dominates(cand, old):
                        old.alive = False
                bucket[:] = [r for r in bucket if r.alive]
                bucket.append(cand)
            return cand

        def expand(rec: _Record, columns) -> List[_Record]:
            """The children of ``rec`` that survive dismissal, in order,
            from its successors' ``(nodes, weights, child_masks)``."""
            nodes, weights, masks = columns[:3]
            keys = masks
            if keys_leader is not None and keys_leader(rec):
                keys = [mask | ((node[0] + 1) << n)
                        for node, mask in zip(nodes, masks)]
            out = []
            if not serial_only:
                costs = (columns[3] if len(columns) > 3
                         else map(node_cost, nodes))
                for node, mask, key, cost in zip(nodes, masks, keys, costs):
                    cand = make_child(rec, node, mask, key, cost)
                    if cand is not None:
                        out.append(cand)
                counters["pushed"] += len(out)
                return out
            # Serial-only: the node weight IS the g-increment and the
            # state key comes with the node, so the dismissal test runs
            # before any tuple or record is built.  The overwhelming
            # majority of candidates die right here.
            base_g = rec.serial_sum
            for node, node_w, mask, key, old in zip(
                    nodes, weights, masks, keys, map(states.get, keys)):
                g = base_g + node_w
                if old is not None and old.g <= g + _EPS:
                    continue
                node = tuple(node)
                floor_serial_rest = rec.floor_serial_rest
                for pid in node:
                    floor_serial_rest -= dmin[pid]
                bal_a, bal_a2 = rec.bal_a, rec.bal_a2
                if use_balance:
                    for pid in node:
                        p = pressures[pid]
                        bal_a -= p
                        bal_a2 -= p * p
                unscheduled = list(rec.unscheduled)
                for pid in node:
                    unscheduled.remove(pid)
                cand = _Record(
                    unscheduled=tuple(unscheduled),
                    serial_sum=g,
                    par_max=rec.par_max,
                    par_remaining=rec.par_remaining,
                    g=g,
                    node=node,
                    parent=rec,
                    floor_serial_rest=floor_serial_rest,
                    bal_a=bal_a,
                    bal_a2=bal_a2,
                    mask=mask,
                )
                if old is not None:
                    old.alive = False
                states[key] = cand
                out.append(cand)
            counters["dismissed"] += len(nodes) - len(out)
            counters["pushed"] += len(out)
            return out

        with perf.phase("search"):
            if self.beam_width is not None:
                goal, expanded, stopped, anytime_rec = self._beam_search(
                    root, source, expand, node_limit, budget,
                )
            else:
                # Best-first A* over the whole search space.
                while heap:
                    _f, _tie, rec = heapq.heappop(heap)
                    pops += 1
                    if not rec.alive:
                        continue
                    if _f >= bound:
                        break
                    if not rec.unscheduled:
                        goal = rec
                        if tracer is not None:
                            tracer.emit(
                                "incumbent", solver=self.name,
                                objective=goal.g, expanded=expanded,
                            )
                        break
                    if budget.exhausted() is not None:
                        # Anytime stop: the just-popped record is the
                        # most promising live subpath — finish it
                        # greedily below instead of searching on.
                        stopped = budget.stop_reason
                        anytime_rec = rec
                        break
                    # A record re-queued by partial expansion was
                    # expanded (and charged) on its first pop; later pops
                    # only take its next batch of children.
                    resumed = rec.stream is not None
                    if resumed:
                        resumes += 1
                    else:
                        expanded += 1
                        budget.charge()
                    if tracer is not None:
                        if not resumed:
                            depth = source.depth(rec)
                            if depth > max_depth:
                                max_depth = depth
                                tracer.emit(
                                    "level", solver=self.name, depth=depth,
                                    expanded=expanded,
                                )
                            tracer.emit(
                                "expand", solver=self.name, depth=depth,
                                g=rec.g, f=_f, expanded=expanded,
                            )
                        dismissed_before = counters["dismissed"]

                    if source.stream is not None:
                        if not resumed:
                            rec.stream = source.stream(rec)
                            rec.pending = next(rec.stream, None)
                        batch_nodes = []
                        while (
                            rec.pending is not None
                            and len(batch_nodes) < _PARTIAL_BATCH
                        ):
                            batch_nodes.append(rec.pending)
                            rec.pending = next(rec.stream, None)
                        if rec.pending is not None:
                            perf.incr("heap_pushes")
                            if rec.h_tail is None:
                                rec.h_tail = source.h_tail(rec)
                            f_resume = rec.g + rec.pending[1] + rec.h_tail
                            heapq.heappush(
                                heap, (f_resume, next(counter), rec)
                            )
                        columns = successor_columns(rec.mask, batch_nodes)
                    else:
                        columns = source.columns(rec, node_limit)

                    for cand in expand(rec, columns):
                        heapq.heappush(
                            heap, (cand.g + h(cand), next(counter), cand),
                        )
                    if tracer is not None:
                        newly = counters["dismissed"] - dismissed_before
                        if newly:
                            tracer.emit(
                                "dismiss", solver=self.name,
                                count=newly, expanded=expanded,
                            )
        if pops:
            perf.incr("heap_pops", pops)
        perf.incr("heap_pushes", counters["pushed"])
        if stopped is not None and tracer is not None:
            tracer.emit(
                "budget_stop", solver=self.name, reason=stopped,
                expanded=expanded,
            )

        stats = {
            "expanded": expanded,
            "visited_paths": counters["pushed"],
            "dismissed": counters["dismissed"],
            "nodes_generated": source.stats["generated"],
            "condensed_away": source.stats["condensed_away"],
            "partial_resumes": resumes,
        }
        schedule: Optional[CoSchedule] = None
        objective = math.inf
        if goal is not None:
            schedule = source.schedule(_path(goal))
            objective = goal.g
            # Sanity: every parallel job fully placed.
            for jid, size in par_sizes.items():
                placed = sum(
                    1 for grp in schedule.groups for pid in grp
                    if job_ids[pid] == jid
                )
                assert placed == size, f"parallel job {jid} placed {placed}/{size}"
        elif anytime_rec is not None:
            # Budget exhausted mid-search: finish the best partial path
            # with the cheapest next node, step by step.  Greedy, so never
            # better than the optimum — but always a *valid* schedule,
            # which is the anytime contract.
            with perf.phase("budget_completion"):
                nodes = greedy_complete(
                    source, _path(anytime_rec), anytime_rec.unscheduled
                )
            if nodes is not None:
                schedule = source.schedule(nodes)
                objective = evaluate_schedule(problem, schedule).objective
                stats["budget_completion"] = "greedy"
                if tracer is not None:
                    tracer.emit(
                        "incumbent", solver=self.name,
                        objective=objective, expanded=expanded,
                    )
        if bound <= objective:
            schedule, objective = incumbent, bound
        stats["profile"] = perf.snapshot()
        exact = self.node_limit_fraction is None and self.beam_width is None
        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=objective,
            time_seconds=0.0,
            optimal=schedule is not None and stopped is None and exact,
            stats=stats,
        )

    def _beam_search(self, root, source, expand, node_limit, budget):
        """Layered beam search: keep the best ``beam_width`` states per level.

        Bounded-width variant used for the paper's largest scales (hundreds
        to thousands of jobs), where even the trimmed exact search outgrows
        Python.  Not exhaustive: quality is anytime/near-optimal, like HA*
        itself.  Returns ``(goal_record_or_None, expansions, stop_reason,
        best_partial_record)`` — the last two are non-``None`` only when
        ``budget`` tripped mid-descent.
        """
        beam = self.beam_width
        limit = node_limit if node_limit is not None else beam
        frontier = [(0.0, root)]
        expanded = 0
        while frontier and frontier[0][1].unscheduled:
            if budget.exhausted() is not None:
                best = min(frontier, key=lambda t: t[0])
                return None, expanded, budget.stop_reason, best[1]
            candidates = []
            for _f, rec in frontier:
                if not rec.alive:
                    continue
                expanded += 1
                budget.charge()
                for cand in expand(rec, source.columns(rec, limit)):
                    candidates.append((cand.g + source.h(cand), cand))
            if not candidates:
                return None, expanded, None, None
            candidates = [(f, c) for f, c in candidates if c.alive]
            candidates.sort(key=lambda t: t[0])
            frontier = candidates[:beam]
        if not frontier:
            return None, expanded, None, None
        best = min(frontier, key=lambda t: t[1].g)
        return best[1], expanded, None, None
