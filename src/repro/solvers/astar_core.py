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
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.jobs import JobKind
from ..core.objective import evaluate_schedule
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from ..graph.levels import HeuristicEstimator, SuccessorGenerator
from .base import SolveResult, Solver

__all__ = ["AStarSearch"]

_EPS = 1e-12
# Successors materialized per partial-expansion pop.
_PARTIAL_BATCH = 32


@dataclass
class _Record:
    """One kept subpath (a priority-list element)."""

    unscheduled: Tuple[int, ...]
    serial_sum: float
    par_max: Tuple[float, ...]
    par_remaining: Tuple[int, ...]
    g: float
    node: Optional[Tuple[int, ...]]  # node appended to reach this state
    parent: Optional["_Record"]
    mask: int = 0  # scheduled-pid bitmask — the interned state identity
    floor_serial_rest: float = 0.0  # Σ dmin over unscheduled serial pids
    bal_a: float = 0.0   # Σ pressure over unscheduled (balance bound)
    bal_a2: float = 0.0  # Σ pressure² over unscheduled
    alive: bool = True
    # Partial-expansion bookkeeping: the ascending-weight successor stream,
    # the peeked-but-unprocessed head, and the admissible tail heuristic.
    stream: object = None
    pending: object = None
    h_tail: float = 0.0


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
        ``None`` for the exact search; a float ``c`` makes the search attempt
        only the ``ceil(c)``… — concretely HA* passes 1.0 meaning the first
        ``n/u`` lowest-weight valid nodes per level (Section IV's MER rule).
        Values > 1 widen the beam proportionally.
    dismiss:
        ``"dominance"`` (exact, default) or ``"paper"`` (published rule).
    condense:
        Enable Section III-E communication-aware condensation for PC jobs
        (PE bucketing is exact and always on unless ``condense_pe=False``).
    h_parallel:
        Forwarded to :class:`~repro.graph.levels.HeuristicEstimator`.
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
        max_expansions: Optional[int] = None,
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
        self.max_expansions = max_expansions

    # ------------------------------------------------------------------ #

    def _solve(self, problem: CoSchedulingProblem) -> SolveResult:
        if problem.required_capabilities():
            # Heterogeneous rosters / constraints break the homogeneous
            # level coding; the scenario engine owns that search space.
            from .het_search import solve_het

            return solve_het(self, problem)
        n, u = problem.n, problem.u
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
        gen = SuccessorGenerator(
            problem,
            condense_pe=self.condense_pe,
            condense_pc=self.condense,
        )
        estimator: Optional[HeuristicEstimator] = None
        if self.h_strategy in (1, 2):
            estimator = HeuristicEstimator(
                problem,
                strategy=self.h_strategy,
                h_parallel=self.h_parallel,
            )

        node_limit: Optional[int] = None
        if self.node_limit_fraction is not None:
            node_limit = max(1, math.ceil(self.node_limit_fraction * n / u))

        # Partial expansion (PEA*-style): pop a state, materialize only the
        # next batch of its successors (they stream in ascending weight for
        # monotone models), and re-insert the state priced at its next
        # un-generated successor.  Exact, and the only way to search levels
        # whose node counts are astronomically large.
        partial = (
            self.partial_expansion
            and node_limit is None
            and gen.supports_stream()
            and estimator is not None
            and self.h_strategy == 2
        )

        # Per-process admissible floors (the second heuristic, combined with
        # the level-based h via max — both are lower bounds on the remaining
        # distance, so their max is too).
        dmin = [0.0] * n
        job_floor = {jid: 0.0 for jid in par_jobs}
        floor_serial_total = 0.0
        if self.process_floor:
            with perf.phase("process_floors"):
                for pid in range(n):
                    dmin[pid] = problem.min_process_degradation(pid)
                    if kinds[pid] is JobKind.SERIAL:
                        if not wl.is_imaginary(pid):
                            floor_serial_total += dmin[pid]
                for jid in par_jobs:
                    procs = wl.processes_of(jid)
                    # Any remaining process's floor bounds the job's final
                    # max from below; the min over the job's processes is
                    # safe for every non-empty remainder.
                    job_floor[jid] = min(dmin[p] for p in procs)

        def h_floor(rec_floor_serial: float, par_max, par_remaining) -> float:
            total = rec_floor_serial
            for k, jid in enumerate(par_jobs):
                if par_remaining[k] > 0 and job_floor[jid] > par_max[k]:
                    total += job_floor[jid] - par_max[k]
            return total

        # Balance bound (pressure models, serial-only): the completion
        # partitions the unscheduled pressures into equal-size groups, and
        # Σ_T σ_T² >= A²/m with the linear chord under-estimating φ, giving
        #   h >= κ · slope · (A²/m − Σ a²)          (admissible, O(1)/state).
        from ..core.degradation import MissRatePressureModel as _MRPM

        use_balance = (
            self.process_floor
            and isinstance(problem.model, _MRPM)
            and not par_jobs
        )
        pressures = [0.0] * n
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
            if not use_balance or n_unsched == 0:
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
            floor_serial_rest=floor_serial_total,
            bal_a=sum(pressures),
            bal_a2=sum(p * p for p in pressures),
            mask=0,
        )
        # Interned state keys.  A state's identity is its scheduled-pid
        # bitmask (one Python int, incrementally OR-able and far cheaper to
        # hash than an unscheduled tuple); masks are interned to dense ids
        # on first sight, and per-state bookkeeping lives in flat sequences
        # indexed by id — a packed ``array('d')`` of best-known g for the
        # serial dismissal test, record buckets for the dominance frontier.
        # The dict-of-int intern table is the only hash lookup per
        # candidate, and the dismissal test runs before any tuple is built.
        pid_bit = [1 << pid for pid in range(n)]
        state_ids: Dict[int, int] = {0: 0}
        buckets: List[List[_Record]] = [[root]]
        best_g = array("d", [0.0])
        counter = itertools.count()
        h0 = estimator.h(root.unscheduled) if estimator else 0.0
        h0 = max(h0, h_floor(root.floor_serial_rest, root.par_max,
                             root.par_remaining),
                 h_balance(root.bal_a, root.bal_a2, n))
        if use_matching:
            h0 = max(h0, h_matching(root.unscheduled))
        heap: List[Tuple[float, int, _Record]] = [(root.g + h0, next(counter), root)]
        if tracer is not None:
            tracer.emit("bound", solver=self.name, kind="root_h", value=h0)

        expanded = 0
        pushed = 1
        dismissed = 0
        resumes = 0
        goal: Optional[_Record] = None
        # Best partial path at the moment a budget limit trips — the anytime
        # answer is this record's path completed greedily.
        anytime_rec: Optional[_Record] = None
        stopped: Optional[str] = None
        max_depth = -1
        counters = {"pushed": pushed, "dismissed": dismissed}

        serial_only = not par_jobs
        node_degradations = problem.node_degradations

        def make_child(rec: _Record, node: Tuple[int, ...],
                       node_w: Optional[float] = None) -> Optional[_Record]:
            """Build the child record for expanding ``rec`` with ``node``,
            applying the dismiss strategy; None if the child is dismissed.

            ``node_w`` is the precomputed node weight from the successor
            generator; for serial-only workloads it already equals the
            node's full g-increment (member degradations + extra cost), so
            the per-member degradation lookups are skipped entirely."""
            node_mask = 0
            for pid in node:
                node_mask |= pid_bit[pid]
            mask = rec.mask | node_mask
            if serial_only and node_w is not None:
                # Fast path: the node weight IS the g-increment, and the
                # state key is one OR over interned masks — so the
                # dismissal test runs before any tuple or record is built.
                # The overwhelming majority of candidates die right here.
                g = rec.serial_sum + node_w
                sid = state_ids.get(mask)
                if sid is None:
                    sid = len(buckets)
                    state_ids[mask] = sid
                    buckets.append([])
                    best_g.append(math.inf)
                elif best_g[sid] <= g + _EPS:
                    counters["dismissed"] += 1
                    return None
                floor_serial_rest = rec.floor_serial_rest
                bal_a, bal_a2 = rec.bal_a, rec.bal_a2
                for pid in node:
                    if use_balance:
                        p = pressures[pid]
                        bal_a -= p
                        bal_a2 -= p * p
                    floor_serial_rest -= dmin[pid]
                cand = _Record(
                    unscheduled=tuple(
                        p for p in rec.unscheduled
                        if not node_mask & pid_bit[p]
                    ),
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
                best_g[sid] = g
                bucket = buckets[sid]
                if bucket:
                    bucket[0].alive = False
                    bucket[0] = cand
                else:
                    bucket.append(cand)
                return cand
            par_max = list(rec.par_max)
            par_remaining = list(rec.par_remaining)
            floor_serial_rest = rec.floor_serial_rest
            bal_a, bal_a2 = rec.bal_a, rec.bal_a2
            serial_sum = rec.serial_sum + problem.extra_cost(node)
            for pid, d in zip(node, node_degradations(node)):
                if use_balance:
                    p = pressures[pid]
                    bal_a -= p
                    bal_a2 -= p * p
                kind = kinds[pid]
                if kind is JobKind.SERIAL:
                    if not imaginary[pid]:
                        serial_sum += d
                        floor_serial_rest -= dmin[pid]
                else:
                    k = par_index[job_ids[pid]]
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
            sid = state_ids.get(mask)
            if sid is None:
                sid = len(buckets)
                state_ids[mask] = sid
                buckets.append([])
                best_g.append(math.inf)
            bucket = buckets[sid]
            if self.dismiss == "paper":
                if best_g[sid] <= g + _EPS:
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
            cand = _Record(
                unscheduled=tuple(
                    p for p in rec.unscheduled if not node_mask & pid_bit[p]
                ),
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
                best_g[sid] = g
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

        def child_h(cand: _Record) -> float:
            h = estimator.h(cand.unscheduled) if estimator else 0.0
            if self.process_floor:
                h = max(
                    h,
                    h_floor(cand.floor_serial_rest, cand.par_max,
                            cand.par_remaining),
                    h_balance(cand.bal_a, cand.bal_a2, len(cand.unscheduled)),
                )
                if use_matching:
                    h = max(h, h_matching(cand.unscheduled))
            return h

        anytime_schedule: Optional[CoSchedule] = None
        with perf.phase("search"):
            if self.beam_width is not None:
                goal, expanded, stopped, anytime_rec = self._beam_search(
                    root, gen, make_child, child_h, node_limit, counters,
                    budget,
                )
            else:
                # Best-first A* over the whole graph.
                while heap:
                    _f, _tie, rec = heapq.heappop(heap)
                    perf.incr("heap_pops")
                    if not rec.alive:
                        continue
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
                    expanded += 1
                    budget.charge()
                    if (
                        self.max_expansions is not None
                        and expanded > self.max_expansions
                    ):
                        raise RuntimeError(
                            f"{self.name}: exceeded "
                            f"max_expansions={self.max_expansions}"
                        )
                    if tracer is not None:
                        depth = (n - len(rec.unscheduled)) // u
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

                    if partial:
                        if rec.stream is None:
                            rec.stream = gen.successors_stream(
                                rec.unscheduled
                            )
                            rec.pending = next(rec.stream, None)
                            rec.h_tail = estimator.h_tail(rec.unscheduled)
                        batch_nodes = []
                        while (
                            rec.pending is not None
                            and len(batch_nodes) < _PARTIAL_BATCH
                        ):
                            batch_nodes.append(rec.pending)
                            rec.pending = next(rec.stream, None)
                        if rec.pending is not None:
                            resumes += 1
                            f_resume = rec.g + rec.pending[1] + rec.h_tail
                            heapq.heappush(
                                heap, (f_resume, next(counter), rec)
                            )
                        successor_nodes = batch_nodes
                    else:
                        successor_nodes = gen.successors(
                            rec.unscheduled, limit=node_limit
                        )

                    for node, node_w in successor_nodes:
                        cand = make_child(rec, node, node_w)
                        if cand is None:
                            continue
                        heapq.heappush(
                            heap,
                            (cand.g + child_h(cand), next(counter), cand),
                        )
                        counters["pushed"] += 1
                    if tracer is not None:
                        newly = counters["dismissed"] - dismissed_before
                        if newly:
                            tracer.emit(
                                "dismiss", solver=self.name,
                                count=newly, expanded=expanded,
                            )
        if goal is None and anytime_rec is not None:
            # Budget exhausted mid-search: finish the best partial path
            # by repeatedly taking the cheapest valid node.  Greedy, so
            # never better than the optimum — but always a *valid*
            # schedule, which is the anytime contract.
            with perf.phase("budget_completion"):
                anytime_schedule = self._greedy_complete(
                    problem, gen, anytime_rec
                )
        perf.incr("heap_pushes", counters["pushed"] + resumes)
        pushed = counters["pushed"]
        dismissed = counters["dismissed"]
        if stopped is not None and tracer is not None:
            tracer.emit(
                "budget_stop", solver=self.name, reason=stopped,
                expanded=expanded,
            )

        if goal is None:
            if anytime_schedule is not None:
                ev = evaluate_schedule(problem, anytime_schedule)
                if tracer is not None:
                    tracer.emit(
                        "incumbent", solver=self.name,
                        objective=ev.objective, expanded=expanded,
                    )
                return SolveResult(
                    solver=self.name,
                    schedule=anytime_schedule,
                    objective=ev.objective,
                    time_seconds=0.0,
                    optimal=False,
                    stats={
                        "expanded": expanded,
                        "visited_paths": pushed,
                        "dismissed": dismissed,
                        "budget_completion": "greedy",
                        "profile": perf.snapshot(),
                    },
                )
            return SolveResult(
                solver=self.name,
                schedule=None,
                objective=math.inf,
                time_seconds=0.0,
                stats={
                    "expanded": expanded,
                    "visited_paths": pushed,
                    "profile": perf.snapshot(),
                },
            )

        groups = []
        walk: Optional[_Record] = goal
        while walk is not None and walk.node is not None:
            groups.append(walk.node)
            walk = walk.parent
        schedule = CoSchedule.from_groups(groups, u=u, n=n)
        # Sanity: every parallel job fully placed.
        for jid, size in par_sizes.items():
            placed = sum(
                1 for grp in schedule.groups for pid in grp if job_ids[pid] == jid
            )
            assert placed == size, f"parallel job {jid} placed {placed}/{size}"

        return SolveResult(
            solver=self.name,
            schedule=schedule,
            objective=goal.g,
            time_seconds=0.0,
            optimal=(self.node_limit_fraction is None),
            stats={
                "expanded": expanded,
                "visited_paths": pushed,
                "dismissed": dismissed,
                "condensed_away": gen.stats["condensed_away"],
                "nodes_generated": gen.stats["generated"],
                "partial_resumes": resumes,
                "profile": perf.snapshot(),
            },
        )

    def _greedy_complete(
        self,
        problem: CoSchedulingProblem,
        gen: SuccessorGenerator,
        rec: _Record,
    ) -> Optional[CoSchedule]:
        """Complete ``rec``'s partial path by appending the cheapest valid
        node of each remaining level (the anytime fallback when a budget
        trips mid-search).  ``None`` only if some state has no valid
        successor, which cannot happen for a well-formed instance."""
        groups: List[Tuple[int, ...]] = []
        walk: Optional[_Record] = rec
        while walk is not None and walk.node is not None:
            groups.append(walk.node)
            walk = walk.parent
        groups.reverse()
        unscheduled = rec.unscheduled
        while unscheduled:
            succ = gen.successors(unscheduled, limit=1)
            if not succ:
                return None
            node, _w = succ[0]
            groups.append(node)
            members = frozenset(node)
            unscheduled = tuple(p for p in unscheduled if p not in members)
        return CoSchedule.from_groups(groups, u=problem.u, n=problem.n)

    def _beam_search(
        self, root, gen, make_child, child_h, node_limit, counters, budget
    ):
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
                for node, node_w in gen.successors(rec.unscheduled, limit=limit):
                    cand = make_child(rec, node, node_w)
                    if cand is None:
                        continue
                    counters["pushed"] += 1
                    candidates.append((cand.g + child_h(cand), cand))
            if not candidates:
                return None, expanded, None, None
            candidates = [(f, c) for f, c in candidates if c.alive]
            candidates.sort(key=lambda t: t[0])
            frontier = candidates[:beam]
        if not frontier:
            return None, expanded, None, None
        best = min(frontier, key=lambda t: t[1].g)
        return best[1], expanded, None, None
