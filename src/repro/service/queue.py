"""Threaded solve queue: admission control, priority lanes, coalescing.

:class:`SolveService` turns the one-shot ``Solver.solve`` call into a
long-lived request pipeline:

1. **fingerprint** the incoming problem (:mod:`repro.service.codec`);
2. **cache** — if the :class:`~repro.service.store.SolutionStore` already
   holds an answer (always final when proven optimal), resolve the request
   immediately with zero solver work (``svc_cache_hit``);
3. **coalesce** — if an identical problem is already queued or solving,
   attach this request to that in-flight solve instead of enqueuing a
   duplicate (``svc_coalesce``);
4. **admit** — reject, with a structured reason, requests that name a
   solver spec the :mod:`repro.runtime` registry cannot resolve, would
   overflow the bounded queue, or whose budgets exceed the per-request /
   global caps (``svc_reject``); otherwise enqueue into a priority lane
   (``svc_enqueue``);
5. **solve** — a worker thread pops the highest-priority request, seeds
   the solver with the store's incumbent when one exists
   (``svc_warm_start``), runs it under the request budget, records the
   result back into the store, and resolves the request plus every
   coalesced follower.

Two service behaviors ride on the same pipeline: with a
``shed_policy`` armed, a submission that would be rejected ``queue_full``
is instead **shed** — answered synchronously by a cheap registry
heuristic, marked ``shed=True`` (``svc_shed``) — and :meth:`SolveService.drain`
implements the graceful-shutdown contract that ``cosched serve`` runs on
SIGTERM (``svc_drain``): stop admitting (reason ``"draining"``), finish every
admitted ticket, then :meth:`~SolveService.stop`.

Lower ``priority`` numbers are served first (0 = interactive, larger =
batch).  All bookkeeping is lock-protected; tickets are resolved through
a per-ticket :class:`threading.Event`, so callers ``wait()`` without
polling.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Dict, List, Optional

from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from ..perf import kernels as _kernels
from ..perf.counters import PerfCounters
from ..runtime import (
    SpecError,
    create_solver,
    get_info,
    parse_spec,
    resolve_shed_policy,
    run_solve,
    solver_names,
)
from ..solvers import Budget
from .codec import (
    canonical_pid_map,
    problem_fingerprint,
    schedule_from_canonical,
    schedule_to_canonical,
    schedule_to_dict,
)
from .store import SolutionStore, StoreEntry

__all__ = ["RequestRejected", "ServiceTicket", "SolveService"]

_BUDGET_FIELDS = ("wall_time", "max_expanded", "max_weight_evals")


class RequestRejected(RuntimeError):
    """Admission control refused the request.

    ``reason`` is machine-readable (``"queue_full"`` /
    ``"request_budget"`` / ``"global_budget"`` / ``"draining"`` /
    ``"unknown_solver"`` / ``"bad_solver_spec"`` — the last two forwarded
    verbatim from the :mod:`repro.runtime` registry's spec validation);
    ``detail`` explains it for humans.  :meth:`to_dict` is the structured
    error body the HTTP layer returns with status 429/400 (503 with a
    ``Retry-After`` header for ``"draining"``).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail

    def to_dict(self) -> dict:
        return {"error": "rejected", "reason": self.reason,
                "detail": self.detail}


class ServiceTicket:
    """Handle for one submitted request.

    ``state`` moves ``queued → running → done|failed`` (cache hits and
    coalesced followers jump straight to their terminal state when the
    answer lands).  ``disposition`` records how the answer was produced:
    ``"solved"``, ``"cache_hit"``, ``"coalesced"`` or ``"shed"`` (the
    saturated-queue degraded path; ``shed`` is then ``True`` and
    ``solved_by`` names the shed chain member whose schedule won).

    ``pid_map`` is the submitter problem's canonical pid map
    (:func:`~repro.service.codec.canonical_pid_map`): store entries hold
    schedules in canonical labeling, and each ticket translates them back
    into its *own* submitter's labeling on resolve.  Coalesced followers
    and cache hits may come from a different relabeling of the same
    problem than the one that produced the cached schedule, so the
    translation is per-ticket, not per-solve.
    """

    def __init__(self, ticket_id: str, fingerprint: str, solver: str,
                 priority: int, pid_map: Optional[List[int]] = None,
                 stale_partial: Optional[List[tuple]] = None,
                 base_fingerprint: Optional[str] = None,
                 machine_order: Optional[List[int]] = None):
        self.ticket_id = ticket_id
        self.fingerprint = fingerprint
        self.solver = solver
        self.priority = priority
        self._pid_map = pid_map
        #: Scenario problems: the submitter's canonical machine order
        #: (store entries hold machine-bound schedules in canonical slot
        #: order; resolving maps slots back to the submitter's machines).
        self._machine_order = machine_order
        #: Delta submissions (``POST /delta``): surviving machine groups of
        #: the base schedule in this problem's pids, attached before the
        #: ticket enters the heap so the worker sees them race-free.
        self.stale_partial = stale_partial
        self.base_fingerprint = base_fingerprint
        self.state = "queued"
        self.disposition: Optional[str] = None
        self.objective: Optional[float] = None
        self.schedule = None  # CoSchedule once resolved
        self.solved_by: Optional[str] = None
        self.optimal = False
        self.warm_started = False
        self.shed = False
        self.time_seconds: Optional[float] = None
        self.error: Optional[str] = None
        self._event = threading.Event()

    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved (or ``timeout``); returns :attr:`done`."""
        return self._event.wait(timeout)

    def _localize(self, schedule: Optional[CoSchedule]) -> Optional[CoSchedule]:
        """Canonical-labeled schedule -> this submitter's labeling."""
        if schedule is None or self._pid_map is None:
            return schedule
        inv = [0] * len(self._pid_map)
        for old, new in enumerate(self._pid_map):
            inv[new] = old
        if schedule.capacities is not None and self._machine_order is not None:
            # Machine-bound schedule: slot i of the canonical schedule is
            # the submitter's machine machine_order[i].
            order = self._machine_order
            groups: List[List[int]] = [[] for _ in order]
            caps = [0] * len(order)
            for slot, k in enumerate(order):
                groups[k] = [inv[p] for p in schedule.groups[slot]]
                caps[k] = schedule.capacities[slot]
            return CoSchedule.from_machine_groups(groups, capacities=caps)
        return CoSchedule.from_groups(
            [[inv[p] for p in g] for g in schedule.groups], u=schedule.u
        )

    def _resolve(self, entry: StoreEntry, disposition: str,
                 warm_started: bool = False,
                 time_seconds: Optional[float] = None) -> None:
        self.objective = entry.objective
        self.schedule = self._localize(entry.schedule)
        self.solved_by = entry.solver
        self.optimal = entry.optimal
        self.disposition = disposition
        self.warm_started = warm_started
        self.time_seconds = time_seconds
        self.state = "done"
        self._event.set()

    def _fail(self, message: str) -> None:
        self.error = message
        self.state = "failed"
        self._event.set()

    def to_dict(self) -> dict:
        """The ``GET /status/<id>`` payload."""
        out = {
            "id": self.ticket_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "solver": self.solver,
            "priority": self.priority,
            "disposition": self.disposition,
        }
        if self.base_fingerprint is not None:
            out["base_fingerprint"] = self.base_fingerprint
            out["base_hit"] = self.stale_partial is not None
        if self.state == "done":
            out.update({
                "objective": self.objective,
                "schedule": schedule_to_dict(self.schedule),
                "solved_by": self.solved_by,
                "optimal": self.optimal,
                "warm_started": self.warm_started,
                "shed": self.shed,
                "time_seconds": self.time_seconds,
            })
        if self.error is not None:
            out["error"] = self.error
        return out


class SolveService:
    """Memoizing, coalescing solve queue over a worker-thread pool.

    Parameters
    ----------
    store:
        Shared :class:`SolutionStore` (a fresh in-memory one by default).
    workers:
        Worker threads.  With one worker the solve order is exactly the
        priority order, which makes coalescing deterministic in tests.
    max_queue:
        Bound on *queued* (not yet running) requests; submissions beyond
        it are rejected with reason ``"queue_full"``.
    default_solver:
        Solver spec used when a request names none (any
        :mod:`repro.runtime` registry spec, e.g. ``"fallback"`` or
        ``"hastar?mer=8"``).
    per_request_budget:
        Optional cap: each admitted request's budget must be limited to at
        most this in every currency the cap sets.
    global_budget:
        Optional cap on the *total* budget the service may commit across
        its lifetime, enforced at admission (a request with an unlimited
        currency cannot be admitted under a global cap on that currency).
    tracer:
        Optional :class:`~repro.perf.Tracer`; the service emits ``svc_*``
        events through it (guarded by an internal lock, so a shared sink
        is safe even with several workers).
    shed_policy:
        Optional comma-separated chain of cheap registry solver specs
        (validated by :func:`repro.runtime.resolve_shed_policy` — exact
        solvers are refused).  When set, a submission that would be
        rejected with ``queue_full`` is instead **shed**: the policy runs
        as one :class:`~repro.solvers.fallback.FallbackChain` in the
        submitting thread (``pg,hill`` polishes PG's schedule), the
        ticket resolves with disposition ``"shed"`` / ``shed=True``, and
        the result still feeds the store's monotone merge.  ``None`` (the
        default) keeps the hard ``queue_full`` rejection.
    shed_budget:
        Optional :class:`Budget` cap applied to every shed solve
        (defaults to a 1-second wall cap so the degraded path stays
        bounded even if a policy member is slower than expected).
    """

    def __init__(
        self,
        store: Optional[SolutionStore] = None,
        workers: int = 2,
        max_queue: int = 64,
        default_solver: str = "fallback",
        per_request_budget: Optional[Budget] = None,
        global_budget: Optional[Budget] = None,
        tracer=None,
        shed_policy: Optional[str] = None,
        shed_budget: Optional[Budget] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.store = store if store is not None else SolutionStore()
        self.workers = workers
        self.max_queue = max_queue
        self.default_solver = default_solver
        self.per_request_budget = per_request_budget
        self.global_budget = global_budget
        self.tracer = tracer
        try:
            self._check_solver(default_solver)
        except RequestRejected as exc:
            raise ValueError(
                f"unknown default solver {default_solver!r}: {exc.detail}"
            ) from exc
        # Shed policy resolves (and validates) at construction: a bad
        # policy is a configuration error, not a per-request surprise.
        self._shed_policy = (
            resolve_shed_policy(shed_policy) if shed_policy else None
        )
        self.shed_budget = (
            shed_budget if shed_budget is not None else Budget(wall_time=1.0)
        )

        self.counters = PerfCounters()  # merged from every solved problem
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (priority, seq, ticket, problem, budget)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._tickets: Dict[str, ServiceTicket] = {}
        self._inflight: Dict[str, dict] = {}  # fp -> {"ticket", "followers"}
        self._committed = {f: 0.0 for f in _BUDGET_FIELDS}
        self._stats = {
            "submitted": 0, "solves": 0, "cache_hits": 0, "coalesced": 0,
            "rejected": 0, "warm_starts": 0, "errors": 0, "completed": 0,
            "shed": 0, "deltas": 0, "delta_base_hits": 0,
        }
        self._lane_depth: Dict[int, int] = {}
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        self._draining = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SolveService":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            self._shutdown = False
            self._draining = False
            for i in range(self.workers):
                t = threading.Thread(target=self._worker_loop,
                                     name=f"cosched-worker-{i}", daemon=True)
                self._threads.append(t)
        for t in self._threads:
            t.start()
        return self

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown, phase one: **stop admitting, finish everything
        accepted**.

        ``cosched serve`` calls it on SIGTERM: from the moment ``drain``
        is called, new submissions are rejected with reason
        ``"draining"`` (HTTP 503 + ``Retry-After``), while every ticket
        already admitted — queued, running, and their coalesced
        followers — resolves normally.

        Blocks until the queue and the in-flight table are empty or
        ``timeout`` elapses; returns ``True`` when fully drained.  Call
        :meth:`stop` afterwards to join the workers (on a timed-out
        drain, ``stop`` fails the stragglers rather than hang clients).
        """
        deadline = time.monotonic() + timeout
        with self._work:
            already = self._draining
            self._draining = True
        if not already and self.tracer is not None:
            self._emit("svc_drain", timeout=timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._heap and not self._inflight:
                    return True
            time.sleep(0.01)
        with self._lock:
            return not self._heap and not self._inflight

    def stop(self, timeout: float = 10.0) -> None:
        """Hard stop: workers finish their *current* solve, remaining
        queued tickets (and their coalesced followers) fail with
        ``"service stopped"``.  For a graceful shutdown call
        :meth:`drain` first — after a clean drain there is nothing left
        to fail and ``stop`` only joins the workers."""
        with self._work:
            self._shutdown = True
            victims = []
            for item in self._heap:
                ticket = item[2]
                victims.append(ticket)
                # A queued primary's inflight entry carries its coalesced
                # followers; they must fail too or their wait() hangs.
                # (Running solves keep their entries and resolve normally.)
                inflight = self._inflight.pop(ticket.fingerprint, None)
                if inflight is not None:
                    victims.extend(inflight["followers"])
            self._heap.clear()
            self._lane_depth.clear()
            self._work.notify_all()
        for ticket in victims:
            ticket._fail("service stopped")
        for t in self._threads:
            t.join(timeout)
        self._threads = []

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    def _emit(self, ev: str, **fields) -> None:
        if self.tracer is None:
            return
        with self._lock:
            self.tracer.emit(ev, **fields)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _check_solver(self, spec: str, problem=None) -> None:
        """Raise :class:`RequestRejected` unless ``spec`` resolves — and,
        when ``problem`` is given, unless the registry entry declares the
        scenario capabilities the problem requires (reason
        ``"unsupported_scenario"``, surfaced as HTTP 400)."""
        try:
            parsed = parse_spec(spec)
        except SpecError as exc:
            raise RequestRejected(exc.reason, exc.detail) from exc
        if problem is not None:
            required = problem.required_capabilities()
            missing = required - get_info(parsed.name).scenario_flags()
            if missing:
                raise RequestRejected(
                    "unsupported_scenario",
                    f"solver {spec!r} does not support scenario feature(s) "
                    f"{sorted(missing)} required by this problem; see "
                    f"docs/SCENARIOS.md for the solver support matrix",
                )

    def _check_admission(self, budget: Optional[Budget]) -> None:
        """Raise :class:`RequestRejected` if the request may not enter.
        Caller holds the lock; commits the budget on success."""
        if len(self._heap) >= self.max_queue:
            raise RequestRejected(
                "queue_full",
                f"queue holds {len(self._heap)}/{self.max_queue} requests",
            )
        req = budget if budget is not None else Budget()
        cap = self.per_request_budget
        if cap is not None:
            for f in _BUDGET_FIELDS:
                limit = getattr(cap, f)
                if limit is None:
                    continue
                asked = getattr(req, f)
                if asked is None or asked > limit:
                    raise RequestRejected(
                        "request_budget",
                        f"budget.{f}={asked} exceeds the per-request cap "
                        f"{limit} (unlimited requests are not admitted "
                        f"under a cap)",
                    )
        glob = self.global_budget
        if glob is not None:
            for f in _BUDGET_FIELDS:
                limit = getattr(glob, f)
                if limit is None:
                    continue
                asked = getattr(req, f)
                if asked is None:
                    raise RequestRejected(
                        "global_budget",
                        f"a global {f} cap is armed; requests must state a "
                        f"finite budget.{f}",
                    )
                if self._committed[f] + asked > limit:
                    raise RequestRejected(
                        "global_budget",
                        f"committing budget.{f}={asked} would exceed the "
                        f"global cap ({self._committed[f]} of {limit} "
                        f"already committed)",
                    )
            for f in _BUDGET_FIELDS:
                if getattr(glob, f) is not None:
                    self._committed[f] += getattr(req, f)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[Budget] = None,
        priority: int = 1,
        refine: bool = False,
        _stale_partial: Optional[List[tuple]] = None,
        _base_fingerprint: Optional[str] = None,
    ) -> ServiceTicket:
        """Submit a problem; returns a :class:`ServiceTicket`.

        ``refine=True`` skips the cache for non-optimal entries (the entry
        still warm-starts the solver); proven-optimal entries are always
        served from cache.  Raises :class:`RequestRejected` when admission
        control refuses the request.  The underscore parameters are
        :meth:`submit_delta`'s channel for repair state — attached to the
        ticket before it can reach a worker.
        """
        solver_name = solver if solver is not None else self.default_solver
        try:
            self._check_solver(solver_name, problem=problem)
        except RequestRejected as exc:
            with self._lock:
                self._stats["rejected"] += 1
            self._emit("svc_reject", reason=exc.reason, solver=solver_name)
            raise
        fp = problem_fingerprint(problem)
        pid_map = canonical_pid_map(problem)
        machine_order = (list(problem.canonical_machine_order())
                         if problem.is_scenario else None)

        # Cache, coalesce and admission are decided under one lock, so a
        # solve completing between the store lookup and the inflight check
        # cannot slip a redundant re-solve past the memo.  (Trace emits go
        # through self.tracer directly — _emit would re-take the lock.)
        shed_ticket: Optional[ServiceTicket] = None
        with self._work:
            self._stats["submitted"] += 1
            if self._draining:
                # The drain contract: nothing new is admitted (not even
                # cache hits), everything already accepted resolves.
                self._stats["rejected"] += 1
                exc = RequestRejected(
                    "draining",
                    "service is draining; retry against a restarted "
                    "instance (Retry-After applies)",
                )
                if self.tracer is not None:
                    self.tracer.emit("svc_reject", reason=exc.reason,
                                     fingerprint=fp)
                raise exc
            entry = self.store.lookup(fp)
            if entry is not None and (entry.optimal or not refine):
                ticket = ServiceTicket(f"req-{next(self._ids)}", fp,
                                       solver_name, priority, pid_map=pid_map,
                                       stale_partial=_stale_partial,
                                       base_fingerprint=_base_fingerprint,
                                       machine_order=machine_order)
                ticket._resolve(entry, "cache_hit", time_seconds=0.0)
                self._tickets[ticket.ticket_id] = ticket
                self._stats["cache_hits"] += 1
                self._stats["completed"] += 1
                if self.tracer is not None:
                    self.tracer.emit("svc_cache_hit", id=ticket.ticket_id,
                                     fingerprint=fp,
                                     objective=entry.objective,
                                     optimal=entry.optimal)
                return ticket
            inflight = self._inflight.get(fp)
            if inflight is not None:
                ticket = ServiceTicket(f"req-{next(self._ids)}", fp,
                                       solver_name, priority, pid_map=pid_map,
                                       stale_partial=_stale_partial,
                                       base_fingerprint=_base_fingerprint,
                                       machine_order=machine_order)
                ticket.state = "queued"
                inflight["followers"].append(ticket)
                self._tickets[ticket.ticket_id] = ticket
                self._stats["coalesced"] += 1
                if self.tracer is not None:
                    self.tracer.emit("svc_coalesce", id=ticket.ticket_id,
                                     fingerprint=fp,
                                     primary=inflight["ticket"].ticket_id)
                return ticket
            try:
                self._check_admission(budget)
            except RequestRejected as exc:
                if (exc.reason == "queue_full"
                        and self._shed_policy is not None):
                    # Load-shedding: degrade, don't reject.  The solve
                    # itself runs outside the lock (below).
                    shed_ticket = ServiceTicket(
                        f"req-{next(self._ids)}", fp, solver_name,
                        priority, pid_map=pid_map,
                        base_fingerprint=_base_fingerprint,
                        machine_order=machine_order)
                    self._tickets[shed_ticket.ticket_id] = shed_ticket
                    self._stats["shed"] += 1
                else:
                    self._stats["rejected"] += 1
                    if self.tracer is not None:
                        self.tracer.emit("svc_reject", reason=exc.reason,
                                         fingerprint=fp)
                    raise
            if shed_ticket is None:
                ticket = ServiceTicket(f"req-{next(self._ids)}", fp,
                                       solver_name, priority,
                                       pid_map=pid_map,
                                       stale_partial=_stale_partial,
                                       base_fingerprint=_base_fingerprint,
                                       machine_order=machine_order)
                self._tickets[ticket.ticket_id] = ticket
                self._inflight[fp] = {"ticket": ticket, "followers": []}
                heapq.heappush(
                    self._heap,
                    (priority, next(self._seq), ticket, problem, budget),
                )
                self._lane_depth[priority] = (
                    self._lane_depth.get(priority, 0) + 1
                )
                if self.tracer is not None:
                    self.tracer.emit("svc_enqueue", id=ticket.ticket_id,
                                     fingerprint=fp, solver=solver_name,
                                     priority=priority,
                                     depth=len(self._heap))
                self._work.notify()
                return ticket
        # Shed path: run the cheap policy solver synchronously, outside
        # the lock (it is fast, but must not serialize the queue).
        self._run_shed(shed_ticket, problem)
        return shed_ticket

    def submit_delta(
        self,
        base_problem: CoSchedulingProblem,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[Budget] = None,
        priority: int = 1,
        refine: bool = False,
    ) -> ServiceTicket:
        """Submit ``problem`` as a delta over ``base_problem``
        (``POST /delta``).

        The base schedule is resolved from the store by the *base*
        problem's fingerprint; when present, the surviving machine groups
        (:func:`repro.online.delta.partial_from_base`) ride on the ticket
        and the worker runs the solver through the incremental repair
        path.  On a base miss the request degrades to an ordinary
        :meth:`submit` — correct, just not incremental.  ``solver``
        defaults to ``"repair"`` (i.e. ``repair?base=hastar``); any
        registry spec is accepted, but only ``repair`` specs use the
        attached stale state.
        """
        from ..online.delta import match_delta, partial_from_base

        solver_name = solver if solver is not None else "repair"
        base_fp = problem_fingerprint(base_problem)
        stale_partial = None
        entry = self.store.peek(base_fp)
        if entry is not None and entry.schedule.u == base_problem.u and sum(
            len(g) for g in entry.schedule.groups
        ) == base_problem.n:
            base_schedule = schedule_from_canonical(
                base_problem, entry.schedule)
            delta = match_delta(base_problem, problem)
            stale_partial = partial_from_base(base_schedule, delta)
        with self._lock:
            self._stats["deltas"] += 1
            if stale_partial is not None:
                self._stats["delta_base_hits"] += 1
        self._emit("svc_delta", base_fingerprint=base_fp,
                   base_hit=stale_partial is not None, solver=solver_name)
        return self.submit(
            problem, solver=solver_name, budget=budget, priority=priority,
            refine=refine, _stale_partial=stale_partial,
            _base_fingerprint=base_fp,
        )

    def _run_shed(self, ticket: ServiceTicket,
                  problem: CoSchedulingProblem) -> None:
        """Resolve ``ticket`` via the shed policy; records into the store."""
        fp = ticket.fingerprint
        try:
            report = run_solve(problem, self._shed_policy.chain(),
                               budget=self.shed_budget)
            if report.schedule is None:
                raise RuntimeError("no shed solver produced a schedule")
        except Exception as exc:  # noqa: BLE001 — shedding must not raise
            with self._lock:
                self._stats["errors"] += 1
                self._stats["completed"] += 1
            ticket._fail(f"shed solve failed: {exc}")
            return
        stats = report.result.stats
        specs = self._shed_policy.specs
        spec_used = specs[stats["winner_stage"]]
        # Stages that raised handed over to the next; say which and why.
        failed = [{"stage": specs[idx], "error": stage["error"]}
                  for idx, stage in enumerate(stats["stages"])
                  if "error" in stage]
        canon_schedule = schedule_to_canonical(problem, report.schedule)
        self.store.record(fp, canon_schedule, report.objective,
                          stats["winner"], report.optimal)
        entry = StoreEntry(fp, canon_schedule, report.objective,
                           stats["winner"], report.optimal)
        ticket.shed = True
        ticket._resolve(entry, "shed", time_seconds=report.solve_seconds)
        with self._lock:
            self._stats["completed"] += 1
        self._emit("svc_shed", id=ticket.ticket_id, fingerprint=fp,
                   policy=self._shed_policy.describe(), used=spec_used,
                   objective=report.objective, failed=failed)

    def ticket(self, ticket_id: str) -> Optional[ServiceTicket]:
        """Look up a ticket by id (``None`` if unknown)."""
        with self._lock:
            return self._tickets.get(ticket_id)

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while not self._heap and not self._shutdown:
                    self._work.wait()
                if self._shutdown and not self._heap:
                    return
                priority, _, ticket, problem, budget = heapq.heappop(self._heap)
                self._lane_depth[priority] -= 1
                if self._lane_depth[priority] == 0:
                    del self._lane_depth[priority]
                ticket.state = "running"
            self._run_one(ticket, problem, budget)

    def _run_one(self, ticket: ServiceTicket, problem: CoSchedulingProblem,
                 budget: Optional[Budget]) -> None:
        fp = ticket.fingerprint
        warm = self.store.peek(fp)
        warm_schedule = None
        if warm is not None and warm.schedule.u == problem.u and sum(
            len(g) for g in warm.schedule.groups
        ) == problem.n:
            # Store entries are canonical-labeled; the incumbent must be
            # translated into *this* problem's labeling before seeding.
            warm_schedule = schedule_from_canonical(problem, warm.schedule)
            with self._lock:
                self._stats["warm_starts"] += 1
            self._emit("svc_warm_start", id=ticket.ticket_id, fingerprint=fp,
                       incumbent=warm.objective, from_solver=warm.solver)
        try:
            if (ticket.stale_partial is not None
                    and parse_spec(ticket.solver).name == "repair"):
                # Delta path: hand the base schedule's surviving groups to
                # the repair solver (constructed per run — instances are
                # not shared across tickets).
                solver = create_solver(ticket.solver)
                solver.stale_partial = ticket.stale_partial
                result = run_solve(problem, solver, budget=budget,
                                   warm_start=warm_schedule).result
            else:
                result = run_solve(problem, ticket.solver, budget=budget,
                                   warm_start=warm_schedule).result
            if result.schedule is None:
                raise RuntimeError(
                    f"{result.solver} returned no schedule "
                    f"({result.budget_stopped or 'unknown reason'})"
                )
        except Exception as exc:  # noqa: BLE001 — workers must not die
            with self._work:
                inflight = self._inflight.pop(fp, None)
                self._stats["errors"] += 1
                self._stats["completed"] += 1
            followers = inflight["followers"] if inflight else []
            ticket._fail(str(exc))
            for f in followers:
                f._fail(str(exc))
            return
        # The store keeps schedules in canonical pid labeling so one entry
        # serves every relabeling of the problem; tickets translate back.
        canon_schedule = schedule_to_canonical(problem, result.schedule)
        self.store.record(fp, canon_schedule, result.objective,
                          result.solver, result.optimal)
        entry = self.store.peek(fp) or StoreEntry(
            fp, canon_schedule, result.objective, result.solver,
            result.optimal,
        )
        counters = getattr(problem, "counters", None)
        with self._work:
            inflight = self._inflight.pop(fp, None)
            self._stats["solves"] += 1
            self._stats["completed"] += 1
            if counters is not None:
                self.counters.merge(counters)
        followers = inflight["followers"] if inflight else []
        warm_used = warm_schedule is not None
        ticket._resolve(entry, "solved", warm_started=warm_used,
                        time_seconds=result.time_seconds)
        for f in followers:
            with self._lock:
                self._stats["completed"] += 1
            f._resolve(entry, "coalesced", warm_started=warm_used,
                       time_seconds=result.time_seconds)

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: request counters + derived rates,
        store stats, queue depths per lane, merged solver PerfCounters."""
        with self._lock:
            stats = dict(self._stats)
            lanes = {str(k): v for k, v in sorted(self._lane_depth.items())}
            depth = len(self._heap)
            inflight = len(self._inflight)
            draining = self._draining
            committed = {
                f: v for f, v in self._committed.items() if v
            }
            solver_counters = self.counters.snapshot()
        submitted = stats["submitted"] or 1
        rates = {
            "cache_hit_rate": stats["cache_hits"] / submitted,
            "coalesce_rate": stats["coalesced"] / submitted,
        }
        return {
            "requests": stats,
            "rates": rates,
            "queue": {
                "depth": depth,
                "inflight": inflight,
                "lanes": lanes,
                "workers": self.workers,
                "max_queue": self.max_queue,
                "committed_budget": committed,
                "draining": draining,
                "shed_policy": (
                    self._shed_policy.describe()
                    if self._shed_policy is not None else None
                ),
            },
            "solvers": list(solver_names()),
            "store": self.store.stats(),
            "solver_counters": solver_counters,
            # Worker solves run in this process, so the backend selected at
            # import time is the one scoring every queued request.
            "kernel_backend": _kernels.active_backend(),
        }
