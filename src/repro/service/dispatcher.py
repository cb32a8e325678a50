"""The sharded-tier frontend: route by fingerprint, shed, drain, respawn.

:class:`ShardedService` owns ``N`` :class:`~repro.service.shard.ShardHandle`
processes and presents the same request surface as a single
:class:`~repro.service.queue.SolveService` — submit / status / metrics —
except that responses are plain status *documents* (the HTTP payload
shape) because every answer crosses a process boundary.  The request
lifecycle:

1. **fingerprint** the problem once, at the frontend
   (:func:`~repro.service.codec.problem_fingerprint`);
2. **route** to ``shard = fingerprint % N``
   (:func:`~repro.service.shard.shard_for`, event ``svc_shard_route``) and
   forward over the shard's HTTP endpoint.  All caching/coalescing for a
   fingerprint therefore happens inside exactly one shard;
3. **degrade instead of failing**: a shard that answers ``queue_full``
   or is unreachable (crashed) gets its request **shed** — solved inline
   by the dispatcher's cheap :class:`~repro.runtime.ShedPolicy` chain,
   marked ``shed: true`` with ``shed_reason`` (``svc_shed``).  When
   ``respawn`` is enabled, the first request to find a shard dead
   respawns it (``svc_shard_spawn``) and waits for the replacement to
   report its port before it sheds; concurrent requests shed without
   spawning.  The replacement replays the shared append log, so it comes
   back warm;
4. **drain** (``svc_drain``): the dispatcher stops admitting
   (``RequestRejected("draining")`` → HTTP 503 + ``Retry-After``),
   SIGTERMs every shard, and waits for each to finish its admitted work —
   the same contract, one level up.

Ticket ids are namespaced ``s<shard>-<local id>`` so ``status()`` can
route; dispatcher-resolved shed tickets are ``shed-<n>`` and kept in a
bounded local table.

:func:`start_dispatcher_server` serves the same JSON endpoints as the
single-process server (``/solve``, ``/delta``, ``/status``, ``/metrics``)
plus ``GET /health`` (shard liveness) through the same request handler
(:mod:`repro.service.server`), so ``cosched submit`` and
:class:`~repro.service.client.ServiceClient` work unchanged against a
sharded tier.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.problem import CoSchedulingProblem
from ..runtime import SpecError, parse_spec, resolve_shed_policy
from ..solvers import Budget
from .client import ServiceClient, ServiceError
from .codec import problem_fingerprint, schedule_to_dict
from .queue import RequestRejected
from .server import CoschedHTTPServer
from .shard import ShardConfig, ShardHandle, shard_for

__all__ = ["ShardedService", "DispatcherHTTPServer",
           "start_dispatcher_server"]

#: Dispatcher-side shed tickets kept for /status lookups.
_SHED_TICKET_CAP = 1024


class ShardedService:
    """Frontend dispatcher over ``N`` shard worker processes.

    Parameters
    ----------
    shards:
        Number of worker processes (>= 1).
    workers_per_shard, max_queue, default_solver, store_capacity:
        Forwarded into every shard's :class:`SolveService`.
    store_path:
        Shared append log for all shards (``None`` = memory-only shards).
    shed_policy:
        Cheap-solver chain for the degraded path (default ``"pg"``;
        ``None`` disables shedding — saturation and crashes surface as
        errors).  The same policy string is armed *inside* each shard
        (queue_full shedding close to the queue) and at the dispatcher
        (unreachable-shard shedding).
    respawn:
        Restart a crashed shard on first contact failure (default True).
    drain_timeout:
        Per-shard graceful-exit allowance for :meth:`drain`.
    request_timeout:
        Socket timeout for dispatcher→shard HTTP calls; forwarded
        ``wait`` values are clamped below it.
    tracer:
        Optional :class:`~repro.perf.Tracer` for ``svc_shard_*`` /
        ``svc_shed`` / ``svc_drain`` events (dispatcher-side only; shards
        trace their own ``svc_*`` stream).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        host: str = "127.0.0.1",
        workers_per_shard: int = 1,
        max_queue: int = 64,
        default_solver: str = "fallback",
        store_path: Optional[str] = None,
        store_capacity: int = 1024,
        shed_policy: Optional[str] = "pg",
        respawn: bool = True,
        drain_timeout: float = 30.0,
        request_timeout: float = 120.0,
        tracer=None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        try:
            parse_spec(default_solver)
        except SpecError as exc:
            raise ValueError(
                f"unknown default solver {default_solver!r}: {exc.detail}"
            ) from exc
        self.num_shards = shards
        self.host = host
        self.drain_timeout = drain_timeout
        self.request_timeout = request_timeout
        self.respawn = respawn
        self.tracer = tracer
        self._shed_policy = (
            resolve_shed_policy(shed_policy) if shed_policy else None
        )
        self._config_base = dict(
            num_shards=shards,
            host=host,
            workers=workers_per_shard,
            max_queue=max_queue,
            default_solver=default_solver,
            store_path=store_path,
            store_capacity=store_capacity,
            shed_policy=shed_policy or None,
            drain_timeout=drain_timeout,
        )
        self._lock = threading.Lock()
        self._draining = False
        self._respawning: set = set()  # shard indices being replaced
        self._ids = itertools.count(1)
        self._shed_tickets: "OrderedDict[str, dict]" = OrderedDict()
        self._stats = {
            "routed": 0, "shed": 0, "respawns": 0, "forward_errors": 0,
            "rejected": 0,
        }
        self._per_shard_routed = [0] * shards
        self._handles: List[ShardHandle] = [
            self._spawn(i) for i in range(shards)
        ]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, index: int) -> ShardHandle:
        config = ShardConfig(index=index, **self._config_base)
        handle = ShardHandle(config, request_timeout=self.request_timeout)
        self._emit("svc_shard_spawn", shard=index, port=handle.port,
                   pid=handle.pid)
        return handle

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful tier shutdown: stop admitting, drain every shard.

        Same contract as :meth:`SolveService.drain
        <repro.service.queue.SolveService.drain>`: submissions after this
        call raise ``RequestRejected("draining", ...)`` (HTTP 503 +
        ``Retry-After``), while every request already forwarded resolves —
        each shard finishes its queued and in-flight solves before
        exiting.  Returns ``True`` when every shard exited gracefully.
        """
        budget = timeout if timeout is not None else self.drain_timeout + 5.0
        with self._lock:
            self._draining = True
        self._emit("svc_drain", shards=self.num_shards, timeout=budget)
        ok = True
        for handle in self._handles:
            graceful = handle.drain(timeout=budget)
            self._emit("svc_shard_exit", shard=handle.index,
                       graceful=graceful)
            ok = ok and graceful
        return ok

    def stop(self) -> None:
        """Hard stop: SIGKILL every shard (the crash path; prefer
        :meth:`drain`)."""
        with self._lock:
            self._draining = True
        for handle in self._handles:
            handle.kill()
            self._emit("svc_shard_exit", shard=handle.index, graceful=False)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.drain()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def handles(self) -> Tuple[ShardHandle, ...]:
        """The live shard handles, indexed by shard number (read-only)."""
        return tuple(self._handles)

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    def _emit(self, ev: str, **fields) -> None:
        if self.tracer is None:
            return
        with self._lock:
            self.tracer.emit(ev, **fields)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #

    def submit(
        self,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[dict] = None,
        priority: int = 1,
        refine: bool = False,
        wait: float = 0.0,
    ) -> dict:
        """Route one request; returns the ticket status document.

        ``budget`` is the wire-shape dict (``{"wall_time": s, ...}``).
        Raises :class:`RequestRejected` while draining, and re-raises
        shard-side rejections as :class:`ServiceError` (except
        ``queue_full``/unreachable, which shed when a policy is armed).
        """
        return self._forward("/solve", {"problem": problem}, solver,
                             budget, priority, refine, wait)

    def submit_delta(
        self,
        base_problem: CoSchedulingProblem,
        problem: CoSchedulingProblem,
        solver: Optional[str] = None,
        budget: Optional[dict] = None,
        priority: int = 1,
        refine: bool = False,
        wait: float = 0.0,
    ) -> dict:
        """Route an incremental request by its **base** fingerprint.

        Delta requests go to the shard that owns ``base_problem`` — that
        shard's store holds the warm schedule the repair path starts
        from.  The result is recorded under the *new* problem's
        fingerprint, which may canonically belong to a different shard;
        that is safe (stores merge monotonically, and a later ``/solve``
        for the new fingerprint simply re-solves on its owner shard) but
        means delta results are cached for the base owner's locality, not
        globally.  Shedding and dead-shard handling are :meth:`submit`'s
        — a shed delta degrades to a from-scratch greedy solve of the new
        problem.
        """
        return self._forward(
            "/delta", {"base_problem": base_problem, "problem": problem},
            solver, budget, priority, refine, wait)

    def _forward(self, path: str, problems: dict, solver: Optional[str],
                 budget: Optional[dict], priority: int, refine: bool,
                 wait: float) -> dict:
        """POST ``problems`` to ``path`` on the shard that owns the routing
        problem (``base_problem`` if present, else ``problem``); shed the
        new ``problem`` when that shard is saturated or unreachable."""
        if solver is not None:
            try:
                parse_spec(solver)
            except SpecError as exc:
                raise RequestRejected(exc.reason, exc.detail) from exc
        delta = "base_problem" in problems
        fp = problem_fingerprint(
            problems["base_problem" if delta else "problem"])
        with self._lock:
            if self._draining:
                self._stats["rejected"] += 1
                raise RequestRejected(
                    "draining",
                    "sharded tier is draining; retry after restart",
                )
        index = shard_for(fp, self.num_shards)
        self._emit("svc_shard_route", shard=index, fingerprint=fp,
                   **({"delta": True} if delta else {}))
        try:
            doc = self._handles[index].client._post(
                path, problems, solver, budget, priority, refine,
                min(wait, self.request_timeout - 1.0),
            )
        except ServiceError as exc:
            reason = exc.payload.get("reason")
            if reason == "queue_full" and self._shed_policy is not None:
                return self._shed(problems["problem"], index, priority,
                                  reason="queue_full")
            with self._lock:
                self._stats["rejected"] += 1
            raise
        except OSError as exc:
            # Connection refused / reset: the shard is gone.  Respawn it
            # (warm, from the shared log) and shed this request.
            with self._lock:
                self._stats["forward_errors"] += 1
            self._handle_dead_shard(index)
            if self._shed_policy is not None:
                return self._shed(problems["problem"], index, priority,
                                  reason="shard_down")
            raise ServiceError(
                503, {"error": "shard_down", "shard": index,
                      "detail": str(exc)},
            ) from exc
        with self._lock:
            self._stats["routed"] += 1
            self._per_shard_routed[index] += 1
        doc["id"] = f"s{index}-{doc['id']}"
        doc["shard"] = index
        return doc

    def _handle_dead_shard(self, index: int) -> None:
        """Replace a dead shard, once: the first caller claims the respawn
        under the lock and spawns; concurrent callers return at once."""
        with self._lock:
            if (self._draining or not self.respawn
                    or index in self._respawning
                    or self._handles[index].alive):
                return  # replaced, or being replaced by another thread
            self._respawning.add(index)
            self._stats["respawns"] += 1
        try:
            self._handles[index].kill()  # reap the zombie if any
            self._handles[index] = self._spawn(index)
        finally:
            with self._lock:
                self._respawning.discard(index)

    def _shed(self, problem: CoSchedulingProblem, index: int,
              priority: int, reason: str) -> dict:
        fp = problem_fingerprint(problem)
        report, spec_used = self._shed_policy.solve(
            problem, budget=Budget(wall_time=1.0))
        ticket_id = f"shed-{next(self._ids)}"
        doc = {
            "id": ticket_id,
            "fingerprint": fp,
            "state": "done",
            "solver": spec_used,
            "priority": priority,
            "disposition": "shed",
            "shed": True,
            "shed_reason": reason,
            "shard": index,
            "objective": report.objective,
            "schedule": schedule_to_dict(report.schedule),
            "solved_by": report.solver,
            "optimal": report.optimal,
            "warm_started": False,
            "time_seconds": report.solve_seconds,
        }
        with self._lock:
            self._stats["shed"] += 1
            self._shed_tickets[ticket_id] = doc
            while len(self._shed_tickets) > _SHED_TICKET_CAP:
                self._shed_tickets.popitem(last=False)
        self._emit("svc_shed", id=ticket_id, fingerprint=fp, shard=index,
                   reason=reason, used=spec_used,
                   objective=report.objective)
        return doc

    # ------------------------------------------------------------------ #
    # status / metrics
    # ------------------------------------------------------------------ #

    def status(self, ticket_id: str) -> dict:
        """Resolve a namespaced ticket id (``s<k>-...`` or ``shed-...``)."""
        if ticket_id.startswith("shed-"):
            with self._lock:
                doc = self._shed_tickets.get(ticket_id)
            if doc is None:
                return {"error": "not_found",
                        "detail": f"no shed ticket {ticket_id!r}"}
            return doc
        if ticket_id.startswith("s") and "-" in ticket_id:
            prefix, _, local = ticket_id.partition("-")
            try:
                index = int(prefix[1:])
            except ValueError:
                index = -1
            if 0 <= index < self.num_shards:
                try:
                    doc = self._handles[index].client.status(local)
                except ServiceError as exc:
                    return exc.payload
                except OSError as exc:
                    return {"error": "shard_down", "shard": index,
                            "detail": str(exc)}
                doc["id"] = ticket_id
                doc["shard"] = index
                return doc
        return {"error": "not_found",
                "detail": f"unroutable ticket id {ticket_id!r}"}

    def health(self) -> dict:
        """Liveness summary: shard count, alive count, draining flag."""
        alive = [h.alive for h in self._handles]
        return {
            "shards": self.num_shards,
            "alive": sum(alive),
            "per_shard": {str(i): a for i, a in enumerate(alive)},
            "draining": self._draining,
        }

    def metrics(self) -> dict:
        """Dispatcher counters + per-shard metrics + summed aggregates."""
        with self._lock:
            stats = dict(self._stats)
            per_shard_routed = list(self._per_shard_routed)
        shard_metrics: Dict[str, object] = {}
        aggregate: Dict[str, float] = {}
        for handle in self._handles:
            key = str(handle.index)
            try:
                m = handle.client.metrics()
            except (ServiceError, OSError) as exc:
                shard_metrics[key] = {"error": "unreachable",
                                      "detail": str(exc)}
                continue
            shard_metrics[key] = m
            for k, v in m.get("requests", {}).items():
                if isinstance(v, (int, float)):
                    aggregate[k] = aggregate.get(k, 0) + v
        return {
            "dispatcher": {
                "shards": self.num_shards,
                "draining": self._draining,
                "shed_policy": (self._shed_policy.describe()
                                if self._shed_policy else None),
                **stats,
                "per_shard_routed": {
                    str(i): n for i, n in enumerate(per_shard_routed)
                },
            },
            "aggregate_requests": aggregate,
            "shards": shard_metrics,
        }


# ---------------------------------------------------------------------- #
# HTTP frontend
# ---------------------------------------------------------------------- #


class DispatcherHTTPServer(CoschedHTTPServer):
    """The single-process server's edge in front of one
    :class:`ShardedService`, plus ``GET /health``."""

    def __init__(self, address: Tuple[str, int], sharded: ShardedService,
                 verbose: bool = False, retry_after: int = 2):
        super().__init__(address, sharded, verbose=verbose,
                         retry_after=retry_after)
        self.routes["/health"] = sharded.health

    def submit(self, base_problem: Optional[CoSchedulingProblem],
               problem: CoSchedulingProblem, wait: float,
               budget: Optional[Budget] = None, **request) -> dict:
        request.update(wait=wait,
                       budget=None if budget is None else budget.to_dict())
        if base_problem is None:
            return self.service.submit(problem, **request)
        return self.service.submit_delta(base_problem, problem, **request)

    def status(self, ticket_id: str) -> dict:
        return self.service.status(ticket_id)


def start_dispatcher_server(
    sharded: ShardedService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> DispatcherHTTPServer:
    """Serve the dispatcher on a daemon thread; returns the server.

    Mirrors :func:`~repro.service.server.start_http_server`: ``port=0``
    binds an ephemeral port; stop with ``server.shutdown()`` followed by
    ``sharded.drain()``.
    """
    server = DispatcherHTTPServer((host, port), sharded, verbose=verbose)
    return server.serve_in_background("cosched-dispatcher")
