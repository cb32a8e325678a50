"""Stdlib-only HTTP front end for :class:`~repro.service.queue.SolveService`.

Three endpoints, all JSON:

``POST /solve``
    Body: ``{"problem": <problem doc>, "solver": <name>, "budget":
    {"wall_time": s, "max_expanded": n, "max_weight_evals": n},
    "priority": int, "refine": bool, "wait": seconds}``.  Everything but
    ``problem`` (a :func:`repro.service.codec.problem_to_dict` document)
    is optional.  Replies 200 with the ticket status when the request is
    already resolved (cache hit, or ``wait`` long enough), 202 with the
    ticket id otherwise, 400 for malformed documents / unknown solvers,
    429 with the structured :class:`RequestRejected` body when admission
    control refuses, and 503 with a ``Retry-After`` header while the
    service is draining (see :meth:`SolveService.drain
    <repro.service.queue.SolveService.drain>`).

``POST /delta``
    Like ``/solve`` but incremental: the body carries both
    ``base_problem`` (the previously solved instance) and ``problem``
    (the perturbed roster).  The service resolves the base schedule from
    its :class:`~repro.service.store.SolutionStore` by fingerprint and
    routes the solve through the registry's ``repair`` solver (see
    :meth:`SolveService.submit_delta
    <repro.service.queue.SolveService.submit_delta>` and
    ``docs/ONLINE.md``).  Same reply shapes and error mapping as
    ``/solve``; the ticket document additionally reports
    ``base_fingerprint`` and ``base_hit``.

``GET /status/<id>``
    The ticket's :meth:`~repro.service.queue.ServiceTicket.to_dict`
    (404 for unknown ids).

``GET /metrics``
    :meth:`SolveService.metrics` — request counters and hit/coalesce
    rates, queue depths per priority lane, store stats, and the merged
    solver :class:`~repro.perf.PerfCounters` snapshot.

Built on :class:`http.server.ThreadingHTTPServer` — no dependencies
beyond the standard library.  :func:`start_http_server` binds (port 0
picks an ephemeral port), serves on a daemon thread, and returns the
server; call ``shutdown()`` when done.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..solvers import Budget
from .codec import CodecError, problem_from_dict
from .queue import RequestRejected, SolveService

__all__ = ["CoschedHTTPServer", "start_http_server"]

#: Rejections that blame the request's solver spec (400); every other
#: admission refusal but ``draining`` is load (429).
_SPEC_REASONS = ("unknown_solver", "bad_spec", "bad_param",
                 "unsupported_scenario")


def _budget_from_dict(d) -> Optional[Budget]:
    """The wire budget: ``null``, or an object of known limit fields."""
    if d is None:
        return None
    if not isinstance(d, dict):
        raise ValueError(
            f"budget must be an object or null, not {type(d).__name__}")
    if not d:
        return None
    unknown = set(d) - {"wall_time", "max_expanded", "max_weight_evals"}
    if unknown:
        raise ValueError(f"unknown budget field(s): {sorted(unknown)}")
    return Budget(
        wall_time=None if d.get("wall_time") is None else float(d["wall_time"]),
        max_expanded=(None if d.get("max_expanded") is None
                      else int(d["max_expanded"])),
        max_weight_evals=(None if d.get("max_weight_evals") is None
                          else int(d["max_weight_evals"])),
    )


class _Handler(BaseHTTPRequestHandler):
    """The HTTP edge: parses and validates every request, hands it to the
    server's :class:`SolveService`, and maps errors to statuses."""

    server: "CoschedHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle on, a
    # kept-alive connection waits out the peer's delayed ACK on each reply.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #

    def _drain_body(self) -> None:
        """Consume the request body before replying on a non-handled POST.

        With HTTP/1.1 keep-alive, unread body bytes would be parsed as the
        next request on the same connection, desyncing the client; a
        length that is not a count leaves the body's end unknown, so the
        connection closes after the reply.
        """
        try:
            remaining = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            remaining = -1
        if remaining < 0:
            self.close_connection = True
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                break
            remaining -= len(chunk)

    def _reply(self, status: int, payload: dict,
               retry_after: Optional[int] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _no_route(self) -> None:
        self._reply(404, {"error": "not_found",
                          "detail": f"no route {self.path!r}"})

    def log_message(self, fmt, *args) -> None:  # pragma: no cover
        if self.server.verbose:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path.startswith("/status/"):
            ticket_id = self.path[len("/status/"):]
            ticket = self.server.service.ticket(ticket_id)
            if ticket is None:
                self._reply(404, {"error": "not_found",
                                  "detail": f"no ticket {ticket_id!r}"})
                return
            self._reply(200, ticket.to_dict())
            return
        if self.path != "/metrics":
            self._no_route()
            return
        self._reply(200, self.server.service.metrics())

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path not in ("/solve", "/delta"):
            self._drain_body()
            self._no_route()
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # read(-1) would block until the client closes; the body's
                # end is unknown, so the connection cannot be reused.
                self.close_connection = True
                raise ValueError(f"negative Content-Length {length}")
            doc = json.loads(self.rfile.read(length) or b"{}")
            problem = problem_from_dict(doc["problem"])
            base_problem = None
            if self.path == "/delta":
                base_problem = problem_from_dict(doc["base_problem"])
            budget = _budget_from_dict(doc.get("budget"))
            wait = float(doc.get("wait", 0.0))
            if not wait <= threading.TIMEOUT_MAX:  # also refuses NaN
                raise ValueError(
                    f"wait must be at most {threading.TIMEOUT_MAX} seconds")
            request = dict(
                solver=doc.get("solver"), budget=budget,
                priority=int(doc.get("priority", 1)),
                refine=bool(doc.get("refine", False)),
            )
        # OverflowError: int() of an infinite priority or budget count.
        except (KeyError, TypeError, ValueError, OverflowError,
                CodecError) as exc:
            self._reply(400, {"error": "bad_request", "detail": str(exc)})
            return
        service = self.server.service
        try:
            if base_problem is None:
                ticket = service.submit(problem, **request)
            else:
                ticket = service.submit_delta(base_problem, problem,
                                              **request)
        except RequestRejected as exc:
            if exc.reason == "draining":
                # Graceful drain: tell clients when to come back rather
                # than making them distinguish this from admission limits.
                self._reply(503, exc.to_dict(),
                            retry_after=self.server.retry_after)
                return
            self._reply(400 if exc.reason in _SPEC_REASONS else 429,
                        exc.to_dict())
            return
        if wait > 0:
            ticket.wait(wait)
        doc = ticket.to_dict()
        self._reply(200 if doc["state"] in ("done", "failed") else 202, doc)


class CoschedHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`SolveService`."""

    daemon_threads = True
    #: ``Retry-After`` seconds sent with 503 responses while the service
    #: drains: how long a well-behaved client should wait before retrying
    #: against the restarted instance.
    retry_after = 2

    def __init__(self, address: Tuple[str, int], service: SolveService,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_http_server(
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> CoschedHTTPServer:
    """Start serving ``service`` on a daemon thread; returns the server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address`` or ``server.url``).  The service's worker
    pool is started if it is not already running.  Stop with
    ``server.shutdown()`` followed by ``service.stop()``.
    """
    service.start()
    server = CoschedHTTPServer((host, port), service, verbose=verbose)
    threading.Thread(target=server.serve_forever, name="cosched-http",
                     daemon=True).start()
    return server
