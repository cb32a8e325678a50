"""Serving layer: memoized, coalesced, warm-started co-scheduling solves.

The paper frames its offline optimum as a *performance target for online
co-scheduling systems*; this package is the long-lived scheduler that
target implies — a service that answers a stream of placement requests
instead of one in-process, catalog-built problem at a time.  Four layers,
each usable on its own:

* :mod:`repro.service.codec` — canonical, versioned JSON round-trip for
  :class:`~repro.core.problem.CoSchedulingProblem` and
  :class:`~repro.core.schedule.CoSchedule`, plus a content-addressed
  SHA-256 :func:`~repro.service.codec.problem_fingerprint` that is
  invariant to process/job relabeling (semantically identical requests
  hash identically);
* :mod:`repro.service.store` — :class:`SolutionStore`, a fingerprint-keyed
  best-known-schedule memo (in-memory LRU) over a pluggable
  :mod:`repro.service.backends` :class:`StoreBackend` (memory, or a
  crash-tolerant append-log + snapshot file) whose entries either answer
  a request outright or *warm-start* the next solver run;
* :mod:`repro.service.queue` — :class:`SolveService`, a threaded worker
  pool with admission control (per-request / global budget caps, bounded
  queue), priority lanes, request coalescing (concurrent requests with
  one fingerprint share one solve), graceful ``drain()`` and optional
  load-shedding to a cheap heuristic when the queue saturates;
* :mod:`repro.service.server` — a stdlib-only ``http.server`` JSON API
  (``POST /solve``, ``POST /delta``, ``GET /status/<id>``, ``GET
  /metrics``) over a :class:`SolveService`, with
  :mod:`repro.service.client` as the matching ``urllib`` client.

CLI: ``cosched serve`` runs the server (one process; ``--workers N``
solve threads, graceful drain on SIGTERM), ``cosched submit`` talks to
it, and ``cosched solve --problem-file/--save-problem`` round-trips
problems through the codec.  See ``docs/SERVICE.md`` and
``docs/DEPLOYMENT.md``.
"""

from .codec import (
    CodecError,
    canonical_pid_map,
    canonical_problem,
    load_problem,
    problem_fingerprint,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    schedule_from_canonical,
    schedule_from_dict,
    schedule_to_canonical,
    schedule_to_dict,
)
from .backends import AppendLogBackend, MemoryBackend, StoreBackend
from .store import SolutionStore, StoreEntry
from .queue import RequestRejected, ServiceTicket, SolveService
from .server import CoschedHTTPServer, start_http_server
from .client import ServiceClient, ServiceError

__all__ = [
    "CodecError",
    "canonical_pid_map",
    "canonical_problem",
    "load_problem",
    "problem_fingerprint",
    "problem_from_dict",
    "problem_to_dict",
    "save_problem",
    "schedule_from_canonical",
    "schedule_from_dict",
    "schedule_to_canonical",
    "schedule_to_dict",
    "StoreBackend",
    "MemoryBackend",
    "AppendLogBackend",
    "SolutionStore",
    "StoreEntry",
    "RequestRejected",
    "ServiceTicket",
    "SolveService",
    "CoschedHTTPServer",
    "start_http_server",
    "ServiceClient",
    "ServiceError",
]
