"""Structured search tracing: JSONL events from inside the solvers.

:class:`PerfCounters <repro.perf.counters.PerfCounters>` aggregates — it can
tell you *how many* nodes were dismissed, but not *when* the incumbent last
improved or which fallback stage produced the answer.  The tracer records the
sequence: one JSON object per line, timestamped relative to the tracer's
creation, cheap enough to leave on for diagnosis and exactly free when off
(every emit site is guarded by an ``if tracer is not None`` on a local).

Attach a tracer for the duration of a solve and every event streams out
(:func:`repro.runtime.run_solve` attaches to ``problem.counters`` and
restores the previous tracer on exit)::

    from repro.perf import Tracer
    from repro.runtime import run_solve
    from repro.solvers import Budget

    with Tracer("solve.jsonl") as tracer:
        run_solve(problem, "oastar", budget=Budget(wall_time=5.0),
                  tracer=tracer)

    summary = summarize_trace(read_trace("solve.jsonl"))   # repro.analysis

The CLI equivalent is ``cosched solve --trace solve.jsonl``.

Event schema (full field tables in ``docs/OBSERVABILITY.md``):

=============  ===============================================================
``ev``         emitted when
=============  ===============================================================
solve_start    a solver run begins (solver name, n, u, armed budget)
expand         a search state is expanded (A*/B&B node, depth, g/f)
dismiss        a subpath loses the Theorem-1 dismissal (aggregated per state)
level          the search first reaches a new graph level (depth)
bound          a lower bound is computed (root h, per-node LP bound)
incumbent      the best-known complete schedule improves (objective)
budget_stop    a budget limit trips (reason, consumption)
fallback       a FallbackChain stage hands over to the next solver
solve_end      the run returns (objective, wall time, optimal, stop reason)
svc_enqueue    the solve service admits a request into a priority lane
svc_coalesce   a request attaches to an in-flight solve (same fingerprint)
svc_cache_hit  the solution store answers a request without solving
svc_warm_start a cached incumbent seeds the solver for a request
svc_reject     admission control refuses a request (queue full / budget)
svc_shed       a request degrades to the cheap shed-policy chain
svc_delta      a ``/delta`` request resolves its base schedule
svc_drain      the service begins its graceful drain
=============  ===============================================================

The ``svc_*`` events come from :mod:`repro.service` (the serving layer),
not from inside solvers; they interleave with search events when the
service and its workers share one tracer.
"""

from __future__ import annotations

import json
import time
from typing import IO, Iterator, List, Union

__all__ = ["Tracer", "read_trace", "EVENT_TYPES"]

#: Every event type the in-repo solvers and the solve service emit
#: (the schema above).
EVENT_TYPES = (
    "solve_start",
    "expand",
    "dismiss",
    "level",
    "bound",
    "incumbent",
    "budget_stop",
    "fallback",
    "solve_end",
    "svc_enqueue",
    "svc_coalesce",
    "svc_cache_hit",
    "svc_warm_start",
    "svc_reject",
    "svc_shed",
    "svc_delta",
    "svc_drain",
)


class Tracer:
    """Append-only JSONL event sink.

    Parameters
    ----------
    sink:
        A path (opened for writing, closed by :meth:`close`) or an existing
        text file-like object (flushed but left open — the caller owns it).
    flush_every:
        Lines buffered between flushes; 1 flushes every event (useful when
        tailing a live solve), larger values amortize syscalls.
    """

    def __init__(self, sink: Union[str, IO[str]], flush_every: int = 64):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if isinstance(sink, (str, bytes)):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.flush_every = flush_every
        self.t0 = time.perf_counter()
        self.events_written = 0
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------------ #

    def emit(self, ev: str, **fields) -> None:
        """Write one event.  ``t`` (seconds since tracer creation) and
        ``ev`` are added automatically; remaining keyword arguments become
        the event's fields and must be JSON-serializable."""
        if self._closed:
            return
        record = {"t": round(time.perf_counter() - self.t0, 6), "ev": ev}
        record.update(fields)
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.events_written += 1
        self._pending += 1
        if self._pending >= self.flush_every:
            self._fh.flush()
            self._pending = 0

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._owns_fh:
            self._fh.close()
        self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(source: Union[str, IO[str]]) -> Iterator[dict]:
    """Iterate the events of a JSONL trace file (path or file-like).

    Blank lines are skipped; malformed lines raise ``ValueError`` with the
    offending line number (a truncated final line from a killed process is
    the common case — re-run with ``flush_every=1`` to avoid it).
    """
    if isinstance(source, (str, bytes)):
        fh: IO[str] = open(source, "r", encoding="utf-8")
        owns = True
    else:
        fh = source
        owns = False
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"malformed trace line {lineno}: {line[:80]!r}"
                ) from exc
    finally:
        if owns:
            fh.close()


def trace_to_list(source: Union[str, IO[str]]) -> List[dict]:
    """Eagerly read a whole trace (small files, tests)."""
    return list(read_trace(source))
