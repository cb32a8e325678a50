"""Fingerprint-keyed memo store for best-known schedules.

A :class:`SolutionStore` maps a problem fingerprint (see
:func:`repro.service.codec.problem_fingerprint`) to the best schedule any
solver has produced for that problem, together with its objective, solver
provenance, and optimality flag.  Lookups either answer a request outright
(a *cache hit* — proven-optimal entries are always final) or hand back an
incumbent to :func:`warm-start <repro.solvers.base.Solver.solve>` a fresh
run.

Because the fingerprint is relabeling-invariant, schedules are stored in
**canonical pid labeling** (:func:`repro.service.codec.schedule_to_canonical`);
consumers translate an entry back into their own problem's labeling with
:func:`repro.service.codec.schedule_from_canonical` before using it.  The
:class:`~repro.service.queue.SolveService` does this per ticket.

The store is an in-memory LRU bounded by ``capacity``.  Persistence is
delegated to a :class:`~repro.service.backends.StoreBackend`: existing
entries are replayed through the monotone merge on construction, and every
accepted update is appended.  ``path=`` remains as the convenience spelling
for an :class:`~repro.service.backends.AppendLogBackend` at that path, so a
restarted service keeps its memo.

``record()`` is monotone: an update is accepted only if the fingerprint is
new, the new objective is strictly better, or the new entry proves
optimality — a worse re-solve can never clobber a better cached schedule.

All public methods take the store's lock, so one instance can back many
worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.schedule import CoSchedule
from .codec import schedule_from_dict, schedule_to_dict

__all__ = ["StoreEntry", "SolutionStore"]


@dataclass(frozen=True)
class StoreEntry:
    """Best-known solution for one problem fingerprint."""

    fingerprint: str
    schedule: CoSchedule
    objective: float
    solver: str
    optimal: bool = False

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "schedule": schedule_to_dict(self.schedule),
            "objective": self.objective,
            "solver": self.solver,
            "optimal": self.optimal,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StoreEntry":
        return cls(
            fingerprint=str(d["fingerprint"]),
            schedule=schedule_from_dict(d["schedule"]),
            objective=float(d["objective"]),
            solver=str(d.get("solver", "?")),
            optimal=bool(d.get("optimal", False)),
        )


class SolutionStore:
    """In-memory LRU memo of :class:`StoreEntry` over a pluggable backend.

    Parameters
    ----------
    capacity:
        Maximum resident entries; the least-recently-*used* entry is
        evicted first (a lookup refreshes recency).
    path:
        Convenience: persist through an
        :class:`~repro.service.backends.AppendLogBackend` rooted at this
        JSONL file (replayed on construction; every accepted update
        appends a line).  Mutually exclusive with ``backend``.
    backend:
        An explicit :class:`~repro.service.backends.StoreBackend`.  The
        store owns it (``close()`` closes it).
    """

    def __init__(self, capacity: int = 1024, path: Optional[str] = None,
                 backend=None):
        from .backends import AppendLogBackend, MemoryBackend

        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if path is not None and backend is not None:
            raise ValueError("give path or backend, not both")
        self.capacity = capacity
        self.path = path
        if backend is None:
            backend = (AppendLogBackend(path) if path is not None
                       else MemoryBackend())
        self.backend = backend
        self._entries: "OrderedDict[str, StoreEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.updates = 0
        for entry in self.backend.replay():
            # Replay runs through the monotone merge, so duplicate or
            # out-of-order log lines (multi-process appenders, repeated
            # restarts) converge to the same state.
            self._record_locked(entry, persist=False)
        # Replay counts neither as traffic nor as updates.
        self.hits = self.misses = self.updates = 0

    # ------------------------------------------------------------------ #

    def lookup(self, fingerprint: str) -> Optional[StoreEntry]:
        """Return the cached entry (refreshing LRU recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def peek(self, fingerprint: str) -> Optional[StoreEntry]:
        """Like :meth:`lookup` but without touching recency or counters."""
        with self._lock:
            return self._entries.get(fingerprint)

    def record(
        self,
        fingerprint: str,
        schedule: CoSchedule,
        objective: float,
        solver: str,
        optimal: bool = False,
    ) -> bool:
        """Offer a solution; returns True if it became the stored entry.

        Monotone merge: accepted iff the fingerprint is unknown, the
        objective strictly improves, or the offer upgrades an equal-quality
        entry to proven-optimal.
        """
        entry = StoreEntry(fingerprint, schedule, float(objective),
                           solver, bool(optimal))
        with self._lock:
            return self._record_locked(entry, persist=True)

    def _record_locked(self, entry: StoreEntry, persist: bool) -> bool:
        old = self._entries.get(entry.fingerprint)
        if old is not None:
            improves = entry.objective < old.objective
            upgrades = (entry.optimal and not old.optimal
                        and entry.objective <= old.objective)
            if not (improves or upgrades):
                return False
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self.updates += 1
        if persist:
            self.backend.append(entry)
        return True

    # ------------------------------------------------------------------ #

    def compact(self) -> None:
        """Fold the backend's durable state down to the live entries.

        Only meaningful for log-structured backends.  Safe against
        concurrent appenders (the backend merges the log and only
        truncates when nothing new landed), but the log only actually
        shrinks while quiescent — see the drain/restart runbook in
        ``docs/DEPLOYMENT.md``.
        """
        with self._lock:
            entries = list(self._entries.values())
        self.backend.compact(entries)

    def close(self) -> None:
        """Release the backend's file handles (appends re-open lazily)."""
        self.backend.close()

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters plus the derived hit rate."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "backend": self.backend.describe(),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "evictions": self.evictions,
                "updates": self.updates,
            }
