"""Persistence backends for the solution store.

:class:`~repro.service.store.SolutionStore` keeps the in-memory LRU and
the monotone merge; *where accepted updates go and how they come back* is
a :class:`StoreBackend`.  Three implementations:

* :class:`MemoryBackend` — nothing persists (the default);
* :class:`AppendLogBackend` — the production backend: a JSONL **append
  log** plus an optional **snapshot** file.  Every accepted update is one
  ``O_APPEND`` line write (atomic per line on POSIX, so *several
  processes can share one log file*); :meth:`~AppendLogBackend.replay`
  reads the snapshot first, then the log, tolerating a truncated final
  line (the signature of a crash mid-append); :meth:`~AppendLogBackend.compact`
  monotone-merges the caller's entries with everything durably in the log,
  writes the merge to a fresh snapshot (temp file, fsync, atomic rename),
  and truncates the log *only if no new bytes landed since it was read* —
  a concurrent appender (another process mid-solve) just leaves the log in
  place, where the next replay or compaction folds it in.  Compaction is
  therefore safe to run against live appenders; the drain/restart runbook
  in ``docs/DEPLOYMENT.md`` stays the recommended time to do it because a
  quiescent log is the only one that actually shrinks;
* the legacy single-file JSONL mode of ``SolutionStore(path=...)`` is now
  an ``AppendLogBackend`` whose log *is* that path (snapshot at
  ``<path>.snap``), so existing stores replay unchanged.

The monotone merge in the store makes replay idempotent and
order-insensitive, so writers sharing a log may even record the same key:
the best entry wins however their lines interleave.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .store import StoreEntry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["StoreBackend", "MemoryBackend", "AppendLogBackend"]


class StoreBackend:
    """Interface between :class:`SolutionStore` and durable storage.

    ``replay()`` yields the entries to seed the store with (best-effort:
    corrupt tails are skipped, not fatal); ``append(entry)`` records one
    accepted update; ``compact(entries)`` rewrites durable state to
    exactly ``entries`` (the store's current contents); ``close()``
    releases file handles.  Implementations must be safe to call from
    several threads of one process; cross-process safety is documented
    per backend.
    """

    #: Human-readable backend kind, reported by ``SolutionStore.stats()``.
    kind = "abstract"

    def replay(self) -> Iterator[StoreEntry]:
        raise NotImplementedError

    def append(self, entry: StoreEntry) -> None:
        raise NotImplementedError

    def compact(self, entries: Iterable[StoreEntry]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> str:
        return self.kind


class MemoryBackend(StoreBackend):
    """No persistence: replay is empty, appends are dropped."""

    kind = "memory"

    def replay(self) -> Iterator[StoreEntry]:
        return iter(())

    def append(self, entry: StoreEntry) -> None:
        pass

    def compact(self, entries: Iterable[StoreEntry]) -> None:
        pass


def _merge_entry(best: Dict[str, StoreEntry], entry: StoreEntry) -> None:
    """The store's monotone merge (see ``SolutionStore.record``), applied
    to a plain dict during compaction."""
    old = best.get(entry.fingerprint)
    if old is not None:
        improves = entry.objective < old.objective
        upgrades = (entry.optimal and not old.optimal
                    and entry.objective <= old.objective)
        if not (improves or upgrades):
            return
    best[entry.fingerprint] = entry


def _iter_jsonl_entries(path: str, strict_tail: bool) -> Iterator[StoreEntry]:
    """Yield entries from a JSONL file, tolerating a truncated last line.

    A malformed line that is *not* the last one means real corruption and
    raises ``ValueError`` (operators should restore from snapshot — see
    the failure-modes table in ``docs/DEPLOYMENT.md``); a malformed final
    line is the expected residue of a crash mid-append and is skipped.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            doc = json.loads(text)
            entry = StoreEntry.from_dict(doc)
        except (ValueError, KeyError, TypeError) as exc:
            if i == len(lines) - 1 and not strict_tail:
                return  # crash-truncated tail: recover everything before it
            raise ValueError(
                f"{path}:{i + 1}: corrupt store record: {text[:80]!r}"
            ) from exc
        yield entry


class AppendLogBackend(StoreBackend):
    """Append-log + snapshot persistence, shareable across processes.

    Parameters
    ----------
    path:
        The append-log file.  Created on first append; every accepted
        update is one JSONL line written through an ``O_APPEND`` file
        descriptor, so concurrent appends from several processes
        interleave whole lines.
    snapshot_path:
        Where :meth:`compact` writes the folded state (default
        ``<path>.snap``).  Replay order is snapshot first, then log.
    """

    kind = "append-log"

    def __init__(self, path: str, snapshot_path: Optional[str] = None):
        self.path = path
        self.snapshot_path = (
            snapshot_path if snapshot_path is not None else path + ".snap"
        )
        self._fd: Optional[int] = None
        self._lock = threading.Lock()

    def describe(self) -> str:
        return f"{self.kind}:{self.path}"

    # ------------------------------------------------------------------ #

    def replay(self) -> Iterator[StoreEntry]:
        # Snapshot lines were written by compact() in one shot, so any
        # malformed line there is real corruption; the log may carry a
        # crash-truncated tail.
        yield from _iter_jsonl_entries(self.snapshot_path, strict_tail=True)
        yield from _iter_jsonl_entries(self.path, strict_tail=False)

    def _ensure_fd(self) -> int:
        """The O_APPEND descriptor, opened lazily (call under the lock)."""
        if self._fd is None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def append(self, entry: StoreEntry) -> None:
        line = json.dumps(entry.to_dict(), separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            fd = self._ensure_fd()
            # Shared flock: appends proceed concurrently with each other
            # (O_APPEND keeps lines whole) but exclude a compactor's
            # check-and-truncate window in another process.
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_SH)
            try:
                os.write(fd, data)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)

    def _read_complete_log(self) -> Tuple[int, List[StoreEntry]]:
        """The log's durably complete prefix: ``(byte length, entries)``.

        Bytes after the last newline are a crash's torn tail and are
        excluded (and preserved on disk, matching what :meth:`replay`
        tolerates).  A malformed line *before* the last complete one is
        real corruption and raises, same policy as replay.
        """
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return 0, []
        cut = data.rfind(b"\n") + 1  # 0 when no complete line yet
        lines = data[:cut].split(b"\n")[:-1] if cut else []
        entries: List[StoreEntry] = []
        for i, raw in enumerate(lines):
            text = raw.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                entries.append(StoreEntry.from_dict(json.loads(text)))
            except (ValueError, KeyError, TypeError) as exc:
                if i == len(lines) - 1:
                    continue  # a cut line that still got its newline
                raise ValueError(
                    f"{self.path}:{i + 1}: corrupt store record: "
                    f"{text[:80]!r}"
                ) from exc
        return cut, entries

    def compact(self, entries: Iterable[StoreEntry]) -> None:
        """Fold durable state into the snapshot; truncate the log if safe.

        The new snapshot is the **monotone merge** of ``entries`` (the
        calling store's view), the previous snapshot, and every complete
        line already in the log — so entries appended by *other*
        processes sharing the log, or folded by an earlier compaction the
        caller never replayed, survive.  The snapshot is written to a
        temp file, fsynced and atomically renamed, so a crash
        mid-compaction leaves the previous snapshot + log intact.  The log
        is then truncated only when its size still equals the merged
        prefix (checked under an exclusive ``flock``): if a concurrent
        append landed in the window, the log is left untouched — its
        pre-merge prefix duplicates the snapshot, which replay's monotone
        merge makes harmless.
        """
        best: Dict[str, StoreEntry] = {}
        for entry in entries:
            _merge_entry(best, entry)
        for entry in _iter_jsonl_entries(self.snapshot_path,
                                         strict_tail=True):
            _merge_entry(best, entry)
        cut, logged = self._read_complete_log()
        for entry in logged:
            _merge_entry(best, entry)
        tmp = self.snapshot_path + ".tmp"
        parent = os.path.dirname(os.path.abspath(self.snapshot_path))
        os.makedirs(parent, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            for fingerprint in sorted(best):
                fh.write(json.dumps(best[fingerprint].to_dict(),
                                    separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        with self._lock:
            fd = self._ensure_fd()
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                if os.fstat(fd).st_size == cut:
                    os.ftruncate(fd, 0)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    # ------------------------------------------------------------------ #

    def sizes(self) -> dict:
        """Log/snapshot byte sizes (0 when absent) — operator telemetry."""
        def _size(p: str) -> int:
            try:
                return os.path.getsize(p)
            except OSError:
                return 0
        return {"log_bytes": _size(self.path),
                "snapshot_bytes": _size(self.snapshot_path)}


def entries_in_file(path: str) -> List[StoreEntry]:
    """Eagerly read one JSONL store file (tests, tooling)."""
    return list(_iter_jsonl_entries(path, strict_tail=False))
