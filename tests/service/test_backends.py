"""Store backends: append-log round-trip, snapshot/compaction, crash
recovery, and multi-writer interleaving."""

import json
import os

import pytest

from repro.service import (
    AppendLogBackend,
    MemoryBackend,
    SolutionStore,
    StoreEntry,
)
from repro.service.backends import entries_in_file
from repro.service.codec import problem_fingerprint, schedule_to_canonical
from repro.runtime import run_solve
from repro.workloads.synthetic import random_serial_instance


def _entry(seed=0, objective=None, optimal=False):
    """A real StoreEntry (canonical schedule) for a synthetic problem."""
    problem = random_serial_instance(6, seed=seed)
    report = run_solve(problem, "pg")
    return StoreEntry(
        fingerprint=problem_fingerprint(problem),
        schedule=schedule_to_canonical(problem, report.schedule),
        objective=report.objective if objective is None else objective,
        solver="pg",
        optimal=optimal,
    )


def test_memory_backend_drops_everything():
    backend = MemoryBackend()
    backend.append(_entry(0))
    assert list(backend.replay()) == []
    assert backend.describe() == "memory"


def test_append_log_roundtrip(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    e1, e2 = _entry(1), _entry(2)
    backend.append(e1)
    backend.append(e2)
    backend.close()

    replayed = list(AppendLogBackend(path).replay())
    assert [e.fingerprint for e in replayed] == [e1.fingerprint,
                                                 e2.fingerprint]
    assert replayed[0].objective == pytest.approx(e1.objective)
    assert replayed[0].schedule.groups == e1.schedule.groups


def test_compact_moves_state_to_snapshot(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    entries = [_entry(i) for i in range(3)]
    for e in entries:
        backend.append(e)
    backend.compact(entries[:2])  # e.g. one entry was evicted

    # Log truncated (quiescent), snapshot carries the folded state —
    # including the entry the caller's in-memory view had evicted, which
    # was still durable in the log and survives through the merge.
    assert os.path.getsize(path) == 0
    assert os.path.exists(path + ".snap")
    replayed = list(backend.replay())
    assert len(replayed) == 3
    assert {e.fingerprint for e in replayed} == {
        e.fingerprint for e in entries
    }
    # Appends after compaction go to the (fresh) log and replay after
    # the snapshot.
    extra = _entry(4)
    backend.append(extra)
    backend.close()
    assert len(list(AppendLogBackend(path).replay())) == 4
    sizes = backend.sizes()
    assert sizes["log_bytes"] > 0 and sizes["snapshot_bytes"] > 0


def test_compact_merge_is_monotone(tmp_path):
    """A stale (worse) caller entry cannot clobber a better logged one."""
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    e = _entry(5)
    worse = StoreEntry(e.fingerprint, e.schedule, e.objective + 10.0,
                       "pg", False)
    backend.append(e)
    backend.compact([worse])
    backend.close()
    replayed = list(AppendLogBackend(path).replay())
    assert len(replayed) == 1
    assert replayed[0].objective == pytest.approx(e.objective)


def test_append_racing_compaction_survives(tmp_path, monkeypatch):
    """An append landing between compaction's log read and its truncate
    check (another process mid-solve) must survive replay."""
    path = str(tmp_path / "memo.jsonl")
    a = AppendLogBackend(path)
    b = AppendLogBackend(path)
    e1, late = _entry(1), _entry(2)
    a.append(e1)
    orig = a._read_complete_log

    def read_then_race():
        result = orig()
        b.append(late)  # lands inside the compaction window
        return result

    monkeypatch.setattr(a, "_read_complete_log", read_then_race)
    a.compact([e1])
    a.close()
    b.close()
    # The racing append was not folded into the snapshot, so the log must
    # not have been truncated; replay sees both entries.
    assert os.path.getsize(path) > 0
    fps = {e.fingerprint for e in AppendLogBackend(path).replay()}
    assert fps == {e1.fingerprint, late.fingerprint}


def test_concurrent_append_hammer_survives_compactions(tmp_path):
    """Threads appending while compaction runs repeatedly: every entry is
    durable afterwards, and a final quiescent compaction still shrinks
    the log to nothing."""
    import threading

    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    entries = [_entry(i) for i in range(8)]
    barrier = threading.Barrier(3)

    def writer(chunk):
        barrier.wait()
        for e in chunk:
            backend.append(e)

    threads = [
        threading.Thread(target=writer, args=(entries[i::2],))
        for i in range(2)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    for _ in range(5):
        backend.compact([])  # compactor with an empty in-memory view
    for t in threads:
        t.join()
    backend.compact([])
    backend.close()
    assert os.path.getsize(path) == 0  # quiescent at the end: truncated
    fps = {e.fingerprint for e in AppendLogBackend(path).replay()}
    assert fps == {e.fingerprint for e in entries}


def test_compact_preserves_torn_tail(tmp_path):
    """A crash's torn tail in the log blocks truncation but not the
    snapshot; replay keeps tolerating it afterwards."""
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    e1, e2 = _entry(1), _entry(2)
    backend.append(e1)
    backend.append(e2)
    backend.close()
    with open(path, "r", encoding="utf-8") as fh:
        data = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])

    fresh = AppendLogBackend(path)
    fresh.compact([])
    fresh.close()
    assert os.path.getsize(path) > 0  # torn bytes kept in place
    replayed = {e.fingerprint for e in AppendLogBackend(path).replay()}
    assert replayed == {e1.fingerprint}


def test_replay_recovers_from_crash_truncated_tail(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    e1, e2 = _entry(1), _entry(2)
    backend.append(e1)
    backend.append(e2)
    backend.close()
    # Simulate a crash mid-append: chop the final line in half.
    with open(path, "r", encoding="utf-8") as fh:
        data = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])

    replayed = list(AppendLogBackend(path).replay())
    assert [e.fingerprint for e in replayed] == [e1.fingerprint]


def test_mid_file_corruption_is_fatal(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    backend.append(_entry(1))
    backend.append(_entry(2))
    backend.close()
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[0] = lines[0][:20]  # corrupt a NON-final line
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt store record"):
        list(AppendLogBackend(path).replay())


def test_snapshot_corruption_is_fatal_even_at_tail(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    backend = AppendLogBackend(path)
    e = _entry(1)
    backend.append(e)
    backend.compact([e])
    snap = path + ".snap"
    with open(snap, "a", encoding="utf-8") as fh:
        fh.write('{"half a record')
    with pytest.raises(ValueError):
        list(AppendLogBackend(path).replay())


def test_interleaved_writers_share_one_log(tmp_path):
    """Two backends on one path (stand-in for two writer processes)."""
    path = str(tmp_path / "memo.jsonl")
    a = AppendLogBackend(path)
    b = AppendLogBackend(path)
    e1, e2, e3 = _entry(1), _entry(2), _entry(3)
    a.append(e1)
    b.append(e2)
    a.append(e3)
    a.close()
    b.close()
    fps = [e.fingerprint for e in entries_in_file(path)]
    assert fps == [e1.fingerprint, e2.fingerprint, e3.fingerprint]
    # Every line is whole JSON — no interleaved partial writes.
    for line in open(path, encoding="utf-8"):
        json.loads(line)


def test_store_replays_through_monotone_merge(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    e = _entry(5)
    worse = StoreEntry(e.fingerprint, e.schedule, e.objective + 10.0,
                       "pg", False)
    backend = AppendLogBackend(path)
    backend.append(worse)
    backend.append(e)      # better: replay must keep this one
    backend.append(worse)  # stale duplicate: replay must drop it
    backend.close()

    store = SolutionStore(path=path)
    assert len(store) == 1
    assert store.peek(e.fingerprint).objective == pytest.approx(e.objective)
    assert store.stats()["backend"] == f"append-log:{path}"


def test_store_path_legacy_jsonl_still_replays(tmp_path):
    """Pre-backend stores were plain JSONL at ``path`` — same file, same
    lines, so they replay through the new backend unchanged."""
    path = str(tmp_path / "legacy.jsonl")
    e = _entry(7)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(e.to_dict()) + "\n")
    store = SolutionStore(path=path)
    assert store.peek(e.fingerprint) is not None


def test_store_compact_then_restart(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    store = SolutionStore(path=path)
    e1, e2 = _entry(1), _entry(2)
    store.record(e1.fingerprint, e1.schedule, e1.objective, e1.solver)
    store.record(e2.fingerprint, e2.schedule, e2.objective, e2.solver)
    store.compact()
    store.close()
    assert os.path.getsize(path) == 0  # folded into the snapshot

    again = SolutionStore(path=path)
    assert len(again) == 2
    assert again.peek(e1.fingerprint) is not None
