"""Trace files, the replay simulator, and end-to-end session behavior."""

import pytest

from repro.online import (
    ProblemSession,
    load_trace,
    replay_trace,
    synthetic_trace,
    write_trace,
)
from repro.runtime import SpecError


def test_synthetic_trace_is_deterministic():
    a = synthetic_trace(12, events=6, seed=5)
    b = synthetic_trace(12, events=6, seed=5)
    assert a == b
    c = synthetic_trace(12, events=6, seed=6)
    assert c != a


def test_synthetic_trace_shape():
    trace = synthetic_trace(12, events=6, seed=0)
    assert trace["format"] == "repro.trace"
    assert len(trace["initial"]) == 12
    assert len(trace["events"]) == 6
    ops = {e["op"] for e in trace["events"]}
    assert ops <= {"arrive", "depart", "update"}
    for name, rate in trace["initial"]:
        assert 0.0 <= rate <= 1.0


def test_trace_roundtrip(tmp_path):
    path = str(tmp_path / "trace.json")
    trace = synthetic_trace(8, events=4, seed=1)
    write_trace(trace, path)
    assert load_trace(path) == trace


def test_load_trace_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"format": "something-else"}')
    with pytest.raises(ValueError, match="repro.trace"):
        load_trace(path)
    bad_version = synthetic_trace(4, events=1)
    bad_version["version"] = 99
    with open(path, "w", encoding="utf-8") as fh:
        import json

        json.dump(bad_version, fh)
    with pytest.raises(ValueError, match="version"):
        load_trace(path)


def test_replay_guarantees_and_bookkeeping():
    trace = synthetic_trace(12, events=3, seed=0)
    result = replay_trace(trace, base="hastar", saturation=4.0)
    assert result["never_worse_than_greedy"] is True
    assert len(result["events"]) == 3
    assert result["mean_regret"] >= 0.0
    assert result["max_regret"] >= result["mean_regret"]
    assert result["u"] == 4
    assert result["specs"]["repair"] == "repair?base=hastar"
    for event in result["events"]:
        assert event["repair_ms"] > 0 and event["full_ms"] > 0
        assert not event["worse_than_greedy"]
        total = event["machines_kept"] + event["machines_resolved"]
        assert total == event["n"] // 4
    stats = result["session_stats"]
    assert stats["events"] == 3
    assert stats["repairs"] == 3
    assert stats["solves"] == 1  # the initial solve only


def test_replay_rejects_unknown_base():
    trace = synthetic_trace(8, events=1, seed=0)
    with pytest.raises(SpecError):
        replay_trace(trace, base="nope")


def test_session_repair_before_solve_falls_back():
    s = ProblemSession(jobs=[(f"j{i}", 0.3) for i in range(8)])
    report = s.repair()  # no prior state: behaves like solve()
    assert report.schedule is not None
    assert s.stats["solves"] == 1 and s.stats["repairs"] == 0
    assert s.fingerprint is not None


def test_session_requires_capable_base():
    with pytest.raises(SpecError) as exc:
        ProblemSession(base="ip")
    assert exc.value.reason == "repair_base"


def test_session_tracks_fingerprint_across_repairs():
    s = ProblemSession(
        jobs=[(f"j{i}", 0.2 + 0.05 * i) for i in range(8)],
        saturation=4.0,
    )
    s.solve()
    fp0 = s.fingerprint
    s.arrive("x", 0.5)
    s.depart("j1")
    s.repair()
    assert s.fingerprint != fp0
    assert s.stats["repairs"] == 1
    # The adopted schedule covers the new roster.
    assert s.problem.workload.n_real == 8
