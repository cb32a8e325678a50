"""Tracer unit tests plus solver-integration round trips."""

import io
import json

import pytest

from repro.perf import EVENT_TYPES, PerfCounters, Tracer, read_trace
from repro.perf.tracer import trace_to_list
from repro.solvers import Budget, FallbackChain, OAStar
from repro.workloads import serial_mix


class TestTracerUnit:
    def test_writes_jsonl_with_t_and_ev(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.emit("solve_start", solver="x", n=8, u=4)
            tracer.emit("solve_end", solver="x", objective=1.5)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["ev"] == "solve_start"
        assert first["solver"] == "x"
        assert isinstance(first["t"], float) and first["t"] >= 0

    def test_timestamps_monotone(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            for _ in range(5):
                tracer.emit("expand")
        ts = [e["t"] for e in read_trace(str(path))]
        assert ts == sorted(ts)

    def test_file_like_sink_left_open(self):
        buf = io.StringIO()
        tracer = Tracer(buf, flush_every=1)
        tracer.emit("level", depth=1)
        tracer.close()
        assert not buf.closed  # caller owns it
        assert json.loads(buf.getvalue())["depth"] == 1

    def test_flush_every_validation(self):
        with pytest.raises(ValueError):
            Tracer(io.StringIO(), flush_every=0)

    def test_emit_after_close_is_noop(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        tracer.emit("expand")
        tracer.close()
        tracer.emit("expand")
        tracer.close()  # idempotent
        assert tracer.events_written == 1

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t":0.0,"ev":"expand"}\n\n{"t":0.1,"ev":"level"}\n')
        assert [e["ev"] for e in read_trace(str(path))] == ["expand", "level"]

    def test_read_trace_reports_malformed_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t":0.0,"ev":"expand"}\n{broken\n')
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(str(path)))

    def test_schema_is_one_process_service(self):
        # The service is one process: no routing, spawn or exit events.
        assert not [ev for ev in EVENT_TYPES if ev.startswith("svc_shard")]
        assert {"svc_delta", "svc_drain", "svc_shed"} <= set(EVENT_TYPES)

    def test_trace_to_list(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.emit("incumbent", objective=2.0)
        events = trace_to_list(str(path))
        assert len(events) == 1
        assert events[0]["objective"] == 2.0


class TestCountersWiring:
    def test_tracer_defaults_to_none_and_survives_reset(self):
        counters = PerfCounters()
        assert counters.tracer is None
        sentinel = object()
        counters.tracer = sentinel
        counters.reset()
        assert counters.tracer is sentinel


class TestSolverIntegration:
    def test_oastar_emits_well_formed_events(self, tmp_path):
        problem = serial_mix(["BT", "CG", "EP", "FT"], "dual")
        path = tmp_path / "solve.jsonl"
        with Tracer(str(path), flush_every=1) as tracer:
            problem.counters.tracer = tracer
            OAStar().solve(problem)
        problem.counters.tracer = None
        events = trace_to_list(str(path))
        assert events[0]["ev"] == "solve_start"
        assert events[0]["budget"] is None
        assert events[-1]["ev"] == "solve_end"
        assert events[-1]["optimal"] is True
        assert events[-1]["stopped"] is None
        assert {e["ev"] for e in events} <= set(EVENT_TYPES)
        assert any(e["ev"] == "expand" for e in events)
        assert any(e["ev"] == "bound" and e["kind"] == "root_h"
                   for e in events)

    def test_budget_stop_and_fallback_events(self, tmp_path):
        problem = serial_mix(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"],
                             "quad")
        path = tmp_path / "chain.jsonl"
        with Tracer(str(path), flush_every=1) as tracer:
            problem.counters.tracer = tracer
            result = FallbackChain().solve(
                problem, budget=Budget(max_weight_evals=3)
            )
        problem.counters.tracer = None
        assert result.schedule is not None
        events = trace_to_list(str(path))
        kinds = [e["ev"] for e in events]
        assert "budget_stop" in kinds
        assert "fallback" in kinds
        fb = next(e for e in events if e["ev"] == "fallback")
        assert fb["from_solver"].startswith("OA*")
        assert fb["to_solver"].startswith("HA*")
        # One tracer observed the whole cascade: several solve_starts.
        assert kinds.count("solve_start") >= 2

    def test_no_tracer_no_events_no_error(self):
        problem = serial_mix(["BT", "CG", "EP", "FT"], "dual")
        assert problem.counters.tracer is None
        result = OAStar().solve(problem, budget=Budget(wall_time=30.0))
        assert result.schedule is not None
