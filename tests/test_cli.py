"""CLI tests."""

import os
import signal

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13" in out and "oastar" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_solve_unknown_program(self, capsys):
        assert main(["solve", "nonesuch"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_has_no_shards_flag(self, capsys):
        # The service is one process; --workers is its only pool.
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["serve", "--shards", "2"])
        assert err.value.code == 2
        assert "--shards" in capsys.readouterr().err


class TestSolve:
    def test_solve_prints_schedule(self, capsys):
        rc = main(["solve", "--cluster", "dual", "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machine 0" in out
        assert "average degradation" in out

    def test_solve_with_heuristic(self, capsys):
        rc = main(["solve", "--cluster", "quad", "--solver", "pg",
                   "BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])
        assert rc == 0
        assert "PG" in capsys.readouterr().out


class TestRun:
    def test_run_small_experiment(self, capsys, monkeypatch):
        # Patch the registry entry so "run" stays fast in CI.
        import repro.cli as cli
        from repro.experiments import table1

        monkeypatch.setitem(
            cli.REGISTRY, "table1",
            lambda: table1.run(sizes=(8,), clusters=("dual",)),
        )
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out


class TestGraphCommand:
    def test_ascii_output(self, capsys):
        rc = main(["graph", "--cluster", "dual", "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "level 1" in out and "objective" in out

    def test_dot_output(self, capsys):
        rc = main(["graph", "--cluster", "dual", "--dot",
                   "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_unknown_program(self, capsys):
        assert main(["graph", "zzz"]) == 2


class TestReplayArguments:
    @pytest.mark.parametrize("flag,value", [
        ("--n", "0"),
        ("--events", "-2"),
        ("--events", "0"),
        ("--churn", "-1"),
        ("--churn", "nan"),
        ("--churn", "inf"),
        ("--saturation", "-1"),
        ("--saturation", "nan"),
    ])
    def test_out_of_range_number_exits_2(self, capsys, flag, value):
        assert main(["replay", "--n", "4", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(flag)


class TestProfile:
    def test_solve_profile_prints_counters(self, capsys):
        rc = main(["solve", "--cluster", "dual", "--profile",
                   "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "phase wall time" in out
        assert "solver stats" in out

    def test_solve_without_profile_is_quiet(self, capsys):
        rc = main(["solve", "--cluster", "dual", "BT", "CG", "EP", "FT"])
        assert rc == 0
        assert "profile:" not in capsys.readouterr().out

    def test_solve_has_no_workers_flag(self, capsys):
        # Solver fan-out is gone; only `serve` keeps --workers (threads).
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--cluster", "dual", "--workers", "2",
                  "BT", "CG", "EP", "FT"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestBudgetFlag:
    def test_generous_budget_solves_normally(self, capsys):
        rc = main(["solve", "--cluster", "dual", "--budget", "30",
                   "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machine 0" in out
        assert "budget: stopped" not in out

    def test_nonpositive_budget_rejected(self, capsys):
        # NaN passes a `<= 0` guard, and a NaN deadline never trips.
        for value in ("0", "nan"):
            rc = main(["solve", "--cluster", "dual", "--budget", value,
                       "BT", "CG", "EP", "FT"])
            assert rc == 2, value
            assert "--budget must be positive" in capsys.readouterr().err

    def test_tight_budget_still_prints_a_schedule(self, capsys):
        # 1ms on an 8-program quad instance: the anytime path must still
        # hand back a valid schedule (possibly with the stopped notice).
        rc = main(["solve", "--cluster", "quad", "--budget", "0.001",
                   "BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])
        assert rc == 0
        assert "machine 0" in capsys.readouterr().out

    def test_fallback_solver_with_budget(self, capsys):
        rc = main(["solve", "--cluster", "quad", "--solver", "fallback",
                   "--budget", "0.01",
                   "BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])
        assert rc == 0
        assert "fallback[" in capsys.readouterr().out


class TestTraceFlag:
    def test_trace_written_and_reported(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["solve", "--cluster", "dual", "--trace", str(trace),
                   "BT", "CG", "EP", "FT"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "trace:" in err and str(trace) in err
        from repro.perf import read_trace

        events = list(read_trace(str(trace)))
        assert events[0]["ev"] == "solve_start"
        assert events[-1]["ev"] == "solve_end"

    def test_trace_feeds_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["solve", "--cluster", "dual", "--trace", str(trace),
                     "--budget", "5", "BT", "CG", "EP", "FT"]) == 0
        capsys.readouterr()
        from repro.analysis.trace_report import main as report_main

        assert report_main([str(trace)]) == 0
        assert capsys.readouterr().out.startswith("trace report:")


class TestProfileSurvivesFailure:
    def test_profile_printed_when_solve_raises(self, capsys, monkeypatch):
        # The finally-based profile emission must fire even when the solver
        # blows up mid-run.
        from dataclasses import replace

        from repro.runtime import REGISTRY

        class Boom:
            name = "boom"

            def solve(self, problem, budget=None, initial_schedule=None):
                problem.counters.incr("doomed_work")
                raise RuntimeError("midway explosion")

        monkeypatch.setitem(
            REGISTRY, "oastar",
            replace(REGISTRY["oastar"], factory=Boom),
        )
        with pytest.raises(RuntimeError):
            main(["solve", "--cluster", "dual", "--profile",
                  "BT", "CG", "EP", "FT"])
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "doomed_work" in out

    def test_profile_printed_on_budget_stop(self, capsys):
        rc = main(["solve", "--cluster", "quad", "--profile",
                   "--budget", "0.001",
                   "BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "solver stats" in out

    def test_trace_closed_when_solve_raises(self, tmp_path, capsys,
                                            monkeypatch):
        from dataclasses import replace

        from repro.runtime import REGISTRY

        class Boom:
            name = "boom"

            def solve(self, problem, budget=None, initial_schedule=None):
                tracer = problem.counters.tracer
                tracer.emit("solve_start", solver=self.name)
                raise RuntimeError("midway explosion")

        monkeypatch.setitem(
            REGISTRY, "oastar",
            replace(REGISTRY["oastar"], factory=Boom),
        )
        trace = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            main(["solve", "--cluster", "dual", "--trace", str(trace),
                  "BT", "CG", "EP", "FT"])
        # The finally flushed and closed the tracer: the event is on disk.
        assert '"ev":"solve_start"' in trace.read_text()


class TestServe:
    @pytest.mark.parametrize("graceful, code", [(True, 0), (False, 1)])
    def test_sigterm_exit_code_reports_the_drain(self, monkeypatch, capsys,
                                                 graceful, code):
        import repro.service as service
        from repro.service.queue import SolveService

        drains = []

        def drain(self, timeout=30.0):
            drains.append(timeout)
            return graceful

        def start_then_sigterm(*args, **kwargs):
            # serve installs its SIGTERM handler before it starts serving.
            server = real_start(*args, **kwargs)
            os.kill(os.getpid(), signal.SIGTERM)
            return server

        real_start = service.start_http_server
        monkeypatch.setattr(SolveService, "drain", drain)
        monkeypatch.setattr(service, "start_http_server", start_then_sigterm)
        previous = signal.getsignal(signal.SIGTERM)
        try:
            rc = main(["serve", "--port", "0", "--solver", "pg",
                       "--drain-timeout", "0.5"])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert drains == [0.5]
        assert rc == code
        assert "draining" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--max-queue",
                                      "--store-capacity"])
    def test_out_of_range_count_exits_2(self, capsys, flag):
        rc = main(["serve", "--port", "0", flag, "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"{flag} must be at least 1\n"
