"""CLI tests."""

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


class TestSimulateCommand:
    def test_runs_and_reports(self, capsys):
        rc = main(["simulate", "--jobs", "12", "--machines", "2",
                   "--cores", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first-fit" in out and "least-pressure" in out


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

    def test_workers_flag_accepted(self, capsys):
        rc = main(["solve", "--cluster", "dual", "--solver", "hastar",
                   "--workers", "2", "BT", "CG", "EP", "FT"])
        assert rc == 0
        assert "machine 0" in capsys.readouterr().out


class TestBudgetFlag:
    def test_generous_budget_solves_normally(self, capsys):
        rc = main(["solve", "--cluster", "dual", "--budget", "30",
                   "BT", "CG", "EP", "FT"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machine 0" in out
        assert "budget: stopped" not in out

    def test_nonpositive_budget_rejected(self, capsys):
        rc = main(["solve", "--cluster", "dual", "--budget", "0",
                   "BT", "CG", "EP", "FT"])
        assert rc == 2
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


@pytest.fixture(scope="module")
def smoke_doc():
    """One smoke bench document, shared by every test that only reads it
    (tests that need a variant copy it first)."""
    from repro.perf import bench

    return bench.run_bench(smoke=True, repeats=1)


class TestBenchCommand:
    def test_smoke_writes_valid_document(self, tmp_path, capsys):
        import json

        from repro.perf import bench, kernels

        out = tmp_path / "BENCH_test.json"
        rc = main(["bench", "--smoke", "--repeats", "1",
                   "--out", str(out), "--results-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads(out.read_text())
        bench.validate(doc)  # raises on any schema violation
        assert doc["schema"] == bench.SCHEMA == "cosched-bench/6"
        assert "evolve" not in doc
        assert doc["smoke"] is True
        assert doc["kernel_backend"] == kernels.active_backend()
        assert doc["solve"]["repeats"] == 1
        err = capsys.readouterr().err
        assert "kernel backend:" in err

    def test_smoke_stdout_json(self, capsys, monkeypatch, smoke_doc):
        import json

        from repro.perf import bench

        monkeypatch.setattr(bench, "run_bench", lambda **kw: smoke_doc)
        rc = main(["bench", "--smoke", "--repeats", "1",
                   "--results-dir", "benchmarks/results"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        bench.validate(doc)

    def test_rejects_bad_repeats(self, capsys):
        assert main(["bench", "--smoke", "--repeats", "0"]) == 2

    def test_baseline_picked_up_from_results_dir(self, tmp_path, smoke_doc):
        from repro.perf import bench

        first = dict(smoke_doc)
        first["revision"] = "0000000"  # pretend it came from another tree
        bench.write_bench(first, str(tmp_path / "BENCH_0000000.json"))
        second = bench.run_bench(smoke=True, repeats=1,
                                 results_dir=str(tmp_path))
        assert second["baseline"] is not None
        assert second["baseline"]["revision"] == "0000000"
        assert second["baseline"]["speedup_vs_baseline"] > 0

    def test_validate_rejects_malformed(self, smoke_doc):
        from repro.perf import bench

        bench.validate(smoke_doc)
        for missing in ("schema", "micro", "solve", "kernel_backend"):
            bad = dict(smoke_doc)
            del bad[missing]
            try:
                bench.validate(bad)
            except ValueError as exc:
                assert missing in str(exc)
            else:
                raise AssertionError(f"missing {missing} not caught")


class TestBenchServiceSection:
    def test_smoke_document_carries_service_scaling(self, smoke_doc):
        import os

        service = smoke_doc["service"]
        assert service["stream"]["duplicate_fraction"] == 0.5
        assert "wall_budget_s" not in service["stream"]
        shards = [p["shards"] for p in service["points"]]
        assert shards == sorted(shards) and shards[0] == 1
        assert shards[-1] <= (os.cpu_count() or 1)
        for point in service["points"]:
            assert point["requests"] == service["stream"]["requests"]
            assert point["rps"] > 0
            assert point["unresolved"] == 0
        assert service["speedup_max_shards"] > 0

    def test_validate_accepts_v1_documents_without_service(self):
        """Committed BENCH docs that predate the sharded tier stay valid
        (find_baseline must keep loading them)."""
        import json
        from pathlib import Path

        from repro.perf import bench

        results = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        v1_docs = []
        for path in results.glob("BENCH_*.json"):
            doc = json.loads(path.read_text())
            if doc["schema"] == bench.SCHEMA_V1:
                v1_docs.append((path.name, doc))
        for name, doc in v1_docs:
            bench.validate(doc)  # must not raise

    def test_validate_requires_service_for_v2(self, smoke_doc):
        from repro.perf import bench

        bad = dict(smoke_doc)
        del bad["service"]
        with pytest.raises(ValueError, match="service"):
            bench.validate(bad)
        import json

        bad_point = json.loads(json.dumps(smoke_doc))
        del bad_point["service"]["points"][0]["rps"]
        with pytest.raises(ValueError, match="rps"):
            bench.validate(bad_point)


class TestBenchEvolveSection:
    """The retired ``evolve`` section is required on v4-v5 documents
    only."""

    def test_validate_accepts_v3_documents_without_evolve(self, smoke_doc):
        from repro.perf import bench

        old = dict(smoke_doc)
        del old["scenarios"]
        old["schema"] = bench.SCHEMA_V3
        bench.validate(old)  # must not raise
        old["schema"] = bench.SCHEMA_V4
        with pytest.raises(ValueError, match="evolve"):
            bench.validate(old)


class TestBenchScenariosSection:
    def test_smoke_document_carries_scenario_quality(self, smoke_doc):
        scenarios = smoke_doc["scenarios"]
        assert scenarios["solvers"] == ["pg", "hill", "anneal"]
        assert {p["variant"] for p in scenarios["points"]} == {
            "homogeneous", "heterogeneous"
        }
        for point in scenarios["points"]:
            for solver in scenarios["solvers"]:
                vals = point["per_seed"][solver]
                assert len(vals) == len(scenarios["seeds"])
                assert all(v > 0 for v in vals)
        # Both variants draw identical miss rates, so the ratio isolates
        # what the roster + constraint cost: always a positive number.
        for solver in scenarios["solvers"]:
            assert scenarios["het_vs_homog"][solver] > 0

    def test_validate_accepts_v4_documents_without_scenarios(self, smoke_doc):
        from repro.perf import bench

        import json
        from pathlib import Path

        doc = smoke_doc
        old = dict(doc)
        del old["scenarios"]
        old["schema"] = bench.SCHEMA_V4
        # v4 still requires the retired section; borrow the committed one.
        committed = (Path(__file__).resolve().parent.parent / "benchmarks"
                     / "results" / "BENCH_ccdbb1c.json")
        old["evolve"] = json.loads(committed.read_text())["evolve"]
        bench.validate(old)  # must not raise
        bad = dict(doc)
        del bad["scenarios"]
        with pytest.raises(ValueError, match="scenarios"):
            bench.validate(bad)

    def test_trajectory_renders_pre_scenario_documents(self, tmp_path,
                                                       smoke_doc):
        from repro.perf import bench

        doc = smoke_doc
        bench.write_bench(doc, str(tmp_path / "BENCH_new.json"))
        old = dict(doc)
        del old["scenarios"]
        old["schema"] = bench.SCHEMA_V3
        old["revision"] = "0000old"
        bench.write_bench(old, str(tmp_path / "BENCH_old.json"))
        rows = bench.trajectory(str(tmp_path))
        by_rev = {r["revision"]: r for r in rows}
        assert by_rev[doc["revision"]]["scenario_het_ratio"] > 0
        assert by_rev["0000old"]["scenario_het_ratio"] is None
        table = bench.trajectory_markdown(rows)
        assert "het/homog" in table
        # The pre-scenario row renders a dash, not a crash.
        assert "—" in table


class TestBenchTrajectoryFlag:
    def test_empty_results_dir_degrades_gracefully(self, tmp_path, capsys):
        rc = main(["bench", "--trajectory",
                   "--results-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no bench history yet" in captured.err
        assert captured.out == ""

    def test_missing_results_dir_degrades_gracefully(self, tmp_path, capsys):
        rc = main(["bench", "--trajectory",
                   "--results-dir", str(tmp_path / "nope")])
        assert rc == 0
        assert "no bench history yet" in capsys.readouterr().err

    def test_renders_table_when_documents_exist(self, tmp_path, capsys,
                                                smoke_doc):
        from repro.perf import bench

        doc = smoke_doc
        bench.write_bench(doc, str(tmp_path / "BENCH_test.json"))
        rc = main(["bench", "--trajectory",
                   "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| revision |" in out
        assert doc["revision"] in out
