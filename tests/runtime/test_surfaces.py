"""Cross-surface parity: the CLI and the HTTP service expose the same
registry-derived solver set, and one spec string produces equivalent
reports everywhere."""

import json

import pytest

from repro import serial_mix
from repro.cli import main
from repro.runtime import run_solve, solver_names
from repro.service import SolveService

SMALL = ["BT", "CG", "EP", "FT"]
SPEC = "hastar?mer=6"


def make_problem():
    return serial_mix(SMALL, cluster="dual")


class TestSolverSetParity:
    def test_cli_list_names_the_registry_set(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        section = out.split("solvers:")[1].split("catalog programs:")[0]
        listed = {
            line.strip().split()[0]
            for line in section.strip().splitlines()
        }
        assert listed == set(solver_names())

    def test_service_metrics_report_the_registry_set(self):
        with SolveService(workers=1) as svc:
            assert svc.metrics()["solvers"] == list(solver_names())

    def test_submit_accepts_what_solve_accepts(self):
        # The old drift: `submit --solver osvp` failed while `solve` worked
        # (and vice versa for other solvers).  Both resolve via one registry
        # now.
        problem = make_problem()
        for spec in ("osvp", "hill?seed=1", SPEC):
            run_solve(make_problem(), spec)
            with SolveService(workers=1) as svc:
                ticket = svc.submit(problem, solver=spec)
                assert ticket.wait(60.0), spec
                assert ticket.state == "done"


class TestSpecRoundTrip:
    """One spec string -> equivalent outcomes on every surface."""

    @pytest.fixture(scope="class")
    def direct(self):
        return run_solve(make_problem(), SPEC)

    def test_cli_json_matches_direct(self, capsys, direct):
        assert main(["solve", "--cluster", "dual", "--solver", SPEC,
                     "--json"] + SMALL) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = direct.to_dict()
        assert doc["spec"] == expected["spec"] == "hastar?beam_width=6"
        assert doc["objective"] == pytest.approx(expected["objective"])
        assert doc["solver"] == expected["solver"]
        assert sorted(map(sorted, doc["schedule"])) == sorted(
            map(sorted, expected["schedule"])
        )

    def test_service_matches_direct(self, direct):
        with SolveService(workers=1) as svc:
            ticket = svc.submit(make_problem(), solver=SPEC)
            assert ticket.wait(60.0)
        assert ticket.objective == pytest.approx(direct.objective)
        assert ticket.solved_by == direct.result.solver


class TestGraphSolverFlag:
    def test_graph_accepts_solver_spec(self, capsys):
        assert main(["graph", "--cluster", "dual", "--solver", SPEC]
                    + SMALL) == 0
        out = capsys.readouterr().out
        assert out  # rendered something

    def test_graph_rejects_bad_spec(self, capsys):
        assert main(["graph", "--cluster", "dual", "--solver", "nope"]
                    + SMALL) == 2
        assert "bad --solver" in capsys.readouterr().err
