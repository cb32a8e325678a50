"""Self-test of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

Runs ``bench/run.py --quick`` a few times (well under a minute in all)
and checks the contract with ``BENCHMARK.json``: the metric names and
units it declares are the ones printed, changing ``--seed`` changes the
inputs but not the metric set, and the answer checker rejects a tampered
objective and a broken partition.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
from check import answer_errors
from metrics import END_TO_END, PER_LAYER
from procs import BENCH, ROOT, child_env
from workloads import SOLVE_WORKLOADS, WORKLOADS, describe


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick",
                           *args], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_benchmark_json(spec):
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    assert describe(0, workload) == describe(0, workload)
    assert describe(0, workload) != describe(1, workload)


def test_quick_runs_report_the_declared_metrics(spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for seed in (0, 1):
        doc = _run("--workload", "oastar-scenario", "--seed", str(seed))
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == units
        assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_the_per_layer_metrics(spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = _run("--workload", "service-stream", "--trace", "1")
    assert doc["correct"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units


def test_checker_rejects_tampered_objective_and_broken_partition():
    from repro import runtime

    w = SOLVE_WORKLOADS["oastar-mix"]
    problem = w.make(7)
    report = runtime.run_solve(problem, "pg")
    groups = [list(g) for g in report.schedule.groups]
    assert answer_errors(w.make(7), groups, report.objective) == []
    assert answer_errors(w.make(7), groups, report.objective * (1 + 1e-6))
    broken = [list(g) for g in groups]
    broken[0][0] = broken[1][0]  # one process twice, another never
    assert answer_errors(w.make(7), broken, report.objective)
