"""Deterministic seeding of the hill climber through the registry spec
grammar (``hill?seed=7``)."""

import pytest

from repro.runtime import create_solver, run_solve
from repro.workloads.synthetic import random_serial_instance


def _instance():
    return random_serial_instance(16, "quad", seed=3, saturation=4.0)


def test_hill_seed_param_reaches_the_solver():
    assert create_solver("hill?seed=7").seed == 7
    assert create_solver("hill").seed is None


def test_hill_seeded_runs_are_reproducible():
    a = run_solve(_instance(), "hill?seed=7")
    b = run_solve(_instance(), "hill?seed=7")
    assert a.objective == pytest.approx(b.objective)
    assert a.schedule.groups == b.schedule.groups


def test_hill_unseeded_scan_order_is_deterministic_too():
    # No seed: the pair scan stays in lexicographic order, so repeated
    # runs agree (the paper-faithful default).
    a = run_solve(_instance(), "hill")
    b = run_solve(_instance(), "hill")
    assert a.schedule.groups == b.schedule.groups
