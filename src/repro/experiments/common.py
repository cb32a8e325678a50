"""Shared scaffolding for the per-table/per-figure experiment runners.

Every experiment module exposes ``run(...) -> ExperimentResult`` whose
defaults finish on a laptop in seconds-to-minutes.  The paper-scale
parameters are documented per runner (``paper_params``); EXPERIMENTS.md
records which scale each recorded result used.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator

__all__ = ["ExperimentResult", "solve_spec", "timed"]


@dataclass
class ExperimentResult:
    """Rendered + structured output of one experiment."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"== {self.exp_id}: {self.title} ==\n{self.text}"


def solve_spec(problem, spec: str, *, budget=None, warm_start=None):
    """Solve ``problem`` with a runtime registry spec string.

    The experiments' one solver entry point: every runner names its
    solvers as spec strings (``"oastar?h_strategy=2"``, ``"hastar?mer=4"``)
    and routes them through :func:`repro.runtime.run_solve`, so a
    configuration printed in EXPERIMENTS.md can be replayed verbatim via
    ``cosched solve --solver``.  Returns the raw
    :class:`~repro.solvers.base.SolveResult` (runners read objectives,
    timings and solver stats off it, exactly as before).
    """
    from ..runtime import run_solve

    return run_solve(problem, spec, budget=budget,
                     warm_start=warm_start).result


@contextmanager
def timed() -> Iterator[Dict[str, float]]:
    """Context manager capturing wall time into the yielded dict."""
    out = {"seconds": 0.0}
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        out["seconds"] = time.perf_counter() - t0
