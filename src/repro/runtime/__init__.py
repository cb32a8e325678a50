"""repro.runtime — the solver registry and the one solve pipeline.

Every surface that runs a solver (CLI, HTTP service, experiment
runners) resolves solvers through this package:

* :mod:`repro.runtime.registry` — the capability-annotated
  :data:`~repro.runtime.registry.REGISTRY` of
  :class:`~repro.runtime.registry.SolverInfo` entries, plus the shared
  spec-string syntax (``"hastar?mer=4"``, ``"fallback?chain=oastar,pg"``);
* :mod:`repro.runtime.session` — :func:`~repro.runtime.session.run_solve`,
  composing budget enforcement, tracer attach/restore and warm starts
  into a normalized :class:`~repro.runtime.session.SolveReport`.

Quickstart::

    from repro import serial_mix
    from repro.runtime import run_solve

    problem = serial_mix(["BT", "CG", "EP", "FT"], cluster="dual")
    report = run_solve(problem, "oastar")
    print(report.schedule.pretty(problem.workload))
    print(report.to_dict(include_schedule=False))

See ``docs/RUNTIME.md`` for the registry table, the spec grammar and the
report schema.
"""

from .registry import (
    REGISTRY,
    SolverInfo,
    SolverSpec,
    SpecError,
    canonical_name,
    create_solver,
    get_info,
    parse_spec,
    register,
    solver_names,
)
from .session import SolveReport, run_solve
from .shedding import DEFAULT_SHED_POLICY, ShedPolicy, resolve_shed_policy

__all__ = [
    "DEFAULT_SHED_POLICY",
    "REGISTRY",
    "ShedPolicy",
    "SolverInfo",
    "SolverSpec",
    "SpecError",
    "SolveReport",
    "canonical_name",
    "create_solver",
    "get_info",
    "parse_spec",
    "register",
    "resolve_shed_policy",
    "run_solve",
    "solver_names",
]
