"""Table III — efficiency of the IP solvers vs OA* vs O-SVP.

Paper: quad-core, 8/12/16 processes in three flavours — serial-only (se),
serial + PE (pe), serial + PC (pc) — solved by CPLEX/CBC/SCIP/GLPK on the IP
model, by OA*, and by the earlier O-SVP.  Substitutions (see DESIGN.md):
HiGHS ``milp`` stands in for CPLEX; the from-scratch LP branch-and-bound
stands in for the open-source solvers.  The reproduced shape: OA* beats
every IP backend by orders of magnitude and widens its lead over O-SVP with
problem size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis.reporting import render_table
from ..workloads.mixes import TABLE1_SETS, TABLE2_SETS, serial_mix
from ..workloads.synthetic import random_mixed_instance
from .common import ExperimentResult, solve_spec

EXP_ID = "table3"
TITLE = "Efficiency of different methods on quad-core machines (seconds)"


def _make_problem(n: int, flavour: str, cluster: str, seed: int):
    if flavour == "se":
        return serial_mix(TABLE1_SETS[n], cluster=cluster)
    if flavour == "pe":
        par = TABLE2_SETS[n]["parallel"]
        shapes = tuple(k for _name, k in par)  # type: ignore[union-attr]
        n_serial = n - sum(shapes)
        return random_mixed_instance(
            n_serial=n_serial, pe_shapes=shapes, cluster=cluster, seed=seed
        )
    if flavour == "pc":
        from ..workloads.mixes import mixed_parallel_serial

        return mixed_parallel_serial(n, cluster=cluster)
    raise ValueError(f"unknown flavour {flavour!r}")


#: (label, registry spec) per column, in table order.
SOLVERS = (
    ("IP(milp)", "ip"),
    ("IP(bb-simplex)", "bb?time_limit={bb_time_limit}"),
    ("OA*", "oastar?name=OA*"),
    ("O-SVP", "osvp"),
)
#: The columns the table's headline compares.  Each of their cells is the
#: best of this many runs, alternating between the two, so one slow run of
#: either does not flip the comparison.
PAIRED = ("IP(milp)", "OA*")
PAIRED_RUNS = 3


def run(
    sizes: Sequence[int] = (8, 12, 16),
    flavours: Sequence[str] = ("se", "pe", "pc"),
    cluster: str = "quad",
    bb_time_limit: float = 120.0,
    seed: int = 0,
) -> ExperimentResult:
    # The MILP imports scipy.optimize on first use (~0.8 s cold); load it
    # here so the first timed cell measures the solve, not the import.
    import scipy.optimize  # noqa: F401

    specs = {label: spec.format(bb_time_limit=bb_time_limit)
             for label, spec in SOLVERS}
    order = list(PAIRED) * PAIRED_RUNS + [
        label for label, _ in SOLVERS if label not in PAIRED]
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, Optional[float]]] = {}
    for n in sizes:
        for flavour in flavours:
            runs: Dict[str, List[float]] = {label: [] for label, _ in SOLVERS}
            objectives: Dict[str, float] = {}
            for label in order:
                # A fresh problem per run: no memo carries over between runs.
                problem = _make_problem(n, flavour, cluster, seed)
                try:
                    result = solve_spec(problem, specs[label])
                except RuntimeError:
                    continue  # gave up, like SCIP's 1000 s bailout
                runs[label].append(result.time_seconds)
                objectives[label] = result.objective
            times = {label: min(ts) if ts else None
                     for label, ts in runs.items()}
            objs = list(objectives.values())
            assert all(abs(o - objs[0]) < 1e-6 * (1 + abs(objs[0])) for o in objs), (
                f"optimal solvers disagree on {n}({flavour}): {objectives}"
            )
            key = f"{n}({flavour})"
            data[key] = times
            rows.append(
                [key]
                + [times[label] if times[label] is not None else "gave up"
                   for label, _ in SOLVERS]
            )
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        text=render_table(["Jobs"] + [label for label, _ in SOLVERS], rows,
                          title=TITLE),
        data=data,
    )
