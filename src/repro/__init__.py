"""repro — reproduction of "Modelling and Developing Co-scheduling Strategies
on Multicore Processors" (Zhu, He, Gao, Li & Li, ICPP 2015).

Contention-aware co-scheduling of mixed serial/parallel job batches onto
multicore machines:

* model degradations with the SDC cache-contention pipeline
  (:mod:`repro.cache`) or synthetic models (:mod:`repro.core.degradation`);
* solve exactly with OA* (:class:`repro.solvers.OAStar`) or the IP backends,
  or near-optimally at scale with HA* (:class:`repro.solvers.HAStar`) —
  every solver is addressable by a spec string through the
  :mod:`repro.runtime` registry;
* reproduce every table and figure of the paper via :mod:`repro.experiments`.

Quickstart::

    from repro import run_solve, serial_mix
    problem = serial_mix(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"],
                         cluster="quad")
    report = run_solve(problem, "oastar")
    print(report.schedule.pretty(problem.workload))
    print("average degradation:",
          report.result.evaluation.average_job_degradation)
"""

from .core import (
    CoSchedule,
    CoSchedulingProblem,
    JobKind,
    MatrixDegradationModel,
    MissRatePressureModel,
    SDCDegradationModel,
    Workload,
    evaluate_schedule,
    pc_job,
    pe_job,
    serial_job,
)
from .core.machine import (
    CLUSTERS,
    DUAL_CORE_CLUSTER,
    EIGHT_CORE_CLUSTER,
    MACHINES,
    QUAD_CORE_CLUSTER,
)
from .solvers import (
    BranchBoundIP,
    BruteForce,
    Budget,
    FallbackChain,
    HAStar,
    OAStar,
    OSVP,
    PolitenessGreedy,
    ScipyMILP,
    SolveResult,
    SwapHillClimber,
)
from .runtime import (
    SolveReport,
    SpecError,
    parse_spec,
    run_solve,
    solver_names,
)
from .workloads import (
    mixed_parallel_serial,
    pc_serial_mix,
    pe_serial_mix,
    random_mixed_instance,
    random_serial_instance,
    serial_mix,
)

__version__ = "1.0.0"

__all__ = [
    "CoSchedule",
    "CoSchedulingProblem",
    "JobKind",
    "MatrixDegradationModel",
    "MissRatePressureModel",
    "SDCDegradationModel",
    "Workload",
    "evaluate_schedule",
    "pc_job",
    "pe_job",
    "serial_job",
    "CLUSTERS",
    "MACHINES",
    "DUAL_CORE_CLUSTER",
    "QUAD_CORE_CLUSTER",
    "EIGHT_CORE_CLUSTER",
    "BranchBoundIP",
    "BruteForce",
    "Budget",
    "FallbackChain",
    "HAStar",
    "OAStar",
    "OSVP",
    "PolitenessGreedy",
    "ScipyMILP",
    "SolveResult",
    "SwapHillClimber",
    "SolveReport",
    "SpecError",
    "parse_spec",
    "run_solve",
    "solver_names",
    "mixed_parallel_serial",
    "pc_serial_mix",
    "pe_serial_mix",
    "random_mixed_instance",
    "random_serial_instance",
    "serial_mix",
    "__version__",
]
