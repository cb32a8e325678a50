#!/usr/bin/env python3
"""Co-scheduling on an asymmetric roster: a quad-core plus an eight-core
machine, with the quad's memory bus bandwidth-capped.

Homogeneous clusters slice a batch into equal groups; a heterogeneous
roster makes group *sizes* part of the decision — the Table I twelve-
program set splits 4 + 8 here, and which four programs land on the small
machine matters twice over: its bus sustains less traffic (a
:class:`~repro.core.constraints.BandwidthCapConstraint` penalizes
overdraw) and its slower clock stretches every cycle of slowdown
(``machine_scaling``).

The example solves the same batch with the heuristic ladder (PG → hill →
HA*), shows the capability gate structurally rejecting a
solver that cannot handle rosters (the IP formulation), and prints the
winning placement machine by machine.

Run:  python examples/heterogeneous_cluster.py
"""

from repro.runtime import SpecError, run_solve
from repro.workloads import TABLE1_SETS, heterogeneous_serial_mix

# Bytes/s the quad-core machine's bus sustains before the bandwidth
# penalty kicks in; the eight-core machine is uncapped (None).
QUAD_BUS_CAP = 2.5e9


def main() -> None:
    problem = heterogeneous_serial_mix(
        names=TABLE1_SETS[12],
        machines=("quad", "eight"),
        bandwidth_caps=(QUAD_BUS_CAP, None),
        clock_scaling=True,
    )
    print(f"Roster: {[m.name for m in problem.cluster.machines]}, "
          f"capacities {list(problem.capacities)}, "
          f"scenario features {sorted(problem.required_capabilities())}\n")

    reports = {}
    for spec in ("pg", "hill?seed=0", "hastar"):
        report = run_solve(problem, spec)
        reports[report.solver] = report
        print(f"  {report.solver:12s} objective {report.objective:.4f} "
              f"({report.solve_seconds * 1e3:6.1f} ms)")

    # Exact IP/B&B formulations assume equal-sized groups, so the runtime
    # refuses them structurally instead of returning a wrong schedule.
    try:
        run_solve(problem, "ip")
    except SpecError as exc:
        print(f"\n  ip rejected as expected: [{exc.reason}] {exc}")

    best = min(reports.values(), key=lambda r: r.objective)
    bw = next(c for c in problem.constraints if c.kind == "bandwidth_cap")
    print(f"\nBest placement ({best.solver}, objective "
          f"{best.objective:.4f}):")
    for k, group in enumerate(best.schedule.groups):
        machine = problem.cluster.machines[k]
        cap = bw.caps[k]
        tag = f", bus cap {cap:.1e} B/s" if cap is not None else ""
        print(f"  machine {k} ({machine.name}, {machine.cores} cores{tag}): "
              + " ".join(sorted(
                  problem.workload.job_of(p).name for p in group)))


if __name__ == "__main__":
    main()
