#!/usr/bin/env python3
"""Online co-scheduling with the incremental repair engine.

Jobs arrive at, depart from, and change profile on a quad-core cluster.
Instead of re-solving the whole placement problem after every event, a
:class:`repro.online.ProblemSession` matches each new roster against the
last solved one through the canonical codec, keeps every machine whose
coset survived intact, and re-solves only the perturbed sub-problem
(``repair?base=hastar`` in the solver registry) — with a guarantee that
the result is never worse than a fresh politeness-greedy schedule.

This example streams a short churn trace through one session and prints,
per event, the repair latency next to a from-scratch re-solve of the same
roster.  ``cosched replay`` runs the same comparison over bigger traces
and ``docs/ONLINE.md`` documents the machinery.

Run:  python examples/online_scheduling.py
"""

import time

from repro.online import ProblemSession
from repro.runtime import run_solve

EVENTS = [
    {"op": "update", "name": "job3", "miss_rate": 0.52},
    {"op": "depart", "name": "job7"},
    {"op": "arrive", "name": "burst0", "miss_rate": 0.66},
    {"op": "update", "name": "job10", "miss_rate": 0.21},
    {"op": "depart", "name": "job1"},
    {"op": "arrive", "name": "burst1", "miss_rate": 0.45},
]


def main() -> None:
    session = ProblemSession(
        jobs=[(f"job{i}", 0.18 + 0.035 * (i % 12)) for i in range(16)],
        base="hastar",
        saturation=4.0,
    )
    report = session.solve()
    print(f"initial solve: n={len(session)} jobs on "
          f"{session.problem.n_machines} quad machines, "
          f"objective {report.objective:.4f}\n")

    print(f"{'event':>22} {'repair ms':>10} {'full ms':>9} {'speedup':>8} "
          f"{'kept':>5} {'objective':>10}")
    for event in EVENTS:
        session.apply(event)

        t0 = time.perf_counter()
        repaired = session.repair()
        repair_ms = (time.perf_counter() - t0) * 1e3

        t0 = time.perf_counter()
        full = run_solve(session.build_problem(), "hastar")
        full_ms = (time.perf_counter() - t0) * 1e3

        stats = repaired.result.stats
        label = f"{event['op']} {event['name']}"
        speedup = full_ms / repair_ms if repair_ms > 0 else float("inf")
        print(f"{label:>22} {repair_ms:>10.1f} {full_ms:>9.1f} "
              f"{speedup:>8.2f} {stats.get('machines_kept', 0):>5} "
              f"{repaired.objective:>10.4f}"
              + ("  escalated" if stats.get("escalated") else ""))
        assert repaired.objective <= full.objective * 1.02 + 1e-9, \
            "repair regressed past the 2% regret budget"

    s = session.stats
    print(f"\n{s['repairs']} repairs, {s['escalations']} escalations; "
          f"machines kept {s['machines_kept']} vs re-solved "
          f"{s['machines_resolved']} across the stream.")
    print("Unchanged machines keep their cache identity, so the repair "
          "path pays for the\nperturbed sub-problem only — `cosched "
          "replay` measures the\namortized speedup at n=32 (see "
          "docs/ONLINE.md).")


if __name__ == "__main__":
    main()
