"""One solve workload, in the fresh process ``bench/run.py`` starts for it.

    python bench/solve_load.py WORKLOAD --seed N --seconds S [--trace]
        [--spans FILE] [--min-instances K] [--setup-only]

After imports and one untimed warm-up solve it prints ``READY`` (the
parent times set-up up to that line), then solves instances back to back
-- a closed loop with one client -- for ``--seconds`` and at least
``--min-instances`` instances (default: the workload's reference
instances, which every run starts with; the rest come from ``--seed``).
Each measured solve is followed by a timed PG solve of the same instance,
the fast path and quality baseline, and by one machine-speed sample
(:func:`metrics.calibration_sample`).  The untimed checks follow, and the
last line printed is one JSON document of raw samples.

With ``--trace`` every instance is solved twice, once plainly and once
with the layer wrappers installed (alternating which goes first), so the
per-layer breakdown and the tracing overhead come from the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from check import answer_errors, same_objective
from layers import LayerTracer, install_solver_layers, solve_counts
from metrics import (calibration_sample, self_time_shares,
                     solver_layer_metrics)
from procs import peak_rss_mb
from workloads import SOLVE_WORKLOADS, run_instance_seed


def _timed_solve(runtime, spec, problem, i, seed_i):
    """Solve ``problem`` with ``spec``; the record of what came back."""
    # Start from a collected heap: a solve pays for the garbage it makes,
    # not for a collection the previous solve's garbage triggers.
    gc.collect()
    t0 = time.perf_counter()
    report = runtime.run_solve(problem, spec)
    wall = time.perf_counter() - t0
    return {
        "i": i,
        "seed": seed_i,
        "start": t0,
        "wall_s": wall,
        "objective": report.objective,
        "groups": [list(g) for g in report.schedule.groups]
        if report.schedule is not None else [],
        "counts": solve_counts(report.result.stats,
                               problem.counters.snapshot()),
    }


def _traced_solve(tracer, runtime, spec, problem, i, seed_i):
    with tracer.installed(install_solver_layers):
        tracer.set_key(f"solve-{i}")
        rec = _timed_solve(runtime, spec, problem, i, seed_i)
    tracer.add_span("bench.solve", rec["start"], rec["start"] + rec["wall_s"])
    tracer.solve_counts.append(rec["counts"])
    return rec


def _closed_loop(runtime, w, seed_of, first, seconds, min_instances, tracer):
    """Solve instances back to back: ``(plain, traced, pg)`` records and
    the machine-speed samples taken between solves."""
    plain, traced, pg, speed = [], [], [], []
    begin = time.perf_counter()
    i = 0
    while True:
        seed_i = seed_of(i)
        problem = first if i == 0 else w.make(seed_i)
        twin = w.make(seed_i)
        if tracer is None:
            plain.append(_timed_solve(runtime, w.spec, problem, i, seed_i))
            # The fast path, timed between the measured solves so that it
            # sees the same machine as they do.
            pg.append(_timed_solve(runtime, "pg", twin, i, seed_i))
            speed.append(calibration_sample())
        else:
            for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
                if traced_run:
                    traced.append(_traced_solve(tracer, runtime, w.spec, twin,
                                                i, seed_i))
                else:
                    plain.append(_timed_solve(runtime, w.spec, problem, i,
                                              seed_i))
        i += 1
        if time.perf_counter() - begin >= seconds and i >= min_instances:
            return plain, traced, pg, speed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(SOLVE_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-instances", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from repro import runtime

    w = SOLVE_WORKLOADS[args.workload]
    runtime.run_solve(w.warmup(), w.spec)
    runtime.run_solve(w.warmup(), "pg")

    def seed_of(i):
        return run_instance_seed(args.seed, w, i)

    first = w.make(seed_of(0))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    min_instances = (w.reference_instances if args.min_instances is None
                     else args.min_instances)

    tracer = LayerTracer() if args.trace else None
    plain, traced, pg, speed = _closed_loop(
        runtime, w, seed_of, first, args.seconds, min_instances, tracer)
    rss = peak_rss_mb()

    # ---- untimed checks, on freshly generated copies ------------------ #
    errors = []
    failed = 0
    exact = {id(rec) for rec in plain[:w.exact_check]}
    for rec in plain + traced:
        wrong = answer_errors(w.make(rec["seed"]), rec["groups"],
                              rec["objective"])
        if id(rec) in exact and not wrong:
            ref = runtime.run_solve(w.make(rec["seed"]), "osvp").objective
            if not same_objective(ref, rec["objective"]):
                wrong.append(f"objective {rec['objective']!r} != osvp "
                             f"{ref!r}")
        failed += bool(wrong)
        errors += [f"instance {rec['i']}: {e}" for e in wrong]
    for rec in pg:
        # A wrong baseline makes the run incorrect without failing an
        # operation of the measured solver.
        errors += [f"instance {rec['i']} (pg baseline): {e}"
                   for e in answer_errors(w.make(rec["seed"]), rec["groups"],
                                          rec["objective"])]
    ref = plain[:w.reference_instances]
    det = {
        "reference_instances": len(ref),
        "objective_sum": sum(r["objective"] for r in ref),
        "pg_objective_sum": sum(r["objective"] for r in pg[:len(ref)]),
        "expanded_sum": sum(r["counts"]["expanded"] for r in ref),
        "generated_sum": sum(r["counts"]["generated"] for r in ref),
        "dismissed_sum": sum(r["counts"]["dismissed"] for r in ref),
    }
    out = {
        "workload": w.name,
        "seed": args.seed,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "correct": not errors,
        "errors": errors[:10],
        "solve_ms": [1e3 * r["wall_s"] for r in plain],
        "pg_ms": [1e3 * r["wall_s"] for r in pg],
        "calibration_s": speed,
        "peak_rss_mb": rss,
        "det": det,
    }
    if pg:
        out["objective_vs_pg"] = (det["objective_sum"]
                                  / det["pg_objective_sum"])
    if tracer is not None:
        plain_wall = sum(r["wall_s"] for r in plain)
        traced_wall = sum(r["wall_s"] for r in traced)
        aggregates = tracer.aggregates()
        layers = solver_layer_metrics(aggregates, tracer.solve_counts,
                                      traced_wall)
        layers["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
        out["layers"] = layers
        out["shares"] = self_time_shares(aggregates, traced_wall)
        if args.spans:
            tracer.dump(args.spans, workload=w.name, seed=args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
