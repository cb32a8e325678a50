"""Command-line interface.

    cosched list                      # available experiments
    cosched run table1 [table3 ...]   # run experiments, print their tables
    cosched run all
    cosched solve --cluster quad BT CG EP FT IS LU MG SP
    cosched solve --solver hastar --cluster eight <apps...>
    cosched solve --budget 5 --trace solve.jsonl <apps...>   # anytime + trace
    cosched solve --save-problem mix.json BT CG EP FT  # export the instance
    cosched solve --problem-file mix.json              # re-solve it anywhere
    cosched graph --cluster dual BT CG EP FT IS LU     # Fig. 3-style view
    cosched serve --port 8831 --workers 2              # memoizing HTTP service
    cosched serve --store memo.jsonl                   # memo survives restarts
    cosched submit --url http://127.0.0.1:8831 BT CG EP FT
    cosched replay --n 32 --churn 0.5      # incremental repair vs re-solve

``solve`` co-schedules named catalog programs and prints the schedule plus
its degradation breakdown; ``--solver`` takes a runtime registry spec
string (``hastar?mer=4``, ``fallback?chain=oastar,pg`` — see
``docs/RUNTIME.md``), ``--budget SECONDS`` makes it anytime (best valid
schedule at the deadline, ``--solver fallback`` cascades OA* > HA* > PG),
``--trace FILE`` streams JSONL search events, ``--json`` prints the
normalized :class:`~repro.runtime.SolveReport` document instead of the
pretty schedule, and ``--profile`` prints the perf-counter report even
when the solve fails.  ``--save-problem``/``--problem-file`` round-trip
the instance through the :mod:`repro.service` codec, so a solve is
reproducible outside the catalog.  ``graph`` renders the co-scheduling
graph with the chosen solver's path highlighted.  ``serve`` runs the
memoizing solve service (``docs/SERVICE.md``, ``docs/DEPLOYMENT.md``) in
one process, with graceful SIGTERM drain (exit 1 when the drain times
out) and load-shedding via ``--shed-solver``; ``submit`` sends one
problem to a running service and prints the resolved schedule.
``replay`` drives an arrival trace through the incremental repair engine
(``docs/ONLINE.md``) and compares amortized repair latency against
per-event full re-solves.

Every subcommand resolves solvers through :mod:`repro.runtime` — the CLI,
the HTTP service and the experiment runners all accept the same solver
set and the same spec syntax.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .experiments import REGISTRY
from .runtime import SpecError, get_info, parse_spec, run_solve, solver_names
from .solvers import Budget
from .workloads.catalog import CATALOG
from .workloads.mixes import serial_mix


def _parse_solver_spec(spec: str):
    """Validate a ``--solver`` value; prints the error and returns ``None``
    on rejection (callers exit 2)."""
    try:
        return parse_spec(spec)
    except SpecError as exc:
        print(f"bad --solver {spec!r} ({exc.reason}): {exc.detail}",
              file=sys.stderr)
        return None


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for name in REGISTRY:
        print(f"  {name}")
    print("\nsolvers:")
    for name in solver_names():
        info = get_info(name)
        caps = []
        caps.append("exact" if info.exact else "heuristic")
        if info.supports_budget:
            caps.append("budget")
        if info.supports_warm_start:
            caps.append("warm-start")
        if info.scenario_flags():
            caps.append("scenarios")
        alias = f" (aliases: {', '.join(info.aliases)})" if info.aliases else ""
        print(f"  {name:10s} [{', '.join(caps)}] {info.summary}{alias}")
    print("\ncatalog programs:", ", ".join(sorted(CATALOG)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = args.experiments
    if names == ["all"]:
        names = list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    for name in names:
        result = REGISTRY[name]()
        print(f"\n== {result.exp_id}: {result.title} ==")
        print(result.text)
    return 0


def _load_or_mix_problem(args: argparse.Namespace):
    """Build the instance from ``--problem-file`` or catalog apps.

    Returns ``(problem, None)`` on success, ``(None, exit_code)`` after
    printing the error.  Shared by ``solve`` and ``submit``.
    """
    if getattr(args, "problem_file", None):
        if args.apps:
            print("give PROGRAMs or --problem-file, not both",
                  file=sys.stderr)
            return None, 2
        from .service import CodecError, load_problem

        try:
            return load_problem(args.problem_file), None
        except (OSError, ValueError, CodecError) as exc:
            print(f"cannot load {args.problem_file}: {exc}", file=sys.stderr)
            return None, 2
    if not args.apps:
        print("name catalog PROGRAMs or pass --problem-file", file=sys.stderr)
        return None, 2
    unknown = [a for a in args.apps if a not in CATALOG]
    if unknown:
        print(f"unknown program(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(CATALOG))}", file=sys.stderr)
        return None, 2
    return serial_mix(args.apps, cluster=args.cluster), None


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _parse_solver_spec(args.solver)
    if spec is None:
        return 2
    problem, err = _load_or_mix_problem(args)
    if problem is None:
        return err
    if args.save_problem:
        from .service import save_problem

        fingerprint = save_problem(problem, args.save_problem)
        print(f"problem -> {args.save_problem} "
              f"(fingerprint {fingerprint[:16]}...)", file=sys.stderr)
    budget = None
    if args.budget is not None:
        if not args.budget > 0:  # also refuses NaN
            print("--budget must be positive seconds", file=sys.stderr)
            return 2
        budget = Budget(wall_time=args.budget)
    tracer = None
    if args.trace:
        from .perf import Tracer

        tracer = Tracer(args.trace)
    report = None
    try:
        # run_solve attaches (and restores) the tracer and arms the
        # budget — the CLI only renders the report.
        try:
            report = run_solve(problem, spec, budget=budget, tracer=tracer)
        except SpecError as exc:
            # e.g. unsupported_scenario: the problem needs capabilities
            # (heterogeneous roster, constraints) this solver lacks.
            print(f"cannot solve with {spec.canonical()!r} "
                  f"({exc.reason}): {exc.detail}", file=sys.stderr)
            return 2
        result = report.result
        if result.schedule is None:
            reason = report.stopped or "no schedule found"
            print(f"no schedule ({reason})", file=sys.stderr)
            return 1
        if args.json:
            import json

            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            return 0
        print(result.schedule.pretty(problem.workload))
        print(f"\nsolver: {result.solver}   time: {result.time_seconds:.4f}s")
        if report.stopped is not None:
            print(f"budget: stopped on {report.stopped} "
                  f"(best-so-far schedule, not proven optimal)")
        print(f"total degradation: {result.objective:.6f}")
        print(
            "average degradation: "
            f"{result.evaluation.average_job_degradation:.6f}"
        )
        for jid, d in sorted(result.evaluation.job_degradations.items()):
            print(f"  {problem.workload.jobs[jid].name:10s} {d:.4f}")
        return 0
    finally:
        # The profile must survive a failed or budget-stopped solve — a
        # partial profile is exactly what diagnoses the failure.
        if args.profile:
            print()
            print(problem.counters.report())
            if report is not None:
                solver_stats = {
                    k: v for k, v in report.result.stats.items()
                    if k != "profile"
                }
                if solver_stats:
                    print(f"  solver stats: {solver_stats}")
        if tracer is not None:
            tracer.close()
            print(f"trace: {tracer.events_written} events -> {args.trace}",
                  file=sys.stderr)


def _replay_arg_error(args: argparse.Namespace) -> Optional[str]:
    """The first out-of-range ``replay`` number, as a message, or ``None``.
    Comparisons are written so that NaN fails them."""
    if args.n < 1:
        return "--n must be at least 1"
    if args.events is not None and args.events < 1:
        return "--events must be at least 1"
    if not 0 < args.churn < float("inf"):
        return "--churn must be a positive finite fraction"
    if args.saturation is not None and not 0 < args.saturation < float("inf"):
        return "--saturation must be positive and finite"
    return None


def _cmd_replay(args: argparse.Namespace) -> int:
    from .online import load_trace, replay_trace, synthetic_trace, write_trace

    error = _replay_arg_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if _parse_solver_spec(args.base) is None:
        return 2
    if args.trace_file:
        try:
            trace = load_trace(args.trace_file)
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.trace_file}: {exc}", file=sys.stderr)
            return 2
    else:
        trace = synthetic_trace(args.n, events=args.events,
                                churn=args.churn, seed=args.seed)
    if args.save_trace:
        write_trace(trace, args.save_trace)
        print(f"trace ({len(trace['events'])} events) -> {args.save_trace}",
              file=sys.stderr)
    from .runtime import SpecError

    try:
        result = replay_trace(
            trace,
            base=args.base,
            escalate_threshold=args.escalate_threshold,
            saturation=args.saturation,
            cluster=args.cluster,
        )
    except SpecError as exc:
        print(f"bad --base {args.base!r} ({exc.reason}): {exc.detail}",
              file=sys.stderr)
        return 2
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"replay -> {args.out}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    t = result["trace"]
    print(f"replayed {t['events']} events over n={t['n']} "
          f"(u={result['u']}, churn {t['churn']:.2f}, "
          f"base {result['specs']['full']!r})")
    print(f"{'event':>5} {'op':>7} {'repair ms':>10} {'full ms':>9} "
          f"{'speedup':>8} {'regret':>8} {'kept':>5}")
    for e in result["events"]:
        print(f"{e['event']:>5} {e['op']:>7} {e['repair_ms']:>10.1f} "
              f"{e['full_ms']:>9.1f} {e['speedup']:>8.2f} "
              f"{e['regret']:>8.4f} {e['machines_kept']:>5}"
              + ("  ESCALATED" if e["escalated"] else ""))
    print(f"\namortized speedup: x{result['amortized_speedup']:.2f} "
          f"({result['repair_total_ms']:.0f}ms repair vs "
          f"{result['full_total_ms']:.0f}ms full)")
    print(f"regret: mean {result['mean_regret']:.4f}  "
          f"max {result['max_regret']:.4f}")
    print(f"never worse than greedy: {result['never_worse_than_greedy']}  "
          f"escalations: {result['escalations']}")
    return 0 if result["never_worse_than_greedy"] else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    spec = _parse_solver_spec(args.solver)
    if spec is None:
        return 2
    unknown = [a for a in args.apps if a not in CATALOG]
    if unknown:
        print(f"unknown program(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    from .graph.coschedule_graph import CoSchedulingGraph
    from .graph.visualize import ascii_levels, describe_path, to_dot

    problem = serial_mix(args.apps, cluster=args.cluster)
    graph = CoSchedulingGraph(problem)
    report = run_solve(problem, spec)
    if report.schedule is None:
        print("no schedule found", file=sys.stderr)
        return 1
    if args.dot:
        print(to_dot(graph, highlight=report.schedule))
        return 0
    print(ascii_levels(graph, highlight=report.schedule))
    print()
    print(describe_path(problem, report.schedule))
    return 0


def _serve_arg_error(args: argparse.Namespace) -> Optional[str]:
    """The first out-of-range ``serve`` number, as a message, or ``None``."""
    if args.workers < 1:
        return "--workers must be at least 1"
    if args.max_queue < 1:
        return "--max-queue must be at least 1"
    if args.store_capacity < 1:
        return "--store-capacity must be at least 1"
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    error = _serve_arg_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    shed = args.shed_solver or None
    stop = threading.Event()
    # SIGTERM triggers the graceful drain contract: stop admitting (503 +
    # Retry-After), finish everything in flight, exit.  Ctrl-C stops at once.
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    tracer = None
    if args.trace:
        from .perf import Tracer

        tracer = Tracer(args.trace, flush_every=1)

    from .service import SolutionStore, SolveService, start_http_server

    store = SolutionStore(capacity=args.store_capacity, path=args.store)
    service = SolveService(
        store=store,
        workers=args.workers,
        max_queue=args.max_queue,
        default_solver=args.solver,
        shed_policy=shed,
        tracer=tracer,
    )
    server = start_http_server(service, host=args.host, port=args.port)
    print(f"cosched service on {server.url} "
          f"({args.workers} workers, default solver {args.solver!r}; "
          "POST /solve, GET /status/<id>, GET /metrics; "
          "SIGTERM drains, Ctrl-C stops)")
    graceful = True
    try:
        stop.wait()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    else:
        print("\ndraining", file=sys.stderr)
        graceful = service.drain(timeout=args.drain_timeout)
    server.shutdown()
    service.stop()
    store.close()
    if tracer is not None:
        tracer.close()
    return 0 if graceful else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import urllib.error

    from .service import ServiceClient, ServiceError, schedule_from_dict

    if args.solver is not None and _parse_solver_spec(args.solver) is None:
        return 2  # reject locally with the same registry the server uses
    problem, err = _load_or_mix_problem(args)
    if problem is None:
        return err
    budget = None
    if args.budget is not None:
        if not args.budget > 0:  # also refuses NaN
            print("--budget must be positive seconds", file=sys.stderr)
            return 2
        budget = {"wall_time": args.budget}
    client = ServiceClient(args.url)
    try:
        status = client.solve(
            problem,
            solver=args.solver,
            budget=budget,
            priority=args.priority,
            refine=args.refine,
            timeout=args.timeout,
        )
    except ServiceError as exc:
        print(f"service refused the request: {exc}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, TimeoutError) as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    if status["state"] != "done":
        print(f"request failed: {status.get('error', status)}",
              file=sys.stderr)
        return 1
    schedule = schedule_from_dict(status["schedule"])
    print(schedule.pretty(problem.workload))
    print(f"\ndisposition: {status['disposition']}   "
          f"solved by: {status['solved_by']}   "
          f"warm start: {status['warm_started']}")
    print(f"total degradation: {status['objective']:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosched",
        description=(
            "Contention-aware co-scheduling (ICPP'15 reproduction): run the "
            "paper's experiments or solve ad-hoc instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiments/solvers/programs")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run experiment(s) by id, or 'all'")
    p_run.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    p_run.set_defaults(func=_cmd_run)

    p_solve = sub.add_parser("solve", help="co-schedule catalog programs")
    p_solve.add_argument("apps", nargs="*", metavar="PROGRAM")
    p_solve.add_argument("--cluster", default="quad",
                         choices=("dual", "quad", "eight"))
    p_solve.add_argument(
        "--problem-file", default=None, metavar="FILE.json",
        help="solve a codec-serialized problem instead of catalog programs "
             "(see docs/SERVICE.md for the document schema)",
    )
    p_solve.add_argument(
        "--save-problem", default=None, metavar="FILE.json",
        help="export the instance as canonical JSON (and print its "
             "fingerprint) before solving, so the run is reproducible "
             "with --problem-file",
    )
    p_solve.add_argument(
        "--solver", default="oastar", metavar="SPEC",
        help="runtime registry solver spec, e.g. oastar, hastar?mer=4, "
             "fallback?chain=oastar,pg ('cosched list' shows the registry; "
             "docs/RUNTIME.md has the grammar)",
    )
    p_solve.add_argument(
        "--json", action="store_true",
        help="print the normalized SolveReport document (the same shape "
             "the HTTP service reports) instead of the pretty schedule",
    )
    p_solve.add_argument(
        "--profile", action="store_true",
        help="print weight-kernel batch sizes, memo hits, heap ops and "
             "per-phase wall time after solving",
    )
    p_solve.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-time budget: stop the solver at the deadline and print "
             "its best-so-far valid schedule (anytime mode; combine with "
             "--solver fallback for the OA* > HA* > PG cascade)",
    )
    p_solve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write structured JSONL search events (expand/dismiss/"
             "incumbent/bound/fallback ...) to FILE; summarize with "
             "'python -m repro.analysis.trace_report FILE'",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_graph = sub.add_parser(
        "graph", help="render the co-scheduling graph (Fig. 3 style)"
    )
    p_graph.add_argument("apps", nargs="+", metavar="PROGRAM")
    p_graph.add_argument("--cluster", default="dual",
                         choices=("dual", "quad", "eight"))
    p_graph.add_argument(
        "--solver", default="oastar", metavar="SPEC",
        help="solver spec whose path to highlight (any registry spec; "
             "default oastar, i.e. the optimal path)",
    )
    p_graph.add_argument("--dot", action="store_true",
                         help="emit Graphviz DOT instead of ASCII")
    p_graph.set_defaults(func=_cmd_graph)

    p_replay = sub.add_parser(
        "replay",
        help="replay an arrival trace through the incremental repair engine",
    )
    p_replay.add_argument(
        "--trace-file", default=None, metavar="FILE.json",
        help="replay this repro.trace document instead of synthesizing one "
             "(docs/ONLINE.md has the trace schema)",
    )
    p_replay.add_argument(
        "--n", type=int, default=32, metavar="N",
        help="initial roster size for a synthesized trace (default 32)",
    )
    p_replay.add_argument(
        "--events", type=int, default=None, metavar="N",
        help="number of churn events to synthesize "
             "(default: round(churn * n))",
    )
    p_replay.add_argument(
        "--churn", type=float, default=0.5, metavar="F",
        help="churn fraction for a synthesized trace (default 0.5)",
    )
    p_replay.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="RNG seed for a synthesized trace",
    )
    p_replay.add_argument(
        "--save-trace", default=None, metavar="FILE.json",
        help="write the (possibly synthesized) trace before replaying, so "
             "the run is reproducible with --trace-file",
    )
    p_replay.add_argument(
        "--base", default="hastar", metavar="SPEC",
        help="base solver spec: the repair path runs repair?base=SPEC, the "
             "full-solve baseline runs SPEC from scratch per event",
    )
    p_replay.add_argument(
        "--escalate-threshold", type=float, default=0.5, metavar="F",
        help="perturbed-process fraction above which repair escalates to a "
             "full warm-started re-solve (default 0.5)",
    )
    p_replay.add_argument(
        "--saturation", type=float, default=None, metavar="S",
        help="pressure-model saturation cap (default: uncapped; "
             "docs/ONLINE.md's measured replay uses 4.0)",
    )
    p_replay.add_argument("--cluster", default="quad",
                          choices=("dual", "quad", "eight"))
    p_replay.add_argument(
        "--out", default=None, metavar="FILE.json",
        help="write the full replay result document here",
    )
    p_replay.add_argument(
        "--json", action="store_true",
        help="print the replay result document instead of the event table",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_serve = sub.add_parser(
        "serve", help="run the memoizing co-scheduling HTTP service"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8831,
                         help="bind port; 0 picks an ephemeral port")
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="solver worker threads draining the request queue",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="bound on queued requests; beyond it submissions are "
             "rejected with reason 'queue_full'",
    )
    p_serve.add_argument(
        "--solver", default="fallback", metavar="SPEC",
        help="default solver spec for requests that name none "
             "(validated against the runtime registry)",
    )
    p_serve.add_argument(
        "--store", default=None, metavar="FILE.jsonl",
        help="persist the solution store to a JSONL file (replayed on "
             "restart, so the memo survives)",
    )
    p_serve.add_argument(
        "--store-capacity", type=int, default=1024, metavar="N",
        help="in-memory LRU capacity of the solution store",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="stream svc_* + solver JSONL events to FILE; summarize with "
             "'python -m repro.analysis.trace_report FILE'",
    )
    p_serve.add_argument(
        "--shed-solver", default="pg", metavar="SPEC",
        help="cheap non-exact solver chain used to degrade (not reject) "
             "requests when the queue saturates; empty string disables "
             "shedding",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long a SIGTERM-triggered drain waits for in-flight "
             "solves before forcing shutdown (and exiting 1)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one problem to a running cosched service"
    )
    p_submit.add_argument("apps", nargs="*", metavar="PROGRAM")
    p_submit.add_argument("--url", default="http://127.0.0.1:8831",
                          help="service base URL")
    p_submit.add_argument("--cluster", default="quad",
                          choices=("dual", "quad", "eight"))
    p_submit.add_argument(
        "--problem-file", default=None, metavar="FILE.json",
        help="submit a codec-serialized problem instead of catalog programs",
    )
    p_submit.add_argument(
        "--solver", default=None, metavar="SPEC",
        help="solver spec to request (server default when omitted); the "
             "service validates it against the same runtime registry",
    )
    p_submit.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-time budget to request for the solve",
    )
    p_submit.add_argument(
        "--priority", type=int, default=1, metavar="N",
        help="priority lane (lower is served first; 0 = interactive)",
    )
    p_submit.add_argument(
        "--refine", action="store_true",
        help="skip the cache for non-optimal entries and re-solve with "
             "the cached schedule as a warm start",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="give up waiting for the ticket after this long",
    )
    p_submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
