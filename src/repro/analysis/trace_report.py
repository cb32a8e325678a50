"""Summarize a JSONL search trace into a human-readable report.

Consumes the event stream written by :class:`repro.perf.Tracer` (see
``docs/OBSERVABILITY.md`` for the schema) and answers the questions a slow
or budget-stopped solve raises: how far did the search get, when did the
incumbent last improve, how much pruning did dismissal do, which fallback
stage produced the answer, and why did the run stop.

Use programmatically::

    from repro.analysis.trace_report import summarize_trace, render_report
    from repro.perf import read_trace

    summary = summarize_trace(read_trace("solve.jsonl"))
    print(render_report(summary))

or from the shell (the companion of ``cosched solve --trace``)::

    python -m repro.analysis.trace_report solve.jsonl
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from ..perf.tracer import read_trace

__all__ = ["summarize_trace", "render_report", "main"]


def summarize_trace(events: Iterable[dict]) -> Dict[str, object]:
    """Fold an event stream into one summary dict.

    Keys: ``n_events``, ``event_counts`` (per type), ``wall_span`` (first to
    last timestamp), ``solvers`` (run order), ``expanded`` (total expand
    events), ``expand_rate`` (events/s over the span), ``dismissed`` (total
    dismissal count), ``max_depth``, ``incumbents`` (objective trajectory:
    list of ``{t, solver, objective}``), ``first_incumbent`` /
    ``best_incumbent``, ``budget_stops`` (list of ``{solver, reason}``),
    ``fallbacks`` (list of ``{from, to, reason}``), ``final`` (the last
    solve_end payload, if any), ``service`` (svc_* event totals from a
    :class:`repro.service.SolveService` trace: enqueued / cache_hits /
    coalesced / warm_starts / rejects, the derived ``cache_hit_rate``, and
    ``reject_reasons``).
    """
    counts: Counter = Counter()
    n_events = 0
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    solvers: List[str] = []
    expanded = 0
    dismissed = 0
    max_depth = 0
    incumbents: List[dict] = []
    budget_stops: List[dict] = []
    fallbacks: List[dict] = []
    final: Optional[dict] = None
    svc = {"enqueued": 0, "cache_hits": 0, "coalesced": 0,
           "warm_starts": 0, "rejects": 0}
    reject_reasons: Counter = Counter()

    for event in events:
        ev = event.get("ev", "?")
        t = event.get("t")
        n_events += 1
        counts[ev] += 1
        if isinstance(t, (int, float)):
            if t_first is None:
                t_first = t
            t_last = t
        if ev == "solve_start":
            solvers.append(event.get("solver", "?"))
        elif ev == "expand":
            expanded += 1
            depth = event.get("depth")
            if isinstance(depth, int) and depth > max_depth:
                max_depth = depth
        elif ev == "level":
            depth = event.get("depth")
            if isinstance(depth, int) and depth > max_depth:
                max_depth = depth
        elif ev == "dismiss":
            dismissed += int(event.get("count", 1))
        elif ev == "incumbent":
            incumbents.append({
                "t": t,
                "solver": event.get("solver"),
                "objective": event.get("objective"),
            })
        elif ev == "budget_stop":
            budget_stops.append({
                "solver": event.get("solver"),
                "reason": event.get("reason"),
            })
        elif ev == "fallback":
            fallbacks.append({
                "from": event.get("from_solver"),
                "to": event.get("to_solver"),
                "reason": event.get("reason"),
            })
        elif ev == "solve_end":
            final = event
        elif ev == "svc_enqueue":
            svc["enqueued"] += 1
        elif ev == "svc_cache_hit":
            svc["cache_hits"] += 1
        elif ev == "svc_coalesce":
            svc["coalesced"] += 1
        elif ev == "svc_warm_start":
            svc["warm_starts"] += 1
        elif ev == "svc_reject":
            svc["rejects"] += 1
            reject_reasons[event.get("reason", "?")] += 1

    span = 0.0
    if t_first is not None and t_last is not None:
        span = max(0.0, t_last - t_first)
    objectives = [
        i["objective"] for i in incumbents
        if isinstance(i.get("objective"), (int, float))
    ]
    return {
        "n_events": n_events,
        "event_counts": dict(counts),
        "wall_span": span,
        "solvers": solvers,
        "expanded": expanded,
        "expand_rate": expanded / span if span > 0 else 0.0,
        "dismissed": dismissed,
        "max_depth": max_depth,
        "incumbents": incumbents,
        "first_incumbent": objectives[0] if objectives else None,
        "best_incumbent": min(objectives) if objectives else None,
        "budget_stops": budget_stops,
        "fallbacks": fallbacks,
        "final": final,
        "service": {
            **svc,
            "requests": sum(
                svc[k] for k in ("enqueued", "cache_hits", "coalesced")
            ) + svc["rejects"],
            "cache_hit_rate": (
                svc["cache_hits"]
                / max(1, svc["enqueued"] + svc["cache_hits"]
                      + svc["coalesced"])
            ),
            "reject_reasons": dict(reject_reasons),
        },
    }


def render_report(summary: Dict[str, object]) -> str:
    """Multi-line text report for a :func:`summarize_trace` summary."""
    lines = ["trace report:"]
    lines.append(f"  events                 {summary['n_events']}")
    lines.append(f"  wall span              {summary['wall_span']:.4f}s")
    if summary["solvers"]:
        lines.append(f"  solver runs            {', '.join(summary['solvers'])}")
    counts = summary["event_counts"]
    if counts:
        lines.append("  by type:")
        for name in sorted(counts):
            lines.append(f"    {name:<20s} {counts[name]}")
    if summary["expanded"]:
        lines.append(
            f"  expansions             {summary['expanded']} "
            f"({summary['expand_rate']:.0f}/s), max depth "
            f"{summary['max_depth']}"
        )
    if summary["dismissed"]:
        lines.append(f"  subpaths dismissed     {summary['dismissed']}")
    if summary["incumbents"]:
        lines.append(
            f"  incumbents             {len(summary['incumbents'])} "
            f"(first {summary['first_incumbent']:.6f}, "
            f"best {summary['best_incumbent']:.6f})"
        )
    for stop in summary["budget_stops"]:
        lines.append(
            f"  budget stop            {stop['solver']}: {stop['reason']}"
        )
    for fb in summary["fallbacks"]:
        lines.append(
            f"  fallback               {fb['from']} -> {fb['to']} "
            f"({fb['reason']})"
        )
    service = summary.get("service")
    if isinstance(service, dict) and service.get("requests"):
        lines.append(
            f"  service requests       {service['requests']} "
            f"(cache hits {service['cache_hits']} — "
            f"{service['cache_hit_rate']:.0%}, "
            f"coalesced {service['coalesced']}, "
            f"warm starts {service['warm_starts']}, "
            f"rejects {service['rejects']})"
        )
        for reason, count in sorted(service["reject_reasons"].items()):
            lines.append(f"    reject: {reason:<12s} {count}")
    final = summary["final"]
    if isinstance(final, dict):
        objective = final.get("objective")
        objective_text = (
            f"{objective:.6f}" if isinstance(objective, (int, float))
            else "none"
        )
        lines.append(
            f"  final                  {final.get('solver')}: "
            f"objective={objective_text} optimal={final.get('optimal')} "
            f"stopped={final.get('stopped')}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis.trace_report FILE [FILE ...]``"""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.analysis.trace_report FILE [FILE ...]",
              file=sys.stderr)
        return 2
    for path in args:
        if len(args) > 1:
            print(f"== {path} ==")
        print(render_report(summarize_trace(read_trace(path))))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
