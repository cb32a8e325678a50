"""Event-driven replay: amortized repair latency and regret vs full solves.

A **trace** is a JSON document (``{"format": "repro.trace", "version": 1,
"initial": [[name, miss_rate], ...], "events": [{"op": ...}, ...]}``)
describing an initial roster and a stream of arrivals, departures and
profile updates.  :func:`replay_trace` drives the stream through a
:class:`~repro.online.session.ProblemSession` and, per event, measures

* the **repair** path: ``session.repair()`` — delta matching plus the
  incremental solve (the amortized cost under test);
* the **full** path: an independent from-scratch solve of the same roster
  with the same base spec (the baseline repair must beat);
* the **greedy** floor: a from-scratch PG schedule (the guarantee —
  repair must never return worse).

**Regret** per event is the relative objective gap of the repaired
schedule against the full re-solve, clamped at zero (repair can win —
warm starts make that legal):
``max(0, repair_obj - full_obj) / full_obj``.  The aggregate
``amortized_speedup`` is total full-solve time over total repair time —
the headline number ``cosched replay`` prints.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Optional

from .session import ProblemSession

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "load_trace",
    "replay_trace",
    "synthetic_trace",
    "write_trace",
]

TRACE_FORMAT = "repro.trace"
TRACE_VERSION = 1

#: Miss-rate draw range for synthetic traces (the paper's [15%, 75%]).
_MISS_RANGE = (0.15, 0.75)


def synthetic_trace(
    n: int = 32,
    events: Optional[int] = None,
    churn: float = 0.5,
    seed: int = 0,
) -> Dict[str, object]:
    """A reproducible churn trace: ``n`` initial jobs, then ``events``
    operations cycling update → depart → arrive (roster size stays within
    one job of ``n``).  ``events`` defaults to ``round(churn * n)`` —
    ``cosched replay``'s default 50%-churn trace is ``synthetic_trace(32)``.
    """
    if events is None:
        events = max(1, int(round(churn * n)))
    rng = random.Random(seed)
    initial = [
        [f"job{i}", round(rng.uniform(*_MISS_RANGE), 6)] for i in range(n)
    ]
    live = [name for name, _ in initial]
    next_id = n
    out: List[Dict[str, object]] = []
    for k in range(events):
        kind = ("update", "depart", "arrive")[k % 3]
        if kind == "depart" and len(live) <= 1:
            kind = "arrive"
        if kind == "arrive":
            name = f"job{next_id}"
            next_id += 1
            live.append(name)
            out.append({"op": "arrive", "name": name,
                        "miss_rate": round(rng.uniform(*_MISS_RANGE), 6)})
        elif kind == "depart":
            name = live.pop(rng.randrange(len(live)))
            out.append({"op": "depart", "name": name})
        else:
            name = live[rng.randrange(len(live))]
            out.append({"op": "update", "name": name,
                        "miss_rate": round(rng.uniform(*_MISS_RANGE), 6)})
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "n": n,
        "churn": events / n if n else 0.0,
        "seed": seed,
        "initial": initial,
        "events": out,
    }


def write_trace(trace: Dict[str, object], path: str) -> None:
    """Write a trace document as deterministic JSON."""
    _check_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace(path: str) -> Dict[str, object]:
    """Load and validate a trace document."""
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    _check_trace(trace)
    return trace


def _check_trace(trace: object) -> None:
    if not isinstance(trace, dict) or trace.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} document")
    if trace.get("version") != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {trace.get('version')!r}")
    for key in ("initial", "events"):
        if not isinstance(trace.get(key), list):
            raise ValueError(f"trace {key!r} must be a list")


def replay_trace(
    trace: Dict[str, object],
    base: str = "hastar",
    escalate_threshold: float = 0.5,
    saturation: Optional[float] = None,
    cluster: str = "quad",
) -> Dict[str, object]:
    """Drive ``trace`` through a session, comparing repair against full
    re-solves per event.  Returns a JSON-safe result document (see module
    docstring for the metrics)."""
    from ..runtime import run_solve

    _check_trace(trace)
    session = ProblemSession(
        cluster,
        base=base,
        escalate_threshold=escalate_threshold,
        saturation=saturation,
        jobs=[(str(name), float(rate)) for name, rate in trace["initial"]],
    )
    session.solve()

    events_out: List[Dict[str, object]] = []
    repair_s_total = 0.0
    full_s_total = 0.0
    regrets: List[float] = []
    never_worse = True
    escalations = 0
    for i, event in enumerate(trace["events"]):
        session.apply(event)

        t0 = time.perf_counter()
        repair_report = session.repair()
        repair_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        fresh = session.build_problem()
        full_report = run_solve(fresh, base)
        full_s = time.perf_counter() - t0

        greedy_report = run_solve(session.build_problem(), "pg")

        denom = max(abs(full_report.objective), 1e-12)
        regret = max(0.0, repair_report.objective - full_report.objective
                     ) / denom
        tol = 1e-9 * (1.0 + abs(greedy_report.objective))
        worse_than_greedy = (
            repair_report.objective > greedy_report.objective + tol
        )
        never_worse = never_worse and not worse_than_greedy
        stats = repair_report.result.stats
        escalated = bool(stats.get("escalated"))
        escalations += int(escalated)
        repair_s_total += repair_s
        full_s_total += full_s
        regrets.append(regret)
        events_out.append({
            "event": i,
            "op": event.get("op"),
            "n": fresh.n,
            "repair_ms": repair_s * 1e3,
            "full_ms": full_s * 1e3,
            "speedup": (full_s / repair_s) if repair_s > 0 else float("inf"),
            "repair_objective": repair_report.objective,
            "full_objective": full_report.objective,
            "greedy_objective": greedy_report.objective,
            "regret": regret,
            "worse_than_greedy": worse_than_greedy,
            "escalated": escalated,
            "machines_kept": int(stats.get("machines_kept", 0)),
            "machines_resolved": int(stats.get("machines_resolved", 0)),
        })

    n_events = len(events_out)
    return {
        "trace": {
            "n": trace.get("n", len(trace["initial"])),
            "churn": trace.get("churn"),
            "seed": trace.get("seed"),
            "events": n_events,
        },
        "specs": {
            "repair": f"repair?base={base}",
            "full": base,
            "greedy": "pg",
        },
        "u": session.cluster.cores,
        "events": events_out,
        "repair_total_ms": repair_s_total * 1e3,
        "full_total_ms": full_s_total * 1e3,
        "amortized_speedup": (
            full_s_total / repair_s_total if repair_s_total > 0
            else float("inf")
        ),
        "mean_regret": (sum(regrets) / n_events) if n_events else 0.0,
        "max_regret": max(regrets) if regrets else 0.0,
        "never_worse_than_greedy": never_worse,
        "escalations": escalations,
        "session_stats": dict(session.stats),
    }
