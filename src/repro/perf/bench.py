"""``cosched bench`` — the committed performance trajectory.

One command produces one machine-readable document::

    cosched bench --out benchmarks/results/BENCH_$(git rev-parse --short HEAD).json

The document records, for this working tree and this machine:

* **micro kernels** — median latency of the three measured hot spots
  (pairwise node weights, pressure node weights, the SDC merge walk, and
  the fused score-then-select level trim) on both the active backend and
  the NumPy reference, plus the speedup between them;
* **end-to-end solve** — latency percentiles (p50/p90/max over repeated
  solves) and nodes/second for a fixed synthetic HA* instance;
* **service scaling** — aggregate throughput of the sharded
  multi-process tier (``docs/DEPLOYMENT.md``) on a 50%-duplicate request
  stream at increasing shard counts (never more shards than CPUs), using
  fixed-iteration CPU-bound solves so the sweep measures capacity; the
  ratio of the largest point to the single-shard point is the recorded
  ``speedup_max_shards``;
* **online repair** — the incremental re-solve engine
  (``docs/ONLINE.md``) replayed over a 50%-churn synthetic arrival
  trace: amortized speedup of ``repair?base=hastar`` against
  per-event full re-solves, mean/max objective regret, and the
  never-worse-than-greedy guarantee flag;
* **scenarios** — ``pg`` / ``hill`` / ``anneal`` objectives on
  homogeneous and heterogeneous twins of one workload;
* **provenance** — git revision, kernel backend (``native`` | ``numpy``),
  provider (``cc``/``numba``/``numpy``), and the ``COSCHED_NATIVE``
  opt-out state;
* **trajectory** — the newest *other* ``BENCH_*.json`` in the results
  directory is loaded as the committed baseline and the solve-latency
  ratio against it is recorded, so each checked-in document extends a
  comparable perf history instead of a pile of unrelated numbers.

``--smoke`` shrinks sizes and repeats to CI scale (seconds, not minutes);
the schema is identical, so the CI ``bench-smoke`` job validates the same
document shape the full run commits.  :func:`validate` is that schema
check — it raises ``ValueError`` with the offending key path, driven by
the :data:`SECTIONS` table of which keys each schema version requires.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["run_bench", "validate", "write_bench", "find_baseline",
           "trajectory", "trajectory_markdown", "SECTIONS",
           "SCHEMA", "SCHEMA_V1", "SCHEMA_V2", "SCHEMA_V3", "SCHEMA_V4",
           "SCHEMA_V5"]

_SCHEMA_PREFIX = "cosched-bench/"
#: Schema version of every new bench document.
SCHEMA_VERSION = 6
SCHEMA = f"{_SCHEMA_PREFIX}{SCHEMA_VERSION}"
#: Prior schemas, still accepted by :func:`validate`.
SCHEMA_V1, SCHEMA_V2, SCHEMA_V3, SCHEMA_V4, SCHEMA_V5 = (
    f"{_SCHEMA_PREFIX}{v}" for v in range(1, SCHEMA_VERSION)
)
_VERSIONS = {f"{_SCHEMA_PREFIX}{v}": v for v in range(1, SCHEMA_VERSION + 1)}


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:  # pragma: no cover - git missing
        pass
    return "unknown"  # pragma: no cover - outside a work tree


def _median_ms(fn: Callable[[], object], repeats: int) -> float:
    """Median wall latency of ``fn`` over ``repeats`` runs (1 warmup)."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _micro_cases(smoke: bool) -> Dict[str, Dict[str, object]]:
    """The three measured hot spots, active backend vs NumPy reference."""
    from . import kernels
    from .kernels import numpy_backend

    rng = np.random.default_rng(20260808)
    if smoke:
        n, u, N, repeats = 64, 4, 2_000, 5
    else:
        n, u, N, repeats = 256, 4, 60_000, 15
    nodes = rng.integers(0, n, size=(N, u)).astype(np.intp)
    P = rng.uniform(0.0, 0.4, size=(n, n))
    np.fill_diagonal(P, 0.0)
    rates = rng.uniform(0.15, 0.75, size=n)
    # Above the cc backend's small-merge cutoff so the compiled walk runs.
    counters = [tuple(rng.uniform(0, 1000, size=65)) for _ in range(8)]
    sdc_w = [float(w) for w in rng.uniform(0.5, 2.0, size=8)]
    sdc_reps = repeats * (40 if smoke else 200)
    weights = rng.uniform(0.0, 1.0, size=N)
    # The MER regime: keep n/u of a much larger level.
    k = max(1, n // u)

    cases: Dict[str, Dict[str, object]] = {}

    def case(name: str, active: Callable[[], object],
             reference: Callable[[], object], reps: int) -> None:
        active_ms = _median_ms(active, reps)
        numpy_ms = _median_ms(reference, reps)
        cases[name] = {
            "numpy_ms": numpy_ms,
            "active_ms": active_ms,
            "speedup": (numpy_ms / active_ms) if active_ms > 0 else math.inf,
        }

    case(
        "pairwise_node_weights",
        lambda: kernels.pairwise_node_weights(P, nodes),
        lambda: numpy_backend.pairwise_node_weights(P, nodes),
        repeats,
    )
    case(
        "pressure_node_weights",
        lambda: kernels.pressure_node_weights(rates, rates, nodes, 0.31, None),
        lambda: numpy_backend.pressure_node_weights(
            rates, rates, nodes, 0.31, None),
        repeats,
    )
    case(
        "sdc_merge_ways",
        lambda: kernels.sdc_merge_ways(counters, sdc_w, 64),
        lambda: numpy_backend.sdc_merge_ways(counters, sdc_w, 64),
        sdc_reps,
    )
    case(
        "select_smallest",
        lambda: kernels.select_smallest(weights, k),
        lambda: numpy_backend.select_smallest(weights, k),
        repeats,
    )
    return cases


def _solve_case(smoke: bool, repeats: Optional[int]) -> Dict[str, object]:
    """Latency percentiles + nodes/sec for a fixed synthetic HA* solve."""
    from ..runtime import run_solve
    from ..workloads.synthetic import random_serial_instance

    n = 24 if smoke else 64
    reps = repeats if repeats is not None else (3 if smoke else 9)
    spec = "hastar"
    latencies: List[float] = []
    nodes_total = 0
    for i in range(reps):
        problem = random_serial_instance(n, "quad", seed=17, saturation=4.0)
        t0 = time.perf_counter()
        report = run_solve(problem, spec)
        latencies.append((time.perf_counter() - t0) * 1e3)
        nodes_total += int(report.result.stats.get("nodes_generated", 0))
    latencies.sort()

    def pct(q: float) -> float:
        idx = min(len(latencies) - 1, int(math.ceil(q * len(latencies))) - 1)
        return latencies[max(0, idx)]

    total_s = sum(latencies) / 1e3
    return {
        "spec": spec,
        "n": n,
        "u": 4,
        "repeats": reps,
        "latency_ms": {"p50": pct(0.5), "p90": pct(0.9),
                       "max": latencies[-1]},
        "nodes_per_sec": (nodes_total / total_s) if total_s > 0 else 0.0,
    }


def _balanced_stream(distinct: int, max_shards: int) -> List[object]:
    """``distinct`` problems chosen so they spread evenly at every shard
    count in the sweep.

    Problems are drawn from fixed synthetic seeds and *selected by
    fingerprint residue* so that exactly ``distinct / max_shards`` land on
    each shard at ``max_shards`` (and, because the residues cover
    ``0..max_shards-1`` uniformly, evenly at every divisor too).  This
    keeps the scaling measurement about process parallelism rather than
    routing luck on a tiny stream.
    """
    from ..service.codec import problem_fingerprint
    from ..service.shard import shard_for
    from ..workloads.synthetic import random_serial_instance

    per_shard = distinct // max_shards
    buckets: Dict[int, List[object]] = {i: [] for i in range(max_shards)}
    seed = 0
    while sum(len(b) for b in buckets.values()) < distinct:
        problem = random_serial_instance(8, seed=seed)
        seed += 1
        idx = shard_for(problem_fingerprint(problem), max_shards)
        if len(buckets[idx]) < per_shard:
            buckets[idx].append(problem)
        if seed > distinct * 64:  # pragma: no cover - defensive
            raise RuntimeError("could not balance bench stream")
    ordered: List[object] = []
    for k in range(per_shard):
        for i in range(max_shards):
            ordered.append(buckets[i][k])
    return ordered


def _service_case(smoke: bool) -> Dict[str, object]:
    """Aggregate throughput of the sharded tier vs shard count.

    The stream is 50% duplicates: every distinct problem is requested
    twice (the second wave hits the store or coalesces).  Every solve is
    a fixed-iteration anneal run with no wall budget, so it is CPU-bound
    and shards only overlap where there are cores to run them; the sweep
    never uses more shards than ``os.cpu_count()``.
    """
    from concurrent.futures import ThreadPoolExecutor

    from ..service import ShardedService

    cpu_count = os.cpu_count() or 1
    if smoke:
        shard_counts, distinct, iterations, clients = [1, 2], 4, 2000, 4
    else:
        shard_counts, distinct, iterations, clients = [1, 2, 4], 16, 5000, 8
    shard_counts = [s for s in shard_counts if s <= cpu_count]
    solver = f"anneal?iterations={iterations}"
    problems = _balanced_stream(distinct, max_shards=shard_counts[-1])
    stream = problems + problems  # 50% duplicates

    points: List[Dict[str, object]] = []
    for shards in shard_counts:
        with ShardedService(shards=shards, workers_per_shard=1,
                            default_solver=solver) as svc:
            def one(problem):
                return svc.submit(problem, solver=solver, wait=60.0)
            t0 = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                docs = list(pool.map(one, stream))
            seconds = time.perf_counter() - t0
            agg = svc.metrics()["aggregate_requests"]
        unresolved = sum(1 for d in docs if d["state"] != "done")
        points.append({
            "shards": shards,
            "requests": len(stream),
            "unresolved": unresolved,
            "seconds": seconds,
            "rps": (len(stream) / seconds) if seconds > 0 else 0.0,
            "solves": int(agg.get("solves", 0)),
            "cache_hits": int(agg.get("cache_hits", 0)),
            "coalesced": int(agg.get("coalesced", 0)),
            "shed": int(agg.get("shed", 0)),
        })
    base_rps = points[0]["rps"]
    return {
        "stream": {
            "distinct": distinct,
            "requests": len(stream),
            "duplicate_fraction": 0.5,
            "solver": solver,
            "clients": clients,
        },
        "cpu_count": cpu_count,
        "points": points,
        "speedup_max_shards": (
            points[-1]["rps"] / base_rps if base_rps > 0 else math.inf
        ),
    }


def _online_case(smoke: bool) -> Dict[str, object]:
    """Replay the incremental-repair engine over a 50%-churn trace.

    The full run is the acceptance configuration of the online section
    (``docs/ONLINE.md``): n=32 initial jobs on quad machines (u=4),
    16 churn events (update/depart/arrive cycle), ``repair?base=hastar``
    against per-event full ``hastar`` re-solves with a PG floor.  The
    per-event records are kept in the document so regressions can be
    localized to an event kind.
    """
    from ..online import replay_trace, synthetic_trace

    if smoke:
        trace = synthetic_trace(16, events=4, seed=0)
    else:
        trace = synthetic_trace(32, seed=0)
    return replay_trace(trace, base="hastar", saturation=4.0)


def _scenarios_case(smoke: bool) -> Dict[str, object]:
    """Solver quality on homogeneous vs heterogeneous variants of the
    same workload (``docs/SCENARIOS.md``).

    Both variants draw the *same* miss rates (same seed, same generator
    stream), so the only difference is the cluster: uniform quad-core
    machines versus a quad + eight roster with a bandwidth cap on the
    quad and clock-ratio scaling.  ``het_vs_homog`` records, per solver,
    the median heterogeneous objective over the median homogeneous one —
    how much of the homogeneous solution quality each heuristic keeps
    when the machine roster stops being uniform.
    """
    from ..runtime import run_solve
    from ..workloads.synthetic import (
        random_heterogeneous_instance,
        random_serial_instance,
    )

    machines = ("quad", "eight")
    n = 12  # sum of the roster's cores; the homogeneous twin uses 3 quads
    seeds = [0, 1] if smoke else [0, 1, 2, 3, 4]
    solvers = ["pg", "hill", "anneal"]

    def spec_for(solver: str, seed: int) -> str:
        return "pg" if solver == "pg" else f"{solver}?seed={seed}"

    def variant_point(variant: str) -> Dict[str, object]:
        per_seed: Dict[str, List[float]] = {s: [] for s in solvers}
        for seed in seeds:
            if variant == "homogeneous":
                problem = random_serial_instance(
                    n, "quad", seed=seed, saturation=0.9)
            else:
                problem = random_heterogeneous_instance(
                    machines, seed=seed, saturation=0.9,
                    bandwidth_caps=(2.5e9, None), clock_scaling=True)
            for solver in solvers:
                problem.clear_caches()
                report = run_solve(problem, spec_for(solver, seed))
                per_seed[solver].append(float(report.result.objective))
        return {
            "variant": variant,
            "n": n,
            "per_seed": per_seed,
            "median": {s: statistics.median(per_seed[s]) for s in solvers},
        }

    points = [variant_point("homogeneous"), variant_point("heterogeneous")]
    homog, het = points[0]["median"], points[1]["median"]
    return {
        "solvers": solvers,
        "seeds": seeds,
        "machines": list(machines),
        "constraints": ["bandwidth_cap"],
        "points": points,
        "het_vs_homog": {
            s: (het[s] / homog[s]) if homog[s] > 0 else math.inf
            for s in solvers
        },
    }


def find_baseline(results_dir: str,
                  current_revision: str) -> Optional[Dict[str, object]]:
    """The newest valid ``BENCH_*.json`` for a *different* revision.

    Documents for the current revision are skipped (re-running the bench
    must not make the tree its own baseline), as are unreadable or
    schema-invalid files.
    """
    try:
        names = sorted(
            f for f in os.listdir(results_dir)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
    except OSError:
        return None
    candidates = []
    for name in names:
        path = os.path.join(results_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            validate(doc)
        except (OSError, ValueError):
            continue
        if doc["revision"] != current_revision:
            candidates.append((doc["created_unix"], doc))
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[0])[1]


def run_bench(
    smoke: bool = False,
    repeats: Optional[int] = None,
    results_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the micro + end-to-end suites and assemble the bench document.

    ``results_dir`` (default ``benchmarks/results`` under the repo) is
    only *read*, to locate the committed baseline; writing the document
    is the caller's choice via :func:`write_bench`.
    """
    from . import kernels

    revision = _git_revision()
    info = kernels.backend_info()
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "revision": revision,
        "created_unix": int(time.time()),
        "kernel_backend": kernels.active_backend(),
        "provider": str(info.get("provider", "numpy")),
        "native_disabled": bool(info.get("native_disabled", False)),
        "smoke": bool(smoke),
        "micro": _micro_cases(smoke),
        "solve": _solve_case(smoke, repeats),
        "service": _service_case(smoke),
        "online": _online_case(smoke),
        "scenarios": _scenarios_case(smoke),
    }
    baseline = None
    if results_dir:
        prior = find_baseline(results_dir, revision)
        if prior is not None:
            prior_p50 = prior["solve"]["latency_ms"]["p50"]
            cur_p50 = doc["solve"]["latency_ms"]["p50"]
            baseline = {
                "revision": prior["revision"],
                "kernel_backend": prior["kernel_backend"],
                "solve_p50_ms": prior_p50,
                # >1 means this tree solves faster than the baseline.
                "speedup_vs_baseline": (
                    prior_p50 / cur_p50 if cur_p50 > 0 else math.inf
                ),
            }
    doc["baseline"] = baseline
    return doc


_NUM = (int, float)


class _Each:
    """Spec: a non-empty object whose every value matches ``spec``."""

    def __init__(self, spec):
        self.spec = spec


class _Nullable:
    """Spec: ``None`` or a value matching ``spec``."""

    def __init__(self, spec):
        self.spec = spec


class _OneOf:
    """Spec: one of a fixed set of values."""

    def __init__(self, *values):
        self.values = values


def _check(value: object, spec: object, path: str) -> None:
    """Raise ``ValueError`` naming ``path`` unless ``value`` fits ``spec``.

    A spec is a type or tuple of types (``isinstance``), a dict of
    required keys to specs, a one-item list (a non-empty list whose items
    match the item spec), or one of :class:`_Each`, :class:`_Nullable`,
    :class:`_OneOf`.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be an object")
        for key, sub in spec.items():
            if key not in value:
                raise ValueError(f"missing key: {path}.{key}")
            _check(value[key], sub, f"{path}.{key}")
    elif isinstance(spec, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{path} must be a non-empty list")
        for i, item in enumerate(value):
            _check(item, spec[0], f"{path}[{i}]")
    elif isinstance(spec, _Each):
        if not isinstance(value, dict) or not value:
            raise ValueError(f"{path} must be a non-empty object")
        for key, item in value.items():
            _check(item, spec.spec, f"{path}.{key}")
    elif isinstance(spec, _Nullable):
        if value is not None:
            _check(value, spec.spec, path)
    elif isinstance(spec, _OneOf):
        if value not in spec.values:
            raise ValueError(
                f"{path} must be one of {', '.join(map(repr, spec.values))}")
    elif not isinstance(value, spec):
        raise ValueError(f"{path} must be of type "
                         f"{getattr(spec, '__name__', spec)}")


def _solver_grid(section: Dict[str, object], path: str) -> None:
    """Every point lists one number per seed and a median for every
    solver the section names."""
    for i, point in enumerate(section["points"]):
        for solver in section["solvers"]:
            vals = point["per_seed"].get(solver)
            if (not isinstance(vals, list)
                    or len(vals) != len(section["seeds"])
                    or not all(isinstance(v, _NUM) for v in vals)):
                raise ValueError(f"{path}.points[{i}].per_seed.{solver} "
                                 f"must list one number per seed")
            if not isinstance(point["median"].get(solver), _NUM):
                raise ValueError(
                    f"{path}.points[{i}].median.{solver} must be a number")


def _check_scenarios(section: Dict[str, object], path: str) -> None:
    _solver_grid(section, path)
    variants = {p.get("variant") for p in section["points"]}
    if not {"homogeneous", "heterogeneous"} <= variants:
        raise ValueError(f"{path}.points must cover the 'homogeneous' and "
                         f"'heterogeneous' variants")
    for solver in section["solvers"]:
        if not isinstance(section["het_vs_homog"].get(solver), _NUM):
            raise ValueError(f"{path}.het_vs_homog.{solver} must be a number")


#: Top-level key -> (first schema version, last schema version or
#: ``None`` while current, required shape, extra consistency check or
#: ``None``).  Adding a section is one row here; retiring one sets its
#: last version.
SECTIONS = {
    "revision": (1, None, str, None),
    "created_unix": (1, None, _NUM, None),
    "kernel_backend": (1, None, _OneOf("native", "numpy"), None),
    "provider": (1, None, str, None),
    "native_disabled": (1, None, bool, None),
    "smoke": (1, None, bool, None),
    "micro": (1, None, _Each(
        {"numpy_ms": _NUM, "active_ms": _NUM, "speedup": _NUM}), None),
    "solve": (1, None, {
        "spec": str, "n": int, "u": int, "repeats": int,
        "latency_ms": {"p50": _NUM, "p90": _NUM, "max": _NUM},
        "nodes_per_sec": _NUM,
    }, None),
    "baseline": (1, None, _Nullable(
        {"revision": str, "speedup_vs_baseline": _NUM}), None),
    "service": (2, None, {
        "stream": dict, "cpu_count": int, "speedup_max_shards": _NUM,
        "points": [{key: _NUM for key in (
            "shards", "requests", "seconds", "rps", "solves", "cache_hits",
            "coalesced", "shed")}],
    }, None),
    "online": (3, None, {
        "trace": dict, "specs": dict, "u": int,
        "never_worse_than_greedy": bool,
        **{key: _NUM for key in (
            "repair_total_ms", "full_total_ms", "amortized_speedup",
            "mean_regret", "max_regret", "escalations")},
        "events": [{"repair_ms": _NUM, "full_ms": _NUM, "regret": _NUM}],
    }, None),
    # Retired: the genetic solver it measured was removed after v5.
    "evolve": (4, 5, {
        "solvers": [str], "seeds": [int],
        "genetic_never_worse_than_pg": bool, "genetic_beats_anneal": bool,
        "genetic_beats_hill": bool,
        "points": [{"n": _NUM, "u": _NUM, "wall_budget_s": _NUM,
                    "per_seed": dict, "median": dict, "genetic_vs": dict}],
    }, _solver_grid),
    "scenarios": (5, None, {
        "solvers": [str], "seeds": [int], "machines": list,
        "het_vs_homog": dict,
        "points": [{"variant": str, "n": _NUM, "per_seed": dict,
                    "median": dict}],
    }, _check_scenarios),
}


def validate(doc: object) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid bench document.

    The ``schema`` tag picks which :data:`SECTIONS` rows apply; every
    section a version requires must be present and well-formed.
    """
    if not isinstance(doc, dict):
        raise ValueError("bench document must be an object")
    if "schema" not in doc:
        raise ValueError("missing key: schema")
    schema = doc["schema"]
    if not isinstance(schema, str) or schema not in _VERSIONS:
        raise ValueError(f"schema must be {SCHEMA_V1} .. {SCHEMA}, "
                         f"got {schema!r}")
    version = _VERSIONS[schema]
    for key, (since, until, spec, extra) in SECTIONS.items():
        if version < since or (until is not None and version > until):
            continue
        if key not in doc:
            raise ValueError(f"missing key: {key}")
        _check(doc[key], spec, key)
        if extra is not None:
            extra(doc[key], key)


def write_bench(doc: Dict[str, object], path: str) -> None:
    """Validate and write ``doc`` as deterministic, diff-friendly JSON."""
    validate(doc)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def trajectory(results_dir: str) -> List[Dict[str, object]]:
    """Every valid ``BENCH_*.json`` in ``results_dir`` as one comparable
    row per document, oldest first.

    Rows normalize across schema versions: v1 documents have no
    ``service`` section, v1/v2 no ``online`` section, and v1–v4 no
    ``scenarios`` section, so those columns are ``None`` there.
    Unreadable or schema-invalid files are skipped
    (same policy as :func:`find_baseline`).  ``cosched bench
    --trajectory`` renders this as the cross-revision table.
    """
    try:
        names = sorted(
            f for f in os.listdir(results_dir)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
    except OSError:
        return []
    rows: List[Dict[str, object]] = []
    for name in names:
        path = os.path.join(results_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            validate(doc)
        except (OSError, ValueError):
            continue
        micro = doc["micro"]
        service = doc.get("service")
        online = doc.get("online")
        scenarios = doc.get("scenarios")
        rows.append({
            "file": name,
            "revision": doc["revision"],
            "created_unix": doc["created_unix"],
            "schema": doc["schema"],
            "kernel_backend": doc["kernel_backend"],
            "smoke": bool(doc["smoke"]),
            "solve_p50_ms": doc["solve"]["latency_ms"]["p50"],
            "solve_n": doc["solve"]["n"],
            "nodes_per_sec": doc["solve"]["nodes_per_sec"],
            "micro_speedup_max": max(
                case["speedup"] for case in micro.values()
            ) if micro else None,
            "service_speedup": (
                service["speedup_max_shards"] if service else None
            ),
            "online_speedup": (
                online["amortized_speedup"] if online else None
            ),
            "online_mean_regret": (
                online["mean_regret"] if online else None
            ),
            # Pre-v5 documents have no scenarios section — column stays
            # blank for them.
            "scenario_het_ratio": (
                scenarios["het_vs_homog"].get("hill") if scenarios else None
            ),
        })
    rows.sort(key=lambda r: r["created_unix"])
    return rows


def trajectory_markdown(rows: List[Dict[str, object]]) -> str:
    """Render :func:`trajectory` rows as a GitHub-flavored markdown table."""
    header = ("| revision | schema | backend | smoke | solve p50 (ms) "
              "| nodes/s | service x | online x | regret | het/homog |")
    rule = "|---|---|---|---|---:|---:|---:|---:|---:|---:|"

    def num(v, fmt="{:.2f}"):
        return fmt.format(v) if isinstance(v, (int, float)) else "—"

    lines = [header, rule]
    for r in rows:
        lines.append(
            f"| {r['revision']} | {r['schema'].rsplit('/', 1)[-1]} "
            f"| {r['kernel_backend']} "
            f"| {'yes' if r['smoke'] else 'no'} "
            f"| {num(r['solve_p50_ms'])} "
            f"| {num(r['nodes_per_sec'], '{:.0f}')} "
            f"| {num(r['service_speedup'])} "
            f"| {num(r['online_speedup'])} "
            f"| {num(r['online_mean_regret'], '{:.4f}')} "
            f"| {num(r['scenario_het_ratio'])} |"
        )
    return "\n".join(lines)
