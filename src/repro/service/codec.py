"""Canonical, versioned JSON round-trip for problems and schedules.

Two distinct encodings, for two distinct jobs:

* the **plain** encoding (:func:`problem_to_dict` / :func:`problem_from_dict`)
  preserves everything reconstruction needs — job names, workload order,
  catalog profile names, full model parameter arrays — so a problem saved
  with ``cosched solve --save-problem`` reloads exactly;
* the **canonical** encoding (:func:`canonical_problem`) exists only to be
  hashed: job names are dropped, jobs are re-ordered by a content-derived
  sort key, per-process model parameters are permuted along with them, and
  imaginary padding (semantically inert by construction — the degradation
  path filters it out) is excluded.  :func:`problem_fingerprint` is the
  SHA-256 of its compact JSON form.

The fingerprint is *content-addressed*: two problems built from the same
jobs in a different order (process/job relabeling) hash identically, and
changing any parameter that can affect any degradation — a miss rate, a
halo volume, a cache size, the core count — changes the hash.  The
guarantee is one-sided in the degenerate direction: problems whose jobs
are parameter-for-parameter indistinguishable always collapse to one
fingerprint, while exotic isomorphisms of a pairwise
:class:`~repro.core.degradation.MatrixDegradationModel` between *tied*
job descriptors may conservatively hash apart (a memo key may treat equal
things as distinct, never distinct things as equal).

Problems carrying a ``node_extra_cost`` hook (an arbitrary callable) are
not serializable and raise :class:`CodecError`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.model import CommunicationModel
from ..comm.topology import Decomposition
from ..core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
    SDCDegradationModel,
)
from ..core.constraints import constraint_from_dict, constraint_to_dict
from ..core.jobs import Job, JobKind, Workload
from ..core.machine import CacheSpec, ClusterSpec, MachineSpec
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule
from ..workloads.catalog import ProgramProfile

__all__ = [
    "CodecError",
    "FORMAT_VERSION",
    "FORMAT_VERSION_SCENARIO",
    "problem_to_dict",
    "problem_from_dict",
    "save_problem",
    "load_problem",
    "canonical_problem",
    "canonical_pid_map",
    "schedule_to_canonical",
    "schedule_from_canonical",
    "problem_fingerprint",
    "schedule_to_dict",
    "schedule_from_dict",
]

#: Version stamped into every encoded document; bump on schema changes.
#: Version 1 is the homogeneous encoding; version 2 adds per-machine
#: rosters, scenario constraints and machine scaling.  Homogeneous
#: problems still emit version-1 documents (byte-identical to
#: pre-scenario builds, so fingerprints and caches carry over); the
#: version-2 shape is reserved for problems that need it.
FORMAT_VERSION = 1
FORMAT_VERSION_SCENARIO = 2
_READ_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_SCENARIO)


class CodecError(ValueError):
    """A problem/schedule cannot be encoded or a document cannot be decoded."""


# --------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------- #


def _f(x) -> float:
    return float(x)


def _floats(xs) -> List[float]:
    return [float(x) for x in xs]


def _canonical_json(obj) -> str:
    """Deterministic compact JSON (sorted keys, no NaN/Inf)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# --------------------------------------------------------------------- #
# cluster / jobs
# --------------------------------------------------------------------- #


def _machine_to_dict(m: MachineSpec) -> dict:
    return {
        "name": m.name,
        "cores": m.cores,
        "clock_hz": _f(m.clock_hz),
        "miss_penalty_cycles": _f(m.miss_penalty_cycles),
        "cache": {
            "size_bytes": m.shared_cache.size_bytes,
            "associativity": m.shared_cache.associativity,
            "line_bytes": m.shared_cache.line_bytes,
        },
    }


def _machine_from_dict(m: dict) -> MachineSpec:
    c = m["cache"]
    return MachineSpec(
        name=str(m.get("name", "machine")),
        cores=int(m["cores"]),
        shared_cache=CacheSpec(
            size_bytes=int(c["size_bytes"]),
            associativity=int(c["associativity"]),
            line_bytes=int(c.get("line_bytes", 64)),
        ),
        clock_hz=float(m["clock_hz"]),
        miss_penalty_cycles=float(m["miss_penalty_cycles"]),
    )


def _cluster_to_dict(cluster: ClusterSpec) -> dict:
    out = {
        "machine": _machine_to_dict(cluster.machine),
        "bandwidth_bytes_per_s": _f(cluster.bandwidth_bytes_per_s),
    }
    if cluster.machines:
        # Version-2 roster form: the explicit machine list is authoritative,
        # "machine" stays as the reference spec for forward readability.
        out["machines"] = [_machine_to_dict(m) for m in cluster.machines]
    return out


def _cluster_from_dict(d: dict) -> ClusterSpec:
    bandwidth = float(d["bandwidth_bytes_per_s"])
    if d.get("machines"):
        roster = tuple(_machine_from_dict(m) for m in d["machines"])
        return ClusterSpec.of_machines(roster, bandwidth_bytes_per_s=bandwidth)
    return ClusterSpec(machine=_machine_from_dict(d["machine"]),
                       bandwidth_bytes_per_s=bandwidth)


def _topology_to_dict(topo: Decomposition) -> dict:
    return {
        "dims": list(topo.dims),
        "halo_bytes": _floats(topo.halo_bytes),
        "rank_to_pos": (None if topo.rank_to_pos is None
                        else list(topo.rank_to_pos)),
        "periodic": bool(topo.periodic),
    }


def _topology_from_dict(d: dict) -> Decomposition:
    return Decomposition(
        dims=tuple(int(x) for x in d["dims"]),
        halo_bytes=tuple(float(x) for x in d["halo_bytes"]),
        rank_to_pos=(None if d.get("rank_to_pos") is None
                     else tuple(int(x) for x in d["rank_to_pos"])),
        periodic=bool(d.get("periodic", False)),
    )


def _job_to_dict(job: Job) -> dict:
    out = {
        "name": job.name,
        "kind": job.kind.value,
        "nprocs": job.nprocs,
        "profile_name": job.profile_name,
        "topology": None,
    }
    if job.topology is not None:
        if not isinstance(job.topology, Decomposition):
            raise CodecError(
                f"job {job.name!r}: only Decomposition topologies serialize"
            )
        out["topology"] = _topology_to_dict(job.topology)
    return out


def _job_from_dict(job_id: int, d: dict) -> Job:
    topo = None if d.get("topology") is None else _topology_from_dict(d["topology"])
    return Job(
        job_id=job_id,
        name=str(d["name"]),
        kind=JobKind(d["kind"]),
        nprocs=int(d["nprocs"]),
        profile_name=str(d.get("profile_name", "")),
        topology=topo,
    )


# --------------------------------------------------------------------- #
# degradation models
# --------------------------------------------------------------------- #


def _profile_to_dict(profile) -> dict:
    if not isinstance(profile, ProgramProfile):
        raise CodecError(
            f"only ProgramProfile instances serialize, got {type(profile).__name__}"
        )
    return {
        "cpu_cycles": _f(profile.cpu_cycles),
        "accesses": _f(profile.accesses),
        "miss_rate": _f(profile.miss_rate),
        "reuse_decay": _f(profile.reuse_decay),
    }


def _model_to_dict(problem: CoSchedulingProblem) -> dict:
    model = problem.model
    if isinstance(model, SDCDegradationModel):
        needed = sorted({
            job.profile_name for job in problem.workload.jobs
        })
        return {
            "type": "sdc",
            "profiles": {
                name: _profile_to_dict(model.profiles[name]) for name in needed
            },
        }
    if isinstance(model, MissRatePressureModel):
        return {
            "type": "miss_rate",
            "miss_rates": _floats(model.miss_rates),
            "kappa": _f(model.kappa),
            "saturation": None if model.saturation is None else _f(model.saturation),
            "single_times": None if model._single is None else _floats(model._single),
        }
    if isinstance(model, AsymmetricContentionModel):
        return {
            "type": "asymmetric",
            "sensitivities": _floats(model.s),
            "aggressiveness": _floats(model.a),
            "kappa": _f(model.kappa),
            "saturation": None if model.saturation is None else _f(model.saturation),
            "single_times": None if model._single is None else _floats(model._single),
        }
    if isinstance(model, MatrixDegradationModel):
        exact = sorted(
            [int(pid), sorted(int(q) for q in coset), _f(d)]
            for (pid, coset), d in model.exact.items()
        )
        return {
            "type": "matrix",
            "pairwise": (None if model.pairwise is None
                         else [_floats(row) for row in model.pairwise]),
            "exact": exact,
            "single_times": None if model._single is None else _floats(model._single),
            "n": model.n,
        }
    raise CodecError(
        f"degradation model {type(model).__name__} has no codec; "
        "supported: SDC, MissRatePressure, AsymmetricContention, Matrix"
    )


def _model_from_dict(d: dict, workload: Workload, cluster: ClusterSpec):
    kind = d.get("type")
    if kind == "sdc":
        profiles = {
            name: ProgramProfile(name=name, **{
                k: float(v) for k, v in params.items()
            })
            for name, params in d["profiles"].items()
        }
        return SDCDegradationModel(workload, cluster.machine, profiles)
    if kind == "miss_rate":
        return MissRatePressureModel(
            miss_rates=d["miss_rates"],
            kappa=float(d["kappa"]),
            saturation=(None if d.get("saturation") is None
                        else float(d["saturation"])),
            single_times=d.get("single_times"),
        )
    if kind == "asymmetric":
        return AsymmetricContentionModel(
            sensitivities=d["sensitivities"],
            aggressiveness=d["aggressiveness"],
            kappa=float(d["kappa"]),
            saturation=(None if d.get("saturation") is None
                        else float(d["saturation"])),
            single_times=d.get("single_times"),
        )
    if kind == "matrix":
        exact = {
            (int(pid), frozenset(int(q) for q in coset)): float(v)
            for pid, coset, v in d.get("exact", [])
        }
        return MatrixDegradationModel(
            pairwise=(None if d.get("pairwise") is None
                      else np.asarray(d["pairwise"], dtype=float)),
            exact=exact or None,
            single_times=d.get("single_times"),
            n=d.get("n"),
        )
    raise CodecError(f"unknown model type {kind!r}")


# --------------------------------------------------------------------- #
# plain round-trip
# --------------------------------------------------------------------- #


def problem_to_dict(problem: CoSchedulingProblem) -> dict:
    """Encode a problem as a JSON-safe dict (the plain, faithful form).

    Homogeneous, unconstrained problems emit the version-1 document —
    byte-identical to pre-scenario builds.  Problems with a machine
    roster, scenario constraints or machine scaling emit version 2.
    """
    if problem.node_extra_cost is not None:
        raise CodecError(
            "problems with a node_extra_cost hook (an arbitrary callable) "
            "cannot be serialized"
        )
    scenario = problem.is_scenario or bool(problem.cluster.machines)
    out = {
        "format": "repro.problem",
        "version": FORMAT_VERSION_SCENARIO if scenario else FORMAT_VERSION,
        "cluster": _cluster_to_dict(problem.cluster),
        "jobs": [_job_to_dict(job) for job in problem.workload.jobs],
        "model": _model_to_dict(problem),
        "comm": problem.comm is not None,
    }
    if scenario:
        out["constraints"] = [
            constraint_to_dict(c) for c in problem.constraints
        ]
        if any(s != 1.0 for s in problem.machine_scale):
            out["machine_scale"] = _floats(problem.machine_scale)
    return out


def problem_from_dict(d: dict) -> CoSchedulingProblem:
    """Rebuild a problem from :func:`problem_to_dict` output (either
    version — old homogeneous payloads still decode)."""
    if d.get("format") != "repro.problem":
        raise CodecError(
            f"not a repro.problem document (format={d.get('format')!r})"
        )
    version = d.get("version")
    if version not in _READ_VERSIONS:
        raise CodecError(
            f"unsupported problem format version {version!r} "
            f"(this build reads versions {sorted(_READ_VERSIONS)})"
        )
    cluster = _cluster_from_dict(d["cluster"])
    jobs = [_job_from_dict(i, jd) for i, jd in enumerate(d["jobs"])]
    if cluster.machines:
        # Roster problems never pad: capacities must cover the workload.
        workload = Workload(jobs)
    else:
        workload = Workload(jobs, cores_per_machine=cluster.cores)
    model = _model_from_dict(d["model"], workload, cluster)
    # Per-pid parameter arrays must cover the padded workload.
    for key in ("miss_rates", "sensitivities", "single_times"):
        arr = d["model"].get(key)
        if arr is not None and len(arr) != workload.n:
            raise CodecError(
                f"model.{key} has {len(arr)} entries for a workload of "
                f"{workload.n} processes (including imaginary padding)"
            )
    comm = None
    if d.get("comm"):
        comm = CommunicationModel(workload, cluster.bandwidth_bytes_per_s)
    try:
        constraints = [
            constraint_from_dict(cd) for cd in d.get("constraints", ())
        ]
    except ValueError as exc:
        raise CodecError(f"invalid constraint document: {exc}") from exc
    scale = d.get("machine_scale")
    return CoSchedulingProblem(
        workload, cluster, model, comm,
        constraints=constraints,
        machine_scaling=None if scale is None else [float(s) for s in scale],
    )


def save_problem(problem: CoSchedulingProblem, path: str) -> str:
    """Write the plain encoding to ``path``; returns the fingerprint."""
    doc = problem_to_dict(problem)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return problem_fingerprint(problem)


def load_problem(path: str) -> CoSchedulingProblem:
    """Read a problem saved by :func:`save_problem`."""
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


# --------------------------------------------------------------------- #
# canonicalization + fingerprint
# --------------------------------------------------------------------- #


def _job_param_descriptor(problem: CoSchedulingProblem, job: Job) -> list:
    """Per-process model parameters of ``job``'s ranks, in rank order.

    This is the content that replaces the job's *name* in the canonical
    form: whatever the degradation model knows about these processes.
    """
    model = problem.model
    pids = problem.workload.processes_of(job.job_id)
    if isinstance(model, SDCDegradationModel):
        prof = _profile_to_dict(model.profiles[job.profile_name])
        return [sorted(prof.items())]  # identical for every rank
    if isinstance(model, MissRatePressureModel):
        return [[_f(model.miss_rates[p]), _f(model.single_time(p))]
                for p in pids]
    if isinstance(model, AsymmetricContentionModel):
        return [[_f(model.s[p]), _f(model.a[p]), _f(model.single_time(p))]
                for p in pids]
    if isinstance(model, MatrixDegradationModel):
        real = [p for p in range(problem.n)
                if not problem.workload.is_imaginary(p)]
        out = []
        for p in pids:
            row = ([] if model.pairwise is None else
                   sorted(_f(model.pairwise[p, q]) for q in real if q != p))
            col = ([] if model.pairwise is None else
                   sorted(_f(model.pairwise[q, p]) for q in real if q != p))
            mine = sorted(
                [len(coset), _f(v)] for (pid, coset), v in model.exact.items()
                if pid == p
            )
            out.append([_f(model.single_time(p)), row, col, mine])
        return out
    raise CodecError(f"model {type(model).__name__} has no canonical form")


def _canonical_jobs(problem: CoSchedulingProblem) -> Tuple[list, Dict[int, int]]:
    """Sorted job descriptors plus the real-pid relabeling they induce.

    Jobs are sorted by ``(kind, nprocs, topology, per-rank parameters)``;
    process identities are re-assigned in that order (each job's ranks
    stay in rank order).  Returns ``(jobs_canon, new_pid_of)`` where
    ``new_pid_of`` maps every *real* pid to its canonical pid.
    """
    wl = problem.workload
    descriptors = []
    for job in wl.jobs:
        topo = (None if job.topology is None
                else sorted(_topology_to_dict(job.topology).items()))
        desc = [job.kind.value, job.nprocs, topo,
                _job_param_descriptor(problem, job)]
        if problem.constraints:
            # Per-pid constraint data (bandwidth demands, cache
            # footprints, ...) distinguishes jobs whose model parameters
            # tie, so the canonical order stays relabeling-invariant.
            # Only added when constraints exist — the homogeneous shape
            # (and its fingerprints) must stay byte-identical.
            desc.append([
                [[c.kind] + [getattr(c, f)[p] for f in c.per_pid_fields]
                 for c in problem.constraints]
                for p in wl.processes_of(job.job_id)
            ])
        descriptors.append((_canonical_json(desc), job.job_id, desc))
    descriptors.sort(key=lambda t: (t[0], t[1]))

    new_pid_of: Dict[int, int] = {}
    jobs_canon = []
    for _, job_id, desc in descriptors:
        for pid in wl.processes_of(job_id):
            new_pid_of[pid] = len(new_pid_of)
        jobs_canon.append(desc)
    return jobs_canon, new_pid_of


def _canonical_order(problem: CoSchedulingProblem) -> Tuple[list, Dict[int, int]]:
    """:func:`_canonical_jobs`, memoized on the problem.

    A problem's workload and model never change after construction, so
    the fingerprint, the pid map and every schedule translation of one
    problem share a single canonicalization pass.  The result is shared:
    callers must not mutate it.
    """
    if problem._canonical_jobs is None:
        problem._canonical_jobs = _canonical_jobs(problem)
    return problem._canonical_jobs


def canonical_pid_map(problem: CoSchedulingProblem) -> List[int]:
    """``pid -> canonical pid`` over *all* ``n`` processes.

    Real processes follow the canonical job order of
    :func:`canonical_problem`; imaginary padding (interchangeable by
    construction — zero degradation either way) fills the tail slots in
    ascending original-pid order.  The map is a bijection on ``0..n-1``,
    so schedules can be translated losslessly between a problem's own
    labeling and the canonical one — which is how the solution store
    serves one cached schedule to every relabeling of the same problem.
    """
    _, new_pid_of = _canonical_order(problem)
    wl = problem.workload
    out = [-1] * wl.n
    for old, new in new_pid_of.items():
        out[old] = new
    nxt = len(new_pid_of)
    for pid in range(wl.n):
        if wl.is_imaginary(pid):
            out[pid] = nxt
            nxt += 1
    return out


def schedule_to_canonical(problem: CoSchedulingProblem,
                          schedule: CoSchedule) -> CoSchedule:
    """Re-express ``schedule`` (in ``problem``'s labeling) in canonical pids.

    Scenario schedules are machine-bound, so their groups are also
    permuted into the problem's canonical machine order (the order the
    fingerprint's roster uses) — two relabelings of the same scenario
    problem share one canonical schedule.
    """
    m = canonical_pid_map(problem)
    if schedule.capacities is not None:
        order = problem.canonical_machine_order()
        return CoSchedule.from_machine_groups(
            [[m[p] for p in schedule.groups[k]] for k in order],
            capacities=[problem.capacities[k] for k in order],
        )
    return CoSchedule.from_groups(
        [[m[p] for p in g] for g in schedule.groups], u=schedule.u
    )


def schedule_from_canonical(problem: CoSchedulingProblem,
                            schedule: CoSchedule) -> CoSchedule:
    """Re-express a canonical-labeled ``schedule`` in ``problem``'s own pids."""
    m = canonical_pid_map(problem)
    inv = [0] * len(m)
    for old, new in enumerate(m):
        inv[new] = old
    if schedule.capacities is not None:
        order = problem.canonical_machine_order()
        groups = [()] * problem.n_machines
        for slot, k in enumerate(order):
            groups[k] = [inv[p] for p in schedule.groups[slot]]
        return problem.make_schedule(groups)
    return CoSchedule.from_groups(
        [[inv[p] for p in g] for g in schedule.groups], u=schedule.u
    )


def canonical_problem(problem: CoSchedulingProblem) -> dict:
    """The relabeling-invariant structure :func:`problem_fingerprint` hashes.

    Jobs are sorted by ``(kind, nprocs, topology, per-rank parameters)``;
    job and process identities are re-assigned in that order; pid-indexed
    model data (pairwise matrices, exact tables) is permuted accordingly;
    names and imaginary padding are dropped.
    """
    if problem.node_extra_cost is not None:
        raise CodecError("problems with node_extra_cost do not fingerprint")
    wl = problem.workload
    model = problem.model

    jobs_canon, new_pid_of = _canonical_order(problem)

    model_canon: dict = {"type": None}
    if isinstance(model, SDCDegradationModel):
        model_canon = {"type": "sdc"}
    elif isinstance(model, MissRatePressureModel):
        model_canon = {
            "type": "miss_rate",
            "kappa": _f(model.kappa),
            "saturation": None if model.saturation is None else _f(model.saturation),
        }
    elif isinstance(model, AsymmetricContentionModel):
        model_canon = {
            "type": "asymmetric",
            "kappa": _f(model.kappa),
            "saturation": None if model.saturation is None else _f(model.saturation),
        }
    elif isinstance(model, MatrixDegradationModel):
        # Permute pid-indexed tables into canonical order (real pids only;
        # padding rows are unreachable through the degradation path).
        n_canon = len(new_pid_of)
        old_of_new = [0] * n_canon
        for old, new in new_pid_of.items():
            old_of_new[new] = old
        pairwise = None
        if model.pairwise is not None:
            pairwise = [
                [_f(model.pairwise[old_of_new[i], old_of_new[j]])
                 for j in range(n_canon)]
                for i in range(n_canon)
            ]
        exact = sorted(
            [new_pid_of[pid], sorted(new_pid_of[q] for q in coset), _f(v)]
            for (pid, coset), v in model.exact.items()
            if pid in new_pid_of and all(q in new_pid_of for q in coset)
        )
        model_canon = {"type": "matrix", "pairwise": pairwise, "exact": exact}
    else:
        raise CodecError(f"model {type(model).__name__} has no canonical form")

    m = problem.cluster.machine
    out = {
        "format": "repro.problem.canonical",
        "version": FORMAT_VERSION,
        "u": problem.u,
        "machine": [
            m.shared_cache.size_bytes, m.shared_cache.associativity,
            m.shared_cache.line_bytes, _f(m.clock_hz),
            _f(m.miss_penalty_cycles),
        ],
        "bandwidth": (_f(problem.cluster.bandwidth_bytes_per_s)
                      if problem.comm is not None else None),
        "comm": problem.comm is not None,
        "jobs": jobs_canon,
        "model": model_canon,
    }
    if problem.is_scenario:
        # Scenario extension: the machine roster in canonical slot order
        # (capacity-descending, then identity — invariant under machine
        # relabeling) and the constraints re-expressed in canonical pids
        # and canonical machine order.  Homogeneous problems never reach
        # this branch, so their canonical bytes are unchanged.
        out["version"] = FORMAT_VERSION_SCENARIO
        order = problem.canonical_machine_order()
        out["machines"] = [
            [
                problem.machines[k].cores,
                problem.machines[k].shared_cache.size_bytes,
                problem.machines[k].shared_cache.associativity,
                problem.machines[k].shared_cache.line_bytes,
                _f(problem.machines[k].clock_hz),
                _f(problem.machines[k].miss_penalty_cycles),
                _f(problem.machine_scale[k]),
            ]
            for k in order
        ]
        constraints_canon = [
            constraint_to_dict(
                c.relabeled(
                    [new_pid_of[p] for p in range(problem.n)]
                ).machines_reordered(order)
            )
            for c in problem.constraints
        ]
        out["constraints"] = sorted(
            constraints_canon, key=_canonical_json
        )
    return out


def problem_fingerprint(problem: CoSchedulingProblem) -> str:
    """Content-addressed SHA-256 hex digest of the canonical form."""
    return hashlib.sha256(
        _canonical_json(canonical_problem(problem)).encode("utf-8")
    ).hexdigest()


# --------------------------------------------------------------------- #
# schedules
# --------------------------------------------------------------------- #


def schedule_to_dict(schedule: CoSchedule) -> dict:
    """Encode a schedule (canonical already — groups sorted by construction).

    Machine-bound scenario schedules carry their per-machine
    ``capacities`` and stamp version 2; homogeneous schedules keep the
    version-1 bytes.
    """
    out = {
        "format": "repro.schedule",
        "version": FORMAT_VERSION,
        "u": schedule.u,
        "groups": [list(g) for g in schedule.groups],
    }
    if schedule.capacities is not None:
        out["version"] = FORMAT_VERSION_SCENARIO
        out["capacities"] = list(schedule.capacities)
    return out


def schedule_from_dict(d: dict) -> CoSchedule:
    """Rebuild (and re-validate) a schedule from :func:`schedule_to_dict`
    (either version)."""
    if d.get("format") != "repro.schedule":
        raise CodecError(
            f"not a repro.schedule document (format={d.get('format')!r})"
        )
    if d.get("version") not in _READ_VERSIONS:
        raise CodecError(
            f"unsupported schedule format version {d.get('version')!r}"
        )
    try:
        if d.get("capacities") is not None:
            return CoSchedule.from_machine_groups(
                [[int(p) for p in g] for g in d["groups"]],
                capacities=[int(c) for c in d["capacities"]],
            )
        return CoSchedule.from_groups(
            [[int(p) for p in g] for g in d["groups"]], u=int(d["u"])
        )
    except ValueError as exc:
        raise CodecError(f"invalid schedule document: {exc}") from exc
