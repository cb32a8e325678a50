"""Mutable problem sessions for online arrival streams.

A :class:`ProblemSession` owns a roster of named serial jobs and turns the
arrival/departure/update stream into a sequence of immutable
:class:`~repro.core.problem.CoSchedulingProblem` instances, carrying the
last solved schedule forward as warm state:

>>> from repro.online import ProblemSession
>>> s = ProblemSession(jobs=[(f"j{i}", 0.2 + 0.01 * i) for i in range(8)])
>>> s.solve()                     # full solve of the base problem
>>> s.arrive("burst", 0.64)
>>> s.depart("j3")
>>> report = s.repair()           # incremental re-solve of the delta

``repair()`` matches the new problem against the previous one through the
canonical codec (:func:`repro.online.delta.match_delta`), hands the
surviving machine groups to the registry's ``repair`` solver, and seeds
the new problem's node-weight memo with the weights of machines that
survived intact — unchanged machines keep their cache identity, so the
incremental path pays O(perturbed sub-problem), not O(n).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.degradation import MissRatePressureModel
from ..core.jobs import Workload, serial_job
from ..core.machine import CLUSTERS, ClusterSpec
from ..core.problem import CoSchedulingProblem
from ..runtime import SolverSpec, create_solver, parse_spec, run_solve
from ..service.codec import problem_fingerprint
from .delta import ProblemDelta, match_delta, partial_from_base

__all__ = ["ProblemSession"]


class ProblemSession:
    """Tracks a stream of serial-job arrivals/departures/profile updates
    and re-solves incrementally.

    Parameters
    ----------
    cluster:
        Machine type (name from ``repro.core.machine.CLUSTERS`` or a
        :class:`ClusterSpec`); default ``"quad"`` (u=4).
    base:
        Registry spec of the underlying solver, both for full solves and
        as the ``base`` of the repair path (default ``"hastar"``).  Must
        advertise ``supports_repair``.
    escalate_threshold:
        Perturbed-process fraction above which ``repair()`` escalates to
        a full warm-started re-solve (default 0.5).
    saturation / kappa:
        Forwarded to :class:`~repro.core.degradation.MissRatePressureModel`.
    jobs:
        Optional initial roster: iterable of ``(name, miss_rate)``.
    """

    def __init__(
        self,
        cluster: "ClusterSpec | str" = "quad",
        *,
        base: str = "hastar",
        escalate_threshold: float = 0.5,
        saturation: Optional[float] = None,
        kappa: Optional[float] = None,
        jobs: Optional[Iterable[Tuple[str, float]]] = None,
    ):
        if isinstance(cluster, str):
            cluster = CLUSTERS[cluster]
        self.cluster = cluster
        self.saturation = saturation
        self.kappa = kappa
        self.escalate_threshold = float(escalate_threshold)
        # Validate the base spec eagerly (structured SpecError surfaces at
        # session construction, not at the first solve); constructing a
        # throw-away repair solver also checks supports_repair.
        self.base_spec = parse_spec(base).canonical()
        create_solver(self._repair_spec())
        self._roster: Dict[str, float] = {}
        self._problem: Optional[CoSchedulingProblem] = None
        self._schedule = None
        self._objective: Optional[float] = None
        self._fingerprint: Optional[str] = None
        self.stats = {
            "events": 0, "solves": 0, "repairs": 0, "escalations": 0,
            "machines_kept": 0, "machines_resolved": 0,
        }
        for name, rate in (jobs or ()):
            self.arrive(name, rate)
            self.stats["events"] -= 1  # seeding the roster is not churn

    # ------------------------------------------------------------------ #
    # roster mutation

    @staticmethod
    def _check_rate(rate: float) -> float:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"miss rate must be in [0, 1], got {rate}")
        return rate

    def arrive(self, name: str, miss_rate: float) -> None:
        """Add a serial job; raises ``ValueError`` on duplicate names."""
        if name in self._roster:
            raise ValueError(f"job {name!r} already in the session")
        self._roster[name] = self._check_rate(miss_rate)
        self.stats["events"] += 1

    def depart(self, name: str) -> None:
        """Remove a job; raises ``KeyError`` if absent."""
        del self._roster[name]
        self.stats["events"] += 1

    def update(self, name: str, miss_rate: float) -> None:
        """Replace a job's miss-rate profile; raises ``KeyError`` if absent."""
        if name not in self._roster:
            raise KeyError(name)
        self._roster[name] = self._check_rate(miss_rate)
        self.stats["events"] += 1

    def apply(self, event: Mapping[str, object]) -> None:
        """Apply one trace event: ``{"op": "arrive"|"depart"|"update",
        "name": ..., "miss_rate": ...}`` (see :mod:`repro.online.replay`)."""
        op = event.get("op")
        if op == "arrive":
            self.arrive(str(event["name"]), float(event["miss_rate"]))
        elif op == "depart":
            self.depart(str(event["name"]))
        elif op == "update":
            self.update(str(event["name"]), float(event["miss_rate"]))
        else:
            raise ValueError(f"unknown trace op {op!r}")

    # ------------------------------------------------------------------ #
    # problem construction

    def __len__(self) -> int:
        return len(self._roster)

    @property
    def roster(self) -> Dict[str, float]:
        """Name -> miss rate, in arrival order (a copy)."""
        return dict(self._roster)

    @property
    def problem(self) -> Optional[CoSchedulingProblem]:
        """The problem instance of the last ``solve()``/``repair()``."""
        return self._problem

    @property
    def schedule(self):
        return self._schedule

    @property
    def objective(self) -> Optional[float]:
        return self._objective

    @property
    def fingerprint(self) -> Optional[str]:
        """Canonical fingerprint of the last solved problem."""
        return self._fingerprint

    def build_problem(self) -> CoSchedulingProblem:
        """The current roster as an immutable problem instance.

        Mirrors :func:`repro.workloads.synthetic.random_serial_instance`:
        one serial job per roster entry (padded to a multiple of ``u``
        with imaginary processes), a
        :class:`~repro.core.degradation.MissRatePressureModel` over the
        per-job miss rates.
        """
        if not self._roster:
            raise ValueError("session has no jobs; arrive() some first")
        u = self.cluster.cores
        names = list(self._roster)
        jobs = [
            serial_job(i, name, profile_name=name)
            for i, name in enumerate(names)
        ]
        wl = Workload(jobs, cores_per_machine=u)
        rates = np.zeros(wl.n)
        for i, name in enumerate(names):
            rates[i] = self._roster[name]
        model = MissRatePressureModel(
            miss_rates=rates, kappa=self.kappa, cores=u,
            saturation=self.saturation,
        )
        return CoSchedulingProblem(wl, self.cluster, model)

    def peek_delta(self) -> Optional[ProblemDelta]:
        """The delta between the last solved problem and the current
        roster, or ``None`` before the first solve."""
        if self._problem is None:
            return None
        return match_delta(self._problem, self.build_problem())

    # ------------------------------------------------------------------ #
    # solving

    def _repair_spec(self) -> SolverSpec:
        return SolverSpec(name="repair", params={
            "base": self.base_spec,
            "escalate_threshold": self.escalate_threshold,
        })

    def _adopt(self, problem: CoSchedulingProblem, report) -> None:
        self._problem = problem
        self._schedule = report.schedule
        self._objective = report.objective
        self._fingerprint = problem_fingerprint(problem)

    def solve(self, budget=None, **kwargs):
        """Full solve of the current roster with the ``base`` spec.

        Returns the :class:`~repro.runtime.SolveReport`; extra keyword
        arguments (``tracer``, ``warm_start``) pass through to
        :func:`~repro.runtime.run_solve`.
        """
        problem = self.build_problem()
        report = run_solve(problem, self.base_spec, budget=budget, **kwargs)
        self._adopt(problem, report)
        self.stats["solves"] += 1
        return report

    def repair(self, budget=None, **kwargs):
        """Incremental re-solve of the roster against the last schedule.

        Falls back to :meth:`solve` before the first solve.  Otherwise
        matches the deltas, keeps every machine whose coset survived
        intact (seeding its known weight into the new problem's memo),
        and re-solves only the perturbed sub-problem through the
        registry's ``repair`` solver — escalating to a full warm-started
        solve past ``escalate_threshold``.
        """
        if self._problem is None or self._schedule is None:
            return self.solve(budget=budget, **kwargs)
        old_problem, old_schedule = self._problem, self._schedule
        problem = self.build_problem()
        delta = match_delta(old_problem, problem)
        partial = partial_from_base(old_schedule, delta)
        self._seed_clean_weights(old_problem, old_schedule, delta, problem,
                                 partial)
        solver = create_solver(self._repair_spec())
        solver.stale_partial = partial
        report = run_solve(problem, solver, budget=budget, **kwargs)
        self._adopt(problem, report)
        stats = report.result.stats
        self.stats["repairs"] += 1
        self.stats["escalations"] += int(bool(stats.get("escalated")))
        self.stats["machines_kept"] += int(stats.get("machines_kept", 0))
        self.stats["machines_resolved"] += int(
            stats.get("machines_resolved", 0))
        return report

    def _seed_clean_weights(self, old_problem, old_schedule, delta,
                            problem, partial) -> None:
        """Copy known node weights of intact machines into the new
        problem's memo (valid: weights are machine-local for the serial
        no-comm problems this session builds)."""
        if old_problem.is_scenario or problem.is_scenario:
            # Scenario weights are machine-*indexed* (scaling, per-machine
            # penalties), so a group's weight is not portable by pids alone.
            return
        u = self.cluster.cores
        inverse = {b: n for n, b in delta.survivors.items()}
        for group in old_schedule.groups:
            if not all(p in inverse for p in group):
                continue
            mapped = tuple(sorted(inverse[p] for p in group))
            if len(mapped) == u:
                problem.seed_node_weight(
                    mapped, old_problem.node_weight(group))
