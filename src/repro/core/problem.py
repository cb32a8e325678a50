"""The co-scheduling problem bundle.

:class:`CoSchedulingProblem` ties a workload, a machine/cluster, a cache
degradation model and (optionally) a communication model into the single
callable every solver uses:

* ``degradation(pid, coset)`` — Eq. 1 for serial/PE processes, Eq. 9
  (cache degradation + normalized communication time) for PC processes;
* ``node_weight(node)`` — the graph-node weight of Fig. 3: the total
  degradation of the ``u`` processes placed together on one machine;
* ``node_degradations(node)`` — the member degradations behind that weight,
  one per member, for the search paths that need them individually.

All values are memoized; degradations are pure functions of ``(pid, coset)``
so solvers can share one problem instance.
"""

from __future__ import annotations

import dataclasses
import json
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..comm.model import CommunicationModel
from ..perf.counters import PerfCounters
from .constraints import ScenarioConstraint
from .degradation import CacheDegradationModel, SDCDegradationModel
from .jobs import JobKind, Workload
from .machine import ClusterSpec, MachineSpec

__all__ = ["CoSchedulingProblem"]


class CoSchedulingProblem:
    """A fully-specified instance: who is scheduled, where, and at what cost.

    Parameters
    ----------
    workload:
        The processes to place (already padded to a multiple of ``u``).
    cluster:
        Machine type (``u`` cores) and interconnect bandwidth.
    degradation_model:
        Cache-contention degradations (Eq. 1).
    comm_model:
        Communication times for PC processes (Eq. 10-11).  ``None`` means no
        PC jobs, or treat them as PE (the paper's OA*-PE ablation does this
        deliberately).
    constraints:
        Scenario constraints (:mod:`repro.core.constraints`) whose soft
        penalties are added per machine placement.  Requires a serial-only,
        unpadded, communication-free workload.
    machine_scaling:
        Per-machine degradation/speed scaling hook: either a callable
        ``MachineSpec -> float`` or a sequence of one factor per machine.
        Machine ``k``'s group weight is ``machine_scaling[k] *
        node_weight(group)`` — e.g. clock-ratio scaling for clusters whose
        degradation model was calibrated on the reference machine.
    """

    def __init__(
        self,
        workload: Workload,
        cluster: ClusterSpec,
        degradation_model: CacheDegradationModel,
        comm_model: Optional[CommunicationModel] = None,
        node_extra_cost: Optional[object] = None,
        constraints: Sequence[ScenarioConstraint] = (),
        machine_scaling: Union[
            None, Callable[[MachineSpec], float], Sequence[float]
        ] = None,
    ):
        if cluster.machines:
            capacities = cluster.capacities
            total = sum(capacities)
            if total != workload.n:
                roster = ", ".join(
                    f"machine {k}: {m.cores} cores"
                    for k, m in enumerate(cluster.machines)
                )
                raise ValueError(
                    f"workload has {workload.n} processes but the cluster "
                    f"roster provides {total} cores ({roster}); adjust the "
                    f"roster so its capacities sum to {workload.n}, or pad "
                    f"the workload with imaginary processes "
                    f"(Workload(jobs, cores_per_machine=...) pads "
                    f"automatically for homogeneous clusters)"
                )
            self.machines: Tuple[MachineSpec, ...] = cluster.machines
            self.capacities: Tuple[int, ...] = capacities
        else:
            u = cluster.cores
            if workload.n % u != 0:
                raise ValueError(
                    f"workload has {workload.n} processes, not a multiple of "
                    f"u={u}; either pad the workload with imaginary "
                    f"processes (Workload(jobs, cores_per_machine={u}) pads "
                    f"automatically) or give the cluster an explicit "
                    f"machines roster whose capacities sum to {workload.n} "
                    f"(ClusterSpec.of_machines([...]))"
                )
            m = workload.n // u
            self.machines = (cluster.machine,) * m
            self.capacities = (u,) * m
        self.workload = workload
        self.cluster = cluster
        self.model = degradation_model
        self.comm = comm_model
        self.constraints: Tuple[ScenarioConstraint, ...] = tuple(constraints)
        if machine_scaling is None:
            scale: Tuple[float, ...] = (1.0,) * len(self.machines)
        elif callable(machine_scaling):
            scale = tuple(float(machine_scaling(m)) for m in self.machines)
        else:
            scale = tuple(float(s) for s in machine_scaling)
            if len(scale) != len(self.machines):
                raise ValueError(
                    f"machine_scaling has {len(scale)} factors but the "
                    f"cluster has {len(self.machines)} machines"
                )
        if any(s <= 0 for s in scale):
            raise ValueError("machine scaling factors must be positive")
        #: Per-machine multiplier applied to that machine's group weight.
        self.machine_scale: Tuple[float, ...] = scale
        self._heterogeneous = (
            len(set(self.capacities)) > 1
            or len(set(self.machines)) > 1
            or len(set(scale)) > 1
        )
        self._machine_order: Optional[Tuple[int, ...]] = None
        #: The service codec's canonical job order, computed on first use
        #: (:func:`repro.service.codec.problem_fingerprint`).
        self._canonical_jobs: Optional[Tuple[list, Dict[int, int]]] = None
        self._machine_node_cache: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        #: Optional callable ``node -> float`` adding a non-negative cost to
        #: every machine grouping beyond its members' degradations.  Used by
        #: extensions (e.g. VM migration penalties); the objective, all
        #: solvers and the IP formulation include it uniformly, and h(v)
        #: ignores it (costs are >= 0, so heuristics stay admissible).
        self.node_extra_cost = node_extra_cost
        self._deg_cache: Dict[Tuple[int, FrozenSet[int]], float] = {}
        self._node_cache: Dict[Tuple[int, ...], float] = {}
        self._node_degs_cache: Dict[Tuple[int, ...], Tuple[float, ...]] = {}
        self._deg_tables: Optional[tuple] = None  # see _tables()
        self._extra_cache: Dict[Tuple[int, ...], float] = {}
        self._impoliteness: Optional[np.ndarray] = None
        #: Performance instrumentation shared by every layer touching this
        #: problem (weight kernels, successor generation, search phases).
        self.counters = PerfCounters()
        if self._heterogeneous or self.constraints:
            self._validate_scenario()

    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self.workload.n

    @property
    def u(self) -> int:
        """The uniform core count for homogeneous clusters; the *largest*
        machine capacity for heterogeneous rosters (the group-width
        ceiling — use :attr:`capacities` for per-machine sizes)."""
        return max(self.capacities)

    @property
    def n_machines(self) -> int:
        return len(self.capacities)

    # ------------------------------------------------------------------ #
    # Scenario surface: heterogeneity + constraints
    # ------------------------------------------------------------------ #

    def _validate_scenario(self) -> None:
        if self.comm is not None:
            raise ValueError(
                "heterogeneous/constrained problems do not support a "
                "communication model (Eq. 10 assumes identical machines)"
            )
        if self.node_extra_cost is not None:
            raise ValueError(
                "heterogeneous/constrained problems do not support "
                "node_extra_cost; express placement costs as a "
                "ScenarioConstraint instead"
            )
        if self.workload.n_imaginary:
            raise ValueError(
                "heterogeneous/constrained problems do not support "
                "imaginary padding; give the cluster a roster whose "
                "capacities sum to the real process count"
            )
        for pid in range(self.n):
            if self.workload.kind_of(pid) is not JobKind.SERIAL:
                raise ValueError(
                    "heterogeneous/constrained problems support serial "
                    f"workloads only (process {pid} is parallel)"
                )
        for c in self.constraints:
            c.validate_for(self.n, self.n_machines)

    def required_capabilities(self) -> FrozenSet[str]:
        """Capability flags a solver must declare to handle this instance:
        ``heterogeneous`` when machines differ (cores, spec or scaling),
        ``constraints`` when scenario constraints are attached.  Empty for
        the paper's homogeneous, unconstrained model."""
        caps = set()
        if self._heterogeneous:
            caps.add("heterogeneous")
        if self.constraints:
            caps.add("constraints")
        return frozenset(caps)

    @property
    def is_scenario(self) -> bool:
        """True when this instance needs scenario-capable solvers."""
        return self._heterogeneous or bool(self.constraints)

    def machine_identity(self, k: int) -> Tuple:
        """Hashable identity of machine ``k``: spec geometry + scaling +
        every constraint's per-machine key.  Machines with equal identities
        are interchangeable, so solvers dedupe permutations of them."""
        m = self.machines[k]
        return (
            m.cores,
            m.shared_cache.size_bytes,
            m.shared_cache.associativity,
            m.shared_cache.line_bytes,
            m.clock_hz,
            m.miss_penalty_cycles,
            self.machine_scale[k],
        ) + tuple(c.machine_key(k) for c in self.constraints)

    def canonical_machine_order(self) -> Tuple[int, ...]:
        """Machine indices in canonical slot order: capacity descending,
        then identity, then index — so identical machines sit in
        consecutive runs and symmetric placements can be deduped."""
        if self._machine_order is None:
            self._machine_order = tuple(sorted(
                range(self.n_machines),
                key=lambda k: (
                    -self.capacities[k],
                    json.dumps(self.machine_identity(k)),
                    k,
                ),
            ))
        return self._machine_order

    def slot_plan(self) -> List[Tuple[int, int, bool]]:
        """The canonical slot sequence as ``(machine_idx, capacity,
        same_identity_as_previous_slot)`` triples."""
        order = self.canonical_machine_order()
        plan: List[Tuple[int, int, bool]] = []
        prev_identity = None
        for k in order:
            identity = self.machine_identity(k)
            plan.append((k, self.capacities[k], identity == prev_identity))
            prev_identity = identity
        return plan

    def machine_node_weight(self, k: int, node: Tuple[int, ...]) -> float:
        """Weight of placing co-run group ``node`` on machine ``k``:
        the machine's scaling factor times the group's degradation sum,
        plus every constraint's penalty for that placement."""
        key = (k, tuple(sorted(node)))
        hit = self._machine_node_cache.get(key)
        if hit is not None:
            return hit
        w = self.machine_scale[k] * self.node_weight(key[1])
        for c in self.constraints:
            p = c.penalty(k, key[1])
            if p < 0:
                raise _negative_penalty(c, k, p)
            w += p
        self._machine_node_cache[key] = w
        return w

    def machine_node_weights_batch(
        self, k: int, nodes: Sequence[Tuple[int, ...]]
    ) -> np.ndarray:
        """:meth:`machine_node_weight` for many groups on machine ``k``.

        Reads and fills the same memo.  When :meth:`supports_batch_weights`
        holds, the misses are scored by one :meth:`node_weights_batch` call,
        scaled by ``machine_scale[k]`` and charged every constraint's
        penalty; otherwise each row takes the scalar path.  ``nodes`` rows
        must be sorted pid tuples, as for :meth:`node_weights_batch`.
        """
        if not self.supports_batch_weights():
            return np.fromiter(
                (self.machine_node_weight(k, node) for node in nodes),
                dtype=float, count=len(nodes),
            )
        cache = self._machine_node_cache
        vals = [cache.get((k, node)) for node in nodes]
        miss_idx = [r for r, v in enumerate(vals) if v is None]
        if not miss_idx:
            return np.array(vals, dtype=float)
        miss_rows = [nodes[r] for r in miss_idx]
        w = self.machine_scale[k] * self.node_weights_batch(miss_rows, memo=False)
        for c in self.constraints:
            pen = np.fromiter(
                (c.penalty(k, node) for node in miss_rows),
                dtype=float, count=len(miss_rows),
            )
            if (pen < 0).any():
                raise _negative_penalty(c, k, pen[pen < 0][0])
            w += pen
        for r, node, wv in zip(miss_idx, miss_rows, w.tolist()):
            vals[r] = wv
            cache[(k, node)] = wv
        return np.array(vals, dtype=float)

    def make_schedule(self, groups: Sequence[Sequence[int]]) -> "CoSchedule":
        """Build a :class:`CoSchedule` from machine-indexed groups
        (``groups[k]`` runs on machine ``k``).

        For the paper's homogeneous model this is the classic canonical
        form (machine identity is irrelevant).  For scenario problems the
        machine axis is meaningful, so groups keep their machine index and
        only *interchangeable* machines (equal :meth:`machine_identity`)
        are canonicalized among themselves, by smallest member.
        """
        from .schedule import CoSchedule

        if not self.is_scenario:
            return CoSchedule.from_groups(groups, u=self.u, n=self.n)
        groups = [tuple(sorted(g)) for g in groups]
        if len(groups) != self.n_machines:
            raise ValueError(
                f"expected {self.n_machines} machine groups, got {len(groups)}"
            )
        classes: Dict[Tuple, List[int]] = {}
        for k in range(self.n_machines):
            classes.setdefault(self.machine_identity(k), []).append(k)
        final: List[Tuple[int, ...]] = list(groups)
        for indices in classes.values():
            if len(indices) == 1:
                continue
            owned = sorted((groups[k] for k in indices), key=lambda g: g[0])
            for k, g in zip(sorted(indices), owned):
                final[k] = g
        return CoSchedule.from_machine_groups(final, self.capacities)

    # ------------------------------------------------------------------ #

    def degradation(self, pid: int, coset: Iterable[int]) -> float:
        """``d_{pid, coset}`` — communication-combined for PC processes (Eq. 9)."""
        key = (pid, frozenset(coset) - {pid})
        hit = self._deg_cache.get(key)
        if hit is not None:
            return hit
        self.counters.incr("degradation_evals")
        if self.workload.is_imaginary(pid):
            d = 0.0
        else:
            # Imaginary co-runners exert no contention: filter them out.
            real = frozenset(
                q for q in key[1] if not self.workload.is_imaginary(q)
            )
            d = self.model.cache_degradation(pid, real)
            if self.comm is not None and self.comm.is_communicating(pid):
                ct = self.model.single_time(pid)
                d += self.comm.comm_time(pid, key[1]) / ct
        self._deg_cache[key] = d
        return d

    def node_weight(self, node: Tuple[int, ...]) -> float:
        """Total degradation of the processes co-located in ``node``,
        plus any node-level extra cost."""
        key = tuple(sorted(node))
        hit = self._node_cache.get(key)
        if hit is not None:
            return hit
        self.counters.incr("node_weight_scalar")
        w = sum(self.node_degradations(key))
        w += self.extra_cost(key)
        self._node_cache[key] = w
        return w

    def node_degradations(self, node: Tuple[int, ...]) -> Tuple[float, ...]:
        """``degradation(pid, node - {pid})`` for every member, in ``node``
        order.

        Equal (``==``) to the per-pid :meth:`degradation` calls.  For the
        SDC model the cache part is read straight from the model's
        profile-name memo and Eq. 10 from the communication model's
        neighbour bitmasks, and the vector is memoized per node tuple:
        :meth:`degradation`'s frozenset keys and memo are never touched.
        Other models go through :meth:`degradation` and its per-pid memo.
        The memo is keyed by the tuple as given: pass sorted tuples (as
        every enumerator in :mod:`repro.graph` yields) so callers share
        entries.
        """
        hit = self._node_degs_cache.get(node)
        if hit is not None:
            return hit
        names, comm_ct, _serial = self._tables()
        if names is None:
            members = frozenset(node)
            return tuple(
                self.degradation(pid, members - {pid}) for pid in node
            )
        by_names = self.model.degradation_by_names
        node_names = [names[pid] for pid in node]
        present = sorted(nm for nm in node_names if nm is not None)
        cache_part: Dict[str, float] = {}  # members sharing a profile
        node_mask = 0
        for pid in node:
            node_mask |= 1 << pid
        out = []
        for pid, me in zip(node, node_names):
            if me is None:  # imaginary: no contention, no comm
                out.append(0.0)
                continue
            d = cache_part.get(me)
            if d is None:
                i = present.index(me)
                d = cache_part[me] = by_names(
                    me, tuple(present[:i] + present[i + 1:])
                )
            ct = comm_ct[pid]
            if ct is not None:
                d += self.comm.comm_time_mask(pid, node_mask) / ct
            out.append(d)
        degs = tuple(out)
        self._node_degs_cache[node] = degs
        return degs

    def _tables(self) -> tuple:
        """Per-pid tables read by :meth:`node_degradations` and
        :meth:`node_h_weight`: ``(profile name or None, single time of a
        PC process or None, is-serial flag)``.  The names are ``None``
        unless the model is SDC.  Built on first use, dropped by
        :meth:`clear_caches`."""
        if self._deg_tables is not None:
            return self._deg_tables
        wl = self.workload
        serial = tuple(
            wl.kind_of(pid) is JobKind.SERIAL for pid in range(self.n)
        )
        if not isinstance(self.model, SDCDegradationModel):
            self._deg_tables = (None, None, serial)
            return self._deg_tables
        names = tuple(
            self.model.profile_name_of(pid) for pid in range(self.n)
        )
        comm_ct = tuple(
            self.model.single_time(pid)
            if self.comm is not None and self.comm.is_communicating(pid)
            else None
            for pid in range(self.n)
        )
        self._deg_tables = (names, comm_ct, serial)
        return self._deg_tables

    def supports_batch_weights(self) -> bool:
        """True when :meth:`node_weights_batch` runs the model's vectorized
        kernel.  Requires a batch-capable model and no communication model —
        Eq. 9's per-pid communication terms stay on the scalar path — and no
        imaginary padding (the scalar path filters imaginary co-runners,
        which the model kernels don't see)."""
        return (
            self.comm is None
            and self.workload.n_imaginary == 0
            and self.model.supports_batch()
        )

    def node_weights_batch(
        self,
        nodes: Sequence[Tuple[int, ...]],
        memo: bool = True,
    ) -> np.ndarray:
        """Node weights for many nodes at once.

        Agrees with :meth:`node_weight` to floating-point round-off on every
        node.  When :meth:`supports_batch_weights` holds, misses are scored
        by one call to the model's vectorized ``node_weights_batch`` kernel;
        otherwise each miss falls back to the scalar path.  ``memo=True``
        (default) consults and fills the node-weight memo — pass ``False``
        for huge throw-away frontiers where dict traffic outweighs reuse.

        ``nodes`` rows must be sorted pid tuples (every enumerator in
        :mod:`repro.graph` produces them sorted); unsorted rows would only
        fragment the memo, not change the weights.
        """
        nodes = list(nodes)
        out = np.empty(len(nodes), dtype=float)
        if not self.supports_batch_weights():
            for r, node in enumerate(nodes):
                out[r] = self.node_weight(node)
            self.counters.observe_batch("node_weights_scalar_fallback", len(nodes))
            return out
        if memo:
            miss_rows: list = []
            miss_idx: list = []
            cache = self._node_cache
            for r, node in enumerate(nodes):
                hit = cache.get(node)
                if hit is None:
                    miss_idx.append(r)
                    miss_rows.append(node)
                else:
                    out[r] = hit
            self.counters.incr("node_memo_hits", len(nodes) - len(miss_rows))
        else:
            miss_rows = nodes
            miss_idx = list(range(len(nodes)))
        if miss_rows:
            w = self.model.node_weights_batch(
                np.asarray(miss_rows, dtype=np.intp)
            )
            if self.node_extra_cost is not None:
                w = w + np.asarray(
                    [self.extra_cost(node) for node in miss_rows], dtype=float
                )
            self.counters.incr("node_weight_batched", len(miss_rows))
            if memo:
                for r, node, wv in zip(miss_idx, miss_rows, w):
                    val = float(wv)
                    out[r] = val
                    cache[node] = val
            else:
                out[miss_idx] = w
        self.counters.observe_batch("node_weights_batch", len(nodes))
        return out

    def count_direct_evals(self, rows: int) -> None:
        """Charge ``rows`` node weights scored by the model kernel outside
        the memo (lazy frontiers, MER windows) to the
        ``node_weight_direct`` counter, which ``max_weight_evals`` reads
        beside the memo-miss counters."""
        self.counters.incr("node_weight_direct", rows)

    def extra_cost(self, node: Tuple[int, ...]) -> float:
        """Node-level extra cost (0 unless an extension installs one)."""
        if self.node_extra_cost is None:
            return 0.0
        key = tuple(sorted(node))
        hit = self._extra_cache.get(key)
        if hit is None:
            hit = float(self.node_extra_cost(key))
            if hit < 0:
                raise ValueError("node extra costs must be non-negative")
            self._extra_cache[key] = hit
        return hit

    def node_h_weight(self, node: Tuple[int, ...], parallel_as: str = "zero") -> float:
        """Node weight for h(v) estimation.

        ``parallel_as="zero"`` counts only serial processes (admissible: a
        parallel process's degradation may be absorbed into its job's max,
        contributing nothing beyond what g already counts).
        ``parallel_as="sum"`` reproduces the paper's literal node weight.
        """
        if parallel_as == "sum":
            return self.node_weight(node)
        if parallel_as != "zero":
            raise ValueError(f"unknown parallel_as={parallel_as!r}")
        key = tuple(sorted(node))
        serial = self._tables()[2]
        w = 0.0
        for pid, d in zip(key, self.node_degradations(key)):
            if serial[pid]:
                w += d
        return w

    # ------------------------------------------------------------------ #

    def impoliteness(self) -> np.ndarray:
        """PG's impoliteness score of every pid [18]: the mean degradation
        a process inflicts on each other process in a pairwise co-run,
        ``Σ_{j≠i} d_{j,{i}} / (n − 1)``.

        Imaginary pids score 0.  Without a communication model the
        degradation model's closed form
        (:meth:`~repro.core.degradation.CacheDegradationModel.pairwise_inflicted`)
        is used where it has one; otherwise the scores come from
        :meth:`degradation`, one pairwise co-run at a time.  Memoized
        (read-only array) until :meth:`clear_caches`.
        """
        if self._impoliteness is not None:
            return self._impoliteness
        n = self.n
        sums = None
        if self.comm is None:
            real = np.array(
                [not self.workload.is_imaginary(pid) for pid in range(n)],
                dtype=bool,
            )
            sums = self.model.pairwise_inflicted(real)
        if sums is None:
            sums = np.zeros(n)
            for i in range(n):
                total = 0.0
                for j in range(n):
                    if j != i:
                        total += self.degradation(j, frozenset((i,)))
                sums[i] = total
        scores = sums / max(1, n - 1)
        scores.flags.writeable = False
        self._impoliteness = scores
        return scores

    def relabeled(self, order: Sequence[int]) -> "CoSchedulingProblem":
        """This problem with its pids relabelled: pid ``k`` of the copy is
        pid ``order[k]`` here.

        For homogeneous, serial-only problems without a communication
        model or node extra costs.  ``order`` must keep the imaginary
        padding at the tail.  The copy shares :attr:`counters` with this
        problem, so profiles, tracer events and weight-evaluation budgets
        see the work done on it; its memos are its own.
        """
        wl = self.workload
        if (
            self.is_scenario
            or self.comm is not None
            or self.node_extra_cost is not None
            or wl.parallel_jobs
        ):
            raise ValueError(
                "relabeled() needs a homogeneous, serial-only problem "
                "without a communication model or node extra costs"
            )
        order = [int(pid) for pid in order]
        if sorted(order) != list(range(self.n)) or any(
            wl.is_imaginary(pid) for pid in order[: wl.n_real]
        ):
            raise ValueError(
                "order must be a permutation of the pids that keeps the "
                "imaginary padding at the tail"
            )
        jobs = [
            dataclasses.replace(wl.job_of(pid), job_id=k)
            for k, pid in enumerate(order[: wl.n_real])
        ]
        twin = CoSchedulingProblem(
            Workload(jobs, cores_per_machine=self.u if wl.n_imaginary else None),
            self.cluster,
            self.model.permuted(order),
            machine_scaling=self.machine_scale,
        )
        twin.counters = self.counters
        return twin

    def min_process_degradation(self, pid: int) -> float:
        """Admissible floor on ``d_{pid,S}`` over every possible coset.

        Cache part from the model's :meth:`min_degradation` (best-case
        co-runners, globally relaxed), plus — for PC processes — the
        communication a u-core machine cannot avoid (at most ``u - 1``
        neighbours can be co-located).
        """
        if self.workload.is_imaginary(pid):
            return 0.0
        universe = [
            q for q in range(self.n)
            if q != pid and not self.workload.is_imaginary(q)
        ]
        if self.is_scenario:
            # Machines differ in capacity, so the coset size depends on
            # the (unknown) placement: min over every distinct capacity.
            # Constraint penalties are >= 0 and scaling is handled by the
            # caller, so this floor stays admissible.
            sizes = sorted({min(c - 1, len(universe)) for c in self.capacities})
            return min(
                self.model.min_degradation(pid, universe, k) for k in sizes
            )
        # Imaginary pads shrink the real co-runner count, and degradation
        # need not be monotone in coset size, so take the min over every
        # feasible real-coset size.
        k_hi = min(self.u - 1, len(universe))
        k_lo = max(0, self.u - 1 - self.workload.n_imaginary)
        d = min(
            self.model.min_degradation(pid, universe, k)
            for k in range(k_lo, k_hi + 1)
        )
        if self.comm is not None and self.comm.is_communicating(pid):
            ct = self.model.single_time(pid)
            d += self.comm.min_comm_time(pid, self.u - 1) / ct
        return d

    def parallel_job_of(self, pid: int) -> Optional[int]:
        """Owning parallel job id of ``pid``, or None for serial/imaginary."""
        job = self.workload.job_of(pid)
        if job is None or not job.is_parallel:
            return None
        return job.job_id

    def seed_node_weight(self, node: Tuple[int, ...], weight: float) -> None:
        """Pre-populate the node-weight memo with a known value.

        Incremental re-solves (:mod:`repro.online`) carry machine groups
        whose weights were already computed against an identical model in a
        prior problem instance; seeding them here lets the repair path skip
        re-evaluating untouched machines.  Only safe when the degradation of
        ``node``'s members depends solely on their own machine's coset
        (serial, no-communication workloads) — the caller owns that
        invariant.
        """
        self._node_cache[tuple(sorted(node))] = float(weight)

    def clear_caches(self) -> None:
        """Drop every memo layer: the problem-level dicts AND the
        degradation model's internal caches (via the model's own
        ``clear_caches`` hook), so repeated solves on a mutated model can't
        serve stale values."""
        self._deg_cache.clear()
        self._node_cache.clear()
        self._node_degs_cache.clear()
        self._deg_tables = None
        self._extra_cache.clear()
        self._machine_node_cache.clear()
        self._impoliteness = None
        self.model.clear_caches()
        self.counters.reset()


def _negative_penalty(
    constraint: ScenarioConstraint, k: int, p: float
) -> ValueError:
    return ValueError(
        f"constraint {type(constraint).__name__} returned a negative "
        f"penalty {p} for machine {k}"
    )
