"""Inter-processor communication time (Eq. 10-11 of the paper).

The time a PC process ``p_i`` spends communicating under a given co-schedule
is determined *locally*: only neighbours NOT co-located on the same machine
cost inter-processor transfers (``β_i(k, S_i) = 1``); intra-machine traffic
overlaps with the inter-machine traffic and is faster, so it is free:

    c_{i,S} = (1/B) * Σ_k α_i(k) * β_i(k, S)                            (10)
    β_i(k, S) = 0 if the k-th neighbour of p_i is in S else 1           (11)

This locality is what keeps Eq. 9 an integer program and keeps the graph node
weights well-defined.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Tuple

from ..core.jobs import JobKind, Workload
from .topology import Decomposition

__all__ = ["CommunicationModel"]


class CommunicationModel:
    """Evaluates ``c_{i,S}`` for every PC process of a workload.

    Parameters
    ----------
    workload:
        The workload; PC jobs must carry a :class:`Decomposition` topology.
    bandwidth_bytes_per_s:
        ``B`` of Eq. 10 — uniform inter-machine bandwidth.
    """

    def __init__(self, workload: Workload, bandwidth_bytes_per_s: float):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.workload = workload
        self.bandwidth = float(bandwidth_bytes_per_s)
        # Precompute, per PC process, its neighbour pids and halo volumes.
        self._neighbours: Dict[int, Tuple[Tuple[int, float], ...]] = {}
        for job in workload.jobs:
            if job.kind is not JobKind.PC:
                continue
            topo = job.topology
            assert isinstance(topo, Decomposition)
            pids = workload.processes_of(job.job_id)
            if len(pids) != topo.nprocs:
                raise ValueError(
                    f"job {job.name!r}: {len(pids)} processes but topology has "
                    f"{topo.nprocs}"
                )
            for rank, pid in enumerate(pids):
                nbrs = tuple(
                    (pids[nbr_rank], topo.halo_bytes[axis])
                    for axis, nbr_rank in topo.neighbours(rank)
                )
                self._neighbours[pid] = nbrs

    # ------------------------------------------------------------------ #

    def is_communicating(self, pid: int) -> bool:
        """True if ``pid`` belongs to a PC job (has neighbours to talk to)."""
        return pid in self._neighbours

    def neighbour_pids(self, pid: int) -> Tuple[int, ...]:
        return tuple(n for n, _ in self._neighbours.get(pid, ()))

    def total_volume(self, pid: int) -> float:
        """Worst-case bytes ``p_pid`` sends if no neighbour is co-located."""
        return sum(v for _, v in self._neighbours.get(pid, ()))

    def comm_time(self, pid: int, coset: AbstractSet[int]) -> float:
        """Eq. 10: inter-machine communication time of ``pid``.

        ``coset`` is the set of process ids co-scheduled on the same machine
        as ``pid`` (excluding ``pid`` itself).  Neighbours found in ``coset``
        communicate intra-machine for free (Eq. 11).
        """
        coset_mask = 0
        for q in coset:
            coset_mask |= 1 << q
        return self.comm_time_mask(pid, coset_mask)

    def comm_time_mask(self, pid: int, coset_mask: int) -> float:
        """Eq. 10 with the co-located set given as a pid bitmask (bit ``q``
        set iff process ``q`` shares ``pid``'s machine).

        The mask may include ``pid`` itself: a process is never its own
        neighbour.  The one Eq. 10 implementation: :meth:`comm_time`
        builds the mask and calls this.
        """
        nbrs = self._neighbours.get(pid)
        if not nbrs:
            return 0.0
        volume = 0.0
        for nbr_pid, halo in nbrs:
            if not coset_mask >> nbr_pid & 1:
                volume += halo
        return volume / self.bandwidth

    def max_comm_time(self, pid: int) -> float:
        """Communication time with zero co-located neighbours (upper bound)."""
        return self.total_volume(pid) / self.bandwidth

    def min_comm_time(self, pid: int, max_colocated: int) -> float:
        """Lower bound: the ``max_colocated`` fattest neighbours co-located.

        On a u-core machine at most ``u - 1`` neighbours can share the
        machine, so every remaining halo must cross the network — an
        admissible floor used by the A* heuristic.
        """
        if max_colocated < 0:
            raise ValueError("max_colocated must be >= 0")
        nbrs = self._neighbours.get(pid)
        if not nbrs:
            return 0.0
        halos = sorted((v for _, v in nbrs), reverse=True)
        return sum(halos[max_colocated:]) / self.bandwidth
