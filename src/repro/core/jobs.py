"""Job and process model for the co-scheduling problem.

The paper schedules a batch containing three kinds of jobs:

* **serial jobs** — a single process;
* **PE jobs** (embarrassingly parallel) — several processes with no
  inter-process communication (e.g. Monte-Carlo slaves);
* **PC jobs** (parallel with communications) — MPI-style processes laid out on
  a 1D/2D/3D decomposition of a data set, exchanging halos with neighbours.

Every schedulable unit is a :class:`Process`; a job is a named group of
processes.  Process ids are dense integers ``0..n-1`` in workload order (the
paper numbers them 1-based in its figures; rendering helpers add 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class JobKind(enum.Enum):
    """The three job classes distinguished by the paper."""

    SERIAL = "serial"
    PE = "pe"  # embarrassingly parallel, no communication
    PC = "pc"  # parallel with inter-process communication


@dataclass(frozen=True)
class Process:
    """One schedulable process (one core's worth of work).

    Attributes
    ----------
    pid:
        Global process id, dense in ``0..n-1`` over the workload.
    job_id:
        Index of the owning job within the workload.
    rank:
        Rank of this process within its job (0 for serial jobs).
    imaginary:
        True for padding processes added when ``n % u != 0``.  Imaginary
        processes have zero degradation with any co-runner and inflict none.
    """

    pid: int
    job_id: int
    rank: int
    imaginary: bool = False


@dataclass(frozen=True)
class Job:
    """A job: a named group of one or more processes.

    ``profile_name`` keys into the workload catalog / degradation model to
    fetch the program's cache behaviour.  PC jobs additionally carry a
    ``topology`` (set by :mod:`repro.comm.topology`) describing the domain
    decomposition that determines the communication pattern.
    """

    job_id: int
    name: str
    kind: JobKind
    nprocs: int
    profile_name: str = ""
    topology: Optional[object] = None  # repro.comm.topology.Decomposition

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"job {self.name!r} needs >= 1 process, got {self.nprocs}")
        if self.kind is JobKind.SERIAL and self.nprocs != 1:
            raise ValueError(f"serial job {self.name!r} must have exactly 1 process")
        if self.kind is JobKind.PC and self.topology is None:
            raise ValueError(f"PC job {self.name!r} requires a topology")

    @property
    def is_parallel(self) -> bool:
        return self.kind is not JobKind.SERIAL


class Workload:
    """An ordered batch of jobs flattened into processes.

    Parameters
    ----------
    jobs:
        The jobs to schedule, in order.  Process ids are assigned densely in
        this order (job 0's processes first).
    cores_per_machine:
        If given, the workload is padded with *imaginary* serial processes so
        that the total process count divides the core count, exactly as the
        paper prescribes ("we can simply add ``u - n mod u`` imaginary jobs
        which have no performance degradation with any other jobs").
    """

    def __init__(self, jobs: Sequence[Job], cores_per_machine: Optional[int] = None):
        self.jobs: Tuple[Job, ...] = tuple(jobs)
        for idx, job in enumerate(self.jobs):
            if job.job_id != idx:
                raise ValueError(
                    f"job_id mismatch: job {job.name!r} has job_id={job.job_id}, expected {idx}"
                )
        procs = []
        pid = 0
        for job in self.jobs:
            for rank in range(job.nprocs):
                procs.append(Process(pid=pid, job_id=job.job_id, rank=rank))
                pid += 1
        self._real_n = pid
        self.n_imaginary = 0
        if cores_per_machine is not None:
            if cores_per_machine < 1:
                raise ValueError("cores_per_machine must be >= 1")
            pad = (-pid) % cores_per_machine
            self.n_imaginary = pad
            for _ in range(pad):
                procs.append(Process(pid=pid, job_id=-1, rank=0, imaginary=True))
                pid += 1
        self.processes: Tuple[Process, ...] = tuple(procs)
        # The workload never changes after construction, so the per-job pid
        # tuples and the parallel-job tuple are built once here.
        pids_of: Dict[int, List[int]] = {}
        for proc in self.processes:
            pids_of.setdefault(proc.job_id, []).append(proc.pid)
        self._pids_of: Dict[int, Tuple[int, ...]] = {
            jid: tuple(pids) for jid, pids in pids_of.items()
        }
        self._parallel_jobs: Tuple[Job, ...] = tuple(
            j for j in self.jobs if j.is_parallel
        )

    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Total process count, including imaginary padding."""
        return len(self.processes)

    @property
    def n_real(self) -> int:
        """Process count excluding imaginary padding."""
        return self._real_n

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def parallel_jobs(self) -> Tuple[Job, ...]:
        return self._parallel_jobs

    def job_of(self, pid: int) -> Optional[Job]:
        """The job owning process ``pid`` (None for imaginary processes)."""
        proc = self.processes[pid]
        if proc.imaginary:
            return None
        return self.jobs[proc.job_id]

    def process(self, pid: int) -> Process:
        return self.processes[pid]

    def processes_of(self, job_id: int) -> Tuple[int, ...]:
        """Process ids of job ``job_id``, in rank order."""
        return self._pids_of.get(job_id, ())

    def is_imaginary(self, pid: int) -> bool:
        return self.processes[pid].imaginary

    def kind_of(self, pid: int) -> JobKind:
        """Job kind of a process; imaginary padding counts as SERIAL."""
        job = self.job_of(pid)
        return JobKind.SERIAL if job is None else job.kind

    def iter_pids(self) -> Iterator[int]:
        return iter(range(self.n))

    def label(self, pid: int) -> str:
        """Human-readable label: job name plus rank for parallel processes."""
        job = self.job_of(pid)
        if job is None:
            return f"<pad{pid}>"
        if job.is_parallel:
            return f"{job.name}[{self.processes[pid].rank}]"
        return job.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {k: sum(1 for j in self.jobs if j.kind is k) for k in JobKind}
        return (
            f"Workload(n={self.n}, jobs={self.n_jobs}, "
            f"serial={kinds[JobKind.SERIAL]}, pe={kinds[JobKind.PE]}, "
            f"pc={kinds[JobKind.PC]}, imaginary={self.n_imaginary})"
        )


# ---------------------------------------------------------------------- #
# Convenience constructors
# ---------------------------------------------------------------------- #


def serial_job(job_id: int, name: str, profile_name: str = "") -> Job:
    return Job(job_id=job_id, name=name, kind=JobKind.SERIAL, nprocs=1,
               profile_name=profile_name or name)


def pe_job(job_id: int, name: str, nprocs: int, profile_name: str = "") -> Job:
    return Job(job_id=job_id, name=name, kind=JobKind.PE, nprocs=nprocs,
               profile_name=profile_name or name)


def pc_job(job_id: int, name: str, topology, profile_name: str = "") -> Job:
    return Job(job_id=job_id, name=name, kind=JobKind.PC, nprocs=topology.nprocs,
               profile_name=profile_name or name, topology=topology)
