"""Unit tests for the job/process/workload model."""

import pytest

from repro.core.jobs import Job, JobKind, Workload, pc_job, pe_job, serial_job
from repro.comm.topology import grid_2d


def make_workload(u=2):
    jobs = [
        serial_job(0, "a"),
        pe_job(1, "p", nprocs=3),
        serial_job(2, "b"),
    ]
    return Workload(jobs, cores_per_machine=u)


class TestJobValidation:
    def test_serial_must_have_one_process(self):
        with pytest.raises(ValueError, match="exactly 1 process"):
            Job(job_id=0, name="x", kind=JobKind.SERIAL, nprocs=2)

    def test_nonpositive_process_count(self):
        with pytest.raises(ValueError, match=">= 1 process"):
            Job(job_id=0, name="x", kind=JobKind.PE, nprocs=0)

    def test_pc_requires_topology(self):
        with pytest.raises(ValueError, match="requires a topology"):
            Job(job_id=0, name="x", kind=JobKind.PC, nprocs=4)

    def test_pc_job_takes_nprocs_from_topology(self):
        job = pc_job(0, "m", topology=grid_2d(2, 3, 1.0))
        assert job.nprocs == 6

    def test_is_parallel(self):
        assert not serial_job(0, "a").is_parallel
        assert pe_job(0, "p", 2).is_parallel
        assert pc_job(0, "c", grid_2d(1, 2, 1.0)).is_parallel


class TestWorkload:
    def test_dense_pids_in_job_order(self):
        wl = make_workload()
        assert [p.pid for p in wl.processes] == list(range(wl.n))
        assert wl.processes_of(1) == (1, 2, 3)

    def test_padding_to_core_multiple(self):
        wl = make_workload(u=2)  # 5 real processes -> 1 pad
        assert wl.n_real == 5
        assert wl.n == 6
        assert wl.n_imaginary == 1
        assert wl.is_imaginary(5)
        assert wl.job_of(5) is None

    def test_no_padding_when_divisible(self):
        wl = make_workload(u=5)
        assert wl.n == wl.n_real == 5
        assert wl.n_imaginary == 0

    def test_job_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="job_id mismatch"):
            Workload([serial_job(1, "a")])

    def test_kind_of_padding_is_serial(self):
        wl = make_workload(u=2)
        assert wl.kind_of(5) is JobKind.SERIAL
        assert wl.kind_of(1) is JobKind.PE

    def test_labels(self):
        wl = make_workload(u=2)
        assert wl.label(0) == "a"
        assert wl.label(2) == "p[1]"
        assert wl.label(5).startswith("<pad")

    def test_parallel_jobs(self):
        wl = make_workload()
        assert [j.name for j in wl.parallel_jobs] == ["p"]

    def test_precomputed_lookups_match_a_scan(self):
        jobs = [
            serial_job(0, "a"),
            pe_job(1, "p", nprocs=3),
            pc_job(2, "c", topology=grid_2d(2, 2, 1.0)),
            serial_job(3, "b"),
        ]
        wl = Workload(jobs, cores_per_machine=4)  # 9 real processes -> 3 pads
        assert wl.n_imaginary == 3
        for job_id in [-1, *range(wl.n_jobs), wl.n_jobs, 99]:
            scan = tuple(p.pid for p in wl.processes if p.job_id == job_id)
            assert wl.processes_of(job_id) == scan, job_id
        assert wl.processes_of(-1) == (9, 10, 11)
        assert wl.processes_of(99) == ()
        assert wl.parallel_jobs == tuple(j for j in wl.jobs if j.is_parallel)
        assert [j.name for j in wl.parallel_jobs] == ["p", "c"]

    def test_invalid_cores(self):
        with pytest.raises(ValueError, match="cores_per_machine"):
            Workload([serial_job(0, "a")], cores_per_machine=0)
