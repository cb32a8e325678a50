"""Integer-programming formulation of the co-scheduling problem (Section II).

The paper writes the model with per-process assignment variables
``x_{i,S_i}`` (Eq. 2-8).  As literally written those variables are not
coupled across processes — the formulation every IP solver actually receives
(and the one [18] used) is the equivalent *set-partitioning* program over
u-subsets:

* a binary ``x_T`` per u-cardinality process set ``T`` (one graph node);
* partition rows: ``Σ_{T ∋ i} x_T = 1`` for every process ``i`` (Eq. 4);
* serial cost of ``T``: ``Σ_{serial i ∈ T} d_{i, T∖i}``;
* the parallel max (Eq. 5) is linearized with one auxiliary ``y_j`` per
  parallel job (Eq. 7-8): for every parallel process ``i ∈ δ_j``,
  ``Σ_{T ∋ i} d_{i,T∖i} · x_T ≤ y_j``;
* objective: ``min Σ_T cost_T · x_T + Σ_j y_j`` (Eq. 6).

PC processes use the communication-combined degradation of Eq. 9, which is
valid here precisely because ``c_{i,S}`` depends only on the local machine's
content (the paper's observation in Section II-B2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..core.jobs import JobKind
from ..core.problem import CoSchedulingProblem
from ..core.schedule import CoSchedule

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["IPFormulation", "build_formulation"]


@dataclass
class IPFormulation:
    """The set-partitioning MILP in matrix form.

    Variable layout: ``x`` for every subset in ``subsets`` (binary), then one
    continuous ``y_j`` per entry of ``par_jobs``.

    ``A_eq x = b_eq`` are the n partition rows; ``A_ub z <= 0`` are the
    parallel max-linearization rows (over the full variable vector ``z``).
    """

    problem: CoSchedulingProblem
    subsets: List[Tuple[int, ...]]
    cost: np.ndarray  # objective coefficients, length n_x + n_y
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    par_jobs: List[int]

    @property
    def n_x(self) -> int:
        return len(self.subsets)

    @property
    def n_y(self) -> int:
        return len(self.par_jobs)

    @property
    def n_vars(self) -> int:
        return self.n_x + self.n_y

    def integrality(self) -> np.ndarray:
        """1 for binary subset variables, 0 for continuous y's (scipy milp)."""
        return np.concatenate(
            [np.ones(self.n_x, dtype=np.int64), np.zeros(self.n_y, dtype=np.int64)]
        )

    def schedule_from_x(self, x: np.ndarray, tol: float = 1e-6) -> CoSchedule:
        """Decode a binary solution vector into a schedule."""
        chosen = [self.subsets[k] for k in range(self.n_x) if x[k] > 1 - tol]
        total = sum(len(t) for t in chosen)
        if total != self.problem.n:
            raise ValueError(
                f"solution selects {total} process slots, expected {self.problem.n}"
            )
        return CoSchedule.from_groups(chosen, u=self.problem.u, n=self.problem.n)


def build_formulation(
    problem: CoSchedulingProblem, max_subsets: int = 2_000_000
) -> IPFormulation:
    """Enumerate all C(n, u) subsets and assemble the sparse MILP."""
    import scipy.sparse as sp

    n, u = problem.n, problem.u
    n_x = math.comb(n, u)
    if n_x > max_subsets:
        raise ValueError(
            f"formulation would have {n_x} subset variables (> {max_subsets})"
        )
    wl = problem.workload
    kinds = [wl.kind_of(pid) for pid in range(n)]
    job_ids = [
        -1 if wl.job_of(pid) is None else wl.job_of(pid).job_id for pid in range(n)
    ]
    par_jobs = [j.job_id for j in wl.parallel_jobs]
    par_index = {jid: k for k, jid in enumerate(par_jobs)}
    n_y = len(par_jobs)

    subsets: List[Tuple[int, ...]] = []
    cost_x = np.zeros(n_x)

    eq_rows: List[int] = []
    eq_cols: List[int] = []

    # One ub row per parallel process: row index per (job, process).
    par_procs = [
        pid for pid in range(n) if kinds[pid] is not JobKind.SERIAL
    ]
    ub_row_of = {pid: r for r, pid in enumerate(par_procs)}
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []

    for k, combo in enumerate(itertools.combinations(range(n), u)):
        subsets.append(combo)
        members = frozenset(combo)
        c = problem.extra_cost(combo)
        for pid in combo:
            eq_rows.append(pid)
            eq_cols.append(k)
            if wl.is_imaginary(pid):
                continue
            d = problem.degradation(pid, members - {pid})
            if kinds[pid] is JobKind.SERIAL:
                c += d
            else:
                if d != 0.0:
                    ub_rows.append(ub_row_of[pid])
                    ub_cols.append(k)
                    ub_vals.append(d)
        cost_x[k] = c

    A_eq = sp.csr_matrix(
        (np.ones(len(eq_rows)), (eq_rows, eq_cols)), shape=(n, n_x + n_y)
    )
    b_eq = np.ones(n)

    # y_j column entries: -1 in every row of that job's processes.
    for pid in par_procs:
        ub_rows.append(ub_row_of[pid])
        ub_cols.append(n_x + par_index[job_ids[pid]])
        ub_vals.append(-1.0)
    A_ub = sp.csr_matrix(
        (ub_vals, (ub_rows, ub_cols)), shape=(len(par_procs), n_x + n_y)
    )
    b_ub = np.zeros(len(par_procs))

    cost = np.concatenate([cost_x, np.ones(n_y)])
    return IPFormulation(
        problem=problem,
        subsets=subsets,
        cost=cost,
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
        par_jobs=par_jobs,
    )
