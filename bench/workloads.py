"""The benchmark's workloads and the inputs each makes from ``--seed``.

The program only ever sees the generated instances: every input is a
pure function of the seed (and, for time-bounded loops, of how far the
loop got), so the same seed gives the same inputs.  Why each workload
exists is recorded in ``bench/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

#: Seed of each solve workload's untimed warm-up instance.  Fixed, so the
#: warm-up costs the same in every run and set-up time does not vary with
#: ``--seed``.
WARMUP_SEED = 424242

#: Seed of the reference instances every run starts with, whatever
#: ``--seed`` is: solution quality is compared on them, so it is exactly
#: comparable between runs and revisions.
REFERENCE_SEED = 2015


def _hastar_instance(seed: int, n: int = 64):
    from repro.workloads import random_serial_instance

    return random_serial_instance(n, "quad", seed=seed, saturation=4.0)


def _mix_instance(seed: int):
    from repro.workloads import random_mixed_instance

    # 6 serial + one 4-rank PE + one 6-rank PC job: n = 16 on quad-cores,
    # SDC cache model plus the communication model.
    return random_mixed_instance(6, pe_shapes=(4,), pc_shapes=(6,), seed=seed)


def _scenario_instance(seed: int):
    from repro.workloads import random_heterogeneous_instance

    # dual + quad + eight-core roster (n = 14), a bandwidth cap on the
    # quad and clock scaling: a scenario problem, searched by het_search.
    return random_heterogeneous_instance(
        ("dual", "quad", "eight"), seed=seed, saturation=0.9,
        bandwidth_caps=(None, 2.5e9, None), clock_scaling=True,
    )


@dataclass(frozen=True)
class SolveWorkload:
    """A closed loop with one client: solves run back to back."""

    name: str
    index: int                # mixes the workload into instance seeds
    spec: str                 # registry spec of the measured solver
    make: Callable[[int], object]
    warmup: Callable[[], object]
    #: Every run starts with this many reference instances (the same for
    #: every seed, solved even past ``--seconds``); ``objective_vs_pg`` is
    #: taken on them.  The instances after them come from ``--seed``.
    reference_instances: int
    #: Exact solvers: objective must equal O-SVP's on the first instances.
    exact_check: int = 0


SOLVE_WORKLOADS = {
    w.name: w for w in (
        SolveWorkload(
            "hastar-n64", 1, "hastar", _hastar_instance,
            lambda: _hastar_instance(WARMUP_SEED, n=16),
            reference_instances=8,
        ),
        SolveWorkload(
            "oastar-mix", 2, "oastar?condense=true", _mix_instance,
            lambda: _mix_instance(WARMUP_SEED),
            reference_instances=24, exact_check=3,
        ),
        SolveWorkload(
            "oastar-scenario", 3, "oastar", _scenario_instance,
            lambda: _scenario_instance(WARMUP_SEED),
            reference_instances=32, exact_check=3,
        ),
    )
}

SERVICE_WORKLOAD = "service-stream"
WORKLOADS = tuple(SOLVE_WORKLOADS) + (SERVICE_WORKLOAD,)


def instance_seed(seed: int, index: int, i: int) -> int:
    """Generator seed of the ``i``-th instance of workload ``index`` in a
    run with ``--seed seed``."""
    return int(np.random.SeedSequence([seed, index, i]).generate_state(1)[0])


def run_instance_seed(seed: int, workload: SolveWorkload, i: int) -> int:
    """Like :func:`instance_seed`, with the reference instances first."""
    if i < workload.reference_instances:
        seed = REFERENCE_SEED
    return instance_seed(seed, workload.index, i)


# --------------------------------------------------------------------- #
# service-stream
# --------------------------------------------------------------------- #

SERVICE_SIZES = (16, 24, 32)
SERVICE_SOLVER = "hastar"
#: The first new problems of every stream are reference problems, the
#: same for every seed (``objective_vs_pg`` is taken on them).
SERVICE_REFERENCE = 24


@dataclass
class Request:
    """One ``POST /solve`` of the stream, encoded before the run starts."""

    index: int
    kind: str                 # "new" | "repeat" | "relabeled"
    origin: int               # index of the request that first sent it
    n: int                    # processes in the problem
    body: bytes
    encode_s: float           # client-side codec time (problem -> body)
    reference: bool = False   # a reference problem's first request


def _relabel(doc: dict, rng: np.random.Generator) -> dict:
    """The same problem with its (serial) jobs listed in another order."""
    order = rng.permutation(len(doc["jobs"]))
    out = dict(doc)
    out["jobs"] = [doc["jobs"][i] for i in order]
    model = dict(doc["model"])
    model["miss_rates"] = [doc["model"]["miss_rates"][i] for i in order]
    out["model"] = model
    return out


def service_stream(seed: int, phase: int, count: int) -> List[Request]:
    """``count`` requests: exactly half new problems, a quarter verbatim
    repeats and a quarter relabeled repeats of earlier new problems, in
    seeded order.  New problems cycle evenly through
    :data:`SERVICE_SIZES`; the first :data:`SERVICE_REFERENCE` of them are
    the reference problems."""
    from repro.service.codec import problem_to_dict

    rng = np.random.default_rng([seed, 100 + phase])
    n_new = (count + 1) // 2
    n_rep = (count - n_new) // 2
    kinds = ["new"] * n_new + ["repeat"] * n_rep
    kinds += ["relabeled"] * (count - len(kinds))
    kinds = [kinds[i] for i in rng.permutation(count)]
    if kinds[0] != "new":  # a repeat needs an earlier original
        j = kinds.index("new")
        kinds[0], kinds[j] = kinds[j], kinds[0]
    sizes = [SERVICE_SIZES[i % len(SERVICE_SIZES)] for i in range(n_new)]
    ref = min(SERVICE_REFERENCE, n_new)
    rest = sizes[ref:]
    sizes = sizes[:ref] + [rest[i] for i in rng.permutation(len(rest))]

    originals: List[int] = []
    docs: dict = {}
    out: List[Request] = []
    for idx, kind in enumerate(kinds):
        if kind == "new":
            k = len(originals)
            problem = _hastar_instance(
                instance_seed(REFERENCE_SEED, 100, k) if k < ref
                else int(rng.integers(2**31)), n=sizes[k])
            t0 = time.perf_counter()
            doc = problem_to_dict(problem)
            body = _body(doc)
            encode_s = time.perf_counter() - t0
            docs[idx] = doc
            originals.append(idx)
            out.append(Request(idx, kind, idx, sizes[k], body, encode_s,
                               reference=k < ref))
            continue
        origin = originals[int(rng.integers(len(originals)))]
        doc = docs[origin]
        if kind == "relabeled":
            doc = _relabel(doc, rng)
        t0 = time.perf_counter()
        body = _body(doc)
        out.append(Request(idx, kind, origin, out[origin].n, body,
                           time.perf_counter() - t0))
    return out


def _body(doc: dict) -> bytes:
    return json.dumps({"problem": doc, "solver": SERVICE_SOLVER,
                       "wait": 30}).encode("utf-8")


def request_problem(request: Request):
    """Decode the problem a request carries (the submitter's labeling)."""
    from repro.service.codec import problem_from_dict

    return problem_from_dict(json.loads(request.body)["problem"])


def describe(seed: int, name: str, count: int = 3) -> List[str]:
    """Digests of a workload's first seeded inputs (used by the self-test
    to see that ``--seed`` changes the inputs)."""
    from repro.service.codec import problem_fingerprint

    if name == SERVICE_WORKLOAD:
        stream = service_stream(seed, 0, 20 * count)
        return [hashlib.sha256(b"".join(r.body for r in stream)).hexdigest()]
    w = SOLVE_WORKLOADS[name]
    first = w.reference_instances
    return [problem_fingerprint(w.make(run_instance_seed(seed, w, first + i)))
            for i in range(count)]
