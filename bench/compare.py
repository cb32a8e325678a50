"""Compare two sets of benchmark runs.

    python3 bench/compare.py A1.json A2.json ... vs B1.json B2.json ...

Each file is a ``bench/run.py --out`` document.  For every workload and
metric in both sets it prints the medians and quartiles of A and B and a
verdict under the metric's bound from ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's own spread, and B
  wins at least nine in ten of the pairs (A and B runs paired in the
  order given, so list them in the order they were made, alternating);
* ``same``: neither;
* ``unresolved``: A's spread (quartile distance over median) exceeds the
  bound, so a change within it cannot be told from noise -- unless every
  run of B is better than every run of A (``better``).

Per-layer metrics (traced runs) have no bound and get no verdict.  Runs
of the same seed must agree exactly on the workload's deterministic
counts (``det``: objective sums, expanded and generated nodes, distinct
problems, ...).  Exit status 1 on any ``worse`` or count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: List[float]):
    """First and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: List[float], b: List[float], better: str, bound) -> str:
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / abs(ma) if ma else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        return "better" if all_better else "unresolved"
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by > bound:
        return "worse"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    if -worse_by > spread and wins >= 0.9 * min(len(a), len(b)):
        return "better"
    return "same"


def _fmt(median: float, q) -> str:
    return f"{median:.5g} [{q[0]:.4g}, {q[1]:.4g}]"


def _load(paths: List[str]) -> list:
    docs = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def compare(a_docs: list, b_docs: list, spec: dict) -> int:
    directions: Dict[str, tuple] = {}
    for m in spec["end_to_end"]:
        directions[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        directions[m["name"]] = (m["better"], None)

    def collect(docs):
        values = defaultdict(lambda: defaultdict(list))
        for doc in docs:
            for w, res in doc["workloads"].items():
                for name, m in res["metrics"].items():
                    values[w][name].append(m["value"])
        return values

    a_vals, b_vals = collect(a_docs), collect(b_docs)
    status = 0
    print(f"{'workload':<16s} {'metric':<30s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for w in sorted(set(a_vals) & set(b_vals)):
        for name in a_vals[w]:
            if name not in b_vals[w] or name not in directions:
                continue
            a, b = a_vals[w][name], b_vals[w][name]
            better, bound = directions[name]
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            v = verdict(a, b, better, bound)
            status |= v == "worse"
            bound_s = "-" if bound is None else f"{100 * bound:.1f}%"
            print(f"{w:<16s} {name:<30s} {_fmt(ma, qa):>30s} "
                  f"{_fmt(mb, qb):>30s} {100 * change:>+7.2f}% "
                  f"{bound_s:>6s}  {v}")
    # deterministic counts: equal across every run of the same seed
    by_seed = defaultdict(list)
    for doc in a_docs + b_docs:
        for w, res in doc["workloads"].items():
            if "det" in res:
                by_seed[(w, doc["seed"])].append(res["det"])
    for (w, seed), dets in sorted(by_seed.items()):
        for other in dets[1:]:
            if other != dets[0]:
                status = 1
                print(f"{w}: deterministic counts differ at seed {seed}: "
                      f"{dets[0]} != {other}")
    return status


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "vs" not in args:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cut = args.index("vs")
    a_paths, b_paths = args[:cut], args[cut + 1:]
    if not a_paths or not b_paths:
        print("need at least one run on each side of 'vs'", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return compare(_load(a_paths), _load(b_paths), spec)


if __name__ == "__main__":
    sys.exit(main())
