"""The repository benchmark: one command, every workload, checked answers.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--spans FILE] [--out FILE]

Each workload runs in a fresh process (``bench/solve_load.py`` or
``bench/service_load.py``) that imports ``repro`` from ``src/`` and
treats it as a black box.  This driver prints every metric by name and
unit, then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` a separate
traced run that reports the per-layer ones (and ``--spans`` keeps the
spans).  ``--out`` also writes the raw samples, for ``bench/compare.py``.
The exit status is non-zero when any answer was wrong or any operation
failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

from metrics import END_TO_END, PER_LAYER, geomean, pct, slowdown
from procs import BENCH, SRC, WORK, child_env
from workloads import SERVICE_WORKLOAD, WORKLOADS

#: Seconds one run measures when ``--seconds`` is not given (the
#: ``run_seconds`` of ``BENCHMARK.json``).
RUN_SECONDS = 25
#: Set-up is sampled this many times per run (median reported).
SETUP_SAMPLES = 3
#: A workload's processes still running this long after it started are
#: killed.
CHILD_TIMEOUT_S = 170


class ChildError(RuntimeError):
    pass


class Child:
    """A child process in a process group of its own.

    The group -- the child and whatever it starts, e.g. the service's
    servers -- is killed when the workload's deadline passes or the
    ``with`` block is left early, and always waited for.
    """

    def __init__(self, cmd: List[str], deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     env=child_env(), text=True,
                                     start_new_session=True)
        self._timer = threading.Timer(max(0.1, deadline - self.started),
                                      self.kill)
        self._timer.daemon = True
        self._timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
        self.kill()  # the child, if still running, and any leftovers
        self.proc.wait()
        self.proc.stdout.close()

    def until_ready(self) -> float:
        """Seconds from spawn until the child printed ``READY``."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
        raise ChildError(f"{self.proc.args[1:3]} ended before it was ready")

    def finish(self) -> dict:
        """Wait for the child; the JSON document it printed last (``{}``
        when it printed nothing more)."""
        out = self.proc.stdout.read()
        if self.proc.wait() != 0:
            raise ChildError(f"{self.proc.args[1:3]} exited "
                             f"{self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def _prime(deadline: float) -> None:
    """Build the compiled kernels into the cache before any set-up is
    timed (the first run in a checkout compiles them)."""
    if not any((WORK / "kernels").glob("*.so")):
        with Child([sys.executable, "-c", "import repro.perf.kernels"],
                   deadline) as child:
            child.finish()


def run_solve_workload(name: str, seed: int, seconds: float, trace: bool,
                       quick: bool, spans: str | None,
                       deadline: float) -> dict:
    base = [sys.executable, str(BENCH / "solve_load.py"), name,
            "--seed", str(seed), "--seconds", str(seconds)]
    _prime(deadline)
    setup = []
    # Traced runs report no set-up time.
    for _ in range(0 if quick or trace else SETUP_SAMPLES - 1):
        with Child(base + ["--setup-only"], deadline) as child:
            setup.append(child.until_ready())
            child.finish()
    cmd = list(base)
    if quick or trace:
        cmd += ["--min-instances", "1"]
    if trace:
        cmd += ["--trace"] + (["--spans", spans] if spans else [])
    with Child(cmd, deadline) as child:
        setup.append(child.until_ready())
        result = child.finish()
    result["setup_s"] = setup
    if trace:
        return result
    ms = result["solve_ms"]
    result["raw"] = {
        "setup_s": pct(setup, 50),
        "solve_ms_p50": pct(ms, 50),
        "fast_path_ms_p50": pct(result["pg_ms"], 50),
        "throughput_per_s": 1e3 * len(ms) / sum(ms),
        "objective_vs_pg": result["objective_vs_pg"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def run_service_workload(seed: int, seconds: float, trace: bool,
                         quick: bool, spans: str | None,
                         deadline: float) -> dict:
    _prime(deadline)
    cmd = [sys.executable, str(BENCH / "service_load.py"), "--seed",
           str(seed), "--seconds", str(seconds), "--setup-probes",
           "0" if quick or trace else str(SETUP_SAMPLES - 2)]
    if trace:
        cmd += ["--trace"] + (["--spans", spans] if spans else [])
    with Child(cmd, deadline) as child:
        result = child.finish()
    if trace:
        return result
    result["raw"] = {
        "setup_s": pct(result["setup_s"], 50),
        # Solve times differ several-fold between the stream's problem
        # sizes; the median of the mixture jumps between them, the
        # geometric mean of the per-size medians does not.
        "solve_ms_p50": geomean([pct(v, 50)
                                 for v in result["miss_ms"].values()]),
        "fast_path_ms_p50": pct(result["hit_ms"], 50),
        "throughput_per_s": result["throughput_rps"],
        "objective_vs_pg": result["objective_vs_pg"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, spans: str | None = None) -> dict:
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    if name == SERVICE_WORKLOAD:
        result = run_service_workload(seed, seconds, trace, quick, spans,
                                      deadline)
    else:
        result = run_solve_workload(name, seed, seconds, trace, quick, spans,
                                    deadline)
    if not trace:
        # Report times at the reference machine speed: the box's
        # neighbours slow it by up to ~45% for minutes at a time, which
        # would otherwise swamp every bound.
        result["slowdown"] = k = slowdown(result["calibration_s"])
        result["e2e"] = {
            metric: value * k if metric == "throughput_per_s"
            else value / k if END_TO_END[metric][0] in ("s", "ms")
            else value
            for metric, value in result["raw"].items()
        }
    return result


def _metric_doc(result: dict, trace: bool) -> Dict[str, dict]:
    if trace:
        return {name: {"value": float(result["layers"].get(name, 0.0)),
                       "unit": unit}
                for name, (unit, _better) in PER_LAYER.items()}
    return {name: {"value": float(result["e2e"][name]), "unit": spec[0]}
            for name, spec in END_TO_END.items()}


def _print_human(name: str, result: dict, metrics: Dict[str, dict]) -> None:
    print(f"== {name}  seed={result['seed']}  attempted={result['attempted']}"
          f"  failed={result['failed']}")
    for metric, m in metrics.items():
        print(f"   {metric:<34s} {m['value']:>14.6g} {m['unit']}")
    if "slowdown" in result:
        print(f"   (machine ran {result['slowdown']:.3f}x the reference "
              "time; times above are scaled back by it)")
    for row in result.get("shares", []):
        print(f"   self {row[0]:<29s} {row[1]:>14.4f} s  {100 * row[2]:5.1f}%")
    for err in result.get("errors", []):
        print(f"   WRONG: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="2-second smoke run (self-test)")
    ap.add_argument("--spans", default=None,
                    help="traced runs: write the spans here (JSON)")
    ap.add_argument("--out", default=None,
                    help="write results and raw samples here (JSON)")
    args = ap.parse_args(argv)
    # Leave through the ``with`` blocks, which stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or (2.0 if args.quick else RUN_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)

    results = {}
    for name in names:
        spans = args.spans
        if spans and len(names) > 1:
            spans = f"{spans}.{name}"
        try:
            result = run_workload(name, args.seed, seconds, trace,
                                  args.quick, spans)
        except (ChildError, OSError, ValueError) as exc:
            print(f"bench: workload {name} did not complete: {exc}",
                  file=sys.stderr)
            return 2
        result["metrics"] = _metric_doc(result, trace)
        _print_human(name, result, result["metrics"])
        results[name] = result

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "workloads": results}, fh)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = all(r["correct"] for r in results.values()) and not failed
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in results.items()
                   for m, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
