"""The service-stream workload, in its own process.

    python bench/service_load.py --seed N --seconds S [--trace]
        [--spans FILE] [--setup-probes K]

Each phase starts a fresh ``cosched serve --workers 1 --solver hastar``
process and drives it with one generator process of two threads, each
with at most one connection open (the bench box has two cores).  Every
request is ``POST /solve`` with ``wait=30``.

* Phase A, a closed loop over the first 40% of ``--seconds``: each
  connection sends its next request when the previous one is answered;
  it gives ``throughput_per_s``.
* Phase B, an open loop over the rest: requests are due at a uniform
  :data:`OPEN_RATE` whatever the server does, and latency is timed from
  each request's due time, so a stall also delays the requests behind it.

With ``--trace`` phase B runs twice on the same requests, first against
a plain server and then against ``bench/serve_traced.py``, which gives
the per-layer breakdown and the tracing overhead.  The last line printed
is one JSON document of raw samples.
"""

from __future__ import annotations

import argparse
import http.client
import json
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from check import answer_errors, same_objective
from layers import layer_of
from metrics import calibration_sample, pct, solver_layer_metrics
from procs import BENCH, WORK, child_env, peak_rss_mb, stop
from workloads import SERVICE_SOLVER, Request, request_problem, service_stream

#: Requests per second of the open-loop phase.
OPEN_RATE = 40.0
#: Share of ``--seconds`` spent in the closed-loop phase.
CLOSED_SHARE = 0.4
#: Upper bound on closed-loop throughput, to size its request stream.
CLOSED_MAX_RPS = 400
#: Calibration samples are taken in gaps at least this long, at most
#: once per ``CALIBRATION_EVERY_S``.
CALIBRATION_GAP_S = 0.015
CALIBRATION_EVERY_S = 0.25
SERVE = ["serve", "--port", "0", "--workers", "1",
         "--solver", SERVICE_SOLVER]
HIT = ("cache_hit", "coalesced")


class Server:
    """A ``cosched serve`` process; ``setup_s`` runs from spawn to the
    first answered ``GET /metrics``."""

    def __init__(self, spans: Optional[str] = None):
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *SERVE]
        else:
            cmd = [sys.executable, str(BENCH / "serve_traced.py"),
                   "--spans", spans, "--", *SERVE]
        t0 = time.perf_counter()
        self.log = open(WORK / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(),
                                     text=True)
        try:
            line = self.proc.stdout.readline()
            found = re.search(r"http://([\d.]+):(\d+)", line)
            if found is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, self.port = found.group(1), int(found.group(2))
            while True:
                try:
                    self.metrics()
                    break
                except OSError:
                    if self.proc.poll() is not None:
                        raise RuntimeError("server exited during start-up")
                    time.sleep(0.005)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def metrics(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        stop(self.proc)
        self.log.close()


def _drive(server: Server, stream: List[Request],
           due: Callable[[int], Optional[float]],
           speed: Optional[List[float]] = None) -> list:
    """Send ``stream`` from two threads (this one and one more), each with
    at most one connection open.  ``due(j)`` is when request ``j`` may go
    (``None``: stop sending).  Returns ``(status, body, due, sent, done)``
    per request sent, ``None`` for the rest.

    Each request opens its own connection, as ``repro.service.client``
    does: on a kept-alive connection the server's separate header and
    body writes meet the client's delayed ACK, and every response stalls
    for ~40 ms (see :func:`keepalive_probe`).

    Given a ``speed`` list, calibration samples are appended to it in the
    gaps of the stream: only when no request is in flight and none is due
    for :data:`CALIBRATION_GAP_S`, so a sample competes with neither the
    server nor the generator.
    """
    results: list = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    clock = time.perf_counter
    pending: Dict[str, float] = {}   # thread -> due time of its next send
    in_flight = [0]
    last_sample = [0.0]

    def take():
        with lock:
            j = cursor[0]
            if j >= len(stream):
                return None, None
            t = due(j)
            if t is None:
                return None, None
            cursor[0] = j + 1
            pending[threading.current_thread().name] = t
            return j, t

    def idle_gap() -> bool:
        with lock:
            now = clock()
            if (in_flight[0] or min(pending.values()) - now < CALIBRATION_GAP_S
                    or now - last_sample[0] < CALIBRATION_EVERY_S):
                return False
            last_sample[0] = now
            return True

    def sender():
        me = threading.current_thread().name
        while True:
            j, t = take()
            if j is None:
                with lock:
                    pending.pop(me, None)
                return
            if speed is not None and idle_gap():
                speed.append(calibration_sample())
            delay = t - clock()
            if delay > 0:
                time.sleep(delay)
            req = stream[j]
            with lock:
                pending.pop(me)
                in_flight[0] += 1
            sent = clock()
            conn = server.connect()
            try:
                conn.request("POST", "/solve", body=req.body, headers={
                    "Content-Type": "application/json",
                    "X-Bench-Id": str(req.index)})
                resp = conn.getresponse()
                status, body = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                status, body = None, repr(exc).encode()
            finally:
                conn.close()
            results[j] = (status, body, t, sent, clock())
            with lock:
                in_flight[0] -= 1

    other = threading.Thread(target=sender, name="bench-sender")
    other.start()
    try:
        sender()
    finally:
        other.join()
    return results


def keepalive_probe(server: Server, request: Request,
                    count: int = 5) -> float:
    """Median round trip, in ms, of ``count`` repeats of an answered
    request over one kept-alive connection."""
    rtts = []
    conn = server.connect()
    try:
        for _ in range(count):
            t0 = time.perf_counter()
            conn.request("POST", "/solve", body=request.body,
                         headers={"Content-Type": "application/json"})
            conn.getresponse().read()
            rtts.append(1e3 * (time.perf_counter() - t0))
    finally:
        conn.close()
    return pct(rtts, 50)


def run_closed(server: Server, stream: List[Request], seconds: float):
    deadline = time.perf_counter() + seconds
    results = _drive(server, stream, lambda j: (
        time.perf_counter() if time.perf_counter() < deadline else None))
    return results


def run_open(server: Server, stream: List[Request], rate: float,
             speed: Optional[List[float]] = None):
    start = time.perf_counter() + 0.05
    return _drive(server, stream, lambda j: start + j / rate, speed)


def _outcomes(stream: List[Request], results: list, errors: list) -> list:
    """Per request sent: its answer document (or ``None``) after every
    correctness check; failures are appended to ``errors``."""
    answers: Dict[int, dict] = {}
    out = []
    for req, res in zip(stream, results):
        if res is None:
            continue
        status, body, due, sent, done = res
        wrong = []
        try:
            doc = json.loads(body) if status == 200 else None
        except ValueError:
            doc = None
        if doc is None:
            wrong.append(f"HTTP {status}: {body[:200]!r}")
        elif doc.get("state") != "done" or doc.get("shed"):
            wrong.append(f"state {doc.get('state')!r}, disposition "
                         f"{doc.get('disposition')!r}")
        else:
            wrong += answer_errors(request_problem(req),
                                   doc["schedule"]["groups"],
                                   doc.get("objective"))
            first = answers.get(req.origin)
            if req.kind != "new" and first is not None and not (
                    same_objective(first["objective"], doc["objective"])):
                wrong.append(f"{req.kind} of request {req.origin} answered "
                             f"{doc['objective']!r}, original "
                             f"{first['objective']!r}")
        if wrong:
            errors.extend(f"request {req.index}: {p}" for p in wrong)
            doc = None
        elif req.kind == "new":
            answers[req.index] = doc
        out.append({"req": req, "doc": doc, "due": due, "sent": sent,
                    "done": done})
    return out


def _latencies(outcomes: list) -> dict:
    """Latencies in ms from due time (all, hits, misses by problem size),
    generator lag and round trips."""
    def ms(o):
        return 1e3 * (o["done"] - o["due"])

    ok = [o for o in outcomes if o["doc"] is not None]
    miss: Dict[int, List[float]] = defaultdict(list)
    for o in ok:
        if o["doc"]["disposition"] == "solved":
            miss[o["req"].n].append(ms(o))
    return {
        "latency_ms": [ms(o) for o in outcomes],
        "hit_ms": [ms(o) for o in ok if o["doc"]["disposition"] in HIT],
        "miss_ms": dict(miss),
        "lag_ms": [1e3 * (o["sent"] - o["due"]) for o in outcomes],
        "rtt_ms": [1e3 * (o["done"] - o["sent"]) for o in outcomes],
    }


def _request_counts(metrics: dict) -> dict:
    r = metrics["requests"]
    return {k: r[k] for k in ("submitted", "solves", "cache_hits",
                              "coalesced", "shed", "rejected", "errors")}


def _service_layers(dump: dict, outcomes: list, metrics: dict) -> dict:
    """Per-layer metrics of the traced phase: server spans joined to the
    client's round trips by request id."""
    spans: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for s in dump["spans"]:
        if s["key"] is not None:
            spans[s["key"]][s["name"]] += s["end"] - s["start"]
    server_side = ("service.decode", "service.fingerprint",
                   "service.store.lookup", "service.queue_wait",
                   "runtime.run_solve", "service.store.record",
                   "service.reply")
    per: Dict[str, List[float]] = defaultdict(list)
    for o in outcomes:
        key = str(o["req"].index)
        if key not in spans:
            continue
        mine = spans[key]
        for name in server_side:
            if name in mine:
                per[name].append(1e3 * mine[name])
        rtt = 1e3 * (o["done"] - o["sent"])
        per["http_other"].append(rtt - 1e3 * sum(mine.get(n, 0.0)
                                                 for n in server_side))
    aggregates = {k: v for k, v in dump["aggregates"].items()
                  if not layer_of(k).startswith("service.")}
    solve_wall = aggregates.get("runtime.run_solve", {}).get("total_s", 0.0)
    out = solver_layer_metrics(aggregates, dump["solve_counts"], solve_wall)
    counts = _request_counts(metrics)
    out.update({
        "service.decode_ms_p50": pct(per["service.decode"], 50),
        "service.fingerprint_ms_p50": pct(per["service.fingerprint"], 50),
        "service.store.lookup_ms_p50": pct(per["service.store.lookup"], 50),
        "service.store.record_ms_p50": pct(per["service.store.record"], 50),
        "service.queue_wait_ms_p50": pct(per["service.queue_wait"], 50),
        "service.queue_wait_ms_p99": pct(per["service.queue_wait"], 99),
        "service.solve_ms_p50": pct(per["runtime.run_solve"], 50),
        "service.reply_ms_p50": pct(per["service.reply"], 50),
        "service.http_other_ms_p50": pct(per["http_other"], 50),
        "service.solves": counts["solves"],
        "service.cache_hits": counts["cache_hits"],
        "service.coalesced": counts["coalesced"],
        "service.shed": counts["shed"],
        "service.rejected": counts["rejected"],
        "service.hit_ratio": (counts["cache_hits"] + counts["coalesced"])
        / max(counts["submitted"], 1),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-probes", type=int, default=1)
    args = ap.parse_args(argv)

    closed_s = CLOSED_SHARE * args.seconds
    open_s = args.seconds - closed_s
    open_stream = service_stream(args.seed, 1, max(4, int(OPEN_RATE * open_s)))
    errors: List[str] = []
    setup: List[float] = []
    out: Dict[str, object] = {"workload": "service-stream", "seed": args.seed}

    for _ in range(args.setup_probes):
        server = Server()
        setup.append(server.setup_s)
        server.close()

    if not args.trace:
        closed_stream = service_stream(
            args.seed, 0, max(8, int(CLOSED_MAX_RPS * closed_s)))
        server = Server()
        try:
            setup.append(server.setup_s)
            t0 = time.perf_counter()
            closed = run_closed(server, closed_stream, closed_s)
            elapsed = max(r[4] for r in closed if r is not None) - t0
        finally:
            server.close()
        speed: List[float] = []
        server = Server()
        try:
            setup.append(server.setup_s)
            results = run_open(server, open_stream, OPEN_RATE, speed)
            metrics = server.metrics()
            out["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.close()
        out["calibration_s"] = speed
        closed_out = _outcomes(closed_stream, closed, errors)
        outcomes = _outcomes(open_stream, results, errors)
        out["throughput_rps"] = len(closed_out) / elapsed
        out.update(_latencies(outcomes))
        out["requests"] = _request_counts(metrics)
        # Quality: the answers served for the reference problems against
        # PG on the same problems.
        from repro import runtime

        served = pg = 0.0
        for o in outcomes:
            if o["req"].reference and o["doc"] is not None:
                served += o["doc"]["objective"]
                pg += runtime.run_solve(request_problem(o["req"]),
                                        "pg").objective
        out["objective_vs_pg"] = served / pg if pg else 0.0
        out["det"] = {
            "requests": len(outcomes),
            "distinct": sum(r.kind == "new" for r in open_stream),
            "solves": out["requests"]["solves"],
            "reference_objective_sum": served,
        }
        outcomes = closed_out + outcomes
    else:
        # Same requests against a plain and a traced server.
        half = open_stream[:max(4, len(open_stream) // 2)]
        server = Server()
        try:
            setup.append(server.setup_s)
            plain = _outcomes(half, run_open(server, half, OPEN_RATE), errors)
        finally:
            server.close()
        spans = args.spans or str(WORK / "service-spans.json")
        server = Server(spans=spans)
        try:
            setup.append(server.setup_s)
            results = run_open(server, half, OPEN_RATE)
            metrics = server.metrics()
            keepalive_ms = keepalive_probe(server, half[0])
        finally:
            server.close()
        traced = _outcomes(half, results, errors)
        with open(spans, encoding="utf-8") as fh:
            dump = json.load(fh)
        layers = _service_layers(dump, traced, metrics)
        new = [r.encode_s for r in half if r.kind == "new"]
        layers["service.encode_ms_p50"] = 1e3 * pct(new, 50)
        layers["service.keepalive_hit_ms_p50"] = keepalive_ms
        lat, plain_lat = _latencies(traced), _latencies(plain)
        layers["service.latency_ms_p95"] = pct(plain_lat["latency_ms"], 95)
        layers["bench.gen.lag_ms_p99"] = pct(lat["lag_ms"], 99)
        layers["bench.trace_overhead_frac"] = (
            sum(lat["rtt_ms"]) / sum(plain_lat["rtt_ms"]) - 1.0)
        out["layers"] = layers
        outcomes = plain + traced

    out["setup_s"] = setup
    out["attempted"] = len(outcomes)
    out["failed"] = sum(o["doc"] is None for o in outcomes)
    out["correct"] = not errors
    out["errors"] = errors[:10]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
