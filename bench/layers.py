"""Per-layer timing of ``repro`` from outside the program.

The benchmark treats ``src/repro`` as a black box.  This module wraps the
public entry points of each layer (module functions and class methods,
patched where their callers look them up), times every call, and keeps
two kinds of record:

* an **aggregate** per layer and thread: calls, inclusive seconds and
  self seconds (inclusive minus the time of wrapped calls made inside).
  Hot boundaries (a kernel call, one ``degradation`` lookup) only ever
  touch these counters, because storing a span per call would cost more
  than the call itself;
* **spans** at coarse boundaries (one solve, one HTTP request phase):
  name, start, end, parent span and a key (the solve id or the
  benchmark's request id), kept in memory and written out at exit.

Self time is attributed along the wrapped call stack, so the layers'
self times partition the time spent inside the outermost wrapped call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The four batch-kernel entry points of ``repro.perf.kernels``.
KERNELS = ("pairwise_node_weights", "pressure_node_weights",
           "sdc_merge_ways", "select_smallest")


def layer_of(label: str) -> str:
    """Layer of a wrapper label: ``"core.weights/node_weight"`` belongs
    to ``"core.weights"``."""
    return label.split("/", 1)[0]


class _ThreadState:
    __slots__ = ("stack", "agg", "open_spans", "spans", "key")

    def __init__(self) -> None:
        self.stack: List[float] = []  # child seconds of each open call
        # label -> [calls, total, self, rows, bytes]
        self.agg: Dict[str, list] = {}
        self.open_spans: List[int] = []
        # [id, name, start, end, parent, key]
        self.spans: List[list] = []
        self.key: Optional[str] = None


class LayerTracer:
    """Wraps callables, aggregates per-layer time and records spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)
        #: :func:`solve_counts` of every solve run while installed
        #: (appended by whoever observes the solve results).
        self.solve_counts: List[Dict[str, float]] = []

    # ------------------------------------------------------------------ #

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def set_key(self, key: Optional[str]) -> None:
        """Key (solve or request id) stamped on spans this thread records."""
        self._state().key = key

    def key(self) -> Optional[str]:
        return self._state().key

    def add_span(self, name: str, start: float, end: float,
                 key: Optional[str] = None) -> None:
        """Record a span measured by the caller (e.g. a queue wait)."""
        st = self._state()
        parent = st.open_spans[-1] if st.open_spans else None
        st.spans.append([next(self._ids), name, start, end, parent,
                         key if key is not None else st.key])

    def wrap(self, layer: str, fn: Callable, span: bool = False,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``layer``; ``span=True`` also records a span
        per call; ``measure(args) -> (rows, bytes)`` adds work counts."""
        state = self._state
        clock = time.perf_counter
        ids = self._ids

        def timed(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0.0)
            if span:
                sid = next(ids)
                parent = st.open_spans[-1] if st.open_spans else None
                st.open_spans.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg = st.agg.get(layer)
                if agg is None:
                    agg = st.agg[layer] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if measure is not None:
                    rows, nbytes = measure(args)
                    agg[3] += rows
                    agg[4] += nbytes
                if span:
                    st.open_spans.pop()
                    st.spans.append([sid, layer, t0, t1, parent, st.key])

        timed.__wrapped__ = fn
        return timed

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: every resumption
        is timed under ``layer``; only the creation counts as a call."""
        state = self._state
        clock = time.perf_counter

        def resume(it, first):
            st = state()
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return next(it)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg = st.agg.get(layer)
                if agg is None:
                    agg = st.agg[layer] = [0, 0.0, 0.0, 0, 0]
                agg[0] += first
                agg[1] += dt
                agg[2] += dt - child

        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            first = 1
            while True:
                try:
                    item = resume(it, first)
                except StopIteration:
                    return
                first = 0
                yield item

        timed.__wrapped__ = fn
        return timed

    # ------------------------------------------------------------------ #

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, layer: str, iterator: bool = False,
              **kw) -> None:
        """Replace ``owner.attr`` by its timed wrapper."""
        original = getattr(owner, attr)
        self.replace(owner, attr, self.wrap_iter(layer, original) if iterator
                     else self.wrap(layer, original, **kw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, installer: Callable[["LayerTracer"], None]):
        """Patch with ``installer(self)`` for the duration of the block."""
        installer(self)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-layer totals merged across threads."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for label, agg in list(st.agg.items()):
                calls, total, self_s, rows, nbytes = agg
                a = out.setdefault(label, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "rows": 0,
                                           "bytes": 0})
                a["calls"] += calls
                a["total_s"] += total
                a["self_s"] += self_s
                a["rows"] += rows
                a["bytes"] += nbytes
        return out

    def spans(self) -> List[dict]:
        with self._lock:
            states = list(self._states)
        out = []
        for st in states:
            for sid, name, start, end, parent, key in list(st.spans):
                out.append({"id": sid, "name": name, "start": start,
                            "end": end, "parent": parent, "key": key})
        out.sort(key=lambda s: s["start"])
        return out

    def dump(self, path: str, **extra) -> None:
        doc = {"aggregates": self.aggregates(), "spans": self.spans(),
               "solve_counts": self.solve_counts}
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def solve_counts(stats: dict,
                 profile: Optional[dict] = None) -> Dict[str, float]:
    """The counters one solve publishes, under one set of names.

    ``SolveResult.stats`` differs by engine: the graph search reports
    ``nodes_generated``/``condensed_away``, the scenario engine
    ``generated`` (children it pushed); the ``profile`` snapshot is absent
    from scenario results, so ``profile`` (the problem's counters) may be
    passed in instead.
    """
    counts = (stats.get("profile") or profile or {}).get("counts", {})
    return {
        "expanded": stats.get("expanded", 0),
        "visited": stats.get("visited_paths", 0),
        "dismissed": stats.get("dismissed", 0),
        "graph_generated": stats.get("nodes_generated", 0),
        "generated": stats.get("nodes_generated", stats.get("generated", 0)),
        "condensed_away": stats.get("condensed_away", 0),
        # node-weight memo: batch-path hits and misses, scalar-path misses
        "memo_hits": counts.get("node_memo_hits", 0),
        "memo_batched": counts.get("node_weight_batched", 0),
        "memo_scalar": counts.get("node_weight_scalar", 0),
    }


# --------------------------------------------------------------------- #
# What each layer's entry points are
# --------------------------------------------------------------------- #


# Kernel work counts: rows per call and bytes computed from the argument
# shapes (every value read or written once, 8 bytes each) -- not measured.


def _shape(nodes):
    shape = getattr(nodes, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    n = len(nodes)
    return n, (len(nodes[0]) if n else 0)


def _measure_pressure(args):
    n, u = _shape(args[2])
    # per row: u pids, u sensitivities, u aggressions, one weight
    return n, 8 * n * (3 * u + 1)


def _measure_pairwise(args):
    n, u = _shape(args[1])
    # per row: u pids, u*(u-1) table entries, one weight
    return n, 8 * n * (u + u * max(u - 1, 0) + 1)


def _measure_sdc(args):
    counters, weights = args[0], args[1]
    k = len(counters)
    return k, 8 * sum(len(c) for c in counters) + 8 * len(weights) + 8 * k


def _measure_select(args):
    weights, k = args[0], args[1]
    n = len(weights)
    return n, 8 * n + 8 * min(int(k), n)


def install_solver_layers(tracer: LayerTracer) -> None:
    """Wrap the solver-side layers: runtime, solvers, graph, core, cache,
    comm and the batch kernels."""
    from repro import runtime
    from repro.comm.model import CommunicationModel
    from repro.core import degradation as core_degradation
    from repro.core.problem import CoSchedulingProblem
    from repro.graph.levels import HeuristicEstimator, SuccessorGenerator
    from repro.perf import kernels
    from repro.runtime import session
    from repro.service import queue
    from repro.solvers import base, het_search

    p = tracer.patch
    p(runtime, "run_solve", "runtime.run_solve", span=True)
    p(session, "run_solve", "runtime.run_solve", span=True)
    p(queue, "run_solve", "runtime.run_solve", span=True)
    p(base.Solver, "solve", "solvers.solve", span=True)
    p(het_search, "solve_het", "solvers.het_search", span=True)
    p(base, "evaluate_schedule", "core.evaluate")
    p(SuccessorGenerator, "successors", "graph.successors/successors")
    p(SuccessorGenerator, "successors_stream", "graph.successors/stream",
      iterator=True)
    p(HeuristicEstimator, "__init__", "graph.h_precompute", span=True)
    p(HeuristicEstimator, "h", "graph.h/h")
    p(HeuristicEstimator, "h_tail", "graph.h/h_tail")
    for method in ("node_weight", "node_weights_batch", "machine_node_weight"):
        p(CoSchedulingProblem, method, f"core.weights/{method}")
    p(CoSchedulingProblem, "degradation", "core.degradation")
    # The name core.degradation looks up, not the defining module's.
    p(core_degradation, "sdc_corun_misses", "cache.sdc")
    p(CommunicationModel, "comm_time", "comm")
    measures = {"pairwise_node_weights": _measure_pairwise,
                "pressure_node_weights": _measure_pressure,
                "sdc_merge_ways": _measure_sdc,
                "select_smallest": _measure_select}
    for name in KERNELS:
        p(kernels, name, f"perf.kernels/{name}", measure=measures[name])


def install_service_layers(tracer: LayerTracer) -> None:
    """Wrap the service-side layers inside a server process.

    Every span recorded while an HTTP handler serves a request carries the
    benchmark's ``X-Bench-Id`` header as its key.  A queued request is
    paired with the worker's ``run_solve`` through the problem object it
    submitted; the gap between ``submit`` returning and the solve starting
    is the request's queue wait, and the worker's spans (solve, store
    record) carry the submitting request's key.
    """
    from repro.service import queue, server, store

    clock = time.perf_counter
    # id(problem) -> [key, submitted_at].  Entries of requests answered
    # without a solve are never taken; a later problem reusing the id
    # overwrites them before any worker can see it.
    pending: Dict[int, list] = {}
    p = tracer.patch
    p(server, "problem_from_dict", "service.decode", span=True)
    p(queue, "problem_fingerprint", "service.fingerprint", span=True)
    p(queue, "canonical_pid_map", "service.fingerprint", span=True)
    p(store.SolutionStore, "lookup", "service.store.lookup", span=True)
    p(store.SolutionStore, "record", "service.store.record", span=True)
    p(server._Handler, "_reply", "service.reply", span=True)

    request = tracer.wrap("service.request", server._Handler.do_POST,
                          span=True)

    def do_post(handler):
        tracer.set_key(handler.headers.get("X-Bench-Id"))
        try:
            return request(handler)
        finally:
            tracer.set_key(None)

    tracer.replace(server._Handler, "do_POST", do_post)
    submit = queue.SolveService.submit

    def timed_submit(service, problem, *args, **kwargs):
        entry = [tracer.key(), None]
        pending[id(problem)] = entry
        try:
            return submit(service, problem, *args, **kwargs)
        finally:
            entry[1] = clock()

    tracer.replace(queue.SolveService, "submit", timed_submit)

    solve = queue.run_solve  # already wrapped by install_solver_layers

    def worker_solve(problem, *args, **kwargs):
        entry = pending.pop(id(problem), None)
        start = clock()
        if entry is not None:
            tracer.set_key(entry[0])
            # submit() had not returned yet: the worker took it at once.
            tracer.add_span("service.queue_wait", entry[1] or start, start)
        report = solve(problem, *args, **kwargs)
        tracer.solve_counts.append(
            solve_counts(report.result.stats, problem.counters.snapshot()))
        return report

    tracer.replace(queue, "run_solve", worker_solve)


def install_all(tracer: LayerTracer) -> None:
    install_solver_layers(tracer)
    install_service_layers(tracer)
