"""Performance layer: batch kernels plumbing, counters, tracing.

The batch weight kernels themselves live on the degradation models
(:meth:`repro.core.degradation.CacheDegradationModel.node_weights_batch`) and
the problem (:meth:`repro.core.problem.CoSchedulingProblem.node_weights_batch`)
so every caller sees one interface; this package holds what surrounds them:

* :class:`PerfCounters` — weight-evaluation / batch-size / memo-hit / heap
  counters and per-phase wall time, surfaced via ``cosched solve --profile``
  and ``SolveResult.stats["profile"]``;
* :class:`Tracer` / :func:`read_trace` — structured JSONL search events
  (expand / dismiss / incumbent / bound / fallback …), attached through
  ``problem.counters.tracer`` and surfaced via ``cosched solve --trace``.
"""

from .counters import PerfCounters
from .tracer import EVENT_TYPES, Tracer, read_trace

__all__ = [
    "PerfCounters",
    "Tracer",
    "read_trace",
    "EVENT_TYPES",
]
