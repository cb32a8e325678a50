"""Exact search counters of the scenario search on the benchmark roster.

Each entry pins, per solver spec and seed of the ``oastar-scenario``
benchmark instance (dual + quad + eight cores, a bandwidth cap on the
quad, clock scaling), the objective and the counters ``(expanded,
nodes_generated, dismissed)``.  OA*'s counts come from the
capacity-aware bound and the streamed slot expansion; a change that
weakens either shows up here as a count change, not only as time.  Its
``expanded`` is pinned as ``(expanded, partial_resumes)``: first
expansions, and the re-queued pops that take a streamed state's next
batch of children.  O-SVP (h ≡ 0, no stream) is pinned beside it: its
counts must not move with the heuristic.  The counts are the same on the
compiled and the NumPy kernels.
"""

import pytest

from repro.runtime.registry import create_solver
from repro.workloads.synthetic import random_heterogeneous_instance

# seed -> spec -> (objective, expanded, nodes_generated, dismissed)
PINNED = {
    0: {
        "oastar": (0.516956746691328, (621, 64), 12261, 8323),
        "osvp": (0.516956746691328, 2609, 41535, 36780),
    },
    1: {
        "oastar": (0.5500280295462396, (525, 65), 10695, 7055),
        "osvp": (0.5500280295462396, 2947, 46353, 42667),
    },
    2: {
        "oastar": (0.43121541616801085, (198, 47), 5762, 2539),
        "osvp": (0.43121541616801085, 2602, 41192, 38093),
    },
    3: {
        "oastar": (0.4317820545671473, (331, 52), 7743, 4472),
        "osvp": (0.4317820545671473, 2776, 43760, 40661),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_scenario_search_matches_pinned_counts(seed):
    for spec, (objective, *counts) in PINNED[seed].items():
        problem = random_heterogeneous_instance(
            ("dual", "quad", "eight"), seed=seed, saturation=0.9,
            bandwidth_caps=(None, 2.5e9, None), clock_scaling=True,
        )
        result = create_solver(spec).solve(problem)
        s = result.stats
        expanded = s["expanded"]
        if isinstance(counts[0], tuple):
            expanded = (expanded, s["partial_resumes"])
        assert result.objective == pytest.approx(objective, abs=1e-12), spec
        assert [expanded, s["nodes_generated"], s["dismissed"]] \
            == counts, spec
