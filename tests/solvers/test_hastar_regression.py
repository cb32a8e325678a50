"""Exact regression table for HA* on ``hastar-n64``'s instance family.

Each entry pins, per ``random_serial_instance(n, "quad", seed=s,
saturation=4.0)``, the ``repr`` of HA*'s objective and its search
counters ``(expanded, nodes_generated, dismissed, visited_paths,
heap_pops)``.  The values are the same on the compiled and the NumPy
kernel providers: the MER window trim, the state table and the
Strategy-2 h may only get faster, never change the search.
"""

import pytest

from repro.runtime.registry import create_solver
from repro.workloads import random_serial_instance

# (n, seed) -> (repr(objective), expanded, nodes_generated, dismissed,
#               visited_paths, heap_pops)
PINNED = {
    (64, 0): ('10.704244628085705', 2728, 40858, 36648, 4211, 4201),
    (64, 1): ('11.512776025233833', 2659, 40624, 36681, 3944, 3936),
    (64, 2): ('11.006456088831222', 2508, 37443, 33387, 4057, 4049),
    (32, 0): ('5.931094286511573', 161, 1078, 889, 190, 189),
    # Beyond 64 pids: two-word scheduled-pid masks.
    (70, 1): ('12.578376493350143', 6371, 111329, 101516, 9814, 9808),
}


def hastar_counts(n, seed):
    """HA*'s objective and counters on one pinned instance."""
    problem = random_serial_instance(n, "quad", seed=seed, saturation=4.0)
    result = create_solver("hastar").solve(problem)
    s = result.stats
    return (repr(result.objective), s["expanded"], s["nodes_generated"],
            s["dismissed"], s["visited_paths"],
            s["profile"]["counts"]["heap_pops"])


@pytest.mark.parametrize("n,seed", sorted(PINNED))
def test_hastar_matches_pinned_table(n, seed):
    assert hastar_counts(n, seed) == PINNED[n, seed]
