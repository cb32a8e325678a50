"""HA* — the Heuristic A*-search algorithm (Section IV).

Identical to OA* except each level expansion attempts only the first
``MER = n/u`` valid nodes in ascending weight — the paper's statistically
derived Maximum Effective Rank bound (Fig. 5 shows the optimal path's
effective rank stays within ``n/u`` for ≳98% of random instances, so the
trimmed search is near-optimal while examining orders of magnitude fewer
nodes).
"""

from __future__ import annotations

from typing import Optional

from .astar_core import AStarSearch

__all__ = ["HAStar"]


class HAStar(AStarSearch):
    """Heuristic A*: MER-trimmed levels, near-optimal and fast.

    ``beam_factor`` scales the per-level node budget relative to ``n/u``
    (1.0 = the paper's rule; larger explores more, approaching OA*).
    """

    def __init__(
        self,
        beam_factor: float = 1.0,
        h_strategy: int = 2,
        dismiss: str = "dominance",
        condense: bool = False,
        h_parallel: str = "zero",
        process_floor: bool = True,
        beam_width: Optional[int] = None,
        max_expansions: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if beam_factor <= 0:
            raise ValueError("beam_factor must be positive")
        super().__init__(
            name=name or ("HA*" if beam_factor == 1.0 else f"HA*(x{beam_factor:g})"),
            h_strategy=h_strategy,
            node_limit_fraction=beam_factor,
            dismiss=dismiss,
            condense=condense,
            h_parallel=h_parallel,
            process_floor=process_floor,
            beam_width=beam_width,
            max_expansions=max_expansions,
        )
