"""O-SVP — the authors' earlier Dijkstra-based exact algorithm (MASCOTS'14).

The paper benchmarks OA* against O-SVP (Tables III-IV): same valid-path
search and dismissal, but expanding by uniform cost with no heuristic —
extended Dijkstra rather than extended A*.  Reproduced here as the A* core
with ``h ≡ 0``; the visited-paths gap versus OA*'s Strategy 2 is exactly the
pruning the h(v) function buys.
"""

from __future__ import annotations

from .astar_core import AStarSearch

__all__ = ["OSVP"]


class OSVP(AStarSearch):
    """Optimal Shortest Valid Path via uniform-cost search (no h)."""

    def __init__(
        self,
        dismiss: str = "dominance",
        condense: bool = False,
        process_floor: bool = False,  # pure uniform-cost, as in [33]
        name: str = "O-SVP",
    ):
        super().__init__(
            name=name,
            h_strategy=0,
            node_limit_fraction=None,
            dismiss=dismiss,
            condense=condense,
            process_floor=process_floor,
        )
