"""OA* — the Optimal A*-search algorithm (Section III)."""

from __future__ import annotations

from typing import Optional

from .astar_core import AStarSearch

__all__ = ["OAStar"]


class OAStar(AStarSearch):
    """The paper's OA*: exact extended A* over the co-scheduling graph.

    Defaults follow the paper's best configuration — h(v) Strategy 2 — with
    the provably-exact dominance dismissal (pass ``dismiss="paper"`` for the
    published rule; the two coincide on serial-only workloads).  Set
    ``condense=True`` to enable communication-aware process condensation
    (Section III-E).
    """

    def __init__(
        self,
        h_strategy: int = 2,
        dismiss: str = "dominance",
        condense: bool = False,
        condense_pe: bool = True,
        h_parallel: str = "zero",
        process_floor: bool = True,
        partial_expansion: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(
            name=name or f"OA*(h{h_strategy})",
            h_strategy=h_strategy,
            node_limit_fraction=None,
            dismiss=dismiss,
            condense=condense,
            condense_pe=condense_pe,
            h_parallel=h_parallel,
            process_floor=process_floor,
            partial_expansion=partial_expansion,
        )
