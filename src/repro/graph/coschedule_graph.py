"""Explicit co-scheduling graph construction (Fig. 3 of the paper).

For small instances the whole graph — every u-cardinality node, organized
into levels by smallest member, plus virtual start/end nodes — can be
materialized.  The solvers never need this (they expand lazily via
:mod:`repro.graph.levels`), but the explicit graph is invaluable for tests,
teaching examples, and for verifying the search algorithms against brute
force over all valid paths; it also exports to :mod:`networkx` for
inspection and drawing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from ..core.problem import CoSchedulingProblem

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CoSchedulingGraph", "START", "END"]

#: Virtual node ids (the paper's level-0 start node and final end node).
START: Tuple[int, ...] = ("start",)  # type: ignore[assignment]
END: Tuple[int, ...] = ("end",)  # type: ignore[assignment]


@dataclass(frozen=True)
class _LevelInfo:
    level: int
    nodes: Tuple[Tuple[int, ...], ...]


class CoSchedulingGraph:
    """The full co-scheduling graph of an instance.

    Node ids are ascending pid tuples exactly as the paper codes them; the
    node weight is the total degradation of its member processes.  Edges are
    implicit (the paper establishes them dynamically); :meth:`valid_paths`
    enumerates complete valid paths, i.e. co-schedules.
    """

    def __init__(self, problem: CoSchedulingProblem, max_nodes: int = 500_000):
        n, u = problem.n, problem.u
        total = math.comb(n, u)
        if total > max_nodes:
            raise ValueError(
                f"graph would have {total} nodes (> {max_nodes}); "
                "use the lazy search instead of materializing"
            )
        self.problem = problem
        self.n, self.u = n, u
        self._levels: List[_LevelInfo] = []
        self._weights: Dict[Tuple[int, ...], float] = {}
        for L in range(0, n - u + 1):
            nodes = tuple(
                (L,) + combo
                for combo in itertools.combinations(range(L + 1, n), u - 1)
            )
            for node in nodes:
                self._weights[node] = problem.node_weight(node)
            self._levels.append(_LevelInfo(level=L, nodes=nodes))

    # ------------------------------------------------------------------ #

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def n_nodes(self) -> int:
        return len(self._weights)

    def level(self, L: int) -> Tuple[Tuple[int, ...], ...]:
        """All nodes whose smallest pid is ``L``, in ascending id order."""
        return self._levels[L].nodes

    def level_sorted_by_weight(self, L: int) -> List[Tuple[int, ...]]:
        """Level nodes in ascending weight — HA*'s level ordering."""
        return sorted(self._levels[L].nodes, key=lambda nd: (self._weights[nd], nd))

    def weight(self, node: Tuple[int, ...]) -> float:
        return self._weights[node]

    def nodes(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._weights)

    # ------------------------------------------------------------------ #

    def valid_paths(self) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        """Every complete valid path (= co-schedule), depth-first.

        A path picks one node per *used* level such that every process
        appears exactly once; the next node always comes from the level of
        the smallest unscheduled pid.
        """
        n, u = self.n, self.u

        def rec(unscheduled: Tuple[int, ...], acc: Tuple[Tuple[int, ...], ...]):
            if not unscheduled:
                yield acc
                return
            level_pid = unscheduled[0]
            rest = unscheduled[1:]
            for combo in itertools.combinations(rest, u - 1):
                node = (level_pid,) + combo
                remaining = tuple(p for p in rest if p not in combo)
                yield from rec(remaining, acc + (node,))

        yield from rec(tuple(range(n)), ())

    def to_networkx(self) -> nx.DiGraph:
        """Export to a layered DiGraph with start/end virtual nodes.

        An edge connects a node to every *compatible* node in a later level
        (no shared processes) — the superset of edges from which valid paths
        are drawn.  Only sensible for teaching-size instances.
        """
        import networkx as nx

        g = nx.DiGraph()
        g.add_node(START, weight=0.0, level=-1)
        g.add_node(END, weight=0.0, level=self.n_levels)
        for info in self._levels:
            for node in info.nodes:
                g.add_node(node, weight=self._weights[node], level=info.level)
        for node in self.level(0):
            g.add_edge(START, node)
        for info in self._levels:
            for node in info.nodes:
                members = set(node)
                # The next level on a valid path is the smallest pid not yet
                # used; from a single node we over-approximate with every
                # disjoint later-level node (paper: edges form dynamically).
                for later in self._levels[info.level + 1 :]:
                    for other in later.nodes:
                        if members.isdisjoint(other):
                            g.add_edge(node, other)
                if len(members) == self.n - info.level - (self.u - 1):
                    pass
        # Nodes that complete a partition connect to END: cheapest test is
        # that the node's level is the last level used by some valid path;
        # for the export we simply connect every node in the final level.
        for node in self.level(self.n - self.u):
            g.add_edge(node, END)
        return g
