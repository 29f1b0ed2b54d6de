"""BiBFS — the online-search baseline.

No index at all: every query runs a bidirectional BFS that always expands
the smaller frontier (the optimised strategy credited to Hayashi et al. in
the paper).  Updates are free (the graph is the only state); queries pay
O(E) in the worst case, which is the trade-off Figure 6 explores.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import INF, externalise
from repro.core.stats import UpdateStats
from repro.graph.batch import apply_batch, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traversal import bidirectional_bfs


class BiBFSIndex(OracleBase):
    """Query-by-search baseline over a dynamic graph."""

    capabilities = Capabilities(dynamic=True)

    def __init__(self, graph: DynamicGraph) -> None:
        self._check_buildable(graph)
        self._graph = graph

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    def distance(self, s: int, t: int) -> float:
        self._check_pair(s, t)
        best = bidirectional_bfs(self._graph, s, t, excluded=(), bound=INF)
        return externalise(min(best, INF))

    def snapshot(self) -> "BiBFSIndex":
        """A frozen copy — the graph is the only state to freeze."""
        return BiBFSIndex(self._graph.copy())

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Apply updates to the graph; nothing else to maintain.

        ``variant`` is accepted for protocol compatibility and ignored.
        """
        self._ensure_open()
        batch = normalize_batch(updates, self._graph)
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            self._graph.ensure_vertex(highest)
            apply_batch(self._graph, batch)
        stats = UpdateStats(variant="bibfs", n_requested=len(batch))
        self._fill_batch_stats(stats, batch)
        return stats

    def label_size(self) -> int:
        """BiBFS keeps no labelling."""
        return 0

    def size_bytes(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"BiBFSIndex(|V|={self._graph.num_vertices}, |E|={self._graph.num_edges})"


register_oracle(
    "bibfs",
    BiBFSIndex,
    capabilities=BiBFSIndex.capabilities,
    description="online bidirectional BFS: no index, free updates,"
    " O(E) worst-case queries",
)
