"""PSL — propagation-based scaling of distance labelling (Li et al.,
SIGMOD 2019), the paper's parallel-construction baseline ("PSL*").

PLL's pruned BFSs are inherently sequential (each BFS prunes on the labels
of all earlier ones).  PSL rebuilds the same 2-hop cover in *rounds*: in
round ``d`` every vertex inspects the entries its neighbours gained in
round ``d - 1`` and keeps candidate hubs that (a) outrank it and (b) are
not already covered at distance ``<= d`` by the current labels.  All
vertices in a round are independent — that is the parallelism PSL* exploits
with 20 threads in the paper's Table 4.

This implementation executes rounds sequentially and records per-round
work, from which the harness derives the simulated ``t``-thread
construction time (``max(round_work / t, critical_path)``); see DESIGN.md's
parallelism substitution note.  Queries and label sizes are identical
either way.  PSL handles static graphs only — after any update the paper
(and this class) requires a full rebuild.
"""

from __future__ import annotations

from typing import Any, Iterable

import time

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import INF, externalise
from repro.core.stats import UpdateStats
from repro.graph.batch import apply_batch, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph


class PSLIndex(OracleBase):
    """Static 2-hop cover built by synchronous label propagation."""

    #: Honest declaration: updates are handled, but by full rebuild.
    capabilities = Capabilities(dynamic=False)

    def __init__(self, graph: DynamicGraph, order: list[int] | None = None) -> None:
        self._check_buildable(graph)
        self._graph = graph
        n = graph.num_vertices
        if order is None:
            order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
        self.order = list(order)
        self.rank = [0] * n
        for position, v in enumerate(self.order):
            self.rank[v] = position
        self.labels: list[dict[int, int]] = [{v: 0} for v in range(n)]
        #: entries added per round — len(rounds_work) is the parallel depth.
        self.rounds_work: list[int] = []
        self._build()

    def _build(self) -> None:
        graph = self._graph
        n = graph.num_vertices
        rank = self.rank
        labels = self.labels
        previous_added: list[list[int]] = [[v] for v in range(n)]
        depth = 0
        while True:
            depth += 1
            current_added: list[list[int]] = [[] for _ in range(n)]
            work = 0
            any_added = False
            for v in range(n):
                rank_v = rank[v]
                candidates: set[int] = set()
                for w in graph.neighbors(v):
                    for hub in previous_added[w]:
                        if rank[hub] < rank_v:
                            candidates.add(hub)
                if not candidates:
                    continue
                label_v = labels[v]
                for hub in sorted(candidates, key=lambda h: rank[h]):
                    work += 1
                    if self._query_with(labels[hub], label_v) > depth:
                        label_v[hub] = depth
                        current_added[v].append(hub)
                        any_added = True
            self.rounds_work.append(work)
            if not any_added:
                break
            previous_added = current_added

    @staticmethod
    def _query_with(label_s: dict[int, int], label_t: dict[int, int]) -> int:
        if len(label_s) > len(label_t):
            label_s, label_t = label_t, label_s
        best = INF
        for hub, d_s in label_s.items():
            d_t = label_t.get(hub)
            if d_t is not None and d_s + d_t < best:
                best = d_s + d_t
        return best

    # ------------------------------------------------------------------
    # queries / metrics
    # ------------------------------------------------------------------

    def internal_distance(self, s: int, t: int) -> int:
        if s == t:
            return 0
        return self._query_with(self.labels[s], self.labels[t])

    def distance(self, s: int, t: int) -> float:
        self._check_pair(s, t)
        return externalise(self.internal_distance(s, t))

    # ------------------------------------------------------------------
    # updates (full rebuild — PSL is a static index)
    # ------------------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Apply the batch to the graph and re-propagate from scratch.

        PSL handles static graphs only (``dynamic=False``): the paper —
        and this class — requires a full rebuild after any update, which
        is what this protocol-conforming implementation does.  ``variant``
        is accepted for protocol compatibility and ignored.
        """
        self._ensure_open()
        batch = normalize_batch(updates, self._graph)
        stats = UpdateStats(variant="psl-rebuild", n_requested=len(batch))
        started = time.perf_counter()
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            self._graph.ensure_vertex(highest)
            apply_batch(self._graph, batch)
            self._rebuild()
            self._fill_batch_stats(stats, batch)
        stats.total_seconds = time.perf_counter() - started
        return stats

    def _rebuild(self) -> None:
        """Re-run propagation on the current graph (degree order afresh)."""
        n = self._graph.num_vertices
        self.order = sorted(
            range(n), key=lambda v: (-self._graph.degree(v), v)
        )
        self.rank = [0] * n
        for position, v in enumerate(self.order):
            self.rank[v] = position
        self.labels = [{v: 0} for v in range(n)]
        self.rounds_work = []
        self._build()

    def label_size(self) -> int:
        return sum(len(label) - 1 for label in self.labels)

    def size_bytes(self) -> int:
        return self.label_size() * 5

    @property
    def parallel_depth(self) -> int:
        """Number of propagation rounds (the critical path PSL* pays)."""
        return len(self.rounds_work)

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    def __repr__(self) -> str:
        return (
            f"PSLIndex(|V|={self._graph.num_vertices},"
            f" entries={self.label_size()}, rounds={self.parallel_depth})"
        )


register_oracle(
    "psl",
    PSLIndex,
    capabilities=PSLIndex.capabilities,
    description="PSL* propagation-built 2-hop cover (Li et al. 2019);"
    " batches trigger a full rebuild",
    config_keys=("order",),
)
