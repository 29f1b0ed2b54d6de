"""FulPLL — the fully dynamic 2-hop cover baseline.

Combines IncPLL (insertions, Akiba et al. WWW'14) with DecPLL (deletions,
D'Angelo et al. JEA'19) over one shared pruned landmark labelling, exactly
as the BatchHL paper's FulPLL baseline does.  Strictly unit-update: a batch
is processed one edge at a time, which is the repeated-work behaviour the
batch-dynamic algorithms are designed to beat.
"""

from __future__ import annotations

from typing import Any, Iterable

import time

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.baselines import decpll, incpll
from repro.baselines.pll import PrunedLandmarkLabelling
from repro.core.stats import UpdateStats
from repro.graph.batch import normalize_batch
from repro.graph.dynamic_graph import DynamicGraph


class FullPLLIndex(OracleBase):
    """Fully dynamic PLL: exact queries under edge insertions/deletions."""

    capabilities = Capabilities(dynamic=True)

    def __init__(self, graph: DynamicGraph, order: list[int] | None = None) -> None:
        self._pll = PrunedLandmarkLabelling(graph, order)

    @property
    def graph(self) -> DynamicGraph:
        return self._pll.graph

    @property
    def pll(self) -> PrunedLandmarkLabelling:
        return self._pll

    def distance(self, s: int, t: int) -> float:
        self._check_pair(s, t)
        return self._pll.distance(s, t)

    def insert_edge(self, a: int, b: int) -> None:
        if not self.graph.add_edge(a, b):
            return  # invalid update: already present
        incpll.insert_edge(self._pll, a, b)

    def delete_edge(self, a: int, b: int) -> None:
        if not self.graph.has_edge(a, b):
            return  # invalid update: nothing to delete
        decpll.delete_edge(self._pll, a, b)

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Unit-update loop: FulPLL cannot exploit batches (by design).

        ``variant`` is accepted for protocol compatibility and ignored.
        """
        self._ensure_open()
        graph = self.graph
        batch = normalize_batch(updates, graph)
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            if highest >= graph.num_vertices:
                # Vertex insertion, Akiba et al. style: new vertices join
                # at the bottom of the hub order with trivial self-labels,
                # then the batch's edge insertions run IncPLL as usual.
                graph.ensure_vertex(highest)
                self._pll.grow(graph.num_vertices)
        stats = UpdateStats(variant="fulpll", n_requested=len(batch))
        started = time.perf_counter()
        for update in batch:
            if update.is_insert:
                self.insert_edge(update.u, update.v)
            else:
                self.delete_edge(update.u, update.v)
        self._fill_batch_stats(stats, batch)
        stats.total_seconds = time.perf_counter() - started
        return stats

    def label_size(self) -> int:
        return self._pll.label_size()

    def size_bytes(self) -> int:
        return self._pll.size_bytes()

    def __repr__(self) -> str:
        return (
            f"FullPLLIndex(|V|={self.graph.num_vertices},"
            f" entries={self.label_size()})"
        )


register_oracle(
    "fulpll",
    FullPLLIndex,
    capabilities=FullPLLIndex.capabilities,
    description="fully dynamic PLL: IncPLL insertions + DecPLL deletions,"
    " strictly unit-update",
    config_keys=("order",),
)
