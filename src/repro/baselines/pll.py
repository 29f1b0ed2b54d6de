"""Pruned Landmark Labelling — Akiba, Iwata, Yoshida (SIGMOD 2013).

The *full* 2-hop cover labelling the paper compares against: a pruned BFS is
run from every vertex in decreasing degree order; vertex ``u`` receives the
entry ``(h, d)`` iff the current labels cannot already prove
``d(h, u) <= d``.  Queries evaluate Eq. 1 over the common hubs of the two
endpoint labels.

Unlike the highway cover labelling, the label size here is unbounded (it
grows with the graph's treewidth-like structure), which is exactly the
scaling weakness Tables 3 and 4 of the paper exhibit.
"""

from __future__ import annotations

from typing import Any, Iterable

import time
from collections import deque

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import INF, externalise
from repro.core.stats import UpdateStats
from repro.errors import IndexStateError
from repro.graph.batch import apply_batch, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph


class PrunedLandmarkLabelling(OracleBase):
    """Static PLL index: build once, query in O(label size)."""

    #: Honest declaration: updates are handled, but by full rebuild.
    capabilities = Capabilities(dynamic=False)

    def __init__(self, graph: DynamicGraph, order: list[int] | None = None) -> None:
        self._check_buildable(graph)
        self._graph = graph
        n = graph.num_vertices
        if order is None:
            order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
        if len(order) != n or set(order) != set(range(n)):
            raise IndexStateError("order must be a permutation of all vertices")
        self.order = list(order)
        self.rank = [0] * n
        for position, v in enumerate(self.order):
            self.rank[v] = position
        #: labels[v] maps hub vertex -> exact distance (includes (v, 0)).
        self.labels: list[dict[int, int]] = [{} for _ in range(n)]
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for hub in self.order:
            self.pruned_bfs(hub)

    def pruned_bfs(
        self,
        hub: int,
        start: int | None = None,
        start_dist: int = 0,
        rank_cutoff: bool = True,
    ) -> None:
        """Pruned BFS from ``hub``; optionally resumed at ``start``.

        Used at construction (start=None: begins at the hub itself), by
        DecPLL's restore phase (full re-run in rank order) and by IncPLL's
        resume (start = the far endpoint of an inserted edge).  At each
        reached vertex ``u`` with tentative distance ``d``: prune — skip
        the entry *and stop expanding* — iff the current labels certify a
        cover of ``(hub, u)`` at distance <= d; otherwise record
        ``(hub, d)`` in L(u) and expand.

        ``rank_cutoff=True`` (construction, restore) only accepts covers
        through hubs *strictly outranking* this one.  At construction time
        that is vacuous (labels only contain higher-ranked hubs), but it is
        essential for restore: a surviving entry ``(hub, u)`` itself covers
        the pair, and pruning on it would stop the BFS from re-walking the
        hub's own shortest-path tree — precisely where deleted downstream
        entries must be re-added.  Restricting to higher ranks restores the
        same induction order the static construction uses.  IncPLL resumes
        pass False: any certified cover at most ``d`` makes the resumed
        subtree redundant there (Akiba et al.'s pruning).
        """
        graph = self._graph
        rank_hub = self.rank[hub]
        hub_label = self.labels[hub]
        rank = self.rank
        seen = {hub if start is None else start}
        queue = deque()
        if start is None:
            queue.append((hub, 0))
        else:
            queue.append((start, start_dist))
        while queue:
            u, d = queue.popleft()
            if u != hub:
                if rank_cutoff:
                    if self.rank[u] < rank_hub:
                        continue
                    covered = (
                        self._query_below_rank(
                            hub_label, self.labels[u], rank, rank_hub
                        )
                        <= d
                    )
                else:
                    covered = self._query_with(hub_label, self.labels[u]) <= d
                if covered:
                    continue
                self.labels[u][hub] = d
            else:
                self.labels[hub][hub] = 0
            for w in graph.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append((w, d + 1))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

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

    @staticmethod
    def _query_below_rank(
        label_s: dict[int, int],
        label_t: dict[int, int],
        rank: list[int],
        rank_limit: int,
    ) -> int:
        """Cover distance using only hubs of rank strictly below the limit."""
        if len(label_s) > len(label_t):
            label_s, label_t = label_t, label_s
        best = INF
        for hub, d_s in label_s.items():
            if rank[hub] >= rank_limit:
                continue
            d_t = label_t.get(hub)
            if d_t is not None and d_s + d_t < best:
                best = d_s + d_t
        return best

    def internal_distance(self, s: int, t: int) -> int:
        if s == t:
            return 0
        return self._query_with(self.labels[s], self.labels[t])

    def distance(self, s: int, t: int) -> float:
        """Exact distance via Eq. 1 (2-hop cover query)."""
        self._check_pair(s, t)
        return externalise(self.internal_distance(s, t))

    # ------------------------------------------------------------------
    # updates (full rebuild — PLL is a static index)
    # ------------------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Apply the batch to the graph and rebuild the labels from scratch.

        PLL has no incremental maintenance (``dynamic=False``): this exists
        so the static baseline satisfies the oracle protocol, paying the
        full construction cost per batch — exactly the behaviour the
        paper's update-time comparison penalises.  ``variant`` is accepted
        for protocol compatibility and ignored.
        """
        self._ensure_open()
        batch = normalize_batch(updates, self._graph)
        stats = UpdateStats(variant="pll-rebuild", n_requested=len(batch))
        started = time.perf_counter()
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            self._graph.ensure_vertex(highest)
            apply_batch(self._graph, batch)
            self._rebuild()
            self._fill_batch_stats(stats, batch)
        stats.total_seconds = time.perf_counter() - started
        return stats

    def grow(self, num_vertices: int) -> None:
        """Extend the hub order for new vertices (no-op if none are new).

        New vertices take the lowest hub priority (appended to ``order``)
        and a trivial self-label, exactly the state a from-scratch build
        gives an isolated vertex; incremental edge insertions then label
        them through the normal resumed pruned BFS.  The caller must have
        grown the graph first.
        """
        current = len(self.labels)
        if num_vertices <= current:
            return
        for v in range(current, num_vertices):
            self.order.append(v)
            self.rank.append(len(self.rank))
            self.labels.append({v: 0})

    def _rebuild(self) -> None:
        """Re-run construction on the current graph (degree order afresh)."""
        n = self._graph.num_vertices
        self.order = sorted(
            range(n), key=lambda v: (-self._graph.degree(v), v)
        )
        self.rank = [0] * n
        for position, v in enumerate(self.order):
            self.rank[v] = position
        self.labels = [{} for _ in range(n)]
        self._build()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def label_size(self) -> int:
        """Total number of label entries (self-entries excluded)."""
        return sum(len(label) - (1 if v in label else 0)
                   for v, label in enumerate(self.labels))

    def size_bytes(self) -> int:
        """Paper-style accounting: 5 bytes per entry."""
        return self.label_size() * 5

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    def __repr__(self) -> str:
        return (
            f"PrunedLandmarkLabelling(|V|={self._graph.num_vertices},"
            f" entries={self.label_size()})"
        )


register_oracle(
    "pll",
    PrunedLandmarkLabelling,
    capabilities=PrunedLandmarkLabelling.capabilities,
    description="static pruned landmark labelling (Akiba et al. 2013);"
    " batches trigger a full rebuild",
    config_keys=("order",),
)
