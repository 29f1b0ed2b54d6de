"""FulFD — fully dynamic shortest-path query acceleration (Hayashi et al.,
CIKM 2016), the paper's strongest dynamic baseline.

Structure: ``|R|`` full shortest-path trees (distance arrays) rooted at the
highest-degree vertices, each enriched with a bit-parallel group of up to 64
root neighbours.  Queries take the best (mask-refined) root bound, then run
a distance-bounded bidirectional BFS over the root-sparsified graph — the
same query architecture BatchHL adopts, which is why their query times are
comparable in Table 4 while update times differ wildly.

Updates are strictly unit-update (IncFD / DecFD): every edge change repairs
each root SPT via the classic two-phase identify-and-repair scheme
(Ramalingam–Reps style).  Each update pays per-root affected-set work with
no cross-update sharing — the repeated-work behaviour Table 3 quantifies.

Substitution note (see DESIGN.md): the original maintains bit-parallel
masks incrementally through a considerably more intricate algorithm.  Here
masks are exact at construction; after the first update they are invalidated
and the query bound falls back to the plain root bound (still exact queries,
marginally looser bounds).  ``rebuild_masks()`` restores refinement, and
``bp_mode="rebuild"`` does so automatically per batch.
"""

from __future__ import annotations

from typing import Any, Iterable

import time
from collections import deque
from heapq import heapify, heappop, heappush

import numpy as np

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.baselines.bitparallel import bit_parallel_bfs, refined_upper_bound
from repro.constants import INF, externalise
from repro.core.stats import UpdateStats
from repro.errors import IndexStateError
from repro.graph.batch import normalize_batch
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traversal import bfs_distances, bidirectional_bfs


class FulFDIndex(OracleBase):
    """Fully dynamic distance index with per-root shortest-path trees."""

    capabilities = Capabilities(dynamic=True)

    def __init__(
        self,
        graph: DynamicGraph,
        num_roots: int = 20,
        num_bp_neighbors: int = 64,
        bp_mode: str = "static",
    ) -> None:
        self._check_buildable(graph)
        if bp_mode not in ("static", "rebuild", "off"):
            raise IndexStateError(
                f"bp_mode must be 'static', 'rebuild' or 'off', got {bp_mode!r}"
            )
        self._graph = graph
        self._bp_mode = bp_mode
        self._num_bp_neighbors = num_bp_neighbors
        n = graph.num_vertices
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
        self._roots: tuple[int, ...] = tuple(order[: min(num_roots, n)])
        self._root_set = frozenset(self._roots)
        #: distance matrix, row per root — the "full SPTs" FulFD stores.
        self._dist = np.vstack([bfs_distances(graph, r) for r in self._roots])
        self._bp: list[tuple[list[int], list[int], list[int]] | None] = []
        self._bp_valid = False
        if bp_mode != "off":
            self.rebuild_masks()

    # ------------------------------------------------------------------
    # bit-parallel masks
    # ------------------------------------------------------------------

    def rebuild_masks(self) -> None:
        """(Re)compute the bit-parallel groups for every root."""
        self._bp = []
        for root in self._roots:
            neighbours = sorted(
                self._graph.neighbors(root),
                key=lambda v: (-self._graph.degree(v), v),
            )[: self._num_bp_neighbors]
            self._bp.append(bit_parallel_bfs(self._graph, root, neighbours))
        self._bp_valid = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        return self._graph

    @property
    def roots(self) -> tuple[int, ...]:
        return self._roots

    def upper_bound_internal(self, s: int, t: int) -> int:
        if self._bp_valid:
            best = INF
            for dist, sm1, sz in self._bp:
                candidate = refined_upper_bound(dist, sm1, sz, s, t)
                if candidate < best:
                    best = candidate
            return best
        return int(np.minimum(self._dist[:, s] + self._dist[:, t], INF).min())

    def distance(self, s: int, t: int) -> float:
        self._check_pair(s, t)
        if s == t:
            return 0
        for i, root in enumerate(self._roots):
            if root == s:
                return externalise(int(self._dist[i, t]))
            if root == t:
                return externalise(int(self._dist[i, s]))
        bound = self.upper_bound_internal(s, t)
        if bound <= 1:
            return externalise(bound)
        best = bidirectional_bfs(
            self._graph, s, t, excluded=self._root_set, bound=bound
        )
        return externalise(min(best, INF))

    # ------------------------------------------------------------------
    # updates (IncFD / DecFD)
    # ------------------------------------------------------------------

    def insert_edge(self, a: int, b: int) -> None:
        """IncFD: apply one insertion and repair every root SPT."""
        if not self._graph.add_edge(a, b):
            return
        self._bp_valid = False
        for i in range(len(self._roots)):
            self._spt_insert(self._dist[i], a, b)

    def delete_edge(self, a: int, b: int) -> None:
        """DecFD: apply one deletion and repair every root SPT."""
        if not self._graph.remove_edge(a, b):
            return
        self._bp_valid = False
        for i in range(len(self._roots)):
            self._spt_delete(self._dist[i], a, b)

    def _spt_insert(self, dist: np.ndarray, a: int, b: int) -> None:
        """Propagate the distance improvements an inserted edge creates."""
        if dist[a] > dist[b]:
            a, b = b, a
        if dist[a] >= INF or dist[a] + 1 >= dist[b]:
            return
        graph = self._graph
        dist[b] = dist[a] + 1
        queue = deque([b])
        while queue:
            v = queue.popleft()
            next_d = dist[v] + 1
            for w in graph.neighbors(v):
                if next_d < dist[w]:
                    dist[w] = next_d
                    queue.append(w)

    def _spt_delete(self, dist: np.ndarray, a: int, b: int) -> None:
        """Two-phase decremental repair: identify affected, then resettle."""
        if dist[a] == dist[b]:
            return  # the edge was on no shortest path from this root
        if dist[a] > dist[b]:
            a, b = b, a
        if dist[b] != dist[a] + 1 or dist[b] >= INF:
            return  # not a tight tree edge
        graph = self._graph

        # Phase 1: vertices that lost their last surviving parent.
        affected: set[int] = set()

        def has_valid_parent(w: int) -> bool:
            target = dist[w] - 1
            return any(
                dist[u] == target and u not in affected
                for u in graph.neighbors(w)
            )

        if not has_valid_parent(b):
            affected.add(b)
            queue = deque([b])
            while queue:
                v = queue.popleft()
                child_level = dist[v] + 1
                for w in graph.neighbors(v):
                    if (
                        w not in affected
                        and dist[w] == child_level
                        and not has_valid_parent(w)
                    ):
                        affected.add(w)
                        queue.append(w)
        if not affected:
            return

        # Phase 2: resettle affected vertices from the unaffected boundary.
        bounds: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        for v in affected:
            best = INF
            for u in graph.neighbors(v):
                if u not in affected and dist[u] < INF and dist[u] + 1 < best:
                    best = int(dist[u]) + 1
            bounds[v] = best
            heap.append((best, v))
        heapify(heap)
        settled: set[int] = set()
        while heap:
            d, v = heappop(heap)
            if v in settled or d != bounds[v]:
                continue
            settled.add(v)
            dist[v] = d
            if d >= INF:
                continue
            for w in graph.neighbors(v):
                if w in affected and w not in settled and d + 1 < bounds[w]:
                    bounds[w] = d + 1
                    heappush(heap, (d + 1, w))

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Unit-update loop: FulFD cannot exploit batches (by design).

        ``variant`` is accepted for protocol compatibility and ignored.
        """
        self._ensure_open()
        batch = normalize_batch(updates, self._graph)
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            if highest >= self._graph.num_vertices:
                # Vertex growth: new vertices start unreachable from every
                # root SPT (an INF column each); the batch's insertions
                # then repair them like any other improvement.  The root
                # set itself is fixed at construction, as in the original.
                grown = highest + 1 - self._dist.shape[1]
                self._graph.ensure_vertex(highest)
                self._dist = np.hstack(
                    [
                        self._dist,
                        np.full(
                            (len(self._roots), grown), INF, dtype=np.int64
                        ),
                    ]
                )
        stats = UpdateStats(variant="fulfd", n_requested=len(batch))
        started = time.perf_counter()
        for update in batch:
            if update.is_insert:
                self.insert_edge(update.u, update.v)
            else:
                self.delete_edge(update.u, update.v)
        self._fill_batch_stats(stats, batch)
        if self._bp_mode == "rebuild" and len(batch):
            self.rebuild_masks()
        stats.total_seconds = time.perf_counter() - started
        return stats

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def label_size(self) -> int:
        """Stored distance entries: |R| x |V| (FulFD keeps full SPTs)."""
        return int(self._dist.size)

    def size_bytes(self) -> int:
        """Distance rows at 4 bytes plus 16 bytes of masks per BP vertex."""
        bp_bytes = sum(len(bp[0]) * 16 for bp in self._bp if bp) if self._bp else 0
        return self._dist.size * 4 + bp_bytes

    def __repr__(self) -> str:
        return (
            f"FulFDIndex(|V|={self._graph.num_vertices},"
            f" |R|={len(self._roots)}, bp_valid={self._bp_valid})"
        )


register_oracle(
    "fulfd",
    FulFDIndex,
    capabilities=FulFDIndex.capabilities,
    description="FulFD (Hayashi et al. 2016): dynamic root SPTs with"
    " bit-parallel query bounds, strictly unit-update",
    config_keys=("num_roots", "num_bp_neighbors", "bp_mode"),
)
