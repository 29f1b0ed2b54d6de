"""Weighted-graph extension (Section 6 of the paper).

Construction swaps the landmark-flagged BFS for a landmark-flagged Dijkstra;
updates become *weight changes*, with a weight increase handled like a
deletion and a decrease like an insertion.  The unified anchor trick carries
over: for an updated edge the anchor hop is charged ``min(w_old, w_new)`` —
the old weight is what eliminated shortest paths used (increase), the new
weight is what freshly created ones use (decrease) — and the deletion flag
is set exactly for increases.  Removing an edge is an increase to infinity;
adding one is a decrease from infinity, so the unweighted algorithms are the
special case where every weight is 1.

A batch runs through the same landmark loop as the unweighted indexes,
:func:`repro.core.batchhl.run_passes`, with one pass over the live
weighted graph and the Dijkstra kernels below: search and repair read
the old landmark lengths in place
(:meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths`),
repair writes into one
:meth:`~repro.core.labelling.HighwayCoverLabelling.repair_target` (the
recycled back pair, else a copy), and the batch gets the same timings,
``process_landmarks`` span and ``repro_batch_*`` counters
(``backend="sequential"``).  What stays here is what has no unweighted
counterpart: normalising weight updates, applying them as weight changes
and restoring the old weights when the pass fails.

Queries run the labelling bound plus a distance-bounded Dijkstra over the
landmark-sparsified graph.
"""

from __future__ import annotations

from typing import Any, Iterable

import heapq
import time

import numpy as np

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import INF, externalise
from repro.core.batchhl import run_passes
from repro.core.labelling import HighwayCoverLabelling
from repro.core.landmarks import select_landmarks
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.core.stats import UpdateStats
from repro.errors import BatchError
from repro.graph.weighted_graph import WeightedDynamicGraph, WeightUpdate


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def dijkstra_landmark_lengths(
    wgraph: WeightedDynamicGraph, root: int, is_landmark: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted landmark lengths :math:`d^L_G(root, \\cdot)` via Dijkstra.

    Positive weights guarantee every shortest-path predecessor of a vertex
    settles strictly earlier, so flags are final when a vertex is popped.
    """
    n = wgraph.num_vertices
    dist = np.full(n, INF, dtype=np.int64)
    flag = np.zeros(n, dtype=bool)
    dist[root] = 0
    heap = [(0, root)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        flag_v = bool(flag[v])
        for w, weight in wgraph.neighbors(v).items():
            nd = d + weight
            if nd < dist[w]:
                dist[w] = nd
                flag[w] = flag_v or is_landmark[w]
                heapq.heappush(heap, (nd, w))
            elif nd == dist[w] and not flag[w]:
                if flag_v or is_landmark[w]:
                    flag[w] = True
    return dist, flag


def build_weighted_labelling(
    wgraph: WeightedDynamicGraph, landmarks: tuple[int, ...]
) -> HighwayCoverLabelling:
    """Minimal highway cover labelling of a weighted graph."""
    labelling = HighwayCoverLabelling.empty(wgraph.num_vertices, landmarks)
    is_landmark = labelling.is_landmark
    for i, root in enumerate(landmarks):
        dist, flag = dijkstra_landmark_lengths(wgraph, root, is_landmark)
        eligible = (~is_landmark) & (dist < INF) & (~flag)
        labelling.labels[:, i] = np.where(eligible, dist, -1)
        labelling.highway[i, :] = dist[list(landmarks)]
        labelling.dist[:, i] = dist
    return labelling


# ----------------------------------------------------------------------
# batch search / repair (weighted analogues of Algorithms 2 and 4)
# ----------------------------------------------------------------------

#: Applied weight change: (a, b, old weight or INF, new weight or INF).
AppliedChange = tuple[int, int, int, int]


def weighted_batch_search(
    wgraph: WeightedDynamicGraph,
    changes: list[AppliedChange],
    old_dist: Any,
) -> list[int]:
    """Affected superset w.r.t. one landmark on a weighted graph.

    ``wgraph`` already reflects G'.  Anchors are seeded through the updated
    edge at ``min(w_old, w_new)`` in both orientations; propagation uses the
    new weights and prunes with ``candidate <= old distance``.
    ``old_dist`` is read per vertex (in production, the old labelling's
    D column, in place).
    """
    heap: list[tuple[int, int]] = []
    for a, b, w_old, w_new in changes:
        hop = min(w_old, w_new)
        if hop >= INF:
            continue
        for tail, head in ((a, b), (b, a)):
            candidate = int(old_dist[tail]) + hop
            if candidate <= old_dist[head]:
                heap.append((candidate, head))
    heapq.heapify(heap)

    affected: set[int] = set()
    result: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in affected:
            continue
        affected.add(v)
        result.append(v)
        for w, weight in wgraph.neighbors(v).items():
            if w not in affected and d + weight <= old_dist[w]:
                heapq.heappush(heap, (d + weight, w))
    return result


def weighted_batch_repair(
    wgraph: WeightedDynamicGraph,
    affected: list[int],
    landmark_idx: int,
    labelling_new: HighwayCoverLabelling,
    old_dist: Any,
    old_flag: Any,
    is_landmark: Any,
) -> int:
    """Weighted Algorithm 4: settle affected vertices in distance order,
    writing labels, highway and D as the unweighted heap repair does.

    ``old_dist`` / ``old_flag`` are read per vertex, like the unweighted
    heap repair's: a flag only where a comparison needs it."""
    affected_set = set(affected)
    bounds: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int, int]] = []
    for v in affected:
        best_d, best_f = INF, FALSE_KEY
        v_is_landmark = bool(is_landmark[v])
        for w, weight in wgraph.neighbors(v).items():
            if w in affected_set:
                continue
            d_w = int(old_dist[w])
            if d_w >= INF:
                continue
            cand_d = d_w + weight
            if cand_d > best_d:
                continue  # no flag can make a longer bound win
            cand_f = TRUE_KEY if v_is_landmark else old_flag[w]
            if cand_d < best_d or cand_f < best_f:
                best_d, best_f = cand_d, cand_f
        bounds[v] = (best_d, best_f)
        heap.append((best_d, best_f, v))
    heapq.heapify(heap)

    changed = 0
    settled: set[int] = set()
    labels = labelling_new.labels
    dist = labelling_new.dist
    while heap:
        d, f, v = heapq.heappop(heap)
        if v in settled or (d, f) != bounds[v]:
            continue
        settled.add(v)
        stored = INF if d >= INF else d
        dist[v, landmark_idx] = stored
        if d >= INF or f == TRUE_KEY:
            if labels[v, landmark_idx] != -1:
                labels[v, landmark_idx] = -1
                changed += 1
        else:
            if labels[v, landmark_idx] != d:
                labels[v, landmark_idx] = d
                changed += 1
        if is_landmark[v]:
            j = labelling_new.landmark_index[v]
            if labelling_new.highway[landmark_idx, j] != stored:
                changed += 1
            labelling_new.set_highway_symmetric(landmark_idx, j, stored)
        if d >= INF:
            continue
        for w, weight in wgraph.neighbors(v).items():
            if w not in affected_set or w in settled:
                continue
            cand = (d + weight, TRUE_KEY if is_landmark[w] else f)
            if cand < bounds[w]:
                bounds[w] = cand
                heapq.heappush(heap, (d + weight, cand[1], w))
    return changed


def normalize_weight_updates(
    updates: Iterable[WeightUpdate], wgraph: WeightedDynamicGraph
) -> list[WeightUpdate]:
    """Canonicalise weight updates: last write wins, no-ops dropped."""
    final: dict[tuple[int, int], WeightUpdate] = {}
    for update in updates:
        if update.u == update.v:
            continue
        canon = update.canonical()
        final[(canon.u, canon.v)] = canon
    result = []
    for (a, b), update in final.items():
        current = (
            wgraph.weight(a, b) if max(a, b) < wgraph.num_vertices else None
        )
        if current == update.weight:
            continue  # no-op: same weight, or deleting an absent edge
        result.append(update)
    return result


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------


class WeightedHighwayCoverIndex(OracleBase):
    """Exact distance queries on a batch-dynamic weighted graph."""

    capabilities = Capabilities(weighted=True, dynamic=True)

    def __init__(
        self,
        graph: WeightedDynamicGraph,
        num_landmarks: int = 20,
        landmarks: tuple[int, ...] | None = None,
        selection: str = "degree",
        seed: int = 0,
    ) -> None:
        self._check_buildable(graph)
        self._graph = graph
        if landmarks is None:
            landmarks = select_landmarks(
                graph, min(num_landmarks, graph.num_vertices), selection, seed
            )
        self._labelling = build_weighted_labelling(graph, tuple(landmarks))
        self._landmark_set = frozenset(self._labelling.landmarks)

    @property
    def graph(self) -> WeightedDynamicGraph:
        return self._graph

    @property
    def labelling(self) -> HighwayCoverLabelling:
        return self._labelling

    @property
    def landmarks(self) -> tuple[int, ...]:
        return self._labelling.landmarks

    def label_size(self) -> int:
        return self._labelling.size()

    # -- queries -------------------------------------------------------

    def distance(self, s: int, t: int) -> float:
        self._check_pair(s, t)
        if s == t:
            return 0
        s_idx = self._labelling.landmark_index.get(s)
        t_idx = self._labelling.landmark_index.get(t)
        if s_idx is not None and t_idx is not None:
            return externalise(int(self._labelling.highway[s_idx, t_idx]))
        if s_idx is not None:
            return externalise(
                int(self._labelling.decoded_landmark_distances(t)[s_idx])
            )
        if t_idx is not None:
            return externalise(
                int(self._labelling.decoded_landmark_distances(s)[t_idx])
            )
        bound = self._labelling.upper_bound(s, t)
        best = self._bounded_dijkstra(s, t, bound)
        return externalise(min(best, INF))

    def _bounded_dijkstra(self, s: int, t: int, bound: int) -> int:
        """Dijkstra over G[V \\ R] that never explores beyond ``bound``."""
        dist = {s: 0}
        heap = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if d >= bound:
                return bound
            if v == t:
                return d
            if d > dist.get(v, INF):
                continue
            for w, weight in self._graph.neighbors(v).items():
                if w in self._landmark_set:
                    continue
                nd = d + weight
                if nd < bound and nd < dist.get(w, INF):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return bound

    # -- updates -------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Any = None,
    ) -> UpdateStats:
        """Apply a batch of :class:`WeightUpdate` (last write per edge wins).

        ``variant`` is accepted for protocol compatibility and ignored —
        the weighted repair is the unified BHL+ algorithm.
        """
        self._ensure_open()
        updates = list(updates)
        for update in updates:
            if not isinstance(update, WeightUpdate):
                raise BatchError(
                    f"weighted index expects WeightUpdate, got {update!r}"
                )
        stats = UpdateStats(variant="bhl-w", n_requested=len(updates))
        started = time.perf_counter()
        normalised = normalize_weight_updates(updates, self._graph)
        stats.affected_per_landmark = [0] * self._labelling.num_landmarks
        if not normalised:
            stats.total_seconds = time.perf_counter() - started
            return stats

        graph = self._graph
        highest = max(max(u.u, u.v) for u in normalised)
        if highest >= graph.num_vertices:
            graph.ensure_vertex(highest)
        self._labelling.grow(graph.num_vertices)

        changes: list[AppliedChange] = []
        try:
            for update in normalised:
                old = graph.set_weight(update.u, update.v, update.weight)
                old_w = INF if old is None else old
                new_w = INF if update.weight is None else update.weight
                changes.append((update.u, update.v, old_w, new_w))
                if new_w > old_w:
                    stats.n_deletions += 1  # increase ~ deletion
                else:
                    stats.n_insertions += 1  # decrease ~ insertion
            stats.n_applied = len(changes)
            for u, v, _, _ in changes:
                stats.affected_vertices.add(u)
                stats.affected_vertices.add(v)
            # The Dijkstra kernels as a kernel pair: the search reads no
            # flags, and the pass has no predecessor rows (the graph is
            # undirected).  Both look their kernel up when they run.
            kernels = (
                lambda rows, applied, dist, flag, is_landmark: (
                    weighted_batch_search(rows, applied, dist)
                ),
                lambda *args, pred_graph: weighted_batch_repair(*args),
            )
            (self._labelling,) = run_passes(
                (self._labelling,), [(graph, None, changes)], kernels, stats
            )
        except BaseException:
            # The labelling was never replaced: restore every weight set
            # so far (an invalid weight can fail mid-loop), in reverse,
            # so the graph still matches it.  Grown vertices stay.
            for u, v, old_w, _ in reversed(changes):
                graph.set_weight(u, v, None if old_w >= INF else old_w)
            raise
        stats.total_seconds = time.perf_counter() - started
        return stats

    def snapshot(self) -> "WeightedHighwayCoverIndex":
        """A frozen copy for concurrent reads: a copy of the graph and
        read-only views of the labelling's arrays
        (:meth:`HighwayCoverLabelling.published`)."""
        clone = WeightedHighwayCoverIndex.__new__(WeightedHighwayCoverIndex)
        clone._graph = self._graph.copy()
        clone._labelling = self._labelling.published()
        clone._landmark_set = self._landmark_set
        return clone

    # -- maintenance ---------------------------------------------------

    def rebuild(self) -> None:
        self._labelling = build_weighted_labelling(
            self._graph, self._labelling.landmarks
        )

    def check_minimality(self) -> list[str]:
        fresh = build_weighted_labelling(self._graph, self._labelling.landmarks)
        return self._labelling.diff(fresh)

    def __repr__(self) -> str:
        return (
            f"WeightedHighwayCoverIndex(|V|={self._graph.num_vertices},"
            f" |E|={self._graph.num_edges}, |R|={len(self.landmarks)},"
            f" entries={self.label_size()})"
        )


register_oracle(
    "hcl-weighted",
    WeightedHighwayCoverIndex,
    capabilities=WeightedHighwayCoverIndex.capabilities,
    description="weighted highway cover index: Dijkstra construction,"
    " weight-change batches (paper Section 6)",
    config_keys=("num_landmarks", "landmarks", "selection", "seed"),
)
