"""Directed-graph extension (Section 6 of the paper).

Two one-sided labellings are maintained over the same landmark set:

* the **forward** labelling is built over out-neighbours; its labels store
  :math:`d(r \\to v)` and its highway :math:`H_f[i, j] = d(r_i \\to r_j)`;
* the **backward** labelling is built over in-neighbours (i.e., over the
  reversed graph); its labels store :math:`d(v \\to r)` and its highway
  :math:`H_b[i, j] = d(r_j \\to r_i)` (note: ``H_b == H_f.T`` always — the
  test suite asserts this invariant).

Every batch update runs the search/repair machinery twice, once per
direction, with the updates oriented accordingly: a directed edge
``a -> b`` can only anchor at ``b`` in the forward pass and at ``a`` in the
backward pass.  Queries combine ``d(s -> r_j)`` (backward labelling, exact)
with ``d(r_j -> t)`` (forward labels) for the bound, then run a bounded
bidirectional BFS that expands forward from ``s`` and backward from ``t``
over the landmark-sparsified digraph.
"""

from __future__ import annotations

from typing import Any, Iterable

import time

import numpy as np

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import INF, externalise
from repro.core.batchhl import (
    Variant,
    process_landmarks,
    resolve_variant,
    variant_plan,
)
from repro.core.construction import build_labelling
from repro.core.labelling import HighwayCoverLabelling
from repro.core.landmarks import select_landmarks
from repro.core.stats import UpdateStats
from repro.errors import BatchError
from repro.graph.batch import Batch, apply_batch, normalize_batch, revert_batch
from repro.graph.csr import (
    CSRGraph,
    bfs_distances as csr_bfs_distances,
    bidirectional_distance,
)
from repro.graph.digraph import DynamicDiGraph


class DirectedHighwayCoverIndex(OracleBase):
    """Exact distance queries on a batch-dynamic directed graph."""

    capabilities = Capabilities(directed=True, dynamic=True, parallel=True)

    def __init__(
        self,
        graph: DynamicDiGraph,
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
        landmarks = tuple(landmarks)
        self._forward = build_labelling(graph.out_view(), landmarks)
        self._backward = build_labelling(graph.in_view(), landmarks)
        self._landmark_set = frozenset(landmarks)
        self._csr_pair: tuple[CSRGraph, CSRGraph] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicDiGraph:
        return self._graph

    @property
    def forward(self) -> HighwayCoverLabelling:
        return self._forward

    @property
    def backward(self) -> HighwayCoverLabelling:
        return self._backward

    @property
    def landmarks(self) -> tuple[int, ...]:
        return self._forward.landmarks

    def label_size(self) -> int:
        """Total entries across the forward and backward labellings."""
        return self._forward.size() + self._backward.size()

    def size_bytes(self) -> int:
        return self._forward.size_bytes() + self._backward.size_bytes()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def ensure_csr(self) -> tuple[CSRGraph, CSRGraph]:
        """Frozen (forward, backward) CSR views of the current digraph."""
        pair = self._csr_pair
        if (
            pair is None
            or pair[0].num_vertices != self._graph.num_vertices
            or pair[0].num_arcs != self._graph.num_edges
        ):
            pair = CSRGraph.from_digraph(self._graph)
            pair[0].adjacency_lists()  # warm for the adaptive kernel's
            pair[1].adjacency_lists()  # Python phase (see ensure_csr on
            self._csr_pair = pair      # the undirected index)
        return pair

    def _invalidate_csr(self) -> None:
        self._csr_pair = None

    def distance(self, s: int, t: int) -> float:
        """Exact directed distance ``s -> t``; inf if unreachable."""
        self._check_pair(s, t)
        if s == t:
            return 0
        s_idx = self._forward.landmark_index.get(s)
        t_idx = self._forward.landmark_index.get(t)
        if s_idx is not None and t_idx is not None:
            return externalise(int(self._forward.highway[s_idx, t_idx]))
        if s_idx is not None:
            # d(r_s -> t), exact via the forward labelling.
            return externalise(
                int(self._forward.decoded_landmark_distances(t)[s_idx])
            )
        if t_idx is not None:
            # d(s -> r_t), exact via the backward labelling.
            return externalise(
                int(self._backward.decoded_landmark_distances(s)[t_idx])
            )
        bound = self.upper_bound_internal(s, t)
        if bound <= 1:
            return externalise(bound)
        forward_csr, backward_csr = self.ensure_csr()
        best = bidirectional_distance(
            forward_csr,
            s,
            t,
            excluded=self._landmark_set,
            bound=bound,
            backward=backward_csr,
        )
        return externalise(min(best, INF))

    def _distances_from_source(
        self, source: int, targets: list[int]
    ) -> list[float] | None:
        """One forward CSR BFS answers every target sharing ``source``."""
        self._check_pair(source, source)
        dist = csr_bfs_distances(self.ensure_csr()[0], source)
        values = []
        for t in targets:
            self._check_pair(source, t)
            values.append(externalise(int(dist[t])))
        return values

    def upper_bound_internal(self, s: int, t: int) -> int:
        """min_j d(s -> r_j) + d(r_j -> t), the directed Eq. 3 bound."""
        to_landmarks = self._backward.decoded_landmark_distances(s)
        from_landmarks = self._forward.label_vector(t)
        bound = int(np.minimum(to_landmarks + from_landmarks, INF).min())
        return bound

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Variant | str = Variant.BHL_PLUS,
        parallel: str | None = None,
        num_threads: int | None = None,
        num_shards: int | None = None,
        pool: Any = None,
    ) -> UpdateStats:
        """Apply directed edge updates to the graph and both labellings."""
        self._ensure_open()
        variant = resolve_variant(variant)
        if (
            parallel not in (None, "threads")
            or num_shards is not None
            or pool is not None
        ):
            raise BatchError(
                "parallel must be None or 'threads' on directed indexes"
                " (the processes backend and its num_shards/pool options"
                f" are undirected-only), got {parallel!r}"
            )
        updates = list(updates)
        stats = UpdateStats(variant=variant.value, n_requested=len(updates))
        stats.affected_per_landmark = [0] * self._forward.num_landmarks
        batch = normalize_batch(updates, self._graph, directed=True)
        started = time.perf_counter()
        # Grow once for the whole batch (see run_batch_update): per-sub-
        # batch growth would reallocate both label matrices once per
        # UHL/BHL-s step.  New vertices stay isolated until their edges
        # apply, so pre-growing changes no distance.
        if len(batch):
            highest = max(max(u.u, u.v) for u in batch)
            if highest >= self._graph.num_vertices:
                self._graph.ensure_vertex(highest)
                self._forward.grow(self._graph.num_vertices)
                self._backward.grow(self._graph.num_vertices)
        forward, backward = self._forward, self._backward
        applied: list[Batch] = []
        try:
            for sub_batch, improved in variant_plan(batch, variant):
                forward, backward, sub_stats = self._apply_one_batch(
                    sub_batch, forward, backward, improved, parallel,
                    num_threads,
                )
                applied.append(sub_batch)
                stats.merge(sub_stats)
        except BaseException:
            # As in run_batch_update: _apply_one_batch reverts its own
            # failing sub-batch, and the earlier ones are undone here in
            # reverse, so the graph matches the labellings, which are
            # only replaced after every sub-batch succeeded.  Vertices
            # grown above stay (isolated), covered by both labellings.
            for done in reversed(applied):
                revert_batch(self._graph, done)
            raise
        finally:
            self._invalidate_csr()
        self._forward, self._backward = forward, backward
        stats.n_requested = len(updates)
        stats.total_seconds = time.perf_counter() - started
        return stats

    def _apply_one_batch(
        self,
        batch: Batch,
        forward: HighwayCoverLabelling,
        backward: HighwayCoverLabelling,
        improved: bool,
        parallel: str | None,
        num_threads: int | None,
    ) -> tuple[HighwayCoverLabelling, HighwayCoverLabelling, UpdateStats]:
        """Apply one sub-batch; returns the repaired (forward, backward).

        Neither input labelling is modified.  On failure the sub-batch's
        arcs are reverted before the exception propagates.
        """
        stats = UpdateStats(variant="", n_applied=len(batch))
        stats.n_insertions = len(batch.insertions)
        stats.n_deletions = len(batch.deletions)
        stats.affected_per_landmark = [0] * forward.num_landmarks
        if not len(batch):
            return forward, backward, stats

        graph = self._graph
        # Growth happened once for the whole batch in batch_update; both
        # labellings already cover every endpoint this sub-batch touches.
        apply_batch(graph, batch)
        for update in batch:
            stats.affected_vertices.add(update.u)
            stats.affected_vertices.add(update.v)

        try:
            # Freeze G' once per multi-update sub-batch: both labelling
            # passes read the same immutable CSR pair (successor rows for
            # search and relaxation, predecessor rows for repair's
            # boundary bounds — each direction's search CSR is the
            # other's repair-predecessor CSR).  Unit sub-batches read the
            # live out/in views instead — their cost is proportional to
            # the affected region, not the graph.
            out_graph: Any = graph.out_view()
            in_graph: Any = graph.in_view()
            if len(batch) > 1:
                out_graph, in_graph = CSRGraph.from_digraph(graph)
                if parallel == "threads":
                    out_graph.adjacency_lists()  # warm once on the writer; see
                    in_graph.adjacency_lists()   # _apply_one_batch (undirected)
            repaired = []
            makespan_total = 0.0
            for labelling, search_graph, pred_graph, reverse in (
                (forward, out_graph, in_graph, False),
                (backward, in_graph, out_graph, True),
            ):
                oriented = [
                    (
                        (u.v, u.u, u.is_delete)
                        if reverse
                        else (u.u, u.v, u.is_delete)
                    )
                    for u in batch
                ]
                labelling_new = labelling.copy()
                outcomes, makespan, shard_timings, merge_seconds = (
                    process_landmarks(
                        search_graph,
                        labelling,
                        labelling_new,
                        oriented,
                        improved,
                        symmetric_highway=False,
                        parallel=parallel,
                        num_threads=num_threads,
                        pred_graph=pred_graph,
                    )
                )
                for i, (
                    n_affected,
                    search_s,
                    repair_s,
                    changed,
                    touched,
                ) in enumerate(outcomes):
                    stats.affected_per_landmark[i] += n_affected
                    stats.affected_vertices.update(touched)
                    stats.search_seconds += search_s
                    stats.repair_seconds += repair_s
                    stats.labels_changed += changed
                makespan_total += makespan
                stats.shard_timings.extend(shard_timings)
                stats.merge_seconds += merge_seconds
                repaired.append(labelling_new)
        except BaseException:
            # Neither labelling was replaced: undo the arcs so the graph
            # still matches them.
            revert_batch(graph, batch)
            raise
        stats.makespan_seconds = makespan_total
        return repaired[0], repaired[1], stats

    def snapshot(self) -> "DirectedHighwayCoverIndex":
        """A frozen copy (graph + both labellings) for concurrent reads,
        shipped with its CSR views prebuilt."""
        clone = DirectedHighwayCoverIndex.__new__(DirectedHighwayCoverIndex)
        clone._graph = self._graph.copy()
        clone._forward = self._forward.copy()
        clone._backward = self._backward.copy()
        clone._landmark_set = self._landmark_set
        clone._csr_pair = None
        clone.ensure_csr()
        return clone

    # ------------------------------------------------------------------
    # maintenance / verification
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        landmarks = self._forward.landmarks
        self._forward = build_labelling(self._graph.out_view(), landmarks)
        self._backward = build_labelling(self._graph.in_view(), landmarks)
        self._invalidate_csr()

    def check_minimality(self) -> list[str]:
        """Compare both labellings against from-scratch builds."""
        landmarks = self._forward.landmarks
        problems = [
            f"forward: {p}"
            for p in self._forward.diff(
                build_labelling(self._graph.out_view(), landmarks)
            )
        ]
        problems += [
            f"backward: {p}"
            for p in self._backward.diff(
                build_labelling(self._graph.in_view(), landmarks)
            )
        ]
        return problems

    def __repr__(self) -> str:
        return (
            f"DirectedHighwayCoverIndex(|V|={self._graph.num_vertices},"
            f" |E|={self._graph.num_edges}, |R|={len(self.landmarks)},"
            f" entries={self.label_size()})"
        )


register_oracle(
    "hcl-directed",
    DirectedHighwayCoverIndex,
    capabilities=DirectedHighwayCoverIndex.capabilities,
    description="directed highway cover index: forward + backward"
    " labellings over one landmark set (paper Section 6)",
    config_keys=("num_landmarks", "landmarks", "selection", "seed"),
)
