"""Directed-graph extension (Section 6 of the paper).

Two one-sided labellings are maintained over the same landmark set:

* the **forward** labelling is built over out-neighbours; its labels store
  :math:`d(r \\to v)` and its highway :math:`H_f[i, j] = d(r_i \\to r_j)`;
* the **backward** labelling is built over in-neighbours (i.e., over the
  reversed graph); its labels store :math:`d(v \\to r)` and its highway
  :math:`H_b[i, j] = d(r_j \\to r_i)` (note: ``H_b == H_f.T`` always — the
  test suite asserts this invariant).

This module keeps only what is directed: the pair of labellings, the pair
of frozen CSR views (out-rows and in-rows, which the digraph maintains),
and building, snapshotting, rebuilding and checking them.  Updates and
queries delegate to the shared code.
:func:`~repro.core.batchhl.run_batch_update` runs Algorithm 1 as one pass
per labelling, with each update oriented per direction: a directed edge
``a -> b`` can only anchor at ``b`` in the forward pass and at ``a`` in
the backward pass.  :func:`~repro.core.queries.query_distance`
bounds ``s -> t`` by ``d(s -> r_j)`` (backward labelling) plus
``d(r_j -> t)`` (forward labels), then runs a bounded bidirectional BFS
that expands forward from ``s`` and backward from ``t`` over the
landmark-sparsified digraph.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import externalise
from repro.core.batchhl import Variant, run_batch_update
from repro.core.construction import build_labelling
from repro.core.labelling import HighwayCoverLabelling
from repro.core.landmarks import select_landmarks
from repro.core.queries import query_distance
from repro.core.stats import UpdateStats
from repro.graph.csr import CSRGraph, bfs_distances as csr_bfs_distances
from repro.graph.digraph import DynamicDiGraph, FrozenDiGraph


class DirectedHighwayCoverIndex(OracleBase):
    """Exact distance queries on a batch-dynamic directed graph."""

    capabilities = Capabilities(directed=True, dynamic=True)

    def __init__(
        self,
        graph: DynamicDiGraph,
        num_landmarks: int = 20,
        landmarks: tuple[int, ...] | None = None,
        selection: str = "degree",
        seed: int = 0,
    ) -> None:
        self._check_buildable(graph)
        self._graph: DynamicDiGraph | FrozenDiGraph = graph
        if landmarks is None:
            landmarks = select_landmarks(
                graph, min(num_landmarks, graph.num_vertices), selection, seed
            )
        landmarks = tuple(landmarks)
        self._forward = build_labelling(graph.out_view(), landmarks)
        self._backward = build_labelling(graph.in_view(), landmarks)
        self._landmark_set = frozenset(landmarks)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> "DynamicDiGraph | FrozenDiGraph":
        """The indexed digraph: the writer's own, or on a snapshot a
        read-only :class:`~repro.graph.digraph.FrozenDiGraph` over the
        pair it pins."""
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
        """Frozen (forward, backward) CSR views of the current digraph:
        the digraph's own pair on a writer, the pinned one on a snapshot
        (see ensure_csr on the undirected index)."""
        return self._graph.csr()

    def distance(self, s: int, t: int) -> float:
        """Exact directed distance ``s -> t``; inf if unreachable."""
        self._check_pair(s, t)
        forward_csr, backward_csr = self.ensure_csr()
        return externalise(
            query_distance(
                self._graph,
                self._forward,
                s,
                t,
                self._landmark_set,
                csr=forward_csr,
                backward=self._backward,
                backward_csr=backward_csr,
            )
        )

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

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[Any],
        variant: Variant | str = Variant.BHL_PLUS,
    ) -> UpdateStats:
        """Apply directed edge updates to the graph and both labellings.

        Sequential only: the processes backend is undirected-only.  A
        failed batch leaves the arcs and both labellings as they were.
        """
        self._ensure_open()
        if isinstance(self._graph, FrozenDiGraph):
            self._graph = self._graph.copy()  # a snapshot's own digraph
        (self._forward, self._backward), stats = run_batch_update(
            self._graph,
            (self._forward, self._backward),
            updates,
            variant=variant,
        )
        return stats

    def snapshot(self) -> "DirectedHighwayCoverIndex":
        """A frozen copy for concurrent reads that shares instead of
        copying, as on the undirected index: read-only views of both
        labellings' arrays and, as its graph, a
        :class:`~repro.graph.digraph.FrozenDiGraph` over the digraph's
        current CSR pair, pinned; the digraph is not copied."""
        clone = DirectedHighwayCoverIndex.__new__(DirectedHighwayCoverIndex)
        clone._graph = FrozenDiGraph(self.ensure_csr())
        clone._forward = self._forward.published()
        clone._backward = self._backward.published()
        clone._landmark_set = self._landmark_set
        return clone

    # ------------------------------------------------------------------
    # maintenance / verification
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        landmarks = self._forward.landmarks
        self._forward = build_labelling(self._graph.out_view(), landmarks)
        self._backward = build_labelling(self._graph.in_view(), landmarks)

    def check_minimality(self) -> list[str]:
        """Compare both labellings against from-scratch builds, which read
        a from-scratch freeze of the digraph, never its maintained views."""
        landmarks = self._forward.landmarks
        out_rows, in_rows = CSRGraph.from_digraph(self._graph)
        problems = [
            f"forward: {p}"
            for p in self._forward.diff(build_labelling(out_rows, landmarks))
        ]
        problems += [
            f"backward: {p}"
            for p in self._backward.diff(build_labelling(in_rows, landmarks))
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
