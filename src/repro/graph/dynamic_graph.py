"""Undirected, unweighted dynamic graph.

This is the substrate every index in the library operates on.  Vertices are
dense integers ``0..n-1``; adjacency is a list of sets so that edge existence
checks, insertions and deletions are all O(1) while neighbourhood iteration
stays cheap.  The container itself is deliberately dumb: batch *semantics*
(deduplication, validity, insert/delete cancellation) live in
:mod:`repro.graph.batch` so that every index shares one implementation of the
paper's Section 3 rules.

Epochs are cheap to publish because the graph owns its frozen CSR view
(:meth:`DynamicGraph.csr`): every write records the rows it touched, and
the next call writes only those rows, plus the ones the call before
wrote, into the arrays of the view before last once nothing holds them
(:mod:`repro.graph.csr_rows`).  A published snapshot reads that view
through a :class:`FrozenGraph`, not through a clone of the sets.
:meth:`DynamicGraph.copy` is copy-on-write: the clone shares the
adjacency sets and the CSR view, and whichever graph first writes a
vertex afterwards copies that one set.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.csr_rows import RowBuffers
from repro.obs.trace import span


def private_row(
    adjacency: list[set[int]], owned: set[int] | None, vertex: int
) -> set[int]:
    """``adjacency[vertex]``, ready to write.

    ``owned`` holds the rows this graph has made private since its last
    copy-on-write ``copy()`` (None: it was never copied, so every row is
    private).  Any other row may still be shared with a copy, so it is
    replaced by a private copy first.
    """
    if owned is None or vertex in owned:
        return adjacency[vertex]
    row = adjacency[vertex] = set(adjacency[vertex])
    owned.add(vertex)
    return row


class DynamicGraph:
    """A mutable, undirected, unweighted graph with O(1) edge updates."""

    __slots__ = ("_adj", "_num_edges", "_rows", "_owned")

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._adj: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        # The frozen view as of the last csr() call, the rows written
        # since, and the back pair the next freeze may recycle.
        self._rows = RowBuffers()
        # Rows made private since the last copy(); None = never copied.
        self._owned: set[int] | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int = 0
    ) -> "DynamicGraph":
        """Build a graph from an edge iterable, growing vertices as needed."""
        graph = cls(num_vertices)
        for a, b in edges:
            graph.ensure_vertex(max(a, b))
            graph.add_edge(a, b)
        return graph

    def copy(self) -> "DynamicGraph":
        """An O(V) copy-on-write clone.

        The clone shares every adjacency set and the frozen CSR view
        (never the buffers the view's successors recycle); after the
        call neither graph owns a shared set, so whichever writes a
        vertex first copies that one set, and no write ever shows on the
        other side.  Safe on a graph that is only read while other
        graphs it shares sets with keep writing.
        """
        clone = DynamicGraph(0)
        clone._adj = self._adj.copy()
        clone._num_edges = self._num_edges
        clone._rows = self._rows.fork()
        clone._owned = set()
        self._owned = set()
        return clone

    def csr(self) -> CSRGraph:
        """The frozen CSR view of the current topology.

        The first call lays out every row; later calls write only the
        rows written since the previous one (nothing at all when no row
        was), inside one ``freeze_csr`` span with ``recycled`` and the
        rows ``replayed`` (see :mod:`repro.graph.csr_rows`).  A view is
        never written while anything holds it: holders of an earlier one
        keep seeing the topology it froze.
        """
        rows = self._rows
        n = len(self._adj)
        view = rows.up_to_date(n)
        if view is None:
            encoded = n if rows.view is None else len(rows.dirty)
            with span("freeze_csr", vertices=n, rows=encoded) as traced:
                view, recycled, replayed = rows.freeze(self._adj)
                if traced is not None:
                    traced.set(recycled=recycled, replayed=replayed)
        return view

    def _row(self, vertex: int) -> set[int]:
        """``vertex``'s adjacency set for a write: marked for the next
        freeze, and made private first if a copy may share it."""
        rows = self._rows
        if rows.view is not None:
            rows.dirty.add(vertex)
        return private_row(self._adj, self._owned, vertex)

    # ------------------------------------------------------------------
    # size / membership
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < len(self._adj)

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < len(self._adj):
            raise GraphError(f"vertex {vertex} is not in the graph")

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its id."""
        self.ensure_vertex(len(self._adj))
        return len(self._adj) - 1

    def ensure_vertex(self, vertex: int) -> None:
        """Grow the vertex set so that ``vertex`` exists (no-op if it does).

        New rows are empty and this graph's own, so neither the CSR view
        (whose next freeze sees the vertex count change) nor a copy needs
        to hear about them.
        """
        if vertex < 0:
            raise GraphError(f"vertex {vertex} is negative")
        while vertex >= len(self._adj):
            if self._owned is not None:
                self._owned.add(len(self._adj))
            self._adj.append(set())

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return b in self._adj[a]

    def add_edge(self, a: int, b: int) -> bool:
        """Insert edge ``(a, b)``; returns False if it already existed.

        Self-loops are rejected: they can never lie on a shortest path and
        the paper's model excludes them.
        """
        if a == b:
            raise GraphError(f"self-loop ({a}, {b}) is not allowed")
        self._check_vertex(a)
        self._check_vertex(b)
        if b in self._adj[a]:
            return False
        self._row(a).add(b)
        self._row(b).add(a)
        self._num_edges += 1
        return True

    def add_edges_bulk(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert many edges at once; returns how many were new.

        The per-edge :meth:`add_edge` loop costs two Python-level set
        operations plus validation per edge — the dominant cost of
        ``load_index`` cold-starts.  Here validation vectorises over the
        whole array and each vertex's additions land in one
        ``set.update`` per direction.  Duplicates (including both
        orientations of the same edge) collapse exactly as repeated
        :meth:`add_edge` calls would.
        """
        import numpy as np

        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return 0
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(
                f"edge array must have shape (E, 2), got {arr.shape}"
            )
        n = len(self._adj)
        if (arr < 0).any() or (arr >= n).any():
            bad = arr[((arr < 0) | (arr >= n)).any(axis=1)][0]
            raise GraphError(
                f"edge ({int(bad[0])}, {int(bad[1])}) references a vertex"
                f" outside 0..{n - 1}"
            )
        if (arr[:, 0] == arr[:, 1]).any():
            v = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
            raise GraphError(f"self-loop ({v}, {v}) is not allowed")
        # Orient every edge both ways, then group arcs by source: sorting
        # once lets each source's targets arrive as one contiguous slice.
        arcs = np.concatenate([arr, arr[:, ::-1]])
        order = np.argsort(arcs[:, 0], kind="stable")
        arcs = arcs[order]
        sources, starts = np.unique(arcs[:, 0], return_index=True)
        ends = np.append(starts[1:], len(arcs))
        targets = arcs[:, 1]
        grown = 0
        for src, lo, hi in zip(sources.tolist(), starts, ends):
            adj = self._row(src)
            before = len(adj)
            adj.update(targets[lo:hi].tolist())
            grown += len(adj) - before
        # Each new undirected edge grew exactly two adjacency sets.
        added = grown // 2
        self._num_edges += added
        return added

    def remove_edge(self, a: int, b: int) -> bool:
        """Delete edge ``(a, b)``; returns False if it was absent."""
        self._check_vertex(a)
        self._check_vertex(b)
        if b not in self._adj[a]:
            return False
        self._row(a).discard(b)
        self._row(b).discard(a)
        self._num_edges -= 1
        return True

    def neighbors(self, vertex: int) -> set[int]:
        """The neighbour set of ``vertex``.

        Returns the internal set for speed; callers must treat it as
        read-only.
        """
        self._check_vertex(vertex)
        return self._adj[vertex]

    def degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        return len(self._adj[vertex])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once, as ``(a, b)`` with ``a < b``."""
        for a, neighbours in enumerate(self._adj):
            for b in neighbours:
                if a < b:
                    yield (a, b)

    def vertices(self) -> range:
        return range(len(self._adj))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def max_degree(self) -> int:
        if not self._adj:
            return 0
        return max(len(neighbours) for neighbours in self._adj)

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
        )


class FrozenGraph:
    """A read-only graph over the rows of one CSR view: a snapshot's graph.

    :meth:`~repro.core.index.HighwayCoverIndex.snapshot` publishes this
    instead of a clone of its writer's graph, so publishing copies no
    adjacency.
    It answers like the writer's graph did when the view was frozen —
    ``num_vertices``, ``num_edges``, ``neighbors`` (sorted lists of
    ints), ``degree``, ``has_edge``, ``edges()`` — and :meth:`csr` is the
    pinned view itself.  :meth:`copy` returns a :class:`DynamicGraph` to
    write to.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr: CSRGraph) -> None:
        self._csr = csr

    @property
    def num_vertices(self) -> int:
        return self._csr.num_vertices

    @property
    def num_edges(self) -> int:
        return self._csr.num_arcs // 2

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._csr.num_vertices:
            raise GraphError(f"vertex {vertex} is not in the graph")

    def neighbors(self, vertex: int) -> list[int]:
        """The sorted neighbour list of ``vertex``; treat it as read-only."""
        self._check_vertex(vertex)
        return self._csr.adjacency_lists()[vertex]

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(b)
        row = self.neighbors(a)
        at = bisect_left(row, b)
        return at < len(row) and row[at] == b

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges once, as ``(a, b)`` with ``a < b``."""
        for a, neighbours in enumerate(self._csr.adjacency_lists()):
            for b in neighbours:
                if a < b:
                    yield (a, b)

    def csr(self) -> CSRGraph:
        """The pinned view."""
        return self._csr

    def copy(self) -> DynamicGraph:
        """A :class:`DynamicGraph` with this topology, whose first freeze
        after a write relays out from the pinned view."""
        graph = DynamicGraph(0)
        graph._adj = [set(row) for row in self._csr.adjacency_lists()]
        graph._num_edges = self.num_edges
        graph._rows = RowBuffers(self._csr)
        return graph

    def __repr__(self) -> str:
        return f"FrozenGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
