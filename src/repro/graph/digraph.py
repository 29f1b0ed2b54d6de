"""Directed, unweighted dynamic graph (Section 6 of the paper).

The directed index runs the same search/repair machinery twice, once over
out-neighbours and once over in-neighbours.  To avoid duplicating algorithms,
:meth:`DynamicDiGraph.out_view` / :meth:`in_view` expose lightweight adapters
with the same ``num_vertices`` / ``neighbors`` interface as
:class:`~repro.graph.dynamic_graph.DynamicGraph`.

Like the undirected graph, a digraph owns its frozen CSR views — the
out-row/in-row pair of :meth:`DynamicDiGraph.csr`, one set of recycled
row buffers per direction (:mod:`repro.graph.csr_rows`), each written
only where writes touched it — and its :meth:`~DynamicDiGraph.copy` is
copy-on-write, per out-set and in-set.  A snapshot's digraph is a
:class:`FrozenDiGraph` over the pinned pair.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Iterable, Iterator, Sequence

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.csr_rows import RowBuffers
from repro.graph.dynamic_graph import private_row
from repro.obs.trace import span


class _DirectionView:
    """Read-only adapter presenting one direction of a digraph as a graph."""

    __slots__ = ("_graph", "_adj", "_side")

    def __init__(
        self,
        graph: "DynamicDiGraph | FrozenDiGraph",
        adj: Sequence[Collection[int]],
        side: int,
    ) -> None:
        self._graph = graph
        self._adj = adj
        self._side = side

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def neighbors(self, vertex: int) -> Collection[int]:
        return self._adj[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._adj[vertex])

    def vertices(self) -> range:
        return range(len(self._adj))

    def csr(self) -> CSRGraph:
        """This direction's half of the digraph's frozen CSR pair."""
        return self._graph.csr()[self._side]


class DynamicDiGraph:
    """A mutable directed graph storing both out- and in-adjacency."""

    __slots__ = (
        "_out", "_in", "_num_edges", "_rows_out", "_rows_in",
        "_owned_out", "_owned_in",
    )

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._out: list[set[int]] = [set() for _ in range(num_vertices)]
        self._in: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        # As on DynamicGraph, per direction: the frozen view with its
        # written rows and row buffers, and the rows made private since
        # the last copy() (None = never copied).
        self._rows_out = RowBuffers()
        self._rows_in = RowBuffers()
        self._owned_out: set[int] | None = None
        self._owned_in: set[int] | None = None

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int = 0
    ) -> "DynamicDiGraph":
        graph = cls(num_vertices)
        for a, b in edges:
            graph.ensure_vertex(max(a, b))
            graph.add_edge(a, b)
        return graph

    def copy(self) -> "DynamicDiGraph":
        """An O(V) copy-on-write clone, as :meth:`DynamicGraph.copy`."""
        clone = DynamicDiGraph(0)
        clone._out = self._out.copy()
        clone._in = self._in.copy()
        clone._num_edges = self._num_edges
        clone._rows_out = self._rows_out.fork()
        clone._rows_in = self._rows_in.fork()
        clone._owned_out, clone._owned_in = set(), set()
        self._owned_out, self._owned_in = set(), set()
        return clone

    def csr(self) -> tuple[CSRGraph, CSRGraph]:
        """The frozen (out-row, in-row) CSR pair of the current topology.

        As :meth:`DynamicGraph.csr`, per direction: the first call lays
        out both, later ones write only the rows written since, inside
        one ``freeze_csr`` span (``recycled`` when every direction it
        froze recycled its back pair, ``replayed`` summed).
        """
        out_rows, in_rows = self._rows_out, self._rows_in
        n = len(self._out)
        out_view, in_view = out_rows.up_to_date(n), in_rows.up_to_date(n)
        if out_view is not None and in_view is not None:
            return out_view, in_view
        encoded = (
            2 * n
            if out_rows.view is None
            else len(out_rows.dirty) + len(in_rows.dirty)
        )
        with span("freeze_csr", vertices=n, rows=encoded) as traced:
            recycled, replayed = True, 0
            if out_view is None:
                out_view, recycled, replayed = out_rows.freeze(self._out)
            if in_view is None:
                in_view, in_recycled, in_replayed = in_rows.freeze(self._in)
                recycled = recycled and in_recycled
                replayed += in_replayed
            if traced is not None:
                traced.set(recycled=recycled, replayed=replayed)
        return out_view, in_view

    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < len(self._out):
            raise GraphError(f"vertex {vertex} is not in the graph")

    def add_vertex(self) -> int:
        self.ensure_vertex(len(self._out))
        return len(self._out) - 1

    def ensure_vertex(self, vertex: int) -> None:
        if vertex < 0:
            raise GraphError(f"vertex {vertex} is negative")
        while vertex >= len(self._out):
            if self._owned_out is not None:
                self._owned_out.add(len(self._out))
            if self._owned_in is not None:
                self._owned_in.add(len(self._in))
            self._out.append(set())
            self._in.append(set())

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return b in self._out[a]

    def add_edge(self, a: int, b: int) -> bool:
        """Insert directed edge ``a -> b``; False if already present."""
        if a == b:
            raise GraphError(f"self-loop ({a}, {b}) is not allowed")
        self._check_vertex(a)
        self._check_vertex(b)
        if b in self._out[a]:
            return False
        self._out_row(a).add(b)
        self._in_row(b).add(a)
        self._num_edges += 1
        return True

    def _out_row(self, vertex: int) -> set[int]:
        """Out-set of ``vertex`` for a write (see DynamicGraph._row)."""
        rows = self._rows_out
        if rows.view is not None:
            rows.dirty.add(vertex)
        return private_row(self._out, self._owned_out, vertex)

    def _in_row(self, vertex: int) -> set[int]:
        """In-set of ``vertex`` for a write (see DynamicGraph._row)."""
        rows = self._rows_in
        if rows.view is not None:
            rows.dirty.add(vertex)
        return private_row(self._in, self._owned_in, vertex)

    def remove_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        if b not in self._out[a]:
            return False
        self._out_row(a).discard(b)
        self._in_row(b).discard(a)
        self._num_edges -= 1
        return True

    def out_neighbors(self, vertex: int) -> set[int]:
        self._check_vertex(vertex)
        return self._out[vertex]

    def in_neighbors(self, vertex: int) -> set[int]:
        self._check_vertex(vertex)
        return self._in[vertex]

    def out_degree(self, vertex: int) -> int:
        return len(self.out_neighbors(vertex))

    def in_degree(self, vertex: int) -> int:
        return len(self.in_neighbors(vertex))

    def degree(self, vertex: int) -> int:
        """Total degree (out + in); used for landmark selection."""
        return self.out_degree(vertex) + self.in_degree(vertex)

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, targets in enumerate(self._out):
            for b in targets:
                yield (a, b)

    def vertices(self) -> range:
        return range(len(self._out))

    def out_view(self) -> _DirectionView:
        """Forward traversal view (follows edges in their direction)."""
        return _DirectionView(self, self._out, 0)

    def in_view(self) -> _DirectionView:
        """Backward traversal view (follows edges against their direction)."""
        return _DirectionView(self, self._in, 1)

    def __repr__(self) -> str:
        return (
            f"DynamicDiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
        )


class FrozenDiGraph:
    """A read-only digraph over one pinned (out-row, in-row) CSR pair: a
    directed snapshot's graph, as :class:`~repro.graph.dynamic_graph.FrozenGraph`
    is an undirected one's.

    It answers like the writer's digraph did when the pair was frozen,
    including :meth:`out_view`/:meth:`in_view`; :meth:`csr` is the pair
    itself, and :meth:`copy` returns a :class:`DynamicDiGraph`.
    """

    __slots__ = ("_out", "_in")

    def __init__(self, pair: tuple[CSRGraph, CSRGraph]) -> None:
        self._out, self._in = pair

    @property
    def num_vertices(self) -> int:
        return self._out.num_vertices

    @property
    def num_edges(self) -> int:
        return self._out.num_arcs

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._out.num_vertices:
            raise GraphError(f"vertex {vertex} is not in the graph")

    def degree(self, vertex: int) -> int:
        """Total degree (out + in), as on :class:`DynamicDiGraph`."""
        self._check_vertex(vertex)
        return self._out.degree(vertex) + self._in.degree(vertex)

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        row = self._out.adjacency_lists()[a]
        at = bisect_left(row, b)
        return at < len(row) and row[at] == b

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, targets in enumerate(self._out.adjacency_lists()):
            for b in targets:
                yield (a, b)

    def out_view(self) -> _DirectionView:
        return _DirectionView(self, self._out.adjacency_lists(), 0)

    def in_view(self) -> _DirectionView:
        return _DirectionView(self, self._in.adjacency_lists(), 1)

    def csr(self) -> tuple[CSRGraph, CSRGraph]:
        """The pinned pair."""
        return self._out, self._in

    def copy(self) -> DynamicDiGraph:
        """A :class:`DynamicDiGraph` with this topology, whose first
        freeze after a write relays out from the pinned pair."""
        graph = DynamicDiGraph(0)
        graph._out = [set(row) for row in self._out.adjacency_lists()]
        graph._in = [set(row) for row in self._in.adjacency_lists()]
        graph._num_edges = self.num_edges
        graph._rows_out = RowBuffers(self._out)
        graph._rows_in = RowBuffers(self._in)
        return graph

    def __repr__(self) -> str:
        return (
            f"FrozenDiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
        )
