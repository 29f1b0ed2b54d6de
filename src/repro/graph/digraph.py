"""Directed, unweighted dynamic graph (Section 6 of the paper).

The directed index runs the same search/repair machinery twice, once over
out-neighbours and once over in-neighbours.  To avoid duplicating algorithms,
:meth:`DynamicDiGraph.out_view` / :meth:`in_view` expose lightweight adapters
with the same ``num_vertices`` / ``neighbors`` interface as
:class:`~repro.graph.dynamic_graph.DynamicGraph`.

Like the undirected graph, a digraph owns its frozen CSR views — the
out-row/in-row pair of :meth:`DynamicDiGraph.csr`, re-encoded only where
writes touched them — and its :meth:`~DynamicDiGraph.copy` is
copy-on-write, per out-set and in-set.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_graph import private_row
from repro.obs.trace import span


class _DirectionView:
    """Read-only adapter presenting one direction of a digraph as a graph."""

    __slots__ = ("_graph", "_adj", "_side")

    def __init__(
        self, graph: "DynamicDiGraph", adj: list[set[int]], side: int
    ) -> None:
        self._graph = graph
        self._adj = adj
        self._side = side

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def neighbors(self, vertex: int) -> set[int]:
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
        "_out", "_in", "_num_edges", "_csr", "_dirty_out", "_dirty_in",
        "_owned_out", "_owned_in",
    )

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._out: list[set[int]] = [set() for _ in range(num_vertices)]
        self._in: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        # As on DynamicGraph, per direction: the frozen (out, in) views,
        # the rows written since, and the rows made private since the
        # last copy() (None = never copied).
        self._csr: tuple[CSRGraph, CSRGraph] | None = None
        self._dirty_out: set[int] = set()
        self._dirty_in: set[int] = set()
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
        clone._csr = self._csr
        clone._dirty_out = set(self._dirty_out)
        clone._dirty_in = set(self._dirty_in)
        clone._owned_out, clone._owned_in = set(), set()
        self._owned_out, self._owned_in = set(), set()
        return clone

    def csr(self) -> tuple[CSRGraph, CSRGraph]:
        """The frozen (out-row, in-row) CSR pair of the current topology.

        As :meth:`DynamicGraph.csr`: the first call encodes both
        directions, later ones re-encode only the rows written since,
        inside one ``freeze_csr`` span.
        """
        pair = self._csr
        n = len(self._out)
        dirty_out, dirty_in = self._dirty_out, self._dirty_in
        if (
            pair is not None
            and not dirty_out
            and not dirty_in
            and pair[0].num_vertices == n
        ):
            return pair
        rows = 2 * n if pair is None else len(dirty_out) + len(dirty_in)
        with span("freeze_csr", vertices=n, rows=rows):
            if pair is None:
                pair = CSRGraph.from_digraph(self)
            else:
                pair = (
                    pair[0].reencode(self._out, dirty_out),
                    pair[1].reencode(self._in, dirty_in),
                )
        self._csr = pair
        self._dirty_out, self._dirty_in = set(), set()
        return pair

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
        if self._csr is not None:
            self._dirty_out.add(vertex)
        return private_row(self._out, self._owned_out, vertex)

    def _in_row(self, vertex: int) -> set[int]:
        """In-set of ``vertex`` for a write (see DynamicGraph._row)."""
        if self._csr is not None:
            self._dirty_in.add(vertex)
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
