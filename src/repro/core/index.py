"""Public facade: :class:`HighwayCoverIndex`.

This is the object a downstream user works with.  It owns a dynamic graph
and a minimal highway cover labelling over it, answers exact distance
queries, and reflects batch updates via the BatchHL machinery::

    from repro import DynamicGraph, HighwayCoverIndex
    from repro.graph.batch import EdgeUpdate

    graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    index = HighwayCoverIndex(graph, num_landmarks=2)
    index.distance(0, 3)                      # -> 3
    index.batch_update([EdgeUpdate.insert(0, 3)])
    index.distance(0, 3)                      # -> 1

The graph passed in is *owned*: ``batch_update`` mutates it together with
the labelling so the two always describe the same topology.

An index built on a :class:`~repro.parallel.pool.LandmarkShardPool`
(``pool=``, or the ``hcl-sharded`` registry entry) runs construction,
``rebuild()`` and its batch updates on the pool's worker processes; that
is the only way onto the processes backend.  Queries never touch the
pool::

    with open_oracle("hcl-sharded", graph, num_landmarks=20, num_shards=4) as index:
        index.batch_update(updates)          # runs on the worker pool
        index.distance(s, t)                 # reads stay in-process
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable

from repro.api.protocol import Capabilities, OracleBase
from repro.api.registry import register_oracle
from repro.constants import externalise
from repro.core.batchhl import Variant, run_batch_update
from repro.core.construction import build_labelling
from repro.core.labelling import HighwayCoverLabelling
from repro.core.landmarks import select_landmarks
from repro.core.queries import query_distance
from repro.core.stats import UpdateStats
from repro.graph.batch import EdgeUpdate
from repro.graph.csr import CSRGraph, bfs_distances as csr_bfs_distances
from repro.graph.dynamic_graph import DynamicGraph, FrozenGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.parallel.pool import LandmarkShardPool


class HighwayCoverIndex(OracleBase):
    """Exact distance queries on a batch-dynamic undirected graph."""

    capabilities = Capabilities(
        dynamic=True, parallel=True, serializable=True
    )

    #: True when ``close()`` must shut ``_pool`` down: the ``hcl-sharded``
    #: factory sets it on an index whose pool it created itself.
    _owns_pool: bool = False

    def __init__(
        self,
        graph: DynamicGraph,
        num_landmarks: int = 20,
        landmarks: tuple[int, ...] | None = None,
        selection: str = "degree",
        seed: int = 0,
        pool: "LandmarkShardPool | None" = None,
    ) -> None:
        self._check_buildable(graph)
        self._graph: DynamicGraph | FrozenGraph = graph
        self._pool = pool
        if landmarks is None:
            landmarks = select_landmarks(
                graph, min(num_landmarks, graph.num_vertices), selection, seed
            )
        self._labelling = build_labelling(graph, tuple(landmarks), pool=pool)
        self._landmark_set = frozenset(self._labelling.landmarks)

    @classmethod
    def from_parts(
        cls,
        graph: "DynamicGraph | FrozenGraph",
        labelling: HighwayCoverLabelling,
    ) -> "HighwayCoverIndex":
        """Wrap an existing (graph, labelling) pair without rebuilding.

        The labelling must describe exactly this graph — used by the bench
        harness, which manages labellings at the functional layer.
        """
        index = cls.__new__(cls)
        index._graph = graph
        index._pool = None
        index._labelling = labelling
        index._landmark_set = frozenset(labelling.landmarks)
        return index

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> "DynamicGraph | FrozenGraph":
        """The indexed graph: the writer's own, or on a snapshot a
        read-only :class:`~repro.graph.dynamic_graph.FrozenGraph` over
        the rows it pins."""
        return self._graph

    @property
    def labelling(self) -> HighwayCoverLabelling:
        return self._labelling

    @property
    def landmarks(self) -> tuple[int, ...]:
        return self._labelling.landmarks

    @property
    def pool(self) -> "LandmarkShardPool | None":
        """The shard pool this index maintains itself on, if any."""
        return self._pool

    def label_size(self) -> int:
        """Number of label entries (the paper's labelling-size metric)."""
        return self._labelling.size()

    def size_bytes(self) -> int:
        return self._labelling.size_bytes()

    def stats(self) -> dict[str, Any]:
        """:meth:`OracleBase.stats`, with ``parallel`` only on a pool, as
        the ``hcl`` and ``hcl-sharded`` entries declare."""
        info = super().stats()
        if self._pool is None:
            info["capabilities"] = _SEQUENTIAL_CAPABILITIES.describe()
        return info

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def ensure_csr(self) -> CSRGraph:
        """The frozen CSR read view of the current graph.

        Every query path runs on this view, never on the mutable
        adjacency sets.  A writer's graph writes the rows written since
        its last view (see
        :meth:`~repro.graph.dynamic_graph.DynamicGraph.csr`); a
        snapshot's graph returns the view it was published with.  The
        view carries the adjacency lists the bounded search reads: the
        graph's first freeze keeps the sorted rows it lays out, and its
        later views reuse them.
        """
        return self._graph.csr()

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance; ``float('inf')`` if disconnected."""
        self._check_pair(s, t)
        return externalise(
            query_distance(
                self._graph,
                self._labelling,
                s,
                t,
                self._landmark_set,
                csr=self.ensure_csr(),
            )
        )

    def _distances_from_source(
        self, source: int, targets: list[int]
    ) -> list[float] | None:
        """Answer a shared-source group with one exact CSR BFS sweep."""
        self._check_pair(source, source)
        dist = csr_bfs_distances(self.ensure_csr(), source)
        values = []
        for t in targets:
            self._check_pair(source, t)
            values.append(externalise(int(dist[t])))
        return values

    def upper_bound(self, s: int, t: int) -> float:
        """The labelling-only bound :math:`d^\\top_{st}` (Eq. 3)."""
        return externalise(self._labelling.upper_bound(s, t))

    def shortest_path(self, s: int, t: int) -> list[int] | None:
        """An actual shortest s-t path (list of vertices), or None.

        Peels the path greedily using the index as a distance oracle —
        O(d · avg_degree) queries, no graph-wide search.
        """
        from repro.core.paths import extract_shortest_path

        csr = self.ensure_csr()

        def internal(a: int, b: int) -> int:
            return query_distance(
                self._graph, self._labelling, a, b, self._landmark_set,
                csr=csr,
            )

        return extract_shortest_path(self._graph, s, t, internal)

    def snapshot(self) -> "HighwayCoverIndex":
        """A frozen copy of this index for lock-free concurrent reads.

        Returns a new :class:`HighwayCoverIndex` that shares instead of
        copying: read-only views of the labelling's arrays
        (:meth:`HighwayCoverLabelling.published`) and, as its graph, a
        :class:`~repro.graph.dynamic_graph.FrozenGraph` over the graph's
        current CSR view, pinned.  Later batches on this index never
        show in it — they write row buffers and labelling arrays no
        snapshot holds — so readers may keep querying it while
        ``batch_update`` repairs the original; this is the
        epoch-publication hook the online serving layer
        (:mod:`repro.service`) builds on.  Cost is the freeze of the
        rows written since the last view plus an O(V) landmark mask; the
        graph is not copied.  A batch applied to the snapshot itself
        first copies the frozen graph into a writable one.
        """
        frozen = FrozenGraph(self.ensure_csr())
        return HighwayCoverIndex.from_parts(
            frozen, self._labelling.published()
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def batch_update(
        self,
        updates: Iterable[EdgeUpdate],
        variant: Variant | str = Variant.BHL_PLUS,
    ) -> UpdateStats:
        """Apply a batch of :class:`EdgeUpdate` to graph + labelling, on
        this index's pool when it has one (see :mod:`repro.parallel`)."""
        self._ensure_open()
        (new_labelling,), stats = run_batch_update(
            self._own_graph(),
            (self._labelling,),
            updates,
            variant=variant,
            pool=self._pool,
        )
        self._labelling = new_labelling
        return stats

    def _own_graph(self) -> DynamicGraph:
        """The graph to write: on a snapshot, its frozen graph is first
        copied into a :class:`DynamicGraph` of its own."""
        if isinstance(self._graph, FrozenGraph):
            self._graph = self._graph.copy()
        return self._graph

    def insert_edge(
        self, u: int, v: int, variant: Variant | str = Variant.BHL_PLUS
    ) -> UpdateStats:
        """Convenience wrapper: single edge insertion."""
        return self.batch_update([EdgeUpdate.insert(u, v)], variant=variant)

    def delete_edge(
        self, u: int, v: int, variant: Variant | str = Variant.BHL_PLUS
    ) -> UpdateStats:
        """Convenience wrapper: single edge deletion."""
        return self.batch_update([EdgeUpdate.delete(u, v)], variant=variant)

    def attach_vertex(
        self, neighbors: Iterable[int]
    ) -> tuple[int, UpdateStats]:
        """Node insertion (§3): a new vertex plus its edges, as one batch."""
        vertex = self._graph.num_vertices
        stats = self.batch_update(
            [EdgeUpdate.insert(vertex, w) for w in neighbors]
        )
        # The batch may have been empty (no neighbours): grow explicitly so
        # the new vertex exists either way.
        self._own_graph().ensure_vertex(vertex)
        self._labelling.grow(self._graph.num_vertices)
        return vertex, stats

    def detach_vertex(self, vertex: int) -> UpdateStats:
        """Node deletion (§3): drop every incident edge as one batch.

        The vertex id remains valid (and isolated), matching the paper's
        model where node removal is a pure edge batch.
        """
        updates = [
            EdgeUpdate.delete(vertex, w)
            for w in list(self._graph.neighbors(vertex))
        ]
        return self.batch_update(updates)

    # ------------------------------------------------------------------
    # maintenance / verification
    # ------------------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        """Persist graph + labelling to an ``.npz`` archive."""
        from repro.core.serialize import save_index

        save_index(self, path)

    def serialize(self, path: "str | Path") -> None:
        """Protocol spelling of :meth:`save`."""
        self._ensure_open()
        self.save(path)

    @classmethod
    def load(cls, path: "str | Path") -> "HighwayCoverIndex":
        """Restore an index saved with :meth:`save` (no rebuild)."""
        from repro.core.serialize import load_index

        return load_index(path)

    def rebuild(self) -> None:
        """Recompute the labelling from scratch (keeps the landmark set),
        on this index's pool when it has one."""
        self._labelling = build_labelling(
            self._graph, self._labelling.landmarks, pool=self._pool
        )

    def check_minimality(self) -> list[str]:
        """Compare against a from-scratch build; [] iff identical.

        This is Theorem 5.21 as an executable check — used by the test
        suite and available to users as a debugging aid.  The rebuild
        reads a from-scratch freeze of the graph, never the view the
        graph maintains, so the check does not trust what it checks.
        """
        fresh = build_labelling(
            CSRGraph.from_graph(self._graph), self._labelling.landmarks
        )
        return self._labelling.diff(fresh)

    def close(self) -> None:
        """Stop further updates; shut the pool down if this index owns it."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        super().close()

    def __repr__(self) -> str:
        pool = "" if self._pool is None else f", pool={self._pool!r}"
        return (
            f"HighwayCoverIndex(|V|={self._graph.num_vertices},"
            f" |E|={self._graph.num_edges}, |R|={len(self.landmarks)},"
            f" entries={self.label_size()}{pool})"
        )


def _open_highway_cover(
    graph: DynamicGraph,
    labelling: HighwayCoverLabelling | None = None,
    **config: Any,
) -> "HighwayCoverIndex":
    """Factory: build fresh, or wrap an existing labelling without rebuild."""
    if labelling is not None:
        if config:
            from repro.errors import OracleConfigError

            raise OracleConfigError(
                "labelling= wraps an existing labelling; other construction"
                f" options make no sense with it: {', '.join(sorted(config))}"
            )
        return HighwayCoverIndex.from_parts(graph, labelling)
    return HighwayCoverIndex(graph, **config)


def _open_sharded(
    graph: DynamicGraph,
    num_shards: int | None = None,
    pool: "LandmarkShardPool | None" = None,
    **config: Any,
) -> "HighwayCoverIndex":
    """Factory: an index maintained on ``pool``, or on a pool of its own.

    Without ``pool`` the factory creates a ``num_shards``-way pool and
    hands its ownership to the index, whose ``close()`` shuts it down; an
    injected pool stays the caller's to close.
    """
    if pool is not None:
        return HighwayCoverIndex(graph, pool=pool, **config)
    from repro.parallel.pool import LandmarkShardPool

    owned = LandmarkShardPool(num_shards)
    try:
        index = HighwayCoverIndex(graph, pool=owned, **config)
    except BaseException:
        owned.close()
        raise
    index._owns_pool = True
    return index


#: What an index without a pool supports: hcl-sharded is the entry that
#: builds one on a pool.
_SEQUENTIAL_CAPABILITIES = replace(HighwayCoverIndex.capabilities, parallel=False)


register_oracle(
    "hcl",
    _open_highway_cover,
    capabilities=_SEQUENTIAL_CAPABILITIES,
    description="highway cover index, batch-dynamic (BHL/BHL+; the paper's"
    " method)",
    config_keys=(
        "num_landmarks", "landmarks", "selection", "seed", "labelling",
    ),
    loader=HighwayCoverIndex.load,
)


register_oracle(
    "hcl-sharded",
    _open_sharded,
    capabilities=HighwayCoverIndex.capabilities,
    description="highway cover index with construction + updates on a"
    " persistent worker-process shard pool",
    config_keys=(
        "num_landmarks", "landmarks", "selection", "seed",
        "num_shards", "pool",
    ),
    loader=HighwayCoverIndex.load,
)
