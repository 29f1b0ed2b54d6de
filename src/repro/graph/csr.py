"""Frozen CSR adjacency and vectorized (numpy frontier) query kernels.

Every read path in the library — single-pair queries, batched
``distances()``, the construction sweep, batch-search traversal,
epoch snapshots published by the serving engine, and the worker-process
shard tasks — runs over a *frozen* view of the graph.  This module is
that view: a :class:`CSRGraph` holds one int64 ``indices`` array and, per
row, its ``starts``/``ends`` (the neighbours of ``v`` are
``indices[starts[v]:ends[v]]``, sorted), plus level-synchronous kernels
that advance whole frontiers as numpy arrays instead of walking Python
dict-of-set adjacency one vertex at a time:

* :func:`bfs_distances` / :func:`bfs_distances_multi` — full sweeps, used
  by source-grouped batched queries (one sweep answers every query that
  shares the source);
* :func:`landmark_sweep` — the landmark-flagged BFS of the static
  construction (Lemma 5.14) from every landmark in one level sweep, one
  bit per root in a uint64 word per vertex, each column bit-identical
  to the per-root Python reference in
  :func:`repro.core.construction.bfs_landmark_lengths`;
* :func:`bidirectional_distance` — the distance-bounded bidirectional BFS
  of the query algorithm (Section 4) over ``G[V \\ excluded]``: frontier
  sets while narrow, numpy sweeps over bool masks once wide, stopping at
  the first meet; on directed graphs pass the backward CSR for the
  reverse side.

A view built from scratch (:meth:`CSRGraph.from_graph`, or the
``(indptr, indices)`` constructor) is compact: its rows lie back to back.
Mutable graphs (:class:`~repro.graph.dynamic_graph.DynamicGraph` and
:class:`~repro.graph.digraph.DynamicDiGraph`) stay the write-side
substrate, and each maintains its own views through
:mod:`repro.graph.csr_rows`: their rows have slack, spare slots past
``ends[v]`` that kernels never read, so a later view can rewrite a row
in place.  A view is never written while anything holds it: a graph
writes its next view into the arrays of the view before last only once
no snapshot, reader or slice references them, and otherwise lays out
fresh arrays.  Epoch snapshots pin the view they were published with.
The worker-process snapshot module (:mod:`repro.parallel.snapshot`)
ships the same three arrays across process boundaries.
"""

from __future__ import annotations

import time
from itertools import chain, count, pairwise
from typing import Any, Collection, Iterable, NamedTuple, Sequence

import numpy as np

from repro.constants import INF
from repro.errors import GraphError
from repro.obs.metrics import get_registry

_EMPTY = np.empty(0, dtype=np.int64)


def record_freeze(seconds: float, rows: int) -> None:
    """Count one freeze and the rows it encoded from adjacency sets."""
    registry = get_registry()
    registry.counter(
        "repro_csr_freeze_total",
        "CSR views frozen, one per graph direction",
    ).inc()
    registry.counter(
        "repro_csr_freeze_seconds_total",
        "wall time spent freezing graphs to CSR",
    ).inc(seconds)
    registry.counter(
        "repro_csr_rows_encoded_total",
        "adjacency rows CSR freezes sorted from adjacency sets",
    ).inc(rows)


class _SlicedRows:
    """Neighbour rows sliced from CSR arrays on first read, then memoised.

    The lazy stand-in for :meth:`CSRGraph.adjacency_lists`: a reader that
    touches a few hundred rows (a worker shard's narrow phase) pays for
    those rows, not for expanding all V of them.
    """

    __slots__ = ("_starts", "_ends", "_indices", "_rows")

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, indices: np.ndarray
    ) -> None:
        self._starts = starts
        self._ends = ends
        self._indices = indices
        self._rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, vertex: int) -> list[int]:
        row = self._rows.get(vertex)
        if row is None:
            lo, hi = self._starts[vertex], self._ends[vertex]
            row = self._rows[vertex] = self._indices[lo:hi].tolist()
        return row


class CSRListView:
    """Read-only adjacency of Python-int lists decoded from CSR arrays.

    Quacks like :class:`~repro.graph.dynamic_graph.DynamicGraph` for the
    operations the pure-Python search/repair kernels use
    (``num_vertices`` and ``neighbors``).  Neighbour lists hold plain
    Python ints so downstream heap entries and affected sets stay
    lightweight — the per-element unboxing cost of iterating numpy slices
    in Python loops is paid once here, not once per traversal.
    """

    __slots__ = ("_adj",)

    def __init__(self, adjacency: "list[list[int]] | _SlicedRows") -> None:
        self._adj = adjacency

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def neighbors(self, vertex: int) -> list[int]:
        return self._adj[vertex]

    def degree(self, vertex: int) -> int:
        return len(self._adj[vertex])


class CSRGraph:
    """A frozen compressed-sparse-row adjacency over vertices ``0..n-1``.

    For undirected graphs each edge appears in both rows; for directed
    graphs build one instance per traversal direction
    (:meth:`from_digraph` returns the forward/backward pair).  Kernels
    only read a view.  Row ``v`` is ``indices[starts[v]:ends[v]]``;
    ``indices`` may hold slack slots that belong to no row, and
    ``starts``/``ends`` are the two columns of one (V, 2) array (or two
    overlapping slices of one ``indptr``), so a row's bounds share a
    cache line.  A graph's views also carry the layout the graph
    rewrites them by (each row's slot capacity and the first free slot
    of the tail), and the graph rewrites a view's arrays only once
    nothing holds them (:mod:`repro.graph.csr_rows`).
    """

    __slots__ = (
        "starts", "ends", "indices", "_num_arcs", "_caps", "_tail",
        "_lists", "_rows", "_arange",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """A compact view: row ``v`` is ``indices[indptr[v]:indptr[v+1]]``."""
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0 or int(indptr[-1]) != len(indices):
            raise GraphError("malformed CSR indptr")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self._set(
            indptr[:-1],
            indptr[1:],
            np.ascontiguousarray(indices, dtype=np.int64),
            len(indices),
        )

    def _set(
        self,
        starts: np.ndarray,  # shape: (V,) int64
        ends: np.ndarray,  # shape: (V,) int64
        indices: np.ndarray,  # shape: (S,) int64
        num_arcs: int,
        caps: np.ndarray | None = None,  # shape: (V,) int64
        tail: int = 0,
        lists: list[list[int]] | None = None,
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.indices = indices
        self._num_arcs = num_arcs
        self._caps = caps
        self._tail = tail
        self._lists = lists
        self._rows: _SlicedRows | None = None
        self._arange: np.ndarray | None = None

    @classmethod
    def from_rows(
        cls,
        starts: np.ndarray,  # shape: (V,) int64
        ends: np.ndarray,  # shape: (V,) int64
        indices: np.ndarray,  # shape: (S,) int64
        num_arcs: int | None = None,
        caps: np.ndarray | None = None,  # shape: (V,) int64
        tail: int = 0,
        lists: list[list[int]] | None = None,
    ) -> "CSRGraph":
        """A view over rows ``indices[starts[v]:ends[v]]``, as given.

        ``num_arcs`` is the number of live arcs (counted when None);
        ``caps``, ``tail`` and ``lists`` are what a graph's row buffers
        pass: the layout they rewrite the arrays by, and the adjacency
        lists of these rows if already expanded.
        """
        view = cls.__new__(cls)
        if num_arcs is None:
            num_arcs = int((ends - starts).sum())
        view._set(starts, ends, indices, num_arcs, caps, tail, lists)
        return view

    def _iota(self) -> np.ndarray:
        """A shared ``arange`` at least ``num_arcs`` long for the gather
        kernels (cached)."""
        if self._arange is None:
            self._arange = np.arange(len(self.indices), dtype=np.int64)
        return self._arange

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Any) -> "CSRGraph":
        """Encode any ``num_vertices``/``neighbors(v)`` provider, compactly.

        Works for :class:`DynamicGraph`, a digraph direction view, a
        :class:`WeightedDynamicGraph` (weights dropped) or a test double.
        Neighbour rows are sorted, making the encoding canonical for a
        given topology.
        """
        t0 = time.perf_counter()
        n = graph.num_vertices
        indptr = np.zeros(n + 1, dtype=np.int64)  # shape: (V+1,) int64
        chunks: list[list[int]] = []
        total = 0
        for v in range(n):
            neighbours = sorted(graph.neighbors(v))
            total += len(neighbours)
            indptr[v + 1] = total
            chunks.append(neighbours)
        indices = np.fromiter(
            (w for row in chunks for w in row), dtype=np.int64, count=total
        )
        record_freeze(time.perf_counter() - t0, n)
        return cls(indptr, indices)

    @classmethod
    def from_digraph(cls, digraph: Any) -> "tuple[CSRGraph, CSRGraph]":
        """The (forward, backward) pair of a :class:`DynamicDiGraph`."""
        return cls.from_graph(digraph.out_view()), cls.from_graph(
            digraph.in_view()
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.starts)

    @property
    def num_arcs(self) -> int:
        """Stored arcs (twice the edge count on undirected graphs)."""
        return self._num_arcs

    def neighbors(self, vertex: int) -> np.ndarray:
        """The neighbour row of ``vertex`` as an int64 array view."""
        return self.indices[self.starts[vertex] : self.ends[vertex]]

    def degree(self, vertex: int) -> int:
        return int(self.ends[vertex] - self.starts[vertex])

    def compact(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` with the rows back to back and no slack:
        the arrays :meth:`from_graph` gives for the same topology."""
        lengths = self.ends - self.starts
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)  # shape: (V+1,) int64
        np.cumsum(lengths, out=indptr[1:])
        return indptr, self.indices[
            gather_positions(self.starts, lengths, self._iota())
        ]

    def adjacency_lists(self) -> list[list[int]]:
        """The rows as a list-of-lists of Python ints (cached).

        A graph's first freeze keeps the sorted rows it lays out as these
        lists, and its next views reuse them with only the rewritten rows
        replaced; any other view expands them once, from the live arcs
        only.  The query kernel's set algebra, the batch search/repair
        traversals and :meth:`list_view` all read the same lists.  Treat
        them as frozen.
        """
        if self._lists is None:
            indptr, indices = self.compact()
            bounds = indptr.tolist()
            flat = indices.tolist()
            self._lists = [
                flat[bounds[v] : bounds[v + 1]]
                for v in range(len(bounds) - 1)
            ]
        return self._lists

    def list_view(self) -> CSRListView:
        """A :class:`CSRListView` for the pure-Python kernels.

        It reads the expanded adjacency lists when this view has them;
        otherwise rows are sliced on first read and memoised on this
        view, so a reader pays only for the rows it touches.
        """
        if self._lists is not None:
            return CSRListView(self._lists)
        if self._rows is None:
            self._rows = _SlicedRows(self.starts, self.ends, self.indices)
        return CSRListView(self._rows)

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, arcs={self.num_arcs})"


def as_csr(graph: Any) -> CSRGraph:
    """``graph`` as a frozen view: itself if it is one, the view it
    maintains (:class:`~repro.graph.dynamic_graph.DynamicGraph` and the
    digraph direction views own one), else a fresh
    :meth:`CSRGraph.from_graph` freeze."""
    if isinstance(graph, CSRGraph):
        return graph
    maintained = getattr(graph, "csr", None)
    return CSRGraph.from_graph(graph) if maintained is None else maintained()


# ----------------------------------------------------------------------
# frontier plumbing
# ----------------------------------------------------------------------


def gather_positions(
    starts: np.ndarray,  # shape: (k,) int64
    counts: np.ndarray,  # shape: (k,) int64
    iota: np.ndarray | None = None,
) -> np.ndarray:
    """The slots of ``k`` rows, concatenated: ``starts[j] + 0..counts[j]-1``.

    Vectorised ranges-to-indices: position ``k`` within a row offsets from
    that row's start, computed as a global arange minus the row's base in
    the concatenation.  Zero-length rows are handled naturally by repeat.
    ``iota``, when given, is an ``arange`` at least ``counts.sum()`` long.
    """
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        return _EMPTY
    offsets = np.repeat(starts - cum + counts, counts)
    ramp = np.arange(total) if iota is None else iota[:total]
    return offsets + ramp


def _gather_targets(
    starts: np.ndarray, ends: np.ndarray, indices: np.ndarray,
    frontier: np.ndarray, iota: np.ndarray | None = None,
) -> np.ndarray:
    """All arc targets out of ``frontier``, concatenated.

    ``starts``/``ends`` are a view's per-row bounds (``CSRGraph.starts``
    and ``CSRGraph.ends``).
    """
    lo = starts[frontier]
    positions = gather_positions(lo, ends[frontier] - lo, iota)
    return indices[positions] if positions.size else _EMPTY


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


def bfs_distances(csr: CSRGraph, source: int) -> np.ndarray:
    """Full single-source BFS; int64 distances with INF sentinels."""
    return bfs_distances_multi(csr, (source,))


def bfs_distances_multi(csr: CSRGraph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS (distance to the nearest source)."""
    dist = np.full(csr.num_vertices, INF, dtype=np.int64)  # shape: (V,) int64
    seeds = sorted_unique(np.fromiter(sources, dtype=np.int64))
    if not seeds.size:
        return dist
    dist[seeds] = 0
    frontier = seeds
    starts, ends, indices = csr.starts, csr.ends, csr.indices
    iota = csr._iota()
    level = 0
    while frontier.size:
        level += 1
        targets = _gather_targets(starts, ends, indices, frontier, iota)
        if not targets.size:
            break
        fresh = targets[dist[targets] >= INF]
        if not fresh.size:
            break
        frontier = sorted_unique(fresh)
        dist[frontier] = level
    return dist


#: Roots per pass of :func:`landmark_sweep`: one bit of a uint64 word
#: per root, so more roots run in successive groups of this many.
SWEEP_ROOTS = 64

#: Arcs a sweep gathers per step: a wider level runs in steps, so its
#: scratch stays a few MB whatever the frontier's width.
_SWEEP_ARCS = 1 << 16

_ZERO, _ONE = np.uint64(0), np.uint64(1)


class LandmarkSweep(NamedTuple):
    """The landmark lengths of several roots, and what the sweep cost."""

    #: ``dist[v, i] = d(roots[i], v)``, INF where unreachable.
    dist: np.ndarray  # shape: (V, K) int64
    #: ``flag[v, i]``: some shortest ``roots[i]``-v path passes through a
    #: landmark other than ``roots[i]``.
    flag: np.ndarray  # shape: (V, K) bool
    #: Frontier expansions, summed over the root groups.
    levels: int
    #: Arcs those expansions gathered.
    arcs: int


def landmark_sweep(
    csr: CSRGraph,
    roots: Sequence[int],
    is_landmark: np.ndarray,  # shape: (V,) bool
    dist: np.ndarray | None = None,  # shape: (V, K) int64
) -> LandmarkSweep:
    """Landmark-flagged BFS :math:`d^L_G(r, \\cdot)` from every root at once.

    Column ``i`` of the result is exactly
    :func:`repro.core.construction.bfs_landmark_lengths` from
    ``roots[i]``: the distances, and a flag that is True iff some
    shortest path passes through a landmark other than the root
    (endpoints count, the root does not).  ``dist``, when given, is the
    C-order (V, K) int64 array, K = ``len(roots)``, the distances are
    written into.  Duplicate roots give equal columns.

    Up to :data:`SWEEP_ROOTS` roots sweep together, root ``j`` as bit
    ``j`` of a uint64 word per vertex; more run in successive groups.
    Per vertex a group keeps ``visited`` and the flags; per frontier
    vertex, the bits that reached it at the previous level (``new``) and
    which of those are flagged.  A level gathers the arcs out of the
    union frontier once, ORs ``new[src] & ~visited[dst]`` and its flagged
    bits into each target, flags every new bit on a landmark head
    (Lemma 5.14), and writes the level into ``dist`` for each new bit.
    """
    n = csr.num_vertices
    width = len(roots)
    if dist is None:
        dist = np.empty((n, width), dtype=np.int64)  # shape: (V, K) int64
    if dist.shape != (n, width) or not dist.flags.c_contiguous:
        raise ValueError("dist must be a C-order (V, len(roots)) array")
    dist.fill(INF)
    flag = np.empty((n, width), dtype=bool)  # shape: (V, K) bool
    cells = dist.reshape(-1)  # row v holds cells v * width + i
    starts, ends, indices = csr.starts, csr.ends, csr.indices
    iota = csr._iota()
    levels = arcs = 0
    for base in range(0, width, SWEEP_ROOTS):
        group = np.asarray(roots[base : base + SWEEP_ROOTS], dtype=np.int64)
        k = len(group)
        visited = np.zeros(n, dtype=np.uint64)  # shape: (V,) uint64
        flags = np.zeros(n, dtype=np.uint64)  # shape: (V,) uint64
        reach = np.zeros(n, dtype=np.uint64)  # shape: (V,) uint64
        carry = np.zeros(n, dtype=np.uint64)  # shape: (V,) uint64
        stamp = np.empty(n, dtype=np.int64)  # shape: (V,) int64
        np.bitwise_or.at(visited, group, _ONE << np.arange(k, dtype=np.uint64))
        cells[group * width + base + np.arange(k)] = 0
        frontier = np.flatnonzero(visited)
        new = visited[frontier]
        new_flags = np.zeros(len(frontier), dtype=np.uint64)
        for level in count(1):
            levels += 1
            lo = starts[frontier]
            counts = ends[frontier] - lo
            cum = np.cumsum(counts)
            arcs += int(cum[-1])
            cuts = np.searchsorted(
                cum, np.arange(_SWEEP_ARCS, cum[-1], _SWEEP_ARCS), side="right"
            )
            pieces = []
            for a, b in pairwise([0, *cuts.tolist(), len(frontier)]):
                targets = indices[gather_positions(lo[a:b], counts[a:b], iota)]
                fresh = np.repeat(new[a:b], counts[a:b])
                fresh &= ~visited[targets]
                live = np.flatnonzero(fresh)
                if not live.size:
                    continue
                targets, fresh = targets[live], fresh[live]
                flagged = np.repeat(new_flags[a:b], counts[a:b])[live]
                flagged &= fresh
                # Each target once: the arc that stamped it last; and only
                # if no earlier step of this level reached it.
                ramp = iota[: len(targets)]
                stamp[targets] = ramp
                firsts = targets[stamp[targets] == ramp]
                pieces.append(firsts[reach[firsts] == 0])
                np.bitwise_or.at(reach, targets, fresh)
                np.bitwise_or.at(carry, targets, flagged)
            if not pieces:
                break
            frontier = np.concatenate(pieces)
            new = reach[frontier]
            new_flags = np.where(is_landmark[frontier], new, carry[frontier])
            reach[frontier] = carry[frontier] = 0
            visited[frontier] |= new
            flags[frontier] |= new_flags
            _write_bits(cells, frontier * width + base, new, level)
        flag[:, base : base + k] = np.unpackbits(
            flags.astype("<u8", copy=False).view(np.uint8).reshape(n, 8),
            axis=1,
            count=k,
            bitorder="little",
        )
    return LandmarkSweep(dist, flag, levels, arcs)


def _write_bits(
    cells: np.ndarray,  # shape: (*,) int64
    rows: np.ndarray,  # shape: (*,) int64
    words: np.ndarray,  # shape: (*,) uint64
    value: int,
) -> None:
    """``cells[rows[j] + b] = value`` for every set bit ``b`` of
    ``words[j]``, one lowest bit per round."""
    while rows.size:
        low = words & (_ZERO - words)
        # A power of two converts to float64 exactly; its exponent is b.
        cells[rows + (low.astype(np.float64).view(np.int64) >> 52) - 1023] = value
        words = words ^ low
        more = np.flatnonzero(words)
        rows, words = rows[more], words[more]


#: Frontier width at which the adaptive bidirectional kernel switches
#: from Python set algebra to vectorised numpy frontiers.  Below this
#: the per-call dispatch overhead of numpy outweighs the per-element cost
#: of the set operations; above it whole-frontier array ops win.
SWITCH_WIDTH = 64

#: Minimum remaining level budget (``bound - depth - 1``) for the vector
#: phase to be worth its state-conversion cost.  A search about to be cut
#: off by a tight labelling bound finishes in Python even when a
#: frontier is momentarily wide.
_MIN_VECTOR_LEVELS = 3


def bidirectional_distance(
    csr: CSRGraph,
    source: int,
    target: int,
    excluded: Collection[int] = (),
    bound: int = INF,
    backward: "CSRGraph | None" = None,
    switch_width: int = SWITCH_WIDTH,
) -> int:
    """Distance-bounded bidirectional BFS over ``G[V \\ excluded]``.

    The CSR twin of :func:`repro.graph.traversal.bidirectional_bfs`:
    expands the smaller frontier (ties go forward), never explores paths
    of length >= ``bound``, and returns the distance or ``bound`` itself.
    ``excluded`` is any collection of node ids (landmark exclusion);
    ``backward`` is the reverse-direction CSR for digraphs.

    Levels are synchronous, so the first meet is the answer: while the
    two sides' ``seen`` sets are disjoint the distance exceeds the levels
    expanded so far (``depth``), so a new level can only meet the other
    frontier, at distance exactly ``depth + 1``.  A narrow level is set
    algebra over the adjacency lists: the frontier's rows in one set,
    minus ``seen`` and ``excluded``, then one ``isdisjoint`` against the
    other frontier.  The last level the bound allows builds no set; it
    tests rows against the other frontier and stops at the first hit.
    Once a frontier exceeds ``switch_width`` with level budget left (as
    on grid/road-shaped graphs), the sets become bool masks and later
    levels run as vectorised sweeps under the same rule.
    """
    if source == target:
        return 0
    if source in excluded or target in excluded:
        return bound
    if backward is None:
        backward = csr
    adj_fwd = csr.adjacency_lists()
    adj_bwd = adj_fwd if backward is csr else backward.adjacency_lists()
    seen_fwd, front_fwd = {source}, {source}
    seen_bwd, front_bwd = {target}, {target}
    depth = 0  # levels expanded, both sides together

    # -- Python phase: narrow frontiers as sets -----------------------
    wide = switch_width < 1  # whether the newest frontier is wide
    while depth + 1 < bound:
        if wide and bound - depth - 1 >= _MIN_VECTOR_LEVELS:
            break  # wide regime with budget left: go vectorised
        forward = len(front_fwd) <= len(front_bwd)
        if forward:
            frontier, other, seen, adj = front_fwd, front_bwd, seen_fwd, adj_fwd
        else:
            frontier, other, seen, adj = front_bwd, front_fwd, seen_bwd, adj_bwd
        if depth + 2 >= bound:  # the last level: test rows, build no set
            for v in frontier:
                if not other.isdisjoint(adj[v]):
                    return depth + 1
            return bound
        if len(frontier) == 1:  # no chain: first levels, path-like graphs
            (v,) = frontier
            level = set(adj[v])
        else:
            level = set(chain.from_iterable(map(adj.__getitem__, frontier)))
        level -= seen
        level.difference_update(excluded)
        if not level.isdisjoint(other):
            return depth + 1
        if not level:
            return bound
        seen |= level
        wide = len(level) > switch_width
        if forward:
            front_fwd = level
        else:
            front_bwd = level
        depth += 1
    if depth + 1 >= bound:
        return bound

    # -- vector phase: bool masks, numpy frontier sweeps --------------
    n = csr.num_vertices
    barred = _int_array(excluded)
    barred = barred[barred < n]
    mask_fwd = np.zeros(n, dtype=bool)  # shape: (V,) bool
    mask_bwd = np.zeros(n, dtype=bool)  # shape: (V,) bool
    mask_fwd[barred] = mask_bwd[barred] = True  # never entered or met
    mask_fwd[_int_array(seen_fwd)] = True
    mask_bwd[_int_array(seen_bwd)] = True
    wave_fwd, wave_bwd = _int_array(front_fwd), _int_array(front_bwd)
    while depth + 1 < bound:
        forward = wave_fwd.size <= wave_bwd.size
        if forward:
            view, wave, marked, met = csr, wave_fwd, mask_fwd, mask_bwd
        else:
            view, wave, marked, met = backward, wave_bwd, mask_bwd, mask_fwd
        targets = _gather_targets(
            view.starts, view.ends, view.indices, wave, view._iota()
        )
        fresh = targets[~marked[targets]]
        if met[fresh].any():
            return depth + 1
        if not fresh.size or depth + 2 >= bound:
            return bound
        wave = sorted_unique(fresh)
        marked[wave] = True
        if forward:
            wave_fwd = wave
        else:
            wave_bwd = wave
        depth += 1
    return bound


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of 1-D ids by a sort and a neighbour compare (numpy
    2.x's ``np.unique`` hashes, several times slower on frontiers)."""
    ordered = np.sort(ids)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _int_array(items: Collection[int]) -> np.ndarray:
    """``items`` as an int64 array (any order)."""
    return np.fromiter(items, dtype=np.int64, count=len(items))
