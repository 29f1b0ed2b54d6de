"""The CSR views a graph maintains, and the in-place row writes behind them.

A graph publishes its topology as a :class:`~repro.graph.csr.CSRGraph`
view and keeps writing its adjacency sets; every traversal direction
(one on :class:`~repro.graph.dynamic_graph.DynamicGraph`, two on
:class:`~repro.graph.digraph.DynamicDiGraph`) owns one
:class:`RowBuffers`.  The next view must leave the last one alone, since
a snapshot may still be reading it, and should cost work in proportion
to the rows written, not O(V + E).  So a view's rows have slack (slots
past each row's degree, and a reserve at the tail), and the buffers keep
a *back pair*: the view before last, and the rows where it differs from
the current view.  Freezing the next view then

* recycles the back pair when only the pair references the view and
  its ``starts``, ``ends``, ``indices`` and adjacency-list list (a
  CPython reference count): it replays the rows written in the last two
  epochs into those arrays, each in place or, once it outgrows its
  slots, at the tail, and assigns the same rows in the list;
* otherwise relays out: one vectorised pass over the current view with
  the written rows re-sorted from the adjacency sets and fresh slack.
  That happens on the first freeze, after growth, when a reader holds
  the back view or any of its arrays, when the tail is full, when the
  rows to replay pass their break-even share of V (:data:`_REPLAY_SHARE`),
  and on a copy's first freeze (a copy shares the view, never the pair).
  The first freeze sorts every row from the adjacency sets anyway, and
  keeps those lists, which share the sets' int objects, as the view's
  adjacency lists; later relayouts copy the list and replace the
  written rows.

Either way the view being replaced becomes the next back pair, so a
graph alternates between two sets of row buffers.  Each freeze counts
``repro_csr_buffers_total{path="recycled"|"relaid"}``.  This is the
only module that writes into a view's arrays.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Collection, NamedTuple, Sequence

import numpy as np

from repro.graph.csr import CSRGraph, gather_positions, record_freeze
from repro.obs.metrics import get_registry

#: ``sys.getrefcount`` of the back view, or of one of its arrays or its
#: list, that only the back pair references, read straight from the
#: attribute as :meth:`RowBuffers.freeze` reads it: the holder's own
#: reference plus the one passed to ``getrefcount``.  A snapshot, a
#: slice, a reader or a local name adds to it.  The (V, 2) array that
#: ``starts`` and ``ends`` are the columns of has one more: each column
#: references it, and so does every slice of either.
#: ``tests/test_graph_sharing.py`` pins the values.
_UNHELD_REFS = 2
_UNHELD_BOUNDS_REFS = _UNHELD_REFS + 1

#: The slack policy.  A laid-out row of degree d gets
#: ``d + max(_MIN_SLACK, d >> _SLACK_SHIFT)`` slots, and the tail keeps
#: ``max(_MIN_TAIL, slots >> _TAIL_SHIFT)`` more for rows that outgrow
#: theirs; a moved row gets the same slack on its new length.
_MIN_SLACK = 2
_SLACK_SHIFT = 3
_MIN_TAIL = 16
_TAIL_SHIFT = 4

#: Relay out instead of recycling once the rows to replay pass
#: ``_REPLAY_SHARE * V + _REPLAY_ROWS``: past that, replaying row by row
#: costs more than one vectorised relayout.  Measured on Barabási–Albert
#: graphs (m = 3–4, rows drawn from random edges, so hubs come often):
#: the two cost the same at ~12% of V on 100k vertices, and the
#: relayout's fixed cost keeps recycling ahead up to ~250 replayed rows
#: on 1k vertices and on every replay that fits 60 vertices.
_REPLAY_SHARE = 0.12
_REPLAY_ROWS = 64


class _BackRows(NamedTuple):
    """The view before last, and the rows where it differs from the
    current view (the rows that view's freeze wrote)."""

    view: CSRGraph
    rows: set[int]


def _slack(degrees: np.ndarray) -> np.ndarray:
    """Slots for rows of these degrees."""
    return degrees + np.maximum(_MIN_SLACK, degrees >> _SLACK_SHIFT)


def _record_path(path: str) -> None:
    get_registry().counter(
        "repro_csr_buffers_total",
        "CSR freezes by how their row buffers were made",
        ("path",),
    ).labels(path=path).inc()


class RowBuffers:
    """One traversal direction's CSR views: the current one, the rows
    written since, and the back pair its next freeze may recycle."""

    __slots__ = ("view", "dirty", "_back")

    def __init__(
        self, view: CSRGraph | None = None, dirty: Collection[int] = ()
    ) -> None:
        #: The view as of the last freeze (None before the first).
        self.view = view
        #: Rows written since; graphs track them only once a view exists.
        self.dirty: set[int] = set(dirty)
        self._back: _BackRows | None = None

    def fork(self) -> "RowBuffers":
        """What a copy-on-write clone starts from: this view and these
        dirty rows, but no back pair, so no two graphs ever recycle the
        same arrays."""
        return RowBuffers(self.view, self.dirty)

    def up_to_date(self, num_vertices: int) -> CSRGraph | None:
        """:attr:`view` if it is still the topology of a graph with
        ``num_vertices`` rows (nothing written or grown since), else
        None."""
        view = self.view
        if view is None or self.dirty or view.num_vertices != num_vertices:
            return None
        return view

    def freeze(
        self, adjacency: Sequence[Collection[int]]
    ) -> tuple[CSRGraph, bool, int]:
        """Make :attr:`view` the CSR of ``adjacency``, whose rows outside
        :attr:`dirty` must equal the current view's (rows past its vertex
        count: empty).

        Returns the new view, whether the back pair was recycled, and
        how many rows were replayed into it (0 on a relayout).  The pair
        is taken off first, so a freeze that fails part-way leaves the
        next one relaying out from the unchanged current view.
        """
        t0 = time.perf_counter()
        front, dirty = self.view, self.dirty
        back, self._back = self._back, None
        n = len(adjacency)
        view, replayed = None, 0
        if back is not None and front is not None:
            written = dirty | back.rows
            view = _recycle(back, front, adjacency, dirty, written)
            replayed = 0 if view is None else len(written)
        if view is None:
            view = _relayout(front, adjacency, dirty, n)
        if front is not None and front._caps is not None:
            self._back = _BackRows(front, dirty)
        self.view = view
        self.dirty = set()
        _record_path("recycled" if replayed else "relaid")
        record_freeze(
            time.perf_counter() - t0, n if front is None else len(dirty)
        )
        return view, replayed > 0, replayed


def _recycle(
    back: _BackRows,
    front: CSRGraph,
    adjacency: Sequence[Collection[int]],
    dirty: set[int],
    written: set[int],
) -> CSRGraph | None:
    """The next view, written into the back view's arrays by replaying
    the ``written`` rows; None when the arrays are held, the rows do not
    fit, or replaying them would cost more than a relayout."""
    n = len(adjacency)
    if back.view.num_vertices != n or back.view._caps is None:
        return None
    if len(written) > _REPLAY_SHARE * n + _REPLAY_ROWS:
        return None
    if sys.getrefcount(back.view) != _UNHELD_REFS:
        return None  # a snapshot or reader holds the view itself
    if (
        sys.getrefcount(back.view.starts) != _UNHELD_REFS
        or sys.getrefcount(back.view.ends) != _UNHELD_REFS
        or sys.getrefcount(back.view.starts.base) != _UNHELD_BOUNDS_REFS
        or sys.getrefcount(back.view.indices) != _UNHELD_REFS
        or sys.getrefcount(back.view._lists) != _UNHELD_REFS
    ):
        return None
    old = back.view
    starts, ends, indices, caps = old.starts, old.ends, old.indices, old._caps
    order = sorted(written)
    kept = front.adjacency_lists()
    rows = [sorted(adjacency[v]) if v in dirty else kept[v] for v in order]
    at = np.fromiter(order, dtype=np.int64, count=len(order))
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    tail = old._tail
    outgrown = lengths > caps[at]
    if outgrown.any():
        moved = at[outgrown]
        moved_caps = _slack(lengths[outgrown])
        needed = int(moved_caps.sum())
        if tail + needed > len(indices):
            return None  # the tail is full
        starts[moved] = tail + np.cumsum(moved_caps) - moved_caps
        caps[moved] = moved_caps
        tail += needed
    ends[at] = starts[at] + lengths
    arcs = int(lengths.sum())
    indices[gather_positions(starts[at], lengths)] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.int64, count=arcs
    )
    lists = old.adjacency_lists()
    for v, row in zip(order, rows):
        lists[v] = row
    num_arcs = front.num_arcs + arcs - int((front.ends[at] - front.starts[at]).sum())
    view = CSRGraph.from_rows(starts, ends, indices, num_arcs, caps, tail, lists)
    _carry_iota(front, view)
    return view


def _relayout(
    front: CSRGraph | None,
    adjacency: Sequence[Collection[int]],
    dirty: set[int],
    n: int,
) -> CSRGraph:
    """The next view in fresh arrays: ``front``'s rows copied over in one
    vectorised pass, the ``dirty`` rows (every row on a first freeze,
    whose sorted rows become the view's adjacency lists) re-sorted from
    ``adjacency``, and fresh slack."""
    order = range(n) if front is None else sorted(dirty)
    rows = [sorted(adjacency[v]) for v in order]
    at = np.fromiter(order, dtype=np.int64, count=len(rows))
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    n_old = 0 if front is None else front.num_vertices
    degrees = np.zeros(n, dtype=np.int64)  # shape: (V,) int64
    if front is not None:
        kept = front.ends - front.starts
        degrees[:n_old] = kept
        kept[at[at < n_old]] = 0  # dirty rows come from the sets
    degrees[at] = lengths
    caps = _slack(degrees)
    # A row's start and end side by side: a frontier gather reads both
    # from one cache line (two separate arrays made searches ~4% slower).
    bounds = np.empty((n, 2), dtype=np.int64)  # shape: (V, 2) int64
    starts, ends = bounds[:, 0], bounds[:, 1]
    starts[:1] = 0
    np.cumsum(caps[:-1], out=starts[1:])
    np.add(starts, degrees, out=ends)
    laid = int(caps.sum())
    indices = np.empty(  # shape: (S,) int64
        laid + max(_MIN_TAIL, laid >> _TAIL_SHIFT), dtype=np.int64
    )
    if front is not None:
        source = gather_positions(front.starts, kept, front._iota())
        shift = np.repeat(starts[:n_old] - front.starts, kept)
        indices[source + shift] = front.indices[source]
    indices[gather_positions(starts[at], lengths)] = np.fromiter(
        itertools.chain.from_iterable(rows),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    if front is None:
        lists = rows  # every row, sorted, in order
    else:
        lists = front.adjacency_lists().copy()
        lists.extend([] for _ in range(n - n_old))
        for v, row in zip(order, rows):
            lists[v] = row
    view = CSRGraph.from_rows(
        starts, ends, indices, int(degrees.sum()), caps, laid, lists
    )
    if front is not None:
        _carry_iota(front, view)
    return view


def _carry_iota(front: CSRGraph, view: CSRGraph) -> None:
    """Let ``view`` share ``front``'s gather ``arange`` when it is long
    enough for every gather over ``view``'s arcs."""
    iota = front._arange
    if iota is not None and len(iota) >= view.num_arcs:
        view._arange = iota
