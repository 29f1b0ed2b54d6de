"""Shard task bodies executed inside worker processes.

Everything here is module-level and operates on picklable inputs only, so
the tasks work under any multiprocessing start method (fork, spawn,
forkserver).  A shard task owns a contiguous slice of the landmark set:
labels and landmark distances for different landmarks are disjoint
columns of the label matrix and of D (Section 6 of the paper), so each
worker repairs into private scratch for exactly the columns its landmarks
own and ships back a **sparse change set** — ``(vertex, landmark, value)``
triples for the label and D cells plus changed highway cells — instead
of whole columns.

The kernels read the old state where it lies: process_one_landmark
hands them the shared labelling's O(1) reader (a read-only view of D's
column and Lemma 5.14 flags evaluated only at the vertices they touch),
so the only O(V) work per landmark left in a shard is the private
scratch copy of the label and D columns that repair writes into.

State arrives through :class:`~repro.parallel.snapshot.ShardStateMeta`:
the worker attaches the writer's shared-memory blocks once, caches the
attachment (and the array views derived from it) at module level, and
reuses it for every later batch.  A generation bump in the meta means the
writer reallocated (vertex growth beyond the headroom, changed landmark
set); the worker then drops its maps and re-attaches.  The attach cache
also makes a replacement worker after a pool crash self-healing — its
cache starts empty, so the first task it runs re-attaches.

Highway symmetry across shards: landmark ``i``'s repair writes ``H[i, j]``
(and mirrors ``H[j, i]`` locally).  The mirror write is discarded when the
shard only exports its own rows — safely, because a changed landmark-to-
landmark distance makes *both* endpoints affected in each other's searches
(distances are symmetric on undirected graphs), so row ``j`` receives the
identical value from landmark ``j``'s own repair in whichever shard owns
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.core.batch_search import OrientedUpdate
from repro.core.batchhl import (
    changed_entries,
    edge_kernels,
    process_one_landmark,
)
from repro.core.construction import landmark_columns
from repro.core.labelling import HighwayCoverLabelling
from repro.graph.csr import CSRGraph
from repro.parallel.snapshot import STATE_FIELDS, ShardStateMeta

#: Per-landmark outcome, same shape process_landmarks reports:
#: (n_affected, search_seconds, repair_seconds, cells_changed, affected).
LandmarkOutcome = tuple[int, float, float, int, list[int]]

#: prefix -> (generation, {field: SharedMemory}); survives across tasks.
_segments: dict[str, tuple[int, dict[str, shared_memory.SharedMemory]]] = {}
#: prefix -> (meta key, CSR row-array views, old-labelling wrapper).
_views: dict[str, tuple[Any, ...]] = {}


def _attach_segments(
    meta: ShardStateMeta,
) -> tuple[dict[str, shared_memory.SharedMemory], int, int]:
    """Attach (or re-attach) this process to the writer's blocks.

    Returns ``(blocks, attached, remapped)`` where the counters say
    whether this call had to map fresh blocks (first contact with the
    prefix) or replace stale ones (generation bump).
    """
    entry = _segments.get(meta.prefix)
    if entry is not None and entry[0] == meta.generation:
        return entry[1], 0, 0
    attached = remapped = 0
    if entry is None:
        attached = 1
    else:
        remapped = 1
        for block in entry[1].values():
            block.close()
        _views.pop(meta.prefix, None)
    blocks: dict[str, shared_memory.SharedMemory] = {}
    for field in STATE_FIELDS:
        # Attaching re-registers the name with the resource tracker, but
        # multiprocessing passes the tracker fd to its children (fork,
        # forkserver and POSIX spawn alike), so this lands in the SAME
        # tracker the writer registered with: the duplicate collapses in
        # its name set, and a dying worker cannot trigger an unlink of
        # writer-owned blocks.  Unregistering here would instead cancel
        # the writer's registration and break its leak safety net.
        blocks[field] = shared_memory.SharedMemory(name=meta.block_name(field))
    _segments[meta.prefix] = (meta.generation, blocks)
    return blocks, attached, remapped


def _attach_state(
    meta: ShardStateMeta,
) -> tuple[
    tuple[np.ndarray, np.ndarray, np.ndarray], HighwayCoverLabelling, int, int
]:
    """Array views over the shared state described by ``meta``.

    The views (and the ``HighwayCoverLabelling`` wrapper, whose
    construction is O(V) for the landmark mask) are cached per prefix and
    rebuilt only when the generation or the actual sizes change — blocks
    are over-allocated, so V/E routinely change within one generation.
    All views are read-only: workers copy what they mutate.
    """
    blocks, attached, remapped = _attach_segments(meta)
    key = (meta.generation, meta.num_vertices, meta.num_slots, meta.landmarks)
    cached = _views.get(meta.prefix)
    if cached is not None and cached[0] == key:
        return cached[1], cached[2], attached, remapped
    n, slots, r = meta.num_vertices, meta.num_slots, len(meta.landmarks)
    starts = np.ndarray((n,), np.int64, buffer=blocks["starts"].buf)
    ends = np.ndarray((n,), np.int64, buffer=blocks["ends"].buf)
    indices = np.ndarray((slots,), np.int64, buffer=blocks["indices"].buf)
    labels = np.ndarray((n, r), np.int64, buffer=blocks["labels"].buf)
    highway = np.ndarray((r, r), np.int64, buffer=blocks["highway"].buf)
    dist = np.ndarray((n, r), np.int64, buffer=blocks["dist"].buf)
    for view in (starts, ends, indices, labels, highway, dist):
        view.flags.writeable = False
    labelling = HighwayCoverLabelling(labels, highway, meta.landmarks, dist)
    rows = (starts, ends, indices)
    _views[meta.prefix] = (key, rows, labelling)
    return rows, labelling, attached, remapped


class _ColumnStore:
    """Quacks like the label matrix or D for the columns one shard owns.

    The repair kernels address both exclusively as
    ``matrix[rows, landmark_idx]`` with the landmark they are repairing —
    a dict of private per-column scratch arrays serves those reads and
    writes without copying the other R-1 columns.  A landmark outside the
    shard raises ``KeyError``: no kernel write may ever escape the shard.
    """

    __slots__ = ("columns",)

    def __init__(self, base: np.ndarray, shard: list[int]) -> None:
        # Column of a C-order matrix: the copy also de-strides it.
        self.columns = {i: base[:, i].copy() for i in shard}

    def __getitem__(self, key: tuple[Any, int]) -> Any:
        rows, col = key
        return self.columns[col][rows]

    def __setitem__(self, key: tuple[Any, int], value: Any) -> None:
        rows, col = key
        self.columns[col][rows] = value


class _ShardScratch:
    """Worker-private ``labelling_new`` restricted to one shard.

    Duck-types the slice of :class:`HighwayCoverLabelling` the repair
    kernels touch: label and D access through :class:`_ColumnStore`
    (the shard's columns copied from the shared matrices), a private
    highway copy (repair reads earlier landmarks' refreshed rows within
    the shard, and mirror writes must not escape the process), and the
    shared landmark bookkeeping, which repair never mutates.
    """

    __slots__ = ("labels", "dist", "highway", "landmarks", "landmark_index")

    def __init__(self, base: HighwayCoverLabelling, shard: list[int]) -> None:
        self.labels = _ColumnStore(base.labels, shard)
        self.dist = _ColumnStore(base.dist, shard)
        self.highway = base.highway.copy()
        self.landmarks = base.landmarks
        self.landmark_index = base.landmark_index

    def set_highway(self, i: int, j: int, distance: int) -> None:
        self.highway[i, j] = distance

    def set_highway_symmetric(self, i: int, j: int, distance: int) -> None:
        self.highway[i, j] = distance
        self.highway[j, i] = distance


#: One matrix's sparse change set: parallel ``(rows, cols, vals)``
#: arrays, applied as ``matrix[rows, cols] = vals``.
ChangeSet = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class ShardResult:
    """Sparse change set one update shard ships back to the writer.

    ``changes`` maps each labelling matrix the shard rewrote —
    ``"labels"``, ``"dist"`` (D) and ``"highway"`` (this shard's rows
    only) — to its :data:`ChangeSet`.  Payload is O(|changed|), not
    O(V · |shard|).
    """

    shard: list[int]
    changes: dict[str, ChangeSet]
    outcomes: list[LandmarkOutcome]
    #: total worker wall time for the shard (attach + search + repair).
    wall_seconds: float
    #: 1 if this task mapped the shared blocks for the first time.
    attached: int = 0
    #: 1 if this task replaced stale maps after a generation bump.
    remapped: int = 0

    @property
    def payload_bytes(self) -> int:
        """Shipped result size: change arrays + affected lists."""
        return sum(
            array.nbytes
            for change in self.changes.values()
            for array in change
        ) + sum(8 * len(outcome[4]) for outcome in self.outcomes)


def run_update_shard(
    meta: ShardStateMeta,
    shard: list[int],
    oriented: list[OrientedUpdate],
    improved: bool,
) -> ShardResult:
    """Batch search + repair for every landmark in ``shard``.

    Mirrors one iteration of the sequential per-landmark loop through
    :func:`~repro.core.batchhl.process_one_landmark`: the kernels read
    the old landmark lengths in place from the shared D and labels (no
    per-landmark copy of either), the search runs over the shared CSR of
    G', and repair writes into per-column scratch.  Only the changed
    entries leave the process.
    """
    t0 = time.perf_counter()
    rows, labelling_old, attached, remapped = _attach_state(meta)
    # A fresh CSRGraph per task: the rows the kernels' narrow phase
    # slices from it on first read (CSRGraph.list_view) are memoised on
    # it, and must not outlive this batch — the writer rewrites the block
    # contents in place between batches.  Wrapping is O(1); the arrays
    # are shared, and a task pays for the rows it reads, not for
    # expanding all V of them.
    csr = CSRGraph.from_rows(*rows)
    scratch = _ShardScratch(labelling_old, shard)
    kernels = edge_kernels(improved)

    outcomes: list[LandmarkOutcome] = []
    pieces: dict[str, list[ChangeSet]] = {"labels": [], "dist": []}
    for i in shard:
        n_affected, search_s, repair_s, changed, affected, _ = (
            process_one_landmark(
                csr, None, labelling_old, scratch, oriented, i, kernels
            )
        )
        outcomes.append((n_affected, search_s, repair_s, changed, affected))
        for field, field_pieces in pieces.items():
            rows, vals = changed_entries(
                getattr(labelling_old, field),
                getattr(scratch, field).columns[i],
                i,
                affected,
            )
            field_pieces.append(
                (rows, np.full(rows.size, i, dtype=np.int64), vals)
            )
    changes: dict[str, ChangeSet] = {}
    for field, field_pieces in pieces.items():
        # One piece per landmark, and shards are never empty.
        rows, cols, vals = (
            np.concatenate(part) for part in zip(*field_pieces)
        )
        changes[field] = (rows, cols, vals)

    shard_arr = np.asarray(shard, dtype=np.int64)
    old_rows = labelling_old.highway[shard_arr, :]
    new_rows = scratch.highway[shard_arr, :]
    h_r, h_c = np.nonzero(new_rows != old_rows)
    changes["highway"] = (
        shard_arr[h_r],
        h_c.astype(np.int64, copy=False),
        new_rows[h_r, h_c],
    )

    return ShardResult(
        shard=list(shard),
        changes=changes,
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - t0,
        attached=attached,
        remapped=remapped,
    )


@dataclass
class BuildShardResult:
    """What one construction shard ships back to the writer."""

    shard: list[int]
    #: (V, len(shard)) — minimal label columns, in ``shard`` order.
    columns: np.ndarray
    #: (len(shard), R) — highway rows ``H[i, j] = d(r_i, r_j)``.
    highway_rows: np.ndarray
    #: (V, len(shard)) — D columns ``D[v, i] = d(r_i, v)``.
    dist_columns: np.ndarray
    wall_seconds: float


def run_build_shard(
    starts: np.ndarray,
    ends: np.ndarray,
    indices: np.ndarray,
    landmarks: tuple[int, ...],
    shard: list[int],
) -> BuildShardResult:
    """The label columns, highway rows and D columns of ``shard``'s
    landmarks, from one landmark sweep over all of them.

    The minimality rule is per landmark (Lemma 5.14: label a vertex iff
    reachable, not a landmark, flag False), so construction shards are
    fully independent given the graph and the landmark set.  The arrays
    are wrapped as a :class:`CSRGraph` directly — the sweep reads them
    without expanding Python adjacency lists.  Dense columns are the
    right payload here: construction writes every cell once, so there is
    no delta to ship.
    """
    t0 = time.perf_counter()
    graph = CSRGraph.from_rows(starts, ends, indices)
    n = graph.num_vertices
    is_landmark = np.zeros(n, dtype=bool)
    is_landmark[list(landmarks)] = True
    columns = np.empty((n, len(shard)), dtype=np.int64)
    highway_rows = np.empty((len(shard), len(landmarks)), dtype=np.int64)
    dist_columns = np.empty((n, len(shard)), dtype=np.int64)
    landmark_columns(
        graph,
        [landmarks[i] for i in shard],
        is_landmark,
        landmarks,
        columns,
        highway_rows,
        dist_columns,
    )
    return BuildShardResult(
        shard=list(shard),
        columns=columns,
        highway_rows=highway_rows,
        dist_columns=dist_columns,
        wall_seconds=time.perf_counter() - t0,
    )
