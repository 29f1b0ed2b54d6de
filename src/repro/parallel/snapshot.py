"""Shared-memory shard state + compact snapshots for the processes backend.

A worker process needs exactly two things to run batch search + repair for
a set of landmarks: the *updated* graph G' and the *old* labelling Γ with
its landmark-distance matrix D.  The processes backend used to pickle
both, per shard, per batch — an O(V + E + V·R) payload that erased the
landmark-parallel speedup.  The replacement lives here:

:class:`SharedShardState` owns six named ``multiprocessing.shared_memory``
blocks — the CSR ``starts``/``ends``/``indices`` of G', slack slots
included, plus the label, highway and D matrices of Γ — sized with
capacity headroom so vertex/edge growth within
the headroom reuses the same blocks.  Workers attach by name in O(1) on
first use and **stay attached across batches**; a monotonically increasing
*generation* stamped into every block name tells a worker when the writer
had to reallocate (growth beyond the headroom, or a changed landmark set)
and its mapped views are stale.  Per batch the writer memcpys the frozen
CSR arrays into the blocks as they are, slack slots included (topology
changes every batch; a memcpy is cheap, and no compaction runs) and
re-syncs the label/highway/D matrices **only when it cannot prove the
blocks already hold them** — after a merge the pool scatters the returned
change sets into the shared matrices too, so steady-state flushes publish
zero label bytes.

Lifecycle: the writer creating a block owns it.  ``close()`` unlinks every
block (also registered via ``atexit`` as a safety net for pools that are
never closed); workers only ever ``close()`` their attachment maps.
Attaching workers never touch ``resource_tracker``: fork/forkserver
children (and POSIX spawn children) share the *writer's* tracker process,
so a worker-side ``unregister`` would cancel the writer's registration
and leak the segment on abnormal exit.  Registration bookkeeping belongs
to the owning :class:`SharedShardState` alone — reprolint's SHM001 rule
enforces exactly this.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.labelling import HighwayCoverLabelling
from repro.errors import BatchError
from repro.graph.csr import CSRGraph
from repro.obs.log import get_logger

_log = get_logger("repro.parallel.snapshot")

#: Block fields, in a fixed order (names become shared-memory suffixes).
STATE_FIELDS = ("starts", "ends", "indices", "labels", "highway", "dist")

#: Headroom multiplier on reallocation: sizes may grow this much again
#: before the next generation bump.
GROWTH_FACTOR = 1.5

_ITEM = np.dtype(np.int64).itemsize
_uid_counter = itertools.count()


@dataclass(frozen=True)
class ShardStateMeta:
    """Per-batch task header: where the shared state lives and its shape.

    This is the *entire* cross-process description of (G', Γ) — a worker
    derives every array view from it.  Sizes travel here rather than in
    block names because blocks are over-allocated: the same generation
    serves many (V, E) combinations until the headroom runs out.
    """

    prefix: str
    generation: int
    num_vertices: int
    #: Length of the CSR ``indices`` array: live arcs plus slack slots.
    num_slots: int
    landmarks: tuple[int, ...]

    def block_name(self, field: str) -> str:
        return f"{self.prefix}_{self.generation}_{field}"


class SharedShardState:
    """Writer-side owner of the shared-memory (G', Γ) mirror.

    One instance per :class:`~repro.parallel.pool.LandmarkShardPool`; the
    pool serialises :meth:`publish`/scatter/:meth:`mark_synced` under its
    own lock, so this class does no locking of its own.
    """

    def __init__(self) -> None:
        self._prefix = f"repro_pool_{os.getpid()}_{next(_uid_counter):x}"
        self.generation = 0
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        self._capacity: dict[str, int] = {}
        self._meta: ShardStateMeta | None = None
        # Weakrefs identifying the labelling whose content the label,
        # highway and D blocks currently mirror (see mark_synced).
        self._sync_ref = None
        self._sync_arrays: tuple | None = None
        #: writer-side views over the blocks, sized to the current meta.
        self.labels: np.ndarray | None = None  # shape: (V, R) int64
        self.highway: np.ndarray | None = None  # shape: (R, R) int64
        self.dist: np.ndarray | None = None  # shape: (V, R) int64
        self.sync_bytes_total = 0
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------

    def publish(
        self, csr: CSRGraph, labelling: HighwayCoverLabelling
    ) -> tuple[ShardStateMeta, int]:
        """Expose (G', Γ) to the workers; returns ``(meta, synced_bytes)``.

        The CSR arrays are copied every call, as they are, slack slots
        included (topology changes with every batch).  The label/highway/D matrices are copied only when the
        sync token does not prove the blocks already hold ``labelling`` —
        after the first batch of a steady flush stream that is never.
        ``synced_bytes`` counts the label/highway/D bytes actually copied,
        the quantity the delta protocol exists to drive to zero.
        """
        num_vertices = labelling.num_vertices
        if csr.num_vertices != num_vertices:
            raise BatchError(
                f"CSR covers {csr.num_vertices} vertices but the labelling"
                f" has {num_vertices} rows"
            )
        landmarks = labelling.landmarks
        num_landmarks = len(landmarks)
        num_slots = len(csr.indices)
        needed = {
            "starts": num_vertices * _ITEM,
            "ends": num_vertices * _ITEM,
            "indices": num_slots * _ITEM,
            "labels": num_vertices * num_landmarks * _ITEM,
            "highway": num_landmarks * num_landmarks * _ITEM,
            "dist": num_vertices * num_landmarks * _ITEM,
        }
        meta = self._meta
        realloc = (
            not self._blocks
            or any(needed[f] > self._capacity[f] for f in STATE_FIELDS)
            or meta is None
            or meta.landmarks != landmarks
        )
        if realloc:
            self._reallocate(needed)
        self._meta = meta = ShardStateMeta(
            prefix=self._prefix,
            generation=self.generation,
            num_vertices=num_vertices,
            num_slots=num_slots,
            landmarks=landmarks,
        )

        self._view("starts", (num_vertices,))[:] = csr.starts
        self._view("ends", (num_vertices,))[:] = csr.ends
        self._view("indices", (num_slots,))[:] = csr.indices
        self.labels = self._view("labels", (num_vertices, num_landmarks))
        self.highway = self._view("highway", (num_landmarks, num_landmarks))
        self.dist = self._view("dist", (num_vertices, num_landmarks))

        synced = 0
        if not self.is_synced_to(labelling):
            self.labels[:] = labelling.labels
            self.highway[:] = labelling.highway
            self.dist[:] = labelling.dist
            synced = (
                labelling.labels.nbytes
                + labelling.highway.nbytes
                + labelling.dist.nbytes
            )
            self.sync_bytes_total += synced
            self.mark_synced(labelling)
            _log.debug(
                "shared state resynced",
                extra={
                    "generation": self.generation,
                    "bytes": synced,
                    "vertices": num_vertices,
                },
            )
        return meta, synced

    def _reallocate(self, needed: dict[str, int]) -> None:
        """Bump the generation: fresh blocks with headroom, old ones
        unlinked.

        POSIX keeps an unlinked segment alive for processes still mapping
        it, so workers holding views of the previous generation are
        unaffected — they drop their maps when the next task's meta names
        the new generation.  The pool guarantees no task is in flight
        while this runs.
        """
        old = list(self._blocks.values())
        self._blocks = {}
        self.generation += 1
        for field in STATE_FIELDS:
            size = max(_ITEM, int(needed[field] * GROWTH_FACTOR))
            name = f"{self._prefix}_{self.generation}_{field}"
            block = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
            self._blocks[field] = block
            # The OS may round the mapping up; advertise what was asked
            # for so growth accounting stays deterministic.
            self._capacity[field] = size
        for block in old:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._sync_ref = None
        self._sync_arrays = None
        _log.debug(
            "shared state reallocated",
            extra={"generation": self.generation, "prefix": self._prefix},
        )

    def _view(self, field: str, shape: tuple[int, ...]) -> np.ndarray:
        return np.ndarray(
            shape, dtype=np.int64, buffer=self._blocks[field].buf
        )

    # ------------------------------------------------------------------
    # sync tracking
    # ------------------------------------------------------------------

    def mark_synced(self, labelling: HighwayCoverLabelling) -> None:
        """Record that the blocks now hold exactly ``labelling``'s content.

        Identity-based: the token holds weakrefs to the labelling *and*
        its matrices, so any swap — ``grow()`` vstacking a new label
        matrix, a sequential batch producing a new labelling — breaks
        the token and forces a resync.  A batch that recycles the arrays
        of a labelling before last cannot write under a valid token:
        while that labelling lives, its arrays are held and get copied,
        and once it is gone its token is dead.  The one undetectable
        case is in-place writes through the *same* arrays between batches
        (e.g. a caller poking a label cell directly); such callers must
        use :meth:`invalidate`.
        """
        self._sync_ref = weakref.ref(labelling)
        self._sync_arrays = (
            weakref.ref(labelling.labels),
            weakref.ref(labelling.highway),
            weakref.ref(labelling.dist),
        )

    def is_synced_to(self, labelling: HighwayCoverLabelling) -> bool:
        if self._sync_ref is None or self._sync_arrays is None:
            return False
        ref_labels, ref_highway, ref_dist = self._sync_arrays
        return (
            self._sync_ref() is labelling
            and ref_labels() is labelling.labels
            and ref_highway() is labelling.highway
            and ref_dist() is labelling.dist
        )

    def invalidate(self) -> None:
        """Force the next :meth:`publish` to re-copy the label matrices."""
        self._sync_ref = None
        self._sync_arrays = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned block (idempotent)."""
        blocks, self._blocks = self._blocks, {}
        for block in blocks.values():
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.labels = None
        self.highway = None
        self.dist = None
        self._meta = None
        self._sync_ref = None
        self._sync_arrays = None
        if blocks:
            try:
                atexit.unregister(self.close)
            except Exception:  # pragma: no cover - interpreter teardown
                pass

    def __repr__(self) -> str:
        state = "live" if self._blocks else "closed"
        return (
            f"SharedShardState(prefix={self._prefix!r},"
            f" generation={self.generation}, {state})"
        )
