"""Storage for a highway cover labelling Γ = (H, L) — Definition 3.3 — and
the landmark-distance matrix D that it determines.

Labels are stored as a dense ``(V, R)`` int64 matrix (``NO_LABEL = -1`` marks
a missing entry) and the highway as an ``(R, R)`` int64 matrix with ``INF``
for unreachable landmark pairs.  With the paper's default of 20 landmarks the
matrix layout costs a few hundred bytes per vertex and allows O(1)
single-entry updates during batch repair.

Every labelling also keeps ``dist``, the ``(V, R)`` int64 matrix D with
``D[v, i] = d(r_i, v)`` in the labelling's traversal direction (``INF``
where unreachable).  D is the Eq. 2 decode of labels + highway
(:func:`decode_distances`), but it is *maintained*, not recomputed:
construction stores the distances its BFS or Dijkstra already computes,
``grow`` appends ``INF`` rows, every repair scatters the affected
vertices' new distances into its landmark's column, and loading an
archive fills it with one decode.  ``copy``, ``published``, ``equals``
and ``diff`` carry it, so every equality check against a fresh build
also checks D.
The hot reads are then cheap:

* ``landmark_lengths(i)`` — the landmark lengths
  :math:`d^L_G(r_i, \\cdot)` that batch search and repair read, in O(1):
  a read-only view of column i of D and a :class:`LandmarkFlags` that
  evaluates the landmark flag of Lemma 5.14 only at the vertices a
  kernel indexes, so a landmark's batch pays for the vertices it
  touches, not for all V;
* ``decoded_landmark_distances(v)`` — row v of D;
* ``upper_bound(s, t)`` — the query-time bound :math:`d^\\top_{st}` (Eq. 3)
  as one O(R) row sum, from one labelling or, on a digraph, from a
  forward/backward pair.

A batch pass never repairs a labelling that may be published; it repairs
:meth:`~HighwayCoverLabelling.repair_target`, a private twin.  Each
repaired labelling keeps a *back pair*: the labels and D of the labelling
it was repaired from, and the cells that pass wrote.  The next pass
recycles that pair once nothing else references it (copying over those
cells and the (R, R) highway, O(cells) instead of an O(V·R) copy), so a
writer alternates between two pairs of flat arrays.
"""

from __future__ import annotations

import itertools
import sys
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.constants import INF, NO_LABEL
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.errors import IndexStateError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

#: ``sys.getrefcount`` of a back array that only its back pair references,
#: read as :meth:`HighwayCoverLabelling.repair_target` reads it: the
#: pair's own reference plus the one passed to ``getrefcount``.  Every
#: other holder adds to it: a labelling still wrapping the array, and
#: every view, view of a view or memoryview of it, since each keeps its
#: owning array referenced.  ``tests/test_labelling.py`` pins the value.
_UNHELD_REFS = 2

#: A pass that wrote more than ``_COPY_SHARE * V·R + _COPY_CELLS`` cells
#: leaves no back pair, so the next pass copies: past that, replaying
#: the cells (and building their indices from the kernels' Python ints)
#: costs more than copying labels and D.  Measured with R = 20: the two
#: cost the same at ~5% of V·R on 100k vertices (~9.7 ms) and ~12% on
#: 10k.  Below a few thousand cells either path takes tens of
#: microseconds, so small labellings keep the recycled path.
_COPY_SHARE = 0.05
_COPY_CELLS = 4096


class _BackPair(NamedTuple):
    """The labels and D a labelling was repaired from, and the cells that
    pass wrote, as flat C-order indices ``v * R + i``."""

    labels: np.ndarray  # shape: (V, R) int64
    dist: np.ndarray  # shape: (V, R) int64
    cells: np.ndarray  # shape: (C,) int64


def decode_distances(
    labels: np.ndarray,  # shape: (V, R) int64
    highway: np.ndarray,  # shape: (R, R) int64
    landmarks: tuple[int, ...],
) -> np.ndarray:
    """The Eq. 2 decode of labels + highway: the matrix D must equal.

    ``D[v, i]`` is the label entry if present, else the best
    label-plus-highway detour, ``min_j label(v, j) + H[i, j]`` (``j = i``
    contributes the label itself because ``H[i, i] = 0``).  Landmark rows
    come from the highway, ``D[r_j, i] = H[i, j]``, and each root is 0.
    O(V·R²) time: for loading an archive and for tests, never on an
    update or query path.
    """
    masked = np.where(labels == NO_LABEL, INF, labels)
    dist = np.empty(labels.shape, dtype=np.int64)  # shape: (V, R) int64
    for i in range(len(landmarks)):
        via = masked + highway[i][np.newaxis, :]
        dist[:, i] = np.minimum(via.min(axis=1), INF)
    rows = list(landmarks)
    dist[rows] = highway.T
    dist[rows, range(len(rows))] = 0
    return dist


class LandmarkFlags:
    """The landmark flags of one landmark r_i, evaluated where read.

    ``flags[v]`` is TRUE_KEY iff some shortest r_i-v path passes through
    another landmark, which for a *minimal* labelling is exactly "v is
    reachable and has no r_i-label" (Lemma 5.14); every landmark but the
    root is TRUE_KEY and the root is FALSE_KEY.  An int index gives one
    int (the kernels' narrow phases), an int64 index array an int64 array
    (their vector phases); nothing is computed for vertices never read.
    """

    __slots__ = ("_root", "_labels", "_dist", "_landmark_index", "_is_landmark")

    def __init__(
        self,
        labelling: "HighwayCoverLabelling",
        landmark_idx: int,
        dist: np.ndarray,  # shape: (V,) int64
    ) -> None:
        self._root = labelling.landmarks[landmark_idx]
        self._labels = labelling.labels[:, landmark_idx]
        self._dist = dist
        self._landmark_index = labelling.landmark_index
        self._is_landmark = labelling.is_landmark

    def __getitem__(self, vertices: Any) -> Any:
        if isinstance(vertices, np.ndarray):
            # FALSE_KEY where v has an r-label or is unreachable, else
            # TRUE_KEY: with TRUE_KEY = 0 and FALSE_KEY = 1 that is the
            # condition itself, cast.
            has_label_or_inf = self._labels[vertices] != NO_LABEL
            has_label_or_inf |= self._dist[vertices] >= INF
            flag = has_label_or_inf.astype(np.int64)
            flag[self._is_landmark[vertices]] = TRUE_KEY
            flag[vertices == self._root] = FALSE_KEY
            return flag
        if vertices in self._landmark_index:
            return FALSE_KEY if vertices == self._root else TRUE_KEY
        if self._labels[vertices] != NO_LABEL or self._dist[vertices] >= INF:
            return FALSE_KEY
        return TRUE_KEY


class HighwayCoverLabelling:
    """A (possibly directed one-sided) highway cover labelling and its D."""

    # __weakref__ lets the processes backend's shared-memory mirror hold
    # an identity token for the labelling it is synchronized with,
    # without keeping superseded matrices alive.
    __slots__ = (
        "labels",
        "highway",
        "dist",
        "landmarks",
        "landmark_index",
        "is_landmark",
        "_back",
        "__weakref__",
    )

    def __init__(
        self,
        labels: np.ndarray,
        highway: np.ndarray,
        landmarks: tuple[int, ...],
        dist: np.ndarray,
    ) -> None:
        if labels.shape[1] != len(landmarks):
            raise IndexStateError(
                f"label matrix has {labels.shape[1]} columns for"
                f" {len(landmarks)} landmarks"
            )
        if highway.shape != (len(landmarks), len(landmarks)):
            raise IndexStateError("highway matrix shape mismatch")
        if dist.shape != labels.shape:
            raise IndexStateError(
                f"distance matrix shape {dist.shape} does not match the"
                f" label matrix {labels.shape}"
            )
        self.labels = labels
        self.highway = highway
        self.dist = dist
        self.landmarks = landmarks
        self.landmark_index = {r: i for i, r in enumerate(landmarks)}
        self.is_landmark = np.zeros(labels.shape[0], dtype=bool)
        for r in landmarks:
            self.is_landmark[r] = True
        self._back: _BackPair | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, num_vertices: int, landmarks: Iterable[int]
    ) -> "HighwayCoverLabelling":
        """No labels, no highway paths: every landmark reaches only itself."""
        landmarks = tuple(landmarks)
        shape = (num_vertices, len(landmarks))
        labels = np.full(shape, NO_LABEL, dtype=np.int64)
        highway = np.full((len(landmarks), len(landmarks)), INF, dtype=np.int64)
        np.fill_diagonal(highway, 0)
        dist = np.full(shape, INF, dtype=np.int64)
        dist[list(landmarks)] = highway.T
        return cls(labels, highway, landmarks, dist)

    def copy(self) -> "HighwayCoverLabelling":
        return HighwayCoverLabelling(
            self.labels.copy(),
            self.highway.copy(),
            self.landmarks,
            self.dist.copy(),
        )

    def repair_target(self) -> "HighwayCoverLabelling":
        """A writable labelling equal to this one, for one batch pass to
        repair into.

        It recycles the back pair when nothing else references either of
        its arrays: the pass that made this labelling wrote only the
        pair's recorded cells, so copying those cells over from this
        labelling, plus the (R, R) highway, makes the pair equal to it.
        Otherwise it is a :meth:`copy`: when a reader still holds either
        array, after ``grow`` (which drops the pair), and when there is
        no pair (a built or loaded labelling, one repaired from views,
        or one whose pass wrote too many cells to be worth replaying).  The pair is taken off this labelling before anything is
        written, so a pass that fails part-way through the recycled
        arrays leaves the next pass on the copy path.

        Each call is one ``labelling_buffers`` span, with ``recycled``
        and the number of ``cells`` copied over, and one count of
        ``repro_labelling_buffers_total{path="recycled"|"copied"}``.
        """
        pair, self._back = self._back, None
        with get_tracer().span("labelling_buffers") as span:
            if (
                pair is None
                or sys.getrefcount(pair.labels) != _UNHELD_REFS
                or sys.getrefcount(pair.dist) != _UNHELD_REFS
            ):
                target, path, replayed = self.copy(), "copied", 0
            else:
                cells = pair.cells
                np.put(pair.labels, cells, np.take(self.labels, cells))
                np.put(pair.dist, cells, np.take(self.dist, cells))
                target = HighwayCoverLabelling(
                    pair.labels, self.highway.copy(), self.landmarks, pair.dist
                )
                path, replayed = "recycled", len(cells)
            if span is not None:
                span.set(recycled=path == "recycled", cells=replayed)
        get_registry().counter(
            "repro_labelling_buffers_total",
            "labelling passes by how their repair target was made",
            ("path",),
        ).labels(path=path).inc()
        return target

    def set_back_pair(
        self, parent: "HighwayCoverLabelling", written: Sequence[Sequence[int]]
    ) -> None:
        """Record that one pass repaired this labelling from ``parent``
        and wrote column i only at rows ``written[i]``.

        Those are landmark i's affected vertices: repair (Algorithm 4)
        settles and writes only them, and every other vertex keeps its
        landmark distance (Lemma 5.15).  ``parent``'s labels and D
        become this labelling's back pair, for the next
        :meth:`repair_target`.  Arrays that do not own their memory, or
        are read-only, never become a pair: the reference count of a
        view does not see the other views of its owner.  Nor does a
        pass that wrote more cells than a copy is worth (see
        :data:`_COPY_SHARE`): its next pass copies.
        """
        if any(
            array.base is not None or not array.flags.writeable
            for array in (parent.labels, parent.dist)
        ):
            return
        lengths = [len(vertices) for vertices in written]
        if sum(lengths) > _COPY_SHARE * self.labels.size + _COPY_CELLS:
            return
        cells = np.fromiter(
            itertools.chain.from_iterable(written),
            dtype=np.int64,
            count=sum(lengths),
        )
        cells *= self.num_landmarks
        cells += np.repeat(
            np.arange(self.num_landmarks, dtype=np.int64), lengths
        )
        self._back = _BackPair(parent.labels, parent.dist, cells)

    def published(self) -> "HighwayCoverLabelling":
        """A labelling over read-only views of these arrays, for an epoch
        snapshot: no copy, and a write through it raises ``ValueError``.

        Sharing is safe because no writer touches an array in place while
        anything references it.  A batch repairs a
        :meth:`repair_target`: a copy, or the arrays of the epoch before
        last once no snapshot, view or labelling holds them any more
        (each of these views keeps its owner's reference count up).
        ``grow`` reassigns the attributes.
        """
        views = []
        for array in (self.labels, self.highway, self.dist):
            view = array.view()
            view.flags.writeable = False
            views.append(view)
        labels, highway, dist = views
        return HighwayCoverLabelling(labels, highway, self.landmarks, dist)

    def grow(self, num_vertices: int) -> None:
        """Extend labels and D with empty, unreachable rows for new
        vertices, and drop the back pair, whose shape no longer fits."""
        current = self.labels.shape[0]
        if num_vertices <= current:
            return
        self._back = None
        extra = (num_vertices - current, len(self.landmarks))
        self.labels = np.vstack(
            [self.labels, np.full(extra, NO_LABEL, dtype=np.int64)]
        )
        self.dist = np.vstack([self.dist, np.full(extra, INF, dtype=np.int64)])
        grown_mask = np.zeros(num_vertices, dtype=bool)
        grown_mask[:current] = self.is_landmark
        self.is_landmark = grown_mask

    # ------------------------------------------------------------------
    # entry-level access
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.labels.shape[0]

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    def r_label(self, vertex: int, landmark_idx: int) -> int | None:
        """The ``r``-label distance of ``vertex``, or None if absent."""
        value = self.labels[vertex, landmark_idx]
        return None if value == NO_LABEL else int(value)

    def label_entries(self, vertex: int) -> Iterator[tuple[int, int]]:
        """Yield ``(landmark_vertex, distance)`` entries of L(vertex)."""
        row = self.labels[vertex]
        for idx in np.nonzero(row != NO_LABEL)[0]:
            yield self.landmarks[int(idx)], int(row[idx])

    def set_highway(self, i: int, j: int, distance: int) -> None:
        self.highway[i, j] = distance

    def set_highway_symmetric(self, i: int, j: int, distance: int) -> None:
        self.highway[i, j] = distance
        self.highway[j, i] = distance

    # ------------------------------------------------------------------
    # vectorised reads
    # ------------------------------------------------------------------

    def landmark_lengths(
        self, landmark_idx: int
    ) -> tuple[np.ndarray, LandmarkFlags]:
        """The landmark lengths :math:`d^L_G(r, v) = (d, l)` from landmark
        r, read in place: ``(dist, flags)``.

        * ``dist[v]`` is :math:`d_G(r, v)`: a read-only view of column r
          of D, no copy (landmark rows hold their highway distance, the
          root 0);
        * ``flags[v]`` is the encoded landmark flag (see
          :class:`LandmarkFlags`), computed only at the vertices read.

        O(1), whatever V.
        """
        dist = self.dist[:, landmark_idx]
        dist.flags.writeable = False
        return dist, LandmarkFlags(self, landmark_idx, dist)

    def decoded_landmark_distances(self, vertex: int) -> np.ndarray:
        """Exact distances from every landmark to ``vertex``: row
        ``vertex`` of D.

        Entry ``j`` is the r_j -> v distance in the labelling's traversal
        direction, so on one-sided labellings of digraphs the forward
        row holds ``d(r_j -> v)`` and the backward row ``d(v -> r_j)``.
        """
        return self.dist[vertex].copy()

    def upper_bound(
        self, s: int, t: int, backward: "HighwayCoverLabelling | None" = None
    ) -> int:
        """Eq. 3: the best s-t path length through a landmark, in O(R).

        ``min_j d(s, r_j) + d(r_j, t)`` over rows s and t of D.  On a
        digraph this is the forward labelling and ``backward`` the one
        over in-neighbours, whose row s holds ``d(s -> r_j)``.  None
        means this labelling on both sides — the undirected case.
        """
        source_side = self if backward is None else backward
        bound = int((source_side.dist[s] + self.dist[t]).min())
        return min(bound, INF)

    # ------------------------------------------------------------------
    # metrics / comparison
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total number of label entries (the paper's labelling size)."""
        return int((self.labels != NO_LABEL).sum())

    def size_bytes(self) -> int:
        """Estimated size using the paper's accounting (one 32-bit landmark
        id + one 8-bit distance per entry, plus the highway matrix)."""
        return self.size() * 5 + self.highway.size * 4

    def equals(self, other: "HighwayCoverLabelling") -> bool:
        """Exact equality of labels, highway and D (minimality oracle)."""
        return (
            self.landmarks == other.landmarks
            and self.labels.shape == other.labels.shape
            and bool((self.labels == other.labels).all())
            and bool((self.highway == other.highway).all())
            and bool((self.dist == other.dist).all())
        )

    def diff(self, other: "HighwayCoverLabelling") -> list[str]:
        """Human-readable differences (test diagnostics)."""
        problems: list[str] = []
        if self.landmarks != other.landmarks:
            problems.append(
                f"landmarks differ: {self.landmarks} vs {other.landmarks}"
            )
            return problems
        if self.labels.shape != other.labels.shape:
            problems.append(
                f"shape {self.labels.shape} vs {other.labels.shape}"
            )
            return problems
        for name, mine, theirs in (
            ("label", self.labels, other.labels),
            ("dist", self.dist, other.dist),
        ):
            rows, cols = np.nonzero(mine != theirs)
            for v, i in zip(rows[:20], cols[:20]):
                problems.append(
                    f"{name}({int(v)}, r{int(i)}={self.landmarks[int(i)]}):"
                    f" {int(mine[v, i])} vs {int(theirs[v, i])}"
                )
        hi, hj = np.nonzero(self.highway != other.highway)
        for i, j in zip(hi[:20], hj[:20]):
            problems.append(
                f"highway({int(i)}, {int(j)}):"
                f" {int(self.highway[i, j])} vs {int(other.highway[i, j])}"
            )
        return problems

    def __repr__(self) -> str:
        return (
            f"HighwayCoverLabelling(|V|={self.num_vertices},"
            f" |R|={self.num_landmarks}, entries={self.size()})"
        )
