"""Storage for a highway cover labelling Γ = (H, L) — Definition 3.3.

Labels are stored as a dense ``(V, R)`` int64 matrix (``NO_LABEL = -1`` marks
a missing entry) and the highway as an ``(R, R)`` int64 matrix with ``INF``
for unreachable landmark pairs.  With the paper's default of 20 landmarks the
matrix layout costs a few hundred bytes per vertex, allows O(1) single-entry
updates during batch repair, and vectorises the two hot read patterns:

* ``distances_from(i)`` — the landmark distances :math:`d^L_G(r_i, \\cdot)`
  of *every* vertex, used to seed batch search (old distances come from the
  labelling, not from a BFS);
* ``upper_bound(s, t)`` — the query-time bound :math:`d^\\top_{st}` (Eq. 3),
  from one labelling or, on a digraph, from a forward/backward pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.constants import INF, NO_LABEL
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.errors import IndexStateError


class HighwayCoverLabelling:
    """A (possibly directed one-sided) highway cover labelling."""

    # __weakref__ lets the processes backend's shared-memory mirror hold
    # an identity token for the labelling it is synchronized with,
    # without keeping superseded matrices alive.
    __slots__ = (
        "labels",
        "highway",
        "landmarks",
        "landmark_index",
        "is_landmark",
        "__weakref__",
    )

    def __init__(
        self,
        labels: np.ndarray,
        highway: np.ndarray,
        landmarks: tuple[int, ...],
    ) -> None:
        if labels.shape[1] != len(landmarks):
            raise IndexStateError(
                f"label matrix has {labels.shape[1]} columns for"
                f" {len(landmarks)} landmarks"
            )
        if highway.shape != (len(landmarks), len(landmarks)):
            raise IndexStateError("highway matrix shape mismatch")
        self.labels = labels
        self.highway = highway
        self.landmarks = landmarks
        self.landmark_index = {r: i for i, r in enumerate(landmarks)}
        self.is_landmark = np.zeros(labels.shape[0], dtype=bool)
        for r in landmarks:
            self.is_landmark[r] = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, num_vertices: int, landmarks: Iterable[int]
    ) -> "HighwayCoverLabelling":
        landmarks = tuple(landmarks)
        labels = np.full((num_vertices, len(landmarks)), NO_LABEL, dtype=np.int64)
        highway = np.full((len(landmarks), len(landmarks)), INF, dtype=np.int64)
        np.fill_diagonal(highway, 0)
        return cls(labels, highway, landmarks)

    def copy(self) -> "HighwayCoverLabelling":
        return HighwayCoverLabelling(
            self.labels.copy(), self.highway.copy(), self.landmarks
        )

    def grow(self, num_vertices: int) -> None:
        """Extend the label matrix with empty rows for new vertices."""
        current = self.labels.shape[0]
        if num_vertices <= current:
            return
        extra = np.full(
            (num_vertices - current, len(self.landmarks)), NO_LABEL, dtype=np.int64
        )
        self.labels = np.vstack([self.labels, extra])
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

    def set_r_label(self, vertex: int, landmark_idx: int, distance: int) -> None:
        self.labels[vertex, landmark_idx] = distance

    def remove_r_label(self, vertex: int, landmark_idx: int) -> None:
        self.labels[vertex, landmark_idx] = NO_LABEL

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

    def _masked_labels(self) -> np.ndarray:
        """Labels with NO_LABEL replaced by INF (for min-plus arithmetic)."""
        return np.where(self.labels == NO_LABEL, INF, self.labels)

    def distances_from(self, landmark_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """All landmark distances :math:`d^L_G(r, v) = (d, l)` from landmark r.

        Returns ``(dist, flag_key)`` int64 arrays over all vertices:

        * ``dist[v]`` is :math:`d_G(r, v)` decoded per the highway cover
          property (Eq. 2) — the label entry if present, else the best
          label-plus-highway detour;
        * ``flag_key[v]`` encodes the landmark flag (TRUE_KEY iff some
          shortest r-v path passes through another landmark), which for a
          *minimal* labelling is exactly "v has no r-label" (Lemma 5.14).

        Landmark rows are decoded from the highway; the root itself gets
        ``(0, False)``.
        """
        masked = self._masked_labels()
        # min over j of label(v, j) + H(r, j); j = r contributes the label
        # itself because H(r, r) = 0.
        via = masked + self.highway[landmark_idx][np.newaxis, :]
        dist = via.min(axis=1)
        np.minimum(dist, INF, out=dist)

        flag = np.full(self.num_vertices, FALSE_KEY, dtype=np.int64)
        # Non-landmark, reachable, no direct r-label => flag True.
        no_direct = self.labels[:, landmark_idx] == NO_LABEL
        flag[(dist < INF) & no_direct] = TRUE_KEY

        # Landmarks: distance from the highway; flag True except the root.
        for j, vertex in enumerate(self.landmarks):
            dist[vertex] = self.highway[landmark_idx, j]
            flag[vertex] = TRUE_KEY
        root = self.landmarks[landmark_idx]
        dist[root] = 0
        flag[root] = FALSE_KEY
        return dist, flag

    def landmark_distance(self, landmark_idx: int, vertex: int) -> tuple[int, int]:
        """Scalar ``(d, flag_key)`` version of :meth:`distances_from`."""
        root = self.landmarks[landmark_idx]
        if vertex == root:
            return 0, FALSE_KEY
        j = self.landmark_index.get(vertex)
        if j is not None:
            return int(self.highway[landmark_idx, j]), TRUE_KEY
        direct = self.labels[vertex, landmark_idx]
        row = self.labels[vertex]
        mask = row != NO_LABEL
        if not mask.any():
            return INF, FALSE_KEY
        dist = int(
            np.minimum(
                (row[mask] + self.highway[landmark_idx][mask]).min(), INF
            )
        )
        if dist >= INF:
            return INF, FALSE_KEY
        return dist, (FALSE_KEY if direct != NO_LABEL else TRUE_KEY)

    def label_vector(self, vertex: int) -> np.ndarray:
        """Distances from ``vertex`` to every landmark, INF where unknown.

        For landmarks this is their highway *column* (``H[j, v]`` is the
        r_j -> v distance in the labelling's traversal direction — row and
        column differ on directed graphs); for other vertices the raw label
        entries (a partial vector — missing entries are INF, *not* decoded
        through the highway).
        """
        j = self.landmark_index.get(vertex)
        if j is not None:
            return self.highway[:, j]
        row = self.labels[vertex]
        return np.where(row == NO_LABEL, INF, row)

    def decoded_landmark_distances(self, vertex: int) -> np.ndarray:
        """Exact distances from every landmark to ``vertex`` (Eq. 2 decode).

        Entry ``j`` is ``min_i H[j, i] + δL(r_i, v)`` — the landmark r_j
        reaches v either directly through v's label or via another landmark.
        Written direction-sensitively so it is also correct on one-sided
        labellings of directed graphs (H[j, i] is the r_j -> r_i distance
        in the labelling's traversal direction).
        """
        vec = self.label_vector(vertex)
        decoded = (self.highway + vec[np.newaxis, :]).min(axis=1)
        return np.minimum(decoded, INF)

    def upper_bound(
        self, s: int, t: int, backward: "HighwayCoverLabelling | None" = None
    ) -> int:
        """Eq. 3: the best s-t path length through the highway.

        On a digraph this is the forward labelling and ``backward`` the
        one over in-neighbours, whose decode gives ``d(s -> r_j)``; the
        bound is ``min_j d(s -> r_j) + d(r_j -> t)``.  None means this
        labelling on both sides — the undirected case.
        """
        source_side = self if backward is None else backward
        to_landmarks = source_side.decoded_landmark_distances(s)
        bound = int((to_landmarks + self.label_vector(t)).min())
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
        """Exact equality of labels and highway (minimality oracle)."""
        return (
            self.landmarks == other.landmarks
            and self.labels.shape == other.labels.shape
            and bool((self.labels == other.labels).all())
            and bool((self.highway == other.highway).all())
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
        rows, cols = np.nonzero(self.labels != other.labels)
        for v, i in zip(rows[:20], cols[:20]):
            problems.append(
                f"label({int(v)}, r{int(i)}={self.landmarks[int(i)]}):"
                f" {int(self.labels[v, i])} vs {int(other.labels[v, i])}"
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
