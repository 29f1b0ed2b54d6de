"""Persistence for highway cover indexes.

An index is the pair (graph, labelling); both serialise into one ``.npz``
archive: the edge list as an (E, 2) array, labels and highway as their
native matrices, landmarks as a vector.  The landmark-distance matrix D
is not stored (format 1 predates it): loading checks the archive's shapes
and landmark ids, then fills D with one Eq. 2 decode of labels + highway
— no rebuild.  The labelling's content is trusted as-is, so
`check_minimality` remains available as an integrity check after load.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from pathlib import Path

import numpy as np

from repro.core.labelling import HighwayCoverLabelling, decode_distances
from repro.errors import IndexStateError
from repro.graph.dynamic_graph import DynamicGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import HighwayCoverIndex

FORMAT_VERSION = 1


def save_index(index: Any, path: str | Path) -> None:
    """Serialise a :class:`HighwayCoverIndex` to ``path`` (.npz)."""
    graph = index.graph
    edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    np.savez_compressed(
        path,
        format_version=np.int64(FORMAT_VERSION),
        num_vertices=np.int64(graph.num_vertices),
        edges=edges,
        labels=index.labelling.labels,
        highway=index.labelling.highway,
        landmarks=np.array(index.labelling.landmarks, dtype=np.int64),
    )


def load_index(path: str | Path) -> "HighwayCoverIndex":
    """Restore a :class:`HighwayCoverIndex` saved by :func:`save_index`."""
    from repro.core.index import HighwayCoverIndex

    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != FORMAT_VERSION:
            raise IndexStateError(
                f"unsupported index format version {version}"
            )
        num_vertices = int(archive["num_vertices"])
        labels = archive["labels"].astype(np.int64)
        highway = archive["highway"].astype(np.int64)
        landmarks = tuple(int(r) for r in archive["landmarks"])
        _check_labelling(num_vertices, labels, highway, landmarks)
        graph = DynamicGraph(num_vertices)
        graph.add_edges_bulk(archive["edges"])
    labelling = HighwayCoverLabelling(
        labels, highway, landmarks,
        decode_distances(labels, highway, landmarks),
    )
    return HighwayCoverIndex.from_parts(graph, labelling)


def _check_labelling(
    num_vertices: int,
    labels: np.ndarray,
    highway: np.ndarray,
    landmarks: tuple[int, ...],
) -> None:
    """Reject an archive whose labelling cannot describe its graph."""
    if len(set(landmarks)) != len(landmarks):
        raise IndexStateError(f"duplicate landmark ids in {landmarks}")
    out_of_range = [r for r in landmarks if not 0 <= r < num_vertices]
    if out_of_range:
        raise IndexStateError(
            f"landmark ids {out_of_range} outside [0, {num_vertices})"
        )
    r = len(landmarks)
    if labels.shape != (num_vertices, r):
        raise IndexStateError(
            f"label matrix shape {labels.shape}, expected"
            f" {(num_vertices, r)}"
        )
    if highway.shape != (r, r):
        raise IndexStateError(
            f"highway matrix shape {highway.shape}, expected {(r, r)}"
        )
