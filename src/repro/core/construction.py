"""Static construction of the minimal highway cover labelling.

One landmark-flagged BFS per landmark: level-synchronous so that a vertex's
flag (does *some* shortest path from the root pass through another landmark?)
is final before its children are expanded.  A vertex receives an ``r``-label
iff it is reachable, is not itself a landmark, and its flag is False — which
is exactly the minimal labelling characterised by Lemma 5.14.  The BFS
distances themselves become the labelling's landmark-distance matrix D.
Total cost is O(|R| (V + E)) time and O(|R| V) space, matching Table 1.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.constants import INF, NO_LABEL
from repro.core.labelling import HighwayCoverLabelling
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.csr import landmark_lengths as csr_landmark_lengths


def bfs_landmark_lengths(
    graph: Any, root: int, is_landmark: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-source landmark lengths :math:`d^L_G(root, \\cdot)`.

    Returns ``(dist, flag)`` where ``flag[v]`` is a bool: True iff some
    shortest root-v path passes through a landmark other than ``root``
    (endpoints count, the root does not).  This is the test oracle for
    the vectorised :func:`repro.graph.csr.landmark_lengths` that
    construction runs.
    """
    n = graph.num_vertices
    dist = np.full(n, INF, dtype=np.int64)
    flag = np.zeros(n, dtype=bool)
    dist[root] = 0
    frontier = [root]
    level = 0
    while frontier:
        level += 1
        next_frontier: list[int] = []
        for v in frontier:
            flag_v = flag[v]
            for w in graph.neighbors(v):
                if dist[w] >= INF:
                    dist[w] = level
                    flag[w] = flag_v or is_landmark[w]
                    next_frontier.append(w)
                elif dist[w] == level and not flag[w]:
                    # Another shortest predecessor may strengthen the flag;
                    # v is at the previous level so flag_v is final.
                    if flag_v or is_landmark[w]:
                        flag[w] = True
        frontier = next_frontier
    return dist, flag


def landmark_column(
    csr: CSRGraph, root: int, is_landmark: np.ndarray, landmark_list: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One landmark's minimal label column, highway row and D column.

    The Lemma 5.14 rule in one place (shared by the sequential build and
    the worker-process build shards): a vertex gets an ``r``-label iff it
    is reachable, not a landmark, and flag-False; the highway row is the
    root's distance to every landmark, and the D column the BFS distances
    themselves.  Runs the vectorised frontier kernel over the frozen
    ``csr``.
    """
    dist, flag = csr_landmark_lengths(csr, root, is_landmark)
    eligible = (~is_landmark) & (dist < INF) & (~flag)
    return np.where(eligible, dist, NO_LABEL), dist[landmark_list], dist


def build_labelling(
    graph: Any,
    landmarks: tuple[int, ...],
    pool: Any = None,
) -> HighwayCoverLabelling:
    """Build the minimal highway cover labelling of ``graph`` over ``landmarks``.

    With ``pool``, a :class:`~repro.parallel.pool.LandmarkShardPool`, the
    per-landmark BFS trees run on its worker processes.  Construction is
    embarrassingly parallel: each landmark's column and highway row
    depend only on the graph and the landmark set.
    """
    if pool is not None:
        return pool.build(graph, tuple(landmarks))
    n = graph.num_vertices
    labelling = HighwayCoverLabelling.empty(n, landmarks)
    is_landmark = labelling.is_landmark
    landmark_list = list(landmarks)
    # One frozen CSR view serves every landmark's BFS tree (the mutable
    # graph is only read here); the vectorised kernel runs per landmark.
    # A graph that maintains its own view lends it, so the writer's next
    # freeze rewrites rows instead of starting over.
    view = as_csr(graph)
    for i, root in enumerate(landmarks):
        column, highway_row, dist = landmark_column(
            view, root, is_landmark, landmark_list
        )
        labelling.labels[:, i] = column
        labelling.highway[i, :] = highway_row
        labelling.dist[:, i] = dist
    return labelling
