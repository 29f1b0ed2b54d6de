"""Static construction of the minimal highway cover labelling.

One landmark-flagged level sweep over the frozen CSR view builds every
landmark's column (:func:`repro.graph.csr.landmark_sweep`).  Each vertex
carries one bit per landmark, up to 64 to a word, and each level is one
gather over the arcs out of the union frontier, so a vertex's flag (does
*some* shortest path from the root pass through another landmark?) is
final before its children are expanded.  A vertex receives an ``r``-label
iff it is reachable, is not itself a landmark, and its flag is False —
which is exactly the minimal labelling characterised by Lemma 5.14.  The
sweep's distances themselves become the labelling's landmark-distance
matrix D, written in place.  Total cost is O(|R| (V + E)) time and
O(|R| V) space, matching Table 1; where the landmarks' BFS levels
coincide (the hubs of a scale-free graph) one gather serves them all.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.constants import INF, NO_LABEL
from repro.core.labelling import HighwayCoverLabelling
from repro.graph.csr import CSRGraph, LandmarkSweep, as_csr, landmark_sweep
from repro.obs.trace import span


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


def landmark_columns(
    csr: CSRGraph,
    roots: Sequence[int],
    is_landmark: np.ndarray,  # shape: (V,) bool
    landmarks: Sequence[int],
    labels: np.ndarray,  # shape: (V, K) int64
    highway: np.ndarray,  # shape: (K, R) int64
    dist: np.ndarray,  # shape: (V, K) int64
) -> LandmarkSweep:
    """The minimal label columns, highway rows and D columns of ``roots``.

    The Lemma 5.14 rule in one place, shared by the sequential build and
    the worker-process build shards: a vertex gets an ``r``-label iff it
    is reachable, not a landmark, and flag-False; a highway row is its
    root's distance to every one of ``landmarks``, and a D column the
    sweep's distances themselves.  Writes into ``labels``, ``highway``
    and ``dist`` (C-order, one column or row per root) in one sweep over
    the frozen ``csr``, and returns it.
    """
    sweep = landmark_sweep(csr, roots, is_landmark, dist)
    eligible = dist < INF
    eligible &= ~sweep.flag
    eligible[is_landmark] = False
    labels.fill(NO_LABEL)
    np.copyto(labels, dist, where=eligible)
    highway[...] = dist[list(landmarks)].T
    return sweep


def build_labelling(
    graph: Any,
    landmarks: tuple[int, ...],
    pool: Any = None,
) -> HighwayCoverLabelling:
    """Build the minimal highway cover labelling of ``graph`` over ``landmarks``.

    With ``pool``, a :class:`~repro.parallel.pool.LandmarkShardPool`, the
    landmarks are split into shards, each swept on a worker process.
    Construction is embarrassingly parallel: each landmark's column and
    highway row depend only on the graph and the landmark set.

    The build is one ``build_labelling`` span with the number of
    ``landmarks``; in process it also carries the sweep's ``levels`` and
    the ``arcs`` it gathered.  A graph's first freeze is its child, and
    the sweep is its self time.
    """
    landmarks = tuple(landmarks)
    with span("build_labelling", landmarks=len(landmarks)) as traced:
        if pool is not None:
            return pool.build(graph, landmarks)
        labelling = HighwayCoverLabelling.empty(graph.num_vertices, landmarks)
        # A graph that maintains its own view lends it, so the writer's
        # next freeze rewrites rows instead of starting over.
        sweep = landmark_columns(
            as_csr(graph),
            landmarks,
            labelling.is_landmark,
            landmarks,
            labelling.labels,
            labelling.highway,
            labelling.dist,
        )
        if traced is not None:
            traced.set(levels=sweep.levels, arcs=sweep.arcs)
    return labelling
