"""Batch Repair — Algorithm 4 of the paper.

Given the affected superset from batch search, repair settles affected
vertices in increasing order of their *landmark distance bound*
(Definition 5.19): the bound of a vertex is the best landmark distance
through a neighbour that is already known (initially: unaffected neighbours,
whose landmark distance did not change; later: affected neighbours that were
settled earlier).  Lemma 5.20 guarantees that a vertex with the minimal
distance bound has its true new landmark distance, so each affected vertex's
label is written exactly once:

* flag True or unreachable  -> the r-label is removed (redundant/invalid);
* otherwise                 -> the r-label is set to the new distance
  (Lemma 5.14);
* landmarks additionally refresh their highway entry;
* every settled vertex writes its new distance (INF if unreachable) into
  the landmark's column of D, the labelling's landmark-distance matrix.

The old landmark lengths come from the in-place reader of
:meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths` (or,
in the tests, from materialised arrays): a distance read is an array
lookup, a flag read evaluates Lemma 5.14 at one vertex, so the boundary
loop reads a flag only for a neighbour whose distance can still win.

The implementation uses a lazy-deletion heap keyed by (distance, flag):
relaxations out of a settled vertex always target strictly larger distances,
so heap order coincides with the paper's "remove the whole V_min level"
loop.  It is production code, not only a reference: it is the narrow
phase of :func:`repro.core.batch_kernels.batch_repair_adaptive`, which
runs it on every live graph and on every small affected set.
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.constants import INF
from repro.core.labelling import HighwayCoverLabelling
from repro.core.lengths import FALSE_KEY, TRUE_KEY


def batch_repair(
    graph: Any,
    affected: Sequence[int],
    landmark_idx: int,
    labelling_new: HighwayCoverLabelling,
    old_dist: Sequence[int],
    old_flag: Sequence[int],
    is_landmark: Sequence[bool],
    symmetric_highway: bool = True,
    pred_view: Any = None,
) -> int:
    """Repair the r-labels, highway entries and D entries of ``affected``
    vertices.

    ``old_dist`` / ``old_flag`` are the pre-update landmark distances; for a
    vertex *outside* the affected set they equal the new ones (Lemma 5.15),
    which is what makes boundary inference sound.  In production they are
    the in-place reader of
    :meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths`,
    whose flags cost a lookup each, so a flag is read only where a
    comparison needs it.  Returns the number of vertices whose stored
    label or highway entry actually changed.

    ``symmetric_highway=False`` writes only ``H[i, j]`` (the directed
    index keeps separate forward/backward highways).

    ``pred_view`` supplies *predecessor* neighbourhoods: a vertex's distance
    bound comes from vertices one hop closer to the root, i.e. in-neighbours
    on directed graphs, while relaxation flows to out-neighbours (``graph``).
    Undirected callers leave it None (predecessors == successors).
    """
    if pred_view is None:
        pred_view = graph
    affected_set = set(affected)
    bounds: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int, int]] = []

    for v in affected:
        best_d, best_f = INF, FALSE_KEY
        v_is_landmark = bool(is_landmark[v])
        for w in pred_view.neighbors(v):
            if w in affected_set:
                continue
            d_w = old_dist[w]
            if d_w >= INF:
                continue
            cand_d = d_w + 1
            if cand_d > best_d:
                continue  # no flag can make a longer bound win
            cand_f = TRUE_KEY if v_is_landmark else old_flag[w]
            if cand_d < best_d or cand_f < best_f:
                best_d, best_f = cand_d, cand_f
        bounds[v] = (best_d, best_f)
        heap.append((best_d, best_f, v))
    heapq.heapify(heap)

    changed = 0
    settled: set[int] = set()
    labels = labelling_new.labels
    dist = labelling_new.dist
    landmark_index = labelling_new.landmark_index
    while heap:
        d, f, v = heapq.heappop(heap)
        if v in settled or (d, f) != bounds[v]:
            continue
        settled.add(v)
        changed += _write_vertex(
            labelling_new,
            labels,
            dist,
            landmark_index,
            landmark_idx,
            v,
            d,
            f,
            is_landmark,
            symmetric_highway,
        )
        if d >= INF:
            continue  # unreachable vertices cannot improve any neighbour
        next_d = d + 1
        for w in graph.neighbors(v):
            if w not in affected_set or w in settled:
                continue
            w_f = TRUE_KEY if is_landmark[w] else f
            if (next_d, w_f) < bounds[w]:
                bounds[w] = (next_d, w_f)
                heapq.heappush(heap, (next_d, w_f, w))
    return changed


def _write_vertex(
    labelling_new: HighwayCoverLabelling,
    labels: Any,
    dist: Any,
    landmark_index: Any,
    landmark_idx: int,
    v: int,
    d: int,
    f: int,
    is_landmark: Any,
    symmetric_highway: bool,
) -> int:
    """Apply the settled landmark distance ``(d, f)`` of ``v`` to Γ' and D.

    Returns 1 if a label or highway cell changed; D is written
    unconditionally and not counted.
    """
    stored = INF if d >= INF else d
    dist[v, landmark_idx] = stored
    changed = 0
    if d >= INF or f == TRUE_KEY:
        if labels[v, landmark_idx] != -1:
            labels[v, landmark_idx] = -1
            changed = 1
    else:
        if labels[v, landmark_idx] != d:
            labels[v, landmark_idx] = d
            changed = 1
    if is_landmark[v]:
        j = landmark_index[v]
        if labelling_new.highway[landmark_idx, j] != stored:
            changed = 1
        if symmetric_highway:
            labelling_new.set_highway_symmetric(landmark_idx, j, stored)
        else:
            labelling_new.set_highway(landmark_idx, j, stored)
    return changed
