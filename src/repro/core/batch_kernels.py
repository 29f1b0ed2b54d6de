"""Adaptive batch search + repair kernels (Algorithms 2–4).

These are the production kernels: every landmark of every (sub-)batch
runs :func:`batch_search_adaptive` then :func:`batch_repair_adaptive`,
whatever the backend or batch size.  The heap implementations in
:mod:`repro.core.batch_search` are the reference they are tested
against; :func:`repro.core.batch_repair.batch_repair` is both that
reference and the repair's narrow phase.

Both kernels read the old landmark lengths ``(old_dist, old_flag)``
that :meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths`
returns in O(1): a read-only view of column i of the old labelling's
landmark-distance matrix D, and a
:class:`~repro.core.labelling.LandmarkFlags` that evaluates the Lemma
5.14 flag only where a kernel indexes it — one vertex at a time in the
narrow phases, an index array at a time in the vector phases.  So a
landmark whose search stays narrow touches O(affected) of the old state
and nothing else.  Only a search that goes wide (its vector phase) reads
the whole column and every flag, once, into contiguous arrays that its
level sweeps then gather from.  Repair writes the new
lengths back — the r-labels, the landmark's highway row, and every
affected vertex's new distance in column i of ``labelling_new.dist``
(INF where it became unreachable) — so D stays exact without ever being
recomputed.

Each kernel takes either a frozen :class:`~repro.graph.csr.CSRGraph` or
the live graph (anything with ``num_vertices`` and ``neighbors(v)``: a
:class:`~repro.graph.dynamic_graph.DynamicGraph` or a digraph's
``out_view()``/``in_view()``).  The narrow phase reads neighbours
through one lookup, the CSR's :meth:`~repro.graph.csr.CSRGraph.list_view`
(its expanded adjacency lists, else rows sliced on first read) or the
live graph's ``neighbors``, so it runs on either; the wide phase
advances whole frontiers as numpy arrays and needs the CSR arrays.

Why level synchrony is sound here: updates have unit weights, so every
key a search or repair can generate at "distance" ``d`` is produced
while settling distance ``d - 1`` (expansions add exactly one hop) or is
known up front (anchor seeds, repair's boundary bounds).  Processing
distances in increasing order therefore settles each vertex at exactly
the key the lazy-deletion heaps would pop first.  Within one distance
level, ties are resolved on the flag components of the paper's
lexicographic keys — ``(d, l)`` landmark lengths for repair,
``(d, l, e)`` extended landmark lengths for the improved search — by
encoding the flags as a small integer *class* (``2·l + e``, with the
paper's True < False order giving True the smaller encoding) and
settling the level's candidates class by class with bucketed
min-reductions: a vertex reached under a smaller class is marked first,
and later classes skip it.

Both kernels are *adaptive* in the same spirit as
:func:`repro.graph.csr.bidirectional_distance`: the affected region of a
small batch is usually tiny, and numpy dispatch per level would dwarf
the per-vertex work, so

* :func:`batch_search_adaptive` starts level-synchronous in pure Python
  and, on a CSR, converts its whole state to int64 arrays once a
  settled frontier outgrows ``switch_width`` (or the anchor set already
  does); on a live graph the Python phase runs to the end;
* :func:`batch_repair_adaptive` knows ``len(affected)`` up front — the
  frontier can never outgrow it — and runs the heap repair below the
  threshold, or always on a live graph.

``switch_width=None`` reads the module-level :data:`SWITCH_WIDTH` at
call time, so tests can force either phase globally.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.constants import INF, NO_LABEL
from repro.core.batch_repair import batch_repair
from repro.core.batch_search import OrientedUpdate
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.graph.csr import CSRGraph, _gather_targets

#: Frontier width at which the adaptive kernels switch from the Python
#: level loop to vectorised numpy sweeps.  Same trade-off (and default)
#: as the bidirectional query kernel's constant.
SWITCH_WIDTH = 64

_EMPTY = np.empty(0, dtype=np.int64)


def _as_index_array(values: Any) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _python_view(graph: Any) -> Any:
    """The narrow phase's neighbour provider: a CSR's rows as lists of
    Python ints (see :meth:`CSRGraph.list_view`), else the live graph."""
    return graph.list_view() if isinstance(graph, CSRGraph) else graph


# ----------------------------------------------------------------------
# batch search (Algorithms 2 and 3)
# ----------------------------------------------------------------------


def batch_search_adaptive(
    graph: Any,
    oriented_updates: Iterable[OrientedUpdate],
    old_dist: np.ndarray,  # shape: (V,) int64
    old_flag: Any,
    is_landmark: np.ndarray | None,  # shape: (V,) bool
    improved: bool,
    switch_width: int | None = None,
) -> list[int]:
    """Affected superset w.r.t. one landmark, identical to the heap kernels.

    ``improved=False`` is Algorithm 2, ``improved=True`` is Algorithm 3
    (the heap references in :mod:`repro.core.batch_search`), which
    additionally needs ``old_flag`` / ``is_landmark``.  ``old_dist`` and
    ``old_flag`` come straight from
    :meth:`HighwayCoverLabelling.landmark_lengths` (any pair indexable by
    a vertex or an int64 index array works, e.g. materialised arrays) —
    no copy and no ``tolist()`` round-trip, so the search's own fixed
    cost is O(anchors), not O(V).
    ``graph`` is G', frozen or live; only a :class:`CSRGraph` can switch
    to the vector phase.  Returns the affected vertices as plain Python
    ints (level order).
    """
    if not isinstance(graph, CSRGraph):
        switch_width = INF  # the vector phase needs the CSR arrays
    elif switch_width is None:
        switch_width = SWITCH_WIDTH

    # -- anchor seeding (tiny: one entry per oriented update) ----------
    buckets: dict[int, list] = {}
    for tail, head, is_delete in oriented_updates:
        anchor = int(old_dist[tail]) + 1
        d_head = int(old_dist[head])
        if anchor > d_head:
            continue
        if improved:
            l_key = TRUE_KEY if is_landmark[head] else int(old_flag[tail])
            e_key = TRUE_KEY if is_delete else FALSE_KEY
            cls = 2 * l_key + e_key
            # The anchor itself must pass the β check (Lemma 5.17).
            if anchor == d_head and cls > 2 * int(old_flag[head]):
                continue
            buckets.setdefault(anchor, []).append((head, cls))
        else:
            buckets.setdefault(anchor, []).append(head)
    if not buckets:
        return []

    pending = sorted(buckets)
    pi = 0
    affected: set[int] = set()
    result: list[int] = []
    frontier: list = []
    level = -1

    # -- Python phase: narrow frontiers --------------------------------
    if sum(len(b) for b in buckets.values()) <= switch_width:
        neighbors = _python_view(graph).neighbors
        while frontier or pi < len(pending):
            if len(frontier) > switch_width:
                break  # wide regime: convert state and go vectorised
            nxt = level + 1 if frontier else pending[pi]
            anchors: Sequence = ()
            if pi < len(pending) and pending[pi] == nxt:
                anchors = buckets[nxt]
                pi += 1
            if improved:
                best: dict[int, int] = {}
                for v, cls in frontier:
                    e_key = cls & 1
                    l_half = cls >> 1
                    for w in neighbors(v):
                        if w in affected:
                            continue
                        d_w = old_dist[w]
                        if nxt > d_w:
                            continue
                        c2 = 2 * (TRUE_KEY if is_landmark[w] else l_half) + e_key
                        if nxt == d_w and c2 > 2 * old_flag[w]:
                            continue
                        prev = best.get(w)
                        if prev is None or c2 < prev:
                            best[w] = c2
                for v, cls in anchors:
                    if v not in affected:
                        prev = best.get(v)
                        if prev is None or cls < prev:
                            best[v] = cls
                frontier = list(best.items())
                for v in best:
                    affected.add(v)
                    result.append(v)
            else:
                next_frontier: list[int] = []
                for v in frontier:
                    for w in neighbors(v):
                        if w not in affected and nxt <= old_dist[w]:
                            affected.add(w)
                            result.append(w)
                            next_frontier.append(w)
                for v in anchors:
                    if v not in affected:
                        affected.add(v)
                        result.append(v)
                        next_frontier.append(v)
                frontier = next_frontier
            level = nxt
        if not frontier and pi >= len(pending):
            return result

    # -- vector phase: convert state, then numpy level sweeps ----------
    n = graph.num_vertices
    # The sweeps gather old state for whole frontiers, level after level:
    # read D's strided column and every flag once, into contiguous arrays
    # (~2 ms at 100k vertices).  Evaluating the flags through the reader
    # per level made the search on a 300x300 grid 15-30% slower.
    old_dist = np.ascontiguousarray(old_dist)
    if improved:
        old_flag = old_flag[np.arange(n, dtype=np.int64)]
    aff_mask = np.zeros(n, dtype=bool)
    if result:
        aff_mask[_as_index_array(result)] = True
    if improved:
        front = _as_index_array([v for v, _ in frontier])
        front_cls = _as_index_array([c for _, c in frontier])
    else:
        front = _as_index_array(frontier)
        front_cls = _EMPTY
    row_lo, row_hi = graph.starts, graph.ends
    indices = graph.indices
    iota = graph._iota()

    while front.size or pi < len(pending):
        nxt = level + 1 if front.size else pending[pi]
        chunks_v: list[np.ndarray] = []
        chunks_c: list[np.ndarray] = []
        if front.size:
            targets = _gather_targets(row_lo, row_hi, indices, front, iota)
            if targets.size:
                if improved:
                    counts = row_hi[front] - row_lo[front]
                    src_cls = np.repeat(front_cls, counts)
                    cand_cls = 2 * np.where(
                        is_landmark[targets], TRUE_KEY, src_cls >> 1
                    ) + (src_cls & 1)
                    d_w = old_dist[targets]
                    ok = ~aff_mask[targets] & (
                        (nxt < d_w)
                        | ((nxt == d_w) & (cand_cls <= 2 * old_flag[targets]))
                    )
                    chunks_v.append(targets[ok])
                    chunks_c.append(cand_cls[ok])
                else:
                    ok = ~aff_mask[targets] & (nxt <= old_dist[targets])
                    chunks_v.append(targets[ok])
        if pi < len(pending) and pending[pi] == nxt:
            anchors = buckets[nxt]
            pi += 1
            if improved:
                anchor_v = _as_index_array([v for v, _ in anchors])
                anchor_c = _as_index_array([c for _, c in anchors])
                keep = ~aff_mask[anchor_v]
                chunks_v.append(anchor_v[keep])
                chunks_c.append(anchor_c[keep])
            else:
                anchor_v = _as_index_array(anchors)
                chunks_v.append(anchor_v[~aff_mask[anchor_v]])
        if improved:
            # Settle the level class by class (True < False order): a
            # vertex reached under a smaller (l, e) class is marked
            # first and later classes skip it — the bucketed
            # min-reduction replacing per-entry heap pops.
            cand_v = np.concatenate(chunks_v) if chunks_v else _EMPTY
            cand_c = np.concatenate(chunks_c) if chunks_c else _EMPTY
            new_v: list[np.ndarray] = []
            new_c: list[np.ndarray] = []
            for cls in range(4):
                sub = cand_v[cand_c == cls]
                if not sub.size:
                    continue
                sub = np.unique(sub)
                sub = sub[~aff_mask[sub]]
                if not sub.size:
                    continue
                aff_mask[sub] = True
                new_v.append(sub)
                new_c.append(np.full(sub.size, cls, dtype=np.int64))
            if new_v:
                front = np.concatenate(new_v)
                front_cls = np.concatenate(new_c)
                result.extend(front.tolist())
            else:
                front = _EMPTY
                front_cls = _EMPTY
        else:
            cand_v = np.concatenate(chunks_v) if chunks_v else _EMPTY
            front = np.unique(cand_v)
            if front.size:
                aff_mask[front] = True
                result.extend(front.tolist())
        level = nxt
    return result


# ----------------------------------------------------------------------
# batch repair (Algorithm 4)
# ----------------------------------------------------------------------

#: Encoded (INF, False) — the bound of a vertex with no settled
#: predecessor, matching the heap's initial ``(INF, FALSE_KEY)``.
_INF_KEY = 2 * INF + FALSE_KEY


def batch_repair_adaptive(
    graph: Any,
    affected: Sequence[int],
    landmark_idx: int,
    labelling_new: Any,
    old_dist: np.ndarray,  # shape: (V,) int64
    old_flag: Any,
    is_landmark: np.ndarray,  # shape: (V,) bool
    symmetric_highway: bool = True,
    pred_graph: Any = None,
    switch_width: int | None = None,
) -> int:
    """Repair ``affected`` r-labels, highway cells and D entries; result
    identical to :func:`batch_repair`.

    ``graph`` carries successor rows (relaxation direction) and
    ``pred_graph`` predecessor rows for the boundary bounds — the other
    half of a digraph pair, or ``None`` (= ``graph``) when undirected.
    Both are frozen CSRs or both live.  On a live graph, and on a CSR
    whose affected set is small, the heap repair runs (O(affected)
    cost); larger sets run boundary-bound initialisation and
    level-synchronous relaxation as whole-array operations.  Unlike the
    search — whose vector phase only ever starts after a frontier has
    already grown wide — the vector repair pays O(V) scatter/mask
    initialisation up front, so the heap/vector break-even point scales
    with the graph: the threshold is ``switch_width`` scaled by
    ``num_vertices / 2**14`` (floored at 1).
    """
    if switch_width is None:
        switch_width = SWITCH_WIDTH
    if pred_graph is None:
        pred_graph = graph
    if not isinstance(graph, CSRGraph) or len(affected) <= (
        switch_width * max(1, graph.num_vertices >> 14)
    ):
        # A CSR's rows as Python lists: mostly already read, since a
        # small affected set means the search ran its Python phase over
        # the same rows.  Iterating them beats per-element numpy slice
        # indexing by ~3x in the heap loops.
        return batch_repair(
            _python_view(graph),
            affected,
            landmark_idx,
            labelling_new,
            old_dist,
            old_flag,
            is_landmark,
            symmetric_highway=symmetric_highway,
            pred_view=_python_view(pred_graph),
        )

    n = graph.num_vertices
    members = _as_index_array(affected)
    in_affected = np.zeros(n, dtype=bool)  # shape: (V,) bool
    in_affected[members] = True

    # -- boundary-bound initialisation from non-affected predecessors --
    p_lo, p_hi = pred_graph.starts, pred_graph.ends
    counts = p_hi[members] - p_lo[members]
    preds = _gather_targets(
        p_lo, p_hi, pred_graph.indices, members, pred_graph._iota()
    )
    owners = np.repeat(members, counts)
    ok = ~in_affected[preds] & (old_dist[preds] < INF)
    preds, owners = preds[ok], owners[ok]
    keys = 2 * (old_dist[preds] + 1) + np.where(
        is_landmark[owners], TRUE_KEY, old_flag[preds]
    )
    bound = np.full(n, _INF_KEY, dtype=np.int64)  # shape: (V,) int64
    np.minimum.at(bound, owners, keys)

    member_keys = bound[members]
    finite = member_keys < 2 * INF
    init_v = members[finite]
    init_k = member_keys[finite]
    order = np.argsort(init_k >> 1, kind="stable")
    init_v, init_k = init_v[order], init_k[order]
    init_d = init_k >> 1
    levels, starts = np.unique(init_d, return_index=True)
    ends = np.append(starts[1:], len(init_d))

    # -- level-synchronous relaxation restricted to the affected set ---
    settled = np.zeros(n, dtype=bool)  # shape: (V,) bool
    new_dist = np.full(n, INF, dtype=np.int64)  # shape: (V,) int64
    new_flag = np.full(n, FALSE_KEY, dtype=np.int64)  # shape: (V,) int64
    f_lo, f_hi = graph.starts, graph.ends
    f_indices, f_iota = graph.indices, graph._iota()
    front_v, front_f = _EMPTY, _EMPTY
    level = -1
    li = 0
    while front_v.size or li < len(levels):
        nxt = level + 1 if front_v.size else int(levels[li])
        chunks_v: list[np.ndarray] = []
        chunks_f: list[np.ndarray] = []
        if front_v.size:
            targets = _gather_targets(f_lo, f_hi, f_indices, front_v, f_iota)
            if targets.size:
                src_f = np.repeat(front_f, f_hi[front_v] - f_lo[front_v])
                ok = in_affected[targets] & ~settled[targets]
                targets, src_f = targets[ok], src_f[ok]
                chunks_v.append(targets)
                chunks_f.append(
                    np.where(is_landmark[targets], TRUE_KEY, src_f)
                )
        if li < len(levels) and int(levels[li]) == nxt:
            lo, hi = int(starts[li]), int(ends[li])
            seed_v, seed_f = init_v[lo:hi], init_k[lo:hi] & 1
            keep = ~settled[seed_v]
            chunks_v.append(seed_v[keep])
            chunks_f.append(seed_f[keep])
            li += 1
        new_v: list[np.ndarray] = []
        new_f: list[np.ndarray] = []
        if chunks_v:
            cand_v = np.concatenate(chunks_v)
            cand_f = np.concatenate(chunks_f)
            for flag in (TRUE_KEY, FALSE_KEY):  # True < False order
                sub = cand_v[cand_f == flag]
                if not sub.size:
                    continue
                sub = np.unique(sub)
                sub = sub[~settled[sub]]
                if not sub.size:
                    continue
                settled[sub] = True
                new_dist[sub] = nxt
                new_flag[sub] = flag
                new_v.append(sub)
                new_f.append(np.full(sub.size, flag, dtype=np.int64))
        if new_v:
            front_v = np.concatenate(new_v)
            front_f = np.concatenate(new_f)
        else:
            front_v, front_f = _EMPTY, _EMPTY
        level = nxt
    # Never-settled members keep (INF, False): unreachable in G'.

    # -- write phase (Lemma 5.14): labels and D vectorised, highway per
    # root ------------------------------------------------------------
    member_d = new_dist[members]
    member_f = new_flag[members]
    labelling_new.dist[members, landmark_idx] = member_d
    new_col = np.where(
        (member_d >= INF) | (member_f == TRUE_KEY), NO_LABEL, member_d
    )
    old_col = labelling_new.labels[members, landmark_idx]
    label_changed = new_col != old_col
    labelling_new.labels[members, landmark_idx] = new_col
    changed = int(np.count_nonzero(label_changed))

    landmark_members = members[is_landmark[members]]
    if landmark_members.size:
        label_changed_mask = np.zeros(n, dtype=bool)
        label_changed_mask[members] = label_changed
        highway = labelling_new.highway
        landmark_index = labelling_new.landmark_index
        for v in landmark_members.tolist():
            d = int(new_dist[v])
            stored = INF if d >= INF else d
            j = landmark_index[v]
            if highway[landmark_idx, j] != stored and not label_changed_mask[v]:
                changed += 1
            if symmetric_highway:
                labelling_new.set_highway_symmetric(landmark_idx, j, stored)
            else:
                labelling_new.set_highway(landmark_idx, j, stored)
    return changed
