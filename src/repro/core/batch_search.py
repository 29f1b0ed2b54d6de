"""Batch Search — Algorithms 2 and 3 of the paper, as the reference.

The two heap searches below are the paper-literal algorithms, kept as
the reference.  Production runs neither: every landmark runs
:func:`repro.core.batch_kernels.batch_search_adaptive`, and the tests
and ``benchmarks/bench_batch_kernels.py`` check it against them (and
:func:`affected_by_definition` checks them against Definition 5.12).
:func:`orient_updates` is shared by all of them.

Both algorithms run per landmark ``r`` over the *updated* graph ``G'`` while
reading old distances from the labelling (which still reflects ``G``).  Every
update ``(a, b)`` contributes an *anchor* — the endpoint farther from ``r`` —
seeded at its anchor distance ``d_G(r, pre-anchor) + 1``; a Dijkstra-style
sweep then grows the affected region through neighbours that pass the pruning
check against their old distance.

Algorithm 2 prunes with ``d + 1 <= d_G(r, w)`` and returns the CP-affected
superset (Lemma 5.8).  Algorithm 3 tracks extended landmark lengths
``(d, l, e)`` under the True < False order and prunes against
``β(r, w) = (d^L_G(r, w), True)`` (Lemma 5.17), returning a smaller superset
of the LD-affected vertices (Lemma 5.18).

Updates are passed *oriented*: each update appears once per traversal
direction as ``(tail, head, is_delete)``.  For undirected graphs the caller
supplies both orientations and the anchor rule ``d(tail) + 1 <= d(head)``
fires for at most one of them (none when the endpoints are equidistant,
matching the paper's "trivial update" observation under Lemma 5.2).  For
directed graphs only the true orientation is supplied.

A note on settle-once correctness in Algorithm 3: a vertex is expanded only
for its minimal popped key, yet later-arriving entries can carry a more
permissive deletion flag.  This is safe because the pruning threshold's
deletion component is uniformly ``True``: one can check case-by-case that an
entry with a smaller encoded key passes every downstream check that any
later entry for the same vertex would pass, so the first settlement
dominates all others (this is the observation implicit in the paper's proof
of Lemma 5.18).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.constants import INF
from repro.core.lengths import FALSE_KEY, TRUE_KEY

#: An oriented update: (tail, head, is_delete).
OrientedUpdate = tuple[int, int, bool]


def orient_updates(
    batch: Iterable[Any], directed: bool = False
) -> list[OrientedUpdate]:
    """Expand a normalised batch into oriented updates for the search.

    Undirected edges yield both orientations (the anchor test selects the
    right one per landmark); directed edges only their own.
    """
    oriented: list[OrientedUpdate] = []
    for update in batch:
        oriented.append((update.u, update.v, update.is_delete))
        if not directed:
            oriented.append((update.v, update.u, update.is_delete))
    return oriented


def batch_search_basic(
    graph: Any,
    oriented_updates: Iterable[OrientedUpdate],
    old_dist: Sequence[int],
) -> list[int]:
    """Algorithm 2: find the CP-affected superset w.r.t. one landmark.

    ``old_dist`` holds :math:`d_G(r, \\cdot)` read from the (old)
    labelling; ``graph`` is already updated to ``G'``.
    """
    heap: list[tuple[int, int]] = []
    for tail, head, _ in oriented_updates:
        anchor_distance = old_dist[tail] + 1
        if anchor_distance <= old_dist[head]:
            heap.append((anchor_distance, head))
    heapq.heapify(heap)

    affected: set[int] = set()
    result: list[int] = []
    while heap:
        d, v = heapq.heappop(heap)
        if v in affected:
            continue
        affected.add(v)
        result.append(v)
        next_d = d + 1
        for w in graph.neighbors(v):
            if w not in affected and next_d <= old_dist[w]:
                heapq.heappush(heap, (next_d, w))
    return result


def batch_search_improved(
    graph: Any,
    oriented_updates: Iterable[OrientedUpdate],
    old_dist: Sequence[int],
    old_flag: Sequence[int],
    is_landmark: Sequence[bool],
) -> list[int]:
    """Algorithm 3: improved batch search with extended landmark lengths.

    ``old_flag`` holds the encoded landmark flags of :math:`d^L_G(r, \\cdot)`
    (TRUE_KEY sorts first, per the paper's True < False convention).
    """
    heap: list[tuple[int, int, int, int]] = []
    for tail, head, is_delete in oriented_updates:
        d_tail = old_dist[tail]
        anchor_distance = d_tail + 1
        if anchor_distance > old_dist[head]:
            continue
        l_key = TRUE_KEY if is_landmark[head] else old_flag[tail]
        e_key = TRUE_KEY if is_delete else FALSE_KEY
        # The anchor itself must pass the β check (its prefix is part of any
        # composite path the proof of Lemma 5.18 follows).
        if (anchor_distance, l_key, e_key) <= (
            old_dist[head],
            old_flag[head],
            TRUE_KEY,
        ):
            heap.append((anchor_distance, l_key, e_key, head))
    heapq.heapify(heap)

    affected: set[int] = set()
    result: list[int] = []
    while heap:
        d, l_key, e_key, v = heapq.heappop(heap)
        if v in affected:
            continue
        affected.add(v)
        result.append(v)
        next_d = d + 1
        for w in graph.neighbors(v):
            if w in affected:
                continue
            w_l_key = TRUE_KEY if is_landmark[w] else l_key
            if (next_d, w_l_key, e_key) <= (
                old_dist[w],
                old_flag[w],
                TRUE_KEY,
            ):
                heapq.heappush(heap, (next_d, w_l_key, e_key, w))
    return result


def affected_by_definition(
    graph_old: Any, graph_new: Any, root: int, is_landmark: Any
) -> set[int]:
    """Brute-force LD-affected set (Definition 5.12, via Lemma 5.15).

    Test oracle only: a vertex is LD-affected iff its landmark distance
    (distance, flag) differs between G and G'.
    """
    from repro.core.construction import bfs_landmark_lengths

    dist_old, flag_old = bfs_landmark_lengths(graph_old, root, is_landmark)
    dist_new, flag_new = bfs_landmark_lengths(graph_new, root, is_landmark)
    n = min(len(dist_old), len(dist_new))
    affected = {
        int(v)
        for v in range(n)
        if dist_old[v] != dist_new[v]
        or (dist_old[v] < INF and bool(flag_old[v]) != bool(flag_new[v]))
    }
    # Vertices that exist only in G' are affected iff reachable there.
    for v in range(n, len(dist_new)):
        if dist_new[v] < INF:
            affected.add(int(v))
    return affected
