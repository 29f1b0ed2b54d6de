"""Query processing (Section 4).

A distance query combines two ingredients:

1. the labelling upper bound :math:`d^\\top_{st}` (Eq. 3) — the best s-t
   path through a landmark, exact whenever some shortest path passes
   through one; one O(R) sum of rows s and t of the labelling's
   landmark-distance matrix D;
2. a distance-bounded bidirectional BFS over the *sparsified* graph
   ``G[V \\ R]`` — landmarks removed — which can only find paths avoiding
   every landmark, and never needs to look at lengths >= the bound.

Queries touching a landmark are answered from the labelling alone: the
highway cover property (Eq. 2) makes landmark-to-anything distances exact,
and D stores them.

The same query serves digraphs (Section 6) given a backward labelling, one
over in-neighbours: it supplies the exact ``d(s -> r)`` side of the bound,
the forward labelling the ``d(r -> t)`` side, and the bounded search
expands forward from ``s`` over out-rows and backward from ``t`` over
in-rows.
"""

from __future__ import annotations

from typing import Any

from repro.constants import INF
from repro.core.labelling import HighwayCoverLabelling
from repro.graph.csr import CSRGraph, bidirectional_distance
from repro.graph.traversal import bidirectional_bfs


def query_distance(
    graph: Any,
    labelling: HighwayCoverLabelling,
    s: int,
    t: int,
    landmark_set: frozenset[int],
    csr: CSRGraph | None = None,
    backward: HighwayCoverLabelling | None = None,
    backward_csr: CSRGraph | None = None,
) -> int:
    """Exact s-t distance (internal INF sentinel for unreachable).

    With ``csr`` (a frozen :class:`~repro.graph.csr.CSRGraph` of the same
    topology as ``graph``), the bounded search runs on the adaptive CSR
    kernel instead of walking the mutable adjacency sets — this is how
    every index read path queries; ``graph`` is then only a fallback for
    callers that never froze a view.

    On a digraph, ``labelling`` and ``csr`` are the forward ones (over
    out-neighbours) and ``backward``/``backward_csr`` their in-neighbour
    twins; each defaults to its forward counterpart, which is exactly the
    undirected case.
    """
    if s == t:
        return 0
    if backward is None:
        backward = labelling
    s_idx = labelling.landmark_index.get(s)
    t_idx = labelling.landmark_index.get(t)
    if s_idx is not None and t_idx is not None:
        return int(labelling.highway[s_idx, t_idx])
    if s_idx is not None:
        return int(labelling.decoded_landmark_distances(t)[s_idx])
    if t_idx is not None:
        return int(backward.decoded_landmark_distances(s)[t_idx])
    bound = labelling.upper_bound(s, t, backward=backward)
    if bound <= 1:
        return bound  # an adjacent pair cannot improve below 1
    if csr is not None:
        best = bidirectional_distance(
            csr, s, t, excluded=landmark_set, bound=bound, backward=backward_csr
        )
    else:
        best = bidirectional_bfs(
            graph, s, t, excluded=landmark_set, bound=bound
        )
    return min(best, INF)
