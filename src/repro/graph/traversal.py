"""Graph traversal primitives: BFS, bounded bidirectional BFS, Dijkstra.

All routines accept any object exposing ``num_vertices`` and
``neighbors(v)`` (a :class:`~repro.graph.dynamic_graph.DynamicGraph`, a
directed view, or a test double), so the same code serves the undirected,
directed-forward and directed-backward cases.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Collection, Iterable

import numpy as np

from repro.constants import INF


def bfs_distances(graph: Any, source: int) -> np.ndarray:
    """Full single-source BFS; returns an int64 array with INF sentinels."""
    dist = np.full(graph.num_vertices, INF, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        next_d = dist[v] + 1
        for w in graph.neighbors(v):
            if dist[w] >= INF:
                dist[w] = next_d
                queue.append(w)
    return dist


def bfs_distances_multi(graph: Any, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS (distance to the nearest source)."""
    dist = np.full(graph.num_vertices, INF, dtype=np.int64)
    queue = deque()
    for source in sources:
        if dist[source] >= INF:
            dist[source] = 0
            queue.append(source)
    while queue:
        v = queue.popleft()
        next_d = dist[v] + 1
        for w in graph.neighbors(v):
            if dist[w] >= INF:
                dist[w] = next_d
                queue.append(w)
    return dist


def bfs_distance_pair(graph: Any, source: int, target: int) -> int:
    """Early-exit BFS distance between two vertices (INF if disconnected)."""
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        next_d = dist[v] + 1
        for w in graph.neighbors(v):
            if w not in dist:
                if w == target:
                    return next_d
                dist[w] = next_d
                queue.append(w)
    return INF


def bidirectional_bfs(
    graph: Any,
    source: int,
    target: int,
    excluded: Collection[int] = (),
    bound: int = INF,
    backward_graph: Any | None = None,
) -> int:
    """Distance-bounded bidirectional BFS.

    This is the online-search half of the paper's query algorithm
    (Section 4): it explores ``G[V \\ excluded]`` from both endpoints,
    always expanding the smaller frontier, and never looks for paths of
    length >= ``bound`` (the labelling's upper bound, which is already a
    feasible answer).  Returns the length of the shortest path found, or
    ``bound`` itself when no shorter path exists (INF stays INF).

    For directed graphs pass the forward view as ``graph`` and the backward
    view as ``backward_graph``.
    """
    if source == target:
        return 0
    if source in excluded or target in excluded:
        # The query engine answers landmark queries from the labelling; a
        # bounded search that starts inside the excluded set finds nothing.
        return bound
    if backward_graph is None:
        backward_graph = graph

    best = bound
    dist_fwd: dict[int, int] = {source: 0}
    dist_bwd: dict[int, int] = {target: 0}
    frontier_fwd = [source]
    frontier_bwd = [target]
    level_fwd = 0
    level_bwd = 0

    while frontier_fwd and frontier_bwd:
        if level_fwd + level_bwd + 1 >= best:
            break
        # Expand the side with the smaller frontier (BiBFS optimisation the
        # paper's baseline uses); ties go to the forward side.
        if len(frontier_fwd) <= len(frontier_bwd):
            expand, dist_here, dist_other = frontier_fwd, dist_fwd, dist_bwd
            expand_graph = graph
            level_fwd += 1
            next_level = level_fwd
            forward_side = True
        else:
            expand, dist_here, dist_other = frontier_bwd, dist_bwd, dist_fwd
            expand_graph = backward_graph
            level_bwd += 1
            next_level = level_bwd
            forward_side = False
        next_frontier: list[int] = []
        for v in expand:
            for w in expand_graph.neighbors(v):
                if w in dist_here or w in excluded:
                    continue
                dist_here[w] = next_level
                other = dist_other.get(w)
                if other is not None:
                    candidate = next_level + other
                    if candidate < best:
                        best = candidate
                next_frontier.append(w)
        if forward_side:
            frontier_fwd = next_frontier
        else:
            frontier_bwd = next_frontier
    return best


def dijkstra_distances(wgraph: Any, source: int) -> np.ndarray:
    """Single-source Dijkstra on a :class:`WeightedDynamicGraph`."""
    dist = np.full(wgraph.num_vertices, INF, dtype=np.int64)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, weight in wgraph.neighbors(v).items():
            nd = d + weight
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def dijkstra_distance_pair(wgraph: Any, source: int, target: int) -> int:
    """Early-exit Dijkstra between two vertices."""
    if source == target:
        return 0
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == target:
            return d
        if d > dist.get(v, INF):
            continue
        for w, weight in wgraph.neighbors(v).items():
            nd = d + weight
            if nd < dist.get(w, INF):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return INF


def connected_components(graph: Any) -> list[list[int]]:
    """All connected components (lists of vertices), largest first."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    components: list[list[int]] = []
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        component = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    queue.append(w)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components

