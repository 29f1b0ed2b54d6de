"""Static construction vs the brute-force landmark-length oracle.

Lemma 5.14 characterises the minimal labelling exactly: vertex v holds an
r-label iff it is reachable, not a landmark, and *no* shortest r-v path
passes through another landmark.  The construction must reproduce this for
every vertex/landmark pair.
"""

import pytest

from repro.constants import INF, NO_LABEL
from repro.core.construction import bfs_landmark_lengths, build_labelling
from repro.core.labelling import decode_distances
from repro.graph import generators
from repro.obs.trace import get_tracer
from tests.conftest import landmark_arrays


def brute_force_landmark_length(graph, root, landmarks, vertex):
    """Enumerate shortest paths via DFS on the BFS DAG (tiny graphs only)."""
    from repro.graph.traversal import bfs_distances

    dist = bfs_distances(graph, root)
    if dist[vertex] >= INF:
        return INF, False
    other = set(landmarks) - {root}

    def through_landmark(v):
        # Does some shortest root-v path contain a landmark other than root?
        if v in other:
            return True
        if v == root:
            return False
        return any(
            dist[u] == dist[v] - 1 and through_landmark(u)
            for u in graph.neighbors(v)
        )

    return int(dist[vertex]), through_landmark(vertex)


@pytest.mark.parametrize("seed", range(6))
def test_bfs_landmark_lengths_match_brute_force(seed):
    graph = generators.erdos_renyi(18, 0.2, seed=seed)
    landmarks = (0, 1, 2)
    lab = build_labelling(graph, landmarks)
    dist, flag = bfs_landmark_lengths(graph, 0, lab.is_landmark)
    for v in range(graph.num_vertices):
        expected_d, expected_f = brute_force_landmark_length(
            graph, 0, landmarks, v
        )
        assert dist[v] == expected_d
        if expected_d < INF:
            assert bool(flag[v]) == expected_f, f"vertex {v}"


@pytest.mark.parametrize("seed", range(6))
def test_labels_match_lemma_5_14(seed):
    graph = generators.erdos_renyi(18, 0.15, seed=100 + seed)
    landmarks = (3, 7)
    lab = build_labelling(graph, landmarks)
    for i, root in enumerate(landmarks):
        for v in range(graph.num_vertices):
            d, through = brute_force_landmark_length(graph, root, landmarks, v)
            entry = lab.labels[v, i]
            if v in landmarks:
                assert entry == NO_LABEL
            elif d >= INF or through:
                assert entry == NO_LABEL, f"vertex {v} should have no label"
            else:
                assert entry == d, f"vertex {v} label wrong"


def test_highway_distances_exact():
    from repro.graph.traversal import bfs_distances

    graph = generators.erdos_renyi(40, 0.08, seed=5)
    landmarks = (0, 1, 2, 3)
    lab = build_labelling(graph, landmarks)
    for i, r in enumerate(landmarks):
        dist = bfs_distances(graph, r)
        for j, q in enumerate(landmarks):
            assert lab.highway[i, j] == dist[q]


def test_star_labelling_is_tiny():
    """All shortest paths go through the hub: labels shrink to nothing."""
    graph = generators.star(50)
    lab = build_labelling(graph, (0, 1))
    # Every leaf's path to landmark 1 passes through landmark 0, so only
    # the 0-labels survive.
    assert lab.size() == 48  # 49 leaves minus landmark 1 itself
    dist, _ = landmark_arrays(lab, 1)
    assert dist[17] == 2


def test_disconnected_graph():
    graph = generators.path(3)
    graph.ensure_vertex(5)
    graph.add_edge(4, 5)
    lab = build_labelling(graph, (0,))
    assert lab.r_label(4, 0) is None
    dist, _ = landmark_arrays(lab, 0)
    assert dist[4] >= INF


def test_minimality_against_all_covers():
    """No entry can be dropped: removing any breaks the cover property."""
    graph = generators.erdos_renyi(15, 0.25, seed=9)
    landmarks = (0, 1)
    lab = build_labelling(graph, landmarks)
    from repro.graph.traversal import bfs_distances

    for i, r in enumerate(landmarks):
        truth = bfs_distances(graph, r)
        for v in range(graph.num_vertices):
            if lab.labels[v, i] == NO_LABEL:
                continue
            # D is maintained, not decoded: read the Eq. 2 decode of the
            # labels with the entry dropped.
            removed = lab.labels.copy()
            removed[v, i] = NO_LABEL
            decoded = decode_distances(removed, lab.highway, landmarks)[:, i]
            assert decoded[v] > truth[v], (
                f"entry ({r}, {v}) is redundant — labelling not minimal"
            )


def test_a_traced_build_is_one_span_over_the_first_freeze_and_the_sweep():
    """Building over a graph never frozen is one build_labelling span:
    the graph's first freeze_csr is its only child, so its self time is
    the sweep, and it carries the landmarks, the sweep's levels (one per
    frontier expansion: the deepest level plus the one that finds
    nothing new) and the arcs gathered (each row once per distinct level
    at which some landmark reaches it)."""
    from repro.graph.traversal import bfs_distances

    graph = generators.barabasi_albert(120, 2, seed=3)
    graph.ensure_vertex(121)  # two more vertices, one edge: unreachable
    graph.add_edge(120, 121)
    landmarks = (0, 1, 7, 120)
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        build_labelling(graph, landmarks)
        events = tracer.events()
    finally:
        tracer.disable()
        tracer.clear()
    (build,) = [e for e in events if e["name"] == "build_labelling"]
    children = [
        e for e in events if e["args"]["parent_id"] == build["args"]["span_id"]
    ]
    assert [c["name"] for c in children] == ["freeze_csr"]
    assert children[0]["args"]["rows"] == graph.num_vertices
    dist = [bfs_distances(graph, r) for r in landmarks]
    levels = {v: {int(d[v]) for d in dist if d[v] < INF} for v in range(122)}
    assert build["args"]["landmarks"] == len(landmarks)
    assert build["args"]["levels"] == max(max(ds) for ds in levels.values()) + 1
    assert build["args"]["arcs"] == sum(
        graph.degree(v) * len(ds) for v, ds in levels.items()
    )
