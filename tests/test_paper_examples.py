"""Worked examples lifted from the paper, verified end to end.

Figure 3 / Examples 5.3-5.4 give a complete batch with hand-computed
distances, anchors and affected sets — a high-fidelity fixture for the
unified search.  Example 5.9's four cases pin down when labels change
without distance changes.
"""

from repro.core.batch_search import batch_search_basic, orient_updates
from repro.core.construction import build_labelling
from repro.graph.batch import EdgeUpdate, apply_batch, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph
from repro.core.index import HighwayCoverIndex
from tests.conftest import landmark_arrays

# Figure 3 vertex ids.
R, A, B, C, D, E, F, G = range(8)


def figure3_graph():
    """G of Figure 3: distances from r are a=1 b=3 c=2 d=3 e=4 f=5 g=6."""
    return DynamicGraph.from_edges(
        [(R, A), (A, C), (C, B), (C, D), (B, E), (E, F), (F, G)]
    )


FIGURE3_UPDATES = [
    EdgeUpdate.insert(A, B),
    EdgeUpdate.insert(D, E),
    EdgeUpdate.delete(A, C),
    EdgeUpdate.delete(B, E),
]


def test_figure3_old_distances():
    from repro.graph.traversal import bfs_distances

    dist = bfs_distances(figure3_graph(), R)
    assert list(dist[[A, B, C, D, E, F, G]]) == [1, 3, 2, 3, 4, 5, 6]


def test_figure3_new_distances_from_anchor_b():
    """The d_G'(b, v) row of the table under Figure 3."""
    from repro.graph.traversal import bfs_distances

    graph = figure3_graph()
    batch = normalize_batch(FIGURE3_UPDATES, graph)
    apply_batch(graph, batch)
    dist = bfs_distances(graph, B)
    assert list(dist[[A, B, C, D, E, F, G]]) == [1, 0, 1, 2, 3, 4, 5]


def test_example_54_affected_set():
    """Algorithm 2 finds exactly {b, c, d, e, f, g} (Example 5.4)."""
    graph = figure3_graph()
    labelling = build_labelling(graph, (R,))
    batch = normalize_batch(FIGURE3_UPDATES, graph)
    apply_batch(graph, batch)
    dist, _ = landmark_arrays(labelling, 0)
    affected = set(
        batch_search_basic(graph, orient_updates(batch), dist.tolist())
    )
    assert affected == {B, C, D, E, F, G}
    assert A not in affected, "a is unaffected: d_G(r, a) stays 1"


def test_figure3_repair_restores_minimality():
    graph = figure3_graph()
    index = HighwayCoverIndex(graph, landmarks=(R,))
    index.batch_update(FIGURE3_UPDATES)
    assert index.check_minimality() == []
    # New graph: r-a, a-b, b-c, c-d, d-e, e-f, f-g.
    for vertex, expected in [(A, 1), (B, 2), (C, 3), (D, 4), (E, 5), (F, 6), (G, 7)]:
        assert index.distance(R, vertex) == expected


def example_59_base(landmarks):
    """r=0, a=1, b=2, v=3; edges r-a, a-v, r-b (+ optional b-v)."""
    graph = DynamicGraph.from_edges([(0, 1), (1, 3), (0, 2)])
    return graph, landmarks


def test_example_59_case_a_no_label_change():
    graph, landmarks = example_59_base((0,))
    index = HighwayCoverIndex(graph, landmarks=landmarks)
    before = index.labelling.r_label(3, 0)
    index.batch_update([EdgeUpdate.insert(2, 3)])
    assert index.labelling.r_label(3, 0) == before == 2
    assert index.check_minimality() == []


def test_example_59_case_b_label_deleted():
    graph, landmarks = example_59_base((0, 2))
    index = HighwayCoverIndex(graph, landmarks=landmarks)
    assert index.labelling.r_label(3, 0) == 2
    index.batch_update([EdgeUpdate.insert(2, 3)])
    # New shortest path r-b-v goes through landmark b: r-label now redundant.
    assert index.labelling.r_label(3, 0) is None
    assert index.check_minimality() == []
    assert index.distance(0, 3) == 2


def test_example_59_case_c_no_label_change():
    graph = DynamicGraph.from_edges([(0, 1), (1, 3), (0, 2), (2, 3)])
    index = HighwayCoverIndex(graph, landmarks=(0,))
    before = index.labelling.r_label(3, 0)
    index.batch_update([EdgeUpdate.delete(2, 3)])
    assert index.labelling.r_label(3, 0) == before == 2
    assert index.check_minimality() == []


def test_example_59_case_d_label_inserted():
    graph = DynamicGraph.from_edges([(0, 1), (1, 3), (0, 2), (2, 3)])
    index = HighwayCoverIndex(graph, landmarks=(0, 2))
    # All covered through landmark b=2? No — r-a-v avoids it, but one
    # shortest path through b suffices to drop the label.
    assert index.labelling.r_label(3, 0) is None
    index.batch_update([EdgeUpdate.delete(2, 3)])
    # The last shortest path through landmark b is gone: label reappears.
    assert index.labelling.r_label(3, 0) == 2
    assert index.check_minimality() == []
    assert index.distance(0, 3) == 2


def test_example_55_composite_path_overshoot():
    """Example 5.5: CP-affected vertices may exceed truly affected ones.

    Long path r~u plus even longer r~v; delete (r, u) and insert (u, v):
    the search uses the *old* distance to u, so v is returned even when
    unaffected — repair must then confirm v's state unchanged.
    """
    # r=0; chain 0-1-2-3 = "long path" to u=3; chain 0-4-5-6-7 to v=7.
    graph = DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (0, 3)]
    )
    index = HighwayCoverIndex(graph, landmarks=(0,))
    index.batch_update([EdgeUpdate.delete(0, 3), EdgeUpdate.insert(3, 7)])
    assert index.check_minimality() == []
    assert index.distance(0, 3) == 3
    assert index.distance(0, 7) == 4
