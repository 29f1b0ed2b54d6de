"""Batch repair (Algorithm 4) in isolation: boundary inference semantics."""

from repro.constants import INF
from repro.core.batch_repair import batch_repair
from repro.core.batch_search import batch_search_basic, orient_updates
from repro.core.construction import build_labelling
from repro.graph.batch import EdgeUpdate, apply_batch, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph import generators
from tests.conftest import landmark_arrays


def run_repair(graph, updates, landmarks, affected_override=None):
    """Search + repair for landmark 0; returns the repaired labelling."""
    labelling = build_labelling(graph, landmarks)
    batch = normalize_batch(updates, graph)
    apply_batch(graph, batch)
    labelling_new = labelling.copy()
    is_landmark = labelling.is_landmark.tolist()
    for i in range(len(landmarks)):
        dist, flag = landmark_arrays(labelling, i)
        old_dist, old_flag = dist.tolist(), flag.tolist()
        affected = (
            affected_override
            if affected_override is not None
            else batch_search_basic(graph, orient_updates(batch), old_dist)
        )
        batch_repair(
            graph, affected, i, labelling_new, old_dist, old_flag, is_landmark
        )
    return labelling_new


def test_repair_produces_minimal_labelling():
    graph = generators.erdos_renyi(30, 0.12, seed=1)
    edges = list(graph.edges())
    updates = [EdgeUpdate.delete(*edges[0]), EdgeUpdate.insert(0, 29)]
    repaired = run_repair(graph.copy(), updates, (0, 1))
    g2 = graph.copy()
    apply_batch(g2, normalize_batch(updates, g2))
    assert repaired.equals(build_labelling(g2, (0, 1)))


def test_repair_tolerates_overapproximate_affected_sets():
    """Extra (unaffected) vertices in V_aff must be rewritten unchanged."""
    graph = generators.cycle(8)
    updates = [EdgeUpdate.insert(0, 4)]
    everything = list(range(1, 8))  # wildly over-approximated
    repaired = run_repair(graph.copy(), updates, (0,), affected_override=everything)
    g2 = graph.copy()
    apply_batch(g2, normalize_batch(updates, g2))
    assert repaired.equals(build_labelling(g2, (0,)))


def test_repair_removes_labels_of_disconnected_vertices():
    graph = generators.path(5)
    repaired = run_repair(graph.copy(), [EdgeUpdate.delete(2, 3)], (0,))
    assert repaired.r_label(3, 0) is None
    assert repaired.r_label(4, 0) is None
    assert repaired.r_label(1, 0) == 1


def test_repair_updates_highway_for_landmarks():
    graph = generators.path(5)
    repaired = run_repair(graph.copy(), [EdgeUpdate.insert(0, 4)], (0, 4))
    assert repaired.highway[0, 1] == 1
    assert repaired.highway[1, 0] == 1


def test_repair_highway_to_infinity_on_disconnect():
    graph = generators.path(3)
    repaired = run_repair(graph.copy(), [EdgeUpdate.delete(1, 2)], (0, 2))
    assert repaired.highway[0, 1] >= INF
    assert repaired.highway[1, 0] >= INF


def test_repair_counts_changed_cells():
    graph = DynamicGraph.from_edges([(0, 1), (1, 2)])
    labelling = build_labelling(graph, (0,))
    batch = normalize_batch([EdgeUpdate.insert(0, 2)], graph)
    apply_batch(graph, batch)
    labelling_new = labelling.copy()
    dist, flag = landmark_arrays(labelling, 0)
    changed = batch_repair(
        graph,
        [2],
        0,
        labelling_new,
        dist.tolist(),
        flag.tolist(),
        labelling.is_landmark.tolist(),
    )
    assert changed == 1
    assert labelling_new.r_label(2, 0) == 1
