"""Weighted extension (Section 6): Dijkstra labelling + weight-change batches."""

import random

import pytest

from repro.constants import INF
from repro.core.weighted import (
    WeightedHighwayCoverIndex,
    build_weighted_labelling,
    dijkstra_landmark_lengths,
    normalize_weight_updates,
)
from repro.errors import BatchError, GraphError
from repro.graph import generators
from repro.graph.traversal import dijkstra_distance_pair
from repro.graph.weighted_graph import WeightedDynamicGraph, WeightUpdate


def weighted_oracle(wgraph, s, t) -> float:
    d = dijkstra_distance_pair(wgraph, s, t)
    return float("inf") if d >= INF else d


def random_weighted(n, p, seed, low=1, high=8):
    base = generators.erdos_renyi(n, p, seed=seed)
    return generators.with_random_weights(base, low, high, seed=seed)


def test_static_queries_all_pairs():
    wgraph = random_weighted(20, 0.2, seed=1)
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=3)
    for s in range(20):
        for t in range(20):
            assert index.distance(s, t) == weighted_oracle(wgraph, s, t), (s, t)


def test_construction_matches_unweighted_when_unit_weights():
    """With all weights 1, the weighted build equals the BFS build."""
    from repro.core.construction import build_labelling

    base = generators.erdos_renyi(30, 0.12, seed=2)
    unit = WeightedDynamicGraph(base.num_vertices)
    for a, b in base.edges():
        unit.set_weight(a, b, 1)
    landmarks = (0, 1, 2)
    assert build_weighted_labelling(unit, landmarks).equals(
        build_labelling(base, landmarks)
    )


def test_dijkstra_landmark_flags():
    # Path 0 -2- 1 -3- 2 with landmark at 1: flag of 2 w.r.t. root 0 is True.
    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 2), (1, 2, 3)])
    import numpy as np

    is_landmark = np.array([True, True, False])
    dist, flag = dijkstra_landmark_lengths(wgraph, 0, is_landmark)
    assert list(dist) == [0, 2, 5]
    assert not flag[0] and flag[1] and flag[2]


@pytest.mark.parametrize("seed", range(6))
def test_minimality_after_mixed_weight_updates(seed):
    rng = random.Random(seed)
    wgraph = random_weighted(25, 0.18, seed=seed)
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=3)
    edges = list(wgraph.edges())
    rng.shuffle(edges)
    updates = []
    for a, b, w in edges[:2]:
        updates.append(WeightUpdate(a, b, None))  # deletion
    for a, b, w in edges[2:4]:
        updates.append(WeightUpdate(a, b, w + rng.randint(1, 5)))  # increase
    for a, b, w in edges[4:6]:
        updates.append(WeightUpdate(a, b, max(1, w - rng.randint(1, 5))))
    for _ in range(3):
        a, b = rng.randrange(25), rng.randrange(25)
        if a != b and not wgraph.has_edge(a, b):
            updates.append(WeightUpdate(a, b, rng.randint(1, 8)))  # insertion
    index.batch_update(updates)
    assert index.check_minimality() == [], seed


def test_maintained_distances_follow_increases_and_decreases():
    """D equals the Eq. 2 decode and a fresh build after weight increases
    (and a deletion), then after decreases (and an insertion)."""
    import numpy as np

    from repro.core.labelling import decode_distances

    rng = random.Random(21)
    wgraph = random_weighted(40, 0.12, seed=21)
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=4)
    edges = list(wgraph.edges())
    rng.shuffle(edges)
    increases = [
        WeightUpdate(a, b, w + rng.randint(2, 6)) for a, b, w in edges[:5]
    ]
    increases.append(WeightUpdate(*edges[5][:2], None))
    decreases = [WeightUpdate(a, b, 1) for a, b, _ in edges[6:11]]
    decreases.append(WeightUpdate(0, 41, 2))  # insertion, grows the graph
    for batch in (increases, decreases):
        index.batch_update(batch)
        lab = index.labelling
        assert np.array_equal(
            lab.dist, decode_distances(lab.labels, lab.highway, lab.landmarks)
        )
        assert index.check_minimality() == []
    assert index.labelling.dist[40, :].tolist() == [INF] * 4  # isolated


def test_queries_after_updates():
    rng = random.Random(11)
    wgraph = random_weighted(30, 0.15, seed=3)
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=3)
    edges = list(wgraph.edges())
    index.batch_update(
        [WeightUpdate(edges[0][0], edges[0][1], None),
         WeightUpdate(edges[1][0], edges[1][1], edges[1][2] + 4)]
    )
    for _ in range(60):
        s, t = rng.randrange(30), rng.randrange(30)
        assert index.distance(s, t) == weighted_oracle(wgraph, s, t)


def test_normalize_weight_updates():
    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 3)])
    updates = [
        WeightUpdate(0, 1, 5),
        WeightUpdate(1, 0, 7),  # same edge: last write wins
        WeightUpdate(0, 1, 3),  # ...which is a no-op vs the stored weight
        WeightUpdate(2, 2, 4),  # self-loop dropped
        WeightUpdate(0, 1, None) if False else WeightUpdate(1, 0, 3),
    ]
    assert normalize_weight_updates(updates, wgraph) == []
    result = normalize_weight_updates([WeightUpdate(0, 1, 9)], wgraph)
    assert result == [WeightUpdate(0, 1, 9)]
    # Deleting an absent edge is dropped.
    assert normalize_weight_updates([WeightUpdate(0, 1, None),
                                     WeightUpdate(0, 1, 3)], wgraph) == []


def test_update_stats_classification():
    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 3), (1, 2, 3)])
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=1)
    stats = index.batch_update(
        [WeightUpdate(0, 1, 6), WeightUpdate(1, 2, 1)]
    )
    assert stats.n_deletions == 1  # increase
    assert stats.n_insertions == 1  # decrease
    assert index.check_minimality() == []


def test_wrong_update_type_rejected():
    from repro.graph.batch import EdgeUpdate

    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 3)])
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=1)
    with pytest.raises(BatchError):
        index.batch_update([EdgeUpdate.insert(0, 2)])


def test_vertex_growth_weighted():
    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 2)])
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=1)
    index.batch_update([WeightUpdate(1, 4, 3)])
    assert index.graph.num_vertices == 5
    assert index.distance(0, 4) == 5
    assert index.check_minimality() == []


def test_failed_repair_restores_the_old_weights(monkeypatch):
    """A repair failure must not leave the new weights over the old
    labelling: every weight set by the batch is restored."""
    import repro.core.weighted as weighted_module

    real = weighted_module.weighted_batch_repair
    calls = []

    def fail_on_second_landmark(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("repair failed")
        return real(*args, **kwargs)

    wgraph = random_weighted(30, 0.15, seed=4)
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=3)
    before = sorted(index.graph.edges())
    labelling = index.labelling.copy()
    (a, b, w), (c, d, x) = before[0], before[1]
    n = wgraph.num_vertices
    updates = [WeightUpdate(a, b, None), WeightUpdate(c, d, x + 4)]
    updates += [
        WeightUpdate(s, t, 1)
        for s, t in ((0, n - 1), (1, n - 2))
        if not wgraph.has_edge(s, t)
    ]
    monkeypatch.setattr(
        weighted_module, "weighted_batch_repair", fail_on_second_landmark
    )
    with pytest.raises(RuntimeError):
        index.batch_update(updates)
    assert len(calls) == 2
    assert sorted(index.graph.edges()) == before
    assert index.labelling.equals(labelling)
    assert index.check_minimality() == []


def test_invalid_weight_mid_batch_restores_earlier_weights():
    wgraph = WeightedDynamicGraph.from_edges([(0, 1, 3), (1, 2, 3)])
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=1)
    before = sorted(index.graph.edges())
    with pytest.raises(GraphError):
        index.batch_update([WeightUpdate(0, 1, 6), WeightUpdate(1, 2, 0)])
    assert sorted(index.graph.edges()) == before
    assert index.check_minimality() == []
