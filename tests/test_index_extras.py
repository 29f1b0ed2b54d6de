"""Facade extras: path extraction, batched queries, vertex-level updates,
serialisation."""

import random

import pytest

from repro.core.index import HighwayCoverIndex
from repro.errors import IndexStateError
from repro.graph import generators
from repro.graph.batch import EdgeUpdate
from tests.conftest import bfs_oracle, random_mixed_updates


def test_shortest_path_is_valid_and_tight():
    rng = random.Random(1)
    graph = generators.erdos_renyi(60, 0.07, seed=1)
    index = HighwayCoverIndex(graph, num_landmarks=4)
    for _ in range(30):
        s, t = rng.randrange(60), rng.randrange(60)
        expected = index.distance(s, t)
        path = index.shortest_path(s, t)
        if expected == float("inf"):
            assert path is None
            continue
        assert path is not None
        assert path[0] == s and path[-1] == t
        assert len(path) == expected + 1
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b), (a, b)


def test_shortest_path_after_updates():
    rng = random.Random(2)
    graph = generators.barabasi_albert(80, 3, seed=2)
    index = HighwayCoverIndex(graph, num_landmarks=5)
    index.batch_update(random_mixed_updates(graph, rng, 5, 5))
    path = index.shortest_path(0, 79)
    assert path is not None
    assert len(path) == index.distance(0, 79) + 1


def test_shortest_path_same_vertex():
    graph = generators.path(4)
    index = HighwayCoverIndex(graph, num_landmarks=1)
    assert index.shortest_path(2, 2) == [2]


def test_batched_distances():
    graph = generators.cycle(8)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    pairs = [(0, 4), (1, 3), (2, 2)]
    assert index.distances(pairs) == [4, 2, 0]


def test_attach_and_detach_vertex():
    graph = generators.path(5)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    vertex, stats = index.attach_vertex([0, 4])
    assert vertex == 5
    assert stats.n_applied == 2
    assert index.distance(5, 2) == 3
    assert index.check_minimality() == []

    index.detach_vertex(vertex)
    assert index.distance(5, 0) == float("inf")
    assert index.graph.degree(vertex) == 0
    assert index.check_minimality() == []


def test_attach_isolated_vertex():
    graph = generators.path(3)
    index = HighwayCoverIndex(graph, num_landmarks=1)
    vertex, stats = index.attach_vertex([])
    assert vertex == 3
    assert stats.n_applied == 0
    assert index.distance(vertex, 0) == float("inf")


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(3)
    graph = generators.barabasi_albert(70, 3, seed=3)
    index = HighwayCoverIndex(graph, num_landmarks=4)
    index.batch_update(random_mixed_updates(graph, rng, 4, 4))
    path = tmp_path / "index.npz"
    index.save(path)

    loaded = HighwayCoverIndex.load(path)
    assert loaded.labelling.equals(index.labelling)
    assert loaded.graph.num_edges == index.graph.num_edges
    assert loaded.check_minimality() == []
    for _ in range(25):
        s, t = rng.randrange(70), rng.randrange(70)
        assert loaded.distance(s, t) == index.distance(s, t)
    # The loaded index is fully dynamic: updates keep working.
    loaded.batch_update([EdgeUpdate.insert(0, 69)] if not loaded.graph.has_edge(0, 69) else [EdgeUpdate.delete(0, 69)])
    assert loaded.check_minimality() == []


def test_load_rejects_bad_version(tmp_path):
    import numpy as np

    path = tmp_path / "bad.npz"
    np.savez(
        path,
        format_version=np.int64(99),
        num_vertices=np.int64(1),
        edges=np.zeros((0, 2), dtype=np.int64),
        labels=np.zeros((1, 1), dtype=np.int64),
        highway=np.zeros((1, 1), dtype=np.int64),
        landmarks=np.zeros(1, dtype=np.int64),
    )
    with pytest.raises(IndexStateError):
        HighwayCoverIndex.load(path)


def _save_archive(path, num_vertices, landmarks, labels_shape=None):
    import numpy as np

    r = len(landmarks)
    np.savez(
        path,
        format_version=np.int64(1),
        num_vertices=np.int64(num_vertices),
        edges=np.array([[0, 1], [1, 2]], dtype=np.int64),
        labels=np.full(labels_shape or (num_vertices, r), -1, dtype=np.int64),
        highway=np.zeros((r, r), dtype=np.int64),
        landmarks=np.array(landmarks, dtype=np.int64),
    )


@pytest.mark.parametrize(
    "landmarks, labels_shape",
    [
        ((0, 3), None),  # landmark id out of range
        ((-1, 1), None),  # negative landmark id
        ((1, 1), None),  # duplicated landmark id
        ((0, 1), (2, 2)),  # label rows do not match the vertex count
        ((0, 1), (3, 3)),  # label columns do not match the landmarks
    ],
)
def test_load_rejects_inconsistent_labelling(
    tmp_path, landmarks, labels_shape
):
    path = tmp_path / "bad.npz"
    _save_archive(path, 3, landmarks, labels_shape)
    with pytest.raises(IndexStateError):
        HighwayCoverIndex.load(path)


def test_empty_graph_rejected():
    from repro.graph.dynamic_graph import DynamicGraph

    with pytest.raises(IndexStateError):
        HighwayCoverIndex(DynamicGraph(0))


def test_path_oracle_agreement():
    """Path length always equals the BFS oracle distance."""
    rng = random.Random(4)
    graph = generators.erdos_renyi(40, 0.1, seed=4)
    index = HighwayCoverIndex(graph, num_landmarks=3)
    for _ in range(30):
        s, t = rng.randrange(40), rng.randrange(40)
        path = index.shortest_path(s, t)
        expected = bfs_oracle(graph, s, t)
        if path is None:
            assert expected == float("inf")
        else:
            assert len(path) - 1 == expected
