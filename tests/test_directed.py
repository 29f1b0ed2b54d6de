"""Directed extension (Section 6): two-sided labellings, oriented anchors."""

import random

import numpy as np
import pytest

from repro.constants import INF
from repro.core.directed import DirectedHighwayCoverIndex
from repro.errors import IndexStateError
from repro.graph import generators
from repro.graph.batch import EdgeUpdate
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.traversal import bfs_distance_pair


def directed_oracle(digraph, s, t) -> float:
    d = bfs_distance_pair(digraph.out_view(), s, t)
    return float("inf") if d >= INF else d


def random_digraph(n, p, seed, reciprocal=0.4):
    und = generators.erdos_renyi(n, p, seed=seed)
    return generators.to_directed(und, reciprocal_p=reciprocal, seed=seed)


def random_directed_updates(digraph, rng, n_del, n_ins):
    updates = []
    edges = list(digraph.edges())
    rng.shuffle(edges)
    updates += [EdgeUpdate.delete(a, b) for a, b in edges[:n_del]]
    n = digraph.num_vertices
    added = 0
    while added < n_ins:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not digraph.has_edge(a, b):
            updates.append(EdgeUpdate.insert(a, b))
            added += 1
    rng.shuffle(updates)
    return updates


def test_static_queries_all_pairs():
    digraph = random_digraph(20, 0.15, seed=1)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=3)
    for s in range(20):
        for t in range(20):
            assert index.distance(s, t) == directed_oracle(digraph, s, t), (s, t)


def test_asymmetric_distances():
    digraph = DynamicDiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=1)
    assert index.distance(0, 2) == 2
    assert index.distance(2, 0) == 1


def test_highway_transpose_invariant():
    digraph = random_digraph(40, 0.1, seed=2)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=4)
    assert np.array_equal(index.backward.highway, index.forward.highway.T)
    rng = random.Random(3)
    index.batch_update(random_directed_updates(digraph, rng, 4, 4))
    assert np.array_equal(index.backward.highway, index.forward.highway.T)


@pytest.mark.parametrize("variant", ["bhl", "bhl+", "bhl-s", "uhl", "uhl+"])
def test_minimality_after_updates(variant):
    rng = random.Random(hash(variant) & 0xFFF)
    for trial in range(5):
        digraph = random_digraph(30, 0.12, seed=trial)
        index = DirectedHighwayCoverIndex(digraph, num_landmarks=3)
        index.batch_update(
            random_directed_updates(digraph, rng, 3, 3), variant=variant
        )
        assert index.check_minimality() == [], (variant, trial)


def test_queries_after_repeated_updates():
    rng = random.Random(9)
    digraph = random_digraph(35, 0.1, seed=5)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=3)
    for _ in range(3):
        index.batch_update(random_directed_updates(digraph, rng, 3, 3))
        for _ in range(40):
            s, t = rng.randrange(35), rng.randrange(35)
            assert index.distance(s, t) == directed_oracle(digraph, s, t)


def test_vertex_growth_directed():
    digraph = DynamicDiGraph.from_edges([(0, 1), (1, 2)])
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=2)
    index.batch_update([EdgeUpdate.insert(2, 5)])
    assert index.graph.num_vertices == 6
    assert index.distance(0, 5) == 3
    assert index.distance(5, 0) == float("inf")
    assert index.check_minimality() == []


def test_label_size_counts_both_sides():
    digraph = random_digraph(25, 0.15, seed=7)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=3)
    assert index.label_size() == index.forward.size() + index.backward.size()
    assert index.size_bytes() > 0


def test_empty_graph_rejected():
    with pytest.raises(IndexStateError):
        DirectedHighwayCoverIndex(DynamicDiGraph(0))



@pytest.mark.parametrize(
    "variant, failing_call",
    [
        ("bhl+", 2),  # the backward pass of the only sub-batch
        ("uhl", 3),  # the forward pass of the second unit sub-batch
    ],
)
def test_failed_pass_rolls_back_the_batch(monkeypatch, variant, failing_call):
    """A failed pass must leave the arcs and both labellings as they were
    — also those of earlier, successful sub-batches — not a repaired
    forward labelling over G'."""
    import repro.core.batchhl as batchhl_module

    real = batchhl_module.process_landmarks
    calls = []

    def flaky_process_landmarks(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise RuntimeError("pass failed")
        return real(*args, **kwargs)

    rng = random.Random(12)
    digraph = random_digraph(40, 0.1, seed=7)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=4)
    before_arcs = set(index.graph.edges())
    forward, backward = index.forward.copy(), index.backward.copy()
    monkeypatch.setattr(
        batchhl_module, "process_landmarks", flaky_process_landmarks
    )
    with pytest.raises(RuntimeError):
        index.batch_update(
            random_directed_updates(digraph, rng, 2, 2), variant=variant
        )
    assert len(calls) == failing_call
    assert set(index.graph.edges()) == before_arcs
    assert index.forward.equals(forward)
    assert index.backward.equals(backward)
    assert index.check_minimality() == []
