"""Batch search (Algorithms 2 and 3): containment and pruning guarantees.

The contracts under test, straight from the paper:

* both algorithms return a *superset* of the LD-affected vertices
  (Lemmas 5.8 / 5.18) — missing one breaks repair soundness;
* Algorithm 3's result is contained in Algorithm 2's (its pruning is
  strictly stronger);
* updates with equidistant endpoints are trivial (Lemma 5.2): no anchor.
"""

import random

import pytest

from repro.core.batch_search import (
    affected_by_definition,
    batch_search_basic,
    batch_search_improved,
    orient_updates,
)
from repro.core.construction import build_labelling
from repro.core.landmarks import select_landmarks
from repro.graph import generators
from repro.graph.batch import apply_batch, normalize_batch
from tests.conftest import landmark_arrays, random_mixed_updates


def run_searches(graph, updates, landmarks):
    """Returns per-landmark (basic, improved, truly_affected) sets."""
    labelling = build_labelling(graph, landmarks)
    batch = normalize_batch(updates, graph)
    graph_old = graph.copy()
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    is_landmark = labelling.is_landmark.tolist()
    results = []
    for i in range(len(landmarks)):
        dist, flag = landmark_arrays(labelling, i)
        old_dist = dist.tolist()
        old_flag = flag.tolist()
        basic = set(batch_search_basic(graph, oriented, old_dist))
        improved = set(
            batch_search_improved(graph, oriented, old_dist, old_flag, is_landmark)
        )
        truth = affected_by_definition(
            graph_old, graph, landmarks[i], labelling.is_landmark
        )
        results.append((basic, improved, truth))
    return results


@pytest.mark.parametrize("seed", range(10))
def test_searches_contain_all_ld_affected(seed):
    rng = random.Random(seed)
    n = rng.randint(10, 45)
    graph = generators.erdos_renyi(n, rng.uniform(0.08, 0.25), seed=seed)
    landmarks = select_landmarks(graph, min(3, n))
    updates = random_mixed_updates(graph, rng, 3, 3)
    for basic, improved, truth in run_searches(graph, updates, landmarks):
        assert truth <= basic, f"Alg 2 missed {truth - basic}"
        assert truth <= improved, f"Alg 3 missed {truth - improved}"
        assert improved <= basic, "Alg 3 must prune at least as hard as Alg 2"


def test_trivial_update_produces_no_anchor():
    # In a 4-cycle, opposite corners are equidistant from the landmark.
    graph = generators.cycle(4)
    landmarks = (0,)
    labelling = build_labelling(graph, landmarks)
    # Edge (1, 3): both endpoints at distance 1 from landmark 0.
    from repro.graph.batch import EdgeUpdate

    batch = normalize_batch([EdgeUpdate.insert(1, 3)], graph)
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    dist, flag = landmark_arrays(labelling, 0)
    assert (
        batch_search_basic(graph, oriented, dist.tolist()) == []
    ), "equidistant endpoints affect nothing (Lemma 5.2)"
    assert (
        batch_search_improved(
            graph, oriented, dist.tolist(), flag.tolist(),
            labelling.is_landmark.tolist(),
        )
        == []
    )


def test_improved_search_prunes_example_59_cases():
    """Example 5.9 (a)/(c): distance and labels unchanged => v not returned.

    Graph: r=0, a=1, b=2, v=3; edges r-a, a-v, r-b.  Case (a) inserts
    (b, v) with b NOT a landmark: v gains a second shortest path but
    neither its distance nor its label changes, so Algorithm 3 prunes it
    while Algorithm 2 still returns it.
    """
    from repro.graph.batch import EdgeUpdate
    from repro.graph.dynamic_graph import DynamicGraph

    graph = DynamicGraph.from_edges([(0, 1), (1, 3), (0, 2)])
    landmarks = (0,)
    labelling = build_labelling(graph, landmarks)
    batch = normalize_batch([EdgeUpdate.insert(2, 3)], graph)
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    dist, flag = landmark_arrays(labelling, 0)
    basic = set(batch_search_basic(graph, oriented, dist.tolist()))
    improved = set(
        batch_search_improved(
            graph, oriented, dist.tolist(), flag.tolist(),
            labelling.is_landmark.tolist(),
        )
    )
    assert 3 in basic
    assert 3 not in improved, "case (a): new equal-length path is prunable"


def test_improved_search_keeps_example_59_case_b():
    """Example 5.9 (b): same topology but b IS a landmark => label change."""
    from repro.graph.batch import EdgeUpdate
    from repro.graph.dynamic_graph import DynamicGraph

    graph = DynamicGraph.from_edges([(0, 1), (1, 3), (0, 2)])
    landmarks = (0, 2)  # b = 2 is now a landmark
    labelling = build_labelling(graph, landmarks)
    batch = normalize_batch([EdgeUpdate.insert(2, 3)], graph)
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    dist, flag = landmark_arrays(labelling, 0)
    improved = set(
        batch_search_improved(
            graph, oriented, dist.tolist(), flag.tolist(),
            labelling.is_landmark.tolist(),
        )
    )
    assert 3 in improved, "case (b): the r-label of v must be deleted"


def test_orient_updates_directed_and_undirected():
    from repro.graph.batch import Batch, EdgeUpdate

    batch = Batch([EdgeUpdate.insert(1, 2), EdgeUpdate.delete(3, 4)])
    undirected = orient_updates(batch, directed=False)
    assert (1, 2, False) in undirected and (2, 1, False) in undirected
    assert (3, 4, True) in undirected and (4, 3, True) in undirected
    directed = orient_updates(batch, directed=True)
    assert len(directed) == 2
