"""Hypothesis property tests over the core invariants.

These exercise the algorithms on adversarially shrunk random instances:

* Theorem 5.21 — every variant's post-update labelling equals a
  from-scratch build (correctness + minimality in one equality);
* query exactness against BFS for the index and the dynamic baselines;
* batch normalisation laws (cancellation, idempotence, validity).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.fulfd import FulFDIndex
from repro.baselines.fulpll import FullPLLIndex
from repro.core.index import HighwayCoverIndex
from repro.graph.batch import EdgeUpdate, normalize_batch
from repro.graph.dynamic_graph import DynamicGraph
from tests.conftest import bfs_oracle, landmark_arrays

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_updates(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)
    )
    graph = DynamicGraph.from_edges(edges, num_vertices=n)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    updates: list[EdgeUpdate] = []
    live = list(graph.edges())
    rng.shuffle(live)
    for a, b in live[: draw(st.integers(0, 4))]:
        updates.append(EdgeUpdate.delete(a, b))
    for _ in range(draw(st.integers(0, 4))):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            updates.append(EdgeUpdate.insert(a, b))
    rng.shuffle(updates)
    num_landmarks = draw(st.integers(1, min(4, n)))
    return graph, updates, num_landmarks


@SETTINGS
@given(
    data=graph_and_updates(),
    variant=st.sampled_from(["bhl", "bhl+", "bhl-s", "uhl", "uhl+"]),
)
def test_theorem_5_21_minimality(data, variant):
    graph, updates, k = data
    index = HighwayCoverIndex(graph, num_landmarks=k)
    index.batch_update(updates, variant=variant)
    assert index.check_minimality() == []


@SETTINGS
@given(data=graph_and_updates())
def test_index_queries_exact_after_update(data):
    graph, updates, k = data
    index = HighwayCoverIndex(graph, num_landmarks=k)
    index.batch_update(updates)
    n = graph.num_vertices
    for s in range(n):
        for t in range(s + 1, n):
            assert index.distance(s, t) == bfs_oracle(graph, s, t)


@SETTINGS
@given(data=graph_and_updates())
def test_fulpll_queries_exact_after_update(data):
    graph, updates, _ = data
    index = FullPLLIndex(graph)
    index.batch_update(updates)
    n = graph.num_vertices
    for s in range(n):
        for t in range(s + 1, n):
            assert index.distance(s, t) == bfs_oracle(graph, s, t)


@SETTINGS
@given(data=graph_and_updates())
def test_fulfd_queries_exact_after_update(data):
    graph, updates, k = data
    index = FulFDIndex(graph, num_roots=k, num_bp_neighbors=4)
    index.batch_update(updates)
    n = graph.num_vertices
    for s in range(n):
        for t in range(s + 1, n):
            assert index.distance(s, t) == bfs_oracle(graph, s, t)


@SETTINGS
@given(data=graph_and_updates())
def test_normalised_batch_is_valid_and_minimal(data):
    graph, updates, _ = data
    batch = normalize_batch(updates, graph)
    seen: set[tuple[int, int]] = set()
    for update in batch:
        key = (min(update.u, update.v), max(update.u, update.v))
        assert key not in seen, "edge must appear at most once"
        seen.add(key)
        exists = (
            max(update.u, update.v) < graph.num_vertices
            and graph.has_edge(update.u, update.v)
        )
        if update.is_insert:
            assert not exists
        else:
            assert exists
    # Idempotence: normalising the normalised batch changes nothing.
    again = normalize_batch(list(batch), graph)
    assert [(u.kind, u.u, u.v) for u in again] == [
        (u.kind, u.u, u.v) for u in batch
    ]


@SETTINGS
@given(data=graph_and_updates())
def test_affected_sets_nested(data):
    """Alg 3 result ⊆ Alg 2 result ⊇ truly affected, on every landmark."""
    from repro.core.batch_search import (
        affected_by_definition,
        batch_search_basic,
        batch_search_improved,
        orient_updates,
    )
    from repro.core.construction import build_labelling
    from repro.core.landmarks import select_landmarks
    from repro.graph.batch import apply_batch

    graph, updates, k = data
    landmarks = select_landmarks(graph, k)
    labelling = build_labelling(graph, landmarks)
    batch = normalize_batch(updates, graph)
    old_graph = graph.copy()
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    is_landmark = labelling.is_landmark.tolist()
    for i, root in enumerate(landmarks):
        dist, flag = landmark_arrays(labelling, i)
        basic = set(batch_search_basic(graph, oriented, dist.tolist()))
        improved = set(
            batch_search_improved(
                graph, oriented, dist.tolist(), flag.tolist(), is_landmark
            )
        )
        truth = affected_by_definition(
            old_graph, graph, root, labelling.is_landmark
        )
        assert improved <= basic
        assert truth <= improved
