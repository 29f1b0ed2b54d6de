"""End-to-end minimality (Theorem 5.21) for every BatchHL variant.

The single most important invariant in the repository: after any batch
update, the maintained labelling must be bit-identical to a from-scratch
build on the updated graph — that is simultaneously correctness *and*
minimality.
"""

import random

import pytest

from repro.core.batchhl import Variant, resolve_variant, variant_plan
from repro.core.index import HighwayCoverIndex
from repro.errors import BatchError
from repro.graph import generators
from repro.graph.batch import Batch, EdgeUpdate
from tests.conftest import bfs_oracle, random_mixed_updates

ALL_VARIANTS = ["bhl", "bhl+", "bhl-s", "uhl", "uhl+"]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_minimality_random_graphs(variant):
    rng = random.Random(hash(variant) & 0xFFFF)
    for trial in range(8):
        n = rng.randint(10, 60)
        graph = generators.erdos_renyi(n, rng.uniform(0.05, 0.2), seed=trial)
        index = HighwayCoverIndex(graph, num_landmarks=min(4, n))
        updates = random_mixed_updates(graph, rng, 4, 4)
        index.batch_update(updates, variant=variant)
        assert index.check_minimality() == [], (variant, trial)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_repeated_batches_stay_minimal(variant):
    rng = random.Random(7)
    graph = generators.barabasi_albert(80, 3, seed=1)
    index = HighwayCoverIndex(graph, num_landmarks=5)
    for _ in range(4):
        updates = random_mixed_updates(graph, rng, 3, 3)
        index.batch_update(updates, variant=variant)
    assert index.check_minimality() == []


def test_pure_insertions_and_pure_deletions():
    rng = random.Random(3)
    graph = generators.erdos_renyi(50, 0.12, seed=4)
    index = HighwayCoverIndex(graph, num_landmarks=4)
    index.batch_update(random_mixed_updates(graph, rng, 6, 0))
    assert index.check_minimality() == []
    index.batch_update(random_mixed_updates(graph, rng, 0, 6))
    assert index.check_minimality() == []


def test_disconnecting_and_reconnecting():
    # Two triangles joined by one bridge.
    graph = generators.complete(3)
    graph.ensure_vertex(5)
    graph.add_edge(3, 4)
    graph.add_edge(4, 5)
    graph.add_edge(3, 5)
    graph.add_edge(2, 3)  # the bridge
    index = HighwayCoverIndex(graph, num_landmarks=2)
    index.batch_update([EdgeUpdate.delete(2, 3)])
    assert index.check_minimality() == []
    assert index.distance(0, 5) == float("inf")
    index.batch_update([EdgeUpdate.insert(2, 3)])
    assert index.check_minimality() == []
    assert index.distance(0, 5) == 3


def test_vertex_growth_through_batch():
    graph = generators.path(4)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    index.batch_update(
        [EdgeUpdate.insert(3, 6), EdgeUpdate.insert(6, 7)]
    )
    assert index.graph.num_vertices == 8
    assert index.check_minimality() == []
    assert index.distance(0, 7) == 5
    assert index.distance(0, 4) == float("inf")  # grown but unattached


def test_empty_and_invalid_batches_are_noops():
    graph = generators.cycle(6)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    before = index.labelling.copy()
    stats = index.batch_update([])
    assert stats.n_applied == 0
    stats = index.batch_update(
        [EdgeUpdate.insert(0, 1), EdgeUpdate.delete(0, 3)]  # both invalid
    )
    assert stats.n_applied == 0
    assert index.labelling.equals(before)


def test_insert_delete_cancel_is_noop():
    graph = generators.cycle(6)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    before = index.labelling.copy()
    stats = index.batch_update(
        [EdgeUpdate.insert(0, 2), EdgeUpdate.delete(0, 2)]
    )
    assert stats.n_applied == 0
    assert index.labelling.equals(before)


def test_single_edge_helpers():
    graph = generators.path(5)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    index.insert_edge(0, 4)
    assert index.distance(0, 4) == 1
    index.delete_edge(0, 4)
    assert index.distance(0, 4) == 4
    assert index.check_minimality() == []


def test_queries_correct_after_every_variant(rng):
    for variant in ALL_VARIANTS:
        graph = generators.barabasi_albert(70, 3, seed=11)
        index = HighwayCoverIndex(graph, num_landmarks=4)
        updates = random_mixed_updates(graph, rng, 5, 5)
        index.batch_update(updates, variant=variant)
        for _ in range(40):
            s, t = rng.randrange(70), rng.randrange(70)
            assert index.distance(s, t) == bfs_oracle(graph, s, t), (variant, s, t)


def test_stats_are_populated():
    graph = generators.barabasi_albert(60, 3, seed=2)
    index = HighwayCoverIndex(graph, num_landmarks=3)
    edges = list(graph.edges())
    stats = index.batch_update(
        [EdgeUpdate.delete(*edges[0]), EdgeUpdate.delete(*edges[1])]
    )
    assert stats.variant == "bhl+"
    assert stats.n_applied == 2
    assert stats.n_deletions == 2
    assert len(stats.affected_per_landmark) == 3
    assert stats.total_affected >= 0
    assert stats.total_seconds > 0


def test_variant_plan_decomposition():
    batch = Batch(
        [EdgeUpdate.insert(0, 1), EdgeUpdate.delete(2, 3), EdgeUpdate.insert(4, 5)]
    )
    plan = variant_plan(batch, Variant.BHL_SPLIT)
    assert [len(b) for b, _ in plan] == [2, 1]
    assert all(improved is False for _, improved in plan)
    plan = variant_plan(batch, Variant.UHL_PLUS)
    assert [len(b) for b, _ in plan] == [1, 1, 1]
    assert all(improved for _, improved in plan)
    assert variant_plan(Batch([]), Variant.BHL) == []


def test_resolve_variant():
    assert resolve_variant("bhl+") is Variant.BHL_PLUS
    assert resolve_variant(Variant.UHL) is Variant.UHL
    with pytest.raises(BatchError):
        resolve_variant("turbo")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_vertex_growth_stays_minimal_across_variants(variant):
    """Regression guard: growing batches — chained new vertices, id gaps,
    growth mixed with deletions — must reach the rebuild labelling under
    every variant, including unit-update processing."""
    rng = random.Random(hash(variant) & 0xFFF)
    for trial in range(4):
        graph = generators.erdos_renyi(30, 0.12, seed=trial)
        index = HighwayCoverIndex(graph, num_landmarks=3)
        n = index.graph.num_vertices
        edges = list(index.graph.edges())
        rng.shuffle(edges)
        updates = [
            EdgeUpdate.insert(rng.randrange(n), n),
            EdgeUpdate.insert(n, n + 1),        # reachable only in-batch
            EdgeUpdate.insert(rng.randrange(n), n + 3),  # id gap
            EdgeUpdate.delete(*edges[0]),
        ]
        index.batch_update(updates, variant=variant)
        assert index.graph.num_vertices == n + 4
        assert index.check_minimality() == [], (variant, trial)
        assert index.distance(n, n + 1) == 1
        assert index.distance(0, n + 2) == float("inf")  # gap: isolated


def test_self_loops_are_noops_for_every_variant():
    graph = generators.cycle(8)
    for variant in ALL_VARIANTS:
        index = HighwayCoverIndex(graph.copy(), num_landmarks=2)
        before = index.labelling.copy()
        stats = index.batch_update(
            [EdgeUpdate(3, 3, False), EdgeUpdate(5, 5, True)],
            variant=variant,
        )
        assert stats.n_applied == 0
        assert index.labelling.equals(before), variant
        assert index.graph.num_edges == 8
