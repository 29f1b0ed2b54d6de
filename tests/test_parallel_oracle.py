"""Cross-backend oracle: the sharded index vs. index-free ground truth.

Every workload generator in :mod:`repro.workloads` is driven through an
``hcl-sharded`` index (maintained on a worker-process pool) side by side
with the :class:`~repro.baselines.bibfs.BiBFSIndex` online-search
baseline (and a from-scratch PLL build at the end of the dataset run) —
the answers must agree on every sampled pair, uniform and skewed, after
every batch.  Landmark-incident and disconnecting updates get dedicated cases because
they exercise the highway-repair and unreachable-label paths.
"""

from __future__ import annotations

import random

import pytest

from repro import EdgeUpdate, open_oracle
from repro.baselines.bibfs import BiBFSIndex
from repro.baselines.pll import PrunedLandmarkLabelling
from repro.graph import generators
from repro.workloads import load_dataset, temporal_stream
from repro.workloads.queries import sample_query_pairs, sample_skewed_query_pairs
from repro.workloads.temporal import stream_batches
from repro.workloads.updates import make_workload


def sample_pairs(graph, seed: int) -> list[tuple[int, int]]:
    """Uniform plus hot-tier-skewed pairs — both query shapes we serve."""
    return sample_query_pairs(graph, 20, seed=seed) + sample_skewed_query_pairs(
        graph, 20, seed=seed, skew=3.0
    )


def assert_matches_oracle(index, oracle, pairs, context: str) -> None:
    for s, t in pairs:
        got, want = index.distance(s, t), oracle.distance(s, t)
        assert got == want, f"{context}: d({s},{t}) = {got}, expected {want}"


@pytest.mark.parametrize(
    "setting", ("decremental", "incremental", "fully-dynamic")
)
def test_update_workloads_match_bibfs(setting, shard_pool):
    graph = generators.powerlaw_cluster(130, 3, 0.3, seed=9)
    workload = make_workload(setting, graph, num_batches=3, batch_size=14, seed=9)
    index = open_oracle(
        "hcl-sharded", workload.graph.copy(), num_landmarks=6, pool=shard_pool
    )
    oracle = BiBFSIndex(workload.graph.copy())
    for batch_no, batch in enumerate(workload.batches):
        index.batch_update(batch)
        oracle.batch_update(batch)
        assert_matches_oracle(
            index,
            oracle,
            sample_pairs(index.graph, seed=batch_no),
            f"setting={setting} batch={batch_no}",
        )
    assert index.check_minimality() == []


def test_temporal_stream_matches_bibfs(shard_pool):
    graph = generators.barabasi_albert(110, 2, seed=4)
    events = temporal_stream(graph, 60, churn=0.4, seed=4)
    index = open_oracle(
        "hcl-sharded", graph.copy(), num_landmarks=5, pool=shard_pool
    )
    oracle = BiBFSIndex(graph.copy())
    for batch_no, batch in enumerate(stream_batches(events, batch_size=15)):
        index.batch_update(batch)
        oracle.batch_update(batch)
        assert_matches_oracle(
            index,
            oracle,
            sample_pairs(index.graph, seed=100 + batch_no),
            f"temporal batch={batch_no}",
        )


def test_dataset_replica_matches_bibfs_and_pll(shard_pool):
    graph = load_dataset("youtube", scale=0.06)
    workload = make_workload(
        "fully-dynamic", graph, num_batches=2, batch_size=16, seed=2
    )
    index = open_oracle(
        "hcl-sharded", workload.graph.copy(), num_landmarks=6, pool=shard_pool
    )
    oracle = BiBFSIndex(workload.graph.copy())
    for batch_no, batch in enumerate(workload.batches):
        index.batch_update(batch)
        oracle.batch_update(batch)
        assert_matches_oracle(
            index,
            oracle,
            sample_pairs(index.graph, seed=200 + batch_no),
            f"dataset batch={batch_no}",
        )
    # A full 2-hop PLL built on the final graph is a second, independent
    # exact oracle for the end state.
    pll = PrunedLandmarkLabelling(oracle.graph.copy())
    assert_matches_oracle(
        index, pll, sample_pairs(index.graph, seed=999), "dataset final (PLL)"
    )


def test_landmark_incident_updates(shard_pool):
    """Deleting and re-inserting edges at a landmark reshapes the highway."""
    graph = generators.barabasi_albert(90, 3, seed=6)
    index = open_oracle(
        "hcl-sharded", graph.copy(), num_landmarks=5, pool=shard_pool
    )
    oracle = BiBFSIndex(graph.copy())
    rng = random.Random(6)
    hub = index.landmarks[0]
    incident = [(hub, w) for w in sorted(index.graph.neighbors(hub))]
    batch = [EdgeUpdate.delete(a, b) for a, b in incident[: len(incident) // 2]]
    spare = [v for v in range(graph.num_vertices) if v != hub]
    batch += [
        EdgeUpdate.insert(hub, v)
        for v in rng.sample(spare, 3)
        if not index.graph.has_edge(hub, v)
    ]
    index.batch_update(batch)
    oracle.batch_update(batch)
    pairs = sample_pairs(index.graph, seed=7)
    pairs += [(hub, t) for t in rng.sample(spare, 10)]
    assert_matches_oracle(index, oracle, pairs, "landmark-incident")
    assert index.check_minimality() == []


def test_disconnecting_updates_yield_exact_inf(shard_pool):
    """Cutting the graph apart must produce inf on the process backend too."""
    graph = generators.barabasi_albert(80, 2, seed=8)
    index = open_oracle(
        "hcl-sharded", graph.copy(), num_landmarks=4, pool=shard_pool
    )
    oracle = BiBFSIndex(graph.copy())
    # Detach a handful of vertices entirely — including a landmark.
    victims = [index.landmarks[-1], 40, 41, 42]
    batch = [
        EdgeUpdate.delete(v, w)
        for v in victims
        for w in sorted(index.graph.neighbors(v))
    ]
    index.batch_update(batch)
    oracle.batch_update(batch)
    pairs = [(v, t) for v in victims for t in (0, 1, 2, 50, 60)] + sample_pairs(
        index.graph, seed=11
    )
    disconnected = 0
    for s, t in pairs:
        got, want = index.distance(s, t), oracle.distance(s, t)
        assert got == want, f"disconnect: d({s},{t}) = {got}, expected {want}"
        if s != t and want == float("inf"):
            disconnected += 1
    assert disconnected > 0, "updates failed to disconnect anything"
    assert index.check_minimality() == []
