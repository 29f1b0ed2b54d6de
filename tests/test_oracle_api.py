"""Conformance suite for the unified oracle API.

Parameterized over *every* registry entry: each registered oracle must
answer exactly like a ground-truth search on its graph kind, batch its
queries consistently, survive updates (incremental or rebuild-based),
round-trip serialization where advertised, and fail uniformly — typed
errors from the factory, ``IndexStateError`` for empty graphs and
out-of-range queries, ``DeprecationWarning`` from the legacy ``query``
alias.
"""

from __future__ import annotations

import heapq
import random

import numpy as np
import pytest

from tests.conftest import (
    bfs_oracle,
    buffer_paths,
    buffer_paths_since,
    csr_paths,
    csr_paths_since,
)
from repro.api import (
    Capabilities,
    available_oracles,
    load_oracle,
    open_oracle,
    oracle_spec,
    register_oracle,
    unregister_oracle,
)
from repro.constants import INF
from repro.core.labelling import HighwayCoverLabelling, decode_distances
from repro.errors import (
    CapabilityError,
    IndexStateError,
    OracleConfigError,
    OracleError,
    UnknownOracleError,
)
from repro.graph import generators
from repro.graph.batch import EdgeUpdate
from repro.graph.digraph import DynamicDiGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import to_directed
from repro.graph.traversal import bfs_distances
from repro.graph.weighted_graph import WeightedDynamicGraph, WeightUpdate

ALL_ORACLES = available_oracles()

#: Small constructor configs keeping every oracle fast on test graphs.
SMALL_CONFIG = {
    "hcl": {"num_landmarks": 4},
    "hcl-sharded": {"num_landmarks": 4},
    "hcl-directed": {"num_landmarks": 4},
    "hcl-weighted": {"num_landmarks": 4},
    "fulfd": {"num_roots": 4},
}


def graph_kind(name: str) -> str:
    caps = oracle_spec(name).capabilities
    if caps.directed:
        return "directed"
    if caps.weighted:
        return "weighted"
    return "undirected"


def make_graph(kind: str, n: int = 26, seed: int = 7):
    base = generators.erdos_renyi(n, 0.14, seed=seed)
    if kind == "directed":
        return to_directed(base, reciprocal_p=0.5, seed=seed)
    if kind == "weighted":
        rng = random.Random(seed)
        return WeightedDynamicGraph.from_edges(
            [(a, b, rng.randint(1, 5)) for a, b in base.edges()],
            num_vertices=base.num_vertices,
        )
    return base


def empty_graph(kind: str):
    return {
        "directed": DynamicDiGraph(0),
        "weighted": WeightedDynamicGraph(0),
        "undirected": DynamicGraph(0),
    }[kind]


def dijkstra_oracle(wgraph, s: int, t: int) -> float:
    dist = {s: 0}
    heap = [(0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v == t:
            return d
        if d > dist.get(v, INF):
            continue
        for w, weight in wgraph.neighbors(v).items():
            nd = d + weight
            if nd < dist.get(w, INF):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return float("inf")


def reference_distance(kind: str, graph, s: int, t: int) -> float:
    if kind == "directed":
        d = int(bfs_distances(graph.out_view(), s)[t])
        return float("inf") if d >= INF else d
    if kind == "weighted":
        return dijkstra_oracle(graph, s, t)
    return bfs_oracle(graph, s, t)


def build(name: str, graph, shard_pool=None, **extra):
    config = dict(SMALL_CONFIG.get(name, {}))
    config.update(extra)
    if name == "hcl-sharded" and shard_pool is not None:
        config["pool"] = shard_pool
    return open_oracle(name, graph, **config)


def sample_pairs(n: int, count: int, seed: int = 11):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def labellings_of(oracle) -> list[HighwayCoverLabelling]:
    """A highway cover oracle's labellings (forward and backward on a
    digraph); none for the other oracles."""
    sides = [
        getattr(oracle, side, None)
        for side in ("labelling", "forward", "backward")
    ]
    return [side for side in sides if isinstance(side, HighwayCoverLabelling)]


def labelling_bytes(labellings) -> list[tuple[bytes, bytes, bytes]]:
    return [
        (lab.labels.tobytes(), lab.highway.tobytes(), lab.dist.tobytes())
        for lab in labellings
    ]


def assert_distance_matrices_exact(name: str, oracle) -> None:
    """Highway cover oracles only: each labelling's maintained D equals
    the Eq. 2 decode of its labels + highway, and the whole labelling,
    D included, equals a fresh build."""
    labellings = labellings_of(oracle)
    for labelling in labellings:
        decoded = decode_distances(
            labelling.labels, labelling.highway, labelling.landmarks
        )
        assert (labelling.dist == decoded).all(), name
    if labellings:
        assert oracle.check_minimality() == [], name


def make_updates(kind: str, graph, rng: random.Random):
    """A small valid mixed batch for the oracle's graph kind."""
    if kind == "weighted":
        edges = list(graph.edges())
        rng.shuffle(edges)
        updates = [WeightUpdate(a, b, None) for a, b, _ in edges[:2]]
        updates += [
            WeightUpdate(a, b, w + 1) for a, b, w in edges[2:4]
        ]
        n = graph.num_vertices
        for _ in range(3):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and not graph.has_edge(a, b):
                updates.append(WeightUpdate(a, b, rng.randint(1, 5)))
        return updates
    edges = list(graph.edges())
    rng.shuffle(edges)
    updates = [EdgeUpdate.delete(a, b) for a, b in edges[:3]]
    n = graph.num_vertices
    added = 0
    while added < 3:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            updates.append(EdgeUpdate.insert(a, b))
            added += 1
    return updates


# ----------------------------------------------------------------------
# query correctness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_distance_matches_ground_truth(name, shard_pool):
    kind = graph_kind(name)
    graph = make_graph(kind)
    oracle = build(name, graph, shard_pool)
    for s, t in sample_pairs(graph.num_vertices, 40):
        assert oracle.distance(s, t) == reference_distance(
            kind, oracle.graph, s, t
        ), (name, s, t)


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_distances_batch_matches_scalar(name, shard_pool):
    graph = make_graph(graph_kind(name))
    oracle = build(name, graph, shard_pool)
    pairs = sample_pairs(graph.num_vertices, 25, seed=3)
    assert oracle.distances(pairs) == [oracle.distance(s, t) for s, t in pairs]


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_batch_update_keeps_queries_exact(name, shard_pool):
    """Every oracle — incremental or rebuild-based — survives a batch."""
    kind = graph_kind(name)
    graph = make_graph(kind)
    oracle = build(name, graph, shard_pool)
    stats = oracle.batch_update(make_updates(kind, oracle.graph, random.Random(5)))
    assert stats.n_applied > 0
    assert_distance_matrices_exact(name, oracle)
    for s, t in sample_pairs(oracle.graph.num_vertices, 40, seed=13):
        assert oracle.distance(s, t) == reference_distance(
            kind, oracle.graph, s, t
        ), (name, s, t)


@pytest.mark.parametrize("name", ["pll", "psl"])
def test_static_rebuild_reports_update_stats(name):
    """Satellite: static baselines return honest rebuild UpdateStats."""
    graph = make_graph("undirected")
    oracle = build(name, graph)
    updates = make_updates("undirected", graph, random.Random(23))
    stats = oracle.batch_update(updates)
    assert stats.variant == f"{name}-rebuild"
    assert stats.n_applied == stats.n_insertions + stats.n_deletions
    assert stats.total_seconds > 0
    assert not oracle_spec(name).capabilities.dynamic


# ----------------------------------------------------------------------
# snapshots / serialization
# ----------------------------------------------------------------------


def csr_arrays(oracle) -> list[tuple] | None:
    """Copies of the CSR rows an index reads, or None without a CSR: per
    view, its compacted ``(indptr, indices)`` and its adjacency lists."""
    ensure = getattr(oracle, "ensure_csr", None)
    if ensure is None:
        return None
    views = ensure()
    views = views if isinstance(views, tuple) else (views,)
    return [
        tuple(array.copy() for array in view.compact())
        + ([list(row) for row in view.adjacency_lists()],)
        for view in views
    ]


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_snapshot_is_isolated_from_updates(name, shard_pool):
    """Snapshots share graph sets, CSR and labelling arrays with their
    writer; later writer batches must change none of what they show.

    On the highway cover oracles the second batch would recycle the
    arrays the snapshot reads, so it copies; the third recycles the
    first batch's, which nothing holds."""
    kind = graph_kind(name)
    graph = make_graph(kind)
    oracle = build(name, graph, shard_pool)
    pairs = sample_pairs(graph.num_vertices, 20, seed=17)
    before = {pair: oracle.distance(*pair) for pair in pairs}
    frozen = oracle.snapshot()
    edges = sorted(frozen.graph.edges())
    arrays = csr_arrays(frozen)
    labellings = labellings_of(frozen)
    label_bytes = labelling_bytes(labellings)
    paths_before = buffer_paths()
    rng = random.Random(29)
    for _ in range(3):
        oracle.batch_update(make_updates(kind, oracle.graph, rng))
    passes = len(labellings)
    assert buffer_paths_since(paths_before) == {
        "recycled": passes,
        "copied": 2 * passes,
    }, name
    assert labelling_bytes(labellings) == label_bytes, name
    for pair, expected in before.items():
        assert frozen.distance(*pair) == expected, (name, pair)
    assert sorted(frozen.graph.edges()) == edges
    if arrays is not None:
        for (indptr, indices, lists), (now_ptr, now_idx, now_lists) in zip(
            arrays, csr_arrays(frozen)
        ):
            assert np.array_equal(indptr, now_ptr), name
            assert np.array_equal(indices, now_idx), name
            assert lists == now_lists, name
    if hasattr(frozen, "check_minimality"):
        assert frozen.check_minimality() == [], name


def graph_answers(graph) -> dict:
    """Every answer of the read API a snapshot's graph keeps."""
    n = graph.num_vertices
    answers = {
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "edges": sorted(graph.edges()),
        "degree": [graph.degree(v) for v in range(n)],
        "has_edge": [graph.has_edge(a, b) for a in range(n) for b in range(n)],
    }
    if hasattr(graph, "out_view"):
        for side in ("out_view", "in_view"):
            view = getattr(graph, side)()
            answers[side] = [sorted(view.neighbors(v)) for v in range(n)]
    else:
        answers["neighbors"] = [sorted(graph.neighbors(v)) for v in range(n)]
    return answers


@pytest.mark.parametrize("name", ["hcl", "hcl-directed"])
def test_snapshot_graph_answers_like_the_writer_graph_at_publish(name):
    """A snapshot's graph is a read-only view over the CSR rows it pins,
    not a clone: it answers exactly as its writer's graph did when it
    was published, keeps doing so while the writer applies batches that
    recycle the row buffers no snapshot holds, and its ``copy()`` is a
    mutable graph with the same answers."""
    kind = graph_kind(name)
    oracle = build(name, make_graph(kind))
    rng = random.Random(41)
    rows_before = csr_paths()
    published = []
    for step in range(8):
        frozen = oracle.snapshot()
        answers = graph_answers(oracle.graph)
        assert graph_answers(frozen.graph) == answers, name
        if step % 3 == 0:  # hold some; let the others go
            published.append((frozen, answers))
        del frozen
        oracle.batch_update(make_updates(kind, oracle.graph, rng))
    assert csr_paths_since(rows_before)["recycled"] >= 1, name
    for frozen, answers in published:
        assert graph_answers(frozen.graph) == answers, name
        clone = frozen.graph.copy()
        assert isinstance(clone, (DynamicGraph, DynamicDiGraph))
        assert graph_answers(clone) == answers, name
    assert graph_answers(oracle.snapshot().graph) == graph_answers(
        oracle.graph
    )


@pytest.mark.parametrize("name", ["hcl", "hcl-directed", "hcl-weighted"])
def test_published_labelling_arrays_are_read_only(name):
    """A snapshot wraps its writer's arrays instead of copying them, so
    a write through the snapshot must fail rather than reach the writer."""
    oracle = build(name, make_graph(graph_kind(name)))
    frozen = oracle.snapshot()
    labellings = (
        (frozen.forward, frozen.backward)
        if name == "hcl-directed"
        else (frozen.labelling,)
    )
    for labelling in labellings:
        for array in (labelling.labels, labelling.highway, labelling.dist):
            with pytest.raises(ValueError):
                array[0, 0] = 7
    # The writer keeps updating (it repairs arrays no snapshot holds) and
    # stays exact.
    oracle.batch_update(
        make_updates(graph_kind(name), oracle.graph, random.Random(3))
    )
    assert oracle.check_minimality() == []


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_serialize_honours_capability(name, tmp_path, shard_pool):
    spec = oracle_spec(name)
    graph = make_graph(graph_kind(name))
    oracle = build(name, graph, shard_pool)
    path = tmp_path / "oracle.npz"
    if spec.capabilities.serializable:
        oracle.serialize(path)
        restored = load_oracle(name, path)
        pairs = sample_pairs(graph.num_vertices, 20, seed=19)
        assert restored.distances(pairs) == oracle.distances(pairs)
    else:
        with pytest.raises(CapabilityError):
            oracle.serialize(path)
        with pytest.raises(CapabilityError):
            load_oracle(name, path)


# ----------------------------------------------------------------------
# uniform failure modes (satellite: IndexStateError everywhere)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_empty_graph_raises_index_state_error(name):
    with pytest.raises(IndexStateError):
        open_oracle(name, empty_graph(graph_kind(name)))


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_out_of_range_query_raises_index_state_error(name, shard_pool):
    graph = make_graph(graph_kind(name), n=12)
    oracle = build(name, graph, shard_pool)
    with pytest.raises(IndexStateError):
        oracle.distance(0, graph.num_vertices + 3)
    with pytest.raises(IndexStateError):
        oracle.distance(-1, 0)


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_update_after_close_raises_and_reads_survive(name, shard_pool):
    kind = graph_kind(name)
    graph = make_graph(kind, n=12)
    with build(name, graph, shard_pool) as oracle:
        expected = oracle.distance(0, 5)
    with pytest.raises(IndexStateError):
        oracle.batch_update(make_updates(kind, oracle.graph, random.Random(1)))
    # Reads keep working — the epoch-snapshot pattern relies on this.
    assert oracle.distance(0, 5) == expected
    oracle.close()  # idempotent


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_query_alias_is_deprecated(name, shard_pool):
    graph = make_graph(graph_kind(name), n=12)
    oracle = build(name, graph, shard_pool)
    with pytest.warns(DeprecationWarning):
        assert oracle.query(0, 5) == oracle.distance(0, 5)


@pytest.mark.parametrize("name", ALL_ORACLES)
def test_stats_reports_uniform_fields(name, shard_pool):
    graph = make_graph(graph_kind(name), n=12)
    oracle = build(name, graph, shard_pool)
    info = oracle.stats()
    assert info["num_vertices"] == graph.num_vertices
    assert info["num_edges"] == graph.num_edges
    assert info["capabilities"] == oracle_spec(name).capabilities.describe()


# ----------------------------------------------------------------------
# factory validation
# ----------------------------------------------------------------------


def test_unknown_oracle_name():
    with pytest.raises(UnknownOracleError, match="available:"):
        open_oracle("nosuch", make_graph("undirected"))


def test_graph_kind_mismatches_raise_capability_error():
    undirected = make_graph("undirected", n=10)
    digraph = make_graph("directed", n=10)
    weighted = make_graph("weighted", n=10)
    with pytest.raises(CapabilityError):
        open_oracle("hcl", digraph)
    with pytest.raises(CapabilityError):
        open_oracle("hcl", weighted)
    with pytest.raises(CapabilityError):
        open_oracle("hcl-directed", undirected)
    with pytest.raises(CapabilityError):
        open_oracle("hcl-weighted", undirected)
    with pytest.raises(CapabilityError):
        open_oracle("bibfs", [(0, 1)])  # not a graph at all


def test_require_validates_against_capabilities():
    graph = make_graph("undirected", n=10)
    oracle = open_oracle("pll", graph, require=())  # fine: no requirements
    assert oracle.distance(0, 5) == bfs_oracle(graph, 0, 5)
    with pytest.raises(CapabilityError, match="dynamic"):
        open_oracle("pll", make_graph("undirected", n=10), require=("dynamic",))
    with pytest.raises(CapabilityError, match="serializable"):
        open_oracle(
            "bibfs", make_graph("undirected", n=10), require=("serializable",)
        )
    with pytest.raises(CapabilityError, match="unknown capability"):
        open_oracle(
            "hcl", make_graph("undirected", n=10), require=("quantum",)
        )


def test_only_hcl_sharded_advertises_parallel(capsys):
    """Only hcl-sharded is built on a pool, so only it declares
    ``parallel``: ``repro oracles`` lists hcl without it, and hcl refuses a
    parallel requirement before building."""
    from repro.cli import main

    assert not oracle_spec("hcl").capabilities.parallel
    assert oracle_spec("hcl-sharded").capabilities.parallel
    with pytest.raises(CapabilityError, match="parallel"):
        open_oracle(
            "hcl", make_graph("undirected", n=10), require=("parallel",)
        )
    assert main(["oracles"]) == 0
    rows = {
        line.split()[0]: line.split()[1:6]
        for line in capsys.readouterr().out.splitlines()[2:]
    }
    assert rows["hcl"] == ["-", "-", "yes", "-", "yes"]
    assert rows["hcl-sharded"] == ["-", "-", "yes", "yes", "yes"]


def test_unsupported_config_key_raises():
    with pytest.raises(OracleConfigError, match="num_landmarks"):
        open_oracle("bibfs", make_graph("undirected", n=10), num_landmarks=4)


def test_register_oracle_rejects_duplicates_and_allows_replace():
    spec = oracle_spec("bibfs")
    try:
        with pytest.raises(OracleError, match="already registered"):
            register_oracle(
                "bibfs",
                lambda graph: None,
                capabilities=Capabilities(),
                description="imposter",
            )
        replaced = register_oracle(
            "bibfs",
            spec.factory,
            capabilities=spec.capabilities,
            description=spec.description,
            replace=True,
        )
        assert replaced.factory is spec.factory
    finally:
        unregister_oracle("bibfs")
        register_oracle(
            "bibfs",
            spec.factory,
            capabilities=spec.capabilities,
            description=spec.description,
            config_keys=tuple(spec.config_keys),
        )


def test_third_party_registration_round_trip():
    class EchoOracle:
        capabilities = Capabilities(dynamic=True)

        def __init__(self, graph):
            self.graph = graph

        def distance(self, s, t):
            return 0.0

    try:
        register_oracle(
            "echo",
            EchoOracle,
            capabilities=EchoOracle.capabilities,
            description="test double",
        )
        assert "echo" in available_oracles()
        oracle = open_oracle("echo", make_graph("undirected", n=8))
        assert oracle.distance(1, 2) == 0.0
    finally:
        unregister_oracle("echo")
    assert "echo" not in available_oracles()


# ----------------------------------------------------------------------
# serving layer plumbing (writer oracles come from the registry)
# ----------------------------------------------------------------------


def path_graph(n: int) -> DynamicGraph:
    return DynamicGraph.from_edges([(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("name", ["bibfs", "pll", "fulfd"])
def test_service_over_registry_oracle(name):
    from repro.service import DistanceService, FlushPolicy

    config = {"oracle_config": {"num_roots": 2}} if name == "fulfd" else {}
    with DistanceService(
        path_graph(6),
        oracle=name,
        policy=FlushPolicy(max_batch=100, max_delay=None),
        **config,
    ) as service:
        assert service.distance(0, 5) == 5
        service.insert_edge(0, 5)
        service.flush()
        assert service.distance(0, 5) == 1
        assert service.epoch == 1


def test_service_rejects_unknown_oracle_and_capability_gaps():
    from repro.service import DistanceService

    with pytest.raises(UnknownOracleError):
        DistanceService(path_graph(4), oracle="nosuch")
    # Only hcl-sharded takes a shard count (the CLI's --shards), and it
    # indexes undirected graphs only: both misuses fail at construction,
    # not at the first flush.
    with pytest.raises(OracleConfigError):
        DistanceService(
            path_graph(4), oracle="hcl", oracle_config={"num_shards": 2}
        )
    with pytest.raises(CapabilityError):
        DistanceService(make_graph("directed", n=10), oracle="hcl-sharded")


def test_hcl_labelling_wrap_rejects_other_config():
    from repro.errors import OracleConfigError

    graph = path_graph(5)
    oracle = open_oracle("hcl", graph.copy(), num_landmarks=2)
    with pytest.raises(OracleConfigError, match="labelling"):
        open_oracle(
            "hcl", graph.copy(), labelling=oracle.labelling, num_landmarks=2
        )


# ----------------------------------------------------------------------
# vertex growth + affected-set integrity (regression: a batch inserting
# an edge to a brand-new vertex id left the grown vertex unlabelled, and
# affected sets could contain the is_delete flag instead of an endpoint)
# ----------------------------------------------------------------------

DYNAMIC_ORACLES = [
    name for name in ALL_ORACLES if oracle_spec(name).capabilities.dynamic
]


def growth_updates(kind: str, n: int):
    """A batch attaching new vertex ``n`` and chaining ``n + 1`` onto it."""
    if kind == "weighted":
        return [WeightUpdate(3, n, 2), WeightUpdate(n, n + 1, 3)]
    return [EdgeUpdate.insert(3, n), EdgeUpdate.insert(n, n + 1)]


@pytest.mark.parametrize("name", DYNAMIC_ORACLES)
def test_vertex_growing_update_then_exact(name, shard_pool):
    """Every dynamic oracle answers exactly after a batch grows |V|."""
    kind = graph_kind(name)
    graph = make_graph(kind, n=20)
    oracle = build(name, graph, shard_pool)
    n = oracle.graph.num_vertices
    stats = oracle.batch_update(growth_updates(kind, n))
    assert oracle.graph.num_vertices == n + 2
    assert stats.n_applied == 2
    assert all(type(v) is int for v in stats.affected_vertices), (
        name,
        stats.affected_vertices,
    )
    assert {3, n, n + 1} <= stats.affected_vertices
    assert_distance_matrices_exact(name, oracle)
    probes = sample_pairs(n + 2, 40, seed=31)
    probes += [(0, n), (0, n + 1), (3, n + 1), (n, n + 1), (n + 1, 0)]
    for s, t in probes:
        assert oracle.distance(s, t) == reference_distance(
            kind, oracle.graph, s, t
        ), (name, s, t)


@pytest.mark.parametrize("name", DYNAMIC_ORACLES)
def test_vertex_growth_with_id_gap(name, shard_pool):
    """Growing past the next id leaves the gap as isolated vertices."""
    kind = graph_kind(name)
    graph = make_graph(kind, n=12)
    oracle = build(name, graph, shard_pool)
    n = oracle.graph.num_vertices
    far = n + 3
    if kind == "weighted":
        updates = [WeightUpdate(0, far, 1)]
    else:
        updates = [EdgeUpdate.insert(0, far)]
    oracle.batch_update(updates)
    assert oracle.graph.num_vertices == far + 1
    assert oracle.distance(0, far) == 1
    for isolated in range(n, far):
        assert oracle.distance(1, isolated) == float("inf"), (name, isolated)


def test_issue_repro_growth_and_affected_set():
    """The reported scenario end-to-end: EdgeUpdate(3, 7, False) grows the
    path 0-1-2-3 and both the labels and the affected set are sound."""
    graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    oracle = open_oracle("hcl", graph)
    stats = oracle.batch_update([EdgeUpdate(3, 7, False)])
    assert stats.affected_vertices == {3, 7}
    assert oracle.distance(0, 7) == 4
    assert oracle.distance(3, 7) == 1
    assert oracle.check_minimality() == []
