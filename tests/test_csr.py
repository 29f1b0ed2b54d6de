"""CSR read view + vectorized kernels: equivalence with the Python kernels.

The acceptance bar for the CSR subsystem is bit-equality with the
reference traversals on randomized graphs — every kernel, every phase of
the adaptive bidirectional search (forced via ``switch_width``), directed
and undirected, with and without landmark exclusion and distance bounds.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.constants import INF
from repro.core.construction import bfs_landmark_lengths
from repro.errors import GraphError
from repro.graph import generators, traversal
from repro.graph.csr import (
    CSRGraph,
    CSRListView,
    SWEEP_ROOTS,
    bfs_distances,
    bfs_distances_multi,
    bidirectional_distance,
    landmark_sweep,
    sorted_unique,
)
from repro.graph.generators import to_directed


def random_graph(rng: random.Random, trial: int):
    family = rng.choice(("er", "ba", "ws", "path", "cycle", "grid", "star"))
    n = rng.randint(2, 90)
    if family == "er":
        return generators.erdos_renyi(n, rng.uniform(0.01, 0.25), seed=trial)
    if family == "ba":
        return generators.barabasi_albert(max(n, 5), rng.randint(1, 3), seed=trial)
    if family == "ws":
        return generators.watts_strogatz(max(n, 10), 4, 0.2, seed=trial)
    if family == "path":
        return generators.path(n)
    if family == "cycle":
        return generators.cycle(max(n, 3))
    if family == "grid":
        return generators.grid(rng.randint(2, 9), rng.randint(2, 9))
    return generators.star(max(n, 2))


def test_encoding_round_trip_and_views():
    graph = generators.erdos_renyi(40, 0.15, seed=1)
    csr = CSRGraph.from_graph(graph)
    assert csr.num_vertices == graph.num_vertices
    assert csr.num_arcs == 2 * graph.num_edges
    for v in range(graph.num_vertices):
        assert sorted(graph.neighbors(v)) == list(csr.neighbors(v))
        assert csr.degree(v) == graph.degree(v)
    view = csr.list_view()
    assert isinstance(view, CSRListView)
    assert view.num_vertices == graph.num_vertices
    assert view.neighbors(3) == sorted(graph.neighbors(3))
    assert view.degree(3) == graph.degree(3)
    assert all(type(w) is int for w in view.neighbors(3))
    # The expansion is cached and shared.
    assert csr.adjacency_lists() is csr.adjacency_lists()


def test_malformed_csr_rejected():
    with pytest.raises(GraphError):
        CSRGraph(np.array([1, 2]), np.array([0, 1]))
    with pytest.raises(GraphError):
        CSRGraph(np.array([0, 3]), np.array([0]))
    with pytest.raises(GraphError):
        CSRGraph(np.zeros((2, 2)), np.array([0]))


def test_bfs_kernels_match_python_on_random_graphs():
    rng = random.Random(0xBEEF)
    for trial in range(25):
        graph = random_graph(rng, trial)
        csr = CSRGraph.from_graph(graph)
        n = graph.num_vertices
        for _ in range(3):
            s = rng.randrange(n)
            assert (
                bfs_distances(csr, s) == traversal.bfs_distances(graph, s)
            ).all(), trial
        sources = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        assert (
            bfs_distances_multi(csr, sources)
            == traversal.bfs_distances_multi(graph, sources)
        ).all(), trial


def assert_sweep_matches_python(graph, csr, roots, is_landmark):
    """Every column of one sweep equals the per-root Python reference,
    and the sweep hands back C-order (V, R) arrays."""
    sweep = landmark_sweep(csr, roots, is_landmark)
    shape = (graph.num_vertices, len(roots))
    assert sweep.dist.shape == sweep.flag.shape == shape
    assert sweep.dist.dtype == np.int64 and sweep.flag.dtype == bool
    assert sweep.dist.flags.c_contiguous
    for i, root in enumerate(roots):
        dist, flag = bfs_landmark_lengths(graph, root, is_landmark)
        assert (sweep.dist[:, i] == dist).all(), (i, root)
        assert (sweep.flag[:, i] == flag).all(), (i, root)
    return sweep


@pytest.mark.parametrize(
    "ids",
    [
        [],
        [7],
        [3, 3, 3, 3],
        [0, 1, 1, 2, 5, 5, 9],
        [9, 5, 5, 2, 1, 1, 0],
        list(np.random.default_rng(3).integers(0, 50, 500)),
    ],
    ids=["empty", "single", "all-equal", "sorted", "reversed", "random"],
)
def test_sorted_unique_equals_np_unique(ids):
    array = np.array(ids, dtype=np.int64)
    got = sorted_unique(array)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(array))


def test_landmark_lengths_match_python_on_random_graphs():
    """R roots in one sweep, for R in 1, 2, 20, 64, 65 and 130, so 65 and
    130 cross the 64-root word; roots drawn with replacement, so
    duplicates are common and at 130 certain, and the landmark set need
    not contain the roots."""
    rng = random.Random(0xFACE)
    for num_roots in (1, 2, 20, 64, 65, 130):
        for trial in range(12):
            graph = random_graph(rng, trial)
            csr = CSRGraph.from_graph(graph)
            n = graph.num_vertices
            is_landmark = np.zeros(n, dtype=bool)
            for _ in range(rng.randint(1, max(1, n // 8))):
                is_landmark[rng.randrange(n)] = True
            roots = [rng.randrange(n) for _ in range(num_roots)]
            if rng.random() < 0.5:  # as in construction: roots are landmarks
                is_landmark[roots] = True
            assert_sweep_matches_python(graph, csr, roots, is_landmark)


def test_sweep_groups_roots_by_the_word():
    assert SWEEP_ROOTS == 64
    graph = generators.grid(9, 9)
    csr = CSRGraph.from_graph(graph)
    is_landmark = np.zeros(81, dtype=bool)
    one = landmark_sweep(csr, [40], is_landmark)
    # From the centre every vertex is reached by level 8 and the ninth
    # expansion finds nothing new; each row is gathered once.
    assert (one.levels, one.arcs) == (9, csr.num_arcs)
    many = landmark_sweep(csr, [40] * 65, is_landmark)
    assert (many.levels, many.arcs) == (18, 2 * csr.num_arcs)


def test_sweep_steps_through_wide_levels(monkeypatch):
    """A level with more arcs than one step gathers is swept in several
    steps.  With 5-arc steps most levels of these small graphs take
    several, and the columns, the level count and the arcs gathered stay
    what one step per level gives."""
    import repro.graph.csr as csr_module

    rng = random.Random(0x5EED)
    cases = []
    for trial in range(10):
        graph = random_graph(rng, trial)
        n = graph.num_vertices
        is_landmark = np.zeros(n, dtype=bool)
        roots = [rng.randrange(n) for _ in range(rng.choice([3, 20, 70]))]
        is_landmark[roots] = True
        csr = CSRGraph.from_graph(graph)
        cases.append((graph, csr, roots, is_landmark))
    wide = [landmark_sweep(csr, roots, lm) for _, csr, roots, lm in cases]
    monkeypatch.setattr(csr_module, "_SWEEP_ARCS", 5)
    for (graph, csr, roots, is_landmark), one_step in zip(cases, wide):
        stepped = assert_sweep_matches_python(graph, csr, roots, is_landmark)
        assert (stepped.levels, stepped.arcs) == (one_step.levels, one_step.arcs)


def test_sweep_flags_adjacent_landmarks_and_the_only_path():
    """A path 0-1-...-7 with landmarks 2 and 3 side by side: from 0 every
    vertex past 2 is flagged; from 3 the only path to 0 and 1 runs
    through 2, and to 4..7 through no other landmark."""
    graph = generators.path(8)
    is_landmark = np.zeros(8, dtype=bool)
    is_landmark[[2, 3]] = True
    sweep = assert_sweep_matches_python(
        graph, CSRGraph.from_graph(graph), [0, 2, 3], is_landmark
    )
    assert sweep.dist[:, 2].tolist() == [3, 2, 1, 0, 1, 2, 3, 4]
    assert sweep.flag[:, 0].tolist() == [False] * 2 + [True] * 6
    assert sweep.flag[:, 1].tolist() == [False] * 3 + [True] * 5
    assert sweep.flag[:, 2].tolist() == [True] * 3 + [False] * 5


def test_sweep_isolated_root_components_and_duplicate_roots():
    """Two components and an isolated vertex: a root reaches only its own
    component (INF and unflagged elsewhere), the isolated root only
    itself, and duplicate roots give equal columns."""
    graph = generators.path(4)
    graph.ensure_vertex(8)
    graph.add_edge(5, 6)
    graph.add_edge(6, 7)
    graph.add_edge(7, 8)  # components {0..3}, {4}, {5..8}
    is_landmark = np.zeros(9, dtype=bool)
    is_landmark[[1, 4, 6]] = True
    roots = [4, 0, 6, 0, 4, 6]
    sweep = assert_sweep_matches_python(
        graph, CSRGraph.from_graph(graph), roots, is_landmark
    )
    isolated = sweep.dist[:, 0]
    assert isolated[4] == 0 and (np.delete(isolated, 4) == INF).all()
    assert (sweep.dist[5:, 1] == INF).all() and (sweep.dist[:5, 2] == INF).all()
    assert not sweep.flag[:, 0].any()
    for a, b in ((1, 3), (0, 4), (2, 5)):
        assert (sweep.dist[:, a] == sweep.dist[:, b]).all()
        assert (sweep.flag[:, a] == sweep.flag[:, b]).all()


def test_sweep_follows_digraph_out_and_in_rows():
    rng = random.Random(0xD1)
    for trial in range(10):
        base = generators.erdos_renyi(rng.randint(5, 70), 0.08, seed=trial)
        digraph = to_directed(base, reciprocal_p=0.3, seed=trial)
        forward, backward = CSRGraph.from_digraph(digraph)
        n = digraph.num_vertices
        is_landmark = np.zeros(n, dtype=bool)
        roots = [rng.randrange(n) for _ in range(rng.choice([3, 70]))]
        is_landmark[roots] = True
        assert_sweep_matches_python(digraph.out_view(), forward, roots, is_landmark)
        assert_sweep_matches_python(digraph.in_view(), backward, roots, is_landmark)


def test_sweep_writes_into_the_given_array():
    graph = generators.erdos_renyi(30, 0.1, seed=4)
    csr = CSRGraph.from_graph(graph)
    is_landmark = np.zeros(30, dtype=bool)
    out = np.zeros((30, 3), dtype=np.int64)
    sweep = landmark_sweep(csr, [0, 5, 9], is_landmark, out)
    assert sweep.dist is out
    assert (out == landmark_sweep(csr, [0, 5, 9], is_landmark).dist).all()
    with pytest.raises(ValueError):
        landmark_sweep(csr, [0, 5, 9], is_landmark, np.zeros((3, 30), np.int64).T)
    with pytest.raises(ValueError):
        landmark_sweep(csr, [0, 5], is_landmark, out)


@pytest.mark.parametrize("switch_width", [0, 2, 64])
def test_bidirectional_matches_python_on_random_graphs(switch_width):
    """switch_width=0 forces the vector phase immediately, 2 exercises the
    mid-search conversion, 64 is the production adaptive setting."""
    rng = random.Random(1000 + switch_width)
    for trial in range(25):
        graph = random_graph(rng, trial)
        csr = CSRGraph.from_graph(graph)
        n = graph.num_vertices
        excluded = frozenset(
            rng.randrange(n) for _ in range(rng.randint(0, 4))
        )
        for _ in range(12):
            s, t = rng.randrange(n), rng.randrange(n)
            bound = rng.choice([INF, rng.randint(0, 12)])
            want = traversal.bidirectional_bfs(
                graph, s, t, excluded=excluded, bound=bound
            )
            got = bidirectional_distance(
                csr,
                s,
                t,
                excluded=excluded,
                bound=bound,
                switch_width=switch_width,
            )
            assert got == want, (trial, s, t, bound, sorted(excluded))


def test_directed_kernels_match_python():
    rng = random.Random(0xD16)
    for trial in range(15):
        base = generators.erdos_renyi(rng.randint(5, 60), 0.12, seed=trial)
        digraph = to_directed(base, reciprocal_p=0.4, seed=trial)
        forward, backward = CSRGraph.from_digraph(digraph)
        n = digraph.num_vertices
        s = rng.randrange(n)
        assert (
            bfs_distances(forward, s)
            == traversal.bfs_distances(digraph.out_view(), s)
        ).all()
        assert (
            bfs_distances(backward, s)
            == traversal.bfs_distances(digraph.in_view(), s)
        ).all()
        for _ in range(10):
            s, t = rng.randrange(n), rng.randrange(n)
            bound = rng.choice([INF, rng.randint(0, 10)])
            want = traversal.bidirectional_bfs(
                digraph.out_view(),
                s,
                t,
                bound=bound,
                backward_graph=digraph.in_view(),
            )
            got = bidirectional_distance(
                forward, s, t, bound=bound, backward=backward
            )
            assert got == want, (trial, s, t, bound)


def _kernel_cases(rng: random.Random, trial: int):
    """(forward CSR, backward CSR or None, reference kwargs) on an
    undirected random graph or a digraph read through both CSRs."""
    if trial % 2:
        base = generators.erdos_renyi(rng.randint(5, 60), 0.1, seed=trial)
        digraph = to_directed(base, reciprocal_p=0.4, seed=trial)
        forward, backward = CSRGraph.from_digraph(digraph)
        return digraph.out_view(), forward, backward, {
            "backward_graph": digraph.in_view()
        }
    graph = random_graph(rng, trial)
    return graph, CSRGraph.from_graph(graph), None, {}


@pytest.mark.parametrize("switch_width", [0, 2, 64, 10**9])
def test_bidirectional_bounds_around_the_distance(switch_width):
    """Bounds 0, 1, d-1, d, d+1 and INF around the distance d that avoids
    the excluded set: d+1 makes the last level's row test hit, d makes it
    miss, and smaller bounds stop the search before any meet."""
    rng = random.Random(2000 + switch_width % 997)
    for trial in range(30):
        graph, forward, backward, extra = _kernel_cases(rng, trial)
        n = graph.num_vertices
        excluded = frozenset(rng.randrange(n) for _ in range(rng.randint(0, 3)))
        for _ in range(8):
            s, t = rng.randrange(n), rng.randrange(n)
            d = traversal.bidirectional_bfs(graph, s, t, excluded=excluded, **extra)
            bounds = {0, 1, INF} | ({d - 1, d, d + 1} - {INF - 1, INF + 1})
            for bound in sorted(b for b in bounds if b >= 0):
                want = traversal.bidirectional_bfs(
                    graph, s, t, excluded=excluded, bound=bound, **extra
                )
                got = bidirectional_distance(
                    forward, s, t, excluded=excluded, bound=bound,
                    backward=backward, switch_width=switch_width,
                )
                assert got == want, (trial, s, t, bound, sorted(excluded))


@pytest.mark.parametrize("kind", [tuple, list, set, frozenset])
def test_bidirectional_accepts_any_excluded_collection(kind):
    """``excluded`` may be any collection (the default is a tuple), and a
    barred endpoint answers with the bound."""
    rng = random.Random(31)
    graph = generators.barabasi_albert(200, 2, seed=3)
    csr = CSRGraph.from_graph(graph)
    for trial in range(40):
        s, t = rng.randrange(200), rng.randrange(200)
        barred = [rng.randrange(200) for _ in range(3)]
        if trial % 4 == 0:
            barred.append(rng.choice((s, t)))
        for switch_width in (0, 64):
            for bound in (3, INF):
                want = traversal.bidirectional_bfs(
                    graph, s, t, excluded=frozenset(barred), bound=bound
                )
                got = bidirectional_distance(
                    csr, s, t, excluded=kind(barred), bound=bound,
                    switch_width=switch_width,
                )
                assert got == want, (kind, s, t, barred, bound)


def test_bidirectional_deep_search_on_a_path():
    """Frontiers one vertex wide for thousands of levels, unbounded, with
    and without a barred middle vertex."""
    graph = generators.path(3000)
    csr = CSRGraph.from_graph(graph)
    assert bidirectional_distance(csr, 0, 2999) == 2999
    assert bidirectional_distance(csr, 2999, 17) == 2982
    assert bidirectional_distance(csr, 0, 2999, excluded={1500}) == INF
    assert bidirectional_distance(csr, 0, 1499, excluded=(1500,)) == 1499
    assert bidirectional_distance(csr, 0, 2999, excluded=[1500], bound=9) == 9


def test_isolated_vertices_and_trivial_cases():
    graph = generators.path(1)
    csr = CSRGraph.from_graph(graph)
    assert bfs_distances(csr, 0).tolist() == [0]
    assert bidirectional_distance(csr, 0, 0) == 0
    graph = generators.path(3)
    graph.add_vertex()  # isolated vertex 3
    csr = CSRGraph.from_graph(graph)
    assert bfs_distances(csr, 3).tolist() == [INF, INF, INF, 0]
    assert bidirectional_distance(csr, 0, 3) == INF
    # Both endpoints excluded: the bound is the answer, as in the paper's
    # query engine (landmark queries never reach the search).
    assert bidirectional_distance(csr, 0, 2, excluded={0}, bound=7) == 7


def test_oracle_distances_groups_shared_sources():
    """The batched read path: a shared-source group answered by one sweep
    must equal per-pair scalar queries (hcl and hcl-directed)."""
    from repro.api.registry import open_oracle

    rng = random.Random(77)
    graph = generators.erdos_renyi(60, 0.08, seed=4)
    oracle = open_oracle("hcl", graph, num_landmarks=4)
    n = graph.num_vertices
    pairs = [(9, rng.randrange(n)) for _ in range(40)]  # one hot source
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(15)]
    assert oracle.distances(pairs) == [
        oracle.distance(s, t) for s, t in pairs
    ]

    digraph = to_directed(generators.erdos_renyi(40, 0.1, seed=5), 0.5, seed=5)
    directed = open_oracle("hcl-directed", digraph, num_landmarks=4)
    n = digraph.num_vertices
    pairs = [(3, rng.randrange(n)) for _ in range(40)]
    assert directed.distances(pairs) == [
        directed.distance(s, t) for s, t in pairs
    ]


def test_bench_query_kernels_smoke(monkeypatch, tmp_path):
    """The benchmark's smoke mode runs end-to-end and writes its CSV."""
    import sys

    sys.path.insert(0, "benchmarks")
    try:
        import bench_query_kernels
    finally:
        sys.path.pop(0)
    monkeypatch.setattr(
        "repro.bench.reporting.results_dir", lambda: tmp_path
    )
    assert bench_query_kernels.main(["--smoke", "--agree", "40"]) == 0
    assert (tmp_path / "query_kernels.csv").exists()


def test_ensure_csr_detects_same_size_topology_drift():
    """The frozen view must re-freeze when the owned graph's edge set
    changes without |V| changing (e.g. a caller mutating `.graph`
    directly) — otherwise bounded searches would run on stale arcs."""
    from repro.api.registry import open_oracle

    graph = generators.path(6)
    oracle = open_oracle("hcl", graph, num_landmarks=2)
    assert oracle.distance(0, 5) == 5
    oracle.graph.add_edge(0, 5)  # unsupported direct mutation...
    oracle.rebuild()             # ...made consistent via rebuild
    assert oracle.distance(0, 5) == 1
    first = oracle.ensure_csr()
    oracle.graph.remove_edge(0, 5)
    assert oracle.ensure_csr() is not first  # arc-count drift re-freezes
