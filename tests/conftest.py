"""Shared test helpers: oracles and random-instance builders."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

# The reprolint static-analysis suite ships in tools/, not src/ — its
# tests import it directly from the checkout.
_TOOLS_DIR = str(Path(__file__).resolve().parent.parent / "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)

from repro.constants import INF, NO_LABEL
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.graph import generators
from repro.graph.batch import EdgeUpdate
from repro.graph.traversal import bfs_distance_pair
from repro.obs.metrics import get_registry


def externalise(distance: int) -> float:
    return float("inf") if distance >= INF else distance


def landmark_arrays(labelling, landmark_idx: int):
    """Reference for ``labelling.landmark_lengths(i)``: the old landmark
    lengths of every vertex materialised as ``(dist, flag)`` int64
    arrays, in O(V).

    ``dist`` is a copy of column i of D; ``flag`` is the Lemma 5.14 flag
    over all vertices: FALSE_KEY for the root, TRUE_KEY for every other
    landmark, and for any other vertex FALSE_KEY iff it has an r-label or
    its D entry is INF.  The heap references take these arrays; the
    equivalence tests check the production reader against them.
    """
    dist = labelling.dist[:, landmark_idx].copy()
    has_label_or_inf = labelling.labels[:, landmark_idx] != NO_LABEL
    has_label_or_inf |= dist >= INF
    flag = np.where(has_label_or_inf, FALSE_KEY, TRUE_KEY).astype(np.int64)
    flag[list(labelling.landmarks)] = TRUE_KEY
    flag[labelling.landmarks[landmark_idx]] = FALSE_KEY
    return dist, flag


def assert_reader_matches_reference(labelling, context: str) -> None:
    """For every landmark, the in-place reader gives the reference's
    distances and flags at every vertex, read one vertex at a time (as
    the kernels' narrow phases do) and as one int64 index array (as
    their vector phases do)."""
    vertices = np.arange(labelling.num_vertices, dtype=np.int64)
    for i in range(labelling.num_landmarks):
        want_dist, want_flag = landmark_arrays(labelling, i)
        dist, flags = labelling.landmark_lengths(i)
        where = f"{context} landmark={i}"
        assert np.array_equal(dist, want_dist), f"{where}: D column differs"
        got = flags[vertices]
        assert got.dtype == np.int64, f"{where}: flag array dtype {got.dtype}"
        bad = np.nonzero(got != want_flag)[0]
        assert not bad.size, (
            f"{where}: array flags differ at vertices {bad[:5].tolist()}"
        )
        one_by_one = [flags[v] for v in range(labelling.num_vertices)]
        bad = [v for v, f in enumerate(one_by_one) if f != want_flag[v]]
        assert not bad, f"{where}: per-vertex flags differ at {bad[:5]}"
        assert all(type(f) is int for f in one_by_one), (
            f"{where}: a per-vertex flag is not an int"
        )


def buffer_paths() -> dict[str, float]:
    """Labelling passes so far, process-wide, by how their repair target
    was made: ``{"recycled": n, "copied": m}``, read from the
    ``repro_labelling_buffers_total`` counter."""
    snapshot = get_registry().snapshot()
    return {
        path: snapshot.get(
            f'repro_labelling_buffers_total{{path="{path}"}}', 0.0
        )
        for path in ("recycled", "copied")
    }


def buffer_paths_since(before: dict[str, float]) -> dict[str, float]:
    """The :func:`buffer_paths` counts added since ``before``."""
    now = buffer_paths()
    return {path: now[path] - before[path] for path in now}


def csr_paths() -> dict[str, float]:
    """CSR freezes so far, process-wide, one per traversal direction, by
    how their row buffers were made: ``{"recycled": n, "relaid": m}``,
    read from the ``repro_csr_buffers_total`` counter."""
    snapshot = get_registry().snapshot()
    return {
        path: snapshot.get(f'repro_csr_buffers_total{{path="{path}"}}', 0.0)
        for path in ("recycled", "relaid")
    }


def csr_paths_since(before: dict[str, float]) -> dict[str, float]:
    """The :func:`csr_paths` counts added since ``before``."""
    now = csr_paths()
    return {path: now[path] - before[path] for path in now}


def bfs_oracle(graph, s: int, t: int) -> float:
    """Ground-truth distance via plain BFS (externalised)."""
    return externalise(bfs_distance_pair(graph, s, t))


def random_graph(n: int, p: float, seed: int = 0):
    return generators.erdos_renyi(n, p, seed=seed)


def random_mixed_updates(
    graph, rng: random.Random, n_deletions: int, n_insertions: int
) -> list[EdgeUpdate]:
    """Valid deletions of live edges plus insertions of random non-edges."""
    updates: list[EdgeUpdate] = []
    edges = list(graph.edges())
    rng.shuffle(edges)
    updates += [EdgeUpdate.delete(a, b) for a, b in edges[:n_deletions]]
    n = graph.num_vertices
    attempts = 0
    added = 0
    while added < n_insertions and attempts < 50 * n_insertions:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            updates.append(EdgeUpdate.insert(a, b))
            added += 1
    rng.shuffle(updates)
    return updates


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="module")
def shard_pool():
    """One persistent 3-shard worker pool per test module.

    Module-scoped so the (forkserver) worker startup is paid once per
    module and the pool's cross-batch reuse is itself under test.
    """
    from repro.parallel import LandmarkShardPool

    with LandmarkShardPool(num_shards=3) as pool:
        yield pool
