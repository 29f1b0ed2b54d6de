"""The benchmark's workloads and the inputs generated for them.

Every input comes from the benchmark, never from the program: the graph
from :mod:`repro.graph.generators`, the update stream from
``make_workload("fully-dynamic")`` and the query pairs from
:func:`sample_query_pairs` / :func:`sample_skewed_query_pairs`, all
seeded from ``--seed``.  :func:`make_inputs` also returns a digest of
what it generated, so two runs can be shown to have received identical
inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

import numpy as np

from repro.graph import generators
from repro.graph.batch import EdgeUpdate
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.queries import sample_query_pairs, sample_skewed_query_pairs
from repro.workloads.updates import make_workload


@dataclass(frozen=True)
class Workload:
    """One traffic mix driven by a single closed-loop client.

    The client replays the update stream in order.  Before each submit it
    serves ``queries_per_update`` queries; after each published epoch it
    serves ``queries_per_epoch`` more.  Query pairs are replayed
    cyclically from a pool of ``query_pool`` generated pairs.
    """

    name: str
    why: str
    graph: str  # "ba" (size = (n, m)) or "grid" (size = (rows, cols))
    size: tuple[int, int]
    max_batch: int  # FlushPolicy.max_batch; max_delay is None
    stream_batch: int  # make_workload batch size
    stream_batches: int  # make_workload batch count
    queries: str  # "uniform" or "skewed"
    query_pool: int
    queries_per_update: int
    queries_per_epoch: int
    # Correctness sample: each served answer is drawn with probability
    # check_rate, up to checks_per_epoch per epoch and max_checks per run.
    check_rate: float
    checks_per_epoch: int
    max_checks: int
    skew: float = 0.0
    hot_fraction: float = 0.0
    landmarks: int = 20
    setups: int = 5


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ba-b10-mixed",
            why="ROADMAP baseline: 10-update flushes on a 100k BA graph cost"
            " O(V+E) freezes, copies and decodes, not O(affected)",
            graph="ba",
            size=(100_000, 4),
            max_batch=10,
            stream_batch=10,
            stream_batches=200,
            queries="uniform",
            query_pool=20_000,
            queries_per_update=300,
            queries_per_epoch=0,
            check_rate=0.002,
            checks_per_epoch=2,
            max_checks=12,
        ),
        Workload(
            name="grid-b1000-writes",
            why="1000-update batches on a high-diameter grid affect ~1e5"
            " (vertex, landmark) pairs, so search and repair kernels dominate",
            graph="grid",
            size=(300, 300),
            max_batch=1000,
            stream_batch=1000,
            stream_batches=16,
            queries="uniform",
            query_pool=1_600,
            queries_per_update=0,
            queries_per_epoch=100,
            check_rate=0.02,
            checks_per_epoch=2,
            max_checks=12,
        ),
        Workload(
            name="ba-read-hot",
            why="skewed reads with a hot set that fits the cache (~3/4 hits);"
            " unit flushes every 30k queries take the heap-kernel path",
            graph="ba",
            size=(100_000, 4),
            max_batch=1,
            stream_batch=2,
            stream_batches=60,
            queries="skewed",
            query_pool=100_000,
            queries_per_update=30_000,
            queries_per_epoch=0,
            check_rate=0.0001,
            checks_per_epoch=2,
            max_checks=12,
            # skew=8 puts ~3/4 of the queries on cached hot pairs, so the
            # median query is a hit and the miss metrics cover the search
            # path; near 50% hits the median would jump between the two.
            skew=8.0,
            hot_fraction=0.0005,
        ),
    )
}


def _smoke(name: str, **changes: object) -> Workload:
    """A tiny version of a workload on which every answer is checked."""
    return dataclasses.replace(
        WORKLOADS[name], landmarks=5, setups=2, check_rate=1.0,
        checks_per_epoch=10**9, max_checks=10**9, **changes,
    )


#: The smoke-test versions of :data:`WORKLOADS` (``run.py --smoke``).
SMOKE: dict[str, Workload] = {
    "ba-b10-mixed": _smoke(
        "ba-b10-mixed", size=(400, 3), stream_batches=6, query_pool=200,
        queries_per_update=5,
    ),
    "grid-b1000-writes": _smoke(
        "grid-b1000-writes", size=(15, 15), max_batch=20, stream_batch=20,
        stream_batches=4, query_pool=40, queries_per_epoch=10,
    ),
    "ba-read-hot": _smoke(
        "ba-read-hot", size=(400, 3), stream_batches=4, query_pool=400,
        queries_per_update=50, hot_fraction=0.02,
    ),
}


@dataclass
class Inputs:
    """What the client sends: a starting graph, updates, query pairs."""

    graph: DynamicGraph
    updates: list[EdgeUpdate]
    pairs: list[tuple[int, int]]
    check_seed: int
    digest: str


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate a workload's inputs from ``seed`` (same seed, same inputs)."""
    rng = random.Random(seed)
    graph_seed, update_seed, query_seed, check_seed = (
        rng.randrange(2**31) for _ in range(4)
    )
    if workload.graph == "ba":
        n, m = workload.size
        graph = generators.barabasi_albert(n, m, seed=graph_seed)
    else:
        rows, cols = workload.size
        graph = generators.grid(rows, cols)
    # The prepared graph has the stream's insertions removed up front.
    stream = make_workload(
        "fully-dynamic", graph, num_batches=workload.stream_batches,
        batch_size=workload.stream_batch, seed=update_seed,
    )
    if workload.queries == "uniform":
        pairs = sample_query_pairs(
            stream.graph, workload.query_pool, seed=query_seed
        )
    else:
        pairs = sample_skewed_query_pairs(
            stream.graph, workload.query_pool, seed=query_seed,
            skew=workload.skew, hot_fraction=workload.hot_fraction,
        )
    updates = stream.flattened()
    return Inputs(
        graph=stream.graph,
        updates=updates,
        pairs=pairs,
        check_seed=check_seed,
        digest=input_digest(stream.graph, updates, pairs),
    )


def input_digest(
    graph: DynamicGraph,
    updates: list[EdgeUpdate],
    pairs: list[tuple[int, int]],
) -> str:
    """SHA-256 over the sorted edge list, the op stream and the pairs."""
    edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    edges.sort(axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    ops = np.array(
        [(int(u.is_insert), u.u, u.v) for u in updates], dtype=np.int64
    )
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_vertices).tobytes())
    digest.update(edges.tobytes())
    digest.update(ops.tobytes())
    digest.update(np.array(pairs, dtype=np.int64).tobytes())
    return digest.hexdigest()
