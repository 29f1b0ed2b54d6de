"""Randomized equivalence fuzzing: every variant, every backend, one truth.

Seeded fuzz over random graph families and mixed insert/delete batches,
asserting the repo's strongest invariants:

* maintained labelling == rebuild-from-scratch labelling (Theorem 5.21)
  for every variant (BHL, BHL+, BHL-s, UHL, UHL+);
* sequential == processes, bit-for-bit on the label matrices;
* served distances == BFS ground truth on sampled pairs;
* the same for the directed index: every variant == rebuild for both
  labellings;
* the same for the weighted index: weight increases, decreases,
  removals, insertions and growth == rebuild after every batch;
* after every batch, on every row, the maintained landmark-distance
  matrix D equals the Eq. 2 decode of labels + highway (the rebuild and
  bit-for-bit comparisons above cover D as well);
* after every batch, on every row (both labellings of a digraph), the
  in-place reader the kernels use, ``landmark_lengths(i)``, gives the
  O(V) reference's distances and Lemma 5.14 flags at every vertex — the
  root, the other landmarks, unreachable and freshly grown vertices —
  read per vertex and as one index array, for every landmark;
* after every batch, on every row — a failed, rolled-back batch included
  — the CSR view the graph maintains by writing only the rows written
  since equals a from-scratch freeze in every row (the compacted
  ``indptr``/``indices``) and in its adjacency lists;
* every row but one repairs into recycled labelling buffers at least
  once (``repro_labelling_buffers_total{path="recycled"}``) and freezes
  into recycled CSR row buffers at least once
  (``repro_csr_buffers_total{path="recycled"}``), so the equalities above
  cover the recycled paths and not only the copy and the relayout; the
  one row holds every published snapshot, so every pass copies, every
  freeze relays out, and the snapshots' bytes and rows never change.

Every assertion message carries the failing seed; re-run a single seed
with ``REPRO_FUZZ_SEEDS=<seed> pytest tests/test_equivalence_fuzz.py``
(comma-separated values widen the matrix — CI runs one job per seed).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import EdgeUpdate, HighwayCoverIndex
from repro.core.directed import DirectedHighwayCoverIndex
from repro.core.labelling import decode_distances
from repro.core.weighted import WeightedHighwayCoverIndex
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.weighted_graph import WeightUpdate
from repro.workloads.queries import sample_query_pairs
from tests.conftest import (
    assert_reader_matches_reference,
    bfs_oracle,
    buffer_paths,
    buffer_paths_since,
    csr_paths,
    csr_paths_since,
    random_mixed_updates,
)

DEFAULT_SEEDS = (3, 17, 88, 204, 977)
VARIANTS = ("bhl", "bhl+", "bhl-s", "uhl", "uhl+")
BACKENDS = (None, "processes")


def fuzz_seeds() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_FUZZ_SEEDS", "").strip()
    if raw:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return DEFAULT_SEEDS


def random_instance(seed: int):
    """A random graph drawn from one of three families, plus its rng."""
    rng = random.Random(seed)
    family = rng.choice(("erdos_renyi", "barabasi_albert", "watts_strogatz"))
    n = rng.randint(40, 90)
    if family == "erdos_renyi":
        graph = generators.erdos_renyi(n, rng.uniform(0.04, 0.10), seed=seed)
    elif family == "barabasi_albert":
        graph = generators.barabasi_albert(n, rng.randint(2, 3), seed=seed)
    else:
        graph = generators.watts_strogatz(n, 4, 0.2, seed=seed)
    return rng, graph


def random_fuzz_batch(graph, rng: random.Random) -> list[EdgeUpdate]:
    """A hostile mixed batch: valid updates plus the full zoo of junk.

    Works on a digraph too, where every update names one arc.

    Contains deletions of live edges, insertions of absent edges, and —
    with the paper's normalisation rules in mind — duplicates, an
    insert/delete pair of the same edge (must cancel), an insertion of an
    existing edge and a deletion of a missing one (must be ignored), a
    landmark-incident update, self-loop inserts and deletes (must be
    dropped), and edges to brand-new vertices (batch-driven growth,
    including a chain of two new vertices and an id gap that leaves
    isolated vertices behind).
    """
    n = graph.num_vertices
    updates: list[EdgeUpdate] = []
    edges = list(graph.edges())
    rng.shuffle(edges)
    for a, b in edges[: rng.randint(2, 6)]:
        updates.append(EdgeUpdate.delete(a, b))
    inserted = 0
    while inserted < rng.randint(2, 6):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            updates.append(EdgeUpdate.insert(a, b))
            inserted += 1
    if updates and rng.random() < 0.7:
        updates.append(updates[0])  # duplicate — must collapse
    if edges and rng.random() < 0.7:
        a, b = edges[-1]
        # insert+delete of the same (live) edge: both must be eliminated.
        updates.append(EdgeUpdate.insert(a, b))
        updates.append(EdgeUpdate.delete(a, b))
    if edges and rng.random() < 0.5:
        updates.append(EdgeUpdate.insert(*edges[len(edges) // 2]))  # invalid
    if rng.random() < 0.5:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            updates.append(EdgeUpdate.delete(a, b))  # invalid
    if rng.random() < 0.5:
        v = rng.randrange(n)
        # Self-loops never change a distance: both forms must be dropped.
        updates.append(EdgeUpdate(v, v, rng.random() < 0.5))
    if rng.random() < 0.35:
        updates.append(EdgeUpdate.insert(rng.randrange(n), n))  # new vertex
    if rng.random() < 0.25:
        # A chain of two brand-new vertices: the second is only reachable
        # through the first, so its labels depend on in-batch growth.
        updates.append(EdgeUpdate.insert(rng.randrange(n), n))
        updates.append(EdgeUpdate.insert(n, n + 1))
    if rng.random() < 0.15:
        # Growth with an id gap: vertices n..n+1 appear but stay isolated.
        updates.append(EdgeUpdate.insert(rng.randrange(n), n + 2))
    rng.shuffle(updates)
    return updates


def assert_dist_decodes(labelling, context: str) -> None:
    """The maintained D equals the Eq. 2 decode of labels + highway."""
    want = decode_distances(
        labelling.labels, labelling.highway, labelling.landmarks
    )
    cells = np.argwhere(labelling.dist != want)
    assert not cells.size, (
        f"{context}: D differs from the Eq. 2 decode at (vertex, landmark)"
        f" {cells[:5].tolist()}"
    )


def assert_csr_matches_freeze(graph, context: str) -> None:
    """The graph's maintained CSR view equals a from-scratch freeze."""
    if isinstance(graph, DynamicDiGraph):
        pairs = zip(graph.csr(), CSRGraph.from_digraph(graph))
    else:
        pairs = zip((graph.csr(),), (CSRGraph.from_graph(graph),))
    for maintained, fresh in pairs:
        # The maintained rows have slack, so compare their compacted
        # arrays: every row's content and order, back to back.
        (indptr, indices), (fresh_indptr, fresh_indices) = (
            maintained.compact(), fresh.compact()
        )
        assert np.array_equal(indptr, fresh_indptr), (
            f"{context}: maintained CSR row bounds differ from a fresh freeze"
        )
        assert np.array_equal(indices, fresh_indices), (
            f"{context}: maintained CSR rows differ from a fresh freeze"
        )
        assert maintained.adjacency_lists() == fresh.adjacency_lists(), (
            f"{context}: maintained adjacency lists differ from a fresh"
            " freeze"
        )


def assert_recycled(before: dict[str, float], context: str) -> None:
    """Some labelling pass since ``before`` recycled its back pair."""
    assert buffer_paths_since(before)["recycled"] >= 1, (
        f"{context}: no pass recycled its labelling buffers, so only the"
        " copy path was tested"
    )


def assert_csr_recycled(before: dict[str, float], context: str) -> None:
    """Some CSR freeze since ``before`` wrote into recycled row buffers."""
    assert csr_paths_since(before)["recycled"] >= 1, (
        f"{context}: no CSR freeze recycled its row buffers, so only the"
        " relayout was tested"
    )


def assert_queries_exact(index, rng: random.Random, context: str) -> None:
    for s, t in sample_query_pairs(index.graph, 20, seed=rng.randrange(2**30)):
        got, want = index.distance(s, t), bfs_oracle(index.graph, s, t)
        assert got == want, f"{context}: d({s},{t}) = {got}, expected {want}"


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_every_variant_matches_rebuild(seed):
    """batch_update == rebuild-from-scratch for all five variants.

    Two hostile rounds, then two clean ones that grow no vertex, so the
    last round's freeze writes into the row buffers of the view before
    last whatever the hostile rounds grew."""
    paths_before = buffer_paths()
    csr_before = csr_paths()
    for variant in VARIANTS:
        rng, graph = random_instance(seed)
        batch_rng = random.Random(f"{seed}:{variant}")
        index = HighwayCoverIndex(graph, num_landmarks=rng.randint(3, 6))
        for round_no in range(4):
            if round_no < 2:
                updates = random_fuzz_batch(index.graph, batch_rng)
            else:
                updates = random_mixed_updates(index.graph, batch_rng, 3, 3)
            index.batch_update(updates, variant=variant)
            context = (
                f"seed={seed} variant={variant} round={round_no}"
                f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
            )
            problems = index.check_minimality()
            assert problems == [], f"{context}: {problems[:5]}"
            assert_dist_decodes(index.labelling, context)
            assert_reader_matches_reference(index.labelling, context)
            assert_csr_matches_freeze(index.graph, context)
            assert_queries_exact(index, batch_rng, context)
    assert_recycled(paths_before, f"seed={seed}")
    assert_csr_recycled(csr_before, f"seed={seed}")


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_backends_bitwise_equal(seed, shard_pool):
    """sequential == processes on identical update streams.

    Three hostile rounds, then two clean ones that grow no vertex, so
    every backend's last pass recycles its labelling buffers and its
    last freeze the row buffers of the view before last."""
    rng, graph = random_instance(seed + 10_000)
    num_landmarks = rng.randint(4, 7)
    reference = HighwayCoverIndex(graph.copy(), num_landmarks=num_landmarks)
    others = {
        "processes": HighwayCoverIndex(
            graph.copy(), landmarks=reference.landmarks, pool=shard_pool
        )
    }
    recycled = dict.fromkeys(BACKENDS, 0.0)
    csr_before = csr_paths()
    batch_rng = random.Random(f"{seed}:backends")
    for round_no in range(5):
        if round_no < 3:
            updates = random_fuzz_batch(reference.graph, batch_rng)
        else:
            updates = random_mixed_updates(reference.graph, batch_rng, 3, 3)
        before = buffer_paths()
        reference.batch_update(updates)
        recycled[None] += buffer_paths_since(before)["recycled"]
        problems = reference.check_minimality()
        assert problems == [], (
            f"seed={seed} backend=sequential round={round_no}: {problems[:5]}"
        )
        assert_dist_decodes(
            reference.labelling,
            f"seed={seed} backend=sequential round={round_no}",
        )
        assert_reader_matches_reference(
            reference.labelling,
            f"seed={seed} backend=sequential round={round_no}",
        )
        assert_csr_matches_freeze(
            reference.graph,
            f"seed={seed} backend=sequential round={round_no}",
        )
        for backend, index in others.items():
            before = buffer_paths()
            index.batch_update(updates)
            recycled[backend] += buffer_paths_since(before)["recycled"]
            context = (
                f"seed={seed} backend={backend} round={round_no}"
                f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
            )
            assert_dist_decodes(index.labelling, context)
            assert_reader_matches_reference(index.labelling, context)
            assert_csr_matches_freeze(index.graph, context)
            assert reference.labelling.equals(index.labelling), (
                f"{context}: "
                + "; ".join(reference.labelling.diff(index.labelling)[:5])
            )
    context = f"seed={seed} final (reproduce: REPRO_FUZZ_SEEDS={seed})"
    assert all(recycled.values()), f"{context}: recycled passes {recycled}"
    assert_csr_recycled(csr_before, context)
    assert_queries_exact(reference, batch_rng, context)


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_processes_remap_and_worker_death(seed, shard_pool):
    """The shared-memory protocol under its two hard events.

    A vertex-growing batch forces the writer to reallocate the shared
    blocks (generation bump; attached workers re-map on their next
    task), and a killed worker surfaces exactly one BrokenProcessPool,
    after which replacement workers attach to the *same* blocks.  Both
    events must leave processes bit-identical to sequential.
    """
    rng, graph = random_instance(seed + 30_000)
    num_landmarks = rng.randint(3, 5)
    reference = HighwayCoverIndex(graph.copy(), num_landmarks=num_landmarks)
    subject = HighwayCoverIndex(
        graph.copy(), landmarks=reference.landmarks, pool=shard_pool
    )
    batch_rng = random.Random(f"{seed}:remap")
    csr_before = csr_paths()

    def apply_both(updates, stage):
        reference.batch_update(updates)
        before = buffer_paths()
        subject.batch_update(updates)
        paths = buffer_paths_since(before)
        context = (
            f"seed={seed} stage={stage}"
            f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
        )
        assert_dist_decodes(subject.labelling, context)
        assert_reader_matches_reference(subject.labelling, context)
        assert_csr_matches_freeze(reference.graph, context)
        assert_csr_matches_freeze(subject.graph, context)
        assert reference.labelling.equals(subject.labelling), (
            f"{context}: "
            + "; ".join(reference.labelling.diff(subject.labelling)[:5])
        )
        return paths

    apply_both(random_fuzz_batch(reference.graph, batch_rng), "warm")
    generation_before = shard_pool._state.generation
    # Doubling the vertex count overflows the blocks' 1.5x headroom, so
    # the writer *must* reallocate (small growth is absorbed in place).
    n = reference.graph.num_vertices
    hub = batch_rng.randrange(n)
    growth = [EdgeUpdate.insert(hub, n + k) for k in range(n)]
    apply_both(growth, "growth")
    assert shard_pool._state.generation > generation_before, (
        f"seed={seed}: vertex growth must reallocate the shared blocks"
    )

    victim = next(iter(shard_pool._executor._processes.values()))
    victim.kill()
    victim.join(timeout=10)
    # The executor's manager thread flags the breakage asynchronously;
    # submitting before it runs would let the surviving workers serve
    # the whole batch and defer the BrokenProcessPool by one flush.
    deadline = time.monotonic() + 10
    while not shard_pool._executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert shard_pool._executor._broken
    updates = random_fuzz_batch(reference.graph, batch_rng)
    edges_before = sorted(subject.graph.edges())
    with pytest.raises(BrokenProcessPool):
        subject.batch_update(updates)
    # The failed batch rolled its edge mutations back, and the view the
    # graph maintains follows the rollback; the retry runs on a fresh
    # executor whose workers attach to the surviving blocks.
    assert sorted(subject.graph.edges()) == edges_before
    assert_csr_matches_freeze(
        subject.graph, f"seed={seed} stage=rolled-back"
    )
    apply_both(updates, "post-kill-retry")
    # A clean batch that grows nothing: the processes backend repairs
    # into the recycled buffers of the labelling before last.
    paths = apply_both(
        random_mixed_updates(reference.graph, batch_rng, 3, 3), "recycled"
    )
    assert paths["recycled"] == 1, f"seed={seed}: {paths}"
    assert_csr_recycled(csr_before, f"seed={seed}")
    assert reference.check_minimality() == [], f"seed={seed}"


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_unit_variants_agree_with_batch_on_processes(seed, shard_pool):
    """UHL/UHL+ (unit updates) reach the same labelling as BHL+ batches,
    sequentially and on the process pool — same final graph, same minimal
    labelling (Theorem 5.21 makes the labelling graph-determined).

    Uses *clean* batches (distinct valid updates only): an insert+delete
    pair of one edge cancels under batch semantics but net-deletes under
    unit processing, so hostile batches legitimately diverge.
    """
    rng, graph = random_instance(seed + 20_000)
    num_landmarks = rng.randint(3, 5)
    batch = random_mixed_updates(graph, random.Random(f"{seed}:unit"), 4, 4)
    csr_before = csr_paths()
    results = []
    for variant, backend in (
        ("bhl+", None),
        ("uhl", None),
        ("uhl+", "processes"),
    ):
        index = HighwayCoverIndex(
            graph.copy(),
            num_landmarks=num_landmarks,
            pool=shard_pool if backend == "processes" else None,
        )
        before = buffer_paths()
        index.batch_update(batch, variant=variant)
        context = f"seed={seed} variant={variant} backend={backend}"
        if variant != "bhl+":
            # From the third unit sub-batch on, each pass recycles the
            # buffers of the sub-batch two back, which nothing publishes.
            assert_recycled(before, context)
        assert_dist_decodes(index.labelling, context)
        assert_reader_matches_reference(index.labelling, context)
        assert_csr_matches_freeze(index.graph, context)
        results.append((variant, backend, index))
    # Each unit sub-batch on the processes backend freezes the graph, so
    # from the third on they write into recycled row buffers.
    assert_csr_recycled(csr_before, f"seed={seed}")
    _, _, reference = results[0]
    for variant, backend, index in results[1:]:
        context = (
            f"seed={seed} variant={variant} backend={backend}"
            f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
        )
        assert reference.labelling.equals(index.labelling), (
            f"{context}: "
            + "; ".join(reference.labelling.diff(index.labelling)[:5])
        )


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_directed_variants_match_rebuild_and_threads(seed):
    """The directed index under the same hostile batches: every variant
    == rebuild-from-scratch for both labellings after every batch.  Two
    growing rounds, then two clean ones, as in the undirected variant
    row.  (The id is older than the removal of the threads backend,
    whose bit-for-bit twin this row also ran.)"""
    rng = random.Random(seed + 40_000)
    undirected = generators.erdos_renyi(
        rng.randint(40, 90), rng.uniform(0.04, 0.10), seed=seed
    )
    digraph = generators.to_directed(
        undirected, reciprocal_p=rng.uniform(0.2, 0.6), seed=seed
    )
    num_landmarks = rng.randint(3, 6)
    paths_before = buffer_paths()
    csr_before = csr_paths()
    for variant in VARIANTS:
        batch_rng = random.Random(f"{seed}:directed:{variant}")
        index = DirectedHighwayCoverIndex(
            digraph.copy(), num_landmarks=num_landmarks
        )
        for round_no in range(4):
            n = index.graph.num_vertices
            if round_no < 2:
                updates = random_fuzz_batch(index.graph, batch_rng)
                # A new vertex whose only arc leads out of it: it grows
                # the vertex set and is reachable in the backward
                # labelling only.
                updates.append(
                    EdgeUpdate.insert(n + 3, batch_rng.randrange(n))
                )
            else:
                updates = random_mixed_updates(index.graph, batch_rng, 3, 3)
            index.batch_update(updates, variant=variant)
            context = (
                f"seed={seed} variant={variant} round={round_no}"
                f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
            )
            problems = index.check_minimality()
            assert problems == [], f"{context}: {problems[:5]}"
            assert_csr_matches_freeze(index.graph, context)
            for side in ("forward", "backward"):
                labelling = getattr(index, side)
                assert_dist_decodes(labelling, f"{context} {side}")
                assert_reader_matches_reference(labelling, f"{context} {side}")
    assert_recycled(paths_before, f"seed={seed}")
    assert_csr_recycled(csr_before, f"seed={seed}")


def random_weight_batch(
    wgraph, rng: random.Random, grow: bool
) -> list[WeightUpdate]:
    """Weight increases, decreases and removals of live edges, insertions
    of absent ones, and with ``grow`` a chain of two brand-new vertices."""
    n = wgraph.num_vertices
    edges = sorted(wgraph.edges())
    rng.shuffle(edges)
    k = rng.randint(1, 3)
    updates = [WeightUpdate(a, b, w + rng.randint(1, 5)) for a, b, w in edges[:k]]
    updates += [
        WeightUpdate(a, b, max(1, w - rng.randint(1, 5)))
        for a, b, w in edges[k : 2 * k]
    ]
    updates += [WeightUpdate(a, b, None) for a, b, _ in edges[2 * k : 3 * k]]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not wgraph.has_edge(a, b):
            updates.append(WeightUpdate(a, b, rng.randint(1, 8)))
    if grow:
        updates.append(WeightUpdate(rng.randrange(n), n, rng.randint(1, 8)))
        updates.append(WeightUpdate(n, n + 1, rng.randint(1, 8)))
    rng.shuffle(updates)
    return updates


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_weighted_batches_match_rebuild(seed):
    """The weighted index on a random weighted ER graph: after every
    batch of weight changes, removals and insertions, the labelling ==
    rebuild-from-scratch, D decodes, and the in-place reader matches the
    reference.  Two growing rounds, then two that grow no vertex, so
    their passes repair into recycled buffers."""
    rng = random.Random(seed + 60_000)
    wgraph = generators.with_random_weights(
        generators.erdos_renyi(
            rng.randint(40, 90), rng.uniform(0.05, 0.10), seed=seed
        ),
        1,
        8,
        seed=seed,
    )
    index = WeightedHighwayCoverIndex(wgraph, num_landmarks=rng.randint(3, 6))
    paths_before = buffer_paths()
    for round_no in range(4):
        index.batch_update(
            random_weight_batch(index.graph, rng, grow=round_no < 2)
        )
        context = (
            f"seed={seed} weighted round={round_no}"
            f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
        )
        problems = index.check_minimality()
        assert problems == [], f"{context}: {problems[:5]}"
        assert_dist_decodes(index.labelling, context)
        assert_reader_matches_reference(index.labelling, context)
    assert_recycled(paths_before, f"seed={seed} weighted")


@pytest.mark.parametrize("seed", fuzz_seeds())
def test_held_snapshots_force_copies_and_stay_exact(seed):
    """Holding every published snapshot keeps every labelling's arrays
    referenced, so no pass may recycle them: each copies, the writer
    stays bit-identical to a rebuild, and no held snapshot's labels,
    highway or D ever change.

    The batches grow no vertex: a grown labelling's arrays are new and
    unpublished, and the pass after next may rightly recycle them."""
    rng, graph = random_instance(seed + 50_000)
    index = HighwayCoverIndex(graph, num_landmarks=rng.randint(3, 6))
    batch_rng = random.Random(f"{seed}:held")

    def label_bytes(snapshot):
        lab = snapshot.labelling
        rows = snapshot.ensure_csr()
        indptr, indices = rows.compact()
        return (
            lab.labels.tobytes(),
            lab.highway.tobytes(),
            lab.dist.tobytes(),
            indptr.tobytes(),
            indices.tobytes(),
            [list(row) for row in rows.adjacency_lists()],
        )

    snapshot = index.snapshot()
    held = [(snapshot, label_bytes(snapshot))]
    before = buffer_paths()
    csr_before = csr_paths()
    for round_no in range(4):
        variant = ("bhl", "bhl+")[round_no % 2]
        index.batch_update(
            random_mixed_updates(index.graph, batch_rng, 4, 4),
            variant=variant,
        )
        context = (
            f"seed={seed} round={round_no}"
            f" (reproduce: REPRO_FUZZ_SEEDS={seed})"
        )
        problems = index.check_minimality()
        assert problems == [], f"{context}: {problems[:5]}"
        assert_dist_decodes(index.labelling, context)
        for epoch, (snapshot, content) in enumerate(held):
            assert label_bytes(snapshot) == content, (
                f"{context}: the labelling or rows of held epoch {epoch}"
                " changed"
            )
        snapshot = index.snapshot()
        held.append((snapshot, label_bytes(snapshot)))
        del snapshot
    assert buffer_paths_since(before) == {"recycled": 0.0, "copied": 4.0}, (
        f"seed={seed}: a pass recycled arrays a held snapshot reads"
    )
    assert csr_paths_since(csr_before)["recycled"] == 0, (
        f"seed={seed}: a freeze recycled rows a held snapshot reads"
    )
