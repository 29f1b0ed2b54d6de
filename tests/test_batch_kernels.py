"""Heap reference vs adaptive batch kernels: bit-identical results.

The Python heap implementations (:mod:`repro.core.batch_search`,
:mod:`repro.core.batch_repair`) are the equivalence oracle for the
adaptive kernels in :mod:`repro.core.batch_kernels`.  The fuzz here
drives both over the same instances and asserts

* identical affected *sets* for Algorithms 2 and 3 (order is free — the
  repair semantics depend only on membership);
* bit-identical repaired labellings (labels + highway) and identical
  ``cells_changed`` counts for Algorithm 4

— the heaps reading the O(V) materialised reference arrays, the adaptive
kernels the in-place reader production hands them (``landmark_lengths``)
— over the frozen CSR at three switch widths — 0 (pure vector phase), the
adaptive default, and huge (pure Python phase — itself
level-synchronous, so this also pins the Python phase against the
heaps) — and over the live graph (the mutable ``DynamicGraph``, or a
digraph's out/in views), where the Python phases run to the end.
Batches include the hostile zoo (growth, cancellations), deletion-heavy
cuts, and landmark-incident updates.  A forced-vector run of the full
pipeline (undirected variants + the directed index) closes the loop
against rebuild-from-scratch.
"""

from __future__ import annotations

import random

import pytest

from repro import EdgeUpdate, HighwayCoverIndex
from repro.core.batch_kernels import (
    batch_repair_adaptive,
    batch_search_adaptive,
)
from repro.core.batch_repair import batch_repair
from repro.core.batch_search import (
    batch_search_basic,
    batch_search_improved,
    orient_updates,
)
from repro.core.construction import build_labelling
from repro.core.directed import DirectedHighwayCoverIndex
from repro.core.landmarks import select_landmarks
from repro.graph import generators
from repro.graph.batch import apply_batch, normalize_batch
from repro.graph.csr import CSRGraph
from tests.conftest import landmark_arrays, random_mixed_updates

SWITCH_WIDTHS = (0, 64, 10**9)


def random_instance(seed: int):
    rng = random.Random(seed)
    family = rng.choice(("erdos_renyi", "barabasi_albert", "grid"))
    if family == "erdos_renyi":
        graph = generators.erdos_renyi(
            rng.randint(40, 90), rng.uniform(0.05, 0.12), seed=seed
        )
    elif family == "barabasi_albert":
        graph = generators.barabasi_albert(
            rng.randint(40, 90), rng.randint(2, 3), seed=seed
        )
    else:
        side = rng.randint(6, 9)
        graph = generators.grid(side, side)
    return rng, graph


def hostile_batch(graph, rng: random.Random, landmarks) -> list[EdgeUpdate]:
    """Mixed updates incl. deletion-heavy cuts, landmark-incident edges
    and batch-driven growth."""
    n = graph.num_vertices
    updates = random_mixed_updates(graph, rng, rng.randint(2, 8), rng.randint(2, 6))
    if rng.random() < 0.6 and landmarks:
        # Landmark-incident: delete one live landmark edge, insert one.
        r = rng.choice(list(landmarks))
        neighbours = list(graph.neighbors(r))
        if neighbours:
            updates.append(EdgeUpdate.delete(r, rng.choice(neighbours)))
        w = rng.randrange(n)
        if w != r and not graph.has_edge(r, w):
            updates.append(EdgeUpdate.insert(r, w))
    if rng.random() < 0.4:
        # Deletion-heavy: cut most edges around one vertex.
        v = rng.randrange(n)
        for w in list(graph.neighbors(v))[:4]:
            updates.append(EdgeUpdate.delete(v, w))
    if rng.random() < 0.4:
        updates.append(EdgeUpdate.insert(rng.randrange(n), n))  # growth
    rng.shuffle(updates)
    return updates


@pytest.mark.parametrize("seed", range(12))
def test_search_and_repair_kernels_match_heaps(seed):
    rng, graph = random_instance(seed)
    landmarks = select_landmarks(graph, min(4, graph.num_vertices))
    labelling = build_labelling(graph, landmarks)
    updates = hostile_batch(graph, rng, landmarks)
    batch = normalize_batch(updates, graph)
    if not len(batch):
        pytest.skip("batch normalised away")
    highest = max(max(u.u, u.v) for u in batch)
    if highest >= graph.num_vertices:
        graph.ensure_vertex(highest)
        labelling.grow(graph.num_vertices)
    apply_batch(graph, batch)
    oriented = orient_updates(batch)
    csr = CSRGraph.from_graph(graph)
    is_landmark_list = labelling.is_landmark.tolist()

    for improved in (False, True):
        for i in range(len(landmarks)):
            # The heaps read the materialised reference arrays, the
            # adaptive kernels the in-place reader, as in production.
            ref_dist, ref_flag = landmark_arrays(labelling, i)
            old_dist, old_flag = ref_dist.tolist(), ref_flag.tolist()
            dist, flag = labelling.landmark_lengths(i)
            if improved:
                heap_affected = batch_search_improved(
                    csr.list_view(), oriented, old_dist, old_flag,
                    is_landmark_list,
                )
            else:
                heap_affected = batch_search_basic(
                    csr.list_view(), oriented, old_dist
                )
            heap_labelling = labelling.copy()
            heap_changed = batch_repair(
                csr.list_view(), heap_affected, i, heap_labelling,
                old_dist, old_flag, is_landmark_list,
            )
            # The live graph ignores the width: no vector phase without CSR.
            sides = [(csr, width) for width in SWITCH_WIDTHS]
            sides.append((graph, None))
            for kernel_graph, width in sides:
                context = (
                    f"seed={seed} improved={improved} landmark={i}"
                    f" width={width} graph={type(kernel_graph).__name__}"
                )
                vec_affected = batch_search_adaptive(
                    kernel_graph, oriented, dist, flag,
                    labelling.is_landmark, improved, switch_width=width,
                )
                assert set(vec_affected) == set(heap_affected), context
                assert len(vec_affected) == len(heap_affected), context
                vec_labelling = labelling.copy()
                vec_changed = batch_repair_adaptive(
                    kernel_graph, vec_affected, i, vec_labelling, dist,
                    flag, labelling.is_landmark, switch_width=width,
                )
                assert vec_changed == heap_changed, context
                assert heap_labelling.equals(vec_labelling), (
                    context + ": "
                    + "; ".join(heap_labelling.diff(vec_labelling)[:5])
                )


@pytest.mark.parametrize("seed", range(6))
def test_directed_kernels_match_heaps_on_csr_and_live_views(seed):
    """Both passes of a directed batch: the adaptive kernels over the
    frozen (forward, backward) CSR pair and over the live
    ``out_view()``/``in_view()`` agree with the heap reference."""
    rng = random.Random(seed + 700)
    graph = generators.to_directed(
        generators.erdos_renyi(rng.randint(30, 60), 0.1, seed=seed + 700),
        seed=seed + 700,
    )
    landmarks = select_landmarks(graph, 4)
    passes = [
        (build_labelling(graph.out_view(), landmarks), False),
        (build_labelling(graph.in_view(), landmarks), True),
    ]
    updates = random_mixed_updates(
        graph, rng, rng.randint(1, 6), rng.randint(1, 6)
    )
    batch = normalize_batch(updates, graph, directed=True)
    apply_batch(graph, batch)
    csr_out, csr_in = CSRGraph.from_digraph(graph)

    for labelling, reverse in passes:
        oriented = [
            (u.v, u.u, u.is_delete) if reverse else (u.u, u.v, u.is_delete)
            for u in batch
        ]
        live, live_pred = graph.out_view(), graph.in_view()
        csr, pred_csr = csr_out, csr_in
        if reverse:
            live, live_pred = live_pred, live
            csr, pred_csr = pred_csr, csr
        is_landmark = labelling.is_landmark
        for improved in (False, True):
            for i in range(len(landmarks)):
                ref_dist, ref_flag = landmark_arrays(labelling, i)
                dist, flag = labelling.landmark_lengths(i)
                if improved:
                    heap_affected = batch_search_improved(
                        live, oriented, ref_dist, ref_flag, is_landmark
                    )
                else:
                    heap_affected = batch_search_basic(
                        live, oriented, ref_dist
                    )
                heap_labelling = labelling.copy()
                heap_changed = batch_repair(
                    live, heap_affected, i, heap_labelling, ref_dist,
                    ref_flag, is_landmark, symmetric_highway=False,
                    pred_view=live_pred,
                )
                sides = [(csr, pred_csr, width) for width in SWITCH_WIDTHS]
                sides.append((live, live_pred, None))
                for kernel_graph, pred_graph, width in sides:
                    context = (
                        f"seed={seed} reverse={reverse} improved={improved}"
                        f" landmark={i} width={width}"
                        f" graph={type(kernel_graph).__name__}"
                    )
                    affected = batch_search_adaptive(
                        kernel_graph, oriented, dist, flag, is_landmark,
                        improved, switch_width=width,
                    )
                    assert set(affected) == set(heap_affected), context
                    assert len(affected) == len(heap_affected), context
                    repaired = labelling.copy()
                    changed = batch_repair_adaptive(
                        kernel_graph, affected, i, repaired, dist, flag,
                        is_landmark, symmetric_highway=False,
                        pred_graph=pred_graph, switch_width=width,
                    )
                    assert changed == heap_changed, context
                    assert heap_labelling.equals(repaired), (
                        context + ": "
                        + "; ".join(heap_labelling.diff(repaired)[:5])
                    )


@pytest.mark.parametrize("seed", range(6))
def test_forced_vector_pipeline_matches_rebuild(seed, monkeypatch):
    """Whole batch_update pipeline with the vector phase forced on
    (switch width 0) stays exactly minimal over hostile rounds."""
    import repro.core.batch_kernels as bk

    monkeypatch.setattr(bk, "SWITCH_WIDTH", 0)
    rng, graph = random_instance(seed + 500)
    index = HighwayCoverIndex(graph, num_landmarks=rng.randint(3, 6))
    for variant in ("bhl", "bhl+", "bhl-s", "uhl", "uhl+"):
        updates = hostile_batch(
            index.graph, rng, index.landmarks
        )
        index.batch_update(updates, variant=variant)
        problems = index.check_minimality()
        assert problems == [], f"seed={seed} {variant}: {problems[:5]}"


@pytest.mark.parametrize("seed", range(4))
def test_forced_vector_directed_matches_rebuild(seed, monkeypatch):
    """Directed pipeline (forward/backward CSR pair, predecessor-bound
    repair) under the forced vector phase stays exactly minimal."""
    import repro.core.batch_kernels as bk

    monkeypatch.setattr(bk, "SWITCH_WIDTH", 0)
    rng = random.Random(seed + 900)
    graph = generators.to_directed(
        generators.erdos_renyi(50, 0.08, seed=seed + 900), seed=seed + 900
    )
    index = DirectedHighwayCoverIndex(graph, num_landmarks=4)
    for _ in range(2):
        n = index.graph.num_vertices
        updates = []
        arcs = list(index.graph.edges())
        rng.shuffle(arcs)
        updates += [EdgeUpdate.delete(a, b) for a, b in arcs[:4]]
        added = 0
        while added < 4:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and not index.graph.has_edge(a, b):
                updates.append(EdgeUpdate.insert(a, b))
                added += 1
        index.batch_update(updates)
        problems = index.check_minimality()
        assert problems == [], f"seed={seed}: {problems[:5]}"
