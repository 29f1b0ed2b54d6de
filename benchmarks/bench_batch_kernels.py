"""Batch-update kernel benchmark: the heap reference search/repair vs
the adaptive production kernels.

The paper's headline metric is batch update time (Algorithms 2–4,
Figs. 6–7).  Production runs only the adaptive kernels of
:mod:`repro.core.batch_kernels`; the paper-literal heap kernels are the
reference they must match.  This benchmark pits the two against each
other through the per-landmark pipeline (read old landmark lengths →
batch search → batch repair) on one updated graph, feeding each side
what it reads: the adaptive kernels get the O(1) in-place reader that
production hands them
(:meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths`),
the heap reference the O(V) materialised arrays
(:func:`materialised_lengths`):

* ``search (alg 2/3)`` — the CP-affected / improved affected-set search
  per landmark, heap vs :func:`batch_search_adaptive`;
* ``repair (alg 4)`` — boundary-bound repair of the affected set per
  landmark, heap vs :func:`batch_repair_adaptive`;
* ``search+repair`` — the combined per-landmark update cost, the
  number the paper's Figs. 6–7 measure.

The default instance is a ≥100k-edge grid — the road-network-shaped
workload where deletions blow the affected region wide open and Python
heaps are slowest — with a secondary scale-free instance where affected
sets stay small and the adaptive kernels must not regress.  Every
comparison asserts the two implementations produce identical affected
sets and bit-identical repaired labellings (labels, highway and the
landmark-distance matrix D that repair maintains);
``--check-only`` runs a randomized multi-seed agreement sweep without
timings (the CI step) over three sides: the heap reference, the adaptive
kernels over the frozen CSR, and the adaptive kernels over the mutable
graph, as unit sub-batches run them.  On every instance it also asserts
that the reader's distances and flags equal the materialised arrays at
every vertex, read one vertex at a time and as one index array.  The
timed table compares the heap and CSR sides.  The CSV lands in
``results/batch_kernels.csv``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_batch_kernels.py
Smoke mode:      PYTHONPATH=src python benchmarks/bench_batch_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import os
import random
import time

import numpy as np

from repro.api.registry import open_oracle
from repro.bench.reporting import ResultTable
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
from repro.constants import INF, NO_LABEL
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.graph import generators
from repro.graph.batch import EdgeUpdate, apply_batch, normalize_batch
from repro.graph.csr import CSRGraph
from repro.obs import configure_logging, get_logger

_log = get_logger("repro.bench.batch_kernels")


def mixed_batch(graph, rng: random.Random, n_deletions: int, n_insertions: int):
    """Deletions of live edges + insertions of absent edges (multi-update)."""
    updates = []
    edges = list(graph.edges())
    rng.shuffle(edges)
    updates += [EdgeUpdate.delete(a, b) for a, b in edges[:n_deletions]]
    n = graph.num_vertices
    added = 0
    while added < n_insertions:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            updates.append(EdgeUpdate.insert(a, b))
            added += 1
    rng.shuffle(updates)
    return updates


def materialised_lengths(labelling, landmark_idx: int):
    """The old landmark lengths of every vertex as ``(dist, flag)`` int64
    arrays, in O(V): what the heap reference reads.

    ``dist`` copies column i of D.  ``flag`` is the Lemma 5.14 flag:
    FALSE_KEY for the root, TRUE_KEY for every other landmark, and for
    any other vertex FALSE_KEY iff it has an r-label or is unreachable.
    """
    dist = labelling.dist[:, landmark_idx].copy()
    has_label_or_inf = labelling.labels[:, landmark_idx] != NO_LABEL
    has_label_or_inf |= dist >= INF
    flag = np.where(has_label_or_inf, FALSE_KEY, TRUE_KEY).astype(np.int64)
    flag[list(labelling.landmarks)] = TRUE_KEY
    flag[labelling.landmarks[landmark_idx]] = FALSE_KEY
    return dist, flag


def assert_reader_matches(labelling, context: str) -> None:
    """The in-place reader equals the materialised arrays at every vertex
    and landmark, per vertex and as one int64 index array."""
    vertices = np.arange(labelling.num_vertices, dtype=np.int64)
    for i in range(labelling.num_landmarks):
        want_dist, want_flag = materialised_lengths(labelling, i)
        dist, flags = labelling.landmark_lengths(i)
        where = f"{context} landmark={i}"
        assert np.array_equal(dist, want_dist), f"{where}: D column differs"
        assert np.array_equal(flags[vertices], want_flag), (
            f"{where}: array flags differ from the materialised flags"
        )
        assert [flags[v] for v in vertices.tolist()] == want_flag.tolist(), (
            f"{where}: per-vertex flags differ from the materialised flags"
        )


def run_side(
    kernel: str,
    graph,
    labelling,
    oriented,
    improved: bool,
):
    """One full per-landmark pass; returns (search_s, repair_s, labelling').

    ``kernel`` is ``"heap"`` (the reference, over ``graph``'s
    ``neighbors``, fed the materialised arrays) or ``"adaptive"`` (the
    production kernels, over a frozen :class:`CSRGraph` or the live
    graph, fed the in-place reader).  The heap side pays its
    ``tolist()`` cost inside the search timing, as the heap pipeline did
    when it ran in production; neither side's timing includes reading or
    materialising the old state.
    """
    labelling_new = labelling.copy()
    search_s = repair_s = 0.0
    affected_sets = []
    is_landmark_list = (
        labelling.is_landmark.tolist() if kernel == "heap" else None
    )
    for i in range(labelling.num_landmarks):
        if kernel == "heap":
            dist, flag = materialised_lengths(labelling, i)
        else:
            dist, flag = labelling.landmark_lengths(i)
        t0 = time.perf_counter()
        if kernel == "heap":
            old_dist, old_flag = dist.tolist(), flag.tolist()
            if improved:
                affected = batch_search_improved(
                    graph, oriented, old_dist, old_flag, is_landmark_list
                )
            else:
                affected = batch_search_basic(graph, oriented, old_dist)
            t1 = time.perf_counter()
            batch_repair(
                graph, affected, i, labelling_new, old_dist, old_flag,
                is_landmark_list,
            )
        else:
            affected = batch_search_adaptive(
                graph, oriented, dist, flag, labelling.is_landmark, improved
            )
            t1 = time.perf_counter()
            batch_repair_adaptive(
                graph, affected, i, labelling_new, dist, flag,
                labelling.is_landmark,
            )
        t2 = time.perf_counter()
        search_s += t1 - t0
        repair_s += t2 - t1
        affected_sets.append(frozenset(affected))
    return search_s, repair_s, affected_sets, labelling_new


def assert_sides_agree(heap_result, other_result, context: str) -> None:
    """Identical per-landmark affected *sets* and bit-identical labellings
    (``equals`` compares labels, highway and D)."""
    _, _, heap_sets, heap_lab = heap_result
    _, _, other_sets, other_lab = other_result
    for i, (heap_set, other_set) in enumerate(zip(heap_sets, other_sets)):
        assert heap_set == other_set, (
            f"{context}: affected sets diverged for landmark {i}:"
            f" heap-only={sorted(heap_set - other_set)[:5]}"
            f" adaptive-only={sorted(other_set - heap_set)[:5]}"
        )
    assert heap_lab.equals(other_lab), (
        f"{context}: " + "; ".join(heap_lab.diff(other_lab)[:5])
    )


def bench_instance(
    table: ResultTable,
    name: str,
    graph,
    num_landmarks: int,
    n_deletions: int,
    n_insertions: int,
    seed: int,
) -> float:
    """Benchmark both kernels on one instance; returns the combined
    search+repair speedup of the improved (BHL+) variant."""
    _log.info(
        "instance starting",
        extra={"instance": name, "edges": graph.num_edges},
    )
    index = open_oracle("hcl", graph, num_landmarks=num_landmarks, seed=seed)
    labelling = index.labelling
    rng = random.Random(seed)
    updates = mixed_batch(graph, rng, n_deletions, n_insertions)
    batch = normalize_batch(updates, graph)
    apply_batch(graph, batch)  # graph is now G'
    oriented = orient_updates(batch)
    csr = CSRGraph.from_graph(graph)

    headline = 0.0
    for improved, alg in ((False, "2"), (True, "3")):
        heap_result = run_side(
            "heap", csr.list_view(), labelling, oriented, improved
        )
        vector_result = run_side(
            "adaptive", csr, labelling, oriented, improved
        )
        assert_sides_agree(
            heap_result, vector_result, f"{name} improved={improved}"
        )
        heap_s, heap_r, heap_sets, _ = heap_result
        vec_s, vec_r, _, _ = vector_result
        heap_aff = sum(len(s) for s in heap_sets)
        variant = "bhl+" if improved else "bhl"
        table.add_row(
            instance=name,
            kernel=f"search (alg {alg})",
            variant=variant,
            affected=heap_aff,
            heap_s=heap_s,
            vector_s=vec_s,
            speedup=heap_s / vec_s,
        )
        table.add_row(
            instance=name,
            kernel="repair (alg 4)",
            variant=variant,
            affected=heap_aff,
            heap_s=heap_r,
            vector_s=vec_r,
            speedup=heap_r / vec_r,
        )
        combined = (heap_s + heap_r) / (vec_s + vec_r)
        table.add_row(
            instance=name,
            kernel="search+repair",
            variant=variant,
            affected=heap_aff,
            heap_s=heap_s + heap_r,
            vector_s=vec_s + vec_r,
            speedup=combined,
        )
        if improved:
            headline = combined
    return headline


def agreement_sweep(num_seeds: int, base_seed: int) -> int:
    """Randomized heap == CSR == live agreement over both search
    algorithms.

    Kernel-level check on small instances: the heap reference and the
    adaptive kernels over the frozen CSR and over the mutable graph give
    identical per-landmark affected *sets* and bit-identical repaired
    labellings and D, and — closing the loop against ground truth — the
    repaired labelling and D are exactly equal to a from-scratch build
    over the updated graph (Theorem 5.21).  The reader the adaptive side
    reads must equal the materialised arrays the heap side reads, on
    every instance.  Returns the number of (seed, algorithm) cases
    checked.
    """
    from repro.core.construction import build_labelling
    from repro.core.landmarks import select_landmarks

    checked = 0
    for offset in range(num_seeds):
        seed = base_seed + offset
        rng = random.Random(seed)
        graph = generators.erdos_renyi(
            rng.randint(50, 90), rng.uniform(0.05, 0.1), seed=seed
        )
        landmarks = select_landmarks(graph, 4)
        labelling = build_labelling(graph, landmarks)
        assert_reader_matches(labelling, f"seed={seed}")
        updates = mixed_batch(graph, rng, 5, 5)
        batch = normalize_batch(updates, graph)
        apply_batch(graph, batch)
        oriented = orient_updates(batch)
        csr = CSRGraph.from_graph(graph)
        rebuilt = build_labelling(graph, landmarks)  # ground truth over G'
        for improved in (False, True):
            context = f"seed={seed} improved={improved}"
            heap_result = run_side(
                "heap", csr.list_view(), labelling, oriented, improved
            )
            vector_result = run_side(
                "adaptive", csr, labelling, oriented, improved
            )
            live_result = run_side(
                "adaptive", graph, labelling, oriented, improved
            )
            assert_sides_agree(heap_result, vector_result, f"{context} csr")
            assert_sides_agree(heap_result, live_result, f"{context} live")
            vec_lab = vector_result[3]
            assert vec_lab.equals(rebuilt), (
                f"{context}: repaired labelling is not minimal: "
                + "; ".join(vec_lab.diff(rebuilt)[:5])
            )
            assert_reader_matches(vec_lab, f"{context} repaired")
            checked += 1
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instances for CI: a 40x40 grid and a 2k-vertex"
        " scale-free graph",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="run only the randomized heap/CSR/live agreement sweep",
    )
    parser.add_argument(
        "--seeds", type=int, default=8, help="agreement-sweep seed count"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--csv", default="batch_kernels.csv", help="CSV name under results/"
    )
    parser.add_argument(
        "--log-level", help="repro.* logger level (overrides REPRO_LOG)"
    )
    parser.add_argument("--log-format", choices=("human", "json"))
    args = parser.parse_args(argv)
    # Drivers are interactive tools: progress at info by default, unless
    # REPRO_LOG or --log-level says otherwise.
    level = args.log_level or (
        None if os.environ.get("REPRO_LOG") else "info"
    )
    configure_logging(level=level, fmt=args.log_format)

    if args.check_only:
        checked = agreement_sweep(args.seeds, args.seed)
        _log.info(
            "agreement sweep clean: heap == CSR == live — per-landmark"
            " affected sets identical, repaired labels, highway and D"
            " bit-identical and exactly minimal vs rebuild; reader =="
            " materialised landmark lengths",
            extra={"cases": checked},
        )
        return 0

    side = 40 if args.smoke else 235
    ba_n = 2_000 if args.smoke else 55_000
    dels, ins = (8, 8) if args.smoke else (24, 24)
    grid = generators.grid(side, side)
    ba = generators.barabasi_albert(ba_n, 2, seed=args.seed)

    table = ResultTable(
        f"Batch-update kernels: grid {side}x{side}"
        f" (|E|={grid.num_edges}) + scale-free n={ba_n}"
        f" (|E|={ba.num_edges}), {dels}+{ins} mixed updates",
        [
            "instance",
            "kernel",
            "variant",
            "affected",
            "heap_s",
            "vector_s",
            "speedup",
        ],
    )
    headline = bench_instance(
        table, f"grid {side}x{side}", grid,
        num_landmarks=8 if args.smoke else 16,
        n_deletions=dels, n_insertions=ins, seed=args.seed,
    )
    bench_instance(
        table, f"scale-free n={ba_n}", ba,
        num_landmarks=8 if args.smoke else 16,
        n_deletions=dels, n_insertions=ins, seed=args.seed,
    )
    table.add_note(
        "every row asserts identical affected sets and bit-identical"
        " repaired labellings between the heap and vector kernels"
    )
    table.add_note(
        f"headline (grid, search+repair, bhl+): {headline:.1f}x"
    )
    print(table.to_text())
    _log.info("csv saved", extra={"path": table.save_csv(args.csv)})
    if not args.smoke and headline < 3.0:
        _log.error(
            "headline speedup below the 3x acceptance floor",
            extra={"headline": round(headline, 2)},
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
