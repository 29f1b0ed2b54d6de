"""Query-kernel benchmark: pure-Python traversal vs the CSR frontier kernels.

The query hot path used to walk dict-of-set adjacency in pure Python for
every bounded bidirectional search; :mod:`repro.graph.csr` replaces that
with a frozen CSR view and a level-synchronous kernel.  Narrow frontiers
advance as set algebra over the view's adjacency lists (one set of the
frontier's rows per level, minus the seen set and the excluded
landmarks, and one ``isdisjoint`` against the other side's frontier); the
search stops at the first meet, which is the exact distance, and the
last level the bound allows only tests the frontier's rows against the
other frontier.  Wide frontiers switch to numpy sweeps over bool masks
under the same rule.  This benchmark pits the reference traversal
against that kernel through the *real* query algorithm (labelling bound
+ bounded search):

* ``single-pair`` — ``query_distance`` per pair: Python traversal vs the
  adaptive CSR kernel (p50 is the paper's query-latency metric);
* ``batched distances()`` — shared-source query groups: the per-pair
  Python path vs the CSR path with source-grouped sweep amortisation;
* ``sssp sweep`` — one full single-source BFS (the amortised unit);
* ``landmark bfs`` — the landmark-flagged construction BFS: the Python
  BFS per landmark vs one bit-packed sweep over all of them (the CSR
  p50 column is the sweep's time per landmark).

The default instance is a ≥50k-edge grid — the road-network-shaped
workload where distance oracles earn their keep and Python traversal is
slowest.  Every timed comparison also asserts the two implementations
agree, and an extra randomized agreement sweep (``--agree``) checks the
raw bidirectional kernels on uniformly random pairs, landmark exclusion
included, on the grid and on a Barabási–Albert graph of as many
vertices: most grid searches go wide and run in numpy, while BA searches
under a tight bound stay in the set-algebra phase, so the sweep covers
both.  The same two graphs check the construction sweep: every column
of one sweep over 65 roots (the landmarks and random others, so the
sweep crosses its 64-root word) equals the per-root Python BFS.  The
CSV lands in ``results/query_kernels.csv`` (CI uploads it as an
artifact from a smoke-size run).

Run standalone:  PYTHONPATH=src python benchmarks/bench_query_kernels.py
Smoke mode:      PYTHONPATH=src python benchmarks/bench_query_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import time

import numpy as np

from repro.api.registry import open_oracle
from repro.bench.reporting import ResultTable
from repro.constants import INF
from repro.core.construction import bfs_landmark_lengths
from repro.core.landmarks import select_landmarks
from repro.core.queries import query_distance
from repro.graph import generators
from repro.graph.csr import (
    CSRGraph,
    bfs_distances as csr_bfs_distances,
    bidirectional_distance,
    landmark_sweep,
)
from repro.graph.traversal import (
    bfs_distances,
    bidirectional_bfs,
)
from repro.obs import configure_logging, get_logger

_log = get_logger("repro.bench.query_kernels")

#: Roots in the sweep agreement check: past one 64-root word.
SWEEP_CHECK_ROOTS = 65


def _timed(fn, items):
    """Run ``fn`` per item; returns (per-item seconds, results)."""
    times, results = [], []
    for item in items:
        started = time.perf_counter()
        results.append(fn(item))
        times.append(time.perf_counter() - started)
    return times, results


def kernel_agreement(graph, csr, landmark_set, num_pairs: int, seed: int) -> int:
    """Assert python and CSR bidirectional kernels agree on random pairs.

    Each pair is checked unbounded, under a random bound, and under its
    exact distance and one past it: a query's labelling bound is usually
    one of those two, and the search then ends in the last-level row
    test, which misses or hits.  With and without landmark exclusion.
    Returns the number of pairs checked; raises AssertionError on the
    first disagreement.
    """
    rng = random.Random(seed)
    n = graph.num_vertices
    checked = 0
    for _ in range(num_pairs):
        s, t = rng.randrange(n), rng.randrange(n)
        excluded = landmark_set if rng.random() < 0.7 else frozenset()
        exact = bidirectional_bfs(graph, s, t, excluded=excluded)
        bounds = [INF, rng.randint(0, 24)]
        if exact < INF:
            bounds += [exact, exact + 1]
        for bound in bounds:
            want = bidirectional_bfs(
                graph, s, t, excluded=excluded, bound=bound
            )
            got = bidirectional_distance(
                csr, s, t, excluded=excluded, bound=bound
            )
            assert got == want, (
                f"kernel mismatch: d({s},{t}) bound={bound} "
                f"excluded={bool(excluded)}: python={want} csr={got}"
            )
        checked += 1
    return checked


def sweep_agreement(graph, csr, landmarks, num_roots: int, seed: int) -> int:
    """Assert one landmark sweep equals the per-root Python BFS.

    The roots are ``landmarks`` followed by random vertices up to
    ``num_roots``; the landmark set is ``landmarks``.  Returns the number
    of roots checked; raises AssertionError on the first differing
    column.
    """
    rng = random.Random(seed)
    n = graph.num_vertices
    is_landmark = np.zeros(n, dtype=bool)
    is_landmark[list(landmarks)] = True
    roots = list(landmarks)
    roots += [rng.randrange(n) for _ in range(num_roots - len(roots))]
    sweep = landmark_sweep(csr, roots, is_landmark)
    for i, root in enumerate(roots):
        dist, flag = bfs_landmark_lengths(graph, root, is_landmark)
        assert (sweep.dist[:, i] == dist).all() and (
            sweep.flag[:, i] == flag
        ).all(), f"landmark sweep column {i} (root {root}) diverged"
    return len(roots)


def experiment_query_kernels(
    side: int = 330,
    num_landmarks: int = 16,
    num_pairs: int = 60,
    batch_sources: int = 6,
    batch_targets: int = 48,
    agree_pairs: int = 200,
    seed: int = 0,
    check_only: bool = False,
) -> ResultTable:
    graph = generators.grid(side, side)
    index = open_oracle("hcl", graph, num_landmarks=num_landmarks, seed=seed)
    labelling = index.labelling
    landmark_set = frozenset(index.landmarks)
    csr = index.ensure_csr()
    rng = random.Random(seed)
    n = graph.num_vertices

    table = ResultTable(
        f"Query kernels: {side}x{side} grid, |V|={n},"
        f" |E|={graph.num_edges}, |R|={num_landmarks}",
        [
            "kernel",
            "items",
            "python_p50_ms",
            "csr_p50_ms",
            "p50_speedup",
            "python_total_s",
            "csr_total_s",
            "total_speedup",
        ],
    )

    checked = kernel_agreement(graph, csr, landmark_set, agree_pairs, seed)
    ba = generators.barabasi_albert(n, 4, seed=seed)
    ba_csr = CSRGraph.from_graph(ba)
    ba_landmarks = select_landmarks(ba, num_landmarks)
    ba_checked = kernel_agreement(
        ba, ba_csr, frozenset(ba_landmarks), agree_pairs, seed
    )
    table.add_note(
        f"agreement: python == CSR on {checked} randomized grid pairs and"
        f" {ba_checked} on a {n}-vertex BA graph (m=4)"
        " (bounded/unbounded, with/without landmark exclusion)"
    )
    roots = sweep_agreement(graph, csr, index.landmarks, SWEEP_CHECK_ROOTS, seed)
    ba_roots = sweep_agreement(ba, ba_csr, ba_landmarks, SWEEP_CHECK_ROOTS, seed)
    table.add_note(
        f"agreement: one landmark sweep == per-root python BFS on {roots}"
        f" grid roots and {ba_roots} BA roots"
    )
    if check_only:
        return table

    def add_row(kernel: str, python_times, csr_times):
        p50_py = statistics.median(python_times)
        p50_csr = statistics.median(csr_times)
        table.add_row(
            kernel=kernel,
            items=len(python_times),
            python_p50_ms=p50_py * 1e3,
            csr_p50_ms=p50_csr * 1e3,
            p50_speedup=p50_py / p50_csr,
            python_total_s=sum(python_times),
            csr_total_s=sum(csr_times),
            total_speedup=sum(python_times) / sum(csr_times),
        )
        _log.info(
            "kernel timed",
            extra={
                "kernel": kernel,
                "p50_speedup": round(p50_py / p50_csr, 2),
            },
        )

    # -- single-pair queries through the full query algorithm ----------
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(num_pairs)]
    py_times, py_values = _timed(
        lambda p: query_distance(
            graph, labelling, p[0], p[1], landmark_set, csr=None
        ),
        pairs,
    )
    csr_times, csr_values = _timed(
        lambda p: query_distance(
            graph, labelling, p[0], p[1], landmark_set, csr=csr
        ),
        pairs,
    )
    assert py_values == csr_values, "single-pair query values diverged"
    add_row("single-pair query", py_times, csr_times)

    # -- batched distances(): shared-source groups ---------------------
    sources = [rng.randrange(n) for _ in range(batch_sources)]
    batch = [
        (s, rng.randrange(n)) for s in sources for _ in range(batch_targets)
    ]
    started = time.perf_counter()
    py_batch = [
        float(v) if (v := query_distance(
            graph, labelling, s, t, landmark_set, csr=None
        )) < INF else float("inf")
        for s, t in batch
    ]
    python_batch_s = time.perf_counter() - started
    started = time.perf_counter()
    csr_batch = index.distances(batch)
    csr_batch_s = time.perf_counter() - started
    assert py_batch == csr_batch, "batched distances() values diverged"
    table.add_row(
        kernel="batched distances()",
        items=len(batch),
        python_p50_ms=python_batch_s / len(batch) * 1e3,
        csr_p50_ms=csr_batch_s / len(batch) * 1e3,
        p50_speedup=python_batch_s / csr_batch_s,
        python_total_s=python_batch_s,
        csr_total_s=csr_batch_s,
        total_speedup=python_batch_s / csr_batch_s,
    )

    # -- full single-source sweeps (the amortised unit) ----------------
    sweep_sources = [rng.randrange(n) for _ in range(5)]
    py_times, py_sweeps = _timed(lambda s: bfs_distances(graph, s), sweep_sources)
    csr_times, csr_sweeps = _timed(
        lambda s: csr_bfs_distances(csr, s), sweep_sources
    )
    for a, b in zip(py_sweeps, csr_sweeps):
        assert (a == b).all(), "sssp sweeps diverged"
    add_row("sssp sweep", py_times, csr_times)

    # -- landmark-flagged construction: per-root BFS vs one sweep ------
    is_landmark = labelling.is_landmark
    roots = list(index.landmarks)
    py_times, py_cols = _timed(
        lambda r: bfs_landmark_lengths(graph, r, is_landmark), roots
    )
    started = time.perf_counter()
    sweep = landmark_sweep(csr, roots, is_landmark)
    sweep_s = time.perf_counter() - started
    for i, (dist, flag) in enumerate(py_cols):
        assert (sweep.dist[:, i] == dist).all() and (
            sweep.flag[:, i] == flag
        ).all(), "landmark sweep diverged"
    table.add_row(
        kernel="landmark bfs",
        items=len(roots),
        python_p50_ms=statistics.median(py_times) * 1e3,
        csr_p50_ms=sweep_s / len(roots) * 1e3,
        p50_speedup=statistics.median(py_times) * len(roots) / sweep_s,
        python_total_s=sum(py_times),
        csr_total_s=sweep_s,
        total_speedup=sum(py_times) / sweep_s,
    )
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance for CI: a 40x40 grid and fewer pairs",
    )
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="run only the randomized kernel and sweep agreement checks"
        " (no timings)",
    )
    parser.add_argument("--side", type=int, default=None, help="grid side")
    parser.add_argument("--pairs", type=int, default=None, help="single pairs")
    parser.add_argument(
        "--agree", type=int, default=200, help="agreement-sweep pair count"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--csv", default="query_kernels.csv", help="CSV name under results/"
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

    side = args.side or (40 if args.smoke else 330)
    num_pairs = args.pairs or (20 if args.smoke else 60)
    table = experiment_query_kernels(
        side=side,
        num_landmarks=8 if args.smoke else 16,
        num_pairs=num_pairs,
        batch_sources=4 if args.smoke else 6,
        # Keep smoke groups above OracleBase._sweep_threshold (32) so the
        # source-grouped sweep path is the one CI actually measures.
        batch_targets=40 if args.smoke else 48,
        agree_pairs=args.agree,
        seed=args.seed,
        check_only=args.check_only,
    )
    print(table.to_text())
    if not args.check_only:
        _log.info("csv saved", extra={"path": table.save_csv(args.csv)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
