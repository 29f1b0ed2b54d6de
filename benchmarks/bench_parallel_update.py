"""Parallel-backend benchmark: sequential vs processes.

The paper's Section 6 claim is that landmark-level parallelism divides
batch maintenance across cores.  This benchmark applies the *same*
fully-dynamic batch sequence to the same index under both execution
backends and reports per-batch wall time, the search/repair/merge split,
and the makespan the cost models predict:

* ``sequential`` — the single-core baseline; its makespan is the paper's
  idealised one-core-per-landmark model (the slowest landmark's wall);
* ``processes``  — landmark shards on the persistent worker-process pool
  of an index built on it (``HighwayCoverIndex(pool=...)``).

The default instance is a ≥50k-edge Barabási–Albert graph; the CSV lands
in ``results/parallel_update.csv`` (CI uploads it as an artifact).  Both
backends are additionally checked to produce bit-identical labellings
(labels, highway and the landmark-distance matrix D, through
``HighwayCoverLabelling.equals``).

Timing is *steady-state*: every mode applies ``warmup`` leading batches
untimed before the measured ones, so one-off costs — worker-process
spawn, the initial shared-memory publish and worker attach — are
excluded, matching the serving layer where one pool survives a stream of
flushes.  All modes run the identical batch sequence (warmup included),
so the bit-identical check still covers the whole workload.

Run standalone:  PYTHONPATH=src python benchmarks/bench_parallel_update.py
"""

from __future__ import annotations

import time

from repro.bench.reporting import ResultTable
from repro.core.index import HighwayCoverIndex
from repro.core.landmarks import select_landmarks
from repro.graph import generators
from repro.obs import configure_logging, get_logger
from repro.parallel import LandmarkShardPool, default_num_shards
from repro.workloads.updates import fully_dynamic_workload

_log = get_logger("repro.bench.parallel_update")

MODES = ("sequential", "processes")


def experiment_parallel_update(
    num_vertices: int = 10400,
    attach: int = 5,
    num_landmarks: int = 10,
    num_shards: int | None = None,
    num_batches: int = 3,
    batch_size: int = 200,
    seed: int = 0,
    warmup: int = 1,
) -> ResultTable:
    """One row per backend over an identical batch sequence.

    The defaults build a ~50k-edge graph (attach * (num_vertices - attach)
    edges); shrink ``num_vertices`` for a quick smoke run.  ``num_batches``
    counts *timed* batches; ``warmup`` extra leading batches are applied
    by every mode but excluded from the statistics.
    """
    graph = generators.barabasi_albert(num_vertices, attach, seed=seed)
    workload = fully_dynamic_workload(
        graph,
        num_batches=num_batches + warmup,
        batch_size=batch_size,
        seed=seed,
    )
    _log.info(
        "instance built",
        extra={
            "vertices": workload.graph.num_vertices,
            "edges": workload.graph.num_edges,
            "batches": num_batches,
            "batch_size": batch_size,
        },
    )
    landmarks = select_landmarks(workload.graph, num_landmarks, "degree", seed)

    table = ResultTable(
        f"Parallel backends: |V|={workload.graph.num_vertices},"
        f" |E|={workload.graph.num_edges}, |R|={num_landmarks},"
        f" {num_batches}x{batch_size} fully-dynamic batches",
        [
            "mode",
            "shards",
            "mean_batch_s",
            "search_s",
            "repair_s",
            "merge_s",
            "makespan_s",
            "speedup",
        ],
    )
    shards = num_shards or default_num_shards(num_landmarks)
    walls = {mode: [] for mode in MODES}
    makespans = {mode: [] for mode in MODES}
    phases = {mode: [0.0, 0.0, 0.0] for mode in MODES}  # search/repair/merge
    # Mode-major: each backend runs its whole batch stream contiguously,
    # the way the serving layer drives one backend over a stream of
    # flushes — worker processes stay scheduled and their caches stay
    # warm between batches.  (An interleaved batch-major design was
    # tried and rejected: it deschedules the pool workers between every
    # batch and measures cold-cache handoffs no real deployment pays.)
    with LandmarkShardPool(num_shards=shards) as pool:
        # Both indexes are built before any batch is timed; the
        # processes one builds on the pool, which then runs its batches.
        indexes = {
            mode: HighwayCoverIndex(
                workload.graph.copy(),
                landmarks=landmarks,
                pool=pool if mode == "processes" else None,
            )
            for mode in MODES
        }
        for mode in MODES:
            for position, batch in enumerate(workload.batches):
                started = time.perf_counter()
                stats = indexes[mode].batch_update(batch)
                if position < warmup:
                    continue
                walls[mode].append(time.perf_counter() - started)
                phases[mode][0] += stats.search_seconds
                phases[mode][1] += stats.repair_seconds
                phases[mode][2] += stats.merge_seconds
                if stats.makespan_seconds is not None:
                    makespans[mode].append(stats.makespan_seconds)
    sequential_mean = sum(walls["sequential"]) / len(walls["sequential"])
    final_labellings = {}
    for mode in MODES:
        mean_wall = sum(walls[mode]) / len(walls[mode])
        search, repair, merge = phases[mode]
        _log.info(
            "backend timed",
            extra={
                "mode": mode,
                "mean_batch_s": round(mean_wall, 6),
                "search_s": round(search, 6),
                "repair_s": round(repair, 6),
            },
        )
        table.add_row(
            mode=mode,
            shards=shards if mode == "processes" else "-",
            mean_batch_s=mean_wall,
            search_s=search,
            repair_s=repair,
            merge_s=merge,
            makespan_s=(
                sum(makespans[mode]) / len(makespans[mode])
                if makespans[mode]
                else None
            ),
            speedup=sequential_mean / mean_wall,
        )
        final_labellings[mode] = indexes[mode].labelling

    reference = final_labellings["sequential"]
    diverged = [
        mode
        for mode in MODES[1:]
        if not reference.equals(final_labellings[mode])
    ]
    if diverged:
        raise AssertionError(f"backends diverged from sequential: {diverged}")
    table.add_note(
        "both backends produced bit-identical labellings; speedup is"
        " sequential mean_batch_s / mode mean_batch_s"
    )
    table.add_note(
        f"steady-state timing: {warmup} warmup batch(es) applied untimed"
        " per mode (pool spawn + first shm publish/attach excluded)"
    )
    table.add_note(
        "sequential's makespan_s is the idealised one-core-per-landmark"
        " model; processes' is the max real shard wall (incl. attach and"
        " the shard's scratch copies of its label and D columns)"
    )
    return table


def test_parallel_update(run_table):
    run_table(experiment_parallel_update, "parallel_update.csv")


if __name__ == "__main__":  # pragma: no cover - CLI entry for CI artifacts
    import argparse
    import os
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=10400)
    parser.add_argument("--attach", type=int, default=5)
    parser.add_argument("--landmarks", type=int, default=10)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="landmark shards for the processes backend"
        " (default: one per core, capped by --landmarks)",
    )
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="untimed leading batches per mode (steady-state timing)",
    )
    parser.add_argument(
        "--min-processes-speedup",
        type=float,
        default=None,
        help="exit non-zero if the processes backend's speedup over"
        " sequential falls below this threshold (CI regression gate)",
    )
    parser.add_argument("--csv", default="parallel_update.csv")
    parser.add_argument(
        "--log-level", help="repro.* logger level (overrides REPRO_LOG)"
    )
    parser.add_argument("--log-format", choices=("human", "json"))
    args = parser.parse_args()
    # Drivers are interactive tools: progress at info by default, unless
    # REPRO_LOG or --log-level says otherwise.
    level = args.log_level or (
        None if os.environ.get("REPRO_LOG") else "info"
    )
    configure_logging(level=level, fmt=args.log_format)
    result = experiment_parallel_update(
        num_vertices=args.vertices,
        attach=args.attach,
        num_landmarks=args.landmarks,
        num_shards=args.shards,
        num_batches=args.batches,
        batch_size=args.batch_size,
        seed=args.seed,
        warmup=args.warmup,
    )
    print(result.to_text())
    _log.info("csv saved", extra={"path": result.save_csv(args.csv)})
    if args.min_processes_speedup is not None:
        by_mode = {row["mode"]: row for row in result.rows}
        speedup = by_mode["processes"]["speedup"]
        if speedup < args.min_processes_speedup:
            _log.error(
                "processes backend regressed",
                extra={
                    "speedup": round(speedup, 4),
                    "threshold": args.min_processes_speedup,
                },
            )
            sys.exit(1)
        _log.info(
            "processes speedup gate passed",
            extra={
                "speedup": round(speedup, 4),
                "threshold": args.min_processes_speedup,
            },
        )
