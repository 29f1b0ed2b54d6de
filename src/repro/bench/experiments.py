"""Experiment drivers — one per table/figure of the paper.

Every driver returns a :class:`~repro.bench.reporting.ResultTable` whose
rows mirror what the paper reports (same series, same sweeps), computed on
the scaled dataset replicas.  The benchmark modules under ``benchmarks/``
call these drivers, print the tables and persist CSVs; ``repro-bench`` (the
CLI) exposes the same drivers interactively.

Replica-scale conventions (see DESIGN.md §2):

* batch sizes are the paper's divided by 10 (the replicas are ~1000x
  smaller than the originals, so a 100-edge batch stresses the same
  affected-region dynamics the paper's 1000-edge batches do);
* FulPLL runs only on the four smallest datasets and PSL skips the largest
  ones, mirroring the "-" entries of Tables 3 and 4;
* BHLp times are the BHL+ run's makespans (max per-landmark wall time),
  the quantity the paper's 20-thread runs measure.
"""

from __future__ import annotations

from typing import Any


from repro.api import open_oracle
from repro.bench.harness import (
    average_query_time,
    bench_scale,
    fulpll_allowed,
    psl_allowed,
    time_call,
)
from repro.bench.reporting import ResultTable
from repro.constants import INF
from repro.core.batchhl import Variant, run_batch_update
from repro.core.construction import build_labelling
from repro.core.landmarks import select_landmarks
from repro.graph.generators import barabasi_albert, to_directed
from repro.graph.traversal import bfs_distance_pair
from repro.workloads.datasets import DATASET_NAMES, PAPER_DATASETS, load_dataset
from repro.workloads.queries import sample_query_pairs
from repro.workloads.temporal import stream_batches, temporal_stream
from repro.workloads.updates import fully_dynamic_workload, make_workload

#: Non-temporal datasets in paper order (the first twelve of Table 2).
STATIC_DATASETS: tuple[str, ...] = tuple(
    name for name in DATASET_NAMES if not PAPER_DATASETS[name].temporal
)
TEMPORAL_DATASETS: tuple[str, ...] = tuple(
    name for name in DATASET_NAMES if PAPER_DATASETS[name].temporal
)

#: FulPLL processes updates one at a time; Table 3 measures this many
#: updates per batch and scales (DecPLL costs ~0.5 s/update even on the
#: smallest replicas — faithfully slow, see the paper's Table 3).
FULPLL_UPDATE_CAP = 8

#: PSL construction is the costliest build; skip replicas above this size
#: (the paper's PSL* similarly fails on its largest datasets).
PSL_VERTEX_CAP = 4400


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def _build_hcl(graph: Any, num_landmarks: int) -> Any:
    landmarks = select_landmarks(graph, min(num_landmarks, graph.num_vertices))
    return build_labelling(graph, landmarks)


def _apply_batches(
    graph: Any,
    labelling: Any,
    batches: Any,
    variant: Any,
) -> tuple[Any, list[Any]]:
    """Apply batches sequentially; returns (labelling, per-batch stats)."""
    all_stats = []
    for batch in batches:
        (labelling,), stats = run_batch_update(
            graph, (labelling,), batch, variant=variant
        )
        all_stats.append(stats)
    return labelling, all_stats


def _dataset_batches(
    name: str,
    num_batches: int,
    batch_size: int,
    seed: int,
    setting: str = "fully-dynamic",
) -> Any:
    """Prepared (graph, batches) for a dataset under an update setting.

    Temporal datasets replay their timestamped stream (the paper's protocol
    for Italianwiki/Frenchwiki); the others use the sampled workloads.
    """
    graph = load_dataset(name, scale=bench_scale())
    if PAPER_DATASETS[name].temporal:
        events = temporal_stream(
            graph, num_events=num_batches * batch_size, churn=0.4, seed=seed
        )
        return graph, stream_batches(events, batch_size)
    workload = make_workload(setting, graph, num_batches, batch_size, seed)
    return workload.graph, workload.batches


# ----------------------------------------------------------------------
# Figure 2 — affected vertices vs batch size
# ----------------------------------------------------------------------


def experiment_fig2(
    datasets: tuple[str, ...] = ("indochina", "twitter"),
    batch_sizes: tuple[int, ...] = (50, 100, 250, 500, 1000),
    num_landmarks: int = 20,
    seed: int = 0,
) -> ResultTable:
    """Affected vertices (% of |V| x |R|) for BHL+/BHL/BHLs/UHL."""
    variants = [
        ("BHL+", Variant.BHL_PLUS),
        ("BHL", Variant.BHL),
        ("BHLs", Variant.BHL_SPLIT),
        ("UHL", Variant.UHL),
    ]
    table = ResultTable(
        "Figure 2: affected vertices by batch size",
        ["dataset", "batch_size"]
        + [name for name, _ in variants]
        + [f"{name}_pct" for name, _ in variants],
    )
    for name in datasets:
        for batch_size in batch_sizes:
            workload = fully_dynamic_workload(
                load_dataset(name, scale=bench_scale()), 1, batch_size, seed
            )
            base_labelling = _build_hcl(workload.graph, num_landmarks)
            row: dict = {"dataset": name, "batch_size": batch_size}
            denom = workload.graph.num_vertices * base_labelling.num_landmarks
            for variant_name, variant in variants:
                graph_copy = workload.graph.copy()
                _, stats = run_batch_update(
                    graph_copy, (base_labelling,), workload.batches[0], variant
                )
                row[variant_name] = stats.total_affected
                row[f"{variant_name}_pct"] = 100.0 * stats.total_affected / denom
            table.add_row(**row)
    table.add_note(
        "UHL processes each update separately, so one vertex is counted once"
        " per update that affects it (the paper's repeated-work effect)."
    )
    return table


# ----------------------------------------------------------------------
# Table 3 — update times across the three settings
# ----------------------------------------------------------------------


def experiment_table3(
    datasets: tuple[str, ...] = DATASET_NAMES,
    settings: tuple[str, ...] = ("fully-dynamic", "incremental", "decremental"),
    num_batches: int = 2,
    batch_size: int = 100,
    num_landmarks: int = 20,
    seed: int = 0,
) -> ResultTable:
    """Average per-batch update time for every method and setting."""
    table = ResultTable(
        "Table 3: batch update time (seconds per batch)",
        ["dataset", "setting", "BHLp", "BHL+", "BHL", "UHL+", "FulFD", "FulPLL"],
    )
    for name in datasets:
        temporal = PAPER_DATASETS[name].temporal
        for setting in settings:
            if temporal and setting != "fully-dynamic":
                continue  # the paper only streams the temporal datasets
            graph, batches = _dataset_batches(
                name, num_batches, batch_size, seed, setting
            )
            row: dict = {"dataset": name, "setting": setting}

            base_labelling = _build_hcl(graph, num_landmarks)
            for column, variant in (
                ("BHL+", Variant.BHL_PLUS),
                ("BHL", Variant.BHL),
                ("UHL+", Variant.UHL_PLUS),
            ):
                g = graph.copy()
                _, stats = _apply_batches(g, base_labelling, batches, variant)
                row[column] = sum(s.total_seconds for s in stats) / len(stats)
                if variant is Variant.BHL_PLUS:
                    # BHLp: the same run's landmark-parallel makespan.
                    row["BHLp"] = sum(
                        s.makespan_seconds or 0.0 for s in stats
                    ) / len(stats)

            fulfd = open_oracle(
                "fulfd", graph.copy(), num_roots=num_landmarks, bp_mode="off"
            )
            times = []
            for batch in batches:
                _, elapsed = time_call(fulfd.batch_update, batch)
                times.append(elapsed)
            row["FulFD"] = sum(times) / len(times)

            if fulpll_allowed(name):
                fulpll = open_oracle("fulpll", graph.copy())
                times = []
                for batch in batches:
                    prefix = list(batch)[:FULPLL_UPDATE_CAP]
                    _, elapsed = time_call(fulpll.batch_update, prefix)
                    # FulPLL is strictly unit-update, so per-update cost is
                    # constant within a batch: scale the measured prefix to
                    # the full batch size (keeps the suite's runtime sane
                    # while preserving the per-batch comparison).
                    times.append(elapsed * len(batch) / max(len(prefix), 1))
                row["FulPLL"] = sum(times) / len(times)
            else:
                row["FulPLL"] = None
            table.add_row(**row)
    table.add_note(
        "FulPLL runs only on the four smallest datasets (as in the paper);"
        f" its time is measured on a {FULPLL_UPDATE_CAP}-update prefix and"
        " scaled to the batch (unit-update cost is per-update constant)."
    )
    table.add_note("BHLp is the BHL+ run's 20-way landmark-parallel makespan.")
    return table


# ----------------------------------------------------------------------
# Table 4 — construction time, query time, labelling size
# ----------------------------------------------------------------------


def experiment_table4(
    datasets: tuple[str, ...] = DATASET_NAMES,
    num_landmarks: int = 20,
    num_queries: int = 300,
    batch_size: int = 100,
    seed: int = 0,
) -> ResultTable:
    """CT / QT / labelling size for BHL+, FulFD, FulPLL and PSL*."""
    table = ResultTable(
        "Table 4: construction time [s], query time [ms], labelling size [entries]",
        [
            "dataset",
            "CT_BHL+", "CT_FulFD", "CT_FulPLL", "CT_PSL",
            "QT_BHL+", "QT_FulFD", "QT_FulPLL", "QT_PSL",
            "LS_BHL+", "LS_FulFD", "LS_FulPLL", "LS_PSL",
        ],
    )
    for name in datasets:
        graph, batches = _dataset_batches(name, 1, batch_size, seed)
        pairs = sample_query_pairs(graph, num_queries, seed=seed + 1)
        row: dict = {"dataset": name}

        labelling, ct = time_call(_build_hcl, graph, num_landmarks)
        hcl_graph = graph.copy()
        labelling, _ = _apply_batches(hcl_graph, labelling, batches, Variant.BHL_PLUS)
        index = open_oracle("hcl", hcl_graph, labelling=labelling)
        row["CT_BHL+"] = ct
        row["QT_BHL+"] = 1000.0 * average_query_time(index, pairs)
        row["LS_BHL+"] = labelling.size()

        fulfd, ct = time_call(
            open_oracle, "fulfd", graph.copy(), num_roots=num_landmarks
        )
        for batch in batches:
            fulfd.batch_update(batch)
        row["CT_FulFD"] = ct
        row["QT_FulFD"] = 1000.0 * average_query_time(fulfd, pairs)
        row["LS_FulFD"] = fulfd.label_size()

        if fulpll_allowed(name):
            fulpll, ct = time_call(open_oracle, "fulpll", graph.copy())
            for batch in batches:
                fulpll.batch_update(batch)
            row["CT_FulPLL"] = ct
            row["QT_FulPLL"] = 1000.0 * average_query_time(fulpll, pairs)
            row["LS_FulPLL"] = fulpll.label_size()

        if psl_allowed(name) and graph.num_vertices <= PSL_VERTEX_CAP:
            psl, ct = time_call(open_oracle, "psl", graph.copy())
            row["CT_PSL"] = ct
            row["QT_PSL"] = 1000.0 * average_query_time(psl, pairs)
            row["LS_PSL"] = psl.label_size()
        table.add_row(**row)
    table.add_note(
        "QT measured after one fully-dynamic batch for the dynamic methods;"
        " PSL is static (queries on the pre-update graph, as in the paper)."
    )
    table.add_note(
        "PSL construction is single-threaded here; the paper's PSL* uses 20"
        " threads, which divides CT by <= 20 without changing the ordering."
    )
    return table


# ----------------------------------------------------------------------
# Table 5 — average affected vertices per batch
# ----------------------------------------------------------------------


def experiment_table5(
    datasets: tuple[str, ...] = DATASET_NAMES,
    num_batches: int = 2,
    batch_size: int = 100,
    num_landmarks: int = 20,
    seed: int = 0,
) -> ResultTable:
    """Average affected vertices: BHL+ (del/add/mix) and BHL (mix)."""
    table = ResultTable(
        "Table 5: average affected vertices per batch",
        ["dataset", "BHL+_delete", "BHL+_add", "BHL+_mix", "BHL_mix"],
    )
    for name in datasets:
        temporal = PAPER_DATASETS[name].temporal
        row: dict = {"dataset": name}
        settings = (
            [("BHL+_mix", "fully-dynamic", Variant.BHL_PLUS),
             ("BHL_mix", "fully-dynamic", Variant.BHL)]
            if temporal
            else [
                ("BHL+_delete", "decremental", Variant.BHL_PLUS),
                ("BHL+_add", "incremental", Variant.BHL_PLUS),
                ("BHL+_mix", "fully-dynamic", Variant.BHL_PLUS),
                ("BHL_mix", "fully-dynamic", Variant.BHL),
            ]
        )
        for column, setting, variant in settings:
            graph, batches = _dataset_batches(
                name, num_batches, batch_size, seed, setting
            )
            labelling = _build_hcl(graph, num_landmarks)
            _, stats = _apply_batches(graph, labelling, batches, variant)
            row[column] = sum(s.total_affected for s in stats) / len(stats)
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Figure 5 — distance distribution of batch updates
# ----------------------------------------------------------------------


def experiment_fig5(
    datasets: tuple[str, ...] = STATIC_DATASETS,
    sample_size: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Distribution of endpoint distances after deleting the batch edges."""
    table = ResultTable(
        "Figure 5: distance distribution of batch updates (after deletion)",
        ["dataset", "d1", "d2", "d3", "d4", "d5", "d6+", "disconnected"],
    )
    for name in datasets:
        graph = load_dataset(name, scale=bench_scale())
        workload = make_workload("decremental", graph, 1, sample_size, seed)
        g = workload.graph
        for update in workload.batches[0]:
            g.remove_edge(update.u, update.v)
        counts = {key: 0 for key in table.columns[1:]}
        for update in workload.batches[0]:
            d = bfs_distance_pair(g, update.u, update.v)
            if d >= INF:
                counts["disconnected"] += 1
            elif d >= 6:
                counts["d6+"] += 1
            else:
                counts[f"d{d}"] += 1
        table.add_row(
            dataset=name,
            **{k: 100.0 * v / sample_size for k, v in counts.items()},
        )
    table.add_note("values are percentages of the sampled deleted edges")
    return table


# ----------------------------------------------------------------------
# Figure 6 — total (update + query) time vs batch size
# ----------------------------------------------------------------------


def experiment_fig6(
    datasets: tuple[str, ...] = STATIC_DATASETS,
    batch_sizes: tuple[int, ...] = (50, 100, 250, 500, 1000),
    num_queries: int = 200,
    num_landmarks: int = 20,
    seed: int = 0,
) -> ResultTable:
    """Per-query amortised cost of (one batch update + query load)."""
    table = ResultTable(
        "Figure 6: total time per query (seconds), update amortised",
        ["dataset", "batch_size", "BiBFS", "BHL+_QT", "BHLp_QT", "FulFD_QT"],
    )
    for name in datasets:
        base = load_dataset(name, scale=bench_scale())
        for batch_size in batch_sizes:
            workload = fully_dynamic_workload(base, 1, batch_size, seed)
            batch = workload.batches[0]
            pairs = sample_query_pairs(workload.graph, num_queries, seed=seed + 2)
            row: dict = {"dataset": name, "batch_size": batch_size}

            labelling = _build_hcl(workload.graph, num_landmarks)
            g = workload.graph.copy()
            (new_lab,), stats = run_batch_update(
                g, (labelling,), batch, Variant.BHL_PLUS
            )
            index = open_oracle("hcl", g, labelling=new_lab)
            query_time = average_query_time(index, pairs) * len(pairs)
            # BHLp: the same BHL+ run, charged its landmark-parallel
            # makespan instead of its sequential update time.
            for column, update_time in (
                ("BHL+_QT", stats.total_seconds),
                ("BHLp_QT", stats.makespan_seconds or 0.0),
            ):
                row[column] = (update_time + query_time) / len(pairs)

            fulfd = open_oracle(
                "fulfd", workload.graph.copy(),
                num_roots=num_landmarks, bp_mode="off",
            )
            _, update_time = time_call(fulfd.batch_update, batch)
            query_time = average_query_time(fulfd, pairs) * len(pairs)
            row["FulFD_QT"] = (update_time + query_time) / len(pairs)

            bibfs = open_oracle("bibfs", workload.graph.copy())
            bibfs.batch_update(batch)
            row["BiBFS"] = average_query_time(bibfs, pairs)
            table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Figures 7 and 8 — landmark sweeps
# ----------------------------------------------------------------------


def experiment_fig7(
    datasets: tuple[str, ...] = STATIC_DATASETS,
    landmark_counts: tuple[int, ...] = (10, 20, 30, 40, 50),
    num_batches: int = 1,
    batch_size: int = 100,
    seed: int = 0,
) -> ResultTable:
    """Fully-dynamic update time of BHL+ under 10..50 landmarks."""
    table = ResultTable(
        "Figure 7: update time vs number of landmarks (seconds per batch)",
        ["dataset"] + [f"R={k}" for k in landmark_counts],
    )
    for name in datasets:
        workload = fully_dynamic_workload(
            load_dataset(name, scale=bench_scale()), num_batches, batch_size, seed
        )
        row: dict = {"dataset": name}
        for k in landmark_counts:
            labelling = _build_hcl(workload.graph, k)
            g = workload.graph.copy()
            _, stats = _apply_batches(
                g, labelling, workload.batches, Variant.BHL_PLUS
            )
            row[f"R={k}"] = sum(s.total_seconds for s in stats) / len(stats)
        table.add_row(**row)
    return table


def experiment_fig8(
    datasets: tuple[str, ...] = STATIC_DATASETS,
    landmark_counts: tuple[int, ...] = (10, 20, 30, 40, 50),
    num_queries: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Query time (ms) of BHL+ under 10..50 landmarks."""
    table = ResultTable(
        "Figure 8: query time vs number of landmarks (milliseconds)",
        ["dataset"] + [f"R={k}" for k in landmark_counts],
    )
    for name in datasets:
        graph = load_dataset(name, scale=bench_scale())
        pairs = sample_query_pairs(graph, num_queries, seed=seed + 3)
        row: dict = {"dataset": name}
        for k in landmark_counts:
            index = open_oracle("hcl", graph.copy(), num_landmarks=k)
            row[f"R={k}"] = 1000.0 * average_query_time(index, pairs)
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Table 6 — directed graphs
# ----------------------------------------------------------------------


def experiment_table6(
    datasets: tuple[str, ...] = ("wikitalk", "enwiki", "livejournal", "twitter"),
    num_batches: int = 2,
    batch_size: int = 100,
    num_landmarks: int = 20,
    num_queries: int = 200,
    seed: int = 0,
) -> ResultTable:
    """Directed replicas: update time (BHLp/BHL+/BHL), CT, QT, LS."""
    table = ResultTable(
        "Table 6: directed graphs",
        ["dataset", "BHLp", "BHL+", "BHL", "CT", "QT_ms", "LS_entries"],
    )
    for name in datasets:
        base = load_dataset(name, scale=bench_scale())
        digraph = to_directed(base, reciprocal_p=0.4, seed=seed)
        workload = fully_dynamic_workload(base, num_batches, batch_size, seed)
        # Reuse the undirected workload's edges but orient them as stored.
        directed_batches = []
        for batch in workload.batches:
            directed_batches.append(
                [u for u in batch if _directed_update_valid(digraph, u)]
            )

        index, ct = time_call(
            open_oracle, "hcl-directed", digraph.copy(),
            num_landmarks=num_landmarks,
        )
        row: dict = {"dataset": name, "CT": ct}
        pairs = sample_query_pairs(digraph, num_queries, seed=seed + 4)
        row["QT_ms"] = 1000.0 * average_query_time(index, pairs)
        row["LS_entries"] = index.label_size()
        for column, variant in (
            ("BHL+", Variant.BHL_PLUS),
            ("BHL", Variant.BHL),
        ):
            idx = open_oracle(
                "hcl-directed", digraph.copy(), num_landmarks=num_landmarks
            )
            times, makespans = [], []
            for batch in directed_batches:
                stats = idx.batch_update(batch, variant=variant)
                times.append(stats.total_seconds)
                makespans.append(stats.makespan_seconds or 0.0)
            row[column] = sum(times) / max(len(times), 1)
            if variant is Variant.BHL_PLUS:
                # BHLp: the same run's makespan, summed over both passes.
                row["BHLp"] = sum(makespans) / max(len(makespans), 1)
        table.add_row(**row)
    return table


def _directed_update_valid(digraph: Any, update: Any) -> bool:
    """Orientation filter: deletions need the arc present, insertions absent."""
    present = digraph.has_edge(update.u, update.v)
    return present if update.is_delete else not present


# ----------------------------------------------------------------------
# Table 1 — empirical complexity check
# ----------------------------------------------------------------------


def experiment_table1_scaling(
    sizes: tuple[int, ...] = (1000, 2000, 4000, 8000),
    attach: int = 5,
    num_landmarks: int = 20,
    batch_size: int = 100,
    seed: int = 0,
) -> ResultTable:
    """Construction ~ O(R(V+E)) and update ~ O(a d l): ratios stay flat."""
    table = ResultTable(
        "Table 1 (empirical): scaling of construction and update",
        [
            "V", "E", "CT_s", "CT_per_RVE_ns",
            "affected", "update_s", "update_per_affected_us",
        ],
    )
    for n in sizes:
        graph = barabasi_albert(n, attach, seed=seed)
        labelling, ct = time_call(_build_hcl, graph, num_landmarks)
        workload = fully_dynamic_workload(graph, 1, batch_size, seed)
        labelling2 = _build_hcl(workload.graph, num_landmarks)
        g = workload.graph.copy()
        _, stats = run_batch_update(
            g, (labelling2,), workload.batches[0], Variant.BHL_PLUS
        )
        denom = num_landmarks * (graph.num_vertices + graph.num_edges)
        table.add_row(
            V=graph.num_vertices,
            E=graph.num_edges,
            CT_s=ct,
            CT_per_RVE_ns=1e9 * ct / denom,
            affected=stats.total_affected,
            update_s=stats.total_seconds,
            update_per_affected_us=1e6
            * stats.total_seconds
            / max(stats.total_affected, 1),
        )
    table.add_note(
        "flat per-unit columns confirm the Table 1 asymptotics at replica scale"
    )
    return table


# ----------------------------------------------------------------------
# Ablation — landmark selection policy
# ----------------------------------------------------------------------


def experiment_ablation_landmarks(
    datasets: tuple[str, ...] = ("youtube", "flickr", "indochina"),
    strategies: tuple[str, ...] = ("degree", "random"),
    num_landmarks: int = 20,
    num_queries: int = 200,
    batch_size: int = 100,
    seed: int = 0,
) -> ResultTable:
    """Degree vs random landmark selection: size, query and update cost."""
    table = ResultTable(
        "Ablation: landmark selection policy",
        ["dataset", "strategy", "LS_entries", "QT_ms", "update_s", "affected"],
    )
    for name in datasets:
        base = load_dataset(name, scale=bench_scale())
        for strategy in strategies:
            workload = fully_dynamic_workload(base, 1, batch_size, seed)
            index = open_oracle(
                "hcl",
                workload.graph.copy(),
                num_landmarks=num_landmarks,
                selection=strategy,
                seed=seed,
            )
            pairs = sample_query_pairs(index.graph, num_queries, seed=seed + 5)
            stats = index.batch_update(workload.batches[0])
            table.add_row(
                dataset=name,
                strategy=strategy,
                LS_entries=index.label_size(),
                QT_ms=1000.0 * average_query_time(index, pairs),
                update_s=stats.total_seconds,
                affected=stats.total_affected,
            )
    return table
