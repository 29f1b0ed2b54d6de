"""Per-layer metrics of a traced run.

Span times are *self* times (a span's duration minus its children's),
except ``service.engine.flush_s``, which is the whole flush.  Write-path
times are summed over spans inside ``DistanceService.flush`` and divided
by the number of flushes (unit ``s/flush``); read-path times are summed
over spans outside flushes and divided by the number of queries (unit
``s/query``).  Counts are totals over the measured window.
"""

from __future__ import annotations

import statistics
from typing import Any

import numpy as np

from perfbench.loop import Window
from perfbench.shims import PHASES, Recorder, self_times

#: (name, unit) of every per-layer metric, grouped by layer.
PER_LAYER = (
    ("graph.csr.freeze_s", "s/flush"),
    ("graph.csr.freeze_calls", "count"),
    ("graph.csr.adjacency_lists_s", "s/flush"),
    ("graph.dynamic_graph.copy_s", "s/flush"),
    ("graph.batch.apply_s", "s/flush"),
    ("graph.csr.bidirectional_s", "s/query"),
    ("graph.csr.bidirectional_calls", "count"),
    ("core.labelling.decode_s", "s/flush"),
    ("core.labelling.decoded_rows", "count"),
    ("core.labelling.copy_s", "s/flush"),
    ("core.labelling.copy_bytes", "bytes"),
    ("core.labelling.upper_bound_s", "s/query"),
    ("core.queries.query_s", "s/query"),
    ("core.queries.search_ratio", "ratio"),
    ("core.batch_kernels.search_s", "s/flush"),
    ("core.batch_kernels.repair_s", "s/flush"),
    ("core.batch_search.search_s", "s/flush"),
    ("core.batch_repair.repair_s", "s/flush"),
    ("core.batchhl.affected", "count"),
    ("core.batchhl.labels_changed", "count"),
    ("core.batchhl.useful_decode_ratio", "ratio"),
    ("core.index.snapshot_s", "s/flush"),
    ("core.construction.build_s", "s"),
    ("service.engine.flush_s", "s/flush"),
    ("service.engine.flush_calls", "count"),
    ("service.engine.unattributed_ratio", "ratio"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.invalidated", "count"),
    ("service.cache.get_s", "s/query"),
    ("service.scheduler.drained", "count"),
    ("obs.trace.search_s", "s/flush"),
)

_MEASURE = PHASES.index("measure")
_SETUP = PHASES.index("setup")


def _registry_delta(window: Window, family: str) -> float:
    """Sum of a registry counter family's samples over the window."""

    def total(snapshot: dict[str, float]) -> float:
        return sum(
            value for key, value in snapshot.items()
            if key == family or key.startswith(family + "{")
        )

    return total(window.after["registry"]) - total(window.before["registry"])


class SpanTable:
    """Column view of a recorder's spans with self times."""

    def __init__(self, recorder: Recorder) -> None:
        self.names = recorder.names
        cols = recorder.columns()
        self.cols = cols
        self.self_ns = self_times(cols)
        self.duration_ns = cols["end"] - cols["start"]
        measure = cols["phase"] == _MEASURE
        self.write = measure & (cols["flush"] > 0)
        self.read = measure & (cols["flush"] == 0)
        self.setup = cols["phase"] == _SETUP

    def named(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.cols["name"], ids)

    def self_s(self, mask: np.ndarray) -> float:
        return float(self.self_ns[mask].sum()) / 1e9


def per_layer(
    recorder: Recorder, window: Window, obs_search_s: float
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced window."""
    spans = SpanTable(recorder)
    cols = spans.cols
    # A flush span opens its subtree, so it is not itself "inside" one.
    flushes = (cols["phase"] == _MEASURE) & spans.named("service.engine.flush")
    n_flush = int(flushes.sum())
    n_query = len(window.query_s)

    def per_flush(*names: str) -> float:
        if not n_flush:
            return 0.0
        return spans.self_s(spans.write & spans.named(*names)) / n_flush

    def per_query(*names: str) -> float:
        if not n_query:
            return 0.0
        return spans.self_s(spans.read & spans.named(*names)) / n_query

    def count(mask: np.ndarray) -> int:
        return int(mask.sum())

    queries = spans.read & spans.named("core.queries.query")
    searches = spans.read & spans.named("graph.csr.bidirectional")
    searched = np.isin(
        np.flatnonzero(queries) + 1, cols["parent"][searches]
    )
    decodes = spans.write & spans.named("core.labelling.decode")
    copies = spans.write & spans.named("core.labelling.copy")
    flush_ns = float(spans.duration_ns[flushes].sum())
    builds = spans.setup & spans.named("core.construction.build")
    build_s = [
        float(spans.self_ns[builds & (cols["setup_of"] == i)].sum()) / 1e9
        for i in sorted(set(cols["setup_of"][builds].tolist()))
    ]
    affected = _registry_delta(window, "repro_batch_affected_total")
    decoded_rows = int(cols["amount"][decodes].sum())
    cache = {
        key: window.after["cache"][key] - window.before["cache"][key]
        for key in window.after["cache"]
    }
    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "graph.csr.freeze_s": per_flush("graph.csr.freeze"),
        "graph.csr.freeze_calls": count(
            spans.write & spans.named("graph.csr.freeze")
        ),
        "graph.csr.adjacency_lists_s": per_flush("graph.csr.adjacency_lists"),
        "graph.dynamic_graph.copy_s": per_flush("graph.dynamic_graph.copy"),
        "graph.batch.apply_s": per_flush(
            "graph.batch.normalize", "graph.batch.apply"
        ),
        "graph.csr.bidirectional_s": per_query("graph.csr.bidirectional"),
        "graph.csr.bidirectional_calls": count(searches),
        "core.labelling.decode_s": per_flush("core.labelling.decode"),
        "core.labelling.decoded_rows": decoded_rows,
        "core.labelling.copy_s": per_flush("core.labelling.copy"),
        "core.labelling.copy_bytes": int(cols["amount"][copies].sum()),
        "core.labelling.upper_bound_s": per_query("core.labelling.upper_bound"),
        "core.queries.query_s": per_query("core.queries.query"),
        "core.queries.search_ratio": (
            float(searched.mean()) if searched.size else 0.0
        ),
        "core.batch_kernels.search_s": per_flush("core.batch_kernels.search"),
        "core.batch_kernels.repair_s": per_flush("core.batch_kernels.repair"),
        "core.batch_search.search_s": per_flush("core.batch_search.search"),
        "core.batch_repair.repair_s": per_flush("core.batch_repair.repair"),
        "core.batchhl.affected": affected,
        "core.batchhl.labels_changed": _registry_delta(
            window, "repro_batch_labels_changed_total"
        ),
        "core.batchhl.useful_decode_ratio": (
            affected / decoded_rows if decoded_rows else 0.0
        ),
        "core.index.snapshot_s": per_flush("core.index.snapshot"),
        "core.construction.build_s": (
            statistics.median(build_s) if build_s else 0.0
        ),
        "service.engine.flush_s": (
            flush_ns / 1e9 / n_flush if n_flush else 0.0
        ),
        "service.engine.flush_calls": n_flush,
        "service.engine.unattributed_ratio": (
            float(spans.self_ns[flushes].sum()) / flush_ns if flush_ns else 0.0
        ),
        "service.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.cache.invalidated": cache["invalidated"],
        "service.cache.get_s": per_query("service.cache.get"),
        "service.scheduler.drained": (
            window.after["scheduler"]["drained"]
            - window.before["scheduler"]["drained"]
        ),
        "obs.trace.search_s": obs_search_s / n_flush if n_flush else 0.0,
    }
    return metrics


def flush_breakdown(recorder: Recorder) -> list[tuple[str, float]]:
    """Where flush wall time went: self time per span name inside flushes.

    Returns ``(name, share of flush wall time)`` sorted by share, with the
    flush's own self time listed as ``unattributed``.
    """
    spans = SpanTable(recorder)
    flushes = (spans.cols["phase"] == _MEASURE) & spans.named(
        "service.engine.flush"
    )
    total = float(spans.duration_ns[flushes].sum())
    if not total:
        return []
    shares: dict[str, float] = {
        "unattributed": float(spans.self_ns[flushes].sum()) / total
    }
    inside = spans.write
    for index in np.unique(spans.cols["name"][inside]).tolist():
        mask = inside & (spans.cols["name"] == index)
        shares[spans.names[index]] = float(spans.self_ns[mask].sum()) / total
    return sorted(shares.items(), key=lambda item: -item[1])


def obs_search_seconds(events: list[dict[str, Any]]) -> float:
    """Total of the program tracer's ``search`` spans, in seconds."""
    return sum(
        event["dur"] for event in events if event.get("name") == "search"
    ) / 1e6
