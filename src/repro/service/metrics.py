"""Serving-side instrumentation: throughput, latency percentiles, staleness.

The offline bench layer times whole experiments; the serving layer needs
per-operation observability instead.  :class:`ServiceMetrics` aggregates
the counters every component of :mod:`repro.service` emits:

* query/update throughput over the metrics window;
* query latency p50/p90/p99 (cache hits and misses both count — that is
  what a client observes);
* flush latency and batch-size distribution per trigger;
* **staleness** — the number of queries answered against epoch N while the
  writer was already building epoch N+1, i.e. answers that were exact for
  the previous published topology but not for the in-flight one.

Every count lives in a :class:`~repro.obs.metrics.MetricsRegistry`
family, exported through the CLI's ``--metrics-out``, and ``summary()``
/ ``format_report()`` read the same numbers.  Latencies have one source,
the log-bucketed obs histograms: a served query is one observation into
``repro_query_latency_seconds{cache="hit"|"miss"}``, and
``repro_queries_total{cache}``, the hit/miss split and the report's
count, mean, max and p50/p90/p99 (within 4.4%) are read from those two
children.  Each ServiceMetrics owns a *private* registry by default so
concurrent services never pollute each other's counts; pass
``registry=`` to share one.

Windowed reads: :meth:`interval_summary` returns the delta since its
previous call — *current* qps/ups/hit-rate for a live stats line —
computed from registry snapshots, while :meth:`summary` stays the
lifetime aggregate.

All methods are thread-safe.  Recording a query takes one histogram
lock (plus the stale counter's, for a stale answer).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Sequence

from repro.obs.metrics import HistogramState, MetricsRegistry, exponential_buckets

BATCH_SIZE_BUCKETS = exponential_buckets(1.0, 2.0, 12)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 on empty input.

    Uses the ceil-based nearest-rank definition (rank ⌈q/100·n⌉), not
    round(): banker's rounding would bias half-rank percentiles — e.g.
    the median of five samples — one rank low.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def _latency_summary(state: HistogramState) -> dict:
    """Count, mean, max and p50/p90/p99 of one histogram read."""
    count = state.count
    out = {"count": count, "mean_s": state.sum / max(count, 1), "max_s": state.max}
    for q in (50.0, 90.0, 99.0):
        out[f"p{q:g}"] = state.quantile(q)
    return out


class ServiceMetrics:
    """Aggregated counters + latency histograms for one DistanceService.

    All counts live in ``self.registry`` (a private
    :class:`~repro.obs.metrics.MetricsRegistry` unless one is passed in);
    the attribute-style reads (``metrics.cache_hits`` etc.) are
    properties over the registry so existing consumers keep working.
    The submit/flush/publish hooks take ``self._lock`` around their
    multi-metric updates, and :meth:`summary` around its read of them.
    Query counts are the two query histogram children's counts.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        query_seconds = r.histogram(
            "repro_query_latency_seconds",
            "client-observed query latency, split by cache outcome",
            ("cache",),
        )
        self._hit_seconds = query_seconds.labels(cache="hit")
        self._miss_seconds = query_seconds.labels(cache="miss")
        self._observe_hit = self._hit_seconds.observe
        self._observe_miss = self._miss_seconds.observe
        # Derived from the histogram children at sample time: a query
        # costs no counter update.
        queries = r.counter(
            "repro_queries_total",
            "queries served, split by cache outcome",
            ("cache",),
        )
        children = {"hit": self._hit_seconds, "miss": self._miss_seconds}
        for outcome, child in children.items():
            queries.labels(cache=outcome).set_function(lambda c=child: c.count)
        self._stale = r.counter(
            "repro_stale_queries_total",
            "queries answered against epoch N while N+1 was being built",
        )
        self._submitted = r.counter(
            "repro_updates_submitted_total",
            "updates offered to the scheduler, split by coalescing",
            ("coalesced",),
        )
        self._submitted_new = self._submitted.labels(coalesced="no")
        self._submitted_coalesced = self._submitted.labels(coalesced="yes")
        self._applied = r.counter(
            "repro_updates_applied_total",
            "updates applied to the writer oracle by flushes",
        )
        self._flushes = r.counter(
            "repro_flushes_total", "flushed batches by trigger", ("trigger",)
        )
        self._flush_seconds = r.histogram(
            "repro_flush_latency_seconds",
            "drain + batch_update + publish wall time",
        )
        self._batch_sizes = r.histogram(
            "repro_flush_batch_size",
            "coalesced batch size per flush",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._published = r.counter(
            "repro_epochs_published_total",
            "epoch snapshots made visible to readers",
        )
        self._epoch_gauge = r.gauge(
            "repro_epoch", "most recently published epoch"
        )
        self._largest = r.gauge(
            "repro_largest_batch", "largest coalesced batch flushed so far"
        )
        self._started_at = time.perf_counter()
        self._window_lock = threading.Lock()
        self._window_snapshot: dict | None = None
        self._window_at = self._started_at

    # -- recording hooks ------------------------------------------------

    def record_query(
        self, seconds: float, cache_hit: bool, stale: bool
    ) -> None:
        (self._observe_hit if cache_hit else self._observe_miss)(seconds)
        if stale:
            self._stale.inc()

    def record_submit(self, coalesced: bool) -> None:
        with self._lock:
            (
                self._submitted_coalesced
                if coalesced
                else self._submitted_new
            ).inc()

    def record_flush(
        self, seconds: float, batch_size: int, applied: int, trigger: str
    ) -> None:
        with self._lock:
            self._flushes.labels(trigger=trigger).inc()
            self._applied.inc(applied)
            self._flush_seconds.observe(seconds)
            self._batch_sizes.observe(batch_size)
            if batch_size > self._largest.value:
                self._largest.set(batch_size)

    def record_publish(self, epoch: int | None = None) -> None:
        """A new epoch snapshot became visible to readers (a flush whose
        batch was fully invalid publishes nothing)."""
        with self._lock:
            self._published.inc()
            if epoch is not None:
                self._epoch_gauge.set(epoch)

    # -- attribute-style reads (back-compat) ----------------------------

    @property
    def queries_served(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hits(self) -> int:
        return self._hit_seconds.count

    @property
    def cache_misses(self) -> int:
        return self._miss_seconds.count

    @property
    def stale_queries(self) -> int:
        return int(self._stale.value)

    @property
    def updates_submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def updates_coalesced(self) -> int:
        return int(self._submitted_coalesced.value)

    @property
    def updates_applied(self) -> int:
        return int(self._applied.value)

    @property
    def batches_flushed(self) -> int:
        return int(self._flushes.value)

    @property
    def epochs_published(self) -> int:
        return int(self._published.value)

    @property
    def largest_batch(self) -> int:
        return int(self._largest.value)

    @property
    def flush_triggers(self) -> dict:
        return {
            values[0]: int(child.value)
            for values, child in self._flushes._iter_children()
        }

    # -- reads ----------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._started_at

    def summary(self) -> dict:
        """One flat dict with everything a load-test report needs."""
        elapsed = max(self.elapsed(), 1e-9)
        # A stale answer is observed before it is counted stale, so
        # reading the stale count first keeps it within the queries.
        stale = self.stale_queries
        hit, miss = self._hit_seconds.state(), self._miss_seconds.state()
        query = hit + miss
        queries, hits = query.count, hit.count
        # The recording lock keeps this read consistent with in-flight
        # record_submit/flush/publish calls (each mutates several
        # families at once).
        with self._lock:
            submitted = self.updates_submitted
            out = {
                "elapsed_s": elapsed,
                "queries_served": queries,
                "query_throughput_qps": queries / elapsed,
                "cache_hits": hits,
                "cache_misses": miss.count,
                "cache_hit_rate": hits / queries if queries else 0.0,
                "stale_queries": stale,
                "stale_fraction": stale / queries if queries else 0.0,
                "updates_submitted": submitted,
                "updates_coalesced": self.updates_coalesced,
                "updates_applied": self.updates_applied,
                "update_throughput_ups": submitted / elapsed,
                "batches_flushed": self.batches_flushed,
                "epochs_published": self.epochs_published,
                "largest_batch": self.largest_batch,
                "flush_triggers": dict(self.flush_triggers),
            }
            flush = self._flush_seconds.state()
        for key, value in _latency_summary(query).items():
            out[f"query_{key}"] = value
        for key, value in _latency_summary(flush).items():
            out[f"flush_{key}"] = value
        return out

    def interval_summary(self) -> dict:
        """Rates since the previous ``interval_summary`` call.

        The first call covers everything since construction.  Drives the
        CLI's periodic live stats line: lifetime averages hide a stall,
        the last-interval delta shows it.
        """
        now = time.perf_counter()
        with self._lock:
            snapshot = self.registry.snapshot()
        with self._window_lock:
            previous = self._window_snapshot or {}
            interval = max(now - self._window_at, 1e-9)
            self._window_snapshot = snapshot
            self._window_at = now

        def delta(key: str) -> float:
            return snapshot.get(key, 0) - previous.get(key, 0)

        # Queries skip self._lock: the histogram's _count comes from the
        # same state() read as its _sum, so the mean is of one set.
        hits = delta('repro_query_latency_seconds_count{cache="hit"}')
        misses = delta('repro_query_latency_seconds_count{cache="miss"}')
        queries = hits + misses
        submitted = delta(
            'repro_updates_submitted_total{coalesced="no"}'
        ) + delta('repro_updates_submitted_total{coalesced="yes"}')
        flushes = sum(
            delta(key)
            for key in snapshot
            if key.startswith("repro_flushes_total{")
        )
        flush_s = delta("repro_flush_latency_seconds_sum")
        query_s = delta('repro_query_latency_seconds_sum{cache="hit"}')
        query_s += delta('repro_query_latency_seconds_sum{cache="miss"}')
        return {
            "interval_s": interval,
            "queries": int(queries),
            "query_throughput_qps": queries / interval,
            "cache_hit_rate": hits / queries if queries else 0.0,
            "updates": int(submitted),
            "update_throughput_ups": submitted / interval,
            "flushes": int(flushes),
            "flush_seconds": flush_s,
            "query_mean_s": query_s / queries if queries else 0.0,
            "epoch": int(snapshot.get("repro_epoch", 0)),
        }

    def format_interval_line(self) -> str:
        """One live stats line (current-window rates, not lifetime)."""
        s = self.interval_summary()
        return (
            f"[{s['interval_s']:.1f}s] {s['query_throughput_qps']:.0f} q/s"
            f" (hit {s['cache_hit_rate']:.0%},"
            f" mean {s['query_mean_s'] * 1e6:.0f} us)"
            f"  {s['update_throughput_ups']:.0f} u/s"
            f"  {s['flushes']} flushes ({s['flush_seconds'] * 1e3:.1f} ms)"
            f"  epoch {s['epoch']}"
        )

    def format_report(self) -> str:
        """Human-readable multi-line report (CLI ``loadtest`` output)."""
        s = self.summary()
        us = 1e6
        lines = [
            f"elapsed            {s['elapsed_s']:.3f} s",
            (
                f"queries            {s['queries_served']}"
                f"  ({s['query_throughput_qps']:.0f} q/s)"
            ),
            (
                f"query latency      p50 {s['query_p50'] * us:.1f} us"
                f"   p90 {s['query_p90'] * us:.1f} us"
                f"   p99 {s['query_p99'] * us:.1f} us"
                f"   max {s['query_max_s'] * us:.1f} us"
            ),
            (
                f"cache              {s['cache_hits']} hits /"
                f" {s['cache_misses']} misses"
                f"  (hit rate {s['cache_hit_rate']:.1%})"
            ),
            (
                f"staleness          {s['stale_queries']} queries answered"
                f" against a stale epoch ({s['stale_fraction']:.1%})"
            ),
            (
                f"updates            {s['updates_submitted']} submitted,"
                f" {s['updates_coalesced']} coalesced,"
                f" {s['updates_applied']} applied"
                f"  ({s['update_throughput_ups']:.0f} u/s)"
            ),
            (
                f"flushes            {s['batches_flushed']}"
                f" (largest batch {s['largest_batch']},"
                f" triggers {s['flush_triggers'] or '{}'})"
            ),
            (
                f"flush latency      p50 {s['flush_p50'] * 1e3:.2f} ms"
                f"   p99 {s['flush_p99'] * 1e3:.2f} ms"
                f"   max {s['flush_max_s'] * 1e3:.2f} ms"
            ),
            f"epochs published   {s['epochs_published']}",
        ]
        return "\n".join(lines)
