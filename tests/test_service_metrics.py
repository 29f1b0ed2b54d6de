"""Percentiles and the aggregated service report."""

import sys
import threading
import time

import pytest

from repro.obs.metrics import RELATIVE_ERROR, parse_prometheus
from repro.service.metrics import ServiceMetrics, percentile


def test_percentile_edge_cases():
    assert percentile([], 50) == 0.0
    assert percentile([5.0], 0) == 5.0
    assert percentile([5.0], 100) == 5.0
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    with pytest.raises(ValueError):
        percentile(samples, 101)


def test_service_metrics_counters_and_summary():
    metrics = ServiceMetrics()
    metrics.record_query(0.001, cache_hit=False, stale=False)
    metrics.record_query(0.002, cache_hit=True, stale=True)
    metrics.record_submit(coalesced=False)
    metrics.record_submit(coalesced=True)
    metrics.record_flush(0.05, batch_size=2, applied=2, trigger="size")
    metrics.record_publish()

    summary = metrics.summary()
    assert summary["queries_served"] == 2
    assert summary["cache_hits"] == 1
    assert summary["cache_hit_rate"] == 0.5
    assert summary["stale_queries"] == 1
    assert summary["stale_fraction"] == 0.5
    assert summary["updates_submitted"] == 2
    assert summary["updates_coalesced"] == 1
    assert summary["updates_applied"] == 2
    assert summary["batches_flushed"] == 1
    assert summary["epochs_published"] == 1
    assert summary["largest_batch"] == 2
    assert summary["flush_triggers"] == {"size": 1}
    assert summary["query_count"] == 2
    assert summary["flush_count"] == 1
    assert summary["query_throughput_qps"] > 0


def test_format_report_mentions_every_section():
    metrics = ServiceMetrics()
    metrics.record_query(0.001, cache_hit=False, stale=False)
    metrics.record_flush(0.01, batch_size=1, applied=1, trigger="manual")
    metrics.record_publish()
    report = metrics.format_report()
    for needle in (
        "queries",
        "query latency",
        "cache",
        "staleness",
        "updates",
        "flushes",
        "flush latency",
        "epochs published",
    ):
        assert needle in report, f"report missing {needle!r}:\n{report}"


def test_empty_metrics_report_does_not_divide_by_zero():
    metrics = ServiceMetrics()
    summary = metrics.summary()
    assert summary["cache_hit_rate"] == 0.0
    assert summary["stale_fraction"] == 0.0
    assert metrics.format_report()


def test_percentile_uses_ceil_nearest_rank():
    # round-half-even would give 2 here; nearest-rank demands 3.
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([float(i) for i in range(1, 14)], 50) == 7.0


def test_service_metrics_concurrent_recording_consistency():
    """Hammer every record_* hook from several threads; lifetime counters
    must add up exactly and the summary must not tear (e.g. a query in
    queries_served missing from the hit/miss split)."""
    metrics = ServiceMetrics()
    per_thread, threads = 2_000, 4
    stop = threading.Event()
    tears = []

    def reader():
        while not stop.is_set():
            s = metrics.summary()
            if s["cache_hits"] + s["cache_misses"] != s["queries_served"]:
                tears.append(s)
            if s["updates_applied"] % 2 != 0:
                tears.append(s)

    def writer(tid):
        for i in range(per_thread):
            metrics.record_query(1e-6, cache_hit=i % 2 == 0, stale=False)
            metrics.record_submit(coalesced=i % 4 == 0)
            if i % 100 == 0:
                metrics.record_flush(
                    1e-3, batch_size=8, applied=2, trigger="size"
                )
                metrics.record_publish(epoch=i)

    observer = threading.Thread(target=reader)
    observer.start()
    workers = [
        threading.Thread(target=writer, args=(t,)) for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    stop.set()
    observer.join()

    assert tears == []
    total = per_thread * threads
    assert metrics.queries_served == total
    assert metrics.cache_hits == total // 2
    assert metrics.updates_submitted == total
    assert metrics.updates_coalesced == total // 4
    assert metrics.batches_flushed == threads * (per_thread // 100)
    assert metrics.updates_applied == 2 * threads * (per_thread // 100)
    query_seconds = metrics.registry.histogram(
        "repro_query_latency_seconds", labelnames=("cache",)
    )
    assert query_seconds.count == total


def test_service_metrics_exports_prometheus():
    metrics = ServiceMetrics()
    metrics.record_query(0.002, cache_hit=True, stale=False)
    metrics.record_flush(0.05, batch_size=3, applied=3, trigger="age")
    metrics.record_publish(epoch=2)
    parsed = parse_prometheus(metrics.registry.render_prometheus())
    assert parsed['repro_queries_total{cache="hit"}'] == 1
    assert parsed['repro_flushes_total{trigger="age"}'] == 1
    assert parsed["repro_epoch"] == 2
    assert parsed["repro_flush_batch_size_sum"] == 3
    # Histogram buckets are cumulative and end at +Inf.
    assert (
        parsed['repro_query_latency_seconds_bucket{cache="hit",le="+Inf"}']
        == 1
    )


def test_interval_summary_windows_rates():
    metrics = ServiceMetrics()
    metrics.record_query(1e-4, cache_hit=False, stale=False)
    metrics.record_submit(coalesced=False)
    first = metrics.interval_summary()
    assert first["queries"] == 1
    assert first["updates"] == 1
    assert first["query_throughput_qps"] > 0

    # Nothing recorded since: the next window must read zero, even though
    # the lifetime counters still hold the old totals.
    time.sleep(0.01)
    second = metrics.interval_summary()
    assert second["queries"] == 0
    assert second["updates"] == 0
    assert second["query_throughput_qps"] == 0.0
    assert metrics.queries_served == 1

    metrics.record_query(2e-4, cache_hit=True, stale=False)
    metrics.record_query(2e-4, cache_hit=True, stale=False)
    metrics.record_flush(0.01, batch_size=4, applied=4, trigger="size")
    metrics.record_publish(epoch=5)
    third = metrics.interval_summary()
    assert third["queries"] == 2
    assert third["cache_hit_rate"] == 1.0
    assert third["flushes"] == 1
    assert third["flush_seconds"] == pytest.approx(0.01, rel=0.3)
    assert third["epoch"] == 5
    assert metrics.format_interval_line()  # renders without error


def test_interval_query_mean_reads_one_histogram_state():
    """Queries are recorded without the service lock, so a window's query
    count must come from the same histogram read as its latency sum: with
    one latency value, every window's mean is exactly that value."""
    metrics = ServiceMetrics()
    stop = threading.Event()
    means = []

    def writer():
        while not stop.is_set():
            metrics.record_query(1e-4, cache_hit=True, stale=False)
            metrics.record_query(1e-4, cache_hit=False, stale=False)

    workers = [threading.Thread(target=writer) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            window = metrics.interval_summary()
            if window["queries"]:
                means.append(window["query_mean_s"])
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=10)
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert means
    assert all(mean == pytest.approx(1e-4, rel=1e-9) for mean in means)


def test_a_query_is_one_observation_and_the_counts_derive_from_it():
    """The query counter, the hit/miss split and the report all read the
    two histogram children; only a stale answer touches another series."""
    metrics = ServiceMetrics()
    for i in range(30):
        metrics.record_query(1e-6 * (i + 1), cache_hit=i % 3 != 0, stale=False)
    metrics.record_query(5e-5, cache_hit=False, stale=True)
    parsed = parse_prometheus(metrics.registry.render_prometheus())
    for outcome, expected in (("hit", 20), ("miss", 11)):
        assert parsed[f'repro_queries_total{{cache="{outcome}"}}'] == expected
        assert (
            parsed[f'repro_query_latency_seconds_count{{cache="{outcome}"}}']
            == expected
        )
    assert parsed["repro_stale_queries_total"] == 1
    assert metrics.queries_served == 31
    assert (metrics.cache_hits, metrics.cache_misses) == (20, 11)
    summary = metrics.summary()
    assert summary["query_count"] == 31
    assert summary["query_max_s"] == 5e-5
    assert summary["query_mean_s"] == pytest.approx(
        (sum(1e-6 * (i + 1) for i in range(30)) + 5e-5) / 31
    )
    samples = [1e-6 * (i + 1) for i in range(30)] + [5e-5]
    for q in (50.0, 90.0, 99.0):
        exact = percentile(samples, q)
        assert abs(summary[f"query_p{q:g}"] / exact - 1) <= RELATIVE_ERROR


def test_flush_latency_reads_from_its_histogram():
    metrics = ServiceMetrics()
    for ms in (2, 4, 8, 16):
        metrics.record_flush(ms * 1e-3, batch_size=1, applied=1, trigger="size")
    summary = metrics.summary()
    assert summary["flush_count"] == 4
    assert summary["flush_max_s"] == 16e-3
    assert summary["flush_mean_s"] == pytest.approx(7.5e-3)
    assert abs(summary["flush_p50"] / 4e-3 - 1) <= RELATIVE_ERROR
