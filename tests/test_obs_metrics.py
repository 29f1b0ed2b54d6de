"""MetricsRegistry: families, labels, buckets, snapshots, exporters."""

import json
import math
import random
import threading

import pytest

from repro.obs.metrics import (
    BUCKETS_PER_OCTAVE,
    LOG_BUCKETS,
    RELATIVE_ERROR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    format_value,
    get_registry,
    parse_prometheus,
    render_prometheus,
    reset_registry,
    sample_key,
    write_metrics,
)
from repro.service.metrics import percentile


# -- helpers ------------------------------------------------------------


def test_exponential_buckets_shape():
    bounds = exponential_buckets(start=1.0, factor=2.0, count=4)
    assert bounds == (1.0, 2.0, 4.0, 8.0)
    with pytest.raises(ValueError):
        exponential_buckets(start=0)
    with pytest.raises(ValueError):
        exponential_buckets(factor=1.0)
    with pytest.raises(ValueError):
        exponential_buckets(count=0)


def test_sample_key_and_quoting():
    assert sample_key("m", {}) == "m"
    assert sample_key("m", {"a": "x", "b": "y"}) == 'm{a="x",b="y"}'
    assert sample_key("m", {"a": 'he said "hi"'}) == 'm{a="he said \\"hi\\""}'


def test_format_value_specials():
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"
    assert format_value(float("nan")) == "NaN"
    assert format_value(3.0) == "3"
    assert format_value(0.25) == "0.25"


# -- counters and gauges ------------------------------------------------


def test_counter_basics():
    c = Counter("repro_test_total", "help text")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labelless_family_is_its_own_series():
    c = Counter("repro_test_total")
    assert c.labels() is c
    c.labels().inc(4)
    assert dict(c.samples()) == {"repro_test_total": 4.0}


def test_labelled_counter_children_and_sum():
    c = Counter("repro_req_total", labelnames=("verb",))
    c.labels("get").inc(3)
    c.labels(verb="put").inc()
    assert c.labels("get") is c.labels(verb="get")
    assert c.value == 4.0
    assert dict(c.samples()) == {
        'repro_req_total{verb="get"}': 3.0,
        'repro_req_total{verb="put"}': 1.0,
    }
    # Direct inc on a labelled family is a bug, not a default series.
    with pytest.raises(ValueError):
        c.inc()
    with pytest.raises(ValueError):
        c.labels("get", "extra")
    with pytest.raises(ValueError):
        c.labels(nope="x")


def test_gauge_set_inc_dec():
    g = Gauge("repro_level")
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.value == 13.0


def test_callback_backed_metrics():
    tally = {"n": 7}
    c = Counter("repro_cb_total").set_function(lambda: tally["n"])
    g = Gauge("repro_cb_level").set_function(lambda: tally["n"] * 2)
    assert c.value == 7.0
    assert g.value == 14.0
    tally["n"] = 9
    assert c.value == 9.0
    assert dict(c.samples()) == {"repro_cb_total": 9.0}


def test_invalid_metric_name_rejected():
    with pytest.raises(ValueError):
        Counter("has spaces")
    with pytest.raises(ValueError):
        Counter("")


# -- histograms ---------------------------------------------------------


def test_histogram_bucket_boundaries_inclusive():
    h = Histogram("repro_h", buckets=(1.0, 2.0, 4.0))
    # le is inclusive: a value exactly on a bound lands in that bucket.
    for value in (0.5, 1.0, 2.0, 3.0, 4.0, 100.0):
        h.observe(value)
    assert h.bucket_counts() == {1.0: 2, 2.0: 3, 4.0: 5, math.inf: 6}
    assert h.count == 6
    assert h.sum == pytest.approx(110.5)


def test_histogram_samples_emit_cumulative_buckets():
    h = Histogram("repro_h", buckets=(1.0, 2.0))
    h.observe(0.5)
    h.observe(5.0)
    samples = dict(h.samples())
    assert samples['repro_h_bucket{le="1"}'] == 1
    assert samples['repro_h_bucket{le="2"}'] == 1
    assert samples['repro_h_bucket{le="+Inf"}'] == 2
    assert samples["repro_h_count"] == 2
    assert samples["repro_h_sum"] == pytest.approx(5.5)


def test_histogram_rejects_bad_bounds_and_strips_trailing_inf():
    with pytest.raises(ValueError):
        Histogram("repro_h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("repro_h", buckets=(1.0, 1.0))
    h = Histogram("repro_h", buckets=(1.0, math.inf))
    assert h.bounds == (1.0,)


def test_labelled_histogram():
    h = Histogram("repro_h", labelnames=("op",), buckets=(1.0,))
    h.labels("read").observe(0.5)
    h.labels("write").observe(9.0)
    samples = dict(h.samples())
    assert samples['repro_h_bucket{op="read",le="1"}'] == 1
    assert samples['repro_h_bucket{op="write",le="1"}'] == 0
    assert samples['repro_h_bucket{op="write",le="+Inf"}'] == 1


def test_log_buckets_are_a_fixed_ladder_with_the_stated_error():
    assert BUCKETS_PER_OCTAVE == 8
    assert RELATIVE_ERROR == pytest.approx(0.0443, abs=5e-5)
    assert Histogram("repro_h").bounds == LOG_BUCKETS
    ratios = [b / a for a, b in zip(LOG_BUCKETS, LOG_BUCKETS[1:])]
    step = 2.0 ** (1 / BUCKETS_PER_OCTAVE)
    assert all(r == pytest.approx(step, rel=1e-12) for r in ratios)
    # Covers a sub-microsecond cache hit through a two-minute flush.
    assert LOG_BUCKETS[0] < 0.5e-6 and LOG_BUCKETS[-1] > 100.0


def test_histogram_quantiles_match_exact_percentiles():
    """Nearest-rank quantiles read from the buckets stay within the
    stated error of the exact percentile of the same samples, here
    log-uniform over 0.5 us .. 10 s, at every rank of a long stream."""
    rng = random.Random(11)
    low, high = math.log(0.5e-6), math.log(10.0)
    for n in (1, 2, 7, 1000, 50_000):
        h = Histogram("repro_h")
        samples = [math.exp(rng.uniform(low, high)) for _ in range(n)]
        for value in samples:
            h.observe(value)
        state = h.state()
        assert state.count == n
        assert state.max == max(samples)
        assert state.sum == pytest.approx(sum(samples))
        for q in (0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100):
            exact = percentile(samples, q)
            read = state.quantile(q)
            assert abs(read / exact - 1) <= RELATIVE_ERROR + 1e-12, (n, q)
            assert h.state().quantile(q) == read


def test_histogram_state_reads_count_mean_max_and_quantiles():
    h = Histogram("repro_h")
    assert h.state().quantile(50) == 0.0  # empty
    for value in (0.1, 0.2, 0.3, 0.4):
        h.observe(value)
    state = h.state()
    assert state.count == 4
    assert state.sum / state.count == pytest.approx(0.25)
    assert state.max == 0.4
    assert abs(state.quantile(50) / 0.2 - 1) <= RELATIVE_ERROR
    assert abs(state.quantile(99) / 0.4 - 1) <= RELATIVE_ERROR
    assert state.quantile(100) <= state.max
    with pytest.raises(ValueError):
        state.quantile(101)


def test_histogram_quantile_reads_the_edge_buckets():
    h = Histogram("repro_h", buckets=(1.0, 2.0, 4.0))
    h.observe(2.5)  # (2, 4] reads its geometric midpoint, capped at the max
    assert h.state().quantile(50) == 2.5
    h.observe(3.0)
    assert h.state().quantile(100) == pytest.approx(math.sqrt(8.0))
    h.observe(0.5)  # the first bucket reads its upper bound
    assert h.state().quantile(0) == 1.0
    h.observe(9.0)  # +Inf reads the largest observation
    assert h.state().quantile(100) == 9.0


def test_labelled_histogram_state_merges_children():
    h = Histogram("repro_h", labelnames=("op",), buckets=(1.0, 2.0))
    h.labels("read").observe(0.5)
    h.labels("write").observe(1.5)
    h.labels("write").observe(7.0)
    merged = h.state()
    assert merged.counts == (1, 1, 1)
    assert merged.sum == pytest.approx(9.0)
    assert merged.max == 7.0
    assert h.count == 3
    assert merged == h.labels("read").state() + h.labels("write").state()


def test_histogram_concurrent_observations_are_not_torn():
    """counts, sum and max update together: after concurrent observing
    the state is internally consistent (count, mean and max exact)."""
    h = Histogram("repro_h")
    per_thread, threads = 5_000, 4

    def work(base):
        for i in range(per_thread):
            h.observe(base + i * 1e-9)

    workers = [
        threading.Thread(target=work, args=(0.001 * (t + 1),))
        for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    state = h.state()
    assert state.count == per_thread * threads
    expected_total = sum(
        0.001 * (t + 1) + i * 1e-9
        for t in range(threads)
        for i in range(per_thread)
    )
    assert state.sum == pytest.approx(expected_total)
    assert state.max == pytest.approx(0.001 * threads + (per_thread - 1) * 1e-9)


# -- registry -----------------------------------------------------------


def test_registry_get_or_create_and_mismatch():
    reg = MetricsRegistry()
    c1 = reg.counter("repro_a_total", "help", labelnames=("x",))
    c2 = reg.counter("repro_a_total", "ignored", labelnames=("x",))
    assert c1 is c2
    with pytest.raises(ValueError):
        reg.gauge("repro_a_total")  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("repro_a_total", labelnames=("y",))  # label mismatch


def test_snapshot_and_delta_windowing():
    reg = MetricsRegistry()
    c = reg.counter("repro_total")
    g = reg.gauge("repro_level")
    c.inc(10)
    g.set(5)
    before = reg.snapshot()
    c.inc(3)
    g.set(7)
    window = reg.delta(before)
    assert window["repro_total"] == 3.0  # counters subtract
    assert window["repro_level"] == 7.0  # gauges pass through
    # Keys absent from the previous snapshot count as zero.
    reg.counter("repro_new_total").inc(2)
    assert reg.delta(before)["repro_new_total"] == 2.0


def test_prometheus_round_trip():
    reg = MetricsRegistry()
    reg.counter("repro_q_total", "queries", labelnames=("cache",)).labels(
        "hit"
    ).inc(3)
    reg.gauge("repro_epoch", "current epoch").set(4)
    h = reg.histogram("repro_lat", "latency", buckets=(0.001, 0.01))
    h.observe(0.0005)
    h.observe(0.5)
    text = reg.render_prometheus()
    assert "# HELP repro_q_total queries" in text
    assert "# TYPE repro_lat histogram" in text
    parsed = parse_prometheus(text)
    assert parsed == reg.snapshot()


def test_render_prometheus_rejects_duplicate_families():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("repro_x_total").inc()
    b.counter("repro_x_total").inc()
    with pytest.raises(ValueError):
        render_prometheus(a, b)


def test_write_metrics_picks_format_from_suffix(tmp_path):
    reg = MetricsRegistry()
    reg.counter("repro_x_total").inc(2)
    other = MetricsRegistry()
    other.gauge("repro_y").set(1)

    json_path = tmp_path / "m.json"
    assert write_metrics(json_path, reg, other) == "json"
    payload = json.loads(json_path.read_text())
    assert payload["metrics"] == {"repro_x_total": 2.0, "repro_y": 1.0}

    prom_path = tmp_path / "m.prom"
    assert write_metrics(prom_path, reg, other) == "prometheus"
    assert parse_prometheus(prom_path.read_text()) == {
        "repro_x_total": 2.0,
        "repro_y": 1.0,
    }


def test_global_registry_reset():
    first = get_registry()
    first.counter("repro_tmp_total").inc()
    fresh = reset_registry()
    assert fresh is get_registry()
    assert fresh is not first
    assert fresh.snapshot() == {}


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()
    c = reg.counter("repro_c_total", labelnames=("t",))
    h = reg.histogram("repro_h", buckets=(0.5,))

    def work(tag):
        series = c.labels(tag)
        for _ in range(2000):
            series.inc()
            h.observe(0.25)

    threads = [
        threading.Thread(target=work, args=(str(i % 2),)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000.0
    assert h.count == 8000
    assert h.bucket_counts()[0.5] == 8000
