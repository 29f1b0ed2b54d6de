"""CI validator for the observability smoke job.

Usage: check_obs_exports.py METRICS.prom TRACE.jsonl

Asserts the Prometheus exposition parses and covers the serving metric
families, among them both buffer-recycling counters with a recycled
sample each, and that the trace JSONL parses line-by-line with a flush
span nesting per-shard search/repair children (the processes backend's
synthesized shard tracks).  The query counts and the latency histogram
must be one source: each ``repro_queries_total{cache}`` sample equals
the histogram's ``_count`` for that outcome, and the bucket bounds span
1 us to 1 s with adjacent bounds within the stated ratio, 2**(1/8).
"""

import json
import re
import sys

from repro.obs.metrics import parse_prometheus

REQUIRED_FAMILIES = (
    "repro_queries_total",
    "repro_query_latency_seconds",
    "repro_flushes_total",
    "repro_flush_latency_seconds",
    "repro_cache_",
    "repro_scheduler_",
    "repro_epochs_published_total",
    "repro_epoch",
    "repro_pool_",
    "repro_csr_freeze_total",
    "repro_labelling_buffers_total",
    "repro_csr_buffers_total",
)

#: Flushes after the first reuse the buffers of the epoch before last:
#: the labelling's from the second flush on, the CSR rows' from the
#: third.  The smoke run flushes more often than that.
RECYCLED_SAMPLES = (
    'repro_labelling_buffers_total{path="recycled"}',
    'repro_csr_buffers_total{path="recycled"}',
)


def check_metrics(path: str) -> None:
    samples = parse_prometheus(open(path).read())
    assert samples, f"{path}: no samples parsed"
    for prefix in REQUIRED_FAMILIES:
        assert any(key.startswith(prefix) for key in samples), (
            f"{path}: no sample for family prefix {prefix!r}"
        )
    assert samples["repro_queries_total{cache=\"miss\"}"] > 0
    check_query_latency(path, samples)
    for key in RECYCLED_SAMPLES:
        assert samples.get(key, 0) > 0, f"{path}: no {key} sample"
    print(f"{path}: {len(samples)} samples across all required families")


def check_query_latency(path: str, samples: dict) -> None:
    for outcome in ("hit", "miss"):
        counted = samples[f'repro_queries_total{{cache="{outcome}"}}']
        observed = samples[
            f'repro_query_latency_seconds_count{{cache="{outcome}"}}'
        ]
        assert counted == observed, (
            f"{path}: {outcome} queries {counted} != histogram count {observed}"
        )
    bound = re.compile(
        r'repro_query_latency_seconds_bucket\{cache="miss",le="([^"]+)"\}'
    )
    bounds = sorted(
        float(m.group(1)) for key in samples if (m := bound.fullmatch(key))
    )
    # The stated ladder, written out here so a coarser one fails.
    step = 2.0 ** (1 / 8) * (1 + 1e-9)
    inside = [b for b in bounds if 1e-6 / step <= b <= step]
    assert inside and inside[0] <= 1e-6 and inside[-1] >= 1.0, (
        f"{path}: query-latency buckets do not span 1us..1s"
    )
    for low, high in zip(inside, inside[1:]):
        assert high / low <= step, (
            f"{path}: query-latency buckets {low} -> {high} wider than {step}"
        )


def check_trace(path: str) -> None:
    events = []
    for i, line in enumerate(open(path)):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise AssertionError(f"{path}:{i + 1}: bad JSON line: {exc}")
    assert events, f"{path}: empty trace"
    for event in events:
        assert event["ph"] == "X" and "ts" in event and "dur" in event
        assert "span_id" in event["args"]

    by_id = {e["args"]["span_id"]: e for e in events}
    flushes = [e for e in events if e["name"] == "flush"]
    assert flushes, f"{path}: no flush spans"
    shards = [e for e in events if e["name"] == "shard"]
    assert shards, f"{path}: no synthesized shard spans"
    for shard in shards:
        assert shard["tid"].startswith("shard-"), shard
        children = {
            e["name"]
            for e in events
            if e["args"].get("parent_id") == shard["args"]["span_id"]
        }
        assert children == {"search", "repair"}, (
            f"{path}: shard span children {children}"
        )
        # Walk to the root: every shard span must hang off a flush.
        node = shard
        while node["args"].get("parent_id") is not None:
            node = by_id[node["args"]["parent_id"]]
        assert node["name"] == "flush", (
            f"{path}: shard rooted at {node['name']!r}, not flush"
        )
    print(
        f"{path}: {len(events)} events, {len(flushes)} flushes,"
        f" {len(shards)} shard spans nested correctly"
    )


def main() -> int:
    metrics_path, trace_path = sys.argv[1], sys.argv[2]
    check_metrics(metrics_path)
    check_trace(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
